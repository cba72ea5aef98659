//! FIFO fluid queues stamped with source emission times.
//!
//! A queue holds at most one *run* of records: a count plus the interval
//! `[head_ns, tail_ns]` of source emission times its records are taken to
//! be spread over uniformly. A pop takes the oldest part of that interval,
//! and the stamps travel downstream with the records they describe, which
//! gives the simulator end-to-end latency and epoch-completion accounting at
//! O(1) per queue and without per-record state.
//!
//! Only sink latency and the epoch frontier read the intervals, so engines
//! that record neither pop with `pop::<false>`, which leaves them alone: a
//! run's interval then covers every emission it received. The counts are
//! bitwise the same either way.

/// A run of records and the emission times they carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stamp of the push that opened the run. It never changes while the run
    /// lives and travels downstream unchanged. It is not a latency: it only
    /// labels the run, and chunks an operator drains from its class queues
    /// are pushed on as one iff their stamps agree (a push of `a + b`
    /// rounds differently from two pushes).
    pub born_ns: u64,
    /// Emission time of the oldest records, in nanoseconds.
    pub head_ns: u64,
    /// Emission time of the newest records, in nanoseconds.
    pub tail_ns: u64,
    /// Number of records (fluid: fractional).
    pub records: f64,
}

impl Span {
    /// `records` records all emitted at `ns`.
    pub fn at(ns: u64, records: f64) -> Self {
        Self {
            born_ns: ns,
            head_ns: ns,
            tail_ns: ns,
            records,
        }
    }

    /// The mean emission time of records spread uniformly over the span.
    pub(crate) fn mid_ns(&self) -> u64 {
        self.head_ns + (self.tail_ns - self.head_ns) / 2
    }

    /// Widens the interval to cover `other`'s.
    pub fn cover(&mut self, other: &Span) {
        self.head_ns = self.head_ns.min(other.head_ns);
        self.tail_ns = self.tail_ns.max(other.tail_ns);
    }
}

/// A bounded FIFO fluid queue.
#[derive(Debug, Clone, Copy)]
pub struct EpochQueue {
    capacity: f64,
    /// Records queued. Kept apart from the run's `records`: a clamped push
    /// sets it to the capacity exactly while the run adds what it accepted,
    /// so the two can part by rounding.
    total: f64,
    /// The queued run, `None` once a pop took it whole.
    pub(crate) run: Option<Span>,
}

impl EpochQueue {
    /// Creates a queue holding at most `capacity` records
    /// (`f64::INFINITY` for unbounded queues, as in Timely).
    pub fn new(capacity: f64) -> Self {
        Self {
            capacity,
            total: 0.0,
            run: None,
        }
    }

    /// Records currently queued.
    pub fn len(&self) -> f64 {
        self.total
    }

    /// `true` when (numerically) empty.
    pub fn is_empty(&self) -> bool {
        self.total <= 1e-9
    }

    /// The queue's capacity in records.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Remaining space in records.
    pub fn space(&self) -> f64 {
        (self.capacity - self.total).max(0.0)
    }

    /// Fill fraction in `[0, 1]` (0 for unbounded queues).
    pub(crate) fn fill_fraction(&self) -> f64 {
        if self.capacity.is_finite() && self.capacity > 0.0 {
            (self.total / self.capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Emission time of the oldest queued records, if any.
    pub(crate) fn oldest_ns(&self) -> Option<u64> {
        self.run.map(|run| run.head_ns)
    }

    /// Pushes `span`'s records, clamped to available space, onto the run:
    /// the first push opens it, later ones add their records and widen its
    /// interval. Returns the amount actually enqueued.
    pub fn push(&mut self, span: Span) -> f64 {
        let space = self.space();
        let clamped = span.records >= space;
        let accepted = if clamped {
            space
        } else {
            span.records.max(0.0)
        };
        if accepted <= 0.0 {
            return 0.0;
        }
        match &mut self.run {
            Some(run) => {
                run.records += accepted;
                run.cover(&span);
            }
            None => {
                self.run = Some(Span {
                    records: accepted,
                    ..span
                })
            }
        }
        // A clamped push fills the queue *exactly* to capacity rather than
        // adding `capacity - total` (which lands an ulp off). Saturated
        // queues therefore return to a bitwise-identical fill level every
        // tick, which is what lets fast-forward prove a backpressured
        // equilibrium is a fixed point.
        if clamped {
            self.total = self.capacity;
        } else {
            self.total += accepted;
        }
        accepted
    }

    /// Dequeues up to `amount` records from the old end of the run. A pop
    /// that covers the run (up to `1e-12` records) takes it whole; a
    /// smaller one takes `amount` records. With `TRACK` those records are
    /// the ones emitted over `[head, cut]`, and the run's head moves to
    /// `cut`, the point that fraction of the interval reaches; without it
    /// the interval is left alone and the chunk carries the run's. Amounts
    /// below `1e-12` pop nothing.
    pub fn pop<const TRACK: bool>(&mut self, amount: f64) -> Option<Span> {
        let remaining = amount.min(self.total).max(0.0);
        let mut chunk = None;
        if remaining > 1e-12 {
            if let Some(run) = &mut self.run {
                if run.records <= remaining + 1e-12 {
                    self.total -= run.records;
                    chunk = self.run.take();
                } else {
                    let mut taken = Span {
                        records: remaining,
                        ..*run
                    };
                    if TRACK {
                        let width = (run.tail_ns - run.head_ns) as f64;
                        let cut = run.head_ns + (remaining / run.records * width) as u64;
                        taken.tail_ns = cut.min(run.tail_ns);
                        run.head_ns = taken.tail_ns;
                    }
                    chunk = Some(taken);
                    run.records -= remaining;
                    self.total -= remaining;
                }
            }
        }
        self.total = self.total.max(0.0);
        chunk
    }

    /// Applies the float operations of one tick in the *linear regime* to a
    /// queue holding a run: the partial-pop branch of [`EpochQueue::pop`]
    /// for `take` followed by one unclamped [`EpochQueue::push`] per entry
    /// of `pushes` — the same subtractions and additions on the run's
    /// `records` and on `total`, in the same order, with none of the
    /// branches. The caller (fast-forward drift replay) has checked the
    /// guards under which those branches are the ones taken; the stamps are
    /// left alone, since only engines that never read them replay.
    pub(crate) fn replay_linear(&mut self, take: f64, pushes: &[f64]) {
        let run = self.run.as_mut().expect("linear-regime queues hold a run");
        run.records -= take;
        self.total -= take;
        for &x in pushes {
            run.records += x;
            self.total += x;
        }
    }

    /// Discards all queued records.
    pub fn clear(&mut self) {
        self.run = None;
        self.total = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_pop_fifo() {
        let mut q = EpochQueue::new(100.0);
        assert_eq!(q.push(Span::at(10, 30.0)), 30.0);
        assert_eq!(q.push(Span::at(20, 30.0)), 30.0);
        assert!((q.len() - 60.0).abs() < 1e-12);
        // 40 of 60 records: two thirds of [10, 20], rounded down.
        let chunk = q.pop::<true>(40.0).expect("records queued");
        assert_eq!((chunk.head_ns, chunk.tail_ns, chunk.born_ns), (10, 16, 10));
        assert!((chunk.records - 40.0).abs() < 1e-12);
        assert!((q.len() - 20.0).abs() < 1e-12);
        assert_eq!(q.oldest_ns(), Some(16));
        let rest = q.pop::<true>(20.0).expect("records queued");
        assert_eq!((rest.head_ns, rest.tail_ns), (16, 20));
        assert_eq!(q.oldest_ns(), None);
    }

    #[test]
    fn push_respects_capacity() {
        let mut q = EpochQueue::new(50.0);
        assert_eq!(q.push(Span::at(0, 40.0)), 40.0);
        assert_eq!(q.push(Span::at(1, 40.0)), 10.0);
        assert!((q.len() - 50.0).abs() < 1e-12);
        assert_eq!(q.space(), 0.0);
        assert_eq!(q.push(Span::at(2, 1.0)), 0.0);
        assert_eq!(
            q.run.map(|r| r.tail_ns),
            Some(1),
            "a refused push stamps nothing"
        );
        assert!((q.fill_fraction() - 1.0).abs() < 1e-12);
    }

    /// Every push lands in the one run: it keeps the stamp of the push that
    /// opened it and widens to cover every push's interval.
    #[test]
    fn same_tag_merges() {
        let mut q = EpochQueue::new(100.0);
        q.push(Span::at(5, 10.0));
        q.push(Span::at(5, 15.0));
        q.push(Span {
            born_ns: 9,
            head_ns: 3,
            tail_ns: 8,
            records: 5.0,
        });
        let chunk = q.pop::<true>(100.0).expect("records queued");
        assert_eq!((chunk.born_ns, chunk.head_ns, chunk.tail_ns), (5, 3, 8));
        assert!((chunk.records - 30.0).abs() < 1e-12);
        assert_eq!(q.pop::<true>(100.0), None);
    }

    #[test]
    fn unbounded_queue() {
        let mut q = EpochQueue::new(f64::INFINITY);
        assert_eq!(q.push(Span::at(0, 1e12)), 1e12);
        assert_eq!(q.fill_fraction(), 0.0);
        assert!(q.space().is_infinite());
    }

    #[test]
    fn pop_more_than_queued() {
        let mut q = EpochQueue::new(10.0);
        q.push(Span::at(0, 5.0));
        assert_eq!(q.pop::<true>(50.0), Some(Span::at(0, 5.0)));
        assert!(q.is_empty());
        assert_eq!(q.oldest_ns(), None);
    }

    /// `replay_linear` is bitwise what `pop` + `push` do to a queue deep
    /// inside its linear regime.
    #[test]
    fn replay_linear_matches_pop_and_push_bitwise() {
        let mut exact = EpochQueue::new(5_000.0);
        exact.push(Span::at(0, 2_029.023));
        let mut replayed = exact;
        let pushes = [301.7, 0.1 + 0.2, 422.999];
        for tick in 1..=50u64 {
            exact.pop::<false>(726.2919);
            for &x in &pushes {
                assert_eq!(exact.push(Span::at(tick, x)), x, "unclamped");
            }
            replayed.replay_linear(726.2919, &pushes);
            assert_eq!(exact.len().to_bits(), replayed.len().to_bits());
            assert_eq!(
                exact.run.map(|r| r.records.to_bits()),
                replayed.run.map(|r| r.records.to_bits())
            );
        }
    }

    #[test]
    fn clear_empties() {
        let mut q = EpochQueue::new(10.0);
        q.push(Span::at(0, 5.0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop::<true>(1.0), None);
    }

    #[test]
    fn fractional_amounts() {
        let mut q = EpochQueue::new(1.0);
        q.push(Span::at(0, 0.3));
        q.push(Span::at(1, 0.3));
        let chunk = q.pop::<true>(0.45).expect("records queued");
        assert!((chunk.records - 0.45).abs() < 1e-12);
        assert!((q.len() - 0.15).abs() < 1e-12);
    }

    /// The count arithmetic of the queue before it carried emission
    /// intervals, when a queue that merged every push into one span was the
    /// scenario matrix's model: `(total, span records)`.
    #[derive(Default)]
    struct Reference {
        total: f64,
        span: Option<f64>,
    }

    impl Reference {
        fn push(&mut self, capacity: f64, records: f64) -> f64 {
            let space = (capacity - self.total).max(0.0);
            let clamped = records >= space;
            let accepted = if clamped { space } else { records.max(0.0) };
            if accepted <= 0.0 {
                return 0.0;
            }
            match &mut self.span {
                Some(span) => *span += accepted,
                None => self.span = Some(accepted),
            }
            if clamped {
                self.total = capacity;
            } else {
                self.total += accepted;
            }
            accepted
        }

        fn pop(&mut self, amount: f64) {
            let mut remaining = amount.min(self.total).max(0.0);
            while remaining > 1e-12 {
                let Some(span) = &mut self.span else {
                    break;
                };
                if *span <= remaining + 1e-12 {
                    remaining -= *span;
                    self.total -= *span;
                    self.span = None;
                } else {
                    *span -= remaining;
                    self.total -= remaining;
                    remaining = 0.0;
                }
            }
            self.total = self.total.max(0.0);
        }
    }

    /// One queue operation: a push of `records`, a pop of `records`, or a
    /// pop of everything.
    #[derive(Debug, Clone)]
    enum Op {
        Push(f64),
        Pop(f64),
        PopAll,
    }

    /// Four in ten operations push (one of them a dust-sized push), five
    /// pop part of the queue or nothing, and one pops everything.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..10, 0.0f64..1.0).prop_map(|(kind, u)| match kind {
            0..=2 => Op::Push(0.1 + u * 2_000.0),
            3 => Op::Push(1e-9 + u * 1e-6),
            4..=8 => Op::Pop(u * 1_500.0),
            _ => Op::PopAll,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reference pin: pushes into a finite capacity (clamped and
        /// dust-sized ones among them), partial pops and pops of everything
        /// leave `len()` and the run's `records` bitwise where the
        /// reference arithmetic leaves them, after every operation — with
        /// and without interval upkeep, whose chunks carry bitwise the same
        /// records.
        #[test]
        fn counts_match_the_reference_arithmetic_bitwise(
            capacity in 100.0f64..5_000.0,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let mut tracked = EpochQueue::new(capacity);
            let mut untracked = EpochQueue::new(capacity);
            let mut reference = Reference::default();
            for (t, op) in ops.into_iter().enumerate() {
                let amount = match op {
                    Op::Push(x) => {
                        let accepted = tracked.push(Span::at(t as u64, x));
                        prop_assert_eq!(accepted.to_bits(), reference.push(capacity, x).to_bits());
                        prop_assert_eq!(untracked.push(Span::at(t as u64, x)).to_bits(), accepted.to_bits());
                        None
                    }
                    Op::Pop(x) => Some(x),
                    Op::PopAll => Some(f64::INFINITY),
                };
                if let Some(x) = amount {
                    let records = |chunk: Option<Span>| chunk.map(|c| c.records.to_bits());
                    let chunk = records(tracked.pop::<true>(x));
                    prop_assert_eq!(chunk, records(untracked.pop::<false>(x)), "chunk {}", t);
                    reference.pop(x);
                }
                for q in [&tracked, &untracked] {
                    prop_assert_eq!(q.len().to_bits(), reference.total.to_bits(), "len after {}", t);
                    prop_assert_eq!(
                        q.run.map(|r| r.records.to_bits()),
                        reference.span.map(f64::to_bits),
                        "run records after {}", t
                    );
                }
            }
        }
    }
}
