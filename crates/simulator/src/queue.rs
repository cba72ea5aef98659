//! FIFO fluid queues tagged with source emission time.
//!
//! Queue entries carry the (virtual) time the records were originally
//! emitted by a source. The tag propagates through the dataflow as records
//! are transformed, which gives the simulator exact end-to-end latency and
//! epoch-completion accounting without per-record state.

use std::collections::VecDeque;

/// A contiguous span of records sharing one source-emission timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Source emission time of the records, in nanoseconds.
    pub emitted_ns: u64,
    /// Number of records (fluid: fractional).
    pub records: f64,
}

/// A bounded FIFO fluid queue.
#[derive(Debug, Clone)]
pub struct EpochQueue {
    spans: VecDeque<Span>,
    total: f64,
    capacity: f64,
    /// When `true` the queue does not track emission times: every push
    /// merges into a single span whose tag is frozen at the first push, so
    /// per-record latency and epoch accounting lose meaning. Lengths equal
    /// a tagged queue's only up to rounding: a tagged drain subtracts span
    /// by span, an untagged one once. The scenario matrix runs untagged
    /// (it never reads latency), which removes the span bookkeeping from
    /// its hot path and is what lets fast-forward prove its ticks.
    untagged: bool,
}

/// Upper bound on the number of spans one queue tracks.
///
/// A nearly-full queue accepts a sliver of records every tick
/// (`records.min(space)`), each with a fresh emission tag; without a bound
/// the span list grows by one entry per tick for the whole run — unbounded
/// memory and O(spans) tick cost — while the record total stays capped.
/// Beyond this bound new pushes merge into the newest span, trading a
/// little emission-time resolution (latency accounting only) for strictly
/// bounded memory.
const MAX_SPANS: usize = 256;

impl EpochQueue {
    /// Creates a queue holding at most `capacity` records
    /// (`f64::INFINITY` for unbounded queues, as in Timely).
    pub fn new(capacity: f64) -> Self {
        Self {
            spans: VecDeque::new(),
            total: 0.0,
            capacity,
            untagged: false,
        }
    }

    /// Creates an *untagged* queue: all queued records share one span (no
    /// emission times, no per-record latency), and record totals equal a
    /// tagged queue's up to rounding.
    pub fn new_untagged(capacity: f64) -> Self {
        Self {
            spans: VecDeque::new(),
            total: 0.0,
            capacity,
            untagged: true,
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
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity.is_finite() && self.capacity > 0.0 {
            (self.total / self.capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// Emission time of the oldest queued records, if any.
    pub fn oldest_ns(&self) -> Option<u64> {
        self.spans.front().map(|s| s.emitted_ns)
    }

    /// Number of spans currently tracked (bounded by `MAX_SPANS`).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Pushes records tagged `emitted_ns`, clamped to available space.
    /// Returns the amount actually enqueued.
    pub fn push(&mut self, emitted_ns: u64, records: f64) -> f64 {
        let space = self.space();
        let clamped = records >= space;
        let accepted = if clamped { space } else { records.max(0.0) };
        if accepted <= 0.0 {
            return 0.0;
        }
        // Merge with the tail span when the tag matches (sources push once
        // per tick, so this keeps the deque short), when the fragment is
        // dust, when the span list hit its bound, or always for untagged
        // queues. Merges keep the tail's (older) tag, which can only
        // over-estimate latency, never hide it.
        let at_cap = self.untagged || self.spans.len() >= MAX_SPANS;
        match self.spans.back_mut() {
            Some(tail) if tail.emitted_ns == emitted_ns || accepted < 1e-6 || at_cap => {
                tail.records += accepted
            }
            _ => self.spans.push_back(Span {
                emitted_ns,
                records: accepted,
            }),
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

    /// Dequeues up to `amount` records in FIFO order, returning the drained
    /// spans (oldest first). Allocates; hot paths use
    /// [`EpochQueue::pop_into`] with a reused buffer instead.
    pub fn pop(&mut self, amount: f64) -> Vec<Span> {
        let mut drained = Vec::new();
        self.pop_into(amount, &mut drained);
        drained
    }

    /// Dequeues up to `amount` records in FIFO order, *appending* the
    /// drained spans (oldest first) to `out` — the allocation-free variant
    /// of [`EpochQueue::pop`] for callers that recycle a scratch buffer.
    pub fn pop_into(&mut self, amount: f64, out: &mut Vec<Span>) {
        let mut remaining = amount.min(self.total).max(0.0);
        while remaining > 1e-12 {
            let Some(front) = self.spans.front_mut() else {
                break;
            };
            if front.records <= remaining + 1e-12 {
                remaining -= front.records;
                self.total -= front.records;
                out.push(*front);
                self.spans.pop_front();
            } else {
                front.records -= remaining;
                self.total -= remaining;
                out.push(Span {
                    emitted_ns: front.emitted_ns,
                    records: remaining,
                });
                remaining = 0.0;
            }
        }
        self.total = self.total.max(0.0);
    }

    /// Records of the queue's only span, when it holds exactly one (always
    /// the case for a non-empty untagged queue).
    pub(crate) fn sole_span_records(&self) -> Option<f64> {
        match self.spans.len() {
            1 => self.spans.front().map(|s| s.records),
            _ => None,
        }
    }

    /// Applies the float operations of one tick in the *linear regime* to a
    /// single-span queue: the partial-pop branch of [`EpochQueue::pop_into`]
    /// for `take` followed by one unclamped, merging [`EpochQueue::push`]
    /// per entry of `pushes` — the same subtractions and additions on the
    /// span's `records` and on `total`, in the same order, with none of the
    /// branches. The caller (fast-forward drift replay) has checked the
    /// guards under which those branches are the ones taken.
    pub(crate) fn replay_linear(&mut self, take: f64, pushes: &[f64]) {
        let span = self
            .spans
            .front_mut()
            .expect("linear-regime queues hold one span");
        span.records -= take;
        self.total -= take;
        for &x in pushes {
            span.records += x;
            self.total += x;
        }
    }

    /// Sets an untagged queue's contents to a state recorded earlier: its
    /// `total`, and its only span's `records` (`None` = no span) and tag.
    /// Fast-forward replay uses it for the queues of a cycle that return to
    /// their recorded states.
    pub(crate) fn restore(&mut self, total: f64, sole_records: Option<f64>, tag: u64) {
        debug_assert!(self.untagged);
        self.total = total;
        self.spans.clear();
        if let Some(records) = sole_records {
            self.spans.push_back(Span {
                emitted_ns: tag,
                records,
            });
        }
    }

    /// Discards all queued records (used when a failed job is not restored).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.total = 0.0;
    }

    /// Replaces the capacity, keeping contents (even if above the new cap;
    /// excess drains naturally).
    pub fn set_capacity(&mut self, capacity: f64) {
        self.capacity = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let mut q = EpochQueue::new(100.0);
        assert_eq!(q.push(10, 30.0), 30.0);
        assert_eq!(q.push(20, 30.0), 30.0);
        assert!((q.len() - 60.0).abs() < 1e-12);
        let spans = q.pop(40.0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].emitted_ns, 10);
        assert!((spans[0].records - 30.0).abs() < 1e-12);
        assert_eq!(spans[1].emitted_ns, 20);
        assert!((spans[1].records - 10.0).abs() < 1e-12);
        assert!((q.len() - 20.0).abs() < 1e-12);
        assert_eq!(q.oldest_ns(), Some(20));
    }

    #[test]
    fn push_respects_capacity() {
        let mut q = EpochQueue::new(50.0);
        assert_eq!(q.push(0, 40.0), 40.0);
        assert_eq!(q.push(1, 40.0), 10.0);
        assert!((q.len() - 50.0).abs() < 1e-12);
        assert_eq!(q.space(), 0.0);
        assert_eq!(q.push(2, 1.0), 0.0);
        assert!((q.fill_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_tag_merges() {
        let mut q = EpochQueue::new(100.0);
        q.push(5, 10.0);
        q.push(5, 15.0);
        let spans = q.pop(100.0);
        assert_eq!(spans.len(), 1);
        assert!((spans[0].records - 25.0).abs() < 1e-12);
    }

    #[test]
    fn unbounded_queue() {
        let mut q = EpochQueue::new(f64::INFINITY);
        assert_eq!(q.push(0, 1e12), 1e12);
        assert_eq!(q.fill_fraction(), 0.0);
        assert!(q.space().is_infinite());
    }

    #[test]
    fn pop_more_than_queued() {
        let mut q = EpochQueue::new(10.0);
        q.push(0, 5.0);
        let spans = q.pop(50.0);
        assert_eq!(spans.len(), 1);
        assert!(q.is_empty());
        assert_eq!(q.oldest_ns(), None);
    }

    #[test]
    fn pop_into_appends_to_reused_buffer() {
        let mut q = EpochQueue::new(100.0);
        q.push(10, 30.0);
        q.push(20, 30.0);
        let mut buf = vec![Span {
            emitted_ns: 0,
            records: 1.0,
        }];
        q.pop_into(40.0, &mut buf);
        assert_eq!(buf.len(), 3, "appends after existing contents");
        assert_eq!(buf[1].emitted_ns, 10);
        assert_eq!(buf[2].emitted_ns, 20);
        assert!((buf[2].records - 10.0).abs() < 1e-12);
    }

    /// `replay_linear` is bitwise what `pop_into` + `push` do to an
    /// untagged queue deep inside its linear regime.
    #[test]
    fn replay_linear_matches_pop_and_push_bitwise() {
        let mut exact = EpochQueue::new_untagged(5_000.0);
        exact.push(0, 2_029.023);
        let mut replayed = exact.clone();
        let pushes = [301.7, 0.1 + 0.2, 422.999];
        let mut buf = Vec::new();
        for tick in 1..=50u64 {
            buf.clear();
            exact.pop_into(726.2919, &mut buf);
            for &x in &pushes {
                assert_eq!(exact.push(tick, x), x, "unclamped");
            }
            replayed.replay_linear(726.2919, &pushes);
            assert_eq!(exact.len().to_bits(), replayed.len().to_bits());
            assert_eq!(
                exact.sole_span_records().map(f64::to_bits),
                replayed.sole_span_records().map(f64::to_bits)
            );
        }
        assert_eq!(exact.span_count(), 1);
    }

    /// `restore` puts an untagged queue into a recorded state whatever it
    /// holds: with a span, without one, and back.
    #[test]
    fn restore_sets_total_and_the_sole_span() {
        let mut q = EpochQueue::new_untagged(100.0);
        q.push(5, 30.0);
        q.restore(12.5, Some(12.25), 9);
        assert_eq!((q.len(), q.sole_span_records()), (12.5, Some(12.25)));
        assert_eq!(q.oldest_ns(), Some(9));
        q.restore(0.0, None, 9);
        assert_eq!((q.len(), q.span_count()), (0.0, 0));
        q.restore(40.0, Some(40.0), 7);
        assert_eq!((q.len(), q.sole_span_records()), (40.0, Some(40.0)));
        assert_eq!(q.oldest_ns(), Some(7));
        assert_eq!(q.push(10, 100.0), 60.0, "space follows the restored total");
    }

    #[test]
    fn clear_empties() {
        let mut q = EpochQueue::new(10.0);
        q.push(0, 5.0);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(1.0).len(), 0);
    }

    #[test]
    fn fractional_amounts() {
        let mut q = EpochQueue::new(1.0);
        q.push(0, 0.3);
        q.push(1, 0.3);
        let spans = q.pop(0.45);
        assert_eq!(spans.len(), 2);
        assert!((spans[1].records - 0.15).abs() < 1e-12);
        assert!((q.len() - 0.15).abs() < 1e-12);
    }
}
