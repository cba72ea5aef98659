//! Per-instance instrumentation counters (paper §4.1).
//!
//! Each parallel thread executing operator logic maintains local counters
//! for records read, records produced, useful time, and waiting for input
//! and output buffers. §3.2 defines useful time as deserialization +
//! processing + serialization; here it is one counter, because the runtime
//! measures the three activities as one timed span around the operator
//! logic. The counters are lock-free ([`SharedCounters`] uses relaxed
//! atomics) so the instrumentation cost stays in the nanosecond range — the
//! overhead the paper measures in Figure 10.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ds2_core::rates::InstanceMetrics;

/// Lock-free counters shareable between an operator thread (writer) and the
/// metrics manager (reader).
///
/// All operations use `Ordering::Relaxed`: the counters are monotonic sums
/// whose cross-field consistency is only needed at window granularity, and
/// a window boundary that splits a single record's accounting across two
/// windows is harmless (the sums still converge).
#[derive(Debug, Default)]
pub struct SharedCounters {
    records_in: AtomicU64,
    records_out: AtomicU64,
    useful_ns: AtomicU64,
    wait_input_ns: AtomicU64,
    wait_output_ns: AtomicU64,
    records_dropped: AtomicU64,
}

impl SharedCounters {
    /// Creates a zeroed, shareable counter set.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records `n` records pulled from the input.
    #[inline]
    pub fn add_records_in(&self, n: u64) {
        self.records_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` records pushed to the output.
    #[inline]
    pub fn add_records_out(&self, n: u64) {
        self.records_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds useful time: one timed span of deserialization, processing and
    /// serialization.
    #[inline]
    pub fn add_processing(&self, ns: u64) {
        self.useful_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds time spent waiting on an empty input.
    #[inline]
    pub fn add_wait_input(&self, ns: u64) {
        self.wait_input_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds time spent waiting on a full output.
    #[inline]
    pub fn add_wait_output(&self, ns: u64) {
        self.wait_output_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records `n` records dropped on the output path (a send whose receiver
    /// was gone). Zero in healthy runs; non-zero means degraded routing.
    #[inline]
    pub fn add_records_dropped(&self, n: u64) {
        self.records_dropped.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads the cumulative totals (does not reset).
    pub fn totals(&self) -> CounterTotals {
        CounterTotals {
            records_in: self.records_in.load(Ordering::Relaxed),
            records_out: self.records_out.load(Ordering::Relaxed),
            useful_ns: self.useful_ns.load(Ordering::Relaxed),
            wait_input_ns: self.wait_input_ns.load(Ordering::Relaxed),
            wait_output_ns: self.wait_output_ns.load(Ordering::Relaxed),
            records_dropped: self.records_dropped.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of [`SharedCounters`] cumulative totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterTotals {
    /// Cumulative records pulled from the input.
    pub records_in: u64,
    /// Cumulative records pushed to the output.
    pub records_out: u64,
    /// Cumulative useful nanoseconds.
    pub useful_ns: u64,
    /// Cumulative nanoseconds waiting on input.
    pub wait_input_ns: u64,
    /// Cumulative nanoseconds waiting on output.
    pub wait_output_ns: u64,
    /// Cumulative records dropped because an output receiver was gone.
    pub records_dropped: u64,
}

impl CounterTotals {
    /// Records dropped since an earlier reading `start` — the windowed
    /// companion of [`window_since`](Self::window_since) for the drop
    /// counter, which is reported per operator rather than per instance
    /// and therefore lives outside [`InstanceMetrics`].
    pub fn dropped_since(&self, start: &CounterTotals) -> u64 {
        self.records_dropped.saturating_sub(start.records_dropped)
    }

    /// Metrics for the window between an earlier reading `start` (taken at
    /// `start_ns`) and this reading (taken at `now_ns`), clamped to the model
    /// invariants `Wu <= W` and `Wu + waits <= W`.
    ///
    /// Measurement intervals straddling the window boundary are credited
    /// entirely to the window they end in, so raw useful/wait sums can exceed
    /// the window by up to one interval; waits are scaled back proportionally.
    pub fn window_since(
        &self,
        start: &CounterTotals,
        start_ns: u64,
        now_ns: u64,
    ) -> InstanceMetrics {
        let window_ns = now_ns.saturating_sub(start_ns);
        let useful_ns = self
            .useful_ns
            .saturating_sub(start.useful_ns)
            .min(window_ns);
        let mut wait_input_ns = self.wait_input_ns.saturating_sub(start.wait_input_ns);
        let mut wait_output_ns = self.wait_output_ns.saturating_sub(start.wait_output_ns);
        let budget = window_ns - useful_ns;
        let total_wait = wait_input_ns.saturating_add(wait_output_ns);
        if total_wait > budget {
            wait_input_ns = (wait_input_ns as u128 * budget as u128 / total_wait as u128) as u64;
            wait_output_ns = (wait_output_ns as u128 * budget as u128 / total_wait as u128) as u64;
        }
        InstanceMetrics {
            records_in: self.records_in.saturating_sub(start.records_in),
            records_out: self.records_out.saturating_sub(start.records_out),
            useful_ns,
            window_ns,
            wait_input_ns,
            wait_output_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_since_clamps_useful_to_window() {
        // A window boundary race can make useful time appear to exceed the
        // window; the counters clamp to keep the model invariant Wu <= W.
        let c = SharedCounters::new();
        c.add_processing(5_000);
        let m = c.totals().window_since(&CounterTotals::default(), 0, 1_000);
        assert_eq!(m.useful_ns, 1_000);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn window_since_clamps_excess_waits() {
        let c = SharedCounters::new();
        c.add_processing(600);
        c.add_wait_input(500);
        c.add_wait_output(300);
        let m = c.totals().window_since(&CounterTotals::default(), 0, 1_000);
        assert_eq!(m.useful_ns, 600);
        assert!(m.wait_input_ns + m.wait_output_ns <= 400);
        // Proportional: input had 5/8 of the raw wait.
        assert!(m.wait_input_ns >= m.wait_output_ns);
        assert!(m.validate().is_ok(), "{:?}", m.validate());
    }

    #[test]
    fn shared_counters_accumulate() {
        let c = SharedCounters::new();
        c.add_records_in(5);
        c.add_records_out(7);
        c.add_processing(20);
        c.add_processing(40);
        c.add_wait_input(100);
        c.add_wait_output(200);
        let t = c.totals();
        assert_eq!(t.records_in, 5);
        assert_eq!(t.records_out, 7);
        assert_eq!(t.useful_ns, 60);
        assert_eq!(t.wait_input_ns, 100);
        assert_eq!(t.wait_output_ns, 200);
    }

    #[test]
    fn window_since_diffs_totals() {
        let c = SharedCounters::new();
        c.add_records_in(100);
        c.add_processing(1_000);
        let start = c.totals();
        c.add_records_in(50);
        c.add_processing(500);
        c.add_wait_input(300);
        let end = c.totals();
        let m = end.window_since(&start, 10_000, 12_000);
        assert_eq!(m.records_in, 50);
        assert_eq!(m.useful_ns, 500);
        assert_eq!(m.wait_input_ns, 300);
        assert_eq!(m.window_ns, 2_000);
    }

    #[test]
    fn dropped_since_diffs_readings() {
        let c = SharedCounters::new();
        c.add_records_dropped(3);
        let start = c.totals();
        c.add_records_dropped(4);
        assert_eq!(c.totals().dropped_since(&start), 4);
        assert_eq!(
            start.dropped_since(&c.totals()),
            0,
            "saturates, never wraps"
        );
    }

    #[test]
    fn records_dropped_accumulates_separately() {
        let c = SharedCounters::new();
        c.add_records_out(10);
        c.add_records_dropped(3);
        let t = c.totals();
        assert_eq!(t.records_out, 10);
        assert_eq!(t.records_dropped, 3);
        // Drops are cumulative like every other counter, so windows diff.
        c.add_records_dropped(2);
        assert_eq!(c.totals().records_dropped, 5);
    }

    #[test]
    fn shared_counters_concurrent_writers() {
        let c = SharedCounters::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add_records_in(1);
                        c.add_processing(3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let t = c.totals();
        assert_eq!(t.records_in, 40_000);
        assert_eq!(t.useful_ns, 120_000);
    }
}
