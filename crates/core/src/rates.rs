//! True and observed rates of operator instances (paper §3.2, Eq. 1–6).
//!
//! The model distinguishes *useful time* — the time an instance spends
//! deserializing, processing and serializing records — from waiting on input
//! or output. True rates divide record counts by useful time and therefore
//! estimate the *capacity* of an instance; observed rates divide by the full
//! window and are depressed by backpressure and idling.

use crate::error::Ds2Error;

/// Nanoseconds per second, used to express all rates in records/second.
pub(crate) const NS_PER_SEC: f64 = 1_000_000_000.0;

/// Raw instrumentation counters for one operator instance over one window.
///
/// This is the exact counter set §4.1 requires the stream processor to
/// report: records pulled (`records_in` = `Rprc`), records pushed
/// (`records_out` = `Rpsd`), useful time (`useful_ns` = `Wu`, the sum of
/// deserialization + processing + serialization durations) and the window of
/// observed time (`window_ns` = `W`). Wait components are kept for
/// diagnostics and invariant checking; they are not needed by the policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InstanceMetrics {
    /// Records pulled from the input during the window (`Rprc`).
    pub records_in: u64,
    /// Records pushed to the output during the window (`Rpsd`).
    pub records_out: u64,
    /// Useful time in nanoseconds (`Wu`): deserialization + processing +
    /// serialization, excluding any waiting.
    pub useful_ns: u64,
    /// Observed window length in nanoseconds (`W`).
    pub window_ns: u64,
    /// Time spent blocked or spinning on an empty input, in nanoseconds.
    pub wait_input_ns: u64,
    /// Time spent blocked on a full output, in nanoseconds.
    pub wait_output_ns: u64,
}

impl InstanceMetrics {
    /// Validates the defining inequality of the model: `0 <= Wu <= W`.
    pub fn validate(&self) -> Result<(), Ds2Error> {
        if self.useful_ns > self.window_ns {
            return Err(Ds2Error::InvalidMetrics(format!(
                "useful time {}ns exceeds window {}ns",
                self.useful_ns, self.window_ns
            )));
        }
        if self.wait_input_ns.saturating_add(self.wait_output_ns)
            > self.window_ns.saturating_sub(self.useful_ns)
        {
            return Err(Ds2Error::InvalidMetrics(format!(
                "wait time {}ns exceeds non-useful window time {}ns",
                self.wait_input_ns + self.wait_output_ns,
                self.window_ns - self.useful_ns
            )));
        }
        Ok(())
    }

    /// True processing rate `λp = Rprc / Wu` in records/second (Eq. 1).
    ///
    /// Returns `None` when the instance recorded no useful time, in which
    /// case the rate is undefined per the model.
    pub fn true_processing_rate(&self) -> Option<f64> {
        rate(self.records_in, self.useful_ns)
    }

    /// True output rate `λo = Rpsd / Wu` in records/second (Eq. 2).
    pub fn true_output_rate(&self) -> Option<f64> {
        rate(self.records_out, self.useful_ns)
    }

    /// Observed processing rate `λ̂p = Rprc / W` in records/second (Eq. 3).
    pub fn observed_processing_rate(&self) -> Option<f64> {
        rate(self.records_in, self.window_ns)
    }

    /// Observed output rate `λ̂o = Rpsd / W` in records/second (Eq. 4).
    pub fn observed_output_rate(&self) -> Option<f64> {
        rate(self.records_out, self.window_ns)
    }

    /// Fraction of the window spent doing useful work, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.useful_ns as f64 / self.window_ns as f64
        }
    }

    /// Fraction of the window not accounted for by useful time or measured
    /// waits, in `[0, 1]`.
    ///
    /// In a perfectly instrumented instance this is 0; a persistent gap
    /// reveals per-record overheads outside the instrumented sections
    /// (network stack, channel selection) — the §4.2.1 situation the
    /// target-rate-ratio correction exists for.
    pub(crate) fn unaccounted_fraction(&self) -> f64 {
        if self.window_ns == 0 {
            return 0.0;
        }
        let accounted = self
            .useful_ns
            .saturating_add(self.wait_input_ns)
            .saturating_add(self.wait_output_ns);
        self.window_ns.saturating_sub(accounted) as f64 / self.window_ns as f64
    }

    /// Per-instance selectivity `Rpsd / Rprc`, or `None` if nothing was read.
    pub fn selectivity(&self) -> Option<f64> {
        if self.records_in == 0 {
            None
        } else {
            Some(self.records_out as f64 / self.records_in as f64)
        }
    }

    /// Merges another window's counters into this one (component-wise sum).
    ///
    /// Useful when aggregating several reporting intervals into one policy
    /// window, as the Scaling Manager does for long policy intervals.
    pub fn merge(&mut self, other: &InstanceMetrics) {
        self.records_in += other.records_in;
        self.records_out += other.records_out;
        self.useful_ns += other.useful_ns;
        self.window_ns += other.window_ns;
        self.wait_input_ns += other.wait_input_ns;
        self.wait_output_ns += other.wait_output_ns;
    }
}

fn rate(records: u64, duration_ns: u64) -> Option<f64> {
    if duration_ns == 0 {
        None
    } else {
        Some(records as f64 * NS_PER_SEC / duration_ns as f64)
    }
}

/// Aggregated metrics for all instances of one logical operator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperatorMetrics {
    /// One entry per running instance of the operator.
    pub instances: Vec<InstanceMetrics>,
}

impl OperatorMetrics {
    /// Creates operator metrics from per-instance counters.
    pub fn new(instances: Vec<InstanceMetrics>) -> Self {
        Self { instances }
    }

    /// Current parallelism `p` (the number of reporting instances).
    pub fn parallelism(&self) -> usize {
        self.instances.len()
    }

    /// Aggregated true processing rate `o[λp] = Σ λp^k` (Eq. 5).
    ///
    /// Instances with undefined rates (zero useful time) contribute zero
    /// capacity, which is the conservative reading: an instance that did no
    /// useful work in the window demonstrated no capacity. Returns `None`
    /// only when *no* instance has a defined rate.
    pub fn aggregate_true_processing_rate(&self) -> Option<f64> {
        aggregate(self.instances.iter().map(|i| i.true_processing_rate()))
    }

    /// Aggregated true output rate `o[λo] = Σ λo^k` (Eq. 6).
    pub(crate) fn aggregate_true_output_rate(&self) -> Option<f64> {
        aggregate(self.instances.iter().map(|i| i.true_output_rate()))
    }

    /// Both aggregate true rates — `(o[λp], o[λo])` of Eq. 5–6 — in one
    /// pass over the instances. The policy reads them together every
    /// window; fusing the passes halves the per-operator instance traffic
    /// while performing bit-identical arithmetic (same per-instance
    /// formula, same summation order) to the individual aggregates.
    pub(crate) fn aggregate_true_rates(&self) -> Option<(f64, f64)> {
        let mut lp = 0.0;
        let mut lo = 0.0;
        let mut any = false;
        for inst in &self.instances {
            if inst.useful_ns == 0 {
                continue;
            }
            let useful = inst.useful_ns as f64;
            lp += inst.records_in as f64 * NS_PER_SEC / useful;
            lo += inst.records_out as f64 * NS_PER_SEC / useful;
            any = true;
        }
        any.then_some((lp, lo))
    }

    /// Aggregated observed processing rate `Σ λ̂p^k`.
    pub fn aggregate_observed_processing_rate(&self) -> Option<f64> {
        aggregate(self.instances.iter().map(|i| i.observed_processing_rate()))
    }

    /// Aggregated observed output rate `Σ λ̂o^k`.
    pub fn aggregate_observed_output_rate(&self) -> Option<f64> {
        aggregate(self.instances.iter().map(|i| i.observed_output_rate()))
    }

    /// Average true processing rate per instance, `o[λp] / p`.
    ///
    /// This is the per-instance capacity term of Eq. 7. Averaging over
    /// instances is what makes DS2 skew-oblivious (§4.2.3).
    pub fn average_true_processing_rate(&self) -> Option<f64> {
        let p = self.parallelism();
        if p == 0 {
            return None;
        }
        self.aggregate_true_processing_rate().map(|r| r / p as f64)
    }

    /// Operator selectivity `o[λo] / o[λp]` from aggregated true rates.
    pub fn selectivity(&self) -> Option<f64> {
        let lp = self.aggregate_true_processing_rate()?;
        let lo = self.aggregate_true_output_rate()?;
        if lp <= 0.0 {
            None
        } else {
            Some(lo / lp)
        }
    }

    /// Total records read across instances in the window.
    pub fn total_records_in(&self) -> u64 {
        self.instances.iter().map(|i| i.records_in).sum()
    }

    /// Total records produced across instances in the window.
    pub fn total_records_out(&self) -> u64 {
        self.instances.iter().map(|i| i.records_out).sum()
    }

    /// Mean utilization (useful fraction of the window) across instances.
    pub fn mean_utilization(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances.iter().map(|i| i.utilization()).sum::<f64>() / self.instances.len() as f64
    }

    /// Mean unaccounted-time fraction across instances.
    pub(crate) fn mean_unaccounted_fraction(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances
            .iter()
            .map(|i| i.unaccounted_fraction())
            .sum::<f64>()
            / self.instances.len() as f64
    }
}

fn aggregate(rates: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let mut sum = 0.0;
    let mut any = false;
    for r in rates.flatten() {
        sum += r;
        any = true;
    }
    any.then_some(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(records_in: u64, records_out: u64, useful_ms: u64, window_ms: u64) -> InstanceMetrics {
        InstanceMetrics {
            records_in,
            records_out,
            useful_ns: useful_ms * 1_000_000,
            window_ns: window_ms * 1_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn true_vs_observed_rates() {
        // 100 records in 200ms useful time out of a 1s window: the paper's
        // Figure 2 situation — observed 100/s, true 500/s.
        let m = inst(100, 200, 200, 1000);
        assert_eq!(m.observed_processing_rate(), Some(100.0));
        assert_eq!(m.true_processing_rate(), Some(500.0));
        assert_eq!(m.observed_output_rate(), Some(200.0));
        assert_eq!(m.true_output_rate(), Some(1000.0));
        assert_eq!(m.selectivity(), Some(2.0));
        assert!((m.utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn observed_never_exceeds_true() {
        // 0 <= λ̂ <= λ because Wu <= W (paper §3.2).
        for (useful, window) in [(1u64, 1u64), (500, 1000), (999, 1000)] {
            let m = inst(1234, 567, useful, window);
            assert!(m.observed_processing_rate().unwrap() <= m.true_processing_rate().unwrap());
            assert!(m.observed_output_rate().unwrap() <= m.true_output_rate().unwrap());
        }
    }

    #[test]
    fn zero_useful_time_is_undefined() {
        let m = inst(0, 0, 0, 1000);
        assert_eq!(m.true_processing_rate(), None);
        assert_eq!(m.observed_processing_rate(), Some(0.0));
        assert_eq!(m.selectivity(), None);
    }

    #[test]
    fn zero_window_is_undefined() {
        let m = inst(0, 0, 0, 0);
        assert_eq!(m.observed_processing_rate(), None);
        assert_eq!(m.true_processing_rate(), None);
    }

    #[test]
    fn validate_rejects_useful_exceeding_window() {
        let m = inst(1, 1, 1001, 1000);
        assert!(m.validate().is_err());
        let m = inst(1, 1, 1000, 1000);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validate_rejects_excess_wait() {
        let mut m = inst(1, 1, 600, 1000);
        m.wait_input_ns = 300_000_000;
        m.wait_output_ns = 200_000_000;
        assert!(m.validate().is_err());
        m.wait_output_ns = 100_000_000;
        assert!(m.validate().is_ok());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = inst(10, 20, 100, 1000);
        let b = inst(5, 10, 50, 1000);
        a.merge(&b);
        assert_eq!(a.records_in, 15);
        assert_eq!(a.records_out, 30);
        assert_eq!(a.useful_ns, 150_000_000);
        assert_eq!(a.window_ns, 2_000_000_000);
        // Rates follow the merged counters.
        assert_eq!(a.true_processing_rate(), Some(100.0));
    }

    #[test]
    fn operator_aggregation_eq5_eq6() {
        let op = OperatorMetrics::new(vec![inst(100, 200, 200, 1000), inst(300, 600, 300, 1000)]);
        // λp: 500 + 1000 = 1500; λo: 1000 + 2000 = 3000.
        assert_eq!(op.aggregate_true_processing_rate(), Some(1500.0));
        assert_eq!(op.aggregate_true_output_rate(), Some(3000.0));
        assert_eq!(op.average_true_processing_rate(), Some(750.0));
        assert_eq!(op.selectivity(), Some(2.0));
        assert_eq!(op.parallelism(), 2);
        assert_eq!(op.total_records_in(), 400);
        assert_eq!(op.total_records_out(), 800);
    }

    #[test]
    fn aggregation_skips_undefined_instances() {
        let op = OperatorMetrics::new(vec![inst(100, 100, 100, 1000), inst(0, 0, 0, 1000)]);
        assert_eq!(op.aggregate_true_processing_rate(), Some(1000.0));
        // Average still divides by the full parallelism: the idle instance
        // demonstrated no capacity.
        assert_eq!(op.average_true_processing_rate(), Some(500.0));
    }

    #[test]
    fn fully_idle_operator_is_undefined() {
        let op = OperatorMetrics::new(vec![inst(0, 0, 0, 1000); 3]);
        assert_eq!(op.aggregate_true_processing_rate(), None);
        assert_eq!(op.selectivity(), None);
    }

    #[test]
    fn empty_operator_metrics() {
        let op = OperatorMetrics::default();
        assert_eq!(op.parallelism(), 0);
        assert_eq!(op.average_true_processing_rate(), None);
        assert_eq!(op.mean_utilization(), 0.0);
    }
}
