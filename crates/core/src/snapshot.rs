//! Metrics snapshots: the policy's view of one observation window.

use crate::deployment::Deployment;
use crate::error::Ds2Error;
use crate::graph::{LogicalGraph, OperatorId};
use crate::opmap::OpMap;
use crate::rates::{InstanceMetrics, OperatorMetrics};

/// Everything DS2 needs to evaluate one scaling decision (§3.2):
/// per-instance true-rate counters for every operator, plus the externally
/// monitored output rate of each source.
///
/// Both maps are dense [`OpMap`] arenas indexed by [`OperatorId::index`], so
/// the policy's per-window lookups are index arithmetic, and a snapshot
/// buffer reused across windows ([`MetricsSnapshot::clear`] +
/// [`MetricsSnapshot::operator_slot`]) recycles its per-operator instance
/// vectors instead of reallocating them.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-operator instrumentation for the window.
    operators: OpMap<OperatorMetrics>,
    /// Offered output rate of each source in records/second (`λsrc`).
    ///
    /// The paper monitors these outside the reference system: they are the
    /// rates the application data sources *produce*, not the (possibly
    /// backpressure-throttled) rates the dataflow achieves.
    source_rates: OpMap<f64>,
    /// Per-instance state size of each stateful operator, in bytes — the
    /// state dimension of the resource model. Stateless operators (and
    /// collectors unaware of state) simply never report, so
    /// parallelism-only pipelines carry an empty map and compare equal to
    /// their pre-state-model selves.
    state_bytes: OpMap<f64>,
    /// Records an operator dropped on its output path during the window
    /// because a receiver was gone (degraded routing). Healthy runs never
    /// report, so the map stays empty and snapshots compare equal to their
    /// pre-drop-counter selves.
    records_dropped: OpMap<u64>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty snapshot with capacity for `n` operators.
    pub fn with_len(n: usize) -> Self {
        Self {
            operators: OpMap::with_len(n),
            source_rates: OpMap::with_len(n),
            state_bytes: OpMap::with_len(n),
            records_dropped: OpMap::with_len(n),
        }
    }

    /// Removes all operator metrics, source rates and state sizes in
    /// `O(1)`, keeping the slot allocations (and the instance vectors
    /// inside them) for reuse.
    pub fn clear(&mut self) {
        self.operators.clear();
        self.source_rates.clear();
        self.state_bytes.clear();
        self.records_dropped.clear();
    }

    /// Inserts per-instance metrics for one operator.
    pub fn insert_instances(&mut self, op: OperatorId, instances: Vec<InstanceMetrics>) {
        self.operators.insert(op, OperatorMetrics::new(instances));
    }

    /// Marks `op` reported and returns its (recycled) metrics slot with the
    /// instance vector cleared — the allocation-free filling path used by
    /// snapshot collectors that reuse one snapshot across windows.
    pub fn operator_slot(&mut self, op: OperatorId) -> &mut OperatorMetrics {
        let slot = self.operators.slot_or_default(op);
        slot.instances.clear();
        slot
    }

    /// Removes one operator's metrics (testing / partial-window handling).
    pub fn remove_operator(&mut self, op: OperatorId) -> Option<OperatorMetrics> {
        self.operators.remove(op)
    }

    /// Mutable access to an operator's metrics, if present. Unlike
    /// [`Self::operator_slot`] this does not clear the instance rows, so it
    /// can be used to edit reported samples in place (fault injection,
    /// sanitization).
    pub fn operator_mut(&mut self, op: OperatorId) -> Option<&mut OperatorMetrics> {
        self.operators.get_mut(op)
    }

    /// Removes the offered rate recorded for one source, returning it.
    pub fn remove_source_rate(&mut self, op: OperatorId) -> Option<f64> {
        self.source_rates.remove(op)
    }

    /// Records the offered rate of a source in records/second.
    pub fn set_source_rate(&mut self, op: OperatorId, rate: f64) {
        self.source_rates.insert(op, rate);
    }

    /// Removes all recorded source rates.
    pub fn clear_source_rates(&mut self) {
        self.source_rates.clear();
    }

    /// Metrics for one operator, if reported.
    #[inline]
    pub fn operator(&self, op: OperatorId) -> Option<&OperatorMetrics> {
        self.operators.get(op)
    }

    /// All reported operators in id order.
    pub fn operators(&self) -> impl Iterator<Item = (OperatorId, &OperatorMetrics)> + '_ {
        self.operators.iter()
    }

    /// The offered rate of a source, if recorded.
    #[inline]
    pub fn source_rate(&self, op: OperatorId) -> Option<f64> {
        self.source_rates.get(op).copied()
    }

    /// All recorded `(source, offered rate)` pairs in id order.
    pub fn source_rates(&self) -> impl Iterator<Item = (OperatorId, f64)> + '_ {
        self.source_rates.iter().map(|(op, &r)| (op, r))
    }

    /// Records the per-instance state size of a stateful operator, in bytes.
    pub fn set_state_bytes(&mut self, op: OperatorId, bytes: f64) {
        self.state_bytes.insert(op, bytes);
    }

    /// Per-instance state size of an operator in bytes, if reported.
    #[inline]
    pub fn state_bytes(&self, op: OperatorId) -> Option<f64> {
        self.state_bytes.get(op).copied()
    }

    /// All reported `(operator, per-instance state bytes)` pairs in id
    /// order.
    pub fn state_bytes_iter(&self) -> impl Iterator<Item = (OperatorId, f64)> + '_ {
        self.state_bytes.iter().map(|(op, &b)| (op, b))
    }

    /// Records how many output records `op` dropped in the window because a
    /// receiver had disconnected. Collectors only report non-zero counts.
    pub fn set_records_dropped(&mut self, op: OperatorId, dropped: u64) {
        self.records_dropped.insert(op, dropped);
    }

    /// Records `op` dropped on its output path in the window, if reported.
    #[inline]
    pub fn records_dropped(&self, op: OperatorId) -> Option<u64> {
        self.records_dropped.get(op).copied()
    }

    /// All reported `(operator, dropped records)` pairs in id order.
    pub fn records_dropped_iter(&self) -> impl Iterator<Item = (OperatorId, u64)> + '_ {
        self.records_dropped.iter().map(|(op, &n)| (op, n))
    }

    /// The observed (achieved) aggregate output rate of a source, from its
    /// instrumentation counters. Under backpressure this is lower than the
    /// offered rate recorded by [`MetricsSnapshot::set_source_rate`].
    pub fn observed_source_rate(&self, op: OperatorId) -> Option<f64> {
        self.operators
            .get(op)
            .and_then(|m| m.aggregate_observed_output_rate())
    }

    /// Validates the snapshot against a graph and deployment: every operator
    /// must pass [`MetricsSnapshot::validate_operator`] at its deployed
    /// parallelism.
    pub fn validate(&self, graph: &LogicalGraph, deployment: &Deployment) -> Result<(), Ds2Error> {
        graph
            .operators()
            .try_for_each(|op| self.validate_operator(graph, op, deployment.parallelism(op)))
    }

    /// Validates one operator's report: it must be present with exactly `p`
    /// instances whose counters satisfy the `Wu <= W` model invariant, and
    /// a source must also carry a finite, non-negative offered rate.
    pub fn validate_operator(
        &self,
        graph: &LogicalGraph,
        op: OperatorId,
        p: usize,
    ) -> Result<(), Ds2Error> {
        let metrics = self.operators.get(op).ok_or(Ds2Error::MissingMetrics(op))?;
        if metrics.parallelism() != p {
            return Err(Ds2Error::InvalidMetrics(format!(
                "{op} reports {} instances but {} are deployed",
                metrics.parallelism(),
                p
            )));
        }
        for inst in &metrics.instances {
            inst.validate()?;
        }
        if graph.is_source(op) {
            let rate = self
                .source_rates
                .get(op)
                .ok_or(Ds2Error::MissingMetrics(op))?;
            if !rate.is_finite() || *rate < 0.0 {
                return Err(Ds2Error::InvalidMetrics(format!(
                    "source {op} has invalid offered rate {rate}"
                )));
            }
        }
        Ok(())
    }
}

/// Two snapshots are equal when they report the same operators with equal
/// instance counters and the same source rates (bitwise on the rates) —
/// regardless of internal arena capacity or epoch-stamp history, so a
/// recycled buffer compares equal to a freshly collected one.
///
/// The simulator's fast-forward equivalence guarantee leans on this: a
/// metrics window closed after any number of replayed macro-ticks must
/// equal the window an exact tick-by-tick engine produces, bit for bit.
impl PartialEq for MetricsSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.operators.iter().eq(other.operators.iter())
            && self
                .source_rates()
                .map(|(op, r)| (op, r.to_bits()))
                .eq(other.source_rates().map(|(op, r)| (op, r.to_bits())))
            && self
                .state_bytes_iter()
                .map(|(op, b)| (op, b.to_bits()))
                .eq(other.state_bytes_iter().map(|(op, b)| (op, b.to_bits())))
            && self.records_dropped_iter().eq(other.records_dropped_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn inst(records_in: u64, records_out: u64, useful_ms: u64, window_ms: u64) -> InstanceMetrics {
        InstanceMetrics {
            records_in,
            records_out,
            useful_ns: useful_ms * 1_000_000,
            window_ns: window_ms * 1_000_000,
            ..Default::default()
        }
    }

    fn setup() -> (LogicalGraph, Deployment, MetricsSnapshot) {
        let mut b = GraphBuilder::new();
        let s = b.operator("src");
        let o = b.operator("op");
        b.connect(s, o);
        let g = b.build().unwrap();
        let d = Deployment::uniform(&g, 1);
        let mut snap = MetricsSnapshot::new();
        snap.insert_instances(s, vec![inst(0, 100, 100, 1000)]);
        snap.insert_instances(o, vec![inst(100, 100, 100, 1000)]);
        snap.set_source_rate(s, 100.0);
        (g, d, snap)
    }

    #[test]
    fn valid_snapshot_passes() {
        let (g, d, snap) = setup();
        assert!(snap.validate(&g, &d).is_ok());
    }

    #[test]
    fn missing_operator_fails() {
        let (g, d, mut snap) = setup();
        snap.remove_operator(OperatorId(1));
        assert!(matches!(
            snap.validate(&g, &d),
            Err(Ds2Error::MissingMetrics(OperatorId(1)))
        ));
    }

    #[test]
    fn parallelism_mismatch_fails() {
        let (g, mut d, snap) = setup();
        d.set(OperatorId(1), 2);
        assert!(snap.validate(&g, &d).is_err());
    }

    #[test]
    fn missing_source_rate_fails() {
        let (g, d, mut snap) = setup();
        snap.clear_source_rates();
        assert!(snap.validate(&g, &d).is_err());
    }

    #[test]
    fn non_finite_source_rate_fails() {
        let (g, d, mut snap) = setup();
        snap.set_source_rate(OperatorId(0), f64::NAN);
        assert!(snap.validate(&g, &d).is_err());
        snap.set_source_rate(OperatorId(0), -1.0);
        assert!(snap.validate(&g, &d).is_err());
    }

    #[test]
    fn observed_source_rate_reads_counters() {
        let (_, _, snap) = setup();
        assert_eq!(snap.observed_source_rate(OperatorId(0)), Some(100.0));
        assert_eq!(snap.observed_source_rate(OperatorId(9)), None);
    }

    #[test]
    fn state_bytes_round_trip_and_participate_in_equality() {
        let (_, _, mut snap) = setup();
        let (_, _, plain) = setup();
        assert_eq!(snap, plain);
        snap.set_state_bytes(OperatorId(1), 5e8);
        assert_eq!(snap.state_bytes(OperatorId(1)), Some(5e8));
        assert_eq!(snap.state_bytes(OperatorId(0)), None);
        assert_ne!(snap, plain, "state report must be observable");
        snap.clear();
        assert_eq!(snap.state_bytes(OperatorId(1)), None);
    }

    #[test]
    fn records_dropped_round_trip_and_participate_in_equality() {
        let (_, _, mut snap) = setup();
        let (_, _, plain) = setup();
        assert_eq!(snap.records_dropped(OperatorId(1)), None);
        snap.set_records_dropped(OperatorId(1), 42);
        assert_eq!(snap.records_dropped(OperatorId(1)), Some(42));
        assert_ne!(snap, plain, "dropped-record report must be observable");
        snap.clear();
        assert_eq!(snap.records_dropped(OperatorId(1)), None);
    }

    #[test]
    fn cleared_snapshot_recycles_instance_vectors() {
        let (g, d, mut snap) = setup();
        snap.clear();
        assert!(snap.operator(OperatorId(0)).is_none());
        assert_eq!(snap.source_rate(OperatorId(0)), None);
        // Refill through the slot path: contents identical to a fresh fill.
        let slot = snap.operator_slot(OperatorId(0));
        slot.instances.push(inst(0, 100, 100, 1000));
        let slot = snap.operator_slot(OperatorId(1));
        slot.instances.push(inst(100, 100, 100, 1000));
        snap.set_source_rate(OperatorId(0), 100.0);
        assert!(snap.validate(&g, &d).is_ok());
        assert_eq!(snap.observed_source_rate(OperatorId(0)), Some(100.0));
    }
}
