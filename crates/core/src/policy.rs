//! The DS2 scaling policy: optimal parallelism in a single graph traversal
//! (paper §3.2, Eq. 7–8).
//!
//! Given the logical graph, the offered rate of each source, and the true
//! processing/output rates of every operator instance, the policy computes
//! for each operator the minimum number of instances that can sustain all
//! source rates, assuming linear scaling of true rates. The computation is a
//! single pass over the operators in topological order: each operator's
//! optimal output rate `o[λo]*` (Eq. 8) feeds the target rate of its
//! downstream operators (Eq. 7).
//!
//! # Hot-path API
//!
//! The paper positions the policy as cheap enough to run on *every* metrics
//! window. [`Ds2Policy::evaluate_into`] makes that true of this
//! implementation: it writes into a caller-owned [`PolicyWorkspace`] whose
//! dense per-operator buffers (indexed by [`OperatorId::index`]) are cleared
//! by epoch-stamping and reused across windows, so an evaluation performs
//! **zero heap allocations** once the workspace has warmed up on a graph.

use crate::deployment::Deployment;
use crate::error::Ds2Error;
use crate::graph::{LogicalGraph, OperatorId};
use crate::opmap::OpMap;
use crate::snapshot::MetricsSnapshot;

/// Tolerance used when taking ceilings of rate ratios, so that a target that
/// is *exactly* `k` times the per-instance capacity yields `k` instances
/// despite floating-point rounding.
const CEIL_EPSILON: f64 = 1e-9;

/// Lower bound on prescribed parallelism.
const MIN_PARALLELISM: usize = 1;

/// A requirement boost applies only to operators whose *unaccounted* window
/// fraction (time outside useful work and measured waits) is at or above
/// this threshold. Uncaptured overheads reveal themselves as exactly such a
/// gap; boosting every operator indiscriminately would also bump healthy
/// ones whose requirement merely sits close to a ceiling boundary.
const BOOST_UNACCOUNTED_THRESHOLD: f64 = 0.05;

/// Configuration of the DS2 policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyConfig {
    /// Upper bound on prescribed parallelism (e.g. available slots), if any.
    pub max_parallelism: Option<usize>,
    /// Per-class true-rate pass: when enabled, the policy inspects the
    /// per-instance input shares of every loaded operator and emits a
    /// [`SplitHint`] when the hottest instance's share exceeds what *any*
    /// parallelism can absorb — the hot-key failure mode where Eq. 7 keeps
    /// prescribing more instances while the hot share pins one of them.
    /// Default off: the classic parallelism-only policy.
    pub detect_splits: bool,
}

/// A policy recommendation to split an operator's hottest key class across
/// multiple instances — emitted (when [`PolicyConfig::detect_splits`] is
/// on) for operators whose hot-instance input share exceeds the
/// per-instance capacity at the target rate: a situation no parallelism
/// change can fix, only spreading the hot class can.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitHint {
    /// The operator whose hot class should split.
    pub op: OperatorId,
    /// Instances the hot class must be spread over so its per-instance
    /// rate fits the measured capacity: `ceil(hot_share × rt / capacity)`.
    pub classes: usize,
    /// The hottest instance's measured input share.
    pub hot_share: f64,
}

/// Per-operator diagnostic detail accompanying a policy decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorEstimate {
    /// Target input rate `rt = Σ A_ji · o_j[λo]*` in records/second.
    pub target_rate: f64,
    /// Average true processing rate per instance, `o[λp] / p`.
    pub capacity_per_instance: f64,
    /// Operator selectivity `o[λo] / o[λp]`.
    pub selectivity: f64,
    /// Optimal output rate `o[λo]*` (Eq. 8) given optimal upstream scaling.
    pub(crate) optimal_output_rate: f64,
    /// Real-valued instance requirement before ceiling and clamping.
    pub(crate) raw_requirement: f64,
    /// Final prescribed parallelism `π` (Eq. 7).
    pub parallelism: usize,
}

/// The outcome of one policy evaluation: a full provisioning plan.
#[derive(Debug, Clone, Default)]
pub struct PolicyOutput {
    /// Prescribed parallelism for every operator.
    pub plan: Deployment,
    /// Per-operator estimates, densely indexed by operator id.
    pub estimates: OpMap<OperatorEstimate>,
    /// Hot-class split recommendations, in topological order. Always empty
    /// unless [`PolicyConfig::detect_splits`] is enabled.
    pub splits: Vec<SplitHint>,
}

impl PolicyOutput {
    /// Total workers needed when operators share a global worker pool, as in
    /// Timely Dataflow (§4.3): the sum of per-operator optimal parallelism.
    ///
    /// An operator needing `π` dedicated instances needs `π × 100%` compute;
    /// with round-robin sharing the pool must provide the sum.
    pub fn timely_total_workers(&self, graph: &LogicalGraph) -> usize {
        graph
            .operators()
            .filter(|op| !graph.is_source(*op))
            .map(|op| self.plan.parallelism(op))
            .sum()
    }
}

/// Caller-owned scratch space for [`Ds2Policy::evaluate_into`].
///
/// Holds the dense per-operator buffers one evaluation needs — the Eq. 8
/// `o[λo]*` propagation vector plus the [`PolicyOutput`] (plan and
/// estimates) itself. Buffers are sized to the graph's operator count on
/// first use and cleared by epoch-stamping afterwards, so repeated
/// evaluations on graphs of the same (or smaller) size never touch the
/// allocator. One workspace can be reused across *different* graphs; it
/// simply grows to the largest operator count it has seen.
#[derive(Debug, Clone, Default)]
pub struct PolicyWorkspace {
    /// `o_j[λo]*` per operator, filled in topological order (Eq. 8).
    optimal_output: Vec<f64>,
    /// The evaluation result, rebuilt in place.
    out: PolicyOutput,
}

impl PolicyWorkspace {
    /// Creates an empty workspace (buffers grow on first evaluation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a workspace pre-sized for graphs of `n` operators.
    pub fn with_len(n: usize) -> Self {
        let mut ws = Self::default();
        ws.reset(n);
        ws
    }

    /// Clears the buffers and pins them to `n` operators.
    fn reset(&mut self, n: usize) {
        self.optimal_output.clear();
        self.optimal_output.resize(n, 0.0);
        self.out.plan.reset(n);
        self.out.estimates.clear();
        self.out.estimates.grow(n);
        self.out.splits.clear();
    }

    /// The result of the most recent evaluation.
    pub fn output(&self) -> &PolicyOutput {
        &self.out
    }
}

/// The DS2 scaling policy (Eq. 7–8).
#[derive(Debug, Clone, Default)]
pub struct Ds2Policy {
    /// Policy configuration.
    pub config: PolicyConfig,
}

impl Ds2Policy {
    /// Creates a policy with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a policy with the given configuration.
    pub fn with_config(config: PolicyConfig) -> Self {
        Self { config }
    }

    /// Computes the optimal provisioning plan for one metrics window into a
    /// caller-owned [`PolicyWorkspace`] and returns a reference to it.
    ///
    /// Runs in `O(V + E)`: a single traversal of the graph in topological
    /// order, which is the property that lets DS2 configure *all* operators
    /// in the same scaling decision (§3.2).
    ///
    /// After the workspace has warmed up on a graph (one evaluation), this
    /// performs no heap allocation: the dense per-operator buffers are
    /// cleared by epoch-stamping and overwritten in place, which is what
    /// keeps the decision latency negligible relative to the metrics window
    /// on large dataflows. A caller wanting an owned result clones it
    /// (`.cloned()`).
    ///
    /// # Errors
    ///
    /// Returns [`Ds2Error::MissingMetrics`] when an operator with a non-zero
    /// target rate has reported no metrics, [`Ds2Error::UndefinedRates`] when
    /// such an operator reported no useful time (so Eq. 1–2 are undefined),
    /// and [`Ds2Error::InvalidMetrics`] for non-finite inputs.
    pub fn evaluate_into<'ws>(
        &self,
        graph: &LogicalGraph,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
        ws: &'ws mut PolicyWorkspace,
    ) -> Result<&'ws PolicyOutput, Ds2Error> {
        self.evaluate_boosted_into(graph, snapshot, current, 1.0, ws)
    }

    /// [`Ds2Policy::evaluate_into`] with computed instance requirements
    /// multiplied by `boost` before the ceiling.
    ///
    /// This is the Scaling Manager's target-rate-ratio correction path
    /// (§4.2.1): the manager re-runs the policy with a boost learned from
    /// the achieved/target ratio, compensating for overheads invisible to
    /// instrumentation.
    pub(crate) fn evaluate_boosted_into<'ws>(
        &self,
        graph: &LogicalGraph,
        snapshot: &MetricsSnapshot,
        current: &Deployment,
        boost: f64,
        ws: &'ws mut PolicyWorkspace,
    ) -> Result<&'ws PolicyOutput, Ds2Error> {
        if !(boost.is_finite() && boost > 0.0) {
            return Err(Ds2Error::InvalidMetrics(format!(
                "requirement boost {boost} must be finite and positive"
            )));
        }

        ws.reset(graph.len());

        for op in graph.topological_order() {
            if graph.is_source(op) {
                let rate = snapshot
                    .source_rate(op)
                    .ok_or(Ds2Error::MissingMetrics(op))?;
                if !rate.is_finite() || rate < 0.0 {
                    return Err(Ds2Error::InvalidMetrics(format!(
                        "source {op} offered rate {rate} is invalid"
                    )));
                }
                // Base case of Eq. 8: a source's optimal output rate is the
                // externally offered rate λsrc. Eq. 7 covers non-sources
                // only (`n <= i < m`): sources keep their parallelism.
                ws.optimal_output[op.index()] = rate;
                let parallelism = current.parallelism(op).max(1);
                ws.out.estimates.insert(
                    op,
                    OperatorEstimate {
                        target_rate: rate,
                        capacity_per_instance: 0.0,
                        selectivity: 1.0,
                        optimal_output_rate: rate,
                        raw_requirement: parallelism as f64,
                        parallelism,
                    },
                );
                ws.out.plan.set(op, parallelism);
                continue;
            }

            // Target rate rt = Σ_{j upstream} w_ji · o_j[λo]* (Eq. 7 numerator,
            // generalised with edge weights; the paper's model is w = 1).
            let mut target_rate = 0.0;
            for edge in graph.upstream_edges(op) {
                // Topological order guarantees the upstream slot was written.
                target_rate += edge.weight * ws.optimal_output[edge.from.index()];
            }

            if target_rate <= 0.0 {
                // No load will ever reach this operator under the optimal
                // plan; the minimum deployment suffices and it emits nothing.
                let parallelism = self.clamp(MIN_PARALLELISM as f64);
                ws.optimal_output[op.index()] = 0.0;
                ws.out.estimates.insert(
                    op,
                    OperatorEstimate {
                        target_rate: 0.0,
                        capacity_per_instance: 0.0,
                        selectivity: 0.0,
                        optimal_output_rate: 0.0,
                        raw_requirement: MIN_PARALLELISM as f64,
                        parallelism,
                    },
                );
                ws.out.plan.set(op, parallelism);
                continue;
            }

            let metrics = snapshot.operator(op).ok_or(Ds2Error::MissingMetrics(op))?;
            let p = if metrics.parallelism() > 0 {
                metrics.parallelism()
            } else {
                current.parallelism(op)
            };
            if p == 0 {
                return Err(Ds2Error::InvalidDeployment(format!(
                    "{op} has zero current parallelism"
                )));
            }
            let (agg_lp, agg_lo) = metrics
                .aggregate_true_rates()
                .ok_or(Ds2Error::UndefinedRates(op))?;
            if agg_lp <= 0.0 {
                return Err(Ds2Error::UndefinedRates(op));
            }
            if !(agg_lp.is_finite() && agg_lo.is_finite()) {
                return Err(Ds2Error::InvalidMetrics(format!(
                    "{op} has non-finite aggregate rates"
                )));
            }

            // Eq. 7: π = ceil( rt / (o[λp]/p) ), with the manager's boost
            // folded into the requirement before the ceiling. The boost is
            // targeted at operators exhibiting uninstrumented overheads.
            // With no boost in effect the gate's outcome is 1.0 either way,
            // so the unaccounted-fraction pass over the instances is
            // skipped entirely.
            let op_boost = if boost == 1.0
                || metrics.mean_unaccounted_fraction() < BOOST_UNACCOUNTED_THRESHOLD
            {
                1.0
            } else {
                boost
            };
            let capacity_per_instance = agg_lp / p as f64;
            let raw_requirement = op_boost * target_rate / capacity_per_instance;
            let parallelism = self.clamp(raw_requirement);

            // Eq. 8: o[λo]* = (o[λo]/o[λp]) · rt — the operator's output when
            // it keeps up with its (optimally provisioned) input.
            let selectivity = agg_lo / agg_lp;
            let optimal_output_rate = selectivity * target_rate;

            ws.optimal_output[op.index()] = optimal_output_rate;
            ws.out.estimates.insert(
                op,
                OperatorEstimate {
                    target_rate,
                    capacity_per_instance,
                    selectivity,
                    optimal_output_rate,
                    raw_requirement,
                    parallelism,
                },
            );
            ws.out.plan.set(op, parallelism);

            // Per-class pass (multi-dimensional model): when the hottest
            // instance's input share is both clearly skewed and, at the
            // target rate, above what one instance can truly process, no
            // parallelism prescribed by Eq. 7 will relieve that instance —
            // the hot key class itself must be spread. Emit a hint sized so
            // the hot class's per-instance rate fits the measured capacity.
            if self.config.detect_splits && p > 1 {
                let total_in: u64 = metrics.instances.iter().map(|i| i.records_in).sum();
                let hot_in = metrics
                    .instances
                    .iter()
                    .map(|i| i.records_in)
                    .max()
                    .unwrap_or(0);
                if total_in > 0 {
                    let hot_share = hot_in as f64 / total_in as f64;
                    let hot_rate = hot_share * target_rate;
                    if hot_share > 1.5 / p as f64 && hot_rate > capacity_per_instance {
                        let classes = ((hot_rate / capacity_per_instance) - CEIL_EPSILON)
                            .ceil()
                            .max(2.0) as usize;
                        ws.out.splits.push(SplitHint {
                            op,
                            classes,
                            hot_share,
                        });
                    }
                }
            }
        }

        Ok(&ws.out)
    }

    fn clamp(&self, raw: f64) -> usize {
        let ceiled = (raw - CEIL_EPSILON).ceil().max(0.0) as usize;
        let hi = self.config.max_parallelism.unwrap_or(usize::MAX);
        ceiled.clamp(MIN_PARALLELISM, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::rates::InstanceMetrics;

    /// Builds an instance that demonstrates `capacity` records/s of true
    /// processing rate and `selectivity` output per input, at `util`
    /// utilization of a 1 s window.
    fn inst(capacity: f64, selectivity: f64, util: f64) -> InstanceMetrics {
        let window_ns = 1_000_000_000u64;
        let useful_ns = (window_ns as f64 * util) as u64;
        let records_in = (capacity * util) as u64;
        let records_out = (capacity * selectivity * util) as u64;
        InstanceMetrics {
            records_in,
            records_out,
            useful_ns,
            window_ns,
            ..Default::default()
        }
    }

    /// One evaluation in a fresh workspace, the result cloned out.
    fn evaluate(
        policy: &Ds2Policy,
        g: &LogicalGraph,
        snap: &MetricsSnapshot,
        current: &Deployment,
    ) -> Result<PolicyOutput, Ds2Error> {
        policy
            .evaluate_into(g, snap, current, &mut PolicyWorkspace::new())
            .cloned()
    }

    /// The paper's Figure 2 dataflow: src -> o1 -> o2, target 40 rec/s.
    /// o1 is a bottleneck processing 10 rec/s at full utilization; o2
    /// processes the observed 10 rec/s in 5% of its time (true rate 200/s).
    #[test]
    fn figure2_example() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let o1 = b.operator("o1");
        let o2 = b.operator("o2");
        b.connect(src, o1);
        b.connect(o1, o2);
        let g = b.build().unwrap();

        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 40.0);
        snap.insert_instances(src, vec![inst(10.0, 1.0, 0.25)]);
        // o1: true processing rate 10/s (utilization 1.0), selectivity 5
        // (10 in -> 50 out would exceed o2's observed 100; the paper says o2
        // observes 100 rec/s processed, i.e. o1 emits 10 in / 100 out).
        snap.insert_instances(o1, vec![inst(10.0, 10.0, 1.0)]);
        // o2: processes 100 rec/s observed with true rate 200/s.
        snap.insert_instances(o2, vec![inst(200.0, 1.0, 0.5)]);

        let current = Deployment::uniform(&g, 1);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &current).unwrap();

        // o1 must scale 4x to handle 40 rec/s at 10 rec/s true rate.
        assert_eq!(out.plan.parallelism(o1), 4);
        // o1 then emits 400 rec/s; o2 true rate is 200/s per instance -> 2.
        assert_eq!(out.plan.parallelism(o2), 2);
        let e1 = out.estimates[&o1];
        assert!((e1.target_rate - 40.0).abs() < 1e-9);
        assert!((e1.optimal_output_rate - 400.0).abs() < 1e-9);
    }

    /// The paper's §5.2 word count: source 1M sentences/min, FlatMap capped
    /// at 100K sentences/min/instance, Count at 1M words/min/instance with
    /// 20 words per sentence. DS2 must prescribe 10 FlatMap and 20 Count in
    /// a single decision.
    #[test]
    fn heron_wordcount_single_step() {
        let mut b = GraphBuilder::new();
        let src = b.operator("source");
        let fm = b.operator("flat_map");
        let cnt = b.operator("count");
        b.connect(src, fm);
        b.connect(fm, cnt);
        let g = b.build().unwrap();

        // Use a 60-second window so per-minute counts are exact integers.
        let minute_ns = 60_000_000_000u64;
        let over_minute = |records_in: u64, records_out: u64, useful_frac: f64| InstanceMetrics {
            records_in,
            records_out,
            useful_ns: (minute_ns as f64 * useful_frac) as u64,
            window_ns: minute_ns,
            ..Default::default()
        };
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 1_000_000.0 / 60.0);
        snap.insert_instances(src, vec![over_minute(0, 100_000, 0.1)]);
        // FlatMap: 100K sentences/min capacity, 20 words per sentence,
        // fully saturated (it is the bottleneck).
        snap.insert_instances(fm, vec![over_minute(100_000, 2_000_000, 1.0)]);
        // Count: 1M words/min capacity, selectivity 1, saturated too.
        snap.insert_instances(cnt, vec![over_minute(1_000_000, 1_000_000, 1.0)]);

        let current = Deployment::uniform(&g, 1);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &current).unwrap();
        assert_eq!(out.plan.parallelism(fm), 10);
        assert_eq!(out.plan.parallelism(cnt), 20);
        // Source keeps its parallelism.
        assert_eq!(out.plan.parallelism(src), 1);
    }

    #[test]
    fn exact_multiple_does_not_round_up() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 1000.0);
        snap.insert_instances(src, vec![inst(1000.0, 1.0, 0.5)]);
        // Capacity exactly 250/s per instance: 1000/250 = 4.0 -> 4, not 5.
        snap.insert_instances(op, vec![inst(250.0, 1.0, 1.0)]);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap();
        assert_eq!(out.plan.parallelism(op), 4);
    }

    #[test]
    fn multi_source_targets_sum() {
        // Two sources feed one join; target is the sum of both rates.
        let mut b = GraphBuilder::new();
        let s1 = b.operator("s1");
        let s2 = b.operator("s2");
        let j = b.operator("join");
        b.connect(s1, j);
        b.connect(s2, j);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(s1, 300.0);
        snap.set_source_rate(s2, 200.0);
        snap.insert_instances(s1, vec![inst(300.0, 1.0, 0.3)]);
        snap.insert_instances(s2, vec![inst(200.0, 1.0, 0.2)]);
        snap.insert_instances(j, vec![inst(100.0, 0.5, 1.0)]);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap();
        let e = out.estimates[&j];
        assert!((e.target_rate - 500.0).abs() < 1e-9);
        assert_eq!(out.plan.parallelism(j), 5);
        assert!((e.optimal_output_rate - 250.0).abs() < 1e-9);
    }

    #[test]
    fn downstream_of_scaled_operator_uses_optimal_rate() {
        // src(100/s) -> a (cap 50, sel 2) -> b (cap 100, sel 1).
        // a needs 2 instances and will emit 200/s once scaled; b must be
        // provisioned for 200/s (2 instances), not for a's current output.
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let a = b.operator("a");
        let c = b.operator("b");
        b.connect(src, a);
        b.connect(a, c);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 100.0);
        snap.insert_instances(src, vec![inst(100.0, 1.0, 0.1)]);
        snap.insert_instances(a, vec![inst(50.0, 2.0, 1.0)]);
        snap.insert_instances(c, vec![inst(100.0, 1.0, 1.0)]);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap();
        assert_eq!(out.plan.parallelism(a), 2);
        assert_eq!(out.plan.parallelism(c), 2);
    }

    #[test]
    fn scale_down_overprovisioned() {
        // Operator has 8 instances but the load needs 2.
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 100.0);
        snap.insert_instances(src, vec![inst(100.0, 1.0, 0.1)]);
        // 8 instances, each true rate 50/s, each only 40% utilized (40% of
        // 50/s keeps the record counts integral).
        snap.insert_instances(op, vec![inst(50.0, 1.0, 0.4); 8]);
        let mut current = Deployment::uniform(&g, 1);
        current.set(op, 8);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &current).unwrap();
        assert_eq!(out.plan.parallelism(op), 2);
    }

    #[test]
    fn weighted_fanout_splits_target() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let l = b.operator("left");
        let r = b.operator("right");
        b.connect_weighted(src, l, 0.25);
        b.connect_weighted(src, r, 0.75);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 400.0);
        snap.insert_instances(src, vec![inst(400.0, 1.0, 0.4)]);
        snap.insert_instances(l, vec![inst(50.0, 1.0, 1.0)]);
        snap.insert_instances(r, vec![inst(50.0, 1.0, 1.0)]);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap();
        assert_eq!(out.plan.parallelism(l), 2); // 100 / 50
        assert_eq!(out.plan.parallelism(r), 6); // 300 / 50
    }

    #[test]
    fn zero_target_uses_min_parallelism() {
        // A filter that drops everything: downstream sees zero target.
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let f = b.operator("filter");
        let d = b.operator("down");
        b.connect(src, f);
        b.connect(f, d);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 100.0);
        snap.insert_instances(src, vec![inst(100.0, 1.0, 0.1)]);
        snap.insert_instances(f, vec![inst(200.0, 0.0, 0.5)]);
        // Downstream has no metrics at all: must still work since rt = 0.
        let mut current = Deployment::uniform(&g, 1);
        current.set(d, 5);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &current).unwrap();
        assert_eq!(out.plan.parallelism(d), 1);
        assert_eq!(out.estimates[&d].target_rate, 0.0);
    }

    #[test]
    fn undefined_rates_error() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 100.0);
        snap.insert_instances(src, vec![inst(100.0, 1.0, 0.1)]);
        // op reported a window but zero useful time.
        snap.insert_instances(
            op,
            vec![InstanceMetrics {
                window_ns: 1_000_000_000,
                ..Default::default()
            }],
        );
        let err = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap_err();
        assert_eq!(err, Ds2Error::UndefinedRates(op));
    }

    #[test]
    fn missing_metrics_error() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 100.0);
        snap.insert_instances(src, vec![inst(100.0, 1.0, 0.1)]);
        let err = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap_err();
        assert_eq!(err, Ds2Error::MissingMetrics(op));
    }

    #[test]
    fn max_parallelism_caps_plan() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 10_000.0);
        snap.insert_instances(src, vec![inst(10_000.0, 1.0, 0.5)]);
        snap.insert_instances(op, vec![inst(100.0, 1.0, 1.0)]);
        let policy = Ds2Policy::with_config(PolicyConfig {
            max_parallelism: Some(36),
            ..Default::default()
        });
        let out = evaluate(&policy, &g, &snap, &Deployment::uniform(&g, 1)).unwrap();
        assert_eq!(out.plan.parallelism(op), 36);
    }

    #[test]
    fn requirement_boost_scales_up() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 1000.0);
        snap.insert_instances(src, vec![inst(1000.0, 1.0, 0.5)]);
        // 80% useful, no measured waits: a 20% unaccounted gap marks the
        // operator as suffering uninstrumented overheads, so it is boosted.
        snap.insert_instances(op, vec![inst(250.0, 1.0, 0.8)]);
        let mut ws = PolicyWorkspace::new();
        let out = Ds2Policy::new()
            .evaluate_boosted_into(&g, &snap, &Deployment::uniform(&g, 1), 1.25, &mut ws)
            .unwrap();
        // 4.0 raw requirement boosted to 5.0.
        assert_eq!(out.plan.parallelism(op), 5);
    }

    #[test]
    fn workspace_reuse_matches_fresh_evaluation() {
        // Same workspace driven across two different graphs and repeated
        // windows: every call must match one in a fresh workspace.
        let mut ws = PolicyWorkspace::new();
        let policy = Ds2Policy::new();
        for n in [5usize, 3, 8] {
            let mut b = GraphBuilder::new();
            let mut prev = b.operator("src");
            let mut ids = vec![prev];
            for i in 1..n {
                let op = b.operator(format!("op{i}"));
                b.connect(prev, op);
                prev = op;
                ids.push(op);
            }
            let g = b.build().unwrap();
            let mut snap = MetricsSnapshot::new();
            snap.set_source_rate(ids[0], 1000.0);
            snap.insert_instances(ids[0], vec![inst(1000.0, 1.0, 0.5)]);
            for &op in &ids[1..] {
                snap.insert_instances(op, vec![inst(300.0, 1.0, 0.9)]);
            }
            let current = Deployment::uniform(&g, 2);
            let fresh = evaluate(&policy, &g, &snap, &current).unwrap();
            let reused = policy.evaluate_into(&g, &snap, &current, &mut ws).unwrap();
            assert_eq!(fresh.plan, reused.plan);
            for op in g.operators() {
                assert_eq!(fresh.estimates[&op], reused.estimates[&op]);
            }
        }
    }

    #[test]
    fn boost_skips_fully_accounted_operators() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 1000.0);
        snap.insert_instances(src, vec![inst(1000.0, 1.0, 0.5)]);
        // 80% useful and the remaining 20% is *measured* input wait: the
        // instrumentation fully explains the window, so no boost applies.
        let mut m = inst(250.0, 1.0, 0.8);
        m.wait_input_ns = m.window_ns - m.useful_ns;
        snap.insert_instances(op, vec![m]);
        let mut ws = PolicyWorkspace::new();
        let out = Ds2Policy::new()
            .evaluate_boosted_into(&g, &snap, &Deployment::uniform(&g, 1), 1.25, &mut ws)
            .unwrap();
        assert_eq!(out.plan.parallelism(op), 4, "boost must not apply");
    }

    #[test]
    fn timely_total_workers_sums_non_sources() {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let a = b.operator("a");
        let c = b.operator("b");
        b.connect(src, a);
        b.connect(a, c);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 100.0);
        snap.insert_instances(src, vec![inst(100.0, 1.0, 0.1)]);
        snap.insert_instances(a, vec![inst(50.0, 1.0, 1.0)]);
        snap.insert_instances(c, vec![inst(25.0, 1.0, 1.0)]);
        let out = evaluate(&Ds2Policy::new(), &g, &snap, &Deployment::uniform(&g, 1)).unwrap();
        // a needs 2, b needs 4 -> 6 total workers.
        assert_eq!(out.timely_total_workers(&g), 6);
    }

    /// src(1000/s) -> op at p=4 with one instance pulling `hot_in` of the
    /// 1000 records seen this window; all instances run fully utilized so
    /// per-instance capacity is 250/s.
    fn skewed_setup(hot_in: u64) -> (LogicalGraph, MetricsSnapshot, Deployment, OperatorId) {
        let mut b = GraphBuilder::new();
        let src = b.operator("src");
        let op = b.operator("op");
        b.connect(src, op);
        let g = b.build().unwrap();
        let mut snap = MetricsSnapshot::new();
        snap.set_source_rate(src, 1000.0);
        snap.insert_instances(src, vec![inst(1000.0, 1.0, 0.5)]);
        let cold = (1000 - hot_in) / 3;
        let mk = |records_in: u64| InstanceMetrics {
            records_in,
            records_out: records_in,
            useful_ns: 1_000_000_000,
            window_ns: 1_000_000_000,
            ..Default::default()
        };
        snap.insert_instances(op, vec![mk(hot_in), mk(cold), mk(cold), mk(cold)]);
        let mut current = Deployment::uniform(&g, 1);
        current.set(op, 4);
        (g, snap, current, op)
    }

    #[test]
    fn split_hint_fires_on_hot_instance() {
        let (g, snap, current, op) = skewed_setup(700);
        let policy = Ds2Policy::with_config(PolicyConfig {
            detect_splits: true,
            ..Default::default()
        });
        let out = evaluate(&policy, &g, &snap, &current).unwrap();
        // hot_share 0.7 > 1.5/4 and hot rate 700/s > 250/s capacity:
        // the hot class must spread over ceil(700/250) = 3 instances.
        assert_eq!(out.splits.len(), 1);
        let hint = out.splits[0];
        assert_eq!(hint.op, op);
        assert_eq!(hint.classes, 3);
        assert!((hint.hot_share - 0.7).abs() < 1e-12);
    }

    #[test]
    fn split_hint_off_by_default_and_plan_unchanged() {
        let (g, snap, current, _) = skewed_setup(700);
        let default_out = evaluate(&Ds2Policy::new(), &g, &snap, &current).unwrap();
        assert!(default_out.splits.is_empty(), "detect_splits defaults off");
        let split_policy = Ds2Policy::with_config(PolicyConfig {
            detect_splits: true,
            ..Default::default()
        });
        let split_out = evaluate(&split_policy, &g, &snap, &current).unwrap();
        // Detection is purely additive: the Eq. 7 plan is untouched.
        assert_eq!(default_out.plan, split_out.plan);
    }

    #[test]
    fn split_hint_silent_on_uniform_or_absorbable_load() {
        // Uniform shares: hot_share 0.25 < 1.5/4.
        let (g, snap, current, _) = skewed_setup(250);
        let policy = Ds2Policy::with_config(PolicyConfig {
            detect_splits: true,
            ..Default::default()
        });
        assert!(evaluate(&policy, &g, &snap, &current)
            .unwrap()
            .splits
            .is_empty());
        // Skewed but absorbable: same shape at a tenth of the load, so the
        // hot class's 70/s fits one instance's 250/s capacity.
        let (g, mut snap, current, op) = skewed_setup(700);
        snap.set_source_rate(OperatorId(0), 100.0);
        let mk = |records_in: u64| InstanceMetrics {
            records_in,
            records_out: records_in,
            useful_ns: 100_000_000,
            window_ns: 1_000_000_000,
            ..Default::default()
        };
        snap.insert_instances(op, vec![mk(70), mk(10), mk(10), mk(10)]);
        assert!(evaluate(&policy, &g, &snap, &current)
            .unwrap()
            .splits
            .is_empty());
    }

    #[test]
    fn workspace_reset_clears_stale_split_hints() {
        let (g, snap, current, _) = skewed_setup(700);
        let policy = Ds2Policy::with_config(PolicyConfig {
            detect_splits: true,
            ..Default::default()
        });
        let mut ws = PolicyWorkspace::new();
        policy.evaluate_into(&g, &snap, &current, &mut ws).unwrap();
        assert_eq!(ws.output().splits.len(), 1);
        let (g2, snap2, current2, _) = skewed_setup(250);
        policy
            .evaluate_into(&g2, &snap2, &current2, &mut ws)
            .unwrap();
        assert!(ws.output().splits.is_empty(), "stale hints must not leak");
    }
}
