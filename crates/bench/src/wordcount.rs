//! Word-count scenarios: the Dhalion benchmark workload used in the
//! paper's Figures 1, 6 and 7 and the §4.2.3 skew experiment.
//!
//! Topology: `source -> flat_map -> count`. The flat map splits sentences
//! into words (selectivity = words per sentence); the count aggregates per
//! word.

use std::collections::BTreeMap;

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_simulator::engine::{EngineConfig, EngineMode, FluidEngine, InstrumentationConfig};
use ds2_simulator::profile::{OperatorProfile, ProfileMap, ScalingCurve};
use ds2_simulator::source::{RateSchedule, SourceSpec};

/// Operator handles for a word-count scenario.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordCountOps {
    /// The sentence source.
    pub source: OperatorId,
    /// The sentence-splitting flat map.
    pub flat_map: OperatorId,
    /// The word counter.
    pub count: OperatorId,
}

/// Builds the word-count logical graph.
pub(crate) fn wordcount_graph() -> (LogicalGraph, WordCountOps) {
    let mut b = GraphBuilder::new();
    let source = b.operator("source");
    let flat_map = b.operator("flat_map");
    let count = b.operator("count");
    b.connect(source, flat_map);
    b.connect(flat_map, count);
    (
        b.build().expect("valid word-count graph"),
        WordCountOps {
            source,
            flat_map,
            count,
        },
    )
}

/// The Heron benchmark of §5.2 / Figures 1 and 6: 1 M sentences/minute,
/// FlatMap capped at 100 K sentences/minute/instance, Count capped at 1 M
/// words/minute/instance, 20 words per sentence. Optimal: (FlatMap 10,
/// Count 20).
pub(crate) fn heron_benchmark(initial: (usize, usize)) -> (FluidEngine, WordCountOps) {
    let (graph, ops) = wordcount_graph();
    let per_sec = 1.0 / 60.0;
    let source_rate = 1_000_000.0 * per_sec;
    let mut profiles = ProfileMap::new();
    profiles.insert(
        ops.flat_map,
        OperatorProfile::with_capacity(100_000.0 * per_sec, 20.0),
    );
    profiles.insert(
        ops.count,
        OperatorProfile::with_capacity(1_000_000.0 * per_sec, 1.0),
    );
    let mut sources = BTreeMap::new();
    sources.insert(ops.source, SourceSpec::constant(source_rate));
    let mut deployment = Deployment::uniform(&graph, 1);
    deployment.set(ops.flat_map, initial.0);
    deployment.set(ops.count, initial.1);
    let cfg = EngineConfig {
        mode: EngineMode::Heron,
        // 100 MiB operator queues at ~1 KB sentences: the queue-fill delay
        // that dominates Dhalion's reaction time.
        heron_per_instance_queue: 150_000.0,
        // Heron container redeploy.
        reconfig_latency_ns: 40_000_000_000,
        tick_ns: 50_000_000,
        instrumentation: InstrumentationConfig {
            per_record_cost_ns: 0.0, // Heron gathers these metrics by default
        },
        ..Default::default()
    };
    (
        FluidEngine::new(graph, profiles, sources, deployment, cfg),
        ops,
    )
}

/// The §5.3 Flink word count: phase 1 at 2 M sentences/s, phase 2 at 1 M/s
/// starting at `phase2_at_ns`. Costs follow a sigmoid scaling curve, so
/// the first scale-up lands short and is refined by re-measurement; Count
/// also carries a hidden (uninstrumented) overhead exercising the
/// target-rate-ratio refinement — the paper's final "+1 Count" step.
pub(crate) fn flink_dynamic_benchmark(
    initial: (usize, usize),
    phase2_at_ns: u64,
) -> (FluidEngine, WordCountOps) {
    let (graph, ops) = wordcount_graph();
    let mut profiles = ProfileMap::new();
    // FlatMap: calibrated so ~19 instances sustain 2 M/s and the first
    // decision from 10 instances lands at 14 (sigmoid knee at ~11.5) — the
    // paper's exact phase-1 steps.
    let fm_curve = ScalingCurve::Sigmoid {
        alpha: 0.43,
        knee: 11.5,
        width: 0.8,
    };
    let fm_cap_at_19 = 2_000_000.0 / 18.6;
    let fm_base_cost = 1e9 / (fm_cap_at_19 * fm_curve.multiplier(19));
    profiles.insert(
        ops.flat_map,
        OperatorProfile::simple(fm_base_cost, 2.0).with_scaling(fm_curve),
    );
    // Count: a 9% per-record overhead invisible to instrumentation. DS2's
    // rate-based plan (10 instances for the 4 M words/s of phase 1) leaves
    // it just short of the target; the manager's target-rate-ratio
    // correction then adds the final instance — the paper's "+1 Count"
    // refinement, in both phases.
    let cnt_measured_cap = 4_000_000.0 / 9.8;
    let cnt_base_cost = 1e9 / cnt_measured_cap;
    profiles.insert(
        ops.count,
        OperatorProfile::simple(cnt_base_cost, 1.0)
            .with_hidden(cnt_base_cost * 0.09, ScalingCurve::Linear),
    );
    let mut sources = BTreeMap::new();
    sources.insert(
        ops.source,
        SourceSpec::durable(0.0).with_schedule(RateSchedule::steps(vec![
            (0, 2_000_000.0),
            (phase2_at_ns, 1_000_000.0),
        ])),
    );
    let mut deployment = Deployment::uniform(&graph, 1);
    deployment.set(ops.flat_map, initial.0);
    deployment.set(ops.count, initial.1);
    let cfg = EngineConfig {
        mode: EngineMode::Flink,
        reconfig_latency_ns: 30_000_000_000, // the §5.3 savepoint+restore
        tick_ns: 10_000_000,
        per_instance_queue: 10_000.0,
        ..Default::default()
    };
    (
        FluidEngine::new(graph, profiles, sources, deployment, cfg),
        ops,
    )
}

/// The §4.2.3 skew experiment: the Flink word count with a fraction of all
/// words hashing to one hot Count instance. DS2 must converge (in ~2
/// steps) to the configuration that would be optimal without skew, without
/// over-provisioning — even though that configuration cannot meet the
/// target throughput.
pub(crate) fn skewed_flink_benchmark(
    skew_hot_fraction: f64,
    initial: (usize, usize),
) -> (FluidEngine, WordCountOps) {
    let (graph, ops) = wordcount_graph();
    let rate = 1_000_000.0;
    let mut profiles = ProfileMap::new();
    // Linear curves isolate the skew effect.
    profiles.insert(
        ops.flat_map,
        OperatorProfile::with_capacity(rate / 9.7, 2.0),
    );
    profiles.insert(
        ops.count,
        OperatorProfile::with_capacity(2.0 * rate / 15.7, 1.0).with_skew(skew_hot_fraction),
    );
    let mut sources = BTreeMap::new();
    sources.insert(ops.source, SourceSpec::constant(rate));
    let mut deployment = Deployment::uniform(&graph, 1);
    deployment.set(ops.flat_map, initial.0);
    deployment.set(ops.count, initial.1);
    let cfg = EngineConfig {
        mode: EngineMode::Flink,
        reconfig_latency_ns: 10_000_000_000,
        ..Default::default()
    };
    (
        FluidEngine::new(graph, profiles, sources, deployment, cfg),
        ops,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds2_core::snapshot::MetricsSnapshot;

    #[test]
    fn heron_benchmark_builds() {
        let (engine, ops) = heron_benchmark((1, 1));
        assert_eq!(engine.deployment().parallelism(ops.flat_map), 1);
        assert!(engine.graph().is_source(ops.source));
    }

    #[test]
    fn flink_benchmark_phases() {
        let (mut engine, ops) = flink_dynamic_benchmark((10, 5), 5_000_000_000);
        engine.run_for(1_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        assert_eq!(snap.source_rate(ops.source), Some(2_000_000.0));
        engine.run_for(5_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        assert_eq!(snap.source_rate(ops.source), Some(1_000_000.0));
    }

    #[test]
    fn flink_calibration_sustains_at_19_11() {
        // (19, 11) must be backpressure-free at 2 M/s.
        let (mut engine, ops) = flink_dynamic_benchmark((19, 11), u64::MAX);
        engine.run_for(30_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        engine.run_for(10_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        let obs = snap
            .operator(ops.source)
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!(obs > 1_950_000.0, "(19,11) must sustain 2M/s, got {obs}");
    }

    #[test]
    fn skew_limits_throughput_at_noskew_optimum() {
        // Without skew (16 count instances needed), 50% hot share means the
        // hot instance caps the job well below target.
        let (mut engine, ops) = skewed_flink_benchmark(0.5, (10, 16));
        engine.run_for(60_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        engine.run_for(10_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        let obs = snap
            .operator(ops.source)
            .unwrap()
            .aggregate_observed_output_rate()
            .unwrap();
        assert!(
            obs < 700_000.0,
            "skew must prevent reaching the 1M/s target, got {obs}"
        );
    }
}
