//! Integration tests spanning crates: DS2 + simulator + workloads in a
//! closed loop, checking the paper's headline claims end to end.

use std::collections::BTreeMap;

use ds2::prelude::*;
use ds2_bench::experiments::heron::{run_dhalion_heron, run_ds2_heron};
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::policy::PolicyConfig;
use ds2_nexmark::profiles::setup;
use ds2_simulator::harness::{ClosedLoop, HarnessConfig, RunResult};

fn run_query(
    query: QueryId,
    initial: usize,
    duration_ns: u64,
) -> (RunResult, ds2::core::graph::OperatorId) {
    let s = setup(query, Target::Flink);
    let engine = FluidEngine::new(
        s.graph.clone(),
        s.profiles,
        s.sources,
        Deployment::uniform(&s.graph, initial),
        EngineConfig {
            mode: EngineMode::Flink,
            tick_ns: 25_000_000,
            per_instance_queue: 20_000.0,
            reconfig_latency_ns: 30_000_000_000,
            ..Default::default()
        },
    );
    let manager = ScalingManager::new(
        s.graph.clone(),
        ManagerConfig {
            policy_interval_ns: 30_000_000_000,
            warmup_intervals: 1,
            min_change: 1,
            policy: PolicyConfig {
                max_parallelism: Some(36),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut the_loop = ClosedLoop::new(
        engine,
        manager,
        HarnessConfig {
            policy_interval_ns: 30_000_000_000,
            run_duration_ns: duration_ns,
            ..Default::default()
        },
    );
    (the_loop.run(), s.main_operator)
}

/// Every query converges to the paper's optimal parallelism in at most
/// three steps, from an under-provisioned start.
#[test]
fn all_queries_converge_from_below() {
    for q in QueryId::ALL {
        let (result, main) = run_query(q, 8, 600_000_000_000);
        let steps = result.parallelism_steps(main, 8);
        assert!(
            steps.len() - 1 <= 3,
            "{q:?} took {} steps: {steps:?}",
            steps.len() - 1
        );
        assert_eq!(
            *steps.last().unwrap(),
            q.reference_parallelism(),
            "{q:?} converged to {steps:?}"
        );
        assert!(
            result.final_achieved_ratio(20) > 0.95,
            "{q:?} must keep up after convergence"
        );
    }
}

/// Over-provisioned starts land on the same optimum, in one or two steps,
/// without ever undershooting below it.
#[test]
fn all_queries_converge_from_above() {
    for q in QueryId::ALL {
        let (result, main) = run_query(q, 32, 600_000_000_000);
        let steps = result.parallelism_steps(main, 32);
        let expected = q.reference_parallelism();
        assert_eq!(*steps.last().unwrap(), expected, "{q:?}: {steps:?}");
        // No undershoot at any point.
        for &p in &steps[1..] {
            assert!(p >= expected, "{q:?} undershot: {steps:?}");
        }
        assert!(result.final_achieved_ratio(20) > 0.95);
    }
}

/// No oscillation: once converged, DS2 issues no further decisions.
#[test]
fn no_oscillation_after_convergence() {
    let (result, _) = run_query(QueryId::Q1, 8, 900_000_000_000);
    let last = result.last_decision_ns().expect("at least one decision");
    // The run continues for several minutes after the last decision.
    assert!(
        900_000_000_000 - last > 300_000_000_000,
        "decisions kept firing until {last}"
    );
}

/// The §4.2.3 skew scenario: DS2 converges to the no-skew optimum without
/// over-provisioning, even though the target cannot be met.
#[test]
fn skew_converges_without_overprovisioning() {
    let mut b = GraphBuilder::new();
    let src = b.operator("source");
    let fm = b.operator("flat_map");
    let cnt = b.operator("count");
    b.connect(src, fm);
    b.connect(fm, cnt);
    let graph = b.build().unwrap();
    let rate = 1_000_000.0;
    let mut profiles = BTreeMap::new();
    profiles.insert(fm, OperatorProfile::with_capacity(rate / 9.7, 2.0));
    profiles.insert(
        cnt,
        OperatorProfile::with_capacity(2.0 * rate / 15.7, 1.0).with_skew(0.5),
    );
    let mut sources = BTreeMap::new();
    sources.insert(src, SourceSpec::constant(rate));
    let engine = FluidEngine::new(
        graph.clone(),
        profiles,
        sources,
        Deployment::uniform(&graph, 1),
        EngineConfig {
            mode: EngineMode::Flink,
            reconfig_latency_ns: 10_000_000_000,
            ..Default::default()
        },
    );
    let manager = ScalingManager::new(
        graph,
        ManagerConfig {
            policy_interval_ns: 10_000_000_000,
            warmup_intervals: 1,
            min_change: 1,
            max_decisions: Some(2),
            ..Default::default()
        },
    );
    let mut the_loop = ClosedLoop::new(
        engine,
        manager,
        HarnessConfig {
            policy_interval_ns: 10_000_000_000,
            run_duration_ns: 200_000_000_000,
            ..Default::default()
        },
    );
    let result = the_loop.run();
    // Converged to the no-skew optimum (16 count instances), no more.
    assert_eq!(result.final_deployment.parallelism(cnt), 16);
    assert!(result.decisions.len() <= 2);
    // The target is genuinely missed (skew cannot be fixed by scaling).
    assert!(result.final_achieved_ratio(10) < 0.5);
}

/// DS2 vs Dhalion on the Heron word count: DS2 reaches the exact optimum
/// in one decision; Dhalion needs many and lands elsewhere.
#[test]
fn ds2_dominates_dhalion_on_heron() {
    let duration = 2_400_000_000_000;
    let dhalion = run_dhalion_heron(duration);
    let ds2 = run_ds2_heron(duration);
    assert_eq!(ds2.steps(), 1, "DS2 must decide once");
    assert_eq!(
        ds2.final_config(),
        (10, 20),
        "DS2 must hit the exact optimum"
    );
    assert!(
        dhalion.steps() >= 4,
        "Dhalion should need several speculative steps, took {}",
        dhalion.steps()
    );
    assert!(
        ds2.convergence_seconds() < dhalion.convergence_seconds() / 5.0,
        "DS2 must converge much faster ({}s vs {}s)",
        ds2.convergence_seconds(),
        dhalion.convergence_seconds()
    );
}
