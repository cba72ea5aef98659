//! Integration tests for the Timely personality (§4.3, §5.5) and the live
//! threaded runtime.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ds2::prelude::*;
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::policy::Ds2Policy;
use ds2_nexmark::profiles::{setup, EXPECTED_TIMELY_WORKERS};
use ds2_runtime::{run_control_loop, ControlConfig, CostedLogic, FnLogic, JobSpec, RunningJob};
use ds2_simulator::harness::{ClosedLoop, HarnessConfig};

/// DS2 indicates 4 total workers on Timely for every evaluated query, per
/// the §4.3 summation rule (the paper's Fig. 9 optimum).
#[test]
fn timely_indicates_four_workers_everywhere() {
    for q in QueryId::ALL {
        let s = setup(q, Target::Timely);
        let graph = s.graph.clone();
        let mut engine = FluidEngine::new(
            s.graph,
            s.profiles,
            s.sources,
            Deployment::uniform(&graph, 1),
            EngineConfig {
                mode: EngineMode::Timely,
                timely_workers: 16,
                tick_ns: 10_000_000,
                ..Default::default()
            },
        );
        engine.run_for(10_000_000_000);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        engine.run_for(20_000_000_000);
        engine.collect_snapshot_into(&mut snap);
        let mut ws = PolicyWorkspace::new();
        let out = Ds2Policy::new()
            .evaluate_into(&graph, &snap, engine.deployment(), &mut ws)
            .unwrap();
        assert_eq!(
            out.timely_total_workers(&graph),
            EXPECTED_TIMELY_WORKERS,
            "{q:?}"
        );
    }
}

/// The accuracy claim on Timely: fewer workers than indicated cannot keep
/// up with the epochs; the indicated count can.
#[test]
fn timely_indicated_config_is_minimal() {
    let run = |workers: usize| {
        let s = setup(QueryId::Q3, Target::Timely);
        let mut engine = FluidEngine::new(
            s.graph.clone(),
            s.profiles,
            s.sources,
            Deployment::uniform(&s.graph, 1),
            EngineConfig {
                mode: EngineMode::Timely,
                timely_workers: workers,
                tick_ns: 10_000_000,
                ..Default::default()
            },
        );
        engine.run_for(60_000_000_000);
        1.0 - engine.epochs().recorder().fraction_above(1_000_000_000)
    };
    assert!(run(2) < 0.3, "2 workers must fall behind");
    assert!(run(4) > 0.9, "4 workers must keep up");
}

/// End-to-end Timely closed loop: the harness maps the plan to a worker
/// count and the engine converges.
#[test]
fn timely_closed_loop_converges() {
    let s = setup(QueryId::Q1, Target::Timely);
    let engine = FluidEngine::new(
        s.graph.clone(),
        s.profiles,
        s.sources,
        Deployment::uniform(&s.graph, 1),
        EngineConfig {
            mode: EngineMode::Timely,
            timely_workers: 1,
            tick_ns: 10_000_000,
            reconfig_latency_ns: 10_000_000_000,
            ..Default::default()
        },
    );
    let manager = ScalingManager::new(
        s.graph.clone(),
        ManagerConfig {
            policy_interval_ns: 10_000_000_000,
            warmup_intervals: 1,
            min_change: 0,
            ..Default::default()
        },
    );
    let mut the_loop = ClosedLoop::new(
        engine,
        manager,
        HarnessConfig {
            policy_interval_ns: 10_000_000_000,
            run_duration_ns: 150_000_000_000,
            ..Default::default()
        },
    );
    let result = the_loop.run();
    assert_eq!(result.final_workers, EXPECTED_TIMELY_WORKERS);
}

/// Live threaded runtime under DS2 control: a slow operator is scaled to
/// the capacity the workload needs, and records are conserved across the
/// stop-the-world rescale.
#[test]
fn live_runtime_scales_and_conserves_records() {
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let slow = b.operator("slow");
    let sink = b.operator("sink");
    b.connect(src, slow);
    b.connect(slow, sink);
    let graph = b.build().unwrap();

    let mut spec: JobSpec<u64> = JobSpec::new(graph.clone());
    spec.batch_size = 32;
    // 1500 rec/s against a 2 ms/record operator (~500 rec/s/instance).
    spec.source(src, 1_500.0, |n| n, |&r| r);
    spec.operator(
        slow,
        || {
            Box::new(CostedLogic::new(
                Duration::from_millis(2),
                |r: u64, out: &mut Vec<u64>| out.push(r),
            ))
        },
        |&r| r,
    );
    let sunk = Arc::new(AtomicU64::new(0));
    let sunk2 = Arc::clone(&sunk);
    spec.operator(
        sink,
        move || {
            let s = Arc::clone(&sunk2);
            Box::new(FnLogic::new(move |_r: u64, _out: &mut Vec<u64>| {
                s.fetch_add(1, Ordering::Relaxed);
            }))
        },
        |&r| r,
    );

    let mut job = RunningJob::deploy(spec, Deployment::uniform(&graph, 1));
    let mut manager = ScalingManager::new(
        graph,
        ManagerConfig {
            policy_interval_ns: 500_000_000,
            warmup_intervals: 1,
            min_change: 0,
            ..Default::default()
        },
    );
    let events = run_control_loop(
        &mut job,
        &mut manager,
        &ControlConfig {
            interval: Duration::from_millis(500),
            duration: Duration::from_secs(7),
            ..Default::default()
        },
    );
    let rescales = events.iter().filter(|e| e.rescaled_to.is_some()).count();
    let final_p = job.deployment().parallelism(OperatorId(1));
    job.shutdown();
    assert!(rescales >= 1, "DS2 must rescale the bottleneck");
    assert!(
        (3..=5).contains(&final_p),
        "expected ~3-4 instances for 1500/s at ~450-500/s per instance, got {final_p}"
    );
    assert!(
        sunk.load(Ordering::Relaxed) > 2_000,
        "records must keep flowing through rescales"
    );
}

/// The simulator and the policy agree: measured capacity equals the
/// profile's configured capacity (cross-crate consistency check).
#[test]
fn simulator_measurements_match_profiles() {
    let mut b = GraphBuilder::new();
    let src = b.operator("src");
    let op = b.operator("op");
    b.connect(src, op);
    let graph = b.build().unwrap();
    let mut profiles = BTreeMap::new();
    profiles.insert(op, OperatorProfile::with_capacity(1234.0, 1.5));
    let mut sources = BTreeMap::new();
    sources.insert(src, SourceSpec::constant(600.0));
    let mut engine = FluidEngine::new(
        graph,
        profiles,
        sources,
        Deployment::from_map([(src, 1), (op, 2)].into()),
        EngineConfig {
            instrumentation: ds2_simulator::InstrumentationConfig::disabled(),
            ..Default::default()
        },
    );
    engine.run_for(10_000_000_000);
    let mut snap = MetricsSnapshot::new();
    engine.collect_snapshot_into(&mut snap);
    engine.run_for(10_000_000_000);
    engine.collect_snapshot_into(&mut snap);
    let m = snap.operator(OperatorId(1)).unwrap();
    let avg = m.average_true_processing_rate().unwrap();
    assert!(
        (avg - 1234.0).abs() < 5.0,
        "measured {avg}, configured 1234"
    );
    let sel = m.selectivity().unwrap();
    assert!((sel - 1.5).abs() < 0.01, "selectivity {sel}");
}
