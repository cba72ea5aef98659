//! Proof of the data plane's headline property: after one warm-up call on a
//! fixed graph, [`Ds2Policy::evaluate_into`] performs **zero heap
//! allocations** per evaluation. A counting global allocator wraps `System`
//! and the test asserts the counter does not move across repeated
//! evaluations — which is exactly what makes the policy cheap enough to run
//! on every metrics window (paper §3.2, §6). The same counter pins the
//! simulator's fully executed tick, which the `--exact` matrix runs for
//! every tick of every cell: after warm-up, [`FluidEngine::tick`] allocates
//! nothing either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::policy::{Ds2Policy, PolicyWorkspace};
use ds2_core::rates::InstanceMetrics;
use ds2_core::snapshot::MetricsSnapshot;
use ds2_simulator::{EngineConfig, FluidEngine, InstrumentationConfig};
use ds2_simulator::{OperatorProfile, ProfileMap, SourceSpec};

struct CountingAllocator;

thread_local! {
    /// Allocations performed by the *current* thread — per-thread so the
    /// test harness's parallel test threads cannot pollute each other's
    /// measurement windows.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: the TLS slot may be mid-teardown during thread exit.
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The policy-latency bench's 500-operator chain with 32 instances per
/// operator — the workload the perf acceptance criteria are pinned to.
fn chain_scenario(n: usize, instances: usize) -> (LogicalGraph, MetricsSnapshot, Deployment) {
    let mut b = GraphBuilder::new();
    let mut prev: Option<OperatorId> = None;
    let mut ids = Vec::new();
    for i in 0..n {
        let op = b.operator(format!("op{i}"));
        if let Some(p) = prev {
            b.connect(p, op);
        }
        prev = Some(op);
        ids.push(op);
    }
    let graph = b.build().unwrap();
    let mut snap = MetricsSnapshot::new();
    let mut parallelism = BTreeMap::new();
    for (i, &op) in ids.iter().enumerate() {
        parallelism.insert(op, instances);
        if i == 0 {
            snap.set_source_rate(op, 1_000_000.0);
            snap.insert_instances(
                op,
                vec![
                    InstanceMetrics {
                        records_out: 100_000,
                        useful_ns: 500_000_000,
                        window_ns: 1_000_000_000,
                        ..Default::default()
                    };
                    instances
                ],
            );
        } else {
            snap.insert_instances(
                op,
                vec![
                    InstanceMetrics {
                        records_in: 100_000,
                        records_out: 100_000,
                        useful_ns: 800_000_000,
                        window_ns: 1_000_000_000,
                        ..Default::default()
                    };
                    instances
                ],
            );
        }
    }
    (graph, snap, Deployment::from_map(parallelism))
}

#[test]
fn evaluate_into_is_allocation_free_after_warmup() {
    let (graph, snap, deployment) = chain_scenario(500, 32);
    let policy = Ds2Policy::new();
    let mut ws = PolicyWorkspace::new();

    // Warm-up: sizes the workspace buffers to the graph.
    let warm = policy
        .evaluate_into(&graph, &snap, &deployment, &mut ws)
        .unwrap();
    let expected_plan = warm.plan.clone();

    let before = thread_allocations();
    for _ in 0..100 {
        let out = policy
            .evaluate_into(&graph, &snap, &deployment, &mut ws)
            .unwrap();
        assert_eq!(out.plan, expected_plan);
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "evaluate_into allocated {} times across 100 warm evaluations",
        after - before
    );
}

#[test]
fn workspace_adapts_to_smaller_graph_without_allocating() {
    // A workspace warmed on a large graph must serve smaller graphs with no
    // further allocation (the matrix reuses one workspace across cells of
    // varying operator counts).
    let (big_graph, big_snap, big_dep) = chain_scenario(200, 8);
    let (small_graph, small_snap, small_dep) = chain_scenario(20, 4);
    let policy = Ds2Policy::new();
    let mut ws = PolicyWorkspace::new();
    policy
        .evaluate_into(&big_graph, &big_snap, &big_dep, &mut ws)
        .unwrap();
    policy
        .evaluate_into(&small_graph, &small_snap, &small_dep, &mut ws)
        .unwrap();

    let before = thread_allocations();
    for _ in 0..10 {
        policy
            .evaluate_into(&small_graph, &small_snap, &small_dep, &mut ws)
            .unwrap();
        policy
            .evaluate_into(&big_graph, &big_snap, &big_dep, &mut ws)
            .unwrap();
    }
    let after = thread_allocations();
    assert_eq!(after - before, 0, "alternating graph sizes allocated");
}

/// An engine on the chain `src -> ops[0] -> ops[1] -> ...` at `rate`
/// records/s with `per_instance_queue`-record partitions, configured as the
/// `--exact` matrix configures its engines: no fast-forward, no latency
/// recording (a recording engine appends a sample per sink chunk).
fn exact_chain(
    ops: Vec<(OperatorProfile, usize)>,
    rate: f64,
    per_instance_queue: f64,
) -> (FluidEngine, Vec<OperatorId>) {
    let mut b = GraphBuilder::new();
    let mut ids = vec![b.operator("src")];
    for i in 0..ops.len() {
        let op = b.operator(format!("op{i}"));
        b.connect(ids[i], op);
        ids.push(op);
    }
    let graph = b.build().unwrap();
    let mut deployment = Deployment::uniform(&graph, 1);
    let mut profiles = ProfileMap::new();
    for (&op, (profile, p)) in ids[1..].iter().zip(ops) {
        profiles.insert(op, profile);
        deployment.set(op, p);
    }
    let mut sources = BTreeMap::new();
    sources.insert(ids[0], SourceSpec::constant(rate));
    let cfg = EngineConfig {
        instrumentation: InstrumentationConfig::disabled(),
        per_instance_queue,
        fast_forward: false,
        track_record_latency: false,
        ..EngineConfig::default()
    };
    let engine = FluidEngine::new(graph, profiles, sources, deployment, cfg);
    (engine, ids)
}

/// Runs 20 s of warm-up ticks, then counts the allocations of 10 s more;
/// `watch` sees the engine after every counted tick.
fn tick_allocations(e: &mut FluidEngine, mut watch: impl FnMut(&FluidEngine)) -> u64 {
    for _ in 0..2_000 {
        e.tick();
    }
    let before = thread_allocations();
    for _ in 0..1_000 {
        e.tick();
        watch(e);
    }
    thread_allocations() - before
}

#[test]
fn a_backpressured_chain_ticks_without_allocating() {
    // 2 000 records/s into a 1 000/s bottleneck: flow control binds at the
    // source and at the operator upstream of the bottleneck every tick.
    let ops = vec![
        (OperatorProfile::with_capacity(3_000.0, 1.0), 1),
        (OperatorProfile::with_capacity(1_000.0, 1.0), 1),
    ];
    let (mut e, _) = exact_chain(ops, 2_000.0, 500.0);
    let mut throttled = 0;
    let allocations = tick_allocations(&mut e, |e| {
        let stats = e.last_tick();
        throttled += u32::from(stats.total_emitted() < stats.offered.values().sum::<f64>());
    });
    assert_eq!(throttled, 1_000, "the source is throttled on every tick");
    assert_eq!(allocations, 0, "a backpressured chain allocated");
}

#[test]
fn a_two_class_hot_key_operator_ticks_without_allocating() {
    // One hot instance and three cold ones: two partition classes, whose
    // drained chunks merge in the engine's span scratch buffer.
    let ops = vec![
        (OperatorProfile::with_capacity(300.0, 1.0).with_skew(0.5), 4),
        (OperatorProfile::with_capacity(3_000.0, 1.0), 1),
    ];
    let (mut e, _) = exact_chain(ops, 1_000.0, 500.0);
    let allocations = tick_allocations(&mut e, |_| {});
    assert_eq!(allocations, 0, "a hot-key operator allocated");
}

#[test]
fn a_spilling_window_ticks_without_allocating() {
    // A 1 s window flushes about 1 000 records into a 200-record partition:
    // the flush spills and is retried on the following ticks.
    let ops = vec![
        (
            OperatorProfile::with_capacity(3_000.0, 1.0).windowed(1_000_000_000),
            1,
        ),
        (OperatorProfile::with_capacity(2_000.0, 1.0), 1),
    ];
    let (mut e, ids) = exact_chain(ops, 1_000.0, 200.0);
    let mut full = 0;
    let allocations = tick_allocations(&mut e, |e| full += u32::from(e.queue_len(ids[2]) >= 200.0));
    assert!(
        full >= 10,
        "the flush fills the sink's partition ({full} ticks)"
    );
    assert_eq!(allocations, 0, "a spilling window allocated");
}
