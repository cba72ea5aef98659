//! Direct-call probes: single-threaded timings of public functions the
//! workloads' end-to-end numbers decompose into. Each returns a median over
//! repeated timed blocks, so one preempted block does not move it.

use std::hint::black_box;
use std::time::Instant;

use ds2_core::deployment::Deployment;
use ds2_core::graph::{GraphBuilder, LogicalGraph, OperatorId};
use ds2_core::policy::{Ds2Policy, PolicyWorkspace};
use ds2_core::rates::InstanceMetrics;
use ds2_core::snapshot::MetricsSnapshot;
use ds2_metrics::counters::SharedCounters;
use ds2_runtime::{partition_state, Logic, StateEntry, StateValue};

use crate::stats::median;

/// Iterations of the calibration kernel per sample, and the nanoseconds they
/// take on the reference box while it is quiet.
const CALIBRATION_ITERS: u64 = 4_000_000;
const CALIBRATION_QUIET_NS: f64 = 7_450_000.0;

/// How fast the host runs right now, relative to the quiet reference box:
/// the quiet time of a fixed ALU kernel over the time it takes now (about 8
/// ms). The box alternates between a quiet mode and one 20-30 % slower for
/// tens of seconds at a time (busy neighbours); single-threaded CPU-bound
/// work slows by about as much as this kernel does, so wall time multiplied
/// by this factor repeats 3-5x better than wall time does.
pub fn host_speed() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..black_box(CALIBRATION_ITERS) {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    black_box(x);
    CALIBRATION_QUIET_NS / t0.elapsed().as_nanos() as f64
}

/// Median nanoseconds per call of `f` over `blocks` blocks of `calls`.
fn median_ns_per_call(blocks: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..blocks)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut samples)
}

/// The sink logic called directly on one thread — the chain's
/// single-threaded baseline: engine overhead = chain cost − this.
pub fn process_batch_ns_per_record<R: Clone>(
    mut logic: impl Logic<R>,
    record: impl Fn(u64) -> R,
    batch_size: usize,
) -> f64 {
    let template: Vec<R> = (0..batch_size as u64).map(record).collect();
    let mut batch = Vec::with_capacity(batch_size);
    let mut out = Vec::new();
    median_ns_per_call(15, 2_000, || {
        batch.extend_from_slice(&template);
        logic.process_batch(black_box(&mut batch), &mut out);
    }) / batch_size as f64
}

/// `(ns per SharedCounters add, µs per totals + window_since)`: what every
/// batch and every snapshot pay the instrumentation.
pub fn counters() -> (f64, f64) {
    let c = SharedCounters::new();
    // The adds a worker makes per batch (`run_batch`): processing time,
    // records in, records out, plus the wait it charged before.
    let add = median_ns_per_call(15, 100_000, || {
        c.add_wait_input(black_box(3));
        c.add_processing(black_box(5));
        c.add_records_in(black_box(1024));
        c.add_records_out(black_box(1024));
    }) / 4.0;
    let start = c.totals();
    let window = median_ns_per_call(15, 100_000, || {
        black_box(c.totals().window_since(black_box(&start), 0, 1_000_000_000));
    });
    (add, window / 1e3)
}

/// `Ds2Policy::evaluate_into` on the chain's own last metrics window.
pub fn evaluate_into_ns(graph: &LogicalGraph, snapshot: &MetricsSnapshot) -> f64 {
    let mut current = Deployment::uniform(graph, 1);
    for (op, metrics) in snapshot.operators() {
        current.set(op, metrics.instances.len().max(1));
    }
    time_policy(graph, snapshot, &current)
}

/// `evaluate_into` on a synthetic 100-operator × 16-instance chain: the
/// size at which a decision would start to matter next to a rescale.
pub fn evaluate_into_ns_100ops() -> f64 {
    let mut b = GraphBuilder::new();
    let ops: Vec<OperatorId> = (0..100).map(|i| b.operator(format!("op{i}"))).collect();
    for pair in ops.windows(2) {
        b.connect(pair[0], pair[1]);
    }
    let graph = b.build().expect("a chain is a valid graph");
    let mut snapshot = MetricsSnapshot::new();
    snapshot.set_source_rate(ops[0], 1_000_000.0);
    for (i, &op) in ops.iter().enumerate() {
        let instance = InstanceMetrics {
            records_in: if i == 0 { 0 } else { 100_000 },
            records_out: 100_000,
            useful_ns: 800_000_000,
            window_ns: 1_000_000_000,
            ..Default::default()
        };
        snapshot.insert_instances(op, vec![instance; 16]);
    }
    time_policy(&graph, &snapshot, &Deployment::uniform(&graph, 16))
}

fn time_policy(graph: &LogicalGraph, snapshot: &MetricsSnapshot, current: &Deployment) -> f64 {
    let policy = Ds2Policy::new();
    let mut ws = PolicyWorkspace::new();
    median_ns_per_call(15, 2_000, || {
        let plan = policy.evaluate_into(black_box(graph), black_box(snapshot), current, &mut ws);
        black_box(plan.map(|p| p.plan.total_instances()).ok());
    })
}

/// `partition_state` over `entries` boxed entries into 2 buckets — the
/// repartition step of a 1 -> 2 rescale.
pub fn partition_state_ns_per_entry(entries: usize) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let state: Vec<StateEntry> = (0..entries as u64)
                .map(|k| (k, Box::new(k) as Box<dyn StateValue>))
                .collect();
            let t0 = Instant::now();
            let buckets = partition_state(state, 2);
            let took = t0.elapsed().as_nanos() as f64;
            black_box(&buckets);
            took / entries as f64
        })
        .collect();
    median(&mut samples)
}
