//! Quickstart: one DS2 scaling decision from raw instrumentation.
//!
//! Builds the paper's Figure 2 situation — a three-operator dataflow whose
//! middle operator bottlenecks everything — and shows how true rates let
//! DS2 provision *all* operators in a single step, where observed rates
//! would mislead.
//!
//! Run with: `cargo run --example quickstart`

use ds2::prelude::*;

fn main() {
    // Logical dataflow: src -> o1 -> o2 (Figure 2 of the paper).
    let mut b = GraphBuilder::new();
    let src = b.operator("source");
    let o1 = b.operator("o1");
    let o2 = b.operator("o2");
    b.connect(src, o1);
    b.connect(o1, o2);
    let graph = b.build().expect("valid graph");

    // Target source rate: 40 records/s. o1 processes 10 rec/s at 100%
    // utilization (the bottleneck, selectivity 10); o2 observes only what
    // o1 emits (100 rec/s) but touches it in half its time: its *true*
    // processing rate is 200 rec/s.
    let mut snap = MetricsSnapshot::new();
    snap.set_source_rate(src, 40.0);
    snap.insert_instances(
        src,
        vec![InstanceMetrics {
            records_out: 10,
            useful_ns: 250_000_000,
            window_ns: 1_000_000_000,
            wait_output_ns: 750_000_000,
            ..Default::default()
        }],
    );
    snap.insert_instances(
        o1,
        vec![InstanceMetrics {
            records_in: 10,
            records_out: 100,
            useful_ns: 1_000_000_000,
            window_ns: 1_000_000_000,
            ..Default::default()
        }],
    );
    snap.insert_instances(
        o2,
        vec![InstanceMetrics {
            records_in: 100,
            records_out: 100,
            useful_ns: 500_000_000,
            window_ns: 1_000_000_000,
            wait_input_ns: 500_000_000,
            ..Default::default()
        }],
    );

    let current = Deployment::uniform(&graph, 1);
    let mut ws = PolicyWorkspace::new();
    let out = Ds2Policy::new()
        .evaluate_into(&graph, &snap, &current, &mut ws)
        .expect("metrics are complete");

    println!("observed vs true rates:");
    for op in graph.operators() {
        let m = snap.operator(op).unwrap();
        println!(
            "  {:<8} observed {:>6.1} rec/s   true {:>6.1} rec/s",
            graph.name(op),
            m.aggregate_observed_processing_rate().unwrap_or(0.0),
            m.aggregate_true_processing_rate().unwrap_or(0.0),
        );
    }

    println!("\nDS2 plan for a 40 rec/s target (single traversal):");
    for op in graph.operators() {
        let est = &out.estimates[&op];
        println!(
            "  {:<8} parallelism {} (target {:.0} rec/s, capacity {:.0} rec/s/instance)",
            graph.name(op),
            out.plan.parallelism(op),
            est.target_rate,
            est.capacity_per_instance,
        );
    }
    assert_eq!(out.plan.parallelism(o1), 4);
    assert_eq!(out.plan.parallelism(o2), 2);
    println!("\no1 x4 and o2 x2, decided together — no speculative steps.");
}
