//! DS2 on the Timely execution model (§4.3): operators share one global
//! worker pool, so DS2 sums the per-operator requirements into a single
//! worker count. Without backpressure, an under-provisioned Timely job
//! shows no throughput symptom at all — only growing queues and epoch
//! latency — yet true rates expose the right configuration immediately.
//!
//! Run with: `cargo run --release --example timely_scaling`

use ds2::nexmark::profiles::setup;
use ds2::prelude::*;
use ds2_core::deployment::Deployment;
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_simulator::harness::{ClosedLoop, HarnessConfig};

fn main() {
    let s = setup(QueryId::Q3, Target::Timely);
    println!(
        "Nexmark {} on the Timely personality (auctions 3M/s + persons 800K/s)",
        s.query.name()
    );

    let engine = FluidEngine::new(
        s.graph.clone(),
        s.profiles,
        s.sources,
        Deployment::uniform(&s.graph, 1),
        EngineConfig {
            mode: EngineMode::Timely,
            timely_workers: 1, // start under-provisioned
            tick_ns: 10_000_000,
            reconfig_latency_ns: 10_000_000_000,
            ..Default::default()
        },
    );
    // Timely has no backpressure: the achieved-ratio signal is always 1, so
    // minor-change suppression must be off (min_change 0).
    let manager = ScalingManager::new(
        s.graph.clone(),
        ManagerConfig {
            policy_interval_ns: 10_000_000_000,
            warmup_intervals: 1,
            min_change: 0,
            ..Default::default()
        },
    );
    let mut closed_loop = ClosedLoop::new(
        engine,
        manager,
        HarnessConfig {
            policy_interval_ns: 10_000_000_000,
            run_duration_ns: 180_000_000_000,
            ..Default::default()
        },
    );
    let result = closed_loop.run();

    println!("\nworker-pool decisions:");
    for d in &result.decisions {
        println!(
            "  t={:>3.0}s -> {} workers",
            d.at_ns as f64 / 1e9,
            d.timely_workers.unwrap_or(0)
        );
    }
    println!("final workers: {} (paper: 4)", result.final_workers);

    // Epoch completion before/after scaling.
    let epochs = closed_loop.engine().epochs().completed();
    let early: Vec<u64> = epochs
        .iter()
        .filter(|&&(i, _)| i < 20)
        .map(|&(_, l)| l)
        .collect();
    let late: Vec<u64> = epochs.iter().rev().take(20).map(|&(_, l)| l).collect();
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e9;
    println!(
        "mean epoch latency: first 20 epochs {:.2}s (under-provisioned, queues growing) \
         vs last 20 epochs {:.3}s",
        mean(&early),
        mean(&late)
    );
}
