//! DS2 convergence on a Nexmark query (the paper's Table 4, one cell):
//! pick a query and an initial parallelism, watch DS2 reach the optimal
//! configuration in at most three steps.
//!
//! Run with: `cargo run --release --example nexmark_convergence -- Q5 8`
//! (defaults to Q3 from parallelism 8).

use ds2::nexmark::profiles::setup;
use ds2::prelude::*;
use ds2_core::deployment::Deployment;
use ds2_core::manager::{ManagerConfig, ScalingManager};
use ds2_core::policy::PolicyConfig;
use ds2_simulator::harness::{ClosedLoop, HarnessConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map_or("Q3", String::as_str);
    let Some(query) = QueryId::ALL.into_iter().find(|q| q.name() == name) else {
        eprintln!("unknown query {name}; use Q1, Q2, Q3, Q5, Q8 or Q11");
        std::process::exit(1);
    };
    let initial: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8).max(1);

    let s = setup(query, Target::Flink);
    println!(
        "{} on the Flink personality, initial parallelism {initial}, paper optimum {}",
        query.name(),
        query.reference_parallelism()
    );

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
    // The §5.4 settings: 30 s interval, 30 s warm-up, 1.0 target ratio.
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
    let mut closed_loop = ClosedLoop::new(
        engine,
        manager,
        HarnessConfig {
            policy_interval_ns: 30_000_000_000,
            run_duration_ns: 600_000_000_000,
            ..Default::default()
        },
    );
    let result = closed_loop.run();

    let steps = result.parallelism_steps(s.main_operator, initial);
    println!(
        "main operator ({}) parallelism sequence: {}",
        s.graph.name(s.main_operator),
        steps
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "steps: {}   achieved/offered at the end: {:.3}",
        steps.len() - 1,
        result.final_achieved_ratio(30).min(1.0)
    );
}
