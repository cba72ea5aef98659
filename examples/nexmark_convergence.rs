//! DS2 convergence on a Nexmark query (the paper's Table 4, one cell):
//! pick a query and an initial parallelism, watch DS2 reach the optimal
//! configuration in at most three steps.
//!
//! Run with: `cargo run --release --example nexmark_convergence -- Q5 8`
//! (defaults to Q3 from parallelism 8).

use ds2::nexmark::profiles::setup;
use ds2::prelude::*;
use ds2_bench::experiments::table4::run_cell;

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

    // The Table 4 cell: the §5.4 engine and manager settings (30 s interval,
    // 30 s warm-up, 1.0 target ratio) over ten simulated minutes.
    let cell = run_cell(query, initial, 600_000_000_000);
    println!(
        "main operator ({}) parallelism sequence: {}",
        s.graph.name(s.main_operator),
        cell.sequence
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "steps: {}   achieved/offered at the end: {:.3}",
        cell.steps(),
        cell.achieved.min(1.0)
    );
}
