//! Figures 8 and 9: accuracy — DS2's indicated configuration is the
//! minimal one that keeps up with the sources (§5.5).
//!
//! Figure 8 (Flink): for each query, sweep the main operator's parallelism
//! around the DS2-indicated optimum with every other operator fixed at its
//! optimal value; report the observed source rate and the per-record
//! latency distribution per configuration.
//!
//! Figure 9 (Timely): sweep the global worker count; report per-epoch
//! latency CDFs against the 1-second target.

use ds2_core::deployment::Deployment;
use ds2_core::policy::{Ds2Policy, PolicyWorkspace};
use ds2_core::snapshot::MetricsSnapshot;
use ds2_nexmark::profiles::{setup, QueryId, Target};
use ds2_simulator::engine::{EngineConfig, EngineMode, FluidEngine};

use crate::output::{fmt_rate, render_table, write_csv};

/// One configuration's measurements in the Figure 8 sweep.
#[derive(Debug, Clone)]
pub(crate) struct Fig8Point {
    /// Main-operator parallelism.
    pub parallelism: usize,
    /// Whether this is the DS2-indicated configuration.
    pub(crate) indicated: bool,
    /// Mean observed source rate over the steady tail, records/s.
    pub observed_rate: f64,
    /// Offered source rate, records/s.
    pub offered_rate: f64,
    /// Median record latency, ns.
    pub(crate) latency_p50: u64,
    /// 99th percentile record latency, ns.
    pub(crate) latency_p99: u64,
}

/// Figure 8 for one query: sweep offsets around the optimum.
pub(crate) fn figure8_query(query: QueryId, duration_ns: u64) -> (Vec<Fig8Point>, usize) {
    let reference = setup(query, Target::Flink);
    let p_star = reference.expected;

    // The DS2-optimal parallelism for the *other* operators: evaluate the
    // policy once on a saturated run at generous parallelism.
    let optimal_plan = indicated_plan(query);

    let offsets: [i64; 5] = [-8, -4, 0, 4, 8];
    let mut points = Vec::new();
    for off in offsets {
        let p = (p_star as i64 + off).max(1) as usize;
        let s = setup(query, Target::Flink);
        let mut deployment = optimal_plan.clone();
        deployment.set(s.main_operator, p);
        let cfg = EngineConfig {
            mode: EngineMode::Flink,
            tick_ns: 25_000_000,
            per_instance_queue: 20_000.0,
            service_noise: 0.05,
            ..Default::default()
        };
        let mut engine = FluidEngine::new(s.graph, s.profiles, s.sources, deployment, cfg);
        // Warm up, then measure the steady state.
        engine.run_for(duration_ns / 3);
        let mut snap = MetricsSnapshot::new();
        engine.collect_snapshot_into(&mut snap);
        let offered: f64 = engine.last_tick().offered.values().sum::<f64>()
            / (engine.config().tick_ns as f64 / 1e9);
        engine.run_for(duration_ns * 2 / 3);
        engine.collect_snapshot_into(&mut snap);
        let observed: f64 = snap
            .source_rates()
            .filter_map(|(src, _)| snap.observed_source_rate(src))
            .sum();
        let lat = engine.latency();
        points.push(Fig8Point {
            parallelism: p,
            indicated: off == 0,
            observed_rate: observed,
            offered_rate: offered,
            latency_p50: lat.median().unwrap_or(0),
            latency_p99: lat.quantile(0.99).unwrap_or(0),
        });
    }
    (points, p_star)
}

/// Evaluates DS2 once on a well-provisioned deployment to obtain the full
/// indicated plan for a query (all operators).
pub(crate) fn indicated_plan(query: QueryId) -> Deployment {
    let s = setup(query, Target::Flink);
    let deployment = Deployment::uniform(&s.graph, 36);
    let cfg = EngineConfig {
        mode: EngineMode::Flink,
        tick_ns: 25_000_000,
        ..Default::default()
    };
    let graph = s.graph.clone();
    let mut engine = FluidEngine::new(s.graph, s.profiles, s.sources, deployment.clone(), cfg);
    engine.run_for(20_000_000_000);
    let mut snap = MetricsSnapshot::new();
    engine.collect_snapshot_into(&mut snap);
    engine.run_for(30_000_000_000);
    engine.collect_snapshot_into(&mut snap);
    let policy = Ds2Policy::with_config(ds2_core::policy::PolicyConfig {
        max_parallelism: Some(36),
        ..Default::default()
    });
    policy
        .evaluate_into(&graph, &snap, &deployment, &mut PolicyWorkspace::new())
        .expect("policy evaluates")
        .plan
        .clone()
}

/// Runs Figure 8 for all queries, writing one CSV per query.
pub(crate) fn figure8(duration_ns: u64) -> String {
    let mut report =
        String::from("Figure 8 — observed source rate & latency vs configuration (Flink)\n");
    for q in QueryId::ALL {
        let (points, p_star) = figure8_query(q, duration_ns);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.parallelism.to_string(),
                    if p.indicated { "yes" } else { "" }.to_string(),
                    fmt_rate(p.observed_rate),
                    fmt_rate(p.offered_rate),
                    format!("{:.1}", p.latency_p50 as f64 / 1e6),
                    format!("{:.1}", p.latency_p99 as f64 / 1e6),
                ]
            })
            .collect();
        let _ = write_csv(
            &format!("fig8_{}.csv", q.name().to_lowercase()),
            &[
                "parallelism",
                "indicated",
                "observed_rate",
                "offered_rate",
                "p50_ms",
                "p99_ms",
            ],
            &rows,
        );
        report.push_str(&format!(
            "\n[{}] indicated parallelism: {}\n{}",
            q.name(),
            p_star,
            render_table(
                &["p", "indicated", "observed", "offered", "p50 ms", "p99 ms"],
                &rows
            )
        ));
    }
    report
}

/// One configuration's measurements in the Figure 9 sweep.
#[derive(Debug, Clone)]
pub(crate) struct Fig9Point {
    /// Worker-pool size.
    pub workers: usize,
    /// Completed epochs.
    pub epochs: usize,
    /// Fraction of epochs completing within the 1 s target.
    pub(crate) within_target: f64,
    /// Median epoch latency, ns.
    pub p50: u64,
    /// 99th percentile epoch latency, ns.
    pub p99: u64,
}

/// Figure 9 for one query on Timely.
pub(crate) fn figure9_query(query: QueryId, duration_ns: u64) -> (Vec<Fig9Point>, usize) {
    let mut points = Vec::new();
    for workers in [2usize, 3, 4, 6, 8] {
        let s = setup(query, Target::Timely);
        let deployment = Deployment::uniform(&s.graph, 1);
        let cfg = EngineConfig {
            mode: EngineMode::Timely,
            timely_workers: workers,
            tick_ns: 10_000_000,
            service_noise: 0.05,
            ..Default::default()
        };
        let mut engine = FluidEngine::new(s.graph, s.profiles, s.sources, deployment, cfg);
        engine.run_for(duration_ns);
        let recorder = engine.epochs().recorder();
        let within = 1.0 - recorder.fraction_above(1_000_000_000);
        points.push(Fig9Point {
            workers,
            epochs: engine.epochs().completed().len(),
            within_target: within,
            p50: recorder.median().unwrap_or(u64::MAX),
            p99: recorder.quantile(0.99).unwrap_or(u64::MAX),
        });
    }
    (points, ds2_nexmark::profiles::EXPECTED_TIMELY_WORKERS)
}

/// DS2's indicated total workers for a query on Timely: one policy
/// evaluation on a generously provisioned run, summed per §4.3.
pub(crate) fn indicated_timely_workers(query: QueryId) -> usize {
    let s = setup(query, Target::Timely);
    let deployment = Deployment::uniform(&s.graph, 1);
    let cfg = EngineConfig {
        mode: EngineMode::Timely,
        timely_workers: 16,
        tick_ns: 10_000_000,
        ..Default::default()
    };
    let graph = s.graph.clone();
    let main_graph = graph.clone();
    let mut engine = FluidEngine::new(s.graph, s.profiles, s.sources, deployment, cfg);
    engine.run_for(10_000_000_000);
    let mut snap = MetricsSnapshot::new();
    engine.collect_snapshot_into(&mut snap);
    engine.run_for(20_000_000_000);
    engine.collect_snapshot_into(&mut snap);
    Ds2Policy::new()
        .evaluate_into(
            &graph,
            &snap,
            engine.deployment(),
            &mut PolicyWorkspace::new(),
        )
        .expect("policy evaluates")
        .timely_total_workers(&main_graph)
}

/// Runs Figure 9 for the queries the paper plots (Q3, Q5, Q11).
pub(crate) fn figure9(duration_ns: u64) -> String {
    let mut report =
        String::from("Figure 9 — per-epoch latency vs worker count (Timely, 1 s epochs)\n");
    for q in [QueryId::Q3, QueryId::Q5, QueryId::Q11] {
        let (points, expected) = figure9_query(q, duration_ns);
        let indicated = indicated_timely_workers(q);
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.workers.to_string(),
                    p.epochs.to_string(),
                    format!("{:.1}%", p.within_target * 100.0),
                    if p.p50 == u64::MAX {
                        "-".into()
                    } else {
                        format!("{:.2}", p.p50 as f64 / 1e9)
                    },
                    if p.p99 == u64::MAX {
                        "-".into()
                    } else {
                        format!("{:.2}", p.p99 as f64 / 1e9)
                    },
                ]
            })
            .collect();
        let _ = write_csv(
            &format!("fig9_{}.csv", q.name().to_lowercase()),
            &["workers", "epochs", "within_1s", "p50_s", "p99_s"],
            &rows,
        );
        report.push_str(&format!(
            "\n[{}] DS2-indicated workers: {} (paper: {})\n{}",
            q.name(),
            indicated,
            expected,
            render_table(&["workers", "epochs", "<=1s", "p50 s", "p99 s"], &rows)
        ));
    }
    report
}
