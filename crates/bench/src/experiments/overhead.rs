//! Figure 10: instrumentation overhead (§5.6) — per-record latency on the
//! Flink personality and per-epoch latency on the Timely personality, with
//! instrumentation off ("vanilla") and on ("instr").

use ds2_core::deployment::Deployment;
use ds2_nexmark::profiles::{setup, QueryId, Target};
use ds2_simulator::engine::{EngineConfig, EngineMode, FluidEngine, InstrumentationConfig};

use crate::experiments::accuracy::indicated_plan;
use crate::output::{render_table, write_csv};

/// Latency measurements for one query, vanilla vs instrumented.
#[derive(Debug, Clone)]
pub(crate) struct OverheadPoint {
    /// Query name.
    pub query: &'static str,
    /// Mean latency without instrumentation, ns.
    pub(crate) vanilla_p50: u64,
    /// Mean latency with instrumentation, ns.
    pub(crate) instr_p50: u64,
    /// 99th percentile without instrumentation, ns.
    pub(crate) vanilla_p99: u64,
    /// 99th percentile with instrumentation, ns.
    pub(crate) instr_p99: u64,
}

impl OverheadPoint {
    /// Relative mean-latency overhead (instr vs vanilla).
    pub(crate) fn overhead_fraction(&self) -> f64 {
        if self.vanilla_p50 == 0 {
            0.0
        } else {
            self.instr_p50 as f64 / self.vanilla_p50 as f64 - 1.0
        }
    }
}

fn run_flink(query: QueryId, instrument: bool, duration_ns: u64) -> (u64, u64) {
    let s = setup(query, Target::Flink);
    // Instrumentation cost: ~2% of the main operator's per-record cost —
    // record-at-a-time systems pay the most (§4.1 aggregates per buffer to
    // contain exactly this overhead). 2% eats most of the provisioning
    // margin, so the overhead surfaces as deeper queues.
    let main_cost = s.profiles[&s.main_operator].instrumented_cost_ns(s.expected);
    let deployment = indicated_plan(query);
    let cfg = EngineConfig {
        mode: EngineMode::Flink,
        tick_ns: 25_000_000,
        per_instance_queue: 20_000.0,
        service_noise: 0.05,
        instrumentation: InstrumentationConfig {
            per_record_cost_ns: if instrument { main_cost * 0.015 } else { 0.0 },
        },
        ..Default::default()
    };
    let mut engine = FluidEngine::new(s.graph, s.profiles, s.sources, deployment, cfg);
    engine.run_for(duration_ns);
    let lat = engine.latency();
    (
        lat.mean().unwrap_or(0.0) as u64,
        lat.quantile(0.99).unwrap_or(0),
    )
}

fn run_timely(query: QueryId, instrument: bool, duration_ns: u64) -> (u64, u64) {
    let s = setup(query, Target::Timely);
    let main_cost = s.profiles[&s.main_operator].instrumented_cost_ns(1);
    let deployment = Deployment::uniform(&s.graph, 1);
    let cfg = EngineConfig {
        mode: EngineMode::Timely,
        timely_workers: ds2_nexmark::profiles::EXPECTED_TIMELY_WORKERS,
        tick_ns: 10_000_000,
        service_noise: 0.05,
        instrumentation: InstrumentationConfig {
            per_record_cost_ns: if instrument { main_cost * 0.04 } else { 0.0 },
        },
        ..Default::default()
    };
    let mut engine = FluidEngine::new(s.graph, s.profiles, s.sources, deployment, cfg);
    engine.run_for(duration_ns);
    let rec = engine.epochs().recorder();
    (
        rec.mean().unwrap_or(0.0) as u64,
        rec.quantile(0.99).unwrap_or(0),
    )
}

/// Runs Figure 10 for both personalities.
pub(crate) fn figure10(duration_ns: u64) -> (Vec<OverheadPoint>, Vec<OverheadPoint>, String) {
    let mut flink = Vec::new();
    let mut timely = Vec::new();
    for q in QueryId::ALL {
        let (v50, v99) = run_flink(q, false, duration_ns);
        let (i50, i99) = run_flink(q, true, duration_ns);
        flink.push(OverheadPoint {
            query: q.name(),
            vanilla_p50: v50,
            instr_p50: i50,
            vanilla_p99: v99,
            instr_p99: i99,
        });
        let (v50, v99) = run_timely(q, false, duration_ns);
        let (i50, i99) = run_timely(q, true, duration_ns);
        timely.push(OverheadPoint {
            query: q.name(),
            vanilla_p50: v50,
            instr_p50: i50,
            vanilla_p99: v99,
            instr_p99: i99,
        });
    }

    let table = |points: &[OverheadPoint], unit: f64, unit_name: &str| {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.query.to_string(),
                    format!("{:.2}", p.vanilla_p50 as f64 / unit),
                    format!("{:.2}", p.instr_p50 as f64 / unit),
                    format!("{:.2}", p.vanilla_p99 as f64 / unit),
                    format!("{:.2}", p.instr_p99 as f64 / unit),
                    format!("{:+.1}%", p.overhead_fraction() * 100.0),
                ]
            })
            .collect();
        render_table(
            &[
                "query",
                &format!("vanilla mean ({unit_name})"),
                &format!("instr mean ({unit_name})"),
                &format!("vanilla p99 ({unit_name})"),
                &format!("instr p99 ({unit_name})"),
                "overhead",
            ],
            &rows,
        )
    };

    let csv = |name: &str, points: &[OverheadPoint]| {
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| {
                vec![
                    p.query.to_string(),
                    p.vanilla_p50.to_string(),
                    p.instr_p50.to_string(),
                    p.vanilla_p99.to_string(),
                    p.instr_p99.to_string(),
                ]
            })
            .collect();
        let _ = write_csv(
            name,
            &[
                "query",
                "vanilla_mean_ns",
                "instr_mean_ns",
                "vanilla_p99_ns",
                "instr_p99_ns",
            ],
            &rows,
        );
    };
    csv("fig10_flink_overhead.csv", &flink);
    csv("fig10_timely_overhead.csv", &timely);

    let report = format!(
        "Figure 10 — instrumentation overhead\n\n(a) Flink, per-record latency:\n{}\n\
         (b) Timely, per-epoch latency:\n{}\n\
         paper: at most 13% on Flink, at most 20% on Timely\n",
        table(&flink, 1e6, "ms"),
        table(&timely, 1e6, "ms"),
    );
    (flink, timely, report)
}
