//! Figures 1 and 6: Dhalion vs DS2 on the Heron word count (§5.2).

use ds2_baselines::dhalion::{DhalionConfig, DhalionController};
use ds2_simulator::harness::RunResult;

use crate::output::{render_table, write_csv};
use crate::runners::{heron_manager_config, run_controller, run_ds2};
use crate::wordcount::{heron_benchmark, WordCountOps};

/// Outcome of one controller's Heron word-count run.
pub struct HeronRun {
    /// Closed-loop result.
    pub(crate) result: RunResult,
    /// Operator handles.
    pub(crate) ops: WordCountOps,
}

impl HeronRun {
    /// Scaling decisions taken.
    pub fn steps(&self) -> usize {
        self.result.decisions.len()
    }

    /// `(flat_map, count)` final parallelism.
    pub fn final_config(&self) -> (usize, usize) {
        (
            self.result.final_deployment.parallelism(self.ops.flat_map),
            self.result.final_deployment.parallelism(self.ops.count),
        )
    }

    /// Seconds from start until the last scaling decision.
    pub fn convergence_seconds(&self) -> f64 {
        self.result.last_decision_ns().unwrap_or(0) as f64 / 1e9
    }
}

/// Runs Dhalion on the under-provisioned Heron word count (Figure 1).
pub fn run_dhalion_heron(duration_ns: u64) -> HeronRun {
    let (engine, ops) = heron_benchmark((1, 1));
    let controller = DhalionController::new(
        engine.graph().clone(),
        DhalionConfig {
            cooldown_intervals: 2,
            ..Default::default()
        },
    );
    let result = run_controller(engine, controller, 60_000_000_000, duration_ns);
    HeronRun { result, ops }
}

/// Runs DS2 on the same benchmark (Figure 6, §5.2 settings).
pub fn run_ds2_heron(duration_ns: u64) -> HeronRun {
    let (engine, ops) = heron_benchmark((1, 1));
    let result = run_ds2(engine, heron_manager_config(), duration_ns);
    HeronRun { result, ops }
}

/// Renders the Figure 1 style source-rate timeline as CSV rows.
pub(crate) fn timeline_rows(run: &HeronRun) -> Vec<Vec<String>> {
    run.result
        .timeline
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.t_ns as f64 / 1e9),
                format!("{:.0}", p.offered_rate),
                format!("{:.0}", p.observed_rate),
                p.parallelism[run.ops.flat_map.index()].to_string(),
                p.parallelism[run.ops.count.index()].to_string(),
                (p.backpressure as u8).to_string(),
                (p.halted as u8).to_string(),
            ]
        })
        .collect()
}

/// Runs Figure 1 (Dhalion alone) and writes `fig1_dhalion_timeline.csv`.
pub(crate) fn figure1(duration_ns: u64) -> (HeronRun, String) {
    let run = run_dhalion_heron(duration_ns);
    let rows = timeline_rows(&run);
    let _ = write_csv(
        "fig1_dhalion_timeline.csv",
        &[
            "t_s",
            "offered_rate",
            "observed_rate",
            "flat_map",
            "count",
            "backpressure",
            "halted",
        ],
        &rows,
    );
    let (fm, cnt) = run.final_config();
    let report = format!(
        "Figure 1 — Dhalion on Heron word count (target {:.0} rec/s)\n\
         decisions: {}   final config: flat_map={}, count={}   last decision at {:.0}s\n\
         paper: 6 decisions, >30 min to converge, over-provisioned final config\n",
        1_000_000.0 / 60.0,
        run.steps(),
        fm,
        cnt,
        run.convergence_seconds(),
    );
    (run, report)
}

/// Runs Figure 6 (DS2 vs Dhalion) and writes both timelines.
pub(crate) fn figure6(duration_ns: u64) -> (HeronRun, HeronRun, String) {
    let dhalion = run_dhalion_heron(duration_ns);
    let ds2 = run_ds2_heron(duration_ns);
    let _ = write_csv(
        "fig6_dhalion_timeline.csv",
        &[
            "t_s",
            "offered_rate",
            "observed_rate",
            "flat_map",
            "count",
            "backpressure",
            "halted",
        ],
        &timeline_rows(&dhalion),
    );
    let _ = write_csv(
        "fig6_ds2_timeline.csv",
        &[
            "t_s",
            "offered_rate",
            "observed_rate",
            "flat_map",
            "count",
            "backpressure",
            "halted",
        ],
        &timeline_rows(&ds2),
    );

    let rows = vec![
        vec![
            "ds2".to_string(),
            ds2.steps().to_string(),
            format!("{:?}", ds2.final_config()),
            format!("{:.0}", ds2.convergence_seconds()),
            format!("{:.3}", ds2.result.final_achieved_ratio(30)),
        ],
        vec![
            "dhalion".to_string(),
            dhalion.steps().to_string(),
            format!("{:?}", dhalion.final_config()),
            format!("{:.0}", dhalion.convergence_seconds()),
            format!("{:.3}", dhalion.result.final_achieved_ratio(30)),
        ],
    ];
    let table = render_table(
        &[
            "controller",
            "decisions",
            "final (fm, cnt)",
            "last decision s",
            "achieved ratio",
        ],
        &rows,
    );
    let report = format!(
        "Figure 6 — DS2 vs Dhalion on Heron word count\n{table}\
         paper: DS2 one step to (10, 20) in ~60s; Dhalion six steps to (22, 30) after ~2000s\n",
    );
    (dhalion, ds2, report)
}
