//! Figure 7: DS2 driving Flink through a dynamic two-phase word count
//! (§5.3): scale-up at 2 M sentences/s, scale-down after the drop to 1 M/s,
//! with a final target-rate-ratio refinement.

use ds2_simulator::harness::RunResult;

use crate::output::write_csv;
use crate::runners::{flink_dynamic_manager_config, run_ds2};
use crate::wordcount::{flink_dynamic_benchmark, WordCountOps};

/// Phase-2 start: 800 s, as in the paper's timeline.
pub(crate) const PHASE2_AT_NS: u64 = 800_000_000_000;

/// Outcome of the dynamic-scaling experiment.
pub(crate) struct Fig7Run {
    /// Closed-loop result.
    pub result: RunResult,
    /// Operator handles.
    pub ops: WordCountOps,
}

impl Fig7Run {
    /// `(flat_map, count)` parallelism sequence across decisions,
    /// starting from the initial configuration.
    pub(crate) fn config_sequence(&self) -> Vec<(usize, usize)> {
        let mut seq = vec![(10usize, 5usize)];
        for d in &self.result.decisions {
            let cfg = (
                d.plan.parallelism(self.ops.flat_map),
                d.plan.parallelism(self.ops.count),
            );
            if *seq.last().unwrap() != cfg {
                seq.push(cfg);
            }
        }
        seq
    }

    /// Decisions that happened during phase 1 / phase 2.
    pub(crate) fn phase_decision_counts(&self) -> (usize, usize) {
        let p1 = self
            .result
            .decisions
            .iter()
            .filter(|d| d.at_ns < PHASE2_AT_NS)
            .count();
        (p1, self.result.decisions.len() - p1)
    }
}

/// Runs the Figure 7 experiment and writes `fig7_timeline.csv`.
pub(crate) fn figure7(duration_ns: u64) -> (Fig7Run, String) {
    let (engine, ops) = flink_dynamic_benchmark((10, 5), PHASE2_AT_NS);
    let result = run_ds2(engine, flink_dynamic_manager_config(), duration_ns);
    let run = Fig7Run { result, ops };

    let rows: Vec<Vec<String>> = run
        .result
        .timeline
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.t_ns as f64 / 1e9),
                format!("{:.0}", p.offered_rate),
                format!("{:.0}", p.observed_rate),
                p.parallelism[run.ops.flat_map.index()].to_string(),
                p.parallelism[run.ops.count.index()].to_string(),
                (p.halted as u8).to_string(),
            ]
        })
        .collect();
    let _ = write_csv(
        "fig7_timeline.csv",
        &[
            "t_s",
            "offered_rate",
            "observed_rate",
            "flat_map",
            "count",
            "halted",
        ],
        &rows,
    );

    let seq = run.config_sequence();
    let (p1, p2) = run.phase_decision_counts();
    let decisions: Vec<String> = run
        .result
        .decisions
        .iter()
        .map(|d| {
            format!(
                "t={:>4.0}s -> (fm={}, cnt={})",
                d.at_ns as f64 / 1e9,
                d.plan.parallelism(run.ops.flat_map),
                d.plan.parallelism(run.ops.count)
            )
        })
        .collect();
    let report = format!(
        "Figure 7 — DS2 on Flink, dynamic word count (2M/s then 1M/s at t=800s)\n\
         decisions ({} phase-1, {} phase-2):\n  {}\n\
         config sequence: {:?}\n\
         final achieved ratio: {:.3}\n\
         paper: (10,5) -> (14,7) -> (19,11) in phase 1; -> (7,4) -> count+1 in phase 2\n",
        p1,
        p2,
        decisions.join("\n  "),
        seq,
        run.result.final_achieved_ratio(30),
    );
    (run, report)
}
