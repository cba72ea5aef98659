//! The §4.2.3 skew experiment: DS2 under data skew must converge — in
//! about two steps — to the configuration that would be optimal *without*
//! skew, without over-provisioning, even though that configuration cannot
//! meet the target throughput.

use ds2_core::manager::ManagerConfig;
use ds2_core::policy::PolicyConfig;

use crate::output::{render_table, write_csv};
use crate::runners::run_ds2;
use crate::wordcount::skewed_flink_benchmark;

/// Outcome at one skew level.
#[derive(Debug, Clone)]
pub(crate) struct SkewOutcome {
    /// Fraction of records routed to the hot Count instance.
    pub skew: f64,
    /// Scaling decisions taken.
    pub steps: usize,
    /// Final Count parallelism.
    pub(crate) final_count: usize,
    /// Final achieved/offered ratio (below 1.0 under real skew).
    pub achieved: f64,
}

/// The Count parallelism that is optimal without skew in this benchmark.
pub(crate) const NO_SKEW_OPTIMAL_COUNT: usize = 16;

/// Runs the skew experiment at the paper's 20%, 50% and 70% levels.
pub(crate) fn skew_experiment(duration_ns: u64) -> (Vec<SkewOutcome>, String) {
    let mut outcomes = Vec::new();
    for &skew in &[0.2f64, 0.5, 0.7] {
        let (engine, ops) = skewed_flink_benchmark(skew, (1, 1));
        let manager_cfg = ManagerConfig {
            policy_interval_ns: 10_000_000_000,
            warmup_intervals: 1,
            activation_intervals: 1,
            min_change: 1,
            // The decision limit that guarantees convergence under skew
            // (§4.2.2): without it DS2 would keep retrying, since the
            // target is unreachable by scaling.
            max_decisions: Some(2),
            policy: PolicyConfig {
                max_parallelism: Some(36),
                ..Default::default()
            },
            ..Default::default()
        };
        let ops_count = ops.count;
        let result = run_ds2(engine, manager_cfg, duration_ns);
        outcomes.push(SkewOutcome {
            skew,
            steps: result.decisions.len(),
            final_count: result.final_deployment.parallelism(ops_count),
            achieved: result.final_achieved_ratio(20),
        });
    }

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                format!("{:.0}%", o.skew * 100.0),
                o.steps.to_string(),
                o.final_count.to_string(),
                NO_SKEW_OPTIMAL_COUNT.to_string(),
                format!("{:.2}", o.achieved),
            ]
        })
        .collect();
    let _ = write_csv(
        "skew_experiment.csv",
        &[
            "skew",
            "steps",
            "final_count",
            "no_skew_optimal",
            "achieved",
        ],
        &rows,
    );
    let table = render_table(
        &[
            "skew",
            "steps",
            "final count p",
            "no-skew optimal",
            "achieved ratio",
        ],
        &rows,
    );
    let report = format!(
        "§4.2.3 — DS2 under data skew (word count, hot Count instance)\n{table}\
         paper: converges after two steps to the no-skew-optimal configuration,\n\
         which does not meet the target throughput but never over-provisions\n",
    );
    (outcomes, report)
}
