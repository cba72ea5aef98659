//! The `ds2-bench` command line: one subcommand per paper experiment, the
//! scenario matrix, and `all`.
//!
//! Usage: `ds2-bench <SUBCOMMAND> [ARGS]`
//!
//! ```text
//!   matrix [FLAGS] [controllers...]   the scenario matrix (flags below)
//!   fig1 fig6 fig7 table4 fig8 fig9 fig10 skew ablations
//!                                     one experiment (see the crate docs)
//!   all                               every experiment, in paper order
//! ```
//!
//! `matrix` runs the scenario matrix across DS2 and every baseline and
//! prints the comparison table (steps-to-convergence, provisioning
//! accuracy, SASO-style stability):
//!
//! ```text
//!   --scenarios N     number of scenarios (default 40; the library default
//!                     MatrixConfig runs 5000)
//!   --threads N       worker threads (default 0 = one per CPU; results are
//!                     bit-identical for every value)
//!   --seed S          base seed; scenario i runs seed S+i. Reproduce one
//!                     failing seed with `--seed <seed> --scenarios 1`
//!   --family F        scenario families to generate (default synthetic):
//!                     `synthetic`, `nexmark` (all six queries),
//!                     `nexmark_q1`/`q2`/`q3`/`q5`/`q8`/`q11`, `hotkey`
//!                     (splittable hot key classes), `state_pressure`
//!                     (state outgrowing its memory budget), `mixed`
//!                     (synthetic + nexmark 50/50, the headline-test mix),
//!                     a comma-separated list of family names — or `list`,
//!                     which prints every known family plus the per-family
//!                     scenario counts of the configured run, then exits
//!   --exact           disable macro-tick fast-forward: every tick is
//!                     executed in full. The report is bit-identical to the
//!                     default fast-forward mode (CI diffs the two); this
//!                     is the escape hatch that proves it
//!   --faults P        inject deterministic telemetry and actuation faults:
//!                     `none` (default), `mild`, or `harsh`. The fault
//!                     sequence is a pure function of (scenario seed,
//!                     profile), so faulted runs keep every determinism
//!                     guarantee — including fast-forward bit-equality —
//!                     and the report grows `faultw`/`vetoed`/`retries`
//!                     columns. Pair with `ds2_hardened` to compare the
//!                     hardened controller against vanilla DS2
//!   controllers       any of ds2/dhalion/threshold/queueing/ds2_multidim/
//!                     ds2_hardened (default: ds2 + the three baselines).
//!                     `ds2_multidim` runs DS2 on the multi-dimensional
//!                     resource model: key-class split detection plus the
//!                     scenario's per-instance state budget. `ds2_hardened`
//!                     runs DS2 with snapshot validation, outlier
//!                     rejection, and rescale verify-and-retry
//! ```
//!
//! With more than one family in play the per-family breakdown table is
//! printed after the overall table (both deterministic across thread
//! counts; CI diffs them). When `ds2_multidim` is among the controllers,
//! both tables grow two per-dimension resource columns: `inst_hrs` — mean
//! non-source instance-hours per run (the parallelism bill) — and
//! `state_hrs` — mean instance-hours held by budgeted stateful operators
//! (the state bill). Parallelism-only reports render byte-identically to
//! the classic format.
//!
//! The report table goes to stdout; timing, the tick breakdown (full vs
//! replayed steady/drift/halted/cycle) and progress go to stderr, so two
//! runs with different `--threads` — or with and without `--exact` — can be
//! `diff`ed directly (CI does).
//!
//! Environment: `DS2_MATRIX_WORKLOADS` (comma-separated family names),
//! `DS2_MATRIX_DURATION_S`, `DS2_MATRIX_VERBOSE`.

use std::time::Instant;

use ds2_simulator::scenarios::{
    ControllerKind, FaultProfile, MatrixConfig, ScenarioFamily, ScenarioMatrix, ScenarioSpec,
    WorkloadShape,
};
use ds2_simulator::FastForwardStats;

use crate::experiments::{ablations, accuracy, flink_dynamic, heron, overhead, skew, table4};

/// A paper experiment: its subcommand and a runner returning the report.
type Experiment = (&'static str, fn() -> String);

/// Every experiment in paper order, with the simulated durations the
/// reported numbers are taken at.
const EXPERIMENTS: [Experiment; 9] = [
    ("fig1", || heron::figure1(3_000_000_000_000).1),
    ("fig6", || heron::figure6(3_000_000_000_000).2),
    ("fig7", || flink_dynamic::figure7(1_600_000_000_000).1),
    ("table4", || {
        table4::report(&table4::run_table(600_000_000_000))
    }),
    ("fig8", || accuracy::figure8(120_000_000_000)),
    ("fig9", || accuracy::figure9(120_000_000_000)),
    ("fig10", || overhead::figure10(120_000_000_000).2),
    ("skew", || skew::skew_experiment(300_000_000_000).1),
    ("ablations", || {
        format!(
            "{}\n\n{}\n\n{}\n\n{}",
            ablations::linear_scaling_ablation(600_000_000_000).1,
            ablations::heron_queue_ablation(1_200_000_000_000).1,
            ablations::controller_shootout(400_000_000_000),
            ablations::timely_rule_ablation(60_000_000_000),
        )
    }),
];

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: ds2-bench all|fig1|fig6|fig7|table4|fig8|fig9|fig10|skew|ablations\n       \
         ds2-bench matrix [--scenarios N] [--threads N] [--seed S] \
         [--family synthetic|nexmark|nexmark_qN|hotkey|state_pressure|mixed|list] \
         [--exact] [--faults none|mild|harsh] \
         [ds2|dhalion|threshold|queueing|ds2_multidim|ds2_hardened ...]"
    );
    std::process::exit(2);
}

/// Runs the subcommand named by the first of `args` (the program name
/// already stripped) with the rest as its arguments.
pub fn run(args: Vec<String>) {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("matrix") => run_matrix(args),
        Some("all") => {
            let t0 = Instant::now();
            for (_, experiment) in EXPERIMENTS {
                println!("{}", experiment());
            }
            println!("full suite wall time: {:.1}s", t0.elapsed().as_secs_f64());
        }
        Some(name) => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, experiment)) => println!("{}", experiment()),
            None => usage_exit(&format!("unknown subcommand '{name}'")),
        },
        None => usage_exit("missing subcommand"),
    }
}

/// Every family the generator knows, in report order.
fn known_families() -> Vec<ScenarioFamily> {
    let mut all = vec![ScenarioFamily::Synthetic];
    all.extend(ScenarioFamily::ALL_NEXMARK);
    all.push(ScenarioFamily::HotKey);
    all.push(ScenarioFamily::StatePressure);
    all
}

/// `--family list`: prints every known family name and the per-family
/// scenario counts the configured run would draw (scenario `i` draws its
/// family from seed `base_seed + i`, so the counts are exact, not
/// probabilistic), then exits.
fn list_families(config: &MatrixConfig) -> ! {
    println!("known families:");
    for family in known_families() {
        println!("  {}", family.name());
    }
    println!(
        "\nconfigured run ({} scenarios, base seed {:#x}, families {}):",
        config.scenarios,
        config.base_seed,
        config
            .generator
            .families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(","),
    );
    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for i in 0..config.scenarios {
        let spec = ScenarioSpec::generate(config.base_seed + i as u64, &config.generator);
        *counts.entry(spec.family.name()).or_default() += 1;
    }
    for (name, count) in counts {
        println!("  {name:<14} {count}");
    }
    std::process::exit(0);
}

/// Parses a `--family` value: a preset (`synthetic`, `nexmark`, `mixed`)
/// or a comma-separated list of family names.
fn parse_families(value: &str) -> Vec<ScenarioFamily> {
    match value {
        "synthetic" => vec![ScenarioFamily::Synthetic],
        "nexmark" => ScenarioFamily::ALL_NEXMARK.to_vec(),
        // The headline-test mix: synthetic and nexmark weighted 50/50.
        "mixed" => ScenarioFamily::headline_mix(),
        list => {
            let families: Vec<ScenarioFamily> = list
                .split(',')
                .filter_map(|n| ScenarioFamily::from_name(n.trim()))
                .collect();
            if families.is_empty() {
                usage_exit(&format!("--family: no known family in '{list}'"));
            }
            families
        }
    }
}

/// Renders where the engines' ticks went: executed in full, or replayed
/// from a fixed point, a drift step, a halted stretch or a window cycle.
fn tick_breakdown(stats: FastForwardStats) -> String {
    let total = (stats.full_ticks + stats.replayed_ticks).max(1) as f64;
    let pct = |ticks: u64| 100.0 * ticks as f64 / total;
    let steady = stats.replayed_ticks - stats.drift_ticks - stats.halted_ticks - stats.cycle_ticks;
    format!(
        "{:.2} M ticks: {:.1}% full, replayed {:.1}% steady + {:.1}% drift + {:.1}% halted \
         + {:.1}% cycle; {} of {} probes failed",
        total / 1e6,
        pct(stats.full_ticks),
        pct(steady),
        pct(stats.drift_ticks),
        pct(stats.halted_ticks),
        pct(stats.cycle_ticks),
        stats.probe_failures,
        stats.probes,
    )
}

fn parse_flag<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(v) = args.next() else {
        usage_exit(&format!("{flag} needs a value"));
    };
    v.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag}: cannot parse '{v}'")))
}

/// The `matrix` subcommand.
fn run_matrix(mut args: impl Iterator<Item = String>) {
    let mut scenarios: usize = 40;
    let mut threads: usize = 0;
    let mut seed: Option<u64> = None;
    let mut fast_forward = true;
    let mut faults = FaultProfile::None;
    let mut families: Option<Vec<ScenarioFamily>> = None;
    let mut list_requested = false;
    let mut controllers: Vec<ControllerKind> = Vec::new();

    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenarios" => scenarios = parse_flag(&mut args, "--scenarios"),
            "--threads" => threads = parse_flag(&mut args, "--threads"),
            "--seed" => seed = Some(parse_flag(&mut args, "--seed")),
            "--family" => {
                let value: String = parse_flag(&mut args, "--family");
                if value == "list" {
                    list_requested = true;
                } else {
                    families = Some(parse_families(&value));
                }
            }
            "--exact" => fast_forward = false,
            "--faults" => {
                let value: String = parse_flag(&mut args, "--faults");
                faults = FaultProfile::from_name(&value)
                    .unwrap_or_else(|| usage_exit(&format!("--faults: unknown profile '{value}'")));
            }
            "ds2" => controllers.push(ControllerKind::Ds2),
            "dhalion" => controllers.push(ControllerKind::Dhalion),
            "threshold" => controllers.push(ControllerKind::Threshold),
            "queueing" => controllers.push(ControllerKind::Queueing),
            "ds2_multidim" => controllers.push(ControllerKind::Ds2MultiDim),
            "ds2_hardened" => controllers.push(ControllerKind::Ds2Hardened),
            other => {
                // Back-compat: a bare number is the scenario count.
                match other.parse::<usize>() {
                    Ok(n) => scenarios = n,
                    Err(_) => usage_exit(&format!("unknown argument '{other}'")),
                }
            }
        }
    }
    if controllers.is_empty() {
        controllers = ControllerKind::ALL.to_vec();
    }

    let mut config = MatrixConfig {
        scenarios,
        threads,
        controllers: controllers.clone(),
        fast_forward,
        faults,
        ..Default::default()
    };
    if let Some(families) = families {
        config.generator.families = families;
    }
    if let Some(seed) = seed {
        config.base_seed = seed;
    }
    if let Ok(names) = std::env::var("DS2_MATRIX_WORKLOADS") {
        let workloads: Vec<WorkloadShape> = names
            .split(',')
            .filter_map(|n| WorkloadShape::from_name(n.trim()))
            .collect();
        if workloads.is_empty() {
            let known: Vec<&str> = WorkloadShape::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "DS2_MATRIX_WORKLOADS='{names}' names no known workload (expected {})",
                known.join("/")
            );
            std::process::exit(2);
        }
        config.generator.workloads = workloads;
    }
    if let Some(secs) = std::env::var("DS2_MATRIX_DURATION_S")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        config.generator.run_duration_ns = secs * 1_000_000_000;
    }

    if list_requested {
        list_families(&config);
    }

    let verbose = std::env::var("DS2_MATRIX_VERBOSE").is_ok();
    let matrix = ScenarioMatrix::new(config.clone());
    let t0 = Instant::now();
    // Per-run progress (stderr) for debugging pathological scenarios. In
    // parallel runs cells are reported in completion order.
    let mut last = Instant::now();
    let (report, ff_stats) = matrix.run_with_stats(|spec, o| {
        if verbose {
            eprintln!(
                "seed {} {} {} ops={} {}: steps={} conv={} final={} in {:?}",
                spec.seed,
                spec.topology.shape.name(),
                spec.workload.shape.name(),
                o.operators,
                o.controller,
                o.steps_final_phase,
                o.converged,
                o.final_instances,
                last.elapsed(),
            );
        }
        last = Instant::now();
    });

    // Timing to stderr: stdout must be identical across thread counts.
    eprintln!(
        "scenario matrix: {} scenarios x {} controllers on {} threads in {:?} ({})",
        config.scenarios,
        config.controllers.len(),
        matrix.effective_threads(),
        t0.elapsed(),
        tick_breakdown(ff_stats),
    );
    println!(
        "scenario matrix: {} scenarios x {} controllers\n",
        config.scenarios,
        config.controllers.len(),
    );
    println!("{}", report.render(&controllers));
    if report.families().len() > 1 {
        println!("{}", report.render_families(&controllers));
    }
    for &kind in &controllers {
        let failing = report.failing_seeds(kind.name());
        if !failing.is_empty() {
            println!(
                "{}: {} runs outside the three-step claim:\n{}",
                kind.name(),
                failing.len(),
                report.describe_failures(kind.name()),
            );
        }
    }
}
