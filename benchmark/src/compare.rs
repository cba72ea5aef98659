//! `run`: every workload, once per set, each in its own process (so peak
//! RSS is the workload's own), results kept as a JSON file. `compare`: two
//! such files judged metric by metric against `BENCHMARK.json`'s bounds.

use std::collections::BTreeMap;
use std::process::Command;

use crate::json::Json;
use crate::stats::median;
use crate::{cpus, out_dir, parse_seed, spec, MetricDef, DEFAULT_SEED};

/// metric name -> value, for one workload of one set.
type Metrics = BTreeMap<String, f64>;
/// workload name -> its metrics: one complete set of runs.
type Set = BTreeMap<String, Metrics>;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs this executable on one workload and returns its metrics, or `None`
/// when it printed no result or a failed check.
fn child(name: &str, seed: u64, seconds: f64, quick: bool, trace: bool) -> Option<Metrics> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().expect("spawn workload process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    for line in report.lines() {
        println!("  {line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let doc = Json::parse(result).ok()?;
    if !output.status.success() || doc.get("correct")?.as_bool() != Some(true) {
        return None;
    }
    let metrics = doc.get("metrics")?.as_object();
    Some(
        metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    )
}

fn set_json(set: &Set) -> String {
    let workloads: Vec<String> = set
        .iter()
        .map(|(w, metrics)| {
            let fields: Vec<String> = metrics
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            format!("    \"{w}\": {{{}}}", fields.join(", "))
        })
        .collect();
    format!("{{\n{}\n  }}", workloads.join(",\n"))
}

/// `run [--seed S] [--seconds N] [--quick] [--sets K] [--trace] [--out FILE]`
pub fn run_sets(flags: &BTreeMap<String, String>) -> i32 {
    let seed = flags
        .get("--seed")
        .map_or(Some(DEFAULT_SEED), |s| parse_seed(s));
    let seconds = flags
        .get("--seconds")
        .map_or(Some(spec().run_seconds), |s| s.parse().ok());
    let sets = flags.get("--sets").map_or(Some(1usize), |s| s.parse().ok());
    let (Some(seed), Some(seconds), Some(sets)) = (seed, seconds, sets) else {
        eprintln!("run: --seed, --seconds and --sets take numbers");
        return 2;
    };
    let quick = flags.contains_key("--quick");
    println!(
        "machine: {} cpus, {}; seed {seed}; matrix threads 1",
        cpus(),
        cpu_model()
    );

    let mut failed = false;
    let mut run_into = |set: &mut Set, name: &String, trace: bool| match child(
        name, seed, seconds, quick, trace,
    ) {
        Some(metrics) => drop(set.insert(name.clone(), metrics)),
        None => failed = true,
    };
    // Workload by workload, not set by set: the host's speed flips between
    // two modes for minutes at a time, and sets of one workload taken back to
    // back mostly see the same one.
    let mut untraced: Vec<Set> = vec![Set::new(); sets.max(1)];
    for name in &spec().workloads {
        for (k, set) in untraced.iter_mut().enumerate() {
            println!("set {} {name}", k + 1);
            run_into(set, name, false);
        }
    }
    let mut traced = Set::new();
    if flags.contains_key("--trace") {
        for name in &spec().workloads {
            println!("traced {name}");
            run_into(&mut traced, name, true);
        }
    }

    let path = flags
        .get("--out")
        .map_or_else(|| out_dir().join("run.json"), std::path::PathBuf::from);
    let body = format!(
        "{{\n  \"machine\": {{\"cpus\": {}, \"cpu_model\": \"{}\"}},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"sets\": [{}],\n  \"per_layer\": {}\n}}\n",
        cpus(),
        cpu_model(),
        untraced.iter().map(set_json).collect::<Vec<_>>().join(", "),
        set_json(&traced)
    );
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("cannot write {}: {e}", path.display());
        return 1;
    }
    println!("results written to {}", path.display());

    if untraced.len() >= 2 {
        println!("\nagreement of {} sets of the same build:", untraced.len());
        let (first, rest) = untraced.split_at(1);
        failed |= print_comparison(first, rest) > 0;
    }
    failed as i32
}

fn load_sets(path: &str) -> Result<Vec<Set>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let sets: Vec<Set> = doc
        .get("sets")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|set| {
            set.as_object()
                .iter()
                .map(|(w, metrics)| {
                    let metrics = metrics
                        .as_object()
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect();
                    (w.clone(), metrics)
                })
                .collect()
        })
        .collect();
    if sets.is_empty() {
        return Err(format!("{path}: no \"sets\""));
    }
    Ok(sets)
}

/// `compare A.json B.json`: A is the base.
pub fn compare_files(a: &str, b: &str) -> i32 {
    match (load_sets(a), load_sets(b)) {
        (Ok(a), Ok(b)) => (print_comparison(&a, &b) > 0) as i32,
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            2
        }
    }
}

/// Median over a side's sets, and their spread `(max - min) / median`
/// (`None` with a single set).
fn side(sets: &[Set], workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let mut values: Vec<f64> = sets
        .iter()
        .filter_map(|s| s.get(workload)?.get(metric).copied())
        .collect();
    if values.is_empty() {
        return None;
    }
    let mid = median(&mut values);
    let spread = (values.len() > 1).then(|| (values[values.len() - 1] - values[0]) / mid.abs());
    Some((mid, spread))
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// Run-to-run spread exceeds the bound: the data cannot say.
    Unresolved,
}

/// Judges B against base A. `worse` is the share of A's median by which B
/// is worse, in the metric's own direction.
fn judge(def: &MetricDef, a: f64, b: f64, spread: f64) -> (f64, Verdict) {
    let worse = if def.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let verdict = if spread > def.bound {
        Verdict::Unresolved
    } else if worse > def.bound {
        Verdict::Regressed
    } else if worse < -def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// Prints one row per (workload, end-to-end metric); returns how many
/// regressed or could not be resolved.
fn print_comparison(a: &[Set], b: &[Set]) -> usize {
    println!(
        "{:<20} {:<17} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "spread", "bound"
    );
    let mut bad = 0;
    for workload in &spec().workloads {
        for def in &spec().end_to_end {
            let (Some((a_mid, a_spread)), Some((b_mid, b_spread))) =
                (side(a, workload, &def.name), side(b, workload, &def.name))
            else {
                continue;
            };
            let spread = a_spread
                .into_iter()
                .chain(b_spread)
                .fold(None, |m: Option<f64>, s| Some(m.map_or(s, |m| m.max(s))));
            let (_, verdict) = judge(def, a_mid, b_mid, spread.unwrap_or(0.0));
            bad += matches!(verdict, Verdict::Regressed | Verdict::Unresolved) as usize;
            println!(
                "{workload:<20} {:<17} {a_mid:>14.4} {b_mid:>14.4} {:>9.4} {:>7} {:>7.3}  {verdict:?} ({})",
                def.name,
                b_mid / a_mid,
                spread.map_or("-".to_string(), |s| format!("{s:.3}")),
                def.bound,
                def.unit,
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: 0.1,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Higher is better: B 20 % lower is a regression, 20 % higher a gain.
        assert_eq!(judge(&def(true), 100.0, 80.0, 0.0).1, Verdict::Regressed);
        assert_eq!(judge(&def(true), 100.0, 120.0, 0.0).1, Verdict::Improved);
        assert_eq!(judge(&def(true), 100.0, 95.0, 0.0).1, Verdict::Unchanged);
        // Lower is better: the same numbers flip.
        assert_eq!(judge(&def(false), 100.0, 80.0, 0.0).1, Verdict::Improved);
        assert_eq!(judge(&def(false), 100.0, 120.0, 0.0).1, Verdict::Regressed);
        let (worse, _) = judge(&def(false), 100.0, 120.0, 0.0);
        assert!((worse - 0.2).abs() < 1e-12);
        // Spread beyond the bound: unresolved, never "unchanged".
        assert_eq!(judge(&def(true), 100.0, 100.0, 0.3).1, Verdict::Unresolved);
        assert_eq!(judge(&def(true), 100.0, 50.0, 0.3).1, Verdict::Unresolved);
    }

    #[test]
    fn side_takes_median_and_spread_over_sets() {
        let set = |v: f64| -> Set { [("w".to_string(), [("m".to_string(), v)].into())].into() };
        let sets = [set(10.0), set(12.0), set(11.0)];
        let (mid, spread) = side(&sets, "w", "m").unwrap();
        assert_eq!(mid, 11.0);
        assert!((spread.unwrap() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(side(&sets[..1], "w", "m"), Some((10.0, None)));
        assert_eq!(side(&sets, "w", "other"), None);
    }
}
