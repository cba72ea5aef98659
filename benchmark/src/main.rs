//! The repo benchmark (see `README.md` beside this package and
//! `/BENCHMARK.json`). Three entry points:
//!
//! ```text
//! ds2-benchmark --workload W --seed S --seconds N --trace 0|1   one workload; last stdout line is the result JSON
//! ds2-benchmark run [--seed S] [--seconds N] [--quick] [--sets K] [--trace] [--out FILE]
//! ds2-benchmark compare A.json B.json
//! ```

mod affinity;
mod compare;
mod json;
mod matrix_wl;
mod probes;
mod runtime_wl;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use json::Json;
use trace::Tracer;

/// Default `--seed`: the headline matrix's base seed.
pub const DEFAULT_SEED: u64 = 0xD52_0001;

/// How much work one run does.
pub struct Scale {
    /// Length of the measured window (runtime workloads) or the nominal
    /// length the scenario count is sized for (matrix workloads).
    pub seconds: f64,
    /// `--quick`: a smoke-sized run, checks still on.
    pub quick: bool,
    /// Share of the full warm-up volume to push through before measuring.
    pub warm_frac: f64,
    /// Set-up is repeated this many times; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Scale {
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            quick: false,
            warm_frac: 1.0,
            setup_reps: 5,
        }
    }

    pub fn quick() -> Self {
        Self {
            seconds: 1.0,
            quick: true,
            warm_frac: 0.2,
            setup_reps: 1,
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    pub notes: Vec<String>,
    /// The spans of a traced run, written out as JSON lines by `main`.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets `name` to the median duration of the spans called `span`,
    /// divided by `ns_per_unit`; leaves it unset when there are none.
    pub fn set_median(&mut self, name: &str, tracer: &Tracer, span: &str, ns_per_unit: f64) {
        let mut durations = tracer.durations_ns(span);
        if !durations.is_empty() {
            self.set(name, stats::median(&mut durations) / ns_per_unit);
        }
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed_checks.push(what.to_string());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed_checks.is_empty()
    }
}

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base median (end-to-end only).
    pub bound: f64,
}

/// `BENCHMARK.json`, the single source of workload and metric names.
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let defs = |key: &str| -> Vec<MetricDef> {
            doc.get(key)
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| MetricDef {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("metric unit")
                        .to_string(),
                    higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                })
                .collect()
        };
        Spec {
            workloads: doc
                .get("workloads")
                .map(Json::as_array)
                .unwrap_or_default()
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
        }
    })
}

/// Peak resident set of this process in MB (`VmHWM`); one workload per
/// process, so the high-water mark is the workload's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run_workload(name: &str, seed: u64, scale: &Scale, trace: bool) -> Outcome {
    if name.starts_with("matrix_") {
        matrix_wl::run(name, seed, scale, trace)
    } else {
        runtime_wl::run(name, seed, scale, trace)
    }
}

/// The result object the contract asks for as the last stdout line: every
/// end-to-end metric untraced, every per-layer metric traced (0 where the
/// layer is not on this workload's path).
pub fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let defs = if trace {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    let mut fields = Vec::new();
    for def in defs {
        let value = match outcome.metrics.get(&def.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {} is {v}", def.name)),
            None if trace => 0.0,
            None => return Err(format!("metric {} was not measured", def.name)),
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    if let Some(stray) = outcome
        .metrics
        .keys()
        .find(|k| defs.iter().all(|d| &d.name != *k))
    {
        return Err(format!("metric {stray} is not declared in BENCHMARK.json"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

/// Where run artefacts go: inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: ds2-benchmark --workload W --seed S --seconds N --trace 0|1 [--quick]\n       \
         ds2-benchmark run [--seed S] [--seconds N] [--quick] [--sets K] [--trace] [--out FILE]\n       \
         ds2-benchmark compare A.json B.json\n\
         workloads: {}",
        spec().workloads.join(" ")
    );
    std::process::exit(2);
}

/// `--flag value` pairs after the subcommand; bare flags map to "".
fn parse_flags(args: &[String], bare: &[&str]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            usage(&format!("unexpected argument '{flag}'"));
        }
        let value = if bare.contains(&flag.as_str()) {
            String::new()
        } else {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        flags.insert(flag.clone(), value);
    }
    flags
}

pub fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// One workload, as the driver runs it.
fn single(flags: &BTreeMap<String, String>) -> i32 {
    let name = flags.get("--workload").expect("checked by main");
    if !spec().workloads.iter().any(|w| w == name) {
        usage(&format!("unknown workload '{name}'"));
    }
    let seed = flags
        .get("--seed")
        .map_or(Some(DEFAULT_SEED), |s| parse_seed(s))
        .unwrap_or_else(|| usage("--seed: not a number"));
    let seconds: f64 = flags
        .get("--seconds")
        .map_or(Some(spec().run_seconds), |s| s.parse().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds: not a positive number"));
    let trace = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => usage(&format!("--trace: expected 0 or 1, got '{other}'")),
    };
    let scale = if flags.contains_key("--quick") {
        Scale::quick()
    } else {
        Scale::full(seconds)
    };

    let outcome = run_workload(name, seed, &scale, trace);
    println!(
        "workload {name} seed {seed} seconds {} trace {} cpus {}",
        scale.seconds,
        trace as u8,
        cpus()
    );
    let defs = if trace {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    for def in defs {
        if let Some(value) = outcome.metrics.get(&def.name) {
            println!("{} {value} {}", def.name, def.unit);
        }
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for check in &outcome.failed_checks {
        println!("FAILED CHECK {check}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
        println!(
            "note {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    match result_json(&outcome, trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                0
            } else {
                1
            }
        }
        Err(problem) => {
            eprintln!("no result: {problem}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => compare::run_sets(&parse_flags(&args[1..], &["--quick", "--trace"])),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => usage("compare takes two result files"),
        },
        Some(flag) if flag.starts_with("--") => {
            let flags = parse_flags(&args, &["--quick"]);
            if !flags.contains_key("--workload") {
                usage("--workload is required");
            }
            single(&flags)
        }
        _ => usage("no command"),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `BENCHMARK.json` stays inside the limits the driver refuses outside of.
    #[test]
    fn benchmark_json_meets_the_contract() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).unwrap();
        let keys: Vec<&str> = doc.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let s = spec();
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!((1.0..=60.0).contains(&s.run_seconds) && s.run_seconds.fract() == 0.0);

        let mut names: Vec<&str> = s.workloads.iter().map(String::as_str).collect();
        for def in s.end_to_end.iter().chain(&s.per_layer) {
            names.push(&def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16, "{}", def.name);
            assert!(
                def.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                def.name
            );
        }
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        for def in &s.end_to_end {
            assert!(
                def.bound > 0.0 && def.bound <= 0.25,
                "bound of {}",
                def.name
            );
        }
        let setup = s
            .end_to_end
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(s.end_to_end.iter().all(|d| d.bound <= setup.bound));
        for w in doc.get("workloads").unwrap().as_array() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for arg in doc.get("command").unwrap().as_array() {
            let arg = arg.as_str().unwrap();
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
    }

    #[test]
    fn result_json_has_exactly_the_declared_metrics() {
        let mut outcome = Outcome::default();
        assert!(
            result_json(&outcome, false).is_err(),
            "missing end-to-end metrics must not pass"
        );
        for def in &spec().end_to_end {
            outcome.set(&def.name, 1.5);
        }
        outcome.attempted = 10;
        let line = result_json(&outcome, false).unwrap();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            doc.get("metrics").unwrap().as_object().len(),
            spec().end_to_end.len()
        );
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));

        outcome.set("not.declared", 1.0);
        assert!(result_json(&outcome, false).is_err());
        outcome.metrics.remove("not.declared");
        outcome.set("setup_s", f64::NAN);
        assert!(result_json(&outcome, false).is_err());

        // Traced: every per-layer metric is present, 0 where unmeasured.
        let traced = Json::parse(&result_json(&Outcome::default(), true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().len(),
            spec().per_layer.len()
        );
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0xD520001"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("nope"), None);
    }

    /// Quick mode end to end: every workload, both modes, checks on, and a
    /// result line the contract accepts.
    #[test]
    fn quick_mode_smoke() {
        for name in &spec().workloads {
            for trace in [false, true] {
                let outcome = run_workload(name, DEFAULT_SEED, &Scale::quick(), trace);
                assert!(
                    outcome.correct(),
                    "{name} trace={trace}: {:?}",
                    outcome.failed_checks
                );
                assert_eq!(outcome.failed, 0, "{name}");
                let line = result_json(&outcome, trace).unwrap_or_else(|e| panic!("{name}: {e}"));
                let doc = Json::parse(&line).unwrap();
                for (metric, v) in doc.get("metrics").unwrap().as_object() {
                    let value = v.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value.is_finite(), "{name} {metric}");
                    if !trace {
                        assert!(value > 0.0, "{name} {metric} must never be 0");
                    }
                }
            }
        }
    }
}
