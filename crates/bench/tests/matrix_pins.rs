//! Byte-for-byte pins of the scenario-matrix reports, the cross-version
//! oracle for any change to the fluid engine's tick. CI's
//! `matrix-determinism` job diffs sibling runs of one build (1 vs 4
//! threads, fast-forward vs `--exact`); this test compares against the
//! reports the committed build produced: `ds2-bench matrix` runs with each
//! distinct flag set of that job — headline, nexmark, windowed, multi-dim,
//! harsh faults, all at `DS2_MATRIX_DURATION_S=120` — and the FNV-1a hash
//! of its stdout must equal `tests/matrix_pins.fnv`.
//!
//! The file also pins the exact `FastForwardStats` of the headline and
//! windowed runs, so no probe or replay decision can move unnoticed. Those
//! come from the library, with the configuration the CLI builds from the
//! same flags; each library report must render to the table the binary
//! printed, which checks that the two runs are the same run. Regenerate
//! the pins only for an intentional output change:
//! `DS2_UPDATE_REPORT=1 cargo test -p ds2-bench --test matrix_pins`.

use std::process::Command;

use ds2_simulator::scenarios::{ControllerKind, MatrixConfig, ScenarioFamily, ScenarioMatrix};

/// FNV-1a 64-bit (matches `examples/matrix_report_hash.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The simulated run length CI sets through `DS2_MATRIX_DURATION_S`.
const DURATION_S: u64 = 120;

/// One distinct report of CI's `matrix-determinism` job: its name and the
/// `matrix` arguments (thread counts left out: reports do not depend on
/// them).
const REPORTS: [(&str, &str); 5] = [
    ("headline", "--scenarios 200"),
    ("nexmark", "--scenarios 24 --family nexmark ds2 threshold"),
    (
        "windowed",
        "--scenarios 200 --family nexmark_q5,nexmark_q8,nexmark_q11",
    ),
    (
        "multidim",
        "--scenarios 24 --family hotkey,state_pressure ds2 ds2_multidim",
    ),
    ("faults", "--scenarios 24 --faults harsh ds2 ds2_hardened"),
];

/// The stdout of `ds2-bench matrix <args>` at CI's run length.
fn matrix_stdout(args: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_ds2-bench"))
        .arg("matrix")
        .args(args.split_whitespace())
        .args(["--threads", "1"])
        .env("DS2_MATRIX_DURATION_S", DURATION_S.to_string())
        .env_remove("DS2_MATRIX_WORKLOADS")
        .output()
        .expect("run ds2-bench matrix");
    assert!(
        output.status.success(),
        "ds2-bench matrix {args} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// A run of 200 scenarios through the library: the pin line of its
/// `FastForwardStats`, after checking that its report renders to the table
/// in the binary's `stdout` for the same flags.
fn tick_counts(name: &str, families: Option<Vec<ScenarioFamily>>, stdout: &str) -> String {
    let mut config = MatrixConfig {
        scenarios: 200,
        threads: 1,
        ..Default::default()
    };
    config.generator.run_duration_ns = DURATION_S * 1_000_000_000;
    if let Some(families) = families {
        config.generator.families = families;
    }
    let (report, stats) = ScenarioMatrix::new(config).run_with_stats(|_, _| {});
    assert!(
        stdout.contains(&report.render(&ControllerKind::ALL)),
        "the library's {name} run is not the binary's"
    );
    format!("{name}.ticks {stats:?}\n")
}

#[test]
fn matrix_reports_are_bitwise_pinned() {
    let mut text = String::new();
    for (name, args) in REPORTS {
        let stdout = matrix_stdout(args);
        text.push_str(&format!("{name} {:#018x}\n", fnv1a(stdout.as_bytes())));
        match name {
            "headline" => text.push_str(&tick_counts(name, None, &stdout)),
            "windowed" => {
                let windowed = ["nexmark_q5", "nexmark_q8", "nexmark_q11"]
                    .map(|f| ScenarioFamily::from_name(f).expect("known family"));
                text.push_str(&tick_counts(name, Some(windowed.to_vec()), &stdout));
            }
            _ => {}
        }
    }

    let pin = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/matrix_pins.fnv");
    if std::env::var_os("DS2_UPDATE_REPORT").is_some() {
        std::fs::write(pin, &text).expect("write matrix_pins.fnv");
    }
    let committed = std::fs::read_to_string(pin).expect("matrix_pins.fnv is committed");
    assert_eq!(
        committed, text,
        "matrix output drifted; regenerate with DS2_UPDATE_REPORT=1 only for an \
         intentional change"
    );
}
