//! Byte-for-byte pin of the paper suite: `ds2-bench all` (Figs. 1 and
//! 6-10, Table 4, skew, the ablations) runs into a fresh results
//! directory, and the FNV-1a hash of its stdout (the wall-time line
//! filtered out) and of each CSV it writes must equal
//! `tests/paper_suite.fnv`. The suite runs latency-tracking Flink, Heron
//! and Timely engines, so this is the oracle for the sink-latency and
//! epoch paths no matrix report reads. Regenerate the pin only for an
//! intentional output change:
//! `DS2_UPDATE_REPORT=1 cargo test -p ds2-bench --test paper_suite_pin`.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a 64-bit (matches `examples/matrix_report_hash.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn paper_suite_output_is_bitwise_pinned() {
    let dir = std::env::temp_dir().join(format!("ds2-paper-suite-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_ds2-bench"))
        .arg("all")
        .env("DS2_RESULTS_DIR", &dir)
        .output()
        .expect("run ds2-bench all");
    assert!(
        output.status.success(),
        "ds2-bench all failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let stdout: String = stdout
        .lines()
        .filter(|l| !l.contains("wall time"))
        .map(|l| format!("{l}\n"))
        .collect();

    let mut csvs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("results directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    csvs.sort();
    let mut text = format!("stdout {:#018x}\n", fnv1a(stdout.as_bytes()));
    for path in &csvs {
        let bytes = std::fs::read(path).expect("read CSV");
        let name = path.file_name().unwrap().to_string_lossy();
        text.push_str(&format!("{name} {:#018x}\n", fnv1a(&bytes)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(csvs.len(), 17, "the suite writes 17 CSVs:\n{text}");

    let pin = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/paper_suite.fnv");
    if std::env::var_os("DS2_UPDATE_REPORT").is_some() {
        std::fs::write(pin, &text).expect("write paper_suite.fnv");
    }
    let committed = std::fs::read_to_string(pin).expect("paper_suite.fnv is committed");
    assert_eq!(
        committed, text,
        "paper-suite output drifted; regenerate with DS2_UPDATE_REPORT=1 only \
         for an intentional change"
    );
}
