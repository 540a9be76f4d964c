//! `explore` refuses out-of-range input instead of misreading it.
//!
//! A budget whose byte count overflows, or a thread or shard count of
//! zero, must exit 64 with an error naming the flag; before, the budget
//! wrapped to a tiny one (2^44 MiB ran with a 0-byte store and truncated
//! after two states) and a zero count silently ran as one. So must an
//! argument `--help` does not list, a flag without its value and a flag
//! given twice, which were once ignored: a mistyped `--expect-clean`
//! turned the CI gate off.

use std::process::{Command, Output};

fn explore(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(["--p1", "S42", "--p2", "L"])
        .args(args)
        .output()
        .expect("spawn explore")
}

fn assert_refused(args: &[&str], error: &str) {
    let out = explore(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(64),
        "{args:?} must exit 64; stderr: {stderr}"
    );
    assert!(
        stderr.contains(error),
        "{args:?} must name the error {error:?}; stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must print no report");
}

#[test]
fn overflowing_budgets_are_refused() {
    // 2^44 MiB is 2^64 bytes.
    assert_refused(
        &["--mem-budget-mb", "17592186044416"],
        "bad --mem-budget-mb: 17592186044416 MiB overflows a byte count",
    );
    let spill = std::env::temp_dir().join(format!("cxl-explore-cli-{}", std::process::id()));
    assert_refused(
        &[
            "--spill-dir",
            spill.to_str().expect("utf-8 temp dir"),
            "--spill-budget-mb",
            "17592186044416",
        ],
        "bad --spill-budget-mb: 17592186044416 MiB overflows a byte count",
    );
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn zero_threads_and_shards_are_refused() {
    assert_refused(&["--threads", "0"], "bad --threads: 0 (must be at least 1)");
    assert_refused(&["--shards", "0"], "bad --shards: 0 (must be at least 1)");
}

#[test]
fn unknown_valueless_and_repeated_arguments_are_refused() {
    assert_refused(&["--thread", "0"], "unknown argument \"--thread\"");
    // The Table 3 violation must not exit 0 behind a mistyped gate.
    assert_refused(
        &["--relax", "snoop-pushes-go", "--expect-clen"],
        "unknown argument \"--expect-clen\"",
    );
    assert_refused(&["stray"], "unknown argument \"stray\"");
    assert_refused(&["--p01", "L"], "unknown argument \"--p01\"");
    assert_refused(&["--p9", "L"], "--p9 outside supported device range 1..=8");
    assert_refused(&["--threads"], "--threads needs a value");
    assert_refused(&["--threads", "--full"], "--threads needs a value");
    // The helper passes `--p1 S42 --p2 L` first.
    assert_refused(&["--p1", "L"], "--p1 given twice");
    assert_refused(&["--full", "--full"], "--full given twice");
}

#[test]
fn in_range_values_run() {
    let out = explore(&[
        "--threads",
        "1",
        "--shards",
        "1",
        "--mem-budget-mb",
        "64",
        "--expect-clean",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("truncated: false"),
        "the run must complete: {stdout}"
    );
}
