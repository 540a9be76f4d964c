//! `explore` refuses out-of-range input instead of misreading it.
//!
//! A budget whose byte count overflows, or a thread or shard count of
//! zero, must exit 64 with an error naming the flag; before, the budget
//! wrapped to a tiny one (2^44 MiB ran with a 0-byte store and truncated
//! after two states) and a zero count silently ran as one.

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
