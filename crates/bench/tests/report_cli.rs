//! `report` refuses arguments it does not know, as `explore` does.
//!
//! `report` used to look its two flags up by name and ignore everything
//! else: `report --quik` ran the full report and exited 0, and a `--json`
//! without its path was silently dropped. Each must now exit 64 with an
//! error naming the argument, before any artefact is printed.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("spawn report")
}

fn assert_refused(args: &[&str], error: &str) {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(64), "{args:?} must exit 64; stderr: {stderr}");
    assert!(stderr.contains(error), "{args:?} must name the error {error:?}; stderr: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must print no report");
}

#[test]
fn unknown_valueless_and_repeated_arguments_are_refused() {
    assert_refused(&["--quik"], "unknown argument \"--quik\"");
    assert_refused(&["--quick", "stray"], "unknown argument \"stray\"");
    assert_refused(&["--json"], "--json needs a value");
    assert_refused(&["--json", "--quick"], "--json needs a value");
    assert_refused(&["--quick", "--quick"], "--quick given twice");
}

#[test]
fn listed_arguments_run() {
    let json = std::env::temp_dir().join(format!("cxl-report-cli-{}.json", std::process::id()));
    let out = report(&["--quick", "--json", json.to_str().expect("utf-8 temp path")]);
    let written = std::fs::read_to_string(&json);
    let _ = std::fs::remove_file(&json);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("experiment: table1"));
    let written = written.expect("--json writes its file");
    assert!(written.starts_with('{') && written.contains("\"artifacts\""), "{written}");
}
