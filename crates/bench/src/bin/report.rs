//! Regenerate every table and figure of the paper's evaluation and print
//! them, plus a machine-readable JSON dump.
//!
//! Usage:
//! ```text
//! cargo run -p cxl-bench --bin report [--quick] [--json PATH]
//! ```
//! `--quick` shrinks the obligation-matrix universe for a fast smoke run.
//! Any other argument, a `--json` without its path and a flag given twice
//! are refused with exit 64.

use cxl_bench::cli::{arg_value, check_args};
use cxl_bench::{
    figure5_artifact, figure6_artifact, litmus_artifact, obligation_artifact, relaxation_artifact,
    run_matrix, scale_artifact, table1_artifact, table2_artifact, table3_artifact, Artifact,
    MatrixOptions,
};
use cxl_core::Granularity;

/// `--help` text.
const USAGE: &str = "\
report — regenerate every table and figure of the paper's evaluation

USAGE:
    report [--quick] [--json PATH]

    --quick       shrink the obligation-matrix universe (smoke run)
    --json PATH   also write every artefact as JSON to PATH
    --help        this text
";

fn banner(a: &Artifact) {
    println!("================================================================");
    println!("experiment: {}", a.id);
    println!("paper:      {}", a.paper_claim);
    println!("measured:   {}", a.measured);
    println!("----------------------------------------------------------------");
    println!("{}", a.text);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = check_args(&args, |flag| flag == "--json", &["--quick"]) {
        eprintln!("error: {e}");
        std::process::exit(64);
    }
    let quick = args.iter().any(|a| a == "--quick");
    println!(
        "topology: {} (the paper's fixed pair; run the `explore` bin with --devices N \
         for wider sweeps)",
        cxl_core::Topology::pair()
    );
    let json_path = arg_value(&args, "--json");
    let opts = if quick {
        MatrixOptions {
            granularity: Granularity::Standard,
            random_states: 200,
            threads: 4,
            seed: 2024,
        }
    } else {
        MatrixOptions::default()
    };

    let mut artifacts = Vec::new();

    for a in [table1_artifact(), table2_artifact(), table3_artifact(), figure5_artifact()] {
        banner(&a);
        artifacts.push(a);
    }

    let (litmus_rows, litmus) = litmus_artifact();
    banner(&litmus);
    artifacts.push(litmus);

    let (relax_rows, relax) = relaxation_artifact();
    banner(&relax);
    artifacts.push(relax);

    // Figure 1 and the §6 scale row read one matrix; Figure 6 reads a
    // standard-granularity one, which under --quick is the same matrix.
    let (stats, matrix) = run_matrix(opts);
    let fig1 = obligation_artifact(&stats, &matrix);
    banner(&fig1);
    artifacts.push(fig1);

    let fig6_opts =
        MatrixOptions { granularity: Granularity::Standard, random_states: 200, ..opts };
    let fig6 = if fig6_opts == opts {
        figure6_artifact(&matrix)
    } else {
        figure6_artifact(&run_matrix(fig6_opts).1)
    };
    banner(&fig6);
    artifacts.push(fig6);

    let (scale_rows, scale) = scale_artifact(&stats);
    banner(&scale);
    artifacts.push(scale);

    if let Some(path) = json_path {
        let payload = serde_json::json!({
            "artifacts": artifacts,
            "litmus": litmus_rows,
            "relaxations": relax_rows,
            "scale": scale_rows,
        });
        std::fs::write(&path, serde_json::to_string_pretty(&payload).expect("serialise"))
            .expect("write JSON report");
        println!("JSON report written to {path}");
    }
}
