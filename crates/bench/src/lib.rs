//! # cxl-bench — the experiment harness
//!
//! One entry point per table and figure of the paper's evaluation. Each
//! function regenerates the corresponding artefact (a transition table, a
//! message-sequence chart, or obligation-matrix statistics) and returns it
//! in both human-readable and machine-readable (serde) form, and the
//! `report` binary prints everything. The verdict benchmark is
//! `perfbench/` at the repository root; `benches/` holds two per-layer
//! micro-benches, `codec_parse` and `canon_refine`.
//!
//! Experiment index (the `report` binary prints every entry):
//!
//! | id | artefact | entry point |
//! |---|---|---|
//! | Table 1 | clean-eviction transition table | [`table1_artifact`] |
//! | Table 2 | dirty-eviction transition table | [`table2_artifact`] |
//! | Table 3 | snoop-pushes-GO violation table | [`table3_artifact`] |
//! | Figure 1 | obligation-matrix statistics | [`obligation_artifact`] |
//! | Figure 5 | violation message-sequence chart | [`figure5_artifact`] |
//! | Figure 6 | super_sketch proof script | [`figure6_artifact`] |
//! | §5.1 | litmus-suite results | [`litmus_artifact`] |
//! | §5.2 | restriction-necessity results | [`relaxation_artifact`] |
//! | §6 | proof-scale statistics (796×68 analogue) | [`scale_artifact`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;

use cxl_core::{Granularity, Invariant, ProtocolConfig, Ruleset, SystemState};
use cxl_litmus::{relax, suite, tables};
use cxl_mc::ModelChecker;
use cxl_sketch::{default_program_grid, ObligationMatrix, SessionStats, Universe};
use serde::Serialize;

/// A printable experiment artefact with machine-readable payload.
#[derive(Debug, Serialize)]
pub struct Artifact {
    /// Experiment id (e.g. `table1`).
    pub id: String,
    /// What the paper shows there.
    pub paper_claim: String,
    /// What this reproduction measured/produced.
    pub measured: String,
    /// The full text artefact (table/chart/script extract).
    pub text: String,
}

/// Paper **Table 1**: the clean-eviction transition sequence.
#[must_use]
pub fn table1_artifact() -> Artifact {
    let (trace, table) = tables::table1();
    Artifact {
        id: "table1".into(),
        paper_claim: "clean_evict_test: CleanEvict → GO_WritePullDrop → I; host stays S \
                      (another sharer remains); trailing Evict is a no-op"
            .into(),
        measured: format!(
            "replayed {} transitions; final state quiescent: {}",
            trace.len(),
            trace.last_state().is_quiescent()
        ),
        text: table.to_text(),
    }
}

/// Paper **Table 2**: the dirty-eviction write-back sequence.
#[must_use]
pub fn table2_artifact() -> Artifact {
    let (trace, table) = tables::table2();
    Artifact {
        id: "table2".into(),
        paper_claim: "dirty_evict_test: DirtyEvict → GO_WritePull → writeback; host copies \
                      the dirty value in and the line goes idle"
            .into(),
        measured: format!(
            "replayed {} transitions; host value after writeback: {}",
            trace.len(),
            trace.last_state().host.val
        ),
        text: table.to_text(),
    }
}

/// Paper **Table 3**: the snoop-pushes-GO coherence violation.
#[must_use]
pub fn table3_artifact() -> Artifact {
    let (trace, table) = tables::table3();
    let last = trace.last_state();
    Artifact {
        id: "table3".into(),
        paper_claim: "snoop_pushes_go_test: with ISADSnpInv2 relaxed, the final row has \
                      DCache1 = M and DCache2 = S — an SWMR violation"
            .into(),
        measured: format!(
            "final caches: DCache1 = {}, DCache2 = {}; SWMR holds: {}",
            last.dev(cxl_core::DeviceId::D1).cache,
            last.dev(cxl_core::DeviceId::D2).cache,
            cxl_core::swmr(last)
        ),
        text: table.to_text(),
    }
}

/// Paper **Figure 5**: the violation as a message-sequence chart.
#[must_use]
pub fn figure5_artifact() -> Artifact {
    let (trace, _) = tables::table3();
    let msc = cxl_litmus::msc::Msc::from_trace(
        "Figure 5. Coherence violation when the snoop-pushes-GO rule is relaxed.",
        &trace,
    );
    Artifact {
        id: "figure5".into(),
        paper_claim: "message-sequence chart of the violation: RdOwn and RdShared race; the \
                      snoop overtakes the GO; both devices end with valid copies"
            .into(),
        measured: format!("{} chart steps derived from the Table 3 trace", msc.steps.len()),
        text: msc.to_text(),
    }
}

/// Options for the obligation-matrix experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatrixOptions {
    /// Conjunct granularity.
    pub granularity: Granularity,
    /// Random states added to the reachable universe.
    pub random_states: usize,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed for the random universe.
    pub seed: u64,
}

impl Default for MatrixOptions {
    fn default() -> Self {
        MatrixOptions {
            granularity: Granularity::Fine,
            random_states: 2000,
            threads: 4,
            seed: 2024,
        }
    }
}

/// Build the default obligation universe for a configuration, expanding
/// each grid scenario's wide levels on `threads` scoped workers.
#[must_use]
pub fn default_universe(rules: &Ruleset, random_states: usize, seed: u64, threads: usize) -> Universe {
    let grid = default_program_grid();
    let opts = cxl_mc::CheckOptions { threads, ..cxl_mc::CheckOptions::default() };
    let mut u = Universe::reachable_with_options(rules, &grid, opts);
    if random_states > 0 {
        u = u.with_random(random_states, seed);
    }
    u
}

/// Discharge the obligation matrix and return `(stats, report)`.
#[must_use]
pub fn run_matrix(opts: MatrixOptions) -> (SessionStats, cxl_sketch::MatrixReport) {
    let cfg = ProtocolConfig::strict();
    let rules = Ruleset::new(cfg);
    let universe = default_universe(&rules, opts.random_states, opts.seed, opts.threads);
    let invariant = match opts.granularity {
        Granularity::Fine => Invariant::fine_grained(&cfg),
        Granularity::Standard => Invariant::for_config(&cfg),
    };
    let matrix = ObligationMatrix::new(invariant, rules);
    let report = matrix.discharge(&universe, opts.threads);
    (SessionStats::from_report(&report), report)
}

/// Paper **Figure 1** / §6 scale: the preservation-lemma matrix, rendered
/// from one [`run_matrix`] result.
#[must_use]
pub fn obligation_artifact(stats: &SessionStats, report: &cxl_sketch::MatrixReport) -> Artifact {
    let mut text = serde_json::to_string_pretty(stats).expect("stats serialise");
    text.push('\n');
    text.push_str(&cxl_sketch::per_rule_table(report));
    Artifact {
        id: "figure1".into(),
        paper_claim: "796 conjuncts × 68 rules = 53,332 preservation lemmas, nearly all \
                      discharged automatically"
            .into(),
        measured: format!(
            "{} conjuncts × {} rules = {} obligations; discharge rate {:.2}% over {} \
             hypothesis states in {:.2}s",
            stats.conjuncts,
            stats.rules,
            stats.obligations,
            stats.discharge_rate * 100.0,
            stats.hypothesis_states,
            stats.wall_seconds
        ),
        text,
    }
}

/// Paper **Figure 6**: a super_sketch-style proof script for one rule
/// lemma, rendered from one [`run_matrix`] result (the `report` binary
/// discharges it at the standard granularity).
#[must_use]
pub fn figure6_artifact(report: &cxl_sketch::MatrixReport) -> Artifact {
    let script = cxl_sketch::rule_lemma_script(report, "SharedSnpInv1");
    Artifact {
        id: "figure6".into(),
        paper_claim: "super_sketch emits an Isar skeleton with sledgehammer-found proofs \
                      spliced in and `sorry` for failures"
            .into(),
        measured: format!("{} subgoals rendered for SharedSnpInv1", report.conjuncts),
        text: script,
    }
}

/// One litmus result row.
#[derive(Debug, Serialize)]
pub struct LitmusRow {
    /// Test name.
    pub name: String,
    /// Pass/fail.
    pub passed: bool,
    /// States explored.
    pub states: usize,
    /// Transitions examined.
    pub transitions: usize,
}

/// Paper **§5.1**: the litmus suite, exhaustively explored.
#[must_use]
pub fn litmus_artifact() -> (Vec<LitmusRow>, Artifact) {
    let mut rows = Vec::new();
    let mut text = String::new();
    for lit in suite::full_suite() {
        let res = lit.run();
        text.push_str(&res.to_string());
        rows.push(LitmusRow {
            name: res.name.clone(),
            passed: res.passed,
            states: res.report.states,
            transitions: res.report.transitions,
        });
    }
    let passed = rows.iter().filter(|r| r.passed).count();
    let artifact = Artifact {
        id: "litmus_suite".into(),
        paper_claim: "8 litmus tests complete successfully, maintaining a coherent state \
                      throughout"
            .into(),
        measured: format!("{passed}/{} litmus tests pass (8 paper + extras)", rows.len()),
        text,
    };
    (rows, artifact)
}

/// One relaxation result row.
#[derive(Debug, Serialize)]
pub struct RelaxationRow {
    /// Relaxation name.
    pub relaxation: String,
    /// The litmus expectation that was confirmed.
    pub outcome: String,
    /// Steps to the witness (0 when none expected).
    pub witness_steps: usize,
    /// States explored.
    pub states: usize,
}

/// Paper **§5.2**: restriction-necessity sweep.
///
/// # Panics
/// Panics if any restriction test fails (a regression in the model).
#[must_use]
pub fn relaxation_artifact() -> (Vec<RelaxationRow>, Artifact) {
    let mut rows = Vec::new();
    let mut text = String::new();
    for lit in relax::restriction_suite() {
        let res = lit.run();
        assert!(res.passed, "restriction test failed: {res}");
        text.push_str(&res.to_string());
        rows.push(RelaxationRow {
            relaxation: res.name.clone(),
            outcome: res.notes.first().cloned().unwrap_or_default(),
            witness_steps: res.witness.as_ref().map_or(0, cxl_mc::Trace::len),
            states: res.report.states,
        });
    }
    let artifact = Artifact {
        id: "relaxations".into(),
        paper_claim: "relaxing a restriction makes additional states reachable and coherence \
                      violations observable"
            .into(),
        measured: format!("{} restrictions assessed", rows.len()),
        text,
    };
    (rows, artifact)
}

/// Paper **§6** headline-scale comparison row.
#[derive(Debug, Serialize)]
pub struct ScaleRow {
    /// Quantity name.
    pub quantity: String,
    /// The paper's number.
    pub paper: String,
    /// Ours.
    pub measured: String,
}

/// Paper **§6** proof-scale statistics: conjuncts, rules, obligations, from
/// one [`run_matrix`] result.
#[must_use]
pub fn scale_artifact(stats: &SessionStats) -> (Vec<ScaleRow>, Artifact) {
    let rows = vec![
        ScaleRow {
            quantity: "invariant conjuncts".into(),
            paper: "796".into(),
            measured: stats.conjuncts.to_string(),
        },
        ScaleRow {
            quantity: "transition rules".into(),
            paper: "68".into(),
            measured: stats.rules.to_string(),
        },
        ScaleRow {
            quantity: "preservation obligations".into(),
            paper: "53,332".into(),
            measured: stats.obligations.to_string(),
        },
        ScaleRow {
            quantity: "automatic discharge rate".into(),
            paper: ">99%".into(),
            measured: format!("{:.2}%", stats.discharge_rate * 100.0),
        },
        ScaleRow {
            quantity: "session wall time".into(),
            paper: "3–5 hours (Isabelle)".into(),
            measured: format!("{:.2} s (state enumeration)", stats.wall_seconds),
        },
    ];
    let text = rows
        .iter()
        .map(|r| format!("{:<28}  paper: {:<18}  measured: {}", r.quantity, r.paper, r.measured))
        .collect::<Vec<_>>()
        .join("\n");
    let artifact = Artifact {
        id: "scale".into(),
        paper_claim: "the proof comprises 53,332 lemmas over 796 conjuncts and 68 rules".into(),
        measured: format!("{} obligations", stats.obligations),
        text,
    };
    (rows, artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;
    use cxl_core::Relaxation;
    use cxl_mc::SwmrProperty;

    #[test]
    fn table_artifacts_render() {
        for a in [table1_artifact(), table2_artifact(), table3_artifact()] {
            assert!(!a.text.is_empty());
            assert!(a.text.contains("transition rule"));
        }
    }

    #[test]
    fn figure5_artifact_mentions_all_lifelines() {
        let a = figure5_artifact();
        for needle in ["DCache1", "HCache", "DCache2"] {
            assert!(a.text.contains(needle));
        }
    }

    #[test]
    fn small_matrix_runs() {
        let opts = MatrixOptions {
            granularity: Granularity::Standard,
            random_states: 0,
            threads: 2,
            seed: 1,
        };
        let (stats, report) = run_matrix(opts);
        assert!(report.inductive());
        assert_eq!(stats.sorries, 0);
    }

    #[test]
    fn violation_search_finds_table3() {
        let init = SystemState::initial(programs::store(42), programs::load());
        let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
        let report = ModelChecker::new(Ruleset::new(cfg)).check(&init, &[&SwmrProperty]);
        assert!(!report.violations.is_empty());
    }
}

/// One row of the §4.4 stale-eviction ablation.
#[derive(Debug, Serialize)]
pub struct AblationRow {
    /// Scenario label.
    pub scenario: String,
    /// Transitions that pulled bogus data (baseline `GO_WritePull` on a
    /// stale eviction).
    pub bogus_pulls: u64,
    /// Transitions that dropped the stale eviction (the paper's §4.4
    /// optimisation), avoiding the bogus transfer.
    pub drops: u64,
    /// States explored.
    pub states: usize,
}

/// Paper **§4.4** ablation: the proposed `GO_WritePullDrop` optimisation
/// for stale dirty evictions. "This could offer an efficiency gain by
/// avoiding some D2H data traffic."
///
/// Explores eviction-heavy scenarios under the baseline (pull-only) and
/// optimised configurations and counts how often a bogus data transfer
/// happens vs. is avoided. With the optimisation enabled both behaviours
/// are legal (the fix is a *may*), so the drop count measures the
/// avoidable traffic.
#[must_use]
pub fn stale_drop_ablation() -> (Vec<AblationRow>, Artifact) {
    use cxl_core::instr::Instruction::*;
    use cxl_core::{DState, DeviceId, HState, StateBuilder};

    let scenarios: Vec<(&str, SystemState)> = vec![
        (
            "dirty_evict_vs_store",
            StateBuilder::new()
                .dev_cache(DeviceId::D1, 1, DState::M)
                .host(0, HState::M)
                .prog(DeviceId::D1, vec![Evict])
                .prog(DeviceId::D2, vec![Store(9)])
                .build(),
        ),
        (
            "dirty_evict_vs_load_store",
            StateBuilder::new()
                .dev_cache(DeviceId::D1, 1, DState::M)
                .host(0, HState::M)
                .prog(DeviceId::D1, vec![Evict, Load])
                .prog(DeviceId::D2, vec![Load, Store(9)])
                .build(),
        ),
        (
            "evict_storm",
            StateBuilder::new()
                .dev_cache(DeviceId::D1, 1, DState::M)
                .host(0, HState::M)
                .prog(DeviceId::D1, vec![Evict, Store(3), Evict])
                .prog(DeviceId::D2, vec![Store(9), Evict])
                .build(),
        ),
    ];

    let mut rows = Vec::new();
    for (label, init) in &scenarios {
        for (cfg_label, cfg) in [
            ("baseline", ProtocolConfig::strict()),
            ("with_drop_optimisation", ProtocolConfig {
                stale_evict_drop_optimisation: true,
                ..ProtocolConfig::strict()
            }),
        ] {
            let mc = ModelChecker::new(Ruleset::new(cfg));
            let report = mc.check(init, &[]);
            let firings = |shape: cxl_core::Shape| -> u64 {
                report
                    .rule_firings
                    .iter()
                    .filter(|(k, _)| k.shape == shape)
                    .map(|(_, v)| *v)
                    .sum()
            };
            rows.push(AblationRow {
                scenario: format!("{label}/{cfg_label}"),
                bogus_pulls: firings(cxl_core::Shape::IiaGoWritePull),
                drops: firings(cxl_core::Shape::IiaGoWritePullDrop)
                    + firings(cxl_core::Shape::HostStaleDirtyEvictDrop),
                states: report.states,
            });
        }
    }

    let text = {
        let mut t = format!(
            "{:<44}  {:>11}  {:>7}  {:>8}\n",
            "scenario/config", "bogus pulls", "drops", "states"
        );
        for r in &rows {
            t.push_str(&format!(
                "{:<44}  {:>11}  {:>7}  {:>8}\n",
                r.scenario, r.bogus_pulls, r.drops, r.states
            ));
        }
        t
    };
    let artifact = Artifact {
        id: "ablation_4_4".into(),
        paper_claim: "§4.4: a GO_WritePullDrop for stale dirty evictions avoids useless \
                      (bogus) D2H data traffic; the proposal is under discussion with the \
                      CXL consortium"
            .into(),
        measured: format!(
            "across {} scenario/config pairs, the optimisation exposes drop transitions \
             wherever the baseline forces a bogus pull",
            rows.len()
        ),
        text,
    };
    (rows, artifact)
}
