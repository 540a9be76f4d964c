//! Differential tests pinning the optimized exploration pipeline to the
//! retained naive reference implementation.
//!
//! The optimized pipeline (fingerprinted dedup, guard-prefiltered
//! successor generation in `Ruleset::successors` and
//! `for_each_enabled_mut`, terminal-count bookkeeping, and parallel
//! expansion on worker threads) claims **bit-identical semantics** with
//! the naive reference checker. These tests hold that claim over the full
//! `default_program_grid` (the same grid the obligation universe is built
//! from) under strict, full, and relaxed configurations, for all three
//! pipelines: naive, optimized-sequential, and optimized-parallel.

use cxl_repro::core::instr::Instruction;
use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::mc::{CheckOptions, ModelChecker, Report, SwmrProperty};
use cxl_repro::sketch::{default_program_grid, random_state};

/// A violation's identity for cross-pipeline comparison: property name,
/// detail, and the exact rule schedule of its counterexample.
fn violation_keys(report: &Report) -> Vec<(String, String, Vec<String>)> {
    report
        .violations
        .iter()
        .map(|v| (v.property.clone(), v.detail.clone(), v.trace.rule_names()))
        .collect()
}

fn assert_equivalent(cfg: ProtocolConfig, init: &SystemState) {
    let naive_mc = ModelChecker::new(Ruleset::new(cfg));
    let naive = naive_mc.explore_naive(init, &[&SwmrProperty]);

    let opt_mc = ModelChecker::new(Ruleset::new(cfg));
    let opt = opt_mc.explore(init, &[&SwmrProperty]);

    let par_opts = CheckOptions { threads: 4, ..CheckOptions::default() };
    let par_mc = ModelChecker::with_options(Ruleset::new(cfg), par_opts);
    let par = par_mc.explore(init, &[&SwmrProperty]);

    for (label, other) in [("optimized", &opt), ("parallel", &par)] {
        assert_eq!(
            naive.report.states, other.report.states,
            "{label}: state count diverged for {cfg:?} from\n{init}"
        );
        assert_eq!(
            naive.report.transitions, other.report.transitions,
            "{label}: transition count diverged for {cfg:?} from\n{init}"
        );
        assert_eq!(
            naive.report.depth, other.report.depth,
            "{label}: BFS depth diverged for {cfg:?} from\n{init}"
        );
        assert_eq!(
            violation_keys(&naive.report),
            violation_keys(&other.report),
            "{label}: violation set diverged for {cfg:?} from\n{init}"
        );
        assert_eq!(
            naive.report.terminal_states, other.report.terminal_states,
            "{label}: terminal count diverged for {cfg:?} from\n{init}"
        );
        assert_eq!(
            naive.report.rule_firings, other.report.rule_firings,
            "{label}: rule firings diverged for {cfg:?} from\n{init}"
        );
        // Discovery order itself must match: the packed arenas are
        // byte-identical (the codec is deterministic, so this is the
        // strongest possible form of "same states in the same order").
        assert_eq!(
            naive.arena, other.arena,
            "{label}: discovery order diverged for {cfg:?} from\n{init}"
        );
    }
}

#[test]
fn differential_over_program_grid_strict() {
    for (p1, p2) in default_program_grid() {
        let init = SystemState::initial(p1, p2);
        assert_equivalent(ProtocolConfig::strict(), &init);
    }
}

#[test]
fn differential_over_program_grid_full() {
    for (p1, p2) in default_program_grid() {
        let init = SystemState::initial(p1, p2);
        assert_equivalent(ProtocolConfig::full(), &init);
    }
}

#[test]
fn differential_over_program_grid_relaxed() {
    // Relaxed configurations reach violations; the three pipelines must
    // find the same first counterexample (identical rule schedule).
    for relaxation in [Relaxation::SnoopPushesGo, Relaxation::NaiveTransientTracking] {
        for (p1, p2) in default_program_grid() {
            let init = SystemState::initial(p1, p2);
            assert_equivalent(ProtocolConfig::relaxed(relaxation), &init);
        }
    }
}

#[test]
fn successor_generation_agrees_on_synthesised_states() {
    // The guard prefilter must be sound beyond the reachable set too:
    // compare optimized vs naive successor generation on randomly
    // synthesised (frequently unreachable, invariant-violating) states.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for cfg in [
        ProtocolConfig::strict(),
        ProtocolConfig::full(),
        ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
        ProtocolConfig::relaxed(Relaxation::GoCannotTailgateSnoop),
        ProtocolConfig::relaxed(Relaxation::OneSnoopPerLine),
        ProtocolConfig::relaxed(Relaxation::NaiveTransientTracking),
    ] {
        let rules = Ruleset::new(cfg);
        for _ in 0..500 {
            let s = random_state(&mut rng);
            let succs = rules.successors(&s);
            let naive = rules.successors_naive(&s);
            assert_eq!(succs, naive, "divergence under {cfg:?} on synthesised state\n{s}");
        }
    }
}

#[test]
fn truncation_edge_case_checks_over_cap_batch() {
    // Regression (satellite fix): states generated in the same BFS batch
    // after `max_states` is reached must still be property-checked.
    //
    // From `[Store(42)] / [Load]` the initial state has exactly two
    // successors (`InvalidStore1`, `InvalidLoad2`), both with counter 1.
    // With `max_states: 1` only the first fits under the cap; the second
    // lands in the over-cap tail of the same batch. A property violated
    // by every counter>0 state must flag BOTH — the seed checker silently
    // dropped the over-cap one.
    let init = SystemState::initial(vec![Instruction::Store(42)], vec![Instruction::Load]);
    let cfg = ProtocolConfig::strict();
    let fresh_counter =
        cxl_repro::mc::boolean_property("fresh_counter", |s: &SystemState| s.counter == 0);

    let opts =
        CheckOptions { max_states: 1, max_violations: 10, ..CheckOptions::default() };
    let report = ModelChecker::with_options(Ruleset::new(cfg), opts)
        .check(&init, &[&fresh_counter]);
    assert!(report.truncated);
    assert_eq!(
        report.violations.len(),
        2,
        "both the stored and the over-cap successor must be checked: {report}"
    );
    // Every reported counterexample replays through the rule engine,
    // including the transiently-checked over-cap one.
    let rules = Ruleset::new(cfg);
    for v in &report.violations {
        let mut cur = v.trace.initial.clone();
        for step in &v.trace.steps {
            cur = rules.try_fire(step.rule, &cur).expect("trace step enabled");
            assert_eq!(&cur, &step.state);
        }
    }

    // With the default budget of one violation, the search still reports
    // one and stops — the over-cap tail respects max_violations.
    let opts = CheckOptions { max_states: 1, ..CheckOptions::default() };
    let report = ModelChecker::with_options(Ruleset::new(cfg), opts)
        .check(&init, &[&fresh_counter]);
    assert_eq!(report.violations.len(), 1);
}

#[test]
fn over_cap_tail_dedups_diamond_states() {
    // Independent device steps commute, so the same successor is often
    // reachable from two parents in one BFS batch (a diamond). In the
    // over-cap tail such a state must be property-checked ONCE: each
    // reported counterexample ends in a distinct state.
    let init = SystemState::initial(
        vec![Instruction::Store(1), Instruction::Store(2)],
        vec![Instruction::Load, Instruction::Load],
    );
    let stale = cxl_repro::mc::boolean_property("stale", |s: &SystemState| s.counter == 0);
    for cap in 2..=8usize {
        let opts = CheckOptions {
            max_states: cap,
            max_violations: 10_000,
            ..CheckOptions::default()
        };
        let report = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .check(&init, &[&stale]);
        assert!(report.truncated);
        let finals: Vec<_> =
            report.violations.iter().map(|v| v.trace.last_state().clone()).collect();
        for (i, a) in finals.iter().enumerate() {
            for b in &finals[i + 1..] {
                assert_ne!(a, b, "cap {cap}: one state reported twice in the over-cap tail");
            }
        }
    }
}
