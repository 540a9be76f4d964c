//! The driver's guard tests: one search function serves every thread
//! and shard count, so these pin it against itself across thread counts
//! (inline and pooled), against the naive reference pipeline, and at
//! every early stop — `max_states`, the memory budget, pruning, and the
//! over-cap tail that still property-checks a truncated level — and pin
//! the footprint the memory budget reads against the store's size. The
//! checker's basic scenarios follow: a one-state space, a clean load,
//! a replayable violation trace, and the two relaxations that break
//! SWMR.

use cxl_core::instr::programs;
use cxl_core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_mc::{boolean_property, CheckOptions, ModelChecker, Prune, SwmrProperty};
use std::sync::Arc;

fn checker(cfg: ProtocolConfig) -> ModelChecker {
    ModelChecker::new(Ruleset::new(cfg))
}

#[test]
fn parallel_exploration_matches_sequential() {
    let init = SystemState::initial(programs::store(1), programs::store(2));
    let seq = checker(ProtocolConfig::strict()).explore(&init, &[]);
    let opts = CheckOptions { threads: 4, ..CheckOptions::default() };
    let par = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
        .explore(&init, &[]);
    assert_eq!(seq.report.states, par.report.states);
    assert_eq!(seq.report.transitions, par.report.transitions);
    // Deterministic merge: the packed arenas are byte-identical.
    assert_eq!(seq.arena, par.arena);
    assert_eq!(seq.successor_counts, par.successor_counts);
}

#[test]
fn optimized_exploration_matches_naive_reference() {
    let init = SystemState::initial(programs::stores(0, 2), programs::loads(2));
    for cfg in [
        ProtocolConfig::strict(),
        ProtocolConfig::full(),
        ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
    ] {
        let mc = checker(cfg);
        let fast = mc.explore(&init, &[]);
        let naive = mc.explore_naive(&init, &[]);
        assert_eq!(fast.report.states, naive.report.states);
        assert_eq!(fast.report.transitions, naive.report.transitions);
        assert_eq!(fast.report.depth, naive.report.depth);
        assert_eq!(fast.report.terminal_states, naive.report.terminal_states);
        assert_eq!(fast.report.rule_firings, naive.report.rule_firings);
        assert_eq!(fast.arena, naive.arena, "discovery order must match");
        assert_eq!(fast.successor_counts, naive.successor_counts);
    }
}

#[test]
fn prune_limits_expansion() {
    let init = SystemState::initial(programs::load(), vec![]);
    let opts = CheckOptions {
        prune: Some(Arc::new(|s: &SystemState| s.counter > 0) as Prune),
        ..CheckOptions::default()
    };
    let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
    let exp = mc.explore(&init, &[]);
    assert_eq!(exp.report.states, 2, "only the first transition survives pruning");
}

#[test]
fn max_states_truncates() {
    let init = SystemState::initial(programs::stores(0, 3), programs::loads(3));
    let opts = CheckOptions { max_states: 50, ..CheckOptions::default() };
    let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
    let exp = mc.explore(&init, &[]);
    assert!(exp.report.truncated);
    assert!(!exp.report.truncated_by_memory);
    assert!(exp.report.states <= 51);
}

#[test]
fn mem_budget_truncates_cleanly() {
    // A budget far below the space's packed footprint stops the
    // search like max_states does — with the memory flag raised and
    // the store bounded — instead of exhausting the host.
    let init = SystemState::initial(programs::stores(0, 3), programs::loads(3));
    let opts = CheckOptions { mem_budget: Some(2048), ..CheckOptions::default() };
    let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
    let exp = mc.explore(&init, &[]);
    assert!(exp.report.truncated);
    assert!(exp.report.truncated_by_memory);
    let unbounded = checker(ProtocolConfig::strict()).explore(&init, &[]);
    assert!(
        exp.report.states < unbounded.report.states,
        "budgeted run must store fewer states ({} vs {})",
        exp.report.states,
        unbounded.report.states
    );
    // Everything stored still decodes.
    assert_eq!(exp.state(0), init);
}

#[test]
fn memory_accounting_covers_every_store_column() {
    // `Report::memory_bytes` is what `mem_budget` bounds, so it must
    // count every column the store keeps. Its floor is priced from the
    // stored states alone: the packed payload, one offset, one parent
    // link and one successor count per state, and a fingerprint index
    // sized for them. A footprint that leaves a column out falls under
    // it; above twice the floor the accounting invents memory. Both
    // hold at every thread and shard count.
    use cxl_core::instr::Instruction::{Load, Store};
    use cxl_core::{FpIndex, RuleId};
    use std::mem::size_of;

    let init = SystemState::initial_n(
        3,
        vec![vec![Store(1), Load].into(), vec![Store(2), Load].into(), programs::loads(2)],
    );
    for (threads, shards) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 8), (1, 8)] {
        let opts = CheckOptions { threads, shards: Some(shards), ..CheckOptions::default() };
        let mc =
            ModelChecker::with_options(Ruleset::with_devices(ProtocolConfig::strict(), 3), opts);
        let exp = mc.explore(&init, &[]);
        let states = exp.report.states;
        assert_eq!(states, 11_727, "threads {threads}, shards {shards}");
        let per_state =
            size_of::<usize>() + size_of::<Option<(usize, RuleId)>>() + size_of::<u32>();
        let floor = exp.arena.byte_len()
            + states * per_state
            + FpIndex::with_capacity(states).approx_heap_bytes();
        let used = exp.report.memory_bytes;
        assert!(
            floor <= used && used <= 2 * floor,
            "threads {threads}, shards {shards}: footprint {used} B outside [{floor}, {}] B",
            2 * floor
        );
    }
}

#[test]
fn truncated_batches_are_still_property_checked() {
    // Regression test: states generated in the same BFS batch after
    // `max_states` is reached used to be silently dropped without a
    // property check. With a cap of 1, every state beyond the initial
    // one is over-cap — the violating ISAD state must still be found.
    let init = SystemState::initial(programs::load(), vec![]);
    let opts = CheckOptions { max_states: 1, ..CheckOptions::default() };
    let mc = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts);
    let p = boolean_property("no_isad", |s: &SystemState| {
        s.dev(cxl_core::DeviceId::D1).cache.state != cxl_core::DState::ISAD
    });
    let report = mc.check(&init, &[&p]);
    assert!(report.truncated);
    assert_eq!(report.violations.len(), 1, "over-cap state must be checked");
    // The transient trace still replays.
    let trace = &report.violations[0].trace;
    let rules = Ruleset::new(ProtocolConfig::strict());
    let mut cur = trace.initial.clone();
    for step in &trace.steps {
        cur = rules.try_fire(step.rule, &cur).expect("transient trace step enabled");
        assert_eq!(&cur, &step.state);
    }
}

#[test]
fn reduced_parallel_exploration_matches_reduced_sequential() {
    use cxl_reduce::{CanonMode, PorMode, Reduction, ReductionConfig};
    let init = SystemState::initial_n(
        3,
        vec![programs::store(1), programs::store(1), programs::store(1)],
    );
    let cfg =
        ReductionConfig { symmetry: true, data_symmetry: true, por: PorMode::Wide, canon: CanonMode::Auto };
    let mk_opts = |threads: usize| {
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
        let red = Arc::new(Reduction::new(&rules, &init, cfg));
        CheckOptions { threads, reduction: Some(red), ..CheckOptions::default() }
    };
    let seq = ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 3),
        mk_opts(1),
    )
    .explore(&init, &[]);
    let par = ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 3),
        mk_opts(4),
    )
    .explore(&init, &[]);
    assert_eq!(seq.report.states, par.report.states);
    assert_eq!(seq.report.transitions, par.report.transitions);
    assert_eq!(seq.arena, par.arena, "reduced discovery order must be deterministic");
}

#[test]
fn parallel_property_checking_matches_sequential() {
    let init = SystemState::initial(programs::store(42), programs::load());
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let seq = checker(cfg).explore(&init, &[&SwmrProperty]);
    let opts = CheckOptions { threads: 4, ..CheckOptions::default() };
    let par = ModelChecker::with_options(Ruleset::new(cfg), opts)
        .explore(&init, &[&SwmrProperty]);
    assert_eq!(seq.report.violations.len(), par.report.violations.len());
    let (a, b) = (&seq.report.violations[0], &par.report.violations[0]);
    assert_eq!(a.property, b.property);
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(a.trace.last_state(), b.trace.last_state());
}

#[test]
fn empty_programs_yield_single_quiescent_state() {
    let mc = checker(ProtocolConfig::strict());
    let exp = mc.explore(&SystemState::initial(vec![], vec![]), &[&SwmrProperty]);
    assert_eq!(exp.report.states, 1);
    assert_eq!(exp.report.terminal_states, 1);
    assert!(exp.report.clean());
    assert_eq!(exp.is_terminal(0), Some(true));
}

#[test]
fn single_load_explores_and_terminates_cleanly() {
    let mc = checker(ProtocolConfig::strict());
    let exp = mc.explore(&SystemState::initial(programs::load(), vec![]), &[&SwmrProperty]);
    assert!(exp.report.clean(), "{}", exp.report);
    assert!(exp.report.states > 3);
    assert!(!exp.report.truncated);
    // Every terminal state is quiescent; the load must complete.
    assert!(exp.report.terminal_states >= 1);
    assert_eq!(exp.terminal_indices().count(), exp.report.terminal_states);
}

#[test]
fn violation_traces_replay_from_initial_state() {
    // Force a violation with a trivially false property and confirm the
    // trace replays.
    let mc = checker(ProtocolConfig::strict());
    let init = SystemState::initial(programs::load(), vec![]);
    let p = boolean_property("no_isad", |s: &SystemState| {
        s.dev(cxl_core::DeviceId::D1).cache.state != cxl_core::DState::ISAD
    });
    let report = mc.check(&init, &[&p]);
    assert_eq!(report.violations.len(), 1);
    let trace = &report.violations[0].trace;
    // Replay the trace through the rule engine.
    let rules = Ruleset::new(ProtocolConfig::strict());
    let mut cur = trace.initial.clone();
    for step in &trace.steps {
        cur = rules.try_fire(step.rule, &cur).expect("trace step must be enabled");
        assert_eq!(&cur, &step.state, "trace state mismatch");
    }
}

#[test]
fn snoop_pushes_go_relaxation_breaks_swmr() {
    // The headline result (paper Table 3 / Figure 5): relaxing
    // Snoop-pushes-GO makes an SWMR violation reachable.
    let mc = checker(ProtocolConfig::relaxed(Relaxation::SnoopPushesGo));
    let init = SystemState::initial(programs::store(42), programs::load());
    let report = mc.check(&init, &[&SwmrProperty]);
    assert!(
        !report.violations.is_empty(),
        "relaxed model must reach an SWMR violation: {report}"
    );
}

#[test]
fn naive_tracking_relaxation_breaks_swmr() {
    let mc = checker(ProtocolConfig::relaxed(Relaxation::NaiveTransientTracking));
    let init = SystemState::initial(programs::store(42), programs::load());
    let report = mc.check(&init, &[&SwmrProperty]);
    assert!(!report.violations.is_empty(), "naive tracking must violate SWMR: {report}");
}
