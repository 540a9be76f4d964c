//! N-device topology tests.
//!
//! Four layers of coverage for the DeviceId→Topology generalisation:
//!
//! 1. **Pre-refactor pinning** — the generic N=2 pipeline must reproduce
//!    the *recorded* exploration results of the closed two-device model
//!    (state counts, transition counts, BFS depth, terminal counts, total
//!    rule firings, and first-violation schedules, captured from the
//!    pre-refactor tree at commit 8286422 for strict/full/relaxed
//!    configurations over the default program grid).
//! 2. **3-device strict SWMR sweep** — a bounded grid of three-device
//!    programs explores cleanly under the strict configuration: SWMR and
//!    the full N-device invariant hold on every reachable state and every
//!    terminal state is quiescent.
//! 3. **3-device violation reproduction** — the Table 3 Snoop-pushes-GO
//!    violation reproduces with a third device present, both idle and
//!    loading, and the witness still runs through the buggy
//!    `IsadSnpInv` rule.
//! 4. **Collection where several peers answer** — the whole N=3 space in
//!    which one snoop round collects two responses, pinned unreduced and
//!    under device symmetry, with every collection rule's firing count.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{Invariant, ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::mc::{
    CanonMode, CheckOptions, InvariantProperty, ModelChecker, PorMode, Reducer, Reduction,
    ReductionConfig, Report, SwmrProperty,
};
use cxl_repro::sketch::default_program_grid;
use std::sync::Arc;

// -------------------------------------------------------------------
// 1. Pre-refactor pinning.
// -------------------------------------------------------------------

/// One recorded baseline row: `(config, scenario, states, transitions,
/// depth, terminals, total firings, first-violation schedule)`.
type RecordedRow = (&'static str, &'static str, usize, usize, usize, usize, u64, &'static str);

/// Exploration results recorded by running the pre-refactor two-device
/// pipeline (commit 8286422) over `default_program_grid()` plus the
/// paper's headline scenario, exploring with the SWMR property and
/// `max_violations: 1`.
const RECORDED: &[RecordedRow] = &[
    ("strict", "grid0", 93, 160, 12, 4, 160, ""),
    ("strict", "grid1", 608, 1073, 21, 12, 1073, ""),
    ("strict", "grid2", 21, 35, 8, 1, 35, ""),
    ("strict", "grid3", 312, 531, 22, 9, 531, ""),
    ("strict", "grid4", 228, 410, 16, 7, 410, ""),
    ("strict", "grid5", 30, 47, 14, 1, 47, ""),
    ("strict", "headline", 93, 160, 12, 4, 160, ""),
    ("full", "grid0", 93, 160, 12, 4, 160, ""),
    ("full", "grid1", 726, 1366, 21, 13, 1366, ""),
    ("full", "grid2", 21, 35, 8, 1, 35, ""),
    ("full", "grid3", 356, 622, 22, 13, 622, ""),
    ("full", "grid4", 325, 578, 17, 12, 578, ""),
    ("full", "grid5", 30, 47, 14, 1, 47, ""),
    ("full", "headline", 93, 160, 12, 4, 160, ""),
    (
        "relax_spg", "grid0", 139, 264, 9, 0, 264,
        "InvalidLoad2>InvalidStore1>HostInvalidRdShared2>HostSharedRdOwnOther1>ImadData1>\
         IsadSnpInvBuggy2>IsadGo2>IsdData2>HostMaSnpRsp1>ImaGo1",
    ),
    (
        "relax_spg", "grid1", 285, 482, 9, 0, 482,
        "InvalidLoad1>InvalidStore2>HostInvalidRdShared1>HostSharedRdOwnOther2>ImadData2>\
         IsadSnpInvBuggy1>IsadGo1>IsdData1>HostMaSnpRsp2>ImaGo2",
    ),
    ("relax_spg", "grid2", 21, 35, 8, 1, 35, ""),
    ("relax_spg", "grid3", 312, 531, 22, 9, 531, ""),
    (
        "relax_spg", "grid4", 239, 427, 9, 0, 427,
        "InvalidLoad1>InvalidStore2>HostInvalidRdShared1>HostSharedRdOwnOther2>ImadData2>\
         IsadSnpInvBuggy1>IsadGo1>IsdData1>HostMaSnpRsp2>ImaGo2",
    ),
    ("relax_spg", "grid5", 30, 47, 14, 1, 47, ""),
    (
        "relax_spg", "headline", 139, 264, 9, 0, 264,
        "InvalidLoad2>InvalidStore1>HostInvalidRdShared2>HostSharedRdOwnOther1>ImadData1>\
         IsadSnpInvBuggy2>IsadGo2>IsdData2>HostMaSnpRsp1>ImaGo1",
    ),
    (
        "relax_ntt", "grid0", 101, 172, 7, 0, 172,
        "InvalidLoad2>InvalidStore1>HostInvalidRdShared2>HostSharedRdOwnLast1>IsadGo2>\
         IsdData2>ImadGo1>ImdData1",
    ),
    (
        "relax_ntt", "grid1", 164, 255, 7, 0, 255,
        "InvalidLoad1>InvalidStore2>HostInvalidRdShared1>HostSharedRdOwnLast2>IsadGo1>\
         IsdData1>ImadGo2>ImdData2",
    ),
    ("relax_ntt", "grid2", 21, 35, 8, 1, 35, ""),
    ("relax_ntt", "grid3", 306, 513, 22, 9, 513, ""),
    (
        "relax_ntt", "grid4", 146, 236, 7, 0, 236,
        "InvalidLoad1>InvalidStore2>HostInvalidRdShared1>HostSharedRdOwnLast2>IsadGo1>\
         IsdData1>ImadGo2>ImdData2",
    ),
    ("relax_ntt", "grid5", 30, 47, 14, 1, 47, ""),
    (
        "relax_ntt", "headline", 101, 172, 7, 0, 172,
        "InvalidLoad2>InvalidStore1>HostInvalidRdShared2>HostSharedRdOwnLast1>IsadGo2>\
         IsdData2>ImadGo1>ImdData1",
    ),
];

fn config_named(name: &str) -> ProtocolConfig {
    match name {
        "strict" => ProtocolConfig::strict(),
        "full" => ProtocolConfig::full(),
        "relax_spg" => ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
        "relax_ntt" => ProtocolConfig::relaxed(Relaxation::NaiveTransientTracking),
        other => panic!("unknown config {other}"),
    }
}

fn scenario_named(name: &str) -> (cxl_repro::core::Program, cxl_repro::core::Program) {
    if name == "headline" {
        return (programs::store(42), programs::load());
    }
    let idx: usize = name.strip_prefix("grid").expect("grid scenario").parse().expect("index");
    let (p1, p2) = default_program_grid()[idx].clone();
    (p1.into(), p2.into())
}

#[test]
fn generic_pipeline_reproduces_recorded_two_device_results() {
    for &(cfg_name, scenario, states, transitions, depth, terminals, firings, viol) in RECORDED {
        let cfg = config_named(cfg_name);
        let (p1, p2) = scenario_named(scenario);
        let mc = ModelChecker::new(Ruleset::new(cfg));
        let exp = mc.explore(&SystemState::initial(p1, p2), &[&SwmrProperty]);
        let r = &exp.report;
        let ctx = format!("{cfg_name}/{scenario}");
        assert_eq!(r.states, states, "{ctx}: state count drifted from the recorded baseline");
        assert_eq!(r.transitions, transitions, "{ctx}: transition count drifted");
        assert_eq!(r.depth, depth, "{ctx}: BFS depth drifted");
        assert_eq!(r.terminal_states, terminals, "{ctx}: terminal count drifted");
        let total: u64 = r.rule_firings.values().sum();
        assert_eq!(total, firings, "{ctx}: rule-firing total drifted");
        let got_viol = r
            .violations
            .first()
            .map(|v| v.trace.rule_names().join(">"))
            .unwrap_or_default();
        let expected: String = viol.split_whitespace().collect();
        assert_eq!(got_viol, expected, "{ctx}: first-violation schedule drifted");
    }
}

#[test]
fn recorded_baseline_also_matches_the_naive_pipeline() {
    // Spot-check that the retained naive oracle agrees with the recorded
    // numbers too (the full naive/optimized/parallel equivalence is held
    // by tests/differential.rs).
    let (p1, p2) = scenario_named("headline");
    let mc = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
    let exp = mc.explore_naive(&SystemState::initial(p1, p2), &[&SwmrProperty]);
    assert_eq!(exp.report.states, 93);
    assert_eq!(exp.report.transitions, 160);
    assert_eq!(exp.report.terminal_states, 4);
}

// -------------------------------------------------------------------
// 2. 3-device strict SWMR sweep.
// -------------------------------------------------------------------

/// A bounded grid of three-device programs: concurrent stores, loads and
/// evictions spread over all three devices, including scenarios where two
/// peers share while the third upgrades (exercising the multi-sharer
/// snoop fan-out of `HostSharedRdOwnOther`).
fn three_device_grid() -> Vec<Vec<Vec<Instruction>>> {
    use Instruction::*;
    vec![
        vec![vec![Store(42)], vec![Load], vec![Load]],
        vec![vec![Load, Store(8)], vec![Store(9), Evict], vec![Load]],
        vec![vec![Store(10), Evict], vec![Load, Load], vec![Store(20)]],
        vec![vec![Evict, Evict], vec![Load], vec![Store(5), Evict]],
        vec![vec![Load], vec![Load], vec![Store(7)]],
    ]
}

#[test]
fn three_device_strict_sweep_passes_swmr_and_invariant() {
    let cfg = ProtocolConfig::strict();
    let inv = InvariantProperty::new(Invariant::for_devices(&cfg, 3));
    let mc = ModelChecker::new(Ruleset::with_devices(cfg, 3));
    for progs in three_device_grid() {
        let init = SystemState::initial_n(3, progs.iter().cloned().map(Into::into).collect());
        let report = mc.check(&init, &[&SwmrProperty, &inv]);
        assert!(report.clean(), "3-device scenario {progs:?} broke:\n{report}");
        assert!(!report.truncated, "3-device scenario {progs:?} truncated");
        assert!(report.states > 2, "3-device scenario {progs:?} barely explored");
    }
}

#[test]
fn three_device_spaces_strictly_contain_their_two_device_embeddings() {
    // Embedding a two-device scenario into a three-device topology with an
    // idle third device must reproduce at least the two-device behaviours
    // (same programs, more devices): the reachable space is never smaller,
    // and for a passive peer it coincides in size.
    let cfg = ProtocolConfig::strict();
    let mc2 = ModelChecker::new(Ruleset::new(cfg));
    let mc3 = ModelChecker::new(Ruleset::with_devices(cfg, 3));
    let two = mc2
        .check(&SystemState::initial(programs::store(42), programs::load()), &[&SwmrProperty]);
    let three_idle = mc3.check(
        &SystemState::initial_n(3, vec![programs::store(42), programs::loads(1)]),
        &[&SwmrProperty],
    );
    assert!(two.clean() && three_idle.clean());
    assert_eq!(
        two.states, three_idle.states,
        "an idle third device adds no transitions to the strict model"
    );
    // …while a *participating* third device genuinely enlarges the space.
    let three_loading = mc3.check(
        &SystemState::initial_n(
            3,
            vec![programs::store(42), programs::loads(1), programs::loads(1)],
        ),
        &[&SwmrProperty],
    );
    assert!(three_loading.clean());
    assert!(
        three_loading.states > two.states,
        "a loading third device must enlarge the space ({} vs {})",
        three_loading.states,
        two.states
    );
}

#[test]
fn four_device_smoke_explores_cleanly() {
    let cfg = ProtocolConfig::strict();
    let inv = InvariantProperty::new(Invariant::for_devices(&cfg, 4));
    let mc = ModelChecker::new(Ruleset::with_devices(cfg, 4));
    let init = SystemState::initial_n(
        4,
        vec![programs::store(42), programs::loads(1), programs::loads(1), programs::evicts(1)],
    );
    let report = mc.check(&init, &[&SwmrProperty, &inv]);
    assert!(report.clean(), "{report}");
    assert!(!report.truncated);
}

// -------------------------------------------------------------------
// 2b. 4-device strict-grid sweep (opened up by the packed state arena).
// -------------------------------------------------------------------

/// A bounded grid of four-device programs: every device participates,
/// including multi-sharer snoop fan-outs over three peers at once and
/// concurrent evictions racing upgrades.
fn four_device_grid() -> Vec<Vec<Vec<Instruction>>> {
    use Instruction::*;
    vec![
        vec![vec![Store(42)], vec![Load], vec![Load], vec![Load]],
        vec![vec![Store(1), Evict], vec![Load], vec![Load], vec![Store(2)]],
        vec![vec![Load, Load], vec![Store(9), Evict], vec![Load], vec![Evict]],
        vec![vec![Store(3)], vec![Store(4)], vec![Load, Evict], vec![Load]],
    ]
}

#[test]
fn four_device_strict_grid_sweep_fits_the_default_memory_budget() {
    // The whole grid explores exhaustively under default CheckOptions —
    // including the default packed-store memory budget — with SWMR and
    // the full 4-device invariant holding everywhere. Under the old
    // heap-`Arc` arena each of these spaces cost hundreds of bytes per
    // state; the packed arena keeps the entire sweep in the tens of
    // KiB range (asserted loosely below so the bound survives workload
    // tweaks).
    let cfg = ProtocolConfig::strict();
    let inv = InvariantProperty::new(Invariant::for_devices(&cfg, 4));
    let mc = ModelChecker::new(Ruleset::with_devices(cfg, 4));
    let mut total_states = 0usize;
    for progs in four_device_grid() {
        let init = SystemState::initial_n(4, progs.iter().cloned().map(Into::into).collect());
        let exp = mc.explore(&init, &[&SwmrProperty, &inv]);
        assert!(exp.report.clean(), "4-device scenario {progs:?} broke:\n{}", exp.report);
        assert!(!exp.report.truncated, "4-device scenario {progs:?} truncated");
        assert!(
            exp.bytes_per_state() < 128.0,
            "packed encoding regressed: {:.1} bytes/state",
            exp.bytes_per_state()
        );
        total_states += exp.report.states;
    }
    assert!(total_states > 20_000, "the grid should be a real sweep, got {total_states}");
}

#[test]
fn four_device_table3_violation_reproduces() {
    let init = SystemState::initial_n(4, vec![programs::store(42), programs::load()]);
    assert_table3_violation(&init, "two idle fourth-topology devices");
    let busy = SystemState::initial_n(
        4,
        vec![programs::store(42), programs::load(), programs::load(), programs::load()],
    );
    assert_table3_violation(&busy, "all four devices active");
}

// -------------------------------------------------------------------
// 3. 3-device Table 3 violation reproduction.
// -------------------------------------------------------------------

fn assert_table3_violation(init: &SystemState, label: &str) {
    let mc = ModelChecker::new(Ruleset::with_devices(
        ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
        init.device_count(),
    ));
    let report = mc.check(init, &[&SwmrProperty]);
    let v = report
        .violations
        .first()
        .unwrap_or_else(|| panic!("{label}: SWMR violation must be reachable:\n{report}"));
    assert!(
        v.trace.rule_names().iter().any(|r| r.starts_with("IsadSnpInvBuggy")),
        "{label}: the witness must run through the buggy ISADSnpInv rule: {:?}",
        v.trace.rule_names()
    );
    assert!(
        !cxl_repro::core::swmr(v.trace.last_state()),
        "{label}: witness must end incoherent"
    );
}

#[test]
fn table3_violation_reproduces_with_an_idle_third_device() {
    let init = SystemState::initial_n(3, vec![programs::store(42), programs::load()]);
    assert_table3_violation(&init, "idle third device");
}

#[test]
fn table3_violation_reproduces_with_a_loading_third_device() {
    let init =
        SystemState::initial_n(3, vec![programs::store(42), programs::load(), programs::load()]);
    assert_table3_violation(&init, "loading third device");
}

#[test]
fn strict_three_device_model_has_no_table3_violation() {
    // Control: under the strict configuration the same 3-device scenarios
    // stay coherent.
    let mc = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), 3));
    let init =
        SystemState::initial_n(3, vec![programs::store(42), programs::load(), programs::load()]);
    let report = mc.check(&init, &[&SwmrProperty]);
    assert!(report.clean(), "{report}");
}

// -------------------------------------------------------------------
// 4. Collection where several peers answer.
// -------------------------------------------------------------------

/// `[L,S1]×[L]×[L]`: device 1's upgrade snoops both sharing peers at
/// once, so `HostMaSnpRsp1` collects about two responses per snoop
/// round, and the peers' reads of device 1's owned line run the
/// `SAD`/`SD`/`SA` collection rules.
fn two_responder_grid() -> SystemState {
    SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Load, Instruction::Store(1)].into(),
            programs::load(),
            programs::load(),
        ],
    )
}

/// Firings of every collection-rule instance (a shape that fires once
/// per peer of its requester), sorted by name; an instance that never
/// fired is absent.
fn collection_firings(report: &Report) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = report
        .rule_firings
        .iter()
        .filter(|(id, _)| id.shape.peer_scan())
        .map(|(id, &n)| (id.name(), n))
        .collect();
    rows.sort();
    rows
}

fn named(rows: &[(&str, u64)]) -> Vec<(String, u64)> {
    rows.iter().map(|&(name, n)| (name.to_owned(), n)).collect()
}

#[test]
fn collection_relation_is_pinned_where_several_peers_answer() {
    // The unreduced search fires each collection rule as its lowest
    // firing peer; device symmetry fires it once per peer. Both counts
    // cover the whole space, so a change to either relation on any
    // reachable state moves them.
    let cfg = ProtocolConfig::strict();
    let init = two_responder_grid();

    let plain = ModelChecker::new(Ruleset::with_devices(cfg, 3)).check(&init, &[&SwmrProperty]);
    assert!(plain.clean(), "{plain}");
    assert_eq!(
        (plain.states, plain.transitions, plain.depth, plain.terminal_states),
        (4_421, 11_823, 22, 43),
        "unreduced space drifted"
    );
    let rounds = plain.rule_firings_by_name().get("HostSharedRdOwnOther1").copied();
    assert_eq!(rounds, Some(312), "snoop rounds drifted");
    assert_eq!(
        collection_firings(&plain),
        named(&[
            ("HostMaSnpRsp1", 606),
            ("HostModifiedRdShared2", 140),
            ("HostModifiedRdShared3", 140),
            ("HostSaRspSFwdM2", 70),
            ("HostSaRspSFwdM3", 70),
            ("HostSadData2", 35),
            ("HostSadData3", 35),
            ("HostSadRspSFwdM2", 35),
            ("HostSadRspSFwdM3", 35),
            ("HostSdData2", 35),
            ("HostSdData3", 35),
        ]),
        "unreduced collection firings drifted"
    );

    let rules = Ruleset::with_devices(cfg, 3);
    let symmetry_only = ReductionConfig {
        symmetry: true,
        data_symmetry: false,
        por: PorMode::Off,
        canon: CanonMode::Auto,
    };
    let red = Arc::new(Reduction::new(&rules, &init, symmetry_only));
    let opts = CheckOptions { reduction: Some(red as Arc<dyn Reducer>), ..CheckOptions::default() };
    let sym = ModelChecker::with_options(rules, opts).check(&init, &[&SwmrProperty]);
    assert!(sym.clean(), "{sym}");
    assert_eq!(
        (sym.states, sym.transitions, sym.depth, sym.terminal_states),
        (2_225, 5_973, 22, 23),
        "symmetry-reduced space drifted"
    );
    let summary = sym.reduction.as_ref().expect("reduction summary present");
    assert_eq!(summary.orbit_states, 4_421, "Σ orbit states must equal the unreduced count");
    assert_eq!(
        collection_firings(&sym),
        named(&[
            ("HostMaSnpRsp1", 340),
            ("HostModifiedRdShared2", 104),
            ("HostModifiedRdShared3", 36),
            ("HostSaRspSFwdM2", 52),
            ("HostSaRspSFwdM3", 18),
            ("HostSadData2", 32),
            ("HostSadData3", 3),
            ("HostSadRspSFwdM2", 32),
            ("HostSadRspSFwdM3", 3),
            ("HostSdData2", 32),
            ("HostSdData3", 3),
        ]),
        "symmetry-reduced collection firings drifted"
    );
}
