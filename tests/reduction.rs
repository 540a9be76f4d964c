//! The state-space reduction subsystem's workspace-level guarantees.
//!
//! Three layers, mirroring the soundness story in `PERFORMANCE.md`:
//!
//! 1. **Canonicalization laws** — proptests that the symmetry engines'
//!    canonical forms are idempotent and invariant on their orbits:
//!    device canonicalization under every subgroup element, value
//!    renumbering under admissible value bijections, and the joint form
//!    under both at once — over randomised states at N ∈ 2..=4,
//!    including wild unreachable ones (canonical form is total over
//!    codec output); and the refine labeller equal to the brute scan
//!    byte for byte at N ∈ 2..=6 over one- and two-cell groups.
//! 2. **Verdict equivalence** — the differential suite: reduced vs.
//!    unreduced exploration over N ∈ {2, 3} grids under strict, full,
//!    and relaxed configurations must agree on clean-vs-violating (per
//!    property) and deadlock presence for every combination of
//!    {symmetry, data-symmetry, por ∈ {off, on, wide}}, while the
//!    reduced run never stores more states. With device symmetry alone,
//!    the reduced run's Σ orbit sizes must equal the *measured*
//!    unreduced state count exactly — the strongest cross-check
//!    available without materialising the orbits.
//! 3. **Counterexample fidelity + acceptance bars** — the N = 3 Table 3
//!    violation repro under reduction de-canonicalizes into a concrete
//!    trace that replays and still violates SWMR; the N = 3 symmetric
//!    strict grid reduces below 40% under symmetry alone and below
//!    PR 4's 16.8% with wide POR stacked on top; a store-heavy
//!    asymmetric N = 3 grid (invisible to device symmetry) shrinks ≥ 2×
//!    under data symmetry alone; and a budget-truncated reduced run
//!    still reports its truncation honestly.

use cxl_repro::core::instr::Instruction;
use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::litmus::{decanonicalize_trace, replay_trace};
use cxl_repro::mc::{
    CanonMode, CheckOptions, Exploration, ModelChecker, PorMode, Reducer, Reduction,
    ReductionConfig, SwmrProperty,
};
use cxl_repro::reduce::{apply_permutation, DataSymmetry, SymmetryGroup};
use cxl_repro::sketch::random_state_n;
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{all_engine_combos, rc, rcc};

fn explore_unreduced(cfg: ProtocolConfig, n: usize, init: &SystemState) -> Exploration {
    ModelChecker::new(Ruleset::with_devices(cfg, n)).explore(init, &[&SwmrProperty])
}

fn explore_reduced(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    rc: ReductionConfig,
) -> (Exploration, Arc<Reduction>) {
    let rules = Ruleset::with_devices(cfg, n);
    let red = Arc::new(Reduction::new(&rules, init, rc));
    let opts = CheckOptions {
        reduction: Some(Arc::clone(&red) as Arc<dyn Reducer>),
        ..CheckOptions::default()
    };
    let exp = ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts)
        .explore(init, &[&SwmrProperty]);
    (exp, red)
}

/// The comparable verdict of an exploration: cleanliness, the violated
/// property names (the detail strings may name permuted device indices),
/// and deadlock presence.
fn verdict(exp: &Exploration) -> (bool, Vec<String>, bool) {
    (
        exp.report.clean(),
        exp.report.violations.iter().map(|v| v.property.clone()).collect(),
        !exp.report.deadlocks.is_empty(),
    )
}

// -------------------------------------------------------------------
// 1. Canonicalization laws.
// -------------------------------------------------------------------

/// An admissible value bijection for `s` under `ds`: fixes the pinned
/// set, shifts every other value — program operands included — into a
/// far-away band (injective, image disjoint from any small pinned
/// value).
fn shift_free_vals(ds: &DataSymmetry, s: &SystemState, shift: i64) -> SystemState {
    let pinned: Vec<i64> = ds.static_pinned().to_vec();
    DataSymmetry::apply_value_map(s, |v| if pinned.contains(&v) { v } else { v + shift })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn canonical_form_is_idempotent_and_permutation_invariant(
        n in 2usize..5,
        state_seed in 0u64..1_000_000,
        perm_pick in 0usize..24,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // All-idle initial state: every device identical, so the
        // detected subgroup is the full S_N — the richest orbit
        // structure, exercising every permutation.
        let init = SystemState::initial_n(n, Vec::new());
        let codec = cxl_repro::core::codec::StateCodec::new(init.topology());
        let group = SymmetryGroup::detect(&codec, &init);
        prop_assert_eq!(group.order(), (1..=n as u64).product::<u64>());

        let mut rng = StdRng::seed_from_u64(state_seed);
        let s = random_state_n(&mut rng, n);
        let mut scratch = Vec::new();

        let mut canon = codec.encode(&s);
        group.canonicalize(&codec, &mut canon, &mut scratch);

        // Idempotence: canonicalizing the canonical form is a no-op.
        let mut twice = canon.clone();
        prop_assert!(!group.canonicalize(&codec, &mut twice, &mut scratch));
        prop_assert_eq!(&twice, &canon);

        // Permutation invariance for a random subgroup element.
        let perms = group.permutations();
        let perm = &perms[perm_pick % perms.len()];
        let mut permuted = codec.encode(&apply_permutation(&s, perm));
        group.canonicalize(&codec, &mut permuted, &mut scratch);
        prop_assert_eq!(&permuted, &canon);

        // The representative stays inside the orbit: some subgroup
        // element maps s to it.
        let decoded = codec.decode(&canon).unwrap();
        prop_assert!(
            perms.iter().any(|p| apply_permutation(&s, p) == decoded),
            "canonical form left the orbit"
        );

        // Orbit size divides the group order and counts the distinct
        // permuted encodings.
        let orbit = group.orbit_size(&codec, &canon);
        prop_assert_eq!(group.order() % orbit, 0);
    }

    #[test]
    fn partial_symmetry_detection_respects_classes(
        state_seed in 0u64..1_000_000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Devices 1 and 2 identical, device 0 distinct: the subgroup is
        // exactly the swap of {1, 2}.
        let init = SystemState::initial_n(3, vec![vec![Instruction::Store(1)].into()]);
        let codec = cxl_repro::core::codec::StateCodec::new(init.topology());
        let group = SymmetryGroup::detect(&codec, &init);
        prop_assert_eq!(group.order(), 2);

        let mut rng = StdRng::seed_from_u64(state_seed);
        let s = random_state_n(&mut rng, 3);
        let mut scratch = Vec::new();
        let mut canon = codec.encode(&s);
        group.canonicalize(&codec, &mut canon, &mut scratch);

        // Invariant under the swap of the symmetric pair…
        let mut swapped = codec.encode(&apply_permutation(&s, &[0, 2, 1]));
        group.canonicalize(&codec, &mut swapped, &mut scratch);
        prop_assert_eq!(&swapped, &canon);
        // …and device 0's segment is never moved: slots outside a
        // multi-member class keep their own content.
        let decoded = codec.decode(&canon).unwrap();
        prop_assert_eq!(&decoded.devs[0], &s.devs[0]);
    }

    #[test]
    fn value_canonicalization_is_idempotent_and_bijection_invariant(
        n in 2usize..5,
        state_seed in 0u64..1_000_000,
        shift in 1i64..50_000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // A store-minting initial state arms the engine; random states
        // then hold arbitrary (mostly free) values.
        let init = SystemState::initial_n(n, vec![vec![Instruction::Store(11)].into()]);
        let codec = cxl_repro::core::codec::StateCodec::new(init.topology());
        let ds = DataSymmetry::detect(&codec, &init, &[]);
        prop_assert!(ds.potentially_active());

        let mut rng = StdRng::seed_from_u64(state_seed);
        let s = random_state_n(&mut rng, n);
        let mut out = Vec::new();
        ds.renumber(&codec.encode(&s), &mut out);

        // Idempotence.
        let mut twice = Vec::new();
        let (changed_again, _) = ds.renumber(&out, &mut twice);
        prop_assert!(!changed_again);
        prop_assert_eq!(&twice, &out);

        // Invariance under an admissible bijection (fixes pinned values,
        // shifts the free band far away).
        let shifted = shift_free_vals(&ds, &s, shift * 7);
        let mut out_shifted = Vec::new();
        ds.renumber(&codec.encode(&shifted), &mut out_shifted);
        prop_assert_eq!(&out_shifted, &out, "value-isomorphic states must renumber equally");
    }

    #[test]
    fn joint_canonicalization_commutes_over_both_group_actions(
        n in 2usize..4,
        state_seed in 0u64..1_000_000,
        perm_pick in 0usize..24,
        shift in 1i64..50_000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Symmetric store-minting workload: full S_N device group AND an
        // armed value engine — the joint canonical form must be constant
        // on orbits of the *product* action, i.e. device- and
        // value-canonicalization compose order-independently.
        let init =
            SystemState::initial_n(n, vec![vec![Instruction::Store(11)].into(); n]);
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), n);
        let red = Reduction::new(&rules, &init, rc(true, true, PorMode::Off));
        prop_assert!(red.group().nontrivial());
        let ds = red.data_symmetry().expect("value engine armed");

        let mut rng = StdRng::seed_from_u64(state_seed);
        let s = random_state_n(&mut rng, n);
        let canon = red.canonical_encoding(&s);

        // Idempotence: the canonical form is its own canonical form.
        let decoded = red.codec().decode(&canon).unwrap();
        prop_assert_eq!(red.canonical_encoding(&decoded), canon.clone());

        // Invariance under device permutation, value bijection, and the
        // two composed in either order.
        let perms = red.group().permutations();
        let perm = &perms[perm_pick % perms.len()];
        let dev_then_val = shift_free_vals(ds, &apply_permutation(&s, perm), shift * 7);
        let val_then_dev = apply_permutation(&shift_free_vals(ds, &s, shift * 7), perm);
        prop_assert_eq!(red.canonical_encoding(&dev_then_val), canon.clone());
        prop_assert_eq!(red.canonical_encoding(&val_then_dev), canon);
    }
}

proptest! {
    // Brute costs a few milliseconds per state at N = 6 even unoptimised,
    // so this law affords more cases than the block above.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn refine_canon_matches_brute_canon_byte_for_byte(
        n in 2usize..7,
        state_seed in 0u64..1_000_000,
        shape in 0u8..4,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use Instruction::{Load, Store};

        // Four ways to arm the joint engines. Each admissible set is a
        // full product over its orbit cells, so the refine labeller is
        // exact: its representative must equal the brute enumeration's
        // byte for byte, on arbitrary codec output.
        // 0: byte-identical store-minting programs (byte symmetry);
        // 1: all-distinct single stores (pure value-blind symmetry,
        //    trivial byte group);
        // 2: one odd device plus a value-isomorphic cell, as in
        //    perfbench's `n4_stores` — two cells, `{0}` and the rest;
        // 3: four pending stores per device, every operand distinct —
        //    the initial state alone assigns 4n free values, and every
        //    device ties with every other at each slot.
        let progs = (0..n as i64)
            .map(|i| {
                match shape {
                    0 => vec![Store(11), Load],
                    1 => vec![Store(i + 1)],
                    2 if i == 0 => vec![Store(1), Load],
                    2 => vec![Store(i + 1)],
                    _ => (1..=4).map(|k| Store(4 * i + k)).collect(),
                }
                .into()
            })
            .collect();
        let init = SystemState::initial_n(n, progs);
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), n);
        let refine =
            Reduction::new(&rules, &init, rcc(true, true, PorMode::Off, CanonMode::Refine));
        let brute =
            Reduction::new(&rules, &init, rcc(true, true, PorMode::Off, CanonMode::Brute));
        // Shape 2 at n = 2 has no second device to swap with.
        let cell = if shape == 2 { n - 1 } else { n };
        let joint = (1..=cell).product::<usize>();
        let engines = if joint > 1 { ("refine", "brute") } else { ("off", "off") };
        prop_assert_eq!((refine.canon_name(), brute.canon_name()), engines);
        prop_assert_eq!(refine.joint_perms().len(), joint);

        // The initial state (shape 3: every operand still pending, 24
        // free values at n = 6), then random states.
        let mut rng = StdRng::seed_from_u64(state_seed);
        let randoms: Vec<SystemState> = (0..8).map(|_| random_state_n(&mut rng, n)).collect();
        for s in std::iter::once(&init).chain(&randoms) {
            prop_assert_eq!(
                refine.canonical_encoding(s),
                brute.canonical_encoding(s),
                "refine and brute disagree on a representative at n = {}, shape {}", n, shape
            );
        }
    }
}

// -------------------------------------------------------------------
// 2. Differential verdict equivalence.
// -------------------------------------------------------------------

/// Program grids per device count: symmetric, partially symmetric,
/// eviction-bearing (the POR engine's target), and store-heavy
/// value-symmetric workloads (the data-symmetry engine's target).
fn grids(n: usize) -> Vec<Vec<Vec<Instruction>>> {
    use Instruction::{Evict, Load, Store};
    let mut out = vec![
        vec![vec![Store(1), Load]; n],              // fully symmetric
        vec![vec![Evict, Load]; n],                 // symmetric with evicts
        {
            let mut g = vec![vec![Load]; n];        // one writer, N-1 readers
            g[0] = vec![Store(42)];
            g
        },
        {
            let mut g = vec![vec![Store(9)]; n];    // evicting reader tail
            g[n - 1] = vec![Evict, Load];
            g
        },
        {
            // Store-heavy and asymmetric: trivial device group, ≥ 3
            // distinct stored values — only data symmetry can touch it.
            let mut g = vec![vec![Load]; n];
            g[0] = vec![Store(1), Store(2)];
            g[1] = vec![Store(3), Load];
            g
        },
    ];
    // A fully asymmetric control: the device group must be trivial.
    out.push((0..n).map(|i| vec![Store(i as i64)]).collect());
    out
}

fn assert_reduction_equivalence(cfg: ProtocolConfig, n: usize, combos: &[ReductionConfig]) {
    for grid in grids(n) {
        let init =
            SystemState::initial_n(n, grid.iter().cloned().map(Into::into).collect());
        let unreduced = explore_unreduced(cfg, n, &init);
        for &rc in combos {
            let (reduced, red) = explore_reduced(cfg, n, &init, rc);
            assert_eq!(
                verdict(&unreduced),
                verdict(&reduced),
                "verdict diverged under {rc:?} / {cfg:?} on\n{init}"
            );
            assert!(
                reduced.report.states <= unreduced.report.states,
                "reduction grew the space under {rc:?} / {cfg:?} on\n{init}"
            );
            // With device symmetry alone, Σ orbit sizes must reproduce
            // the measured unreduced count exactly on clean runs (the
            // equivariant and determinised relations explore the same
            // set of states; data symmetry and POR both break the
            // one-orbit-per-stored-state accounting by design).
            if rc.symmetry
                && !rc.data_symmetry
                && rc.por == PorMode::Off
                && unreduced.report.clean()
            {
                let summary = reduced.report.reduction.as_ref().expect("summary present");
                assert_eq!(
                    summary.orbit_states,
                    unreduced.report.states as u64,
                    "orbit accounting drifted under {cfg:?} on\n{init}"
                );
            }
            // Conservative-POR-only runs preserve terminal states
            // exactly (the safe-local persistent sets reach every
            // terminal state of the full graph). The wide tier may
            // legitimately skip terminal states of suppressed
            // interleavings, so it is held to verdict equality only.
            if !rc.symmetry
                && !rc.data_symmetry
                && rc.por == PorMode::On
                && unreduced.report.clean()
            {
                assert_eq!(
                    unreduced.report.terminal_states, reduced.report.terminal_states,
                    "conservative POR lost a terminal state under {cfg:?} on\n{init}"
                );
            }
            // Any counterexample found under reduction de-canonicalizes
            // and replays (property invariance is checked in layer 3).
            for v in &reduced.report.violations {
                let rules = Ruleset::with_devices(cfg, n);
                let concrete =
                    decanonicalize_trace(&rules, &red, &v.trace).expect("trace de-permutes");
                replay_trace(&rules, &concrete).expect("de-canonicalized trace replays");
            }
        }
    }
}

#[test]
fn differential_verdicts_two_devices() {
    // The full engine matrix at N = 2 — every combination of
    // {symmetry, data-symmetry, por ∈ {off, on, wide}}.
    let combos = all_engine_combos();
    for cfg in [
        ProtocolConfig::strict(),
        ProtocolConfig::full(),
        ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
        ProtocolConfig::relaxed(Relaxation::NaiveTransientTracking),
    ] {
        assert_reduction_equivalence(cfg, 2, &combos);
    }
}

#[test]
fn differential_verdicts_three_devices() {
    // A representative engine subset at N = 3 (the full matrix runs at
    // N = 2 above; CI's reduction smoke step drives the full matrix
    // through the explore CLI at N = 3 in release mode).
    let combos = [
        rc(true, false, PorMode::Off),
        rc(false, true, PorMode::Off),
        rc(false, false, PorMode::On),
        rc(true, true, PorMode::Wide),
        rc(true, false, PorMode::Wide),
    ];
    for cfg in [
        ProtocolConfig::strict(),
        ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
    ] {
        assert_reduction_equivalence(cfg, 3, &combos);
    }
}

// -------------------------------------------------------------------
// 3. Counterexample fidelity + acceptance bars.
// -------------------------------------------------------------------

#[test]
fn n3_symmetric_strict_grid_reduces_below_forty_percent() {
    // PR 4's acceptance criterion, still pinned: the symmetric [S5,L]^3
    // strict grid must shrink to at most 40% of its unreduced size
    // under device symmetry alone (measured: ~17%, approaching 1/3!).
    let init = SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(5), Instruction::Load].into(),
            vec![Instruction::Store(5), Instruction::Load].into(),
            vec![Instruction::Store(5), Instruction::Load].into(),
        ],
    );
    let cfg = ProtocolConfig::strict();
    let unreduced = explore_unreduced(cfg, 3, &init);
    let (reduced, _) = explore_reduced(cfg, 3, &init, rc(true, false, PorMode::Off));
    assert!(unreduced.report.clean() && reduced.report.clean());
    assert!(
        reduced.report.states * 100 <= unreduced.report.states * 40,
        "reduced {} vs unreduced {}: above the 40% bar",
        reduced.report.states,
        unreduced.report.states
    );
    let summary = reduced.report.reduction.as_ref().expect("summary present");
    assert_eq!(summary.group_order, 6);
    assert_eq!(summary.orbit_states, unreduced.report.states as u64);
}

#[test]
fn wide_por_beats_the_pr4_reduction_on_the_symmetric_grid() {
    // This PR's wide-POR acceptance criterion: symmetry + wide POR must
    // push the symmetric [S7,L]^3 strict grid below PR 4's 16.8%
    // symmetry-only figure, with both ample tiers contributing.
    let init = SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(7), Instruction::Load].into(),
            vec![Instruction::Store(7), Instruction::Load].into(),
            vec![Instruction::Store(7), Instruction::Load].into(),
        ],
    );
    let cfg = ProtocolConfig::strict();
    let unreduced = explore_unreduced(cfg, 3, &init);
    let (sym_only, _) = explore_reduced(cfg, 3, &init, rc(true, false, PorMode::Off));
    let (wide, _) = explore_reduced(cfg, 3, &init, rc(true, false, PorMode::Wide));
    assert!(unreduced.report.clean() && sym_only.report.clean() && wide.report.clean());
    assert!(
        wide.report.states < sym_only.report.states,
        "wide POR must cut below symmetry alone ({} vs {})",
        wide.report.states,
        sym_only.report.states
    );
    assert!(
        wide.report.states * 1000 < unreduced.report.states * 168,
        "reduced {} vs unreduced {}: above PR 4's 16.8% figure",
        wide.report.states,
        unreduced.report.states
    );
    let summary = wide.report.reduction.as_ref().expect("summary present");
    assert!(summary.ample_local > 0, "local hits must be taken as ample steps");
    assert!(summary.ample_diamond > 0, "completion diamonds must collapse");
}

#[test]
fn data_symmetry_halves_a_store_heavy_asymmetric_grid() {
    // This PR's data-symmetry acceptance criterion: a store-heavy N = 3
    // grid with 3 distinct stored values and byte-asymmetric programs —
    // [S1,L] / [S2,L] / [S3,L]: the byte-equality device group is
    // trivial, so PR 4's engine alone is inert — must shrink ≥ 2× under
    // the data-symmetry engine, verdict-identically. The engine sees
    // the three programs as value-isomorphic (symmetric value space),
    // detects all 3! value-blind device permutations, and renumbers
    // free values on top.
    let init = SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2), Instruction::Load].into(),
            vec![Instruction::Store(3), Instruction::Load].into(),
        ],
    );
    let cfg = ProtocolConfig::strict();
    let unreduced = explore_unreduced(cfg, 3, &init);

    // PR 4's engine alone is inert on this grid.
    let (pr4, pr4_red) = explore_reduced(cfg, 3, &init, rc(true, false, PorMode::Off));
    assert_eq!(pr4_red.group().order(), 1, "byte-asymmetric programs: no byte symmetry");
    assert_eq!(pr4.report.states, unreduced.report.states, "PR 4's engine cannot reduce this");

    // Adding data symmetry reduces it ≥ 2×.
    let (reduced, red) = explore_reduced(cfg, 3, &init, rc(true, true, PorMode::Off));
    assert_eq!(verdict(&unreduced), verdict(&reduced));
    assert!(red.data_symmetry().is_some());
    assert_eq!(red.joint_perms().len(), 6, "all 3! value-blind arrangements qualify");
    assert!(
        reduced.report.states * 2 <= unreduced.report.states,
        "data symmetry must at least halve the store-heavy grid ({} vs {})",
        reduced.report.states,
        unreduced.report.states
    );
    let summary = reduced.report.reduction.as_ref().expect("summary present");
    assert!(summary.value_canonicalized > 0);
}

#[test]
fn n3_table3_violation_reproduces_and_replays_under_reduction() {
    // The paper's headline violation embedded in a 3-device topology
    // with a symmetric reader pair: reduction (all engines armed) must
    // still reach it, and the de-canonicalized counterexample must
    // replay and violate SWMR.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(42)].into(),
            vec![Instruction::Load].into(),
            vec![Instruction::Load].into(),
        ],
    );
    let (reduced, red) = {
        let rules = Ruleset::with_devices(cfg, 3);
        let red =
            Arc::new(Reduction::new(&rules, &init, rc(true, true, PorMode::Wide)));
        assert_eq!(red.group().order(), 2, "the two readers are interchangeable");
        assert!(red.data_symmetry().is_some(), "the stored 42 arms the value engine");
        let opts = CheckOptions {
            reduction: Some(Arc::clone(&red) as Arc<dyn Reducer>),
            max_violations: 8,
            ..CheckOptions::default()
        };
        (
            ModelChecker::with_options(Ruleset::with_devices(cfg, 3), opts)
                .explore(&init, &[&SwmrProperty]),
            red,
        )
    };
    let swmr_violations: Vec<_> = reduced
        .report
        .violations
        .iter()
        .filter(|v| v.property == "SWMR")
        .collect();
    assert!(!swmr_violations.is_empty(), "SWMR violation reachable under reduction");
    let rules = Ruleset::with_devices(cfg, 3);
    for v in swmr_violations {
        let concrete = decanonicalize_trace(&rules, &red, &v.trace).expect("de-permutes");
        replay_trace(&rules, &concrete).expect("replays");
        assert!(
            !cxl_repro::core::swmr(concrete.last_state()),
            "concrete final state must violate SWMR"
        );
    }
}

#[test]
fn por_collapses_evict_interleavings_with_identical_verdicts() {
    // Eviction-heavy N=2 workload: POR's safe-local InvalidEvict steps
    // must measurably shrink the space while preserving everything the
    // report asserts about terminals.
    let init = SystemState::initial(
        vec![Instruction::Evict, Instruction::Evict],
        vec![Instruction::Store(3), Instruction::Load],
    );
    let cfg = ProtocolConfig::strict();
    let unreduced = explore_unreduced(cfg, 2, &init);
    let (reduced, _) = explore_reduced(cfg, 2, &init, rc(false, false, PorMode::On));
    assert_eq!(verdict(&unreduced), verdict(&reduced));
    assert!(reduced.report.states < unreduced.report.states);
    assert_eq!(unreduced.report.terminal_states, reduced.report.terminal_states);
    let summary = reduced.report.reduction.as_ref().expect("summary present");
    assert!(summary.ample_steps() > 0, "the evicts must be taken as ample steps");
    assert!(summary.ample_local > 0);
    assert_eq!(summary.ample_diamond, 0, "the conservative tier collapses no diamonds");
}

#[test]
fn mem_budget_truncation_composes_with_reduction() {
    // A budget far below the packed footprint must stop a *reduced*
    // search exactly like an unreduced one: truncation flags raised, no
    // terminal/deadlock claims (the search did not finish, so a clean
    // verdict is never asserted), and the stored prefix intact.
    let init = SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Store(2)].into(),
            vec![Instruction::Store(3), Instruction::Load].into(),
            vec![Instruction::Load].into(),
        ],
    );
    let cfg = ProtocolConfig::strict();
    let rules = Ruleset::with_devices(cfg, 3);
    let red = Arc::new(Reduction::new(&rules, &init, rc(true, true, PorMode::Wide)));
    let opts = CheckOptions {
        mem_budget: Some(2048),
        reduction: Some(Arc::clone(&red) as Arc<dyn Reducer>),
        ..CheckOptions::default()
    };
    let exp = ModelChecker::with_options(Ruleset::with_devices(cfg, 3), opts)
        .explore(&init, &[&SwmrProperty]);
    assert!(exp.report.truncated, "budget must truncate the reduced search");
    assert!(exp.report.truncated_by_memory);
    // Sound partial verdict: no violations were found in the explored
    // prefix, but the report claims no terminal statistics — callers
    // (e.g. explore --expect-clean) treat a truncated report as
    // not-clean by contract.
    assert!(exp.report.violations.is_empty());
    assert_eq!(exp.report.terminal_states, 0);
    assert!(exp.report.deadlocks.is_empty());
    let (full, _) = explore_reduced(cfg, 3, &init, rc(true, true, PorMode::Wide));
    assert!(
        exp.report.states < full.report.states,
        "budgeted reduced run must store fewer states ({} vs {})",
        exp.report.states,
        full.report.states
    );
    // The stored prefix still decodes, starting from the caller's own
    // initial state (the reducers fix it).
    assert_eq!(exp.state(0), init);
}

#[test]
fn n5_reduced_vs_unreduced_verdict_differential() {
    // Five-device topology (the first size PR 4's brute canonicalizer
    // made painful): an evicting writer, two symmetric readers, and two
    // idle devices. Every canonicalizer choice must agree with the
    // unreduced search on the verdict, and never store more states.
    let init = SystemState::initial_n(
        5,
        vec![
            vec![Instruction::Store(1), Instruction::Evict].into(),
            vec![Instruction::Load].into(),
            vec![Instruction::Load].into(),
        ],
    );
    for cfg in [ProtocolConfig::strict(), ProtocolConfig::relaxed(Relaxation::SnoopPushesGo)] {
        let unreduced = explore_unreduced(cfg, 5, &init);
        for combo in [
            rc(true, false, PorMode::Off),
            rc(true, true, PorMode::Wide),
            rcc(true, true, PorMode::Off, CanonMode::Refine),
            rcc(true, true, PorMode::Off, CanonMode::Brute),
            rcc(true, true, PorMode::Wide, CanonMode::Refine),
        ] {
            let (reduced, _) = explore_reduced(cfg, 5, &init, combo);
            assert_eq!(
                verdict(&unreduced),
                verdict(&reduced),
                "verdict diverged under {combo:?} / {cfg:?}"
            );
            assert!(reduced.report.states <= unreduced.report.states);
        }
    }
}

#[test]
fn n6_fully_symmetric_grid_completes_under_refine_where_brute_cannot() {
    // The tentpole's unlock: six all-distinct single-store programs.
    // The byte group is trivial, but value-blindness detects the full
    // S_6 joint group (720 admissible arrangements) — exactly the
    // near-symmetric shape whose brute enumeration used to hang. The
    // refine labeller must pick itself under `auto` and finish the
    // grid outright; the pinned brute engine, held to a wall-clock
    // budget that release-mode refine beats by an order of magnitude,
    // must truncate.
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial_n(
        6,
        (0..6).map(|i| vec![Instruction::Store(i as i64 + 1)].into()).collect(),
    );
    let rules = Ruleset::with_devices(cfg, 6);

    let red = Arc::new(Reduction::new(&rules, &init, rc(true, true, PorMode::Wide)));
    assert_eq!(red.canon_name(), "refine", "auto must pick the refine labeller");
    assert_eq!(red.joint_perms().len(), 720);
    let opts = CheckOptions {
        reduction: Some(Arc::clone(&red) as Arc<dyn Reducer>),
        ..CheckOptions::default()
    };
    let exp = ModelChecker::with_options(Ruleset::with_devices(cfg, 6), opts)
        .explore(&init, &[&SwmrProperty]);
    assert!(!exp.report.truncated, "refine must finish the N = 6 grid");
    assert!(exp.report.clean(), "the strict grid is coherent");
    assert!(exp.report.states > 5_000, "the quotient space is genuinely explored");
    let summary = exp.report.reduction.as_ref().expect("summary present");
    assert_eq!(summary.canon, "refine");
    assert!(summary.value_canonicalized > 0);

    // Brute force on the same grid: 720 renumbered encodings per
    // canonicalization. Give it a budget refine finishes well inside
    // and watch it truncate instead.
    let brute = Arc::new(Reduction::new(
        &rules,
        &init,
        rcc(true, true, PorMode::Wide, CanonMode::Brute),
    ));
    assert_eq!(brute.canon_name(), "brute");
    let opts = CheckOptions {
        reduction: Some(Arc::clone(&brute) as Arc<dyn Reducer>),
        time_budget: Some(std::time::Duration::from_millis(750)),
        ..CheckOptions::default()
    };
    let exp = ModelChecker::with_options(Ruleset::with_devices(cfg, 6), opts)
        .explore(&init, &[&SwmrProperty]);
    assert!(
        exp.report.truncated,
        "brute enumeration must blow the budget the refine labeller beats \
         ({} states reached)",
        exp.report.states
    );
}
