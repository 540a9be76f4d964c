//! The invariant's guard contract and the conjunct a violating run names.
//!
//! Every conjunct of the built-in families carries a guard saying
//! where it can fail, and `Invariant` evaluates a conjunct only on
//! states its guard admits. A guard that is too narrow would silently
//! hide a violation, so this suite checks, for N = 2..=5, both
//! granularities and the strict, full and each relaxed configuration:
//!
//! - **soundness** — every conjunct that fails on a state has a guard
//!   that admits it, over seeded `random_state_n` states (whose wild
//!   half draws every component from its full domain) and over every
//!   reachable state of the restriction suite and of a relaxed N = 3
//!   grid, violating states included;
//! - **equivalence** — guarded `holds`, `first_violation` and
//!   `violations` equal an in-order scan over `Invariant::iter()`.
//!
//! The checks cover every conjunct `Invariant::for_devices` and
//! `Invariant::fine_grained_devices` build, so a new conjunct family
//! joins them once those include it. It must also bring a soundness
//! case: states on which its conjuncts fail, if neither sample reaches
//! them. The last test pins the violation detail `explore` prints for
//! three relaxed repros, so a change to which conjunct a run reports
//! cannot pass unnoticed.

use cxl_repro::core::instr::{programs, Instruction, Program};
use cxl_repro::core::{Conjunct, Invariant, ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::litmus::relax::restriction_suite;
use cxl_repro::mc::{
    CanonMode, CheckOptions, InvariantProperty, ModelChecker, PorMode, Reducer, Reduction,
    ReductionConfig, SwmrProperty,
};
use cxl_repro::sketch::random_state_n;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The strict and full configurations and each single relaxation.
fn configs() -> Vec<ProtocolConfig> {
    let mut out = vec![ProtocolConfig::strict(), ProtocolConfig::full()];
    out.extend(Relaxation::ALL.map(ProtocolConfig::relaxed));
    out
}

/// Both granularities of the invariant for `cfg` over `n` devices.
fn invariants(cfg: &ProtocolConfig, n: usize) -> [Invariant; 2] {
    [Invariant::for_devices(cfg, n), Invariant::fine_grained_devices(cfg, n)]
}

fn ids<'a>(cs: impl IntoIterator<Item = &'a Conjunct>) -> Vec<usize> {
    cs.into_iter().map(Conjunct::id).collect()
}

/// Checks the guard contract and the guarded evaluation of `inv` on `s`
/// against an in-order scan; returns whether `s` violates `inv`.
fn check_state(inv: &Invariant, s: &SystemState) -> bool {
    let failing: Vec<&Conjunct> = inv.iter().filter(|c| !c.holds(s)).collect();
    for c in &failing {
        assert!(
            c.guard().admits(s),
            "{c} fails outside its guard {:?} ({:?}) on\n{s}",
            c.guard(),
            inv.granularity()
        );
    }
    assert_eq!(inv.holds(s), failing.is_empty(), "holds disagrees with the scan on\n{s}");
    assert_eq!(
        inv.first_violation(s).map(Conjunct::id),
        failing.first().map(|c| c.id()),
        "first_violation disagrees with the scan on\n{s}"
    );
    assert_eq!(ids(inv.violations(s)), ids(failing.iter().copied()), "on\n{s}");
    !failing.is_empty()
}

#[test]
fn guards_are_sound_on_random_states() {
    for n in 2..=5 {
        let invs: Vec<Invariant> = configs().iter().flat_map(|cfg| invariants(cfg, n)).collect();
        let mut rng = StdRng::seed_from_u64(0x6a7d + n as u64);
        let (mut checked, mut violating) = (0usize, 0usize);
        for _ in 0..3000 {
            let s = random_state_n(&mut rng, n);
            for inv in &invs {
                checked += 1;
                violating += usize::from(check_state(inv, &s));
            }
        }
        // The wild half must exercise the fallback path, and the
        // plausible half the all-hold path.
        assert!(violating > checked / 4 && violating < checked, "N={n}: {violating}/{checked}");
    }
}

#[test]
fn guards_are_sound_on_reachable_states() {
    let mut grids: Vec<(ProtocolConfig, SystemState)> =
        restriction_suite().into_iter().map(|lit| (lit.config, lit.initial)).collect();
    // [S1, E] × [L, L] × [S2] under Snoop-pushes-GO relaxed: 22,126
    // reachable states, 6,632 of them violating the invariant.
    let load2: Program = vec![Instruction::Load, Instruction::Load].into();
    let store_evict: Program = vec![Instruction::Store(1), Instruction::Evict].into();
    grids.push((
        ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
        SystemState::initial_n(3, vec![store_evict, load2, programs::store(2)]),
    ));
    let (mut states, mut violating) = (0usize, 0usize);
    for (cfg, init) in grids {
        let n = init.device_count();
        let invs = invariants(&cfg, n);
        for s in ModelChecker::new(Ruleset::with_devices(cfg, n)).reachable(&init) {
            states += 1;
            for inv in &invs {
                violating += usize::from(check_state(inv, &s));
            }
        }
    }
    assert!(states > 20_000 && violating > 6_000, "{violating} violations over {states} states");
}

/// The violation detail of the invariant property on `progs` under
/// `relax`, explored as `explore` does by default (device and data
/// symmetry when they apply, no POR).
fn invariant_detail(relax: Relaxation, progs: Vec<Program>) -> String {
    let cfg = ProtocolConfig::relaxed(relax);
    let n = progs.len();
    let init = SystemState::initial_n(n, progs);
    let reduction = Arc::new(Reduction::new(
        &Ruleset::with_devices(cfg, n),
        &init,
        ReductionConfig {
            symmetry: true,
            data_symmetry: true,
            por: PorMode::Off,
            canon: CanonMode::Auto,
        },
    ));
    let opts = CheckOptions {
        reduction: reduction.is_active().then_some(reduction as Arc<dyn Reducer>),
        ..CheckOptions::default()
    };
    let invariant = InvariantProperty::new(Invariant::for_devices(&cfg, n));
    let report = ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts)
        .check(&init, &[&SwmrProperty, &invariant]);
    let v = report.violations.iter().find(|v| v.property == "Invariant");
    v.expect("the relaxed run violates the invariant").detail.clone()
}

#[test]
fn violating_runs_name_the_recorded_conjunct() {
    const RSP_EXCLUDES: &str = "D2HRsp{i} ≠ [] ∧ H2DData{i} ≠ [] ⟹ DCache{i} = ISDI (a snoop \
                                between GO and data is the only overlap)";
    let (s42, l) = (programs::store(42), programs::load());
    assert_eq!(
        invariant_detail(Relaxation::SnoopPushesGo, vec![s42.clone(), l.clone()]),
        format!("conjunct inv_32:rsp_excludes_grant_data_2 — {}", RSP_EXCLUDES.replace("{i}", "2"))
    );
    assert_eq!(
        invariant_detail(Relaxation::NaiveTransientTracking, vec![s42.clone(), l.clone()]),
        "conjunct inv_2:transient_swmr_1_2 — paper §6: if device 1 has (almost) upgraded to M \
         and no SnpInv is on its way to device 2, then device 2 holds no valid or \
         about-to-be-valid copy"
    );
    assert_eq!(
        invariant_detail(Relaxation::SnoopPushesGo, vec![s42, l.clone(), l.clone(), l]),
        format!("conjunct inv_90:rsp_excludes_grant_data_4 — {}", RSP_EXCLUDES.replace("{i}", "4"))
    );
}

