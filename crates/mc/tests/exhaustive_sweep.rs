//! Exhaustive verification sweep: for a grid of bounded device programs,
//! explore the entire reachable state space and check SWMR (paper
//! Definition 6.1), the full inductive invariant (paper §6), and
//! deadlock-freedom. This is the reproduction's substitute for the paper's
//! mechanised SWMR theorem: for every bounded configuration the verdict is
//! exact.

use cxl_core::instr::{Instruction, Program};
use cxl_core::{Invariant, ProtocolConfig, Ruleset, SystemState};
use cxl_mc::{InvariantProperty, ModelChecker, SwmrProperty};

fn program_grid() -> Vec<Program> {
    use Instruction::*;
    [
        vec![],
        vec![Load],
        vec![Store(7)],
        vec![Evict],
        vec![Load, Store(8)],
        vec![Store(9), Evict],
        vec![Load, Evict],
        vec![Store(10), Store(11)],
        vec![Load, Load],
        vec![Evict, Evict],
        vec![Store(12), Load],
        vec![Load, Store(13), Evict],
    ]
    .into_iter()
    .map(Program::from)
    .collect()
}

fn sweep(cfg: ProtocolConfig) -> (usize, usize) {
    let inv = InvariantProperty::new(Invariant::for_config(&cfg));
    let mc = ModelChecker::new(Ruleset::new(cfg));
    let mut total_states = 0;
    let mut scenarios = 0;
    for p1 in program_grid() {
        for p2 in program_grid() {
            let init = SystemState::initial(p1.clone(), p2.clone());
            let report = mc.check(&init, &[&SwmrProperty, &inv]);
            assert!(
                report.clean(),
                "cfg {cfg:?}, programs {p1:?} / {p2:?}:\n{report}"
            );
            assert!(!report.truncated, "sweep must be exhaustive");
            total_states += report.states;
            scenarios += 1;
        }
    }
    (scenarios, total_states)
}

#[test]
fn strict_config_is_coherent_and_live_across_program_grid() {
    let (scenarios, states) = sweep(ProtocolConfig::strict());
    assert_eq!(scenarios, 144);
    assert!(states > 20_000, "expected a substantial state space, got {states}");
}

#[test]
fn full_config_is_coherent_and_live_across_program_grid() {
    // All optional behaviours on (CleanEvictNoData, clean pull, §4.4 drop
    // optimisation): still coherent.
    let (scenarios, states) = sweep(ProtocolConfig::full());
    assert_eq!(scenarios, 144);
    assert!(states > 25_000, "the full config explores more states, got {states}");
}

#[test]
fn fine_grained_invariant_also_holds_on_reachable_states() {
    // Spot-check the fine-grained (paper-scale) invariant on the biggest
    // scenario of the grid.
    let cfg = ProtocolConfig::strict();
    let inv = InvariantProperty::new(Invariant::fine_grained(&cfg));
    let mc = ModelChecker::new(Ruleset::new(cfg));
    let init = SystemState::initial(
        vec![Instruction::Load, Instruction::Store(13), Instruction::Evict],
        vec![Instruction::Store(9), Instruction::Evict],
    );
    let report = mc.check(&init, &[&inv]);
    assert!(report.clean(), "{report}");
}
