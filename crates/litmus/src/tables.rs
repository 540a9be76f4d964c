//! Exact reproductions of the paper's transition tables.
//!
//! Each function replays the table's specific schedule through the rule
//! engine and renders it in the paper's format. These are the ground-truth
//! artefacts the `cxl-bench` harness's `report` binary prints.

use crate::render::{Column, TransitionTable};
use crate::replay::replay;
use cxl_core::instr::programs;
use cxl_core::{
    DState, DeviceId, HState, ProtocolConfig, Relaxation, RuleId, Ruleset, Shape, StateBuilder,
    SystemState,
};
use cxl_mc::Trace;

fn r1(shape: Shape) -> RuleId {
    RuleId::new(shape, DeviceId::D1)
}

fn r2(shape: Shape) -> RuleId {
    RuleId::new(shape, DeviceId::D2)
}

/// Paper **Table 1** — `clean_evict_test`: "a transition sequence
/// witnessing a clean eviction from device 1".
///
/// Initial state: both devices `(0, S)`, host `(0, S)`, `DProg1 =
/// [Evict, Evict]`. The second `Evict` retires as a no-op because the line
/// is already invalid.
///
/// # Panics
/// Panics if the schedule diverges from the rule engine (a regression in
/// the reconstruction).
#[must_use]
pub fn table1() -> (Trace, TransitionTable) {
    let rules = Ruleset::new(ProtocolConfig::strict());
    let initial = StateBuilder::new()
        .dev_cache(DeviceId::D1, 0, DState::S)
        .dev_cache(DeviceId::D2, 0, DState::S)
        .host(0, HState::S)
        .prog(DeviceId::D1, programs::evicts(2))
        .build();
    let schedule = [
        r1(Shape::SharedEvict),
        r1(Shape::HostCleanEvictDropNotLast),
        r1(Shape::SiaGoWritePullDrop),
        r1(Shape::InvalidEvict),
    ];
    let trace = replay(&rules, &initial, &schedule).expect("Table 1 schedule must replay");
    let table = TransitionTable::from_trace(
        "Table 1. A transition sequence witnessing clean_evict_test, a clean eviction from \
         device 1.",
        &trace,
        &[
            Column::DProg(DeviceId::D1),
            Column::DCache(DeviceId::D1),
            Column::D2HReq(DeviceId::D1),
            Column::H2DRsp(DeviceId::D1),
            Column::HCache,
            Column::DCache(DeviceId::D2),
            Column::Counter,
        ],
    );
    (trace, table)
}

/// Paper **Table 2** — `dirty_evict_test`: "a writeback triggered by
/// GO_WritePull".
///
/// Initial state: device 1 `(1, M)` with `DProg1 = [Evict]`, host
/// `(0, M)`, device 2 `(0, I)`.
///
/// Model note: the paper's table heads the write-back column `H2DData1`,
/// but write-back data travels device→host; we render the `D2HData1`
/// column, where the pulled data actually appears.
///
/// # Panics
/// Panics if the schedule diverges from the rule engine.
#[must_use]
pub fn table2() -> (Trace, TransitionTable) {
    let rules = Ruleset::new(ProtocolConfig::strict());
    let initial = StateBuilder::new()
        .dev_cache(DeviceId::D1, 1, DState::M)
        .dev_cache(DeviceId::D2, 0, DState::I)
        .host(0, HState::M)
        .prog(DeviceId::D1, programs::evict())
        .build();
    let schedule = [
        r1(Shape::ModifiedEvict),
        r1(Shape::HostModifiedDirtyEvict),
        r1(Shape::MiaGoWritePull),
        r1(Shape::HostIdData),
    ];
    let trace = replay(&rules, &initial, &schedule).expect("Table 2 schedule must replay");
    let table = TransitionTable::from_trace(
        "Table 2. A transition sequence witnessing dirty_evict_test, a writeback triggered \
         by GO_WritePull.",
        &trace,
        &[
            Column::DProg(DeviceId::D1),
            Column::DCache(DeviceId::D1),
            Column::D2HReq(DeviceId::D1),
            Column::H2DRsp(DeviceId::D1),
            Column::D2HData(DeviceId::D1),
            Column::HCache,
            Column::DCache(DeviceId::D2),
            Column::Counter,
        ],
    );
    (trace, table)
}

/// Paper **Table 3** — `snoop_pushes_go_test`: "a transition sequence
/// leading to an incoherent state if rule ISADSnpInv2 is broken".
///
/// Runs under the Snoop-pushes-GO relaxation; the final state has device 1
/// in `M` and device 2 in `S` — the SWMR violation of Figure 5.
///
/// Model note: the paper's table shows value 42 flowing with the grant
/// data because its `InvalidStore` rule stages the store value eagerly;
/// in this reconstruction the store value is applied at completion, so the
/// grant data carries the host's value (0) and device 1 ends at `(42, M)`
/// all the same. The rule sequence and the violation shape are identical.
///
/// # Panics
/// Panics if the schedule diverges from the rule engine.
#[must_use]
pub fn table3() -> (Trace, TransitionTable) {
    let rules = Ruleset::new(ProtocolConfig::relaxed(Relaxation::SnoopPushesGo));
    let initial = SystemState::initial(programs::store(42), programs::load());
    let schedule = [
        r1(Shape::InvalidStore),
        r2(Shape::InvalidLoad),
        r2(Shape::HostInvalidRdShared),
        r1(Shape::HostSharedRdOwnOther),
        r2(Shape::IsadSnpInvBuggy),
        r2(Shape::IsadGo),
        r2(Shape::IsdData),
        r1(Shape::HostMaSnpRsp),
        r1(Shape::ImadData),
        r1(Shape::ImaGo),
    ];
    let trace = replay(&rules, &initial, &schedule).expect("Table 3 schedule must replay");
    let table = TransitionTable::from_trace(
        "Table 3. A transition sequence witnessing snoop_pushes_go_test, leading to an \
         incoherent state if rule ISADSnpInv2 is broken. DProg1 = [Store], DProg2 = [Load].",
        &trace,
        &[
            Column::DCache(DeviceId::D1),
            Column::D2HReq(DeviceId::D1),
            Column::H2DRsp(DeviceId::D1),
            Column::H2DData(DeviceId::D1),
            Column::HCache,
            Column::D2HReq(DeviceId::D2),
            Column::D2HRsp(DeviceId::D2),
            Column::H2DReq(DeviceId::D2),
            Column::H2DRsp(DeviceId::D2),
            Column::H2DData(DeviceId::D2),
            Column::DCache(DeviceId::D2),
            Column::Counter,
        ],
    );
    (trace, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::swmr;

    #[test]
    fn table1_replays_and_ends_clean() {
        let (trace, table) = table1();
        let last = trace.last_state();
        assert!(last.is_quiescent());
        assert_eq!(last.dev(DeviceId::D1).cache.state, DState::I);
        assert_eq!(last.dev(DeviceId::D2).cache.state, DState::S);
        assert_eq!(last.host.state, HState::S);
        assert_eq!(table.rows.len(), 5, "initial + 4 transitions");
        assert!(table.to_text().contains("GO_WritePullDrop"));
    }

    #[test]
    fn table2_writes_back_the_dirty_value() {
        let (trace, _) = table2();
        let last = trace.last_state();
        assert!(last.is_quiescent());
        assert_eq!(last.host.val, 1, "the host copies the written-back value in");
        assert_eq!(last.host.state, HState::I);
    }

    #[test]
    fn table3_reaches_the_swmr_violation() {
        let (trace, table) = table3();
        let last = trace.last_state();
        assert!(!swmr(last), "the final row must be incoherent");
        assert_eq!(last.dev(DeviceId::D1).cache.state, DState::M);
        assert_eq!(last.dev(DeviceId::D1).cache.val, 42);
        assert_eq!(last.dev(DeviceId::D2).cache.state, DState::S);
        // All intermediate states except the last are coherent.
        for step in &trace.steps[..trace.steps.len() - 1] {
            assert!(swmr(&step.state));
        }
        assert!(table.to_text().contains("RspIHitI"), "the buggy response appears");
    }
}
