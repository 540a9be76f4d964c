//! Partial-order reduction: singleton ample sets of device-local steps,
//! in a conservative (statically safe) and a widened (context-checked)
//! form.
//!
//! ## The conservative tier: static safe-local steps
//!
//! At a state `s` where some device `d` has an enabled
//! [`Shape::safe_local`] step `t`, exploring **only** `t` from `s` is
//! sound for every verdict the checker reports:
//!
//! - **C0/C1 (faithfulness).** `t`'s guard reads only `d`'s cache state
//!   and program head; its action pops `d`'s program. No rule of another
//!   device or of the host reads or writes any of those components
//!   (host guards read device *channels* and cache states, never
//!   programs; no rule writes a peer's cache), so `t` commutes with every
//!   other-device and host transition — pinned dynamically by
//!   `cxl-core`'s `safe_local_steps_commute_with_every_other_device_rule`.
//!   The residual hazard of ample-set theory is a *same-device* rule
//!   becoming enabled before `t` fires (e.g. a snoop arriving); the
//!   static table rules it out: `safe_local` requires that **no shape in
//!   `t`'s cache-state bucket consumes messages**, and only `d`'s own
//!   rules can move `d` out of that bucket. That admits exactly
//!   `InvalidEvict` (eviction of an already-invalid line — the paper's
//!   "subsequent Evicts have no effect" retirement).
//! - **C2 (invisibility).** SWMR reads cache lines; the invariant's
//!   program-agreement conjuncts constrain *transient* cache states only.
//!   A pure program pop on a device in a stable state changes neither.
//! - **C3 (no ignoring).** Every safe-local step strictly decreases the
//!   total remaining instruction count, so a path of forced ample steps
//!   is finite and ends in a fully-expanded state: nothing is postponed
//!   forever, and deadlocks (non-quiescent terminal states) remain
//!   reachable.
//!
//! ## The widened tier: snoop-free contexts and completion diamonds
//!
//! [`ample_step_wide`] adds two context-dependent families, both gated on
//! the acting device's **snoop channel being empty** (`H2DReq = []`):
//!
//! - **Snoop-free local hits** ([`Shape::snoop_gated_local`]:
//!   `SharedLoad`/`ModifiedLoad`). Their buckets' only message consumers
//!   are snoop shapes, so with no snoop in flight no same-device rule can
//!   fire before the pure program pop, and every other-device/host step
//!   commutes with it exactly as in the conservative tier. What the gate
//!   does *not* exclude is the host minting a fresh snoop at `d` in a
//!   skipped interleaving and the load then *missing*: those futures
//!   re-run the same load-transaction machinery from a state the reduced
//!   search reaches with the load already (locally) retired. The stock
//!   property family is insensitive to the difference — pinned
//!   empirically, not statically, by the reduction battery's
//!   reduced-vs-unreduced verdict differentials and the
//!   counterexample-replay corpus; `wide` is accordingly opt-in and a
//!   custom property that counts *transactions* (rather than states)
//!   should not be combined with it.
//! - **GO/data completion diamonds** ([`Shape::completion_diamond`]).
//!   From `ISAD`/`IMAD`/`SMAD` with *both* the GO and the data in
//!   flight, the two consumption orders commute with each other and with
//!   every other device's steps, and converge to the **identical** state
//!   once both messages land (pinned by `cxl-core`'s
//!   `completion_diamonds_converge_to_identical_states`); with the snoop
//!   channel empty (which also disarms the relaxed `IsadSnpInvBuggy`
//!   consumer) the GO leg alone is explored. The skipped data-first
//!   intermediate differs from the explored GO-first one only in which
//!   A/D-split state the line transits (`ISA` vs `ISD` etc.); the
//!   host-side `tracked_sharer`/`tracked_owner` predicates are built to
//!   valuate identically across the split, and the stock properties
//!   never distinguish the two legs.
//!
//! ## The widened tier: host drains
//!
//! The third widened family elects a **message-consuming host rule** —
//! the first ample tier on the host side — from the static independence
//! relation the [`Shape::host_drain`] / [`Shape::device_consumes`]
//! tables encode. A host-drain step ([`Shape::HostIdData`] /
//! [`Shape::HostBlockedData`]) pops one device's `D2HData` head and
//! writes only host fields:
//!
//! - **Device independence (static).** Every device-side consumer reads
//!   `H2DReq`/`H2DRsp`/`H2DData` (the [`Shape::device_consumes`]
//!   channel table is total over device consumers), no device guard
//!   reads the host cache, and device actions only *append* to
//!   `D2HData` — so a drain (pop-head) commutes with every device step
//!   and neither enables nor disables any.
//! - **Host uniqueness (static + dynamic).** In the drain's host states
//!   (`ID`, `IB`/`SB`/`MB`) the host bucketing admits no other host
//!   shape, so the only dependent steps are drains at *other* devices
//!   (both write `HCache`, and firing one disables the other by moving
//!   the host on). The election therefore requires that at most one
//!   device is **mintable** — already holds `D2HData`, or could push it
//!   via a pending snoop (`H2DReq ≠ []`) or an in-flight
//!   `GO_WritePull` — and that the elected drain acts on that device.
//!   New snoops/pulls cannot appear before the drain fires: only host
//!   rules mint them, and none can fire first.
//! - **Visibility.** SWMR reads device caches only — a drain is
//!   invisible to it outright. The full invariant's agreement conjuncts
//!   *do* read `HCache`, so like the other widened families this tier's
//!   soundness for the stock property family is pinned empirically —
//!   by the reduced-vs-unreduced verdict differentials and the replay
//!   corpus — rather than statically; `wide` stays opt-in. The tier
//!   leans on the same strict-protocol restrictions as the rest of the
//!   widened engine plus **GO-cannot-tailgate-snoop** (which keeps
//!   responses out of a device with in-flight IWB data, the shape the
//!   mintable census assumes), and [`crate::Reduction`] withdraws it
//!   wholesale when any of the three is relaxed.
//!
//! Every widened step still consumes a message or retires an
//! instruction, so the C3 termination measure (messages + instructions)
//! strictly decreases and forced-ample chains stay finite.

use cxl_core::msg::H2DRspType;
use cxl_core::{RuleId, Ruleset, Shape, SystemState};

/// Which tier of the POR engine elected an ample step — per-engine
/// accounting for [`crate::ReductionStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmpleKind {
    /// A statically safe or snoop-free **local retirement** (program
    /// pop: `InvalidEvict`, or `SharedLoad`/`ModifiedLoad` with an empty
    /// snoop channel).
    Local,
    /// A **GO/data completion diamond** collapsed onto its GO leg.
    Diamond,
    /// A **host drain** (`HostIdData`/`HostBlockedData`) elected as the
    /// only possible host activity, with at most one mintable device.
    HostDrain,
}

/// The statically-derived safe-local shapes (see [`Shape::safe_local`]).
#[must_use]
pub fn safe_local_shapes() -> Vec<Shape> {
    Shape::ALL.iter().copied().filter(|s| s.safe_local()).collect()
}

/// The snoop-gated local shapes of the widened tier (see
/// [`Shape::snoop_gated_local`]).
#[must_use]
pub fn snoop_gated_local_shapes() -> Vec<Shape> {
    Shape::ALL.iter().copied().filter(|s| s.snoop_gated_local()).collect()
}

/// The `(GO leg, data leg)` completion diamonds of the widened tier (see
/// [`Shape::completion_diamond`]).
#[must_use]
pub fn completion_diamonds() -> Vec<(Shape, Shape)> {
    Shape::ALL.iter().filter_map(|&s| s.completion_diamond().map(|d| (s, d))).collect()
}

/// The host-drain shapes of the widened tier (see [`Shape::host_drain`]).
#[must_use]
pub fn host_drain_shapes() -> Vec<Shape> {
    Shape::ALL.iter().copied().filter(|s| s.host_drain()).collect()
}

/// The ample election: statically safe local steps first, then — for
/// devices whose snoop channel is empty — snoop-gated local hits and
/// collapsed completion diamonds, then a singleton host drain when the
/// drain is the only possible host activity (`drain_shapes` is empty
/// unless the caller established the config preconditions — see the
/// module docs). Deterministic scan order (devices ascending; tiers in
/// the order above). With `gated_shapes`, `diamonds` and `drain_shapes`
/// all empty this is the conservative tier: the first enabled safe-local
/// step, always [`AmpleKind::Local`]. `scratch` holds the successor on
/// `Some`.
#[must_use]
pub fn ample_step_wide(
    rules: &Ruleset,
    state: &SystemState,
    safe_shapes: &[Shape],
    gated_shapes: &[Shape],
    diamonds: &[(Shape, Shape)],
    drain_shapes: &[Shape],
    scratch: &mut SystemState,
) -> Option<(RuleId, AmpleKind)> {
    // The widened tiers' commutation argument leans on two restrictions
    // of the *strict* protocol, and withdraws itself when either is
    // relaxed (only the statically safe steps remain):
    //
    // - **Snoop-pushes-GO**: snoops wait behind pending GOs. Relaxed,
    //   the buggy `IsadSnpInvBuggy` consumer lets a snoop minted *after*
    //   the election overtake a diamond's remaining GO — precisely the
    //   interleaving that reaches the paper's Table 3 violation.
    // - **Precise transient tracking**: the host's sharer/owner view
    //   valuates in-flight grants like landed ones, which is what makes
    //   host guards insensitive to which diamond leg has been consumed
    //   (`ISAD`-with-GO vs `ISD`). The naive-tracking relaxation breaks
    //   exactly that equality, so host steps no longer commute across a
    //   collapsed leg and its violations live in suppressed
    //   interleavings.
    let snoops_wait =
        rules.config().snoop_pushes_go && rules.config().precise_transient_tracking;
    for d in state.device_ids() {
        let dev = state.dev(d);
        let cs = dev.cache.state;
        for &shape in safe_shapes {
            if shape.device_state_key() == Some(cs) && shape.quick_enabled(state, d) {
                let id = RuleId::new(shape, d);
                if rules.try_fire_into(id, state, scratch) {
                    return Some((id, AmpleKind::Local));
                }
            }
        }
        if !snoops_wait || !dev.h2d_req.is_empty() {
            continue;
        }
        for &shape in gated_shapes {
            if shape.device_state_key() == Some(cs) && shape.quick_enabled(state, d) {
                let id = RuleId::new(shape, d);
                if rules.try_fire_into(id, state, scratch) {
                    return Some((id, AmpleKind::Local));
                }
            }
        }
        if dev.h2d_rsp.is_empty() || dev.h2d_data.is_empty() {
            continue;
        }
        for &(go, data) in diamonds {
            // Both legs must be genuinely enabled: the GO leg's full
            // guard is checked by the firing itself, the data leg's by
            // its quick check (a data head is all consume_data needs).
            if go.device_state_key() == Some(cs)
                && go.quick_enabled(state, d)
                && data.quick_enabled(state, d)
            {
                let id = RuleId::new(go, d);
                if rules.try_fire_into(id, state, scratch) {
                    return Some((id, AmpleKind::Diamond));
                }
            }
        }
    }
    if !drain_shapes.is_empty() {
        if let Some(id) = host_drain_step(rules, state, drain_shapes, scratch) {
            return Some((id, AmpleKind::HostDrain));
        }
    }
    None
}

/// Elect a singleton host drain: the host sits in a drain-only state
/// (`ID` or blocked — no other host shape's bucket admits it), at most
/// one device is *mintable* (holds `D2HData`, or could push it via a
/// pending snoop or an in-flight `GO_WritePull`), and the drain at that
/// device actually fires. Any second mintable device means a competing
/// drain could be enabled now or later — the two write the host cache
/// and disable each other, so neither is ample alone.
fn host_drain_step(
    rules: &Ruleset,
    state: &SystemState,
    drain_shapes: &[Shape],
    scratch: &mut SystemState,
) -> Option<RuleId> {
    let hs = state.host.state;
    let mut mintable = None;
    for d in state.device_ids() {
        let dev = state.dev(d);
        if !dev.d2h_data.is_empty()
            || !dev.h2d_req.is_empty()
            || dev.h2d_rsp.iter().any(|r| r.ty == H2DRspType::GOWritePull)
        {
            if mintable.is_some() {
                return None;
            }
            mintable = Some(d);
        }
    }
    let d = mintable?;
    for &shape in drain_shapes {
        if shape.host_state_keys().is_some_and(|ks| ks.contains(&hs))
            && shape.quick_enabled(state, d)
        {
            let id = RuleId::new(shape, d);
            if rules.try_fire_into(id, state, scratch) {
                return Some(id);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;
    use cxl_core::msg::{DataMsg, H2DReq, H2DReqType, H2DRsp, H2DRspType};
    use cxl_core::{DState, DeviceId, HState, ProtocolConfig};

    #[test]
    fn ample_step_picks_the_invalid_evict() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let shapes = safe_local_shapes();
        assert_eq!(shapes, vec![Shape::InvalidEvict]);

        // The conservative tier: only the safe-local table armed.
        let s = SystemState::initial(programs::evicts(2), programs::load());
        let mut scratch = SystemState::initial_n(2, vec![]);
        let (id, kind) = ample_step_wide(&rules, &s, &shapes, &[], &[], &[], &mut scratch)
            .expect("evict on I is ample");
        assert_eq!(id, RuleId::new(Shape::InvalidEvict, DeviceId::D1));
        assert_eq!(kind, AmpleKind::Local);
        assert_eq!(scratch.dev(DeviceId::D1).prog.len(), 1, "one evict retired");

        // No safe-local step → no ample set.
        let s = SystemState::initial(programs::load(), programs::store(1));
        assert!(ample_step_wide(&rules, &s, &shapes, &[], &[], &[], &mut scratch).is_none());
    }

    #[test]
    fn wide_ample_admits_snoop_free_local_hits() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let (safe, gated, dia) =
            (safe_local_shapes(), snoop_gated_local_shapes(), completion_diamonds());
        assert_eq!(gated, vec![Shape::SharedLoad, Shape::ModifiedLoad]);

        let mut s = SystemState::initial(programs::load(), programs::store(1));
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        let mut scratch = SystemState::initial_n(2, vec![]);
        let (id, kind) = ample_step_wide(&rules, &s, &safe, &gated, &dia, &[], &mut scratch)
            .expect("snoop-free modified load is ample");
        assert_eq!(id, RuleId::new(Shape::ModifiedLoad, DeviceId::D1));
        assert_eq!(kind, AmpleKind::Local);
        assert!(scratch.dev(DeviceId::D1).prog.is_empty());

        // An in-flight snoop at the device withdraws the election.
        s.dev_mut(DeviceId::D1).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 0));
        assert!(ample_step_wide(&rules, &s, &safe, &gated, &dia, &[], &mut scratch).is_none());
    }

    #[test]
    fn wide_ample_collapses_the_go_data_diamond() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let (safe, gated, dia) =
            (safe_local_shapes(), snoop_gated_local_shapes(), completion_diamonds());

        let mut s = SystemState::initial(programs::load(), vec![]);
        let d = DeviceId::D1;
        s.dev_mut(d).cache.state = DState::ISAD;
        s.dev_mut(d).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::S, 0));
        s.dev_mut(d).h2d_data.push(DataMsg::new(0, 42));
        let mut scratch = SystemState::initial_n(2, vec![]);
        let (id, kind) = ample_step_wide(&rules, &s, &safe, &gated, &dia, &[], &mut scratch)
            .expect("full diamond is ample");
        assert_eq!(id, RuleId::new(Shape::IsadGo, d), "the GO leg is the elected one");
        assert_eq!(kind, AmpleKind::Diamond);
        assert_eq!(scratch.dev(d).cache.state, DState::ISD);

        // With only one message in flight there is no diamond to collapse.
        s.dev_mut(d).h2d_data.pop();
        assert!(ample_step_wide(&rules, &s, &safe, &gated, &dia, &[], &mut scratch).is_none());
        // And a pending snoop also withdraws it.
        s.dev_mut(d).h2d_data.push(DataMsg::new(0, 42));
        s.dev_mut(d).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 1));
        assert!(ample_step_wide(&rules, &s, &safe, &gated, &dia, &[], &mut scratch).is_none());
    }

    #[test]
    fn wide_ample_elects_a_unique_host_drain() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let (safe, gated, dia) =
            (safe_local_shapes(), snoop_gated_local_shapes(), completion_diamonds());
        let drains = host_drain_shapes();
        assert_eq!(drains, vec![Shape::HostIdData, Shape::HostBlockedData]);

        // Host waiting on an invalidating eviction's writeback, exactly
        // one device with data in flight: the drain is ample.
        let mut s = SystemState::initial(Vec::new(), Vec::new());
        s.host.state = HState::ID;
        s.dev_mut(DeviceId::D1).d2h_data.push(DataMsg::new(0, 7));
        let mut scratch = SystemState::initial_n(2, vec![]);
        let (id, kind) =
            ample_step_wide(&rules, &s, &safe, &gated, &dia, &drains, &mut scratch)
                .expect("unique host drain is ample");
        assert_eq!(id, RuleId::new(Shape::HostIdData, DeviceId::D1));
        assert_eq!(kind, AmpleKind::HostDrain);
        assert_eq!(scratch.host.val, 7, "the writeback landed");
        assert_eq!(scratch.host.state, HState::I);

        // A second mintable device — here via a pending snoop that could
        // push competing data — withdraws the election.
        s.dev_mut(DeviceId::D2).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 1));
        assert!(
            ample_step_wide(&rules, &s, &safe, &gated, &dia, &drains, &mut scratch).is_none()
        );
        // And with the drain table unarmed nothing is elected at all.
        s.dev_mut(DeviceId::D2).h2d_req.pop();
        assert!(ample_step_wide(&rules, &s, &safe, &gated, &dia, &[], &mut scratch).is_none());
    }
}
