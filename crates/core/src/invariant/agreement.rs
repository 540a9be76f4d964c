//! Agreement conjunct families: eviction bookkeeping, program/transient
//! agreement, host/directory agreement, and host-transient well-formedness.

use super::{Conjunct, DStates, Family, Guard, HStates, Occupancy, Predicate};
use crate::cacheline::{DState, HState};
use crate::config::ProtocolConfig;
use crate::ids::{DeviceId, Topology};
use crate::instr::Instruction;
use crate::msg::{D2HReqType, H2DReqType, H2DRspType};
use crate::state::SystemState;
use std::sync::Arc;

fn pred(f: impl Fn(&SystemState) -> bool + Send + Sync + 'static) -> Predicate {
    Arc::new(f)
}

/// The conjunct `HCache.State ∈ states ⟹ consequent`, guarded by its
/// antecedent's host states.
fn host_implies(
    name: impl Into<String>,
    family: Family,
    doc: impl Into<String>,
    states: HStates,
    consequent: impl Fn(&SystemState) -> bool + Send + Sync + 'static,
) -> Conjunct {
    Conjunct::new(name, family, doc, pred(move |s| !states.contains(s.host.state) || consequent(s)))
        .guarded(Guard::host(states))
}

/// Device states compatible with a given eviction request in flight.
fn evict_req_states(ty: D2HReqType, cfg: &ProtocolConfig) -> Vec<DState> {
    match ty {
        // A DirtyEvict's line may have been cleaned (SnpData → SIA) or
        // invalidated (SnpInv → IIA) while the request was in flight.
        D2HReqType::DirtyEvict => vec![DState::MIA, DState::SIA, DState::IIA],
        D2HReqType::CleanEvict => vec![DState::SIA, DState::IIA],
        D2HReqType::CleanEvictNoData if cfg.clean_evict_no_data => {
            vec![DState::SIAC, DState::IIA]
        }
        // Without the option the request is never sent at all.
        D2HReqType::CleanEvictNoData => vec![],
        _ => vec![],
    }
}

/// Does device `i` have evidence of a live eviction transaction: an evict
/// request still queued, or an eviction GO in flight?
fn evict_transaction_alive(s: &SystemState, i: DeviceId) -> bool {
    let dev = s.dev(i);
    dev.d2h_req.iter().any(|r| r.ty.is_evict())
        || dev
            .h2d_rsp
            .iter()
            .any(|r| matches!(r.ty, H2DRspType::GOWritePull | H2DRspType::GOWritePullDrop))
}

/// Eviction requests and eviction transient states agree.
pub(super) fn evict_consistency_conjuncts(
    cfg: &ProtocolConfig,
    topo: Topology,
    fine: bool,
) -> Vec<Conjunct> {
    let req_types =
        [D2HReqType::CleanEvict, D2HReqType::DirtyEvict, D2HReqType::CleanEvictNoData];
    let mut out = Vec::new();
    for i in topo.devices() {
        for ty in req_types {
            let allowed = evict_req_states(ty, cfg);
            if ty == D2HReqType::CleanEvictNoData && allowed.is_empty() {
                // The message cannot occur under this configuration; the
                // vacuous conjunct asserts exactly that.
                out.push(
                    Conjunct::new(
                        format!("evict_req_absent_{ty}_{i}"),
                        Family::EvictConsistency,
                        format!("{ty} is never sent when the option is disabled"),
                        pred(move |s| !s.dev(i).d2h_req.iter().any(|r| r.ty == ty)),
                    )
                    .guarded(Guard::device(i, DStates::ALL, Occupancy::D2H_REQ)),
                );
                continue;
            }
            if fine {
                for b in DState::ALL {
                    if allowed.contains(&b) {
                        continue;
                    }
                    out.push(Conjunct::new(
                        format!("evict_req_{ty}_{i}_not_{b}"),
                        Family::EvictConsistency,
                        format!("head(D2HReq{i}) = {ty} ⟹ DCache{i}.State ≠ {b}"),
                        pred(move |s| {
                            !(matches!(s.dev(i).d2h_req.head(), Some(r) if r.ty == ty)
                                && s.dev(i).cache.state == b)
                        }),
                    )
                    .guarded(Guard::device(i, DStates::of(&[b]), Occupancy::D2H_REQ)));
                }
            } else {
                let guard =
                    Guard::device(i, DStates::of(&allowed).complement(), Occupancy::D2H_REQ);
                out.push(Conjunct::new(
                    format!("evict_req_{ty}_{i}"),
                    Family::EvictConsistency,
                    format!("head(D2HReq{i}) = {ty} ⟹ DCache{i}.State ∈ {allowed:?}"),
                    pred(move |s| match s.dev(i).d2h_req.head() {
                        Some(r) if r.ty == ty => allowed.contains(&s.dev(i).cache.state),
                        _ => true,
                    }),
                )
                .guarded(guard));
            }
        }
        // Every eviction transient state has a live transaction behind it.
        for st in [DState::MIA, DState::SIA, DState::SIAC, DState::IIA] {
            out.push(Conjunct::new(
                format!("evict_state_live_{st}_{i}"),
                Family::EvictConsistency,
                format!(
                    "DCache{i}.State = {st} ⟹ an eviction request or eviction GO for \
                     device {i} is in flight"
                ),
                pred(move |s| s.dev(i).cache.state != st || evict_transaction_alive(s, i)),
            )
            .guarded(Guard::device(i, DStates::of(&[st]), Occupancy::NONE)));
        }
    }
    out
}

/// The instruction a transient device state must be working for.
fn required_instr(st: DState) -> Option<fn(&Instruction) -> bool> {
    match st {
        DState::ISAD | DState::ISD | DState::ISA | DState::ISDI => {
            Some(|i| matches!(i, Instruction::Load))
        }
        DState::IMAD | DState::IMD | DState::IMA | DState::SMAD | DState::SMD | DState::SMA => {
            Some(|i| matches!(i, Instruction::Store(_)))
        }
        DState::MIA | DState::SIA | DState::SIAC | DState::IIA => {
            Some(|i| matches!(i, Instruction::Evict))
        }
        _ => None,
    }
}

/// A transient device state matches the instruction driving it (the
/// programs "only serve to trigger coherence transactions", paper §3.1 —
/// so a transaction in flight always has its trigger at the program head).
pub(super) fn program_agreement_conjuncts(topo: Topology, fine: bool) -> Vec<Conjunct> {
    let mut out = Vec::new();
    for i in topo.devices() {
        if fine {
            for st in DState::ALL {
                let Some(matches_instr) = required_instr(st) else { continue };
                out.push(Conjunct::new(
                    format!("prog_agree_{st}_{i}"),
                    Family::ProgramAgreement,
                    format!("DCache{i}.State = {st} ⟹ head(DProg{i}) is its trigger"),
                    pred(move |s| {
                        s.dev(i).cache.state != st
                            || s.dev(i).prog.first().is_some_and(matches_instr)
                    }),
                )
                .guarded(Guard::device(i, DStates::of(&[st]), Occupancy::NONE)));
            }
        } else {
            out.push(Conjunct::new(
                format!("prog_agree_{i}"),
                Family::ProgramAgreement,
                format!(
                    "every transient state of device {i} has its triggering instruction at \
                     the head of DProg{i}"
                ),
                pred(move |s| match required_instr(s.dev(i).cache.state) {
                    Some(matches_instr) => s.dev(i).prog.first().is_some_and(matches_instr),
                    None => true,
                }),
            )
            .guarded(Guard::device(
                i,
                DStates::matching(|st| required_instr(st).is_some()),
                Occupancy::NONE,
            )));
        }
    }
    out
}

/// The host/directory state agrees with the tracked device states
/// (the flip side of the paper's perfect-tracking assumption, §8).
pub(super) fn host_agreement_conjuncts(topo: Topology) -> Vec<Conjunct> {
    let owned = HStates::of(&[HState::M, HState::MB]);
    let mut out = Vec::new();
    for i in topo.devices() {
        out.push(host_implies(
            format!("host_i_empty_{i}"),
            Family::HostAgreement,
            format!("HCache.State = I ⟹ device {i} neither shares nor owns the line"),
            HStates::of(&[HState::I]),
            move |s| !s.tracked_sharer(i) && !s.tracked_owner(i),
        ));
        out.push(host_implies(
            format!("host_s_no_owner_{i}"),
            Family::HostAgreement,
            format!("HCache.State = S ⟹ device {i} does not own the line"),
            HStates::of(&[HState::S]),
            move |s| !s.tracked_owner(i),
        ));
    }
    out.push(host_implies(
        "host_s_has_sharer",
        Family::HostAgreement,
        "HCache.State = S ⟹ some device shares (or is about to share) the line",
        HStates::of(&[HState::S]),
        |s| s.device_ids().any(|d| s.tracked_sharer(d)),
    ));
    out.push(host_implies(
        "host_m_has_owner",
        Family::HostAgreement,
        "HCache.State = M ⟹ some device owns (or is about to own) the line",
        HStates::of(&[HState::M]),
        |s| s.device_ids().any(|d| s.tracked_owner(d)),
    ));
    out.push(host_implies(
        "host_m_unique_owner",
        Family::HostAgreement,
        "HCache.State ∈ {M, MB} ⟹ at most one device owns the line",
        owned,
        |s| s.device_ids().filter(|&d| s.tracked_owner(d)).count() <= 1,
    ));
    for (i, j) in topo.ordered_pairs() {
        out.push(host_implies(
            format!("host_m_owner_excludes_{i}_{j}"),
            Family::HostAgreement,
            format!(
                "HCache.State ∈ {{M, MB}} ∧ device {i} owns the line ⟹ device {j} does \
                 not share it"
            ),
            owned,
            move |s| !(s.tracked_owner(i) && s.tracked_sharer(j)),
        ));
    }
    // Blocked (`…B`) and data-awaiting (`ID`) host states must agree with
    // the stable state they resolve to — without these, a blocked host
    // could unblock into directory drift. (A strengthening conjunct found
    // by the randomised inductiveness probe, reproducing the paper's §7.1
    // iteration loop: the probe exhibited an `MB` state with no owner that
    // stepped to `M` with no owner.)
    out.push(host_implies(
        "host_mb_has_owner",
        Family::HostAgreement,
        "HCache.State = MB ⟹ some device owns (or is about to own) the line",
        HStates::of(&[HState::MB]),
        |s| s.device_ids().any(|d| s.tracked_owner(d)),
    ));
    out.push(host_implies(
        "host_sb_has_sharer",
        Family::HostAgreement,
        "HCache.State = SB ⟹ some device shares (or is about to share) the line",
        HStates::of(&[HState::SB]),
        |s| s.device_ids().any(|d| s.tracked_sharer(d)),
    ));
    for i in topo.devices() {
        out.push(host_implies(
            format!("host_sb_ib_no_owner_{i}"),
            Family::HostAgreement,
            format!("HCache.State ∈ {{SB, IB}} ⟹ device {i} does not own the line"),
            HStates::of(&[HState::SB, HState::IB]),
            move |s| !s.tracked_owner(i),
        ));
        out.push(host_implies(
            format!("host_ib_id_empty_{i}"),
            Family::HostAgreement,
            format!(
                "HCache.State ∈ {{IB, ID}} ⟹ device {i} neither shares nor owns the line"
            ),
            HStates::of(&[HState::IB, HState::ID]),
            move |s| !s.tracked_sharer(i) && !s.tracked_owner(i),
        ));
    }
    out
}

/// A blocked or data-awaiting host has the matching traffic in flight.
pub(super) fn blocked_host_conjuncts() -> Vec<Conjunct> {
    let pull_outstanding = |s: &SystemState| {
        s.device_ids().any(|d| {
            !s.dev(d).d2h_data.is_empty()
                || s.dev(d).h2d_rsp.iter().any(|r| r.ty == H2DRspType::GOWritePull)
        })
    };
    vec![
        host_implies(
            "blocked_host_has_pull",
            Family::BlockedHost,
            "HCache.State ∈ {IB, SB, MB} ⟹ a WritePull or its data is in flight",
            HStates::matching(HState::is_blocked_on_pull),
            pull_outstanding,
        ),
        host_implies(
            "id_host_has_writeback",
            Family::BlockedHost,
            "HCache.State = ID ⟹ a WritePull or its write-back data is in flight",
            HStates::of(&[HState::ID]),
            pull_outstanding,
        ),
    ]
}

/// A host transient state has a well-formed requester and a live snoop
/// transaction.
pub(super) fn host_transient_conjuncts(_fine: bool) -> Vec<Conjunct> {
    let s_requester = |s: &SystemState| {
        s.device_ids().any(|d| {
            matches!(s.dev(d).cache.state, DState::ISAD | DState::ISA)
                && s.dev(d).h2d_rsp.is_empty()
        })
    };
    let m_requester = |s: &SystemState| {
        s.device_ids().any(|d| {
            matches!(
                s.dev(d).cache.state,
                DState::IMAD | DState::IMA | DState::SMAD | DState::SMA
            ) && s.dev(d).h2d_rsp.is_empty()
        })
    };
    let snoop_or_rsp = |s: &SystemState, ty: H2DReqType| {
        s.device_ids().any(|d| {
            s.dev(d).h2d_req.iter().any(|r| r.ty == ty) || !s.dev(d).d2h_rsp.is_empty()
        })
    };
    let data_pending =
        |s: &SystemState| s.device_ids().any(|d| !s.dev(d).d2h_data.is_empty());

    vec![
        host_implies(
            "host_granting_s_has_requester",
            Family::HostTransient,
            "HCache.State ∈ {SAD, SD, SA} ⟹ a device awaits its GO-S in ISAD or ISA",
            HStates::matching(HState::is_granting_s),
            s_requester,
        ),
        host_implies(
            "host_granting_m_has_requester",
            Family::HostTransient,
            "HCache.State ∈ {MAD, MA, MD} ⟹ a device awaits its GO-M",
            HStates::matching(HState::is_granting_m),
            m_requester,
        ),
        host_implies(
            "host_sad_transaction_alive",
            Family::HostTransient,
            "HCache.State = SAD ⟹ the SnpData or its response is still in flight",
            HStates::of(&[HState::SAD]),
            move |s| snoop_or_rsp(s, H2DReqType::SnpData) || data_pending(s),
        ),
        host_implies(
            "host_mad_ma_transaction_alive",
            Family::HostTransient,
            "HCache.State ∈ {MAD, MA} ⟹ the SnpInv or its response is still in flight",
            HStates::of(&[HState::MAD, HState::MA]),
            move |s| snoop_or_rsp(s, H2DReqType::SnpInv),
        ),
        host_implies(
            "host_md_data_pending",
            Family::HostTransient,
            "HCache.State = MD ⟹ the owner's forwarded data is still in flight",
            HStates::of(&[HState::MD]),
            data_pending,
        ),
        host_implies(
            "host_sd_sa_no_owner",
            Family::HostTransient,
            "HCache.State ∈ {SD, SA} ⟹ no device owns the line (the owner has already \
             downgraded)",
            HStates::of(&[HState::SD, HState::SA]),
            |s| s.device_ids().all(|d| !s.tracked_owner(d)),
        ),
        host_implies(
            "host_sd_data_pending",
            Family::HostTransient,
            "HCache.State = SD ⟹ the owner's forwarded data is still in flight",
            HStates::of(&[HState::SD]),
            data_pending,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::programs;
    use crate::msg::{D2HReq, DataMsg, H2DRsp};

    #[test]
    fn evict_req_requires_evicting_state() {
        let cfg = ProtocolConfig::strict();
        let mut s = SystemState::initial(programs::evict(), vec![]);
        s.counter = 1;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::DirtyEvict, 0));
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        assert!(evict_consistency_conjuncts(&cfg, Topology::pair(), false).iter().any(|c| !c.holds(&s)));
        s.dev_mut(DeviceId::D1).cache.state = DState::MIA;
        assert!(evict_consistency_conjuncts(&cfg, Topology::pair(), false).iter().all(|c| c.holds(&s)));
        assert!(evict_consistency_conjuncts(&cfg, Topology::pair(), true).iter().all(|c| c.holds(&s)));
    }

    #[test]
    fn evicting_state_needs_live_transaction() {
        let cfg = ProtocolConfig::strict();
        let mut s = SystemState::initial(programs::evict(), vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::MIA;
        assert!(evict_consistency_conjuncts(&cfg, Topology::pair(), false).iter().any(|c| !c.holds(&s)));
        s.dev_mut(DeviceId::D1)
            .h2d_rsp
            .push(H2DRsp::new(H2DRspType::GOWritePull, DState::I, 0));
        s.counter = 1;
        assert!(evict_consistency_conjuncts(&cfg, Topology::pair(), false).iter().all(|c| c.holds(&s)));
    }

    #[test]
    fn program_agreement_ties_states_to_instructions() {
        let mut s = SystemState::initial(programs::load(), vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::IMAD;
        assert!(
            program_agreement_conjuncts(Topology::pair(), false).iter().any(|c| !c.holds(&s)),
            "IMAD needs a Store at the head"
        );
        s.dev_mut(DeviceId::D1).cache.state = DState::ISAD;
        assert!(program_agreement_conjuncts(Topology::pair(), false).iter().all(|c| c.holds(&s)));
        assert!(program_agreement_conjuncts(Topology::pair(), true).iter().all(|c| c.holds(&s)));
    }

    #[test]
    fn host_agreement_catches_directory_drift() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.host.state = HState::I;
        s.dev_mut(DeviceId::D1).cache.state = DState::S;
        assert!(host_agreement_conjuncts(Topology::pair()).iter().any(|c| !c.holds(&s)));
        s.host.state = HState::S;
        assert!(host_agreement_conjuncts(Topology::pair()).iter().all(|c| c.holds(&s)));
        // Host S with an owner is drift too.
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        assert!(host_agreement_conjuncts(Topology::pair()).iter().any(|c| !c.holds(&s)));
    }

    #[test]
    fn evicting_device_with_granted_evict_is_not_a_sharer() {
        // After the host answers a CleanEvict, the SIA device no longer
        // counts as a sharer, so host I is consistent.
        let mut s = SystemState::initial(programs::evict(), vec![]);
        s.host.state = HState::I;
        s.dev_mut(DeviceId::D1).cache.state = DState::SIA;
        s.dev_mut(DeviceId::D1)
            .h2d_rsp
            .push(H2DRsp::new(H2DRspType::GOWritePullDrop, DState::I, 0));
        s.counter = 1;
        assert!(
            host_agreement_conjuncts(Topology::pair()).iter().all(|c| c.holds(&s)),
            "granted eviction must not count as sharing"
        );
    }

    #[test]
    fn blocked_host_requires_pull_traffic() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.host.state = HState::MB;
        assert!(blocked_host_conjuncts().iter().any(|c| !c.holds(&s)));
        s.dev_mut(DeviceId::D1).d2h_data.push(DataMsg::bogus(0, 1));
        s.counter = 1;
        assert!(blocked_host_conjuncts().iter().all(|c| c.holds(&s)));
    }

    #[test]
    fn host_transient_requires_requester() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.host.state = HState::MA;
        assert!(host_transient_conjuncts(false).iter().any(|c| !c.holds(&s)));
        s.dev_mut(DeviceId::D1).cache.state = DState::IMAD;
        s.dev_mut(DeviceId::D2).d2h_rsp.push(crate::msg::D2HRsp::new(
            crate::msg::D2HRspType::RspIHitSE,
            0,
        ));
        s.counter = 1;
        assert!(host_transient_conjuncts(false).iter().all(|c| c.holds(&s)));
    }
}
