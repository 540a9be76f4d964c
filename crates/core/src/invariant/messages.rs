//! Message-centric conjunct families: snoop-response honesty, channel
//! shape, data-channel conflicts, GO well-formedness, snoop targeting, and
//! transaction-identifier dominance.

#![allow(clippy::nonminimal_bool)] // `!(hyp ∧ bad)` mirrors the paper's implications

use super::{Conjunct, DStates, Family, Guard, Occupancy, Predicate};
use crate::cacheline::DState;
use crate::config::ProtocolConfig;
use crate::ids::{DeviceId, Topology};
use crate::msg::{D2HRspType, DBufferSlot, H2DReqType, H2DRspType};
use crate::state::SystemState;
use std::sync::Arc;

fn pred(f: impl Fn(&SystemState) -> bool + Send + Sync + 'static) -> Predicate {
    Arc::new(f)
}

/// States a device may be in while a given snoop response from it is in
/// flight. For the invalidating responses this is exactly the paper's §6
/// list: `{I, ISDI, ISAD, IMAD, IIA}` — after invalidating, the device may
/// already have issued its next transaction.
fn honest_states(ty: D2HRspType, cfg: &ProtocolConfig) -> Vec<DState> {
    match ty {
        D2HRspType::RspIHitSE | D2HRspType::RspIFwdM => {
            vec![DState::I, DState::ISDI, DState::ISAD, DState::IMAD, DState::IIA]
        }
        D2HRspType::RspSFwdM => {
            let mut v = vec![DState::S, DState::SMAD, DState::SIA];
            if cfg.clean_evict_no_data {
                v.push(DState::SIAC);
            }
            v
        }
        // Only the buggy relaxed rule emits RspIHitI; the strict invariant
        // never has to account for it.
        D2HRspType::RspIHitI => vec![DState::ISAD],
    }
}

/// "Snoop responses need to be honest" (paper §6): "If a device responds
/// to a snoop that it has invalidated its cacheline, then it must,
/// unsurprisingly, be in an invalid state."
pub(super) fn honest_snoop_conjuncts(
    cfg: &ProtocolConfig,
    topo: Topology,
    fine: bool,
) -> Vec<Conjunct> {
    let types = [D2HRspType::RspIHitSE, D2HRspType::RspIFwdM, D2HRspType::RspSFwdM];
    let mut out = Vec::new();
    for i in topo.devices() {
        for ty in types {
            let allowed = honest_states(ty, cfg);
            if fine {
                for b in DState::ALL {
                    if allowed.contains(&b) {
                        continue;
                    }
                    out.push(Conjunct::new(
                        format!("honest_{ty}_{i}_not_{b}"),
                        Family::HonestSnoop,
                        format!(
                            "paper §6 honesty atom: head(D2HRsp{i}) = {ty} ⟹ \
                             DCache{i}.State ≠ {b}"
                        ),
                        pred(move |s| {
                            !(matches!(s.dev(i).d2h_rsp.head(), Some(r) if r.ty == ty)
                                && s.dev(i).cache.state == b)
                        }),
                    )
                    .guarded(Guard::device(i, DStates::of(&[b]), Occupancy::D2H_RSP)));
                }
            } else {
                let guard =
                    Guard::device(i, DStates::of(&allowed).complement(), Occupancy::D2H_RSP);
                let allowed_txt = allowed
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push(Conjunct::new(
                    format!("honest_{ty}_{i}"),
                    Family::HonestSnoop,
                    format!(
                        "paper §6: head(D2HRsp{i}) = {ty} ⟹ DCache{i}.State ∈ \
                         {{{allowed_txt}}}"
                    ),
                    pred(move |s| {
                        match s.dev(i).d2h_rsp.head() {
                            Some(r) if r.ty == ty => allowed.contains(&s.dev(i).cache.state),
                            _ => true,
                        }
                    }),
                )
                .guarded(guard));
            }
        }
    }
    out
}

/// "Channels are singleton lists" (paper §6): "As a result of our
/// restriction to a single location, it is the case that each channel can
/// contain at most one message at any given time." One conjunct per
/// channel per device (6·N total).
pub(super) fn channel_singleton_conjuncts(topo: Topology) -> Vec<Conjunct> {
    type Len = fn(&SystemState, DeviceId) -> usize;
    let channels: [(&str, Occupancy, Len); 6] = [
        ("d2h_req", Occupancy::D2H_REQ, |s, d| s.dev(d).d2h_req.len()),
        ("d2h_rsp", Occupancy::D2H_RSP, |s, d| s.dev(d).d2h_rsp.len()),
        ("d2h_data", Occupancy::D2H_DATA, |s, d| s.dev(d).d2h_data.len()),
        ("h2d_req", Occupancy::H2D_REQ, |s, d| s.dev(d).h2d_req.len()),
        ("h2d_rsp", Occupancy::H2D_RSP, |s, d| s.dev(d).h2d_rsp.len()),
        ("h2d_data", Occupancy::H2D_DATA, |s, d| s.dev(d).h2d_data.len()),
    ];
    let mut out = Vec::new();
    for i in topo.devices() {
        for (name, channel, len) in channels {
            out.push(
                Conjunct::new(
                    format!("singleton_{name}_{i}"),
                    Family::ChannelSingleton,
                    format!("paper §6: length({name}{i}) ⩽ 1"),
                    pred(move |s| len(s, i) <= 1),
                )
                .guarded(Guard::device(i, DStates::ALL, channel)),
            );
        }
    }
    out
}

/// "Host and device data channels must not conflict" (paper §6):
/// `i ≠ j ⟹ (D2HDataᵢ = [] ∨ H2DDataⱼ = [])`.
///
/// Model notes: (a) bogus data (a stale eviction's write-back, which the
/// host discards unexamined) is exempt — it may overlap a grant in flight
/// to the other device; (b) a grant-data message stranded at a device in
/// `ISDI` (its line was revoked between GO and data; the data will be
/// consumed once and discarded) is likewise exempt; (c) the family is
/// omitted entirely when the clean-eviction *pull* option is enabled,
/// which creates further benign overlaps. The weakenings preserve the
/// conjunct's intent: no two *live* data values race.
pub(super) fn data_conflict_conjuncts(cfg: &ProtocolConfig, topo: Topology) -> Vec<Conjunct> {
    if cfg.clean_evict_pull {
        return Vec::new();
    }
    topo.ordered_pairs()
        .map(|(i, j)| {
            Conjunct::new(
                format!("data_conflict_{i}_{j}"),
                Family::DataConflict,
                format!(
                    "paper §6: no non-bogus D2HData{i} message may be in flight while a \
                     live H2DData{j} message is pending (ISDI leftovers exempt)"
                ),
                pred(move |s| {
                    let live_d2h = s.dev(i).d2h_data.iter().any(|d| !d.bogus);
                    let live_h2d =
                        !s.dev(j).h2d_data.is_empty() && s.dev(j).cache.state != DState::ISDI;
                    !(live_d2h && live_h2d)
                }),
            )
            .guarded(Guard::device(
                j,
                DStates::of(&[DState::ISDI]).complement(),
                Occupancy::H2D_DATA,
            ))
        })
        .collect()
}

/// Device states compatible with each kind of in-flight H2D response.
fn go_target_states(ty: H2DRspType, granted: DState) -> Vec<DState> {
    match (ty, granted) {
        (H2DRspType::GO, DState::S) => vec![DState::ISAD, DState::ISA],
        (H2DRspType::GO, DState::M) => {
            vec![DState::IMAD, DState::IMA, DState::SMAD, DState::SMA]
        }
        (H2DRspType::GOWritePull, _) => vec![DState::MIA, DState::SIA, DState::IIA],
        (H2DRspType::GOWritePullDrop, _) => vec![DState::SIA, DState::SIAC, DState::IIA],
        _ => vec![],
    }
}

/// An in-flight H2D response is consistent with its target's state, and
/// only grants stable states.
pub(super) fn go_wellformed_conjuncts(topo: Topology, fine: bool) -> Vec<Conjunct> {
    let mut out = Vec::new();
    for i in topo.devices() {
        if fine {
            let kinds: [(&str, H2DRspType, DState); 4] = [
                ("go_s", H2DRspType::GO, DState::S),
                ("go_m", H2DRspType::GO, DState::M),
                ("write_pull", H2DRspType::GOWritePull, DState::I),
                ("write_pull_drop", H2DRspType::GOWritePullDrop, DState::I),
            ];
            for (label, ty, granted) in kinds {
                let allowed = go_target_states(ty, granted);
                let guard =
                    Guard::device(i, DStates::of(&allowed).complement(), Occupancy::H2D_RSP);
                out.push(Conjunct::new(
                    format!("go_wf_{label}_{i}"),
                    Family::GoWellformed,
                    format!(
                        "an in-flight ({ty}, {granted}) to device {i} requires \
                         DCache{i}.State ∈ {allowed:?}"
                    ),
                    pred(move |s| match s.dev(i).h2d_rsp.head() {
                        Some(r) if r.ty == ty && (ty != H2DRspType::GO || r.state == granted) => {
                            allowed.contains(&s.dev(i).cache.state)
                        }
                        _ => true,
                    }),
                )
                .guarded(guard));
            }
            out.push(Conjunct::new(
                format!("go_wf_grants_stable_{i}"),
                Family::GoWellformed,
                format!("every H2DRsp{i} carries a stable DState (paper §3.2)"),
                pred(move |s| s.dev(i).h2d_rsp.iter().all(|r| r.state.is_stable())),
            )
            .guarded(Guard::device(i, DStates::ALL, Occupancy::H2D_RSP)));
        } else {
            out.push(Conjunct::new(
                format!("go_wf_{i}"),
                Family::GoWellformed,
                format!(
                    "every in-flight H2DRsp{i} grants a stable state consistent with \
                     DCache{i}'s transient state"
                ),
                pred(move |s| match s.dev(i).h2d_rsp.head() {
                    Some(r) => {
                        r.state.is_stable()
                            && go_target_states(r.ty, r.state).contains(&s.dev(i).cache.state)
                    }
                    None => true,
                }),
            )
            .guarded(Guard::device(i, DStates::ALL, Occupancy::H2D_RSP)));
        }
    }
    out
}

/// States in which a device may still be awaiting grant data.
const DATA_AWAITING: [DState; 7] = [
    DState::ISAD,
    DState::ISD,
    DState::ISDI,
    DState::IMAD,
    DState::IMD,
    DState::SMAD,
    DState::SMD,
];

/// Well-formedness of in-flight data and the GO/snoop interplay
/// (strengthening conjuncts found by the randomised inductiveness probe —
/// the reproduction of the paper's §7.1 iteration loop).
pub(super) fn data_wellformed_conjuncts(topo: Topology) -> Vec<Conjunct> {
    let mut out = Vec::new();
    for i in topo.devices() {
        out.push(Conjunct::new(
            format!("grant_data_targets_awaiting_{i}"),
            Family::GoWellformed,
            format!(
                "H2DData{i} ≠ [] ⟹ DCache{i} is in a data-awaiting state \
                 (ISAD/ISD/ISDI/IMAD/IMD/SMAD/SMD)"
            ),
            pred(move |s| {
                s.dev(i).h2d_data.is_empty() || DATA_AWAITING.contains(&s.dev(i).cache.state)
            }),
        )
        .guarded(Guard::device(i, DStates::of(&DATA_AWAITING).complement(), Occupancy::H2D_DATA)));
        out.push(Conjunct::new(
            format!("rsp_excludes_grant_data_{i}"),
            Family::GoWellformed,
            format!(
                "D2HRsp{i} ≠ [] ∧ H2DData{i} ≠ [] ⟹ DCache{i} = ISDI (a snoop between \
                 GO and data is the only overlap)"
            ),
            pred(move |s| {
                s.dev(i).d2h_rsp.is_empty()
                    || s.dev(i).h2d_data.is_empty()
                    || s.dev(i).cache.state == DState::ISDI
            }),
        )
        .guarded(Guard::device(
            i,
            DStates::of(&[DState::ISDI]).complement(),
            Occupancy::D2H_RSP | Occupancy::H2D_DATA,
        )));
        out.push(Conjunct::new(
            format!("evict_go_excludes_snoop_{i}"),
            Family::GoWellformed,
            format!(
                "an eviction GO in flight to device {i} excludes a concurrent snoop \
                 (the device is no longer a tracked sharer, so the host will not snoop it)"
            ),
            pred(move |s| {
                let evict_go = s.dev(i).h2d_rsp.iter().any(|r| {
                    matches!(r.ty, H2DRspType::GOWritePull | H2DRspType::GOWritePullDrop)
                });
                !evict_go || s.dev(i).h2d_req.is_empty()
            }),
        )
        .guarded(Guard::device(i, DStates::ALL, Occupancy::H2D_RSP | Occupancy::H2D_REQ)));
    }
    out
}

/// States an invalidating snoop must *not* find its target in: the host
/// never snoops a device that holds nothing (it "does not send out snoops
/// unnecessarily", paper §3.2).
const SNP_INV_FORBIDDEN: [DState; 3] = [DState::I, DState::IIA, DState::ISDI];

/// States a `SnpData` target may be in: the tracked owner, possibly still
/// completing its own upgrade.
const SNP_DATA_ALLOWED: [DState; 8] = [
    DState::M,
    DState::MIA,
    DState::IMD,
    DState::IMA,
    DState::SMD,
    DState::SMA,
    DState::IMAD,
    DState::SMAD,
];

/// An in-flight snoop targets a device that holds (or is about to hold)
/// the line.
pub(super) fn snoop_target_conjuncts(topo: Topology, fine: bool) -> Vec<Conjunct> {
    let mut out = Vec::new();
    for i in topo.devices() {
        if fine {
            for b in SNP_INV_FORBIDDEN {
                out.push(Conjunct::new(
                    format!("snp_inv_target_{i}_not_{b}"),
                    Family::SnoopTarget,
                    format!("head(H2DReq{i}) = SnpInv ⟹ DCache{i}.State ≠ {b}"),
                    pred(move |s| {
                        !(matches!(s.dev(i).h2d_req.head(), Some(r) if r.ty == H2DReqType::SnpInv)
                            && s.dev(i).cache.state == b)
                    }),
                )
                .guarded(Guard::device(i, DStates::of(&[b]), Occupancy::H2D_REQ)));
            }
            for b in DState::ALL {
                if SNP_DATA_ALLOWED.contains(&b) {
                    continue;
                }
                out.push(Conjunct::new(
                    format!("snp_data_target_{i}_not_{b}"),
                    Family::SnoopTarget,
                    format!("head(H2DReq{i}) = SnpData ⟹ DCache{i}.State ≠ {b}"),
                    pred(move |s| {
                        !(matches!(s.dev(i).h2d_req.head(), Some(r) if r.ty == H2DReqType::SnpData)
                            && s.dev(i).cache.state == b)
                    }),
                )
                .guarded(Guard::device(i, DStates::of(&[b]), Occupancy::H2D_REQ)));
            }
        } else {
            out.push(Conjunct::new(
                format!("snp_inv_target_{i}"),
                Family::SnoopTarget,
                format!(
                    "head(H2DReq{i}) = SnpInv ⟹ DCache{i}.State ∉ {{I, IIA, ISDI}} \
                     (the host never snoops an empty cache, paper §3.2)"
                ),
                pred(move |s| {
                    !(matches!(s.dev(i).h2d_req.head(), Some(r) if r.ty == H2DReqType::SnpInv)
                        && SNP_INV_FORBIDDEN.contains(&s.dev(i).cache.state))
                }),
            )
            .guarded(Guard::device(i, DStates::of(&SNP_INV_FORBIDDEN), Occupancy::H2D_REQ)));
            out.push(Conjunct::new(
                format!("snp_data_target_{i}"),
                Family::SnoopTarget,
                format!("head(H2DReq{i}) = SnpData ⟹ device {i} is the tracked owner"),
                pred(move |s| {
                    !(matches!(s.dev(i).h2d_req.head(), Some(r) if r.ty == H2DReqType::SnpData)
                        && !SNP_DATA_ALLOWED.contains(&s.dev(i).cache.state))
                }),
            )
            .guarded(Guard::device(
                i,
                DStates::of(&SNP_DATA_ALLOWED).complement(),
                Occupancy::H2D_REQ,
            )));
        }
    }
    out
}

/// Every transaction identifier in flight was minted from the counter
/// (`tid < Counter`). One conjunct per channel per device, plus the
/// buffers.
pub(super) fn counter_dominance_conjuncts(topo: Topology) -> Vec<Conjunct> {
    type MaxTid = fn(&SystemState, DeviceId) -> Option<u64>;
    let channels: [(&str, Occupancy, MaxTid); 6] = [
        ("d2h_req", Occupancy::D2H_REQ, |s, d| s.dev(d).d2h_req.iter().map(|m| m.tid).max()),
        ("d2h_rsp", Occupancy::D2H_RSP, |s, d| s.dev(d).d2h_rsp.iter().map(|m| m.tid).max()),
        ("d2h_data", Occupancy::D2H_DATA, |s, d| s.dev(d).d2h_data.iter().map(|m| m.tid).max()),
        ("h2d_req", Occupancy::H2D_REQ, |s, d| s.dev(d).h2d_req.iter().map(|m| m.tid).max()),
        ("h2d_rsp", Occupancy::H2D_RSP, |s, d| s.dev(d).h2d_rsp.iter().map(|m| m.tid).max()),
        ("h2d_data", Occupancy::H2D_DATA, |s, d| s.dev(d).h2d_data.iter().map(|m| m.tid).max()),
    ];
    let mut out = Vec::new();
    for i in topo.devices() {
        for (name, channel, max_tid) in channels {
            out.push(
                Conjunct::new(
                    format!("tid_dom_{name}_{i}"),
                    Family::CounterDominance,
                    format!("every tid in {name}{i} is below Counter"),
                    pred(move |s| max_tid(s, i).is_none_or(|t| t < s.counter)),
                )
                .guarded(Guard::device(i, DStates::ALL, channel)),
            );
        }
        out.push(
            Conjunct::new(
                format!("tid_dom_buffer_{i}"),
                Family::CounterDominance,
                format!("the tid buffered in DBuffer{i} is below Counter"),
                pred(move |s| match s.dev(i).buffer {
                    DBufferSlot::Empty => true,
                    DBufferSlot::Rsp(r) => r.tid < s.counter,
                    DBufferSlot::Req(r) => r.tid < s.counter,
                }),
            )
            .guarded(Guard::device(i, DStates::ALL, Occupancy::BUFFER)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{D2HRsp, DataMsg, H2DReq, H2DRsp};
    use crate::state::SystemState;

    #[test]
    fn honesty_matches_paper_state_list() {
        let cfg = ProtocolConfig::strict();
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).d2h_rsp.push(D2HRsp::new(D2HRspType::RspIHitSE, 0));
        s.counter = 1;
        for ok in [DState::I, DState::ISDI, DState::ISAD, DState::IMAD, DState::IIA] {
            s.dev_mut(DeviceId::D1).cache.state = ok;
            assert!(
                honest_snoop_conjuncts(&cfg, Topology::pair(), false).iter().all(|c| c.holds(&s)),
                "{ok} should be honest"
            );
        }
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        assert!(honest_snoop_conjuncts(&cfg, Topology::pair(), false).iter().any(|c| !c.holds(&s)));
        assert!(honest_snoop_conjuncts(&cfg, Topology::pair(), true).iter().any(|c| !c.holds(&s)));
    }

    #[test]
    fn singleton_flags_double_messages() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D2).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 0));
        assert!(channel_singleton_conjuncts(Topology::pair()).iter().all(|c| c.holds(&s)));
        s.dev_mut(DeviceId::D2).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 1));
        let bad: Vec<_> = channel_singleton_conjuncts(Topology::pair())
            .into_iter()
            .filter(|c| !c.holds(&s))
            .map(|c| c.name().to_string())
            .collect();
        assert_eq!(bad, vec!["singleton_h2d_req_2"]);
    }

    #[test]
    fn data_conflict_exempts_bogus() {
        let cfg = ProtocolConfig::strict();
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).d2h_data.push(DataMsg::bogus(0, 5));
        s.dev_mut(DeviceId::D2).h2d_data.push(DataMsg::new(1, 6));
        s.counter = 2;
        assert!(data_conflict_conjuncts(&cfg, Topology::pair()).iter().all(|c| c.holds(&s)), "bogus is exempt");
        s.dev_mut(DeviceId::D1).d2h_data.pop();
        s.dev_mut(DeviceId::D1).d2h_data.push(DataMsg::new(0, 5));
        assert!(data_conflict_conjuncts(&cfg, Topology::pair()).iter().any(|c| !c.holds(&s)));
        assert!(data_conflict_conjuncts(&ProtocolConfig::full(), Topology::pair()).is_empty());
    }

    #[test]
    fn go_wellformed_checks_target_state() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.counter = 1;
        s.dev_mut(DeviceId::D1).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::M, 0));
        s.dev_mut(DeviceId::D1).cache.state = DState::IMAD;
        assert!(go_wellformed_conjuncts(Topology::pair(), false).iter().all(|c| c.holds(&s)));
        s.dev_mut(DeviceId::D1).cache.state = DState::S;
        assert!(go_wellformed_conjuncts(Topology::pair(), false).iter().any(|c| !c.holds(&s)));
        assert!(go_wellformed_conjuncts(Topology::pair(), true).iter().any(|c| !c.holds(&s)));
    }

    #[test]
    fn snoop_target_rejects_snooping_empty_cache() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.counter = 1;
        s.dev_mut(DeviceId::D2).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 0));
        s.dev_mut(DeviceId::D2).cache.state = DState::I;
        assert!(snoop_target_conjuncts(Topology::pair(), false).iter().any(|c| !c.holds(&s)));
        s.dev_mut(DeviceId::D2).cache.state = DState::S;
        assert!(snoop_target_conjuncts(Topology::pair(), false).iter().all(|c| c.holds(&s)));
    }

    #[test]
    fn counter_dominance_flags_future_tids() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).d2h_req.push(crate::msg::D2HReq::new(
            crate::msg::D2HReqType::RdShared,
            7,
        ));
        assert!(counter_dominance_conjuncts(Topology::pair()).iter().any(|c| !c.holds(&s)));
        s.counter = 8;
        assert!(counter_dominance_conjuncts(Topology::pair()).iter().all(|c| c.holds(&s)));
    }
}
