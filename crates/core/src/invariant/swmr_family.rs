//! SWMR, transient-SWMR, and data-value conjunct families.
//!
//! Pair families instantiate once per **ordered device pair** of the
//! topology (the paper's two-device model has exactly the pairs (1,2) and
//! (2,1); an N-device topology has N·(N−1) of them), per-device families
//! once per device.

#![allow(clippy::nonminimal_bool)] // `!(hyp ∧ bad)` mirrors the paper's implications

use super::{Conjunct, DStates, Family, Guard, Occupancy, Predicate};
use crate::cacheline::{DState, HState};
use crate::ids::{DeviceId, Topology};
use crate::msg::H2DReqType;
use crate::state::SystemState;
use std::sync::Arc;

fn pred(f: impl Fn(&SystemState) -> bool + Send + Sync + 'static) -> Predicate {
    Arc::new(f)
}

/// Definition 6.1, one instance per ordered device pair.
pub(super) fn swmr_conjuncts(topo: Topology) -> Vec<Conjunct> {
    topo.ordered_pairs()
        .map(|(i, j)| {
            Conjunct::new(
                format!("swmr_{i}_{j}"),
                Family::Swmr,
                format!(
                    "Definition 6.1: ¬(DCache{i}.State = M ∧ DCache{j}.State ∈ {{S, M}})"
                ),
                pred(move |s| {
                    !(s.dev(i).cache.state == DState::M
                        && matches!(s.dev(j).cache.state, DState::S | DState::M))
                }),
            )
            .guarded(Guard::device(i, DStates::of(&[DState::M]), Occupancy::NONE))
        })
        .collect()
}

/// Has device `i` effectively been granted ownership: either its GO-M has
/// been consumed (`IMD`/`SMD`) or it is still in flight (paper §6:
/// "DCache1.State ∈ {IMD, SMD} ∨ DCache1.State ∈ {IMAD, SMAD} ∧
/// H2DRsp1 ≠ []"; we additionally cover the data-first states `IMA`/`SMA`,
/// whose GO may equally be in flight).
fn granted_m(s: &SystemState, i: DeviceId) -> bool {
    let dev = s.dev(i);
    GRANTED.contains(dev.cache.state)
        || (GRANTED_ONCE_GO.contains(dev.cache.state) && !dev.h2d_rsp.is_empty())
}

/// States in which a device has consumed its GO-M.
const GRANTED: DStates = DStates::of(&[DState::IMD, DState::SMD]);

/// States in which a device's GO-M may still be in flight.
const GRANTED_ONCE_GO: DStates =
    DStates::of(&[DState::IMAD, DState::SMAD, DState::IMA, DState::SMA]);

/// Peer states whose pending GO the transient-SWMR conjunct forbids.
const GO_PENDING: [DState; 3] = [DState::ISAD, DState::IMAD, DState::SMAD];

/// Is an invalidating snoop on its way to device `j` (the carve-out of the
/// paper's transient-SWMR conjunct: "unless a SnpInv is on its way to
/// invalidate that valid cache")?
fn snp_inv_inbound(s: &SystemState, j: DeviceId) -> bool {
    matches!(s.dev(j).h2d_req.head(), Some(req) if req.ty == H2DReqType::SnpInv)
}

/// The device states a peer must *not* be in while `i` holds a grant of
/// ownership (paper §6 lists exactly these eight).
const FORBIDDEN_WHILE_GRANTED: [DState; 8] = [
    DState::ISD,
    DState::IMD,
    DState::SMD,
    DState::ISA,
    DState::IMA,
    DState::SMA,
    DState::S,
    DState::M,
];

/// "Transient states need similar SWMR constraints" (paper §6): if device
/// `i` has (almost) upgraded to M, no peer may hold a valid or
/// about-to-be-valid copy, unless a `SnpInv` is on its way to revoke it.
/// One conjunct per ordered device pair.
///
/// Model note: the paper's printed conjunct also demands `H2DData_j = []`.
/// In our reconstruction a stale grant-data message may legitimately
/// linger while `j` sits in `ISDI` (snoop processed between GO and data);
/// the data clause therefore carves out `ISDI`, where the data will be
/// consumed once and discarded.
pub(super) fn transient_swmr_conjuncts(topo: Topology, fine: bool) -> Vec<Conjunct> {
    let mut out = Vec::new();
    for (i, j) in topo.ordered_pairs() {
        if fine {
            // One atom per forbidden state of the other device.
            for b in FORBIDDEN_WHILE_GRANTED {
                out.push(Conjunct::new(
                    format!("transient_swmr_{i}_{j}_not_{b}"),
                    Family::TransientSwmr,
                    format!(
                        "paper §6 transient-SWMR atom: granted_m({i}) ∧ ¬SnpInv→{j} ⟹ \
                         DCache{j}.State ≠ {b}"
                    ),
                    pred(move |s| {
                        !(granted_m(s, i)
                            && !snp_inv_inbound(s, j)
                            && s.dev(j).cache.state == b)
                    }),
                )
                .guarded(Guard::device(j, DStates::of(&[b]), Occupancy::NONE)));
            }
            out.push(Conjunct::new(
                format!("transient_swmr_{i}_{j}_no_data"),
                Family::TransientSwmr,
                format!(
                    "paper §6 transient-SWMR atom: granted_m({i}) ∧ ¬SnpInv→{j} ⟹ \
                     H2DData{j} = [] (modulo the ISDI carve-out)"
                ),
                pred(move |s| {
                    !(granted_m(s, i)
                        && !snp_inv_inbound(s, j)
                        && !s.dev(j).h2d_data.is_empty()
                        && s.dev(j).cache.state != DState::ISDI)
                }),
            )
            .guarded(Guard::device(
                j,
                DStates::of(&[DState::ISDI]).complement(),
                Occupancy::H2D_DATA,
            )));
            out.push(Conjunct::new(
                format!("transient_swmr_{i}_{j}_no_pending_go"),
                Family::TransientSwmr,
                format!(
                    "paper §6 transient-SWMR atom: granted_m({i}) ∧ ¬SnpInv→{j} ⟹ \
                     (DCache{j} ∉ {{ISAD, IMAD, SMAD}} ∨ H2DRsp{j} = [])"
                ),
                pred(move |s| {
                    !(granted_m(s, i)
                        && !snp_inv_inbound(s, j)
                        && GO_PENDING.contains(&s.dev(j).cache.state)
                        && !s.dev(j).h2d_rsp.is_empty())
                }),
            )
            .guarded(Guard::device(j, DStates::of(&GO_PENDING), Occupancy::H2D_RSP)));
        } else {
            out.push(Conjunct::new(
                format!("transient_swmr_{i}_{j}"),
                Family::TransientSwmr,
                format!(
                    "paper §6: if device {i} has (almost) upgraded to M and no SnpInv is on \
                     its way to device {j}, then device {j} holds no valid or about-to-be-valid \
                     copy"
                ),
                pred(move |s| {
                    if !granted_m(s, i) || snp_inv_inbound(s, j) {
                        return true;
                    }
                    let dj = s.dev(j);
                    !FORBIDDEN_WHILE_GRANTED.contains(&dj.cache.state)
                        && (dj.h2d_data.is_empty() || dj.cache.state == DState::ISDI)
                        && (!GO_PENDING.contains(&dj.cache.state) || dj.h2d_rsp.is_empty())
                }),
            )
            .guarded(Guard::device(i, GRANTED.union(GRANTED_ONCE_GO), Occupancy::NONE)));
        }
    }
    out
}

/// The data-value invariant (our extension; the paper leaves it as future
/// work, §6): when the host line is shared, every shared device copy
/// agrees with the host value.
pub(super) fn data_value_conjuncts(topo: Topology) -> Vec<Conjunct> {
    topo.devices()
        .map(|i| {
            Conjunct::new(
                format!("data_value_shared_{i}"),
                Family::DataValue,
                format!(
                    "data-value invariant (paper future work): HCache.State ∈ {{S, SB}} ∧ \
                     DCache{i}.State = S ⟹ DCache{i}.Val = HCache.Val"
                ),
                pred(move |s| {
                    !(matches!(s.host.state, HState::S | HState::SB)
                        && s.dev(i).cache.state == DState::S
                        && s.dev(i).cache.val != s.host.val)
                }),
            )
            .guarded(Guard::device(i, DStates::of(&[DState::S]), Occupancy::NONE))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{H2DReq, H2DRsp, H2DRspType};
    use crate::state::SystemState;

    #[test]
    fn granted_m_requires_go_in_flight_for_ad_states() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::IMAD;
        assert!(!granted_m(&s, DeviceId::D1));
        s.dev_mut(DeviceId::D1).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::M, 0));
        assert!(granted_m(&s, DeviceId::D1));
        s.dev_mut(DeviceId::D2).cache.state = DState::IMD;
        assert!(granted_m(&s, DeviceId::D2), "IMD means the GO was already consumed");
    }

    #[test]
    fn pair_families_scale_with_the_topology() {
        assert_eq!(swmr_conjuncts(Topology::pair()).len(), 2);
        assert_eq!(swmr_conjuncts(Topology::new(3)).len(), 6);
        assert_eq!(swmr_conjuncts(Topology::new(4)).len(), 12);
        assert_eq!(data_value_conjuncts(Topology::new(3)).len(), 3);
    }

    #[test]
    fn transient_swmr_rejects_grant_while_other_shared() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::IMD;
        s.dev_mut(DeviceId::D2).cache.state = DState::S;
        for c in transient_swmr_conjuncts(Topology::pair(), false) {
            if c.name() == "transient_swmr_1_2" {
                assert!(!c.holds(&s));
            }
        }
        // …but the SnpInv carve-out allows it while the revocation is in
        // flight.
        s.dev_mut(DeviceId::D2).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 0));
        for c in transient_swmr_conjuncts(Topology::pair(), false) {
            assert!(c.holds(&s), "{c} should accept the carved-out state");
        }
    }

    #[test]
    fn transient_swmr_covers_third_device_copies() {
        // Device 1 granted M; device 3 (not device 2) holds S with no
        // SnpInv inbound: the (1,3) pair conjunct must reject the state.
        let mut s = SystemState::initial_n(3, vec![]);
        s.dev_mut(DeviceId::new(0)).cache.state = DState::IMD;
        s.dev_mut(DeviceId::new(2)).cache.state = DState::S;
        let cs = transient_swmr_conjuncts(Topology::new(3), false);
        assert!(cs.iter().any(|c| !c.holds(&s)), "third-device copy must be caught");
        let violated: Vec<_> =
            cs.iter().filter(|c| !c.holds(&s)).map(|c| c.name()).collect();
        assert_eq!(violated, vec!["transient_swmr_1_3"]);
    }

    #[test]
    fn fine_atoms_cover_the_standard_conjunct() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::SMD;
        s.dev_mut(DeviceId::D2).cache.state = DState::ISA;
        let std_violated =
            transient_swmr_conjuncts(Topology::pair(), false).iter().any(|c| !c.holds(&s));
        let fine_violated =
            transient_swmr_conjuncts(Topology::pair(), true).iter().any(|c| !c.holds(&s));
        assert!(std_violated && fine_violated);
    }

    #[test]
    fn data_value_detects_divergent_shared_copy() {
        let mut s = SystemState::initial(vec![], vec![]);
        s.host = crate::cacheline::HCache::new(10, HState::S);
        s.dev_mut(DeviceId::D1).cache = crate::cacheline::DCache::new(10, DState::S);
        assert!(data_value_conjuncts(Topology::pair()).iter().all(|c| c.holds(&s)));
        s.dev_mut(DeviceId::D1).cache.val = 11;
        assert!(data_value_conjuncts(Topology::pair()).iter().any(|c| !c.holds(&s)));
    }
}
