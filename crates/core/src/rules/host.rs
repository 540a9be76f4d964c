//! Host-side transition rules: request admission, snoop-response and data
//! collection, and eviction processing.
//!
//! The modelled host is a *blocking* directory: a new device-to-host
//! request is accepted only while the host line is in a stable state, which
//! serialises transactions (the printed host rules of paper Fig. 4 imply
//! this via their guards). Rules whose guards inspect a device's cache
//! state embody the paper's **perfect tracking** assumption (§8): "Our
//! model assumes that the host does perfect tracking as if it can look at
//! the state of the device caches."
//!
//! Like the device rules, every rule here is in **fire-into** form: guards
//! run against the borrowed pre-state, and only a fully-guarded firing
//! `clone_from`s into the caller's reusable scratch successor.
//!
//! ## N-device generalisation
//!
//! The paper fixes the system to two devices, so its host rules speak of
//! "the other device". Here every such guard quantifies over the
//! requester's *peers* (all devices but the requester):
//!
//! - "no other sharer" becomes `∀p ≠ r. ¬tracked_sharer(p)`;
//! - "snoop the owner" finds the unique tracked owner among the peers;
//! - "snoop the other sharer" snoops **every** tracked sharer peer at
//!   once, and the `MA` collection rule sends the GO only after the last
//!   outstanding snoop response has been consumed;
//! - each collection rule (consuming a snoop response or forwarded data,
//!   or snooping the owner) is one function of an explicit peer `o`. The
//!   unreduced search fires it as the first peer, in ascending order, that
//!   fires; the symmetry engine fires it once per peer. So the lowest-peer
//!   successor is the first firing variant. Interleavings with device
//!   actions remain fully nondeterministic.
//!
//! For `N = 2` each quantifier collapses to the single other device, and
//! exploration is bit-identical to the closed two-device model (held by
//! the repo's differential tests).
//!
//! Two further CXL restrictions appear as guards here:
//! - **GO-cannot-tailgate-snoop** ([`go_launch_allowed`]);
//! - **one-snoop-per-line** ([`snoop_launch_allowed`]).

use crate::cacheline::{DState, HState};
use crate::config::ProtocolConfig;
use crate::ids::{DeviceId, Topology};
use crate::msg::{
    D2HReq, D2HReqType, D2HRsp, D2HRspType, DBufferSlot, DataMsg, H2DReq, H2DReqType, H2DRsp,
    H2DRspType,
};
use crate::state::SystemState;

/// May the host launch an H2D response (GO / WritePull / WritePullDrop) to
/// device `r`?
///
/// "When the host is sending a snoop to the device, the requirement is
/// that no GO response will be sent to any requests with that address in
/// the device until after the Host has received a response for the snoop
/// and all implicit writeback (IWB) data [...] has been received"
/// (CXL §3.2.5.2, quoted in paper §3.3). Modelled as: the target's H2DReq,
/// D2HRsp and D2HData channels must be empty.
fn go_launch_allowed(s: &SystemState, r: DeviceId, cfg: &ProtocolConfig) -> bool {
    !cfg.go_cannot_tailgate_snoop
        || (s.dev(r).h2d_req.is_empty()
            && s.dev(r).d2h_rsp.is_empty()
            && s.dev(r).d2h_data.is_empty())
}

/// May the host dispatch a snoop to device `t`?
///
/// "The host must wait until it has received both the snoop response and
/// all IWB data (if any) before dispatching the next snoop to that
/// address" (CXL §3.2.5.5, quoted in paper §4.2).
fn snoop_launch_allowed(s: &SystemState, t: DeviceId, cfg: &ProtocolConfig) -> bool {
    !cfg.one_snoop_per_line
        || (s.dev(t).h2d_req.is_empty()
            && s.dev(t).d2h_rsp.is_empty()
            && s.dev(t).d2h_data.is_empty())
}

/// Perfect-tracking sharer check, configuration-aware: under
/// [`ProtocolConfig::precise_transient_tracking`] a device with a
/// granted-but-undelivered GO counts as a sharer (the `ISAD ∧ H2DRsp ≠ []`
/// carve-out of the paper's §6 transient-SWMR conjunct); the naive
/// relaxation drops exactly that carve-out.
fn tracked_sharer(s: &SystemState, d: DeviceId, cfg: &ProtocolConfig) -> bool {
    if cfg.precise_transient_tracking {
        s.tracked_sharer(d)
    } else {
        match s.dev(d).cache.state {
            DState::S | DState::M => true,
            DState::SMAD | DState::SMD | DState::SMA => true,
            DState::SIA | DState::SIAC | DState::MIA => s.dev(d).h2d_rsp.is_empty(),
            DState::ISD | DState::ISA => true,
            // The naive host forgets about GO messages still in flight.
            DState::ISAD => false,
            _ => false,
        }
    }
}

/// Perfect-tracking owner check, configuration-aware (see
/// [`tracked_sharer`]).
fn tracked_owner(s: &SystemState, d: DeviceId, cfg: &ProtocolConfig) -> bool {
    if cfg.precise_transient_tracking {
        s.tracked_owner(d)
    } else {
        match s.dev(d).cache.state {
            DState::M => true,
            DState::MIA => s.dev(d).h2d_rsp.is_empty(),
            DState::IMD | DState::IMA | DState::SMD | DState::SMA => true,
            DState::IMAD | DState::SMAD => false,
            _ => false,
        }
    }
}

/// Is any peer of `r` a tracked sharer?
fn any_peer_sharer(s: &SystemState, r: DeviceId, cfg: &ProtocolConfig) -> bool {
    s.peer_ids(r).any(|p| tracked_sharer(s, p, cfg))
}

/// The D2HRsp head of device `o`, if it satisfies `matches`.
fn rsp_head_matching(
    s: &SystemState,
    o: DeviceId,
    matches: impl Fn(D2HRspType) -> bool,
) -> Option<D2HRsp> {
    match s.dev(o).d2h_rsp.head() {
        Some(rsp) if matches(rsp.ty) => Some(*rsp),
        _ => None,
    }
}

/// The D2HData head of device `o`, if present and live (non-bogus).
fn live_data_head(s: &SystemState, o: DeviceId) -> Option<DataMsg> {
    match s.dev(o).d2h_data.head() {
        Some(d) if !d.bogus => Some(*d),
        _ => None,
    }
}

/// The request at the head of `r`'s D2HReq channel, if it matches `ty` and
/// the host is in a stable (request-accepting) state.
fn head_req_stable(s: &SystemState, r: DeviceId, ty: D2HReqType) -> Option<D2HReq> {
    if !s.host.state.is_stable() {
        return None;
    }
    match s.dev(r).d2h_req.head() {
        Some(req) if req.ty == ty => Some(*req),
        _ => None,
    }
}

/// Push a grant (GO carrying `granted`) plus the host's data to `r`.
fn grant_with_data(n: &mut SystemState, r: DeviceId, granted: DState, tid: u64) {
    let val = n.host.val;
    let dev = n.dev_mut(r);
    dev.h2d_data.push(DataMsg::new(tid, val));
    dev.h2d_rsp.push(H2DRsp::new(H2DRspType::GO, granted, tid));
}

// ---------------------------------------------------------------------
// Request admission.
// ---------------------------------------------------------------------

/// Paper Table 3 `InvalidRdShared`: `RdShared` on an idle line — grant
/// GO-S plus data from the host copy; the line becomes shared.
pub(super) fn invalid_rd_shared(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::I {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdShared) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    grant_with_data(out, r, DState::S, req.tid);
    out.host.state = HState::S;
    true
}

/// `RdShared` on a shared line — grant GO-S plus data; stays shared.
pub(super) fn shared_rd_shared(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdShared) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    grant_with_data(out, r, DState::S, req.tid);
    true
}

/// `RdShared` on an owned line — snoop the owner `o` with `SnpData`
/// (carrying the requester's tid, legal per the paper's §4.1
/// clarification) and wait in `SAD` for its response and forwarded data.
///
/// `o` must be a tracked owner that may be snooped now, so the unreduced
/// search snoops the lowest such owner. The tracked owner is unique in
/// every state the host-agreement invariant admits. Where a requester has
/// two tracked-owner peers and the lower may not be snooped, this snoops
/// the higher, where a scan for the lowest tracked owner snoops neither.
pub(super) fn modified_rd_shared(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::M || o == r || !tracked_owner(s, o, cfg) {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdShared) else {
        return false;
    };
    if !snoop_launch_allowed(s, o, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    out.dev_mut(o).h2d_req.push(H2DReq::new(H2DReqType::SnpData, req.tid));
    out.host.state = HState::SAD;
    true
}

/// `RdOwn` on an idle line — grant GO-M plus data; the line becomes owned.
pub(super) fn invalid_rd_own(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::I {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdOwn) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    grant_with_data(out, r, DState::M, req.tid);
    out.host.state = HState::M;
    true
}

/// `RdOwn` on a shared line whose only sharer is the requester itself —
/// grant GO-M immediately. The guard quantifies over the requester's
/// peers: *no* peer may be a tracked sharer. (The paper noted its version
/// of this rule relied on there being exactly two devices, §8; the
/// peer-quantified form is the N-device generalisation.)
pub(super) fn shared_rd_own_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdOwn) else {
        return false;
    };
    if any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    grant_with_data(out, r, DState::M, req.tid);
    out.host.state = HState::M;
    true
}

/// Paper Table 3 `SharedRdOwn`: `RdOwn` on a shared line with other
/// sharers — snoop **every** tracked sharer peer with `SnpInv`, forward
/// data to the requester early (as Table 3's row shows), and wait in `MA`
/// for the invalidation responses ([`ma_snp_rsp`] collects them one at a
/// time and grants after the last).
pub(super) fn shared_rd_own_other(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdOwn) else {
        return false;
    };
    // Collect the sharer peers into a stack buffer (N ≤ MAX_DEVICES):
    // this guard runs on every successor-generation pass, so it must not
    // allocate on the rejecting paths.
    let mut sharers = [DeviceId::D1; Topology::MAX_DEVICES];
    let mut count = 0usize;
    for p in s.peer_ids(r) {
        if tracked_sharer(s, p, cfg) {
            sharers[count] = p;
            count += 1;
        }
    }
    let sharers = &sharers[..count];
    if sharers.is_empty() || sharers.iter().any(|&p| !snoop_launch_allowed(s, p, cfg)) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    for &p in sharers {
        out.dev_mut(p).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, req.tid));
    }
    let val = out.host.val;
    out.dev_mut(r).h2d_data.push(DataMsg::new(req.tid, val));
    out.host.state = HState::MA;
    true
}

/// `RdOwn` on an owned line — snoop the owner `o` with `SnpInv` and wait
/// in `MAD` for its response *and* its dirty data. As in
/// [`modified_rd_shared`], `o` must be a tracked owner that may be
/// snooped now.
pub(super) fn modified_rd_own(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::M || o == r || !tracked_owner(s, o, cfg) {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::RdOwn) else {
        return false;
    };
    if !snoop_launch_allowed(s, o, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    out.dev_mut(o).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, req.tid));
    out.host.state = HState::MAD;
    true
}

// ---------------------------------------------------------------------
// Response and data collection. Rules are indexed by the *requester* `r`
// (matching the paper's naming: `MARspIHitI1` serves device 1's
// transaction) and consume from the explicit peer `o`.
// ---------------------------------------------------------------------

/// Is `r` the requester the host transient state is serving a shared grant
/// for? Under the blocking host the requester is the unique device waiting
/// in `ISAD` (its request has been popped; its GO has not been sent) — or
/// in `ISA` if the host forwarded the owner's data early and the requester
/// has already consumed it.
///
/// The admitted requester's D2HReq channel is empty (admission popped it);
/// with three or more devices another device may *also* sit in `ISAD`
/// while its own request is still queued behind the blocking host, so the
/// empty-request clause is what disambiguates the transaction's owner.
fn s_grant_requester(s: &SystemState, r: DeviceId) -> bool {
    matches!(s.dev(r).cache.state, DState::ISAD | DState::ISA)
        && s.dev(r).h2d_rsp.is_empty()
        && s.dev(r).d2h_req.is_empty()
}

/// Is `r` the requester of the in-flight M-grant? The requester waits in
/// one of the `…M…` transient states with no GO delivered yet and (as in
/// [`s_grant_requester`]) no queued request of its own.
fn m_grant_requester(s: &SystemState, r: DeviceId) -> bool {
    matches!(s.dev(r).cache.state, DState::IMAD | DState::IMA | DState::SMAD | DState::SMA)
        && s.dev(r).h2d_rsp.is_empty()
        && s.dev(r).d2h_req.is_empty()
}

/// `SAD` + the owner `o`'s `RspSFwdM` → `SD` (awaiting the forwarded
/// data).
pub(super) fn sad_rsp_s_fwd_m(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    _cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::SAD || o == r || !s_grant_requester(s, r) {
        return false;
    }
    if rsp_head_matching(s, o, |ty| ty == D2HRspType::RspSFwdM).is_none() {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(o).d2h_rsp.pop();
    out.host.state = HState::SD;
    true
}

/// `SAD` + the owner `o`'s forwarded data first → copy it in, forward it
/// to the requester, and await the response in `SA`.
pub(super) fn sad_data(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    _cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::SAD || o == r || !s_grant_requester(s, r) {
        return false;
    }
    let Some(data) = live_data_head(s, o) else {
        return false;
    };
    out.clone_from(s);
    out.dev_mut(o).d2h_data.pop();
    out.host.val = data.val;
    out.dev_mut(r).h2d_data.push(DataMsg::new(data.tid, data.val));
    out.host.state = HState::SA;
    true
}

/// `SD` + `o`'s forwarded data → copy it in, send data + GO-S to the
/// requester; the line is shared.
pub(super) fn sd_data(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::SD || o == r || !s_grant_requester(s, r) {
        return false;
    }
    let Some(data) = live_data_head(s, o) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(o).d2h_data.pop();
    out.host.val = data.val;
    grant_with_data(out, r, DState::S, data.tid);
    out.host.state = HState::S;
    true
}

/// `SA` + the owner `o`'s `RspSFwdM` → send GO-S (the data was already
/// forwarded); the line is shared.
pub(super) fn sa_rsp_s_fwd_m(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::SA || o == r || !s_grant_requester(s, r) {
        return false;
    }
    let Some(rsp) = rsp_head_matching(s, o, |ty| ty == D2HRspType::RspSFwdM) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(o).d2h_rsp.pop();
    out.dev_mut(r).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::S, rsp.tid));
    out.host.state = HState::S;
    true
}

/// `MAD` + the owner `o`'s `RspIFwdM` → `MD` (awaiting the dirty data).
pub(super) fn mad_rsp_i_fwd_m(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    _cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::MAD || o == r || !m_grant_requester(s, r) {
        return false;
    }
    if rsp_head_matching(s, o, |ty| ty == D2HRspType::RspIFwdM).is_none() {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(o).d2h_rsp.pop();
    out.host.state = HState::MD;
    true
}

/// `MAD` + `o`'s dirty data first → copy it in, forward it to the
/// requester, and await the response in `MA`.
pub(super) fn mad_data(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    _cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::MAD || o == r || !m_grant_requester(s, r) {
        return false;
    }
    let Some(data) = live_data_head(s, o) else {
        return false;
    };
    out.clone_from(s);
    out.dev_mut(o).d2h_data.pop();
    out.host.val = data.val;
    out.dev_mut(r).h2d_data.push(DataMsg::new(data.tid, data.val));
    out.host.state = HState::MA;
    true
}

/// `MD` + `o`'s dirty data → copy it in, send data + GO-M to the
/// requester; the line is owned by the requester.
pub(super) fn md_data(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::MD || o == r || !m_grant_requester(s, r) {
        return false;
    }
    let Some(data) = live_data_head(s, o) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(o).d2h_data.pop();
    out.host.val = data.val;
    grant_with_data(out, r, DState::M, data.tid);
    out.host.state = HState::M;
    true
}

/// `MA` + a snooped device's response → consume it; once the *last*
/// outstanding snoop has been collected, send GO-M and the line is owned
/// by the requester. Accepts `RspIHitSE` (the snooped sharer was clean),
/// `RspIFwdM` (data-first path from `MAD`), and the buggy `RspIHitI`
/// (paper Table 3's `MARspIHitI` step).
///
/// With three or more devices, [`shared_rd_own_other`] may have snooped
/// several sharers; this rule then fires once per response, staying in
/// `MA` until none of the requester's peers has a snoop or response in
/// flight. The "last outstanding snoop" quantification is over *all*
/// peers, so the GO launches after the final response whatever order the
/// responses were consumed in. For `N = 2` there is exactly one snooped
/// peer and the GO launches on the first firing, exactly as in the
/// two-device model.
pub(super) fn ma_snp_rsp(
    s: &SystemState,
    r: DeviceId,
    o: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::MA || o == r || !m_grant_requester(s, r) {
        return false;
    }
    let Some(rsp) = rsp_head_matching(s, o, |ty| {
        matches!(ty, D2HRspType::RspIHitSE | D2HRspType::RspIFwdM | D2HRspType::RspIHitI)
    }) else {
        return false;
    };
    // Is this the last outstanding snoop transaction among the peers
    // (after consuming `o`'s response)?
    let last = !s.peer_ids(r).any(|p| {
        let dp = s.dev(p);
        let rsp_left = if p == o { dp.d2h_rsp.len() > 1 } else { !dp.d2h_rsp.is_empty() };
        !dp.h2d_req.is_empty() || rsp_left
    });
    if last && !go_launch_allowed(s, r, cfg) {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(o).d2h_rsp.pop();
    if last {
        out.dev_mut(r).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::M, rsp.tid));
        out.host.state = HState::M;
    }
    true
}

// ---------------------------------------------------------------------
// Eviction processing.
// ---------------------------------------------------------------------

/// Pop `r`'s eviction request and answer `GO_WritePullDrop`; the host
/// moves to `next`.
fn drop_evict(s: &SystemState, r: DeviceId, tid: u64, next: HState, out: &mut SystemState) {
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    out.dev_mut(r).h2d_rsp.push(H2DRsp::new(H2DRspType::GOWritePullDrop, DState::I, tid));
    out.dev_mut(r).buffer = DBufferSlot::Empty;
    out.host.state = next;
}

/// Pop `r`'s eviction request and answer `GO_WritePull`; the host moves to
/// `next` (a data-awaiting state).
fn pull_evict(s: &SystemState, r: DeviceId, tid: u64, next: HState, out: &mut SystemState) {
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    out.dev_mut(r).h2d_rsp.push(H2DRsp::new(H2DRspType::GOWritePull, DState::I, tid));
    out.dev_mut(r).buffer = DBufferSlot::Empty;
    out.host.state = next;
}

/// `CleanEvict` by the last sharer → drop; the line goes idle.
pub(super) fn clean_evict_drop_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S || s.dev(r).cache.state != DState::SIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvict) else {
        return false;
    };
    if any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    drop_evict(s, r, req.tid, HState::I, out);
    true
}

/// Paper Table 1 `Shared_CleanEvict_NotLastDrop`: `CleanEvict` while
/// another sharer remains → drop; the line stays shared.
pub(super) fn clean_evict_drop_not_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S || s.dev(r).cache.state != DState::SIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvict) else {
        return false;
    };
    if !any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    drop_evict(s, r, req.tid, HState::S, out);
    true
}

/// `CleanEvict` by the last sharer, with the host electing to pull the
/// clean data; it blocks in `IB` until the data arrives.
pub(super) fn clean_evict_pull_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if !cfg.clean_evict_pull || s.host.state != HState::S || s.dev(r).cache.state != DState::SIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvict) else {
        return false;
    };
    if any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    pull_evict(s, r, req.tid, HState::IB, out);
    true
}

/// As [`clean_evict_pull_last`] with another sharer remaining (`SB`).
pub(super) fn clean_evict_pull_not_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if !cfg.clean_evict_pull || s.host.state != HState::S || s.dev(r).cache.state != DState::SIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvict) else {
        return false;
    };
    if !any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    pull_evict(s, r, req.tid, HState::SB, out);
    true
}

/// `CleanEvictNoData` by the last sharer → drop (pulling is forbidden);
/// the line goes idle.
pub(super) fn clean_evict_no_data_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S || s.dev(r).cache.state != DState::SIAC {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvictNoData) else {
        return false;
    };
    if any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    drop_evict(s, r, req.tid, HState::I, out);
    true
}

/// `CleanEvictNoData` with another sharer remaining → drop; stays shared.
pub(super) fn clean_evict_no_data_not_last(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S || s.dev(r).cache.state != DState::SIAC {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvictNoData) else {
        return false;
    };
    if !any_peer_sharer(s, r, cfg) || !go_launch_allowed(s, r, cfg) {
        return false;
    }
    drop_evict(s, r, req.tid, HState::S, out);
    true
}

/// Paper Fig. 4 / Table 2 `HostModifiedDirtyEvict`: a dirty eviction is
/// pulled; the host enters `ID` awaiting the write-back. The guard
/// `H2DData1 = D2HRsp1 = []` of the printed rule is our
/// [`go_launch_allowed`].
pub(super) fn modified_dirty_evict(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::M || s.dev(r).cache.state != DState::MIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::DirtyEvict) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    pull_evict(s, r, req.tid, HState::ID, out);
    true
}

/// Paper Table 2 `IDData`: the written-back data arrives; the host copies
/// it in and the line goes idle.
pub(super) fn id_data(
    s: &SystemState,
    r: DeviceId,
    _cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::ID {
        return false;
    }
    let data = match s.dev(r).d2h_data.head() {
        Some(d) if !d.bogus => *d,
        _ => return false,
    };
    out.clone_from(s);
    out.dev_mut(r).d2h_data.pop();
    out.host.val = data.val;
    out.host.state = HState::I;
    true
}

/// Host-state the line should settle in after `r`'s eviction completes,
/// given whether any peer still shares it.
fn after_evict(s: &SystemState, r: DeviceId, cfg: &ProtocolConfig) -> HState {
    if any_peer_sharer(s, r, cfg) {
        HState::S
    } else {
        HState::I
    }
}

/// A `DirtyEvict` whose line was meanwhile *cleaned* by a `SnpData`
/// (the device now sits in `SIA`; its dirty data has already been
/// forwarded via `RspSFwdM`) → drop.
pub(super) fn cleaned_dirty_evict_drop(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.host.state != HState::S || s.dev(r).cache.state != DState::SIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::DirtyEvict) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    let next = after_evict(s, r, cfg);
    drop_evict(s, r, req.tid, next, out);
    true
}

/// As [`cleaned_dirty_evict_drop`], but the host elects to pull the
/// (now clean) data ([`ProtocolConfig::clean_evict_pull`]); the host
/// blocks until it arrives and is discarded.
pub(super) fn cleaned_dirty_evict_pull(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if !cfg.clean_evict_pull || s.host.state != HState::S || s.dev(r).cache.state != DState::SIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::DirtyEvict) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    let next = match after_evict(s, r, cfg) {
        HState::S => HState::SB,
        _ => HState::IB,
    };
    pull_evict(s, r, req.tid, next, out);
    true
}

/// A *stale* `DirtyEvict` (device in `IIA`): baseline CXL behaviour —
/// pull, and block until the bogus data arrives to be discarded
/// (CXL §3.2.5.4 via paper §4.4).
pub(super) fn stale_dirty_evict_pull(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.dev(r).cache.state != DState::IIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::DirtyEvict) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    let next = match s.host.state {
        HState::I => HState::IB,
        HState::S => HState::SB,
        HState::M => HState::MB,
        _ => return false,
    };
    pull_evict(s, r, req.tid, next, out);
    true
}

/// A stale `DirtyEvict` answered with `GO_WritePullDrop` — the paper's
/// §4.4 proposed optimisation: "if the Host has been able to determine
/// that the device's data is stale, by means of a prior snoop, then the
/// Host may issue a GO_WritePullDrop rather than a GO_WritePull."
pub(super) fn stale_dirty_evict_drop(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if !cfg.stale_evict_drop_optimisation || s.dev(r).cache.state != DState::IIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::DirtyEvict) else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    let next = s.host.state; // stays stable; no data to wait for
    drop_evict(s, r, req.tid, next, out);
    true
}

/// A stale `CleanEvict` / `CleanEvictNoData` (device in `IIA`) → drop.
pub(super) fn stale_clean_evict_drop(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if s.dev(r).cache.state != DState::IIA {
        return false;
    }
    let Some(req) = head_req_stable(s, r, D2HReqType::CleanEvict)
        .or_else(|| head_req_stable(s, r, D2HReqType::CleanEvictNoData))
    else {
        return false;
    };
    if !go_launch_allowed(s, r, cfg) {
        return false;
    }
    let next = s.host.state;
    drop_evict(s, r, req.tid, next, out);
    true
}

/// A blocked host (`IB`/`SB`/`MB`) discards pulled eviction data and
/// returns to its stable state. Bogus and clean pulls are both accepted —
/// in either case the host's own copy is authoritative.
pub(super) fn blocked_data(
    s: &SystemState,
    r: DeviceId,
    _cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if !s.host.state.is_blocked_on_pull() {
        return false;
    }
    if s.dev(r).d2h_data.head().is_none() {
        return false;
    }
    out.clone_from(s);
    out.dev_mut(r).d2h_data.pop();
    out.host.state = out.host.state.unblocked();
    true
}

// ---------------------------------------------------------------------
// Relaxed/buggy rules.
// ---------------------------------------------------------------------

/// The host answers a pending `DirtyEvict` with `GO_WritePull` *while a
/// snoop to the same device is outstanding* — a GO tailgating a snoop,
/// which CXL §3.2.5.2 forbids. Enabled only when GO-cannot-tailgate-snoop
/// is relaxed; firing it strands the snoop at a device that has already
/// invalidated, which the model checker reports as a stuck (non-quiescent)
/// terminal state and an invariant violation.
pub(super) fn eager_stale_dirty_evict(
    s: &SystemState,
    r: DeviceId,
    cfg: &ProtocolConfig,
    out: &mut SystemState,
) -> bool {
    if cfg.go_cannot_tailgate_snoop {
        return false;
    }
    // Mid-transaction host (it has dispatched a snoop and is waiting).
    if s.host.state.is_stable() || s.host.state.is_blocked_on_pull() || s.host.state == HState::ID {
        return false;
    }
    if s.dev(r).cache.state != DState::MIA || s.dev(r).h2d_req.is_empty() {
        return false;
    }
    let req = match s.dev(r).d2h_req.head() {
        Some(req) if req.ty == D2HReqType::DirtyEvict => *req,
        _ => return false,
    };
    out.clone_from(s);
    out.dev_mut(r).d2h_req.pop();
    out.dev_mut(r).h2d_rsp.push(H2DRsp::new(H2DRspType::GOWritePull, DState::I, req.tid));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cacheline::DCache;
    use crate::config::Relaxation;
    use crate::instr::programs;
    use crate::rules::{RuleId, Ruleset, Shape};

    fn strict() -> Ruleset {
        Ruleset::new(ProtocolConfig::strict())
    }

    fn fire(rules: &Ruleset, shape: Shape, r: DeviceId, s: &SystemState) -> SystemState {
        rules
            .try_fire(RuleId::new(shape, r), s)
            .unwrap_or_else(|| panic!("{shape:?}{r} should fire in\n{s}"))
    }

    #[test]
    fn invalid_rd_shared_grants_go_and_data() {
        let rules = strict();
        let mut s = SystemState::initial(programs::load(), Vec::new());
        s.host.val = 42;
        s.dev_mut(DeviceId::D1).cache.state = DState::ISAD;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::RdShared, 0));
        let n = fire(&rules, Shape::HostInvalidRdShared, DeviceId::D1, &s);
        assert_eq!(n.host.state, HState::S);
        let dev = n.dev(DeviceId::D1);
        assert_eq!(dev.h2d_rsp.head(), Some(&H2DRsp::new(H2DRspType::GO, DState::S, 0)));
        assert_eq!(dev.h2d_data.head(), Some(&DataMsg::new(0, 42)));
        assert!(dev.d2h_req.is_empty());
    }

    #[test]
    fn shared_rd_own_other_matches_table3_row() {
        // Paper Table 3 `SharedRdOwn1`: host S → MA, SnpInv to dev2, early
        // data to dev1.
        let rules = strict();
        let mut s = SystemState::initial(programs::store(1), programs::load());
        s.host = crate::cacheline::HCache::new(42, HState::S);
        s.dev_mut(DeviceId::D1).cache.state = DState::IMAD;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::RdOwn, 0));
        s.dev_mut(DeviceId::D2).cache.state = DState::ISAD;
        s.dev_mut(DeviceId::D2).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::S, 1));
        s.dev_mut(DeviceId::D2).h2d_data.push(DataMsg::new(1, 42));

        let n = fire(&rules, Shape::HostSharedRdOwnOther, DeviceId::D1, &s);
        assert_eq!(n.host.state, HState::MA);
        assert_eq!(
            n.dev(DeviceId::D2).h2d_req.head(),
            Some(&H2DReq::new(H2DReqType::SnpInv, 0)),
            "snoop carries the requester's tid"
        );
        assert_eq!(n.dev(DeviceId::D1).h2d_data.head(), Some(&DataMsg::new(0, 42)));
    }

    #[test]
    fn shared_rd_own_other_snoops_every_sharer_peer() {
        // Three devices: device 1 upgrades while devices 2 and 3 share.
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
        let mut s = SystemState::initial_n(3, vec![programs::store(1)]);
        s.host = crate::cacheline::HCache::new(9, HState::S);
        s.dev_mut(DeviceId::new(0)).cache.state = DState::SMAD;
        s.dev_mut(DeviceId::new(0)).d2h_req.push(D2HReq::new(D2HReqType::RdOwn, 0));
        s.dev_mut(DeviceId::new(1)).cache = DCache::new(9, DState::S);
        s.dev_mut(DeviceId::new(2)).cache = DCache::new(9, DState::S);

        let n = fire(&rules, Shape::HostSharedRdOwnOther, DeviceId::new(0), &s);
        assert_eq!(n.host.state, HState::MA);
        for i in [1, 2] {
            assert_eq!(
                n.dev(DeviceId::new(i)).h2d_req.head().map(|r| r.ty),
                Some(H2DReqType::SnpInv),
                "sharer {i} must be snooped"
            );
        }
    }

    #[test]
    fn ma_collects_every_response_before_granting() {
        // Continue the three-device upgrade: both snooped sharers answer;
        // the GO launches only after the second response is consumed.
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
        let mut s = SystemState::initial_n(3, vec![programs::store(1)]);
        s.host = crate::cacheline::HCache::new(9, HState::MA);
        s.dev_mut(DeviceId::new(0)).cache.state = DState::SMAD;
        for i in [1, 2] {
            s.dev_mut(DeviceId::new(i)).cache.state = DState::I;
            s.dev_mut(DeviceId::new(i)).d2h_rsp.push(D2HRsp::new(D2HRspType::RspIHitSE, 0));
        }
        let n1 = fire(&rules, Shape::HostMaSnpRsp, DeviceId::new(0), &s);
        assert_eq!(n1.host.state, HState::MA, "one response still outstanding");
        assert!(n1.dev(DeviceId::new(0)).h2d_rsp.is_empty(), "no premature GO");
        assert!(n1.dev(DeviceId::new(1)).d2h_rsp.is_empty(), "lowest peer consumed first");
        let n2 = fire(&rules, Shape::HostMaSnpRsp, DeviceId::new(0), &n1);
        assert_eq!(n2.host.state, HState::M);
        assert_eq!(
            n2.dev(DeviceId::new(0)).h2d_rsp.head().map(|r| r.ty),
            Some(H2DRspType::GO),
            "GO launches with the last response"
        );
    }

    #[test]
    fn rd_own_last_requires_no_other_sharer() {
        let rules = strict();
        let mut s = SystemState::initial(programs::store(1), Vec::new());
        s.host.state = HState::S;
        s.dev_mut(DeviceId::D1).cache.state = DState::SMAD;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::RdOwn, 0));
        // Other device invalid → immediate grant.
        assert!(rules.enabled(RuleId::new(Shape::HostSharedRdOwnLast, DeviceId::D1), &s));
        assert!(!rules.enabled(RuleId::new(Shape::HostSharedRdOwnOther, DeviceId::D1), &s));
        // Other device shared → must snoop.
        s.dev_mut(DeviceId::D2).cache.state = DState::S;
        assert!(!rules.enabled(RuleId::new(Shape::HostSharedRdOwnLast, DeviceId::D1), &s));
        assert!(rules.enabled(RuleId::new(Shape::HostSharedRdOwnOther, DeviceId::D1), &s));
    }

    #[test]
    fn rd_own_last_quantifies_over_all_peers() {
        // Three devices: a single idle third device must not change the
        // "last sharer" verdict, but a sharing third device must.
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
        let mut s = SystemState::initial_n(3, vec![programs::store(1)]);
        s.host.state = HState::S;
        s.dev_mut(DeviceId::new(0)).cache.state = DState::SMAD;
        s.dev_mut(DeviceId::new(0)).d2h_req.push(D2HReq::new(D2HReqType::RdOwn, 0));
        assert!(rules.enabled(RuleId::new(Shape::HostSharedRdOwnLast, DeviceId::new(0)), &s));
        s.dev_mut(DeviceId::new(2)).cache.state = DState::S;
        assert!(!rules.enabled(RuleId::new(Shape::HostSharedRdOwnLast, DeviceId::new(0)), &s));
        assert!(rules.enabled(RuleId::new(Shape::HostSharedRdOwnOther, DeviceId::new(0)), &s));
    }

    #[test]
    fn naive_tracking_ignores_in_flight_go() {
        // Other device in ISAD with a GO in flight: precise tracking says
        // "sharer", the naive relaxation says "not a sharer".
        let mut s = SystemState::initial(programs::store(1), programs::load());
        s.host.state = HState::S;
        s.dev_mut(DeviceId::D1).cache.state = DState::IMAD;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::RdOwn, 0));
        s.dev_mut(DeviceId::D2).cache.state = DState::ISAD;
        s.dev_mut(DeviceId::D2).h2d_rsp.push(H2DRsp::new(H2DRspType::GO, DState::S, 1));

        let strict = strict();
        assert!(!strict.enabled(RuleId::new(Shape::HostSharedRdOwnLast, DeviceId::D1), &s));

        let naive = Ruleset::new(ProtocolConfig::relaxed(Relaxation::NaiveTransientTracking));
        assert!(
            naive.enabled(RuleId::new(Shape::HostSharedRdOwnLast, DeviceId::D1), &s),
            "the naive host grants ownership despite the in-flight GO-S"
        );
    }

    #[test]
    fn modified_dirty_evict_matches_paper_figure4() {
        let rules = strict();
        let mut s = SystemState::initial(programs::evict(), Vec::new());
        s.host = crate::cacheline::HCache::new(0, HState::M);
        s.dev_mut(DeviceId::D1).cache = DCache::new(1, DState::MIA);
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::DirtyEvict, 1));
        let n = fire(&rules, Shape::HostModifiedDirtyEvict, DeviceId::D1, &s);
        assert_eq!(n.host.state, HState::ID);
        assert_eq!(
            n.dev(DeviceId::D1).h2d_rsp.head(),
            Some(&H2DRsp::new(H2DRspType::GOWritePull, DState::I, 1))
        );
        assert!(n.dev(DeviceId::D1).buffer.is_empty(), "Fig. 4 clears the buffer");
    }

    #[test]
    fn id_data_copies_writeback_in() {
        let rules = strict();
        let mut s = SystemState::initial(Vec::new(), Vec::new());
        s.host = crate::cacheline::HCache::new(0, HState::ID);
        s.dev_mut(DeviceId::D1).d2h_data.push(DataMsg::new(1, 1));
        let n = fire(&rules, Shape::HostIdData, DeviceId::D1, &s);
        assert_eq!(n.host, crate::cacheline::HCache::new(1, HState::I));
    }

    #[test]
    fn stale_dirty_evict_pull_blocks_then_discards_bogus() {
        let rules = strict();
        let mut s = SystemState::initial(programs::evict(), Vec::new());
        s.host.state = HState::M; // ownership has moved to device 2
        s.dev_mut(DeviceId::D2).cache.state = DState::M;
        s.dev_mut(DeviceId::D1).cache = DCache::new(5, DState::IIA);
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::DirtyEvict, 0));
        let n = fire(&rules, Shape::HostStaleDirtyEvictPull, DeviceId::D1, &s);
        assert_eq!(n.host.state, HState::MB);
        // Device answers with bogus data…
        let n2 = fire(&rules, Shape::IiaGoWritePull, DeviceId::D1, &n);
        // …which the host discards, returning to M with its value intact.
        let host_val_before = n2.host.val;
        let n3 = fire(&rules, Shape::HostBlockedData, DeviceId::D1, &n2);
        assert_eq!(n3.host.state, HState::M);
        assert_eq!(n3.host.val, host_val_before, "bogus data must not overwrite the host value");
    }

    #[test]
    fn stale_drop_optimisation_gated_by_config() {
        let mut s = SystemState::initial(programs::evict(), Vec::new());
        s.host.state = HState::M;
        s.dev_mut(DeviceId::D1).cache = DCache::new(5, DState::IIA);
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::DirtyEvict, 0));
        let strict = strict();
        assert!(!strict.enabled(RuleId::new(Shape::HostStaleDirtyEvictDrop, DeviceId::D1), &s));
        let full = Ruleset::new(ProtocolConfig::full());
        let n = full
            .try_fire(RuleId::new(Shape::HostStaleDirtyEvictDrop, DeviceId::D1), &s)
            .expect("optimisation enabled");
        assert_eq!(n.host.state, HState::M, "no blocking needed: no data will come");
        assert_eq!(
            n.dev(DeviceId::D1).h2d_rsp.head().map(|r| r.ty),
            Some(H2DRspType::GOWritePullDrop)
        );
    }

    #[test]
    fn blocking_host_rejects_requests_in_transient_states() {
        let rules = strict();
        let mut s = SystemState::initial(programs::load(), Vec::new());
        s.host.state = HState::MA;
        s.dev_mut(DeviceId::D1).cache.state = DState::ISAD;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::RdShared, 0));
        for shape in [Shape::HostInvalidRdShared, Shape::HostSharedRdShared] {
            assert!(!rules.enabled(RuleId::new(shape, DeviceId::D1), &s), "{shape:?} fired in MA");
        }
    }

    #[test]
    fn eager_stale_dirty_evict_only_under_relaxation() {
        let mut s = SystemState::initial(programs::evict(), programs::store(9));
        s.host.state = HState::MAD; // serving device 2's RdOwn
        s.dev_mut(DeviceId::D2).cache.state = DState::IMAD;
        s.dev_mut(DeviceId::D1).cache = DCache::new(3, DState::MIA);
        s.dev_mut(DeviceId::D1).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 1));
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::DirtyEvict, 0));

        let strict = strict();
        assert!(!strict.enabled(RuleId::new(Shape::HostEagerStaleDirtyEvict, DeviceId::D1), &s));

        let relaxed = Ruleset::new(ProtocolConfig::relaxed(Relaxation::GoCannotTailgateSnoop));
        let n = relaxed
            .try_fire(RuleId::new(Shape::HostEagerStaleDirtyEvict, DeviceId::D1), &s)
            .expect("eager rule fires under relaxation");
        assert_eq!(
            n.dev(DeviceId::D1).h2d_rsp.head().map(|r| r.ty),
            Some(H2DRspType::GOWritePull),
            "a GO tailgates the outstanding snoop"
        );
    }

    #[test]
    fn go_cannot_tailgate_blocks_grants_during_snoop() {
        let rules = strict();
        let mut s = SystemState::initial(programs::load(), Vec::new());
        s.host.state = HState::I;
        s.dev_mut(DeviceId::D1).cache.state = DState::ISAD;
        s.dev_mut(DeviceId::D1).d2h_req.push(D2HReq::new(D2HReqType::RdShared, 0));
        // An (artificial) outstanding snoop to device 1 must block the GO.
        s.dev_mut(DeviceId::D1).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 7));
        assert!(!rules.enabled(RuleId::new(Shape::HostInvalidRdShared, DeviceId::D1), &s));
    }
}
