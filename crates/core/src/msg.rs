//! Message vocabulary of the modelled CXL.cache protocol (paper Figure 3).
//!
//! The paper deliberately restricts the CXL.cache message set to the
//! coherence-relevant core (§3.2 and §8 list the omissions and why each is
//! sound to omit for the SWMR property). We model exactly the paper's set,
//! plus `RspIHitI`, which the paper's *buggy* relaxed rule of Table 3 emits.

use crate::cacheline::DState;
use crate::ids::{Tid, Val};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Device-to-host request opcodes (`D2HReqType`, paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum D2HReqType {
    /// Request read access (upgrade towards `S`).
    RdShared,
    /// Request write access (upgrade towards `M`).
    RdOwn,
    /// Relinquish a clean line; the host may pull or drop the data.
    CleanEvict,
    /// Relinquish a dirty line; the host must pull the data.
    DirtyEvict,
    /// Relinquish a clean line, signalling that the device will refuse to
    /// provide the data and the host must not request it (paper §3.2).
    CleanEvictNoData,
}

impl D2HReqType {
    /// All request opcodes.
    pub const ALL: [D2HReqType; 5] = [
        D2HReqType::RdShared,
        D2HReqType::RdOwn,
        D2HReqType::CleanEvict,
        D2HReqType::DirtyEvict,
        D2HReqType::CleanEvictNoData,
    ];

    /// Is this an eviction request?
    #[must_use]
    pub fn is_evict(self) -> bool {
        matches!(
            self,
            D2HReqType::CleanEvict | D2HReqType::DirtyEvict | D2HReqType::CleanEvictNoData
        )
    }
}

impl fmt::Display for D2HReqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A device-to-host request (`D2HReq ≝ D2HReqType × Tid`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct D2HReq {
    /// Request opcode.
    pub ty: D2HReqType,
    /// Transaction identifier minted from the global counter.
    pub tid: Tid,
}

impl D2HReq {
    /// Construct a request.
    #[must_use]
    pub fn new(ty: D2HReqType, tid: Tid) -> Self {
        D2HReq { ty, tid }
    }
}

impl fmt::Display for D2HReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.ty, self.tid)
    }
}

/// Device-to-host snoop-response opcodes (`D2HRspType`, paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum D2HRspType {
    /// The device has downgraded from `S` or `E` to `I`
    /// (CXL spec §3.2.4.3.3, via the paper).
    RspIHitSE,
    /// The device has downgraded from `M` to `I` and forwards its dirty
    /// data (§3.2.4.3.6).
    RspIFwdM,
    /// The device has downgraded from `M` to `S` and forwards its dirty
    /// data (§3.2.4.3.5).
    RspSFwdM,
    /// The device was already invalid. The paper excludes this message from
    /// the *correct* model ("our model's host tracks device states and does
    /// not send out snoops unnecessarily", §3.2) — it is emitted only by
    /// the relaxed/buggy `ISADSnpInv` rule of Table 3.
    RspIHitI,
}

impl D2HRspType {
    /// All response opcodes (including the buggy-only `RspIHitI`).
    pub const ALL: [D2HRspType; 4] = [
        D2HRspType::RspIHitSE,
        D2HRspType::RspIFwdM,
        D2HRspType::RspSFwdM,
        D2HRspType::RspIHitI,
    ];

    /// Does this response announce forwarded (implicit write-back) data?
    #[must_use]
    pub fn forwards_data(self) -> bool {
        matches!(self, D2HRspType::RspIFwdM | D2HRspType::RspSFwdM)
    }

    /// Does this response report that the device line is now invalid?
    #[must_use]
    pub fn reports_invalid(self) -> bool {
        matches!(self, D2HRspType::RspIHitSE | D2HRspType::RspIFwdM | D2HRspType::RspIHitI)
    }
}

impl fmt::Display for D2HRspType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A device-to-host response (`D2HRsp ≝ D2HRspType × Tid`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct D2HRsp {
    /// Response opcode.
    pub ty: D2HRspType,
    /// Transaction identifier echoed from the snoop that provoked it.
    pub tid: Tid,
}

impl D2HRsp {
    /// Construct a response.
    #[must_use]
    pub fn new(ty: D2HRspType, tid: Tid) -> Self {
        D2HRsp { ty, tid }
    }
}

impl fmt::Display for D2HRsp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.ty, self.tid)
    }
}

/// Host-to-device snoop opcodes (`H2DReqType`, paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum H2DReqType {
    /// The device must downgrade to `S` or `I`, forwarding dirty data.
    SnpData,
    /// The device must downgrade to `I`, forwarding dirty data.
    SnpInv,
}

impl H2DReqType {
    /// All snoop opcodes.
    pub const ALL: [H2DReqType; 2] = [H2DReqType::SnpData, H2DReqType::SnpInv];
}

impl fmt::Display for H2DReqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A host-to-device snoop (`H2DReq ≝ H2DReqType × Tid`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct H2DReq {
    /// Snoop opcode.
    pub ty: H2DReqType,
    /// Transaction identifier of the transaction the snoop serves. Snoops
    /// to different devices on behalf of the same transaction share a tid —
    /// this is exactly the allowance the paper's proposed fix to CXL spec
    /// §3.2.5.5 makes explicit (paper §4.1).
    pub tid: Tid,
}

impl H2DReq {
    /// Construct a snoop.
    #[must_use]
    pub fn new(ty: H2DReqType, tid: Tid) -> Self {
        H2DReq { ty, tid }
    }
}

impl fmt::Display for H2DReq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.ty, self.tid)
    }
}

/// Host-to-device response opcodes (`H2DRspType`, paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum H2DRspType {
    /// Global-observation: the request is complete and the line may enter
    /// the carried state (CXL spec §3.2.2.1).
    GO,
    /// GO for an eviction, instructing the device to send its data to the
    /// host (§3.2.4.2.14).
    GOWritePull,
    /// GO for an eviction, instructing the device to discard its data
    /// (§3.2.4.2.14; extended to stale dirty evictions by the paper's
    /// proposed optimisation, §4.4).
    GOWritePullDrop,
}

impl H2DRspType {
    /// All H2D response opcodes.
    pub const ALL: [H2DRspType; 3] =
        [H2DRspType::GO, H2DRspType::GOWritePull, H2DRspType::GOWritePullDrop];
}

impl fmt::Display for H2DRspType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2DRspType::GO => write!(f, "GO"),
            H2DRspType::GOWritePull => write!(f, "GO_WritePull"),
            H2DRspType::GOWritePullDrop => write!(f, "GO_WritePullDrop"),
        }
    }
}

/// A host-to-device response (`H2DRsp ≝ H2DRspType × DState × Tid`).
///
/// "In all cases, a host-to-device response includes the new `DState` that
/// the device's cacheline should enter" (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct H2DRsp {
    /// Response opcode.
    pub ty: H2DRspType,
    /// The state the device line should enter.
    pub state: DState,
    /// Transaction identifier echoed from the device's request.
    pub tid: Tid,
}

impl H2DRsp {
    /// Construct a response.
    #[must_use]
    pub fn new(ty: H2DRspType, state: DState, tid: Tid) -> Self {
        H2DRsp { ty, state, tid }
    }
}

impl fmt::Display for H2DRsp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.ty, self.state, self.tid)
    }
}

/// A data message (`Data ≝ Tid × Val`, paper Figure 3) extended with the
/// CXL `Bogus` field the paper discusses in §4.4: a device whose eviction
/// went stale must mark the data it is pulled for as bogus so the host
/// discards it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DataMsg {
    /// Transaction identifier this data belongs to.
    pub tid: Tid,
    /// The carried value.
    pub val: Val,
    /// Whether the sender knows the data to be potentially stale
    /// (CXL spec §3.2.5.4 via paper §4.4).
    pub bogus: bool,
}

impl DataMsg {
    /// Fresh (non-bogus) data.
    #[must_use]
    pub fn new(tid: Tid, val: Val) -> Self {
        DataMsg { tid, val, bogus: false }
    }

    /// Data marked bogus (stale eviction write-back).
    #[must_use]
    pub fn bogus(tid: Tid, val: Val) -> Self {
        DataMsg { tid, val, bogus: true }
    }
}

impl fmt::Display for DataMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bogus {
            write!(f, "(BogusData({}), {})", self.val, self.tid)
        } else {
            write!(f, "(Data({}), {})", self.val, self.tid)
        }
    }
}

/// The per-device buffer slot (`DBuffer ≝ H2DRsp ∪ H2DReq ∪ {⊥}`).
///
/// The buffers are the paper's own invention: "they are used to simulate
/// the dependence between the H2D Response and H2D Request channels that is
/// implied by the standard [§3.2.5]" (paper §3.1). A device records here
/// the last host message it accepted; issue-side rules clear it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DBufferSlot {
    /// Empty buffer (`⊥`).
    #[default]
    Empty,
    /// The last accepted H2D response.
    Rsp(H2DRsp),
    /// The last accepted H2D request (snoop).
    Req(H2DReq),
}

impl DBufferSlot {
    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(self) -> bool {
        matches!(self, DBufferSlot::Empty)
    }
}

impl fmt::Display for DBufferSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DBufferSlot::Empty => write!(f, "⊥"),
            DBufferSlot::Rsp(r) => write!(f, "{r}"),
            DBufferSlot::Req(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_vocabulary_matches_paper() {
        assert_eq!(D2HReqType::ALL.len(), 5);
        assert_eq!(H2DReqType::ALL.len(), 2);
        assert_eq!(H2DRspType::ALL.len(), 3);
        // 3 modelled responses + the buggy-only RspIHitI.
        assert_eq!(D2HRspType::ALL.len(), 4);
    }

    #[test]
    fn evict_classification() {
        assert!(D2HReqType::CleanEvict.is_evict());
        assert!(D2HReqType::DirtyEvict.is_evict());
        assert!(D2HReqType::CleanEvictNoData.is_evict());
        assert!(!D2HReqType::RdShared.is_evict());
        assert!(!D2HReqType::RdOwn.is_evict());
    }

    #[test]
    fn response_classification() {
        assert!(D2HRspType::RspIFwdM.forwards_data());
        assert!(D2HRspType::RspSFwdM.forwards_data());
        assert!(!D2HRspType::RspIHitSE.forwards_data());
        assert!(D2HRspType::RspIHitSE.reports_invalid());
        assert!(!D2HRspType::RspSFwdM.reports_invalid());
        assert!(D2HRspType::RspIHitI.reports_invalid());
    }

    #[test]
    fn display_matches_paper_tables() {
        assert_eq!(D2HReq::new(D2HReqType::CleanEvict, 1).to_string(), "(CleanEvict, 1)");
        assert_eq!(
            H2DRsp::new(H2DRspType::GOWritePullDrop, DState::I, 1).to_string(),
            "(GO_WritePullDrop, I, 1)"
        );
        assert_eq!(DataMsg::new(0, 42).to_string(), "(Data(42), 0)");
        assert_eq!(DataMsg::bogus(3, 7).to_string(), "(BogusData(7), 3)");
        assert_eq!(DBufferSlot::Empty.to_string(), "⊥");
    }

    #[test]
    fn bogus_constructor_sets_flag() {
        assert!(DataMsg::bogus(0, 0).bogus);
        assert!(!DataMsg::new(0, 0).bogus);
    }
}
