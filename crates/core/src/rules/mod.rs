//! The transition rules of the CXL.cache model (paper §3.3).
//!
//! The paper's model "consists of 68 rules that describe transitions
//! between CXL states. Each rule consists of a name, a set of guards that
//! must all hold in order for a rule to fire, and a set of actions by which
//! some components of the state are (atomically) updated."
//!
//! The paper prints four representative rules (Figure 4); the remainder are
//! reconstructed here from the paper's transient-state vocabulary, its
//! transition tables (Tables 1–3) and the standard MSI directory protocol
//! of Nagarajan et al.'s Primer, which the paper adopts for notation. Each
//! rule's doc comment records its provenance.
//!
//! Rules are *shapes* instantiated once per device; a [`RuleId`] is a
//! `(shape, device)` pair, and a [`Ruleset`] instantiates every shape for
//! every device of its [`Topology`] (N × 69 rule instances). This crate
//! has 69 shapes (ours is a richer set than the paper's 34 shapes/68
//! rules because we additionally model `SnpData` flows, the
//! `CleanEvictNoData` and clean-pull variants, the paper's §4.4
//! optimisation, and two relaxed/buggy rules used by the
//! restriction-necessity experiments).

mod device;
mod host;

use crate::cacheline::{DState, HState};
use crate::config::ProtocolConfig;
use crate::ids::{DeviceId, Topology};
use crate::state::SystemState;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Coarse classification of a rule shape, used for reporting and for the
/// obligation matrix's per-category statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RuleCategory {
    /// A device consults its program head and starts (or locally retires) a
    /// transaction.
    DeviceIssue,
    /// A device consumes an H2D response or data message, completing part
    /// of an in-flight transaction.
    DeviceCompletion,
    /// A device processes an H2D snoop.
    DeviceSnoop,
    /// The host accepts a new D2H request.
    HostRequest,
    /// The host consumes a D2H snoop response or forwarded data.
    HostResponse,
    /// The host processes an eviction (including stale evictions).
    HostEvict,
    /// A deliberately *buggy* rule, only enabled under a relaxation
    /// (paper §5.2 / Table 3).
    Relaxed,
}

impl fmt::Display for RuleCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Which of the acting device's host-to-device channels a *device-side*
/// shape consumes from — the finer-grained locality axis behind the
/// widened partial-order-reduction table: a local step only races a
/// same-bucket shape through the channel that shape consumes, so knowing
/// the channel lets the POR engine admit local steps in states where
/// that channel is *dynamically* empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum H2DChannel {
    /// The snoop channel (`H2DReq`).
    Req,
    /// The response channel (`H2DRsp` — GO messages).
    Rsp,
    /// The data channel (`H2DData`).
    Data,
}

/// How a shape fires, and the one function that defines it.
enum Fire {
    /// For its acting device alone: `(state, device, config, out)`.
    Own(fn(&SystemState, DeviceId, &ProtocolConfig, &mut SystemState) -> bool),
    /// Once per peer of the requester: `(state, requester, peer, config,
    /// out)` — the host collection rules ([`Shape::peer_scan`]).
    Peer(fn(&SystemState, DeviceId, DeviceId, &ProtocolConfig, &mut SystemState) -> bool),
}

macro_rules! shapes {
    ($( $(#[$doc:meta])* $name:ident => ($cat:ident, $pt:literal, $fire:ident($func:path)) ),+
     $(,)?) => {
        /// A device-indexed rule shape. See the module docs for provenance.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub enum Shape {
            $( $(#[$doc])* $name, )+
        }

        impl Shape {
            /// Every rule shape, in a fixed canonical order.
            pub const ALL: &'static [Shape] = &[ $(Shape::$name),+ ];

            /// The shape's category.
            #[must_use]
            pub fn category(self) -> RuleCategory {
                match self {
                    $( Shape::$name => RuleCategory::$cat, )+
                }
            }

            /// Does this shape rely on the host's "perfect tracking"
            /// assumption — i.e. does its guard inspect a *device's* cache
            /// state or in-flight grants (paper §8, which reports 14 such
            /// rules in the authors' model)?
            #[must_use]
            pub fn perfect_tracking(self) -> bool {
                match self {
                    $( Shape::$name => $pt, )+
                }
            }

            fn fire(self) -> Fire {
                match self {
                    $( Shape::$name => Fire::$fire($func), )+
                }
            }
        }
    };
}

shapes! {
    // ------------------------------------------------------------------
    // Device issue rules (paper Fig. 4: InvalidLoad, ModifiedStore).
    // ------------------------------------------------------------------
    /// Paper Fig. 4 `InvalidLoad`: an invalid line with a pending `Load`
    /// requests `RdShared` and enters `ISAD`.
    InvalidLoad => (DeviceIssue, false, Own(device::invalid_load)),
    /// An invalid line with a pending `Store` requests `RdOwn` and enters
    /// `IMAD` (paper Table 3 row `InvalidStore1`).
    InvalidStore => (DeviceIssue, false, Own(device::invalid_store)),
    /// Evicting an invalid line is a no-op: the instruction retires
    /// ("Subsequent Evicts have no effect on DCache1 because it is already
    /// invalid", paper §5.1).
    InvalidEvict => (DeviceIssue, false, Own(device::invalid_evict)),
    /// A load hits a shared line and retires locally.
    SharedLoad => (DeviceIssue, false, Own(device::shared_load)),
    /// A store to a shared line requests ownership (`RdOwn`) and enters
    /// `SMAD`.
    SharedStore => (DeviceIssue, false, Own(device::shared_store)),
    /// Paper Table 1 `SharedEvict`: a clean line is relinquished via
    /// `CleanEvict`, entering `SIA`.
    SharedEvict => (DeviceIssue, false, Own(device::shared_evict)),
    /// As `SharedEvict`, but via `CleanEvictNoData` (device refuses to
    /// supply data), entering `SIAC`. Enabled by
    /// [`ProtocolConfig::clean_evict_no_data`].
    SharedEvictNoData => (DeviceIssue, false, Own(device::shared_evict_no_data)),
    /// A load hits a modified line and retires locally.
    ModifiedLoad => (DeviceIssue, false, Own(device::modified_load)),
    /// Paper Fig. 4 `ModifiedStore`: a store hits an owned line — no
    /// coherence messages needed; the value is written and the buffer
    /// cleared.
    ModifiedStore => (DeviceIssue, false, Own(device::modified_store)),
    /// Paper Table 2 `ModifiedEvict`: a dirty line is relinquished via
    /// `DirtyEvict`, entering `MIA`.
    ModifiedEvict => (DeviceIssue, false, Own(device::modified_evict)),

    // ------------------------------------------------------------------
    // Device completion rules: consuming GO and Data messages. The A/D
    // split states (ISAD → ISD/ISA etc.) arise because GO and data travel
    // on distinct channels and may arrive in either order.
    // ------------------------------------------------------------------
    /// `ISAD` consumes its GO(-S): awaiting only data (`ISD`).
    IsadGo => (DeviceCompletion, false, Own(device::isad_go)),
    /// `ISAD` consumes its data: awaiting only the GO (`ISA`).
    IsadData => (DeviceCompletion, false, Own(device::isad_data)),
    /// `ISD` consumes its data, completing the load: line becomes `S`
    /// (paper Table 3's `ISADGO+Data` compound step is the composition of
    /// `IsadGo` and this rule).
    IsdData => (DeviceCompletion, false, Own(device::isd_data)),
    /// `ISA` consumes its GO, completing the load: line becomes `S`.
    IsaGo => (DeviceCompletion, false, Own(device::isa_go)),
    /// `IMAD` consumes its GO(-M): `IMD`.
    ImadGo => (DeviceCompletion, false, Own(device::imad_go)),
    /// `IMAD` consumes its data: `IMA`.
    ImadData => (DeviceCompletion, false, Own(device::imad_data)),
    /// `IMD` consumes its data and performs the pending store: `M`.
    ImdData => (DeviceCompletion, false, Own(device::imd_data)),
    /// `IMA` consumes its GO and performs the pending store: `M`.
    ImaGo => (DeviceCompletion, false, Own(device::ima_go)),
    /// `SMAD` consumes its GO(-M): `SMD`.
    SmadGo => (DeviceCompletion, false, Own(device::smad_go)),
    /// `SMAD` consumes its data: `SMA`.
    SmadData => (DeviceCompletion, false, Own(device::smad_data)),
    /// `SMD` consumes its data and performs the pending store: `M`.
    SmdData => (DeviceCompletion, false, Own(device::smd_data)),
    /// `SMA` consumes its GO and performs the pending store: `M`.
    SmaGo => (DeviceCompletion, false, Own(device::sma_go)),
    /// Paper Table 1 `SIAGO_WritePullDrop`: a clean eviction completes
    /// without a data transfer.
    SiaGoWritePullDrop => (DeviceCompletion, false, Own(device::sia_go_write_pull_drop)),
    /// A clean eviction whose data the host chose to pull
    /// ([`ProtocolConfig::clean_evict_pull`]): the device supplies the
    /// clean data and invalidates.
    SiaGoWritePull => (DeviceCompletion, false, Own(device::sia_go_write_pull)),
    /// A `CleanEvictNoData` eviction completes; the host never pulls.
    SiacGoWritePullDrop => (DeviceCompletion, false, Own(device::siac_go_write_pull_drop)),
    /// Paper Table 2 `MIAGO_WritePull`: a dirty eviction is pulled — the
    /// device sends its dirty data and invalidates.
    MiaGoWritePull => (DeviceCompletion, false, Own(device::mia_go_write_pull)),
    /// A *stale* eviction is pulled: the device must mark the data bogus
    /// (CXL §3.2.5.4 via paper §4.4).
    IiaGoWritePull => (DeviceCompletion, false, Own(device::iia_go_write_pull)),
    /// A stale eviction is dropped — the paper's §4.4 proposed
    /// optimisation: no bogus data traffic at all.
    IiaGoWritePullDrop => (DeviceCompletion, false, Own(device::iia_go_write_pull_drop)),
    /// `ISDI` consumes its data: the load observes the value once and the
    /// line is left invalid (the snoop won).
    IsdiData => (DeviceCompletion, false, Own(device::isdi_data)),

    // ------------------------------------------------------------------
    // Device snoop rules. All are guarded by Snoop-pushes-GO (paper Fig. 4
    // `SharedSnpInv`, guard `H2DRsp = []`) unless the configuration
    // relaxes it.
    // ------------------------------------------------------------------
    /// Paper Fig. 4 `SharedSnpInv`: a shared line is invalidated by a
    /// snoop; the device answers `RspIHitSE`.
    SharedSnpInv => (DeviceSnoop, false, Own(device::shared_snp_inv)),
    /// An owned line is invalidated: the device answers `RspIFwdM` and
    /// forwards its dirty data.
    ModifiedSnpInv => (DeviceSnoop, false, Own(device::modified_snp_inv)),
    /// An owned line is downgraded to shared: `RspSFwdM` plus dirty data.
    ModifiedSnpData => (DeviceSnoop, false, Own(device::modified_snp_data)),
    /// A granted-but-dataless line (`ISD`) is invalidated: it answers
    /// `RspIHitSE` and will consume its data once, becoming `I` (`ISDI` —
    /// the state the paper's §6 invariant mentions).
    IsdSnpInv => (DeviceSnoop, false, Own(device::isd_snp_inv)),
    /// An S→M upgrade still holding its S copy (`SMAD`) is invalidated:
    /// it answers `RspIHitSE` and continues the upgrade from `I` (`IMAD`).
    SmadSnpInv => (DeviceSnoop, false, Own(device::smad_snp_inv)),
    /// A clean eviction in flight is overtaken by an invalidating snoop:
    /// the eviction goes stale (`IIA`).
    SiaSnpInv => (DeviceSnoop, false, Own(device::sia_snp_inv)),
    /// As `SiaSnpInv`, for `CleanEvictNoData` evictions.
    SiacSnpInv => (DeviceSnoop, false, Own(device::siac_snp_inv)),
    /// A dirty eviction in flight is overtaken by an invalidating snoop:
    /// the device forwards its dirty data (`RspIFwdM`) and the eviction
    /// goes stale (`IIA`) — the scenario behind CXL's Bogus field
    /// (paper §4.4).
    MiaSnpInv => (DeviceSnoop, false, Own(device::mia_snp_inv)),
    /// A dirty eviction in flight is downgraded by `SnpData`: the device
    /// forwards its data (`RspSFwdM`) and the eviction continues as a
    /// clean one (`SIA`).
    MiaSnpData => (DeviceSnoop, false, Own(device::mia_snp_data)),

    // ------------------------------------------------------------------
    // Host request rules. The modelled host is a blocking directory: a new
    // D2H request is accepted only in a stable host state. Guards that
    // inspect the other device's cache embody the paper's perfect-tracking
    // assumption (§8).
    // ------------------------------------------------------------------
    /// `RdShared` hits an idle line: grant GO-S plus data from the host
    /// copy (paper Table 3 `InvalidRdShared`).
    HostInvalidRdShared => (HostRequest, false, Own(host::invalid_rd_shared)),
    /// `RdShared` hits a shared line: grant GO-S plus data.
    HostSharedRdShared => (HostRequest, false, Own(host::shared_rd_shared)),
    /// `RdShared` hits an owned line: snoop the owner with `SnpData` and
    /// wait (`SAD`).
    HostModifiedRdShared => (HostRequest, true, Peer(host::modified_rd_shared)),
    /// `RdOwn` hits an idle line: grant GO-M plus data.
    HostInvalidRdOwn => (HostRequest, false, Own(host::invalid_rd_own)),
    /// `RdOwn` hits a shared line whose only sharer is the requester:
    /// grant GO-M immediately (a rule the paper notes relies on there
    /// being two devices, §8).
    HostSharedRdOwnLast => (HostRequest, true, Own(host::shared_rd_own_last)),
    /// Paper Table 3 `SharedRdOwn`: `RdOwn` hits a shared line with
    /// another sharer: snoop it with `SnpInv`, forward data to the
    /// requester early, and wait (`MA`).
    HostSharedRdOwnOther => (HostRequest, true, Own(host::shared_rd_own_other)),
    /// `RdOwn` hits an owned line: snoop the owner with `SnpInv` and wait
    /// for its response and dirty data (`MAD`).
    HostModifiedRdOwn => (HostRequest, true, Peer(host::modified_rd_own)),

    // ------------------------------------------------------------------
    // Host response rules: consuming snoop responses and forwarded data.
    // ------------------------------------------------------------------
    /// `SAD` consumes the owner's `RspSFwdM`: awaiting only data (`SD`).
    HostSadRspSFwdM => (HostResponse, true, Peer(host::sad_rsp_s_fwd_m)),
    /// `SAD` consumes the forwarded data first: forward it to the
    /// requester and await the response (`SA`).
    HostSadData => (HostResponse, true, Peer(host::sad_data)),
    /// `SD` consumes the forwarded data: forward data + GO-S to the
    /// requester; the line is shared.
    HostSdData => (HostResponse, true, Peer(host::sd_data)),
    /// `SA` consumes the owner's `RspSFwdM`: send GO-S; the line is
    /// shared.
    HostSaRspSFwdM => (HostResponse, true, Peer(host::sa_rsp_s_fwd_m)),
    /// `MAD` consumes the owner's `RspIFwdM`: awaiting only data (`MD`).
    HostMadRspIFwdM => (HostResponse, true, Peer(host::mad_rsp_i_fwd_m)),
    /// `MAD` consumes the forwarded data first: forward it to the
    /// requester and await the response (`MA`).
    HostMadData => (HostResponse, true, Peer(host::mad_data)),
    /// `MD` consumes the forwarded data: forward data + GO-M; the line is
    /// owned by the requester. (Paper Table 3's `MARspIHitI` is the
    /// sibling `HostMaSnpRsp`.)
    HostMdData => (HostResponse, true, Peer(host::md_data)),
    /// `MA` consumes the snooped device's response (`RspIHitSE`, or
    /// `RspIFwdM` on the data-first path, or the buggy `RspIHitI`): send
    /// GO-M; the line is owned by the requester.
    HostMaSnpRsp => (HostResponse, true, Peer(host::ma_snp_rsp)),

    // ------------------------------------------------------------------
    // Host eviction rules (paper Fig. 4 HostModifiedDirtyEvict; Tables 1
    // and 2; §4.4 for the stale-eviction flows).
    // ------------------------------------------------------------------
    /// A clean eviction by the last sharer: drop the data; the line goes
    /// idle.
    HostCleanEvictDropLast => (HostEvict, true, Own(host::clean_evict_drop_last)),
    /// Paper Table 1 `Shared_CleanEvict_NotLastDrop`: a clean eviction
    /// while another sharer remains: drop; the line stays shared.
    HostCleanEvictDropNotLast => (HostEvict, true, Own(host::clean_evict_drop_not_last)),
    /// Clean eviction by the last sharer, with the host electing to pull
    /// the clean data ([`ProtocolConfig::clean_evict_pull`]); the host
    /// blocks (`IB`) until the pulled data arrives and is discarded.
    HostCleanEvictPullLast => (HostEvict, true, Own(host::clean_evict_pull_last)),
    /// As `HostCleanEvictPullLast` with another sharer remaining (`SB`).
    HostCleanEvictPullNotLast => (HostEvict, true, Own(host::clean_evict_pull_not_last)),
    /// `CleanEvictNoData` by the last sharer: the host must not pull
    /// (paper §3.2), so it drops; the line goes idle.
    HostCleanEvictNoDataLast => (HostEvict, true, Own(host::clean_evict_no_data_last)),
    /// `CleanEvictNoData` with another sharer remaining.
    HostCleanEvictNoDataNotLast => (HostEvict, true, Own(host::clean_evict_no_data_not_last)),
    /// Paper Fig. 4 / Table 2 `HostModifiedDirtyEvict`: a dirty eviction
    /// is pulled (`GO_WritePull`); the host enters `ID` awaiting the
    /// write-back.
    HostModifiedDirtyEvict => (HostEvict, true, Own(host::modified_dirty_evict)),
    /// Paper Table 2 `IDData`: the written-back data arrives; the host
    /// copies it in and the line goes idle.
    HostIdData => (HostEvict, false, Own(host::id_data)),
    /// A `DirtyEvict` whose line was meanwhile cleaned by a `SnpData`
    /// (device now in `SIA`): the data has already been forwarded, so the
    /// host drops.
    HostCleanedDirtyEvictDrop => (HostEvict, true, Own(host::cleaned_dirty_evict_drop)),
    /// As `HostCleanedDirtyEvictDrop`, but the host elects to pull the
    /// (now clean) data ([`ProtocolConfig::clean_evict_pull`]).
    HostCleanedDirtyEvictPull => (HostEvict, true, Own(host::cleaned_dirty_evict_pull)),
    /// A *stale* `DirtyEvict` (device in `IIA`): baseline CXL behaviour —
    /// pull, receiving data the device has marked bogus, then discard it
    /// (CXL §3.2.5.4).
    HostStaleDirtyEvictPull => (HostEvict, true, Own(host::stale_dirty_evict_pull)),
    /// A stale `DirtyEvict` answered with `GO_WritePullDrop` — the paper's
    /// §4.4 proposed optimisation
    /// ([`ProtocolConfig::stale_evict_drop_optimisation`]).
    HostStaleDirtyEvictDrop => (HostEvict, true, Own(host::stale_dirty_evict_drop)),
    /// A stale `CleanEvict`/`CleanEvictNoData` (device in `IIA`): drop.
    HostStaleCleanEvictDrop => (HostEvict, true, Own(host::stale_clean_evict_drop)),
    /// A blocked host (`IB`/`SB`/`MB`) discards pulled eviction data and
    /// returns to its stable state.
    HostBlockedData => (HostEvict, false, Own(host::blocked_data)),

    // ------------------------------------------------------------------
    // Relaxed/buggy rules (paper §5.2): enabled only when the
    // corresponding restriction is relaxed.
    // ------------------------------------------------------------------
    /// Paper Table 3's `ISADSnpInv(⚠)`: a device in `ISAD` processes a
    /// snoop *before* the pending GO, answering `RspIHitI`. Only enabled
    /// when Snoop-pushes-GO is relaxed; firing it leads to the Figure 5
    /// coherence violation.
    IsadSnpInvBuggy => (Relaxed, false, Own(device::isad_snp_inv_buggy)),
    /// The host answers a `DirtyEvict` with `GO_WritePull` *while* a snoop
    /// to the same device is outstanding — a GO tailgating a snoop. Only
    /// enabled when GO-cannot-tailgate-snoop is relaxed.
    HostEagerStaleDirtyEvict => (Relaxed, true, Own(host::eager_stale_dirty_evict)),
}

impl Shape {
    /// Paper-style rule name for a given device, e.g. `InvalidLoad1`,
    /// `SharedSnpInv2`.
    #[must_use]
    pub fn rule_name(self, dev: DeviceId) -> String {
        format!("{self:?}{dev}")
    }

    /// The device cache state a *device-side* shape requires of its
    /// acting device, or `None` for host-side shapes. This is the
    /// bucketing key of successor generation
    /// ([`Ruleset::for_each_enabled_mut`]): a state only ever consults the
    /// shapes filed under its devices' cache states.
    #[must_use]
    pub fn device_state_key(self) -> Option<DState> {
        match self {
            Shape::InvalidLoad | Shape::InvalidStore | Shape::InvalidEvict => Some(DState::I),
            Shape::SharedLoad
            | Shape::SharedStore
            | Shape::SharedEvict
            | Shape::SharedEvictNoData
            | Shape::SharedSnpInv => Some(DState::S),
            Shape::ModifiedLoad
            | Shape::ModifiedStore
            | Shape::ModifiedEvict
            | Shape::ModifiedSnpInv
            | Shape::ModifiedSnpData => Some(DState::M),
            Shape::IsadGo | Shape::IsadData | Shape::IsadSnpInvBuggy => Some(DState::ISAD),
            Shape::IsdData | Shape::IsdSnpInv => Some(DState::ISD),
            Shape::IsaGo => Some(DState::ISA),
            Shape::IsdiData => Some(DState::ISDI),
            Shape::ImadGo | Shape::ImadData => Some(DState::IMAD),
            Shape::ImdData => Some(DState::IMD),
            Shape::ImaGo => Some(DState::IMA),
            Shape::SmadGo | Shape::SmadData | Shape::SmadSnpInv => Some(DState::SMAD),
            Shape::SmdData => Some(DState::SMD),
            Shape::SmaGo => Some(DState::SMA),
            Shape::SiaGoWritePullDrop | Shape::SiaGoWritePull | Shape::SiaSnpInv => {
                Some(DState::SIA)
            }
            Shape::SiacGoWritePullDrop | Shape::SiacSnpInv => Some(DState::SIAC),
            Shape::MiaGoWritePull | Shape::MiaSnpInv | Shape::MiaSnpData => Some(DState::MIA),
            Shape::IiaGoWritePull | Shape::IiaGoWritePullDrop => Some(DState::IIA),
            _ => None,
        }
    }

    /// The host states under which a *host-side* shape can possibly fire,
    /// or `None` for device-side shapes — the host half of the bucketing
    /// key of successor generation ([`Ruleset::for_each_enabled_mut`]).
    #[must_use]
    pub fn host_state_keys(self) -> Option<&'static [HState]> {
        match self {
            Shape::HostInvalidRdShared | Shape::HostInvalidRdOwn => Some(&[HState::I]),
            Shape::HostSharedRdShared
            | Shape::HostSharedRdOwnLast
            | Shape::HostSharedRdOwnOther
            | Shape::HostCleanEvictDropLast
            | Shape::HostCleanEvictDropNotLast
            | Shape::HostCleanEvictPullLast
            | Shape::HostCleanEvictPullNotLast
            | Shape::HostCleanEvictNoDataLast
            | Shape::HostCleanEvictNoDataNotLast
            | Shape::HostCleanedDirtyEvictDrop
            | Shape::HostCleanedDirtyEvictPull => Some(&[HState::S]),
            Shape::HostModifiedRdShared
            | Shape::HostModifiedRdOwn
            | Shape::HostModifiedDirtyEvict => Some(&[HState::M]),
            Shape::HostSadRspSFwdM | Shape::HostSadData => Some(&[HState::SAD]),
            Shape::HostSdData => Some(&[HState::SD]),
            Shape::HostSaRspSFwdM => Some(&[HState::SA]),
            Shape::HostMadRspIFwdM | Shape::HostMadData => Some(&[HState::MAD]),
            Shape::HostMdData => Some(&[HState::MD]),
            Shape::HostMaSnpRsp => Some(&[HState::MA]),
            Shape::HostIdData => Some(&[HState::ID]),
            Shape::HostStaleDirtyEvictPull
            | Shape::HostStaleDirtyEvictDrop
            | Shape::HostStaleCleanEvictDrop => Some(&[HState::I, HState::S, HState::M]),
            Shape::HostBlockedData => Some(&[HState::IB, HState::SB, HState::MB]),
            Shape::HostEagerStaleDirtyEvict => Some(&[
                HState::SAD,
                HState::SD,
                HState::SA,
                HState::MAD,
                HState::MA,
                HState::MD,
            ]),
            _ => None,
        }
    }

    /// Is this a host collection rule, defined for one explicit peer of
    /// its requester (a snoop response, forwarded data, or the snooped
    /// owner)? [`Ruleset::try_fire_into`] fires such a rule as the first
    /// peer, in ascending index order, for which it fires; that choice
    /// does not commute with device permutation.
    /// [`Ruleset::fire_variants`] fires it once for each peer, which is
    /// the relation the symmetry-reduction engine explores.
    #[must_use]
    pub fn peer_scan(self) -> bool {
        matches!(self.fire(), Fire::Peer(_))
    }

    /// Does this shape's guard require a non-empty message channel (i.e.
    /// does firing it *consume* an in-flight message)? Device-issue
    /// shapes poll only the program; everything else consumes.
    ///
    /// This is one axis of the static locality table behind the
    /// partial-order-reduction engine: a device-local step is only a
    /// sound singleton ample set if **no shape sharing its cache-state
    /// bucket consumes messages** — otherwise a message arriving later
    /// could enable a dependent same-device rule before the local step
    /// fires.
    #[must_use]
    pub fn consumes_message(self) -> bool {
        self.category() != RuleCategory::DeviceIssue
    }

    /// Is this shape a *pure local retirement*: its guard reads only the
    /// acting device's cache state and program head, and its action pops
    /// the program and touches nothing else? (No channel traffic, no
    /// counter mint, no cache write — so it commutes with every rule of
    /// every other device and of the host, and it is invisible to SWMR
    /// and to the invariant, whose program conjuncts constrain transient
    /// states only.)
    #[must_use]
    pub fn local_retire(self) -> bool {
        matches!(self, Shape::SharedLoad | Shape::ModifiedLoad | Shape::InvalidEvict)
    }

    /// May the partial-order-reduction engine explore **only** this step
    /// from a state where it is enabled? Derived statically from the rule
    /// inventory: the shape must be a [`Self::local_retire`] step *and*
    /// no shape filed under the same device-cache-state bucket may
    /// consume messages (condition above). `SharedLoad`/`ModifiedLoad`
    /// fail the second test (a snoop can arrive and race the local hit);
    /// `InvalidEvict` passes — no shape keyed on `I` consumes anything,
    /// so while the device sits in `I` no other rule of that device can
    /// become enabled, and every other device's (and the host's) rules
    /// are independent of a pure program pop.
    #[must_use]
    pub fn safe_local(self) -> bool {
        self.local_retire()
            && Shape::ALL.iter().all(|&o| {
                o == self
                    || o.device_state_key() != self.device_state_key()
                    || !o.consumes_message()
            })
    }

    /// The H2D channel a *device-side* shape consumes from, or `None`
    /// for shapes that poll only the program (device issue) and for
    /// host-side shapes. Restates the channel half of
    /// [`Self::quick_enabled`]'s leading guards as data, so the POR
    /// engine can reason about which in-flight message could enable a
    /// same-bucket competitor.
    #[must_use]
    pub fn device_consumes(self) -> Option<H2DChannel> {
        self.device_state_key()?;
        match self.category() {
            RuleCategory::DeviceIssue => None,
            RuleCategory::DeviceSnoop => Some(H2DChannel::Req),
            _ => match self {
                // The buggy relaxed snoop also consumes from H2DReq.
                Shape::IsadSnpInvBuggy => Some(H2DChannel::Req),
                Shape::IsadData
                | Shape::IsdData
                | Shape::ImadData
                | Shape::ImdData
                | Shape::SmadData
                | Shape::SmdData
                | Shape::IsdiData => Some(H2DChannel::Data),
                _ => Some(H2DChannel::Rsp),
            },
        }
    }

    /// Is this a local retirement that is ample-safe **in snoop-free
    /// contexts**: a [`Self::local_retire`] step whose cache-state bucket
    /// contains message-consuming shapes, but all of them consuming only
    /// from the snoop channel (`H2DReq`)? In a state where the acting
    /// device's snoop channel is empty, no same-device rule can fire
    /// before the local step; the in-flight-snoop race that keeps these
    /// shapes out of the static [`Self::safe_local`] table is exactly the
    /// condition the widened POR engine checks dynamically. Derived:
    /// admits `SharedLoad` and `ModifiedLoad` (their buckets' only
    /// consumers are snoop shapes).
    #[must_use]
    pub fn snoop_gated_local(self) -> bool {
        self.local_retire()
            && !self.safe_local()
            && Shape::ALL.iter().all(|&o| {
                o == self
                    || o.device_state_key() != self.device_state_key()
                    || !o.consumes_message()
                    || o.device_consumes() == Some(H2DChannel::Req)
            })
    }

    /// If this shape is the **GO leg** of a completion diamond, the
    /// matching **data leg**: from the A/D-split transient states
    /// (`ISAD`/`IMAD`/`SMAD`) the pending GO and data may be consumed in
    /// either order, and the two orders *converge to the identical
    /// state* after both messages land (the GO records into the buffer,
    /// the data writes the cache value — disjoint effects; store
    /// completion happens once both are in). When both messages are in
    /// flight and the snoop channel is empty, the widened POR engine
    /// collapses the diamond by exploring only the GO leg. Validity of
    /// the collapse additionally requires the bucket to contain no other
    /// message consumer beyond the two legs and snoop shapes — pinned by
    /// the `diamond_buckets_contain_only_legs_and_snoops` test.
    #[must_use]
    pub fn completion_diamond(self) -> Option<Shape> {
        match self {
            Shape::IsadGo => Some(Shape::IsadData),
            Shape::ImadGo => Some(Shape::ImadData),
            Shape::SmadGo => Some(Shape::SmadData),
            _ => None,
        }
    }

    /// Is this a **host-drain** step: a host-side rule whose guard reads
    /// only the host's own fields plus the head of one device's `D2HData`
    /// channel, and whose action pops that message and writes only host
    /// fields (no H2D pushes, no counter mint, no cache write)? These are
    /// the message-consuming host shapes the widened POR engine may elect
    /// as a singleton ample set when the drain is the *only* host activity
    /// possible — derived from the [`Self::device_consumes`] channel table:
    /// every device-side consumer reads `H2DReq`/`H2DRsp`/`H2DData`, so a
    /// pure `D2HData` pop can neither enable nor disable any device rule,
    /// and with all `h2d_req` queues empty no *other* host rule's
    /// peer-scan can race the drain. The remaining host/host dependence
    /// (two drains at different devices both write `host.val`) is ruled
    /// out dynamically by the at-most-one-mintable-device gate in
    /// `cxl-reduce`. Table membership is pinned by the
    /// `host_drain_shapes_consume_data_and_touch_only_the_host` test.
    #[must_use]
    pub fn host_drain(self) -> bool {
        matches!(self, Shape::HostIdData | Shape::HostBlockedData)
    }

    /// A cheap **necessary** condition for this shape to be enabled for
    /// `dev` in `state` — the guard pre-check of the exploration hot path.
    ///
    /// Every arm restates only the *leading* guards of the corresponding
    /// rule function (required cache/host state plus the non-emptiness of
    /// the channel or program the rule consumes from); configuration
    /// toggles and the deeper guards stay in the rule itself. The
    /// contract, enforced by `prefilter_is_sound_for_every_rule` below and
    /// by the workspace's differential tests, is one-sided:
    /// `try_fire(..).is_some()` implies `quick_enabled(..)`. The pre-check
    /// rejects the vast majority of the 138 rule instances per state
    /// without cloning a candidate successor.
    #[must_use]
    #[inline]
    pub fn quick_enabled(self, s: &SystemState, d: DeviceId) -> bool {
        use crate::instr::Instruction as I;
        let dev = s.dev(d);
        let cs = dev.cache.state;
        let head = dev.prog.head();
        match self {
            // Device issue: stable state + matching program head.
            Shape::InvalidLoad => cs == DState::I && head == Some(I::Load),
            Shape::InvalidStore => cs == DState::I && matches!(head, Some(I::Store(_))),
            Shape::InvalidEvict => cs == DState::I && head == Some(I::Evict),
            Shape::SharedLoad => cs == DState::S && head == Some(I::Load),
            Shape::SharedStore => cs == DState::S && matches!(head, Some(I::Store(_))),
            Shape::SharedEvict | Shape::SharedEvictNoData => {
                cs == DState::S && head == Some(I::Evict)
            }
            Shape::ModifiedLoad => cs == DState::M && head == Some(I::Load),
            Shape::ModifiedStore => cs == DState::M && matches!(head, Some(I::Store(_))),
            Shape::ModifiedEvict => cs == DState::M && head == Some(I::Evict),
            // Device completion: transient state + a message to consume.
            Shape::IsadGo => cs == DState::ISAD && !dev.h2d_rsp.is_empty(),
            Shape::IsadData => cs == DState::ISAD && !dev.h2d_data.is_empty(),
            Shape::IsdData => cs == DState::ISD && !dev.h2d_data.is_empty(),
            Shape::IsaGo => cs == DState::ISA && !dev.h2d_rsp.is_empty(),
            Shape::ImadGo => cs == DState::IMAD && !dev.h2d_rsp.is_empty(),
            Shape::ImadData => cs == DState::IMAD && !dev.h2d_data.is_empty(),
            Shape::ImdData => cs == DState::IMD && !dev.h2d_data.is_empty(),
            Shape::ImaGo => cs == DState::IMA && !dev.h2d_rsp.is_empty(),
            Shape::SmadGo => cs == DState::SMAD && !dev.h2d_rsp.is_empty(),
            Shape::SmadData => cs == DState::SMAD && !dev.h2d_data.is_empty(),
            Shape::SmdData => cs == DState::SMD && !dev.h2d_data.is_empty(),
            Shape::SmaGo => cs == DState::SMA && !dev.h2d_rsp.is_empty(),
            Shape::SiaGoWritePullDrop | Shape::SiaGoWritePull => {
                cs == DState::SIA && !dev.h2d_rsp.is_empty()
            }
            Shape::SiacGoWritePullDrop => cs == DState::SIAC && !dev.h2d_rsp.is_empty(),
            Shape::MiaGoWritePull => cs == DState::MIA && !dev.h2d_rsp.is_empty(),
            Shape::IiaGoWritePull | Shape::IiaGoWritePullDrop => {
                cs == DState::IIA && !dev.h2d_rsp.is_empty()
            }
            Shape::IsdiData => cs == DState::ISDI && !dev.h2d_data.is_empty(),
            // Device snoops: matching state + a pending snoop.
            Shape::SharedSnpInv => cs == DState::S && !dev.h2d_req.is_empty(),
            Shape::ModifiedSnpInv | Shape::ModifiedSnpData => {
                cs == DState::M && !dev.h2d_req.is_empty()
            }
            Shape::IsdSnpInv => cs == DState::ISD && !dev.h2d_req.is_empty(),
            Shape::SmadSnpInv => cs == DState::SMAD && !dev.h2d_req.is_empty(),
            Shape::SiaSnpInv => cs == DState::SIA && !dev.h2d_req.is_empty(),
            Shape::SiacSnpInv => cs == DState::SIAC && !dev.h2d_req.is_empty(),
            Shape::MiaSnpInv | Shape::MiaSnpData => {
                cs == DState::MIA && !dev.h2d_req.is_empty()
            }
            Shape::IsadSnpInvBuggy => cs == DState::ISAD && !dev.h2d_req.is_empty(),
            // Host request admission: host state + a pending request from
            // the requester.
            Shape::HostInvalidRdShared | Shape::HostInvalidRdOwn => {
                s.host.state == HState::I && !dev.d2h_req.is_empty()
            }
            Shape::HostSharedRdShared
            | Shape::HostSharedRdOwnLast
            | Shape::HostSharedRdOwnOther => {
                s.host.state == HState::S && !dev.d2h_req.is_empty()
            }
            Shape::HostModifiedRdShared | Shape::HostModifiedRdOwn => {
                s.host.state == HState::M && !dev.d2h_req.is_empty()
            }
            // Host response/data collection: consumes from one of the
            // requester's *peers*.
            Shape::HostSadRspSFwdM => {
                s.host.state == HState::SAD && s.any_peer(d, |p| !p.d2h_rsp.is_empty())
            }
            Shape::HostSadData => {
                s.host.state == HState::SAD && s.any_peer(d, |p| !p.d2h_data.is_empty())
            }
            Shape::HostSdData => {
                s.host.state == HState::SD && s.any_peer(d, |p| !p.d2h_data.is_empty())
            }
            Shape::HostSaRspSFwdM => {
                s.host.state == HState::SA && s.any_peer(d, |p| !p.d2h_rsp.is_empty())
            }
            Shape::HostMadRspIFwdM => {
                s.host.state == HState::MAD && s.any_peer(d, |p| !p.d2h_rsp.is_empty())
            }
            Shape::HostMadData => {
                s.host.state == HState::MAD && s.any_peer(d, |p| !p.d2h_data.is_empty())
            }
            Shape::HostMdData => {
                s.host.state == HState::MD && s.any_peer(d, |p| !p.d2h_data.is_empty())
            }
            Shape::HostMaSnpRsp => {
                s.host.state == HState::MA && s.any_peer(d, |p| !p.d2h_rsp.is_empty())
            }
            // Host evictions.
            Shape::HostCleanEvictDropLast
            | Shape::HostCleanEvictDropNotLast
            | Shape::HostCleanEvictPullLast
            | Shape::HostCleanEvictPullNotLast
            | Shape::HostCleanedDirtyEvictDrop
            | Shape::HostCleanedDirtyEvictPull => {
                s.host.state == HState::S && cs == DState::SIA && !dev.d2h_req.is_empty()
            }
            Shape::HostCleanEvictNoDataLast | Shape::HostCleanEvictNoDataNotLast => {
                s.host.state == HState::S && cs == DState::SIAC && !dev.d2h_req.is_empty()
            }
            Shape::HostModifiedDirtyEvict => {
                s.host.state == HState::M && cs == DState::MIA && !dev.d2h_req.is_empty()
            }
            Shape::HostIdData => s.host.state == HState::ID && !dev.d2h_data.is_empty(),
            Shape::HostStaleDirtyEvictPull
            | Shape::HostStaleDirtyEvictDrop
            | Shape::HostStaleCleanEvictDrop => {
                cs == DState::IIA && s.host.state.is_stable() && !dev.d2h_req.is_empty()
            }
            Shape::HostBlockedData => {
                s.host.state.is_blocked_on_pull() && !dev.d2h_data.is_empty()
            }
            Shape::HostEagerStaleDirtyEvict => {
                cs == DState::MIA && !dev.h2d_req.is_empty() && !dev.d2h_req.is_empty()
            }
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A concrete rule: a shape instantiated for one device. For device-side
/// shapes `dev` is the acting device; for host-side shapes it is the
/// requester/evictor the transaction serves (matching the paper's naming,
/// e.g. `HostModifiedDirtyEvict1` serves device 1's eviction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RuleId {
    /// The rule shape.
    pub shape: Shape,
    /// The device this instance acts for.
    pub dev: DeviceId,
}

impl RuleId {
    /// Construct a rule identifier.
    #[must_use]
    pub fn new(shape: Shape, dev: DeviceId) -> Self {
        RuleId { shape, dev }
    }

    /// Paper-style name, e.g. `HostModifiedDirtyEvict1`.
    #[must_use]
    pub fn name(self) -> String {
        self.shape.rule_name(self.dev)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.shape, self.dev)
    }
}

/// The rule engine: the full instantiated rule set under a given
/// [`ProtocolConfig`] and [`Topology`] — every shape instantiated once per
/// device.
///
/// # Examples
///
/// ```
/// use cxl_core::{ProtocolConfig, Ruleset, SystemState};
/// use cxl_core::instr::programs;
///
/// let rules = Ruleset::new(ProtocolConfig::strict());
/// let s = SystemState::initial(programs::store(42), programs::load());
/// let succs = rules.successors(&s);
/// assert!(!succs.is_empty(), "initial state must not be stuck");
///
/// // A three-device engine instantiates 69 shapes × 3 devices.
/// let wide = Ruleset::with_devices(ProtocolConfig::strict(), 3);
/// assert_eq!(wide.rule_ids().len(), 69 * 3);
/// ```
#[derive(Clone, Debug)]
pub struct Ruleset {
    config: ProtocolConfig,
    topology: Topology,
    ids: Vec<RuleId>,
    /// Per `(DState, device)` bucket: dense indices of the device-side
    /// rule instances whose acting device must hold that cache state.
    device_buckets: Vec<Vec<u16>>,
    /// Per `HState` bucket: dense indices of the host-side rule instances
    /// (all devices) that can possibly fire under that host state.
    host_buckets: Vec<Vec<u16>>,
}

/// Upper bound on the candidates gathered per state in
/// `Ruleset::for_each_candidate`: one device bucket per device plus the
/// host bucket, each bounded well under `19 × Topology::MAX_DEVICES`.
const CANDIDATE_CAP: usize = 256;

impl Ruleset {
    /// Build the paper's two-device rule set for `config`.
    #[must_use]
    pub fn new(config: ProtocolConfig) -> Self {
        Self::with_topology(config, Topology::pair())
    }

    /// Build the rule set for `config` over `devices` devices.
    ///
    /// # Panics
    /// Panics if `devices` is outside `2..=Topology::MAX_DEVICES`.
    #[must_use]
    pub fn with_devices(config: ProtocolConfig, devices: usize) -> Self {
        Self::with_topology(config, Topology::new(devices))
    }

    /// Build the rule set for `config` over `topology`. All shapes are
    /// instantiated for every device; rules whose enabling condition
    /// depends on the configuration simply never fire when disabled. Rule
    /// instances are additionally bucketed by the cache/host state their
    /// leading guard requires, so successor generation consults a handful
    /// of candidates per state instead of scanning every instance.
    #[must_use]
    pub fn with_topology(config: ProtocolConfig, topology: Topology) -> Self {
        let n = topology.device_count();
        let mut ids = Vec::with_capacity(Shape::ALL.len() * n);
        for &shape in Shape::ALL {
            for dev in topology.devices() {
                ids.push(RuleId::new(shape, dev));
            }
        }

        let mut device_buckets = vec![Vec::new(); DState::ALL.len() * n];
        let mut host_buckets = vec![Vec::new(); HState::ALL.len()];
        for (pos, &id) in ids.iter().enumerate() {
            let dense = u16::try_from(pos).expect("instance count fits u16");
            if let Some(ds) = id.shape.device_state_key() {
                device_buckets[(ds as usize) * n + id.dev.index()].push(dense);
            } else if let Some(hs) = id.shape.host_state_keys() {
                for &h in hs {
                    host_buckets[h as usize].push(dense);
                }
            } else {
                unreachable!("shape {:?} has neither a device nor a host bucket key", id.shape);
            }
        }

        let widest_dev = device_buckets.iter().map(Vec::len).max().unwrap_or(0);
        let widest_host = host_buckets.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            n * widest_dev + widest_host <= CANDIDATE_CAP,
            "candidate buffer too small for {topology}"
        );

        Ruleset { config, topology, ids, device_buckets, host_buckets }
    }

    /// The configuration this rule set runs under.
    #[must_use]
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// The topology this rule set is instantiated over.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of devices the rule set is instantiated for.
    #[must_use]
    #[inline]
    pub fn device_count(&self) -> usize {
        self.topology.device_count()
    }

    /// The instance's position in [`Self::rule_ids`]'s canonical order —
    /// a dense `0..rule_ids().len()` key for flat per-rule counters, so
    /// hot loops never need a map keyed by `RuleId`.
    #[must_use]
    #[inline]
    pub fn dense_index(&self, id: RuleId) -> usize {
        (id.shape as usize) * self.device_count() + id.dev.index()
    }

    /// All instantiated rule identifiers (number of shapes × device
    /// count).
    #[must_use]
    pub fn rule_ids(&self) -> &[RuleId] {
        &self.ids
    }

    /// A state explored by this rule set must inhabit the same topology —
    /// checked once per successor-generation call (cheap), and again per
    /// `try_fire` in debug builds, so an N-device rule set applied to an
    /// M-device state fails with a diagnosis instead of an opaque
    /// out-of-bounds panic.
    #[inline]
    fn assert_same_topology(&self, state: &SystemState) {
        assert_eq!(
            state.device_count(),
            self.device_count(),
            "rule set instantiated for {} but the state has {} devices",
            self.topology,
            state.device_count()
        );
    }

    /// Attempt to fire one rule **into a caller-owned scratch successor**
    /// — the allocation-free firing primitive (ROADMAP's `try_fire_into`
    /// item). If every guard holds, `out` is `clone_from`'d with the
    /// pre-state and the rule's actions are applied to it, returning
    /// `true`; otherwise `out` is untouched (still holding whatever the
    /// previous firing left) and the call returns `false`. Because
    /// `clone_from` reuses `out`'s heap blocks (program queues, spilled
    /// channels, the device spill), a caller that reuses one scratch
    /// across a whole exploration stops allocating per successor —
    /// duplicates that fail fingerprint dedup cost no allocation at all.
    ///
    /// A [`Shape::peer_scan`] rule fires as the first peer, in ascending
    /// index order, for which it fires: the first of its
    /// [`Self::fire_variants`].
    #[must_use]
    pub fn try_fire_into(&self, id: RuleId, state: &SystemState, out: &mut SystemState) -> bool {
        debug_assert_eq!(
            state.device_count(),
            self.device_count(),
            "state/topology device-count mismatch"
        );
        match id.shape.fire() {
            Fire::Own(fire) => fire(state, id.dev, &self.config, out),
            Fire::Peer(fire) => {
                self.topology.peers(id.dev).any(|o| fire(state, id.dev, o, &self.config, out))
            }
        }
    }

    /// Attempt to fire one rule: returns the successor state if every
    /// guard holds, or `None` if the rule is disabled in `state`. The
    /// allocating convenience wrapper over [`Self::try_fire_into`].
    #[must_use]
    pub fn try_fire(&self, id: RuleId, state: &SystemState) -> Option<SystemState> {
        let mut out = SystemState::initial_n(self.device_count(), Vec::new());
        self.try_fire_into(id, state, &mut out).then_some(out)
    }

    /// Is the rule enabled in `state`?
    #[must_use]
    pub fn enabled(&self, id: RuleId, state: &SystemState) -> bool {
        self.try_fire(id, state).is_some()
    }

    /// Fire every **variant** of rule `id` in `state` into `scratch`,
    /// handing each successor to `f` by reference, and return how many
    /// fired.
    ///
    /// A [`Shape::peer_scan`] shape runs its firing function for each
    /// peer of the requester in ascending order and yields one successor
    /// per peer that fires — the *equivariant* form of the host's
    /// collection rules, under which the successor relation commutes with
    /// device permutation (`succs(σ(s)) = σ(succs(s))` for every
    /// permutation σ). For every other shape it is exactly
    /// [`Self::try_fire_into`] (zero or one successors). The first variant
    /// is always [`Self::try_fire_into`]'s successor.
    pub fn fire_variants(
        &self,
        id: RuleId,
        state: &SystemState,
        scratch: &mut SystemState,
        mut f: impl FnMut(&SystemState),
    ) -> usize {
        match id.shape.fire() {
            Fire::Own(fire) => {
                let fired = fire(state, id.dev, &self.config, scratch);
                if fired {
                    f(scratch);
                }
                usize::from(fired)
            }
            Fire::Peer(fire) => {
                let mut fired = 0;
                for o in self.topology.peers(id.dev) {
                    if fire(state, id.dev, o, &self.config, scratch) {
                        fired += 1;
                        f(scratch);
                    }
                }
                fired
            }
        }
    }

    /// [`Self::for_each_enabled_mut`] over the **equivariant** successor
    /// relation: each candidate rule yields every one of its
    /// [`Self::fire_variants`], where the unreduced search takes only the
    /// first. Candidates, guard pre-checks and order are the same, so
    /// where every collection rule fires for at most one peer (every
    /// two-device state, and most wider ones) the two emit the same
    /// successors.
    ///
    /// This is the relation the symmetry-reduction engine explores: the
    /// first-firing-peer choice does not commute with device permutation,
    /// so canonical-representative search must consider every peer's
    /// variant to cover each orbit.
    pub fn for_each_enabled_variants(
        &self,
        state: &SystemState,
        scratch: &mut SystemState,
        mut f: impl FnMut(RuleId, &SystemState),
    ) {
        self.for_each_candidate(state, |id| {
            self.fire_variants(id, state, scratch, |succ| f(id, succ));
        });
    }

    /// All enabled transitions from `state`, as `(rule, successor)` pairs,
    /// in canonical rule order.
    ///
    /// Each rule instance is first screened by [`Shape::quick_enabled`],
    /// which rejects most without constructing a candidate successor; the
    /// surviving few run their full guards in [`Self::try_fire_into`]. The
    /// enabled set is identical to [`Self::successors_naive`] — the
    /// differential tests in `tests/differential.rs` hold the two paths
    /// equal over whole exploration runs.
    #[must_use]
    pub fn successors(&self, state: &SystemState) -> Vec<(RuleId, SystemState)> {
        let mut out = Vec::new();
        let mut scratch = SystemState::initial_n(self.device_count(), Vec::new());
        self.for_each_enabled_mut(state, &mut scratch, |id, succ| out.push((id, succ.clone())));
        out
    }

    /// Hand `f` every rule instance that may be enabled in `state`, in
    /// canonical dense-index order (the order of the naive full scan).
    /// The candidates come from the buckets `state` keys into (one per
    /// device cache state, one for the host state), and
    /// [`Shape::quick_enabled`] screens out most of them. The candidate
    /// list is bounded by `CANDIDATE_CAP` (asserted at construction for
    /// the topology), so it lives on the stack.
    fn for_each_candidate(&self, state: &SystemState, mut f: impl FnMut(RuleId)) {
        self.assert_same_topology(state);
        let ndev = self.device_count();
        let mut buf = [0u16; CANDIDATE_CAP];
        let mut n = 0usize;
        let mut push_all = |bucket: &[u16]| {
            buf[n..n + bucket.len()].copy_from_slice(bucket);
            n += bucket.len();
        };
        for d in self.topology.devices() {
            let cs = state.dev(d).cache.state;
            push_all(&self.device_buckets[(cs as usize) * ndev + d.index()]);
        }
        push_all(&self.host_buckets[state.host.state as usize]);
        buf[..n].sort_unstable();
        for &dense in &buf[..n] {
            let id = self.ids[dense as usize];
            if id.shape.quick_enabled(state, id.dev) {
                f(id);
            }
        }
    }

    /// The zero-alloc streaming form of successor generation — the model
    /// checker's expansion primitive. Every enabled rule is fired **into
    /// `scratch`** via [`Self::try_fire_into`] and handed to `f`, in the
    /// same canonical order as [`Self::successors`]; the caller typically
    /// encodes the successor into a packed byte buffer rather than
    /// cloning it. Between calls to `f`, `scratch` is overwritten in place
    /// (`clone_from`), so once its heap blocks have grown to the
    /// workload's high-water mark the whole generation loop performs no
    /// allocation.
    ///
    /// The callback may also *take* the fired state — typically by
    /// `mem::swap`ping a spare allocated state in — since every rule
    /// rebuilds its output from the source state (`clone_from`) before
    /// mutating; the replacement only needs to be *some* allocated state
    /// of the same topology. This is what lets the sequential checker's
    /// decoded-frontier ring capture successors at zero cost.
    pub fn for_each_enabled_mut(
        &self,
        state: &SystemState,
        scratch: &mut SystemState,
        mut f: impl FnMut(RuleId, &mut SystemState),
    ) {
        self.for_each_candidate(state, |id| {
            if self.try_fire_into(id, state, scratch) {
                f(id, scratch);
            }
        });
    }

    /// Reference successor generation: fire every rule's full guard with
    /// no pre-screening. Kept as the oracle the optimized path
    /// ([`Self::successors`]) is differentially tested against. One
    /// scratch state serves the whole scan (constructed once per call,
    /// not once per rule instance), so the naive baseline's cost profile
    /// stays what it always was: full guards plus one clone per enabled
    /// rule.
    #[must_use]
    pub fn successors_naive(&self, state: &SystemState) -> Vec<(RuleId, SystemState)> {
        self.assert_same_topology(state);
        let mut scratch = SystemState::initial_n(self.device_count(), Vec::new());
        let mut out = Vec::new();
        for &id in &self.ids {
            if self.try_fire_into(id, state, &mut scratch) {
                out.push((id, scratch.clone()));
            }
        }
        out
    }

    /// The rules relying on perfect tracking (paper §8 enumerates these in
    /// `PerfectTrackingRules.txt`; we expose them programmatically).
    #[must_use]
    pub fn perfect_tracking_rules(&self) -> Vec<RuleId> {
        self.ids.iter().copied().filter(|id| id.shape.perfect_tracking()).collect()
    }
}

impl Default for Ruleset {
    fn default() -> Self {
        Ruleset::new(ProtocolConfig::strict())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::programs;

    #[test]
    fn shape_inventory() {
        // 69 shapes — see module docs; 2 of them relaxed-only.
        assert_eq!(Shape::ALL.len(), 69);
        let relaxed = Shape::ALL.iter().filter(|s| s.category() == RuleCategory::Relaxed).count();
        assert_eq!(relaxed, 2);
    }

    #[test]
    fn ruleset_instantiates_each_shape_twice() {
        let rules = Ruleset::default();
        assert_eq!(rules.rule_ids().len(), Shape::ALL.len() * 2);
    }

    #[test]
    fn rule_names_match_paper_style() {
        assert_eq!(RuleId::new(Shape::InvalidLoad, DeviceId::D1).name(), "InvalidLoad1");
        assert_eq!(
            RuleId::new(Shape::HostModifiedDirtyEvict, DeviceId::D2).name(),
            "HostModifiedDirtyEvict2"
        );
    }

    #[test]
    fn perfect_tracking_rules_are_host_side() {
        let rules = Ruleset::default();
        let pt = rules.perfect_tracking_rules();
        assert!(!pt.is_empty());
        for id in pt {
            assert!(
                matches!(
                    id.shape.category(),
                    RuleCategory::HostRequest
                        | RuleCategory::HostResponse
                        | RuleCategory::HostEvict
                        | RuleCategory::Relaxed
                ),
                "{id} claims perfect tracking but is device-side"
            );
        }
    }

    #[test]
    fn every_shape_has_exactly_one_bucket_key() {
        for &shape in Shape::ALL {
            let dev_key = shape.device_state_key().is_some();
            let host_key = shape.host_state_keys().is_some();
            assert!(
                dev_key ^ host_key,
                "{shape:?} must have exactly one bucketing key (device: {dev_key}, \
                 host: {host_key})"
            );
        }
    }

    #[test]
    fn candidate_buckets_fit_the_stack_buffer() {
        // for_each_candidate gathers candidates into a fixed stack array:
        // the worst case is the widest device bucket for each device plus
        // the widest host bucket. Construction asserts the bound; exercise
        // it at the maximum supported topology.
        let rules = Ruleset::with_devices(ProtocolConfig::full(), Topology::MAX_DEVICES);
        let widest_dev = rules.device_buckets.iter().map(Vec::len).max().unwrap_or(0);
        let widest_host = rules.host_buckets.iter().map(Vec::len).max().unwrap_or(0);
        assert!(
            Topology::MAX_DEVICES * widest_dev + widest_host <= CANDIDATE_CAP,
            "candidate buffer too small: {}×{widest_dev} + {widest_host} > {CANDIDATE_CAP}",
            Topology::MAX_DEVICES
        );
    }

    #[test]
    fn dense_index_matches_canonical_order() {
        for n in [2, 3, 5] {
            let rules = Ruleset::with_devices(ProtocolConfig::strict(), n);
            for (pos, &id) in rules.rule_ids().iter().enumerate() {
                assert_eq!(rules.dense_index(id), pos, "{id} dense index out of order at N={n}");
            }
            assert_eq!(rules.rule_ids().len(), Shape::ALL.len() * n);
        }
    }

    #[test]
    fn prefilter_is_sound_for_every_rule() {
        // quick_enabled must over-approximate enabledness: wherever the
        // full guard fires, the pre-check must have let it through. Walk a
        // few BFS levels of a scenario that exercises loads, stores and
        // evictions under the maximal configuration, plus a relaxed one
        // for the buggy shapes.
        use crate::config::Relaxation;
        let configs = [
            ProtocolConfig::full(),
            ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
            ProtocolConfig::relaxed(Relaxation::GoCannotTailgateSnoop),
        ];
        for cfg in configs {
            let rules = Ruleset::new(cfg);
            let mut frontier = vec![SystemState::initial(
                programs::stores(0, 2),
                vec![crate::instr::Instruction::Load, crate::instr::Instruction::Evict],
            )];
            for _ in 0..6 {
                let mut next = Vec::new();
                for st in &frontier {
                    for &id in rules.rule_ids() {
                        if let Some(succ) = rules.try_fire(id, st) {
                            assert!(
                                id.shape.quick_enabled(st, id.dev),
                                "{id} fired but quick_enabled rejected it in\n{st}"
                            );
                            next.push(succ);
                        }
                    }
                }
                next.truncate(64); // keep the walk cheap
                frontier = next;
            }
        }
    }

    #[test]
    fn successors_match_naive_reference() {
        let rules = Ruleset::new(ProtocolConfig::full());
        let mut frontier = vec![SystemState::initial(programs::store(1), programs::load())];
        for _ in 0..5 {
            let mut next = Vec::new();
            for st in &frontier {
                let succs = rules.successors(st);
                let naive = rules.successors_naive(st);
                assert_eq!(succs, naive, "optimized/naive divergence in\n{st}");
                next.extend(succs.into_iter().map(|(_, s)| s));
            }
            frontier = next;
        }
    }

    #[test]
    fn safe_local_table_derives_exactly_invalid_evict() {
        // The static locality table behind the POR engine: the only
        // singleton-ample-safe shape is InvalidEvict — a pure program pop
        // whose cache-state bucket (I) contains no message-consuming
        // shape, so no same-device rule can become enabled before it
        // fires, and every other-device/host rule is independent of it.
        let safe: Vec<Shape> =
            Shape::ALL.iter().copied().filter(|s| s.safe_local()).collect();
        assert_eq!(safe, vec![Shape::InvalidEvict]);
        // The near misses fail for the documented reason: a snoop shape
        // shares their bucket.
        for shape in [Shape::SharedLoad, Shape::ModifiedLoad] {
            assert!(shape.local_retire());
            assert!(!shape.safe_local(), "{shape:?} races a same-bucket snoop");
        }
        // Pin the non-consuming set explicitly (an independent copy of
        // the inventory, so a future shape mis-categorized as
        // DeviceIssue while consuming messages fails here rather than
        // silently widening the POR table's premise).
        let polling: Vec<Shape> =
            Shape::ALL.iter().copied().filter(|s| !s.consumes_message()).collect();
        assert_eq!(
            polling,
            vec![
                Shape::InvalidLoad,
                Shape::InvalidStore,
                Shape::InvalidEvict,
                Shape::SharedLoad,
                Shape::SharedStore,
                Shape::SharedEvict,
                Shape::SharedEvictNoData,
                Shape::ModifiedLoad,
                Shape::ModifiedStore,
                Shape::ModifiedEvict,
            ],
            "only the device-issue rules poll the program without consuming a message"
        );
        // And the peer-scan metadata is the shape table's `Peer` column;
        // pin the expected ten host collection shapes.
        let scanning: Vec<Shape> =
            Shape::ALL.iter().copied().filter(|s| s.peer_scan()).collect();
        assert_eq!(
            scanning,
            vec![
                Shape::HostModifiedRdShared,
                Shape::HostModifiedRdOwn,
                Shape::HostSadRspSFwdM,
                Shape::HostSadData,
                Shape::HostSdData,
                Shape::HostSaRspSFwdM,
                Shape::HostMadRspIFwdM,
                Shape::HostMadData,
                Shape::HostMdData,
                Shape::HostMaSnpRsp,
            ],
            "the peer-scan set is exactly the host collection rules"
        );
    }

    #[test]
    fn widened_locality_tables_derive_the_documented_shapes() {
        // The snoop-gated set is exactly the two local cache hits whose
        // buckets contain only snoop consumers.
        let gated: Vec<Shape> =
            Shape::ALL.iter().copied().filter(|s| s.snoop_gated_local()).collect();
        assert_eq!(gated, vec![Shape::SharedLoad, Shape::ModifiedLoad]);
        // Their buckets' consumers really are snoop-only.
        for t in gated {
            for &o in Shape::ALL {
                if o != t && o.device_state_key() == t.device_state_key() && o.consumes_message()
                {
                    assert_eq!(o.device_consumes(), Some(H2DChannel::Req), "{o:?}");
                }
            }
        }
        // Every device-side consumer names its channel; issue shapes and
        // host-side shapes name none.
        for &s in Shape::ALL {
            match (s.device_state_key(), s.category()) {
                (Some(_), RuleCategory::DeviceIssue) | (None, _) => {
                    assert_eq!(s.device_consumes(), None, "{s:?}");
                }
                (Some(_), _) => assert!(s.device_consumes().is_some(), "{s:?}"),
            }
        }
    }

    #[test]
    fn diamond_buckets_contain_only_legs_and_snoops() {
        // The diamond table lists exactly the three GO legs, and each
        // bucket's message consumers are the two legs plus (possibly)
        // snoop shapes — the premise of the wide POR engine's collapse.
        let diamonds: Vec<(Shape, Shape)> = Shape::ALL
            .iter()
            .filter_map(|&s| s.completion_diamond().map(|d| (s, d)))
            .collect();
        assert_eq!(
            diamonds,
            vec![
                (Shape::IsadGo, Shape::IsadData),
                (Shape::ImadGo, Shape::ImadData),
                (Shape::SmadGo, Shape::SmadData),
            ]
        );
        for (go, data) in diamonds {
            assert_eq!(go.device_consumes(), Some(H2DChannel::Rsp));
            assert_eq!(data.device_consumes(), Some(H2DChannel::Data));
            assert_eq!(go.device_state_key(), data.device_state_key());
            for &o in Shape::ALL {
                if o != go
                    && o != data
                    && o.device_state_key() == go.device_state_key()
                    && o.consumes_message()
                {
                    assert_eq!(
                        o.device_consumes(),
                        Some(H2DChannel::Req),
                        "{o:?} shares {go:?}'s bucket but consumes a non-snoop message"
                    );
                }
            }
        }
    }

    #[test]
    fn host_drain_shapes_consume_data_and_touch_only_the_host() {
        // Table membership: exactly the two D2HData-popping host rules.
        let drains: Vec<Shape> = Shape::ALL.iter().copied().filter(|s| s.host_drain()).collect();
        assert_eq!(drains, vec![Shape::HostIdData, Shape::HostBlockedData]);
        for &t in &drains {
            assert!(t.host_state_keys().is_some(), "{t:?} must be host-side");
            assert!(t.consumes_message(), "{t:?} must consume a message");
            assert!(!t.peer_scan(), "{t:?} must not peer-scan");
        }
        // Dynamic pin of the footprint: wherever a drain fires, the
        // successor differs from the source ONLY in host fields and in
        // the acting device's d2h_data head — every channel the devices
        // consume from (and every program, cache, buffer, and the tid
        // counter) is untouched, which is the premise of the host-drain
        // ample tier in cxl-reduce.
        let rules = Ruleset::with_devices(ProtocolConfig::full(), 3);
        let mut frontier = vec![SystemState::initial_n(
            3,
            vec![
                vec![crate::instr::Instruction::Store(7), crate::instr::Instruction::Evict]
                    .into(),
                programs::stores(0, 2),
                programs::loads(1),
            ],
        )];
        let mut checked = 0usize;
        for _ in 0..10 {
            let mut next = Vec::new();
            for st in &frontier {
                let succs = rules.successors(st);
                for &(t, ref succ) in succs.iter().filter(|(id, _)| id.shape.host_drain()) {
                    assert_eq!(succ.counter, st.counter, "{t} minted a tid in\n{st}");
                    for d in st.device_ids() {
                        let (before, after) = (st.dev(d), succ.dev(d));
                        assert_eq!(before.prog, after.prog, "{t} touched a program");
                        assert_eq!(before.cache, after.cache, "{t} touched a cache");
                        assert_eq!(before.buffer, after.buffer, "{t} touched a buffer");
                        assert_eq!(before.h2d_req, after.h2d_req, "{t} pushed a snoop");
                        assert_eq!(before.h2d_rsp, after.h2d_rsp, "{t} pushed a rsp");
                        assert_eq!(before.h2d_data, after.h2d_data, "{t} pushed data");
                        assert_eq!(before.d2h_req, after.d2h_req, "{t} touched d2h_req");
                        assert_eq!(before.d2h_rsp, after.d2h_rsp, "{t} touched d2h_rsp");
                        if d == t.dev {
                            assert_eq!(
                                before.d2h_data.iter().skip(1).collect::<Vec<_>>(),
                                after.d2h_data.iter().collect::<Vec<_>>(),
                                "{t} must pop exactly its own data head"
                            );
                        } else {
                            assert_eq!(before.d2h_data, after.d2h_data, "{t} popped a peer");
                        }
                    }
                    checked += 1;
                }
                next.extend(succs.into_iter().map(|(_, s)| s));
            }
            next.truncate(96);
            frontier = next;
        }
        assert!(checked > 0, "the walk must exercise at least one host drain");
    }

    #[test]
    fn completion_diamonds_converge_to_identical_states() {
        // Dynamic pin of the confluence the wide POR engine exploits:
        // wherever both legs of a diamond are enabled, GO-then-data and
        // data-then-GO reach the same state after both messages land.
        let rules = Ruleset::new(ProtocolConfig::full());
        let follow = |shape: Shape| -> Vec<Shape> {
            // The second step of each leg (from the post-leg state).
            match shape {
                Shape::IsadGo => vec![Shape::IsdData],
                Shape::IsadData => vec![Shape::IsaGo],
                Shape::ImadGo => vec![Shape::ImdData],
                Shape::ImadData => vec![Shape::ImaGo],
                Shape::SmadGo => vec![Shape::SmdData],
                Shape::SmadData => vec![Shape::SmaGo],
                other => unreachable!("not a diamond leg: {other:?}"),
            }
        };
        let mut frontier = vec![SystemState::initial(programs::store(1), programs::loads(2))];
        let mut checked = 0usize;
        for _ in 0..10 {
            let mut next = Vec::new();
            for st in &frontier {
                for d in st.device_ids() {
                    for &go in &[Shape::IsadGo, Shape::ImadGo, Shape::SmadGo] {
                        let data = go.completion_diamond().unwrap();
                        let (Some(after_go), Some(after_data)) = (
                            rules.try_fire(RuleId::new(go, d), st),
                            rules.try_fire(RuleId::new(data, d), st),
                        ) else {
                            continue;
                        };
                        let mut joins_go = Vec::new();
                        let mut joins_data = Vec::new();
                        for &f in &follow(go) {
                            if let Some(j) = rules.try_fire(RuleId::new(f, d), &after_go) {
                                joins_go.push(j);
                            }
                        }
                        for &f in &follow(data) {
                            if let Some(j) = rules.try_fire(RuleId::new(f, d), &after_data) {
                                joins_data.push(j);
                            }
                        }
                        assert_eq!(joins_go, joins_data, "diamond {go:?} diverged in\n{st}");
                        assert!(!joins_go.is_empty(), "diamond {go:?} has no join in\n{st}");
                        checked += 1;
                    }
                }
                next.extend(rules.successors(st).into_iter().map(|(_, s)| s));
            }
            next.truncate(64);
            frontier = next;
        }
        assert!(checked > 0, "the walk must exercise at least one diamond");
    }

    #[test]
    fn safe_local_steps_commute_with_every_other_device_rule() {
        // Dynamic spot-check of the commutativity the table asserts: fire
        // the safe-local step t and any enabled rule u of a *different*
        // device in either order — the results must be equal states, and
        // neither firing may disable the other.
        let rules = Ruleset::with_devices(ProtocolConfig::full(), 3);
        let mut frontier = vec![SystemState::initial_n(
            3,
            vec![
                vec![crate::instr::Instruction::Evict, crate::instr::Instruction::Load].into(),
                programs::stores(0, 2),
                programs::loads(1),
            ],
        )];
        let mut checked = 0usize;
        for _ in 0..8 {
            let mut next = Vec::new();
            for st in &frontier {
                let succs = rules.successors(st);
                for &(t, _) in succs.iter().filter(|(id, _)| id.shape.safe_local()) {
                    for &(u, _) in succs.iter().filter(|(id, _)| id.dev != t.dev) {
                        let tu = rules
                            .try_fire(u, &rules.try_fire(t, st).expect("t enabled"))
                            .unwrap_or_else(|| panic!("{t} disabled {u} in\n{st}"));
                        let ut = rules
                            .try_fire(t, &rules.try_fire(u, st).expect("u enabled"))
                            .unwrap_or_else(|| panic!("{u} disabled {t} in\n{st}"));
                        assert_eq!(tu, ut, "{t} and {u} do not commute in\n{st}");
                        checked += 1;
                    }
                }
                next.extend(succs.into_iter().map(|(_, s)| s));
            }
            next.truncate(64);
            frontier = next;
        }
        assert!(checked > 10, "the walk must actually exercise commutation pairs");
    }

    #[test]
    fn buggy_rules_disabled_under_strict_config() {
        let rules = Ruleset::default();
        let s = SystemState::initial(programs::store(42), programs::load());
        // Explore a few steps; the buggy shapes must never fire.
        let mut frontier = vec![s];
        for _ in 0..4 {
            let mut next = Vec::new();
            for st in &frontier {
                for (id, succ) in rules.successors(st) {
                    assert_ne!(id.shape.category(), RuleCategory::Relaxed, "{id} fired under strict config");
                    next.push(succ);
                }
            }
            frontier = next;
        }
    }
}
