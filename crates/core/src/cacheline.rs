//! Cache-line states for devices and the host, following paper Figure 3.
//!
//! Stable states are `M` (modified *or* exclusive — the paper collapses E
//! into M because the E/M distinction has no effect on ownership, §3.2),
//! `S` (shared) and `I` (invalid). Transient states follow the standard
//! notation of Nagarajan et al.'s *Primer on Memory Consistency and Cache
//! Coherence*, which the paper adopts: `XY…` means "moving from X to Y",
//! and trailing letters record what is still awaited — `A` an
//! acknowledgement (a GO message), `D` a data message.
//!
//! Note: the paper's Figure 3 lists thirteen device transient states, but
//! the "honest snoop response" invariant conjunct in §6 additionally
//! mentions `ISDI` (a line that was invalidated by a snoop while awaiting
//! data). We include `ISDI`; this note records the paper-internal
//! inconsistency.

use crate::ids::Val;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Device-side cache-line state (`DState` in paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(clippy::upper_case_acronyms)]
pub enum DState {
    /// Invalid: the device holds no copy.
    I,
    /// Shared: read access.
    S,
    /// Modified (or exclusive): write access.
    M,
    /// I→S, awaiting acknowledgement (GO) and data.
    ISAD,
    /// I→S, GO received, awaiting data.
    ISD,
    /// I→S, data received, awaiting GO.
    ISA,
    /// I→S line that was invalidated by a snoop while awaiting data: when
    /// the data arrives it is consumed once (to satisfy the load) and the
    /// line becomes `I`. Mentioned by the paper's §6 invariant.
    ISDI,
    /// I→M, awaiting GO and data.
    IMAD,
    /// I→M, GO received, awaiting data.
    IMD,
    /// I→M, data received, awaiting GO.
    IMA,
    /// S→M upgrade, awaiting GO and data.
    SMAD,
    /// S→M upgrade, GO received, awaiting data.
    SMD,
    /// S→M upgrade, data received, awaiting GO.
    SMA,
    /// M→I dirty eviction in flight (DirtyEvict sent, awaiting GO_WritePull).
    MIA,
    /// S→I clean eviction in flight (CleanEvict sent).
    SIA,
    /// S→I clean eviction in flight where the device refuses to supply data
    /// (CleanEvictNoData sent; the host must not issue a WritePull).
    SIAC,
    /// An eviction whose line was invalidated by a snoop before the
    /// write-pull arrived; the eviction is now *stale* and any data the
    /// device is asked to send must be marked bogus (paper §4.4).
    IIA,
}

impl DState {
    /// All device states, for exhaustive iteration in tests and in the
    /// randomised obligation universe.
    pub const ALL: [DState; 17] = [
        DState::I,
        DState::S,
        DState::M,
        DState::ISAD,
        DState::ISD,
        DState::ISA,
        DState::ISDI,
        DState::IMAD,
        DState::IMD,
        DState::IMA,
        DState::SMAD,
        DState::SMD,
        DState::SMA,
        DState::MIA,
        DState::SIA,
        DState::SIAC,
        DState::IIA,
    ];

    /// Is this one of the three stable states?
    #[must_use]
    pub fn is_stable(self) -> bool {
        matches!(self, DState::I | DState::S | DState::M)
    }

    /// Does the device currently enjoy read access (it may supply the value
    /// to a local load)?
    #[must_use]
    pub fn has_read_access(self) -> bool {
        matches!(self, DState::S | DState::M)
    }

    /// Does the device currently enjoy write access?
    #[must_use]
    pub fn has_write_access(self) -> bool {
        matches!(self, DState::M)
    }

    /// Is an eviction transaction in flight from this state?
    #[must_use]
    pub fn is_evicting(self) -> bool {
        matches!(self, DState::MIA | DState::SIA | DState::SIAC | DState::IIA)
    }

    /// Is an upgrade to `M` in flight (the device has requested ownership)?
    #[must_use]
    pub fn is_upgrading_to_m(self) -> bool {
        matches!(
            self,
            DState::IMAD | DState::IMD | DState::IMA | DState::SMAD | DState::SMD | DState::SMA
        )
    }

    /// Is an upgrade to `S` in flight (the device has requested read access)?
    #[must_use]
    pub fn is_upgrading_to_s(self) -> bool {
        matches!(self, DState::ISAD | DState::ISD | DState::ISA)
    }
}

impl fmt::Display for DState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Host-side cache-line state (`HState` in paper Figure 3).
///
/// The host state doubles as the directory state of the single modelled
/// location: `I` — no device holds a copy and the host value is current;
/// `S` — at least one device holds (or is about to hold) a shared copy;
/// `M` — exactly one device owns the line and the host value may be stale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(clippy::upper_case_acronyms)]
pub enum HState {
    /// No device holds the line.
    I,
    /// Shared copies exist (host value current).
    S,
    /// A device owns the line (host value possibly stale).
    M,
    /// Granting ownership: awaiting the snooped owner's response (A) and
    /// its dirty data (D).
    MAD,
    /// Granting ownership: data handled, awaiting the snoop response.
    MA,
    /// Granting ownership: snoop response seen, awaiting the dirty data.
    MD,
    /// Granting a shared copy from an owned line: awaiting snoop response
    /// and forwarded data.
    SAD,
    /// Granting a shared copy: response seen, awaiting forwarded data.
    SD,
    /// Granting a shared copy: data seen, awaiting the snoop response.
    SA,
    /// Processing a dirty eviction: GO_WritePull issued, awaiting the
    /// written-back data, after which the line is idle.
    ID,
    /// Blocked in logical state `I` awaiting (and discarding) pulled data
    /// from a stale or clean eviction.
    IB,
    /// Blocked in logical state `S` awaiting pulled data to discard.
    SB,
    /// Blocked in logical state `M` awaiting bogus data from a stale
    /// eviction to discard.
    MB,
}

impl HState {
    /// All host states.
    pub const ALL: [HState; 13] = [
        HState::I,
        HState::S,
        HState::M,
        HState::MAD,
        HState::MA,
        HState::MD,
        HState::SAD,
        HState::SD,
        HState::SA,
        HState::ID,
        HState::IB,
        HState::SB,
        HState::MB,
    ];

    /// Is this one of the three stable states? The modelled host is a
    /// *blocking* directory: it only accepts a new device-to-host request
    /// while stable.
    #[must_use]
    pub fn is_stable(self) -> bool {
        matches!(self, HState::I | HState::S | HState::M)
    }

    /// Is the host mid-way through granting ownership (`M…` transients)?
    #[must_use]
    pub fn is_granting_m(self) -> bool {
        matches!(self, HState::MAD | HState::MA | HState::MD)
    }

    /// Is the host mid-way through granting a shared copy (`S…` transients)?
    #[must_use]
    pub fn is_granting_s(self) -> bool {
        matches!(self, HState::SAD | HState::SD | HState::SA)
    }

    /// Is the host blocked waiting to discard pulled eviction data?
    #[must_use]
    pub fn is_blocked_on_pull(self) -> bool {
        matches!(self, HState::IB | HState::SB | HState::MB)
    }

    /// The stable state a blocked (`…B`) host returns to once the pulled
    /// data is discarded.
    ///
    /// # Panics
    /// Panics if the state is not one of `IB`, `SB`, `MB`.
    #[must_use]
    pub fn unblocked(self) -> HState {
        match self {
            HState::IB => HState::I,
            HState::SB => HState::S,
            HState::MB => HState::M,
            other => panic!("unblocked() called on non-blocked host state {other:?}"),
        }
    }
}

impl fmt::Display for HState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A device cache line: a value together with a [`DState`]
/// (`DCache ≝ ⟨Val, State⟩`, paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DCache {
    /// The cached value. Meaningful only when the state grants read access,
    /// but retained in all states (as in the paper's tables, which show
    /// e.g. `(0, SIA)`).
    pub val: Val,
    /// The coherence state of the line.
    pub state: DState,
}

impl DCache {
    /// A line holding `val` in `state`.
    #[must_use]
    pub fn new(val: Val, state: DState) -> Self {
        DCache { val, state }
    }

    /// An invalid line with the given residual value.
    #[must_use]
    pub fn invalid(val: Val) -> Self {
        DCache::new(val, DState::I)
    }
}

impl fmt::Display for DCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.val, self.state)
    }
}

/// The host cache line (`HCache ≝ ⟨Val, State⟩`, paper Figure 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HCache {
    /// The host's (memory-side) value for the location.
    pub val: Val,
    /// The host/directory state of the line.
    pub state: HState,
}

impl HCache {
    /// A host line holding `val` in `state`.
    #[must_use]
    pub fn new(val: Val, state: HState) -> Self {
        HCache { val, state }
    }
}

impl fmt::Display for HCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.val, self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_state_inventory_matches_paper_plus_isdi() {
        // Paper Figure 3 lists 13 transient + 3 stable device states; we add
        // ISDI (mentioned by the §6 invariant), for 17 total.
        assert_eq!(DState::ALL.len(), 17);
        let stable = DState::ALL.iter().filter(|s| s.is_stable()).count();
        assert_eq!(stable, 3);
    }

    #[test]
    fn host_state_inventory_matches_paper() {
        // Paper Figure 3: 10 transient + 3 stable host states.
        assert_eq!(HState::ALL.len(), 13);
        let stable = HState::ALL.iter().filter(|s| s.is_stable()).count();
        assert_eq!(stable, 3);
    }

    #[test]
    fn access_predicates_are_consistent() {
        for s in DState::ALL {
            if s.has_write_access() {
                assert!(s.has_read_access(), "{s}: write access implies read access");
            }
            // A state is in at most one in-flight category.
            let cats = [s.is_evicting(), s.is_upgrading_to_m(), s.is_upgrading_to_s()];
            assert!(cats.iter().filter(|c| **c).count() <= 1, "{s}: overlapping categories");
        }
    }

    #[test]
    fn isdi_is_neither_upgrading_nor_evicting() {
        assert!(!DState::ISDI.is_upgrading_to_s());
        assert!(!DState::ISDI.is_evicting());
        assert!(!DState::ISDI.has_read_access());
    }

    #[test]
    fn unblocked_maps_b_states() {
        assert_eq!(HState::IB.unblocked(), HState::I);
        assert_eq!(HState::SB.unblocked(), HState::S);
        assert_eq!(HState::MB.unblocked(), HState::M);
    }

    #[test]
    #[should_panic(expected = "non-blocked")]
    fn unblocked_panics_on_stable() {
        let _ = HState::I.unblocked();
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(DState::ISAD.to_string(), "ISAD");
        assert_eq!(HState::MAD.to_string(), "MAD");
        assert_eq!(DCache::new(0, DState::S).to_string(), "(0, S)");
        assert_eq!(HCache::new(42, HState::MA).to_string(), "(42, MA)");
    }
}
