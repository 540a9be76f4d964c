//! The SWMR property and the inductive-invariant library (paper §6).
//!
//! The paper proves that its model satisfies the **single-writer /
//! multiple-reader** property (Definition 6.1) via an inductive invariant
//! of 796 conjuncts. This module provides:
//!
//! - [`swmr`] — Definition 6.1 itself;
//! - [`Conjunct`] — one named, documented predicate over [`SystemState`];
//! - [`Invariant`] — a conjunction with *per-conjunct* evaluation, which is
//!   what the obligation matrix (the `cxl-sketch` crate) needs;
//! - [`Guard`] — where a conjunct can fail, which lets [`Invariant::holds`]
//!   evaluate only the conjuncts a state can falsify;
//! - builders assembling the conjunct families: [`Invariant::for_config`]
//!   (one conjunct per logical property) and [`Invariant::fine_grained`]
//!   (each property split into per-state atoms, mirroring the paper's
//!   style of many small conjuncts — this is the granularity used to
//!   reproduce the Figure 1 obligation matrix).
//!
//! Conjunct families are configuration-aware: e.g. the paper's "host and
//! device data channels must not conflict" conjunct holds for the strict
//! model but is deliberately omitted when the clean-eviction *pull* option
//! is enabled (the pull creates a benign D2H/H2D data overlap). This
//! mirrors the paper's experience that the invariant had to be revised as
//! the model grew (§7.1).

mod agreement;
mod guard;
mod messages;
mod swmr_family;

pub use guard::{DStates, Guard, HStates, Occupancy};

use crate::cacheline::DState;
use crate::config::ProtocolConfig;
use crate::ids::Topology;
use crate::state::SystemState;
use guard::GuardTable;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The Single-Writer-Multiple-Reader property (paper Definition 6.1),
/// quantified over every ordered device pair of the state's own topology:
///
/// ```text
/// ⋀_{i≠j} ¬(DCacheᵢ.State = M ∧ DCacheⱼ.State ∈ {S, M})
/// ```
///
/// # Examples
///
/// ```
/// use cxl_core::{swmr, SystemState};
/// let s = SystemState::initial(vec![], vec![]);
/// assert!(swmr(&s));
/// let wide = SystemState::initial_n(4, vec![]);
/// assert!(swmr(&wide));
/// ```
#[must_use]
pub fn swmr(s: &SystemState) -> bool {
    for i in s.device_ids() {
        if s.dev(i).cache.state != DState::M {
            continue;
        }
        if s.peer_ids(i).any(|j| matches!(s.dev(j).cache.state, DState::S | DState::M)) {
            return false;
        }
    }
    true
}

/// The family a conjunct belongs to, used for reporting and for the
/// obligation matrix's per-family statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Family {
    /// Definition 6.1 itself, one instance per ordered device pair.
    Swmr,
    /// "Transient states need similar SWMR constraints" (paper §6): a
    /// device that has been granted ownership but not completed the
    /// upgrade excludes valid copies elsewhere.
    TransientSwmr,
    /// "Snoop responses need to be honest" (paper §6).
    HonestSnoop,
    /// "Channels are singleton lists" (paper §6).
    ChannelSingleton,
    /// "Host and device data channels must not conflict" (paper §6).
    DataConflict,
    /// An in-flight H2D response is consistent with its target's state.
    GoWellformed,
    /// An in-flight snoop targets a device that holds (or is about to
    /// hold) the line.
    SnoopTarget,
    /// Every transaction identifier in flight is below the counter.
    CounterDominance,
    /// Eviction requests and eviction transient states agree.
    EvictConsistency,
    /// A transient device state matches the instruction driving it.
    ProgramAgreement,
    /// The host/directory state agrees with the tracked device states.
    HostAgreement,
    /// A blocked or data-awaiting host has the matching traffic in flight.
    BlockedHost,
    /// A host transient state has a well-formed requester.
    HostTransient,
    /// The data-value invariant (the paper's future work, §6; our
    /// extension): shared copies agree with the host value.
    DataValue,
}

impl Family {
    /// All families.
    pub const ALL: [Family; 14] = [
        Family::Swmr,
        Family::TransientSwmr,
        Family::HonestSnoop,
        Family::ChannelSingleton,
        Family::DataConflict,
        Family::GoWellformed,
        Family::SnoopTarget,
        Family::CounterDominance,
        Family::EvictConsistency,
        Family::ProgramAgreement,
        Family::HostAgreement,
        Family::BlockedHost,
        Family::HostTransient,
        Family::DataValue,
    ];
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Type of a conjunct's predicate.
pub type Predicate = Arc<dyn Fn(&SystemState) -> bool + Send + Sync>;

/// One conjunct of the inductive invariant: a named predicate over system
/// states (paper §6: "the invariant is made up of 796 conjuncts").
///
/// Every conjunct carries a [`Guard`], and the contract is that the
/// conjunct may fail only on states its guard admits: [`Invariant`]
/// evaluates a conjunct only where its guard admits the state, so a
/// guard that is too narrow would hide violations. The conjunct families
/// derive each guard from the same constants their predicates read. A
/// new family must bring a guard and a soundness case in
/// `tests/invariant_guards.rs`; a conjunct built with [`Conjunct::new`]
/// is unguarded ([`Guard::Always`]) and evaluated on every state.
#[derive(Clone)]
pub struct Conjunct {
    id: usize,
    name: String,
    family: Family,
    doc: String,
    pred: Predicate,
    guard: Guard,
}

impl Conjunct {
    /// Construct an unguarded conjunct. Ids are assigned when an
    /// [`Invariant`] is built from it.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        family: Family,
        doc: impl Into<String>,
        pred: Predicate,
    ) -> Self {
        Conjunct {
            id: usize::MAX,
            name: name.into(),
            family,
            doc: doc.into(),
            pred,
            guard: Guard::Always,
        }
    }

    /// The same conjunct, claimed to fail only inside `guard`.
    fn guarded(self, guard: Guard) -> Self {
        Conjunct { guard, ..self }
    }

    /// Where this conjunct can fail.
    #[must_use]
    pub fn guard(&self) -> Guard {
        self.guard
    }

    /// Index of this conjunct within its invariant (its row in the
    /// Figure 1 obligation matrix).
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Short unique name, e.g. `swmr_1_2` or `singleton_h2d_rsp_1`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The conjunct's family.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// What the conjunct asserts, and its paper provenance.
    #[must_use]
    pub fn doc(&self) -> &str {
        &self.doc
    }

    /// Evaluate the conjunct on a state.
    #[must_use]
    pub fn holds(&self, s: &SystemState) -> bool {
        (self.pred)(s)
    }
}

impl fmt::Debug for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conjunct")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("family", &self.family)
            .field("guard", &self.guard)
            .finish_non_exhaustive()
    }
}

impl fmt::Display for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inv_{}:{}", self.id, self.name)
    }
}

/// Granularity at which conjunct families are instantiated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// One conjunct per logical property.
    Standard,
    /// Each property split into per-state / per-message atoms, mirroring
    /// the paper's style (§6–7: hundreds of small conjuncts that
    /// sledgehammer can discharge individually).
    Fine,
}

/// A conjunction of [`Conjunct`]s with per-conjunct evaluation.
///
/// Construction files every conjunct id under its [`Guard`] in one flat
/// table. [`Invariant::holds`], [`Invariant::first_violation`] and
/// [`Invariant::violations`] then evaluate only the conjuncts whose
/// guards admit the state, which are the ones its N cache states,
/// channel occupancy and host state select. Once one of those fails,
/// the latter two fall back to the full in-order scan, so they report
/// exactly what scanning every conjunct in id order reports. That
/// equivalence rests on the guard contract (see [`Conjunct`]).
///
/// # Examples
///
/// ```
/// use cxl_core::{Invariant, ProtocolConfig, SystemState};
/// let inv = Invariant::for_config(&ProtocolConfig::strict());
/// let s = SystemState::initial(vec![], vec![]);
/// assert!(inv.holds(&s));
/// assert!(inv.len() > 50);
/// ```
#[derive(Clone)]
pub struct Invariant {
    conjuncts: Vec<Conjunct>,
    granularity: Granularity,
    /// The device count the conjuncts were instantiated for, when built
    /// by a topology-aware builder. Evaluation asserts states match: a
    /// pair invariant applied to a wider state would silently *under*-
    /// check the extra devices (its pair conjuncts only index devices
    /// 0 and 1), which is a soundness hole, not a recoverable condition.
    devices: Option<usize>,
    /// The conjunct ids filed by guard.
    table: GuardTable,
}

impl Invariant {
    /// Build an invariant from raw conjuncts, assigning ids. The
    /// resulting invariant carries no topology and is evaluated
    /// unchecked — prefer the topology-aware builders.
    #[must_use]
    pub fn from_conjuncts(mut conjuncts: Vec<Conjunct>, granularity: Granularity) -> Self {
        for (i, c) in conjuncts.iter_mut().enumerate() {
            c.id = i;
        }
        let table = GuardTable::build(&conjuncts);
        Invariant { conjuncts, granularity, devices: None, table }
    }

    /// Assert that `s` inhabits the topology this invariant was built
    /// for (no-op for topology-less `from_conjuncts` invariants).
    #[inline]
    fn assert_same_topology(&self, s: &SystemState) {
        if let Some(n) = self.devices {
            assert_eq!(
                s.device_count(),
                n,
                "invariant instantiated for {n} devices but the state has {} — \
                 build it with Invariant::for_devices(cfg, {})",
                s.device_count(),
                s.device_count()
            );
        }
    }

    /// The full invariant for a configuration over the paper's two-device
    /// topology, standard granularity.
    #[must_use]
    pub fn for_config(cfg: &ProtocolConfig) -> Self {
        Self::build(cfg, Granularity::Standard, Topology::pair())
    }

    /// The full invariant for a configuration over an `n`-device
    /// topology, standard granularity. Per-device families instantiate
    /// once per device; pair families (SWMR, transient SWMR, data
    /// conflicts) once per ordered device pair.
    #[must_use]
    pub fn for_devices(cfg: &ProtocolConfig, n: usize) -> Self {
        Self::build(cfg, Granularity::Standard, Topology::new(n))
    }

    /// The full invariant for a configuration, fine granularity (the
    /// obligation-matrix reproduction uses this), two devices.
    #[must_use]
    pub fn fine_grained(cfg: &ProtocolConfig) -> Self {
        Self::build(cfg, Granularity::Fine, Topology::pair())
    }

    /// Fine-granularity invariant over an `n`-device topology.
    #[must_use]
    pub fn fine_grained_devices(cfg: &ProtocolConfig, n: usize) -> Self {
        Self::build(cfg, Granularity::Fine, Topology::new(n))
    }

    /// Just Definition 6.1 — useful for demonstrating (as §6 does) that
    /// SWMR alone is *not* inductive.
    #[must_use]
    pub fn swmr_only() -> Self {
        let mut inv = Self::from_conjuncts(
            swmr_family::swmr_conjuncts(Topology::pair()),
            Granularity::Standard,
        );
        inv.devices = Some(2);
        inv
    }

    fn build(cfg: &ProtocolConfig, granularity: Granularity, topo: Topology) -> Self {
        let fine = granularity == Granularity::Fine;
        let families = [
            swmr_family::swmr_conjuncts(topo),
            swmr_family::transient_swmr_conjuncts(topo, fine),
            swmr_family::data_value_conjuncts(topo),
            messages::honest_snoop_conjuncts(cfg, topo, fine),
            messages::channel_singleton_conjuncts(topo),
            messages::data_conflict_conjuncts(cfg, topo),
            messages::go_wellformed_conjuncts(topo, fine),
            messages::data_wellformed_conjuncts(topo),
            messages::snoop_target_conjuncts(topo, fine),
            messages::counter_dominance_conjuncts(topo),
            agreement::evict_consistency_conjuncts(cfg, topo, fine),
            agreement::program_agreement_conjuncts(topo, fine),
            agreement::host_agreement_conjuncts(topo),
            agreement::blocked_host_conjuncts(),
            agreement::host_transient_conjuncts(fine),
        ];
        let mut cs = Vec::with_capacity(families.iter().map(Vec::len).sum());
        for family in families {
            cs.extend(family);
        }
        let mut inv = Self::from_conjuncts(cs, granularity);
        inv.devices = Some(topo.device_count());
        inv
    }

    /// The device count this invariant was instantiated for (`None` for
    /// raw [`Invariant::from_conjuncts`] invariants).
    #[must_use]
    pub fn device_count(&self) -> Option<usize> {
        self.devices
    }

    /// Number of conjuncts (the paper's `n`, 796 in their model).
    #[must_use]
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// Is the invariant empty (it never is for the built invariants)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// The granularity this invariant was built at.
    #[must_use]
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Iterate over the conjuncts in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, Conjunct> {
        self.conjuncts.iter()
    }

    /// Fetch a conjunct by id.
    #[must_use]
    pub fn get(&self, id: usize) -> Option<&Conjunct> {
        self.conjuncts.get(id)
    }

    /// Do all conjuncts hold?
    ///
    /// # Panics
    /// Panics if `s` has a different device count than the invariant was
    /// instantiated for (a pair invariant would silently under-check a
    /// wider state).
    #[must_use]
    pub fn holds(&self, s: &SystemState) -> bool {
        self.assert_same_topology(s);
        self.guarded_holds(s)
    }

    /// The first violated conjunct in id order, if any.
    ///
    /// # Panics
    /// Panics on a device-count mismatch (see [`Invariant::holds`]).
    #[must_use]
    pub fn first_violation(&self, s: &SystemState) -> Option<&Conjunct> {
        self.assert_same_topology(s);
        if self.guarded_holds(s) {
            return None;
        }
        self.conjuncts.iter().find(|c| !c.holds(s))
    }

    /// Every violated conjunct, in id order.
    ///
    /// # Panics
    /// Panics on a device-count mismatch (see [`Invariant::holds`]).
    #[must_use]
    pub fn violations(&self, s: &SystemState) -> Vec<&Conjunct> {
        self.assert_same_topology(s);
        if self.guarded_holds(s) {
            return Vec::new();
        }
        self.conjuncts.iter().filter(|c| !c.holds(s)).collect()
    }

    /// Do the conjuncts whose guards admit `s` hold? By the guard
    /// contract, that is whether every conjunct holds.
    fn guarded_holds(&self, s: &SystemState) -> bool {
        self.table.all_admitted(s, |id| self.conjuncts[id].holds(s))
    }

    /// Conjuncts of one family.
    #[must_use]
    pub fn family(&self, family: Family) -> Vec<&Conjunct> {
        self.conjuncts.iter().filter(|c| c.family() == family).collect()
    }

    /// Per-family conjunct counts, in [`Family::ALL`] order (families with
    /// zero instances included).
    #[must_use]
    pub fn family_counts(&self) -> Vec<(Family, usize)> {
        Family::ALL
            .iter()
            .map(|&f| (f, self.conjuncts.iter().filter(|c| c.family() == f).count()))
            .collect()
    }
}

impl fmt::Debug for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invariant")
            .field("conjuncts", &self.conjuncts.len())
            .field("granularity", &self.granularity)
            .finish()
    }
}

impl<'a> IntoIterator for &'a Invariant {
    type Item = &'a Conjunct;
    type IntoIter = std::slice::Iter<'a, Conjunct>;
    fn into_iter(self) -> Self::IntoIter {
        self.conjuncts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cacheline::DState;
    use crate::ids::DeviceId;
    use crate::instr::programs;

    #[test]
    fn swmr_definition_6_1() {
        let mut s = SystemState::initial(vec![], vec![]);
        assert!(swmr(&s));
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        assert!(swmr(&s), "a single writer is fine");
        s.dev_mut(DeviceId::D2).cache.state = DState::S;
        assert!(!swmr(&s), "M + S violates SWMR");
        s.dev_mut(DeviceId::D2).cache.state = DState::M;
        assert!(!swmr(&s), "M + M violates SWMR");
        s.dev_mut(DeviceId::D1).cache.state = DState::S;
        s.dev_mut(DeviceId::D2).cache.state = DState::S;
        assert!(swmr(&s), "multiple readers are fine");
    }

    #[test]
    fn invariant_holds_on_initial_states() {
        for inv in [
            Invariant::for_config(&ProtocolConfig::strict()),
            Invariant::for_config(&ProtocolConfig::full()),
            Invariant::fine_grained(&ProtocolConfig::strict()),
        ] {
            let s = SystemState::initial(programs::store(42), programs::load());
            assert!(inv.holds(&s), "violations: {:?}", inv.violations(&s));
        }
    }

    #[test]
    fn invariant_implies_swmr() {
        // Structural: the invariant contains the Swmr family, so any state
        // satisfying the invariant satisfies SWMR.
        let inv = Invariant::for_config(&ProtocolConfig::strict());
        assert!(!inv.family(Family::Swmr).is_empty());
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        s.dev_mut(DeviceId::D2).cache.state = DState::S;
        assert!(!inv.holds(&s));
        assert!(inv.violations(&s).iter().any(|c| c.family() == Family::Swmr));
    }

    #[test]
    fn swmr_alone_is_not_inductive_counterexample_state() {
        // Paper §6's counterexample: device 1 in IMA with a pending GO-M
        // while device 2 still holds M. SWMR holds here, but the full
        // invariant rejects it (it is unreachable).
        use crate::msg::{H2DRsp, H2DRspType};
        let mut s = SystemState::initial(programs::store(1), vec![]);
        s.dev_mut(DeviceId::D1).cache = crate::cacheline::DCache::new(0, DState::IMA);
        s.dev_mut(DeviceId::D1)
            .h2d_rsp
            .push(H2DRsp::new(H2DRspType::GO, DState::M, 0));
        s.dev_mut(DeviceId::D2).cache = crate::cacheline::DCache::new(0, DState::M);
        s.host.state = crate::cacheline::HState::M;
        assert!(swmr(&s), "the counterexample state satisfies SWMR");
        let inv = Invariant::for_config(&ProtocolConfig::strict());
        assert!(!inv.holds(&s), "the strengthened invariant rejects it");
    }

    #[test]
    fn fine_granularity_has_more_conjuncts() {
        let std = Invariant::for_config(&ProtocolConfig::strict());
        let fine = Invariant::fine_grained(&ProtocolConfig::strict());
        assert!(fine.len() > std.len(), "{} vs {}", fine.len(), std.len());
        assert!(fine.len() >= 200, "fine-grained invariant should be paper-scale, got {}", fine.len());
    }

    #[test]
    fn conjunct_ids_are_dense_and_ordered() {
        let inv = Invariant::for_config(&ProtocolConfig::strict());
        for (i, c) in inv.iter().enumerate() {
            assert_eq!(c.id(), i);
            assert!(!c.name().is_empty());
            assert!(!c.doc().is_empty());
        }
    }

    #[test]
    fn data_conflict_family_omitted_when_pull_enabled() {
        let strict = Invariant::for_config(&ProtocolConfig::strict());
        let full = Invariant::for_config(&ProtocolConfig::full());
        assert!(!strict.family(Family::DataConflict).is_empty());
        assert!(
            full.family(Family::DataConflict).is_empty(),
            "clean-evict pull makes benign D2H/H2D data overlap possible"
        );
    }

    #[test]
    fn family_counts_sum_to_len() {
        let inv = Invariant::fine_grained(&ProtocolConfig::strict());
        let total: usize = inv.family_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, inv.len());
    }
}
