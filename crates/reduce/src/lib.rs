//! # cxl-reduce — state-space reduction for the CXL.cache model checker
//!
//! Explicit-state exploration pays for every interleaving, every device
//! labelling, **and every value labelling** separately, even when none of
//! them can change a verdict. This crate shrinks the space itself,
//! upstream of the checker's packed arena and fingerprint dedup, through
//! a [`Reducer`] the checker calls at three points of its hot path:
//!
//! - **Device-symmetry canonicalization** ([`symmetry`]) — detect the
//!   device-permutation subgroup fixing the initial state and rewrite
//!   every successor's packed encoding to its orbit representative
//!   *before* fingerprinting, so the visited set stores one state per
//!   orbit. On the symmetric strict-grid sweeps the repo runs in
//!   tests/CI/bench this removes up to an N!-fold redundancy.
//! - **Data-symmetry canonicalization** ([`data_symmetry`]) — values are
//!   abstract tokens the model only copies and compares for equality, so
//!   any value bijection applied to a whole state (programs included)
//!   that fixes the *pinned* set (initial-state live values, assertion
//!   literals) preserves verdicts. Each successor's value assignment is
//!   renumbered to first-occurrence order at the packed-byte level;
//!   composed with device symmetry by taking the lexicographically-least
//!   renumbered arrangement over the **value-blind admissible**
//!   permutations (device swaps undone by a value bijection on the
//!   initial state), so the two canonicalizations act as one
//!   order-independent joint canonical form. Store-heavy grids with
//!   *asymmetric programs over symmetric value spaces* — the spaces
//!   device symmetry alone cannot touch — collapse multiplicatively.
//! - **Partial-order reduction** ([`por`]) — when a device has an
//!   enabled *safe-local* step (statically proven independent of every
//!   other rule and invisible to the checked properties), explore only
//!   that step: commuting interleavings around it are collapsed. The
//!   widened tier ([`PorMode::Wide`]) additionally admits
//!   `SharedLoad`/`ModifiedLoad` in dynamically snoop-free contexts and
//!   collapses the GO/data completion diamond via its confluence.
//! - **Equivariant successor generation** — symmetry reduction is only
//!   sound over a permutation-commuting transition relation, so a
//!   symmetry-reducing checker expands frontiers with
//!   [`cxl_core::Ruleset::for_each_enabled_variants`] (the host's
//!   collection rules fire once for *each* peer that can fire them, where
//!   the unreduced search takes only the first; the lowest-peer successor
//!   is the first firing variant). The [`Reducer::wants_peer_variants`]
//!   hook tells the checker which relation to drive.
//!
//! ## Soundness contract
//!
//! A [`Reduction`] preserves the checker's verdicts — clean vs. violating
//! (per property name) vs. deadlocked — under these caller obligations,
//! all satisfied by the stock SWMR/invariant properties and the repo's
//! scenario builders:
//!
//! 1. every checked property is invariant under device permutation
//!    (quantifies over devices/pairs rather than naming indices);
//! 2. with data symmetry on, every checked property compares values only
//!    for *equality between state components*; a property naming a value
//!    literal must pin it via [`Reduction::with_pinned_vals`]. (The
//!    canonical states the checker stores are then *bisimilar* to —
//!    rather than identical with — reachable states: their programs may
//!    carry renumbered operand tokens. Counterexample traces
//!    de-permute back to genuine runs, and the stored root is always
//!    the caller's own initial state.);
//! 3. no pruning predicate is installed (pruning on a canonical
//!    representative would prune its whole orbit by a possibly
//!    asymmetric, order-dependent criterion — the checker enforces this
//!    one with an assertion); and
//! 4. with POR enabled, no checked property reads device **programs**:
//!    an ample safe-local step pops a program entry and suppresses the
//!    interleavings around the pop, so a custom property sensitive to
//!    queued-but-unretired instructions could be violated only at a
//!    skipped intermediate state. SWMR never reads programs, and the
//!    invariant's program-agreement conjuncts constrain transient cache
//!    states only, which a safe-local step never inhabits. The widened
//!    tier ([`PorMode::Wide`]) extends this obligation: properties must
//!    also not distinguish the two legs of a GO/data completion diamond
//!    nor count load *transactions* (a snoop-free local hit suppresses
//!    interleavings in which the same load would have missed) — see
//!    [`por`]'s module docs for the precise argument and its empirical
//!    pinning.
//!
//! Counterexample traces found under symmetry live in *canonical*
//! coordinates (device **and** value); `cxl-litmus`'s replay module
//! de-permutes them back into original coordinates and replays them step
//! by step.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod data_symmetry;
pub mod por;
pub mod refine;
pub mod symmetry;

use cxl_core::codec::StateCodec;
use cxl_core::ids::Val;
use cxl_core::{RuleId, Ruleset, Shape, SystemState};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

pub use data_symmetry::DataSymmetry;
pub use por::AmpleKind;
pub use refine::{RefineLabeller, RefineOutcome};
pub use symmetry::{apply_permutation, SymmetryGroup};

/// The most admissible arrangements the brute-force joint canonicalizer
/// may enumerate per successor (6! — the full symmetric group at N = 6).
/// Beyond the cap a near-symmetric workload would silently burn
/// thousands of renumber passes per successor, so the brute engine
/// refuses to arm and selection falls back to the refine family (exact
/// when the admissible set is a product group, the byte-equal-subgroup
/// labelling otherwise — see [`CanonMode`]).
pub const BRUTE_ARRANGEMENT_CAP: usize = 720;

/// Counters a [`Reducer`] accumulates over one exploration, split per
/// engine so reports can attribute the reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionStats {
    /// Successor encodings whose device arrangement was rewritten to a
    /// different orbit representative (device-symmetry engine).
    pub orbit_canonicalized: u64,
    /// Successor encodings whose value assignment was renumbered
    /// (data-symmetry engine).
    pub value_canonicalized: u64,
    /// States expanded through a singleton ample **local** step (static
    /// safe-local or snoop-free local hit) instead of full successor
    /// generation.
    pub ample_local: u64,
    /// States expanded through a collapsed GO/data completion diamond.
    pub ample_diamond: u64,
    /// States expanded through a singleton host-drain step (the widened
    /// tier's message-consuming host family).
    pub ample_host_drain: u64,
    /// Order of the detected device-symmetry subgroup (1 = trivial).
    pub group_order: u64,
    /// Is the data-symmetry engine armed (and potentially active)?
    pub data_symmetry: bool,
    /// The POR tier the reducer runs.
    pub por: PorMode,
    /// Which joint canonicalizer is armed: `"off"` (no joint path),
    /// `"refine"`, `"brute"`, or `"capped"` (the over-cap fallback) —
    /// configuration-derived, like `group_order`.
    pub canon: &'static str,
}

impl Default for ReductionStats {
    fn default() -> Self {
        ReductionStats {
            orbit_canonicalized: 0,
            value_canonicalized: 0,
            ample_local: 0,
            ample_diamond: 0,
            ample_host_drain: 0,
            group_order: 1,
            data_symmetry: false,
            por: PorMode::Off,
            canon: "off",
        }
    }
}

impl ReductionStats {
    /// Total singleton-ample expansions across the POR tiers.
    #[must_use]
    pub fn ample_steps(&self) -> u64 {
        self.ample_local + self.ample_diamond + self.ample_host_drain
    }
}

/// The reduction interface the model checker drives. Implementations
/// must be thread-safe: the checker's workers call
/// [`Reducer::ample_step`] and [`Reducer::canonicalize`] concurrently.
pub trait Reducer: Send + Sync + fmt::Debug {
    /// Must the checker expand frontiers over the equivariant successor
    /// relation ([`Ruleset::for_each_enabled_variants`])? True whenever
    /// device-symmetry canonicalization is active — orbit-representative
    /// search over the first-firing-peer relation would not cover every
    /// orbit. (Value renumbering alone does not need it: the first-peer
    /// choice is value-blind.)
    fn wants_peer_variants(&self) -> bool;

    /// If the POR engine elects a singleton ample set for `state`, fire
    /// it into `scratch` and return its rule; `None` means "expand
    /// fully". `scratch` holds the successor on `Some`.
    fn ample_step(
        &self,
        rules: &Ruleset,
        state: &SystemState,
        scratch: &mut SystemState,
    ) -> Option<RuleId>;

    /// Rewrite an encoded successor to its canonical representative in
    /// place, returning whether the bytes changed. Value renumbering may
    /// change the encoding's *length*, hence the `Vec`; `scratch` is a
    /// reusable assembly buffer.
    fn canonicalize(&self, bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) -> bool;

    /// Device-orbit size of a (canonical) encoded state — 1 without
    /// device symmetry. Summing this over the stored arena yields the
    /// state count of the equivalent unreduced equivariant exploration
    /// **of the device-symmetry engine alone**; data-symmetry and POR
    /// savings are visible only against a measured unreduced run (a
    /// value class's reachable-member count depends on history, not on
    /// the representative).
    fn orbit_size(&self, bytes: &[u8]) -> u64;

    /// Snapshot of the accumulated counters.
    fn stats(&self) -> ReductionStats;

    /// Restore previously accumulated counters — the checkpoint/resume
    /// path re-arms a fresh reducer with the counters of the interrupted
    /// session so a resumed run's report accounts for the whole
    /// exploration. Only the per-run accumulators are restored;
    /// configuration-derived fields (`group_order`, `data_symmetry`,
    /// `por`) stay whatever this reducer was constructed with. The
    /// default is a no-op for stateless reducers.
    fn restore_stats(&self, _stats: ReductionStats) {}

    /// One-line description for reports, e.g.
    /// `symmetry(|G| = 6) + data-symmetry + por(wide)`.
    fn describe(&self) -> String;
}

/// Which partial-order-reduction tier a [`Reduction`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PorMode {
    /// No POR.
    #[default]
    Off,
    /// The conservative tier: statically safe local steps only
    /// (`InvalidEvict`).
    On,
    /// The widened tier: additionally snoop-free local hits and
    /// collapsed GO/data completion diamonds (see [`por`]).
    Wide,
}

impl fmt::Display for PorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PorMode::Off => write!(f, "off"),
            PorMode::On => write!(f, "on"),
            PorMode::Wide => write!(f, "wide"),
        }
    }
}

/// Which joint device×value canonicalizer a [`Reduction`] should prefer
/// when both symmetry engines are armed and a non-trivial admissible
/// arrangement set exists. The canonical *bytes* are identical between
/// [`CanonMode::Refine`] and [`CanonMode::Brute`] whenever both are
/// exact (the differential-testing contract); only the per-successor
/// cost differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CanonMode {
    /// Pick per workload: the partition-refinement labeller whenever the
    /// admissible set is a product of full symmetric groups over its
    /// orbits (every symmetric/value-isomorphic grid), the exact brute
    /// scan for small coupled sets, the capped fallback beyond
    /// [`BRUTE_ARRANGEMENT_CAP`].
    #[default]
    Auto,
    /// Force the refine family: exact over product-group admissible
    /// sets; over a *coupled* set (one that is not a product group, e.g.
    /// `[S1,S2]/[S2,S3]/[S4,S5]/[S5,S6]`) it labels over the
    /// byte-equality subgroup instead and reports itself as `capped`.
    Refine,
    /// Force the brute scan over the admissible list — the reference
    /// engine for differential testing. Refuses to enumerate beyond
    /// [`BRUTE_ARRANGEMENT_CAP`] arrangements per successor and falls
    /// back to the refine family (the satellite hard cap: a
    /// near-symmetric N ≥ 7 grid would otherwise hang).
    Brute,
}

impl fmt::Display for CanonMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CanonMode::Auto => write!(f, "auto"),
            CanonMode::Refine => write!(f, "refine"),
            CanonMode::Brute => write!(f, "brute"),
        }
    }
}

/// Which engines a [`Reduction`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReductionConfig {
    /// Detect the device-symmetry subgroup of the initial state and
    /// canonicalize successors to orbit representatives.
    pub symmetry: bool,
    /// Canonicalize value assignments (first-occurrence renumbering over
    /// the non-pinned `Val` domain).
    pub data_symmetry: bool,
    /// Collapse interleavings around device-local steps.
    pub por: PorMode,
    /// Joint canonicalizer preference (see [`CanonMode`]).
    pub canon: CanonMode,
}

impl Default for ReductionConfig {
    /// Both symmetry engines on, POR off, canonicalizer auto — the
    /// `explore` CLI's `--symmetry auto --data-symmetry auto --por off
    /// --canon auto` default.
    fn default() -> Self {
        ReductionConfig {
            symmetry: true,
            data_symmetry: true,
            por: PorMode::Off,
            canon: CanonMode::Auto,
        }
    }
}

/// The joint canonicalizer a [`Reduction`] actually armed — resolved
/// from [`CanonMode`], the admissible arrangement set, and
/// [`BRUTE_ARRANGEMENT_CAP`] at construction time (never per state:
/// a canonical form must be a function of the orbit, so the engine
/// choice cannot depend on which orbit member shows up first).
#[derive(Debug)]
enum CanonEngine {
    /// No joint path: device-only, value-only, or no canonicalization.
    Off,
    /// Exact partition-refinement labelling over the orbit cells of the
    /// admissible product group.
    Refine(RefineLabeller),
    /// Exact minimisation over the explicit admissible list.
    Brute,
    /// Over-cap / coupled fallback: refine over the byte-equality
    /// subgroup — sound (a subgroup quotient is coarser, never wrong),
    /// but a *different* canonical form than the exact joint minimum,
    /// so [`Reducer::describe`] names it and blocks cross-resume.
    CappedRefine(RefineLabeller),
}

impl CanonEngine {
    fn name(&self) -> &'static str {
        match self {
            CanonEngine::Off => "off",
            CanonEngine::Refine(_) => "refine",
            CanonEngine::Brute => "brute",
            CanonEngine::CappedRefine(_) => "capped",
        }
    }
}

/// The stock [`Reducer`]: device-symmetry and/or data-symmetry
/// canonicalization and/or local-step POR over one exploration run.
pub struct Reduction {
    codec: StateCodec,
    group: SymmetryGroup,
    /// The device permutations the joint device×data minimisation ranges
    /// over: with both engines armed, every **value-blind admissible**
    /// permutation (σ such that some value bijection undoes σ's action
    /// on the initial state — a superset of the byte-equal subgroup that
    /// additionally swaps devices running value-isomorphic programs);
    /// just the identity otherwise.
    joint_perms: Vec<Vec<usize>>,
    data: Option<DataSymmetry>,
    canon: CanonEngine,
    por: PorMode,
    safe_shapes: Vec<Shape>,
    gated_shapes: Vec<Shape>,
    diamonds: Vec<(Shape, Shape)>,
    drain_shapes: Vec<Shape>,
    orbit_canonicalized: AtomicU64,
    value_canonicalized: AtomicU64,
    ample_local: AtomicU64,
    ample_diamond: AtomicU64,
    ample_host_drain: AtomicU64,
}

/// The orbit partition of `0..n` under a set of permutations: the
/// connected components of `i ↔ perm[i]` — each cell ascending, cells
/// ordered by their least element.
fn orbit_cells(perms: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
    let mut root: Vec<usize> = (0..n).collect();
    fn find(root: &mut [usize], i: usize) -> usize {
        let mut r = i;
        while root[r] != r {
            r = root[r];
        }
        root[i] = r;
        r
    }
    for perm in perms {
        for (i, &p) in perm.iter().enumerate() {
            let (a, b) = (find(&mut root, i), find(&mut root, p));
            if a != b {
                root[a.max(b)] = a.min(b);
            }
        }
    }
    let reps: Vec<usize> = (0..n).map(|i| find(&mut root, i)).collect();
    let mut cells: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match cells.iter_mut().find(|c| reps[c[0]] == reps[i]) {
            Some(c) => c.push(i),
            None => cells.push(vec![i]),
        }
    }
    cells
}

impl Reduction {
    /// Build the reducer for exploring `initial` under `rules`. With
    /// `config.symmetry` the device subgroup is detected from the initial
    /// state's packed encoding; with `config.data_symmetry` the value
    /// engine pins the initial state's live values (see
    /// [`DataSymmetry::detect`]); `config.por` arms the chosen POR tier.
    ///
    /// # Panics
    /// Panics if `initial` does not inhabit `rules`' topology.
    #[must_use]
    pub fn new(rules: &Ruleset, initial: &SystemState, config: ReductionConfig) -> Self {
        Self::with_pinned_vals(rules, initial, config, &[])
    }

    /// [`Self::new`] with extra **pinned value literals**: values an
    /// ad-hoc checked property compares against, which the data-symmetry
    /// engine must then never rename. The stock SWMR/invariant
    /// properties need none.
    ///
    /// # Panics
    /// Panics if `initial` does not inhabit `rules`' topology.
    #[must_use]
    pub fn with_pinned_vals(
        rules: &Ruleset,
        initial: &SystemState,
        config: ReductionConfig,
        pinned_vals: &[Val],
    ) -> Self {
        let codec = StateCodec::new(rules.topology());
        let group = if config.symmetry {
            SymmetryGroup::detect(&codec, initial)
        } else {
            SymmetryGroup::trivial(rules.device_count())
        };
        let data = if config.data_symmetry {
            let ds = DataSymmetry::detect(&codec, initial, pinned_vals);
            ds.potentially_active().then_some(ds)
        } else {
            None
        };
        let joint_perms = match &data {
            Some(ds) if config.symmetry => ds.value_blind_device_perms(initial),
            _ => vec![(0..rules.device_count()).collect()],
        };
        // Resolve the joint canonicalizer (see [`CanonMode`]). The
        // decision is a function of the workload and config alone —
        // never of a state — so the canonical form stays a function of
        // the orbit.
        let canon = if data.is_none() || joint_perms.len() <= 1 {
            CanonEngine::Off
        } else {
            let n = rules.device_count();
            let cells = orbit_cells(&joint_perms, n);
            let product_order: u64 =
                cells.iter().map(|c| symmetry::factorial(c.len())).product();
            // The admissible set is a group containing only
            // orbit-preserving permutations, so it is the full product
            // group exactly when the orders match.
            let full_product = joint_perms.len() as u64 == product_order;
            let refine = |cells: Vec<Vec<usize>>| RefineLabeller::new(codec, cells);
            let capped = |group: &SymmetryGroup| {
                CanonEngine::CappedRefine(refine(group.classes().to_vec()))
            };
            match config.canon {
                CanonMode::Auto | CanonMode::Refine if full_product => {
                    CanonEngine::Refine(refine(cells))
                }
                CanonMode::Auto if joint_perms.len() <= BRUTE_ARRANGEMENT_CAP => {
                    CanonEngine::Brute
                }
                CanonMode::Auto | CanonMode::Refine => capped(&group),
                CanonMode::Brute if joint_perms.len() <= BRUTE_ARRANGEMENT_CAP => {
                    CanonEngine::Brute
                }
                CanonMode::Brute if full_product => CanonEngine::Refine(refine(cells)),
                CanonMode::Brute => capped(&group),
            }
        };
        let wide = config.por == PorMode::Wide;
        // The host-drain tier leans on all three strict-protocol
        // restrictions (see [`por`]'s module docs) and self-withdraws
        // when any is relaxed.
        let drains_sound = {
            let c = rules.config();
            c.snoop_pushes_go && c.precise_transient_tracking && c.go_cannot_tailgate_snoop
        };
        Reduction {
            codec,
            group,
            joint_perms,
            data,
            canon,
            por: config.por,
            safe_shapes: if config.por == PorMode::Off {
                Vec::new()
            } else {
                por::safe_local_shapes()
            },
            gated_shapes: if wide { por::snoop_gated_local_shapes() } else { Vec::new() },
            diamonds: if wide { por::completion_diamonds() } else { Vec::new() },
            drain_shapes: if wide && drains_sound {
                por::host_drain_shapes()
            } else {
                Vec::new()
            },
            orbit_canonicalized: AtomicU64::new(0),
            value_canonicalized: AtomicU64::new(0),
            ample_local: AtomicU64::new(0),
            ample_diamond: AtomicU64::new(0),
            ample_host_drain: AtomicU64::new(0),
        }
    }

    /// The joint canonicalizer this reducer armed: `"off"`, `"refine"`,
    /// `"brute"`, or `"capped"` (the over-cap/coupled fallback, which
    /// callers should surface — it quotients by a *subgroup* of the
    /// admissible set, so reduction is weaker than requested).
    #[must_use]
    pub fn canon_name(&self) -> &'static str {
        self.canon.name()
    }

    /// Will this reducer change anything at all? False when the detected
    /// device group is trivial, the value engine is off or inert, and
    /// POR is off — callers can skip installing it and keep the
    /// checker's unreduced fast path.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.group.nontrivial() || self.data.is_some() || self.por != PorMode::Off
    }

    /// The device permutations the joint device×data canonicalization
    /// minimises over (identity-only unless both engines are armed).
    #[must_use]
    pub fn joint_perms(&self) -> &[Vec<usize>] {
        &self.joint_perms
    }

    /// The detected (or trivial) device-symmetry subgroup.
    #[must_use]
    pub fn group(&self) -> &SymmetryGroup {
        &self.group
    }

    /// The data-symmetry engine, when armed and potentially active.
    #[must_use]
    pub fn data_symmetry(&self) -> Option<&DataSymmetry> {
        self.data.as_ref()
    }

    /// The codec this reducer canonicalizes through.
    #[must_use]
    pub fn codec(&self) -> &StateCodec {
        &self.codec
    }

    /// The canonical encoding of `state` — encode, then canonicalize.
    /// The comparison key for "are these states in the same orbit?".
    #[must_use]
    pub fn canonical_encoding(&self, state: &SystemState) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut scratch = Vec::new();
        self.canonical_encoding_into(state, &mut bytes, &mut scratch);
        bytes
    }

    /// [`Self::canonical_encoding`] into caller-owned buffers — the
    /// low-allocation form for callers that compare many candidates
    /// (trace de-permutation canonicalizes one encoding per enabled
    /// variant per step). `buf` receives the canonical bytes; `scratch`
    /// is the canonicalizer's assembly buffer.
    pub fn canonical_encoding_into(
        &self,
        state: &SystemState,
        buf: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) {
        buf.clear();
        self.codec.encode_into(state, buf);
        self.canonicalize_impl(buf, scratch, false);
    }

    /// The canonicalization kernel behind both the [`Reducer`] hook
    /// (which counts) and [`Self::canonical_encoding_into`] (which does
    /// not): device-only → per-class segment sort; value-only → one
    /// renumber pass; both → the joint form, the lexicographically-least
    /// renumbered arrangement over the subgroup (with a fast path when at
    /// most one distinct free value occurs, where renumbering commutes
    /// with segment permutation and the two engines literally compose).
    fn canonicalize_impl(&self, bytes: &mut Vec<u8>, scratch: &mut Vec<u8>, count: bool) -> bool {
        let Some(ds) = &self.data else {
            if !self.group.nontrivial() {
                return false;
            }
            let changed = self.group.canonicalize(&self.codec, &mut bytes[..], scratch);
            if changed && count {
                self.orbit_canonicalized.fetch_add(1, Ordering::Relaxed);
            }
            return changed;
        };
        // The joint path runs whenever any non-identity device
        // arrangement is admissible — which the *value-blind* list
        // decides, not the byte-equality subgroup (devices running
        // value-isomorphic programs have a trivial byte group but a rich
        // joint one). The armed engine picks the algorithm; refine and
        // brute land on byte-identical representatives.
        let labeller = match &self.canon {
            CanonEngine::Off => {
                let (changed, _) = ds.renumber(bytes, scratch);
                if changed {
                    std::mem::swap(bytes, scratch);
                    if count {
                        self.value_canonicalized.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return changed;
            }
            CanonEngine::Refine(lab) | CanonEngine::CappedRefine(lab) => Some(lab),
            CanonEngine::Brute => None,
        };
        // Fast path: when the admissible permutations are exactly the
        // byte-equal subgroup and at most one distinct free value
        // occurs, renumbering is independent of segment order (the
        // single token lands everywhere regardless), so it commutes with
        // every arrangement and the joint minimum is the per-class sort
        // of the renumbered encoding. Both conditions are orbit
        // invariants (a value bijection or device permutation changes
        // neither), so every state of one orbit takes the same branch
        // and the canonical form stays a function of the orbit. The
        // group condition is fixed at construction, so it is tested
        // first: when it fails, the renumber pass that counts the free
        // values is skipped. `bytes` doubles as the sorter's assembly
        // buffer — its pre-swap contents are dead either way.
        let mut identity = None;
        if self.joint_perms.len() as u64 == self.group.order() {
            let (id_changed, distinct_free) = ds.renumber(bytes, scratch);
            if distinct_free <= 1 {
                let sym_changed = self.group.canonicalize(&self.codec, &mut scratch[..], bytes);
                let changed = id_changed || sym_changed;
                if changed {
                    std::mem::swap(bytes, scratch);
                    if count {
                        if id_changed {
                            self.value_canonicalized.fetch_add(1, Ordering::Relaxed);
                        }
                        if sym_changed {
                            self.orbit_canonicalized.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                return changed;
            }
            identity = Some(id_changed);
        }
        match labeller {
            Some(lab) => self.canonicalize_refine(lab, ds, bytes, scratch, count),
            None => {
                // Brute seeds its scan with the identity arrangement's
                // renumbering, which the fast-path test may already have
                // left in `scratch`.
                let id_changed = identity.unwrap_or_else(|| ds.renumber(bytes, scratch).0);
                self.canonicalize_joint(ds, bytes, scratch, id_changed, count)
            }
        }
    }

    /// The refine-engine kernel: one partition-refinement labelling pass
    /// (see [`refine`]) instead of the brute scan, same byte result over
    /// the same group.
    fn canonicalize_refine(
        &self,
        lab: &RefineLabeller,
        ds: &DataSymmetry,
        bytes: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
        count: bool,
    ) -> bool {
        let outcome = lab.canonicalize(ds, bytes, scratch);
        let changed = *scratch != *bytes;
        if changed {
            std::mem::swap(bytes, scratch);
            if count {
                if outcome.rearranged {
                    self.orbit_canonicalized.fetch_add(1, Ordering::Relaxed);
                }
                if outcome.renumbered {
                    self.value_canonicalized.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        changed
    }

    /// The joint device×data canonical form: `min over σ in joint_perms
    /// of renumber(σ · bytes)` under lexicographic byte order. Constant
    /// on joint orbits because device permutations commute with value
    /// bijections as group actions and `renumber` is constant on
    /// value-equivalence classes; idempotent because the candidate set
    /// of a canonical form equals the candidate set of its pre-image
    /// (the admissible permutations form a group).
    ///
    /// `scratch` holds the identity arrangement's renumbering on entry,
    /// and `id_changed` says whether that pass rewrote `bytes`.
    fn canonicalize_joint(
        &self,
        ds: &DataSymmetry,
        bytes: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
        id_changed: bool,
        count: bool,
    ) -> bool {
        // Minimise over every admissible arrangement. `scratch` holds
        // the identity candidate; take it as the seeded best instead of
        // cloning (its buffer is reclaimed by the final swap below). The
        // two candidate buffers are the joint path's only per-call
        // allocations.
        let mut best: Vec<u8> = std::mem::take(scratch);
        let mut best_is_identity_arrangement = true;
        let mut best_renumber_changed = id_changed;
        let mut perm_buf: Vec<u8> = Vec::new();
        let mut cand: Vec<u8> = Vec::new();
        for perm in &self.joint_perms {
            if perm.iter().enumerate().all(|(i, &p)| i == p) {
                continue; // identity already seeded
            }
            SymmetryGroup::permute_encoding(&self.codec, bytes, perm, &mut perm_buf);
            let (cand_changed, _) = ds.renumber(&perm_buf, &mut cand);
            if cand < best {
                std::mem::swap(&mut best, &mut cand);
                best_is_identity_arrangement = false;
                best_renumber_changed = cand_changed;
            }
        }
        let changed = best != *bytes;
        if changed && count {
            if !best_is_identity_arrangement {
                self.orbit_canonicalized.fetch_add(1, Ordering::Relaxed);
            }
            // The value engine contributed whenever the winning
            // candidate's renumber pass rewrote its (permuted) input.
            if best_renumber_changed {
                self.value_canonicalized.fetch_add(1, Ordering::Relaxed);
            }
        }
        if changed {
            std::mem::swap(bytes, &mut best);
        }
        *scratch = best; // return the seeded buffer to the caller
        changed
    }
}

impl fmt::Debug for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reduction")
            .field("group_order", &self.group.order())
            .field("classes", &self.group.classes().len())
            .field("data_symmetry", &self.data.is_some())
            .field("canon", &self.canon.name())
            .field("por", &self.por)
            .finish()
    }
}

impl Reducer for Reduction {
    fn wants_peer_variants(&self) -> bool {
        // Any device-permuting canonicalization — the byte-equal
        // subgroup or the value-blind joint permutations — needs the
        // equivariant successor relation.
        self.group.nontrivial() || self.joint_perms.len() > 1
    }

    fn ample_step(
        &self,
        rules: &Ruleset,
        state: &SystemState,
        scratch: &mut SystemState,
    ) -> Option<RuleId> {
        match self.por {
            PorMode::Off => None,
            // The conservative tier is the widened election with only
            // its first tier armed: under `On` the gated, diamond and
            // drain tables are empty, so every election is `Local`.
            PorMode::On | PorMode::Wide => {
                let (id, kind) = por::ample_step_wide(
                    rules,
                    state,
                    &self.safe_shapes,
                    &self.gated_shapes,
                    &self.diamonds,
                    &self.drain_shapes,
                    scratch,
                )?;
                match kind {
                    AmpleKind::Local => self.ample_local.fetch_add(1, Ordering::Relaxed),
                    AmpleKind::Diamond => self.ample_diamond.fetch_add(1, Ordering::Relaxed),
                    AmpleKind::HostDrain => {
                        self.ample_host_drain.fetch_add(1, Ordering::Relaxed)
                    }
                };
                Some(id)
            }
        }
    }

    fn canonicalize(&self, bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) -> bool {
        self.canonicalize_impl(bytes, scratch, true)
    }

    fn orbit_size(&self, bytes: &[u8]) -> u64 {
        self.group.orbit_size(&self.codec, bytes)
    }

    fn stats(&self) -> ReductionStats {
        ReductionStats {
            orbit_canonicalized: self.orbit_canonicalized.load(Ordering::Relaxed),
            value_canonicalized: self.value_canonicalized.load(Ordering::Relaxed),
            ample_local: self.ample_local.load(Ordering::Relaxed),
            ample_diamond: self.ample_diamond.load(Ordering::Relaxed),
            ample_host_drain: self.ample_host_drain.load(Ordering::Relaxed),
            group_order: self.group.order(),
            data_symmetry: self.data.is_some(),
            por: self.por,
            canon: self.canon.name(),
        }
    }

    fn restore_stats(&self, stats: ReductionStats) {
        self.orbit_canonicalized.store(stats.orbit_canonicalized, Ordering::Relaxed);
        self.value_canonicalized.store(stats.value_canonicalized, Ordering::Relaxed);
        self.ample_local.store(stats.ample_local, Ordering::Relaxed);
        self.ample_diamond.store(stats.ample_diamond, Ordering::Relaxed);
        self.ample_host_drain.store(stats.ample_host_drain, Ordering::Relaxed);
    }

    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.group.nontrivial() {
            parts.push(format!(
                "symmetry(|G| = {}, {} classes)",
                self.group.order(),
                self.group.classes().len()
            ));
        }
        if let Some(ds) = &self.data {
            if self.joint_perms.len() > 1 {
                parts.push(format!(
                    "data-symmetry({} pinned, {} joint perms)",
                    ds.static_pinned().len(),
                    self.joint_perms.len()
                ));
            } else {
                parts.push(format!("data-symmetry({} pinned)", ds.static_pinned().len()));
            }
        }
        // Refine and brute produce identical canonical bytes, so they
        // share a description (checkpoints resume across them); the
        // capped fallback quotients by a different group and must not
        // mix its representatives into a brute/refine arena.
        if matches!(self.canon, CanonEngine::CappedRefine(_)) {
            parts.push("canon(capped)".to_string());
        }
        if self.por != PorMode::Off {
            parts.push(format!("por({})", self.por));
        }
        if parts.is_empty() {
            "inactive".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;
    use cxl_core::ProtocolConfig;

    fn sym_only() -> ReductionConfig {
        ReductionConfig { symmetry: true, data_symmetry: false, por: PorMode::Off, canon: CanonMode::Auto }
    }

    #[test]
    fn reduction_detects_symmetry_and_counts() {
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
        let init = SystemState::initial_n(
            3,
            vec![programs::load(), programs::load(), programs::load()],
        );
        let red = Reduction::new(&rules, &init, ReductionConfig::default());
        assert!(red.is_active());
        assert!(red.wants_peer_variants());
        assert_eq!(red.stats().group_order, 6);
        // All-load workloads mint no values, so the data engine is inert
        // and the description names only the device engine.
        assert!(red.data_symmetry().is_none());
        assert_eq!(red.describe(), "symmetry(|G| = 6, 1 classes)");

        // Canonicalizing a permuted state counts once and lands on the
        // same bytes as its mirror image.
        let mut a = init.clone();
        a.devs[0].cache.val = 3;
        let mut b = init.clone();
        b.devs[2].cache.val = 3;
        assert_eq!(red.canonical_encoding(&a), red.canonical_encoding(&b));
        assert_eq!(red.orbit_size(&red.canonical_encoding(&a)), 3);
    }

    #[test]
    fn inactive_reduction_reports_itself() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let init = SystemState::initial(programs::store(1), programs::load());
        let red = Reduction::new(&rules, &init, sym_only());
        assert!(!red.is_active(), "asymmetric two-device workload has no device symmetry");
        assert!(!red.wants_peer_variants());
        assert_eq!(red.describe(), "inactive");

        let por_only = Reduction::new(
            &rules,
            &init,
            ReductionConfig { symmetry: false, data_symmetry: false, por: PorMode::On, canon: CanonMode::Auto },
        );
        assert!(por_only.is_active());
        assert_eq!(por_only.describe(), "por(on)");
        assert_eq!(por_only.orbit_size(&por_only.codec().encode(&init)), 1);

        // The same workload *is* data-symmetric (the operand 1 outlives
        // its pinning once stored), and the default config arms it.
        let data = Reduction::new(&rules, &init, ReductionConfig::default());
        assert!(data.is_active());
        assert_eq!(data.describe(), "data-symmetry(2 pinned)"); // {-1, 0}
    }

    #[test]
    fn ample_counting_tracks_uses() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let init = SystemState::initial(programs::evicts(1), vec![]);
        let red = Reduction::new(
            &rules,
            &init,
            ReductionConfig { symmetry: false, data_symmetry: false, por: PorMode::On, canon: CanonMode::Auto },
        );
        let mut scratch = SystemState::initial_n(2, vec![]);
        assert!(red.ample_step(&rules, &init, &mut scratch).is_some());
        assert_eq!(red.stats().ample_local, 1);
        assert_eq!(red.stats().ample_steps(), 1);
    }

    #[test]
    fn joint_canonicalization_is_idempotent_and_orbit_invariant() {
        // Two symmetric devices, both storing 5 then 6: after both
        // programs drain the free values {5, 6} and the arrangement are
        // jointly canonicalized. Every combination of subgroup element ×
        // value swap must land on the same canonical bytes.
        let rules = Ruleset::new(ProtocolConfig::strict());
        let init = SystemState::initial(programs::stores(5, 2), programs::stores(5, 2));
        let red = Reduction::new(&rules, &init, ReductionConfig::default());
        assert!(red.group().nontrivial());
        assert!(red.data_symmetry().is_some());

        let mut s = init.clone();
        s.devs[0].prog.clear();
        s.devs[1].prog.clear();
        s.devs[0].cache.val = 5;
        s.devs[1].cache.val = 6;
        s.host.val = 6;

        let canon = red.canonical_encoding(&s);
        // Idempotence.
        let mut twice = canon.clone();
        let mut scratch = Vec::new();
        assert!(!red.canonicalize_impl(&mut twice, &mut scratch, false));
        assert_eq!(twice, canon);
        // Invariance under the device swap, a value swap, and both.
        let swapped = apply_permutation(&s, &[1, 0]);
        let vswap = |v: Val| if v == 5 { 6 } else if v == 6 { 5 } else { v };
        for t in [
            swapped.clone(),
            DataSymmetry::apply_value_map(&s, vswap),
            DataSymmetry::apply_value_map(&swapped, vswap),
        ] {
            assert_eq!(red.canonical_encoding(&t), canon, "joint orbit member diverged");
        }
    }
}
