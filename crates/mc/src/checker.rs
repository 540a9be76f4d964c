//! The explicit-state model checker.
//!
//! The paper explores its transition system inside Isabelle via the
//! `value` command with manual pruning (§5); here a breadth-first
//! enumeration with hashed state deduplication plays that role, made
//! exhaustive rather than semi-automatic. For bounded device programs the
//! model is finite-state (the invariant guarantees singleton channels), so
//! exhaustive exploration decides SWMR for every bounded configuration.
//!
//! ## The hot path
//!
//! Exploration throughput — and, for N ≥ 3 topologies, exploration
//! *memory* — is the binding constraint on how large a grid the
//! reproduction can decide, so the pipeline separates the canonical store
//! from the working representation:
//!
//! - **Packed state arena** — reached states live as
//!   [`cxl_core::StateCodec`] byte encodings in a [`cxl_core::StateArena`]
//!   (one contiguous buffer + offset table), tens of bytes per state
//!   instead of a heap `SystemState` behind an `Arc`. States are decoded
//!   on demand: once per expansion, per property check, and per
//!   counterexample-trace step.
//! - **Fingerprinted dedup over bytes** — every generated successor is
//!   encoded once into a reused scratch buffer and fingerprinted from its
//!   packed bytes; the visited index ([`cxl_core::FpIndex`]) maps
//!   fingerprints to arena slots, and the collision fallback is *byte*
//!   equality against the arena (the codec is deterministic, so byte
//!   equality is state equality). Only survivors are copied into the
//!   arena.
//! - **Scratch-state rule firing** — successors are generated by
//!   [`cxl_core::Ruleset::for_each_enabled_mut`], which fires each
//!   enabled rule **into a reused scratch state** (`clone_from`, not
//!   clone-new). Together with the packed dedup path this makes
//!   generating a duplicate successor fully allocation-free.
//! - **No terminal rescan** — per-state successor counts are recorded
//!   during forward expansion, so terminal states (and deadlocks) fall out
//!   of the BFS itself.
//! - **A decoded-frontier ring** — the driver keeps up to
//!   [`CheckOptions::frontier_ring`] of the current BFS level's states
//!   *decoded* in boxed slots (each stolen from the firing scratch by a
//!   `mem::swap` the moment its bytes are stored — no re-fire, no
//!   clone; every later hand-off moves a pointer), so most expansions
//!   swap a ready state in instead of re-parsing the packed encoding.
//!   The ring is bounded, invisible in the results, and shed for the
//!   rest of the run by the degradation ladder's first rung.
//! - **One driver, shard-owned stores** — every search runs the same
//!   level-synchronous driver over a store of S shards (default: one
//!   per worker thread, see [`CheckOptions::shards`]), each owning a
//!   private [`cxl_core::FpIndex`] + arena segment. A successor's owner
//!   is [`cxl_core::shard_of`] its fingerprint (high bits), so equal
//!   states always meet in the same shard and dedup is complete without
//!   a shared visited set. One shard with no workers is the sequential
//!   case: the global id is the slot, and the segment is the returned
//!   arena. With `threads > 1`, a wide level's expansion, dedup, and
//!   property check each run as one phase of scoped workers
//!   ([`std::thread::scope`]) that exist only for that phase. A dedup
//!   job borrows a contiguous run of shards as `&mut` and reads the
//!   level's expanded successors in place, keeping the ones its shards
//!   own, so insertion is single-owner mutation with no lock and no
//!   atomics, and a panic
//!   on any worker propagates out of [`ModelChecker::explore`] as it
//!   does at one thread. A BFS-level commit barrier assigns global ids
//!   in (frontier order × successor order) discovery order, so reports,
//!   traces, checkpoints, and the returned arena are bit-identical for
//!   every thread and shard count — unless a memory budget binds (next
//!   paragraph).
//!
//! A [`CheckOptions::mem_budget`] bounds the packed store: when the arena
//! outgrows it the search truncates cleanly (like `max_states`) instead
//! of dying on allocation — the guard rail for 4-device grid sweeps. The
//! footprint the degradation ladder compares against the budget counts
//! the shard directory, each shard's capacity slack and, on fused
//! levels, the decoded-frontier ring, all of which depend on the thread
//! and shard counts, so a run whose budget binds may shed and truncate
//! at different points under different counts.
//!
//! The pre-optimisation algorithm survives as
//! [`ModelChecker::explore_naive`] (in the `oracle` module), the oracle
//! for the differential tests that pin the driver to bit-identical
//! exploration results.

use crate::checkpoint::{
    options_fingerprint, Checkpoint, CheckpointError, CheckpointPolicy, CheckpointSource,
};
use crate::property::{Property, PropertyOutcome};
use crate::report::{
    Deadlock, DegradationAction, DegradationStep, Quarantine, ReductionSummary, Report, Step,
    Trace, Violation,
};
use cxl_core::{shard_of, FpIndex, RuleId, Ruleset, StateArena, StateCodec, SystemState};
use cxl_reduce::{Reducer, ReductionStats};
use cxl_telemetry::{
    FlightKind, FlightRing, LevelRecord, Phase, PhaseClock, PhaseNanos, ReductionDelta,
    RunSummary, ShardLevelStats,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A pruning predicate: states for which it returns `true` are recorded
/// but not expanded. This reproduces the paper's §5 practice of "manually
/// prun\[ing\] the tree of possible paths by adding extra predicates, in
/// order to guide Isabelle towards a solution".
pub type Prune = Arc<dyn Fn(&SystemState) -> bool + Send + Sync>;

/// Exploration options.
#[derive(Clone)]
pub struct CheckOptions {
    /// Stop after this many distinct states (the exploration is then
    /// marked truncated).
    pub max_states: usize,
    /// Stop after this BFS depth, if set.
    pub max_depth: Option<usize>,
    /// Stop after collecting this many property violations.
    pub max_violations: usize,
    /// Worker threads for successor expansion, dedup, and property
    /// checking. Each wide level spawns them for one phase at a time;
    /// `1` runs the whole search on the calling thread.
    pub threads: usize,
    /// Byte budget for the search's resident footprint: the packed state
    /// store (payload + offset table) **plus** the dedup fingerprint
    /// table, parent links, successor counts, and the frontier queues.
    /// Approaching the budget walks a graceful-degradation ladder
    /// (recorded in [`Report::sheds`]): at 80% capacity slack and
    /// transient buffers are shed, at 90% an emergency checkpoint is
    /// written (when [`CheckOptions::checkpoint`] names a directory), and
    /// at 100% the exploration truncates cleanly with
    /// [`Report::truncated_by_memory`] set — the same contract as
    /// `max_states`, so big-N grid sweeps degrade into partial coverage
    /// instead of OOM. `None` disables the bound.
    pub mem_budget: Option<usize>,
    /// Wall-clock budget for the exploration. Checked at every BFS level
    /// boundary; on expiry the run stops with [`Report::truncated`] and
    /// [`Report::truncated_by_time`] set, returns the valid partial
    /// report, and (when [`CheckOptions::checkpoint`] is set) leaves a
    /// resumable final checkpoint. Time already spent by interrupted
    /// sessions counts against the budget of a resumed run. `None`
    /// disables the watchdog.
    pub time_budget: Option<Duration>,
    /// Periodic checkpointing (see [`CheckpointPolicy`]): the search
    /// state is serialized to the policy's directory at BFS level
    /// boundaries, atomically, and a final checkpoint is written when
    /// the run ends truncated or with findings (a clean completed run
    /// skips the final write — its result needs no crash insurance).
    /// [`ModelChecker::explore_resumed`] picks such a run back up.
    /// `None` disables checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Number of fingerprint-owned store shards the search runs over.
    /// `None` (the default) means auto: one shard per worker thread.
    /// One shard is the plain sequential store — one index over one
    /// arena, the global id being the slot. More shards route each
    /// successor to its owner's private index and segment, even at
    /// `threads == 1` (which tests the routed layout deterministically
    /// on a single core). Results are identical for every shard count
    /// unless a [`CheckOptions::mem_budget`] binds (see the module docs),
    /// and shard count is *not* part of a checkpoint's identity: a
    /// checkpoint written under any shard count resumes under any other.
    pub shards: Option<usize>,
    /// Capacity (in states) of the decoded-frontier ring: up to this
    /// many of the current BFS level's states are
    /// kept *decoded* in boxed slots, each stolen from the firing
    /// scratch by a `mem::swap` the moment its bytes are stored (no
    /// re-fire, no clone), so next level's expansion swaps a ready
    /// state in instead of re-parsing the packed encoding. Memory cost
    /// is bounded — at most about 3 × `frontier_ring` decoded states
    /// live at once (ring, refill, and recycled spares combined) — and
    /// the degradation ladder's first rung sheds the ring for the rest
    /// of the run. The ring is inactive under a reducer
    /// (canonicalization rewrites successor bytes, so the fired state
    /// is not the stored representative), and only fused inline levels
    /// use it (pooled levels decode on the workers). `0` disables it.
    pub frontier_ring: usize,
    /// Optional pruning predicate (see [`Prune`]).
    pub prune: Option<Prune>,
    /// Keyframe interval for parent-delta state storage: when > 0, each
    /// stored successor may be kept as a [`StateCodec::encode_delta`]
    /// form against its BFS parent (same store segment only), with a
    /// full-encoding keyframe at least every this-many chain links
    /// bounding decode depth. `0` (the default) stores every state full
    /// — byte-identical to the historical arena, pinned by the
    /// differential suites. Delta storage never changes results: dedup,
    /// traces, checkpoints, and reduction canonicalization all operate
    /// on materialized full encodings.
    pub delta_keyframe: u32,
    /// Directory for cold-extent spill files. When set, completed BFS
    /// levels whose resident payload exceeds
    /// [`CheckOptions::spill_budget`] are sealed into immutable
    /// checksummed extents there and dropped from RAM (the degradation
    /// ladder's shed rung also seals everything cold); decoding an old
    /// id faults its extent back in through a small pinned cache. `None`
    /// (the default) keeps the whole store resident.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Resident-payload watermark (bytes) that triggers proactive
    /// spilling at BFS level boundaries when [`CheckOptions::spill_dir`]
    /// is set. `None` defaults to [`DEFAULT_SPILL_BUDGET`]; `Some(0)`
    /// spills every completed level eagerly.
    pub spill_budget: Option<usize>,
    /// Optional state-space reduction (see [`cxl_reduce::Reduction`]).
    /// With a reducer installed the checker canonicalizes every
    /// successor's packed encoding before dedup, may collapse
    /// interleavings around safe-local steps, and — whenever the reducer
    /// asks for peer variants — expands frontiers over the equivariant
    /// successor relation. Reported `states`/`transitions` then count
    /// orbit representatives; the verdict (clean / violating per
    /// property / deadlocked) is preserved. Callers must not combine a
    /// reducer with `prune` (reduction soundness assumes an unpruned
    /// relation); install one per exploration — the stats counters are
    /// cumulative.
    pub reduction: Option<Arc<dyn Reducer>>,
    /// Optional telemetry sink (see [`cxl_telemetry::Recorder`]). When
    /// set, the search hands the recorder one [`cxl_telemetry::LevelRecord`]
    /// per committed BFS level, every flight-recorder event as it is
    /// pushed, and a [`cxl_telemetry::RunSummary`] at the end. All
    /// metrics are computed at level-commit barriers from counters the
    /// search already maintains — `None` (the default) leaves the hot
    /// path without a single extra branch or clock read, and exploration
    /// results are bit-identical either way.
    pub telemetry: Option<Arc<dyn cxl_telemetry::Recorder>>,
}

/// The default packed-store budget: ample for every workload in this
/// repository (the N = 3 sweeps fit in a few MiB) while keeping a runaway
/// 4-device grid from exhausting the host.
pub const DEFAULT_MEM_BUDGET: usize = 1536 * 1024 * 1024;

/// Default resident-payload watermark for proactive cold-extent spilling
/// (used when [`CheckOptions::spill_dir`] is set without an explicit
/// [`CheckOptions::spill_budget`]): big enough that N ≤ 4 sweeps never
/// touch disk, small enough that an N = 5–6 grid starts shedding sealed
/// levels long before the memory-budget ladder has to truncate.
pub const DEFAULT_SPILL_BUDGET: usize = 32 * 1024 * 1024;

/// Default decoded-frontier ring capacity. The fill machinery moves
/// boxed slots (pointer-sized hand-offs; the only struct-sized copy is
/// the one steal swap out of the firing scratch). Its speed win no
/// longer shows at one thread on a 2-vCPU VM: ring off against on runs
/// ×0.99–1.00 on the 10,167-state N = 3 bench grid and ×0.96–0.98 on
/// N = 4 grids (PERFORMANCE.md, "The decoded-frontier ring"). It stays
/// because the memory ladder's shed timing depends on it. At ~0.6 KiB
/// per decoded slot and at most three live slot sets (ring, refill,
/// spares) it tops out at a few MiB, and the ladder's first rung sheds
/// it entirely under memory pressure.
pub const DEFAULT_FRONTIER_RING: usize = 2048;

/// Minimum frontier width before the search expands (or property-checks)
/// a level on scoped workers. Every pooled phase spawns and joins its
/// workers — 55–85 µs for two threads on a 2-vCPU VM — and hands its
/// results back, so levels below this run inline on the driver thread
/// (the fused arm of `ModelChecker::search`).
const PAR_EXPAND_MIN: usize = 256;

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 10_000_000,
            max_depth: None,
            max_violations: 1,
            threads: 1,
            mem_budget: Some(DEFAULT_MEM_BUDGET),
            time_budget: None,
            checkpoint: None,
            shards: None,
            frontier_ring: DEFAULT_FRONTIER_RING,
            delta_keyframe: 0,
            spill_dir: None,
            spill_budget: None,
            prune: None,
            reduction: None,
            telemetry: None,
        }
    }
}

impl std::fmt::Debug for CheckOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckOptions")
            .field("max_states", &self.max_states)
            .field("max_depth", &self.max_depth)
            .field("max_violations", &self.max_violations)
            .field("threads", &self.threads)
            .field("mem_budget", &self.mem_budget)
            .field("time_budget", &self.time_budget)
            .field("checkpoint", &self.checkpoint)
            .field("shards", &self.shards)
            .field("frontier_ring", &self.frontier_ring)
            .field("delta_keyframe", &self.delta_keyframe)
            .field("spill_dir", &self.spill_dir)
            .field("spill_budget", &self.spill_budget)
            .field("prune", &self.prune.is_some())
            .field("reduction", &self.reduction.as_ref().map(|r| r.describe()))
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// Sentinel for "this state was never expanded" in
/// [`Exploration::successor_counts`].
pub const NOT_EXPANDED: u32 = u32::MAX;

/// The outcome of expanding one frontier state inside an
/// [`ExpandedChunk`]. Rule firing runs inside `catch_unwind` (on the
/// inline path and on the workers alike), so a panic in the rule engine
/// poisons *one state* — quarantined in [`Report::quarantined`] —
/// instead of tearing down the whole search.
enum Outcome {
    /// The state expanded cleanly and emitted this many successors (at
    /// least one); their metadata occupies the next that-many entries of
    /// the chunk's parent-major item list.
    Succs(u32),
    /// The state expanded cleanly and emitted none (it is terminal, or
    /// pruned). Expansion decided `quiescent` while it still held the
    /// state decoded, so settling a deadlock never decodes it again.
    Terminal { quiescent: bool },
    /// Expansion panicked; the payload's message. The state stays
    /// unexpanded ([`NOT_EXPANDED`]) and is quarantined by the driver,
    /// contributing zero successors to the chunk.
    Poisoned(String),
}

impl Outcome {
    /// How many successors the state emitted into its chunk.
    fn emitted(&self) -> usize {
        match self {
            Outcome::Succs(n) => *n as usize,
            Outcome::Terminal { .. } | Outcome::Poisoned(_) => 0,
        }
    }
}

/// A chunk of expanded frontier states in frontier order.
///
/// The layout is deliberately struct-of-arrays: all successor bytes of
/// the whole chunk live in **one** buffer, with per-successor metadata
/// `(rule, end offset, fingerprint)` in one parent-major vector. The
/// earlier shape — a `Vec<u8>` per successor plus a `Vec` per parent —
/// spent more time in the allocator than in the rule engine on small
/// states (≈3 heap round-trips per expanded state at ~1.9 successors per
/// parent), which is exactly the per-message cost the shard protocol
/// must keep negligible. A chunk is three allocations total, whatever
/// its size; consumers walk it with an (item, byte) cursor pair.
#[derive(Default)]
struct ExpandedChunk {
    /// `(arena id, outcome)` in frontier order.
    parents: Vec<(usize, Outcome)>,
    /// Successor metadata, parent-major: `(rule, end offset into buf,
    /// fingerprint)` — a successor's bytes start where its predecessor's
    /// ended.
    items: Vec<(RuleId, usize, u64)>,
    /// Concatenated packed (canonical) bytes of every successor.
    buf: Vec<u8>,
    /// Stolen decoded states for a strict prefix of `items` (the
    /// driver's decoded-frontier ring fill — see
    /// [`CheckOptions::frontier_ring`]): `decoded[i]` is the decoded
    /// form of `items[i]`, captured by swapping the firing scratch at
    /// generation time. Boxed so every later hand-off (into the ring,
    /// back to the spare pool) moves a pointer rather than a half-KiB
    /// state. Only the driver's inline expansion steals; worker chunks
    /// leave this empty.
    #[allow(clippy::vec_box)]
    decoded: Vec<Box<SystemState>>,
}

impl ExpandedChunk {
    /// The chunk's successors in generation order, as `(parent, rule,
    /// packed bytes, fingerprint)`.
    fn successors(&self) -> impl Iterator<Item = (usize, RuleId, &[u8], u64)> {
        let owners = self
            .parents
            .iter()
            .flat_map(|(parent, outcome)| std::iter::repeat_n(*parent, outcome.emitted()));
        owners.zip(&self.items).scan(0usize, |start, (parent, &(rule, end, fp))| {
            let bytes = &self.buf[*start..end];
            *start = end;
            Some((parent, rule, bytes, fp))
        })
    }
}

/// How a search begins: from scratch, or mid-run from a validated
/// checkpoint.
enum Start<'s> {
    Fresh(&'s SystemState),
    Resume(Box<Checkpoint>),
}

/// The result of [`ModelChecker::explore`]: the report plus the packed
/// store of every reachable state (the exact universe the obligation
/// matrix of `cxl-sketch` quantifies over).
#[derive(Debug)]
pub struct Exploration {
    /// Statistics and findings.
    pub report: Report,
    /// Every distinct state visited, in discovery (BFS) order, as packed
    /// bytes — decode on demand via [`Self::state`] /
    /// [`StateArena::decode`].
    pub arena: StateArena,
    /// Per-state successor counts recorded during forward expansion
    /// (pre-dedup fan-out), indexed like the arena. States the
    /// search stopped before expanding hold [`NOT_EXPANDED`]. A pruned
    /// state records 0, mirroring the naive checker's terminal notion.
    pub successor_counts: Vec<u32>,
}

impl Exploration {
    /// Number of stored states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Is the store empty? (Never, for a completed exploration — the
    /// initial state is always stored.)
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Decode state `id` (discovery order).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: usize) -> SystemState {
        self.arena.decode(id)
    }

    /// Decode the whole visited set into shared heap states, in discovery
    /// order — the compatibility surface for consumers that want to hold
    /// the universe as objects (`cxl-sketch`'s obligation matrix).
    #[must_use]
    pub fn states(&self) -> Vec<Arc<SystemState>> {
        self.arena.iter_decoded().map(Arc::new).collect()
    }

    /// Mean *resident* store bytes per state: payload bytes actually
    /// held in RAM (delta-compressed entries at their compressed size,
    /// spilled extents excluded) plus the offset/base tables. For a
    /// plain arena this is the packed payload plus the offset table —
    /// note the tables were not counted before delta/spill landed, so
    /// this runs ~8 B/state higher than historical snapshots on
    /// identical plain runs.
    #[must_use]
    pub fn bytes_per_state(&self) -> f64 {
        if self.arena.is_empty() {
            0.0
        } else {
            (self.arena.resident_payload_bytes() + self.arena.table_bytes()) as f64
                / self.arena.len() as f64
        }
    }

    /// Was state `id` expanded with zero successors (i.e. is it terminal)?
    /// `None` when the search stopped before expanding it.
    #[must_use]
    pub fn is_terminal(&self, id: usize) -> Option<bool> {
        match self.successor_counts.get(id) {
            Some(&NOT_EXPANDED) | None => None,
            Some(&n) => Some(n == 0),
        }
    }

    /// Indices of all terminal states, in discovery order. On a clean,
    /// non-truncated run every state has been expanded, so this is exact —
    /// without re-running successor generation over the visited set.
    pub fn terminal_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.successor_counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == 0)
            .map(|(id, _)| id)
    }
}

/// A breadth-first explicit-state model checker over a [`Ruleset`].
///
/// # Examples
///
/// ```
/// use cxl_core::{ProtocolConfig, Ruleset, SystemState};
/// use cxl_core::instr::programs;
/// use cxl_mc::{ModelChecker, SwmrProperty};
///
/// let mc = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
/// let init = SystemState::initial(programs::store(42), programs::load());
/// let report = mc.check(&init, &[&SwmrProperty]);
/// assert!(report.clean());
/// ```
#[derive(Debug)]
pub struct ModelChecker {
    rules: Ruleset,
    opts: CheckOptions,
}

impl ModelChecker {
    /// A checker with default options.
    #[must_use]
    pub fn new(rules: Ruleset) -> Self {
        ModelChecker { rules, opts: CheckOptions::default() }
    }

    /// A checker with explicit options.
    #[must_use]
    pub fn with_options(rules: Ruleset, opts: CheckOptions) -> Self {
        ModelChecker { rules, opts }
    }

    /// The rule set being explored.
    #[must_use]
    pub fn rules(&self) -> &Ruleset {
        &self.rules
    }

    /// The exploration options.
    #[must_use]
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// Explore and return just the report.
    #[must_use]
    pub fn check(&self, initial: &SystemState, props: &[&dyn Property]) -> Report {
        self.explore(initial, props).report
    }

    /// Explore all states reachable from `initial`, checking `props` on
    /// every state (including the initial one), detecting non-quiescent
    /// terminal states, and retaining the visited set (packed).
    ///
    /// # Panics
    /// Panics if the options combine a pruning predicate with a
    /// state-space reduction — pruning decoded canonical representatives
    /// would prune whole orbits by an asymmetric, order-dependent
    /// criterion, silently skipping reachable states.
    #[must_use]
    pub fn explore(&self, initial: &SystemState, props: &[&dyn Property]) -> Exploration {
        assert!(
            self.opts.prune.is_none() || self.opts.reduction.is_none(),
            "CheckOptions::prune and CheckOptions::reduction are mutually exclusive \
             (pruning canonical representatives is unsound)"
        );
        assert!(
            self.opts.prune.is_none() || self.opts.checkpoint.is_none(),
            "CheckOptions::prune and CheckOptions::checkpoint are mutually exclusive \
             (a pruning closure cannot be checkpointed, so its checkpoints could \
              never be safely resumed)"
        );
        self.search(Start::Fresh(initial), props)
    }

    /// Resume (or reconstitute) the exploration recorded in the options'
    /// checkpoint directory.
    ///
    /// A checkpoint written at a BFS level boundary re-enters the search
    /// loop with identical algorithm state, so the resumed run's verdict,
    /// state count, and counterexample traces are exactly those of an
    /// uninterrupted run. Resource budgets (`max_states`, `max_depth`,
    /// `mem_budget`, `time_budget`) and `threads` are *not* part of a
    /// checkpoint's identity and may differ — raising a budget between
    /// sessions is the point of checkpointed campaigns. A final
    /// checkpoint of a mid-level stop (violation, `max_states`, the
    /// memory ladder's hard rung) is not re-enterable; its recorded
    /// report and arena are reconstituted and returned without further
    /// exploration.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when no checkpoint can be read,
    /// [`CheckpointError::Corrupt`] when the file fails validation
    /// (checksum, framing, state decoding — a damaged file is always
    /// refused, never partially resumed), and [`CheckpointError::Mismatch`]
    /// when it was written under different exploration semantics
    /// (topology, protocol configuration, initial state, or reduction
    /// setup), or when the options carry a pruning predicate or no
    /// checkpoint directory.
    pub fn explore_resumed(
        &self,
        props: &[&dyn Property],
    ) -> Result<Exploration, CheckpointError> {
        let policy = self.opts.checkpoint.as_ref().ok_or_else(|| {
            CheckpointError::Mismatch("resume requires CheckOptions::checkpoint".into())
        })?;
        if self.opts.prune.is_some() {
            return Err(CheckpointError::Mismatch(
                "cannot resume under a pruning predicate (closures are not checkpointable)"
                    .into(),
            ));
        }
        let cp = Checkpoint::read_dir(&policy.dir, &self.rules)?;
        let describe = self.opts.reduction.as_deref().map(|r| r.describe());
        let expected =
            options_fingerprint(&self.rules, describe.as_deref(), cp.arena.bytes_of(0));
        if expected != cp.fingerprint {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint fingerprint {:#018x} does not match this checker's {expected:#018x} \
                 (different protocol config, initial state, or reduction setup)",
                cp.fingerprint
            )));
        }
        if !cp.resumable {
            return Ok(self.reconstitute(cp));
        }
        Ok(self.search(Start::Resume(Box::new(cp)), props))
    }

    /// Rebuild the [`Exploration`] a non-resumable (mid-level) checkpoint
    /// recorded, without exploring: the verdict, arena, and traces are
    /// exactly the interrupted run's.
    fn reconstitute(&self, cp: Checkpoint) -> Exploration {
        let mut report = cp.partial_report(&self.rules);
        // The same presentation rule the search applies: terminal statistics
        // are only meaningful for complete, clean explorations.
        if report.truncated || !report.violations.is_empty() {
            report.terminal_states = 0;
            report.deadlocks.clear();
        }
        if let Some(r) = self.opts.reduction.as_deref() {
            if let Some(stats) = cp.reduction_stats {
                r.restore_stats(stats);
            }
            let orbit_states =
                (0..cp.arena.len()).map(|id| r.orbit_size(cp.arena.bytes_of(id))).sum();
            report.reduction = Some(reduction_summary(r, orbit_states));
        }
        // The interrupted session's black box is the reconstituted run's
        // too — there was no further exploration to add events.
        report.flight = cp.flight;
        Exploration { report, arena: cp.arena, successor_counts: cp.succ_counts }
    }

    /// All states reachable from `initial` (no properties checked),
    /// decoded into shared heap states.
    #[must_use]
    pub fn reachable(&self, initial: &SystemState) -> Vec<Arc<SystemState>> {
        self.explore(initial, &[]).states()
    }

    // -----------------------------------------------------------------
    // The search.
    // -----------------------------------------------------------------

    /// The exploration driver: a level-synchronous BFS over a store of
    /// fingerprint-owned shards (one per worker thread unless
    /// [`CheckOptions::shards`] says otherwise), with a commit barrier
    /// per level.
    ///
    /// Each level first walks the boundary work (depth and time
    /// watchdogs, the degradation ladder's boundary rungs, cold-extent
    /// spill, periodic checkpoints), then expands and merges the frontier
    /// in one of two arms:
    ///
    /// - **Fused inline** (one thread, or a frontier narrower than a
    ///   pooled phase is worth): each parent expands into a small
    ///   per-parent chunk that stays L1-hot and merges at once, and
    ///   stored successors fill the decoded-frontier ring.
    /// - **Pooled**: the frontier expands on scoped workers
    ///   ([`Self::expand_pooled`]); a level that provably cannot truncate
    ///   dedups on its shard owners, workers that each borrow one shard
    ///   and read the level's chunks in place ([`Self::owner_dedup`]),
    ///   and a level that might truncate merges serially on this thread.
    ///
    /// Both arms see successors in (frontier order × successor order), and
    /// every serial merge goes through [`Self::merge_chunk`], so the bits
    /// that come out are the same for every arm, thread count, and shard
    /// count. Fresh states are then property-checked through
    /// [`Self::check_stored`] (the one check path, which the initial state
    /// takes too), and the level is committed to telemetry.
    #[allow(clippy::too_many_lines)]
    fn search(&self, start: Start<'_>, props: &[&dyn Property]) -> Exploration {
        let shards = self.opts.shards.unwrap_or(self.opts.threads).max(1);
        let start_time = Instant::now();
        let codec = StateCodec::new(self.rules.topology());
        let reducer = self.opts.reduction.as_deref();
        // Symmetry-reducing runs must explore the equivariant successor
        // relation (the host's collection rules fire once per peer that
        // can fire them) — orbit-representative search over the
        // first-firing-peer determinisation would not cover every orbit.
        let peer_variants = reducer.is_some_and(Reducer::wants_peer_variants);
        // Telemetry: the flight ring runs unconditionally (a handful of
        // pushes per level); the phase clock and level records exist only
        // with a recorder installed — everything they report is derived
        // at level boundaries from counters the search already keeps.
        let recorder = self.opts.telemetry.as_deref();
        let mut phase_total = PhaseNanos::default();
        let mut s = Search {
            store: ShardedStore::new(codec, shards),
            parents: Vec::new(),
            succ_counts: Vec::new(),
            // Flat per-rule firing counters, folded into the report's
            // map once at the end: one array increment per transition.
            firings: vec![0u64; self.rules.rule_ids().len()],
            frontier: vec![0],
            new_indices: Vec::new(),
            depth: 0,
            report: Report::default(),
            transient: StateArena::new(codec),
            transient_index: FpIndex::new(),
            shed_done: false,
            // Inactive under a reducer: canonicalization rewrites successor
            // bytes, so the fired state is not the stored representative.
            ring: Ring::new(if reducer.is_none() { self.opts.frontier_ring } else { 0 }),
            scratch: codec.blank(),
            flight: Flight {
                ring: FlightRing::new(cxl_telemetry::DEFAULT_FLIGHT_CAPACITY),
                recorder,
            },
            clock: PhaseClock::new(recorder.is_some()),
        };

        // Reused working buffers of the fused arm: the decoded parent
        // (boxed, so a ring hit swaps a pointer, not a half-KiB struct),
        // the rule-firing scratch, the canonicalization buffers, and the
        // per-parent chunk. All stop allocating once grown to the
        // workload's high-water mark.
        let mut cur = Box::new(codec.blank());
        let mut fire_scratch = codec.blank();
        let mut enc_scratch: Vec<u8> = Vec::new();
        let mut canon_scratch: Vec<u8> = Vec::new();
        let mut pchunk = ExpandedChunk::default();

        // Wall-clock already spent by interrupted sessions: added to this
        // session's clock for the time budget, the report, and every
        // checkpoint, so elapsed time is cumulative across resumes.
        let mut elapsed_offset = Duration::ZERO;
        match start {
            Start::Fresh(initial) => {
                // The initial state is stored **uncanonicalized**: it
                // serves as its own class representative, so every
                // reported trace starts from the caller's own initial
                // state (the data-symmetry engine would otherwise
                // renumber its program operands into canonical tokens).
                // Orbit reduction does not require the root to be a
                // canonical form — only successors are rewritten.
                codec.encode_into(initial, &mut enc_scratch);
                s.store.insert(StateCodec::fingerprint(&enc_scratch), &enc_scratch, None);
                s.parents.push(None);
                s.succ_counts.push(NOT_EXPANDED);
                if !props.is_empty() {
                    self.check_stored(&[0], &s.store, &s.parents, &mut s.report, props, 1);
                }
            }
            Start::Resume(cp) => {
                // Re-enter the loop at the checkpoint's level boundary:
                // levels 0..depth fully expanded, frontier = level
                // `depth`. Everything below reproduces the writing run's
                // algorithm state exactly, for any writing shard count.
                let cp = *cp;
                s.store = ShardedStore::restore(cp.arena, &cp.fps, shards);
                s.parents = cp.parents;
                s.succ_counts = cp.succ_counts;
                s.firings = cp.firings;
                s.frontier = cp.frontier;
                s.depth = cp.depth;
                elapsed_offset = cp.elapsed;
                let report = &mut s.report;
                report.transitions = cp.transitions;
                report.terminal_states = cp.terminal_states;
                report.depth = cp.depth;
                report.violations = cp.violations;
                report.deadlocks = cp.deadlocks;
                report.quarantined = cp.quarantined;
                report.sheds = cp.sheds;
                report.resumed_from = Some(s.store.len());
                if let (Some(r), Some(stats)) = (reducer, cp.reduction_stats) {
                    r.restore_stats(stats);
                }
                // The black box survives the crash: the checkpointed ring
                // seeds this session's, sequence numbers keep counting,
                // and the resume itself becomes the first new event.
                s.flight.ring =
                    FlightRing::restore(cxl_telemetry::DEFAULT_FLIGHT_CAPACITY, cp.flight);
                s.flight.note(FlightKind::Resume, s.depth as u64, s.store.len() as u64, "");
            }
        }

        // Arm the store's beyond-RAM layers *after* the start match: a
        // resumed checkpoint restores plain full encodings, which then
        // simply become eligible keyframe bases. Both layers are
        // storage-only — dedup, traces, checkpoints, and reduction all
        // see materialized full bytes — so arming them never changes
        // results.
        s.store.arm(self.opts.delta_keyframe, self.opts.spill_dir.as_deref());
        let spill_watermark = self.opts.spill_budget.unwrap_or(DEFAULT_SPILL_BUDGET);

        let ckpt = self.opts.checkpoint.as_ref().map(|policy| {
            let describe = reducer.map(|r| r.describe());
            let mut init = Vec::new();
            s.store.append_full_bytes(0, &mut init);
            (policy, options_fingerprint(&self.rules, describe.as_deref(), &init))
        });
        // Every checkpoint carries the cumulative elapsed time and the
        // reducer's counters.
        let checkpoint = |s: &mut Search<'_>, (policy, fp): (&CheckpointPolicy, u64), resumable| {
            let elapsed = elapsed_offset + start_time.elapsed();
            s.checkpoint(&self.rules, &policy.dir, fp, resumable, elapsed, reducer.map(|r| r.stats()));
        };
        let mut last_checkpoint = Instant::now();
        // Does the stop point land on a BFS level boundary (making the
        // final checkpoint exactly resumable)? True for the time/depth
        // watchdogs and natural completion; false for mid-level stops.
        let mut stopped_at_boundary = false;
        let mut emergency_done = false;

        // Level-boundary telemetry baselines: records carry *deltas* of
        // these cumulative counters, so a resumed session's stream picks
        // up exactly where the interrupted one's left off and the two sum
        // to an uninterrupted run's totals.
        let transitions_at_start = s.report.transitions;
        let mut marks = Marks::of(&s);
        let mut prev_reduction = reducer.map(|r| r.stats());
        let mut level_started = Instant::now();
        // The work gate of pooled expansion and checking (see
        // `PAR_EXPAND_MIN`); one thread never pools.
        let expand_min = if self.opts.threads > 1 {
            (2 * self.opts.threads).max(PAR_EXPAND_MIN)
        } else {
            usize::MAX
        };

        while !s.frontier.is_empty() {
            if self.opts.max_depth.is_some_and(|md| s.depth >= md) {
                s.report.truncated = true;
                stopped_at_boundary = true;
                break;
            }
            // The time-budget watchdog: checked once per level, so a
            // stop always lands on a resumable boundary with a valid
            // partial report.
            if self.opts.time_budget.is_some_and(|tb| elapsed_offset + start_time.elapsed() >= tb)
            {
                s.report.truncated = true;
                s.report.truncated_by_time = true;
                stopped_at_boundary = true;
                break;
            }
            // Graceful-degradation ladder, walked at level boundaries
            // while every structure is still coherent.
            if let Some(budget) = self.opts.mem_budget {
                // The decoded ring counts against the budget too — its
                // win (skipped decodes) must only be traded back within
                // bounds, so the first rung sheds it for the rest of the
                // run.
                let before = s.ring.bytes(&cur) + s.footprint(s.frontier.capacity());
                // Rung 1 (≥ 80% of the budget): shed capacity slack and
                // transient buffers. With a spill dir armed it also
                // seals every level below the frontier to disk.
                if !s.shed_done && before.saturating_mul(10) >= budget.saturating_mul(8) {
                    s.store.spill_cold_below(&s.frontier);
                    s.frontier.shrink_to_fit();
                    s.transient.clear_and_release();
                    s.transient_index = FpIndex::new();
                    pchunk = ExpandedChunk::default();
                    enc_scratch = Vec::new();
                    canon_scratch = Vec::new();
                    s.shed(before, s.frontier.capacity());
                }
                // Rung 2 (≥ 90%): one emergency checkpoint while the
                // search state is still serializable.
                if !emergency_done && before.saturating_mul(10) >= budget.saturating_mul(9) {
                    if let Some(c) = ckpt {
                        emergency_done = true;
                        s.report.sheds.push(DegradationStep {
                            action: DegradationAction::EmergencyCheckpoint,
                            at_states: s.store.len(),
                            footprint: before,
                        });
                        checkpoint(&mut s, c, true);
                        last_checkpoint = Instant::now();
                    }
                }
            }
            // Proactive cold-extent spill: once the resident payload
            // outgrows the watermark, seal every completed level (fully
            // expanded, touched again only by traces, quarantine dumps,
            // or stale dedup probes) and drop it from RAM.
            if s.store.spill_armed() && s.store.resident_payload_bytes() > spill_watermark {
                let t = s.clock.tick();
                s.store.spill_cold_below(&s.frontier);
                s.clock.tock(Phase::Spill, t);
            }
            // Periodic checkpoint: at the first boundary after each
            // `every` interval (a zero interval checkpoints every level).
            if let Some(c) = ckpt.filter(|(p, _)| last_checkpoint.elapsed() >= p.every) {
                checkpoint(&mut s, c, true);
                last_checkpoint = Instant::now();
            }

            // Expand and merge: dedupe by fingerprint with byte-equality
            // fallback, link parents, count firings, record per-state
            // successor counts, detect terminals. Once `max_states` (or
            // the memory budget) is reached no further states are
            // stored, but the rest of the level is still deduped and
            // property-checked transiently, so a violation inside the
            // truncated tail is reported rather than silently dropped.
            s.new_indices = Vec::new();
            let mut queue_depths: Vec<u32> = Vec::new();
            if s.frontier.len() >= expand_min {
                // Workers decode their parents from the store and steal
                // no decoded successors, so a pooled level neither reads
                // nor fills the ring.
                let expand_t = s.clock.tick();
                let mut expanded = self.expand_pooled(&s.frontier, &s.store);
                s.clock.tock(Phase::Expand, expand_t);
                let merge_t = s.clock.tick();
                // Only a level that provably cannot truncate may dedup
                // on its shard owners: truncation semantics (the over-cap
                // tail, per-state stop points, the ladder's mid-level
                // rungs) are inherently sequential. The worst case prices
                // every successor as fresh: its payload plus per-state
                // bookkeeping (offset slot, index slot, parent link,
                // successor count, directory entry, queue slot).
                const PER_STATE_OVERHEAD: usize = 80;
                let succs: usize = expanded.iter().map(|c| c.items.len()).sum();
                let payload_bytes: usize = expanded.iter().map(|c| c.buf.len()).sum();
                let fast = !s.report.truncated
                    && s.store.len() + succs <= self.opts.max_states
                    && self.opts.mem_budget.is_none_or(|budget| {
                        let worst = s.footprint(s.frontier.capacity())
                            + payload_bytes
                            + succs * PER_STATE_OVERHEAD;
                        worst.saturating_mul(10) < budget.saturating_mul(8)
                    });
                if fast {
                    // A level that cannot truncate cannot stop mid-level,
                    // so every parent settles, and every transition is
                    // counted, before the dedup.
                    for chunk in &expanded {
                        for (parent, outcome) in &chunk.parents {
                            s.settle(*parent, outcome);
                        }
                        for &(rule, _, _) in &chunk.items {
                            s.firings[self.rules.dense_index(rule)] += 1;
                        }
                        s.report.transitions += chunk.items.len();
                    }
                    queue_depths = self.owner_dedup(&mut s, &expanded);
                } else {
                    for chunk in &mut expanded {
                        if self.merge_chunk(&mut s, props, chunk) {
                            break;
                        }
                    }
                }
                s.clock.tock(Phase::Merge, merge_t);
            } else {
                s.ring.filling = s.ring.on;
                // One clock span for the fused pass: per-parent timestamps
                // would put two clock reads in the hot loop — measurably
                // over the telemetry overhead budget — so inline merges
                // count under expand and only the pooled arm reports a
                // true expand/merge split.
                let expand_t = s.clock.tick();
                for j in 0..s.frontier.len() {
                    let parent = s.frontier[j];
                    pchunk.parents.clear();
                    pchunk.items.clear();
                    pchunk.buf.clear();
                    let steal_cap = s.ring.steal_cap();
                    expand_one(
                        &self.rules,
                        codec,
                        self.opts.prune.as_ref(),
                        reducer,
                        peer_variants,
                        parent,
                        |cur| {
                            // Ring hit: the frontier is gid-consecutive
                            // and the ring covers its prefix position for
                            // position, so the parent's decoded form swaps
                            // in for free; misses (ring shed, resume, a
                            // level that outgrew the ring) decode from the
                            // store.
                            if let Some(slot) = s.ring.cur.get_mut(j) {
                                std::mem::swap(cur, slot);
                            } else {
                                s.store.decode_into(parent, cur);
                            }
                        },
                        &mut cur,
                        &mut fire_scratch,
                        &mut enc_scratch,
                        &mut canon_scratch,
                        steal_cap,
                        &mut s.ring.spare,
                        &mut pchunk,
                    );
                    if self.merge_chunk(&mut s, props, &mut pchunk) {
                        break;
                    }
                }
                s.clock.tock(Phase::Expand, expand_t);
            }

            let mut stop_violations = self.violation_cap(&s.report);

            // Property checking over freshly committed states — on
            // scoped workers when the level is wide enough to pay for
            // them, with violations recorded in discovery order either way.
            if !stop_violations && !props.is_empty() && !s.new_indices.is_empty() {
                let check_t = s.clock.tick();
                let threads = if s.new_indices.len() >= expand_min {
                    self.opts.threads
                } else {
                    1
                };
                let (ids, store, parents) = (&s.new_indices, &s.store, &s.parents);
                stop_violations =
                    self.check_stored(ids, store, parents, &mut s.report, props, threads);
                s.clock.tock(Phase::Check, check_t);
            }

            // Level commit, telemetry side: flight events for whatever
            // the level turned up, then one record of deltas — emitted on
            // *every* exit path that did work (including the violation
            // stop below), so a metrics stream always sums exactly to the
            // final report's totals.
            let (sealed, faulted) = s.store.spill_counts();
            for v in &s.report.violations[marks.violations..] {
                s.flight.note(FlightKind::Violation, s.store.len() as u64, 0, &v.property);
            }
            for shed in &s.report.sheds[marks.sheds..] {
                let rung = degradation_rung(shed.action);
                s.flight.note(FlightKind::Degradation, rung, shed.footprint as u64, "");
            }
            if sealed > marks.sealed {
                s.flight.note(FlightKind::SpillSeal, sealed - marks.sealed, sealed, "");
            }
            if faulted > marks.faulted {
                s.flight.note(FlightKind::SpillFault, faulted - marks.faulted, faulted, "");
            }
            s.flight.note(FlightKind::LevelCommit, (s.depth + 1) as u64, s.store.len() as u64, "");
            if let Some(rec) = recorder {
                let phases = s.clock.drain();
                phase_total.accumulate(&phases);
                let transitions = s.report.transitions - marks.transitions;
                let stored = s.new_indices.len();
                let reduction_now = reducer.map(|r| r.stats());
                rec.record_level(&LevelRecord {
                    depth: s.depth + 1,
                    stored,
                    states_total: s.store.len(),
                    transitions,
                    duplicates: transitions.saturating_sub(stored),
                    frontier: stored,
                    footprint: s.footprint(s.frontier.capacity() + s.new_indices.capacity()),
                    elapsed: level_started.elapsed(),
                    phases,
                    sheds: s.report.sheds.len() - marks.sheds,
                    spill_seals: sealed - marks.sealed,
                    spill_faults: faulted - marks.faulted,
                    quarantines: s.report.quarantined.len() - marks.quarantined,
                    reduction: reduction_now.map(|now| {
                        let base = prev_reduction.unwrap_or_default();
                        ReductionDelta {
                            orbit_canonicalized: now.orbit_canonicalized
                                - base.orbit_canonicalized,
                            value_canonicalized: now.value_canonicalized
                                - base.value_canonicalized,
                            ample_steps: now.ample_steps() - base.ample_steps(),
                            canon: now.canon,
                        }
                    }),
                    // Per-shard queue depths are the successors each
                    // owner deduped this level (empty on levels that
                    // merged on the driver).
                    shards: (shards > 1).then(|| ShardLevelStats {
                        queue_depths,
                        imbalance_pct: s.store.imbalance_pct(),
                    }),
                });
                prev_reduction = reduction_now;
            }
            marks = Marks::of(&s);
            level_started = Instant::now();

            if stop_violations {
                break;
            }
            s.depth += 1;
            s.report.depth = s.depth;
            if s.report.truncated {
                break;
            }
            s.ring.rotate();
            s.frontier = std::mem::take(&mut s.new_indices);
        }

        // The final checkpoint — written *before* the terminal-statistics
        // presentation rule below, so a resumed run keeps counting from
        // the exact boundary values. `resumable` records whether the stop
        // landed on a level boundary; mid-level stops leave a checkpoint
        // whose report is reconstituted verbatim instead of re-entered.
        //
        // Crash insurance is only worth paying for when there is
        // something to come back for: a truncated run resumes, one with
        // findings reconstitutes. A clean completed run hands its result
        // back right here (any periodic checkpoint is simply left behind;
        // resuming it re-explores to the same clean end).
        if s.frontier.is_empty() {
            stopped_at_boundary = true;
        }
        let report = &s.report;
        let worth_keeping = report.truncated
            || !report.violations.is_empty()
            || !report.deadlocks.is_empty()
            || !report.quarantined.is_empty();
        if let Some(c) = ckpt.filter(|_| worth_keeping) {
            checkpoint(&mut s, c, stopped_at_boundary);
        }

        let mut report = std::mem::take(&mut s.report);
        // Terminal statistics were collected on the fly; they are only
        // meaningful (and only reported, matching the naive checker) when
        // the exploration ran to completion with no violations.
        if report.truncated || !report.violations.is_empty() {
            report.terminal_states = 0;
            report.deadlocks.clear();
        }
        report.rule_firings = self
            .rules
            .rule_ids()
            .iter()
            .zip(&s.firings)
            .filter(|(_, &n)| n > 0)
            .map(|(&id, &n)| (id, n))
            .collect();
        report.states = s.store.len();
        report.memory_bytes = s.footprint(s.frontier.capacity());
        if let Some(r) = reducer {
            // One pass over the stored representatives prices the
            // device-symmetry engine: Σ orbit sizes is the exact store
            // size of the unreduced equivariant exploration *of that
            // engine alone* (data-symmetry and POR savings only show
            // against a measured unreduced run).
            let mut full = Vec::new();
            let orbit_states = (0..s.store.len())
                .map(|gid| {
                    full.clear();
                    s.store.append_full_bytes(gid, &mut full);
                    r.orbit_size(&full)
                })
                .sum();
            report.reduction = Some(reduction_summary(r, orbit_states));
        }
        report.shards = shards;
        // One routed message per transition examined this session.
        report.routed_messages = if shards > 1 {
            (report.transitions - transitions_at_start) as u64
        } else {
            0
        };
        report.shard_imbalance_pct = s.store.imbalance_pct();
        (report.spilled_extents, report.faulted_extents) = s.store.spill_counts();
        report.delta_entries = s.store.delta_entries();
        report.elapsed = elapsed_offset + start_time.elapsed();
        phase_total.accumulate(&s.clock.drain());
        if s.clock.enabled() {
            report.profile = Some(phase_total);
        }
        report.flight = s.flight.ring.events();
        if let Some(rec) = recorder {
            rec.finish(&run_summary(&report, phase_total));
        }
        Exploration { report, arena: s.store.into_arena(), successor_counts: s.succ_counts }
    }

    /// Merge an expanded chunk serially, parent by parent in frontier
    /// order: settle each parent at its turn ([`Search::settle`]), then
    /// merge its successors ([`Self::merge`]), handing each the decoded
    /// form expansion stole for it. A level the violation cap stops
    /// therefore leaves every later parent unexpanded, whatever arm ran
    /// it. Returns `true` when the violation cap stops the level.
    fn merge_chunk(
        &self,
        s: &mut Search<'_>,
        props: &[&dyn Property],
        chunk: &mut ExpandedChunk,
    ) -> bool {
        let mut stolen = chunk.decoded.drain(..);
        let mut items = chunk.items.iter();
        let mut start = 0usize;
        for (parent, outcome) in &chunk.parents {
            let emitted = s.settle(*parent, outcome);
            for &(rule, end, fp) in items.by_ref().take(emitted) {
                let encoded = &chunk.buf[start..end];
                start = end;
                if self.merge(s, props, *parent, rule, encoded, fp, stolen.next()) {
                    return true;
                }
            }
        }
        false
    }

    /// Merge one successor at its global turn — the single per-successor
    /// step of every serial merge, fused or pooled: count the transition,
    /// dedup in the owning shard, store and link a fresh state, fill the
    /// decoded-frontier ring with `stolen` (the successor's decoded form,
    /// when expansion kept one), and walk the memory ladder's mid-level
    /// rungs. Past truncation the successor instead joins the over-cap
    /// tail. Returns `true` when the violation cap stops the level.
    #[allow(clippy::too_many_arguments)]
    fn merge(
        &self,
        s: &mut Search<'_>,
        props: &[&dyn Property],
        parent: usize,
        rule: RuleId,
        encoded: &[u8],
        fp: u64,
        stolen: Option<Box<SystemState>>,
    ) -> bool {
        s.firings[self.rules.dense_index(rule)] += 1;
        s.report.transitions += 1;
        if s.report.truncated {
            // Over-cap tail: dedup against the store (read-only probe)
            // and the transient side arena, so a state reached twice in
            // the tail is property-checked once.
            s.ring.recycle(stolen);
            if s.store.contains(fp, encoded) {
                return false;
            }
            let candidate = u32::try_from(s.transient.len()).expect("state count fits u32");
            if s.transient_index
                .insert(fp, candidate, |id| s.transient.bytes_of(id as usize) == encoded)
                .is_some()
            {
                return false;
            }
            s.transient.push_encoded(encoded);
            s.transient.decode_into(s.transient.len() - 1, &mut s.scratch);
            // Not stored, so its trace is its parent's plus this step.
            for p in props {
                if let PropertyOutcome::Violated(detail) = p.check(&s.scratch) {
                    let mut trace = rebuild_trace(parent, &s.store, &s.parents);
                    trace.steps.push(Step {
                        rule,
                        state: s.scratch.clone(),
                    });
                    if self.record(&mut s.report, p.name(), detail, trace) {
                        return true;
                    }
                }
            }
            return false;
        }
        let Some(gid) = s.store.insert(fp, encoded, Some(parent)) else {
            s.ring.recycle(stolen);
            return false;
        };
        s.parents.push(Some((parent, rule)));
        s.succ_counts.push(NOT_EXPANDED);
        s.new_indices.push(gid);
        s.ring.admit(stolen);
        if s.store.len() >= self.opts.max_states {
            s.report.truncated = true;
        }
        if let Some(budget) = self.opts.mem_budget {
            // The hard rung: the full resident footprint — store, dedup
            // indexes, parent links, successor counts, and both frontier
            // queues — against the budget, not just the arena.
            let queue_slots = s.frontier.capacity() + s.new_indices.capacity();
            let mut footprint = s.footprint(queue_slots);
            // A fast-growing level can blow through the 80% boundary rung
            // and the budget in one stride; shed the capacity slack
            // reachable from here before giving up, so truncation is
            // always the ladder's *last* step.
            if !s.shed_done && footprint.saturating_mul(10) >= budget.saturating_mul(8) {
                footprint = s.shed(footprint, queue_slots);
            }
            if footprint >= budget {
                s.report.truncated = true;
                s.report.truncated_by_memory = true;
                s.report.sheds.push(DegradationStep {
                    action: DegradationAction::Truncate,
                    at_states: s.store.len(),
                    footprint,
                });
            }
        }
        false
    }

    /// A pooled level's parallel dedup, for levels that provably cannot
    /// truncate: one job per worker, each borrowing a contiguous run of
    /// ⌈S/T⌉ shards as `&mut` and reading the level's chunks and the
    /// global directory in place ([`dedup_owned`]), so every worker scans
    /// the level once whatever the shard count. The commit then assigns
    /// global ids to the fresh states in global sequence order (frontier
    /// order × successor order), the ids a serial merge would assign.
    /// Returns how many of the level's successors each shard owned.
    fn owner_dedup(&self, s: &mut Search<'_>, expanded: &[ExpandedChunk]) -> Vec<u32> {
        let ShardedStore { shards, dir, .. } = &mut s.store;
        let (count, dir) = (shards.len(), &*dir);
        let per_job = count.div_ceil(self.opts.threads);
        let jobs = shards.chunks_mut(per_job).enumerate();
        let per_job_shards = run_phase(self.opts.threads, jobs, || {
            |(j, own): (usize, &mut [ShardState])| {
                dedup_owned(j * per_job, own, count, dir, expanded)
            }
        });
        let per_shard: Vec<(u32, Vec<FreshSucc>)> = per_job_shards.into_iter().flatten().collect();
        let depths = per_shard.iter().map(|&(owned, _)| owned).collect();

        // Commit. Per-shard fresh lists are already seq-sorted, so this
        // sort is a merge.
        let mut fresh: Vec<(usize, FreshSucc)> = per_shard
            .into_iter()
            .enumerate()
            .flat_map(|(shard, (_, f))| f.into_iter().map(move |x| (shard, x)))
            .collect();
        fresh.sort_unstable_by_key(|(_, f)| f.seq);
        for (shard, f) in fresh {
            let gid = s.store.commit(shard, f.slot);
            s.parents.push(Some((f.parent, f.rule)));
            s.succ_counts.push(NOT_EXPANDED);
            s.new_indices.push(gid);
        }
        if s.store.len() >= self.opts.max_states {
            s.report.truncated = true;
        }
        depths
    }

    /// Has the search collected as many violations as it may?
    fn violation_cap(&self, report: &Report) -> bool {
        report.violations.len() >= self.opts.max_violations && !report.violations.is_empty()
    }

    /// Record one violation — the single recording step, for stored
    /// states and the over-cap tail alike. Returns `true` when the
    /// violation cap stops the search.
    fn record(&self, report: &mut Report, property: &str, detail: String, trace: Trace) -> bool {
        report.violations.push(Violation {
            property: property.to_string(),
            detail,
            trace,
        });
        self.violation_cap(report)
    }

    /// Property-check stored states `ids` — the one check path, for the
    /// initial state and every level, fused or pooled. [`run_phase`]
    /// hands the ids out in chunks, and each worker decodes them straight
    /// from the store into one scratch state. Violations are recorded in
    /// discovery order (state, then property) until the cap; returns
    /// `true` when the cap stops the search.
    fn check_stored(
        &self,
        ids: &[usize],
        store: &ShardedStore,
        parents: &[Option<(usize, RuleId)>],
        report: &mut Report,
        props: &[&dyn Property],
        threads: usize,
    ) -> bool {
        let found = run_phase(threads, ids.chunks(chunk_size(ids.len())), || {
            let mut cur = store.codec.blank();
            move |ids: &[usize]| {
                let mut out = Vec::new();
                for &id in ids {
                    store.decode_into(id, &mut cur);
                    for (k, p) in props.iter().enumerate() {
                        if let PropertyOutcome::Violated(detail) = p.check(&cur) {
                            out.push((id, k, detail));
                        }
                    }
                }
                out
            }
        });
        found.into_iter().flatten().any(|(id, k, detail)| {
            let trace = rebuild_trace(id, store, parents);
            self.record(report, props[k].name(), detail, trace)
        })
    }
}

// ---------------------------------------------------------------------
// Scoped phase workers.
// ---------------------------------------------------------------------

impl ModelChecker {
    /// Expand a frontier on scoped workers, returning one successor chunk
    /// per job in frontier order. Each worker decodes its parents straight
    /// from the store and keeps one decoded parent, one firing scratch,
    /// and two encoding buffers for the phase.
    fn expand_pooled(&self, frontier: &[usize], store: &ShardedStore) -> Vec<ExpandedChunk> {
        let (rules, codec, prune) = (&self.rules, store.codec, self.opts.prune.as_ref());
        let reducer = self.opts.reduction.as_deref();
        let peer_variants = reducer.is_some_and(Reducer::wants_peer_variants);
        let jobs = frontier.chunks(chunk_size(frontier.len()));
        run_phase(self.opts.threads, jobs, || {
            let mut cur = Box::new(codec.blank());
            let mut fire_scratch = codec.blank();
            let mut enc_scratch: Vec<u8> = Vec::new();
            let mut canon_scratch: Vec<u8> = Vec::new();
            // Workers never steal decoded successors (steal cap 0): the
            // ring only serves inline levels, and shipping decoded states
            // back would cost more than the decode it saves.
            let mut no_spare: Vec<Box<SystemState>> = Vec::new();
            move |ids: &[usize]| {
                let mut out = ExpandedChunk {
                    parents: Vec::with_capacity(ids.len()),
                    ..ExpandedChunk::default()
                };
                for &id in ids {
                    expand_one(
                        rules,
                        codec,
                        prune,
                        reducer,
                        peer_variants,
                        id,
                        |cur| store.decode_into(id, cur),
                        &mut cur,
                        &mut fire_scratch,
                        &mut enc_scratch,
                        &mut canon_scratch,
                        0,
                        &mut no_spare,
                        &mut out,
                    );
                }
                out
            }
        })
    }
}

/// States per job of an expand or check phase, balancing hand-out
/// overhead against load balance.
fn chunk_size(len: usize) -> usize {
    (len / 64).clamp(16, 512)
}

/// Run one phase: `jobs` on up to `threads` workers, with the results
/// returned in job order. This is the phase runner of the checker's
/// pooled expansion, dedup and property check, and of `cxl-sketch`'s
/// obligation matrix. Each worker builds its job body with `worker`
/// (which owns that worker's scratch for the phase). One worker is the
/// caller itself, and no thread is spawned. More workers are scoped
/// threads that exist only for this call; they take jobs one at a time
/// from one in-order hand-out of the iterator until it runs dry, and a
/// panic on any of them resumes on the caller once every worker has
/// stopped, so a pooled phase fails as a one-thread phase does.
pub fn run_phase<J, R: Send, W: FnMut(J) -> R>(
    threads: usize,
    jobs: impl ExactSizeIterator<Item = J> + Send,
    worker: impl Fn() -> W + Sync,
) -> Vec<R> {
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        return jobs.map(worker()).collect();
    }
    let handout = Mutex::new(jobs.enumerate());
    // The guard drops before the job runs, so workers only serialize on
    // taking a job. An iterator that panicked ends the hand-out, and its
    // panic resumes below.
    let next = || handout.lock().ok()?.next();
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut work = worker();
                    let mut out = Vec::new();
                    while let Some((i, job)) = next() {
                        out.push((i, work(job)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

// ---------------------------------------------------------------------
// The search state.
// ---------------------------------------------------------------------

/// Everything one search mutates across its levels: the store and its
/// side columns, the frontier queues, the report under construction, the
/// over-cap side store, and the flight recorder and phase clock.
struct Search<'r> {
    store: ShardedStore,
    /// Parent links for trace rebuilding, indexed by global id.
    parents: Vec<Option<(usize, RuleId)>>,
    /// Per-state successor counts, recorded at expansion time.
    succ_counts: Vec<u32>,
    /// Dense per-rule firing counters (shapes × devices of the topology).
    firings: Vec<u64>,
    /// The level being expanded (global ids, discovery order).
    frontier: Vec<usize>,
    /// The states stored while expanding it — the next frontier.
    new_indices: Vec<usize>,
    depth: usize,
    report: Report,
    /// Side store for over-cap states checked transiently after
    /// truncation, so a state reached twice in the truncated tail is
    /// deduped and checked once.
    transient: StateArena,
    transient_index: FpIndex,
    /// Has the degradation ladder's first rung fired?
    shed_done: bool,
    /// The decoded-frontier ring, filled and read by fused inline levels'
    /// expansion (nothing else reads it).
    ring: Ring,
    /// The reused decoded form of an over-cap tail state being
    /// property-checked (stored states are checked by
    /// [`ModelChecker::check_stored`]).
    scratch: SystemState,
    flight: Flight<'r>,
    clock: PhaseClock,
}

impl Search<'_> {
    /// Full resident footprint of the search, the quantity
    /// [`CheckOptions::mem_budget`] bounds: every shard's segment and
    /// index, the global directory, the parent links, the successor
    /// counts, and the frontier queues (`queue_slots` = total `usize`
    /// slots across them).
    fn footprint(&self, queue_slots: usize) -> usize {
        let store = &self.store;
        let mut total = store.dir.capacity() * std::mem::size_of::<(u32, u32)>();
        for shard in &store.shards {
            total += shard.segment.approx_heap_bytes() + shard.index.approx_heap_bytes();
        }
        total
            + self.parents.capacity() * std::mem::size_of::<Option<(usize, RuleId)>>()
            + self.succ_counts.capacity() * std::mem::size_of::<u32>()
            + queue_slots * std::mem::size_of::<usize>()
    }

    /// The degradation ladder's first rung, as its boundary and mid-level
    /// firings share it: drop the decoded ring for the rest of the run,
    /// shrink the store and its side columns to fit, and record the step
    /// against the `before` footprint. Returns the footprint after.
    fn shed(&mut self, before: usize, queue_slots: usize) -> usize {
        self.shed_done = true;
        self.ring.shed();
        self.store.shrink_to_fit();
        self.parents.shrink_to_fit();
        self.succ_counts.shrink_to_fit();
        let after = self.footprint(queue_slots);
        self.report.sheds.push(DegradationStep {
            action: DegradationAction::ShedBuffers { reclaimed: before.saturating_sub(after) },
            at_states: self.store.len(),
            footprint: after,
        });
        after
    }

    /// Record one parent's expansion outcome: its successor count and
    /// terminal or deadlock status, or its quarantine. Expansion already
    /// decided a terminal parent's quiescence, so settling never decodes
    /// the parent. Returns how many successors the parent emitted.
    fn settle(&mut self, parent: usize, outcome: &Outcome) -> usize {
        match outcome {
            Outcome::Poisoned(message) => {
                self.flight.note(FlightKind::Quarantine, parent as u64, 0, message);
                self.report.quarantined.push(quarantine_of(parent, &self.store, message.clone()));
            }
            Outcome::Terminal { quiescent } => {
                self.succ_counts[parent] = 0;
                self.report.terminal_states += 1;
                // Frontier order is discovery order, so deadlock traces
                // come out in the order the naive rescan produced.
                if !quiescent {
                    let trace = rebuild_trace(parent, &self.store, &self.parents);
                    self.report.deadlocks.push(Deadlock { trace });
                }
            }
            Outcome::Succs(n) => self.succ_counts[parent] = (*n).min(u32::MAX - 1),
        }
        outcome.emitted()
    }

    /// Serialize the search state straight from the store and write it
    /// (atomically) to `dir`. A failed write degrades to a stderr warning
    /// and the search continues — the resilience layer must not become a
    /// crash source itself.
    fn checkpoint(
        &mut self,
        rules: &Ruleset,
        dir: &Path,
        fingerprint: u64,
        resumable: bool,
        elapsed: Duration,
        reduction_stats: Option<ReductionStats>,
    ) {
        let t = self.clock.tick();
        // Pushed *before* encoding, so the checkpoint file on disk
        // carries its own write event — a resumed run's flight recorder
        // then shows the very write it came back from.
        self.flight.note(
            FlightKind::CheckpointWrite,
            self.depth as u64,
            self.store.len() as u64,
            "",
        );
        let report = &self.report;
        let source = CheckpointSource {
            fingerprint,
            resumable,
            depth: self.depth,
            elapsed,
            transitions: report.transitions,
            terminal_states: report.terminal_states,
            truncated: report.truncated,
            truncated_by_memory: report.truncated_by_memory,
            truncated_by_time: report.truncated_by_time,
            store: &self.store,
            parents: &self.parents,
            succ_counts: &self.succ_counts,
            frontier: &self.frontier,
            firings: &self.firings,
            violations: &report.violations,
            deadlocks: &report.deadlocks,
            quarantined: &report.quarantined,
            sheds: &report.sheds,
            reduction_stats,
            flight: &self.flight.ring.events(),
        };
        if let Err(e) = source.write_atomic(rules, dir) {
            eprintln!("warning: checkpoint write failed: {e}");
        }
        self.clock.tock(Phase::Checkpoint, t);
    }
}

/// The flight-recorder ring plus the telemetry recorder its events are
/// mirrored to.
struct Flight<'r> {
    ring: FlightRing,
    recorder: Option<&'r dyn cxl_telemetry::Recorder>,
}

impl Flight<'_> {
    /// Record an event.
    fn note(&mut self, kind: FlightKind, a: u64, b: u64, detail: &str) {
        if let Some(event) = self.ring.push(kind, a, b, detail) {
            if let Some(rec) = self.recorder {
                rec.record_event(event);
            }
        }
    }
}

/// Level-boundary snapshot of the cumulative counters level records
/// report deltas of.
struct Marks {
    transitions: usize,
    sheds: usize,
    quarantined: usize,
    violations: usize,
    sealed: u64,
    faulted: u64,
}

impl Marks {
    fn of(s: &Search<'_>) -> Self {
        let (sealed, faulted) = s.store.spill_counts();
        Marks {
            transitions: s.report.transitions,
            sheds: s.report.sheds.len(),
            quarantined: s.report.quarantined.len(),
            violations: s.report.violations.len(),
            sealed,
            faulted,
        }
    }
}

/// The decoded-frontier ring (see [`CheckOptions::frontier_ring`]):
/// `cur[j]` is the decoded form of `frontier[j]` for a prefix of the
/// level, and `next[j]` of the level's j-th stored state. Each `next`
/// slot is *stolen* from the firing scratch at generation time, the
/// moment its successor is encoded, so the captured state is the very
/// state whose bytes were stored: the ring is invisible in the results,
/// and filling it costs no re-firing and no decode. Duplicates hand their
/// slot back to `spare`, so steady state allocates nothing. Slots are
/// boxed: every hand-off — chunk → `next` → `cur` → `spare` — moves a
/// pointer, not a half-KiB state, which is what lets the fill cost less
/// than the decodes it saves.
// `Vec<Box<_>>` is deliberate (see `expand_one`).
#[allow(clippy::vec_box)]
struct Ring {
    cap: usize,
    on: bool,
    /// Is this level's `next` prefix still growing? Cleared the first
    /// time a stored state cannot enter it.
    filling: bool,
    cur: Vec<Box<SystemState>>,
    next: Vec<Box<SystemState>>,
    spare: Vec<Box<SystemState>>,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap,
            on: cap > 0,
            filling: false,
            cur: Vec::new(),
            next: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// How many of the next parent's successors expansion may steal.
    fn steal_cap(&self) -> usize {
        if self.on && self.filling {
            self.cap.saturating_sub(self.next.len())
        } else {
            0
        }
    }

    /// The decoded states held, priced for the memory budget with
    /// `sample`'s heap size.
    fn bytes(&self, sample: &SystemState) -> usize {
        (self.cur.len() + self.next.len() + self.spare.len())
            * (std::mem::size_of::<SystemState>() + cxl_core::heap_state_bytes(sample))
    }

    /// Hand an unused stolen slot back for reuse (dropped once shed).
    fn recycle(&mut self, slot: Option<Box<SystemState>>) {
        if self.on {
            self.spare.extend(slot);
        }
    }

    /// A stored state's stolen slot joins `next` while the prefix holds:
    /// `next[j]` must stay aligned with the j-th stored state, so the
    /// first stored state without a slot (or past the cap) ends the fill.
    fn admit(&mut self, slot: Option<Box<SystemState>>) {
        match slot {
            Some(slot) if self.on && self.filling && self.next.len() < self.cap => {
                self.next.push(slot);
            }
            other => {
                self.filling = false;
                self.recycle(other);
            }
        }
    }

    /// The degradation ladder's first rung: drop every slot for the rest
    /// of the run.
    fn shed(&mut self) {
        self.on = false;
        self.cur = Vec::new();
        self.next = Vec::new();
        self.spare = Vec::new();
    }

    /// Level end: consumed slots become spares, and the states stolen
    /// for the next level become its ring.
    fn rotate(&mut self) {
        if self.on {
            self.spare.append(&mut self.cur);
            self.spare.truncate(self.cap);
            std::mem::swap(&mut self.cur, &mut self.next);
        }
    }
}

// ---------------------------------------------------------------------
// The shard-owned visited set.
// ---------------------------------------------------------------------

/// Read access to stored states by global (discovery-order) id — the
/// search's [`ShardedStore`] and a plain [`StateArena`] — so trace
/// rebuilding, quarantines, and the checkpoint encoder read either. Both
/// are `Sync`: phase workers decode from the store they share.
pub(crate) trait StateStore {
    /// Number of stored states.
    fn len(&self) -> usize;
    /// Σ full-encoding lengths of every stored state: the exact size of
    /// the materialized payload.
    fn full_payload_bytes(&self) -> usize;
    /// Append state `id`'s **full encoding** to `out` — materialized
    /// from its delta chain / spilled extent when the store compresses,
    /// byte-identical to what was originally stored.
    fn append_full_bytes(&self, id: usize, out: &mut Vec<u8>);
    /// Run `f` on every stored state's full encoding in id order, each
    /// shard segment read through one [`StateArena::reader`].
    fn for_each_full(&self, f: &mut dyn FnMut(&[u8]));
    fn decode(&self, id: usize) -> SystemState;
    fn decode_into(&self, id: usize, out: &mut SystemState);
}

impl StateStore for StateArena {
    fn len(&self) -> usize {
        StateArena::len(self)
    }
    fn full_payload_bytes(&self) -> usize {
        StateArena::full_payload_bytes(self)
    }
    fn append_full_bytes(&self, id: usize, out: &mut Vec<u8>) {
        StateArena::append_full_bytes(self, id, out);
    }
    fn for_each_full(&self, f: &mut dyn FnMut(&[u8])) {
        let mut read = self.reader();
        for id in 0..self.len() {
            read.with_full(id, &mut *f);
        }
    }
    fn decode(&self, id: usize) -> SystemState {
        StateArena::decode(self, id)
    }
    fn decode_into(&self, id: usize, out: &mut SystemState) {
        StateArena::decode_into(self, id, out);
    }
}

/// One shard of the visited set: a private dedup index over a private
/// packed-state segment. A dedup job borrows the pair as `&mut`, so the
/// worker that owns a shard for a level mutates both as the sole owner —
/// no shared visited set, no lock, no atomics.
struct ShardState {
    index: FpIndex,
    segment: StateArena,
}

/// The search's visited set: S shard-owned (index, segment) pairs. With
/// more than one shard a global directory maps discovery-order global
/// ids to `(shard, slot)`; a single shard needs none — its segment holds
/// every state in discovery order, so the global id is the slot and the
/// segment *is* the arena.
struct ShardedStore {
    codec: StateCodec,
    shards: Vec<ShardState>,
    dir: Vec<(u32, u32)>,
}

impl ShardedStore {
    fn new(codec: StateCodec, shards: usize) -> Self {
        ShardedStore {
            codec,
            shards: (0..shards.max(1))
                .map(|_| ShardState {
                    index: FpIndex::new(),
                    segment: StateArena::new(codec),
                })
                .collect(),
            dir: Vec::new(),
        }
    }

    /// Rebuild the store from a checkpoint's discovery-order arena.
    /// Replaying fingerprint inserts in discovery order reproduces the
    /// writing run's insertion order in every shard (routing is a pure
    /// function of the fingerprint), whatever shard count wrote it; one
    /// shard adopts the arena itself as its segment.
    fn restore(arena: StateArena, fps: &[u64], shards: usize) -> Self {
        let mut store = ShardedStore::new(*arena.codec(), shards);
        if shards <= 1 {
            let mut index = FpIndex::with_capacity(arena.len());
            for (i, &fp) in fps.iter().enumerate() {
                let slot = u32::try_from(i).expect("state count fits u32");
                index.insert(fp, slot, |id| arena.bytes_of(id as usize) == arena.bytes_of(i));
            }
            store.shards[0] = ShardState {
                index,
                segment: arena,
            };
            return store;
        }
        for (gid, &fp) in fps.iter().enumerate() {
            let s = shard_of(fp, shards);
            let ShardState { index, segment } = &mut store.shards[s];
            let slot = u32::try_from(segment.len()).expect("state count fits u32");
            index.insert(fp, slot, |id| segment.bytes_of(id as usize) == arena.bytes_of(gid));
            segment.push_encoded(arena.bytes_of(gid));
            store.commit(s, slot);
        }
        store
    }

    /// Arm parent-delta storage and cold-extent spill in every segment.
    /// Deltas are shard-local: a successor compresses against its BFS
    /// parent only when the parent landed in the same shard.
    fn arm(&mut self, delta_keyframe: u32, spill_dir: Option<&Path>) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if delta_keyframe > 0 {
                shard.segment.enable_delta(delta_keyframe);
            }
            if let Some(dir) = spill_dir {
                // A spill dir that cannot be created degrades to a
                // resident shard: the memory ladder still guards the run.
                let _ = shard.segment.enable_spill(dir, &format!("shard{i}"));
            }
        }
    }

    /// Where global id `gid` lives: `(shard, slot)`.
    fn locate(&self, gid: usize) -> (usize, usize) {
        locate(&self.dir, self.shards.len(), gid)
    }

    /// Assign the next global id to the fresh state at `slot` of shard
    /// `s`. Commits append to each shard in global order, so with one
    /// shard the id is the slot.
    fn commit(&mut self, s: usize, slot: u32) -> usize {
        if self.shards.len() == 1 {
            return slot as usize;
        }
        self.dir.push((u32::try_from(s).expect("shard fits u32"), slot));
        self.dir.len() - 1
    }

    /// Dedup `encoded` (fingerprint `fp`) in its owning shard. A new
    /// state is stored — as a delta against `parent` when delta storage
    /// is armed and the parent lives in the same shard — and its global
    /// id returned; a known one returns `None`.
    fn insert(&mut self, fp: u64, encoded: &[u8], parent: Option<usize>) -> Option<usize> {
        let s = shard_of(fp, self.shards.len());
        let base = parent.map(|p| self.locate(p)).filter(|&(ps, _)| ps == s);
        let ShardState { index, segment } = &mut self.shards[s];
        let slot = u32::try_from(segment.len()).expect("state count fits u32");
        if index.insert(fp, slot, |id| segment.entry_matches(id as usize, encoded)).is_some() {
            return None;
        }
        segment.push_encoded_delta(encoded, base.map(|(_, pslot)| pslot as u32));
        Some(self.commit(s, slot))
    }

    /// Is `encoded` already stored? A read-only probe of its owner.
    fn contains(&self, fp: u64, encoded: &[u8]) -> bool {
        let ShardState { index, segment } = &self.shards[shard_of(fp, self.shards.len())];
        index.probe(fp, |id| segment.entry_matches(id as usize, encoded)).is_some()
    }

    /// The degradation ladder's shed step, per shard.
    fn shrink_to_fit(&mut self) {
        for shard in self.shards.iter_mut() {
            shard.index.shrink_to_fit();
            shard.segment.shrink_to_fit();
        }
        self.dir.shrink_to_fit();
    }

    fn spill_armed(&self) -> bool {
        self.shards.iter().any(|s| s.segment.spill_armed())
    }

    /// Total resident payload bytes across shard segments — the spill
    /// watermark's input.
    fn resident_payload_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.segment.resident_payload_bytes())
            .sum()
    }

    /// Run-total (sealed, faulted) extent counters over all segments.
    fn spill_counts(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(sealed, faulted), s| {
            (
                sealed + s.segment.spilled_extents(),
                faulted + s.segment.faulted_extents(),
            )
        })
    }

    /// States stored as parent-deltas, over all segments.
    fn delta_entries(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.segment.delta_entries() as u64)
            .sum()
    }

    /// Seal every shard's entries below the current frontier (global
    /// ids) into cold extents and drop them from RAM. Commits append to
    /// each shard in global order, so a level's slots are a suffix of
    /// its shard segment — everything below the frontier's minimum slot
    /// per shard is fully expanded. No-op unless spill is armed.
    fn spill_cold_below(&mut self, frontier: &[usize]) {
        if !self.spill_armed() {
            return;
        }
        let mut floors: Vec<usize> = self.shards.iter().map(|s| s.segment.len()).collect();
        for &gid in frontier {
            let (s, slot) = self.locate(gid);
            // Seal below the frontier's keyframe-chain roots, not its
            // raw slots, so expanding the frontier never faults.
            floors[s] = floors[s].min(self.shards[s].segment.decode_floor(slot));
        }
        for (shard, floor) in self.shards.iter_mut().zip(floors) {
            let _ = shard.segment.spill_cold(floor);
        }
    }

    /// How far the most loaded shard sits above a perfect split:
    /// `(max − mean) / mean`, in percent, over per-shard state counts.
    /// 0% is a perfectly even partition; the fingerprint routing keeps
    /// this small for any workload big enough to matter.
    fn imbalance_pct(&self) -> f64 {
        let lens: Vec<usize> = self.shards.iter().map(|s| s.segment.len()).collect();
        if lens.is_empty() {
            return 0.0;
        }
        let max = lens.iter().copied().max().unwrap_or(0) as f64;
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            (max - mean) / mean * 100.0
        }
    }

    /// The visited set as one arena in global discovery order: a single
    /// shard's segment as it is, several merged into the byte layout one
    /// shard would hold, so the result is shard-count-free.
    fn into_arena(mut self) -> StateArena {
        if self.shards.len() == 1 {
            return self.shards.swap_remove(0).segment;
        }
        let mut arena = StateArena::with_capacity(self.codec, self.dir.len(), self.full_payload_bytes());
        for &(s, slot) in &self.dir {
            arena.push_full_from(&self.shards[s as usize].segment, slot as usize);
        }
        arena
    }
}

/// Where global id `gid` lives in a store of `shards` shards whose
/// directory is `dir`: `(shard, slot)`. One shard keeps no directory —
/// the id is the slot.
fn locate(dir: &[(u32, u32)], shards: usize, gid: usize) -> (usize, usize) {
    if shards == 1 {
        return (0, gid);
    }
    let (s, slot) = dir[gid];
    (s as usize, slot as usize)
}

impl StateStore for ShardedStore {
    fn len(&self) -> usize {
        if self.shards.len() == 1 {
            self.shards[0].segment.len()
        } else {
            self.dir.len()
        }
    }
    fn full_payload_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.segment.full_payload_bytes())
            .sum()
    }
    fn append_full_bytes(&self, id: usize, out: &mut Vec<u8>) {
        let (s, slot) = self.locate(id);
        self.shards[s].segment.append_full_bytes(slot, out);
    }
    fn for_each_full(&self, f: &mut dyn FnMut(&[u8])) {
        let mut reads: Vec<_> = self.shards.iter().map(|s| s.segment.reader()).collect();
        for id in 0..self.len() {
            let (s, slot) = self.locate(id);
            reads[s].with_full(slot, &mut *f);
        }
    }
    fn decode(&self, id: usize) -> SystemState {
        let (s, slot) = self.locate(id);
        self.shards[s].segment.decode(slot)
    }
    fn decode_into(&self, id: usize, out: &mut SystemState) {
        let (s, slot) = self.locate(id);
        self.shards[s].segment.decode_into(slot, out);
    }
}

/// A genuinely fresh state an owner stored during its dedup: where it
/// landed (shard-local slot) and its discovering edge, tagged with the
/// global sequence number so the commit barrier can assign global ids in
/// deterministic discovery order.
struct FreshSucc {
    seq: u64,
    parent: usize,
    rule: RuleId,
    slot: u32,
}

/// One worker's dedup over its run `own` of shards `first..` of
/// `shards`: walk the level's successors once, in global sequence
/// order, keep those the run owns, and probe-or-insert each in its
/// shard, storing a fresh one as a delta against its parent when the
/// parent lives in the same shard (`dir` is the global directory).
/// Returns, per shard of the run, the owned-successor count and the
/// fresh states in sequence order.
fn dedup_owned(
    first: usize,
    own: &mut [ShardState],
    shards: usize,
    dir: &[(u32, u32)],
    expanded: &[ExpandedChunk],
) -> Vec<(u32, Vec<FreshSucc>)> {
    let mut out: Vec<(u32, Vec<FreshSucc>)> = own.iter().map(|_| (0, Vec::new())).collect();
    let all = expanded.iter().flat_map(ExpandedChunk::successors);
    for (seq, (parent, rule, bytes, fp)) in (0u64..).zip(all) {
        let owner = shard_of(fp, shards);
        if !(first..first + own.len()).contains(&owner) {
            continue;
        }
        let ShardState { index, segment } = &mut own[owner - first];
        let (owned, fresh) = &mut out[owner - first];
        *owned = owned.saturating_add(1);
        let slot = u32::try_from(segment.len()).expect("state count fits u32");
        if index.insert(fp, slot, |id| segment.entry_matches(id as usize, bytes)).is_none() {
            let (ps, pslot) = locate(dir, shards, parent);
            segment.push_encoded_delta(bytes, (ps == owner).then_some(pslot as u32));
            fresh.push(FreshSucc { seq, parent, rule, slot });
        }
    }
    out
}

/// Append one successor's encoded (canonical) bytes, fingerprint, and
/// item entry to `chunk` — the emission kernel of [`expand_one`].
fn emit_succ(
    chunk: &mut ExpandedChunk,
    codec: StateCodec,
    reducer: Option<&dyn Reducer>,
    enc_scratch: &mut Vec<u8>,
    canon_scratch: &mut Vec<u8>,
    rule: RuleId,
    succ: &SystemState,
) {
    let start = chunk.buf.len();
    if let Some(r) = reducer {
        // Canonicalization rewrites the encoding in place, so it goes
        // through a reusable side buffer rather than the chunk's
        // append-only one.
        enc_scratch.clear();
        codec.encode_into(succ, enc_scratch);
        r.canonicalize(enc_scratch, canon_scratch);
        chunk.buf.extend_from_slice(enc_scratch);
    } else {
        codec.encode_into(succ, &mut chunk.buf);
    }
    let fp = StateCodec::fingerprint(&chunk.buf[start..]);
    chunk.items.push((rule, chunk.buf.len(), fp));
}

/// Expand one frontier state into `chunk` — the single expansion body
/// shared by the driver's inline path and the workers (same
/// supervision, same reduction path, same output layout).
///
/// `decode` materializes the parent into `cur` and runs *inside* the
/// supervision boundary: a panic anywhere in decode, prune, reduction,
/// rule firing, encoding, or canonicalization poisons this one parent.
/// On poison, every partially emitted successor is rolled back (stolen
/// decodes recycled to `spare`), so a quarantined state contributes
/// exactly zero successors, and the scratch states are re-blanked (the
/// panic may have left them torn).
///
/// While the chunk holds fewer than `steal_cap` items, each successor's
/// decoded form is *stolen* at generation time — swapped out of the
/// firing scratch into `chunk.decoded` (a spare slot, or a fresh blank,
/// takes its place; rule fire functions rebuild their output from the
/// parent, so the swapped-in contents are irrelevant). Stealing is
/// disabled under reduction: the stored bytes are canonicalized, so the
/// raw fired successor is not the state a ring hit must reproduce.
// `Vec<Box<_>>` is deliberate: spare slots shuttle between here, the
// pending list, and the ring, and boxing keeps every one of those
// hand-offs pointer-sized (the unboxed version moved the half-KiB
// `SystemState` struct four times per stolen successor, which ate the
// decode saving the ring exists to capture).
#[allow(clippy::too_many_arguments, clippy::vec_box)]
fn expand_one(
    rules: &Ruleset,
    codec: StateCodec,
    prune: Option<&Prune>,
    reducer: Option<&dyn Reducer>,
    peer_variants: bool,
    parent: usize,
    decode: impl FnOnce(&mut Box<SystemState>),
    cur: &mut Box<SystemState>,
    fire_scratch: &mut SystemState,
    enc_scratch: &mut Vec<u8>,
    canon_scratch: &mut Vec<u8>,
    steal_cap: usize,
    spare: &mut Vec<Box<SystemState>>,
    chunk: &mut ExpandedChunk,
) {
    let items_mark = chunk.items.len();
    let buf_mark = chunk.buf.len();
    let decoded_mark = chunk.decoded.len();
    let steal_cap = if reducer.is_some() { 0 } else { steal_cap };
    let expanded = catch_unwind(AssertUnwindSafe(|| {
        decode(cur);
        if prune.is_some_and(|prune| prune(&*cur)) {
            return;
        }
        match reducer.and_then(|r| r.ample_step(rules, cur, fire_scratch)) {
            Some(rule) => {
                emit_succ(chunk, codec, reducer, enc_scratch, canon_scratch, rule, fire_scratch);
            }
            None if peer_variants => {
                rules.for_each_enabled_variants(cur, fire_scratch, |rule, succ| {
                    emit_succ(chunk, codec, reducer, enc_scratch, canon_scratch, rule, succ);
                });
            }
            None => rules.for_each_enabled_mut(cur, fire_scratch, |rule, succ| {
                emit_succ(chunk, codec, reducer, enc_scratch, canon_scratch, rule, succ);
                // Steals form a strict prefix of `items`: once one is
                // skipped, `decoded` falls behind `items` and the gate
                // stays shut for the rest of the chunk.
                let i = chunk.items.len() - 1;
                if i < steal_cap && chunk.decoded.len() == i {
                    let mut slot = spare.pop().unwrap_or_else(|| Box::new(codec.blank()));
                    std::mem::swap(&mut *slot, succ);
                    chunk.decoded.push(slot);
                }
            }),
        }
    }));
    let outcome = match expanded {
        // `cur` still holds the parent (firing never mutates the source
        // state), so a terminal parent's quiescence is decided here.
        Ok(()) => match u32::try_from(chunk.items.len() - items_mark).unwrap_or(u32::MAX - 1) {
            0 => Outcome::Terminal { quiescent: cur.is_quiescent() },
            emitted => Outcome::Succs(emitted),
        },
        Err(payload) => {
            spare.extend(chunk.decoded.drain(decoded_mark..));
            chunk.items.truncate(items_mark);
            chunk.buf.truncate(buf_mark);
            **cur = codec.blank();
            *fire_scratch = codec.blank();
            *canon_scratch = Vec::new();
            Outcome::Poisoned(panic_message(payload.as_ref()))
        }
    };
    chunk.parents.push((parent, outcome));
}

/// The report's reduction block: the reducer's counters plus the
/// store's Σ orbit sizes.
fn reduction_summary(r: &dyn Reducer, orbit_states: u64) -> ReductionSummary {
    let stats = r.stats();
    ReductionSummary {
        description: r.describe(),
        group_order: stats.group_order,
        orbit_canonicalized: stats.orbit_canonicalized,
        value_canonicalized: stats.value_canonicalized,
        data_symmetry: stats.data_symmetry,
        ample_local: stats.ample_local,
        ample_diamond: stats.ample_diamond,
        ample_host_drain: stats.ample_host_drain,
        por: stats.por,
        canon: stats.canon,
        orbit_states,
    }
}

/// The flight-event rung code of a degradation-ladder action (see
/// [`FlightKind::Degradation`]).
fn degradation_rung(action: DegradationAction) -> u64 {
    match action {
        DegradationAction::ShedBuffers { .. } => 0,
        DegradationAction::EmergencyCheckpoint => 1,
        DegradationAction::Truncate => 2,
    }
}

/// The end-of-run roll-up handed to [`cxl_telemetry::Recorder::finish`]:
/// a mirror of the final report's headline numbers.
fn run_summary(report: &Report, phases: PhaseNanos) -> RunSummary {
    RunSummary {
        states: report.states,
        transitions: report.transitions,
        depth: report.depth,
        violations: report.violations.len(),
        deadlocks: report.deadlocks.len(),
        quarantined: report.quarantined.len(),
        truncated: report.truncated,
        clean: report.clean(),
        elapsed: report.elapsed,
        footprint: report.memory_bytes,
        phases,
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Build the quarantine record for a poison state: its packed bytes plus
/// a decoded dump (itself guarded — if decoding is what panicked, the
/// dump degrades to a placeholder instead of re-panicking).
fn quarantine_of(state: usize, store: &impl StateStore, message: String) -> Quarantine {
    let dump = catch_unwind(AssertUnwindSafe(|| store.decode(state).to_string()))
        .unwrap_or_else(|_| "<undecodable>".to_string());
    let mut packed = Vec::new();
    store.append_full_bytes(state, &mut packed);
    Quarantine { state, packed, dump, message }
}

/// Rebuild the trace from the initial state to state `id` via parent
/// links, decoding each step's state from the packed store.
fn rebuild_trace(
    id: usize,
    store: &impl StateStore,
    parents: &[Option<(usize, RuleId)>],
) -> Trace {
    let mut rev = Vec::new();
    let mut cur = id;
    while let Some((parent, rule)) = parents[cur] {
        rev.push(Step { rule, state: store.decode(cur) });
        cur = parent;
    }
    rev.reverse();
    Trace { initial: store.decode(cur), steps: rev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::SwmrProperty;
    use cxl_core::instr::programs;
    use cxl_core::ProtocolConfig;

    fn checker(cfg: ProtocolConfig) -> ModelChecker {
        ModelChecker::new(Ruleset::new(cfg))
    }

    #[test]
    fn store_load_race_is_coherent_under_strict_config() {
        let mc = checker(ProtocolConfig::strict());
        let init = SystemState::initial(programs::store(42), programs::load());
        let report = mc.check(&init, &[&SwmrProperty]);
        assert!(report.clean(), "{report}");
        assert!(report.states > 20, "the race should produce real interleaving");
    }

    #[test]
    fn arena_decodes_back_to_real_states() {
        // The packed store is the canonical record: state 0 decodes to
        // the initial state, and every stored state decodes to something
        // the codec re-encodes to the same bytes.
        let mc = checker(ProtocolConfig::strict());
        let init = SystemState::initial(programs::store(42), programs::load());
        let exp = mc.explore(&init, &[]);
        assert_eq!(exp.state(0), init);
        for id in 0..exp.len() {
            let decoded = exp.state(id);
            assert_eq!(
                exp.arena.codec().encode(&decoded),
                exp.arena.bytes_of(id),
                "state {id} did not round-trip"
            );
        }
        assert!(exp.bytes_per_state() > 0.0);
        assert!(exp.report.memory_bytes >= exp.arena.byte_len());
    }

    #[test]
    fn symmetry_reduction_collapses_a_symmetric_two_device_space() {
        // Identical programs on both devices: the detected group is S_2,
        // and on two devices the equivariant relation coincides with the
        // determinised one — so Σ orbit sizes over the reduced arena must
        // equal the unreduced state count exactly.
        use cxl_reduce::{CanonMode, PorMode, Reduction, ReductionConfig};
        let init = SystemState::initial(programs::store(7), programs::store(7));
        let unreduced = checker(ProtocolConfig::strict()).explore(&init, &[&SwmrProperty]);
        assert!(unreduced.report.clean());

        let rules = Ruleset::new(ProtocolConfig::strict());
        // Device symmetry alone, so the Σ-orbit accounting below is exact.
        let red = Arc::new(Reduction::new(
            &rules,
            &init,
            ReductionConfig { symmetry: true, data_symmetry: false, por: PorMode::Off, canon: CanonMode::Auto },
        ));
        let opts = CheckOptions { reduction: Some(red), ..CheckOptions::default() };
        let reduced = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[&SwmrProperty]);
        assert!(reduced.report.clean());
        assert!(
            reduced.report.states < unreduced.report.states,
            "symmetric space must shrink ({} vs {})",
            reduced.report.states,
            unreduced.report.states
        );
        let summary = reduced.report.reduction.as_ref().expect("reduction stats recorded");
        assert_eq!(summary.group_order, 2);
        assert_eq!(
            summary.orbit_states, unreduced.report.states as u64,
            "orbit sizes must account for the whole unreduced space"
        );
        assert!(summary.orbit_canonicalized > 0);
        assert!(summary.effective_factor(reduced.report.states) > 1.0);
    }

    #[test]
    fn por_only_reduction_prunes_evict_interleavings() {
        use cxl_reduce::{CanonMode, PorMode, Reduction, ReductionConfig};
        // Evicts on invalid lines are safe-local: with POR on, their
        // interleavings with the other device's store collapse, yet the
        // terminal verdict is untouched.
        let init = SystemState::initial(programs::evicts(2), programs::store(3));
        let unreduced = checker(ProtocolConfig::strict()).explore(&init, &[&SwmrProperty]);
        let rules = Ruleset::new(ProtocolConfig::strict());
        let red = Arc::new(Reduction::new(
            &rules,
            &init,
            ReductionConfig { symmetry: false, data_symmetry: false, por: PorMode::On, canon: CanonMode::Auto },
        ));
        let opts = CheckOptions { reduction: Some(red), ..CheckOptions::default() };
        let reduced = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[&SwmrProperty]);
        assert!(unreduced.report.clean() && reduced.report.clean());
        assert!(
            reduced.report.states < unreduced.report.states,
            "ample evicts must prune interleavings ({} vs {})",
            reduced.report.states,
            unreduced.report.states
        );
        let summary = reduced.report.reduction.as_ref().expect("stats recorded");
        assert!(summary.ample_steps() > 0);
        assert!(summary.ample_local > 0);
        assert_eq!(summary.ample_diamond, 0, "the conservative tier never collapses diamonds");
        assert_eq!(summary.group_order, 1);
        assert_eq!(summary.orbit_states, reduced.report.states as u64, "no symmetry in play");
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn prune_and_reduction_refuse_to_combine() {
        use cxl_reduce::{Reduction, ReductionConfig};
        let init = SystemState::initial(programs::load(), programs::load());
        let rules = Ruleset::new(ProtocolConfig::strict());
        let red = Arc::new(Reduction::new(&rules, &init, ReductionConfig::default()));
        let opts = CheckOptions {
            prune: Some(Arc::new(|_: &SystemState| false) as Prune),
            reduction: Some(red),
            ..CheckOptions::default()
        };
        let _ = ModelChecker::with_options(Ruleset::new(ProtocolConfig::strict()), opts)
            .explore(&init, &[]);
    }
}
