//! # cxl-mc — explicit-state model checking for the CXL.cache model
//!
//! The paper validates its Isabelle model by bounded exploration (the
//! `value` command with manual pruning, §5) and by a mechanised inductive
//! proof (§6). This crate is the exploration substrate of the Rust
//! reproduction: a breadth-first explicit-state model checker over the
//! `cxl-core` transition system with
//!
//! - hashed state deduplication and parent links for counterexample
//!   traces (the raw material of the paper's Tables 1–3);
//! - pluggable safety [`Property`]s — [`SwmrProperty`] (Definition 6.1),
//!   [`InvariantProperty`] (the §6 conjunct invariant), and ad-hoc
//!   closures;
//! - deadlock (non-quiescent terminal state) detection;
//! - optional pruning predicates, reproducing the paper's guided-search
//!   workflow;
//! - one exploration driver for every thread and shard count
//!   ([`CheckOptions::shards`]): the fingerprint space is partitioned
//!   into shards, each owning a private dedup index and arena segment,
//!   every successor deduped by the shard [`cxl_core::shard_of`] its
//!   fingerprint names — no shared visited set, no locks or atomics on
//!   dedup, and bit-identical results at any shard and thread count
//!   unless a [`CheckOptions::mem_budget`] binds (the footprint the
//!   degradation ladder reads depends on both). One shard and one
//!   thread is the sequential search; with more threads a wide level's
//!   expansion, dedup and property check each run on scoped workers
//!   that exist only for that phase ([`run_phase`]), expansion and
//!   check jobs decoding straight from the shared store, and a dedup
//!   job borrowing its shard as `&mut` and reading the level's expanded
//!   successors in place;
//! - a decoded-frontier ring ([`CheckOptions::frontier_ring`]) that
//!   keeps the current BFS level decoded, trading bounded memory for
//!   skipped per-expansion decodes;
//! - a resilience layer for long campaigns: periodic atomic
//!   [`Checkpoint`]s with exact resume ([`ModelChecker::explore_resumed`]),
//!   panic-isolated expansion that quarantines poison states instead of
//!   crashing (any other panic — a [`Property`]'s, a dedup probe's, the
//!   driver's — ends [`ModelChecker::explore`] with that panic at every
//!   thread count), a wall-clock [`CheckOptions::time_budget`] watchdog,
//!   and a
//!   graceful-degradation ladder under [`CheckOptions::mem_budget`]
//!   pressure (shed → emergency checkpoint → truncate, every step
//!   recorded in [`Report::sheds`]);
//! - a telemetry tap ([`CheckOptions::telemetry`]): per-BFS-level metrics
//!   and a bounded flight recorder ([`FlightRing`]) computed only at
//!   level-commit barriers — zero cost and bit-identical results when no
//!   [`Recorder`] is attached. The flight ring rides inside checkpoints,
//!   so resumed runs carry their pre-kill event history.
//!
//! For bounded device programs the model is finite-state, so exploration
//! here is *exhaustive* — every reachable state is checked, which is the
//! reproduction's substitute for the theorem-prover proof (see
//! `DESIGN.md` §4).
//!
//! ## Example: the headline verification
//!
//! ```
//! use cxl_core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
//! use cxl_core::instr::programs;
//! use cxl_mc::{ModelChecker, SwmrProperty};
//!
//! let init = SystemState::initial(programs::store(42), programs::load());
//!
//! // The faithful model is coherent…
//! let strict = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
//! assert!(strict.check(&init, &[&SwmrProperty]).clean());
//!
//! // …and relaxing Snoop-pushes-GO breaks SWMR (paper Table 3).
//! let relaxed = ModelChecker::new(Ruleset::new(ProtocolConfig::relaxed(
//!     Relaxation::SnoopPushesGo,
//! )));
//! assert!(!relaxed.check(&init, &[&SwmrProperty]).clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checker;
mod checkpoint;
mod oracle;
mod property;
mod report;

pub use checker::{
    run_phase, CheckOptions, Exploration, ModelChecker, Prune, DEFAULT_FRONTIER_RING,
    DEFAULT_MEM_BUDGET, DEFAULT_SPILL_BUDGET, NOT_EXPANDED,
};
pub use checkpoint::{
    checkpoint_path, options_fingerprint, Checkpoint, CheckpointError, CheckpointPolicy,
    CHECKPOINT_FILE,
};
pub use cxl_reduce::{
    CanonMode, DataSymmetry, PorMode, Reducer, Reduction, ReductionConfig, ReductionStats,
    BRUTE_ARRANGEMENT_CAP,
};
pub use cxl_telemetry::{
    FlightEvent, FlightKind, FlightRing, LevelRecord, MetricsRecorder, NoopRecorder, PhaseNanos,
    ProgressMode, Recorder, ReductionDelta, RunSummary, ShardLevelStats,
    DEFAULT_FLIGHT_CAPACITY, METRICS_SCHEMA_VERSION,
};
pub use property::{
    boolean_property, FnProperty, InvariantProperty, Property, PropertyOutcome, SwmrProperty,
};
pub use report::{
    Deadlock, DegradationAction, DegradationStep, Quarantine, ReductionSummary, Report, Step,
    Trace, Violation,
};
