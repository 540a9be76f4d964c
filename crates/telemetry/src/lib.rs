//! Run telemetry for long verification campaigns.
//!
//! PRs 6–8 made multi-hour explorations *survivable* (checkpoint/resume,
//! degradation ladder, spill-to-disk); this crate makes them *legible*
//! while they run. Three pieces:
//!
//! 1. **[`Recorder`]** — the observation interface the checker drives.
//!    When [`crate::CheckOptions::telemetry`][opt] is `None` (the
//!    default) nothing is constructed, nothing is timed, and the hot
//!    path is byte-identical to a build without this crate; when a
//!    recorder is installed, the checker hands it one [`LevelRecord`]
//!    per committed BFS level plus a final [`RunSummary`]. Every number
//!    in a record is computed *at the level-commit barrier* from
//!    counters the checker already maintains (store length, transition
//!    totals, per-shard segment lengths, reduction-engine counters), so
//!    the per-state merge/expand paths carry no recorder code, no
//!    atomics, and no histogram updates — the same single-owner
//!    discipline the sharded driver uses for dedup.
//! 2. **[`FlightRing`]** — a bounded ring of the last K structured
//!    [`FlightEvent`]s (level commits, degradation rungs, checkpoint
//!    writes, spill seals/faults, quarantines, violations). The checker
//!    maintains it unconditionally (a handful of pushes per level), dumps
//!    it into the final [`Report`][rep], and persists it inside
//!    checkpoints so a resumed run carries the history of the session
//!    that died.
//! 3. **Sinks** — [`MetricsRecorder`] renders records as a live
//!    single-line stderr heartbeat (TTY-aware) and/or a schema-versioned
//!    JSONL stream ([`METRICS_SCHEMA_VERSION`]): one self-describing
//!    record per level, `kind:"event"` records for irregular flight
//!    events (the per-level `level_commit` pulse stays in the ring —
//!    the level record already is that pulse in the stream), and a
//!    final `kind:"summary"` record mirroring the exit report.
//!
//! [opt]: ../cxl_mc/struct.CheckOptions.html#structfield.telemetry
//! [rep]: ../cxl_mc/struct.Report.html

mod flight;
mod sinks;

pub use flight::{FlightEvent, FlightKind, FlightRing, DEFAULT_FLIGHT_CAPACITY};
pub use sinks::{MetricsRecorder, ProgressMode};

use std::time::{Duration, Instant};

/// Version of the metrics JSONL schema ([`MetricsRecorder`]'s `--metrics-out`
/// stream). Same policy as the bench snapshot's: additive field growth keeps
/// the version; renaming/removing a field or changing a meaning bumps it, and
/// every record carries it so downstream tooling can refuse what it does not
/// understand.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// The exploration phases whose wall time the profile accounts. Coarse by
/// design: each is timed as a per-level (or per-parent, for the fused
/// sequential loop) block, never per state, so the recorder-on overhead
/// stays in clock-read noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Frontier expansion: decode, prune, reduction canonicalization,
    /// rule firing, successor encoding.
    Expand,
    /// Dedup + store: fingerprint probe, byte-equality fallback, arena
    /// append, routed commit.
    Merge,
    /// Property checks over freshly stored states.
    Check,
    /// Cold-extent sealing and fault-ins of the beyond-RAM store.
    Spill,
    /// Checkpoint serialization and atomic writes.
    Checkpoint,
}

/// Per-phase wall-time accumulation, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Time in [`Phase::Expand`].
    pub expand: u64,
    /// Time in [`Phase::Merge`].
    pub merge: u64,
    /// Time in [`Phase::Check`].
    pub check: u64,
    /// Time in [`Phase::Spill`].
    pub spill: u64,
    /// Time in [`Phase::Checkpoint`].
    pub checkpoint: u64,
}

impl PhaseNanos {
    /// Total accounted nanoseconds across all phases.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.expand + self.merge + self.check + self.spill + self.checkpoint
    }

    /// Add another accumulation into this one (level → run roll-up).
    pub fn accumulate(&mut self, other: &PhaseNanos) {
        self.expand += other.expand;
        self.merge += other.merge;
        self.check += other.check;
        self.spill += other.spill;
        self.checkpoint += other.checkpoint;
    }

    fn slot(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Expand => &mut self.expand,
            Phase::Merge => &mut self.merge,
            Phase::Check => &mut self.check,
            Phase::Spill => &mut self.spill,
            Phase::Checkpoint => &mut self.checkpoint,
        }
    }
}

/// A per-level phase stopwatch that compiles to two branch tests when the
/// recorder is off: [`Self::tick`] returns `None` and [`Self::tock`] does
/// nothing, so disabled runs never read the clock.
#[derive(Debug)]
pub struct PhaseClock {
    enabled: bool,
    nanos: PhaseNanos,
}

impl PhaseClock {
    /// A clock that reads the time only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        PhaseClock { enabled, nanos: PhaseNanos::default() }
    }

    /// Is this clock live (i.e. is a recorder installed)?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start timing a block; `None` when disabled.
    #[must_use]
    pub fn tick(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Charge the block started by `tick` to `phase`.
    pub fn tock(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            *self.nanos.slot(phase) += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }

    /// Take this level's accumulation, resetting the clock for the next.
    pub fn drain(&mut self) -> PhaseNanos {
        std::mem::take(&mut self.nanos)
    }
}

/// Per-shard observations gathered at a level's commit barrier
/// (sharded driver only).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardLevelStats {
    /// Successors each shard's owner deduped this level — the per-shard
    /// queue depth behind the commit barrier. Empty on levels that merge
    /// serially on the driver (the fused inline arm, and pooled levels
    /// that might truncate).
    pub queue_depths: Vec<u32>,
    /// `(max − mean) / mean` over per-shard *stored-state* counts, in
    /// percent, after the commit.
    pub imbalance_pct: f64,
}

/// Per-level deltas of the reduction-engine counters
/// ([`cxl-reduce`'s `ReductionStats`], differenced at level boundaries).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionDelta {
    /// Successor encodings orbit-canonicalized (device symmetry) this level.
    pub orbit_canonicalized: u64,
    /// Successor encodings value-renumbered (data symmetry) this level.
    pub value_canonicalized: u64,
    /// Singleton-ample expansions (all POR tiers) this level.
    pub ample_steps: u64,
    /// Which canonicalization engine ran (`"off"`, `"refine"`, `"brute"`,
    /// or `"capped"`). Constant across levels of one run; carried per
    /// record so each JSONL line is self-describing.
    pub canon: &'static str,
}

/// Everything the checker observed about one committed BFS level. All
/// counts are deltas over the level unless stated otherwise.
#[derive(Clone, Debug)]
pub struct LevelRecord {
    /// The BFS depth just committed (level `depth`'s frontier was
    /// expanded; the record describes that expansion).
    pub depth: usize,
    /// Fresh states stored this level.
    pub stored: usize,
    /// Cumulative stored states after the commit.
    pub states_total: usize,
    /// Successor transitions examined this level.
    pub transitions: usize,
    /// Transitions whose successor was already stored (dedup hits):
    /// `transitions − stored` less any successors dropped by truncation.
    pub duplicates: usize,
    /// Size of the *next* frontier committed by this level.
    pub frontier: usize,
    /// Tracked search footprint (arena + index + queues) in bytes after
    /// the commit — cumulative, not a delta.
    pub footprint: usize,
    /// Wall time of the level.
    pub elapsed: Duration,
    /// Where that wall time went.
    pub phases: PhaseNanos,
    /// Degradation-ladder rungs taken during the level.
    pub sheds: usize,
    /// Cold extents sealed during the level.
    pub spill_seals: u64,
    /// Extent fault-ins served during the level.
    pub spill_faults: u64,
    /// States quarantined during the level.
    pub quarantines: usize,
    /// Per-engine reduction work this level (when a reducer is installed).
    pub reduction: Option<ReductionDelta>,
    /// Per-shard stats (when the sharded driver is running).
    pub shards: Option<ShardLevelStats>,
}

impl LevelRecord {
    /// Fraction of this level's examined transitions that hit the dedup
    /// table (0.0 when the level examined none).
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.transitions as f64
        }
    }

    /// Fresh states stored per second of level wall time.
    #[must_use]
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.stored as f64 / secs
        } else {
            0.0
        }
    }
}

/// End-of-run roll-up handed to [`Recorder::finish`] — the numbers the
/// final `Report` prints, so a metrics stream is self-contained.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Distinct states stored.
    pub states: usize,
    /// Transitions examined.
    pub transitions: usize,
    /// Deepest fully expanded BFS level.
    pub depth: usize,
    /// Property violations found.
    pub violations: usize,
    /// Deadlocks found.
    pub deadlocks: usize,
    /// States quarantined after worker panics.
    pub quarantined: usize,
    /// Did the search truncate before exhausting the space?
    pub truncated: bool,
    /// Clean verdict (no violations, no deadlocks)?
    pub clean: bool,
    /// Total wall time (across sessions, for resumed runs).
    pub elapsed: Duration,
    /// Final tracked search footprint in bytes.
    pub footprint: usize,
    /// Run-total phase profile.
    pub phases: PhaseNanos,
}

impl RunSummary {
    /// Mean states per second over the whole run.
    #[must_use]
    pub fn mean_states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }
}

/// The observation interface the checker drives. All methods are called
/// from the driver thread at level-commit barriers (never from workers,
/// never per state); implementations may lock freely.
pub trait Recorder: Send + Sync {
    /// One committed BFS level.
    fn record_level(&self, record: &LevelRecord);
    /// A structured event, as it enters the flight ring.
    fn record_event(&self, event: &FlightEvent);
    /// The run is over; `summary` mirrors the final report.
    fn finish(&self, summary: &RunSummary);
}

/// The no-op recorder: every hook is empty. Installing it is equivalent
/// to installing nothing — it exists so call sites can hold a
/// `&dyn Recorder` unconditionally.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record_level(&self, _record: &LevelRecord) {}
    fn record_event(&self, _event: &FlightEvent) {}
    fn finish(&self, _summary: &RunSummary) {}
}

/// The static no-op default.
pub static NOOP: NoopRecorder = NoopRecorder;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_clock_disabled_reads_nothing() {
        let mut clock = PhaseClock::new(false);
        let t = clock.tick();
        assert!(t.is_none());
        clock.tock(Phase::Expand, t);
        assert_eq!(clock.drain(), PhaseNanos::default());
    }

    #[test]
    fn phase_clock_enabled_accumulates_and_drains() {
        let mut clock = PhaseClock::new(true);
        let t = clock.tick();
        assert!(t.is_some());
        clock.tock(Phase::Merge, t);
        let level = clock.drain();
        assert!(level.merge > 0 || level.total() == level.merge);
        assert_eq!(clock.drain(), PhaseNanos::default(), "drain resets");
        let mut run = PhaseNanos::default();
        run.accumulate(&level);
        assert_eq!(run.merge, level.merge);
    }

    #[test]
    fn level_record_derived_rates() {
        let rec = LevelRecord {
            depth: 3,
            stored: 25,
            states_total: 100,
            transitions: 100,
            duplicates: 75,
            frontier: 25,
            footprint: 4096,
            elapsed: Duration::from_millis(500),
            phases: PhaseNanos::default(),
            sheds: 0,
            spill_seals: 0,
            spill_faults: 0,
            quarantines: 0,
            reduction: None,
            shards: None,
        };
        assert!((rec.dedup_hit_rate() - 0.75).abs() < 1e-12);
        assert!((rec.states_per_sec() - 50.0).abs() < 1e-9);
    }
}
