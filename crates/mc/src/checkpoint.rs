//! Checkpoint/resume for long explorations.
//!
//! A verification campaign over the paper's CXL.cache model at N ≥ 3 can
//! run for hours; a killed process used to throw the whole search away.
//! This module persists the checker's complete mid-run state — the packed
//! [`StateArena`], the dedup fingerprints, parent links, successor
//! counts, the BFS frontier, partial report statistics, and the
//! reduction-engine counters — as a single versioned, checksummed file,
//! written atomically (write-then-rename) so a crash mid-write can never
//! clobber the previous good checkpoint.
//!
//! ## Resume semantics
//!
//! Checkpoints are written at **BFS level boundaries**, where the
//! checker's state is exactly "levels `0..depth` fully expanded, frontier
//! = level `depth`". Resuming from such a boundary re-enters the search
//! loop with identical algorithm state, so a resumed run's arena,
//! verdict, and counterexample traces are byte-identical to an
//! uninterrupted run — the property the crash-recovery tests pin.
//!
//! A checkpoint also records whether it *is* such a boundary
//! ([`Checkpoint::resumable`]): stops that land mid-level (`max_states`,
//! the memory budget's hard rung, a violation cap) write a final
//! non-resumable checkpoint whose report can still be reconstituted
//! verbatim ([`crate::ModelChecker::explore_resumed`] then replays the
//! recorded verdict instead of exploring).
//!
//! ## What "matching options" means
//!
//! Resume refuses a checkpoint whose [`options_fingerprint`] differs:
//! the topology, protocol configuration, initial state, and reduction
//! setup must match, because they define the transition system being
//! explored. Resource budgets (`max_states`, `max_depth`, `mem_budget`,
//! `time_budget`) and `threads` are deliberately *excluded* — raising a
//! budget between sessions is the whole point of checkpointed campaigns,
//! and the deterministic merge makes thread count invisible to results.

use crate::checker::StateStore;
use crate::report::{
    Deadlock, DegradationAction, DegradationStep, Quarantine, Report, Step, Trace, Violation,
};
use cxl_core::codec::wire::{put_bytes, put_varint, WireReader};
use cxl_core::{CodecError, RuleId, Ruleset, StateArena, StateCodec};
use cxl_reduce::ReductionStats;
use cxl_telemetry::{FlightEvent, FlightKind};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File-name of the rolling checkpoint inside a checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.cxlckpt";

/// Magic prefix of every checkpoint file (includes the major format
/// generation; [`FORMAT_VERSION`] tracks compatible revisions).
const MAGIC: &[u8; 8] = b"CXLCKPT1";

/// Format version written after the magic, and the only one read.
/// Version 2 appended the flight-recorder event ring after the
/// degradation-ladder section; version-1 files are refused.
const FORMAT_VERSION: u64 = 2;

/// The rolling checkpoint path inside `dir`.
#[must_use]
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CHECKPOINT_FILE)
}

/// Where and how often the checker checkpoints
/// (see [`crate::CheckOptions::checkpoint`]).
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory holding the rolling [`CHECKPOINT_FILE`] (created on the
    /// first write).
    pub dir: PathBuf,
    /// Minimum wall-clock spacing between periodic checkpoints; the
    /// checker writes at the first BFS level boundary after each interval
    /// elapses. [`Duration::ZERO`] checkpoints at *every* boundary —
    /// deterministic, which the crash-recovery tests and kill/resume
    /// smoke runs rely on.
    pub every: Duration,
}

impl CheckpointPolicy {
    /// Default spacing between periodic checkpoints: long enough that
    /// serialization overhead stays negligible against exploration,
    /// short enough that a killed campaign loses at most a minute.
    pub const DEFAULT_EVERY: Duration = Duration::from_secs(60);

    /// A policy writing to `dir` at the default interval.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { dir: dir.into(), every: Self::DEFAULT_EVERY }
    }
}

/// Why a checkpoint could not be written, read, or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while writing or reading.
    Io(std::io::Error),
    /// The file is not a valid checkpoint: bad magic, failed checksum,
    /// truncation, or internally inconsistent content. A corrupted file
    /// is always rejected here — never silently resumed.
    Corrupt(String),
    /// The checkpoint is valid but was written under different
    /// exploration semantics (topology, configuration, initial state, or
    /// reduction setup) than the resuming checker's.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// Fingerprint of everything that defines the *semantics* of an
/// exploration: device count, protocol configuration, the initial
/// state's packed encoding, and the reduction description. Two checkers
/// with equal fingerprints explore the same transition system and may
/// hand checkpoints to each other; resource budgets and thread counts
/// are excluded by design (see the module docs).
#[must_use]
pub fn options_fingerprint(
    rules: &Ruleset,
    reduction_describe: Option<&str>,
    initial_bytes: &[u8],
) -> u64 {
    let mut buf = Vec::with_capacity(initial_bytes.len() + 128);
    buf.extend_from_slice(b"cxl-mc-checkpoint-v1");
    buf.push(rules.topology().device_count() as u8);
    put_bytes(&mut buf, format!("{:?}", rules.config()).as_bytes());
    put_bytes(&mut buf, initial_bytes);
    put_bytes(&mut buf, reduction_describe.unwrap_or("none").as_bytes());
    StateCodec::fingerprint(&buf)
}

/// A borrowed view of the checker's mid-run state, serialized straight
/// from its store without copying it — the write path. The owned mirror
/// is [`Checkpoint`].
pub(crate) struct CheckpointSource<'a> {
    pub fingerprint: u64,
    pub resumable: bool,
    pub depth: usize,
    pub elapsed: Duration,
    pub transitions: usize,
    pub terminal_states: usize,
    pub truncated: bool,
    pub truncated_by_memory: bool,
    pub truncated_by_time: bool,
    /// Every state discovered so far, by global (discovery-order) id.
    pub store: &'a dyn StateStore,
    pub parents: &'a [Option<(usize, RuleId)>],
    pub succ_counts: &'a [u32],
    pub frontier: &'a [usize],
    pub firings: &'a [u64],
    pub violations: &'a [Violation],
    pub deadlocks: &'a [Deadlock],
    pub quarantined: &'a [Quarantine],
    pub sheds: &'a [DegradationStep],
    pub reduction_stats: Option<ReductionStats>,
    pub flight: &'a [FlightEvent],
}

impl CheckpointSource<'_> {
    /// Serialize to the versioned wire format, checksum included.
    pub(crate) fn encode(&self, rules: &Ruleset) -> Vec<u8> {
        let store = self.store;
        let codec = StateCodec::new(rules.topology());
        let n = store.len();
        let full = store.full_payload_bytes();
        let mut out = Vec::with_capacity(full + n * 16 + 256);
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, FORMAT_VERSION);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        let flags = u8::from(self.resumable)
            | u8::from(self.truncated) << 1
            | u8::from(self.truncated_by_memory) << 2
            | u8::from(self.truncated_by_time) << 3;
        out.push(flags);
        out.push(rules.topology().device_count() as u8);
        put_varint(&mut out, self.depth as u64);
        put_varint(&mut out, u64::try_from(self.elapsed.as_nanos()).unwrap_or(u64::MAX));
        put_varint(&mut out, self.transitions as u64);
        put_varint(&mut out, self.terminal_states as u64);

        // The packed store: payload, then per-state lengths (offset
        // deltas), then the dedup fingerprints — which are a pure
        // function of the payload but are stored anyway as an inner
        // integrity layer the reader cross-checks. States are
        // *materialized* to full encodings here, in global id order: a
        // delta-compressed, partially spilled, or sharded store
        // checkpoints as one plain arena of full bytes, so resume never
        // needs the writer's extent files, keyframe layout, or shard
        // count (and plain arenas serialize byte-identically to before
        // delta/spill existed). The payload is materialized straight into
        // `out` behind its length prefix — the store knows its full size
        // up front — so the write path never holds a second copy of it.
        put_varint(&mut out, n as u64);
        put_varint(&mut out, full as u64);
        let start = out.len();
        let mut lens = Vec::with_capacity(n);
        let mut fps = Vec::with_capacity(n);
        store.for_each_full(&mut |bytes| {
            out.extend_from_slice(bytes);
            put_varint(&mut lens, bytes.len() as u64);
            fps.push(StateCodec::fingerprint(bytes));
        });
        assert_eq!(out.len() - start, full, "the store's full payload size is exact");
        out.extend_from_slice(&lens);
        for fp in fps {
            out.extend_from_slice(&fp.to_le_bytes());
        }

        // Parent links (0 = root, else parent id + 1) and rules as dense
        // indices of the resuming rule set.
        for parent in self.parents {
            match parent {
                None => put_varint(&mut out, 0),
                Some((id, rule)) => {
                    put_varint(&mut out, *id as u64 + 1);
                    put_varint(&mut out, rules.dense_index(*rule) as u64);
                }
            }
        }
        for &c in self.succ_counts {
            put_varint(&mut out, u64::from(c));
        }
        put_varint(&mut out, self.frontier.len() as u64);
        for &id in self.frontier {
            put_varint(&mut out, id as u64);
        }
        put_varint(&mut out, self.firings.len() as u64);
        for &c in self.firings {
            put_varint(&mut out, c);
        }

        match self.reduction_stats {
            None => out.push(0),
            Some(stats) => {
                // Tag 2 carries the host-drain ample counter (tag 1,
                // which lacked it, is refused); the canon engine name and
                // group order are derived from config at resume time, so
                // they are deliberately not serialized.
                out.push(2);
                put_varint(&mut out, stats.orbit_canonicalized);
                put_varint(&mut out, stats.value_canonicalized);
                put_varint(&mut out, stats.ample_local);
                put_varint(&mut out, stats.ample_diamond);
                put_varint(&mut out, stats.ample_host_drain);
            }
        }

        let put_trace = |out: &mut Vec<u8>, trace: &Trace| {
            put_bytes(out, &codec.encode(&trace.initial));
            put_varint(out, trace.steps.len() as u64);
            for step in &trace.steps {
                put_varint(out, rules.dense_index(step.rule) as u64);
                put_bytes(out, &codec.encode(&step.state));
            }
        };
        put_varint(&mut out, self.violations.len() as u64);
        for v in self.violations {
            put_bytes(&mut out, v.property.as_bytes());
            put_bytes(&mut out, v.detail.as_bytes());
            put_trace(&mut out, &v.trace);
        }
        put_varint(&mut out, self.deadlocks.len() as u64);
        for d in self.deadlocks {
            put_trace(&mut out, &d.trace);
        }
        put_varint(&mut out, self.quarantined.len() as u64);
        for q in self.quarantined {
            put_varint(&mut out, q.state as u64);
            put_bytes(&mut out, q.message.as_bytes());
        }
        put_varint(&mut out, self.sheds.len() as u64);
        for shed in self.sheds {
            let (tag, reclaimed) = match shed.action {
                DegradationAction::ShedBuffers { reclaimed } => (0u8, reclaimed),
                DegradationAction::EmergencyCheckpoint => (1, 0),
                DegradationAction::Truncate => (2, 0),
            };
            out.push(tag);
            put_varint(&mut out, reclaimed as u64);
            put_varint(&mut out, shed.at_states as u64);
            put_varint(&mut out, shed.footprint as u64);
        }

        // The flight-recorder ring (format version 2): a resumed session
        // inherits the events of the one that died, pre-kill checkpoint
        // writes included (the write event is pushed before encoding).
        put_varint(&mut out, self.flight.len() as u64);
        for event in self.flight {
            put_varint(&mut out, event.seq);
            out.push(event.kind.tag());
            put_varint(&mut out, event.a);
            put_varint(&mut out, event.b);
            put_bytes(&mut out, event.detail.as_bytes());
        }

        let checksum = StateCodec::fingerprint(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Serialize and write to `dir`'s rolling checkpoint file, atomically:
    /// the bytes land in a temporary file, which is then renamed over
    /// [`CHECKPOINT_FILE`] — a process crash at any point leaves either
    /// the old or the new checkpoint intact, never a torn one. Nothing is
    /// fsynced (see the comment below): after a whole-machine crash the
    /// file may be stale or incomplete, and its checksum then makes the
    /// reader refuse it.
    pub(crate) fn write_atomic(
        &self,
        rules: &Ruleset,
        dir: &Path,
    ) -> Result<PathBuf, CheckpointError> {
        let bytes = self.encode(rules);
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".{CHECKPOINT_FILE}.tmp"));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        drop(file);
        let path = checkpoint_path(dir);
        // No fsync: the failure domain here is the *process* (kill,
        // panic, OOM), which the page cache survives; paying a forced
        // flush per snapshot would tax short campaigns double-digit
        // percentages. A whole-machine crash can at worst leave a stale
        // or partially-flushed file, and the trailing checksum makes
        // the reader refuse anything incomplete rather than misread it.
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// An exploration checkpoint, decoded and validated — everything needed
/// to continue (or reconstitute) the run via
/// [`crate::ModelChecker::explore_resumed`].
#[derive(Debug)]
pub struct Checkpoint {
    /// [`options_fingerprint`] of the writing checker; resume refuses a
    /// checker whose own fingerprint differs.
    pub fingerprint: u64,
    /// Was this written at a BFS level boundary (so the search can
    /// continue exactly)? False for final checkpoints of mid-level stops,
    /// whose report is reconstituted instead.
    pub resumable: bool,
    /// Fully expanded BFS depth.
    pub depth: usize,
    /// Wall-clock time accumulated by the interrupted session(s).
    pub elapsed: Duration,
    /// Transitions examined so far.
    pub transitions: usize,
    /// Terminal states found so far.
    pub terminal_states: usize,
    /// The writing run's truncation flags (meaningful for reconstitution).
    pub truncated: bool,
    /// Truncated by the memory budget?
    pub truncated_by_memory: bool,
    /// Truncated by the time budget?
    pub truncated_by_time: bool,
    /// The packed store of every state discovered so far.
    pub arena: StateArena,
    /// Dedup fingerprints, index-aligned with the arena (verified against
    /// recomputation at load).
    pub fps: Vec<u64>,
    /// Parent links for trace rebuilding.
    pub parents: Vec<Option<(usize, RuleId)>>,
    /// Per-state successor counts ([`crate::NOT_EXPANDED`] for frontier
    /// states).
    pub succ_counts: Vec<u32>,
    /// The BFS frontier (arena ids of level `depth`).
    pub frontier: Vec<usize>,
    /// Per-rule firing counters, dense-indexed like
    /// [`Ruleset::rule_ids`].
    pub firings: Vec<u64>,
    /// Violations found so far, traces fully decoded.
    pub violations: Vec<Violation>,
    /// Deadlocks found so far.
    pub deadlocks: Vec<Deadlock>,
    /// Quarantined poison states (packed bytes and dump rebuilt from the
    /// arena).
    pub quarantined: Vec<Quarantine>,
    /// Degradation-ladder history.
    pub sheds: Vec<DegradationStep>,
    /// Reduction-engine counters to restore via
    /// [`cxl_reduce::Reducer::restore_stats`].
    pub reduction_stats: Option<ReductionStats>,
    /// Flight-recorder events retained when the checkpoint was written,
    /// restored into the resuming run's ring so the campaign's event
    /// history survives the crash.
    pub flight: Vec<FlightEvent>,
}

impl Checkpoint {
    /// Decode and fully validate a checkpoint from `bytes`, under the
    /// resuming checker's `rules` (the topology must match; rule dense
    /// indices are resolved against this rule set).
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] for any malformed input — bad magic,
    /// failed checksum, truncation, undecodable states, inconsistent
    /// links; [`CheckpointError::Mismatch`] when the stored topology
    /// differs from `rules`.
    pub fn from_bytes(bytes: &[u8], rules: &Ruleset) -> Result<Self, CheckpointError> {
        let corrupt = |why: String| CheckpointError::Corrupt(why);
        if bytes.len() < MAGIC.len() + 8 {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored_sum = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if StateCodec::fingerprint(body) != stored_sum {
            return Err(corrupt("checksum failure (truncated or corrupted file)".into()));
        }
        let mut r = WireReader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(corrupt("bad magic (not a checkpoint file)".into()));
        }
        let version = r.varint()?;
        if version != FORMAT_VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let fingerprint = u64::from_le_bytes(r.take(8)?.try_into().expect("8-byte take"));
        let flags = r.byte()?;
        if flags & !0x0f != 0 {
            return Err(corrupt(format!("unknown flag bits {flags:#x}")));
        }
        let devices = r.byte()? as usize;
        if devices != rules.topology().device_count() {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for {devices} devices, checker runs {}",
                rules.topology().device_count()
            )));
        }
        let depth = usize_of(r.varint()?)?;
        let elapsed = Duration::from_nanos(r.varint()?);
        let transitions = usize_of(r.varint()?)?;
        let terminal_states = usize_of(r.varint()?)?;

        let n = r.len_prefix(2)?; // ≥ 1 payload byte + 1 length varint per state
        let payload = r.bytes()?.to_vec();
        let mut offsets = Vec::with_capacity(n);
        let mut at = 0usize;
        for i in 0..n {
            offsets.push(at);
            let len = usize_of(r.varint()?)?;
            if len == 0 {
                return Err(corrupt(format!("state {i} has zero length")));
            }
            at = at
                .checked_add(len)
                .ok_or_else(|| corrupt("state lengths overflow".into()))?;
        }
        if at != payload.len() {
            return Err(corrupt(format!(
                "state lengths sum to {at}, payload is {} bytes",
                payload.len()
            )));
        }
        let codec = StateCodec::new(rules.topology());
        let arena = StateArena::from_parts(codec, payload, offsets)?;
        let mut fps = Vec::with_capacity(n);
        for id in 0..n {
            let stored = u64::from_le_bytes(r.take(8)?.try_into().expect("8-byte take"));
            if stored != StateCodec::fingerprint(arena.bytes_of(id)) {
                return Err(corrupt(format!("state {id} fingerprint mismatch")));
            }
            fps.push(stored);
        }

        let rule_ids = rules.rule_ids();
        let rule_of = |idx: u64| -> Result<RuleId, CheckpointError> {
            rule_ids
                .get(usize_of(idx)?)
                .copied()
                .ok_or_else(|| corrupt(format!("rule index {idx} out of range")))
        };
        let mut parents = Vec::with_capacity(n);
        for id in 0..n {
            let tag = r.varint()?;
            if tag == 0 {
                parents.push(None);
            } else {
                let parent = usize_of(tag - 1)?;
                if parent >= id {
                    return Err(corrupt(format!("state {id} has parent {parent} (not prior)")));
                }
                parents.push(Some((parent, rule_of(r.varint()?)?)));
            }
        }
        let mut succ_counts = Vec::with_capacity(n);
        for _ in 0..n {
            let c = r.varint()?;
            succ_counts.push(
                u32::try_from(c).map_err(|_| corrupt(format!("successor count {c} overflows")))?,
            );
        }
        let frontier_len = r.len_prefix(1)?;
        let mut frontier = Vec::with_capacity(frontier_len);
        for _ in 0..frontier_len {
            let id = usize_of(r.varint()?)?;
            if id >= n {
                return Err(corrupt(format!("frontier id {id} out of range ({n} states)")));
            }
            frontier.push(id);
        }
        let firings_len = r.len_prefix(1)?;
        if firings_len != rule_ids.len() {
            return Err(corrupt(format!(
                "{firings_len} firing counters for a rule set of {}",
                rule_ids.len()
            )));
        }
        let mut firings = Vec::with_capacity(firings_len);
        for _ in 0..firings_len {
            firings.push(r.varint()?);
        }

        let reduction_stats = match r.byte()? {
            0 => None,
            2 => Some(ReductionStats {
                orbit_canonicalized: r.varint()?,
                value_canonicalized: r.varint()?,
                ample_local: r.varint()?,
                ample_diamond: r.varint()?,
                ample_host_drain: r.varint()?,
                ..ReductionStats::default()
            }),
            other => return Err(corrupt(format!("bad reduction tag {other}"))),
        };

        let codec = arena.codec();
        let read_trace = |r: &mut WireReader<'_>| -> Result<Trace, CheckpointError> {
            let initial = codec.decode(r.bytes()?)?;
            let steps_len = r.len_prefix(2)?;
            let mut steps = Vec::with_capacity(steps_len);
            for _ in 0..steps_len {
                let rule = rule_of(r.varint()?)?;
                steps.push(Step { rule, state: codec.decode(r.bytes()?)? });
            }
            Ok(Trace { initial, steps })
        };
        let violations_len = r.len_prefix(3)?;
        let mut violations = Vec::with_capacity(violations_len);
        for _ in 0..violations_len {
            let property = string_of(r.bytes()?)?;
            let detail = string_of(r.bytes()?)?;
            violations.push(Violation { property, detail, trace: read_trace(&mut r)? });
        }
        let deadlocks_len = r.len_prefix(2)?;
        let mut deadlocks = Vec::with_capacity(deadlocks_len);
        for _ in 0..deadlocks_len {
            deadlocks.push(Deadlock { trace: read_trace(&mut r)? });
        }
        let quarantined_len = r.len_prefix(2)?;
        let mut quarantined = Vec::with_capacity(quarantined_len);
        for _ in 0..quarantined_len {
            let state = usize_of(r.varint()?)?;
            if state >= n {
                return Err(corrupt(format!("quarantined id {state} out of range")));
            }
            let message = string_of(r.bytes()?)?;
            quarantined.push(Quarantine {
                state,
                packed: arena.bytes_of(state).to_vec(),
                dump: arena.decode(state).to_string(),
                message,
            });
        }
        let sheds_len = r.len_prefix(4)?;
        let mut sheds = Vec::with_capacity(sheds_len);
        for _ in 0..sheds_len {
            let tag = r.byte()?;
            let reclaimed = usize_of(r.varint()?)?;
            let action = match tag {
                0 => DegradationAction::ShedBuffers { reclaimed },
                1 => DegradationAction::EmergencyCheckpoint,
                2 => DegradationAction::Truncate,
                other => return Err(corrupt(format!("bad degradation tag {other}"))),
            };
            sheds.push(DegradationStep {
                action,
                at_states: usize_of(r.varint()?)?,
                footprint: usize_of(r.varint()?)?,
            });
        }
        let flight_len = r.len_prefix(4)?;
        let mut flight = Vec::with_capacity(flight_len);
        for _ in 0..flight_len {
            let seq = r.varint()?;
            let tag = r.byte()?;
            let kind = FlightKind::from_tag(tag)
                .ok_or_else(|| corrupt(format!("bad flight-event tag {tag}")))?;
            let a = r.varint()?;
            let b = r.varint()?;
            let detail = string_of(r.bytes()?)?;
            flight.push(FlightEvent { seq, kind, a, b, detail });
        }
        if !r.finished() {
            return Err(corrupt(format!("{} trailing bytes after checkpoint", r.remaining())));
        }

        Ok(Checkpoint {
            fingerprint,
            resumable: flags & 1 != 0,
            depth,
            elapsed,
            transitions,
            terminal_states,
            truncated: flags & 2 != 0,
            truncated_by_memory: flags & 4 != 0,
            truncated_by_time: flags & 8 != 0,
            arena,
            fps,
            parents,
            succ_counts,
            frontier,
            firings,
            violations,
            deadlocks,
            quarantined,
            sheds,
            reduction_stats,
            flight,
        })
    }

    /// Read and validate `dir`'s rolling checkpoint file.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] when the file cannot be read (e.g. no
    /// checkpoint was ever written), otherwise as [`Self::from_bytes`].
    pub fn read_dir(dir: &Path, rules: &Ruleset) -> Result<Self, CheckpointError> {
        Self::from_path(&checkpoint_path(dir), rules)
    }

    /// Read and validate a checkpoint file at `path`.
    ///
    /// # Errors
    /// As [`Self::read_dir`].
    pub fn from_path(path: &Path, rules: &Ruleset) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?, rules)
    }

    /// Re-serialize (the round-trip surface the proptests exercise).
    #[must_use]
    pub fn to_bytes(&self, rules: &Ruleset) -> Vec<u8> {
        CheckpointSource {
            fingerprint: self.fingerprint,
            resumable: self.resumable,
            depth: self.depth,
            elapsed: self.elapsed,
            transitions: self.transitions,
            terminal_states: self.terminal_states,
            truncated: self.truncated,
            truncated_by_memory: self.truncated_by_memory,
            truncated_by_time: self.truncated_by_time,
            store: &self.arena,
            parents: &self.parents,
            succ_counts: &self.succ_counts,
            frontier: &self.frontier,
            firings: &self.firings,
            violations: &self.violations,
            deadlocks: &self.deadlocks,
            quarantined: &self.quarantined,
            sheds: &self.sheds,
            reduction_stats: self.reduction_stats,
            flight: &self.flight,
        }
        .encode(rules)
    }

    /// Partial-report view of the checkpointed statistics (the seed the
    /// resuming run continues from, and the whole report when
    /// reconstituting a non-resumable checkpoint).
    #[must_use]
    pub fn partial_report(&self, rules: &Ruleset) -> Report {
        let mut report = Report {
            states: self.arena.len(),
            transitions: self.transitions,
            depth: self.depth,
            truncated: self.truncated,
            truncated_by_memory: self.truncated_by_memory,
            truncated_by_time: self.truncated_by_time,
            violations: self.violations.clone(),
            deadlocks: self.deadlocks.clone(),
            terminal_states: self.terminal_states,
            elapsed: self.elapsed,
            memory_bytes: self.arena.approx_heap_bytes(),
            quarantined: self.quarantined.clone(),
            sheds: self.sheds.clone(),
            resumed_from: Some(self.arena.len()),
            ..Report::default()
        };
        report.rule_firings = rules
            .rule_ids()
            .iter()
            .zip(&self.firings)
            .filter(|(_, &c)| c > 0)
            .map(|(&id, &c)| (id, c))
            .collect();
        report
    }
}

fn usize_of(v: u64) -> Result<usize, CheckpointError> {
    usize::try_from(v).map_err(|_| CheckpointError::Corrupt(format!("value {v} overflows usize")))
}

fn string_of(bytes: &[u8]) -> Result<String, CheckpointError> {
    String::from_utf8(bytes.to_vec())
        .map_err(|e| CheckpointError::Corrupt(format!("invalid UTF-8 string: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::ProtocolConfig;

    #[test]
    fn rejects_garbage_and_short_files() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        for bytes in [&b""[..], &b"short"[..], &[0u8; 64][..]] {
            let err = Checkpoint::from_bytes(bytes, &rules).unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn fingerprint_separates_configurations() {
        use cxl_core::{Relaxation, SystemState};
        let strict = Ruleset::new(ProtocolConfig::strict());
        let relaxed = Ruleset::new(ProtocolConfig::relaxed(Relaxation::SnoopPushesGo));
        let init = SystemState::initial(vec![], vec![]);
        let bytes = StateCodec::new(strict.topology()).encode(&init);
        let a = options_fingerprint(&strict, None, &bytes);
        let b = options_fingerprint(&relaxed, None, &bytes);
        let c = options_fingerprint(&strict, Some("symmetry(|G| = 2)"), &bytes);
        assert_ne!(a, b, "configuration must be covered");
        assert_ne!(a, c, "reduction setup must be covered");
    }
}
