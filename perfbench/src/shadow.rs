//! The traced shadow driver: a breadth-first search assembled in this
//! benchmark from the model's public calls — `Ruleset::for_each_enabled*`,
//! `StateCodec::encode_into`/`fingerprint`, `StateArena::decode_into`/
//! `push_encoded_delta`/`spill_cold`, `FpIndex::insert`,
//! `Property::check`, `Reducer::canonicalize`/`ample_step` and
//! `Checkpoint::to_bytes` — in the order the sequential driver of
//! `cxl_mc::ModelChecker` makes them, so that it stores the same states
//! and examines the same transitions. Nothing inside the model is
//! instrumented: every span is opened and closed here, around a call.
//!
//! Clock reads are kept cheap by a deterministic sampling stride: every
//! `stride`-th expanded parent is timed through all of its work (decode,
//! rule firing, encode, canonicalization, fingerprint and dedup probe,
//! store), and every `stride`-th stored state through its property
//! check. Each operation also keeps an exact call count, and a level's
//! busy time is its sampled mean cost per call times its call count.
//! The measured cost of one clock read is subtracted from every span.
//! Per-level boundary work (spill, checkpoint, the final orbit pass) is
//! rare and always timed.

use cxl_core::{heap_state_bytes, FpIndex, RuleId, StateArena, StateCodec, SystemState};
use cxl_mc::{
    checkpoint_path, options_fingerprint, Checkpoint, DegradationAction, DegradationStep,
    ModelChecker, Property, PropertyOutcome, Reducer, CHECKPOINT_FILE, DEFAULT_SPILL_BUDGET,
    NOT_EXPANDED,
};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One operation the shadow driver times, named after the public call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Ruleset::for_each_enabled_mut` / `for_each_enabled_variants`,
    /// self time (the successor callbacks excluded).
    Rules,
    /// `StateArena::decode_into` (frontier) and `StateArena::decode`
    /// (property check).
    Decode,
    /// `StateCodec::encode_into`.
    Encode,
    /// `StateCodec::fingerprint` plus `FpIndex::insert`.
    Dedup,
    /// `StateArena::push_encoded_delta`.
    Store,
    /// `StateArena::spill_cold`.
    Spill,
    /// `Property::check` over SWMR and the invariant.
    Check,
    /// `Reducer::canonicalize`.
    Canon,
    /// `Reducer::ample_step`.
    Ample,
    /// `Reducer::orbit_size` over the stored arena at the end.
    Orbit,
    /// `Checkpoint::to_bytes`.
    CkptEncode,
    /// The checkpoint's atomic file write.
    CkptWrite,
}

pub const OPS: usize = 12;

impl Op {
    pub const ALL: [Op; OPS] = [
        Op::Rules,
        Op::Decode,
        Op::Encode,
        Op::Dedup,
        Op::Store,
        Op::Spill,
        Op::Check,
        Op::Canon,
        Op::Ample,
        Op::Orbit,
        Op::CkptEncode,
        Op::CkptWrite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Rules => "for_each_enabled",
            Op::Decode => "decode",
            Op::Encode => "encode",
            Op::Dedup => "fingerprint_insert",
            Op::Store => "push",
            Op::Spill => "spill_cold",
            Op::Check => "property_check",
            Op::Canon => "canonicalize",
            Op::Ample => "ample_step",
            Op::Orbit => "orbit_size",
            Op::CkptEncode => "to_bytes",
            Op::CkptWrite => "write",
        }
    }

    /// The model layer (module) the call belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Op::Rules => Layer::Rules,
            Op::Decode | Op::Encode => Layer::Codec,
            Op::Dedup => Layer::Dedup,
            Op::Store | Op::Spill => Layer::Store,
            Op::Check => Layer::Check,
            Op::Canon | Op::Ample | Op::Orbit => Layer::Reduce,
            Op::CkptEncode | Op::CkptWrite => Layer::Checkpoint,
        }
    }
}

/// The model's layers, by module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Rules,
    Codec,
    Dedup,
    Store,
    Check,
    Reduce,
    Checkpoint,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Rules,
        Layer::Codec,
        Layer::Dedup,
        Layer::Store,
        Layer::Check,
        Layer::Reduce,
        Layer::Checkpoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Rules => "rules",
            Layer::Codec => "codec",
            Layer::Dedup => "dedup",
            Layer::Store => "store",
            Layer::Check => "check",
            Layer::Reduce => "reduce",
            Layer::Checkpoint => "checkpoint",
        }
    }
}

/// Calls of one operation within one level: all of them counted, the
/// sampled ones timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStat {
    pub calls: u64,
    pub sampled: u64,
    pub ns: u64,
}

impl OpStat {
    fn add(&mut self, calls: u64, sampled: bool, ns: u64) {
        self.calls += calls;
        if sampled {
            self.sampled += calls;
            self.ns += ns;
        }
    }

    /// Estimated busy nanoseconds: the sampled mean per call times the
    /// call count, or `fallback` ns per call when nothing was sampled.
    fn estimate(&self, fallback: f64) -> f64 {
        if self.sampled > 0 {
            self.ns as f64 * self.calls as f64 / self.sampled as f64
        } else {
            self.calls as f64 * fallback
        }
    }
}

/// One BFS level of the shadow run: its wall span and its operations.
#[derive(Clone, Debug)]
pub struct LevelTrace {
    pub depth: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub frontier: usize,
    pub stored: usize,
    pub ops: [OpStat; OPS],
}

/// Span arithmetic with the cost of one clock read taken out.
struct Clock {
    read_ns: u64,
}

impl Clock {
    /// The median cost of a back-to-back pair of clock reads.
    fn calibrate() -> Self {
        let mut samples: Vec<u64> = (0..1001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                (b - a).as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        Clock {
            read_ns: samples[samples.len() / 2],
        }
    }

    fn ns(&self, from: Instant, to: Instant) -> u64 {
        ((to - from).as_nanos() as u64).saturating_sub(self.read_ns)
    }
}

/// What a shadow run found and where its time went.
#[derive(Debug)]
pub struct ShadowRun {
    pub states: usize,
    pub transitions: usize,
    pub depth: usize,
    pub terminals: usize,
    pub deadlocks: usize,
    pub violations: usize,
    pub truncated: bool,
    pub wall: Duration,
    pub levels: Vec<LevelTrace>,
    pub stride: u64,
    pub clock_read_ns: u64,
    /// Parents given to full rule expansion (not an ample step).
    pub rule_parents: u64,
    /// Parents expanded through a singleton ample step.
    pub ample_parents: u64,
    pub canon_rewrites: u64,
    pub duplicates: u64,
    pub ring_hits: u64,
    pub resident_payload_bytes: usize,
    pub table_bytes: usize,
    pub byte_len: usize,
    pub full_payload_bytes: usize,
    pub spilled_extents: u64,
    pub faulted_extents: u64,
    pub checkpoint_writes: u64,
}

impl ShadowRun {
    fn mean_ns(&self, op: Op) -> f64 {
        let (ns, sampled) = self.levels.iter().fold((0u64, 0u64), |(ns, n), l| {
            let s = l.ops[op as usize];
            (ns + s.ns, n + s.sampled)
        });
        if sampled == 0 {
            0.0
        } else {
            ns as f64 / sampled as f64
        }
    }

    /// Estimated busy nanoseconds of `op` in one level.
    pub fn level_op_ns(&self, level: &LevelTrace, op: Op) -> f64 {
        level.ops[op as usize].estimate(self.mean_ns(op))
    }

    /// Estimated busy seconds of `op` over the run.
    pub fn op_s(&self, op: Op) -> f64 {
        let mean = self.mean_ns(op);
        self.levels
            .iter()
            .map(|l| l.ops[op as usize].estimate(mean))
            .sum::<f64>()
            / 1e9
    }

    /// Exact call count of `op` over the run.
    pub fn op_calls(&self, op: Op) -> u64 {
        self.levels.iter().map(|l| l.ops[op as usize].calls).sum()
    }

    /// Estimated busy seconds of a whole layer.
    pub fn layer_s(&self, layer: Layer) -> f64 {
        Op::ALL
            .iter()
            .filter(|op| op.layer() == layer)
            .map(|&op| self.op_s(op))
            .sum()
    }

    /// Every parent expanded, by either route.
    pub fn parents(&self) -> u64 {
        self.rule_parents + self.ample_parents
    }
}

/// The resident footprint the checker's memory budget bounds — the same
/// sum `cxl_mc`'s driver computes, from the same public accessors.
fn footprint(
    arena: &StateArena,
    index: &FpIndex,
    parents_cap: usize,
    succ_counts_cap: usize,
    queue_slots: usize,
) -> usize {
    arena.approx_heap_bytes()
        + index.approx_heap_bytes()
        + parents_cap * std::mem::size_of::<Option<(usize, RuleId)>>()
        + succ_counts_cap * std::mem::size_of::<u32>()
        + queue_slots * std::mem::size_of::<usize>()
}

/// Successor staging for one parent's expansion, timing its encode,
/// canonicalize and fingerprint calls when the parent is sampled.
struct Emit<'a> {
    codec: &'a StateCodec,
    reducer: Option<&'a dyn Reducer>,
    clock: &'a Clock,
    sampled: bool,
    enc_buf: &'a mut Vec<u8>,
    succ_buf: &'a mut Vec<u8>,
    canon_scratch: &'a mut Vec<u8>,
    succ_meta: &'a mut Vec<(RuleId, usize, u64)>,
    encode_ns: u64,
    canon_ns: u64,
    fingerprint_ns: u64,
    /// Raw wall time inside the callbacks, for the rules' self time.
    callback_ns: u64,
    rewrites: u64,
}

impl Emit<'_> {
    fn emit(&mut self, rule: RuleId, succ: &SystemState) {
        let at = self.enc_buf.len();
        let start = self.sampled.then(Instant::now);
        let mut mid = start;
        match self.reducer {
            Some(r) => {
                self.succ_buf.clear();
                self.codec.encode_into(succ, self.succ_buf);
                let encoded = self.sampled.then(Instant::now);
                self.rewrites += u64::from(r.canonicalize(self.succ_buf, self.canon_scratch));
                self.enc_buf.extend_from_slice(self.succ_buf);
                if let (Some(a), Some(b)) = (start, encoded) {
                    let c = Instant::now();
                    self.encode_ns += self.clock.ns(a, b);
                    self.canon_ns += self.clock.ns(b, c);
                    mid = Some(c);
                }
            }
            None => {
                self.codec.encode_into(succ, self.enc_buf);
                if let Some(a) = start {
                    let b = Instant::now();
                    self.encode_ns += self.clock.ns(a, b);
                    mid = Some(b);
                }
            }
        }
        let fp = StateCodec::fingerprint(&self.enc_buf[at..]);
        if let (Some(a), Some(m)) = (start, mid) {
            let d = Instant::now();
            self.fingerprint_ns += self.clock.ns(m, d);
            self.callback_ns += (d - a).as_nanos() as u64;
        }
        self.succ_meta.push((rule, at, fp));
    }
}

/// Mutable search state that a checkpoint serializes.
struct Search {
    arena: StateArena,
    parents: Vec<Option<(usize, RuleId)>>,
    succ_counts: Vec<u32>,
    frontier: Vec<usize>,
    firings: Vec<u64>,
    sheds: Vec<DegradationStep>,
    transitions: usize,
    terminals: usize,
}

impl Search {
    /// Serialize through `Checkpoint::to_bytes` (the search state moves
    /// into the checkpoint and back; nothing is copied) and write the
    /// file atomically, as the checker does.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint(
        &mut self,
        mc: &ModelChecker,
        dir: &Path,
        fingerprint: u64,
        depth: usize,
        elapsed: Duration,
        clock: &Clock,
        ops: &mut [OpStat; OPS],
    ) {
        let codec = *self.arena.codec();
        let cp = Checkpoint {
            fingerprint,
            resumable: true,
            depth,
            elapsed,
            transitions: self.transitions,
            terminal_states: self.terminals,
            truncated: false,
            truncated_by_memory: false,
            truncated_by_time: false,
            arena: std::mem::replace(&mut self.arena, StateArena::new(codec)),
            fps: Vec::new(),
            parents: std::mem::take(&mut self.parents),
            succ_counts: std::mem::take(&mut self.succ_counts),
            frontier: std::mem::take(&mut self.frontier),
            firings: std::mem::take(&mut self.firings),
            violations: Vec::new(),
            deadlocks: Vec::new(),
            quarantined: Vec::new(),
            sheds: std::mem::take(&mut self.sheds),
            reduction_stats: mc.options().reduction.as_deref().map(|r| r.stats()),
            flight: Vec::new(),
        };
        let t = Instant::now();
        let bytes = cp.to_bytes(mc.rules());
        let encoded = Instant::now();
        ops[Op::CkptEncode as usize].add(1, true, clock.ns(t, encoded));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let tmp = dir.join(format!(".{CHECKPOINT_FILE}.tmp"));
            std::fs::File::create(&tmp)?.write_all(&bytes)?;
            std::fs::rename(&tmp, checkpoint_path(dir))
        });
        if let Err(e) = written {
            eprintln!("warning: shadow checkpoint write failed: {e}");
        }
        ops[Op::CkptWrite as usize].add(1, true, clock.ns(encoded, Instant::now()));
        self.arena = cp.arena;
        self.parents = cp.parents;
        self.succ_counts = cp.succ_counts;
        self.frontier = cp.frontier;
        self.firings = cp.firings;
        self.sheds = cp.sheds;
    }
}

/// Run the shadow search for `init` under `mc`'s rules and options,
/// timing every `stride`-th parent and checked state.
///
/// # Panics
/// Panics on options the shadow does not mirror (pruning, depth or
/// time budgets) — none of the benchmark's workloads sets them.
#[allow(clippy::too_many_lines)]
pub fn run(
    mc: &ModelChecker,
    init: &SystemState,
    props: &[&dyn Property],
    stride: u64,
) -> ShadowRun {
    let rules = mc.rules();
    let opts = mc.options();
    assert!(
        opts.prune.is_none() && opts.max_depth.is_none() && opts.time_budget.is_none(),
        "the shadow driver mirrors runs without pruning, depth or time budgets"
    );
    let stride = stride.max(1);
    let reducer = opts.reduction.as_deref();
    let codec = StateCodec::new(rules.topology());
    let clock = Clock::calibrate();
    let run_start = Instant::now();
    let since_start = |t: Instant| (t - run_start).as_nanos() as u64;
    let peer_variants = reducer.is_some_and(Reducer::wants_peer_variants);

    let mut levels: Vec<LevelTrace> = Vec::new();
    let mut ops = [OpStat::default(); OPS];
    let mut level_start = run_start;

    let mut s = Search {
        arena: StateArena::new(codec),
        parents: Vec::new(),
        succ_counts: Vec::new(),
        frontier: Vec::new(),
        firings: vec![0u64; rules.rule_ids().len()],
        sheds: Vec::new(),
        transitions: 0,
        terminals: 0,
    };
    let mut index = FpIndex::new();
    let mut deadlocks = 0usize;
    let mut violations = 0usize;
    let mut truncated = false;
    let mut rule_parents = 0u64;
    let mut ample_parents = 0u64;
    let mut canon_rewrites = 0u64;
    let mut duplicates = 0u64;
    let mut ring_hits = 0u64;
    let mut checkpoint_writes = 0u64;
    let mut parent_seq = 0u64;
    let mut check_seq = 0u64;

    let mut cur = Box::new(codec.blank());
    let mut fire_scratch = codec.blank();
    let mut succ_buf: Vec<u8> = Vec::new();
    let mut enc_buf: Vec<u8> = Vec::new();
    let mut succ_meta: Vec<(RuleId, usize, u64)> = Vec::new();
    let mut canon_scratch: Vec<u8> = Vec::new();

    // The decoded-frontier ring, as the sequential driver keeps it:
    // successors stolen from the firing scratch at generation time, so
    // the next level swaps them in instead of decoding.
    let ring_cap = if reducer.is_none() {
        opts.frontier_ring
    } else {
        0
    };
    let mut ring_on = ring_cap > 0;
    let mut ring: Vec<Box<SystemState>> = Vec::new();
    let mut ring_next: Vec<Box<SystemState>> = Vec::new();
    let mut spare: Vec<Box<SystemState>> = Vec::new();
    let mut pending: Vec<Option<Box<SystemState>>> = Vec::new();

    // Check one stored state: an allocating decode, then every property.
    let check = |id: usize,
                 arena: &StateArena,
                 sampled: bool,
                 ops: &mut [OpStat; OPS],
                 violations: &mut usize| {
        let t = Instant::now();
        let state = arena.decode(id);
        let decoded = Instant::now();
        for p in props {
            if let PropertyOutcome::Violated(_) = p.check(&state) {
                *violations += 1;
                if *violations >= opts.max_violations {
                    break;
                }
            }
        }
        let done = Instant::now();
        ops[Op::Decode as usize].add(1, sampled, clock.ns(t, decoded));
        ops[Op::Check as usize].add(1, sampled, clock.ns(decoded, done));
    };

    // The root, stored uncanonicalized as the checker stores it.
    {
        let t = Instant::now();
        codec.encode_into(init, &mut enc_buf);
        let encoded = Instant::now();
        s.arena.push_encoded(&enc_buf);
        let pushed = Instant::now();
        let fp = StateCodec::fingerprint(s.arena.bytes_of(0));
        s.parents.push(None);
        s.succ_counts.push(NOT_EXPANDED);
        index.insert(fp, 0, |_| unreachable!("empty index"));
        let inserted = Instant::now();
        ops[Op::Encode as usize].add(1, true, clock.ns(t, encoded));
        ops[Op::Store as usize].add(1, true, clock.ns(encoded, pushed));
        ops[Op::Dedup as usize].add(1, true, clock.ns(pushed, inserted));
        if !props.is_empty() {
            check(0, &s.arena, true, &mut ops, &mut violations);
            check_seq += 1;
        }
        s.frontier = vec![0];
    }
    let mut depth = 0usize;

    if opts.delta_keyframe > 0 {
        s.arena.enable_delta(opts.delta_keyframe);
    }
    if let Some(dir) = &opts.spill_dir {
        let _ = s.arena.enable_spill(dir, "main");
    }
    let spill_watermark = opts.spill_budget.unwrap_or(DEFAULT_SPILL_BUDGET);
    let ckpt = opts.checkpoint.as_ref();
    let ckpt_fingerprint = ckpt.map(|_| {
        let describe = reducer.map(|r| r.describe());
        let mut init_bytes = Vec::new();
        s.arena.append_full_bytes(0, &mut init_bytes);
        options_fingerprint(rules, describe.as_deref(), &init_bytes)
    });
    let mut last_checkpoint = Instant::now();
    let mut shed_done = false;
    let mut emergency_done = false;
    let spill = |arena: &mut StateArena, frontier: &[usize], ops: &mut [OpStat; OPS]| {
        let floor = frontier
            .iter()
            .map(|&id| arena.decode_floor(id))
            .min()
            .unwrap_or_else(|| arena.len());
        let t = Instant::now();
        let _ = arena.spill_cold(floor);
        ops[Op::Spill as usize].add(1, true, clock.ns(t, Instant::now()));
    };

    while !s.frontier.is_empty() {
        let frontier_len = s.frontier.len();
        // The degradation ladder at the level boundary: shed slack (and
        // seal cold levels) at 80% of the budget, one emergency
        // checkpoint at 90%.
        if let Some(budget) = opts.mem_budget {
            let ring_states = ring.len() + ring_next.len() + spare.len();
            let ring_bytes =
                ring_states * (std::mem::size_of::<SystemState>() + heap_state_bytes(&cur));
            let before = ring_bytes
                + footprint(
                    &s.arena,
                    &index,
                    s.parents.capacity(),
                    s.succ_counts.capacity(),
                    s.frontier.capacity(),
                );
            if !shed_done && before.saturating_mul(10) >= budget.saturating_mul(8) {
                shed_done = true;
                ring_on = false;
                ring = Vec::new();
                ring_next = Vec::new();
                spare = Vec::new();
                if s.arena.spill_armed() {
                    spill(&mut s.arena, &s.frontier, &mut ops);
                }
                s.arena.shrink_to_fit();
                index.shrink_to_fit();
                s.parents.shrink_to_fit();
                s.succ_counts.shrink_to_fit();
                s.frontier.shrink_to_fit();
                enc_buf = Vec::new();
                succ_buf = Vec::new();
                succ_meta = Vec::new();
                canon_scratch = Vec::new();
                let after = footprint(
                    &s.arena,
                    &index,
                    s.parents.capacity(),
                    s.succ_counts.capacity(),
                    s.frontier.capacity(),
                );
                s.sheds.push(DegradationStep {
                    action: DegradationAction::ShedBuffers {
                        reclaimed: before.saturating_sub(after),
                    },
                    at_states: s.arena.len(),
                    footprint: after,
                });
            }
            if !emergency_done && before.saturating_mul(10) >= budget.saturating_mul(9) {
                if let (Some(policy), Some(fp)) = (ckpt, ckpt_fingerprint) {
                    emergency_done = true;
                    s.sheds.push(DegradationStep {
                        action: DegradationAction::EmergencyCheckpoint,
                        at_states: s.arena.len(),
                        footprint: before,
                    });
                    s.checkpoint(
                        mc,
                        &policy.dir,
                        fp,
                        depth,
                        run_start.elapsed(),
                        &clock,
                        &mut ops,
                    );
                    checkpoint_writes += 1;
                    last_checkpoint = Instant::now();
                }
            }
        }
        if s.arena.spill_armed() && s.arena.resident_payload_bytes() > spill_watermark {
            spill(&mut s.arena, &s.frontier, &mut ops);
        }
        if let (Some(policy), Some(fp)) = (ckpt, ckpt_fingerprint) {
            if last_checkpoint.elapsed() >= policy.every {
                s.checkpoint(
                    mc,
                    &policy.dir,
                    fp,
                    depth,
                    run_start.elapsed(),
                    &clock,
                    &mut ops,
                );
                checkpoint_writes += 1;
                last_checkpoint = Instant::now();
            }
        }

        // Expand and merge, parent by parent.
        let mut new_indices: Vec<usize> = Vec::new();
        let frontier_slots = s.frontier.capacity();
        let mut filling = ring_on;
        let frontier = std::mem::take(&mut s.frontier);
        for (fpos, &parent) in frontier.iter().enumerate() {
            enc_buf.clear();
            succ_meta.clear();
            for slot in pending.drain(..).flatten() {
                spare.push(slot);
            }
            let filling_now = ring_on && filling;
            let ring_next_len = ring_next.len();
            let sampled = parent_seq.is_multiple_of(stride);
            parent_seq += 1;

            if fpos < ring.len() {
                std::mem::swap(&mut cur, &mut ring[fpos]);
                ring_hits += 1;
            } else {
                let t = sampled.then(Instant::now);
                s.arena.decode_into(parent, &mut cur);
                ops[Op::Decode as usize].add(
                    1,
                    sampled,
                    t.map_or(0, |t| clock.ns(t, Instant::now())),
                );
            }

            let mut em = Emit {
                codec: &codec,
                reducer,
                clock: &clock,
                sampled,
                enc_buf: &mut enc_buf,
                succ_buf: &mut succ_buf,
                canon_scratch: &mut canon_scratch,
                succ_meta: &mut succ_meta,
                encode_ns: 0,
                canon_ns: 0,
                fingerprint_ns: 0,
                callback_ns: 0,
                rewrites: 0,
            };
            let ample = reducer.and_then(|r| {
                let t = sampled.then(Instant::now);
                let step = r.ample_step(rules, &cur, &mut fire_scratch);
                ops[Op::Ample as usize].add(
                    1,
                    sampled,
                    t.map_or(0, |t| clock.ns(t, Instant::now())),
                );
                step
            });
            if let Some(rule) = ample {
                ample_parents += 1;
                em.emit(rule, &fire_scratch);
            } else {
                rule_parents += 1;
                let t0 = sampled.then(Instant::now);
                if peer_variants {
                    rules.for_each_enabled_variants(&cur, &mut fire_scratch, |rule, succ| {
                        em.emit(rule, succ);
                    });
                } else {
                    rules.for_each_enabled_mut(&cur, &mut fire_scratch, |rule, succ| {
                        em.emit(rule, succ);
                        if filling_now && ring_next_len + pending.len() < ring_cap {
                            let mut slot = spare.pop().unwrap_or_else(|| Box::new(codec.blank()));
                            std::mem::swap(&mut *slot, succ);
                            pending.push(Some(slot));
                        }
                    });
                }
                let self_ns = t0.map_or(0, |t0| {
                    let reads = clock.read_ns * (em.succ_meta.len() as u64 + 1);
                    ((t0.elapsed().as_nanos() as u64).saturating_sub(em.callback_ns))
                        .saturating_sub(reads)
                });
                ops[Op::Rules as usize].add(1, sampled, self_ns);
            }
            let n = em.succ_meta.len() as u64;
            let (encode_ns, canon_ns, fingerprint_ns) =
                (em.encode_ns, em.canon_ns, em.fingerprint_ns);
            canon_rewrites += em.rewrites;
            ops[Op::Encode as usize].add(n, sampled, encode_ns);
            if reducer.is_some() {
                ops[Op::Canon as usize].add(n, sampled, canon_ns);
            }

            s.succ_counts[parent] = u32::try_from(succ_meta.len()).unwrap_or(u32::MAX - 1);
            if succ_meta.is_empty() {
                s.terminals += 1;
                if !cur.is_quiescent() {
                    deadlocks += 1;
                }
                continue;
            }
            let mut insert_ns = 0u64;
            let mut store_ns = 0u64;
            let mut stored = 0u64;
            for i in 0..succ_meta.len() {
                let (rule, at, fp) = succ_meta[i];
                let end = succ_meta
                    .get(i + 1)
                    .map_or(enc_buf.len(), |&(_, next, _)| next);
                let encoded = &enc_buf[at..end];
                s.firings[rules.dense_index(rule)] += 1;
                s.transitions += 1;
                if truncated {
                    // Past a cap the checker only probes the tail
                    // transiently; the shadow counts the transition and
                    // stores nothing.
                    continue;
                }
                let candidate = u32::try_from(s.arena.len()).expect("state count fits u32");
                let t = sampled.then(Instant::now);
                let arena = &s.arena;
                let dup = index
                    .insert(fp, candidate, |id| {
                        arena.entry_matches(id as usize, encoded)
                    })
                    .is_some();
                let probed = sampled.then(Instant::now);
                if let (Some(a), Some(b)) = (t, probed) {
                    insert_ns += clock.ns(a, b);
                }
                if dup {
                    duplicates += 1;
                    if let Some(slot) = pending.get_mut(i).and_then(Option::take) {
                        spare.push(slot);
                    }
                    continue;
                }
                s.arena.push_encoded_delta(encoded, Some(parent as u32));
                if let Some(b) = probed {
                    store_ns += clock.ns(b, Instant::now());
                }
                stored += 1;
                s.parents.push(Some((parent, rule)));
                s.succ_counts.push(NOT_EXPANDED);
                new_indices.push(candidate as usize);
                if s.arena.len() >= opts.max_states {
                    truncated = true;
                }
                if let Some(budget) = opts.mem_budget {
                    let mut fp_now = footprint(
                        &s.arena,
                        &index,
                        s.parents.capacity(),
                        s.succ_counts.capacity(),
                        frontier_slots + new_indices.capacity(),
                    );
                    if !shed_done && fp_now.saturating_mul(10) >= budget.saturating_mul(8) {
                        shed_done = true;
                        s.arena.shrink_to_fit();
                        index.shrink_to_fit();
                        s.parents.shrink_to_fit();
                        s.succ_counts.shrink_to_fit();
                        let after = footprint(
                            &s.arena,
                            &index,
                            s.parents.capacity(),
                            s.succ_counts.capacity(),
                            frontier_slots + new_indices.capacity(),
                        );
                        s.sheds.push(DegradationStep {
                            action: DegradationAction::ShedBuffers {
                                reclaimed: fp_now.saturating_sub(after),
                            },
                            at_states: s.arena.len(),
                            footprint: after,
                        });
                        fp_now = after;
                    }
                    if fp_now >= budget {
                        truncated = true;
                        s.sheds.push(DegradationStep {
                            action: DegradationAction::Truncate,
                            at_states: s.arena.len(),
                            footprint: fp_now,
                        });
                    }
                }
                match pending.get_mut(i).and_then(Option::take) {
                    Some(slot) if ring_on && filling && ring_next.len() < ring_cap => {
                        ring_next.push(slot);
                    }
                    Some(slot) => {
                        filling = false;
                        spare.push(slot);
                    }
                    None => filling = false,
                }
            }
            ops[Op::Dedup as usize].add(n, sampled, fingerprint_ns + insert_ns);
            ops[Op::Store as usize].add(stored, sampled, store_ns);
            if ring_on && shed_done {
                ring_on = false;
                ring = Vec::new();
                ring_next = Vec::new();
                spare = Vec::new();
            }
        }
        s.frontier = frontier;

        // Check the newly stored states, in discovery order.
        let mut stop = violations >= opts.max_violations && violations > 0;
        if !stop && !props.is_empty() {
            for &id in &new_indices {
                let sampled = check_seq.is_multiple_of(stride);
                check_seq += 1;
                check(id, &s.arena, sampled, &mut ops, &mut violations);
                if violations >= opts.max_violations && violations > 0 {
                    stop = true;
                    break;
                }
            }
        }

        let now = Instant::now();
        levels.push(LevelTrace {
            depth,
            start_ns: since_start(level_start),
            end_ns: since_start(now),
            frontier: frontier_len,
            stored: new_indices.len(),
            ops: std::mem::take(&mut ops),
        });
        level_start = now;
        if stop {
            break;
        }
        depth += 1;
        if truncated {
            break;
        }
        if ring_on {
            spare.append(&mut ring);
            spare.truncate(ring_cap);
            std::mem::swap(&mut ring, &mut ring_next);
        } else {
            pending = Vec::new();
            ring = Vec::new();
            ring_next = Vec::new();
            spare = Vec::new();
        }
        s.frontier = new_indices;
    }

    // A reduced run prices its device-symmetry engine with one pass of
    // orbit sizes over the stored representatives.
    if let Some(r) = reducer {
        let t = Instant::now();
        let mut full = Vec::new();
        let orbit_states: u64 = (0..s.arena.len())
            .map(|id| {
                full.clear();
                s.arena.append_full_bytes(id, &mut full);
                r.orbit_size(&full)
            })
            .sum();
        std::hint::black_box(orbit_states);
        let done = Instant::now();
        ops[Op::Orbit as usize].add(s.arena.len() as u64, true, clock.ns(t, done));
        levels.push(LevelTrace {
            depth,
            start_ns: since_start(level_start),
            end_ns: since_start(done),
            frontier: 0,
            stored: 0,
            ops,
        });
    }

    if truncated || violations > 0 {
        s.terminals = 0;
        deadlocks = 0;
    }
    ShadowRun {
        states: s.arena.len(),
        transitions: s.transitions,
        depth,
        terminals: s.terminals,
        deadlocks,
        violations,
        truncated,
        wall: run_start.elapsed(),
        levels,
        stride,
        clock_read_ns: clock.read_ns,
        rule_parents,
        ample_parents,
        canon_rewrites,
        duplicates,
        ring_hits,
        resident_payload_bytes: s.arena.resident_payload_bytes(),
        table_bytes: s.arena.table_bytes(),
        byte_len: s.arena.byte_len(),
        full_payload_bytes: s.arena.full_payload_bytes(),
        spilled_extents: s.arena.spilled_extents(),
        faulted_extents: s.arena.faulted_extents(),
        checkpoint_writes,
    }
}
