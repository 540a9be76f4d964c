//! Model-checker throughput **and memory** bench: states explored per
//! second on the `stores(0,3)` × `loads(3)` workload — the headline
//! figure of the exploration-pipeline rewrites — plus three- and
//! four-device rows tracking what topology width costs in time and in
//! packed bytes per state.
//!
//! Pipelines measured on the two-device workload:
//! - `naive` — the retained pre-optimisation reference
//!   ([`cxl_mc::ModelChecker::explore_naive`]): SipHash dedup keyed by
//!   whole heap states, per-call successor allocation, and a full
//!   terminal-state rescan;
//! - `optimized` — the packed-arena single-threaded pipeline
//!   (scratch-state rule firing, byte-encoded dedup);
//! - `optimized_par` — the same pipeline over the persistent worker pool
//!   (packed-bytes chunk protocol).
//!
//! The wider rows (`optimized_n3`, `optimized_n4`) explore 3- and
//! 4-device workloads with the sequential optimized pipeline — the N = 4
//! row exists because the packed arena is what makes 4-device sweeps
//! routinely affordable. `noring_n3` re-runs the N = 3 workload with the
//! decoded-frontier ring disabled (`frontier_ring: 0`), so its gap to
//! `optimized_n3` is the ring's measured win. `telemetry_n3` re-runs it
//! with the metrics recorder attached (JSONL sink, heartbeat off); its
//! interleaved gap to `optimized_n3` is the recorder's overhead,
//! recorded in the row's `telemetry_overhead_pct`. `sharded_mt` runs the
//! two-device workload through the shard-owned parallel driver
//! (`--threads 2 --shards 2` equivalent) and records the routing
//! columns: `shards`, `routed_messages`, `shard_imbalance_pct`.
//!
//! Besides the Criterion timings, the bench writes a durable
//! `bench_results/mc_throughput.json` snapshot: best-of-N states/sec per
//! pipeline, thread counts, per-thread throughput, speedups vs `naive`,
//! and the memory columns — packed `bytes_per_state` (from the
//! exploration's `StateArena`), `baseline_bytes_per_state` (the
//! heap-`SystemState`-behind-`Arc` representation the arena replaced),
//! process `peak_rss_mb` (whole-process high-water mark), and
//! `rss_delta_mb` (current-RSS growth sampled around each row's own
//! timed iterations, so per-row memory is comparable) — so the
//! throughput *and* memory trajectories can be tracked across PRs.
//!
//! The beyond-RAM store rows: `delta_n4` re-runs the N = 4 workload with
//! parent-delta encoding armed (keyframe every 16 ancestors) and records
//! `delta_ratio` — stored payload over the full-encoding payload a plain
//! arena would hold; `spill_n4` adds cold-extent spill at a zero
//! resident watermark and records `spilled_extents` / `faulted_extents`.
//! Both must reproduce `optimized_n4`'s states and transitions exactly.
//! The bench also opens with a footprint sanity check: the
//! self-accounted `Report::memory_bytes` of the first large exploration
//! must sit within generous factors of the measured current-RSS growth,
//! so the accounting behind the degradation ladder can't silently drift
//! from what the OS bills.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cxl_bench::{baseline_state_bytes, current_rss_mb, peak_rss_mb, BenchSnapshot, ThroughputRow};
use cxl_core::instr::programs;
use cxl_core::{ProtocolConfig, Ruleset, SystemState};
use cxl_mc::{CheckOptions, Exploration, ModelChecker, Reduction, ReductionConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "stores(0,3) x loads(3)";
const WORKLOAD_N3: &str = "stores(0,2) x loads(2) x loads(1)";
const WORKLOAD_N4: &str = "stores(0,2) x loads(2) x loads(1) x evicts(1)";
/// The symmetric strict-grid sweeps the reduction rows run: identical
/// `[Store(7), Load]` programs on every device, so the detected
/// symmetry subgroup is the full S_N.
const WORKLOAD_SYM: &str = "[S7,L] x N (symmetric)";
/// The store-heavy asymmetric grid of the data-symmetry rows: byte-wise
/// all programs distinct (trivial byte-equality group — PR 4's engine is
/// inert) but value-isomorphic, with three interchangeable stored
/// values.
const WORKLOAD_STORE_HEAVY: &str = "[S1,L] x [S2,L] x [S3,L] (store-heavy, asymmetric)";
const WORKLOAD_HEX: &str = "[S1] x [S2] x [S3] x [S4] x [S5] x [S6] (all-distinct stores)";

fn workload() -> SystemState {
    SystemState::initial(programs::stores(0, 3), programs::loads(3))
}

fn workload_n3() -> SystemState {
    SystemState::initial_n(
        3,
        vec![programs::stores(0, 2), programs::loads(2), programs::loads(1)],
    )
}

fn workload_n4() -> SystemState {
    SystemState::initial_n(
        4,
        vec![programs::stores(0, 2), programs::loads(2), programs::loads(1), programs::evicts(1)],
    )
}

fn workload_sym(n: usize) -> SystemState {
    let prog = || {
        vec![cxl_core::Instruction::Store(7), cxl_core::Instruction::Load].into()
    };
    SystemState::initial_n(n, (0..n).map(|_| prog()).collect())
}

/// Six devices, each storing a distinct value: the byte-equality group
/// is trivial but value-blindness detects the full S_6 joint group —
/// the shape whose 720-arrangement brute enumeration the refine
/// labeller retires.
fn workload_hex() -> SystemState {
    SystemState::initial_n(
        6,
        (0..6).map(|i| vec![cxl_core::Instruction::Store(i + 1)].into()).collect(),
    )
}

/// The canonicalizer a [`Reduction`] under `rc` actually selects for
/// `init` — recorded in the row's `canon` column.
fn canon_of(devices: usize, init: &SystemState, rc: ReductionConfig) -> String {
    let rules = Ruleset::with_devices(ProtocolConfig::strict(), devices);
    Reduction::new(&rules, init, rc).canon_name().to_string()
}

fn workload_store_heavy() -> SystemState {
    use cxl_core::Instruction::{Load, Store};
    SystemState::initial_n(
        3,
        vec![
            vec![Store(1), Load].into(),
            vec![Store(2), Load].into(),
            vec![Store(3), Load].into(),
        ],
    )
}

/// A checker with the given reduction engines armed for `init`.
fn reduced_checker(devices: usize, init: &SystemState, rc: ReductionConfig) -> ModelChecker {
    let rules = Ruleset::with_devices(ProtocolConfig::strict(), devices);
    let red = Arc::new(Reduction::new(&rules, init, rc));
    let opts = CheckOptions {
        reduction: Some(red as Arc<dyn cxl_mc::Reducer>),
        ..CheckOptions::default()
    };
    ModelChecker::with_options(Ruleset::with_devices(ProtocolConfig::strict(), devices), opts)
}

/// Device symmetry alone — the PR 4 rows, kept comparable across PRs.
fn sym_only() -> ReductionConfig {
    ReductionConfig {
        symmetry: true,
        data_symmetry: false,
        por: cxl_mc::PorMode::Off,
        canon: cxl_mc::CanonMode::Auto,
    }
}

/// The resilience row's checker: the N = 3 pipeline with checkpointing
/// armed at the default interval, writing into a temp scratch dir. Runs
/// shorter than the interval pay exactly one (final) checkpoint write —
/// the overhead the ≤ 5% acceptance bar is about.
fn checkpointed_checker_n3() -> ModelChecker {
    let dir = std::env::temp_dir().join("cxl-bench-checkpoint-n3");
    ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 3),
        CheckOptions {
            checkpoint: Some(cxl_mc::CheckpointPolicy::new(dir)),
            ..CheckOptions::default()
        },
    )
}

/// The `sharded_mt` row's checker: the two-device workload through the
/// shard-owned parallel driver, threads and shards both forced to two so
/// the routing columns land in every snapshot — single-core CI included.
fn sharded_checker() -> ModelChecker {
    ModelChecker::with_options(
        Ruleset::new(ProtocolConfig::strict()),
        CheckOptions {
            threads: mt_threads(),
            shards: Some(mt_threads()),
            ..CheckOptions::default()
        },
    )
}

/// The `noring_n3` row's checker: the sequential N = 3 pipeline with the
/// decoded-frontier ring disabled — the control measuring the ring's win.
fn noring_checker_n3() -> ModelChecker {
    ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 3),
        CheckOptions { frontier_ring: 0, ..CheckOptions::default() },
    )
}

/// The `telemetry_n3` row's checker: the sequential N = 3 pipeline with
/// the metrics recorder attached (JSONL sink, heartbeat off) — its gap
/// to `optimized_n3`, measured interleaved, is the recorder's overhead
/// (the ISSUE bar: ≤ 2%).
fn telemetry_checker_n3(metrics_path: &std::path::Path) -> ModelChecker {
    let rec = cxl_mc::MetricsRecorder::new(cxl_mc::ProgressMode::Off, Some(metrics_path))
        .expect("create metrics sink");
    ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 3),
        CheckOptions {
            telemetry: Some(Arc::new(rec) as Arc<dyn cxl_mc::Recorder>),
            ..CheckOptions::default()
        },
    )
}

/// A per-process scratch file for the telemetry row's JSONL stream.
fn telemetry_scratch_file() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cxl-bench-telemetry-{}.jsonl", std::process::id()))
}

/// The `delta_n4` row's checker: the N = 4 workload with parent-delta
/// encoding armed (keyframe every 16 ancestors), spill off — what delta
/// compression alone does to `bytes_per_state` and to wall time.
fn delta_checker_n4() -> ModelChecker {
    ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 4),
        CheckOptions { delta_keyframe: 16, ..CheckOptions::default() },
    )
}

/// The `spill_n4` row's checker: delta encoding plus cold-extent spill
/// into `dir` with a zero resident-payload watermark, so every completed
/// level below the frontier's decode floor is sealed to disk — the
/// beyond-RAM configuration at its most aggressive.
fn spill_checker_n4(dir: &std::path::Path) -> ModelChecker {
    ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::strict(), 4),
        CheckOptions {
            delta_keyframe: 16,
            spill_dir: Some(dir.to_path_buf()),
            spill_budget: Some(0),
            ..CheckOptions::default()
        },
    )
}

/// A per-process scratch directory for the spill rows' extent files.
fn spill_scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cxl-bench-spill-{}", std::process::id()))
}

fn par_threads() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get).min(8)
}

/// Thread count for the dedicated multi-threaded row, recorded only on
/// single-core hosts (where `optimized_par` degenerates to one thread):
/// forced to two, so a `threads > 1` measurement of the packed chunk
/// protocol lands in every snapshot — the ROADMAP's re-measurement item.
/// On multi-core hosts `optimized_par` already is that row.
fn mt_threads() -> usize {
    2
}

/// Best-of-N wall time of one exploration variant, plus the current-RSS
/// growth (MiB) across the iterations — each row's own resident-memory
/// delta, unlike the monotone whole-process `peak_rss_mb`.
fn best_of<F: FnMut() -> (usize, usize)>(
    iters: u32,
    mut f: F,
) -> (usize, usize, Duration, f64) {
    let rss_before = current_rss_mb();
    let mut best = Duration::MAX;
    let mut dims = (0, 0);
    for _ in 0..iters {
        let start = Instant::now();
        dims = f();
        best = best.min(start.elapsed());
    }
    let rss_delta = (current_rss_mb() - rss_before).max(0.0);
    (dims.0, dims.1, best, rss_delta)
}

/// Interleaved best-of-N wall times of two exploration variants. The
/// pair alternates inside one tight loop, so slow host-load drift (the
/// dominant noise on shared runners, where back-to-back row timings
/// wander by tens of percent) hits both sides equally and cancels out
/// of the ratio. Every cross-pipeline ratio the bench prints is
/// computed from one of these pairings, never from two snapshot rows
/// timed minutes apart.
fn interleaved_best(
    iters: u32,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Duration, Duration) {
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..iters {
        let t = Instant::now();
        a();
        best_a = best_a.min(t.elapsed());
        let t = Instant::now();
        b();
        best_b = best_b.min(t.elapsed());
    }
    (best_a, best_b)
}

/// Median of per-iteration `b/a` wall-time ratios, each iteration timing
/// the pair in position-balanced order (`a,b,b,a`) — the estimator for
/// ratios *smaller* than this host's noise floor. `interleaved_best`
/// cancels slow drift but keeps two biases that swamp a ≤ 2% quantity:
/// the best-of floor is a race that one lucky scheduling quantum can
/// hand to either side, and the second closure in a fixed-order pair
/// systematically absorbs more deferred host work (measured at +1–3% on
/// a busy 1-core runner with an identical-pipeline control pair). The
/// balanced order cancels the slot bias within each sample and the
/// median discards load-spike outliers. Returns the ratio as a percent
/// (`+1.5` = `b` is 1.5% slower than `a`).
fn interleaved_overhead_pct(iters: u32, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut ratios = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let ta1 = time(&mut a);
        let tb1 = time(&mut b);
        let tb2 = time(&mut b);
        let ta2 = time(&mut a);
        ratios.push((tb1 + tb2) / (ta1 + ta2));
    }
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2] - 1.0) * 100.0
}

/// The shard columns of a row that ran the unsharded driver.
const UNSHARDED: (usize, u64, f64) = (1, 0, 0.0);

/// The store columns (`delta_ratio`, `spilled_extents`, `faulted_extents`)
/// of a row that ran with the plain full-encoding arena.
const PLAIN_STORE: (f64, u64, u64) = (1.0, 0, 0);

/// The store columns of one delta/spill exploration: payload compression
/// ratio (resident + sealed bytes over the full-encoding payload), plus
/// the extent seal and fault-in counters from the report.
fn store_columns(exp: &Exploration) -> (f64, u64, u64) {
    let ratio = exp.arena.byte_len() as f64 / exp.arena.full_payload_bytes().max(1) as f64;
    (ratio, exp.report.spilled_extents, exp.report.faulted_extents)
}

/// The memory columns of one workload: packed bytes/state from the
/// exploration arena, and the mean heap-representation baseline over the
/// same (decoded) states.
fn memory_columns(exp: &Exploration) -> (f64, f64) {
    let packed = exp.bytes_per_state();
    let baseline: usize = exp.arena.iter_decoded().map(|s| baseline_state_bytes(&s)).sum();
    (packed, baseline as f64 / exp.len().max(1) as f64)
}

#[allow(clippy::too_many_arguments)]
fn snapshot_row(
    pipeline: &str,
    workload: &str,
    devices: usize,
    threads: usize,
    states: usize,
    transitions: usize,
    best: Duration,
    memory: (f64, f64),
    rss_delta_mb: f64,
    shard: (usize, u64, f64),
    reduction: &str,
    states_explored_unreduced: usize,
    store: (f64, u64, u64),
) -> ThroughputRow {
    let secs = best.as_secs_f64();
    let states_per_sec = if secs > 0.0 { states as f64 / secs } else { 0.0 };
    ThroughputRow {
        pipeline: pipeline.to_string(),
        workload: workload.to_string(),
        devices,
        threads,
        states,
        transitions,
        elapsed_secs: secs,
        states_per_sec,
        states_per_sec_per_thread: states_per_sec / threads.max(1) as f64,
        bytes_per_state: memory.0,
        baseline_bytes_per_state: memory.1,
        peak_rss_mb: peak_rss_mb(),
        rss_delta_mb,
        shards: shard.0,
        routed_messages: shard.1,
        shard_imbalance_pct: shard.2,
        reduction: reduction.to_string(),
        canon: "off".to_string(),
        states_explored_unreduced,
        delta_ratio: store.0,
        spilled_extents: store.1,
        faulted_extents: store.2,
        // Duplicates over transitions, matching the telemetry stream's
        // per-level figure (the initial state is committed by no
        // transition, hence the −1).
        dedup_hit_rate: if transitions > 0 {
            (1.0 - states.saturating_sub(1) as f64 / transitions as f64).max(0.0)
        } else {
            0.0
        },
        telemetry_overhead_pct: 0.0,
    }
}

fn bench(c: &mut Criterion) {
    let init = workload();
    let init3 = workload_n3();
    let init4 = workload_n4();
    let naive = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
    let opt = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
    let par = ModelChecker::with_options(
        Ruleset::new(ProtocolConfig::strict()),
        CheckOptions { threads: par_threads(), ..CheckOptions::default() },
    );
    let opt3 = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), 3));
    let opt4 = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), 4));

    // Footprint sanity: the self-accounting behind `Report::memory_bytes`
    // (arena payload + offset/base tables + dedup index + parent and
    // successor-count columns) must be corroborated by the OS. Measured
    // on the process's *first* large exploration, where current-RSS
    // growth still tracks the allocation — later runs reuse allocator
    // pages and read near zero, which is why this lives up here and not
    // in the snapshot loop. The factors are generous (allocator slack,
    // transient scratch), but a return to the old under-accounting —
    // offset-table and parents/succ_counts capacity uncounted — trips
    // the floor.
    {
        let rss_before = current_rss_mb();
        let first = opt4.explore(&init4, &[]);
        let rss_growth = current_rss_mb() - rss_before;
        let footprint_mb = first.report.memory_bytes as f64 / (1024.0 * 1024.0);
        assert!(footprint_mb > 0.0, "self-accounted search footprint must be positive");
        if rss_growth > 4.0 {
            assert!(
                footprint_mb >= rss_growth / 8.0,
                "search footprint ({footprint_mb:.1} MiB) under-accounts measured \
                 RSS growth ({rss_growth:.1} MiB)"
            );
            assert!(
                footprint_mb <= rss_growth * 4.0 + 32.0,
                "search footprint ({footprint_mb:.1} MiB) wildly exceeds measured \
                 RSS growth ({rss_growth:.1} MiB)"
            );
        }
    }

    // Pre-measure the space so Criterion throughput is per-state.
    let states = opt.check(&init, &[]).states as u64;

    let mut g = c.benchmark_group("mc_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(states));
    g.bench_with_input(BenchmarkId::new("naive", WORKLOAD), &init, |b, init| {
        b.iter(|| black_box(naive.explore_naive(init, &[]).report.states));
    });
    g.bench_with_input(BenchmarkId::new("optimized", WORKLOAD), &init, |b, init| {
        b.iter(|| black_box(opt.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("optimized_par", WORKLOAD), &init, |b, init| {
        b.iter(|| black_box(par.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("optimized_n3", WORKLOAD_N3), &init3, |b, init| {
        b.iter(|| black_box(opt3.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("optimized_n4", WORKLOAD_N4), &init4, |b, init| {
        b.iter(|| black_box(opt4.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("delta_n4", WORKLOAD_N4), &init4, |b, init| {
        let delta4 = delta_checker_n4();
        b.iter(|| black_box(delta4.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("spill_n4", WORKLOAD_N4), &init4, |b, init| {
        let dir = spill_scratch_dir();
        let spill4 = spill_checker_n4(&dir);
        b.iter(|| black_box(spill4.check(init, &[])));
        let _ = std::fs::remove_dir_all(&dir);
    });
    g.bench_with_input(BenchmarkId::new("checkpoint_n3", WORKLOAD_N3), &init3, |b, init| {
        let ckpt3 = checkpointed_checker_n3();
        b.iter(|| black_box(ckpt3.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("sharded_mt", WORKLOAD), &init, |b, init| {
        let sharded = sharded_checker();
        b.iter(|| black_box(sharded.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("noring_n3", WORKLOAD_N3), &init3, |b, init| {
        let noring3 = noring_checker_n3();
        b.iter(|| black_box(noring3.check(init, &[])));
    });
    g.bench_with_input(BenchmarkId::new("telemetry_n3", WORKLOAD_N3), &init3, |b, init| {
        let tel3 = telemetry_checker_n3(&telemetry_scratch_file());
        b.iter(|| black_box(tel3.check(init, &[])));
    });
    let sym3 = workload_sym(3);
    g.bench_with_input(BenchmarkId::new("reduced_n3", WORKLOAD_SYM), &sym3, |b, init| {
        let red3 = reduced_checker(3, init, sym_only());
        b.iter(|| black_box(red3.check(init, &[])));
    });
    let heavy = workload_store_heavy();
    g.bench_with_input(
        BenchmarkId::new("datasym_n3", WORKLOAD_STORE_HEAVY),
        &heavy,
        |b, init| {
            let red = reduced_checker(
                3,
                init,
                ReductionConfig {
                    symmetry: true,
                    data_symmetry: true,
                    por: cxl_mc::PorMode::Off,
                    canon: cxl_mc::CanonMode::Auto,
                },
            );
            b.iter(|| black_box(red.check(init, &[])));
        },
    );
    g.finish();

    // Durable snapshot: best-of-N per pipeline, speedups vs naive, and
    // the memory columns (measured once per workload — they are
    // deterministic properties of the space, not of the run).
    let iters: u32 =
        std::env::var("CXL_BENCH_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(5);
    let mem2 = memory_columns(&opt.explore(&init, &[]));
    let mem3 = memory_columns(&opt3.explore(&init3, &[]));
    let mem4 = memory_columns(&opt4.explore(&init4, &[]));

    let (n_states, n_trans, n_best, n_rss) = best_of(iters, || {
        let r = naive.explore_naive(&init, &[]).report;
        (r.states, r.transitions)
    });
    let (o_states, o_trans, o_best, o_rss) = best_of(iters, || {
        let r = opt.check(&init, &[]);
        (r.states, r.transitions)
    });
    let (p_states, p_trans, p_best, p_rss) = best_of(iters, || {
        let r = par.check(&init, &[]);
        (r.states, r.transitions)
    });
    let (t_states, t_trans, t_best, t_rss) = best_of(iters, || {
        let r = opt3.check(&init3, &[]);
        (r.states, r.transitions)
    });
    let (q_states, q_trans, q_best, q_rss) = best_of(iters, || {
        let r = opt4.check(&init4, &[]);
        (r.states, r.transitions)
    });
    // The beyond-RAM store rows. `delta_n4` arms parent-delta encoding
    // alone; `spill_n4` adds cold-extent spill at a zero watermark (every
    // completed level below the frontier's decode floor goes to disk).
    // Memory and store columns come from one explore each — they are
    // deterministic properties of the space and options, not of timing.
    let delta4 = delta_checker_n4();
    let (mem_delta4, delta_store) = {
        let exp = delta4.explore(&init4, &[]);
        (memory_columns(&exp), store_columns(&exp))
    };
    let (e_states, e_trans, e_best, e_rss) = best_of(iters, || {
        let r = delta4.check(&init4, &[]);
        (r.states, r.transitions)
    });
    let spill_scratch = spill_scratch_dir();
    let spill4 = spill_checker_n4(&spill_scratch);
    let (mem_spill4, spill_store) = {
        let exp = spill4.explore(&init4, &[]);
        (memory_columns(&exp), store_columns(&exp))
    };
    let (z_states, z_trans, z_best, z_rss) = best_of(iters, || {
        let r = spill4.check(&init4, &[]);
        (r.states, r.transitions)
    });
    let _ = std::fs::remove_dir_all(&spill_scratch);
    let ckpt3 = checkpointed_checker_n3();
    let (c_states, c_trans, c_best, c_rss) = best_of(iters, || {
        let r = ckpt3.check(&init3, &[]);
        (r.states, r.transitions)
    });
    assert_eq!(
        (t_states, t_trans),
        (c_states, c_trans),
        "checkpointing must not perturb the search"
    );
    // The dedicated threads > 1 row (see mt_threads), measured only when
    // optimized_par would otherwise run single-threaded — on multi-core
    // hosts it would duplicate that row exactly.
    let mt_row = (par_threads() == 1).then(|| {
        let mt = ModelChecker::with_options(
            Ruleset::new(ProtocolConfig::strict()),
            CheckOptions { threads: mt_threads(), ..CheckOptions::default() },
        );
        let (m_states, m_trans, m_best, m_rss) = best_of(iters, || {
            let r = mt.check(&init, &[]);
            (r.states, r.transitions)
        });
        assert_eq!((n_states, n_trans), (m_states, m_trans), "pipelines must agree");
        snapshot_row(
            "optimized_mt",
            WORKLOAD,
            2,
            mt_threads(),
            m_states,
            m_trans,
            m_best,
            mem2,
            m_rss,
            UNSHARDED,
            "none",
            m_states,
            PLAIN_STORE,
        )
    });
    // The shard-owned driver's row (see sharded_checker): routed-message
    // and imbalance columns come from one extra run — they are
    // deterministic properties of the routing, not of the timing.
    let sharded = sharded_checker();
    let shard_cols = {
        let r = sharded.check(&init, &[]);
        (r.shards, r.routed_messages, r.shard_imbalance_pct)
    };
    let (s_states, s_trans, s_best, s_rss) = best_of(iters, || {
        let r = sharded.check(&init, &[]);
        (r.states, r.transitions)
    });
    // The ring-disabled N = 3 control row (see noring_checker_n3).
    let noring3 = noring_checker_n3();
    let (x_states, x_trans, x_best, x_rss) = best_of(iters, || {
        let r = noring3.check(&init3, &[]);
        (r.states, r.transitions)
    });
    // The recorder-attached N = 3 row (see telemetry_checker_n3). Its
    // overhead figure comes from an interleaved pairing against the
    // recorder-off pipeline, not from two rows timed apart.
    let telemetry_file = telemetry_scratch_file();
    let tel3 = telemetry_checker_n3(&telemetry_file);
    let (y_states, y_trans, y_best, y_rss) = best_of(iters, || {
        let r = tel3.check(&init3, &[]);
        (r.states, r.transitions)
    });
    assert_eq!(
        (t_states, t_trans),
        (y_states, y_trans),
        "the telemetry recorder must not perturb the search"
    );
    // The position-balanced median estimator, not `interleaved_best`:
    // the quantity under test is a ≤ 2% bar, below this host's best-of
    // jitter (see `interleaved_overhead_pct`). A deep iteration floor
    // is affordable — each sample is four ~15 ms runs.
    let telemetry_overhead_pct = interleaved_overhead_pct(
        iters.max(96),
        || {
            black_box(opt3.check(&init3, &[]).states);
        },
        || {
            black_box(tel3.check(&init3, &[]).states);
        },
    );
    println!("telemetry overhead [N=3, recorder on vs off]: {telemetry_overhead_pct:+.2}%");
    let _ = std::fs::remove_file(&telemetry_file);
    assert_eq!((n_states, n_trans), (o_states, o_trans), "pipelines must agree");
    assert_eq!((n_states, n_trans), (p_states, p_trans), "pipelines must agree");
    assert_eq!((n_states, n_trans), (s_states, s_trans), "pipelines must agree");
    assert_eq!(
        (t_states, t_trans),
        (x_states, x_trans),
        "the frontier ring must not perturb the search"
    );
    assert!(t_states > n_states, "the 3-device space must dwarf the 2-device one");
    assert!(q_states > t_states, "the 4-device space must dwarf the 3-device one");
    assert_eq!(
        (q_states, q_trans),
        (e_states, e_trans),
        "delta encoding must not perturb the search"
    );
    assert_eq!(
        (q_states, q_trans),
        (z_states, z_trans),
        "cold-extent spill must not perturb the search"
    );
    assert!(
        delta_store.0 < 0.75 && mem_delta4.0 < mem4.0,
        "parent-delta must compress the stored N=4 payload \
         (ratio {:.3}, delta {:.1} B/state vs plain {:.1})",
        delta_store.0,
        mem_delta4.0,
        mem4.0,
    );
    assert!(spill_store.1 > 0, "the zero-watermark spill row must seal extents");
    assert!(
        mem_spill4.0 * 2.0 <= mem4.0,
        "delta + spill must at least halve the resident N=4 bytes/state \
         (spill {:.1} vs plain {:.1})",
        mem_spill4.0,
        mem4.0,
    );

    // Reduced-mode rows: symmetric strict grids at N = 2..4, symmetry
    // canonicalization on, verdictwise identical to the unreduced sweep.
    // The unreduced state count of each workload is measured once (the
    // space is deterministic) for the reduction-ratio column.
    let mut reduced_rows = Vec::new();
    for n in 2..=4usize {
        let init_sym = workload_sym(n);
        let unreduced = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), n))
            .explore(&init_sym, &[]);
        let red_mc = reduced_checker(n, &init_sym, sym_only());
        let mem_red = memory_columns(&red_mc.explore(&init_sym, &[]));
        let (r_states, r_trans, r_best, r_rss) = best_of(iters, || {
            let r = red_mc.check(&init_sym, &[]);
            (r.states, r.transitions)
        });
        assert!(
            r_states < unreduced.report.states,
            "symmetry must shrink the N={n} symmetric grid"
        );
        reduced_rows.push(snapshot_row(
            &format!("reduced_n{n}"),
            WORKLOAD_SYM,
            n,
            1,
            r_states,
            r_trans,
            r_best,
            mem_red,
            r_rss,
            UNSHARDED,
            "symmetry",
            unreduced.report.states,
            PLAIN_STORE,
        ));
    }

    // The PR 5 headline rows. `datasym_n3`: the store-heavy asymmetric
    // grid whose byte-equality group is trivial (PR 4 inert) — the
    // data-symmetry engine is the sole contributor, riding on
    // `symmetry: true` for its value-blind joint permutations.
    // `widepor_n3`: the symmetric grid with the widened POR tier
    // stacked on device symmetry — the figure that must beat PR 4's
    // symmetry-only 16.8%.
    {
        let heavy = workload_store_heavy();
        let unreduced = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), 3))
            .explore(&heavy, &[]);
        let cfg = ReductionConfig {
            symmetry: true,
            data_symmetry: true,
            por: cxl_mc::PorMode::Off,
            canon: cxl_mc::CanonMode::Auto,
        };
        let red_mc = reduced_checker(3, &heavy, cfg);
        let mem_red = memory_columns(&red_mc.explore(&heavy, &[]));
        let (r_states, r_trans, r_best, r_rss) = best_of(iters, || {
            let r = red_mc.check(&heavy, &[]);
            (r.states, r.transitions)
        });
        assert!(
            r_states * 2 <= unreduced.report.states,
            "data symmetry must at least halve the store-heavy grid"
        );
        let mut row = snapshot_row(
            "datasym_n3",
            WORKLOAD_STORE_HEAVY,
            3,
            1,
            r_states,
            r_trans,
            r_best,
            mem_red,
            r_rss,
            UNSHARDED,
            "data-symmetry",
            unreduced.report.states,
            PLAIN_STORE,
        );
        row.canon = canon_of(3, &heavy, cfg);
        reduced_rows.push(row);

        let sym3 = workload_sym(3);
        let unreduced_sym = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), 3))
            .explore(&sym3, &[]);
        let cfg = ReductionConfig {
            symmetry: true,
            data_symmetry: false,
            por: cxl_mc::PorMode::Wide,
            canon: cxl_mc::CanonMode::Auto,
        };
        let red_mc = reduced_checker(3, &sym3, cfg);
        let mem_red = memory_columns(&red_mc.explore(&sym3, &[]));
        let (r_states, r_trans, r_best, r_rss) = best_of(iters, || {
            let r = red_mc.check(&sym3, &[]);
            (r.states, r.transitions)
        });
        assert!(
            r_states * 1000 < unreduced_sym.report.states * 168,
            "symmetry + wide POR must beat the 16.8% symmetry-only figure"
        );
        reduced_rows.push(snapshot_row(
            "widepor_n3",
            WORKLOAD_SYM,
            3,
            1,
            r_states,
            r_trans,
            r_best,
            mem_red,
            r_rss,
            UNSHARDED,
            "symmetry+por(wide)",
            unreduced_sym.report.states,
            PLAIN_STORE,
        ));
    }

    // This PR's canonical-labelling rows. `symrefine_n4`: the N = 4
    // symmetric grid under the full joint engine with the refine
    // labeller pinned — directly comparable to reduced_n4 (byte-sort
    // path) and to the retired brute enumeration. `sym_n6`: the
    // all-distinct single-store hexad whose 720 value-blind
    // arrangements the brute canonicalizer cannot enumerate per
    // successor in reasonable time; `auto` must select refine and
    // finish. The unreduced N = 6 space is not measurable, so that
    // row's states_explored_unreduced carries its own state count
    // (ratio 1.0 = unmeasured), not a measured baseline.
    {
        let sym4 = workload_sym(4);
        let unreduced = ModelChecker::new(Ruleset::with_devices(ProtocolConfig::strict(), 4))
            .explore(&sym4, &[]);
        let cfg = ReductionConfig {
            symmetry: true,
            data_symmetry: true,
            por: cxl_mc::PorMode::Off,
            canon: cxl_mc::CanonMode::Refine,
        };
        let red_mc = reduced_checker(4, &sym4, cfg);
        let mem_red = memory_columns(&red_mc.explore(&sym4, &[]));
        let (r_states, r_trans, r_best, r_rss) = best_of(iters, || {
            let r = red_mc.check(&sym4, &[]);
            (r.states, r.transitions)
        });
        assert!(
            r_states < unreduced.report.states,
            "the refine labeller must shrink the N=4 symmetric grid"
        );
        let mut row = snapshot_row(
            "symrefine_n4",
            WORKLOAD_SYM,
            4,
            1,
            r_states,
            r_trans,
            r_best,
            mem_red,
            r_rss,
            UNSHARDED,
            "symmetry+data-symmetry",
            unreduced.report.states,
            PLAIN_STORE,
        );
        row.canon = canon_of(4, &sym4, cfg);
        assert_eq!(row.canon, "refine", "the pinned labeller must be selected");
        reduced_rows.push(row);

        let hex = workload_hex();
        let cfg = ReductionConfig {
            symmetry: true,
            data_symmetry: true,
            por: cxl_mc::PorMode::Wide,
            canon: cxl_mc::CanonMode::Auto,
        };
        let red_mc = reduced_checker(6, &hex, cfg);
        let mem_red = memory_columns(&red_mc.explore(&hex, &[]));
        let (r_states, r_trans, r_best, r_rss) = best_of(iters, || {
            let r = red_mc.check(&hex, &[]);
            (r.states, r.transitions)
        });
        let mut row = snapshot_row(
            "sym_n6",
            WORKLOAD_HEX,
            6,
            1,
            r_states,
            r_trans,
            r_best,
            mem_red,
            r_rss,
            UNSHARDED,
            "data-symmetry+por(wide)",
            r_states,
            PLAIN_STORE,
        );
        row.canon = canon_of(6, &hex, cfg);
        assert_eq!(row.canon, "refine", "auto must pick refine for the hexad");
        reduced_rows.push(row);
    }

    let mut rows = vec![
        snapshot_row("naive", WORKLOAD, 2, 1, n_states, n_trans, n_best, mem2, n_rss, UNSHARDED, "none", n_states, PLAIN_STORE),
        snapshot_row(
            "optimized",
            WORKLOAD,
            2,
            1,
            o_states,
            o_trans,
            o_best,
            mem2,
            o_rss,
            UNSHARDED,
            "none",
            o_states,
            PLAIN_STORE,
        ),
        snapshot_row(
            "optimized_par",
            WORKLOAD,
            2,
            par_threads(),
            p_states,
            p_trans,
            p_best,
            mem2,
            p_rss,
            UNSHARDED,
            "none",
            p_states,
            PLAIN_STORE,
        ),
        snapshot_row(
            "optimized_n3",
            WORKLOAD_N3,
            3,
            1,
            t_states,
            t_trans,
            t_best,
            mem3,
            t_rss,
            UNSHARDED,
            "none",
            t_states,
            PLAIN_STORE,
        ),
        snapshot_row(
            "optimized_n4",
            WORKLOAD_N4,
            4,
            1,
            q_states,
            q_trans,
            q_best,
            mem4,
            q_rss,
            UNSHARDED,
            "none",
            q_states,
            PLAIN_STORE,
        ),
        snapshot_row(
            "delta_n4",
            WORKLOAD_N4,
            4,
            1,
            e_states,
            e_trans,
            e_best,
            mem_delta4,
            e_rss,
            UNSHARDED,
            "none",
            e_states,
            delta_store,
        ),
        snapshot_row(
            "spill_n4",
            WORKLOAD_N4,
            4,
            1,
            z_states,
            z_trans,
            z_best,
            mem_spill4,
            z_rss,
            UNSHARDED,
            "none",
            z_states,
            spill_store,
        ),
        snapshot_row(
            "checkpoint_n3",
            WORKLOAD_N3,
            3,
            1,
            c_states,
            c_trans,
            c_best,
            mem3,
            c_rss,
            UNSHARDED,
            "none",
            c_states,
            PLAIN_STORE,
        ),
        snapshot_row(
            "sharded_mt",
            WORKLOAD,
            2,
            mt_threads(),
            s_states,
            s_trans,
            s_best,
            mem2,
            s_rss,
            shard_cols,
            "none",
            s_states,
            PLAIN_STORE,
        ),
        snapshot_row(
            "noring_n3",
            WORKLOAD_N3,
            3,
            1,
            x_states,
            x_trans,
            x_best,
            mem3,
            x_rss,
            UNSHARDED,
            "none",
            x_states,
            PLAIN_STORE,
        ),
        {
            let mut row = snapshot_row(
                "telemetry_n3",
                WORKLOAD_N3,
                3,
                1,
                y_states,
                y_trans,
                y_best,
                mem3,
                y_rss,
                UNSHARDED,
                "none",
                y_states,
                PLAIN_STORE,
            );
            row.telemetry_overhead_pct = telemetry_overhead_pct;
            row
        },
    ];
    rows.extend(mt_row);
    rows.extend(reduced_rows);
    let snapshot = BenchSnapshot::new(
        "mc_throughput",
        format!(
            "best of {iters} runs; optimized_par uses {} worker threads; on \
             single-core hosts an optimized_mt row forces {} threads so a \
             threads > 1 measurement of the packed chunk protocol is always \
             recorded; release profile; clean exhaustive runs (no violations); \
             optimized_n3/_n4 explore 3-/4-device topologies sequentially; \
             reduced_n2..4 run symmetry canonicalization over the symmetric \
             [S7,L]xN strict grid, datasym_n3 arms data-symmetry on top of \
             device symmetry over a store-heavy asymmetric grid (the \
             byte-equality group is trivial there, so the value engine is the \
             sole contributor, but --symmetry auto is required: the value-blind \
             joint permutations ride on the device-permutation machinery), and \
             widepor_n3 stacks the widened POR tier on device symmetry, each \
             with states_explored_unreduced the measured \
             unreduced count of the same workload; symrefine_n4 pins the \
             partition-refinement labeller on the N=4 symmetric grid under \
             the full joint engine, and sym_n6 runs the all-distinct \
             single-store hexad (720 value-blind arrangements) that only the \
             refine labeller makes tractable — its states_explored_unreduced \
             is its own state count since the unreduced N=6 space is \
             unmeasurable; every row's canon column names the orbit \
             canonicalizer that backed it (off/refine/brute/capped); \
             checkpoint_n3 re-runs the \
             optimized_n3 workload with checkpointing armed at the default \
             interval (one final checkpoint write per run) — its gap to \
             optimized_n3 is the resilience layer's overhead; sharded_mt runs \
             the shard-owned parallel driver with threads = shards = 2 — its \
             routed_messages and shard_imbalance_pct columns record the \
             fingerprint routing; noring_n3 re-runs the optimized_n3 workload \
             with the decoded-frontier ring disabled (frontier_ring: 0), so \
             its gap to optimized_n3 is the ring's measured win; telemetry_n3 \
             re-runs it with the metrics recorder attached (JSONL sink, \
             heartbeat off) and carries telemetry_overhead_pct, the \
             interleaved on-vs-off wall-time cost (0.0 on rows that made no \
             such measurement); every row carries dedup_hit_rate, duplicates \
             over transitions; bytes_per_state is the packed \
             StateArena payload, baseline_bytes_per_state the heap \
             Arc<SystemState> estimate it replaced; peak_rss_mb is process VmHWM \
             at row-record time (monotone within a run), rss_delta_mb the \
             per-row VmRSS growth across that row's own timed iterations; \
             delta_n4 re-runs the optimized_n4 workload with parent-delta \
             encoding (keyframe 16) — delta_ratio is its stored payload over \
             the full-encoding payload — and spill_n4 adds cold-extent spill \
             at a zero resident watermark, recording spilled_extents and \
             faulted_extents (plain rows carry 1.0 / 0 / 0)",
            par_threads(),
            mt_threads()
        ),
        rows,
    );
    match snapshot.write() {
        Ok(path) => println!("snapshot written to {}", path.display()),
        Err(e) => eprintln!("snapshot write failed: {e}"),
    }
    for (pipeline, ratio) in &snapshot.speedup_vs_baseline {
        println!("speedup vs naive [{pipeline}]: {ratio:.2}x");
    }
    // The three headline ratios are re-timed as interleaved pairs (see
    // `interleaved_best`): the snapshot rows above keep the per-row
    // best-of-N figures, but a *ratio* of two rows timed minutes apart
    // is dominated by host-load drift, not by the pipelines.
    let (rt_t, rt_c) = interleaved_best(
        iters.max(8),
        || {
            black_box(opt3.check(&init3, &[]).states);
        },
        || {
            black_box(ckpt3.check(&init3, &[]).states);
        },
    );
    println!(
        "checkpoint overhead [N=3, default interval]: {:+.2}%",
        (rt_c.as_secs_f64() / rt_t.as_secs_f64() - 1.0) * 100.0
    );
    let (rr_t, rr_x) = interleaved_best(
        iters.max(8),
        || {
            black_box(opt3.check(&init3, &[]).states);
        },
        || {
            black_box(noring3.check(&init3, &[]).states);
        },
    );
    println!(
        "frontier ring win [N=3, ring off vs on]: {:+.2}%",
        (rr_x.as_secs_f64() / rr_t.as_secs_f64() - 1.0) * 100.0
    );
    // Per-thread efficiency normalizes by the parallelism the host can
    // actually grant: on a one-core runner two workers timeshare one
    // core, so the fair per-thread baseline divides by one, not two —
    // what the figure then measures is pure protocol overhead
    // (efficiency 0.91x ⇔ the sharded run is 10% behind sequential).
    let granted = mt_threads()
        .min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    let (re_o, re_s) = interleaved_best(
        iters.max(40),
        || {
            black_box(opt.check(&init, &[]).states);
        },
        || {
            black_box(sharded.check(&init, &[]).states);
        },
    );
    println!(
        "sharded routing [threads={} shards={}]: {} messages, {:.1}% imbalance, \
         per-thread efficiency {:.2}x of single-thread ({} of {} workers granted a core)",
        mt_threads(),
        shard_cols.0,
        shard_cols.1,
        shard_cols.2,
        (s_states as f64 / re_s.as_secs_f64() / granted as f64)
            / (o_states as f64 / re_o.as_secs_f64()),
        granted,
        mt_threads(),
    );
    for row in &snapshot.rows {
        println!(
            "memory [{} N={}]: {:.1} B/state packed vs {:.1} B/state heap baseline ({:.1}x)",
            row.pipeline,
            row.devices,
            row.bytes_per_state,
            row.baseline_bytes_per_state,
            row.baseline_bytes_per_state / row.bytes_per_state.max(1e-9),
        );
        if row.reduction != "none" {
            // A row whose unreduced count is its own state count carries
            // the unmeasured sentinel (sym_n6): there is no ratio to print.
            if row.states_explored_unreduced == row.states {
                println!(
                    "reduction [{} N={}]: {} states (unreduced count not measured, {})",
                    row.pipeline, row.devices, row.states, row.reduction,
                );
            } else {
                println!(
                    "reduction [{} N={}]: {} of {} unreduced states ({:.1}x smaller, {})",
                    row.pipeline,
                    row.devices,
                    row.states,
                    row.states_explored_unreduced,
                    row.states_explored_unreduced as f64 / row.states.max(1) as f64,
                    row.reduction,
                );
            }
        }
        if row.delta_ratio < 1.0 || row.spilled_extents > 0 {
            println!(
                "store [{} N={}]: delta ratio {:.3}, {} extents sealed, {} faulted",
                row.pipeline,
                row.devices,
                row.delta_ratio,
                row.spilled_extents,
                row.faulted_extents,
            );
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
