//! Beyond-RAM state store guarantees: parent-delta encoding and
//! cold-extent spilling must be *invisible* to results.
//!
//! The acceptance bar: an N=4 strict grid that truncates under a
//! deliberately small `mem_budget` completes un-truncated with
//! delta+spill armed, with verdict, state set, and traces bit-identical
//! to the unrestricted run; checkpoint→resume works across the reduction
//! matrix with a spill dir active; a multi-shard delta store merges to
//! the one-shard run's exact arena, inline and on two threads' pooled
//! phases; and at one shard the whole ladder
//! (deltas, a spill and a checkpoint every level) completes the N=4 grid
//! under 8 MiB with a pinned shed and emergency checkpoint.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{Invariant, ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::litmus::replay_trace;
use cxl_repro::mc::{
    CheckOptions, CheckpointPolicy, DegradationAction, Exploration, FlightEvent, InvariantProperty,
    LevelRecord, ModelChecker, Recorder, Reducer, Reduction, ReductionConfig, RunSummary,
    SwmrProperty,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::all_engine_combos;

/// Fresh per-test scratch dir (no tempfile crate in the tree).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-spill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn explore_with(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    opts: CheckOptions,
) -> Exploration {
    ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts).explore(init, &[&SwmrProperty])
}

/// Delta+spill options: keyframe every 8 ancestors, spill every
/// completed level (watermark 0) into `dir`.
fn compressed_opts(dir: &std::path::Path) -> CheckOptions {
    CheckOptions {
        delta_keyframe: 8,
        spill_dir: Some(dir.to_path_buf()),
        spill_budget: Some(0),
        ..CheckOptions::default()
    }
}

/// The results-facing equality bar: everything a consumer can observe
/// must match, with states compared by *materialized* full encodings
/// (a delta arena is a different container than a plain one, but must
/// hold the identical state sequence).
fn assert_same_results(plain: &Exploration, compressed: &Exploration, ctx: &str) {
    let (p, c) = (&plain.report, &compressed.report);
    assert_eq!(p.states, c.states, "{ctx}: state count");
    assert_eq!(p.transitions, c.transitions, "{ctx}: transition count");
    assert_eq!(p.depth, c.depth, "{ctx}: depth");
    assert_eq!(p.terminal_states, c.terminal_states, "{ctx}: terminals");
    assert_eq!(p.violations.len(), c.violations.len(), "{ctx}: violations");
    assert_eq!(p.deadlocks.len(), c.deadlocks.len(), "{ctx}: deadlocks");
    assert_eq!(p.rule_firings, c.rule_firings, "{ctx}: firing counts");
    assert_eq!(
        plain.successor_counts, compressed.successor_counts,
        "{ctx}: successor counts"
    );
    let (mut pb, mut cb) = (Vec::new(), Vec::new());
    for id in 0..plain.arena.len() {
        pb.clear();
        cb.clear();
        plain.arena.append_full_bytes(id, &mut pb);
        compressed.arena.append_full_bytes(id, &mut cb);
        assert_eq!(pb, cb, "{ctx}: state {id} materializes differently");
    }
    for (pv, cv) in p.violations.iter().zip(&c.violations) {
        assert_eq!(pv.property, cv.property, "{ctx}: violated property");
        assert_eq!(pv.detail, cv.detail, "{ctx}: violation detail");
        assert_eq!(pv.trace.steps.len(), cv.trace.steps.len(), "{ctx}: trace length");
        for (ps, cs) in pv.trace.steps.iter().zip(&cv.trace.steps) {
            assert_eq!(ps.rule, cs.rule, "{ctx}: trace rule");
            assert_eq!(ps.state, cs.state, "{ctx}: trace state");
        }
    }
}

/// The N=4 strict grid of the acceptance criterion: ~67k unreduced
/// states — big enough that a small budget truncates the plain store,
/// small enough for a debug-mode test binary.
fn n4_grid() -> SystemState {
    SystemState::initial_n(
        4,
        vec![
            programs::store(1),
            programs::store(2),
            programs::loads(1),
            programs::loads(1),
        ],
    )
}

/// A mixed N=3 grid (~3.4k states) for the cheaper equivalence suites.
fn n3_grid() -> SystemState {
    SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2)].into(),
            programs::loads(1),
        ],
    )
}

/// The N=3 grid [S1,L]×[S2,L]×[L,L] (11,727 states under the strict
/// configuration): wide enough that at two threads its middle levels
/// expand, dedup and check on scoped workers.
fn wide_n3_grid() -> SystemState {
    SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2), Instruction::Load].into(),
            programs::loads(2),
        ],
    )
}

/// Collects the level records of a run.
#[derive(Default)]
struct Levels(Mutex<Vec<LevelRecord>>);

impl Recorder for Levels {
    fn record_level(&self, record: &LevelRecord) {
        self.0.lock().expect("recorder lock").push(record.clone());
    }
    fn record_event(&self, _event: &FlightEvent) {}
    fn finish(&self, _summary: &RunSummary) {}
}

#[test]
fn small_budget_truncates_plain_but_completes_with_delta_spill() {
    let cfg = ProtocolConfig::strict();
    let init = n4_grid();
    let unrestricted = explore_with(cfg, 4, &init, CheckOptions::default());
    assert!(!unrestricted.report.truncated, "baseline must cover the space");
    assert!(unrestricted.report.states > 10_000, "grid big enough to stress the store");

    // A budget at 60% of the real footprint: the plain store must hit
    // the ladder's hard rung (shrinking slack alone cannot save it),
    // while the compressed store's resident set fits with room.
    let budget = unrestricted.report.memory_bytes * 6 / 10;
    let plain = explore_with(
        cfg,
        4,
        &init,
        CheckOptions { mem_budget: Some(budget), ..CheckOptions::default() },
    );
    assert!(plain.report.truncated_by_memory, "small budget must truncate the plain store");
    assert!(plain.report.states < unrestricted.report.states);

    // Same budget, delta+spill armed: the resident footprint stays
    // under it and the exploration completes with identical results.
    let dir = scratch("acceptance");
    let compressed = explore_with(
        cfg,
        4,
        &init,
        CheckOptions { mem_budget: Some(budget), ..compressed_opts(&dir) },
    );
    assert!(
        !compressed.report.truncated,
        "delta+spill must complete under the budget that truncated the plain store \
         (resident {} of budget {budget})",
        compressed.report.memory_bytes
    );
    assert!(compressed.report.delta_entries > 0, "delta encoding engaged");
    assert!(compressed.report.spilled_extents > 0, "spilling engaged");
    assert_same_results(&unrestricted, &compressed, "acceptance");
    // Parent deltas alone cut the stored payload, resident and sealed
    // together, below 3/4 of the full encodings it replaces.
    let (stored, full) = (compressed.arena.byte_len(), compressed.arena.full_payload_bytes());
    assert!(stored * 4 < full * 3, "delta payload {stored} B is not under 3/4 of {full} B");

    // The compressed resident store really is smaller per state — at
    // least 2× under the PR 7 N=4 snapshot's 46.669 B/state (and under
    // half of the plain baseline measured right here).
    assert!(
        compressed.bytes_per_state() < 46.669 / 2.0,
        "resident bytes/state must halve the PR 7 snapshot: {}",
        compressed.bytes_per_state()
    );
    assert!(
        compressed.bytes_per_state() * 2.0 < unrestricted.bytes_per_state(),
        "compressed store must at least halve resident bytes/state: {} vs {}",
        compressed.bytes_per_state(),
        unrestricted.bytes_per_state()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn violation_traces_replay_identically_through_spilled_extents() {
    // Trace rebuilding walks parent links back through sealed extents —
    // the fault-in path must hand back exactly the stored encodings.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial_n(
        3,
        vec![programs::store(42), programs::load(), programs::loads(1)],
    );
    let plain = explore_with(cfg, 3, &init, CheckOptions::default());
    assert!(!plain.report.violations.is_empty(), "SnoopPushesGo grid must violate SWMR");

    let dir = scratch("replay");
    let compressed = explore_with(cfg, 3, &init, compressed_opts(&dir));
    assert!(compressed.report.spilled_extents > 0, "spilling engaged");
    assert_same_results(&plain, &compressed, "replay");
    let rules = Ruleset::with_devices(cfg, 3);
    for v in &compressed.report.violations {
        replay_trace(&rules, &v.trace).expect("trace from a spilled store replays");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_rerun_with_spill_is_bit_identical() {
    // Two delta+spill runs of the same grid must agree with each other
    // byte for byte (fault-in is deterministic), not just with plain.
    let cfg = ProtocolConfig::strict();
    let init = n3_grid();
    let (d1, d2) = (scratch("det-a"), scratch("det-b"));
    let a = explore_with(cfg, 3, &init, compressed_opts(&d1));
    let b = explore_with(cfg, 3, &init, compressed_opts(&d2));
    assert_eq!(a.report.states, b.report.states);
    assert_eq!(a.report.delta_entries, b.report.delta_entries);
    assert_eq!(a.report.spilled_extents, b.report.spilled_extents);
    assert_same_results(&a, &b, "determinism");
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}

#[test]
fn sharded_delta_spill_merges_to_the_sequential_arena() {
    let cfg = ProtocolConfig::strict();
    let init = n3_grid();
    let baseline = explore_with(cfg, 3, &init, CheckOptions::default());
    for shards in [2usize, 4] {
        let dir = scratch(&format!("sharded-{shards}"));
        let sharded = explore_with(
            cfg,
            3,
            &init,
            CheckOptions { shards: Some(shards), ..compressed_opts(&dir) },
        );
        let ctx = format!("shards={shards}");
        assert!(sharded.report.delta_entries > 0, "{ctx}: delta engaged across shards");
        assert!(sharded.report.spilled_extents > 0, "{ctx}: spilling engaged across shards");
        // The merged arena materializes to the one-shard run's exact
        // byte layout, so plain arena equality applies.
        assert_eq!(baseline.arena, sharded.arena, "{ctx}: merged arena");
        assert_same_results(&baseline, &sharded, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn delta_spill_at_two_threads_matches_one_thread() {
    // At two threads the wide levels run as pooled phases over the
    // compressed store: workers decode parents and fresh states straight
    // from the shared store, materializing delta chains, and each shard
    // owner resolves its successors' delta bases against the global
    // directory. Pooled phases read only states above the spill floor,
    // so they fault no extent. Deltas and spills are per shard, so their
    // counts differ from the one-thread run; every result must not.
    let strict = ProtocolConfig::strict();
    let relaxed = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    for (name, cfg) in [("strict", strict), ("snoop-pushes-go", relaxed)] {
        let init = wide_n3_grid();
        // The single run's arena reads its sealed extents until the end.
        let single_dir = scratch(&format!("mt-{name}-1"));
        let single = explore_with(
            cfg,
            3,
            &init,
            CheckOptions { threads: 1, ..compressed_opts(&single_dir) },
        );
        if cfg == strict {
            assert_eq!(single.report.states, 11_727, "{name}: strict grid size");
            assert!(single.report.clean(), "{name}: {}", single.report);
        } else {
            assert!(!single.report.violations.is_empty(), "{name}: the grid must violate SWMR");
        }
        for shards in [2usize, 3] {
            let ctx = format!("{name} threads=2 shards={shards}");
            let dir = scratch(&format!("mt-{name}-{shards}"));
            let levels = Arc::new(Levels::default());
            let pooled = explore_with(
                cfg,
                3,
                &init,
                CheckOptions {
                    threads: 2,
                    shards: Some(shards),
                    telemetry: Some(levels.clone()),
                    ..compressed_opts(&dir)
                },
            );
            assert_same_results(&single, &pooled, &ctx);
            assert!(pooled.report.delta_entries > 0, "{ctx}: delta encoding engaged");
            assert!(pooled.report.spilled_extents > 0, "{ctx}: spilling engaged");
            if cfg == strict {
                assert_eq!(pooled.report.faulted_extents, 0, "{ctx}: a pooled phase faulted");
            }
            let owned = levels
                .0
                .lock()
                .expect("recorder lock")
                .iter()
                .filter(|l| l.shards.as_ref().is_some_and(|s| !s.queue_depths.is_empty()))
                .count();
            assert!(owned > 0, "{ctx}: no level deduped on its shard owners");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&single_dir);
    }
}

#[test]
fn checkpoint_resume_with_spill_matches_across_reduction_matrix() {
    // The resilience contract survives store compression: interrupt a
    // delta+spill run at a level boundary, resume it (delta+spill still
    // armed, fresh checker), and land byte-identical to an
    // uninterrupted *plain* exploration — for every engine combo.
    let cfg = ProtocolConfig::strict();
    let n = 3;
    let init = n3_grid();
    let eager = |dir: &std::path::Path| {
        let mut policy = CheckpointPolicy::new(dir);
        policy.every = Duration::ZERO;
        policy
    };
    let reducer_for = |combo: Option<ReductionConfig>| -> Option<Arc<dyn Reducer>> {
        let combo = combo?;
        let red = Reduction::new(&Ruleset::with_devices(cfg, n), &init, combo);
        red.is_active().then(|| Arc::new(red) as Arc<dyn Reducer>)
    };
    let combos: Vec<Option<ReductionConfig>> =
        std::iter::once(None).chain(all_engine_combos().into_iter().map(Some)).collect();
    for (i, combo) in combos.iter().enumerate() {
        let ctx = format!("combo#{i} {combo:?}");
        let baseline = explore_with(
            cfg,
            n,
            &init,
            CheckOptions { reduction: reducer_for(*combo), ..CheckOptions::default() },
        );
        assert!(!baseline.report.truncated, "{ctx}: baseline must complete");
        let cut = baseline.report.depth / 2;
        assert!(cut >= 1, "{ctx}: grid too shallow to interrupt");

        let ckpt = scratch(&format!("matrix-ckpt-{i}"));
        let spill = scratch(&format!("matrix-spill-{i}"));
        let interrupted = explore_with(
            cfg,
            n,
            &init,
            CheckOptions {
                max_depth: Some(cut),
                checkpoint: Some(eager(&ckpt)),
                reduction: reducer_for(*combo),
                ..compressed_opts(&spill)
            },
        );
        assert!(interrupted.report.truncated, "{ctx}: interruption must truncate");
        drop(interrupted);

        // Resume into a *fresh spill dir*: checkpoints materialize full
        // encodings, so the writer's extent files are never needed.
        let spill2 = scratch(&format!("matrix-spill2-{i}"));
        let _ = std::fs::remove_dir_all(&spill);
        let resumed = ModelChecker::with_options(
            Ruleset::with_devices(cfg, n),
            CheckOptions {
                checkpoint: Some(eager(&ckpt)),
                reduction: reducer_for(*combo),
                ..compressed_opts(&spill2)
            },
        )
        .explore_resumed(&[&SwmrProperty])
        .expect("resume a delta+spill run");
        assert!(resumed.report.resumed_from.is_some(), "{ctx}: must mark resumption");
        assert_same_results(&baseline, &resumed, &ctx);
        let _ = std::fs::remove_dir_all(&ckpt);
        let _ = std::fs::remove_dir_all(&spill2);
    }
}

#[test]
fn one_shard_ladder_completes_the_n4_grid_under_an_eight_mib_budget() {
    // The beyond-RAM ladder at one thread (one shard, no pool): delta
    // keyframe 8, a spill watermark of 0, and a checkpoint at every
    // level, under an 8 MiB budget, checking SWMR and the §6 invariant.
    // The store must cost no more than one plain arena: anything extra
    // (a global-id directory, merged copies for checkpoints) moves the
    // ladder or truncates the run.
    let cfg = ProtocolConfig::strict();
    let (spill, ckpt) = (scratch("ladder-spill"), scratch("ladder-ckpt"));
    let mut policy = CheckpointPolicy::new(&ckpt);
    policy.every = Duration::ZERO;
    let opts = CheckOptions {
        threads: 1,
        mem_budget: Some(8 * 1024 * 1024),
        checkpoint: Some(policy),
        ..compressed_opts(&spill)
    };
    let invariant = InvariantProperty::new(Invariant::for_devices(&cfg, 4));
    let exp = ModelChecker::with_options(Ruleset::with_devices(cfg, 4), opts)
        .explore(&n4_grid(), &[&SwmrProperty, &invariant]);
    let r = &exp.report;
    assert!(!r.truncated, "the ladder must not truncate: {:?}", r.sheds);
    assert!(r.clean(), "{r}");
    assert_eq!(r.states, 67_053);
    assert_eq!(r.spilled_extents, 9, "sealed extents");
    assert_eq!(r.faulted_extents, 556, "faulted extents");
    let ladder: Vec<(DegradationAction, usize)> =
        r.sheds.iter().map(|s| (s.action, s.at_states)).collect();
    assert_eq!(ladder.len(), 2, "exactly a shed and an emergency checkpoint: {ladder:?}");
    assert!(matches!(ladder[0], (DegradationAction::ShedBuffers { .. }, 8_829)), "{ladder:?}");
    assert!(matches!(ladder[1], (DegradationAction::EmergencyCheckpoint, 58_205)), "{ladder:?}");
    let _ = std::fs::remove_dir_all(&spill);
    let _ = std::fs::remove_dir_all(&ckpt);
}
