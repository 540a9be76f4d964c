//! Shard-count determinism: the one exploration driver must give
//! **bit-identical** results at every shard and thread count, with one
//! shard and no worker pool as the sequential reference.
//!
//! The contract under test: for every reduction-engine combination, at
//! N ∈ {2, 3} and shard counts {1, 2, 4}, a sharded run produces the
//! same verdict, state and transition counts, per-rule firing counts,
//! successor counts, packed arena bytes, and counterexample traces as a
//! plain sequential run — whether the shard jobs run inline (one
//! thread) or on scoped workers (two threads), and whether a pooled
//! level dedups routed on the workers or merges serially with exact
//! truncation semantics. On top:
//!
//! - a sharded run interrupted at a BFS level boundary and resumed by a
//!   *fresh* checker (under the same or a *different* shard count)
//!   reconstitutes exactly — checkpoints are shard-count-free;
//! - the decoded-frontier ring is invisible in the results at any
//!   capacity, including zero.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::mc::{
    CheckOptions, CheckpointPolicy, Exploration, FlightEvent, LevelRecord, ModelChecker, Recorder,
    Reducer, Reduction, ReductionConfig, RunSummary, SwmrProperty, Trace,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::all_engine_combos;

/// A fresh scratch directory under the system temp root, unique per
/// test and per process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-sharding-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Checkpoint at every level boundary — deterministic, never races the
/// wall clock.
fn eager_policy(dir: &std::path::Path) -> CheckpointPolicy {
    let mut policy = CheckpointPolicy::new(dir);
    policy.every = Duration::ZERO;
    policy
}

/// Mixed store/load grids small enough for the full matrix.
fn grid(n: usize) -> SystemState {
    match n {
        2 => SystemState::initial(programs::stores(1, 2), programs::loads(2)),
        3 => SystemState::initial_n(
            3,
            vec![
                vec![Instruction::Store(1), Instruction::Load].into(),
                vec![Instruction::Store(2)].into(),
                programs::loads(1),
            ],
        ),
        _ => unreachable!("matrix covers N in {{2, 3}}"),
    }
}

/// The N = 3 grid [S1,L]×[S2,L]×[L,L] (11,727 states under the strict
/// configuration): wide enough that at two threads its levels 9–26
/// expand and check on workers and levels 16–18 dedup routed.
fn wide_grid() -> SystemState {
    SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2), Instruction::Load].into(),
            programs::loads(2),
        ],
    )
}

/// Build the reducer for a combo, mirroring how `explore` wires one up.
fn reducer_for(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    combo: Option<ReductionConfig>,
) -> Option<Arc<dyn Reducer>> {
    let combo = combo?;
    let red = Reduction::new(&Ruleset::with_devices(cfg, n), init, combo);
    red.is_active().then(|| Arc::new(red) as Arc<dyn Reducer>)
}

fn explore_with(
    cfg: ProtocolConfig,
    n: usize,
    init: &SystemState,
    opts: CheckOptions,
) -> Exploration {
    ModelChecker::with_options(Ruleset::with_devices(cfg, n), opts).explore(init, &[&SwmrProperty])
}

fn assert_traces_eq(a: &Trace, b: &Trace, ctx: &str) {
    assert_eq!(a.initial, b.initial, "{ctx}: trace initial state");
    assert_eq!(a.steps.len(), b.steps.len(), "{ctx}: trace length");
    for (i, (sa, sb)) in a.steps.iter().zip(&b.steps).enumerate() {
        assert_eq!(sa.rule, sb.rule, "{ctx}: trace step {i} rule");
        assert_eq!(sa.state, sb.state, "{ctx}: trace step {i} state");
    }
}

/// Everything the determinism contract covers.
fn assert_identical(seq: &Exploration, sharded: &Exploration, ctx: &str) {
    let (s, h) = (&seq.report, &sharded.report);
    assert_eq!(s.states, h.states, "{ctx}: state count");
    assert_eq!(s.transitions, h.transitions, "{ctx}: transition count");
    assert_eq!(s.depth, h.depth, "{ctx}: depth");
    assert_eq!(s.terminal_states, h.terminal_states, "{ctx}: terminals");
    assert_eq!(s.truncated, h.truncated, "{ctx}: truncated flag");
    assert_eq!(s.rule_firings, h.rule_firings, "{ctx}: firing counts");
    assert_eq!(s.violations.len(), h.violations.len(), "{ctx}: violation count");
    for (i, (vs, vh)) in s.violations.iter().zip(&h.violations).enumerate() {
        assert_eq!(vs.property, vh.property, "{ctx}: violation {i} property");
        assert_eq!(vs.detail, vh.detail, "{ctx}: violation {i} detail");
        assert_traces_eq(&vs.trace, &vh.trace, &format!("{ctx}: violation {i}"));
    }
    assert_eq!(s.deadlocks.len(), h.deadlocks.len(), "{ctx}: deadlock count");
    for (i, (ds, dh)) in s.deadlocks.iter().zip(&h.deadlocks).enumerate() {
        assert_traces_eq(&ds.trace, &dh.trace, &format!("{ctx}: deadlock {i}"));
    }
    assert_eq!(seq.arena, sharded.arena, "{ctx}: packed arena bytes");
    assert_eq!(seq.successor_counts, sharded.successor_counts, "{ctx}: successor counts");
}

#[test]
fn sharded_matches_sequential_across_reduction_matrix() {
    let cfg = ProtocolConfig::strict();
    let combos: Vec<Option<ReductionConfig>> =
        std::iter::once(None).chain(all_engine_combos().into_iter().map(Some)).collect();
    for n in [2usize, 3] {
        let init = grid(n);
        for (i, combo) in combos.iter().enumerate() {
            let seq = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    reduction: reducer_for(cfg, n, &init, *combo),
                    ..CheckOptions::default()
                },
            );
            assert_eq!(seq.report.shards, 1, "sequential driver reports one shard");
            for shards in [1usize, 2, 4] {
                let ctx = format!("N={n} combo#{i} {combo:?} shards={shards}");
                let sharded = explore_with(
                    cfg,
                    n,
                    &init,
                    CheckOptions {
                        shards: Some(shards),
                        reduction: reducer_for(cfg, n, &init, *combo),
                        ..CheckOptions::default()
                    },
                );
                assert_identical(&seq, &sharded, &ctx);
                if shards > 1 {
                    assert_eq!(sharded.report.shards, shards, "{ctx}: shard count reported");
                    assert!(
                        sharded.report.routed_messages > 0,
                        "{ctx}: routing must be exercised"
                    );
                }
            }
        }
    }
}

#[test]
fn pooled_sharded_exploration_matches_sequential() {
    // threads = 2 expands and property-checks the widest levels on
    // workers; none is wide enough to dedup routed (see
    // `pooled_levels_dedup_routed`).
    let cfg = ProtocolConfig::strict();
    for n in [2usize, 3] {
        let init = grid(n);
        let seq = explore_with(cfg, n, &init, CheckOptions::default());
        for shards in [2usize, 4] {
            let ctx = format!("N={n} threads=2 shards={shards}");
            let pooled = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    threads: 2,
                    shards: Some(shards),
                    ..CheckOptions::default()
                },
            );
            assert_identical(&seq, &pooled, &ctx);
        }
    }
}

#[test]
fn sharded_violation_traces_match_sequential() {
    // The paper's Table 3 repro: relaxing Snoop-pushes-GO violates SWMR.
    // A sharded run must find the same counterexample, byte for byte,
    // on both the inline and the pooled path.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial(programs::store(42), programs::load());
    let seq = explore_with(cfg, 2, &init, CheckOptions::default());
    assert!(!seq.report.violations.is_empty(), "Table 3 repro must violate SWMR");
    for (threads, shards) in [(1usize, 2usize), (1, 4), (2, 2)] {
        let ctx = format!("threads={threads} shards={shards}");
        let sharded = explore_with(
            cfg,
            2,
            &init,
            CheckOptions { threads, shards: Some(shards), ..CheckOptions::default() },
        );
        assert_identical(&seq, &sharded, &ctx);
    }
}

#[test]
fn sharded_truncation_is_bit_identical() {
    // A tight max_states forces the slow (serial-merge) path, which must
    // mirror a one-shard run's truncation semantics exactly —
    // including which states make it into the arena and the transient
    // over-cap property checks.
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial(programs::stores(0, 3), programs::loads(3));
    for cap in [10usize, 50, 200] {
        let seq = explore_with(
            cfg,
            2,
            &init,
            CheckOptions { max_states: cap, ..CheckOptions::default() },
        );
        assert!(seq.report.truncated, "cap={cap}: must truncate");
        for shards in [2usize, 4] {
            let ctx = format!("cap={cap} shards={shards}");
            let sharded = explore_with(
                cfg,
                2,
                &init,
                CheckOptions {
                    max_states: cap,
                    shards: Some(shards),
                    ..CheckOptions::default()
                },
            );
            assert_identical(&seq, &sharded, &ctx);
        }
    }

    // A pooled level whose over-cap tail reaches the violation cap
    // mid-level: each parent settles at its merge turn, so the parents
    // after the stop stay unexpanded, as in the sequential run.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = wide_grid();
    for cap in [1302usize, 1303, 1306] {
        let seq = explore_with(
            cfg,
            3,
            &init,
            CheckOptions {
                max_states: cap,
                ..CheckOptions::default()
            },
        );
        assert!(seq.report.truncated, "cap={cap}: must truncate");
        assert!(
            !seq.report.violations.is_empty(),
            "cap={cap}: the over-cap tail must violate"
        );
        for shards in [2usize, 3] {
            let ctx = format!("relaxed N=3 cap={cap} threads=2 shards={shards}");
            let pooled = explore_with(
                cfg,
                3,
                &init,
                CheckOptions {
                    max_states: cap,
                    threads: 2,
                    shards: Some(shards),
                    ..CheckOptions::default()
                },
            );
            assert_identical(&seq, &pooled, &ctx);
        }
    }
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
fn pooled_levels_dedup_routed() {
    // The grid is wide enough that some levels cannot truncate and route
    // at least `PAR_DEDUP_MIN` messages, so their dedup runs on workers
    // that each borrow one shard; the result must not change.
    let cfg = ProtocolConfig::strict();
    let init = wide_grid();
    let seq = explore_with(cfg, 3, &init, CheckOptions::default());
    for shards in [2usize, 3] {
        let ctx = format!("N=3 wide grid threads=2 shards={shards}");
        let levels = Arc::new(Levels::default());
        let pooled = explore_with(
            cfg,
            3,
            &init,
            CheckOptions {
                threads: 2,
                shards: Some(shards),
                telemetry: Some(levels.clone()),
                ..CheckOptions::default()
            },
        );
        assert_identical(&seq, &pooled, &ctx);
        let routed = levels
            .0
            .lock()
            .expect("recorder lock")
            .iter()
            .filter(|l| {
                l.shards
                    .as_ref()
                    .is_some_and(|s| !s.queue_depths.is_empty())
            })
            .count();
        assert!(routed > 0, "{ctx}: no level dedup routed");
    }
}

#[test]
fn sharded_interrupt_then_resume_reconstitutes_exactly() {
    // Interrupt a sharded run at a mid-search level boundary, drop every
    // byte of in-memory state, and resume with a fresh checker — under
    // the same shard count, a different one, and the plain sequential
    // driver. All must land on the uninterrupted result: the checkpoint
    // wire format is the merged (shard-count-free) layout.
    let cfg = ProtocolConfig::strict();
    let init = grid(3);
    let baseline = explore_with(cfg, 3, &init, CheckOptions::default());
    assert!(!baseline.report.truncated, "baseline must complete");
    let cut = baseline.report.depth / 2;
    assert!(cut >= 1, "grid too shallow to interrupt");

    for (write_shards, resume_shards) in
        [(Some(2usize), Some(2usize)), (Some(2), Some(4)), (Some(4), None), (None, Some(2))]
    {
        let ctx = format!("write_shards={write_shards:?} resume_shards={resume_shards:?}");
        let dir = scratch(&format!(
            "resume-{}-{}",
            write_shards.unwrap_or(0),
            resume_shards.unwrap_or(0)
        ));
        let interrupted = explore_with(
            cfg,
            3,
            &init,
            CheckOptions {
                max_depth: Some(cut),
                shards: write_shards,
                checkpoint: Some(eager_policy(&dir)),
                ..CheckOptions::default()
            },
        );
        assert!(interrupted.report.truncated, "{ctx}: interruption must truncate");
        assert!(interrupted.report.states < baseline.report.states, "{ctx}: partial");
        drop(interrupted);

        let resumed = ModelChecker::with_options(
            Ruleset::with_devices(cfg, 3),
            CheckOptions {
                shards: resume_shards,
                checkpoint: Some(eager_policy(&dir)),
                ..CheckOptions::default()
            },
        )
        .explore_resumed(&[&SwmrProperty])
        .expect("resume from sharded checkpoint");
        assert!(resumed.report.resumed_from.is_some(), "{ctx}: must mark resumption");
        assert_identical(&baseline, &resumed, &ctx);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn frontier_ring_is_invisible_in_results() {
    // The decoded-frontier ring is a pure decode-skipping cache: any
    // capacity — zero, smaller than a level, larger than every level —
    // must leave the exploration bit-identical.
    let cfg = ProtocolConfig::strict();
    for n in [2usize, 3] {
        let init = grid(n);
        let no_ring =
            explore_with(cfg, n, &init, CheckOptions { frontier_ring: 0, ..CheckOptions::default() });
        for ring in [1usize, 3, 64, 1 << 20] {
            let ctx = format!("N={n} ring={ring}");
            let ringed = explore_with(
                cfg,
                n,
                &init,
                CheckOptions { frontier_ring: ring, ..CheckOptions::default() },
            );
            assert_identical(&no_ring, &ringed, &ctx);
        }
    }
    // And it composes with a violating run's early stop.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial(programs::store(42), programs::load());
    let no_ring =
        explore_with(cfg, 2, &init, CheckOptions { frontier_ring: 0, ..CheckOptions::default() });
    let ringed =
        explore_with(cfg, 2, &init, CheckOptions { frontier_ring: 2, ..CheckOptions::default() });
    assert_identical(&no_ring, &ringed, "violating run, ring=2");
}

#[test]
fn shard_imbalance_is_reported_and_bounded() {
    // Fingerprint routing approximates a uniform split; on a real grid
    // the most loaded shard must sit within a sane factor of the mean,
    // and the report must surface the number.
    let cfg = ProtocolConfig::strict();
    let init = grid(2);
    let sharded = explore_with(
        cfg,
        2,
        &init,
        CheckOptions { shards: Some(4), ..CheckOptions::default() },
    );
    assert_eq!(sharded.report.shards, 4);
    assert!(sharded.report.routed_messages >= sharded.report.transitions as u64);
    assert!(
        sharded.report.shard_imbalance_pct >= 0.0
            && sharded.report.shard_imbalance_pct < 100.0,
        "imbalance {:.1}% out of range",
        sharded.report.shard_imbalance_pct
    );
}
