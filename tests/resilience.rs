//! Resilience-layer guarantees: crash recovery via checkpoint/resume,
//! panic-quarantined workers, the wall-clock watchdog, and the
//! graceful-degradation ladder.
//!
//! The headline contract (ISSUE acceptance bar): an exploration
//! interrupted at a BFS level boundary and resumed from its checkpoint
//! by a *fresh* checker must reproduce the uninterrupted run exactly —
//! verdict, state count, transition count, depth, terminal statistics,
//! per-rule firing counts, the packed arena byte-for-byte, and any
//! counterexample traces — across the reduction matrix at N ∈ {2, 3}.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
use cxl_repro::litmus::replay_trace;
use cxl_repro::mc::{
    CheckOptions, CheckpointError, CheckpointPolicy, DegradationAction, Exploration, ModelChecker,
    Reducer, Reduction, ReductionConfig, SwmrProperty, NOT_EXPANDED,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::all_engine_combos;

/// A fresh scratch directory under the system temp root, unique per
/// test (and per process, so parallel `cargo test` invocations never
/// collide). No tempfile crate in the tree — plain std suffices.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A checkpoint policy that snapshots at *every* level boundary —
/// deterministic, so tests never race the wall clock.
fn eager_policy(dir: &std::path::Path) -> CheckpointPolicy {
    let mut policy = CheckpointPolicy::new(dir);
    policy.every = Duration::ZERO;
    policy
}

/// Mixed store/load grids small enough for the full reduction matrix.
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

/// Everything the acceptance bar demands must survive the crash.
fn assert_identical(baseline: &Exploration, resumed: &Exploration, ctx: &str) {
    let (b, r) = (&baseline.report, &resumed.report);
    assert_eq!(b.states, r.states, "{ctx}: state count");
    assert_eq!(b.transitions, r.transitions, "{ctx}: transition count");
    assert_eq!(b.depth, r.depth, "{ctx}: depth");
    assert_eq!(b.terminal_states, r.terminal_states, "{ctx}: terminals");
    assert_eq!(b.truncated, r.truncated, "{ctx}: truncated flag");
    assert_eq!(b.violations.len(), r.violations.len(), "{ctx}: violations");
    assert_eq!(b.deadlocks.len(), r.deadlocks.len(), "{ctx}: deadlocks");
    assert_eq!(b.rule_firings, r.rule_firings, "{ctx}: firing counts");
    assert_eq!(baseline.arena, resumed.arena, "{ctx}: packed arena");
    assert_eq!(
        baseline.successor_counts, resumed.successor_counts,
        "{ctx}: successor counts"
    );
}

#[test]
fn interrupted_then_resumed_matches_uninterrupted_across_reduction_matrix() {
    let cfg = ProtocolConfig::strict();
    let combos: Vec<Option<ReductionConfig>> =
        std::iter::once(None).chain(all_engine_combos().into_iter().map(Some)).collect();
    for n in [2usize, 3] {
        let init = grid(n);
        for (i, combo) in combos.iter().enumerate() {
            let ctx = format!("N={n} combo#{i} {combo:?}");
            let baseline = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    reduction: reducer_for(cfg, n, &init, *combo),
                    ..CheckOptions::default()
                },
            );
            assert!(!baseline.report.truncated, "{ctx}: baseline must complete");
            let cut = baseline.report.depth / 2;
            assert!(cut >= 1, "{ctx}: grid too shallow to interrupt");

            // Interrupt: stop at a mid-search level boundary with an
            // eager checkpoint, then drop the checker — every byte of
            // in-memory search state is gone, as after a crash.
            let dir = scratch(&format!("matrix-{n}-{i}"));
            let interrupted = explore_with(
                cfg,
                n,
                &init,
                CheckOptions {
                    max_depth: Some(cut),
                    checkpoint: Some(eager_policy(&dir)),
                    reduction: reducer_for(cfg, n, &init, *combo),
                    ..CheckOptions::default()
                },
            );
            assert!(interrupted.report.truncated, "{ctx}: interruption must truncate");
            assert!(interrupted.report.states < baseline.report.states, "{ctx}: partial");
            drop(interrupted);

            // Resume with the depth budget lifted: budgets are outside
            // the checkpoint fingerprint, so raising them is allowed.
            let resumed = ModelChecker::with_options(
                Ruleset::with_devices(cfg, n),
                CheckOptions {
                    checkpoint: Some(eager_policy(&dir)),
                    reduction: reducer_for(cfg, n, &init, *combo),
                    ..CheckOptions::default()
                },
            )
            .explore_resumed(&[&SwmrProperty])
            .expect("resume from checkpoint");
            assert!(resumed.report.resumed_from.is_some(), "{ctx}: must mark resumption");
            assert_identical(&baseline, &resumed, &ctx);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn violation_verdict_survives_the_resume_boundary() {
    // A violating run stops mid-level, so its final checkpoint is
    // *non-resumable*: resuming must reconstitute the recorded verdict —
    // same counts, same counterexample — rather than re-explore, and the
    // trace must still replay against the ruleset.
    let cfg = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let init = SystemState::initial(programs::store(42), programs::load());
    let dir = scratch("violation");
    let opts = CheckOptions {
        checkpoint: Some(eager_policy(&dir)),
        ..CheckOptions::default()
    };
    let direct = explore_with(cfg, 2, &init, opts.clone());
    assert!(!direct.report.violations.is_empty(), "Table 3 repro must violate SWMR");

    let resumed = ModelChecker::with_options(Ruleset::with_devices(cfg, 2), opts)
        .explore_resumed(&[&SwmrProperty])
        .expect("reconstitute the violating run");
    assert_eq!(direct.report.states, resumed.report.states);
    assert_eq!(direct.report.transitions, resumed.report.transitions);
    assert_eq!(direct.report.violations.len(), resumed.report.violations.len());
    let (dv, rv) = (&direct.report.violations[0], &resumed.report.violations[0]);
    assert_eq!(dv.property, rv.property);
    assert_eq!(dv.detail, rv.detail);
    assert_eq!(dv.trace.steps.len(), rv.trace.steps.len());
    let rules = Ruleset::with_devices(cfg, 2);
    replay_trace(&rules, &rv.trace).expect("reconstituted counterexample replays");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn time_budget_stops_at_a_boundary_and_resume_finishes_the_job() {
    // A zero budget expires at the very first level boundary: the run
    // must stop with a valid one-state partial report, leave a resumable
    // checkpoint, and a resume with the watchdog disarmed must land on
    // exactly the uninterrupted result.
    let cfg = ProtocolConfig::strict();
    let init = grid(3);
    let baseline = explore_with(cfg, 3, &init, CheckOptions::default());

    let dir = scratch("time-budget");
    let stopped = explore_with(
        cfg,
        3,
        &init,
        CheckOptions {
            time_budget: Some(Duration::ZERO),
            checkpoint: Some(eager_policy(&dir)),
            ..CheckOptions::default()
        },
    );
    assert!(stopped.report.truncated, "expired watchdog must truncate");
    assert!(stopped.report.truncated_by_time, "…and say why");
    assert_eq!(stopped.report.states, 1, "nothing beyond the initial state was expanded");
    drop(stopped);

    let resumed = ModelChecker::with_options(
        Ruleset::with_devices(cfg, 3),
        CheckOptions {
            checkpoint: Some(eager_policy(&dir)),
            ..CheckOptions::default()
        },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect("resume after time budget");
    assert!(!resumed.report.truncated_by_time, "lifted budget clears the flag");
    assert_identical(&baseline, &resumed, "time-budget resume");
    // Elapsed time accumulates across sessions rather than resetting.
    assert!(resumed.report.elapsed >= Duration::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_completion_skips_the_final_checkpoint_write() {
    // Crash insurance has nothing to offer a run that finished clean:
    // at the default interval (no periodic snapshot fires in a short
    // run) no file must be left behind, while the eager policy's
    // boundary snapshots remain — and resuming one of those simply
    // re-explores to the same clean end.
    use cxl_repro::mc::checkpoint_path;
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial(programs::store(5), programs::load());

    let dir = scratch("skip-default");
    let done = explore_with(
        cfg,
        2,
        &init,
        CheckOptions { checkpoint: Some(CheckpointPolicy::new(&dir)), ..CheckOptions::default() },
    );
    assert!(!done.report.truncated && done.report.violations.is_empty());
    assert!(!checkpoint_path(&dir).exists(), "clean completion must not write a checkpoint");

    let eager = scratch("skip-eager");
    let _ = explore_with(
        cfg,
        2,
        &init,
        CheckOptions { checkpoint: Some(eager_policy(&eager)), ..CheckOptions::default() },
    );
    assert!(checkpoint_path(&eager).exists(), "boundary snapshots are left in place");
    let resumed = ModelChecker::with_options(
        Ruleset::with_devices(cfg, 2),
        CheckOptions { checkpoint: Some(eager_policy(&eager)), ..CheckOptions::default() },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect("a boundary snapshot of a finished run still resumes");
    assert_identical(&done, &resumed, "re-explored tail");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&eager);
}

#[test]
fn mismatched_configuration_or_topology_refuses_to_resume() {
    let init = SystemState::initial(programs::store(1), programs::load());
    let dir = scratch("mismatch");
    let strict = ProtocolConfig::strict();
    let _ = explore_with(
        strict,
        2,
        &init,
        CheckOptions { checkpoint: Some(eager_policy(&dir)), ..CheckOptions::default() },
    );

    // Same checkpoint, different protocol configuration.
    let relaxed = ProtocolConfig::relaxed(Relaxation::SnoopPushesGo);
    let err = ModelChecker::with_options(
        Ruleset::with_devices(relaxed, 2),
        CheckOptions { checkpoint: Some(eager_policy(&dir)), ..CheckOptions::default() },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect_err("config drift must be refused");
    assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err}");

    // Same checkpoint, different device count.
    let err = ModelChecker::with_options(
        Ruleset::with_devices(strict, 3),
        CheckOptions { checkpoint: Some(eager_policy(&dir)), ..CheckOptions::default() },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect_err("topology drift must be refused");
    assert!(matches!(err, CheckpointError::Mismatch(_)), "got {err}");

    // No checkpoint on disk at all.
    let empty = scratch("mismatch-empty");
    let err = ModelChecker::with_options(
        Ruleset::with_devices(strict, 2),
        CheckOptions { checkpoint: Some(eager_policy(&empty)), ..CheckOptions::default() },
    )
    .explore_resumed(&[&SwmrProperty])
    .expect_err("missing checkpoint must be an error, not a fresh run");
    assert!(matches!(err, CheckpointError::Io(_)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn panicking_rule_evaluation_is_quarantined_not_fatal() {
    // Inject a deterministic fault through the prune hook (it runs
    // inside the supervised expansion region, like rule firing): the
    // panic must be caught, the poison state quarantined with a decoded
    // dump, and the rest of the space still explored to a verdict —
    // inline and on the workers alike.
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial(programs::store(7), programs::load());
    let run = |threads: usize| -> Exploration {
        let opts = CheckOptions {
            threads,
            prune: Some(Arc::new(|s: &SystemState| {
                assert!(s.counter != 1, "injected fault: poisoned state");
                false
            })),
            ..CheckOptions::default()
        };
        explore_with(cfg, 2, &init, opts)
    };
    let seq = run(1);
    assert!(!seq.report.quarantined.is_empty(), "the fault must be hit and quarantined");
    for q in &seq.report.quarantined {
        assert!(q.message.contains("injected fault"), "panic payload preserved: {}", q.message);
        assert!(!q.dump.is_empty(), "decoded dump attached");
        assert!(!q.packed.is_empty(), "packed bytes attached");
        assert_eq!(
            seq.successor_counts[q.state],
            NOT_EXPANDED,
            "poison states stay unexpanded"
        );
    }
    // Exploration carried on past the poison states.
    assert!(seq.report.states > seq.report.quarantined.len());
    assert!(seq.report.violations.is_empty(), "strict config stays coherent");

    let par = run(4);
    assert_eq!(
        seq.report.quarantined.len(),
        par.report.quarantined.len(),
        "deterministic fault → same quarantine set under the pool"
    );
    assert_eq!(seq.report.states, par.report.states);
    assert_eq!(seq.arena, par.arena, "deterministic merge survives quarantining");
}

#[test]
fn degradation_ladder_sheds_then_truncates_under_memory_pressure() {
    // Budget well below the run's real footprint: the ladder must record
    // a shed step before the hard truncation rung, the run must end as a
    // clean partial report, and the (non-resumable) final checkpoint
    // must reconstitute that exact report.
    let cfg = ProtocolConfig::strict();
    let init = SystemState::initial_n(
        3,
        vec![programs::stores(0, 2), programs::loads(2), programs::loads(1)],
    );
    let unbounded = explore_with(cfg, 3, &init, CheckOptions::default());
    let budget = unbounded.report.memory_bytes * 7 / 10;

    let dir = scratch("ladder");
    let opts = CheckOptions {
        mem_budget: Some(budget),
        checkpoint: Some(eager_policy(&dir)),
        ..CheckOptions::default()
    };
    let squeezed = explore_with(cfg, 3, &init, opts.clone());
    assert!(squeezed.report.truncated_by_memory, "budget must bite");
    assert!(squeezed.report.states < unbounded.report.states);
    let actions: Vec<_> = squeezed.report.sheds.iter().map(|s| &s.action).collect();
    assert!(
        actions.iter().any(|a| matches!(a, DegradationAction::ShedBuffers { .. })),
        "shed rung must fire before truncation: {actions:?}"
    );
    assert!(
        actions.iter().any(|a| matches!(a, DegradationAction::Truncate)),
        "hard rung recorded: {actions:?}"
    );
    for pair in squeezed.report.sheds.windows(2) {
        assert!(pair[0].at_states <= pair[1].at_states, "ladder steps are ordered");
    }

    let reconstituted = ModelChecker::with_options(Ruleset::with_devices(cfg, 3), opts)
        .explore_resumed(&[&SwmrProperty])
        .expect("mem-truncated checkpoint reconstitutes");
    assert_eq!(squeezed.report.states, reconstituted.report.states);
    assert_eq!(squeezed.report.truncated_by_memory, reconstituted.report.truncated_by_memory);
    assert_eq!(squeezed.report.sheds.len(), reconstituted.report.sheds.len());
    let _ = std::fs::remove_dir_all(&dir);
}
