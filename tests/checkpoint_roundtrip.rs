//! Checkpoint wire-format laws, property-tested.
//!
//! 1. **Round-trip** — a checkpoint written by a real (randomised)
//!    exploration decodes back to itself: every field survives
//!    `to_bytes` → `from_bytes`, and re-encoding is byte-identical to
//!    what the checker wrote (the format is canonical).
//! 2. **Robust rejection** — every truncation of a valid file and every
//!    single-byte corruption is rejected with a clean
//!    [`CheckpointError`]: never a panic, never a silently-wrong resume
//!    (the trailing whole-file checksum plus per-state fingerprint
//!    cross-checks see to that).
//! 3. **One format** — a well-formed file of an older format version is
//!    refused by name, not read under the current layout.

use cxl_repro::core::instr::Instruction;
use cxl_repro::core::{ProtocolConfig, Ruleset, StateCodec, SystemState};
use cxl_repro::mc::{
    checkpoint_path, CheckOptions, Checkpoint, CheckpointError, CheckpointPolicy, ModelChecker,
    SwmrProperty,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cxl-ckpt-rt-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn instr() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        Just(Instruction::Load),
        (-1i64..50).prop_map(Instruction::Store),
        Just(Instruction::Evict),
    ]
}

fn program() -> impl Strategy<Value = Vec<Instruction>> {
    proptest::collection::vec(instr(), 0..3)
}

/// Run a small checkpointed exploration and return the written file's
/// bytes alongside the ruleset that produced them. `max_depth` varies
/// whether the final checkpoint is a truncated-resumable one or a
/// completed run's.
fn checkpoint_bytes(
    name: &str,
    progs: Vec<Vec<Instruction>>,
    max_depth: Option<usize>,
) -> (Vec<u8>, Ruleset) {
    let n = progs.len().max(2);
    let init = SystemState::initial_n(n, progs.into_iter().map(Into::into).collect());
    let dir = scratch(name);
    let mut policy = CheckpointPolicy::new(&dir);
    policy.every = Duration::ZERO;
    let opts = CheckOptions { max_depth, checkpoint: Some(policy), ..CheckOptions::default() };
    let rules = Ruleset::with_devices(ProtocolConfig::strict(), n);
    let _ = ModelChecker::with_options(Ruleset::with_devices(ProtocolConfig::strict(), n), opts)
        .explore(&init, &[&SwmrProperty]);
    let bytes = std::fs::read(checkpoint_path(&dir)).expect("checkpoint written");
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, rules)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn checkpoint_round_trips_exactly(
        p1 in program(),
        p2 in program(),
        max_depth in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    ) {
        let (bytes, rules) = checkpoint_bytes("roundtrip", vec![p1, p2], max_depth);
        let cp = Checkpoint::from_bytes(&bytes, &rules).expect("checker output parses");

        // Canonical encoding: re-serializing reproduces the file.
        let reencoded = cp.to_bytes(&rules);
        prop_assert_eq!(&reencoded, &bytes, "encode is canonical");

        // And the re-decoded value matches field by field.
        let back = Checkpoint::from_bytes(&reencoded, &rules).expect("re-parses");
        prop_assert_eq!(cp.fingerprint, back.fingerprint);
        prop_assert_eq!(cp.resumable, back.resumable);
        prop_assert_eq!(cp.depth, back.depth);
        prop_assert_eq!(cp.elapsed, back.elapsed);
        prop_assert_eq!(cp.transitions, back.transitions);
        prop_assert_eq!(cp.terminal_states, back.terminal_states);
        prop_assert_eq!(cp.truncated, back.truncated);
        prop_assert_eq!(cp.truncated_by_memory, back.truncated_by_memory);
        prop_assert_eq!(cp.truncated_by_time, back.truncated_by_time);
        prop_assert_eq!(&cp.arena, &back.arena);
        prop_assert_eq!(&cp.fps, &back.fps);
        prop_assert_eq!(&cp.parents, &back.parents);
        prop_assert_eq!(&cp.succ_counts, &back.succ_counts);
        prop_assert_eq!(&cp.frontier, &back.frontier);
        prop_assert_eq!(&cp.firings, &back.firings);
        prop_assert_eq!(cp.violations.len(), back.violations.len());
        prop_assert_eq!(cp.deadlocks.len(), back.deadlocks.len());
        prop_assert_eq!(cp.quarantined.len(), back.quarantined.len());
        prop_assert_eq!(cp.sheds.len(), back.sheds.len());
        prop_assert_eq!(cp.reduction_stats, back.reduction_stats);

        // Structural sanity the resume path relies on.
        prop_assert_eq!(cp.fps.len(), cp.arena.len());
        prop_assert_eq!(cp.parents.len(), cp.arena.len());
        prop_assert_eq!(cp.succ_counts.len(), cp.arena.len());
        prop_assert_eq!(cp.firings.len(), rules.rule_ids().len());
        for &f in &cp.frontier {
            prop_assert!(f < cp.arena.len());
        }
    }

    #[test]
    fn corrupted_bytes_are_rejected_never_misread(
        p1 in program(),
        p2 in program(),
        seed in any::<u64>(),
    ) {
        let (bytes, rules) = checkpoint_bytes("corrupt", vec![p1, p2], Some(2));
        prop_assert!(!bytes.is_empty());

        // A handful of deterministic single-byte corruptions derived
        // from the seed: flip a bit, and also try overwriting with a
        // hostile value. Any change anywhere must fail the trailing
        // checksum (or a later structural check) — never parse to a
        // different checkpoint, never panic.
        for k in 0..8u64 {
            let pos = ((seed.wrapping_mul(2654435761).wrapping_add(k * 7919)) as usize)
                % bytes.len();
            let bit = ((seed >> 8).wrapping_add(k) % 8) as u8;
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            prop_assert!(
                Checkpoint::from_bytes(&mutated, &rules).is_err(),
                "bit flip at byte {} must be rejected", pos
            );
            let mut stomped = bytes.clone();
            stomped[pos] = 0xFF;
            if stomped != bytes {
                prop_assert!(
                    Checkpoint::from_bytes(&stomped, &rules).is_err(),
                    "stomped byte at {} must be rejected", pos
                );
            }
        }
    }
}

#[test]
fn every_truncation_of_a_valid_checkpoint_is_rejected() {
    // Exhaustive over prefixes: a torn write (the reason the writer
    // goes through write-then-rename) can leave any prefix behind, and
    // each one must fail cleanly.
    let (bytes, rules) = checkpoint_bytes(
        "truncation",
        vec![vec![Instruction::Store(1), Instruction::Load], vec![Instruction::Load]],
        None,
    );
    for len in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..len], &rules).is_err(),
            "prefix of {len}/{} bytes must be rejected",
            bytes.len()
        );
    }
    // Trailing garbage is rejected too (the reader demands exhaustion).
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(Checkpoint::from_bytes(&padded, &rules).is_err(), "trailing byte must be rejected");
    // And the untouched original still parses.
    assert!(Checkpoint::from_bytes(&bytes, &rules).is_ok());
}

#[test]
fn format_version_1_is_refused() {
    // Only format version 2 is written and read. Rewrite a valid file's
    // version varint (the byte after the magic) to 1 and recompute the
    // trailing checksum, so the version is the only thing wrong with it.
    let (mut bytes, rules) = checkpoint_bytes(
        "version1",
        vec![vec![Instruction::Store(1)], vec![Instruction::Load]],
        None,
    );
    assert_eq!(&bytes[..8], b"CXLCKPT1", "magic");
    assert_eq!(bytes[8], 2, "the writer emits format version 2");
    bytes[8] = 1;
    let body = bytes.len() - 8;
    let sum = StateCodec::fingerprint(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    match Checkpoint::from_bytes(&bytes, &rules).map(|_| ()) {
        Err(CheckpointError::Corrupt(why)) => {
            assert!(
                why.contains("unsupported format version 1"),
                "wrong refusal: {why}"
            );
        }
        other => panic!("a version-1 file must be refused as corrupt, got {other:?}"),
    }
}
