//! Codec parse-path bench: nanoseconds per call of the parse functions
//! every verdict pays for, over the 67,053 reachable states of the N = 4
//! grid `[S1] x [S2] x [L] x [L]` (unreduced — the grid of the
//! `spill_ckpt_n4` perfbench workload).
//!
//! - `decode_into` — one packed state into a reused scratch state (the
//!   frontier-expansion read);
//! - `device_segment_bounds` — the segment parse behind symmetry
//!   canonicalization;
//! - `decode_delta` — one parent-delta link, parent parsed from scratch;
//! - `chain walk` — `StateArena::append_full_bytes` of every entry of a
//!   delta arena with a keyframe every 8 ancestors (what a checkpoint
//!   write does per state), reported per materialized state.
//!
//! It also prints the chain shape those walks meet: links per walk and
//! segments each link introduces. Only public `cxl_core` items are used,
//! so the same file times any commit:
//!
//! ```text
//! cargo bench -p cxl-bench --bench codec_parse
//! ```
//!
//! `CXL_BENCH_ITERS` sets the rounds (default 5); each figure is the best
//! round.

use cxl_core::instr::programs;
use cxl_core::{ProtocolConfig, Ruleset, StateArena, StateCodec, SystemState, Topology};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Keyframe interval of the chain-walk arena (the perfbench setting).
const KEYFRAME: u32 = 8;

/// BFS over the grid: `(parent, full encoding)` per state in discovery
/// order (the initial state's parent is `usize::MAX`).
fn walk() -> (StateCodec, Vec<(usize, Vec<u8>)>) {
    let progs = vec![
        programs::store(1),
        programs::store(2),
        programs::load(),
        programs::load(),
    ];
    let initial = SystemState::initial_n(4, progs);
    let rules = Ruleset::with_topology(ProtocolConfig::full(), initial.topology());
    let codec = StateCodec::new(initial.topology());
    let first = codec.encode(&initial);
    let mut seen = HashSet::from([first.clone()]);
    let mut states = vec![(usize::MAX, first)];
    let mut cursor = 0;
    let mut parent = codec.blank();
    while cursor < states.len() {
        codec
            .decode_into(&states[cursor].1, &mut parent)
            .expect("own encoding");
        for (_, succ) in rules.successors(&parent) {
            let enc = codec.encode(&succ);
            if seen.insert(enc.clone()) {
                states.push((cursor, enc));
            }
        }
        cursor += 1;
    }
    (codec, states)
}

/// Best-of-`rounds` nanoseconds per operation of `round`, which performs
/// `ops` operations.
fn best_ns(rounds: u32, ops: usize, mut round: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        round();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e9 / ops as f64
}

fn main() {
    let rounds = std::env::var("CXL_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5u32)
        .max(1);
    let (codec, states) = walk();
    let n = states.len();
    println!("codec_parse: {n} states of [S1]x[S2]x[L]x[L], best of {rounds} rounds");

    let mut scratch = codec.blank();
    let ns = best_ns(rounds, n, || {
        for (_, enc) in &states {
            codec
                .decode_into(black_box(enc), &mut scratch)
                .expect("own encoding");
        }
        black_box(&scratch);
    });
    println!("decode_into: {ns:.1} ns/state");

    let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
    let ns = best_ns(rounds, n, || {
        for (_, enc) in &states {
            codec
                .device_segment_bounds(black_box(enc), &mut bounds)
                .expect("own encoding");
        }
        black_box(&bounds);
    });
    println!("device_segment_bounds: {ns:.1} ns/state");

    let deltas: Vec<(usize, Vec<u8>)> = states[1..]
        .iter()
        .map(|(parent, enc)| {
            let mut delta = Vec::new();
            codec
                .encode_delta(&states[*parent].1, enc, &mut delta)
                .expect("own encodings");
            (*parent, delta)
        })
        .collect();
    let mut out = Vec::new();
    let ns = best_ns(rounds, deltas.len(), || {
        for (parent, delta) in &deltas {
            out.clear();
            codec
                .decode_delta(&states[*parent].1, black_box(delta), &mut out)
                .expect("own delta");
        }
        black_box(&out);
    });
    println!("decode_delta: {ns:.1} ns/link");

    let mut arena = StateArena::new(codec);
    arena.enable_delta(KEYFRAME);
    for (parent, enc) in &states {
        arena.push_encoded_delta(enc, (*parent != usize::MAX).then_some(*parent as u32));
    }
    let ns = best_ns(rounds, n, || {
        out.clear();
        for id in 0..n {
            arena.append_full_bytes(id, &mut out);
        }
        black_box(&out);
    });
    println!("chain walk (K = {KEYFRAME}): {ns:.1} ns/state");

    // The chain each walk replays: a delta entry's base is the parent it
    // was pushed against, and the walk stops at its decode floor.
    let (mut links, mut introduced) = (0usize, 0usize);
    for id in 0..n {
        let floor = arena.decode_floor(id);
        let mut cur = id;
        while cur != floor {
            let parent = states[cur].0;
            // The delta's first byte is its segment bitmap (N = 4 needs 5 bits).
            introduced += deltas[cur - 1].1[0].count_ones() as usize;
            links += 1;
            cur = parent;
        }
    }
    println!(
        "chain shape: {:.2} links per walk, {:.2} segments introduced per link \
         ({} of {n} entries stored as deltas)",
        links as f64 / n as f64,
        introduced as f64 / links.max(1) as f64,
        arena.delta_entries(),
    );
}
