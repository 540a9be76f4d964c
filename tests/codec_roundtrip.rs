//! Property tests for the packed state codec.
//!
//! The model checker's arena dedups on *packed bytes* (fingerprint plus
//! byte-equality fallback), so the whole pipeline rests on two codec
//! properties, probed here over randomised **reachable** states of
//! topologies `N ∈ 2..=4`:
//!
//! 1. **Exactness** — `decode(encode(s)) == s` for every reachable state
//!    (the arena must reproduce the state the rules produced, down to the
//!    last channel message, or traces and property checks silently drift);
//! 2. **Determinism** — equal states produce byte-equal encodings (the
//!    soundness condition for byte-equality dedup and packed-bytes
//!    fingerprinting: if two equal states could encode differently, the
//!    checker would count one state twice).

use cxl_repro::core::codec::StateCodec;
use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Ruleset, StateArena, SystemState};
use cxl_repro::mc::{CheckOptions, ModelChecker};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random instruction.
fn instr() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        Just(Instruction::Load),
        (-1i64..50).prop_map(Instruction::Store),
        Just(Instruction::Evict),
    ]
}

/// A short random program (0–2 instructions keeps the explored spaces in
/// the hundreds-to-thousands range per case).
fn program() -> impl Strategy<Value = Vec<Instruction>> {
    proptest::collection::vec(instr(), 0..3usize)
}

/// Explore a bounded slice of the reachable space from the given
/// initial configuration, returning the exploration (packed arena).
fn explore_bounded(n: usize, progs: Vec<Vec<Instruction>>) -> cxl_repro::mc::Exploration {
    let opts = CheckOptions { max_states: 1_500, ..CheckOptions::default() };
    let mc = ModelChecker::with_options(
        Ruleset::with_devices(ProtocolConfig::full(), n),
        opts,
    );
    let init = SystemState::initial_n(n, progs.into_iter().map(Into::into).collect());
    mc.explore(&init, &[])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn decode_inverts_encode_over_reachable_states(
        n in 2usize..5,
        p1 in program(),
        p2 in program(),
        p3 in program(),
        p4 in program(),
    ) {
        let progs: Vec<Vec<Instruction>> =
            [p1, p2, p3, p4].into_iter().take(n).collect();
        let exp = explore_bounded(n, progs);
        let codec = *exp.arena.codec();
        prop_assert!(!exp.is_empty());
        for id in 0..exp.len() {
            let bytes = exp.arena.bytes_of(id);
            let decoded = codec.decode(bytes).expect("arena bytes must decode");
            // Exactness: the decoded state re-encodes to the same bytes…
            prop_assert_eq!(codec.encode(&decoded), bytes.to_vec());
            // …and a fresh decode of those bytes agrees (decode is a
            // function of the bytes alone).
            prop_assert_eq!(codec.decode(bytes).unwrap(), decoded);
        }
    }

    #[test]
    fn equal_states_encode_byte_identically(
        n in 2usize..5,
        p1 in program(),
        p2 in program(),
    ) {
        let progs: Vec<Vec<Instruction>> =
            [p1, p2].into_iter().take(n).collect();
        let exp = explore_bounded(n, progs);
        let codec = *exp.arena.codec();
        for id in (0..exp.len()).step_by(7) {
            let st = exp.state(id);
            // A clone (structurally equal by construction) and a
            // decode-then-reencode round trip must both be byte-equal to
            // the stored encoding — and fingerprints must agree.
            let via_clone = codec.encode(&st.clone());
            let stored = exp.arena.bytes_of(id);
            prop_assert_eq!(via_clone.as_slice(), stored);
            prop_assert_eq!(
                StateCodec::fingerprint(&via_clone),
                StateCodec::fingerprint(stored)
            );
            // Mutating the state must change the encoding (injectivity
            // spot check: a counter bump is the smallest perturbation).
            let mut other = st.clone();
            other.counter += 1;
            prop_assert_ne!(codec.encode(&other).as_slice(), stored);
        }
    }

    #[test]
    fn decode_into_scratch_matches_fresh_decode(
        n in 2usize..5,
        p1 in program(),
        p2 in program(),
    ) {
        // The hot path decodes frontier states into one reused scratch;
        // the scratch result must equal a fresh decode regardless of what
        // the scratch held before.
        let progs: Vec<Vec<Instruction>> =
            [p1, p2].into_iter().take(n).collect();
        let exp = explore_bounded(n, progs);
        let codec = *exp.arena.codec();
        let mut scratch = codec.blank();
        for id in 0..exp.len().min(64) {
            codec.decode_into(exp.arena.bytes_of(id), &mut scratch).unwrap();
            prop_assert_eq!(&scratch, &exp.arena.decode(id));
        }
    }
}

/// The full encodings of a bounded reachable slice whose programs move the
/// host line and several devices at once (stores, loads and evictions).
fn chain_universe(n: usize) -> (StateCodec, Vec<Vec<u8>>) {
    let progs = (0..n)
        .map(|i| match i % 3 {
            0 => vec![Instruction::Store(i as i64 + 1), Instruction::Load],
            1 => vec![Instruction::Load, Instruction::Evict],
            _ => vec![Instruction::Store(i as i64 + 1)],
        })
        .collect();
    let exp = explore_bounded(n, progs);
    let states = (0..exp.len())
        .map(|id| exp.arena.bytes_of(id).to_vec())
        .collect();
    (*exp.arena.codec(), states)
}

/// The segments `child` changes against `parent`: bit 0 the host-cache
/// span, bit `i + 1` device `i` (the delta bitmap, one byte for N ≤ 6).
fn changed_segments(codec: &StateCodec, parent: &[u8], child: &[u8]) -> u8 {
    let mut delta = Vec::new();
    codec
        .encode_delta(parent, child, &mut delta)
        .expect("valid encodings");
    delta[0]
}

/// `state` re-encoded with its counter set to `counter`.
fn with_counter(codec: &StateCodec, state: &[u8], counter: u64) -> Vec<u8> {
    let mut s = codec.decode(state).expect("valid encoding");
    s.counter = counter;
    codec.encode(&s)
}

/// Counter pairs a link steps across: each crosses a varint width, which
/// shifts every later segment bound of the child.
const WIDTH_CROSSINGS: [(u64, u64); 3] = [(127, 128), (16_383, 16_384), (128, 127)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random delta chains over reachable N = 2..=4 states, in resident
    /// and spilled arenas under every keyframe interval 1..=8: each entry
    /// must materialize to exactly the full bytes pushed, whichever links
    /// its chain crosses. Every chain holds links whose counter crosses a
    /// varint width, links that change the host-cache span, and links
    /// that change several devices at once.
    #[test]
    fn delta_chains_reproduce_pushed_bytes(
        n in 2usize..5,
        keyframe in 1u32..9,
        spilled in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (codec, universe) = chain_universe(n);
        let rules = Ruleset::with_devices(ProtocolConfig::full(), n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pushed: Vec<Vec<u8>> = vec![universe[rng.gen_range(0..universe.len())].clone()];
        let mut bases = vec![None];
        let (mut crossings, mut host_links, mut wide_links) = (0, 0, 0);
        for link in 0..96usize {
            // Mostly extend the newest entry, so chains reach the keyframe cap.
            let mut base = if rng.gen_range(0..4) == 0 {
                rng.gen_range(0..pushed.len())
            } else {
                pushed.len() - 1
            };
            let mut child = if link % 4 == 0 {
                // A real successor of the base.
                let succs = rules.successors(&codec.decode(&pushed[base]).unwrap());
                match succs.get(rng.gen_range(0..succs.len().max(1))) {
                    Some((_, s)) => codec.encode(s),
                    None => pushed[base].clone(),
                }
            } else {
                // Any reachable state: usually the host and several devices move.
                universe[rng.gen_range(0..universe.len())].clone()
            };
            if link % 4 == 3 {
                // Step the base's counter to `from` in a link of its own,
                // then cross to `to` with the base itself or the drawn state.
                let (from, to) = WIDTH_CROSSINGS[rng.gen_range(0..WIDTH_CROSSINGS.len())];
                let stepped = with_counter(&codec, &pushed[base], from);
                pushed.push(stepped);
                bases.push(Some(base as u32));
                base = pushed.len() - 1;
                if rng.gen_range(0..2) == 0 {
                    child = pushed[base].clone();
                }
                child = with_counter(&codec, &child, to);
                crossings += 1;
            }
            let bits = changed_segments(&codec, &pushed[base], &child);
            host_links += usize::from(bits & 1 != 0);
            wide_links += usize::from((bits >> 1).count_ones() >= 2);
            pushed.push(child);
            bases.push(Some(base as u32));
        }
        prop_assert!(crossings > 0 && host_links > 0 && wide_links > 0,
            "coverage: {crossings} crossings, {host_links} host links, {wide_links} wide links");

        let dir = std::env::temp_dir().join(format!(
            "cxl-codec-chain-{}-{n}-{keyframe}-{seed:x}",
            std::process::id()
        ));
        let mut arena = StateArena::new(codec);
        arena.enable_delta(keyframe);
        if spilled {
            arena.enable_spill(&dir, "chain").unwrap();
        }
        // What the arena should store, per the public encoder: a link below
        // the keyframe cap, as a delta when that is the shorter form.
        let (mut depth, mut stored_bytes, mut stored_deltas) = (Vec::<u32>::new(), 0, 0);
        for (id, (full, base)) in pushed.iter().zip(&bases).enumerate() {
            prop_assert_eq!(arena.push_encoded_delta(full, *base), id);
            let delta = base
                .map(|b| b as usize)
                .filter(|&b| depth[b] + 1 < keyframe)
                .map(|b| {
                    let mut delta = Vec::new();
                    codec.encode_delta(&pushed[b], full, &mut delta).unwrap();
                    (depth[b] + 1, delta)
                })
                .filter(|(_, delta)| delta.len() < full.len());
            if let Some((d, delta)) = delta {
                depth.push(d);
                stored_bytes += delta.len();
                stored_deltas += 1;
            } else {
                depth.push(0);
                stored_bytes += full.len();
            }
            if spilled && rng.gen_range(0..8) == 0 {
                arena.spill_cold(id.saturating_sub(rng.gen_range(0..6))).unwrap();
            }
        }
        // The arena encodes against bounds carried along the chain; they
        // must match a fresh parse, or links would carry extra segments.
        prop_assert_eq!(arena.byte_len(), stored_bytes);
        prop_assert_eq!(arena.delta_entries(), stored_deltas);
        if keyframe > 1 {
            prop_assert!(arena.delta_entries() > 0, "no delta links stored");
        }
        if spilled {
            prop_assert!(arena.spilled_extents() > 0, "nothing spilled");
        }
        let (mut buf, mut scratch) = (Vec::new(), codec.blank());
        for (id, full) in pushed.iter().enumerate() {
            buf.clear();
            arena.append_full_bytes(id, &mut buf);
            prop_assert_eq!(&buf, full, "append_full_bytes id={}", id);
            arena.decode_into(id, &mut scratch);
            prop_assert_eq!(&scratch, &codec.decode(full).unwrap(), "decode_into id={}", id);
            prop_assert!(arena.entry_matches(id, full), "entry_matches id={}", id);
            if !spilled {
                prop_assert!(!arena.entry_matches(id, &full[..full.len() - 1]));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The parent copies a delta's changed segments without reparsing the
    /// child, so each introduced segment must be validated on its own: a
    /// malformed one is refused, never spliced into a state.
    #[test]
    fn delta_with_malformed_segment_is_refused(
        n in 2usize..5,
        pick in any::<u64>(),
    ) {
        let (codec, universe) = chain_universe(n);
        let parent = &universe[pick as usize % universe.len()];
        // Bit `i + 1` of a delta bitmap names device `i`.
        let device_bit = 1u8 << (1 + (pick >> 32) as usize % n);
        // Bad DState, bad buffer tag, truncated, trailing byte, bad
        // instruction; then bad HState, truncated, trailing byte.
        let bad_devices: [&[u8]; 5] = [&[0x9f, 0], &[0xe0, 0], &[0x80], &[0x80, 0, 0], &[0, 0, 1, 3]];
        let bad_hosts: [&[u8]; 3] = [&[13, 0], &[0], &[0, 0, 0]];
        let cases = bad_devices
            .iter()
            .map(|seg| (device_bit, *seg))
            .chain(bad_hosts.iter().map(|seg| (1u8, *seg)));
        for (bitmap, seg) in cases {
            // Bitmap, zero counter difference, then the one changed segment.
            let mut delta = vec![bitmap, 0, seg.len() as u8];
            delta.extend_from_slice(seg);
            let mut out = Vec::new();
            let refused = codec.decode_delta(parent, &delta, &mut out);
            prop_assert!(refused.is_err(), "segment {:?} under bitmap {:#x} was accepted", seg, bitmap);
        }
        // The same framing with a well-formed segment is accepted.
        let mut delta = vec![device_bit, 0, 2, 0x80, 0];
        let mut out = Vec::new();
        codec.decode_delta(parent, &delta, &mut out).unwrap();
        delta[0] = 1;
        delta[3] = 0;
        out.clear();
        codec.decode_delta(parent, &delta, &mut out).unwrap();
    }
}

/// The exact text of every codec refusal. Checkpoint refusals print these
/// strings, so a change to any of them is a user-visible change; the parse
/// entry points that walk a whole state must also agree on each message.
#[test]
fn codec_error_messages_are_pinned() {
    use cxl_repro::core::codec::wire::WireReader;
    use cxl_repro::core::Topology;

    let codec = StateCodec::new(Topology::pair());
    // A full N = 2 encoding: counter 0, host (I, 0), then device 0's
    // segment `dev0` and an idle device 1 (quiet header, value 0).
    let state = |dev0: &[u8]| -> Vec<u8> {
        let mut bytes = vec![0, 0, 0];
        bytes.extend_from_slice(dev0);
        bytes.extend_from_slice(&[0x80, 0]);
        bytes
    };
    let idle = state(&[0x80, 0]);
    assert_eq!(
        codec.encode(&codec.decode(&idle).unwrap()),
        idle,
        "a canonical encoding"
    );

    // Every whole-state parser must print the same refusal.
    let refusals = |bytes: &[u8]| -> Vec<String> {
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        let (mut out, mut vals) = (Vec::new(), Vec::new());
        vec![
            codec.decode(bytes).unwrap_err().to_string(),
            codec
                .device_segment_bounds(bytes, &mut bounds)
                .unwrap_err()
                .to_string(),
            codec
                .map_vals(bytes, &mut out, |v| v)
                .unwrap_err()
                .to_string(),
            codec
                .collect_program_vals(bytes, &mut vals)
                .unwrap_err()
                .to_string(),
        ]
    };
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "truncated state",
            idle[..idle.len() - 1].to_vec(),
            "truncated at byte 6",
        ),
        (
            "trailing bytes",
            [&idle[..], &[0]].concat(),
            "1 trailing bytes after a complete state",
        ),
        ("varint overflow", vec![0xff; 12], "varint overflows u64"),
        (
            "HState",
            vec![0, 13, 0, 0x80, 0, 0x80, 0],
            "bad HState tag 13",
        ),
        ("DState", state(&[0x9f, 0]), "bad DState tag 31"),
        ("buffer", state(&[0xe0, 0]), "bad buffer tag 3"),
        ("instruction", state(&[0, 0, 1, 3]), "bad instruction tag 3"),
        (
            "bogus flag",
            state(&[0, 0, 0, 0, 0, 1, 2, 0, 0]),
            "bad bogus flag 2",
        ),
        (
            "D2HReqType",
            state(&[0, 0, 0, 1, 5, 0]),
            "bad D2HReqType tag 5",
        ),
        (
            "D2HRspType",
            state(&[0, 0, 0, 0, 1, 4, 0]),
            "bad D2HRspType tag 4",
        ),
        (
            "H2DReqType",
            state(&[0xc0, 0, 2, 0]),
            "bad H2DReqType tag 2",
        ),
        (
            "H2DRspType",
            state(&[0xa0, 0, 3, 0]),
            "bad H2DRspType tag 3",
        ),
        (
            "H2DRsp grant",
            state(&[0xa0, 0, 0x7c, 0]),
            "bad DState tag 31",
        ),
    ];
    for (what, bytes, message) in cases {
        let expected = format!("state decode error: {message}");
        for got in refusals(&bytes) {
            assert_eq!(got, expected, "{what}: {bytes:?}");
        }
    }

    // Segment- and header-level parsers name what they finished.
    let mut out = Vec::new();
    assert_eq!(
        StateCodec::map_device_segment_vals(&[0x80, 0, 7], &mut out, |v| v)
            .unwrap_err()
            .to_string(),
        "state decode error: 1 trailing bytes after a complete device segment"
    );
    assert_eq!(
        StateCodec::map_header_vals(&[0, 0, 0, 7, 7], &mut out, |v| v)
            .unwrap_err()
            .to_string(),
        "state decode error: 2 trailing bytes after a complete header"
    );

    // Delta refusals.
    let child = state(&[0x81, 0]);
    let mut delta = Vec::new();
    codec.encode_delta(&idle, &child, &mut delta).unwrap();
    let delta_refusal = |delta: &[u8]| {
        codec
            .decode_delta(&idle, delta, &mut Vec::new())
            .unwrap_err()
            .to_string()
    };
    assert_eq!(
        delta_refusal(&[&delta[..], &[0, 0]].concat()),
        "state decode error: 2 trailing bytes after a complete delta"
    );
    assert_eq!(
        delta_refusal(&delta[..delta.len() - 1]),
        format!(
            "state decode error: truncated at byte {} (wanted 2)",
            delta.len() - 2
        )
    );
    assert_eq!(
        delta_refusal(&[0x40, 0]),
        "state decode error: delta bitmap 0x40 names segments beyond 2 devices"
    );
    assert_eq!(
        codec
            .decode_delta(&idle[..5], &delta, &mut Vec::new())
            .unwrap_err()
            .to_string(),
        "state decode error: truncated at byte 5"
    );
    assert_eq!(
        codec
            .encode_delta(&idle, &child[..6], &mut Vec::new())
            .unwrap_err()
            .to_string(),
        "state decode error: truncated at byte 6"
    );

    // The wire framing behind checkpoint files, and arena restore.
    let mut r = WireReader::new(&[3, 1, 2]);
    assert_eq!(
        r.len_prefix(2).unwrap_err().to_string(),
        "state decode error: length prefix 3 overruns the remaining 2 bytes"
    );
    let mut r = WireReader::new(&[5, 1, 2]);
    assert_eq!(
        r.bytes().unwrap_err().to_string(),
        "state decode error: truncated at byte 1 (wanted 5)"
    );
    assert_eq!(
        WireReader::new(&[0x80]).varint().unwrap_err().to_string(),
        "state decode error: truncated at byte 1"
    );
    assert_eq!(
        StateArena::from_parts(codec, state(&[0x9f, 0]), vec![0])
            .unwrap_err()
            .to_string(),
        "state decode error: arena entry 0: state decode error: bad DState tag 31"
    );
}

/// BFS-walk a small N-device grid, returning `(parent_index,
/// full_encoding)` pairs in discovery order (entry 0, the initial
/// state, has parent `usize::MAX`), deduped by encoding — the
/// parent/child structure the delta store compresses.
fn walk_encoded(n: usize, limit: usize) -> (StateCodec, Vec<(usize, Vec<u8>)>) {
    let mut progs = vec![programs::stores(0, 2), programs::loads(2)];
    progs.truncate(n);
    let initial = SystemState::initial_n(n, progs);
    let rules = Ruleset::with_topology(ProtocolConfig::full(), initial.topology());
    let codec = StateCodec::new(initial.topology());
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<(usize, Vec<u8>)> = Vec::new();
    let enc = codec.encode(&initial);
    seen.insert(enc.clone());
    out.push((usize::MAX, enc));
    let mut cursor = 0;
    while cursor < out.len() && out.len() < limit {
        let parent = codec.decode(&out[cursor].1).unwrap();
        for (_, succ) in rules.successors(&parent) {
            if out.len() >= limit {
                break;
            }
            let enc = codec.encode(&succ);
            if seen.insert(enc.clone()) {
                out.push((cursor, enc));
            }
        }
        cursor += 1;
    }
    (codec, out)
}

#[test]
fn delta_roundtrip_is_byte_exact() {
    for n in 2..=4 {
        let (codec, states) = walk_encoded(n, 400);
        let mut delta = Vec::new();
        let mut back = Vec::new();
        let mut smaller = 0usize;
        for (parent, child) in &states[1..] {
            let parent_bytes = &states[*parent].1;
            delta.clear();
            codec.encode_delta(parent_bytes, child, &mut delta).unwrap();
            back.clear();
            codec.decode_delta(parent_bytes, &delta, &mut back).unwrap();
            assert_eq!(&back, child, "delta round-trip must be byte-exact (N={n})");
            if delta.len() < child.len() {
                smaller += 1;
            }
        }
        // The premise of the whole optimisation: a BFS child usually
        // touches a minority of segments.
        assert!(
            smaller * 2 > (states.len() - 1),
            "N={n}: only {smaller}/{} deltas beat the full encoding",
            states.len() - 1
        );
    }
}

/// A delta-armed arena fed BFS parents stays byte-identical to a
/// plain arena on every read path.
#[test]
fn arena_delta_chains_materialize_exactly() {
    for keyframe in [1u32, 2, 3, 16] {
        let (codec, states) = walk_encoded(3, 300);
        let mut plain = StateArena::new(codec);
        let mut compressed = StateArena::new(codec);
        compressed.enable_delta(keyframe);
        for (parent, enc) in &states {
            plain.push_encoded(enc);
            let base = (*parent != usize::MAX).then_some(*parent as u32);
            compressed.push_encoded_delta(enc, base);
        }
        assert_eq!(plain.len(), compressed.len());
        assert_eq!(plain.full_payload_bytes(), compressed.full_payload_bytes());
        let mut buf = Vec::new();
        for id in 0..plain.len() {
            assert_eq!(compressed.decode(id), plain.decode(id), "K={keyframe} id={id}");
            buf.clear();
            compressed.append_full_bytes(id, &mut buf);
            assert_eq!(buf, plain.bytes_of(id), "K={keyframe} id={id}");
            assert!(compressed.entry_matches(id, plain.bytes_of(id)));
            assert!(!compressed.entry_matches(id, &buf[..buf.len() - 1]));
        }
        if keyframe > 1 {
            assert!(compressed.delta_entries() > 0, "K={keyframe}: no deltas stored");
            assert!(
                compressed.byte_len() < plain.byte_len(),
                "K={keyframe}: delta store not smaller ({} vs {})",
                compressed.byte_len(),
                plain.byte_len()
            );
        } else {
            // K=1 means every entry is a keyframe.
            assert_eq!(compressed.delta_entries(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The satellite property: for N in 2..=4 and a random keyframe
    /// interval, every materialized entry of a delta arena equals
    /// the full encoding that was pushed, byte for byte.
    #[test]
    fn prop_delta_arena_is_byte_exact(
        n in 2usize..5,
        keyframe in 1u32..9,
        limit in 32usize..160,
    ) {
        let (codec, states) = walk_encoded(n, limit);
        let mut arena = StateArena::new(codec);
        arena.enable_delta(keyframe);
        for (parent, enc) in &states {
            let base = (*parent != usize::MAX).then_some(*parent as u32);
            arena.push_encoded_delta(enc, base);
        }
        let mut buf = Vec::new();
        for (id, (_, enc)) in states.iter().enumerate() {
            buf.clear();
            arena.append_full_bytes(id, &mut buf);
            prop_assert_eq!(&buf, enc);
        }
    }
}

fn scratch_spill_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("cxl-codec-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn arena_spill_faults_back_in() {
    let (codec, states) = walk_encoded(3, 300);
    let mut plain = StateArena::new(codec);
    let mut spilling = StateArena::new(codec);
    let dir = scratch_spill_dir("plainspill");
    spilling.enable_spill(&dir, "shard0").unwrap();
    for (_, enc) in &states {
        plain.push_encoded(enc);
        spilling.push_encoded(enc);
    }
    let resident_before = spilling.resident_payload_bytes();
    // Seal two extents: a cold prefix, then everything but the tail.
    let freed = spilling.spill_cold(states.len() / 3).unwrap();
    assert!(freed > 0);
    let freed2 = spilling.spill_cold(states.len() - 8).unwrap();
    assert!(freed2 > 0);
    assert_eq!(spilling.spilled_extents(), 2);
    assert_eq!(
        resident_before - freed - freed2,
        spilling.resident_payload_bytes(),
        "freed bytes must leave RAM"
    );
    assert_eq!(spilling.byte_len(), plain.byte_len(), "logical size unchanged");
    let mut buf = Vec::new();
    for id in 0..plain.len() {
        assert_eq!(spilling.decode(id), plain.decode(id), "id={id}");
        buf.clear();
        spilling.append_full_bytes(id, &mut buf);
        assert_eq!(buf, plain.bytes_of(id), "id={id}");
        assert!(spilling.entry_matches(id, plain.bytes_of(id)));
    }
    assert!(spilling.faulted_extents() >= 1, "cold reads must fault extents in");
    // Replays are deterministic: a second full sweep agrees.
    for id in 0..plain.len() {
        assert_eq!(spilling.decode(id), plain.decode(id), "replay id={id}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spilled_delta_arena_equals_plain() {
    let (codec, states) = walk_encoded(3, 300);
    let mut plain = StateArena::new(codec);
    let mut arena = StateArena::new(codec);
    arena.enable_delta(4);
    let dir = scratch_spill_dir("deltaspill");
    arena.enable_spill(&dir, "shard0").unwrap();
    for (i, (parent, enc)) in states.iter().enumerate() {
        plain.push_encoded(enc);
        let base = (*parent != usize::MAX).then_some(*parent as u32);
        arena.push_encoded_delta(enc, base);
        // Spill in mid-run waves, as the level barrier does.
        if i == 100 || i == 200 {
            arena.spill_cold(i - 20).unwrap();
        }
    }
    assert!(arena.spilled_extents() >= 2);
    assert!(arena.delta_entries() > 0);
    let mut buf = Vec::new();
    for id in 0..plain.len() {
        buf.clear();
        arena.append_full_bytes(id, &mut buf);
        assert_eq!(buf, plain.bytes_of(id), "id={id}");
    }
    // Cross-extent delta chains survive a shrink (which drops the
    // fault-in cache).
    arena.shrink_to_fit();
    assert_eq!(arena.decode(150), plain.decode(150));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn one_reader_sweeps_a_spilled_arena_like_per_entry_reads() {
    // Two identical delta arenas with sealed extents: one swept entry by
    // entry, the other through one reader, which holds the fault-in
    // cache's lock for the whole sweep. Same bytes, and the same extents
    // faulted in, so the cache saw the same access order.
    let (codec, states) = walk_encoded(3, 300);
    let build = |tag: &str| {
        let mut arena = StateArena::new(codec);
        arena.enable_delta(4);
        let dir = scratch_spill_dir(tag);
        arena.enable_spill(&dir, "shard0").unwrap();
        for (i, (parent, enc)) in states.iter().enumerate() {
            arena.push_encoded_delta(enc, (*parent != usize::MAX).then_some(*parent as u32));
            if i % 50 == 49 {
                arena.spill_cold(i - 10).unwrap();
            }
        }
        (arena, dir)
    };
    let (per_entry, dir_a) = build("sweep-per-entry");
    let (swept, dir_b) = build("sweep-reader");
    assert!(swept.spilled_extents() >= 5);
    let mut read = swept.reader();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (id, (_, full)) in states.iter().enumerate() {
        a.clear();
        per_entry.append_full_bytes(id, &mut a);
        read.with_full(id, |bytes| {
            b.clear();
            b.extend_from_slice(bytes);
        });
        assert_eq!(a, *full, "id={id}");
        assert_eq!(b, *full, "id={id}");
    }
    drop(read);
    assert!(swept.faulted_extents() > 0, "the sweep reads sealed entries");
    assert_eq!(swept.faulted_extents(), per_entry.faulted_extents());
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn corrupt_extents_are_detected() {
    let (codec, states) = walk_encoded(2, 60);
    let mut arena = StateArena::new(codec);
    let dir = scratch_spill_dir("corrupt");
    arena.enable_spill(&dir, "shard0").unwrap();
    for (_, enc) in &states {
        arena.push_encoded(enc);
    }
    arena.spill_cold(states.len() / 2).unwrap();
    let extent_path = dir.join("shard0-000000.cxlspill");
    let mut raw = std::fs::read(&extent_path).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0xff;
    std::fs::write(&extent_path, &raw).unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| arena.decode(0)));
    assert!(result.is_err(), "corrupted extent must not decode silently");
    // The panic poisoned the fault-in cache's lock mid-read, which the
    // arena ignores: a resident entry still decodes, the fault count
    // still answers, and the corrupt extent still refuses.
    let last = states.len() - 1;
    assert_eq!(arena.decode(last), codec.decode(&states[last].1).unwrap());
    assert_eq!(arena.faulted_extents(), 0);
    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| arena.decode(0)));
    assert!(again.is_err(), "a corrupt extent must refuse every read");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn push_full_from_materializes_across_arenas() {
    let (codec, states) = walk_encoded(2, 80);
    let mut src = StateArena::new(codec);
    src.enable_delta(4);
    for (parent, enc) in &states {
        let base = (*parent != usize::MAX).then_some(*parent as u32);
        src.push_encoded_delta(enc, base);
    }
    let mut dst = StateArena::new(codec);
    for id in 0..src.len() {
        dst.push_full_from(&src, id);
    }
    for (id, (_, enc)) in states.iter().enumerate() {
        assert_eq!(dst.bytes_of(id), &enc[..], "id={id}");
    }
}

/// The checker's phase workers decode from one shared store. Four threads
/// reading one delta + spill arena at once, sealed entries included, must
/// each see exactly the bytes that were pushed.
#[test]
fn a_shared_arena_reads_the_same_from_every_thread() {
    let (codec, universe) = chain_universe(3);
    let dir = scratch_spill_dir("shared");
    let mut arena = StateArena::new(codec);
    arena.enable_delta(4);
    arena.enable_spill(&dir, "shard0").unwrap();
    for (id, full) in universe.iter().enumerate() {
        arena.push_encoded_delta(full, id.checked_sub(1).map(|b| b as u32));
    }
    arena.spill_cold(universe.len() / 2).unwrap();
    assert!(arena.delta_entries() > 0 && arena.spilled_extents() > 0);
    let (arena, universe) = (&arena, &universe);
    let start = &std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                // All four read at once, each a quarter further along, so
                // sealed and resident reads interleave across the threads.
                start.wait();
                let mut buf = Vec::new();
                for k in 0..universe.len() {
                    let id = (k + t * universe.len() / 4) % universe.len();
                    buf.clear();
                    arena.append_full_bytes(id, &mut buf);
                    assert_eq!(buf, universe[id], "thread {t} id={id}");
                }
            });
        }
    });
    assert!(arena.faulted_extents() > 0, "sealed reads must fault extents in");
    std::fs::remove_dir_all(&dir).unwrap();
}
