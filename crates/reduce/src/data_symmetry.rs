//! Data-symmetry over the abstract `Val` domain: first-occurrence value
//! renumbering at the packed-byte level, and detection of the
//! value-blind device permutations it composes with.
//!
//! ## Why values are permutable at all
//!
//! The model treats values as **opaque tokens**: no rule guard compares a
//! value to anything, and rule actions only *copy* values between
//! components (host cache, device caches, data messages) or write a
//! program `Store` operand into the line. A bijection π on `Val` applied
//! to a **whole state — programs included** — therefore maps transitions
//! to transitions (`Store(v)` in `s` mirrors `Store(π(v))` in `π(s)`,
//! writing π(v)), and the checked properties compare values only for
//! *equality between components* (SWMR reads no values; the data-value
//! invariant conjuncts assert `DCache.Val = HCache.Val`), so every
//! verdict — clean, violating per property, deadlocked — is constant on
//! π-classes. Two states related by such a bijection are
//! *data-equivalent*: bisimilar, property-identical, and the checker
//! only needs one representative per class. The π must fix:
//!
//! - the **pinned** values: the initial state's *live* values (host and
//!   device cache values, any pre-seeded data messages) — pinning these
//!   keeps early states in the user's own coordinates — and any
//!   **assertion literals** an ad-hoc property compares against,
//!   supplied as `extra_pinned` (the stock SWMR/invariant properties
//!   have none). Store operands are deliberately *not* pinned: a value
//!   the programs mint is just another token.
//!
//! ## Canonical form
//!
//! [`DataSymmetry::renumber`] rewrites an encoding's value slots in
//! **encoding order** (host value, then per device its cache value,
//! program operands, and data-message values): pinned values are copied
//! unchanged; the k-th distinct non-pinned value encountered is replaced
//! by the k-th smallest non-negative integer outside the pinned set. The
//! first-occurrence pattern is invariant under any admissible π, so
//! renumbering is idempotent and constant on data-equivalence classes.
//!
//! ## Composition with device symmetry
//!
//! Renumbering alone is *not* invariant under device permutation
//! (permuting segments changes occurrence order), and — the larger prize
//! — devices whose programs are equal **up to a value bijection**
//! (`[Store(1), Load]` vs `[Store(2), Load]`: asymmetric programs over a
//! symmetric value space) are interchangeable even though the byte-level
//! subgroup of PR 4 sees them as distinct.
//! [`DataSymmetry::value_blind_device_perms`] detects every device
//! permutation σ for which some admissible π makes `σ(π(init)) = init` —
//! by the renumbering itself: σ qualifies exactly when `σ(init)`
//! renumbers to the same bytes as `init`. [`crate::Reduction`] then
//! takes the lexicographically-least renumbered arrangement over that
//! set, a joint canonical form under which the two engines compose
//! order-independently.

use crate::symmetry::all_permutations;
use cxl_core::codec::StateCodec;
use cxl_core::ids::Val;
use cxl_core::SystemState;
use std::cell::RefCell;

thread_local! {
    /// [`DataSymmetry::renumber`]'s value map, one per thread and
    /// cleared on entry: it stops growing once it has held the most
    /// distinct free values a state of the run carries.
    static RENUMBER_MAP: RefCell<Vec<(Val, Val)>> = const { RefCell::new(Vec::new()) };
}

/// The data-symmetry engine for one exploration run: the codec it parses
/// encodings with and the pinned values (initial-state live values plus
/// caller-supplied assertion literals).
#[derive(Clone, Debug)]
pub struct DataSymmetry {
    codec: StateCodec,
    pinned: Vec<Val>,
    potentially_active: bool,
}

impl DataSymmetry {
    /// Build the engine for exploring from `initial`. `extra_pinned`
    /// lists assertion literals of ad-hoc properties (values the verdict
    /// may compare against) — empty for the stock SWMR/invariant
    /// properties.
    ///
    /// # Panics
    /// Panics if `initial` does not inhabit `codec`'s topology.
    #[must_use]
    pub fn detect(codec: &StateCodec, initial: &SystemState, extra_pinned: &[Val]) -> Self {
        assert_eq!(
            initial.device_count(),
            codec.topology().device_count(),
            "codec/state topology mismatch"
        );
        let mut pinned: Vec<Val> = Vec::new();
        let pin = |v: Val, pinned: &mut Vec<Val>| {
            if !pinned.contains(&v) {
                pinned.push(v);
            }
        };
        for &v in extra_pinned {
            pin(v, &mut pinned);
        }
        pin(initial.host.val, &mut pinned);
        for d in initial.device_ids() {
            let dev = initial.dev(d);
            pin(dev.cache.val, &mut pinned);
            for m in dev.d2h_data.iter().chain(dev.h2d_data.iter()) {
                pin(m.val, &mut pinned);
            }
        }
        // Potentially active iff the workload mints any non-pinned
        // value: a store operand outside the pinned set is a free token
        // the renumbering can act on. Workloads whose operands all
        // coincide with pinned values (or that store nothing) keep the
        // engine inert.
        let mut operands = Vec::new();
        codec
            .collect_program_vals(&codec.encode(initial), &mut operands)
            .expect("own encoding parses");
        let potentially_active = operands.iter().any(|v| !pinned.contains(v));
        DataSymmetry { codec: *codec, pinned, potentially_active }
    }

    /// Could this engine ever rewrite a reachable state? False when every
    /// value the workload mints is pinned — callers may then skip
    /// installing the engine.
    #[must_use]
    pub fn potentially_active(&self) -> bool {
        self.potentially_active
    }

    /// The pinned values (initial-state live values plus assertion
    /// literals), in detection order.
    #[must_use]
    pub fn static_pinned(&self) -> &[Val] {
        &self.pinned
    }

    /// Canonicalize `bytes`' value assignment into `out` (cleared
    /// first): pinned values are fixed; every other value — operands
    /// included — is renumbered to first-occurrence order over the
    /// canonical token sequence.
    ///
    /// Returns `(changed, distinct_free)`: whether any slot's value
    /// changed, and how many distinct non-pinned values occurred.
    ///
    /// # Panics
    /// Panics if `bytes` is not a valid encoding for the engine's codec —
    /// the checker only feeds its own codec output through here.
    pub fn renumber(&self, bytes: &[u8], out: &mut Vec<u8>) -> (bool, usize) {
        RENUMBER_MAP.with_borrow_mut(|map| {
            // The handful of distinct values a state can hold makes
            // linear scans the right data structure here.
            map.clear();
            let mut next_token: Val = 0;
            let mut changed = false;
            self.codec
                .map_vals(bytes, out, |v| {
                    if self.pinned.contains(&v) {
                        return v;
                    }
                    if let Some(&(_, t)) = map.iter().find(|&&(from, _)| from == v) {
                        return t;
                    }
                    while self.pinned.contains(&next_token) {
                        next_token += 1;
                    }
                    let t = next_token;
                    next_token += 1;
                    map.push((v, t));
                    changed |= t != v;
                    t
                })
                .expect("renumber over codec output");
            (changed, map.len())
        })
    }

    /// Every device permutation σ whose action on `initial` is undone by
    /// some admissible value bijection — i.e. `σ(initial)` and `initial`
    /// renumber to the same bytes. Always contains the identity;
    /// includes every byte-equal-class permutation (π = id) and, beyond
    /// those, permutations of devices running *value-isomorphic*
    /// programs. Returned as `perm[new_slot] = old_slot` maps.
    ///
    /// # Panics
    /// Panics if `initial` does not inhabit the engine's codec topology.
    #[must_use]
    pub fn value_blind_device_perms(&self, initial: &SystemState) -> Vec<Vec<usize>> {
        let base = {
            let mut out = Vec::new();
            self.renumber(&self.codec.encode(initial), &mut out);
            out
        };
        let mut cand = Vec::new();
        all_permutations(initial.device_count())
            .into_iter()
            .filter(|perm| {
                self.renumber(
                    &self.codec.encode(&crate::apply_permutation(initial, perm)),
                    &mut cand,
                );
                cand == base
            })
            .collect()
    }

    /// Apply a value mapping to a decoded state's value slots (cache
    /// values, data messages, **and** program operands) — the test-side
    /// mirror of an admissible bijection.
    ///
    /// # Panics
    /// Panics if the state's own encoding fails to parse (it cannot).
    #[must_use]
    pub fn apply_value_map(state: &SystemState, mut f: impl FnMut(Val) -> Val) -> SystemState {
        let codec = StateCodec::for_state(state);
        let bytes = codec.encode(state);
        let mut out = Vec::new();
        codec.map_vals(&bytes, &mut out, &mut f).expect("own encoding parses");
        codec.decode(&out).expect("mapped encoding decodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;
    use cxl_core::{DeviceId, Instruction};

    fn engine_for(s: &SystemState, extra: &[Val]) -> DataSymmetry {
        DataSymmetry::detect(&StateCodec::for_state(s), s, extra)
    }

    #[test]
    fn detection_pins_initial_live_values_and_extra_literals() {
        let init = SystemState::initial(programs::stores(1, 3), programs::load());
        let ds = engine_for(&init, &[99]);
        // 99 (extra), -1 (device lines), 0 (host) are pinned; the store
        // operands 1..=3 are free tokens.
        assert!(ds.static_pinned().contains(&99));
        assert!(ds.static_pinned().contains(&-1));
        assert!(ds.static_pinned().contains(&0));
        assert!(!ds.static_pinned().contains(&1));
        assert!(ds.potentially_active());

        // A storeless workload is inert; so is one whose operands are
        // already pinned.
        assert!(!engine_for(&SystemState::initial(programs::load(), vec![]), &[])
            .potentially_active());
        assert!(!engine_for(&SystemState::initial(programs::store(0), vec![]), &[])
            .potentially_active());
    }

    #[test]
    fn renumber_collapses_free_values_and_fixes_pinned() {
        let init = SystemState::initial(programs::stores(5, 2), programs::load());
        let ds = engine_for(&init, &[]);
        let codec = StateCodec::for_state(&init);

        // The initial state renumbers its own operands (5, 6 → 1, 2:
        // the first tokens outside the pinned {0, -1}); live values stay.
        let mut out = Vec::new();
        let (changed, free) = ds.renumber(&codec.encode(&init), &mut out);
        assert!(changed);
        assert_eq!(free, 2);
        let canon = codec.decode(&out).unwrap();
        assert_eq!(canon.host.val, 0);
        let ops: Vec<_> = canon.dev(DeviceId::D1).prog.iter().copied().collect();
        assert_eq!(ops, vec![Instruction::Store(1), Instruction::Store(2)]);

        // Two states whose only difference is which stale token sits
        // where renumber to the same bytes.
        let mut a = init.clone();
        a.dev_mut(DeviceId::D1).prog.clear();
        a.dev_mut(DeviceId::D1).cache.val = 6;
        a.host.val = 5;
        let mut b = a.clone();
        b.dev_mut(DeviceId::D1).cache.val = 5;
        b.host.val = 6;
        let mut out_b = Vec::new();
        ds.renumber(&codec.encode(&a), &mut out);
        ds.renumber(&codec.encode(&b), &mut out_b);
        assert_eq!(out, out_b, "value-isomorphic states must share a canonical form");

        // Idempotence: renumbering the canonical form changes nothing.
        let mut twice = Vec::new();
        let (again, _) = ds.renumber(&out, &mut twice);
        assert!(!again);
        assert_eq!(twice, out);
    }

    #[test]
    fn renumber_keeps_equality_patterns_distinct() {
        // Pattern preservation is what keeps the quotient sound: a state
        // where the host holds device 1's stale value must NOT merge
        // with one where it holds device 2's.
        let init =
            SystemState::initial(programs::stores(1, 1), programs::stores(2, 1));
        let ds = engine_for(&init, &[]);
        let codec = StateCodec::for_state(&init);
        let mut a = init.clone();
        a.dev_mut(DeviceId::D1).prog.clear();
        a.dev_mut(DeviceId::D2).prog.clear();
        a.dev_mut(DeviceId::D1).cache.val = 1;
        a.dev_mut(DeviceId::D2).cache.val = 2;
        a.host.val = 1; // host == device 1
        let mut b = a.clone();
        b.host.val = 2; // host == device 2
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        ds.renumber(&codec.encode(&a), &mut out_a);
        ds.renumber(&codec.encode(&b), &mut out_b);
        assert_ne!(out_a, out_b, "distinct equality patterns must stay distinct");
    }

    #[test]
    fn value_blind_perms_find_value_isomorphic_devices() {
        // [S1,L] / [S2,L] / [S3,L]: byte-distinct programs over a
        // symmetric value space — every device permutation is undone by
        // a value bijection, so all 3! arrangements qualify.
        let init = SystemState::initial_n(
            3,
            vec![
                vec![Instruction::Store(1), Instruction::Load].into(),
                vec![Instruction::Store(2), Instruction::Load].into(),
                vec![Instruction::Store(3), Instruction::Load].into(),
            ],
        );
        let ds = engine_for(&init, &[]);
        assert_eq!(ds.value_blind_device_perms(&init).len(), 6);

        // Structurally different programs do not qualify.
        let init = SystemState::initial_n(
            3,
            vec![
                vec![Instruction::Store(1), Instruction::Load].into(),
                vec![Instruction::Store(2), Instruction::Evict].into(),
                vec![Instruction::Load].into(),
            ],
        );
        let ds = engine_for(&init, &[]);
        assert_eq!(ds.value_blind_device_perms(&init), vec![vec![0, 1, 2]]);

        // Value sharing that no single bijection can undo: [S1,S2] vs
        // [S2,S3] would need π(2) = 1 and π(2) = 3 at once.
        let init = SystemState::initial(
            vec![Instruction::Store(1), Instruction::Store(2)],
            vec![Instruction::Store(2), Instruction::Store(3)],
        );
        let ds = engine_for(&init, &[]);
        assert_eq!(ds.value_blind_device_perms(&init), vec![vec![0, 1]]);
    }

    #[test]
    fn apply_value_map_round_trips_through_bijections() {
        let mut s = SystemState::initial(programs::store(3), programs::load());
        s.host.val = 4;
        s.dev_mut(DeviceId::D2).cache.val = 9;
        let mapped = DataSymmetry::apply_value_map(&s, |v| v + 10);
        assert_eq!(mapped.host.val, 14);
        assert_eq!(mapped.dev(DeviceId::D2).cache.val, 19);
        assert_eq!(
            mapped.dev(DeviceId::D1).prog.head(),
            Some(Instruction::Store(13)),
            "operands are value slots too"
        );
        let back = DataSymmetry::apply_value_map(&mapped, |v| v - 10);
        assert_eq!(back, s);
    }
}
