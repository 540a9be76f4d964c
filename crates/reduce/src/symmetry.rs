//! Device-symmetry detection and byte-level canonicalization.
//!
//! The model is *device-uniform*: every rule shape is instantiated
//! identically for every device, host guards quantify over peers as sets,
//! and the checked properties (SWMR, the conjunct invariant) are
//! conjunctions over devices and ordered device pairs. The only asymmetry
//! a concrete exploration has is the one its **initial state** introduces
//! — which devices start with which programs. Any permutation of devices
//! that fixes the initial state therefore maps reachable states to
//! reachable states (over the equivariant successor relation of
//! [`cxl_core::Ruleset::for_each_enabled_variants`]) and preserves every
//! checked verdict, so exploration only needs one representative per
//! orbit.
//!
//! ## The detected subgroup
//!
//! [`SymmetryGroup::detect`] encodes the initial state with the run's
//! [`StateCodec`] and partitions device indices into **classes** by byte
//! equality of their packed device segments. The induced subgroup is the
//! product of the full symmetric groups on each class — exactly the
//! permutations under which the initial state (and hence the programs) is
//! invariant. Identical programs on idle devices — the strict-grid sweep
//! shape — give one class of size N and a subgroup of order N!.
//!
//! ## Canonical form, defined on bytes
//!
//! Because the codec lays a state out as a fixed global header followed
//! by per-device segments in index order
//! ([`StateCodec::device_segment_bounds`]), a device permutation acts on
//! the *encoding* by rearranging segments. The canonical representative
//! of an orbit is the encoding whose class segments are bytewise
//! ascending — the lexicographically-least segment arrangement reachable
//! within the subgroup. Canonicalization is therefore a per-class sort of
//! byte slices: no decoding, no successor generation, and the dedup
//! fingerprint of the canonical bytes is computed by the checker exactly
//! as for any other encoding.
//!
//! Both required properties are immediate from that definition:
//! **orbit-invariance** (`canon(σ(s)) == canon(s)` — a permutation within
//! classes permutes each class's segment *multiset*, which the sort
//! forgets) and **idempotence** (sorting a sorted arrangement changes
//! nothing). The workspace's `tests/reduction.rs` proptests pin both over
//! random states and random subgroup elements at N ∈ 2..=4.

use cxl_core::codec::StateCodec;
use cxl_core::{SystemState, Topology};

/// The device-permutation subgroup an exploration is reduced by: a
/// partition of the device indices into interchangeability classes.
#[derive(Clone, Debug)]
pub struct SymmetryGroup {
    device_count: usize,
    /// Device indices per class, each ascending; singleton classes kept
    /// (they contribute nothing to canonicalization but document the
    /// partition).
    classes: Vec<Vec<usize>>,
    /// Group order: ∏ |class|!.
    order: u64,
}

pub(crate) fn factorial(n: usize) -> u64 {
    (1..=n as u64).product()
}

impl SymmetryGroup {
    /// The trivial group over `device_count` devices (no reduction).
    #[must_use]
    pub fn trivial(device_count: usize) -> Self {
        let classes = (0..device_count).map(|i| vec![i]).collect();
        SymmetryGroup { device_count, classes, order: 1 }
    }

    /// Detect the subgroup fixing `initial`: devices whose packed initial
    /// segments are byte-equal land in one class.
    ///
    /// # Panics
    /// Panics if `initial` does not inhabit `codec`'s topology.
    #[must_use]
    pub fn detect(codec: &StateCodec, initial: &SystemState) -> Self {
        let n = initial.device_count();
        assert_eq!(n, codec.topology().device_count(), "codec/state topology mismatch");
        let bytes = codec.encode(initial);
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        codec.device_segment_bounds(&bytes, &mut bounds).expect("own encoding parses");

        let mut classes: Vec<Vec<usize>> = Vec::new();
        let mut reps: Vec<&[u8]> = Vec::new();
        for i in 0..n {
            let seg = &bytes[bounds[i]..bounds[i + 1]];
            match reps.iter().position(|&r| r == seg) {
                Some(c) => classes[c].push(i),
                None => {
                    classes.push(vec![i]);
                    reps.push(seg);
                }
            }
        }
        let order = classes.iter().map(|c| factorial(c.len())).product();
        SymmetryGroup { device_count: n, classes, order }
    }

    /// Number of devices the group acts on.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// Group order (∏ |class|!). 1 means the group is trivial and
    /// canonicalization is the identity.
    #[must_use]
    pub fn order(&self) -> u64 {
        self.order
    }

    /// Does the group contain any non-identity permutation?
    #[must_use]
    pub fn nontrivial(&self) -> bool {
        self.order > 1
    }

    /// The interchangeability classes (device indices, ascending).
    #[must_use]
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Every permutation in the subgroup, as `perm[new_slot] = old_slot`
    /// maps — test and de-canonicalization support (the order is the
    /// product of class factorials, ≤ 8! by the topology bound; callers
    /// enumerate only for small N).
    #[must_use]
    pub fn permutations(&self) -> Vec<Vec<usize>> {
        let mut perms = vec![(0..self.device_count).collect::<Vec<usize>>()];
        for class in &self.classes {
            if class.len() < 2 {
                continue;
            }
            let arrangements = heap_permutations(class);
            let mut next = Vec::with_capacity(perms.len() * arrangements.len());
            for p in &perms {
                for arr in &arrangements {
                    let mut q = p.clone();
                    for (slot, &src) in class.iter().zip(arr) {
                        q[*slot] = src;
                    }
                    next.push(q);
                }
            }
            perms = next;
        }
        perms
    }

    /// Rewrite `bytes` (a codec encoding) to its orbit representative in
    /// place, returning `true` if the arrangement changed. `scratch` is a
    /// reusable assembly buffer (the canonical encoding has the same
    /// length, so the rewrite is a straight copy-back).
    ///
    /// # Panics
    /// Panics if `bytes` is not a valid encoding for `codec` — the
    /// checker only feeds its own codec output through here.
    pub fn canonicalize(
        &self,
        codec: &StateCodec,
        bytes: &mut [u8],
        scratch: &mut Vec<u8>,
    ) -> bool {
        if !self.nontrivial() {
            return false;
        }
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        codec
            .device_segment_bounds(bytes, &mut bounds)
            .expect("canonicalize over codec output");

        // Assignment: slot i takes original device src_of_slot[i]'s
        // segment. Stable per-class sort by segment bytes, so byte-equal
        // segments never reorder and a non-identity assignment implies a
        // real byte change.
        let mut src_of_slot = [0usize; Topology::MAX_DEVICES];
        for (i, slot) in src_of_slot.iter_mut().enumerate().take(self.device_count) {
            *slot = i;
        }
        let seg = |i: usize| &bytes[bounds[i]..bounds[i + 1]];
        let mut changed = false;
        for class in &self.classes {
            if class.len() < 2 {
                continue;
            }
            let mut order = [0usize; Topology::MAX_DEVICES];
            let order = &mut order[..class.len()];
            order.copy_from_slice(class);
            order.sort_by(|&a, &b| seg(a).cmp(seg(b)));
            for (&slot, &src) in class.iter().zip(order.iter()) {
                src_of_slot[slot] = src;
                changed |= slot != src;
            }
        }
        if !changed {
            return false;
        }
        scratch.clear();
        scratch.extend_from_slice(&bytes[..bounds[0]]);
        for &src in &src_of_slot[..self.device_count] {
            scratch.extend_from_slice(seg(src));
        }
        debug_assert_eq!(scratch.len(), bytes.len(), "permutation preserves length");
        bytes.copy_from_slice(scratch);
        true
    }

    /// Write the `perm`-arranged form of an encoded state into `out`
    /// (cleared first): the global header verbatim, then device segments
    /// with slot `i` taking original device `perm[i]`'s segment — the
    /// byte-level action of [`apply_permutation`]. Used by the joint
    /// device×data canonicalization, which minimises the renumbered
    /// encoding over every subgroup arrangement.
    ///
    /// # Panics
    /// Panics if `bytes` is not a valid encoding for `codec` or `perm`
    /// is not device-count sized.
    pub fn permute_encoding(
        codec: &StateCodec,
        bytes: &[u8],
        perm: &[usize],
        out: &mut Vec<u8>,
    ) {
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        codec.device_segment_bounds(bytes, &mut bounds).expect("permute over codec output");
        assert_eq!(perm.len(), codec.topology().device_count(), "permutation arity");
        out.clear();
        out.extend_from_slice(&bytes[..bounds[0]]);
        for &src in perm {
            out.extend_from_slice(&bytes[bounds[src]..bounds[src + 1]]);
        }
    }

    /// The orbit size of an encoded state under this subgroup:
    /// ∏ over classes of `k! / ∏ m_j!`, where the `m_j` are the byte-equal
    /// multiplicities of the class's segments. Summed over a canonical
    /// arena this is exactly how many states the unreduced exploration of
    /// the equivariant relation would store — the effective-reduction
    /// numerator the report prints.
    ///
    /// # Panics
    /// Panics if `bytes` is not a valid encoding for `codec`.
    #[must_use]
    pub fn orbit_size(&self, codec: &StateCodec, bytes: &[u8]) -> u64 {
        if !self.nontrivial() {
            return 1;
        }
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        codec.device_segment_bounds(bytes, &mut bounds).expect("orbit_size over codec output");
        let seg = |i: usize| &bytes[bounds[i]..bounds[i + 1]];
        let mut size = 1u64;
        for class in &self.classes {
            if class.len() < 2 {
                continue;
            }
            let mut denom = 1u64;
            let mut counted = [false; Topology::MAX_DEVICES];
            for (a, &i) in class.iter().enumerate() {
                if counted[a] {
                    continue;
                }
                let mut m = 1usize;
                for (b, &j) in class.iter().enumerate().skip(a + 1) {
                    if !counted[b] && seg(i) == seg(j) {
                        counted[b] = true;
                        m += 1;
                    }
                }
                denom *= factorial(m);
            }
            size *= factorial(class.len()) / denom;
        }
        size
    }
}

/// Every permutation of `0..n` (as `perm[new_slot] = old_slot` maps) —
/// the candidate space the data-symmetry engine filters for value-blind
/// admissibility. `n ≤ 8` by the topology bound.
pub(crate) fn all_permutations(n: usize) -> Vec<Vec<usize>> {
    heap_permutations(&(0..n).collect::<Vec<usize>>())
}

/// All arrangements of `items` (Heap's algorithm; |items| ≤ 8).
fn heap_permutations(items: &[usize]) -> Vec<Vec<usize>> {
    let mut a = items.to_vec();
    let n = a.len();
    let mut out = vec![a.clone()];
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                a.swap(0, i);
            } else {
                a.swap(c[i], i);
            }
            out.push(a.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// Apply a device permutation to a state: `perm[new_slot] = old_slot`
/// (slot `i` of the result holds what slot `perm[i]` held). Host cache
/// and counter are global and unaffected.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..state.device_count()`.
#[must_use]
pub fn apply_permutation(state: &SystemState, perm: &[usize]) -> SystemState {
    let n = state.device_count();
    assert_eq!(perm.len(), n, "permutation arity mismatch");
    let mut seen = [false; Topology::MAX_DEVICES];
    for &p in perm {
        assert!(p < n && !seen[p], "not a permutation: {perm:?}");
        seen[p] = true;
    }
    let mut out = state.clone();
    for (new_slot, &old_slot) in perm.iter().enumerate() {
        out.devs[new_slot].clone_from(&state.devs[old_slot]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;

    fn codec_for(s: &SystemState) -> StateCodec {
        StateCodec::new(s.topology())
    }

    #[test]
    fn detect_groups_identical_initial_devices() {
        // Three identical programs → one class of 3, order 6.
        let s = SystemState::initial_n(
            3,
            vec![programs::load(), programs::load(), programs::load()],
        );
        let g = SymmetryGroup::detect(&codec_for(&s), &s);
        assert_eq!(g.classes().len(), 1);
        assert_eq!(g.order(), 6);
        assert_eq!(g.permutations().len(), 6);

        // Distinct program on device 0 → classes {0}, {1, 2}, order 2.
        let s = SystemState::initial_n(3, vec![programs::store(1)]);
        let g = SymmetryGroup::detect(&codec_for(&s), &s);
        assert_eq!(g.order(), 2);
        assert_eq!(g.classes().iter().map(Vec::len).max(), Some(2));

        // All distinct → trivial.
        let s = SystemState::initial_n(
            3,
            vec![programs::store(1), programs::store(2), programs::store(3)],
        );
        let g = SymmetryGroup::detect(&codec_for(&s), &s);
        assert!(!g.nontrivial());
        assert_eq!(g.permutations(), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn canonicalize_is_idempotent_and_orbit_invariant() {
        let init = SystemState::initial_n(
            3,
            vec![programs::store(5), programs::store(5), programs::store(5)],
        );
        let codec = codec_for(&init);
        let g = SymmetryGroup::detect(&codec, &init);

        // A state deep in the space with asymmetric progress.
        let mut s = init.clone();
        s.counter = 2;
        s.devs[0].cache.val = 9;
        s.devs[2].prog.clear();
        let mut scratch = Vec::new();

        let mut canon = codec.encode(&s);
        g.canonicalize(&codec, &mut canon, &mut scratch);
        let mut twice = canon.clone();
        assert!(!g.canonicalize(&codec, &mut twice, &mut scratch), "idempotent");
        assert_eq!(twice, canon);

        for perm in g.permutations() {
            let permuted = apply_permutation(&s, &perm);
            let mut enc = codec.encode(&permuted);
            g.canonicalize(&codec, &mut enc, &mut scratch);
            assert_eq!(enc, canon, "orbit member under {perm:?} canonicalized differently");
        }
        // The canonical encoding decodes to an orbit member: same
        // multiset of device segments, same header.
        let decoded = codec.decode(&canon).unwrap();
        assert_eq!(decoded.counter, s.counter);
        assert_eq!(decoded.host, s.host);
    }

    #[test]
    fn orbit_size_counts_distinct_arrangements() {
        let init = SystemState::initial_n(
            3,
            vec![programs::load(), programs::load(), programs::load()],
        );
        let codec = codec_for(&init);
        let g = SymmetryGroup::detect(&codec, &init);

        // All three devices identical: a single arrangement.
        assert_eq!(g.orbit_size(&codec, &codec.encode(&init)), 1);

        // One device differs: 3 arrangements (choose its slot).
        let mut s = init.clone();
        s.devs[1].cache.val = 7;
        assert_eq!(g.orbit_size(&codec, &codec.encode(&s)), 3);

        // All three distinct: the full 3! orbit.
        s.devs[2].cache.val = 8;
        assert_eq!(g.orbit_size(&codec, &codec.encode(&s)), 6);

        // Orbit size equals the number of distinct permuted encodings.
        let mut distinct: Vec<Vec<u8>> = Vec::new();
        for perm in g.permutations() {
            let enc = codec.encode(&apply_permutation(&s, &perm));
            if !distinct.contains(&enc) {
                distinct.push(enc);
            }
        }
        assert_eq!(distinct.len() as u64, g.orbit_size(&codec, &codec.encode(&s)));
    }

    #[test]
    fn trivial_group_is_inert() {
        let s = SystemState::initial(programs::store(1), programs::load());
        let codec = codec_for(&s);
        let g = SymmetryGroup::detect(&codec, &s);
        assert!(!g.nontrivial());
        let mut enc = codec.encode(&s);
        let orig = enc.clone();
        assert!(!g.canonicalize(&codec, &mut enc, &mut Vec::new()));
        assert_eq!(enc, orig);
        assert_eq!(g.orbit_size(&codec, &enc), 1);
        assert_eq!(SymmetryGroup::trivial(2).order(), 1);
    }

    #[test]
    fn apply_permutation_round_trips() {
        let mut s = SystemState::initial_n(3, vec![programs::load()]);
        s.devs[2].cache.val = 4;
        let p = vec![2, 0, 1];
        let q = apply_permutation(&s, &p);
        assert_eq!(q.devs[0].cache.val, 4);
        // Inverse permutation restores the original.
        let mut inv = vec![0usize; 3];
        for (i, &pi) in p.iter().enumerate() {
            inv[pi] = i;
        }
        assert_eq!(apply_permutation(&q, &inv), s);
    }
}
