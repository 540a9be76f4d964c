//! Partition-refinement canonical labelling for the joint device×value
//! quotient — the `O(N·seg·log N)`-in-the-symmetric-case replacement for
//! the brute-force scan over every admissible device arrangement.
//!
//! ## The problem
//!
//! The joint canonical form of an encoded state is `min over σ ∈ G of
//! renumber(σ · bytes)` under lexicographic byte order, where `G` is the
//! admissible device-permutation group and `renumber` is
//! [`DataSymmetry::renumber`]'s first-occurrence value relabelling.
//! Enumerating `G` per successor is `O(|G| · len)`; a fully symmetric
//! grid has `|G| = N!`, which at N = 6 already means 720 full renumber
//! passes per successor and at N = 8 means 40,320 — the scan ROADMAP
//! item 2 calls out as the scalability ceiling.
//!
//! ## The labeller
//!
//! [`RefineLabeller`] computes the *same minimum* slot by slot, for any
//! `G` that is a **product of full symmetric groups over cells** (a
//! partition of the device indices — the orbit partition when the
//! admissible set is a full product, the byte-equality classes when the
//! capped fallback runs over that subgroup):
//!
//! 1. The global header renders first — it precedes every segment, is
//!    arrangement-independent, and seeds the value map (the host value is
//!    the encoding's first value slot).
//! 2. For slot `i`, the candidates are the not-yet-placed source
//!    segments of `i`'s cell. Each candidate is *rendered* — its packed
//!    bytes rewritten through the branch's incremental value map
//!    ([`StateCodec::map_device_segment_vals`]), fresh free values taking
//!    the next first-occurrence tokens — and only candidates achieving
//!    the bytewise-minimal render survive. Because device segments are
//!    self-delimiting, no valid segment is a proper prefix of another,
//!    so the segmentwise comparison decides the comparison of any full
//!    continuations: the greedy choice is exact, not heuristic. A
//!    segment's first byte (cache state, buffer tag, quiet bit) is never
//!    a value, so every render keeps it: only the candidates carrying
//!    the branch's least first byte are rendered, since any other
//!    renders greater than they do.
//! 3. Ties *branch*: two candidates with equal renders may extend the
//!    value map differently (different raw values behind the same fresh
//!    tokens) and diverge later, so both survive — the "targeted
//!    branching inside cells refinement cannot split". Every surviving
//!    branch shares the identical rendered prefix, so the output is
//!    assembled once.
//!
//! Three prunes keep the branch set at 1 in the cases that matter:
//!
//! - **Raw dedup** — byte-identical unplaced segments are the same
//!   candidate; keep the lowest index.
//! - **Privacy collapse** — if every value a candidate's render freshly
//!   assigned occurs in *no other region* of the encoding (region =
//!   header or one segment), then two tying candidates `a`, `b` of the
//!   same branch are related by the automorphism that swaps the two
//!   source segments and exchanges their private values in assignment
//!   order: it maps every continuation of the `a`-branch to an equal-
//!   bytes continuation of the `b`-branch, so only one branch is kept.
//!   This is the fully-symmetric store-grid case — `[S1,L] … [SN,L]`
//!   segments are identical up to their private operand — where naive
//!   tie-branching would itself degenerate to N!.
//! - **Branch dedup** — branches with equal placed-source sets and equal
//!   value maps (as functions) have identical futures; keep the first.
//!
//! A branch at depth `k` is a distinct `(placed set, map)` pair realised
//! by some admissible arrangement prefix, so the total work never
//! exceeds the brute-force enumeration's; for the symmetric case it is
//! one render per surviving candidate — `O(N · seg)` per slot with the
//! collapse holding the branch count at 1, `O(N² · seg)` per successor
//! against brute force's `O(N! · seg)`.
//!
//! ## Exactness
//!
//! By induction over slots: after slot `k` the surviving branches are
//! exactly the length-`k` admissible placement prefixes whose rendered
//! encoding prefix is minimal, and that shared prefix is the minimum
//! over all admissible arrangements (prefix-freeness lifts segmentwise
//! order to whole-encoding order; the header is constant across
//! arrangements). At `k = N` the shared render *is* `min over σ of
//! renumber(σ · bytes)` — byte-identical to the brute-force scan, which
//! the workspace's differential proptests pin at N ∈ 2..=6.

use crate::data_symmetry::DataSymmetry;
use cxl_core::codec::StateCodec;
use cxl_core::ids::Val;
use cxl_core::Topology;
use std::cell::RefCell;

/// What [`RefineLabeller::canonicalize`] did to the encoding — the
/// attribution half of the joint engine's per-engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineOutcome {
    /// The winning placement is not the identity arrangement.
    pub rearranged: bool,
    /// The winning render relabelled at least one value slot.
    pub renumbered: bool,
}

/// One surviving placement prefix: which sources are placed, the value
/// map their shared render has committed to, and what the placement
/// changed so far.
#[derive(Clone, Copy, Debug)]
struct Branch {
    /// Bitmask of placed source indices (`MAX_DEVICES ≤ 8`).
    used: u8,
    /// The incremental first-occurrence map, in assignment order: the
    /// span `start..end` of the flat map buffer of its generation.
    start: usize,
    end: usize,
    /// The next token [`remap`] hands out (ascending, skipping pinned).
    next: Val,
    /// Did any assignment relabel (`token != value`)?
    vchanged: bool,
    /// Was any slot filled from another source index?
    rearranged: bool,
}

/// The labeller's working memory. Every buffer is cleared before a call
/// first reads it, so nothing survives from one call to the next — not
/// even from a call that panicked midway.
struct Scratch {
    /// The privacy census, taken at a call's first tying slot.
    census: Census,
    /// The surviving branches entering the current slot.
    branches: Vec<Branch>,
    /// Per slot: (parent index, start of the freshly assigned values in
    /// the branch's map, branch).
    winners: Vec<(usize, usize, Branch)>,
    /// The value maps of `branches`, back to back.
    maps: Vec<(Val, Val)>,
    /// The value maps of `winners`, back to back.
    next_maps: Vec<(Val, Val)>,
    /// The slot's minimal render so far, and the candidate being rendered.
    best: Vec<u8>,
    cand: Vec<u8>,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            census: Census { counts: Vec::new(), seen: Vec::new(), sink: Vec::new() },
            branches: Vec::new(),
            winners: Vec::new(),
            maps: Vec::new(),
            next_maps: Vec::new(),
            best: Vec::new(),
            cand: Vec::new(),
        }
    }
}

/// In how many device segments of one encoding each free value occurs —
/// what the privacy collapse asks. The header needs no count: it renders
/// first and seeds every branch's map, so no value of it is ever freshly
/// assigned by a candidate.
struct Census {
    /// Free value → number of segments it occurs in.
    counts: Vec<(Val, u16)>,
    /// Free values of the segment being counted.
    seen: Vec<Val>,
    /// The counting pass's discarded render.
    sink: Vec<u8>,
}

impl Census {
    /// Count the `n` device segments of `bytes`, split at `bounds`.
    fn take(&mut self, pinned: &[Val], bytes: &[u8], bounds: &[usize], n: usize) {
        let Census { counts, seen, sink } = self;
        counts.clear();
        for i in 0..n {
            seen.clear();
            sink.clear();
            StateCodec::map_device_segment_vals(&bytes[bounds[i]..bounds[i + 1]], sink, |v| {
                if !pinned.contains(&v) && !seen.contains(&v) {
                    seen.push(v);
                }
                v
            })
            .expect("refine over codec output");
            for &v in seen.iter() {
                match counts.iter_mut().find(|e| e.0 == v) {
                    Some(e) => e.1 += 1,
                    None => counts.push((v, 1)),
                }
            }
        }
    }

    /// Does `v` occur in at most one segment?
    fn private(&self, v: Val) -> bool {
        self.counts.iter().find(|&&(u, _)| u == v).is_none_or(|&(_, c)| c == 1)
    }
}

thread_local! {
    /// One [`Scratch`] per thread: the checker's workers canonicalize
    /// concurrently through a shared `&RefineLabeller`, and the buffers
    /// reach their high-water marks within the first few calls, after
    /// which labelling allocates nothing.
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// The partition-refinement canonical labeller: minimises the renumbered
/// encoding over the product group `∏ Sym(cell)` of its cell partition.
#[derive(Clone, Debug)]
pub struct RefineLabeller {
    codec: StateCodec,
    /// The cell partition of `0..device_count`, each cell ascending.
    cells: Vec<Vec<usize>>,
    /// `cell_of[slot]` → index into `cells`.
    cell_of: [usize; Topology::MAX_DEVICES],
}

impl RefineLabeller {
    /// Build the labeller over `cells`, which must partition
    /// `0..codec.topology().device_count()`.
    ///
    /// # Panics
    /// Panics if `cells` is not a partition of the device indices.
    #[must_use]
    pub fn new(codec: StateCodec, cells: Vec<Vec<usize>>) -> Self {
        let n = codec.topology().device_count();
        let mut cell_of = [usize::MAX; Topology::MAX_DEVICES];
        for (c, cell) in cells.iter().enumerate() {
            for &i in cell {
                assert!(i < n && cell_of[i] == usize::MAX, "cells must partition 0..{n}");
                cell_of[i] = c;
            }
        }
        assert!(cell_of[..n].iter().all(|&c| c != usize::MAX), "cells must cover 0..{n}");
        RefineLabeller { codec, cells, cell_of }
    }

    /// The cell partition the labeller minimises over.
    #[must_use]
    pub fn cells(&self) -> &[Vec<usize>] {
        &self.cells
    }

    /// Write `min over σ ∈ ∏ Sym(cells) of renumber(σ · bytes)` into
    /// `out` (cleared first) and report what changed relative to the
    /// identity arrangement. Byte-identical to the brute-force scan over
    /// the same group; `out == bytes` exactly when the input is already
    /// canonical. Allocates nothing once the calling thread's working
    /// buffers (and `out`) have grown to the workload's sizes.
    ///
    /// # Panics
    /// Panics if `bytes` is not a valid encoding for the labeller's
    /// codec — the checker only feeds its own codec output through here.
    pub fn canonicalize(&self, ds: &DataSymmetry, bytes: &[u8], out: &mut Vec<u8>) -> RefineOutcome {
        SCRATCH.with_borrow_mut(|s| self.label(ds, bytes, out, s))
    }

    fn label(
        &self,
        ds: &DataSymmetry,
        bytes: &[u8],
        out: &mut Vec<u8>,
        s: &mut Scratch,
    ) -> RefineOutcome {
        let pinned = ds.static_pinned();
        let n = self.codec.topology().device_count();
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        self.codec.device_segment_bounds(bytes, &mut bounds).expect("refine over codec output");
        let seg = |i: usize| &bytes[bounds[i]..bounds[i + 1]];

        let Scratch { census, branches, winners, maps, next_maps, best, cand } = s;
        // The census only serves slots with tying candidates; many
        // encodings have none, so it is taken on the first tie.
        let mut censused = false;

        // The header renders once, seeding the shared value map.
        out.clear();
        maps.clear();
        let mut root =
            Branch { used: 0, start: 0, end: 0, next: 0, vchanged: false, rearranged: false };
        StateCodec::map_header_vals(&bytes[..bounds[0]], out, |v| {
            remap(pinned, maps, 0, &mut root.next, &mut root.vchanged, v)
        })
        .expect("refine over codec output");
        root.end = maps.len();
        branches.clear();
        branches.push(root);

        for slot in 0..n {
            let cell = &self.cells[self.cell_of[slot]];
            winners.clear();
            next_maps.clear();
            for (parent, br) in branches.iter().enumerate() {
                // Renders keep a segment's value-free first byte, so a
                // source whose header exceeds the least among the
                // branch's unplaced sources can neither win nor tie.
                let header = |src: usize| bytes[bounds[src]];
                let unplaced = cell.iter().filter(|&&src| br.used & (1 << src) == 0);
                let least = unplaced.map(|&src| header(src)).min();
                'cand: for (ci, &src) in cell.iter().enumerate() {
                    if br.used & (1 << src) != 0 || Some(header(src)) != least {
                        continue;
                    }
                    // Raw dedup: an earlier unplaced byte-identical
                    // source is the same candidate.
                    for &prev in &cell[..ci] {
                        if br.used & (1 << prev) == 0 && seg(prev) == seg(src) {
                            continue 'cand;
                        }
                    }
                    cand.clear();
                    let start = next_maps.len();
                    next_maps.extend_from_slice(&maps[br.start..br.end]);
                    let fresh_from = next_maps.len();
                    let mut next = Branch {
                        used: br.used | (1 << src),
                        start,
                        end: 0,
                        next: br.next,
                        vchanged: br.vchanged,
                        rearranged: br.rearranged || src != slot,
                    };
                    StateCodec::map_device_segment_vals(seg(src), cand, |v| {
                        remap(pinned, next_maps, start, &mut next.next, &mut next.vchanged, v)
                    })
                    .expect("refine over codec output");
                    next.end = next_maps.len();
                    if winners.is_empty() || *cand < *best {
                        // Earlier winners lost; their map spans stay
                        // behind as dead entries until the slot ends.
                        winners.clear();
                        std::mem::swap(best, cand);
                    } else if cand != best {
                        next_maps.truncate(start);
                        continue;
                    }
                    winners.push((parent, fresh_from, next));
                }
            }
            debug_assert!(!winners.is_empty(), "every cell covers its slots");
            out.extend_from_slice(best);
            branches.clear();
            let tie = winners.len() > 1;
            if tie && !censused {
                census.take(pinned, bytes, &bounds, n);
                censused = true;
            }
            // Winners arrive in parent order, so the parent already
            // represented by a collapsed branch, if any, is the last one.
            let mut collapsed = None;
            for &(parent, fresh_from, br) in winners.iter() {
                // Privacy collapse: tying siblings whose fresh values
                // are private are automorphic — keep the first per
                // parent.
                if tie && next_maps[fresh_from..br.end].iter().all(|&(v, _)| census.private(v)) {
                    if collapsed == Some(parent) {
                        continue;
                    }
                    collapsed = Some(parent);
                }
                // Branch dedup: equal (placed set, map-as-function)
                // pairs have identical futures — keep the first. A map
                // assigns each value once, so equal functions are equal
                // sets of pairs.
                let map = &next_maps[br.start..br.end];
                let same = |k: &Branch| {
                    let kept = &next_maps[k.start..k.end];
                    k.used == br.used
                        && kept.len() == map.len()
                        && kept.iter().all(|e| map.contains(e))
                };
                if !branches.iter().any(same) {
                    branches.push(br);
                }
            }
            std::mem::swap(maps, next_maps);
        }

        // Branches are generated parent-order-first, sources ascending,
        // so the first survivor carries the lexicographically-least
        // placement — the identity whenever the input was canonical.
        let first = &branches[0];
        RefineOutcome { rearranged: first.rearranged, renumbered: first.vchanged }
    }
}

/// The incremental first-occurrence relabelling — one value slot of
/// [`DataSymmetry::renumber`], with the map threaded by the caller so a
/// branch can render segment by segment. The branch's map is
/// `map[from..]`; a fresh assignment is appended to it.
fn remap(
    pinned: &[Val],
    map: &mut Vec<(Val, Val)>,
    from: usize,
    next: &mut Val,
    vchanged: &mut bool,
    v: Val,
) -> Val {
    if pinned.contains(&v) {
        return v;
    }
    if let Some(&(_, t)) = map[from..].iter().find(|&&(key, _)| key == v) {
        return t;
    }
    while pinned.contains(next) {
        *next += 1;
    }
    let t = *next;
    *next += 1;
    map.push((v, t));
    *vchanged |= t != v;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetry::{apply_permutation, SymmetryGroup};
    use cxl_core::instr::programs;
    use cxl_core::{Instruction, SystemState};

    fn brute_min(
        codec: &StateCodec,
        ds: &DataSymmetry,
        cells: &[Vec<usize>],
        bytes: &[u8],
    ) -> Vec<u8> {
        // Reference: enumerate the whole product group.
        let mut perms: Vec<Vec<usize>> =
            vec![(0..codec.topology().device_count()).collect()];
        for cell in cells {
            let mut next = Vec::new();
            for arr in permutations_of(cell) {
                for p in &perms {
                    let mut q = p.clone();
                    for (slot, &src) in cell.iter().zip(&arr) {
                        q[*slot] = src;
                    }
                    next.push(q);
                }
            }
            perms = next;
        }
        let mut best: Option<Vec<u8>> = None;
        let (mut buf, mut out) = (Vec::new(), Vec::new());
        for p in perms {
            SymmetryGroup::permute_encoding(codec, bytes, &p, &mut buf);
            ds.renumber(&buf, &mut out);
            if best.as_ref().is_none_or(|b| out < *b) {
                best = Some(out.clone());
            }
        }
        best.unwrap()
    }

    fn permutations_of(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &head) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations_of(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn refine_matches_the_brute_minimum_and_is_idempotent() {
        // Three devices running value-isomorphic store programs: one
        // cell of 3, a rich value space, asymmetric progress.
        let init = SystemState::initial_n(
            3,
            vec![
                vec![Instruction::Store(1), Instruction::Load].into(),
                vec![Instruction::Store(2), Instruction::Load].into(),
                vec![Instruction::Store(3), Instruction::Load].into(),
            ],
        );
        let codec = StateCodec::for_state(&init);
        let ds = DataSymmetry::detect(&codec, &init, &[]);
        let cells = vec![vec![0, 1, 2]];
        let lab = RefineLabeller::new(codec, cells.clone());

        let mut s = init.clone();
        s.devs[0].prog.clear();
        s.devs[0].cache.val = 2;
        s.devs[1].cache.val = 3;
        s.host.val = 2;
        s.counter = 3;

        let bytes = codec.encode(&s);
        let mut out = Vec::new();
        let outcome = lab.canonicalize(&ds, &bytes, &mut out);
        assert_eq!(out, brute_min(&codec, &ds, &cells, &bytes));
        assert!(outcome.rearranged || outcome.renumbered || out == bytes);

        // Idempotence: the canonical form is its own minimum, with the
        // identity placement and no relabelling.
        let mut twice = Vec::new();
        let again = lab.canonicalize(&ds, &out, &mut twice);
        assert_eq!(twice, out);
        assert_eq!(again, RefineOutcome::default());

        // Orbit invariance over device swaps composed with value swaps.
        for perm in permutations_of(&[0, 1, 2]) {
            let permuted = apply_permutation(&s, &perm);
            let mut other = Vec::new();
            lab.canonicalize(&ds, &codec.encode(&permuted), &mut other);
            assert_eq!(other, out, "orbit member under {perm:?} diverged");
        }
    }

    #[test]
    fn refine_respects_the_cell_partition() {
        // Two cells {0,1} and {2}: device 2 must keep its slot even when
        // its segment would sort first.
        let init = SystemState::initial_n(
            3,
            vec![programs::store(1), programs::store(2), programs::load()],
        );
        let codec = StateCodec::for_state(&init);
        let ds = DataSymmetry::detect(&codec, &init, &[]);
        let cells = vec![vec![0, 1], vec![2]];
        let lab = RefineLabeller::new(codec, cells.clone());

        let mut s = init.clone();
        s.devs[1].cache.val = 9;
        let bytes = codec.encode(&s);
        let mut out = Vec::new();
        lab.canonicalize(&ds, &bytes, &mut out);
        assert_eq!(out, brute_min(&codec, &ds, &cells, &bytes));

        // The restricted minimum differs from the full-group one
        // whenever slot 2's segment would win a cell-of-3 sort — pin
        // that the partition is actually binding on at least this state.
        let full = brute_min(&codec, &ds, &[vec![0, 1, 2]], &bytes);
        assert!(out >= full, "restricting the group cannot lower the minimum");
    }

    #[test]
    #[should_panic(expected = "cells must partition")]
    fn overlapping_cells_are_rejected() {
        let init = SystemState::initial_n(2, vec![programs::load(), programs::load()]);
        let codec = StateCodec::for_state(&init);
        let _ = RefineLabeller::new(codec, vec![vec![0, 1], vec![1]]);
    }
}
