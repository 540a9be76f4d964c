//! Canonicalization allocates nothing in steady state.
//!
//! The checker canonicalizes every successor it generates, so a heap
//! allocation inside `Reducer::canonicalize` is paid once per
//! transition. This suite records the encodings the checker hands to the
//! reducer in small reduced runs that cover every canonicalization path
//! except the brute engine (the reference the refine proptests compare
//! against):
//!
//! - the refine labeller over cells `{0}`, `{1,2,3}`:
//!   `[S1,L] x [S2] x [S3] x [S4]`;
//! - the refine labeller over one cell of six, under wide POR:
//!   `[S1] x ... x [S6]`;
//! - the joint fast path (one free value, admissible set = byte group):
//!   `[S1] x 4`;
//! - value renumbering alone: `[S2,L] x [L]` (operand 2, not 1, so that
//!   renumbering rewrites it: 1 is already the first free token);
//! - device symmetry alone (data symmetry off): `[S5,L] x 3`.
//!
//! It replays them once to warm the per-thread buffers, then asserts
//! that a second replay makes no allocation at all and returns the bytes
//! and flags the checker saw. Allocations are counted per thread, so
//! other tests running in parallel do not disturb the count.

use cxl_repro::core::instr::Instruction;
use cxl_repro::core::{ProtocolConfig, RuleId, Ruleset, SystemState};
use cxl_repro::mc::{
    CheckOptions, ModelChecker, PorMode, Reducer, Reduction, ReductionConfig, ReductionStats,
    SwmrProperty,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

fn count() {
    // A const-initialised `Cell` needs neither lazy set-up nor a
    // destructor, so the allocator can touch it at any time.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method only counts, then forwards its arguments
// unchanged to `System`, so each caller's guarantees are the ones
// `System` requires, and every pointer it returns came from `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One `canonicalize` call as the checker made it: input bytes, output
/// bytes and the returned flag.
type Call = (Vec<u8>, Vec<u8>, bool);

/// Delegates to the real reducer, recording every `canonicalize` call.
#[derive(Debug)]
struct Recording {
    inner: Arc<Reduction>,
    calls: Mutex<Vec<Call>>,
}

impl Reducer for Recording {
    fn wants_peer_variants(&self) -> bool {
        self.inner.wants_peer_variants()
    }

    fn ample_step(
        &self,
        rules: &Ruleset,
        state: &SystemState,
        scratch: &mut SystemState,
    ) -> Option<RuleId> {
        self.inner.ample_step(rules, state, scratch)
    }

    fn canonicalize(&self, bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) -> bool {
        let input = bytes.clone();
        let changed = self.inner.canonicalize(bytes, scratch);
        self.calls
            .lock()
            .unwrap()
            .push((input, bytes.clone(), changed));
        changed
    }

    fn orbit_size(&self, bytes: &[u8]) -> u64 {
        self.inner.orbit_size(bytes)
    }

    fn stats(&self) -> ReductionStats {
        self.inner.stats()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// Explore `programs` (strict protocol, SWMR, one thread) under
/// `config`, returning the reducer and every `canonicalize` call the
/// checker made.
fn record(programs: Vec<Vec<Instruction>>, config: ReductionConfig) -> (Arc<Reduction>, Vec<Call>) {
    let n = programs.len();
    let init = SystemState::initial_n(n, programs.into_iter().map(Into::into).collect());
    let rules = Ruleset::with_devices(ProtocolConfig::strict(), n);
    let inner = Arc::new(Reduction::new(&rules, &init, config));
    let recording = Arc::new(Recording {
        inner: Arc::clone(&inner),
        calls: Mutex::default(),
    });
    let opts = CheckOptions {
        reduction: Some(Arc::clone(&recording) as Arc<dyn Reducer>),
        ..CheckOptions::default()
    };
    let report = ModelChecker::with_options(rules, opts)
        .explore(&init, &[&SwmrProperty])
        .report;
    assert!(
        report.clean() && !report.truncated,
        "the recorded run completes clean"
    );
    let calls = std::mem::take(&mut *recording.calls.lock().unwrap());
    assert_eq!(
        calls.len(),
        report.transitions,
        "one canonicalize call per transition"
    );
    (inner, calls)
}

/// Replay `calls` through `red`, asserting each output and flag, and
/// return the allocations the `canonicalize` calls made.
fn replay(red: &Reduction, calls: &[Call], bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) -> u64 {
    let mut allocations = 0;
    for (input, output, changed) in calls {
        bytes.clear();
        bytes.extend_from_slice(input);
        let before = ALLOCATIONS.with(Cell::get);
        let got = Reducer::canonicalize(red, bytes, scratch);
        allocations += ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            (&*bytes, got),
            (output, *changed),
            "replay differs from the checker's call"
        );
    }
    allocations
}

#[test]
fn canonicalization_allocates_nothing_once_warm() {
    use Instruction::{Load as L, Store as S};
    let default = ReductionConfig::default();
    let wide = ReductionConfig {
        por: PorMode::Wide,
        ..default
    };
    let device_only = ReductionConfig {
        data_symmetry: false,
        ..default
    };
    // Per run: the engine it must arm, as (joint canonicalizer, joint
    // permutations, device group order, value engine armed).
    let runs = [
        (
            "refine, cells {0} {1,2,3}",
            vec![vec![S(1), L], vec![S(2)], vec![S(3)], vec![S(4)]],
            default,
            ("refine", 6, 1, true),
        ),
        (
            "refine, one cell of six",
            (1..=6).map(|v| vec![S(v)]).collect(),
            wide,
            ("refine", 720, 1, true),
        ),
        (
            "joint fast path",
            vec![vec![S(1)]; 4],
            default,
            ("refine", 24, 24, true),
        ),
        (
            "value-only",
            vec![vec![S(2), L], vec![L]],
            default,
            ("off", 1, 1, true),
        ),
        (
            "device-only",
            vec![vec![S(5), L]; 3],
            device_only,
            ("off", 1, 6, false),
        ),
    ];
    for (name, programs, config, engine) in runs {
        let (red, calls) = record(programs, config);
        let armed = (
            red.canon_name(),
            red.joint_perms().len(),
            red.group().order(),
            red.data_symmetry().is_some(),
        );
        assert_eq!(armed, engine, "{name}: wrong engine");
        assert!(
            calls.iter().any(|c| c.2),
            "{name}: some successor is rewritten"
        );

        // Buffers the size of any encoding here, so only the reducer
        // can allocate.
        let (mut bytes, mut scratch) = (Vec::with_capacity(4096), Vec::with_capacity(4096));
        replay(&red, &calls, &mut bytes, &mut scratch);
        let allocations = replay(&red, &calls, &mut bytes, &mut scratch);
        assert_eq!(
            allocations,
            0,
            "{name}: {allocations} allocations over {} warm canonicalize calls",
            calls.len()
        );
    }
}
