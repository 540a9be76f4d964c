//! Canonical-labelling bench: nanoseconds and heap allocations per
//! `Reducer::canonicalize` call, over every successor encoding the
//! checker canonicalizes in the two scenarios of the `reduced_n4n6`
//! perfbench workload (store literals of seed 0):
//!
//! - `n4_stores` — `[S1,L] x [S2] x [S3] x [S4]` under the default
//!   reducers (the refine labeller over the cells `{0}`, `{1,2,3}`);
//! - `n6_hexad` — `[S1] x ... x [S6]` with wide POR (the refine labeller
//!   over one cell of six).
//!
//! The encodings are recorded by a pass-through reducer during one
//! exploration, then replayed through the scenario's own `Reduction`.
//! Each scenario prints the call count, the best round's ns per call
//! (restoring the input bytes included), the allocations per call of a
//! round after the first, and an FNV-1a digest of every output and
//! returned flag. Equal digests on two commits mean byte-identical
//! canonical forms. Only public items are used, so the same file times
//! any commit:
//!
//! ```text
//! cargo bench -p cxl-bench --bench canon_refine
//! ```
//!
//! `CXL_BENCH_ITERS` sets the timed rounds (default 5).

use cxl_core::instr::Instruction;
use cxl_core::{ProtocolConfig, Ruleset, SystemState};
use cxl_mc::{
    CheckOptions, ModelChecker, PorMode, Reducer, Reduction, ReductionConfig, ReductionStats,
    SwmrProperty,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method only counts, then forwards its arguments
// unchanged to `System`, so each caller's guarantees are the ones
// `System` requires, and every pointer it returns came from `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Delegates to the real reducer, keeping a copy of every encoding the
/// checker asks it to canonicalize.
#[derive(Debug)]
struct Recording {
    inner: Arc<Reduction>,
    inputs: Mutex<Vec<Vec<u8>>>,
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
    ) -> Option<cxl_core::RuleId> {
        self.inner.ample_step(rules, state, scratch)
    }

    fn canonicalize(&self, bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) -> bool {
        self.inputs.lock().unwrap().push(bytes.clone());
        self.inner.canonicalize(bytes, scratch)
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

/// Explore `programs` at one thread under `config` and return the
/// scenario's reducer with the encodings it was asked to canonicalize,
/// in call order.
fn record(
    programs: Vec<Vec<Instruction>>,
    config: ReductionConfig,
) -> (Arc<Reduction>, Vec<Vec<u8>>) {
    let n = programs.len();
    let init = SystemState::initial_n(n, programs.into_iter().map(Into::into).collect());
    let rules = Ruleset::with_devices(ProtocolConfig::strict(), n);
    let inner = Arc::new(Reduction::new(&rules, &init, config));
    let recording = Arc::new(Recording {
        inner: Arc::clone(&inner),
        inputs: Mutex::default(),
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
    let inputs = std::mem::take(&mut *recording.inputs.lock().unwrap());
    assert_eq!(
        inputs.len(),
        report.transitions,
        "one canonicalize call per transition"
    );
    (inner, inputs)
}

/// One pass over `inputs`: restore each encoding and canonicalize it.
fn pass(red: &dyn Reducer, inputs: &[Vec<u8>], bytes: &mut Vec<u8>, scratch: &mut Vec<u8>) {
    for input in inputs {
        bytes.clear();
        bytes.extend_from_slice(input);
        black_box(red.canonicalize(black_box(bytes), scratch));
    }
}

/// FNV-1a over every output and returned flag, in call order.
fn digest(red: &dyn Reducer, inputs: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    let (mut bytes, mut scratch) = (Vec::new(), Vec::new());
    for input in inputs {
        bytes.clear();
        bytes.extend_from_slice(input);
        let changed = red.canonicalize(&mut bytes, &mut scratch);
        eat(u8::from(changed));
        for &b in &bytes {
            eat(b);
        }
        eat(0xff); // call boundary
    }
    h
}

fn main() {
    let rounds = std::env::var("CXL_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5u32)
        .max(1);
    let (s, l) = (Instruction::Store, Instruction::Load);
    let scenarios = [
        (
            "n4_stores",
            vec![vec![s(1), l], vec![s(2)], vec![s(3)], vec![s(4)]],
            ReductionConfig::default(),
        ),
        (
            "n6_hexad",
            (1..=6).map(|v| vec![s(v)]).collect(),
            ReductionConfig {
                por: PorMode::Wide,
                ..ReductionConfig::default()
            },
        ),
    ];
    println!("canon_refine: reduced_n4n6 successor encodings, best of {rounds} rounds");
    for (name, programs, config) in scenarios {
        let (red, inputs) = record(programs, config);
        let calls = inputs.len();
        let sum = digest(&*red, &inputs);
        let (mut bytes, mut scratch) = (Vec::new(), Vec::new());
        pass(&*red, &inputs, &mut bytes, &mut scratch);
        let before = ALLOCS.load(Ordering::Relaxed);
        pass(&*red, &inputs, &mut bytes, &mut scratch);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let t = Instant::now();
            pass(&*red, &inputs, &mut bytes, &mut scratch);
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{name}: {calls} calls ({}), {:.1} ns/call, {:.2} allocations/call, digest {sum:016x}",
            red.canon_name(),
            best * 1e9 / calls as f64,
            allocs as f64 / calls as f64,
        );
    }
}
