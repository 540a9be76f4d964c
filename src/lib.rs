//! # cxl-repro — reproducing *Formalising CXL Cache Coherence* in Rust
//!
//! Umbrella crate for the reproduction of Tan, Donaldson and Wickerson's
//! ASPLOS 2025 paper. It re-exports the library crates:
//!
//! - [`core`] (`cxl-core`) — the formal CXL.cache model: system state,
//!   transition rules, protocol restrictions and relaxations, the SWMR
//!   property, and the conjunct-based inductive invariant;
//! - [`mc`] (`cxl-mc`) — the explicit-state model checker;
//! - [`reduce`] (`cxl-reduce`) — state-space reduction: device-symmetry
//!   canonicalization and partial-order reduction the checker drives
//!   through its `Reducer` hook;
//! - [`litmus`] (`cxl-litmus`) — scenario verification: the litmus suite,
//!   restriction tests, and the paper's Tables 1–3 / Figure 5 renderers;
//! - [`sketch`] (`cxl-sketch`) — the proof-obligation matrix engine (the
//!   paper's Figure 1 / super_sketch analogue);
//! - [`sim`] (`cxl-sim`) — seeded random-walk workload simulation with
//!   latency and traffic statistics;
//! - [`bench_harness`] (`cxl-bench`) — the experiment harness regenerating
//!   every table and figure of the paper's evaluation.
//!
//! `PERFORMANCE.md` explains the checker's design with its measurements,
//! and `ROADMAP.md` lists what is still open. The `cxl-bench` crate's
//! `report` binary prints every paper artefact with the paper's claim
//! beside the measured result; more runnable entry points live in
//! `examples/`.
//!
//! ## Quickstart
//!
//! ```
//! use cxl_repro::core::instr::programs;
//! use cxl_repro::core::{ProtocolConfig, Relaxation, Ruleset, SystemState};
//! use cxl_repro::mc::{ModelChecker, SwmrProperty};
//!
//! let init = SystemState::initial(programs::store(42), programs::load());
//!
//! // The faithful model satisfies SWMR on every reachable state…
//! let strict = ModelChecker::new(Ruleset::new(ProtocolConfig::strict()));
//! assert!(strict.check(&init, &[&SwmrProperty]).clean());
//!
//! // …and relaxing Snoop-pushes-GO reproduces the paper's violation.
//! let relaxed = ModelChecker::new(Ruleset::new(ProtocolConfig::relaxed(
//!     Relaxation::SnoopPushesGo,
//! )));
//! assert!(!relaxed.check(&init, &[&SwmrProperty]).clean());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cxl_bench as bench_harness;
pub use cxl_core as core;
pub use cxl_litmus as litmus;
pub use cxl_mc as mc;
pub use cxl_reduce as reduce;
pub use cxl_sim as sim;
pub use cxl_sketch as sketch;
