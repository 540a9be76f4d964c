//! The benchmark's workloads: which scenarios each one runs, how a seed
//! picks their store literals, and how a scenario is set up and explored
//! through the public `cxl_mc::ModelChecker` API.

use cxl_core::instr::Instruction;
use cxl_core::{Invariant, ProtocolConfig, Ruleset, SystemState};
use cxl_mc::{
    CanonMode, CheckOptions, CheckpointPolicy, InvariantProperty, ModelChecker, PorMode, Property,
    Recorder, Reducer, Reduction, ReductionConfig, Report, SwmrProperty,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three named workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// An unreduced N=4 grid on every granted core.
    N4PlainMt,
    /// Two reduced scenarios back to back at one thread.
    ReducedN4n6,
    /// The beyond-RAM acceptance grid with delta, spill and checkpoints.
    SpillCkptN4,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "n4_plain_mt" => Ok(Workload::N4PlainMt),
            "reduced_n4n6" => Ok(Workload::ReducedN4n6),
            "spill_ckpt_n4" => Ok(Workload::SpillCkptN4),
            other => Err(format!(
                "unknown workload {other:?} (n4_plain_mt, reduced_n4n6, spill_ckpt_n4)"
            )),
        }
    }

    /// The scenarios this workload runs, in order, with store literals
    /// drawn from `seed`. `threads` is the thread count of the timed
    /// configuration (only `n4_plain_mt` uses more than one).
    pub fn scenarios(self, seed: u64, threads: usize) -> Vec<Scenario> {
        let v = store_literals(seed, 6);
        let (s, l) = (Instruction::Store, Instruction::Load);
        match self {
            Workload::N4PlainMt => vec![Scenario {
                name: "plain_grid",
                programs: vec![vec![s(v[0])], vec![l, l], vec![s(v[1])], vec![l]],
                reduction: REDUCERS_OFF,
                threads,
                store: StoreMode::Plain,
            }],
            Workload::ReducedN4n6 => vec![
                Scenario {
                    name: "n4_stores",
                    programs: vec![vec![s(v[0]), l], vec![s(v[1])], vec![s(v[2])], vec![s(v[3])]],
                    reduction: ReductionConfig::default(),
                    threads: 1,
                    store: StoreMode::Plain,
                },
                Scenario {
                    name: "n6_hexad",
                    programs: (0..6).map(|i| vec![s(v[i])]).collect(),
                    reduction: ReductionConfig {
                        por: PorMode::Wide,
                        ..ReductionConfig::default()
                    },
                    threads: 1,
                    store: StoreMode::Plain,
                },
            ],
            Workload::SpillCkptN4 => vec![Scenario {
                name: "spill_grid",
                programs: vec![vec![s(v[0])], vec![s(v[1])], vec![l], vec![l]],
                reduction: REDUCERS_OFF,
                threads: 1,
                store: StoreMode::SpillCheckpoint,
            }],
        }
    }
}

/// Every reducer off: the unreduced scenarios.
const REDUCERS_OFF: ReductionConfig = ReductionConfig {
    symmetry: false,
    data_symmetry: false,
    por: PorMode::Off,
    canon: CanonMode::Auto,
};

/// How a scenario stores its states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreMode {
    /// The default resident arena.
    Plain,
    /// 8 MiB memory budget, delta keyframe 8, spill watermark 0 and a
    /// checkpoint at every BFS level, in fresh directories.
    SpillCheckpoint,
}

/// One model-checking run: device programs plus exploration settings.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub name: &'static str,
    pub programs: Vec<Vec<Instruction>>,
    pub reduction: ReductionConfig,
    pub threads: usize,
    pub store: StoreMode,
}

/// `n` distinct store literals in `1..=63` (one-byte encodings, so every
/// seed yields the same state counts). Seed 0 is the reference
/// assignment `1, 2, …, n`; any other seed draws a seeded partial
/// shuffle.
pub fn store_literals(seed: u64, n: usize) -> Vec<i64> {
    let mut pool: Vec<i64> = (1..=63).collect();
    if seed != 0 {
        let mut state = seed;
        for i in 0..n {
            let j = i + (splitmix64(&mut state) % (pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
    }
    pool.truncate(n);
    pool
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything built before `explore` is called — the part `setup_s`
/// times.
pub struct Setup {
    pub init: SystemState,
    pub mc: ModelChecker,
    pub invariant: InvariantProperty,
    /// The checkpoint directory, when the scenario checkpoints.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Setup {
    /// Build the ruleset, properties, reduction, checker and scratch
    /// directories of `scenario`. Scratch directories go under `work`,
    /// named by `tag`, and must not exist yet.
    pub fn build(
        scenario: &Scenario,
        work: &Path,
        tag: &str,
        telemetry: Option<Arc<dyn Recorder>>,
    ) -> std::io::Result<Setup> {
        let devices = scenario.programs.len();
        let cfg = ProtocolConfig::strict();
        let init = SystemState::initial_n(
            devices,
            scenario.programs.iter().cloned().map(Into::into).collect(),
        );
        let rules = Ruleset::with_devices(cfg, devices);
        let invariant = InvariantProperty::new(Invariant::for_devices(&cfg, devices));
        // As in the `explore` CLI, the reduction is always built (group
        // detection is set-up cost) and installed only when active.
        let reduction = Reduction::new(&rules, &init, scenario.reduction);
        let reduction = reduction
            .is_active()
            .then(|| Arc::new(reduction) as Arc<dyn Reducer>);
        let mut opts = CheckOptions {
            threads: scenario.threads,
            shards: (scenario.threads > 1).then_some(scenario.threads),
            reduction,
            telemetry,
            ..CheckOptions::default()
        };
        let mut checkpoint_dir = None;
        if scenario.store == StoreMode::SpillCheckpoint {
            let spill = work.join(format!("{tag}-spill"));
            let ckpt = work.join(format!("{tag}-ckpt"));
            std::fs::create_dir_all(&spill)?;
            std::fs::create_dir_all(&ckpt)?;
            opts.mem_budget = Some(8 * 1024 * 1024);
            opts.delta_keyframe = 8;
            opts.spill_dir = Some(spill);
            opts.spill_budget = Some(0);
            let mut policy = CheckpointPolicy::new(&ckpt);
            policy.every = Duration::ZERO;
            opts.checkpoint = Some(policy);
            checkpoint_dir = Some(ckpt);
        }
        let mc = ModelChecker::with_options(rules, opts);
        Ok(Setup {
            init,
            mc,
            invariant,
            checkpoint_dir,
        })
    }

    /// The checked properties: SWMR and the §6 invariant.
    pub fn props(&self) -> [&dyn Property; 2] {
        [&SwmrProperty, &self.invariant]
    }

    /// Explore and time the call, returning the report and the wall time
    /// from the `explore` call to its report.
    pub fn explore(&self) -> (Report, Duration) {
        let props = self.props();
        let start = Instant::now();
        let exploration = self.mc.explore(&self.init, &props);
        let elapsed = start.elapsed();
        (exploration.report, elapsed)
    }
}

/// The counts a run is checked against, from a real [`Report`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub verdict: &'static str,
    pub states: usize,
    pub transitions: usize,
    pub depth: usize,
    pub terminals: usize,
    pub truncated: bool,
    pub quarantined: usize,
    pub spilled_extents: u64,
    pub faulted_extents: u64,
}

impl Outcome {
    pub fn of(report: &Report) -> Self {
        let verdict = if !report.violations.is_empty() {
            "violation"
        } else if !report.deadlocks.is_empty() {
            "deadlock"
        } else {
            "clean"
        };
        Outcome {
            verdict,
            states: report.states,
            transitions: report.transitions,
            depth: report.depth,
            terminals: report.terminal_states,
            truncated: report.truncated,
            quarantined: report.quarantined.len(),
            spilled_extents: report.spilled_extents,
            faulted_extents: report.faulted_extents,
        }
    }

    pub fn json(&self, name: &str) -> String {
        format!(
            "{{\"name\": \"{name}\", \"verdict\": \"{}\", \"states\": {}, \"transitions\": {}, \
             \"depth\": {}, \"terminals\": {}, \"truncated\": {}, \"quarantined\": {}, \
             \"spilled_extents\": {}, \"faulted_extents\": {}}}",
            self.verdict,
            self.states,
            self.transitions,
            self.depth,
            self.terminals,
            self.truncated,
            self.quarantined,
            self.spilled_extents,
            self.faulted_extents
        )
    }
}

/// Remove a scenario's scratch directories (untimed clean-up).
pub fn remove_scratch(work: &Path, tag: &str) {
    for suffix in ["spill", "ckpt"] {
        let _ = std::fs::remove_dir_all(work.join(format!("{tag}-{suffix}")));
    }
}
