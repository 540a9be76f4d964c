//! Exploration results: statistics, violations with counterexample traces,
//! and deadlock reports.

use cxl_core::{RuleId, SystemState};
use cxl_telemetry::{FlightEvent, PhaseNanos};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// One step of a counterexample trace: the rule fired and the state it
/// produced.
#[derive(Clone, Debug)]
pub struct Step {
    /// The rule that fired.
    pub rule: RuleId,
    /// The state after firing.
    pub state: SystemState,
}

/// A full counterexample: the initial state followed by the steps leading
/// to the offending state (the paper's Tables 1–3 are renderings of such
/// traces).
#[derive(Clone, Debug)]
pub struct Trace {
    /// The initial state.
    pub initial: SystemState,
    /// The steps, in firing order.
    pub steps: Vec<Step>,
}

impl Trace {
    /// The final state of the trace (the initial state if empty).
    #[must_use]
    pub fn last_state(&self) -> &SystemState {
        self.steps.last().map_or(&self.initial, |s| &s.state)
    }

    /// Number of transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is this the empty trace (just the initial state)?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The rule names along the trace, in order.
    #[must_use]
    pub fn rule_names(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.rule.name()).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "(initial state)")?;
        write!(f, "{}", self.initial)?;
        for step in &self.steps {
            writeln!(f, "--- {} ---", step.rule.name())?;
            write!(f, "{}", step.state)?;
        }
        Ok(())
    }
}

/// A property violation found during exploration.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Name of the violated property.
    pub property: String,
    /// Explanation (e.g. the violated invariant conjunct).
    pub detail: String,
    /// Counterexample trace from the initial state to the violating state.
    pub trace: Trace,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation of {}: {}", self.property, self.detail)?;
        writeln!(f, "after {} steps: {}", self.trace.len(), self.trace.rule_names().join(" → "))
    }
}

/// A terminal (no enabled rule) state that is not quiescent — a deadlock
/// or stuck protocol state. The strict model must have none; relaxed
/// models may (paper §5.2's "additional states become reachable").
#[derive(Clone, Debug)]
pub struct Deadlock {
    /// Trace from the initial state to the stuck state.
    pub trace: Trace,
}

/// A frontier state whose expansion panicked inside a supervised worker.
///
/// The checker catches the panic, records the poison state here (packed
/// bytes plus a decoded dump, so the report is self-contained even if the
/// decode path itself is what panicked), and keeps exploring: one bad
/// successor degrades coverage accounting instead of aborting the run.
/// A quarantined state stays [`crate::NOT_EXPANDED`], so its successors
/// are *not* covered — [`Report::complete_coverage`] reports false.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// Arena id (discovery order) of the state whose expansion panicked.
    pub state: usize,
    /// The state's packed encoding, as stored in the arena.
    pub packed: Vec<u8>,
    /// Decoded rendering of the state ("<undecodable>" if decoding is
    /// itself the poison).
    pub dump: String,
    /// The panic payload, when it carried a message.
    pub message: String,
}

impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state {} quarantined ({} packed bytes): {}",
            self.state,
            self.packed.len(),
            self.message
        )
    }
}

/// One rung of the memory-pressure degradation ladder, recorded in
/// [`Report::sheds`] in the order taken: shed capacity slack first, then
/// emit an emergency checkpoint, and only then truncate the search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradationAction {
    /// Capacity slack was released (arena, dedup index, parent/successor
    /// tables, scratch buffers); carries the bytes reclaimed.
    ShedBuffers {
        /// Footprint bytes freed by the shed.
        reclaimed: usize,
    },
    /// An emergency checkpoint was written before the budget line.
    EmergencyCheckpoint,
    /// The hard budget was reached and the search truncated
    /// ([`Report::truncated_by_memory`]).
    Truncate,
}

/// A recorded degradation-ladder step: what was done, and when.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradationStep {
    /// The rung taken.
    pub action: DegradationAction,
    /// Stored states at the time.
    pub at_states: usize,
    /// Tracked footprint (arena + index + queues) in bytes *after* the
    /// action.
    pub footprint: usize,
}

impl fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            DegradationAction::ShedBuffers { reclaimed } => write!(
                f,
                "shed {:.1} KiB of buffer slack at {} states ({:.1} KiB resident)",
                reclaimed as f64 / 1024.0,
                self.at_states,
                self.footprint as f64 / 1024.0
            ),
            DegradationAction::EmergencyCheckpoint => write!(
                f,
                "emergency checkpoint at {} states ({:.1} KiB resident)",
                self.at_states,
                self.footprint as f64 / 1024.0
            ),
            DegradationAction::Truncate => write!(
                f,
                "truncated at {} states ({:.1} KiB resident)",
                self.at_states,
                self.footprint as f64 / 1024.0
            ),
        }
    }
}

/// What a state-space reduction did during one exploration (present only
/// when [`crate::CheckOptions::reduction`] installed a reducer), with
/// per-engine accounting: device symmetry, data symmetry, and POR each
/// report their own contribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReductionSummary {
    /// Which engines ran, e.g.
    /// `symmetry(|G| = 6, 1 classes) + data-symmetry(2 pinned) + por(wide)`.
    pub description: String,
    /// Order of the detected device-permutation subgroup (1 = trivial).
    pub group_order: u64,
    /// Successor encodings whose device arrangement was rewritten to a
    /// different orbit representative (device-symmetry engine).
    pub orbit_canonicalized: u64,
    /// Successor encodings whose value assignment was renumbered
    /// (data-symmetry engine).
    pub value_canonicalized: u64,
    /// Was the data-symmetry engine armed (and potentially active)?
    pub data_symmetry: bool,
    /// States expanded through a singleton ample **local** step (static
    /// safe-local, or a snoop-free local hit under the wide tier).
    pub ample_local: u64,
    /// States expanded through a collapsed GO/data completion diamond
    /// (wide tier only).
    pub ample_diamond: u64,
    /// States expanded through a singleton host-drain ample step
    /// (wide tier only; fires when exactly one device can mint host
    /// progress and the host is waiting on its data).
    pub ample_host_drain: u64,
    /// The POR tier that ran.
    pub por: cxl_reduce::PorMode,
    /// Which canonicalization engine actually ran: `"off"`, `"refine"`
    /// (partition-refinement labeller), `"brute"` (arrangement
    /// enumeration), or `"capped"` (refine over group byte-classes after
    /// the brute enumeration cap tripped — sound, but a coarser quotient).
    pub canon: &'static str,
    /// Σ device-orbit sizes over the stored arena — exactly how many
    /// states the unreduced exploration of the equivariant relation
    /// would store *under the device-symmetry engine alone*.
    /// `orbit_states / states` is the effective device-symmetry factor;
    /// data-symmetry and POR savings come on top and are visible only
    /// against a measured unreduced run.
    pub orbit_states: u64,
}

impl ReductionSummary {
    /// Effective device-symmetry reduction factor against `states`
    /// stored states (1.0 when inert).
    #[must_use]
    pub fn effective_factor(&self, states: usize) -> f64 {
        if states == 0 {
            1.0
        } else {
            self.orbit_states as f64 / states as f64
        }
    }

    /// Total singleton-ample expansions across both POR tiers.
    #[must_use]
    pub fn ample_steps(&self) -> u64 {
        self.ample_local + self.ample_diamond + self.ample_host_drain
    }
}

/// Aggregate statistics and findings of one exploration.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions (edges) examined.
    pub transitions: usize,
    /// Deepest BFS layer reached.
    pub depth: usize,
    /// True if the exploration hit a state, depth, or memory bound before
    /// exhausting the reachable space.
    pub truncated: bool,
    /// True if the bound that truncated the search was the memory budget
    /// ([`crate::CheckOptions::mem_budget`]) — lets callers report "ran
    /// out of budget" distinctly from "hit `max_states`".
    pub truncated_by_memory: bool,
    /// True if the bound that truncated the search was the wall-clock
    /// budget ([`crate::CheckOptions::time_budget`]). Time-budget stops
    /// land on a BFS level boundary, so when checkpointing is configured
    /// the final checkpoint of a time-truncated run is exactly resumable.
    pub truncated_by_time: bool,
    /// Frontier states whose expansion panicked inside a supervised
    /// worker, quarantined instead of aborting the run. Non-empty
    /// quarantine means coverage is incomplete even when `truncated` is
    /// false — see [`Self::complete_coverage`].
    pub quarantined: Vec<Quarantine>,
    /// Degradation-ladder steps taken under memory pressure, in order.
    pub sheds: Vec<DegradationStep>,
    /// When this report continues an interrupted exploration, the state
    /// count the resumed session started from.
    pub resumed_from: Option<usize>,
    /// Property violations (bounded by the checker's options).
    pub violations: Vec<Violation>,
    /// Non-quiescent terminal states.
    pub deadlocks: Vec<Deadlock>,
    /// Terminal states total (quiescent + deadlocked).
    pub terminal_states: usize,
    /// How often each rule fired (a coverage measure for the rule set).
    ///
    /// Keyed by [`RuleId`] — a two-word `Copy` key — so the exploration
    /// hot loop never allocates a `String` per transition; render names
    /// only at report time via [`Report::rule_firings_by_name`].
    pub rule_firings: BTreeMap<RuleId, u64>,
    /// Wall-clock exploration time.
    pub elapsed: Duration,
    /// Resident bytes of the packed state store at the end of the search
    /// (payload + offset table) — the figure the memory budget bounds and
    /// the bench snapshot's `bytes_per_state` divides.
    pub memory_bytes: usize,
    /// Reduction statistics, when a reducer was installed. Note that a
    /// reduced report's `states`/`transitions` count *representatives*,
    /// not raw states, and violation traces are in canonical coordinates
    /// (de-permute via `cxl-litmus`'s replay module).
    pub reduction: Option<ReductionSummary>,
    /// Number of dedup/store shards the search ran with
    /// ([`crate::CheckOptions::shards`]); 1 for a sequential search.
    pub shards: usize,
    /// Successor messages routed to owner shards by fingerprint — one
    /// per transition this session examined when more than one shard
    /// ran, 0 with a single shard (which routes nothing).
    pub routed_messages: u64,
    /// Shard load imbalance: `(max − mean) / mean × 100` over per-shard
    /// stored-state counts. 0 means perfectly even ownership; the routing
    /// hash keeps this low for any non-adversarial state space.
    pub shard_imbalance_pct: f64,
    /// States stored as parent-deltas rather than full encodings
    /// ([`crate::CheckOptions::delta_keyframe`]); 0 when delta encoding
    /// is off or never beat the full encoding.
    pub delta_entries: u64,
    /// Sealed cold extents written to [`crate::CheckOptions::spill_dir`]
    /// over the whole run; 0 when spilling is off or never triggered.
    pub spilled_extents: u64,
    /// Spilled extents faulted back from disk for decode (traces,
    /// property dumps, checkpoint materialization); expansion itself
    /// never faults, so this stays tiny on clean runs.
    pub faulted_extents: u64,
    /// Where this run's wall time went, by coarse phase — present only
    /// when a telemetry recorder was installed (the phase clock never
    /// reads the time otherwise). Covers this session only; a resumed
    /// run's `elapsed` may include unprofiled predecessor time.
    pub profile: Option<PhaseNanos>,
    /// The flight recorder's retained events (oldest first): the last K
    /// level commits, checkpoint writes, degradation rungs, spill
    /// seals/faults, quarantines, violations, and resumes. Restored
    /// rings carry events from the interrupted session(s) too.
    pub flight: Vec<FlightEvent>,
}

impl Report {
    /// Did every checked property hold on every visited state, with no
    /// deadlocks?
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.deadlocks.is_empty()
    }

    /// Did the exploration cover the whole reachable space? False when
    /// the search truncated (states, depth, memory, or time bound) or
    /// when any state was quarantined after a worker panic. A clean but
    /// incomplete run proves nothing about the unexplored remainder —
    /// callers gating on "verified clean" must check both
    /// [`Self::clean`] and this.
    #[must_use]
    pub fn complete_coverage(&self) -> bool {
        !self.truncated && self.quarantined.is_empty()
    }

    /// Rules that never fired (given the full rule universe); useful for
    /// coverage audits.
    #[must_use]
    pub fn unfired_rules(&self, all_rules: &[RuleId]) -> Vec<String> {
        all_rules
            .iter()
            .filter(|r| !self.rule_firings.contains_key(r))
            .map(|r| r.name())
            .collect()
    }

    /// Rule firings rendered under paper-style rule names — the
    /// report-time view of [`Self::rule_firings`].
    #[must_use]
    pub fn rule_firings_by_name(&self) -> BTreeMap<String, u64> {
        self.rule_firings.iter().map(|(id, n)| (id.name(), *n)).collect()
    }

    /// Mean distinct states stored per second of wall time (0.0 for a
    /// zero-duration run).
    #[must_use]
    pub fn mean_states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "states: {}  transitions: {}  depth: {}  terminals: {}  truncated: {}",
            self.states, self.transitions, self.depth, self.terminal_states, self.truncated
        )?;
        writeln!(
            f,
            "violations: {}  deadlocks: {}  elapsed: {:?}  throughput: {:.0} states/s  \
             state store: {:.1} KiB{}{}",
            self.violations.len(),
            self.deadlocks.len(),
            self.elapsed,
            self.mean_states_per_sec(),
            self.memory_bytes as f64 / 1024.0,
            if self.truncated_by_memory { " (memory budget exhausted)" } else { "" },
            if self.truncated_by_time { " (time budget exhausted)" } else { "" }
        )?;
        if let Some(p) = &self.profile {
            // Phase shares of the wall clock; "untimed" is whatever the
            // coarse per-level blocks did not cover (driver bookkeeping,
            // and — on resumed runs — the predecessor sessions' time).
            let wall = self.elapsed.as_nanos().max(1) as f64;
            let pct = |nanos: u64| nanos as f64 / wall * 100.0;
            let untimed = self
                .elapsed
                .as_nanos()
                .saturating_sub(u128::from(p.total()));
            writeln!(
                f,
                "profile: expand {:.1}%  merge {:.1}%  check {:.1}%  spill {:.1}%  \
                 checkpoint {:.1}%  untimed {:.1}%",
                pct(p.expand),
                pct(p.merge),
                pct(p.check),
                pct(p.spill),
                pct(p.checkpoint),
                untimed as f64 / wall * 100.0
            )?;
        }
        if self.shards > 1 {
            writeln!(
                f,
                "shards: {}  routed messages: {}  imbalance: {:.1}%",
                self.shards, self.routed_messages, self.shard_imbalance_pct
            )?;
        }
        if self.delta_entries > 0 || self.spilled_extents > 0 {
            writeln!(
                f,
                "delta entries: {}  spilled extents: {}  faulted extents: {}",
                self.delta_entries, self.spilled_extents, self.faulted_extents
            )?;
        }
        if let Some(from) = self.resumed_from {
            writeln!(f, "resumed from a checkpoint at {from} states")?;
        }
        if !self.quarantined.is_empty() {
            writeln!(f, "quarantined: {} poison state(s)", self.quarantined.len())?;
            for q in &self.quarantined {
                writeln!(f, "  {q}")?;
            }
        }
        for shed in &self.sheds {
            writeln!(f, "degradation: {shed}")?;
        }
        if let Some(red) = &self.reduction {
            writeln!(f, "reduction: {}", red.description)?;
            // The arrangement line also prints for a byte-trivial group
            // when the data engine's value-blind joint permutations
            // rewrote arrangements (|G| then reads 1; the description
            // carries the joint-perm count).
            if red.group_order > 1 || red.orbit_canonicalized > 0 {
                writeln!(
                    f,
                    "  symmetry:      {} orbit-canonicalized (|G| = {}, canon: {}); \
                     effective factor {:.2}x ({} orbit states / {} stored)",
                    red.orbit_canonicalized,
                    red.group_order,
                    if red.canon.is_empty() { "off" } else { red.canon },
                    red.effective_factor(self.states),
                    red.orbit_states,
                    self.states
                )?;
            }
            if red.data_symmetry {
                writeln!(
                    f,
                    "  data-symmetry: {} value-renumbered",
                    red.value_canonicalized
                )?;
            }
            if red.por != cxl_reduce::PorMode::Off {
                writeln!(
                    f,
                    "  por:           {} ample steps ({} local, {} diamond, {} host-drain)",
                    red.ample_steps(),
                    red.ample_local,
                    red.ample_diamond,
                    red.ample_host_drain
                )?;
            }
        }
        for v in &self.violations {
            write!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::{DeviceId, Shape};

    #[test]
    fn trace_accessors() {
        let initial = SystemState::initial(vec![], vec![]);
        let mut t = Trace { initial: initial.clone(), steps: vec![] };
        assert!(t.is_empty());
        assert_eq!(t.last_state(), &initial);
        let mut s2 = initial.clone();
        s2.counter = 1;
        t.steps.push(Step { rule: RuleId::new(Shape::InvalidLoad, DeviceId::D1), state: s2 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.last_state().counter, 1);
        assert_eq!(t.rule_names(), vec!["InvalidLoad1"]);
    }

    #[test]
    fn report_clean_logic() {
        let mut r = Report::default();
        assert!(r.clean());
        r.deadlocks.push(Deadlock {
            trace: Trace { initial: SystemState::initial(vec![], vec![]), steps: vec![] },
        });
        assert!(!r.clean());
    }

    #[test]
    fn reduction_summary_display_prints_per_engine_lines() {
        // Snapshot of the per-engine report block: one line per armed
        // engine, none for the idle ones. Pinned exactly so a format
        // regression (e.g. re-merging the counts) fails loudly.
        let mut r = Report {
            states: 200,
            reduction: Some(ReductionSummary {
                description:
                    "symmetry(|G| = 6, 1 classes) + data-symmetry(2 pinned) + por(wide)".into(),
                group_order: 6,
                orbit_canonicalized: 12,
                value_canonicalized: 34,
                data_symmetry: true,
                ample_local: 40,
                ample_diamond: 16,
                ample_host_drain: 4,
                por: cxl_reduce::PorMode::Wide,
                canon: "refine",
                orbit_states: 1186,
            }),
            ..Report::default()
        };
        let text = r.to_string();
        let expected = "\
reduction: symmetry(|G| = 6, 1 classes) + data-symmetry(2 pinned) + por(wide)
  symmetry:      12 orbit-canonicalized (|G| = 6, canon: refine); effective factor 5.93x (1186 orbit states / 200 stored)
  data-symmetry: 34 value-renumbered
  por:           60 ample steps (40 local, 16 diamond, 4 host-drain)
";
        assert!(
            text.contains(expected),
            "per-engine reduction block drifted from the pinned format:\n{text}"
        );

        // Engines that did not run print no line.
        let only_sym = ReductionSummary {
            description: "symmetry(|G| = 2, 1 classes)".into(),
            group_order: 2,
            orbit_canonicalized: 5,
            orbit_states: 300,
            ..ReductionSummary::default()
        };
        r.reduction = Some(only_sym);
        let text = r.to_string();
        assert!(text.contains("symmetry:      5 orbit-canonicalized"));
        assert!(!text.contains("data-symmetry:"), "{text}");
        assert!(!text.contains("por:"), "{text}");
    }

    #[test]
    fn summary_block_pins_elapsed_and_throughput() {
        // Snapshot of the second summary line: elapsed wall time and mean
        // states/sec ride next to the verdict counts. Pinned exactly so a
        // format regression (or a silently dropped rate) fails loudly.
        let r = Report {
            states: 1000,
            transitions: 4000,
            depth: 7,
            terminal_states: 3,
            elapsed: Duration::from_secs(2),
            memory_bytes: 2048,
            ..Report::default()
        };
        let text = r.to_string();
        assert!(
            text.contains(
                "violations: 0  deadlocks: 0  elapsed: 2s  throughput: 500 states/s  \
                 state store: 2.0 KiB\n"
            ),
            "summary line drifted from the pinned format:\n{text}"
        );
        assert!(!text.contains("profile:"), "no profile without a recorder:\n{text}");

        // With a phase profile attached, a third line breaks the wall
        // time down (2s wall: 1s expand, 0.5s merge, 0.5s untimed).
        let profiled = Report {
            profile: Some(PhaseNanos {
                expand: 1_000_000_000,
                merge: 500_000_000,
                ..PhaseNanos::default()
            }),
            ..r
        };
        let text = profiled.to_string();
        assert!(
            text.contains(
                "profile: expand 50.0%  merge 25.0%  check 0.0%  spill 0.0%  \
                 checkpoint 0.0%  untimed 25.0%\n"
            ),
            "profile line drifted from the pinned format:\n{text}"
        );
    }

    #[test]
    fn unfired_rules_subtracts_firings() {
        let mut r = Report::default();
        let all = vec![
            RuleId::new(Shape::InvalidLoad, DeviceId::D1),
            RuleId::new(Shape::InvalidLoad, DeviceId::D2),
        ];
        r.rule_firings.insert(RuleId::new(Shape::InvalidLoad, DeviceId::D1), 3);
        assert_eq!(r.unfired_rules(&all), vec!["InvalidLoad2"]);
        assert_eq!(r.rule_firings_by_name()["InvalidLoad1"], 3);
    }
}
