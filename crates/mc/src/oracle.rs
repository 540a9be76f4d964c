//! The reference exploration: the pre-optimisation algorithm, kept as the
//! oracle the differential suites pin the driver against.

use crate::checker::{Exploration, ModelChecker, NOT_EXPANDED};
use crate::property::{Property, PropertyOutcome};
use crate::report::{Deadlock, Report, Step, Trace, Violation};
use cxl_core::{RuleId, StateArena, StateCodec, SystemState};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

impl ModelChecker {
    /// The pre-optimisation exploration algorithm, retained verbatim as
    /// the oracle for differential testing (correctness, not speed): a
    /// `HashMap<Arc<SystemState>, usize>` visited set (full SipHash per
    /// probe), freshly allocated successor vectors, allocation-heavy
    /// per-level merging, and a terminal-state rescan that re-runs
    /// successor generation over every reached state after the search.
    /// Its heap visited set is packed into a [`StateArena`] only at the
    /// end, so the two pipelines return the same result type (and
    /// differential tests can compare arenas byte for byte).
    #[must_use]
    pub fn explore_naive(&self, initial: &SystemState, props: &[&dyn Property]) -> Exploration {
        let start = Instant::now();
        let opts = self.options();
        let mut report = Report::default();

        let mut states: Vec<Arc<SystemState>> = Vec::new();
        let mut parents: Vec<Option<(usize, RuleId)>> = Vec::new();
        let mut index: HashMap<Arc<SystemState>, usize> = HashMap::new();

        let init = Arc::new(initial.clone());
        states.push(Arc::clone(&init));
        parents.push(None);
        index.insert(init, 0);

        self.check_state_naive(0, &states, &parents, props, &mut report);

        let mut frontier: Vec<usize> = vec![0];
        let mut depth = 0usize;

        'outer: while !frontier.is_empty() {
            if let Some(md) = opts.max_depth {
                if depth >= md {
                    report.truncated = true;
                    break;
                }
            }

            let mut expanded = Vec::new();
            for &id in &frontier {
                let st = &states[id];
                if let Some(prune) = &opts.prune {
                    if prune(st) {
                        continue;
                    }
                }
                for (rule, succ) in self.rules().successors_naive(st) {
                    expanded.push((id, rule, succ));
                }
            }

            let mut new_indices = Vec::new();
            for (parent, rule, succ) in expanded {
                *report.rule_firings.entry(rule).or_insert(0) += 1;
                report.transitions += 1;
                let succ = Arc::new(succ);
                if index.contains_key(&succ) {
                    continue;
                }
                let id = states.len();
                states.push(Arc::clone(&succ));
                parents.push(Some((parent, rule)));
                index.insert(succ, id);
                new_indices.push(id);
                if states.len() >= opts.max_states {
                    report.truncated = true;
                    break;
                }
            }

            for &id in &new_indices {
                self.check_state_naive(id, &states, &parents, props, &mut report);
                if report.violations.len() >= opts.max_violations
                    && !report.violations.is_empty()
                {
                    break 'outer;
                }
            }

            depth += 1;
            report.depth = depth;
            if report.truncated {
                break;
            }
            frontier = new_indices;
        }

        // The naive terminal-state rescan: a second full pass of
        // successor generation over every reached state.
        let mut succ_counts = vec![NOT_EXPANDED; states.len()];
        if !report.truncated && report.violations.is_empty() {
            for (id, st) in states.iter().enumerate() {
                let n = self.naive_successor_count(st);
                succ_counts[id] = u32::try_from(n).unwrap_or(u32::MAX - 1);
                if n == 0 {
                    report.terminal_states += 1;
                    if !st.is_quiescent() {
                        report.deadlocks.push(Deadlock {
                            trace: rebuild_trace_arcs(id, &states, &parents),
                        });
                    }
                }
            }
        }

        // Pack the visited set so both pipelines return the same shape.
        let mut arena = StateArena::new(StateCodec::new(self.rules().topology()));
        for st in &states {
            arena.push_state(st);
        }

        report.states = arena.len();
        report.memory_bytes = arena.approx_heap_bytes();
        report.elapsed = start.elapsed();
        Exploration { report, arena, successor_counts: succ_counts }
    }

    fn check_state_naive(
        &self,
        id: usize,
        states: &[Arc<SystemState>],
        parents: &[Option<(usize, RuleId)>],
        props: &[&dyn Property],
        report: &mut Report,
    ) {
        let st = &states[id];
        for p in props {
            let outcome = p.check(st);
            if let PropertyOutcome::Violated(detail) = outcome {
                report.violations.push(Violation {
                    property: p.name().to_string(),
                    detail,
                    trace: rebuild_trace_arcs(id, states, parents),
                });
                if report.violations.len() >= self.options().max_violations {
                    return;
                }
            }
        }
    }

    fn naive_successor_count(&self, s: &SystemState) -> usize {
        if let Some(prune) = &self.options().prune {
            if prune(s) {
                return 0;
            }
        }
        self.rules().successors_naive(s).len()
    }
}

/// Rebuild the trace from the initial state to state `id` via parent
/// links over the naive pipeline's heap visited set.
fn rebuild_trace_arcs(
    id: usize,
    states: &[Arc<SystemState>],
    parents: &[Option<(usize, RuleId)>],
) -> Trace {
    let mut rev = Vec::new();
    let mut cur = id;
    while let Some((parent, rule)) = parents[cur] {
        rev.push(Step { rule, state: (*states[cur]).clone() });
        cur = parent;
    }
    rev.reverse();
    Trace { initial: (*states[cur]).clone(), steps: rev }
}
