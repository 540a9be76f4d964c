//! The litmus-test harness.
//!
//! "Each litmus test initialises the system in a state where the two
//! devices are poised to issue a particular series of requests, and
//! confirms that, regardless of how nondeterminism in the transition rules
//! is resolved, the model ends up in an expected final state and that no
//! coherence violations occur in this or any intermediate states"
//! (paper §5.1). A [`Litmus`] captures exactly that: an initial state, a
//! configuration, and expectations; [`Litmus::run`] explores *all*
//! interleavings via the model checker.
//!
//! Restriction tests (paper §5.2) are litmus tests with an
//! [`Expectation::Violation`]: the run passes when the expected class of
//! violation *is* reachable.

use cxl_core::{Invariant, ProtocolConfig, Ruleset, SystemState};
use cxl_mc::{CheckOptions, InvariantProperty, ModelChecker, Report, SwmrProperty, Trace};
use std::fmt;
use std::sync::Arc;

/// Predicate over quiescent terminal states.
pub type FinalCheck = Arc<dyn Fn(&SystemState) -> bool + Send + Sync>;

/// What a litmus test expects of the exploration.
#[derive(Clone)]
pub enum Expectation {
    /// Every interleaving stays coherent (SWMR + full invariant), reaches
    /// quiescence, and every terminal state satisfies the final check.
    Coherent {
        /// Checked on every terminal state.
        final_check: Option<FinalCheck>,
    },
    /// An SWMR violation is reachable (restriction tests, paper §5.2 /
    /// Table 3).
    SwmrViolation,
    /// Relaxing the restriction breaks the protocol in a weaker way: an
    /// invariant violation or a stuck (non-quiescent terminal) state is
    /// reachable.
    InvariantViolationOrDeadlock,
    /// Relaxing this restriction changes nothing in our model — the
    /// restriction is subsumed by another modelling choice. The run
    /// passes when the exploration is clean; the litmus records *why*
    /// in its notes (cf. the redundancy the paper reports in §4.2).
    NoEffect,
}

impl fmt::Debug for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expectation::Coherent { final_check } => f
                .debug_struct("Coherent")
                .field("final_check", &final_check.is_some())
                .finish(),
            Expectation::SwmrViolation => write!(f, "SwmrViolation"),
            Expectation::InvariantViolationOrDeadlock => {
                write!(f, "InvariantViolationOrDeadlock")
            }
            Expectation::NoEffect => write!(f, "NoEffect"),
        }
    }
}

/// A litmus test: name, configuration, initial state, expectation.
#[derive(Clone, Debug)]
pub struct Litmus {
    /// Test name (paper §5 uses e.g. `clean_evict_test`).
    pub name: String,
    /// What the scenario exercises.
    pub description: String,
    /// Protocol configuration to run under.
    pub config: ProtocolConfig,
    /// The initial state.
    pub initial: SystemState,
    /// The expectation.
    pub expectation: Expectation,
}

/// The outcome of running a litmus test.
#[derive(Debug)]
pub struct LitmusResult {
    /// The test's name.
    pub name: String,
    /// Did the expectation hold?
    pub passed: bool,
    /// The exploration report.
    pub report: Report,
    /// Human-readable findings.
    pub notes: Vec<String>,
    /// For violation expectations: the witness trace.
    pub witness: Option<Trace>,
}

impl fmt::Display for LitmusResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} ({} states, {} transitions, depth {})",
            self.name,
            if self.passed { "PASS" } else { "FAIL" },
            self.report.states,
            self.report.transitions,
            self.report.depth
        )?;
        for n in &self.notes {
            writeln!(f, "  - {n}")?;
        }
        Ok(())
    }
}

impl Litmus {
    /// A coherence litmus test with no final-state check.
    #[must_use]
    pub fn coherent(
        name: impl Into<String>,
        description: impl Into<String>,
        config: ProtocolConfig,
        initial: SystemState,
    ) -> Self {
        Litmus {
            name: name.into(),
            description: description.into(),
            config,
            initial,
            expectation: Expectation::Coherent { final_check: None },
        }
    }

    /// Add a final-state check to a coherent test.
    ///
    /// # Panics
    /// Panics if the expectation is not [`Expectation::Coherent`].
    #[must_use]
    pub fn with_final_check(
        mut self,
        check: impl Fn(&SystemState) -> bool + Send + Sync + 'static,
    ) -> Self {
        match &mut self.expectation {
            Expectation::Coherent { final_check } => *final_check = Some(Arc::new(check)),
            other => panic!("final checks only apply to Coherent litmus tests, not {other:?}"),
        }
        self
    }

    /// Run the test, exploring all interleavings. The rule set and the
    /// invariant are instantiated for the initial state's own device
    /// count, so N-device litmus tests need no extra plumbing.
    #[must_use]
    pub fn run(&self) -> LitmusResult {
        let n = self.initial.device_count();
        let rules = Ruleset::with_devices(self.config, n);
        let invariant = InvariantProperty::new(Invariant::for_devices(&self.config, n));
        let swmr = SwmrProperty;
        let opts = CheckOptions { max_violations: 1, ..CheckOptions::default() };
        let mc = ModelChecker::with_options(rules, opts);
        let exploration = mc.explore(&self.initial, &[&swmr, &invariant]);
        let report = &exploration.report;

        let mut notes = Vec::new();
        let mut witness = None;

        let passed = match &self.expectation {
            Expectation::Coherent { final_check } => {
                let mut ok = report.clean() && !report.truncated;
                if !report.violations.is_empty() {
                    notes.push(format!("unexpected violation: {}", report.violations[0]));
                }
                if !report.deadlocks.is_empty() {
                    notes.push(format!(
                        "unexpected deadlock after {}",
                        report.deadlocks[0].trace.rule_names().join(" → ")
                    ));
                }
                if let Some(check) = final_check {
                    // Terminal states come from the exploration's recorded
                    // successor counts, so the grid is explored once. A run
                    // that stopped early (at a violation, or truncated)
                    // expanded only a prefix of the grid, and the check
                    // covers only that prefix's terminal states.
                    let (mut checked, mut failed) = (0usize, 0usize);
                    for id in exploration.terminal_indices() {
                        let st = exploration.state(id);
                        checked += 1;
                        if !check(&st) {
                            failed += 1;
                            notes.push(format!("final-state check failed on:\n{st}"));
                        }
                    }
                    ok &= failed == 0;
                    let scope = if report.truncated || !report.violations.is_empty() {
                        " of the explored prefix (the exploration stopped early)"
                    } else {
                        ""
                    };
                    let total = format!("{checked} terminal states{scope}");
                    notes.push(if failed == 0 {
                        format!("final-state check passed on {total}")
                    } else {
                        format!("final-state check failed on {failed} of {total}")
                    });
                }
                ok
            }
            Expectation::SwmrViolation => {
                let hit = report.violations.iter().find(|v| v.property == "SWMR");
                match hit {
                    Some(v) => {
                        notes.push(format!(
                            "SWMR violation reached after {} steps: {}",
                            v.trace.len(),
                            v.trace.rule_names().join(" → ")
                        ));
                        witness = Some(v.trace.clone());
                        true
                    }
                    None => {
                        // The checker stops at the first violation, which may
                        // be an invariant conjunct; retry with SWMR only.
                        let mc2 = ModelChecker::new(Ruleset::with_devices(
                            self.config,
                            self.initial.device_count(),
                        ));
                        let r2 = mc2.check(&self.initial, &[&SwmrProperty]);
                        match r2.violations.first() {
                            Some(v) => {
                                notes.push(format!(
                                    "SWMR violation reached after {} steps: {}",
                                    v.trace.len(),
                                    v.trace.rule_names().join(" → ")
                                ));
                                witness = Some(v.trace.clone());
                                true
                            }
                            None => {
                                notes.push("expected an SWMR violation; none reachable".into());
                                false
                            }
                        }
                    }
                }
            }
            Expectation::InvariantViolationOrDeadlock => {
                if let Some(v) = report.violations.first() {
                    notes.push(format!("violation: {v}"));
                    witness = Some(v.trace.clone());
                    true
                } else if let Some(d) = report.deadlocks.first() {
                    notes.push(format!(
                        "stuck state after {}",
                        d.trace.rule_names().join(" → ")
                    ));
                    witness = Some(d.trace.clone());
                    true
                } else {
                    notes.push("expected an invariant violation or deadlock; model clean".into());
                    false
                }
            }
            Expectation::NoEffect => {
                let ok = report.clean();
                notes.push(if ok {
                    "relaxation had no observable effect (restriction subsumed; cf. paper §4.2)"
                        .into()
                } else {
                    format!("relaxation unexpectedly broke the model: {report}")
                });
                ok
            }
        };

        LitmusResult { name: self.name.clone(), passed, report: exploration.report, notes, witness }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;
    use cxl_core::Relaxation;

    #[test]
    fn coherent_litmus_passes_on_strict_model() {
        let lit = Litmus::coherent(
            "smoke",
            "store/load race",
            ProtocolConfig::strict(),
            SystemState::initial(programs::store(42), programs::load()),
        );
        let res = lit.run();
        assert!(res.passed, "{res}");
    }

    #[test]
    fn final_check_runs_on_all_terminals() {
        let lit = Litmus::coherent(
            "final",
            "single store drains",
            ProtocolConfig::strict(),
            SystemState::initial(programs::store(5), vec![]),
        )
        .with_final_check(|s| s.dev(cxl_core::DeviceId::D1).cache.val == 5);
        let res = lit.run();
        assert!(res.passed, "{res}");
        assert!(res.notes.iter().any(|n| n.contains("final-state check passed")));
    }

    #[test]
    fn final_check_notes_failures_and_an_early_stop() {
        let lit = Litmus::coherent(
            "final",
            "single store drains",
            ProtocolConfig::strict(),
            SystemState::initial(programs::store(5), vec![]),
        )
        .with_final_check(|s| s.dev(cxl_core::DeviceId::D1).cache.val == 6);
        let res = lit.run();
        assert!(!res.passed, "{res}");
        assert!(res.notes.iter().any(|n| n.starts_with("final-state check failed on 1 of ")));

        // A violation stops the exploration, so the check sees a prefix.
        let lit = Litmus::coherent(
            "prefix",
            "paper Table 3",
            ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
            SystemState::initial(programs::store(42), programs::load()),
        )
        .with_final_check(|_| true);
        let res = lit.run();
        assert!(!res.passed, "{res}");
        let prefix = "of the explored prefix (the exploration stopped early)";
        assert!(res.notes.iter().any(|n| n.ends_with(prefix)), "{res}");
    }

    #[test]
    fn violation_expectation_passes_on_relaxed_model() {
        let lit = Litmus {
            name: "snoop_pushes_go_test".into(),
            description: "paper Table 3".into(),
            config: ProtocolConfig::relaxed(Relaxation::SnoopPushesGo),
            initial: SystemState::initial(programs::store(42), programs::load()),
            expectation: Expectation::SwmrViolation,
        };
        let res = lit.run();
        assert!(res.passed, "{res}");
        assert!(res.witness.is_some());
    }

    #[test]
    fn violation_expectation_fails_on_strict_model() {
        let lit = Litmus {
            name: "no_violation_here".into(),
            description: "strict model is coherent".into(),
            config: ProtocolConfig::strict(),
            initial: SystemState::initial(programs::store(42), programs::load()),
            expectation: Expectation::SwmrViolation,
        };
        assert!(!lit.run().passed);
    }

    #[test]
    #[should_panic(expected = "only apply to Coherent")]
    fn final_check_rejects_violation_expectation() {
        let lit = Litmus {
            name: "x".into(),
            description: String::new(),
            config: ProtocolConfig::strict(),
            initial: SystemState::initial(vec![], vec![]),
            expectation: Expectation::SwmrViolation,
        };
        let _ = lit.with_final_check(|_| true);
    }
}
