//! The proof-obligation matrix (paper Figure 1 and §7.1).
//!
//! "Viewing inv as a conjunction of sub-invariants […] we can treat the
//! proofs we need to do to show the inductiveness of inv as an n×m matrix,
//! where n is the number of conjuncts and m is the number of transition
//! rules. Cell (i, j) of this matrix represents the obligation to prove
//! that inv(Σ) ⟹ invᵢ(Σ′) whenever the transition Σ → Σ′ is enabled by
//! rule j."
//!
//! The paper's matrix is 796 × 68 = 53,332 Isabelle lemmas; here each cell
//! is *checked* rather than *proved*: over a [`Universe`] `U`, cell (i, j)
//! is discharged iff for every `Σ ∈ U` with `inv(Σ)` and `rule_j`
//! enabled, the successor satisfies `invᵢ`. Columns are discharged
//! concurrently on the model checker's phase runner
//! ([`cxl_mc::run_phase`]) — the super_sketch workflow of §7.2.

use crate::universe::Universe;
use cxl_core::{Invariant, RuleId, Ruleset, SystemState};
use cxl_mc::run_phase;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The verdict for one matrix cell.
#[derive(Clone, Debug, Serialize)]
pub struct CellResult {
    /// Conjunct index (row, the paper's `i`).
    pub conjunct: usize,
    /// Conjunct name.
    pub conjunct_name: String,
    /// Rule name (column, the paper's `j`).
    pub rule: String,
    /// Successor states the conjunct was evaluated on.
    pub checked: usize,
    /// Did the conjunct hold on every successor?
    pub holds: bool,
}

/// A counterexample to a cell: a hypothesis state and its successor on
/// which the conjunct fails.
#[derive(Clone, Debug)]
pub struct CellCounterexample {
    /// Conjunct index.
    pub conjunct: usize,
    /// Conjunct name.
    pub conjunct_name: String,
    /// The rule fired.
    pub rule: RuleId,
    /// The hypothesis state (satisfies the full invariant).
    pub before: SystemState,
    /// The successor on which the conjunct fails.
    pub after: SystemState,
}

/// Per-rule summary — the analogue of one of the paper's 68 "giant rule
/// lemmas" (§6: "each lemma taking up about 2.5k lines of code with its
/// 796 subgoals").
#[derive(Clone, Debug, Serialize)]
pub struct RuleSummary {
    /// Rule name.
    pub rule: String,
    /// Number of hypothesis states in which the rule was enabled.
    pub enabled_states: usize,
    /// Subgoals (= conjuncts) discharged.
    pub discharged: usize,
    /// Subgoals failed.
    pub failed: usize,
    /// Wall time spent on this rule's column.
    pub elapsed: Duration,
}

/// The outcome of discharging the whole matrix.
#[derive(Debug)]
pub struct MatrixReport {
    /// Number of conjuncts (rows; the paper's n = 796).
    pub conjuncts: usize,
    /// Number of rules (columns; the paper's m = 68).
    pub rules: usize,
    /// Universe size the obligations were checked over.
    pub universe: usize,
    /// Universe states satisfying the invariant (the hypothesis side).
    pub hypothesis_states: usize,
    /// All cell verdicts (row-major order: `conjuncts × rules`).
    pub cells: Vec<CellResult>,
    /// Counterexamples for failed cells (at most one per cell).
    pub counterexamples: Vec<CellCounterexample>,
    /// Per-rule summaries.
    pub per_rule: Vec<RuleSummary>,
    /// Total wall time.
    pub elapsed: Duration,
}

impl MatrixReport {
    /// Total number of obligations (the paper's 53,332).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.conjuncts * self.rules
    }

    /// Number of discharged cells.
    #[must_use]
    pub fn discharged(&self) -> usize {
        self.cells.iter().filter(|c| c.holds).count()
    }

    /// Number of failed cells.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| !c.holds).count()
    }

    /// Fraction of cells discharged automatically (the paper reports
    /// sledgehammer succeeding on >99% of subgoals, §7.2).
    #[must_use]
    pub fn discharge_rate(&self) -> f64 {
        if self.cells.is_empty() {
            return 1.0;
        }
        self.discharged() as f64 / self.cells.len() as f64
    }

    /// Cells discharged per second of wall time.
    #[must_use]
    pub fn cells_per_second(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return f64::INFINITY;
        }
        self.cells.len() as f64 / secs
    }

    /// Was the whole matrix discharged (the invariant is inductive over
    /// the universe)?
    #[must_use]
    pub fn inductive(&self) -> bool {
        self.failed() == 0
    }
}

/// The obligation matrix: an invariant (rows) crossed with a rule set
/// (columns), discharged over a universe.
#[derive(Clone)]
pub struct ObligationMatrix {
    invariant: Arc<Invariant>,
    rules: Ruleset,
}

impl ObligationMatrix {
    /// Build the matrix structure.
    #[must_use]
    pub fn new(invariant: Invariant, rules: Ruleset) -> Self {
        ObligationMatrix { invariant: Arc::new(invariant), rules }
    }

    /// The invariant (rows).
    #[must_use]
    pub fn invariant(&self) -> &Invariant {
        &self.invariant
    }

    /// The rule set (columns).
    #[must_use]
    pub fn rules(&self) -> &Ruleset {
        &self.rules
    }

    /// Matrix dimensions `(n conjuncts, m rules)`.
    #[must_use]
    pub fn dimensions(&self) -> (usize, usize) {
        (self.invariant.len(), self.rules.rule_ids().len())
    }

    /// Discharge every cell over `universe` using `threads` workers.
    ///
    /// For each rule `j`, the hypothesis states (universe states
    /// satisfying the invariant) in which `j` is enabled are fired once;
    /// every conjunct is then evaluated on each successor. A cell fails as
    /// soon as one successor refutes its conjunct; the first
    /// counterexample per cell is retained.
    #[must_use]
    pub fn discharge(&self, universe: &Universe, threads: usize) -> MatrixReport {
        let start = Instant::now();
        let hypothesis: Vec<Arc<SystemState>> = universe.satisfying(&self.invariant);
        let rule_ids: Vec<RuleId> = self.rules.rule_ids().to_vec();
        let n = self.invariant.len();

        struct ColumnOutcome {
            enabled: usize,
            holds: Vec<bool>,
            counterexamples: Vec<Option<(SystemState, SystemState)>>,
            elapsed: Duration,
        }

        // One column per job, on the model checker's phase runner, which
        // returns the columns in rule order.
        let hypothesis = &hypothesis;
        let outcomes = run_phase(threads, rule_ids.iter(), || {
            // One scratch successor serves each worker: most (rule, state)
            // pairs fail the guard and cost no allocation at all; enabled
            // pairs fire into the reused scratch.
            let mut succ = SystemState::initial_n(self.rules.device_count(), Vec::new());
            move |&rule: &RuleId| {
                let col_start = Instant::now();
                let mut holds = vec![true; n];
                let mut counterexamples: Vec<Option<(SystemState, SystemState)>> = vec![None; n];
                let mut enabled = 0usize;
                for st in hypothesis {
                    if !self.rules.try_fire_into(rule, st, &mut succ) {
                        continue;
                    }
                    enabled += 1;
                    for (i, conjunct) in self.invariant.iter().enumerate() {
                        if (holds[i] || counterexamples[i].is_none()) && !conjunct.holds(&succ) {
                            holds[i] = false;
                            if counterexamples[i].is_none() {
                                counterexamples[i] = Some(((**st).clone(), succ.clone()));
                            }
                        }
                    }
                }
                ColumnOutcome { enabled, holds, counterexamples, elapsed: col_start.elapsed() }
            }
        });

        let mut cells = Vec::with_capacity(n * rule_ids.len());
        let mut counterexamples = Vec::new();
        let mut per_rule = Vec::with_capacity(rule_ids.len());
        for (&rule, out) in rule_ids.iter().zip(&outcomes) {
            let mut failed = 0;
            for i in 0..n {
                let conjunct = self.invariant.get(i).expect("dense ids");
                if !out.holds[i] {
                    failed += 1;
                    if let Some((before, after)) = &out.counterexamples[i] {
                        counterexamples.push(CellCounterexample {
                            conjunct: i,
                            conjunct_name: conjunct.name().to_string(),
                            rule,
                            before: before.clone(),
                            after: after.clone(),
                        });
                    }
                }
                cells.push(CellResult {
                    conjunct: i,
                    conjunct_name: conjunct.name().to_string(),
                    rule: rule.name(),
                    checked: out.enabled,
                    holds: out.holds[i],
                });
            }
            per_rule.push(RuleSummary {
                rule: rule.name(),
                enabled_states: out.enabled,
                discharged: n - failed,
                failed,
                elapsed: out.elapsed,
            });
        }

        MatrixReport {
            conjuncts: n,
            rules: rule_ids.len(),
            universe: universe.len(),
            hypothesis_states: hypothesis.len(),
            cells,
            counterexamples,
            per_rule,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::default_program_grid;
    use cxl_core::instr::Instruction;
    use cxl_core::ProtocolConfig;

    fn small_universe(rules: &Ruleset) -> Universe {
        let grid = vec![(vec![Instruction::Store(42)], vec![Instruction::Load])];
        Universe::reachable(rules, &grid)
    }

    #[test]
    fn dimensions_match_invariant_and_rules() {
        let cfg = ProtocolConfig::strict();
        let m = ObligationMatrix::new(Invariant::for_config(&cfg), Ruleset::new(cfg));
        let (n, mm) = m.dimensions();
        assert!(n > 50);
        assert_eq!(mm, cxl_core::Shape::ALL.len() * 2);
    }

    #[test]
    fn full_invariant_is_inductive_over_reachable_universe() {
        let cfg = ProtocolConfig::strict();
        let rules = Ruleset::new(cfg);
        let universe = small_universe(&rules);
        let m = ObligationMatrix::new(Invariant::for_config(&cfg), rules);
        let report = m.discharge(&universe, 1);
        assert!(
            report.inductive(),
            "failed cells: {:?}",
            report
                .cells
                .iter()
                .filter(|c| !c.holds)
                .map(|c| format!("{}×{}", c.conjunct_name, c.rule))
                .collect::<Vec<_>>()
        );
        assert_eq!(report.total_cells(), report.cells.len());
        assert_eq!(report.hypothesis_states, universe.len());
    }

    #[test]
    fn parallel_discharge_matches_sequential() {
        let cfg = ProtocolConfig::strict();
        let rules = Ruleset::new(cfg);
        let universe = small_universe(&rules);
        let m = ObligationMatrix::new(Invariant::for_config(&cfg), rules);
        let seq = m.discharge(&universe, 1);
        let par = m.discharge(&universe, 4);
        assert_eq!(seq.discharged(), par.discharged());
        assert_eq!(seq.failed(), par.failed());
        let seq_verdicts: Vec<bool> = seq.cells.iter().map(|c| c.holds).collect();
        let par_verdicts: Vec<bool> = par.cells.iter().map(|c| c.holds).collect();
        assert_eq!(seq_verdicts, par_verdicts);
    }

    #[test]
    fn swmr_alone_is_not_inductive_over_a_random_universe() {
        // Paper §6: "Unfortunately SWMR is not inductive". Random states
        // satisfying SWMR alone can step to non-SWMR states.
        let cfg = ProtocolConfig::strict();
        let rules = Ruleset::new(cfg);
        let universe = Universe::reachable(
            &rules,
            &[(vec![Instruction::Store(1)], vec![])],
        )
        .with_random(3000, 42);
        let m = ObligationMatrix::new(Invariant::swmr_only(), rules);
        let report = m.discharge(&universe, 2);
        assert!(
            !report.inductive(),
            "SWMR alone must fail inductiveness over a random universe"
        );
        assert!(!report.counterexamples.is_empty());
        // And the counterexamples are genuine: before satisfies SWMR,
        // after does not.
        for cx in &report.counterexamples {
            assert!(cxl_core::swmr(&cx.before));
            assert!(!cxl_core::swmr(&cx.after));
        }
    }

    #[test]
    fn default_grid_builds_a_substantial_universe() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let u = Universe::reachable(&rules, &default_program_grid());
        assert!(u.len() > 1000, "got {}", u.len());
    }
}
