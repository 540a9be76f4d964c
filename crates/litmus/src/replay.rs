//! Deterministic replay of rule schedules — and de-permutation of the
//! canonical-coordinate counterexamples the reduced checker reports.
//!
//! The paper's Tables 1–3 are *specific* transition sequences through the
//! nondeterministic model. To regenerate them exactly we replay a named
//! schedule of rules, failing loudly if any step is disabled (which would
//! mean the reconstruction diverged from the paper's flow).
//!
//! Under symmetry reduction the checker's traces need two more tools:
//!
//! - [`replay_trace`] validates a trace whose steps carry expected
//!   states, accepting any *peer variant* of each step's rule (the
//!   equivariant relation of [`Ruleset::fire_variants`] the reduced
//!   checker explores — a collection rule may have fired for a peer
//!   other than its first firing one);
//! - [`decanonicalize_trace`] rewrites a trace whose states are class
//!   representatives back into **original device and value
//!   coordinates**: starting from the stored (uncanonicalized) initial
//!   state it re-finds, step by step, a concrete firing whose successor
//!   lies in the stored step's joint orbit. The result replays through
//!   [`replay_trace`] and ends in a state that violates exactly what
//!   the canonical trace violated (the checked properties are
//!   permutation- and value-bijection-invariant).

use cxl_core::{RuleId, Ruleset, SystemState};
use cxl_mc::{Step, Trace};
use cxl_reduce::Reduction;
use std::fmt;

/// Error from [`replay`]: a scheduled rule was not enabled.
#[derive(Debug, Clone)]
pub struct ReplayError {
    /// Index of the failing step in the schedule.
    pub step: usize,
    /// The rule that was scheduled.
    pub rule: RuleId,
    /// The state in which it was disabled.
    pub state: Box<SystemState>,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay step {} failed: rule {} is not enabled in\n{}",
            self.step,
            self.rule.name(),
            self.state
        )
    }
}

impl std::error::Error for ReplayError {}

/// Fire `schedule` in order from `initial`, producing the full trace.
///
/// # Errors
/// Returns [`ReplayError`] if any scheduled rule is disabled in the state
/// it is scheduled for.
pub fn replay(
    rules: &Ruleset,
    initial: &SystemState,
    schedule: &[RuleId],
) -> Result<Trace, ReplayError> {
    let mut steps = Vec::with_capacity(schedule.len());
    let mut cur = initial.clone();
    for (i, &rule) in schedule.iter().enumerate() {
        match rules.try_fire(rule, &cur) {
            Some(next) => {
                steps.push(Step { rule, state: next.clone() });
                cur = next;
            }
            None => {
                return Err(ReplayError { step: i, rule, state: Box::new(cur) });
            }
        }
    }
    Ok(Trace { initial: initial.clone(), steps })
}

/// Validate `trace` step by step against the rule engine: each step's
/// rule must have a firing **variant** in the current state whose
/// successor equals the step's recorded state. Plain (unreduced) traces
/// always validate this way — the unreduced search's lowest-peer
/// successor is the first firing variant — and so do traces over the
/// equivariant relation the symmetry-reducing checker explores.
///
/// # Errors
/// Returns [`ReplayError`] at the first step with no matching variant.
pub fn replay_trace(rules: &Ruleset, trace: &Trace) -> Result<(), ReplayError> {
    let mut cur = trace.initial.clone();
    let mut scratch = SystemState::initial_n(cur.device_count(), Vec::new());
    for (i, step) in trace.steps.iter().enumerate() {
        let mut matched = false;
        rules.fire_variants(step.rule, &cur, &mut scratch, |succ| {
            matched |= succ == &step.state;
        });
        if !matched {
            return Err(ReplayError { step: i, rule: step.rule, state: Box::new(cur) });
        }
        cur.clone_from(&step.state);
    }
    Ok(())
}

/// Rewrite a canonical-coordinate counterexample into original device
/// **and value** coordinates under `reduction`'s engines.
///
/// The reduced checker stores class *representatives*: each stored step
/// records the rule fired from the decoded representative and the
/// canonicalized successor (whose device arrangement may be permuted
/// and whose free values — program operands included — may be
/// renumbered to canonical tokens). This walks the trace in concrete
/// coordinates — the checker stores the root uncanonicalized, so the
/// trace's initial state is the caller's own — and at every step
/// searches the enabled variants of the step's *shape* (any device
/// instance: the acting device index may be permuted) for a successor
/// whose canonical encoding matches the stored state. Equivariance of
/// the variant relation under both engines guarantees a match exists;
/// the returned trace is a genuine run of the model and validates via
/// [`replay_trace`].
///
/// # Errors
/// Returns [`ReplayError`] if a step cannot be matched — which would
/// mean the trace was not produced by a reducer over this rule set and
/// subgroup.
pub fn decanonicalize_trace(
    rules: &Ruleset,
    reduction: &Reduction,
    trace: &Trace,
) -> Result<Trace, ReplayError> {
    let mut cur = trace.initial.clone();
    let mut scratch = SystemState::initial_n(cur.device_count(), Vec::new());
    let mut steps = Vec::with_capacity(trace.steps.len());
    // Reused encoding buffers: one canonical target per step, one
    // canonical candidate per enabled variant, one canonicalizer
    // assembly scratch — the walk allocates nothing per candidate.
    let (mut target, mut candidate, mut enc_scratch) = (Vec::new(), Vec::new(), Vec::new());
    for (i, step) in trace.steps.iter().enumerate() {
        reduction.canonical_encoding_into(&step.state, &mut target, &mut enc_scratch);
        let mut found: Option<(RuleId, SystemState)> = None;
        for dev in cur.device_ids() {
            let id = RuleId::new(step.rule.shape, dev);
            rules.fire_variants(id, &cur, &mut scratch, |succ| {
                if found.is_none() {
                    reduction.canonical_encoding_into(succ, &mut candidate, &mut enc_scratch);
                    if candidate == target {
                        found = Some((id, succ.clone()));
                    }
                }
            });
            if found.is_some() {
                break;
            }
        }
        match found {
            Some((id, succ)) => {
                steps.push(Step { rule: id, state: succ.clone() });
                cur = succ;
            }
            None => {
                return Err(ReplayError { step: i, rule: step.rule, state: Box::new(cur) });
            }
        }
    }
    Ok(Trace { initial: trace.initial.clone(), steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::instr::programs;
    use cxl_core::{DeviceId, ProtocolConfig, Shape};

    #[test]
    fn replay_follows_the_schedule() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let init = SystemState::initial(programs::load(), vec![]);
        let schedule = [
            RuleId::new(Shape::InvalidLoad, DeviceId::D1),
            RuleId::new(Shape::HostInvalidRdShared, DeviceId::D1),
            RuleId::new(Shape::IsadGo, DeviceId::D1),
            RuleId::new(Shape::IsdData, DeviceId::D1),
        ];
        let trace = replay(&rules, &init, &schedule).expect("schedule is enabled");
        assert_eq!(trace.len(), 4);
        assert!(trace.last_state().is_quiescent());
    }

    #[test]
    fn replay_trace_accepts_unreduced_checker_traces() {
        use cxl_mc::{ModelChecker, SwmrProperty};
        let cfg = ProtocolConfig::relaxed(cxl_core::Relaxation::SnoopPushesGo);
        let init = SystemState::initial(programs::store(42), programs::load());
        let report = ModelChecker::new(Ruleset::new(cfg)).check(&init, &[&SwmrProperty]);
        let trace = &report.violations[0].trace;
        replay_trace(&Ruleset::new(cfg), trace).expect("unreduced trace validates");

        // A corrupted step is rejected.
        let mut bad = trace.clone();
        bad.steps[0].state.counter += 77;
        let err = replay_trace(&Ruleset::new(cfg), &bad).unwrap_err();
        assert_eq!(err.step, 0);
    }

    #[test]
    fn reduced_counterexamples_decanonicalize_and_replay() {
        use cxl_mc::{CheckOptions, ModelChecker, SwmrProperty};
        use cxl_reduce::ReductionConfig;
        use std::sync::Arc;

        // A fully symmetric 3-device workload under the buggy relaxation:
        // the reduced checker must find the Table 3 violation, and its
        // canonical trace must de-permute into a replayable concrete run
        // ending in an SWMR violation.
        let cfg = ProtocolConfig::relaxed(cxl_core::Relaxation::SnoopPushesGo);
        let init = SystemState::initial_n(
            3,
            vec![
                vec![cxl_core::Instruction::Store(42), cxl_core::Instruction::Load].into(),
                vec![cxl_core::Instruction::Store(42), cxl_core::Instruction::Load].into(),
                vec![cxl_core::Instruction::Store(42), cxl_core::Instruction::Load].into(),
            ],
        );
        let rules = Ruleset::with_devices(cfg, 3);
        let red = Arc::new(Reduction::new(&rules, &init, ReductionConfig::default()));
        assert!(red.group().order() == 6, "fully symmetric workload");
        let opts = CheckOptions {
            reduction: Some(Arc::clone(&red) as Arc<dyn cxl_mc::Reducer>),
            ..CheckOptions::default()
        };
        let report = ModelChecker::with_options(Ruleset::with_devices(cfg, 3), opts)
            .check(&init, &[&SwmrProperty]);
        assert!(!report.violations.is_empty(), "violation reachable under reduction");

        let canonical = &report.violations[0].trace;
        let concrete = decanonicalize_trace(&Ruleset::with_devices(cfg, 3), &red, canonical)
            .expect("canonical trace de-permutes");
        assert_eq!(concrete.len(), canonical.len());
        replay_trace(&Ruleset::with_devices(cfg, 3), &concrete)
            .expect("de-canonicalized trace replays");
        assert!(
            !cxl_core::swmr(concrete.last_state()),
            "the concrete final state still violates SWMR"
        );
        // Step-by-step, concrete and canonical states are orbit-equal.
        for (c, k) in concrete.steps.iter().zip(&canonical.steps) {
            assert_eq!(
                red.canonical_encoding(&c.state),
                red.canonical_encoding(&k.state),
                "orbit drift during de-canonicalization"
            );
        }
    }

    #[test]
    fn replay_reports_disabled_steps() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let init = SystemState::initial(programs::load(), vec![]);
        let err = replay(&rules, &init, &[RuleId::new(Shape::ModifiedStore, DeviceId::D1)])
            .unwrap_err();
        assert_eq!(err.step, 0);
        assert!(err.to_string().contains("ModifiedStore1"));
    }
}
