//! State universes for obligation discharge.
//!
//! A proof obligation `inv(Σ) ∧ rule_j(Σ, Σ′) ⟹ inv_i(Σ′)` (paper
//! Figure 1) quantifies over all states. The Isabelle proof discharges it
//! symbolically; this reproduction checks it over two universes:
//!
//! - the **exact reachable universe**: every state reachable from a grid
//!   of bounded initial configurations (computed by `cxl-mc`) — over this
//!   universe the check is *exhaustive*, the reproduction's substitute for
//!   the theorem;
//! - a **randomised universe** of synthesised states, which probes
//!   inductiveness *beyond* the reachable set, playing the role of
//!   sledgehammer's counterexample search: a conjunct set that is not
//!   actually inductive fails here, telling the developer a strengthening
//!   conjunct is missing (exactly the iteration loop of paper §7.1).

use cxl_core::instr::Instruction;
use cxl_core::{
    Channel, D2HReq, D2HReqType, D2HRsp, D2HRspType, DBufferSlot, DState, DataMsg, FpIndex,
    H2DReq, H2DReqType, H2DRsp, H2DRspType, HState, Invariant, Ruleset, SystemState, Topology,
};
use cxl_mc::ModelChecker;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The default grid of initial configurations used to build the reachable
/// universe (a superset of the litmus scenarios of paper §5.1).
#[must_use]
pub fn default_program_grid() -> Vec<(Vec<Instruction>, Vec<Instruction>)> {
    use Instruction::*;
    vec![
        (vec![Store(42)], vec![Load]),
        (vec![Load, Store(8)], vec![Store(9), Evict]),
        (vec![Evict, Evict], vec![Load, Load]),
        (vec![Store(10), Store(11)], vec![Store(20), Evict]),
        (vec![Load, Evict], vec![Store(12), Load]),
        (vec![Load, Store(13), Evict], vec![Evict]),
    ]
}

/// A state universe with provenance counts.
#[derive(Clone, Debug)]
pub struct Universe {
    /// The states (deduplicated).
    pub states: Vec<Arc<SystemState>>,
    /// How many came from exhaustive reachability.
    pub reachable: usize,
    /// How many were randomly synthesised.
    pub random: usize,
    /// The topology every state of this universe inhabits — recorded
    /// from the rule set at construction so [`Universe::with_random`]
    /// synthesises states of the right width.
    topology: Topology,
    /// Fingerprint index over `states`, carried so extensions
    /// ([`Universe::with_random`]) never re-hash what is already
    /// deduplicated.
    index: FpIndex,
}

impl Universe {
    /// Build the exact reachable universe for `rules` over a program grid.
    ///
    /// Cross-scenario dedup uses the same fingerprint index as the model
    /// checker ([`cxl_core::FpIndex`]): each state is hashed once, and a
    /// dedup probe is a u64 lookup instead of a full-state re-hash.
    #[must_use]
    pub fn reachable(rules: &Ruleset, grid: &[(Vec<Instruction>, Vec<Instruction>)]) -> Self {
        Self::reachable_with_options(rules, grid, cxl_mc::CheckOptions::default())
    }

    /// [`Self::reachable`] under explicit exploration options — e.g. a
    /// thread count, which expands each scenario's wide levels on the
    /// model checker's scoped workers.
    ///
    /// Initial states are built for the rule set's own device count:
    /// devices beyond the two programmed ones start idle, so the
    /// two-device grids drive N-device universes unchanged.
    #[must_use]
    pub fn reachable_with_options(
        rules: &Ruleset,
        grid: &[(Vec<Instruction>, Vec<Instruction>)],
        opts: cxl_mc::CheckOptions,
    ) -> Self {
        let programs: Vec<Vec<Vec<Instruction>>> =
            grid.iter().map(|(p1, p2)| vec![p1.clone(), p2.clone()]).collect();
        Self::reachable_programs(rules, &programs, opts)
    }

    /// The exact reachable universe over a grid of per-device program
    /// assignments — the fully general N-device entry point. Each scenario
    /// lists up to `rules.device_count()` programs (devices beyond the
    /// list idle).
    #[must_use]
    pub fn reachable_programs(
        rules: &Ruleset,
        grid: &[Vec<Vec<Instruction>>],
        opts: cxl_mc::CheckOptions,
    ) -> Self {
        let n = rules.device_count();
        let mc = ModelChecker::with_options(rules.clone(), opts);
        let mut states: Vec<Arc<SystemState>> = Vec::new();
        let mut index = FpIndex::new();
        for progs in grid {
            let init = SystemState::initial_n(
                n,
                progs.iter().cloned().map(Into::into).collect(),
            );
            for st in mc.reachable(&init) {
                let fp = st.fingerprint();
                let candidate = u32::try_from(states.len()).expect("universe fits u32");
                if index.insert(fp, candidate, |id| *states[id as usize] == *st).is_none() {
                    states.push(st);
                }
            }
        }
        let reachable = states.len();
        Universe { states, reachable, random: 0, topology: rules.topology(), index }
    }

    /// The topology of this universe's states.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Extend the universe with `n` randomly synthesised states of the
    /// universe's own topology (seeded, so runs are reproducible). Dedup
    /// continues on the fingerprint index built during
    /// [`Universe::reachable`] — no state is hashed twice.
    #[must_use]
    pub fn with_random(mut self, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut added = 0;
        // Bound attempts so a pathological configuration cannot loop.
        let mut attempts = 0usize;
        while added < n && attempts < n * 20 {
            attempts += 1;
            let st = Arc::new(random_state_n(&mut rng, self.topology.device_count()));
            let fp = st.fingerprint();
            let candidate = u32::try_from(self.states.len()).expect("universe fits u32");
            let states = &self.states;
            if self.index.insert(fp, candidate, |id| *states[id as usize] == *st).is_none() {
                self.states.push(st);
                added += 1;
            }
        }
        self.random += added;
        self
    }

    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Is the universe empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The subset satisfying `inv` — the hypothesis side of every
    /// obligation.
    #[must_use]
    pub fn satisfying(&self, inv: &Invariant) -> Vec<Arc<SystemState>> {
        self.states.iter().filter(|s| inv.holds(s)).cloned().collect()
    }
}

fn random_channel<T, F: FnMut(&mut StdRng) -> T>(
    rng: &mut StdRng,
    mut gen: F,
) -> Channel<T> {
    // Singleton channels dominate reachable states (a §6 conjunct), so
    // bias towards 0–1 messages with an occasional 2 to probe the
    // singleton conjuncts themselves.
    let len = *[0usize, 0, 0, 1, 1, 1, 1, 2].choose(rng).unwrap_or(&0);
    (0..len).map(|_| gen(rng)).collect()
}

/// Synthesise a random (not necessarily reachable) two-device state —
/// the paper's topology, kept as the stable sampling stream the
/// differential suite probes with.
#[must_use]
pub fn random_state(rng: &mut StdRng) -> SystemState {
    random_state_n(rng, 2)
}

/// Synthesise a random (not necessarily reachable) `n`-device state —
/// the N-device generalisation of the randomised universe (ROADMAP open
/// item), quantifying the same templates over a [`Topology`] instead of
/// the hardcoded device pair.
///
/// Half the states are *plausible*: a consistent settled configuration
/// (host/directory agreement, matching values) optionally extended with an
/// in-flight transaction template — these mostly satisfy the invariant and
/// populate the hypothesis side of obligations. The other half are *wild*:
/// components drawn independently from their full domains — these mostly
/// violate the invariant (vacuous hypotheses) but probe conjuncts that
/// plausible states cannot, e.g. SWMR-holding-but-unreachable states for
/// the "SWMR alone is not inductive" demonstration (paper §6).
///
/// # Panics
/// Panics if `n` is outside `2..=Topology::MAX_DEVICES`.
#[must_use]
pub fn random_state_n(rng: &mut StdRng, n: usize) -> SystemState {
    let topology = Topology::new(n);
    if rng.gen_bool(0.5) {
        plausible_state(rng, topology)
    } else {
        wild_state(rng, topology)
    }
}

/// A consistent settled configuration, optionally with one in-flight
/// transaction.
fn plausible_state(rng: &mut StdRng, topology: Topology) -> SystemState {
    let n = topology.device_count();
    let mut s = SystemState::initial_n(n, Vec::new());
    s.counter = rng.gen_range(1..6u64);
    let counter = s.counter;
    let tid = |rng: &mut StdRng| rng.gen_range(0..counter);
    let val = |rng: &mut StdRng| rng.gen_range(-1..50i64);

    s.host.val = val(rng);
    // Pick a settled directory configuration.
    match rng.gen_range(0..4u8) {
        0 => {
            s.host.state = HState::I;
        }
        1 => {
            s.host.state = HState::S;
            // At least one sharer (a uniformly chosen primary); every
            // other device joins the sharer set with its own coin flip.
            let primary = rng.gen_range(0..n);
            for i in 0..n {
                if i == primary || rng.gen_bool(0.5) {
                    s.devs[i].cache = cxl_core::DCache::new(s.host.val, DState::S);
                }
            }
        }
        _ => {
            s.host.state = HState::M;
            let owner = rng.gen_range(0..n);
            s.devs[owner].cache = cxl_core::DCache::new(val(rng), DState::M);
        }
    }
    // Random residual values on invalid lines and random programs.
    for d in topology.devices() {
        let dev = s.dev_mut(d);
        if dev.cache.state == DState::I {
            dev.cache.val = val(rng);
        }
        let prog_len = rng.gen_range(0..3usize);
        dev.prog = (0..prog_len)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => Instruction::Load,
                1 => Instruction::Store(val(rng)),
                _ => Instruction::Evict,
            })
            .collect();
    }
    // Optionally put one transaction in flight via a template.
    if rng.gen_bool(0.7) {
        let d = topology.device(rng.gen_range(0..n));
        let t = tid(rng);
        let dev_state = s.dev(d).cache.state;
        match (dev_state, rng.gen_range(0..3u8)) {
            (DState::I, 0) => {
                let dev = s.dev_mut(d);
                dev.cache.state = DState::ISAD;
                dev.prog.insert(0, Instruction::Load);
                dev.d2h_req.push(D2HReq::new(D2HReqType::RdShared, t));
            }
            (DState::I, _) => {
                let dev = s.dev_mut(d);
                dev.cache.state = DState::IMAD;
                dev.prog.insert(0, Instruction::Store(rng.gen_range(-1..50)));
                dev.d2h_req.push(D2HReq::new(D2HReqType::RdOwn, t));
            }
            (DState::S, _) => {
                let dev = s.dev_mut(d);
                dev.cache.state = DState::SIA;
                dev.prog.insert(0, Instruction::Evict);
                dev.d2h_req.push(D2HReq::new(D2HReqType::CleanEvict, t));
            }
            (DState::M, 0) => {
                let dev = s.dev_mut(d);
                dev.cache.state = DState::MIA;
                dev.prog.insert(0, Instruction::Evict);
                dev.d2h_req.push(D2HReq::new(D2HReqType::DirtyEvict, t));
            }
            _ => {}
        }
    }
    s
}

/// Fully independent component sampling.
fn wild_state(rng: &mut StdRng, topology: Topology) -> SystemState {
    let counter = rng.gen_range(0..6u64);
    let tid = |rng: &mut StdRng| rng.gen_range(0..counter.max(1));
    let val = |rng: &mut StdRng| rng.gen_range(-1..50i64);

    let mut s = SystemState::initial_n(topology.device_count(), Vec::new());
    s.counter = counter;
    s.host.val = val(rng);
    s.host.state = *HState::ALL.choose(rng).expect("non-empty");

    for d in topology.devices() {
        let dstate = *DState::ALL.choose(rng).expect("non-empty");
        let prog_len = rng.gen_range(0..3usize);
        let prog: Vec<Instruction> = (0..prog_len)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => Instruction::Load,
                1 => Instruction::Store(val(rng)),
                _ => Instruction::Evict,
            })
            .collect();
        // Bias the program head towards the instruction the transient
        // state needs (the program-agreement conjuncts are otherwise
        // near-impossible to satisfy by chance).
        let mut prog: cxl_core::Program = prog.into();
        let needed = match dstate {
            DState::ISAD | DState::ISD | DState::ISA | DState::ISDI => Some(Instruction::Load),
            DState::IMAD | DState::IMD | DState::IMA | DState::SMAD | DState::SMD
            | DState::SMA => Some(Instruction::Store(val(rng))),
            DState::MIA | DState::SIA | DState::SIAC | DState::IIA => Some(Instruction::Evict),
            _ => None,
        };
        if let Some(instr) = needed {
            prog.insert(0, instr);
        }

        let dev = s.dev_mut(d);
        dev.cache.val = val(rng);
        dev.cache.state = dstate;
        dev.prog = prog;
        dev.d2h_req = random_channel(rng, |rng| {
            D2HReq::new(
                *D2HReqType::ALL.choose(rng).expect("non-empty"),
                tid(rng),
            )
        });
        dev.d2h_rsp = random_channel(rng, |rng| {
            D2HRsp::new(
                *[D2HRspType::RspIHitSE, D2HRspType::RspIFwdM, D2HRspType::RspSFwdM]
                    .choose(rng)
                    .expect("non-empty"),
                tid(rng),
            )
        });
        dev.d2h_data =
            random_channel(rng, |rng| {
                let t = tid(rng);
                let v = val(rng);
                if rng.gen_bool(0.2) {
                    DataMsg::bogus(t, v)
                } else {
                    DataMsg::new(t, v)
                }
            });
        dev.h2d_req = random_channel(rng, |rng| {
            H2DReq::new(*H2DReqType::ALL.choose(rng).expect("non-empty"), tid(rng))
        });
        dev.h2d_rsp = random_channel(rng, |rng| {
            let ty = *H2DRspType::ALL.choose(rng).expect("non-empty");
            let granted = match ty {
                H2DRspType::GO => *[DState::S, DState::M].choose(rng).expect("non-empty"),
                _ => DState::I,
            };
            H2DRsp::new(ty, granted, tid(rng))
        });
        dev.h2d_data = random_channel(rng, |rng| DataMsg::new(tid(rng), val(rng)));
        dev.buffer = match rng.gen_range(0..3u8) {
            0 => DBufferSlot::Empty,
            1 => DBufferSlot::Rsp(H2DRsp::new(H2DRspType::GO, DState::S, tid(rng))),
            _ => DBufferSlot::Req(H2DReq::new(H2DReqType::SnpInv, tid(rng))),
        };
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_core::ProtocolConfig;

    #[test]
    fn reachable_universe_is_deduplicated_and_nonempty() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let grid = vec![(vec![Instruction::Load], vec![Instruction::Store(1)])];
        let u = Universe::reachable(&rules, &grid);
        assert!(u.len() > 10);
        assert_eq!(u.reachable, u.len());
        let set: std::collections::HashSet<_> = u.states.iter().collect();
        assert_eq!(set.len(), u.len(), "no duplicates");
    }

    #[test]
    fn random_states_are_reproducible() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            assert_eq!(random_state(&mut a), random_state(&mut b));
        }
    }

    #[test]
    fn with_random_extends_and_counts() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let grid = vec![(vec![Instruction::Load], vec![])];
        let u = Universe::reachable(&rules, &grid).with_random(100, 3);
        assert_eq!(u.random, 100);
        assert_eq!(u.len(), u.reachable + 100);
    }

    #[test]
    fn some_random_states_satisfy_the_invariant() {
        // The generator's biasing must make the hypothesis side of
        // obligations non-vacuous over the random universe.
        let inv = Invariant::for_config(&ProtocolConfig::strict());
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..2000).filter(|_| inv.holds(&random_state(&mut rng))).count();
        assert!(hits > 200, "expected a usable fraction of invariant-satisfying states, got {hits}");
    }

    #[test]
    fn n_device_universe_synthesises_matching_width() {
        // A 3-device rule set yields a universe whose random extension
        // produces 3-device states, deduplicated into the same index.
        let rules = Ruleset::with_devices(ProtocolConfig::strict(), 3);
        let grid = vec![(vec![Instruction::Store(1)], vec![Instruction::Load])];
        let u = Universe::reachable(&rules, &grid).with_random(200, 5);
        assert_eq!(u.topology().device_count(), 3);
        assert_eq!(u.random, 200);
        assert!(u.states.iter().all(|s| s.device_count() == 3));
        let set: std::collections::HashSet<_> = u.states.iter().collect();
        assert_eq!(set.len(), u.len(), "no duplicates across provenances");
    }

    #[test]
    fn n_device_random_states_probe_wide_invariants() {
        // The plausible half of the 4-device generator must still land a
        // usable fraction inside the 4-device invariant.
        let inv = Invariant::for_devices(&ProtocolConfig::strict(), 4);
        let mut rng = StdRng::seed_from_u64(13);
        let hits = (0..2000).filter(|_| inv.holds(&random_state_n(&mut rng, 4))).count();
        assert!(hits > 150, "expected invariant-satisfying 4-device states, got {hits}");
    }

    #[test]
    fn satisfying_filters_by_invariant() {
        let rules = Ruleset::new(ProtocolConfig::strict());
        let grid = vec![(vec![Instruction::Store(1)], vec![Instruction::Load])];
        let u = Universe::reachable(&rules, &grid);
        let inv = Invariant::for_config(&ProtocolConfig::strict());
        // Every reachable state satisfies the invariant (verified by the
        // mc sweep), so filtering is the identity here.
        assert_eq!(u.satisfying(&inv).len(), u.len());
    }
}
