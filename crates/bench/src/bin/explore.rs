//! `explore` — an ad-hoc scenario explorer for the CXL.cache model.
//!
//! Give each device a program (compact syntax: `L` load, `S<val>` store,
//! `E` evict, comma-separated), pick a configuration and a device count,
//! and the tool exhaustively explores every interleaving, reporting
//! coherence, deadlocks, state-space size, and (on request) a sample trace
//! table.
//!
//! ```text
//! cargo run -p cxl-bench --bin explore -- --p1 S42,E --p2 L,L \
//!     [--devices N] [--p3 … --p8 …] \
//!     [--relax snoop-pushes-go|go-tailgate|one-snoop|naive-tracking] \
//!     [--full] [--trace] [--threads N] [--shards auto|N] [--firings] \
//!     [--expect-clean] [--mem-budget-mb N] [--time-budget-ms N] \
//!     [--checkpoint-dir DIR] [--checkpoint-every-ms N] [--resume] \
//!     [--delta-keyframe K] [--spill-dir DIR] [--spill-budget-mb N] \
//!     [--symmetry auto|off] [--data-symmetry auto|off] \
//!     [--canon auto|refine|brute] [--por on|wide|off] \
//!     [--progress auto|off|plain] [--metrics-out FILE] [--help]
//! ```
//!
//! Output is stream-split: the machine-consumable *result* — the report,
//! rule firings, and any counterexample/trace tables — goes to
//! **stdout**; everything diagnostic — the startup banner, truncation
//! NOTEs, the throughput line, the live progress heartbeat, and the
//! flight-recorder dump — goes to **stderr**. `explore … 2>/dev/null`
//! yields exactly the report.
//!
//! `--progress` controls the stderr heartbeat (one line of states/sec,
//! frontier size, dedup rate, and footprint per BFS level): `auto` (the
//! default) draws in place only when stderr is a terminal, `plain`
//! prints a newline-terminated line per level regardless (the CI/log
//! mode), `off` silences it. `--metrics-out FILE` additionally streams
//! schema-versioned JSONL — one `level` record per BFS level, `event`
//! records for flight-recorder events, and a final `summary` record
//! whose totals equal the printed report. Either flag attaches the
//! telemetry recorder; without both, the checker runs its zero-overhead
//! path and results are bit-identical. When a run ends with violations
//! or quarantined states, the last flight-recorder events (level
//! commits, checkpoint writes, degradations, spill seals/faults,
//! quarantines, violations) are replayed to stderr for post-mortem
//! context.
//!
//! `--expect-clean` is the CI smoke-check mode, with distinct exit codes
//! for distinct failure classes: **1** when the exploration finds a
//! violation or deadlock (a real coherence finding), **2** when coverage
//! was incomplete — truncated by a state/memory/time budget or holding
//! quarantined poison states — and **64** for usage errors. Exit 0 means
//! the full space was explored and is clean.
//!
//! `--checkpoint-dir` enables the resilience layer: the search state is
//! serialized atomically to `DIR/checkpoint.cxlckpt` at BFS level
//! boundaries (at most once per `--checkpoint-every-ms`, default one
//! minute; 0 checkpoints every level) and when the run ends truncated
//! or with findings — a clean completed run skips that final write (its
//! result needs no crash insurance).
//! `--resume` picks the campaign back up from that file — verdict, state
//! count, and counterexample traces come out exactly as an uninterrupted
//! run's, and budgets (`--mem-budget-mb`, `--time-budget-ms`) may be
//! raised across the boundary. The same program/config/reduction flags
//! must be passed again; a mismatched or corrupted checkpoint is refused.
//!
//! `--time-budget-ms` arms a wall-clock watchdog checked at level
//! boundaries: on expiry the run stops with a valid partial report
//! (marked "time budget exhausted") and, with `--checkpoint-dir`, a
//! resumable final checkpoint.
//!
//! `--symmetry auto` (the default) detects the device-permutation
//! subgroup fixing the initial state and explores one representative per
//! orbit — symmetric grids (identical programs on several devices)
//! shrink toward 1/N! of their raw size, with identical verdicts; `off`
//! restores the unreduced search. `--data-symmetry auto` (the default)
//! additionally canonicalizes *value* assignments — store-heavy grids
//! whose programs differ but whose value spaces are interchangeable
//! collapse multiplicatively; `off` disables the value engine. `--por
//! on` collapses interleavings around statically-safe local steps;
//! `--por wide` widens that to snoop-free local hits, GO/data
//! completion diamonds, and unique host-drain steps (default `off`).
//! When a reduced run finds a violation, the printed counterexample is
//! de-permuted (device *and* value coordinates) back into the user's
//! frame before rendering.
//!
//! `--canon` picks the orbit canonicalizer behind the symmetry engines:
//! `auto` (the default) uses the partition-refinement labeller whenever
//! the detected group is a full product of per-orbit symmetric groups —
//! polynomial per successor, which is what makes N ≥ 6 fully-symmetric
//! grids tractable — and otherwise enumerates admissible arrangements
//! brute-force up to a cap. `refine` and `brute` force one engine; a
//! coupled group over the cap falls back to capped refine over group
//! byte-classes (sound, coarser quotient) with a stderr NOTE.
//!
//! `--mem-budget-mb` caps the packed state store: when a big grid (an
//! N = 4 sweep with long programs, say) outgrows the budget, exploration
//! stops with a clean truncation report — partial coverage statistics and
//! an explicit "memory budget exhausted" note — instead of OOMing.
//!
//! `--delta-keyframe K` stores most states as parent-deltas (only the
//! device segments that changed), with a full keyframe at least every K
//! ancestors to bound decode chains; K = 16 is a good default, 0 (the
//! default) disables delta encoding. `--spill-dir DIR` lets completed
//! BFS levels be sealed into checksummed extent files under DIR and
//! dropped from RAM, faulting back in only when an old state is decoded
//! (traces, dumps, checkpoints); `--spill-budget-mb N` sets the resident
//! payload watermark that triggers a proactive spill (default 32 MiB,
//! 0 spills every completed level). Together they let a grid that would
//! truncate under `--mem-budget-mb` run to completion with the same
//! verdict, states, and traces, bit for bit.
//!
//! `--devices` defaults to 2, or to the highest `--p<i>` given; devices
//! without a program idle (an idle third device is exactly the paper's
//! scenarios embedded in a wider topology).
//!
//! `--shards auto` (the default) partitions the visited set into one
//! fingerprint-routed, worker-owned shard per thread — dedup and
//! insertion run lock-free inside the owning shard, with results
//! bit-identical to a single-threaded run. `--shards N` forces a shard
//! count (N > 1 routes successors over N shards even at `--threads 1`,
//! which is how CI exercises the routed layout deterministically on one
//! core; one driver serves every thread and shard count). The report
//! prints the shard count, routed message total, and load imbalance
//! when more than one shard ran.
//!
//! Out-of-range input is refused with exit 64, never misread: a
//! `--threads` or `--shards` of 0, a `--mem-budget-mb` or
//! `--spill-budget-mb` whose byte count overflows, and any argument
//! `--help` does not list, a flag missing its value, or a flag given
//! twice.

use cxl_core::instr::Instruction;
use cxl_core::{
    DeviceId, Invariant, ProtocolConfig, Relaxation, Ruleset, SystemState, Topology,
};
use cxl_litmus::render::{Column, TransitionTable};
use cxl_mc::{InvariantProperty, ModelChecker, SwmrProperty};

fn parse_program(spec: &str) -> Result<Vec<Instruction>, String> {
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(|tok| {
            let tok = tok.trim();
            match tok.chars().next() {
                Some('L' | 'l') if tok.len() == 1 => Ok(Instruction::Load),
                Some('E' | 'e') if tok.len() == 1 => Ok(Instruction::Evict),
                Some('S' | 's') => tok[1..]
                    .parse::<i64>()
                    .map(Instruction::Store)
                    .map_err(|e| format!("bad store value in {tok:?}: {e}")),
                _ => Err(format!("unrecognised instruction {tok:?} (use L, S<val>, E)")),
            }
        })
        .collect()
}

fn parse_relaxation(name: &str) -> Result<Relaxation, String> {
    match name {
        "snoop-pushes-go" => Ok(Relaxation::SnoopPushesGo),
        "go-tailgate" => Ok(Relaxation::GoCannotTailgateSnoop),
        "one-snoop" => Ok(Relaxation::OneSnoopPerLine),
        "naive-tracking" => Ok(Relaxation::NaiveTransientTracking),
        other => Err(format!(
            "unknown relaxation {other:?} (snoop-pushes-go, go-tailgate, one-snoop, \
             naive-tracking)"
        )),
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// The flags [`USAGE`] lists that take a value, besides `--p1` … `--p8`.
const VALUED: [&str; 17] = [
    "--devices",
    "--relax",
    "--threads",
    "--shards",
    "--symmetry",
    "--data-symmetry",
    "--canon",
    "--por",
    "--mem-budget-mb",
    "--time-budget-ms",
    "--checkpoint-dir",
    "--checkpoint-every-ms",
    "--delta-keyframe",
    "--spill-dir",
    "--spill-budget-mb",
    "--progress",
    "--metrics-out",
];

/// The switches [`USAGE`] lists (`--help` is answered before any check).
const SWITCHES: [&str; 5] = ["--full", "--trace", "--resume", "--firings", "--expect-clean"];

/// Check argv against the flags [`USAGE`] lists. [`arg_value`] looks
/// flags up by name, so an unknown flag, a stray token, a flag with no
/// value or a repeated flag would otherwise be silently ignored.
fn check_args(args: &[String]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(flag) = rest.next() {
        let program = flag.strip_prefix("--p").and_then(|i| i.parse::<usize>().ok());
        let program = program.filter(|i| format!("--p{i}") == flag);
        if let Some(i) = program.filter(|i| !(1..=Topology::MAX_DEVICES).contains(i)) {
            let max = Topology::MAX_DEVICES;
            return Err(format!("--p{i} outside supported device range 1..={max}"));
        }
        let valued = program.is_some() || VALUED.contains(&flag);
        if !valued && !SWITCHES.contains(&flag) {
            return Err(format!("unknown argument {flag:?} (see --help)"));
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
        // A value that is itself a flag is a missing value, not a value.
        if valued && rest.next().is_none_or(|value| value.starts_with("--")) {
            return Err(format!("{flag} needs a value"));
        }
    }
    Ok(())
}

/// Parse `flag`'s value as a count of at least one (threads, shards).
fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    match value
        .parse::<usize>()
        .map_err(|e| format!("bad {flag}: {e}"))?
    {
        0 => Err(format!("bad {flag}: 0 (must be at least 1)")),
        n => Ok(n),
    }
}

/// Parse `flag`'s value as MiB and return it in bytes, refusing a size
/// whose byte count does not fit a `usize`.
fn parse_mib(flag: &str, value: &str) -> Result<usize, String> {
    let mb = value
        .parse::<usize>()
        .map_err(|e| format!("bad {flag}: {e}"))?;
    mb.checked_mul(1024 * 1024)
        .ok_or_else(|| format!("bad {flag}: {mb} MiB overflows a byte count"))
}

/// `--help` text. Kept in sync with the module docs above; the one-line
/// summaries here are the authoritative quick reference.
const USAGE: &str = "\
explore — exhaustive interleaving explorer for the CXL.cache model

USAGE:
    explore --p1 PROG [--p2 PROG … --p8 PROG] [OPTIONS]

PROGRAMS (compact syntax, comma-separated):
    L        load        S<val>   store <val>        E        evict

MODEL:
    --devices N            device count (default 2, or highest --p<i>)
    --full                 full protocol configuration (default strict)
    --relax NAME           snoop-pushes-go | go-tailgate | one-snoop |
                           naive-tracking

EXPLORATION:
    --threads N            worker threads (default: all cores)
    --shards auto|N        fingerprint-routed shards (default auto)
    --symmetry auto|off    device-permutation symmetry reduction
    --data-symmetry auto|off  value-symmetry reduction
    --canon auto|refine|brute  orbit canonicalizer (default auto: refine
                           labeller on orbit-product groups, else brute
                           up to a cap, else capped refine + stderr NOTE)
    --por on|wide|off      partial-order reduction (default off)
    --mem-budget-mb N      cap the packed state store
    --time-budget-ms N     wall-clock watchdog, checked at level bounds

RESILIENCE:
    --checkpoint-dir DIR   atomic checkpoints at level boundaries
    --checkpoint-every-ms N  min interval between periodic checkpoints
    --resume               continue from DIR's checkpoint
    --delta-keyframe K     parent-delta state encoding, keyframe every K
    --spill-dir DIR        seal cold levels into extent files under DIR
    --spill-budget-mb N    resident watermark for proactive spill

OBSERVABILITY (stderr; report stays on stdout):
    --progress auto|off|plain  live per-level heartbeat (default auto:
                           only when stderr is a terminal)
    --metrics-out FILE     stream schema-versioned JSONL metrics: one
                           'level' record per BFS level, 'event' records
                           from the flight recorder, one final 'summary'

OUTPUT & CI:
    --trace                print a sample execution table
    --firings              print per-rule firing counts
    --expect-clean         exit 1 on violation/deadlock, 2 on incomplete
                           coverage, 64 on usage error
    --help                 this text
";

/// Why the run failed, mapped to distinct exit codes so CI can tell a
/// genuine coherence finding from incomplete coverage from a bad
/// invocation.
enum Failure {
    /// Bad flags or an unusable checkpoint — exit 64.
    Usage(String),
    /// `--expect-clean` and the model produced a violation or deadlock —
    /// exit 1.
    Violation(String),
    /// `--expect-clean` and coverage was incomplete (truncated by a
    /// budget, or quarantined poison states) — exit 2.
    Incomplete(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let run = || -> Result<(), Failure> {
        check_args(&args)?;
        // One program per device: --p1 … --p8.
        let mut programs: Vec<Vec<Instruction>> = Vec::new();
        let mut highest_prog = 0usize;
        for i in 1..=Topology::MAX_DEVICES {
            let prog = parse_program(&arg_value(&args, &format!("--p{i}")).unwrap_or_default())?;
            if !prog.is_empty() {
                highest_prog = i;
            }
            programs.push(prog);
        }
        let devices = arg_value(&args, "--devices")
            .map(|v| v.parse::<usize>().map_err(|e| format!("bad --devices: {e}")))
            .transpose()?
            .unwrap_or_else(|| highest_prog.max(2));
        if !(2..=Topology::MAX_DEVICES).contains(&devices) {
            return Err(format!(
                "--devices {devices} outside supported range 2..={}",
                Topology::MAX_DEVICES
            )
            .into());
        }
        if highest_prog > devices {
            return Err(format!("--p{highest_prog} given but only {devices} devices").into());
        }
        programs.truncate(devices);

        let mut cfg = if args.iter().any(|a| a == "--full") {
            ProtocolConfig::full()
        } else {
            ProtocolConfig::strict()
        };
        if let Some(r) = arg_value(&args, "--relax") {
            cfg = ProtocolConfig::relaxed(parse_relaxation(&r)?);
        }
        let want_trace = args.iter().any(|a| a == "--trace");
        let threads = arg_value(&args, "--threads")
            .map(|t| parse_count("--threads", &t))
            .transpose()?
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        // `auto` (the default) = one shard per thread, resolved inside
        // the checker; an explicit count pins the routed layout.
        let shards = match arg_value(&args, "--shards").as_deref() {
            None | Some("auto") => None,
            Some(n) => Some(parse_count("--shards", n)?),
        };

        let init =
            SystemState::initial_n(devices, programs.into_iter().map(Into::into).collect());
        // Banner is diagnostic context, not part of the result: stderr.
        eprintln!(
            "topology: {} (1 host, single location)\nconfiguration: {cfg:?}\ninitial state:\n{init}",
            Topology::new(devices)
        );

        let mem_budget = arg_value(&args, "--mem-budget-mb")
            .map(|v| parse_mib("--mem-budget-mb", &v))
            .transpose()?
            .or(cxl_mc::CheckOptions::default().mem_budget);
        let time_budget = arg_value(&args, "--time-budget-ms")
            .map(|v| v.parse::<u64>().map_err(|e| format!("bad --time-budget-ms: {e}")))
            .transpose()?
            .map(std::time::Duration::from_millis);
        let checkpoint_every = arg_value(&args, "--checkpoint-every-ms")
            .map(|v| v.parse::<u64>().map_err(|e| format!("bad --checkpoint-every-ms: {e}")))
            .transpose()?
            .map(std::time::Duration::from_millis);
        let checkpoint = arg_value(&args, "--checkpoint-dir").map(|dir| {
            let mut policy = cxl_mc::CheckpointPolicy::new(dir);
            if let Some(every) = checkpoint_every {
                policy.every = every;
            }
            policy
        });
        if checkpoint_every.is_some() && checkpoint.is_none() {
            return Err("--checkpoint-every-ms requires --checkpoint-dir".to_string().into());
        }
        let resume = args.iter().any(|a| a == "--resume");
        if resume && checkpoint.is_none() {
            return Err("--resume requires --checkpoint-dir".to_string().into());
        }
        let delta_keyframe = arg_value(&args, "--delta-keyframe")
            .map(|v| v.parse::<u32>().map_err(|e| format!("bad --delta-keyframe: {e}")))
            .transpose()?
            .unwrap_or(0);
        let spill_dir = arg_value(&args, "--spill-dir").map(std::path::PathBuf::from);
        let spill_budget = arg_value(&args, "--spill-budget-mb")
            .map(|v| parse_mib("--spill-budget-mb", &v))
            .transpose()?;
        if spill_budget.is_some() && spill_dir.is_none() {
            return Err("--spill-budget-mb requires --spill-dir".to_string().into());
        }

        let progress = arg_value(&args, "--progress")
            .map(|v| v.parse::<cxl_mc::ProgressMode>())
            .transpose()
            .map_err(|e| format!("bad --progress: {e}"))?
            .unwrap_or_default();
        let metrics_out = arg_value(&args, "--metrics-out").map(std::path::PathBuf::from);
        let recorder = {
            let rec = cxl_mc::MetricsRecorder::new(progress, metrics_out.as_deref())
                .map_err(|e| format!("--metrics-out: {e}"))?;
            // An all-off recorder would still pay the level bookkeeping;
            // install nothing and keep the checker on its zero-cost path.
            rec.is_active().then(|| std::sync::Arc::new(rec))
        };

        let symmetry = match arg_value(&args, "--symmetry").as_deref() {
            None | Some("auto") => true,
            Some("off") => false,
            Some(other) => return Err(format!("bad --symmetry {other:?} (auto, off)").into()),
        };
        let data_symmetry = match arg_value(&args, "--data-symmetry").as_deref() {
            None | Some("auto") => true,
            Some("off") => false,
            Some(other) => return Err(format!("bad --data-symmetry {other:?} (auto, off)").into()),
        };
        let por = match arg_value(&args, "--por").as_deref() {
            None | Some("off") => cxl_mc::PorMode::Off,
            Some("on") => cxl_mc::PorMode::On,
            Some("wide") => cxl_mc::PorMode::Wide,
            Some(other) => return Err(format!("bad --por {other:?} (on, wide, off)").into()),
        };
        let canon = match arg_value(&args, "--canon").as_deref() {
            None | Some("auto") => cxl_mc::CanonMode::Auto,
            Some("refine") => cxl_mc::CanonMode::Refine,
            Some("brute") => cxl_mc::CanonMode::Brute,
            Some(other) => {
                return Err(format!("bad --canon {other:?} (auto, refine, brute)").into());
            }
        };
        // Both stock properties quantify over devices symmetrically and
        // compare values only between components, so the reduction's
        // property-invariance obligations hold; an inert reducer
        // (asymmetric storeless workload, no POR) is simply not
        // installed.
        let rules_for_group = Ruleset::with_devices(cfg, devices);
        let reduction = std::sync::Arc::new(cxl_mc::Reduction::new(
            &rules_for_group,
            &init,
            cxl_mc::ReductionConfig { symmetry, data_symmetry, por, canon },
        ));
        let active = reduction.is_active();
        if active && reduction.canon_name() == "capped" {
            eprintln!(
                "NOTE: symmetry group is not a full product of per-orbit symmetric groups, \
                 and brute arrangement enumeration is capped at {} permutations; \
                 canonicalizing with the partition-refinement labeller over group \
                 byte-classes — sound, but a coarser quotient than exact orbit minimization",
                cxl_mc::BRUTE_ARRANGEMENT_CAP
            );
        }

        let invariant = InvariantProperty::new(Invariant::for_devices(&cfg, devices));
        let opts = cxl_mc::CheckOptions {
            threads,
            shards,
            mem_budget,
            time_budget,
            checkpoint,
            delta_keyframe,
            spill_dir,
            spill_budget,
            reduction: active
                .then(|| std::sync::Arc::clone(&reduction) as std::sync::Arc<dyn cxl_mc::Reducer>),
            telemetry: recorder
                .map(|rec| rec as std::sync::Arc<dyn cxl_mc::Recorder>),
            ..cxl_mc::CheckOptions::default()
        };
        let mc = ModelChecker::with_options(Ruleset::with_devices(cfg, devices), opts);
        let props: [&dyn cxl_mc::Property; 2] = [&SwmrProperty, &invariant];
        let exploration = if resume {
            mc.explore_resumed(&props)
                .map_err(|e| Failure::Usage(format!("--resume: {e}")))?
        } else {
            mc.explore(&init, &props)
        };
        let mut report = exploration.report;
        // Reduced counterexamples live in canonical coordinates:
        // de-permute them (violations and deadlock traces alike) into
        // concrete runs before any rendering, so printed device indices
        // match the user's --p<i> program assignment.
        if active {
            let fix = |trace: &mut cxl_mc::Trace| {
                match cxl_litmus::replay::decanonicalize_trace(mc.rules(), &reduction, trace) {
                    Ok(concrete) => *trace = concrete,
                    Err(e) => eprintln!("warning: could not de-canonicalize trace: {e}"),
                }
            };
            for v in &mut report.violations {
                fix(&mut v.trace);
            }
            for d in &mut report.deadlocks {
                fix(&mut d.trace);
            }
        }
        println!("{report}");
        if report.truncated_by_memory {
            eprintln!(
                "NOTE: exploration truncated at the {:.0} MiB state-store budget after {} \
                 states; statistics above cover the explored prefix only \
                 (raise --mem-budget-mb to go deeper)",
                mem_budget.unwrap_or(0) as f64 / (1024.0 * 1024.0),
                report.states
            );
        }
        if report.truncated_by_time {
            eprintln!(
                "NOTE: exploration stopped at the time budget after {} states; resume from \
                 the checkpoint (--resume) with a larger --time-budget-ms to continue",
                report.states
            );
        }
        let secs = report.elapsed.as_secs_f64();
        if secs > 0.0 {
            eprintln!(
                "throughput: {:.0} states/sec over {threads} thread(s)",
                report.states as f64 / secs
            );
        }
        // Post-mortem context on a bad ending: replay the flight
        // recorder — the last bounded window of notable events — to
        // stderr so the result stream on stdout stays clean.
        if (!report.violations.is_empty() || !report.quarantined.is_empty())
            && !report.flight.is_empty()
        {
            eprintln!("--- flight recorder (last {} events) ---", report.flight.len());
            for event in &report.flight {
                eprintln!("{event}");
            }
        }
        if args.iter().any(|a| a == "--firings") {
            println!("--- rule firings ---");
            for (name, n) in report.rule_firings_by_name() {
                println!("{name:<36} {n}");
            }
        }

        // Compact per-device column sets for trace tables.
        let cache_columns = |n: usize| -> Vec<Column> {
            let mut cols: Vec<Column> = vec![Column::DCache(DeviceId::new(0)), Column::HCache];
            cols.extend((1..n).map(|i| Column::DCache(DeviceId::new(i))));
            cols.push(Column::Counter);
            cols
        };
        // Mirrored paper-style layout: programs outermost, caches inner,
        // host in the middle — [DProg1, DCache1, HCache, DCache2, DProg2,
        // DCache3, DProg3, …].
        let prog_cache_columns = |n: usize| -> Vec<Column> {
            let mut cols = vec![
                Column::DProg(DeviceId::new(0)),
                Column::DCache(DeviceId::new(0)),
                Column::HCache,
            ];
            for i in 1..n {
                cols.push(Column::DCache(DeviceId::new(i)));
                cols.push(Column::DProg(DeviceId::new(i)));
            }
            cols
        };

        if let Some(v) = report.violations.first() {
            println!("--- counterexample ---");
            let table = TransitionTable::from_trace(
                format!("violation of {}: {}", v.property, v.detail),
                &v.trace,
                &cache_columns(devices),
            );
            println!("{table}");
        } else if let Some(d) = report.deadlocks.first() {
            println!("--- stuck state ---\n{}", d.trace.last_state());
        } else if want_trace {
            // Print one maximal path as a table.
            let mut trace = cxl_mc::Trace { initial: init.clone(), steps: vec![] };
            let mut cur = init;
            while let Some((rule, next)) = mc.rules().successors(&cur).into_iter().next() {
                trace.steps.push(cxl_mc::Step { rule, state: next.clone() });
                cur = next;
            }
            let table = TransitionTable::from_trace(
                "sample execution (first-enabled-rule schedule)",
                &trace,
                &prog_cache_columns(devices),
            );
            println!("{table}");
        }
        if args.iter().any(|a| a == "--expect-clean") {
            // Property violations and deadlocks are *verdicts* (exit 1);
            // a truncated or quarantine-degraded run is merely
            // *inconclusive* (exit 2) — CI gates on the distinction.
            if !report.clean() {
                return Err(Failure::Violation(format!(
                    "--expect-clean: exploration found {} violation(s), {} deadlock(s)",
                    report.violations.len(),
                    report.deadlocks.len()
                )));
            }
            if report.truncated || !report.quarantined.is_empty() {
                return Err(Failure::Incomplete(format!(
                    "--expect-clean: exploration incomplete (truncated: {}, quarantined \
                     states: {})",
                    report.truncated,
                    report.quarantined.len()
                )));
            }
        }
        Ok(())
    };
    match run() {
        Ok(()) => {}
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            std::process::exit(64);
        }
        Err(Failure::Violation(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        Err(Failure::Incomplete(e)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
