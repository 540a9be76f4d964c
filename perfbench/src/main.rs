//! `perfbench` — the measuring half of the verdict benchmark. The
//! `run.py` driver next to this package builds it, holds the lock and
//! aggregates; this binary does one job per process:
//!
//! ```text
//! perfbench sample    --workload W --seed N --out DIR --budget-s B
//! perfbench trace     --workload W --seed N --out DIR --seconds S
//! perfbench artefacts
//! ```
//!
//! `sample` runs one untimed pass of the workload (absorbing a fresh
//! process's first-touch page faults), then timed passes back to back
//! until `B` seconds have passed since the process started. A pass sets
//! every scenario up and explores it through `ModelChecker::explore`. It
//! prints one JSON line: the set-up, wall and CPU seconds of each timed
//! pass, the peak RSS after the untimed pass and every pass's scenario
//! counts (the untimed pass first).
//!
//! `trace` runs the workload's scenarios through the shadow driver
//! (`shadow.rs`) beside untraced real runs, checks that both agree, and
//! prints the per-layer metrics; its spans go to
//! `DIR/trace-<workload>-seed<N>.jsonl`.
//!
//! `artefacts` checks the paper's artefacts: Tables 1–2 replay and end
//! quiescent, Table 3 ends with DCache1 = M and DCache2 = S, the litmus
//! suite passes 14/14, and the §5.2 restriction suite passes.

mod rusage;
mod shadow;
mod workload;

use shadow::{Layer, Op, ShadowRun};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{remove_scratch, Outcome, Setup, Workload};

/// The shadow driver times every `STRIDE`-th parent and checked state.
const STRIDE: u64 = 8;

fn arg(args: &[String], flag: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("{flag} is required"))
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let v = arg(args, flag)?;
    v.parse().map_err(|_| format!("bad {flag} {v:?}"))
}

fn granted_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A JSON number; non-finite values (a ratio over nothing) and -0 (an
/// empty float sum) become 0.
fn num(x: f64) -> String {
    if x.is_finite() && x != 0.0 {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("sample") => sample(&args),
        Some("trace") => trace(&args),
        Some("artefacts") => artefacts(),
        _ => Err("usage: perfbench {sample|trace|artefacts} [options]".to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

struct Common {
    workload: Workload,
    workload_name: String,
    seed: u64,
    out: PathBuf,
    work: PathBuf,
}

impl Common {
    fn parse(args: &[String]) -> Result<Self, String> {
        let workload_name = arg(args, "--workload")?;
        let workload = Workload::parse(&workload_name)?;
        let seed = parsed(args, "--seed")?;
        let out = PathBuf::from(arg(args, "--out")?);
        let work = out.join("work");
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Common {
            workload,
            workload_name,
            seed,
            out,
            work,
        })
    }

    /// A scratch-directory tag unique to this process and use.
    fn tag(&self, what: &str) -> String {
        format!("{}-{what}", std::process::id())
    }
}

// ---------------------------------------------------------------------
// sample
// ---------------------------------------------------------------------

fn sample(args: &[String]) -> Result<(), String> {
    let c = Common::parse(args)?;
    let budget = Duration::from_secs_f64(parsed(args, "--budget-s")?);
    let started = Instant::now();
    let threads = granted_cores();
    let scenarios = c.workload.scenarios(c.seed, threads);
    // One pass: every scenario set up and explored once. Returns the
    // set-up seconds, the wall and CPU seconds of the explorations, and
    // each scenario's outcome.
    let pass = |what: &str| -> Result<(f64, f64, f64, Vec<String>), String> {
        let (mut setup_s, mut wall, mut cpu) = (0.0, 0.0, 0.0);
        let mut outcomes = Vec::new();
        for sc in &scenarios {
            let tag = c.tag(&format!("{what}-{}", sc.name));
            let t = Instant::now();
            let setup = Setup::build(sc, &c.work, &tag, None).map_err(|e| e.to_string())?;
            setup_s += t.elapsed().as_secs_f64();
            let before = rusage::now();
            let (report, elapsed) = setup.explore();
            let after = rusage::now();
            wall += elapsed.as_secs_f64();
            cpu += after.cpu.saturating_sub(before.cpu).as_secs_f64();
            outcomes.push(Outcome::of(&report).json(sc.name));
            drop(setup);
            remove_scratch(&c.work, &tag);
        }
        Ok((setup_s, wall, cpu, outcomes))
    };

    // A fresh process pays first-touch page faults and cold caches on
    // its first exploration; one untimed pass absorbs them. Its peak RSS
    // is that of one pass, as a user's `explore` process sees it (later
    // passes reuse the heap, and fragmentation would inflate the peak).
    let (_, _, _, warm) = pass("warm")?;
    let peak = rusage::now().max_rss_kib as f64 / 1024.0;
    let mut outcomes = vec![format!("[{}]", warm.join(", "))];

    let (mut setup, mut verdict, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    while verdict.is_empty() || started.elapsed() < budget {
        let (setup_s, wall, used, got) = pass(&format!("timed-{}", verdict.len()))?;
        setup.push(num(setup_s));
        verdict.push(num(wall));
        cpu.push(num(used));
        outcomes.push(format!("[{}]", got.join(", ")));
    }
    println!(
        "{{\"setup_s\": [{}], \"verdict_s\": [{}], \"cpu_s\": [{}], \"peak_rss_mb\": {}, \
         \"threads\": {}, \"available_parallelism\": {}, \"outcomes\": [{}]}}",
        setup.join(", "),
        verdict.join(", "),
        cpu.join(", "),
        num(peak),
        scenarios.iter().map(|s| s.threads).max().unwrap_or(1),
        threads,
        outcomes.join(", ")
    );
    Ok(())
}

// ---------------------------------------------------------------------
// artefacts
// ---------------------------------------------------------------------

fn artefacts() -> Result<(), String> {
    use cxl_core::{DState, DeviceId};
    use cxl_litmus::tables;
    let guarded = |f: &dyn Fn() -> Result<String, String>| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .unwrap_or_else(|_| Err("panicked".to_string()))
    };
    let checks: Vec<(&str, Result<String, String>)> = vec![
        (
            "table1",
            guarded(&|| {
                let (trace, _) = tables::table1();
                let q = trace.last_state().is_quiescent();
                if q {
                    Ok(format!("{} steps, quiescent", trace.len()))
                } else {
                    Err("not quiescent".into())
                }
            }),
        ),
        (
            "table2",
            guarded(&|| {
                let (trace, _) = tables::table2();
                let q = trace.last_state().is_quiescent();
                if q {
                    Ok(format!("{} steps, quiescent", trace.len()))
                } else {
                    Err("not quiescent".into())
                }
            }),
        ),
        (
            "table3",
            guarded(&|| {
                let (trace, _) = tables::table3();
                let last = trace.last_state();
                let (d1, d2) = (
                    last.dev(DeviceId::D1).cache.state,
                    last.dev(DeviceId::D2).cache.state,
                );
                if d1 == DState::M && d2 == DState::S {
                    Ok("DCache1 = M, DCache2 = S".into())
                } else {
                    Err(format!("DCache1 = {d1:?}, DCache2 = {d2:?}"))
                }
            }),
        ),
        (
            "litmus_suite",
            guarded(&|| {
                let (rows, _) = cxl_bench::litmus_artifact();
                let passed = rows.iter().filter(|r| r.passed).count();
                if passed == 14 && rows.len() == 14 {
                    Ok("14/14 pass".into())
                } else {
                    Err(format!("{passed}/{} pass", rows.len()))
                }
            }),
        ),
        (
            "restriction_suite",
            guarded(&|| {
                let (rows, _) = cxl_bench::relaxation_artifact();
                if rows.is_empty() {
                    Err("no restrictions assessed".into())
                } else {
                    Ok(format!("{} restrictions pass", rows.len()))
                }
            }),
        ),
    ];
    let ok = checks.iter().all(|(_, r)| r.is_ok());
    let rows: Vec<String> = checks
        .iter()
        .map(|(name, r)| {
            let (pass, detail) = match r {
                Ok(d) => (true, d.as_str()),
                Err(d) => (false, d.as_str()),
            };
            format!("{{\"name\": \"{name}\", \"ok\": {pass}, \"detail\": \"{detail}\"}}")
        })
        .collect();
    println!("{{\"ok\": {ok}, \"checks\": [{}]}}", rows.join(", "));
    Ok(())
}

// ---------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------

/// One scenario of a traced invocation: its untraced real runs at one
/// thread and its shadow run.
struct Traced {
    name: &'static str,
    real: Outcome,
    real_1t_s: Vec<f64>,
    shadow: ShadowRun,
    checkpoint: Option<CheckpointFile>,
}

impl Traced {
    fn real_s(&self) -> f64 {
        median(&self.real_1t_s)
    }
}

/// The last checkpoint a real run left behind: its size, and the time
/// `Checkpoint::from_path` takes to read and validate it.
#[derive(Clone, Copy)]
struct CheckpointFile {
    bytes: u64,
    decode_s: f64,
}

/// One untraced exploration at one thread.
struct RealRun {
    outcome: Outcome,
    wall_s: f64,
    checkpoint: Option<CheckpointFile>,
}

fn real_run(c: &Common, sc: &workload::Scenario, what: &str) -> Result<RealRun, String> {
    let tag = c.tag(what);
    let setup = Setup::build(sc, &c.work, &tag, None).map_err(|e| e.to_string())?;
    let (report, wall) = setup.explore();
    let checkpoint = match &setup.checkpoint_dir {
        Some(dir) => {
            let path = cxl_mc::checkpoint_path(dir);
            let bytes = std::fs::metadata(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .len();
            let t = Instant::now();
            let cp = cxl_mc::Checkpoint::from_path(&path, setup.mc.rules())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let decode_s = t.elapsed().as_secs_f64();
            drop(cp);
            Some(CheckpointFile { bytes, decode_s })
        }
        None => None,
    };
    drop(setup);
    remove_scratch(&c.work, &tag);
    Ok(RealRun {
        outcome: Outcome::of(&report),
        wall_s: wall.as_secs_f64(),
        checkpoint,
    })
}

fn shadow_mismatches(t: &Traced) -> Vec<String> {
    let (r, s) = (&t.real, &t.shadow);
    let mut out = Vec::new();
    let shadow_verdict = if s.violations > 0 {
        "violation"
    } else if s.deadlocks > 0 {
        "deadlock"
    } else {
        "clean"
    };
    if (r.verdict, r.truncated) != (shadow_verdict, s.truncated) {
        out.push(format!(
            "{}: verdict real {} (truncated {}) != shadow {shadow_verdict} (truncated {})",
            t.name, r.verdict, r.truncated, s.truncated
        ));
    }
    let mut cmp = |what: &str, real: u64, shadow: u64| {
        if real != shadow {
            out.push(format!("{}: {what} real {real} != shadow {shadow}", t.name));
        }
    };
    cmp("states", r.states as u64, s.states as u64);
    cmp("transitions", r.transitions as u64, s.transitions as u64);
    cmp("depth", r.depth as u64, s.depth as u64);
    cmp("terminals", r.terminals as u64, s.terminals as u64);
    cmp("spilled_extents", r.spilled_extents, s.spilled_extents);
    cmp("faulted_extents", r.faulted_extents, s.faulted_extents);
    out
}

/// Parallel-driver figures of `n4_plain_mt`: runs at every granted core
/// with a telemetry recorder off and on, in position-balanced pairs.
struct Parallel {
    off_s: Vec<f64>,
    on_over_off: Vec<f64>,
    report: Outcome,
    routed_messages: u64,
    imbalance_pct: f64,
}

fn parallel_pairs(c: &Common, budget: Duration) -> Result<Parallel, String> {
    let threads = granted_cores();
    let sc = c.workload.scenarios(c.seed, threads).remove(0);
    let started = Instant::now();
    let mut off_s = Vec::new();
    let mut on_over_off = Vec::new();
    let mut last = None;
    let mut pair = 0usize;
    while pair < 2 || started.elapsed() < budget {
        // ABBA: even pairs run off first, odd pairs on first.
        let mut times = [0.0f64; 2];
        for position in 0..2 {
            let on = (position == 1) == pair.is_multiple_of(2);
            let tag = c.tag(&format!("par-{pair}-{position}"));
            let telemetry = if on {
                let path = c.work.join(format!("{tag}-metrics.jsonl"));
                let rec = cxl_mc::MetricsRecorder::new(cxl_mc::ProgressMode::Off, Some(&path))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Some(Arc::new(rec) as Arc<dyn cxl_mc::Recorder>)
            } else {
                None
            };
            let setup = Setup::build(&sc, &c.work, &tag, telemetry).map_err(|e| e.to_string())?;
            let (report, wall) = setup.explore();
            drop(setup);
            let _ = std::fs::remove_file(c.work.join(format!("{tag}-metrics.jsonl")));
            times[usize::from(on)] = wall.as_secs_f64();
            if !on {
                last = Some(report);
            }
        }
        off_s.push(times[0]);
        on_over_off.push(times[1] / times[0]);
        pair += 1;
    }
    let report = last.expect("at least one untraced run");
    Ok(Parallel {
        off_s,
        on_over_off,
        routed_messages: report.routed_messages,
        imbalance_pct: report.shard_imbalance_pct,
        report: Outcome::of(&report),
    })
}

fn trace(args: &[String]) -> Result<(), String> {
    let c = Common::parse(args)?;
    let seconds: u64 = parsed(args, "--seconds")?;
    let started = Instant::now();
    let mut traced = Vec::new();
    for sc in c.workload.scenarios(c.seed, 1) {
        // As in `sample`, an untimed pass absorbs first-touch costs.
        real_run(&c, &sc, &format!("warm-{}", sc.name))?;
        let real = real_run(&c, &sc, &format!("real-{}", sc.name))?;
        let tag = c.tag(&format!("shadow-{}", sc.name));
        let setup = Setup::build(&sc, &c.work, &tag, None).map_err(|e| e.to_string())?;
        let shadow = shadow::run(&setup.mc, &setup.init, &setup.props(), STRIDE);
        drop(setup);
        remove_scratch(&c.work, &tag);
        traced.push(Traced {
            name: sc.name,
            real: real.outcome,
            real_1t_s: vec![real.wall_s],
            shadow,
            checkpoint: real.checkpoint,
        });
    }
    let parallel = if c.workload == Workload::N4PlainMt {
        // Leave room for the closing one-thread run.
        let spent = started.elapsed();
        let closing = Duration::from_secs_f64(traced[0].real_s());
        let budget = Duration::from_secs(seconds).saturating_sub(spent + closing);
        let par = parallel_pairs(&c, budget)?;
        let sc = c.workload.scenarios(c.seed, 1).remove(0);
        let again = real_run(&c, &sc, "real-closing")?;
        traced[0].real_1t_s.push(again.wall_s);
        Some(par)
    } else {
        None
    };

    let mut mismatches: Vec<String> = traced.iter().flat_map(shadow_mismatches).collect();
    if let Some(p) = &parallel {
        let r = &traced[0].real;
        if (p.report.states, p.report.transitions) != (r.states, r.transitions) {
            mismatches.push(format!(
                "parallel run: {} states / {} transitions differ from the one-thread run",
                p.report.states, p.report.transitions
            ));
        }
    }

    let metrics = layer_metrics(&traced, parallel.as_ref());
    let busy: Vec<(Layer, f64)> = Layer::ALL
        .iter()
        .map(|&l| (l, traced.iter().map(|t| t.shadow.layer_s(l)).sum()))
        .collect();
    let total_busy: f64 = busy.iter().map(|(_, s)| s).sum();
    let dominant = busy
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(l, _)| l.name());

    let spans = c
        .out
        .join(format!("trace-{}-seed{}.jsonl", c.workload_name, c.seed));
    write_spans(&spans, &c, &traced).map_err(|e| format!("{}: {e}", spans.display()))?;

    eprintln!(
        "per-layer busy time ({}; shadow stride {STRIDE}):",
        c.workload_name
    );
    for (l, s) in &busy {
        eprintln!(
            "  {:<11} {:>9.4} s  {:>5.1}%",
            l.name(),
            s,
            if total_busy > 0.0 {
                100.0 * s / total_busy
            } else {
                0.0
            }
        );
    }
    eprintln!("  largest busy share: {dominant}");

    let mut m = String::new();
    for (i, (k, v)) in metrics.iter().enumerate() {
        let _ = write!(m, "{}\"{k}\": {}", if i > 0 { ", " } else { "" }, num(*v));
    }
    let shares: Vec<String> = busy
        .iter()
        .map(|(l, s)| {
            format!(
                "\"{}\": {}",
                l.name(),
                num(if total_busy > 0.0 {
                    s / total_busy
                } else {
                    0.0
                })
            )
        })
        .collect();
    let scenarios: Vec<String> = traced
        .iter()
        .map(|t| {
            format!(
                "{{\"name\": \"{}\", \"real\": {}, \"shadow_states\": {}, \"shadow_transitions\": {}, \
                 \"real_1t_s\": {}, \"shadow_s\": {}}}",
                t.name,
                t.real.json(t.name),
                t.shadow.states,
                t.shadow.transitions,
                num(t.real_s()),
                num(t.shadow.wall.as_secs_f64())
            )
        })
        .collect();
    let quoted: Vec<String> = mismatches.iter().map(|s| format!("\"{s}\"")).collect();
    println!(
        "{{\"ok\": {}, \"mismatches\": [{}], \"dominant_layer\": \"{dominant}\", \"layer_shares\": {{{}}}, \
         \"metrics\": {{{m}}}, \"scenarios\": [{}], \"threads\": {}, \"available_parallelism\": {}, \
         \"stride\": {STRIDE}, \"spans\": \"{}\"}}",
        mismatches.is_empty(),
        quoted.join(", "),
        shares.join(", "),
        scenarios.join(", "),
        if parallel.is_some() { granted_cores() } else { 1 },
        granted_cores(),
        spans.display()
    );
    Ok(())
}

/// The per-layer metrics of `BENCHMARK.json` (all but
/// `reduce.state_ratio`, which `run.py` derives from the recorded
/// unreduced counts). A layer a workload bypasses reads 0.
fn layer_metrics(traced: &[Traced], parallel: Option<&Parallel>) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&ShadowRun) -> f64| traced.iter().map(|t| f(&t.shadow)).sum::<f64>();
    let op_s = |op: Op| sum(&|s| s.op_s(op));
    let calls = |op: Op| sum(&|s| s.op_calls(op) as f64);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let layers: f64 = Layer::ALL.iter().map(|&l| sum(&|s| s.layer_s(l))).sum();
    let real_1t: f64 = traced.iter().map(Traced::real_s).sum();
    let shadow_wall = sum(&|s| s.wall.as_secs_f64());
    let states = sum(&|s| s.states as f64);
    let transitions = sum(&|s| s.transitions as f64);
    let checkpoint = |f: &dyn Fn(CheckpointFile) -> f64| {
        traced
            .iter()
            .filter_map(|t| t.checkpoint)
            .map(f)
            .sum::<f64>()
    };

    let (states_per_s, speedup, imbalance, routed, telemetry) = match parallel {
        Some(p) => {
            let t_cores = median(&p.off_s);
            (
                states / t_cores,
                real_1t / t_cores,
                p.imbalance_pct,
                p.routed_messages as f64,
                (median(&p.on_over_off) - 1.0) * 100.0,
            )
        }
        None => (per(states, real_1t), 0.0, 0.0, 0.0, 0.0),
    };
    vec![
        ("rules.busy_s", op_s(Op::Rules)),
        (
            "rules.ns_per_parent",
            per(op_s(Op::Rules) * 1e9, sum(&|s| s.rule_parents as f64)),
        ),
        (
            "rules.successors_per_parent",
            per(transitions, sum(&|s| s.parents() as f64)),
        ),
        (
            "codec.decode_ns",
            per(op_s(Op::Decode) * 1e9, calls(Op::Decode)),
        ),
        ("codec.decode_busy_s", op_s(Op::Decode)),
        (
            "codec.encode_ns",
            per(op_s(Op::Encode) * 1e9, calls(Op::Encode)),
        ),
        ("codec.encode_busy_s", op_s(Op::Encode)),
        ("dedup.busy_s", op_s(Op::Dedup)),
        (
            "dedup.ns_per_probe",
            per(op_s(Op::Dedup) * 1e9, calls(Op::Dedup)),
        ),
        (
            "dedup.hit_rate",
            per(sum(&|s| s.duplicates as f64), calls(Op::Dedup)),
        ),
        ("store.busy_s", op_s(Op::Store)),
        (
            "store.bytes_per_state",
            per(
                sum(&|s| (s.resident_payload_bytes + s.table_bytes) as f64),
                states,
            ),
        ),
        (
            "store.delta_ratio",
            per(
                sum(&|s| s.byte_len as f64),
                sum(&|s| s.full_payload_bytes as f64),
            ),
        ),
        ("store.spill_s", op_s(Op::Spill)),
        ("store.spilled_extents", sum(&|s| s.spilled_extents as f64)),
        ("store.faulted_extents", sum(&|s| s.faulted_extents as f64)),
        ("check.busy_s", op_s(Op::Check)),
        (
            "check.ns_per_state",
            per(op_s(Op::Check) * 1e9, calls(Op::Check)),
        ),
        ("reduce.busy_s", sum(&|s| s.layer_s(Layer::Reduce))),
        (
            "reduce.canon_ns",
            per(op_s(Op::Canon) * 1e9, calls(Op::Canon)),
        ),
        ("reduce.canon_busy_s", op_s(Op::Canon)),
        (
            "reduce.rewrite_ratio",
            per(sum(&|s| s.canon_rewrites as f64), calls(Op::Canon)),
        ),
        (
            "reduce.ample_ratio",
            per(
                sum(&|s| s.ample_parents as f64),
                sum(&|s| s.parents() as f64),
            ),
        ),
        ("driver.states_per_s", states_per_s),
        ("driver.residual_s", real_1t - layers),
        ("driver.speedup", speedup),
        ("driver.shard_imbalance_pct", imbalance),
        ("driver.routed_messages", routed),
        ("checkpoint.encode_s", op_s(Op::CkptEncode)),
        ("checkpoint.decode_s", checkpoint(&|f| f.decode_s)),
        ("checkpoint.bytes", checkpoint(&|f| f.bytes as f64)),
        ("telemetry.overhead_pct", telemetry),
        ("trace.coverage", per(layers, real_1t)),
        (
            "trace.overhead_pct",
            per(shadow_wall - real_1t, real_1t) * 100.0,
        ),
    ]
}

/// Write the spans: per scenario one run span, one span per BFS level
/// (parent: the run) and one span per layer per level (parent: the
/// level), all carrying the run id.
fn write_spans(path: &Path, c: &Common, traced: &[Traced]) -> std::io::Result<()> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let mut out = String::new();
    for t in traced {
        let s = &t.shadow;
        let run_id = format!("{}-seed{}-{}-{stamp}", c.workload_name, c.seed, t.name);
        let _ = writeln!(
            out,
            "{{\"run_id\": \"{run_id}\", \"span\": 0, \"parent\": null, \"name\": \"run\", \
             \"start_ns\": 0, \"end_ns\": {}, \"states\": {}, \"transitions\": {}, \"stride\": {}, \
             \"clock_read_ns\": {}, \"ring_hits\": {}, \"checkpoint_writes\": {}}}",
            s.wall.as_nanos(),
            s.states,
            s.transitions,
            s.stride,
            s.clock_read_ns,
            s.ring_hits,
            s.checkpoint_writes
        );
        let mut id = 0usize;
        for level in &s.levels {
            id += 1;
            let level_id = id;
            let _ = writeln!(
                out,
                "{{\"run_id\": \"{run_id}\", \"span\": {level_id}, \"parent\": 0, \"name\": \"level\", \
                 \"depth\": {}, \"start_ns\": {}, \"end_ns\": {}, \"frontier\": {}, \"stored\": {}}}",
                level.depth, level.start_ns, level.end_ns, level.frontier, level.stored
            );
            for layer in Layer::ALL {
                let ops: Vec<Op> = Op::ALL
                    .iter()
                    .copied()
                    .filter(|o| o.layer() == layer)
                    .collect();
                let calls: u64 = ops.iter().map(|&o| level.ops[o as usize].calls).sum();
                if calls == 0 {
                    continue;
                }
                id += 1;
                let busy: f64 = ops.iter().map(|&o| s.level_op_ns(level, o)).sum();
                let detail: Vec<String> = ops
                    .iter()
                    .filter(|&&o| level.ops[o as usize].calls > 0)
                    .map(|&o| {
                        let st = level.ops[o as usize];
                        format!(
                            "\"{}\": {{\"calls\": {}, \"sampled\": {}, \"sampled_ns\": {}, \"busy_ns\": {}}}",
                            o.name(),
                            st.calls,
                            st.sampled,
                            st.ns,
                            num(s.level_op_ns(level, o))
                        )
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{{\"run_id\": \"{run_id}\", \"span\": {id}, \"parent\": {level_id}, \"name\": \"{}\", \
                     \"depth\": {}, \"busy_ns\": {}, \"calls\": {calls}, \"ops\": {{{}}}}}",
                    layer.name(),
                    level.depth,
                    num(busy),
                    detail.join(", ")
                );
            }
        }
    }
    std::fs::write(path, out)
}
