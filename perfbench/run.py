#!/usr/bin/env python3
"""Verdict benchmark for the CXL.cache model checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script takes a host-wide exclusive
lock (the abstract Unix socket name `@cxl-perfbench-lock`, so that two
invocations never share the cores, whichever checkout each runs in),
builds the `perfbench` package next to it (its own Cargo workspace,
depending on the repository crates by path) into $CARGO_TARGET_DIR
(default `.bench_build`), checks the paper artefacts once (untimed),
and then:

  --trace 0  runs one fresh process that explores the workload once
             untimed (first-touch warm-up), then times back-to-back
             passes (set-up and exploration of every scenario) until S
             seconds are spent; every pass is checked against
             `perfbench/expectations.json`. verdict_s, cpu_s and setup_s
             are those of the fastest timed pass by each measure, and
             peak_rss_mb is read after the warm-up pass. The host's
             neighbours slow this code down by up to 1.7x for minutes
             at a time, and the fastest of many short passes is the
             figure they disturb least;
  --trace 1  runs the traced shadow driver beside untraced real runs and
             reports the per-layer metrics; spans are written to
             `perfbench/out/trace-<workload>-seed<N>.jsonl`.

Workloads:
  n4_plain_mt    the grid [S]x[L,L]x[S]x[L], unreduced, plain store,
                 threads = shards = granted cores
  reduced_n4n6   [S,L]x[S]x[S]x[S] under the default reducers, then the
                 N=6 hexad [S]x6 with --por wide, at one thread
  spill_ckpt_n4  [S]x[S]x[L]x[L], 8 MiB budget, delta keyframe 8, spill
                 watermark 0, a checkpoint at every level, one thread

The seed picks each workload's store literals (distinct values in 1..63),
which leaves every recorded count unchanged. Every result is written with
its environment (available parallelism, threads, build profile, commit,
source digest) to `perfbench/out/results/`. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every pass (warm-up included) and the artefact check count in
"attempted"; a pass with a wrong verdict or counts, a truncated or
quarantined pass, a crashed process, or a failed artefact check counts
in "failed".
"""

import argparse
import errno
import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# An abstract socket name is shared by every process on the host, names
# no file, and is released by the kernel when its holder exits.
LOCK_NAME = "\0cxl-perfbench-lock"
CHECKED = ("verdict", "states", "transitions", "depth", "terminals",
           "spilled_extents", "faulted_extents")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_lock():
    """Wait for and hold the host-wide benchmark lock; returns the socket
    that holds it (the lock lasts until it is closed or the process
    ends)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    waiting = False
    while True:
        try:
            sock.bind(LOCK_NAME)
            return sock
        except OSError as e:
            if e.errno != errno.EADDRINUSE:
                raise
        if not waiting:
            print("perfbench: another benchmark holds the lock; waiting",
                  file=sys.stderr)
            waiting = True
        time.sleep(0.2)


def build():
    """Build the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "-q",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("build failed", 1)
    return target / "release" / "perfbench"


def run_json(cmd):
    """Run one benchmark process; returns its last stdout line as JSON,
    or None when the process failed."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {' '.join(map(str, cmd[1:]))} exited "
              f"{done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def mismatches(expected, scenarios):
    """Differences between a run's scenario outcomes and the recorded
    ones, plus any truncation or quarantine."""
    out = []
    if [s["name"] for s in scenarios] != [e["name"] for e in expected]:
        return ["scenario list differs"]
    for exp, got in zip(expected, scenarios):
        for key in CHECKED:
            if key in exp and exp[key] != got[key]:
                out.append(f"{exp['name']}: {key} {got[key]} != {exp[key]}")
        if got["truncated"] or got["quarantined"]:
            out.append(f"{exp['name']}: truncated or quarantined")
    return out


def environment(binary_info):
    """What every result is recorded beside."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for base in (ROOT / "src", ROOT / "crates", HERE / "src"):
        files += [p for p in base.rglob("*")
                  if p.is_file() and "target" not in p.parts]
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "available_parallelism": binary_info.get("available_parallelism"),
        "threads": binary_info.get("threads"),
        "build_profile": "release",
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def declared(kind):
    """Metric names and units `BENCHMARK.json` declares: its `end_to_end`
    list for timed runs, its `per_layer` list for traced ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values, units):
    """Attach units; the emitted names must be exactly the declared ones."""
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} are not both "
             "emitted and declared in BENCHMARK.json", 1)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def timed(binary, args, expected):
    """Timed passes for --seconds in one process; returns (run,
    attempted, failed, metrics)."""
    got = run_json([binary, "sample", "--workload", args.workload,
                    "--seed", str(args.seed), "--out", OUT,
                    "--budget-s", str(args.seconds)])
    if got is None:
        return None, 1, 1, {}
    got["mismatches"] = [mismatches(expected, o) for o in got["outcomes"]]
    failed = sum(bool(m) for m in got["mismatches"])
    metrics = {}
    if not failed:
        values = {
            "verdict_s": min(got["verdict_s"]),
            "cpu_s": min(got["cpu_s"]),
            "setup_s": min(got["setup_s"]),
            "peak_rss_mb": got["peak_rss_mb"],
        }
        metrics = with_units(values, declared("end_to_end"))
    return got, len(got["outcomes"]), failed, metrics


def traced(binary, args, expected):
    """One traced run; returns (run, attempted, failed, metrics)."""
    got = run_json([binary, "trace", "--workload", args.workload,
                    "--seed", str(args.seed), "--out", OUT,
                    "--seconds", str(args.seconds)])
    if got is None:
        return None, len(expected), len(expected), {}
    real = [s["real"] for s in got["scenarios"]]
    got["expectation_mismatches"] = mismatches(expected, real)
    bad = {m.split(":")[0] for m in got["mismatches"] + got["expectation_mismatches"]}
    values = dict(got["metrics"])
    # Stored over unreduced states, over the scenarios whose unreduced
    # count was measured; 1 where nothing is reduced.
    pairs = [(s["states"], e["unreduced_states"]) for s, e in zip(real, expected)
             if e.get("unreduced_states")]
    values["reduce.state_ratio"] = (sum(p[0] for p in pairs) / sum(p[1] for p in pairs)
                                    if pairs else 1.0)
    print(f"largest busy share: {got['dominant_layer']} "
          f"{json.dumps(got['layer_shares'])}")
    return got, len(expected), len(bad), with_units(values, declared("per_layer"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not (ROOT / "crates" / "mc" / "Cargo.toml").is_file():
        fail(f"no model-checker sources under {ROOT} (crates/mc is missing)")
    expectations = json.loads((HERE / "expectations.json").read_text())["workloads"]
    if args.workload not in expectations:
        fail(f"unknown workload {args.workload!r} ({', '.join(expectations)})")
    expected = expectations[args.workload]

    # The lock covers the build too: a fresh compile in one checkout
    # would otherwise compete with another invocation's timed passes.
    with host_lock():
        binary = build()
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        artefacts = run_json([binary, "artefacts"])
        artefacts_ok = bool(artefacts and artefacts["ok"])
        run = traced if args.trace else timed
        result, attempted, failed, metrics = run(binary, args, expected)

    attempted += 1  # the artefact check
    failed += not artefacts_ok
    correct = failed == 0 and bool(metrics)
    # Threads and parallelism as the measuring process reported them.
    env = environment(result or {})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "artefacts": artefacts,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "runs": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(f"environment: {json.dumps(env)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
