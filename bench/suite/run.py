#!/usr/bin/env python3
"""The croupier benchmark suite: four workloads, end to end and per layer.

    python3 bench/suite/run.py [--workload NAME]... [--seed S]
                               [--seconds T] [--trace 0|1] [--out FILE]

Builds bench/suite (Release, into .bench_build/suite), then for each
workload runs fresh child processes one after another: untraced reps of
the production path -- 5 of them, or as many as fit in T seconds (at
least 3) -- with one traced run in the middle. It checks every output,
prints every metric with its unit, writes a results JSON (default
.bench_build/suite/results.json) and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end metrics (--trace 0, the
default) or its per_layer metrics (--trace 1). With several workloads the
metric names are prefixed "<workload>/". See bench/suite/README.md.
"""

import argparse
import json
import operator
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "suite_workload"
BASELINE = SUITE / "baseline.json"

CHILD_TIMEOUT_S = 60
REPS = 5
MIN_TIMED_REPS = 3
NPROC = len(os.sched_getaffinity(0))

# name -> spec, engine threads, sanity bounds (check, op, limit). Why each
# workload is here is in BENCHMARK.json.
# Every spec uses Poisson joins (50/13 ms), King latency and
# record=estimation unless it says otherwise.
WORKLOADS = {
    "paper-steady": {
        "spec": "protocol=croupier:alpha=25,gamma=50 nodes=1500 ratio=0.2 "
                "duration=200",
        "world_jobs": 1,
        "bounds": [("steady_avg_err", "<", 0.005)],
    },
    "mega-parallel": {
        "spec": "protocol=croupier:alpha=25,gamma=50 nodes=10000 ratio=0.2 "
                "join=instant latency=constant latency-ms=50 duration=30 "
                "record=graph-sampled",
        "world_jobs": min(4, NPROC),
        "bounds": [("final_largest_component", ">=", 0.99)],
    },
    "lossy-packets": {
        "spec": "protocol=croupier:alpha=25,gamma=50 nodes=800 ratio=0.2 "
                "duration=150 loss=0.1 mtu=64 fec=2 bandwidth=4000",
        "world_jobs": 1,
        "bounds": [("steady_avg_err", "<", 0.01)],
    },
    "churn-relay": {
        "spec": "protocol=nylon nodes=400 ratio=0.2 duration=150 churn=0.01 "
                "record=randomness",
        "world_jobs": 1,
        "bounds": [("audit_ticks", "==", 15), ("replaced", ">", 0)],
    },
}

OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge,
       "==": operator.eq}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the suite; returns False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"run.py: no croupier sources under {ROOT / 'src'}")
        return False
    steps = [
        ["cmake", "-S", str(SUITE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", str(NPROC)],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:] + proc.stderr[-4000:])
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def run_child(spec, seed, world_jobs, mode):
    """One child process; returns (result dict or None, failure text)."""
    cmd = [str(BINARY), f"--spec={spec}", f"--seed={seed}",
           f"--world-jobs={world_jobs}", f"--mode={mode}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{mode} run timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, (f"{mode} run exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{mode} run printed no result"


def bound_failures(workload, checks):
    failures = []
    for name, op, limit in workload["bounds"]:
        value = checks.get(name)
        if value is None or not OPS[op](value, limit):
            failures.append(f"sanity bound {name} {op} {limit} missed "
                            f"({value})")
    return failures


def summary(values, unit):
    out ={"unit": unit, "n": len(values), "values": values,
           "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    out["q1"], out["q3"] = q1, q3
    return out


def reference_digest(name, seed):
    """The committed baseline's digest for (workload, seed), if any."""
    try:
        base = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    for results in base.get("sets", []):
        if results.get("seed") == seed and name in results["workloads"]:
            return results["workloads"][name]["digest"]
    return None


def checked_run(w, seed, mode, failures):
    """One child run of workload w; None (with failures noted) if it fails."""
    result, failure = run_child(w["spec"], seed, w["world_jobs"], mode)
    if result is None:
        failures.append(failure)
        return None
    bad = bound_failures(w, result["checks"])
    # The layer spans sum to the traced span by construction, so negative
    # self time is the one way the outside-in attribution can go wrong.
    if mode == "traced" and result["layers"]["sim.self_s"] < 0:
        bad.append(f"negative sim self time {result['layers']['sim.self_s']}")
    failures.extend(bad)
    return None if bad else result


def run_workload(name, seed, seconds, units):
    w = WORKLOADS[name]
    spec, jobs = w["spec"], w["world_jobs"]
    failures = []
    reps = 0
    plain = []
    traced = None
    traced_pending = True

    # The traced run goes half-way through the untraced reps, so that host
    # drift over the set does not bias trace.overhead_frac either way.
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if seconds is None:
            reps_done, half_way = reps >= REPS, reps >= REPS // 2
        else:
            reps_done = elapsed >= seconds and reps >= MIN_TIMED_REPS
            half_way = elapsed >= seconds / 2
        if traced_pending and (half_way or reps_done):
            traced_pending = False
            traced = checked_run(w, seed, "traced", failures)
        elif reps_done:
            break
        else:
            reps += 1
            result = checked_run(w, seed, "plain", failures)
            if result is not None:
                plain.append(result)
    attempted = reps + 1

    digest = traced["digest"] if traced else None
    if digest is None and plain:
        digest = plain[0]["digest"]
    agreeing = [r for r in plain if r["digest"] == digest]
    for r in plain:
        if r["digest"] != digest:
            failures.append(f"digest {r['digest']} disagrees with {digest}")
    failed = attempted - (len(agreeing) + (1 if traced else 0))

    e2e = {}
    if agreeing:
        e2e["setup_s"] = summary([r["setup_s"] for r in agreeing],
                                 units["setup_s"])
        e2e["run_s"] = summary([r["run_s"] for r in agreeing], units["run_s"])
        e2e["peak_rss_mib"] = summary([r["peak_rss_mib"] for r in agreeing],
                                      units["peak_rss_mib"])
        if traced:
            rounds = traced["layers"]["proto.round.calls"]
            e2e["node_rounds_per_s"] = summary(
                [rounds / r["run_s"] for r in agreeing],
                units["node_rounds_per_s"])
    per_layer = {}
    if traced:
        per_layer = dict(traced["layers"])
        if agreeing:
            per_layer["trace.overhead_frac"] = (
                per_layer["trace.span_s"] / e2e["run_s"]["median"] - 1.0)

    ref = reference_digest(name, seed)
    return {
        "spec": spec, "world_jobs": jobs,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures,
        "digest": digest,
        "digest_vs_reference": ("no reference for this seed" if ref is None
                                else "same" if ref == digest
                                else f"changed (reference {ref})"),
        "checks": (traced or (plain[0] if plain else {})).get("checks", {}),
        "end_to_end": e2e, "per_layer": per_layer,
        "wall_s": time.monotonic() - start,
    }


def host_info():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = "unknown"
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                exe = line.split("=", 1)[1]
                compiler = subprocess.run(
                    [exe, "--version"], capture_output=True,
                    text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    sha = "unknown"
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                          "--show-toplevel", "HEAD"],
                         capture_output=True, text=True)
    lines = git.stdout.split()
    if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
        sha = lines[1]
    return {"nproc": NPROC, "cpu": cpu, "compiler": compiler,
            "build_type": "Release", "git_sha": sha}


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name, r, per_layer_units):
    print(f"== {name}: {r['spec']} (world_jobs={r['world_jobs']})")
    print(f"   why: {r['why']}")
    print(f"   runs {r['attempted']}, failed {r['failed']} "
          f"(failed_frac {r['failed_frac']:.3g}); digest {r['digest']} "
          f"[{r['digest_vs_reference']}]")
    for f in r["failures"]:
        print(f"   FAILURE: {f}")
    for k, v in sorted(r["checks"].items()):
        print(f"   check {k} = {fmt(v)}")
    for k, s in r["end_to_end"].items():
        print(f"   {k:<22} {fmt(s['median']):>12} {s['unit']:<6} "
              f"[q1 {fmt(s['q1'])}, q3 {fmt(s['q3'])}; "
              f"min {fmt(s['min'])}, max {fmt(s['max'])}; n={s['n']}]")
    for k, v in sorted(r["per_layer"].items()):
        unit = per_layer_units.get(k, "")
        print(f"   {k:<44} {fmt(v):>14} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help=f"time the untraced reps for this long "
                         f"(default: {REPS} reps)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BUILD / "results.json")
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"run.py: cannot read BENCHMARK.json: {e}")
        return 1
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if sorted(whys) != sorted(WORKLOADS):
        log("run.py: BENCHMARK.json and run.py list different workloads")
        return 1
    if not build():
        return 1

    names = args.workload or list(WORKLOADS)
    results = {"schema": 1, "seed": args.seed, "host": host_info(),
               "workloads": {}}
    for name in names:
        r = run_workload(name, args.seed, args.seconds, e2e_units)
        r["why"] = whys[name]
        results["workloads"][name] = r
        report(name, r, layer_units)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"results: {args.out}")

    wanted = layer_units if args.trace else e2e_units
    metrics = {}
    for name, r in results["workloads"].items():
        values = r["per_layer"] if args.trace else {
            k: s["median"] for k, s in r["end_to_end"].items()}
        prefix = f"{name}/" if len(names) > 1 else ""
        for k, unit in wanted.items():
            if k in values:
                metrics[prefix + k] = {"value": values[k], "unit": unit}
    attempted = sum(r["attempted"] for r in results["workloads"].values())
    failed = sum(r["failed"] for r in results["workloads"].values())
    complete = len(metrics) == len(wanted) * len(names)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
