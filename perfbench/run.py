#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload month_replay --seed 1 --seconds 25 --trace 0

Builds the cloudcr library and the perfbench binary from this checkout
(Release, into .bench_build/perfbench), runs one workload, and passes the
binary's report through. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Nothing is printed on that
line when the build or the run fails; the exit code is then non-zero.

    python3 perfbench/run.py --self-check --workload service_mixed --seed 1 --seconds 25

runs the traced workload twice on one seed and once on the next, and checks
that the layer counts repeat exactly and that the second seed changes the
generated inputs.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175

# Counts that must repeat exactly for one seed (per-layer metric names).
EXACT_COUNTS = [
    "sim.events", "sim.checkpoints", "core.next_interval_calls",
    "sched.decide_calls", "api.trace_reads", "api.rows_read", "ingest.rows",
    "svc.hits", "svc.misses", "svc.resumes",
]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the perfbench binary; returns its path or None."""
    build_dir = ROOT / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring again is cheap once cached, and repairs a build directory
    # an interrupted first configure left behind.
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    binary = build_dir / "perfbench"
    return binary if binary.exists() else None


def expected_names(trace):
    """Metric names BENCHMARK.json lists for this mode (None if absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    doc = json.loads(path.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (stdout lines, final JSON) or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"{workload} exited with code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        log("the last line of perfbench's output is not JSON")
        return None
    names = expected_names(trace)
    if names is not None and list(result["metrics"]) != names:
        sys.stderr.write(proc.stdout)
        log("perfbench's metrics do not match BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(names))}")
        return None
    return lines, result


def digest_of(lines):
    return next(l.split()[1] for l in lines if l.startswith("digest:"))


def self_check(binary, args):
    def traced(seed):
        out = run_binary(binary, args.workload, seed, args.seconds, True)
        if out is None:
            sys.exit(1)
        lines, result = out
        digest = digest_of(lines)
        counts = {k: result["metrics"][k]["value"] for k in EXACT_COUNTS}
        return result, digest, counts

    first, digest1, counts1 = traced(args.seed)
    second, digest2, counts2 = traced(args.seed)
    _, digest3, counts3 = traced(args.seed + 1)
    ok = first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        same = counts1[name] == counts2[name]
        ok &= same
        print(f"{name:28s} {counts1[name]:>16.0f} {counts2[name]:>16.0f} "
              f"{'same' if same else 'DIFFERS'}   seed+1: {counts3[name]:.0f}")
    ok &= digest1 == digest2
    print(f"digest seed {args.seed}: {digest1} {digest2}")
    changed = digest3 != digest1
    print(f"digest seed {args.seed + 1}: {digest3} "
          f"({'inputs changed' if changed else 'same output'})")
    if args.workload != "repro_matrix":
        # The matrix runs the paper's fixed registry, so only the other
        # workloads draw their inputs from the seed.
        ok &= changed
    print("self-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["month_replay", "repro_matrix",
                                 "service_mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary, args)
    out = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    if out is None:
        return 1
    lines, _ = out
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
