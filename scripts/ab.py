#!/usr/bin/env python3
"""Same-runner A/B of two commits over the repository benchmark.

    python3 scripts/ab.py [--base REF] [--workload W ...]

Checks out REF (default: the merge-base of HEAD and origin/main) and HEAD as
two git worktrees under a temporary directory. In each it runs

    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0

which builds that worktree's own copy of the library. Each workload runs PAIRS
pairs, alternating which side goes first. The workloads, the run length S and
the end-to-end metrics with their better-direction and bound come from
BENCHMARK.json.

For each workload and metric it prints both medians, the ratio head/base, the
base's interquartile range relative to its median, the pairs head won and a
verdict: better, neutral, unresolved (the base's own spread is wider than the
bound) or worse. Then it prints whether every run's output digest is equal and
the failed/attempted operation counts of each side.

Exit status 1 when a median is worse than its bound, the digests differ, head
fails a larger share of operations than base, or any run fails; 2 on a usage
or git error; 0 otherwise.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1


@dataclass
class Run:
    """One perfbench run: ok is False when it exited non-zero, printed no
    JSON line or reported itself incorrect."""
    ok: bool
    digest: str = None
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)


@dataclass
class Row:
    metric: str
    better: str
    base_median: float
    head_median: float
    ratio: float
    base_iqr: float  # relative to the base median
    wins: int
    pairs: int
    verdict: str


@dataclass
class Judgement:
    rows: list
    digests_equal: bool
    base_counts: tuple  # (failed, attempted)
    head_counts: tuple
    failures: list  # why the comparison fails; empty when it passes


def parse_run(returncode, stdout):
    """Reads the `digest:` line and the final JSON line of a run.py run."""
    lines = stdout.splitlines()
    if returncode != 0 or not lines:
        return Run(ok=False)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return Run(ok=False)
    digest = next((l.split()[1] for l in lines
                   if l.startswith("digest:") and len(l.split()) > 1), None)
    return Run(ok=bool(result.get("correct")) and digest is not None,
               digest=digest, attempted=int(result.get("attempted", 0)),
               failed=int(result.get("failed", 0)),
               metrics={k: v["value"]
                        for k, v in result.get("metrics", {}).items()})


def relative(value, ref):
    if ref == 0:
        return 0.0 if value == 0 else float("inf")
    return value / ref


def judge_metric(name, better, bound, base, head):
    """Verdict for one metric over paired runs (base[i] and head[i] ran as
    pair i). Follows the simplicity-review rules: worse when the median is
    worse than the bound; unresolved when the base's IQR is wider than the
    bound, unless every head run beats every base run; better when head won
    at least 9 in 10 pairs and the medians differ by more than the base IQR."""
    sign = 1.0 if better == "higher" else -1.0
    base_med = statistics.median(base)
    head_med = statistics.median(head)
    q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive")
                 if len(base) > 1 else (base[0], base[0], base[0]))
    iqr_rel = relative(q3 - q1, abs(base_med))
    ratio = relative(head_med, base_med)
    worse_by = sign * (1.0 - ratio)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    pairs = min(len(base), len(head))
    every_run_ahead = (min(head) > max(base) if sign > 0
                       else max(head) < min(base))
    if worse_by > bound:
        verdict = "worse"
    elif iqr_rel > bound:
        verdict = "better" if every_run_ahead else "unresolved"
    elif (sign * (head_med - base_med) > q3 - q1
          and wins * 10 >= 9 * pairs):
        verdict = "better"
    else:
        verdict = "neutral"
    return Row(name, better, base_med, head_med, ratio, iqr_rel, wins, pairs,
               verdict)


def judge(end_to_end, base_runs, head_runs):
    """Compares the runs of one workload. end_to_end is BENCHMARK.json's
    list of {name, better, bound}; the run lists are paired by index."""
    failures = []
    if not all(r.ok for r in base_runs + head_runs):
        failures.append("a run failed")
    rows = []
    base_ok = [r for r in base_runs if r.ok]
    head_ok = [r for r in head_runs if r.ok]
    if base_ok and head_ok:
        for m in end_to_end:
            base = [r.metrics[m["name"]] for r in base_ok]
            head = [r.metrics[m["name"]] for r in head_ok]
            row = judge_metric(m["name"], m["better"], m["bound"], base, head)
            rows.append(row)
            if row.verdict == "worse":
                failures.append(f"{m['name']} median worse than its bound "
                                f"{m['bound']:.0%}")
    digests = {r.digest for r in base_runs + head_runs if r.digest}
    digests_equal = len(digests) == 1
    if not digests_equal:
        failures.append(f"output digests differ: {sorted(digests)}")

    def counts(runs):
        return (sum(r.failed for r in runs), sum(r.attempted for r in runs))

    base_counts, head_counts = counts(base_runs), counts(head_runs)
    if (head_counts[0] * max(base_counts[1], 1) >
            base_counts[0] * max(head_counts[1], 1)):
        failures.append("head fails a larger share of operations than base")
    return Judgement(rows, digests_equal, base_counts, head_counts, failures)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_once(tree, workload, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    run = parse_run(proc.returncode, proc.stdout)
    if not run.ok:
        sys.stderr.write(proc.stderr[-4000:] + proc.stdout[-4000:])
    return run


def print_judgement(workload, j):
    for r in j.rows:
        print(f"{workload:14s} {r.metric:12s} {r.better:6s} "
              f"{r.base_median:>13.6g} {r.head_median:>13.6g} "
              f"{r.ratio:>7.3f} {r.base_iqr:>8.1%} "
              f"{r.wins:>3d}/{r.pairs:<3d} {r.verdict}")
    print(f"{workload:14s} digests {'equal' if j.digests_equal else 'DIFFER'}"
          f"; failed/attempted base {j.base_counts[0]}/{j.base_counts[1]}, "
          f"head {j.head_counts[0]}/{j.head_counts[1]}", flush=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="base ref (default: merge-base of "
                        "HEAD and origin/main)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    args = parser.parse_args()
    workloads = args.workload or names
    try:
        base_ref = args.base or git("merge-base", "HEAD", "origin/main")
        base_sha = git("rev-parse", "--verify", base_ref + "^{commit}")
        head_sha = git("rev-parse", "--verify", "HEAD^{commit}")
    except subprocess.CalledProcessError:
        print("ab.py: cannot resolve the base ref; pass --base", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="cloudcr-ab-"))
    trees = {"base": tmp / "base", "head": tmp / "head"}
    added = []
    try:
        for side, sha in (("base", base_sha), ("head", head_sha)):
            git("worktree", "add", "--detach", str(trees[side]), sha)
            added.append(trees[side])
        print(f"base {base_sha[:12]}  head {head_sha[:12]}  {PAIRS} pairs x "
              f"{bench['run_seconds']} s per workload, seed {SEED}")
        print(f"{'workload':14s} {'metric':12s} {'better':6s} "
              f"{'base median':>13s} {'head median':>13s} {'ratio':>7s} "
              f"{'base IQR':>8s} {'wins':>7s} verdict", flush=True)
        failed = False
        for workload in workloads:
            runs = {"base": [], "head": []}
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], workload,
                                               bench["run_seconds"]))
            j = judge(bench["end_to_end"], runs["base"], runs["head"])
            print_judgement(workload, j)
            for reason in j.failures:
                print(f"{workload:14s} FAIL: {reason}", flush=True)
            failed |= bool(j.failures)
        print("A/B:", "FAIL" if failed else "PASS")
        return 1 if failed else 0
    finally:
        for tree in added:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, stdout=subprocess.DEVNULL)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
