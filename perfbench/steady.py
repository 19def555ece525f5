#!/usr/bin/env python3
"""Steadiness check: is one workload's end-to-end report repeatable?

    python3 perfbench/steady.py --workload gui_matrix --runs 10

Runs perfbench/run.py two sets of --runs times, for BENCHMARK.json's
run_seconds each, each run with another seed (seeds 1..runs, the same in
both sets), one set after the other.  For every end-to-end metric it prints
each set's median and quartile spread ((q3 - q1) / median, the quartiles of
Python's statistics.quantiles), and whether the benchmark's steadiness
rules hold: each spread within the metric's bound, setup_s's too, and
under a third of it for comfort; and the two sets' medians within the
bound of each other, in either direction.  Exits 1 when a rule fails.
The seeds differ between runs on purpose: the benchmark is judged on runs
made with different seeds, so a spread must hold what the inputs add to
what the host adds.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        sys.exit("run.py exited %d for seed %d" % (proc.returncode, seed))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print("seed %d: output check failed" % seed)
    return {k: v["value"] for k, v in result["metrics"].items()}


def apart(first, second):
    """How far `second` is from `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    return abs(second - first) / abs(first)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))

    sets = []
    for s in range(2):
        runs = []
        for seed in seeds:
            runs.append(one_run(args.workload, seed, seconds))
            print("set %d seed %d: %s" % (s + 1, seed, " ".join(
                "%s=%.6g" % kv for kv in runs[-1].items())), flush=True)
        sets.append(runs)

    ok = True
    print("\n%s, %d runs per set, %d s per run" % (args.workload, args.runs, seconds))
    print("%-16s %6s %12s %8s %12s %8s  %s" % (
        "metric", "bound", "median1", "spread1", "median2", "spread2", "verdict"))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        meds, spreads = [], []
        for runs in sets:
            values = [r[name] for r in runs]
            meds.append(stats.median(values))
            spreads.append(stats.quartile_spread(values))
        verdict = []
        if max(spreads) > bound:
            verdict.append("SPREAD>BOUND")
            ok = False
        elif max(spreads) > bound / 3:
            verdict.append("spread>bound/3")
        if apart(meds[0], meds[1]) > bound:
            verdict.append("SETS DISAGREE")
            ok = False
        print("%-16s %6.3f %12.6g %8.4f %12.6g %8.4f  %s" % (
            name, bound, meds[0], spreads[0], meds[1], spreads[1],
            " ".join(verdict) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
