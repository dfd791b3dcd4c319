#!/usr/bin/env python3
"""Steadiness report: repeats each workload and compares spreads to bounds.

    python3 perfbench/steady.py --runs 10 [--workloads chatty,bulk]
                                [--first-seed 1]

Runs perfbench/run.py with --trace 0 and BENCHMARK.json's run_seconds once
per seed (first-seed, first-seed+1, ...) for each workload and prints, for
every end-to-end metric, the median, the first and third quartiles, the
spread (Q3 - Q1) / median and its bound from BENCHMARK.json, flagging a
spread above a third of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("steady: %s seed %d failed" % (workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        values, failed = {}, 0
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i,
                              spec["run_seconds"])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s (%d runs, %d failed ops)" % (workload, args.runs, failed))
        print("  %-16s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bounds[name])
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %6.2f%s" %
                  (name, med, q1, q3, spread, bounds[name],
                   " !" if spread > bounds[name] / 3 else ""))
    print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
