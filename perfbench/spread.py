#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every workload named, runs the command from BENCHMARK.json once per
seed and prints, per end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of that median
(the figure each metric's `bound` is checked against). Run from the
repository root:

    python3 perfbench/spread.py --workloads serve --seeds 1,2,3,4,5
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<16} {'median':>12} {'iqr/med':>8} {'bound':>6} {'share':>6}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / bound
            if name != "setup_s":
                worst = max(worst, share)
            flag = "" if share < 1 / 3 else "  <-- over a third of its bound"
            print(f"  {name:<16} {med:>12.4f} {spread:>8.4f} {bound:>6.2f} {share:>6.2f}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in values))
    print(f"\nworst spread as a share of its bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
