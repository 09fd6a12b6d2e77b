#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, next to its bound.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
                                [--workloads a,b] [--out spread.json]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run length from BENCHMARK.json, then prints, per workload and metric, the
median and the interquartile distance as a share of the median
(statistics.quantiles(values, n=4)), against the metric's bound. Exits 1
if any run fails or any spread other than setup_s exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      + proc.stderr[-2000:], file=sys.stderr)
                ok = False
                continue
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
        report[workload] = {}
        print(f"{workload}  ({args.seeds} seeds from {args.first_seed})")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok" if spread <= bounds[name] else "OVER"
            if spread <= bounds[name] / 3:
                verdict = "ok (< bound/3)"
            if name != "setup_s" and spread > bounds[name]:
                ok = False
            report[workload][name] = {"median": med, "spread": spread,
                                      "bound": bounds[name], "values": vals}
            print(f"  {name:16s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.3f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
