#!/usr/bin/env python3
"""Calibration: run every workload N times, each with another seed, and
print for each metric the interquartile distance as a share of the
median (statistics.quantiles(values, n=4)), next to its bound.

    python3 bench/spread.py [--runs 10] [--trace 0] [--workload NAME ...]

Run from the root of the checkout. A metric whose spread exceeds a third
of its bound is marked; the issue's rule is to move such a metric out of
end_to_end rather than widen the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--trace", type=int, default=0)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--workload", action="append")
ap.add_argument("--values", action="store_true", help="also print each run's value, in run order")
args = ap.parse_args()

bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
for name in args.workload or [w["name"] for w in spec["workloads"]]:
    values, walls = {}, []
    for i in range(args.runs):
        t0 = time.time()
        run = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(args.first_seed + i),
                               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"{name} seed {args.first_seed + i}: exit {run.returncode}\n{run.stderr}")
        walls.append(time.time() - t0)
        line = json.loads(run.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            sys.exit(f"{name} seed {args.first_seed + i}: correct={line['correct']} failed={line['failed']}")
        for metric, v in line["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    print(f"{name}: {args.runs} runs, wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for metric, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        mark = ""
        if bound is not None and metric != "setup_s" and spread > bound / 3:
            mark = "  <-- above a third of the bound"
        print(f"  {metric:32s} median {med:14.4f}  spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + mark)
        if args.values:
            print("      " + " ".join(f"{v:.4g}" for v in vs))
