#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 campaignbench/spread.py --workload cpu-l1d [--runs 10] \
        [--seconds 20]

Runs one workload --runs times, with seeds 1 to --runs, and prints
for every metric its median and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.
Compare the share with the metric's bound in BENCHMARK.json: a metric
is steady when its spread is well below its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            sys.exit("seed %d failed: %s" % (seed, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"])
            for n, m in result["metrics"].items())), flush=True)

    print("%-24s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print("%-24s %12.5g %8.3f %8s" % (name, med, (q3 - q1) / med,
                                          bounds.get(name, "-")))


if __name__ == "__main__":
    main()
