#!/usr/bin/env python3
"""Determinism test for the campaign benchmark.

    python3 campaignbench/test_determinism.py

Runs every workload at a reduced campaign size, one round, twice with
one seed and once with another, through run.py. Asserts that

  - the deterministic counts (simulated and fast-forwarded cycles per
    verdict, dispatch leases, canonical-journal digest) repeat
    exactly under one seed;
  - a second seed changes the fault sample (the canonical journal)
    but not the golden digests or the window;
  - dispatch-systolic's canonical journal equals systolic-short's;
  - every run passes its own correctness gate. The counts are
    compared even when a gate fails, so a failure names both.

Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("cpu-l1d", "accel-dataflow", "systolic-short",
             "dispatch-systolic")
FAULTS = 24
SEEDS = (7, 8)


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--faults", str(FAULTS),
         "--rounds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = next(json.loads(l)["counts"] for l in lines
                  if l.startswith('{"counts"'))
    passed = (proc.returncode == 0 and result["correct"]
              and not result["failed"])
    return counts, passed


def main():
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    canon = {}
    for w in WORKLOADS:
        seeds = (SEEDS[0], SEEDS[0], SEEDS[1])
        runs = [run(w, seed) for seed in seeds]
        for (_, passed), seed in zip(runs, seeds):
            check(passed, "%s: seed %d passes its correctness gate"
                  % (w, seed))
        a, b, c = (counts for counts, _ in runs)
        for key in ("sim_cycles", "ff_cycles", "verdicts", "leases",
                    "canonical_digest", "stats_digest"):
            check(a[key] == b[key], "%s: %s repeats under one seed (%s)"
                  % (w, key, a[key]))
        check(a["canonical_digest"] != c["canonical_digest"],
              "%s: a second seed changes the fault sample" % w)
        for key in ("golden_digest", "stats_digest", "window"):
            check(a[key] == c[key], "%s: %s does not depend on the seed"
                  % (w, key))
        if w == "dispatch-systolic":
            check(a["leases"] > 0, "%s: leases were granted" % w)
        canon[w] = a["canonical_digest"]
    check(canon["dispatch-systolic"] == canon["systolic-short"],
          "dispatch-systolic canonical journal equals systolic-short's")
    if failures:
        sys.exit("%d determinism check(s) failed" % len(failures))


if __name__ == "__main__":
    main()
