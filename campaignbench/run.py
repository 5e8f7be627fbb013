#!/usr/bin/env python3
"""Campaign-turnaround benchmark entry point.

Run from the root of a source checkout:

    python3 campaignbench/run.py --workload cpu-l1d --seed 1 --seconds 15 --trace 0

Builds the benchmark (and the MARVEL libraries it links) into
.bench_build/ with CMake, then runs one workload in its own process,
in a private directory under .bench_tmp/ that holds the run's journals
and unix socket and is removed afterwards. The last line of stdout is
the result object {"correct", "attempted", "failed", "metrics"}; the
process exits non-zero when the build, a correctness check or the run
fails. Traced runs (--trace 1) also leave their spans in
.bench_out/<workload>-<seed>.spans.json.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaignbench")
BINARY = os.path.join(BUILD, "campaignbench")
WORKLOADS = ("cpu-l1d", "accel-dataflow", "systolic-short",
             "dispatch-systolic")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "campaignbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("campaignbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--faults", type=int, help="campaign size override")
    ap.add_argument("--rounds", type=int, help="fixed round count")
    args = ap.parse_args()

    build()
    tmp = os.path.join(ROOT, ".bench_tmp",
                       "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(
               out_dir, "%s-%d.spans.json" % (args.workload, args.seed))]
    if args.faults:
        cmd += ["--faults", str(args.faults)]
    if args.rounds:
        cmd += ["--rounds", str(args.rounds)]
    # A terminated runner still stops and reaps the benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("campaignbench: terminated"))
    proc = subprocess.Popen(cmd, cwd=tmp, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("campaignbench: %s timed out after %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
