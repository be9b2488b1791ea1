#!/usr/bin/env python3
"""Paper-pipeline benchmark: build the dsn library and the benchmark program
from this checkout's sources, then run one workload in one process.

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 30 --trace 0

Run it from the repository root. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; the lines before
it (each starting with '#') are the config/machine block, one line per
measured pass, the end-to-end table and, with --trace 1, the per-layer self
time table. The exit code is 0 only when every output check passed. Build
logs go to standard error; the build and the traced run's Chrome trace live
under .bench_build/ in the checkout.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("paper-eval", "flit-idle", "anneal")


def build():
    """Configure once, then build incrementally. Returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "pipeline_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def source_revision():
    """The git commit of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", REFERENCE, "--commit", source_revision()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
