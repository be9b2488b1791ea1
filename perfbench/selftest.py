#!/usr/bin/env python3
"""Self-test of the paper-pipeline benchmark, at the tiny size (a few seconds
in all). Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that
  * an untraced run at the reference seed passes its digest checks, prints
    every end_to_end metric of BENCHMARK.json with its unit, and lists all
    eight end-to-end figures of the workload table;
  * a traced run prints every per_layer metric with its unit and writes a
    Chrome trace;
  * a run against a reference file with one corrupted digest reports
    failed > 0 and correct = false, and exits non-zero;
  * a second seed runs with invariant checks only and passes.
Exits 0 when all checks hold.
"""
import json
import os
import subprocess
import sys

import run

TABLE = ("pipeline_s", "routes_per_s", "flows_per_s", "sim_cycles_per_s",
         "proposals_per_s", "setup_s", "peak_rss_mb", "failed_frac")


def invoke(workload, seed, trace, refs, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--size", "tiny", "--seconds", "0",
           "--seed", str(seed), "--trace", str(trace), "--refs", refs, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, result


def main():
    if not run.build():
        return 2
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(run.REFERENCE) as f:
        reference = json.load(f)

    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def has_metrics(result, specs):
        return result is not None and all(
            result["metrics"].get(m["name"], {}).get("unit") == m["unit"] for m in specs)

    for workload in run.WORKLOADS:
        rc, lines, result = invoke(workload, reference["seed"], 0, run.REFERENCE)
        expect(rc == 0 and result is not None and result["correct"]
               and result["failed"] == 0 and result["attempted"] >= 1,
               workload + ": reference seed passes its digest checks")
        expect('"digests_checked":true' in lines[0],
               workload + ": digests were checked at the reference seed")
        expect(has_metrics(result, bench["end_to_end"]),
               workload + ": every end_to_end metric printed with its unit")
        expect(all(any(l.startswith("#   " + name + " ") for l in lines) for name in TABLE),
               workload + ": all eight end-to-end figures listed")

        trace_path = os.path.join(run.OUT_DIR, "selftest-%s.trace.json" % workload)
        rc, _, result = invoke(workload, reference["seed"], 1, run.REFERENCE,
                               ("--trace-out", trace_path))
        expect(rc == 0 and has_metrics(result, bench["per_layer"]),
               workload + ": every per_layer metric printed with its unit")
        with open(trace_path) as f:
            expect(len(json.load(f)["traceEvents"]) > 0, workload + ": Chrome trace written")

        corrupt = json.loads(json.dumps(reference))
        digests = corrupt["digests"]["tiny"][workload]
        first = sorted(digests)[0]
        digests[first] = "0" * 16
        corrupt_path = os.path.join(run.OUT_DIR, "selftest-corrupt-reference.json")
        with open(corrupt_path, "w") as f:
            json.dump(corrupt, f)
        rc, _, result = invoke(workload, reference["seed"], 0, corrupt_path)
        expect(rc != 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               workload + ": corrupted digest for %s fails the run" % first)

        rc, lines, result = invoke(workload, reference["seed"] + 1, 0, run.REFERENCE)
        expect(rc == 0 and result is not None and result["correct"]
               and '"digests_checked":false' in lines[0],
               workload + ": second seed passes on invariant checks alone")

    print("selftest: %s" % ("PASS" if not failures else "%d FAILED" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
