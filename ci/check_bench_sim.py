#!/usr/bin/env python3
"""CI shape gate for the committed simulator-core benchmark (BENCH_sim.json).

Validates a micro_sim JSON report. Two modes:

  * committed (default): the report is the repository-root BENCH_sim.json —
    the perf trajectory the active-set core promised. Beyond the shape, this
    asserts the headline claims future PRs must not regress structurally:
    every recorded byte-equivalence check passed (the committed rows compare
    the retired legacy core with the active core), the sweep covers multiple sizes /
    loads / shard counts, at least one n >= 65536 configuration ran (the
    table-free-policy scale target), and at least one n >= 16384 row at the
    lowest swept load shows >= 10x speedup over the legacy full-scan core.
    The committed legacy_* / speedup columns are a frozen record: that core
    is retired, and a fresh micro_sim run no longer writes them.
  * --smoke: the report came from a fresh small-n CI run used as a
    correctness + JSON-shape smoke; only the shape and the shard-equivalence
    checks are gated — never timings, speedups, or sweep extents, which
    depend on the runner. Every row whose sim_threads differs from the first
    swept shard count must carry check == "ok": micro_sim --check compares
    it byte-for-byte with the first shard count's run at the same (n, load).

Exits 1 listing every failed check — never just the first.
"""
import sys

from bench_gate import BenchGate

TOP_KEYS = {"bench", "unit", "pattern", "warmup_cycles", "measure_cycles",
            "drain_cycles", "results"}
ROW_KEYS = {"topology", "n", "hosts", "load_gbps_per_host", "sim_threads",
            "cycles", "wall_ms", "cycles_per_sec"}
LEGACY_KEYS = {"legacy_wall_ms", "legacy_cycles_per_sec", "speedup"}

SPEEDUP_FLOOR = 10.0
SCALE_N = 65536
SPEEDUP_N = 16384


def row_name(row):
    return (f"(n={row.get('n')}, load={row.get('load_gbps_per_host')}, "
            f"threads={row.get('sim_threads')})")


def check_row(gate, path, row):
    if row["cycles"] <= 0 or row["cycles_per_sec"] <= 0:
        gate.fail(f"{path}: row {row_name(row)} has non-positive throughput")
    # Legacy comparison fields (committed rows only) travel as a unit; a
    # partial set means the row was edited by hand.
    present = LEGACY_KEYS & set(row)
    if present and present != LEGACY_KEYS:
        gate.fail(f"{path}: row {row_name(row)} has only {sorted(present)} of "
                  f"the legacy-comparison keys {sorted(LEGACY_KEYS)}")


def check_committed(gate, path, rows):
    ns = {row["n"] for row in rows}
    loads = {row["load_gbps_per_host"] for row in rows}
    threads = {row["sim_threads"] for row in rows}
    if len(ns) < 2:
        gate.fail(f"{path}: sweep covers a single size {sorted(ns)}; need >= 2")
    if len(loads) < 2:
        gate.fail(f"{path}: sweep covers a single load {sorted(loads)}; "
                  "need >= 2")
    if len(threads) < 2:
        gate.fail(f"{path}: sweep covers a single shard count "
                  f"{sorted(threads)}; need >= 2")
    if not any(row["n"] >= SCALE_N for row in rows):
        gate.fail(f"{path}: no n >= {SCALE_N} row — the scale target is gone")

    checked = [row for row in rows if "check" in row]
    if not checked:
        gate.fail(f"{path}: no row carries a legacy byte-equivalence check")

    low_load = min(loads)
    headline = [row for row in rows
                if row["n"] >= SPEEDUP_N
                and row["load_gbps_per_host"] == low_load
                and "speedup" in row]
    if not headline:
        gate.fail(f"{path}: no n >= {SPEEDUP_N} row at the lowest load "
                  f"({low_load}) compares against the legacy core")
    elif max(row["speedup"] for row in headline) < SPEEDUP_FLOOR:
        best = max(headline, key=lambda row: row["speedup"])
        gate.fail(f"{path}: best low-load speedup at n >= {SPEEDUP_N} is "
                  f"{best['speedup']:.2f}x {row_name(best)}; the active core "
                  f"promises >= {SPEEDUP_FLOOR:.0f}x")


def check_smoke(gate, path, rows):
    # bench_gate fails any check value but "ok"; here a missing verdict
    # fails too, so a fresh report cannot pass without a shard comparison.
    first_threads = rows[0].get("sim_threads")
    compared = [row for row in rows if row.get("sim_threads") != first_threads]
    if not compared:
        gate.fail(f"{path}: every row ran sim_threads={first_threads}; the "
                  "smoke needs a second shard count to compare against")
    for row in compared:
        if "check" not in row:
            gate.fail(f"{path}: row {row_name(row)} has no shard-equivalence "
                      f"check against sim_threads={first_threads} (run "
                      "micro_sim with --check true)")


GATE = BenchGate(name="sim", bench="micro_sim", unit="cycles_per_sec",
                 top_keys=TOP_KEYS, row_keys=ROW_KEYS, row_name=row_name,
                 check_row=check_row, check_committed=check_committed,
                 check_smoke=check_smoke, doc=__doc__,
                 smoke_help="fresh CI run: gate shape + equivalence checks "
                            "only, no timing or sweep-extent gates")

if __name__ == "__main__":
    sys.exit(GATE.run())
