#!/usr/bin/env python3
"""Shared plumbing for the committed-bench CI gates (check_bench_*.py).

Every bench gate validates one micro_* JSON report against the shape its
committed BENCH_*.json baseline promised, in two modes:

  * committed (default): the report is the repository-root baseline; beyond
    the shape, bench-specific committed-mode checks assert the structural
    headline claims future PRs must not regress (sweep extents, scale rows,
    speedup floors) — never absolute timings.
  * --smoke: the report came from a fresh small-n CI run; only the shape and
    the per-row correctness checks are gated, which are runner-independent,
    plus any bench-specific smoke checks (e.g. that the correctness verdicts
    a fresh run must carry are present).

A gate never stops at the first failure: every violation is collected and
listed, so a red CI run shows the whole picture at once. Exit 0 prints
"NAME-bench-gate: all checks passed (MODE, N rows)"; anything else exits 1.

Usage from a gate script:

    GATE = BenchGate(name="sim", bench="micro_sim", unit="cycles_per_sec",
                     top_keys=TOP_KEYS, row_keys=ROW_KEYS, row_name=row_name,
                     check_row=check_row, check_committed=check_committed,
                     doc=__doc__)
    sys.exit(GATE.run())

check_row(gate, path, row) runs in both modes on rows that have all required
keys; check_committed(gate, path, rows) runs only in committed mode and
check_smoke(gate, path, rows) only in --smoke mode. All report violations
through gate.fail(msg). Rows carrying a "check" field are
gated on it equaling "ok" in both modes — that field is always a correctness
verdict computed by the bench binary itself.
"""
import argparse
import json
import sys


class BenchGate:
    def __init__(self, *, name, bench, unit, top_keys, row_keys, row_name,
                 check_row=None, check_committed=None, check_smoke=None,
                 doc=None,
                 smoke_help="fresh CI run: gate shape + per-row correctness "
                            "checks only, no timing or sweep-extent gates"):
        self.name = name
        self.bench = bench
        self.unit = unit
        self.top_keys = set(top_keys)
        self.row_keys = set(row_keys)
        self.row_name = row_name
        self.check_row = check_row
        self.check_committed = check_committed
        self.check_smoke = check_smoke
        self.doc = doc
        self.smoke_help = smoke_help
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)

    def check_shape(self, path, report):
        """Validate top-level and per-row shape; returns the rows list."""
        if set(report) != self.top_keys:
            self.fail(f"{path}: top-level keys {sorted(report)} != "
                      f"{sorted(self.top_keys)}")
            return []
        if report["bench"] != self.bench:
            self.fail(f"{path}: bench {report['bench']!r} != {self.bench!r}")
        if report["unit"] != self.unit:
            self.fail(f"{path}: unit {report['unit']!r} != {self.unit!r}")
        rows = report["results"]
        if not rows:
            self.fail(f"{path}: empty results array")
            return []
        for row in rows:
            missing = sorted(self.row_keys - set(row))
            if missing:
                self.fail(f"{path}: row {self.row_name(row)} missing keys "
                          f"{missing}")
                continue
            if self.check_row:
                self.check_row(self, path, row)
            # 'check' is a correctness verdict computed by the bench binary
            # (invariant verification, exact cross-checks). Any value but
            # "ok" is a failure in every mode.
            if "check" in row and row["check"] != "ok":
                self.fail(f"{path}: row {self.row_name(row)} "
                          f"check={row['check']!r}")
        return rows

    def run(self, argv=None):
        parser = argparse.ArgumentParser(description=self.doc)
        parser.add_argument("report",
                            help=f"{self.bench} JSON report to validate")
        parser.add_argument("--smoke", action="store_true",
                            help=self.smoke_help)
        args = parser.parse_args(argv)
        self.errors = []

        try:
            with open(args.report) as f:
                report = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{self.name}-bench-gate: FAIL {args.report}: "
                  f"cannot load JSON: {e}", file=sys.stderr)
            return 1

        rows = self.check_shape(args.report, report)
        if rows and not args.smoke and self.check_committed:
            self.check_committed(self, args.report, rows)
        if rows and args.smoke and self.check_smoke:
            self.check_smoke(self, args.report, rows)

        if self.errors:
            print(f"{self.name}-bench-gate: {len(self.errors)} check(s) "
                  f"failed", file=sys.stderr)
            for e in self.errors:
                print(f"  FAIL {e}", file=sys.stderr)
            return 1
        mode = "smoke" if args.smoke else "committed"
        print(f"{self.name}-bench-gate: all checks passed "
              f"({mode}, {len(rows)} rows)")
        return 0
