#!/usr/bin/env python3
"""Tests for tools/bench_diff.py on synthetic bench reports.

    python3 tests/bench_diff_test.py tools/bench_diff.py

The gate takes the median throughput of several candidate runs per row:
one slow run out of three passes, two slow runs out of three fail, and a
baseline row missing from a candidate fails whatever the throughput. A WAL
bench row is gated on batches_per_sec, not on commits_per_sec.
"""

import json
import os
import subprocess
import sys
import tempfile

BASE_QPS = 1000.0
PASS_QPS = 950.0  # -5%: within the 0.25 threshold.
FAIL_QPS = 500.0  # -50%: beyond it.


def report(rows):
    return {"bench": "synthetic",
            "configs": [{"config": name, "queries_per_sec": qps}
                        for name, qps in rows.items()]}


def gate(tmp, baseline, candidates):
    paths = []
    for i, doc in enumerate([baseline] + candidates):
        path = os.path.join(tmp, "r%d.json" % i)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run(
        [sys.executable, sys.argv[1], "--threshold", "0.25"] + paths,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def wal_report(commits_per_sec, batches_per_sec):
    return {"bench": "micro_wal_commit",
            "configs": [{"config": "window_8_smallpool",
                         "commits_per_sec": commits_per_sec,
                         "batches_per_sec": batches_per_sec}]}


def main():
    base = report({"a": BASE_QPS, "b": BASE_QPS})
    ok = report({"a": PASS_QPS, "b": PASS_QPS})
    slow = report({"a": FAIL_QPS, "b": PASS_QPS})
    # (name, candidate runs, expected exit code, text the output must hold)
    cases = [
        ("median of (fail, pass, pass) passes", [slow, ok, ok], 0,
         "no throughput regression"),
        ("median of (fail, fail, pass) fails", [slow, slow, ok], 1,
         "<< REGRESSION"),
        ("one failing run fails", [slow], 1, "<< REGRESSION"),
        ("a row missing from one run fails",
         [ok, report({"a": PASS_QPS}), ok], 1, "<< MISSING"),
        ("a row only in a candidate passes",
         [report({"a": PASS_QPS, "b": PASS_QPS, "c": 1.0})] * 3, 0,
         "only in candidate"),
    ]
    # (name, baseline, candidate runs, expected exit code, output text)
    wal_base = wal_report(17434.0, 2054.0)
    cases = [(name, base, runs, want, text)
             for name, runs, want, text in cases] + [
        ("WAL row: commits/s down, batches/s up passes", wal_base,
         [wal_report(12345.0, 2416.0)] * 3, 0, "no throughput regression"),
        ("WAL row: batches/s down fails", wal_base,
         [wal_report(17434.0, 1000.0)] * 3, 1, "<< REGRESSION"),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, baseline, candidates, want, text in cases:
            code, out = gate(tmp, baseline, candidates)
            if code != want or text not in out:
                failures += 1
                print("FAIL: %s: exit %d, want %d\n%s" % (name, code, want,
                                                          out))
            else:
                print("ok:   %s" % name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
