#!/usr/bin/env python3
"""Compare benchmark reports and gate on throughput regressions.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [CANDIDATE.json ...]
                        [--threshold 0.10]

All files must be the same kind of report:

  * a bench report (BENCH_*.json: {"bench": ..., "configs": [...]}) — rows
    are matched by their "config" name and the gated metric is
    "queries_per_sec" ("updates_per_sec" for the update benches,
    "batches_per_sec" for the WAL group-commit bench, whose
    commits_per_sec counts commit slices rather than work done);
  * an engine run report (rtb_cli run output: {"report": "rtb-run", ...}) —
    rows are matched by class "label" (plus the "totals" row) and the gated
    metric is "queries_per_second".

Several CANDIDATE files are repeated runs of one binary: each row's
gated throughput is the median over the runs, so a single run slowed by
a busy host cannot fail the gate on its own, while a regression that
shows in most runs still does. For every baseline row the script prints
the throughput delta plus any other shared numeric metrics of the first
candidate that moved. It exits non-zero iff some row's median throughput
regressed by more than --threshold (default 10%), which makes it usable
as a perf gate:

    for i in 1 2 3; do build/bench/micro_batch_query --json=/tmp/new$i.json; done
    tools/bench_diff.py BENCH_micro_batch_query.json /tmp/new[123].json

Rows that exist only in the candidates are reported but never fail the
gate, so adding a configuration does not require a baseline refresh in the
same change. A baseline row missing from any candidate fails the gate: a bench
config that silently stopped running (or was renamed without refreshing
the baseline) would otherwise pass precisely because its regression became
invisible.
"""

import argparse
import json
import statistics
import sys

# The first key a row reports (non-zero) is its gated throughput. The WAL
# bench's rows carry both batches_per_sec and commits_per_sec; batches come
# first because a no-steal pool commits a drain in more or fewer slices as
# the pool's room changes, so commits/s can fall while the work done rises.
THROUGHPUT_KEYS = ("queries_per_sec", "queries_per_second",
                   "updates_per_sec", "batches_per_sec", "commits_per_sec")
# Secondary metrics worth echoing when they move by more than 1%.
INFO_DELTA = 0.01


def load_rows(path):
    """Returns (kind, {row_name: {metric: value}}) for one report file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    if isinstance(doc.get("configs"), list):
        kind = "bench:%s" % doc.get("bench", "?")
        for cfg in doc["configs"]:
            name = cfg.get("config")
            if name is not None:
                rows[name] = cfg
    elif doc.get("report") == "rtb-run":
        kind = "rtb-run:%s" % doc.get("name", "?")
        for cls in doc.get("classes", []):
            name = cls.get("label")
            if name is not None:
                rows[name] = cls
        if isinstance(doc.get("totals"), dict):
            rows["totals"] = doc["totals"]
    else:
        sys.exit("%s: not a bench report or rtb-run report" % path)
    return kind, rows


def throughput(row):
    for key in THROUGHPUT_KEYS:
        value = row.get(key)
        if isinstance(value, (int, float)) and value > 0:
            return float(value)
    return None


def main():
    parser = argparse.ArgumentParser(
        description="Diff benchmark reports; fail on regression.")
    parser.add_argument("baseline")
    parser.add_argument("candidates", nargs="+", metavar="candidate")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="maximum tolerated fractional throughput drop (default 0.10)")
    args = parser.parse_args()

    base_kind, base = load_rows(args.baseline)
    runs = []
    for path in args.candidates:
        cand_kind, rows = load_rows(path)
        if base_kind.split(":")[0] != cand_kind.split(":")[0]:
            sys.exit("report kinds differ: %s vs %s" % (base_kind, cand_kind))
        runs.append((path, rows))
    cand = runs[0][1]

    regressions = []
    missing = []
    print("%-36s %14s %14s %8s" % ("row", "baseline q/s", "candidate q/s",
                                   "delta"))
    for name in base:
        if any(name not in rows for _, rows in runs):
            missing.append(name)
            print("%-36s only in baseline  << MISSING" % name)
            continue
        b = throughput(base[name])
        cs = [(path, throughput(rows[name])) for path, rows in runs]
        if b is None and all(c is None for _, c in cs):
            continue
        for path, c in [(args.baseline, b)] + cs:
            if c is None:
                # One side has a gateable throughput metric and another
                # does not — a silent skip here would pass a report the
                # gate never actually examined. Name the offender and stop.
                sys.exit(
                    "%s: row %r has none of the recognized throughput "
                    "metrics (%s) but another report does — refresh the "
                    "baseline or fix the bench output" %
                    (path, name, ", ".join(THROUGHPUT_KEYS)))
        c = statistics.median(c for _, c in cs)
        delta = (c - b) / b
        flag = ""
        if delta < -args.threshold:
            regressions.append((name, delta))
            flag = "  << REGRESSION"
        print("%-36s %14.0f %14.0f %+7.1f%%%s" % (name, b, c, 100 * delta,
                                                  flag))
        # Echo any other shared numeric metric that moved noticeably.
        for key in sorted(set(base[name]) & set(cand[name])):
            if key in THROUGHPUT_KEYS:
                continue
            bv, cv = base[name][key], cand[name][key]
            if not (isinstance(bv, (int, float)) and
                    isinstance(cv, (int, float))):
                continue
            if isinstance(bv, bool) or isinstance(cv, bool):
                continue
            if bv != 0 and abs(cv - bv) / abs(bv) > INFO_DELTA:
                print("    %-32s %14g %14g" % (key, bv, cv))
    for name in sorted(set().union(*(rows for _, rows in runs)) - set(base)):
        print("%-36s only in candidate" % name)

    failed = False
    if missing:
        print("\n%d baseline row(s) missing from the candidate (a dropped "
              "bench config cannot pass the gate):" % len(missing))
        for name in missing:
            print("  %s" % name)
        failed = True
    if regressions:
        print("\n%d row(s) regressed more than %.0f%% (median of %d run(s)):" %
              (len(regressions), 100 * args.threshold, len(runs)))
        for name, delta in regressions:
            print("  %s: %.1f%%" % (name, 100 * delta))
        failed = True
    if failed:
        return 1
    print("\nno throughput regression beyond %.0f%%" %
          (100 * args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())
