#!/bin/sh
# Smoke test for the query-hot-path benchmark: runs a tiny configuration
# end to end and checks the emitted JSON report is schema-complete. Keeps
# the perf-trajectory harness honest — a bench that stops emitting a metric
# breaks here, not in a later PR's before/after comparison.
set -e

BENCH="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

JSON="$WORK/report.json"
"$BENCH" --points=2000 --queries=200 --warmup=50 --json="$JSON" \
    > "$WORK/stdout.txt"
test -s "$JSON"

# The human-readable table went to stdout.
grep -q "speedup" "$WORK/stdout.txt"

# Top-level metadata.
grep -q '"bench": "micro_query_hotpath"' "$JSON"
grep -q '"seed": ' "$JSON"
grep -q '"points": 2000' "$JSON"
grep -q '"tree_pages": ' "$JSON"
grep -q '"configs": \[' "$JSON"

# All four serial configs are present.
grep -q '"config": "point_resident_serial"' "$JSON"
grep -q '"config": "region_resident_serial"' "$JSON"
grep -q '"config": "point_buffered_serial"' "$JSON"
grep -q '"config": "region_buffered_serial"' "$JSON"

# Every serial config carries the live and baseline metrics the perf
# trajectory compares across PRs.
for key in queries_per_sec baseline_queries_per_sec speedup_vs_baseline \
    ns_per_node_visit nodes_per_query hit_rate baseline_hit_rate \
    allocs_per_query; do
  test "$(grep -c "\"$key\": " "$JSON")" -ge 4
done

# The document is well-formed JSON with numeric (non-null) speedups.
python3 - "$JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
serial = doc["configs"]
assert len(serial) == 4, serial
for c in serial:
    assert isinstance(c["speedup_vs_baseline"], (int, float)), c
    assert isinstance(c["allocs_per_query"], (int, float)), c
EOF

echo "bench smoke test passed"
