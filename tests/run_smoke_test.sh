#!/bin/sh
# Smoke test for `rtb_cli run`: executes a declarative experiment spec end
# to end and checks the emitted run report is schema-complete, well-formed
# JSON carrying both measured and model-predicted disk accesses.
set -e

CLI="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/spec.json" <<'EOF'
{
  "name": "smoke",
  "dataset": {"kind": "uniform", "n": 5000, "seed": 42},
  "tree": {"fanout": 25, "algo": "HS"},
  "pool": {"buffer_pages": 50, "policy": "LRU", "pinned_levels": 1},
  "workload": {
    "warmup": 1000,
    "classes": [
      {"label": "point", "model": "uniform", "count": 3000},
      {"label": "region", "model": "uniform", "qx": 0.02, "qy": 0.02,
       "count": 1000}
    ]
  },
  "run": {"seed": 9}
}
EOF

# Human summary to stdout, JSON to an explicit --out path.
"$CLI" run "$WORK/spec.json" --out="$WORK/report.json" > "$WORK/stdout.txt"
test -s "$WORK/report.json"
grep -q "measured" "$WORK/stdout.txt"
grep -q "predicted" "$WORK/stdout.txt"
grep -q "hit rate" "$WORK/stdout.txt"

# Schema keys in the emitted document.
grep -q '"report": "rtb-run"' "$WORK/report.json"
grep -q '"schema_version": 1' "$WORK/report.json"
grep -q '"spec": {' "$WORK/report.json"
grep -q '"tree": {' "$WORK/report.json"
grep -q '"phases": {' "$WORK/report.json"
grep -q '"pool": {' "$WORK/report.json"
grep -q '"totals": {' "$WORK/report.json"
grep -q '"classes": \[' "$WORK/report.json"
grep -q '"predicted": {' "$WORK/report.json"

# --out=- streams only the JSON document, so it pipes straight into a
# parser; verify structure and that measured + predicted are both present.
"$CLI" run "$WORK/spec.json" --out=- > "$WORK/piped.json"
python3 - "$WORK/piped.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["report"] == "rtb-run", doc
assert doc["schema_version"] == 1, doc
assert doc["pool"]["pinned_pages"] >= 1, doc["pool"]
assert doc["totals"]["queries"] == 4000, doc["totals"]
classes = doc["classes"]
assert [c["label"] for c in classes] == ["point", "region"], classes
for c in classes:
    assert c["disk_accesses"] >= 0, c
    assert isinstance(c["mean_disk_accesses"], (int, float)), c
    pred = c["predicted"]
    assert pred["disk_accesses"] > 0, pred
    assert pred["feasible"] is True, pred
EOF

# Without --out the report lands in RUN_<name>.json in the cwd.
( cd "$WORK" && "$CLI" run spec.json > /dev/null )
test -s "$WORK/RUN_smoke.json"

# A malformed spec must fail with a diagnostic, not crash.
echo '{"dataset": {"kind": "nope"}}' > "$WORK/bad.json"
if "$CLI" run "$WORK/bad.json" 2>/dev/null; then exit 1; fi
if "$CLI" run "$WORK/missing.json" 2>/dev/null; then exit 1; fi

echo "run smoke test passed"
