#!/usr/bin/env bash
# Work-counter regression smoke: re-runs the deterministic E9 sweep counters
# (`ic_state_counts --counters`) and compares them against the committed
# BENCH_ic.json. Counters are exact work counts (states interned, frontier
# pushes, guard intersections, …), not wall times, so they are stable across
# machines — an *increase* beyond the tolerance means the engine started
# doing more work per instance and fails the check. Decreases (improvements)
# and new counter keys only print.
#
# It then re-runs the FD-set matrix counters (`fdset_matrix --counters`) and
# requires every `cells_checked`, `rows_implied` and `parity_mismatches` row
# to equal BENCH_fdset.json exactly: they count the cells the matrix ran and
# the rows it dropped, so any change is a change in work. The `*_nanos` rows
# are wall times and stay unchecked.
#
# Usage: scripts/counter_smoke.sh [tolerance-percent] (default 10)
set -euo pipefail

cd "$(dirname "$0")/.."
tol="${1:-10}"

raw=$(mktemp)
fdset=$(mktemp)
trap 'rm -f "$raw" "$fdset"' EXIT

cargo run --release -p regtree-bench --example ic_state_counts -- --counters >"$raw"

python3 - "$raw" BENCH_ic.json "$tol" <<'EOF'
import json, re, sys

raw, committed, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(committed, encoding="utf-8") as fh:
    baseline = {k: v for k, v in json.load(fh).items() if k.startswith("counters/")}

current = {}
line_re = re.compile(r"^(counters/\S+) (\d+)$")
with open(raw, encoding="utf-8") as fh:
    for line in fh:
        m = line_re.match(line.strip())
        if m:
            current[m.group(1)] = int(m.group(2))

if not current:
    sys.exit("counter_smoke.sh: no counter lines parsed")

regressions, improved, new = [], 0, 0
for key, now in sorted(current.items()):
    was = baseline.get(key)
    if was is None:
        new += 1
        continue
    # Absolute slack of 2 keeps tiny counters from tripping on ±1 noise
    # in future reruns; counters today are fully deterministic.
    allowed = was + max(was * tol / 100.0, 2)
    if now > allowed:
        regressions.append((key, was, now))
    elif now < was:
        improved += 1

for key, was, now in regressions:
    print(f"REGRESSION {key}: {was} -> {now} (> {tol}% tolerance)")
print(
    f"counter_smoke: {len(current)} counters checked, {improved} improved, "
    f"{new} new, {len(regressions)} regressions (tolerance {tol}%)"
)
sys.exit(1 if regressions else 0)
EOF

cargo run --release -p regtree-bench --example fdset_matrix -- --counters >"$fdset"

python3 - "$fdset" BENCH_fdset.json <<'EOF'
import json, re, sys

raw, committed = sys.argv[1], sys.argv[2]
exact = ("/cells_checked", "/rows_implied", "/parity_mismatches")
with open(committed, encoding="utf-8") as fh:
    baseline = {k: v for k, v in json.load(fh).items() if k.endswith(exact)}

current = {}
line_re = re.compile(r"^(counters/fdset/\S+) (\d+)$")
with open(raw, encoding="utf-8") as fh:
    for line in fh:
        m = line_re.match(line.strip())
        if m and m.group(1).endswith(exact):
            current[m.group(1)] = int(m.group(2))

mismatches = [
    (key, baseline.get(key), current.get(key))
    for key in sorted(baseline.keys() | current.keys())
    if baseline.get(key) != current.get(key)
]
for key, was, now in mismatches:
    print(f"MISMATCH {key}: committed {was}, now {now}")
print(
    f"counter_smoke: {len(current)} fdset counters checked exactly, "
    f"{len(mismatches)} mismatches"
)
sys.exit(1 if mismatches or not current else 0)
EOF
