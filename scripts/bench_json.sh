#!/usr/bin/env bash
# Runs the independence-criterion benches (E9 ic_scaling, E10
# ic_vs_revalidation incl. the independence_matrix group) and emits
# BENCH_ic.json mapping each benchmark id to its median nanoseconds, plus
# flat `counters/<axis>/<point>/<metric>` work counters (states interned,
# transitions fired, guard intersections, frontier pushes, explored and
# total product states) and `phases/<axis>/<point>/<phase>_*`
# per-phase wall-time breakdowns (from a SummarySink-traced run) for the E9
# sweep points, so the *work done* — and where the time went — is versioned
# next to the time it took.
# Also emits BENCH_fdset.json from the fdset_matrix example: matrix wall
# time (median of warm runs) and cells-actually-checked at 50/100/200 FDs,
# with and without FD-set pruning (plus the implied-row count, the
# minimize closure's own time, and the parity-mismatch count, which must
# be 0).
# Commit the refreshed BENCH_ic.json alongside perf-relevant changes so the
# trajectory stays in-tree.
# Finally emits BENCH_core.json, a before/after view of the automata-core
# hot paths: the committed (HEAD) ic_scaling lazy medians as baseline, the
# fresh medians, the speedup ratio per axis point, and the current
# guard-intersection / frontier-push counters and per-phase nanos — the
# numbers a cache-layout change is supposed to move.
# Also emits BENCH_stream.json from the stream_recheck example (E14):
# the parse-then-index ingest cost, and incremental impact-scoped
# rechecking vs the serialize/reparse/recheck client loop
# over a candidate-count ladder. The incremental/reparse verdicts must
# agree on every step (parity_mismatches == 0) and the per-update speedup
# at the largest ladder point must be >= 3x, or the impact scoping has
# regressed into global rechecks.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_ic.json}"
out_fdset="${2:-BENCH_fdset.json}"
out_core="${3:-BENCH_core.json}"
out_stream="${4:-BENCH_stream.json}"

raw=$(mktemp)
raw_fdset=$(mktemp)
raw_stream=$(mktemp)
baseline=$(mktemp)
trap 'rm -f "$raw" "$raw_fdset" "$raw_stream" "$baseline"' EXIT

# Snapshot the committed medians before anything overwrites BENCH_ic.json.
git show HEAD:BENCH_ic.json >"$baseline" 2>/dev/null || cp BENCH_ic.json "$baseline"

cargo bench -p regtree-bench --bench ic_scaling | tee "$raw"
cargo bench -p regtree-bench --bench ic_vs_revalidation | tee -a "$raw"
cargo run --release -p regtree-bench --example ic_state_counts -- --counters | tee -a "$raw"
cargo run --release -p regtree-bench --example ic_state_counts -- --phases | tee -a "$raw"

python3 - "$raw" "$out" <<'EOF'
import json, re, sys

raw, out = sys.argv[1], sys.argv[2]
unit_ns = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
line_re = re.compile(
    r"^(\S+)\s+time:\s+\[\s*"
    r"[\d.]+ (?:ns|µs|us|ms|s) "
    r"([\d.]+) (ns|µs|us|ms|s) "
    r"[\d.]+ (?:ns|µs|us|ms|s)\s*\]"
)

counter_re = re.compile(r"^((?:counters|phases)/\S+) (\d+)$")

medians = {}
with open(raw, encoding="utf-8") as fh:
    for line in fh:
        line = line.strip()
        m = line_re.match(line)
        if m:
            name, median, unit = m.group(1), float(m.group(2)), m.group(3)
            medians[name] = round(median * unit_ns[unit])
            continue
        c = counter_re.match(line)
        if c:
            medians[c.group(1)] = int(c.group(2))

if not medians:
    sys.exit("bench_json.sh: no benchmark lines parsed")

with open(out, "w", encoding="utf-8") as fh:
    json.dump(medians, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"wrote {out} ({len(medians)} benchmarks)")
EOF

python3 - "$baseline" "$out" "$out_core" <<'EOF'
import json, sys

baseline_path, fresh_path, out = sys.argv[1], sys.argv[2], sys.argv[3]
with open(baseline_path, encoding="utf-8") as fh:
    baseline = json.load(fh)
with open(fresh_path, encoding="utf-8") as fh:
    fresh = json.load(fh)

core = {}
for key, now in sorted(fresh.items()):
    if key.startswith("ic_scaling/") and "_lazy/" in key:
        point = key[len("ic_scaling/"):]
        core[f"current/{point}"] = now
        was = baseline.get(key)
        if was is not None:
            core[f"baseline/{point}"] = was
            core[f"speedup/{point}"] = round(was / now, 2) if now else None
    elif key.startswith("counters/") and (
        key.endswith("/guard_intersections") or key.endswith("/frontier_pushes")
    ):
        core[key] = now
    elif key.startswith("phases/"):
        core[key] = now

if not any(k.startswith("speedup/") for k in core):
    sys.exit("bench_json.sh: no baseline lazy medians to compare against")

with open(out, "w", encoding="utf-8") as fh:
    json.dump(core, fh, indent=2, sort_keys=True)
    fh.write("\n")
ups = {k[len("speedup/"):]: v for k, v in core.items() if k.startswith("speedup/")}
print(f"wrote {out} ({len(ups)} axis points); speedups: {ups}")
EOF

cargo run --release -p regtree-bench --example fdset_matrix -- --counters | tee "$raw_fdset"

python3 - "$raw_fdset" "$out_fdset" <<'EOF'
import json, re, sys

raw, out = sys.argv[1], sys.argv[2]
counter_re = re.compile(r"^(counters/fdset/\S+) (\d+)$")

rows = {}
with open(raw, encoding="utf-8") as fh:
    for line in fh:
        c = counter_re.match(line.strip())
        if c:
            rows[c.group(1)] = int(c.group(2))

if not rows:
    sys.exit("bench_json.sh: no fdset counter lines parsed")
bad = [k for k, v in rows.items() if k.endswith("/parity_mismatches") and v]
if bad:
    sys.exit(f"bench_json.sh: pruned/unpruned parity violated: {bad}")

with open(out, "w", encoding="utf-8") as fh:
    json.dump(rows, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"wrote {out} ({len(rows)} counters)")
EOF

cargo run --release -p regtree-bench --example stream_recheck | tee "$raw_stream"

python3 - "$raw_stream" "$out_stream" <<'EOF'
import json, re, sys

raw, out = sys.argv[1], sys.argv[2]
line_re = re.compile(r"^(stream/\S+) (\d+)$")

rows = {}
with open(raw, encoding="utf-8") as fh:
    for line in fh:
        m = line_re.match(line.strip())
        if m:
            rows[m.group(1)] = int(m.group(2))

if not rows:
    sys.exit("bench_json.sh: no stream_recheck lines parsed")
bad = [k for k, v in rows.items() if k.endswith("/parity_mismatches") and v]
if bad:
    sys.exit(f"bench_json.sh: incremental/reparse verdicts diverged: {bad}")

points = sorted(
    int(k.split("/")[2][1:])
    for k in rows
    if k.startswith("stream/recheck/") and k.endswith("/speedup_x100")
)
if not points:
    sys.exit("bench_json.sh: no recheck speedup points parsed")
largest = points[-1]
speedup = rows[f"stream/recheck/c{largest}/speedup_x100"] / 100
if speedup < 3.0:
    sys.exit(
        f"bench_json.sh: incremental recheck only {speedup:.2f}x faster than "
        f"reparse at c{largest} (need >= 3x) — impact scoping has regressed"
    )

with open(out, "w", encoding="utf-8") as fh:
    json.dump(rows, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"wrote {out} (c{largest} incremental speedup {speedup:.2f}x)")
EOF
