#!/usr/bin/env bash
# The one command of the benchmark. Run from the repository root:
#
#   bash rtpbench/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                        [--trace 0|1] [--runs K]
#
# Builds rtpserved (root workspace) and rtpbench (its own manifest)
# offline, then measures every workload, or the one named, against a fresh
# server. Prints one `<workload> <metric> <value> <unit> n=<samples>` line
# per metric and, last, the run as one JSON object; writes
# rtpbench/out/results.json and, unless `--trace 0`, one
# rtpbench/out/trace-<workload>.jsonl per workload. `--trace 0` reports
# only the end-to-end metrics, `--trace 1` only the per-layer ones.
# Exits non-zero if any op failed.
set -euo pipefail

# Both builds share one target directory, so the crates they have in
# common compile once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p regtree-serve --bin rtpserved >&2
cargo build --release --offline --quiet --manifest-path rtpbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/rtpbench" run \
    --server "$CARGO_TARGET_DIR/release/rtpserved" --out rtpbench/out "$@"
