#!/usr/bin/env bash
# Snapshots the workspace's public API surface into API.txt.
#
#   scripts/api_snapshot.sh           # regenerate API.txt (commit the result)
#   scripts/api_snapshot.sh --check   # fail if the surface drifted from API.txt
#
# The snapshot is a sorted list of `pub` item declarations (first line of
# each signature, whitespace-normalized) per source file. It is not a full
# semantic API model — it is a cheap, deterministic tripwire: any addition,
# removal, or signature change of a public item shows up as a diff, and CI
# refuses surface changes that were not snapshotted deliberately.
set -euo pipefail

cd "$(dirname "$0")/.."
out="API.txt"
mode="${1:-write}"

snapshot() {
    python3 - <<'EOF'
import re, sys
from pathlib import Path

ROOTS = sorted(Path("crates").glob("*/src")) + [Path("src")]
# `pub` items that form the external surface. `pub(crate)`/`pub(super)` are
# internal and excluded by the negative lookahead.
ITEM = re.compile(
    r"^\s*(?:#\[.*\]\s*)?pub(?!\s*\()\s+"
    r"(?:async\s+|unsafe\s+|const\s+|extern\s+\"[^\"]*\"\s+)*"
    r"(?:fn|struct|enum|union|trait|type|const|static|mod|use|macro)\b"
)
lines = []
for root in ROOTS:
    for path in sorted(root.rglob("*.rs")):
        in_test = False
        opened = False
        depth = 0
        for raw in path.read_text(encoding="utf-8").splitlines():
            stripped = raw.strip()
            # Skip the one item a #[cfg(test)] marks (a test module, or a
            # single test-only fn, impl or use): it is not surface. The item
            # ends at its `;`, or where its braces balance again.
            if stripped.startswith("#[cfg(test)]"):
                in_test = True
                opened = False
                depth = 0
                continue
            if in_test:
                if not opened and stripped.startswith("#["):
                    continue  # a further attribute on the same item
                depth += raw.count("{") - raw.count("}")
                opened = opened or "{" in raw
                if (opened and depth <= 0) or (not opened and stripped.endswith(";")):
                    in_test = False
                continue
            if ITEM.match(raw):
                sig = " ".join(stripped.split())
                # Truncate bodies: keep up to the opening brace.
                sig = sig.split("{", 1)[0].rstrip()
                lines.append(f"{path}: {sig}")
sys.stdout.write("\n".join(sorted(lines)) + "\n")
EOF
}

case "$mode" in
write)
    snapshot >"$out"
    echo "wrote $out ($(wc -l <"$out") public items)"
    ;;
--check)
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    snapshot >"$tmp"
    if ! diff -u "$out" "$tmp"; then
        echo >&2
        echo "api_snapshot: public API surface changed without updating $out." >&2
        echo "Run scripts/api_snapshot.sh and commit the refreshed snapshot." >&2
        exit 1
    fi
    echo "api_snapshot: surface matches $out"
    ;;
*)
    echo "usage: $0 [--check]" >&2
    exit 2
    ;;
esac
