#!/usr/bin/env bash
# Regenerates the golden snapshots under tests/golden/ (and the
# skyserver_sweep.trace replay fixture) from the current build.
#
# Run after an intentional behaviour change, then review the snapshot
# diff in the PR alongside the code change. See docs/testing.md.
#
# Usage: scripts/update_goldens.sh [build-dir]    (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j --target test_golden

RECYCLEDB_UPDATE_GOLDENS=1 "$build_dir/test_golden"

# Verify the fresh snapshots immediately round-trip in check mode.
"$build_dir/test_golden"

echo "goldens updated:"
git -C "$repo_root" status --short tests/golden/ || true

# Changed lines (added plus removed) per file: Explain text ("|"-prefixed)
# and the rest (mode, rows, digest or sql: lines; every line of a .trace).
echo "changed lines (explain / other):"
for f in "$repo_root"/tests/golden/*; do
  git -C "$repo_root" diff -U0 -- "$f" | awk -v name="$(basename "$f")" '
    /^(\+\+\+|---) / { next }
    /^[-+]/ { if (substr($0, 2) ~ /^[ \t]*\|/) e++; else o++ }
    END { printf "  %s: %d explain, %d other\n", name, e, o }'
done
