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

# What changed against HEAD, per file. A changed Explain line is "key/order
# only" when, with every key= field cut (it ends the line), HEAD's line and
# the new one hold the same multiset of characters: cache keys and the order
# of a left-deep AND chain's conjuncts moved, nothing else. Every other
# changed Explain line is "other", as is every changed mode/rows/digest or
# sql: line. For a .trace file the Explain text is each statement's
# "explain" field, and the statements whose mode, rows or digest changed
# are listed.
echo "changed vs HEAD (explain key/order only / explain other / other):"
for f in "$repo_root"/tests/golden/*; do
  name="$(basename "$f")"
  old="$(mktemp)"
  git -C "$repo_root" show "HEAD:tests/golden/$name" > "$old" 2>/dev/null || true
  python3 - "$name" "$old" "$f" <<'PY'
import difflib
import json
import re
import sys

name, old_path, new_path = sys.argv[1:]
cut = re.compile(r" key=.*$")
counts = {"key/order only": 0, "explain other": 0, "other": 0}


def classify(old_lines, new_lines, is_explain):
    """Pairs changed lines in order and counts each changed one."""
    ops = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    for tag, i1, i2, j1, j2 in ops.get_opcodes():
        if tag == "equal":
            continue
        olds, news = old_lines[i1:i2], new_lines[j1:j2]
        for k in range(max(len(olds), len(news))):
            o = olds[k] if k < len(olds) else None
            n = news[k] if k < len(news) else None
            explain = all(x is None or is_explain(x) for x in (o, n))
            if not explain:
                counts["other"] += 1
            elif (o is not None and n is not None and
                  sorted(cut.sub("", o)) == sorted(cut.sub("", n))):
                counts["key/order only"] += 1
            else:
                counts["explain other"] += 1


old_text = open(old_path).read().splitlines()
new_text = open(new_path).read().splitlines()
moved = []
if name.endswith(".trace"):
    def statements(lines):
        return [e for e in map(json.loads, lines)
                if e.get("kind") == "statement"]
    olds, news = statements(old_text), statements(new_text)
    for i in range(max(len(olds), len(news))):
        o = olds[i] if i < len(olds) else {}
        n = news[i] if i < len(news) else {}
        classify(o.get("explain", "").splitlines(),
                 n.get("explain", "").splitlines(), lambda _: True)
        if any(o.get(k) != n.get(k) for k in ("mode", "rows", "digest")):
            moved.append(str(i))
else:
    classify(old_text, new_text, lambda line: line.lstrip().startswith("|"))
print("  %s: %d explain key/order only, %d explain other, %d other" %
      (name, counts["key/order only"], counts["explain other"],
       counts["other"]))
if name.endswith(".trace"):
    print("    statements with mode/rows/digest changed: %s" %
          (", ".join(moved) if moved else "none"))
PY
  rm -f "$old"
done
