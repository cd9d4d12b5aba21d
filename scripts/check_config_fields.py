#!/usr/bin/env python3
"""Fails when a RecyclerConfig field is a knob that nothing sets.

Usage: check_config_fields.py [REPO_ROOT]

Parses the field declarations of `struct RecyclerConfig` in
src/recycler/recycler.h and looks for an assignment `.field =` to each
one in the C++ sources under tests/ and bench/. A field that no test or
bench ever assigns has only ever run at its default, so its other
settings are untested code: delete the field, or add the test or bench
that compares its settings. Exits 1 and lists the unset fields when
there are any. CI runs this next to check_markdown_links.py.
"""
import os
import re
import sys

HEADER = os.path.join("src", "recycler", "recycler.h")
SEARCH_DIRS = ("tests", "bench")
SOURCE_EXTS = (".cc", ".cpp", ".h")

STRUCT_RE = re.compile(r"struct RecyclerConfig \{(.*?)\n\};", re.S)
# One declaration per line: `Type name;` or `Type name = default;`.
FIELD_RE = re.compile(r"^\s*[\w:<>, ]+?\s+(\w+)\s*(?:=[^;]*)?;\s*$")


def config_fields(root: str) -> list:
    text = open(os.path.join(root, HEADER), encoding="utf-8").read()
    match = STRUCT_RE.search(text)
    if match is None:
        sys.exit(f"{HEADER}: struct RecyclerConfig not found")
    fields = []
    for line in match.group(1).splitlines():
        if line.strip().startswith("//"):
            continue
        decl = FIELD_RE.match(line)
        if decl:
            fields.append(decl.group(1))
    if not fields:
        sys.exit(f"{HEADER}: no RecyclerConfig fields parsed")
    return fields


def sources(root: str):
    for top in SEARCH_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield open(path, encoding="utf-8").read()


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    fields = config_fields(root)
    text = "\n".join(sources(root))
    unset = [f for f in fields
             if not re.search(r"\." + f + r"\s*=(?!=)", text)]
    for f in unset:
        print(f"RecyclerConfig::{f} is assigned nowhere under "
              f"{' or '.join(d + '/' for d in SEARCH_DIRS)}")
    if unset:
        return 1
    print(f"ok: all {len(fields)} RecyclerConfig fields are set by a test "
          "or bench")
    return 0


if __name__ == "__main__":
    sys.exit(main())
