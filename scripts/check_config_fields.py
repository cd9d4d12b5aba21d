#!/usr/bin/env python3
"""Fails when a configuration field is a knob that nothing sets.

Usage: check_config_fields.py [REPO_ROOT]

Parses the field declarations of the option structs in CONFIG_STRUCTS
(`RecyclerConfig`, `DatabaseOptions`, `SessionOptions`) and looks for an
assignment `.field =` to each one in the C++ sources under tests/ and
bench/. A field that no test or bench ever assigns has only ever run at
its default, so its other settings are untested code: delete the field,
or add the test or bench that compares its settings. Exits 1 and lists
the unset fields when there are any. CI runs this next to
check_markdown_links.py.
"""
import os
import re
import sys

CONFIG_STRUCTS = (
    (os.path.join("src", "recycler", "recycler.h"), "RecyclerConfig"),
    (os.path.join("src", "api", "database.h"), "DatabaseOptions"),
    (os.path.join("src", "api", "session.h"), "SessionOptions"),
)
SEARCH_DIRS = ("tests", "bench")
SOURCE_EXTS = (".cc", ".cpp", ".h")

# One declaration per line: `Type name;` or `Type name = default;`.
FIELD_RE = re.compile(r"^\s*[\w:<>, ]+?\s+(\w+)\s*(?:=[^;]*)?;\s*$")


def config_fields(root: str, header: str, struct: str) -> list:
    text = open(os.path.join(root, header), encoding="utf-8").read()
    match = re.search(r"struct " + struct + r" \{(.*?)\n\};", text, re.S)
    if match is None:
        sys.exit(f"{header}: struct {struct} not found")
    fields = []
    for line in match.group(1).splitlines():
        if line.strip().startswith("//"):
            continue
        decl = FIELD_RE.match(line)
        if decl:
            fields.append(decl.group(1))
    if not fields:
        sys.exit(f"{header}: no {struct} fields parsed")
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
    text = "\n".join(sources(root))
    unset = []
    counts = []
    for header, struct in CONFIG_STRUCTS:
        fields = config_fields(root, header, struct)
        counts.append(f"{len(fields)} {struct}")
        unset += [f"{struct}::{f}" for f in fields
                  if not re.search(r"\." + f + r"\s*=(?!=)", text)]
    for f in unset:
        print(f"{f} is assigned nowhere under "
              f"{' or '.join(d + '/' for d in SEARCH_DIRS)}")
    if unset:
        return 1
    print(f"ok: all {', '.join(counts)} fields are set by a test or bench")
    return 0


if __name__ == "__main__":
    sys.exit(main())
