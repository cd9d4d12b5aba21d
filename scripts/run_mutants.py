#!/usr/bin/env python3
"""Runs the checked-in mutant register: every mutant must be killed.

Usage: run_mutants.py [--register tests/mutants.json] [--only NAME]
                      [--jobs N] [--keep] [REPO_ROOT]

Each entry of the register (tests/mutants.json) names a source file, an
exact search text, its replacement, the test target to rebuild, the
gtest filter that must fail once the edit is in, and the item it
guards. The script

  1. checks that every search text occurs exactly once in its file (a
     refactor that moved the code must update the register);
  2. copies the tracked sources into a temporary directory and builds
     every named test target there once, then runs each filter unmutated
     (it must pass, or a "kill" would mean nothing);
  3. for each mutant, applies the edit to the copy, rebuilds only the
     named target, runs the filter (a nonzero exit kills the mutant),
     and restores the file.

Exits 1 when a search text does not match exactly once, a filter fails
unmutated, a mutant does not compile, or a mutant survives. Prints the
time of each step and the total.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time


def load(root, register):
    with open(os.path.join(root, register), encoding="utf-8") as f:
        entries = json.load(f)
    keys = ("name", "file", "search", "replace", "target", "filter", "guards")
    for e in entries:
        missing = [k for k in keys if k not in e]
        if missing:
            sys.exit(f"{register}: entry {e.get('name', '?')} lacks {missing}")
    return entries


def stale(root, entries):
    bad = []
    for e in entries:
        with open(os.path.join(root, e["file"]), encoding="utf-8") as f:
            n = f.read().count(e["search"])
        if n != 1:
            bad.append(f"{e['name']}: search text matches {n} times in "
                       f"{e['file']} (must be exactly once)")
    return bad


def copy_tree(root, dest):
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, check=True, capture_output=True).stdout.split(b"\0")
    for name in (f.decode() for f in files if f):
        os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
        shutil.copy2(os.path.join(root, name), os.path.join(dest, name))


def tail(log, lines=40):
    with open(log, encoding="utf-8", errors="replace") as f:
        return "".join(f.readlines()[-lines:])


def run(cmd, cwd, log):
    with open(log, "ab") as out:
        return subprocess.run(cmd, cwd=cwd, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("root", nargs="?", default=".")
    ap.add_argument("--register", default=os.path.join("tests", "mutants.json"))
    ap.add_argument("--only", help="run the mutant with this name only")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--keep", action="store_true",
                    help="keep the temporary copy (its path is printed)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)
    entries = load(root, args.register)
    if args.only:
        entries = [e for e in entries if e["name"] == args.only]
        if not entries:
            sys.exit(f"no mutant named {args.only}")

    bad = stale(root, entries)
    for line in bad:
        print(f"STALE {line}")
    if bad:
        return 1

    start = time.monotonic()
    work = tempfile.mkdtemp(prefix="rdb-mutants-")
    src, build = os.path.join(work, "src"), os.path.join(work, "build")
    log = os.path.join(work, "build.log")
    failures = 0
    try:
        copy_tree(root, src)
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run(["cmake", "-S", src, "-B", build, "-DCMAKE_BUILD_TYPE=Release",
                *gen], work, log) != 0:
            print(f"configure failed:\n{tail(log)}")
            return 1
        targets = sorted({e["target"] for e in entries})
        t0 = time.monotonic()
        if run(["cmake", "--build", build, "-j", str(args.jobs), "--target",
                *targets], work, log) != 0:
            print(f"build failed:\n{tail(log)}")
            return 1
        print(f"built {' '.join(targets)} in {time.monotonic() - t0:.0f} s")
        for e in entries:
            test = [os.path.join(build, e["target"]),
                    f"--gtest_filter={e['filter']}"]
            if run(test, build, log) != 0:
                print(f"FAIL  {e['name']}: {e['filter']} fails unmutated")
                failures += 1
        if failures:
            return 1

        for e in entries:
            t0 = time.monotonic()
            path = os.path.join(src, e["file"])
            with open(path, encoding="utf-8") as f:
                original = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(original.replace(e["search"], e["replace"], 1))
            try:
                built = run(["cmake", "--build", build, "-j", str(args.jobs),
                             "--target", e["target"]], work, log) == 0
                killed = built and run(
                    [os.path.join(build, e["target"]),
                     f"--gtest_filter={e['filter']}"], build, log) != 0
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            took = time.monotonic() - t0
            if not built:
                verdict = "BROKEN (does not compile)"
            elif killed:
                verdict = "killed"
            else:
                verdict = "SURVIVED"
            print(f"{verdict:9s} {e['name']} by {e['filter']} ({took:.0f} s)")
            failures += verdict != "killed"
    finally:
        if args.keep:
            print(f"kept {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{len(entries)} mutants, {failures} not killed, "
          f"{time.monotonic() - start:.0f} s in all")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
