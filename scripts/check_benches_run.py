#!/usr/bin/env python3
"""Fails when a bench is built but nothing runs it.

Usage: check_benches_run.py [REPO_ROOT]

Every bench/bench_*.cc must either be run as `./build/<name>` by a step
of .github/workflows/ci.yml, or be listed in UNGATED with the reason it
may stay unrun. A bench that no step runs gates nothing: delete it, or
add the step that runs it. An UNGATED entry for a bench that CI runs or
that no longer exists is an offender too. Exits 1 and names the
offenders. CI runs this next to check_config_fields.py.
"""
import glob
import os
import re
import sys

WORKFLOW = os.path.join(".github", "workflows", "ci.yml")

# Benches no CI step runs, each with the reason it stays.
UNGATED = {
    "bench_fig6_skyserver": "item 13(b)",
    "bench_fig7_throughput": "item 13(b)",
}


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    workflow = open(os.path.join(root, WORKFLOW), encoding="utf-8").read()
    run = set(re.findall(r"\./build/(bench_\w+)", workflow))
    benches = sorted(
        os.path.splitext(os.path.basename(p))[0]
        for p in glob.glob(os.path.join(root, "bench", "bench_*.cc")))
    if not benches:
        sys.exit("no bench/bench_*.cc found")
    unrun = [b for b in benches if b not in run and b not in UNGATED]
    stale = [b for b in UNGATED if b not in benches or b in run]
    for b in unrun:
        print(f"{b} is run by no step of {WORKFLOW} and is not listed "
              f"in UNGATED")
    for b in stale:
        print(f"{b} is listed in UNGATED but is run in CI or gone")
    if unrun or stale:
        return 1
    print(f"ok: {len(benches) - len(UNGATED)} benches run in CI, "
          f"{len(UNGATED)} listed with a reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
