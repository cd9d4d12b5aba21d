#!/usr/bin/env python3
"""Compares result sets of the end-to-end benchmark.

A result set is a JSONL file of run records, as `run.sh --record FILE`
(or `recycledb_e2e --record FILE`) appends them: one line per run with
its workload, seed, trace flag, metrics and exact counts.

    compare.py SET.jsonl
        Summary: median and quartiles of every metric per workload, the
        tracing overhead (traced vs untraced runs), and any count that
        drifted between runs of the same seed.

    compare.py BASE.jsonl NEW.jsonl [NEW2.jsonl ...]
        For each end-to-end metric and workload, both sets' median and
        quartiles and a verdict against the bound in BENCHMARK.json:
        "within bound", "regressed" (NEW's median worse than BASE's by
        more than the bound), or "unresolved" (a set's interquartile
        spread is wider than the bound, and not every NEW run beats every
        BASE run). setup_s is judged on its median alone: a run measures
        set-up only a few times, and its bound guards against work moved
        into set-up. The printed wall-clock numbers follow with both
        medians and no verdict. Counts of the single-client workloads must
        repeat exactly for a seed across all sets; any drift is flagged,
        except for the counts that depend on timing
        (TIMING_DEPENDENT_COUNTS).

    compare.py PARENT.jsonl CHANGE.jsonl --claim METRIC:WORKLOAD
        The claim rule for a gain: at least 10 parent/change run pairs
        (the i-th run of the workload in each set, which the caller made
        alternately), the change wins at least 9 in 10 of them (ties count
        for neither), and the medians differ, in the better direction, by
        more than the parent's interquartile range. METRIC may also be one
        of the printed, ungated numbers (throughput_ops_s, stmt_p50_ms,
        append_p50_ms, ...): adjacent pairs cancel most of the host's
        speed drift that keeps those from being gated.

Exits 1 when a run failed, a verdict is "regressed" or "unresolved", a
count drifted, or a claim does not hold.
"""

import argparse
import json
import os
import statistics
import sys

CONCURRENT_WORKLOADS = {"tpch_streams"}

# Counts that can vary between runs of one seed because the engine's
# speculative admission weighs measured run times (README, "Known
# defects"). A drift in them is reported, not failed.
TIMING_DEPENDENT_COUNTS = {
    "distinct_miss": {"cache.evictions", "cache.used_mb",
                      "recycler.materializations", "recycler.spec_aborts",
                      "recycler.spec_yield"},
}

# Direction of the printed, ungated numbers a claim may name.
UNGATED_BETTER = {
    "throughput_ops_s": "higher",
    "stmt_p50_ms": "lower",
    "stmt_p99_ms": "lower",
    "append_p50_ms": "lower",
    "append_p99_ms": "lower",
    "restart_p50_ms": "lower",
    "disk_mb": "lower",
    "cpu_ms_per_op": "lower",
}


def load_records(path):
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{n}: not a JSON record: {e}")
    return records


def load_end_to_end(path):
    """BENCHMARK.json's end-to-end metrics by name."""
    with open(path) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def series(records, workload, metric, trace=0):
    """Values of a gated metric, or of a printed ungated number, of the
    workload's runs with the given trace flag, in file order."""
    values = []
    for r in records:
        if r["workload"] != workload or r.get("trace", 0) != trace:
            continue
        for field in ("metrics", "extra"):
            if metric in r.get(field, {}):
                values.append(r[field][metric])
                break
    return values


def workloads_of(records):
    seen = []
    for r in records:
        if r["workload"] not in seen:
            seen.append(r["workload"])
    return seen


def failures(path, records):
    bad = 0
    for r in records:
        if not r.get("correct", False):
            bad += 1
            why = ", ".join(c["name"] for c in r.get("checks", [])
                            if not c.get("ok"))
            sig = f" signal {r['signal']}" if "signal" in r else ""
            print(f"FAILED RUN {path}: {r['workload']} seed {r.get('seed')}"
                  f" trace {r.get('trace', 0)}: {r.get('failed')} of"
                  f" {r.get('attempted')} ops failed{sig}"
                  f"{'; checks: ' + why if why else ''}")
    return bad


def drift(sets):
    """Counts of single-client runs that differ for one (workload, seed,
    trace) across all runs of all sets."""
    first = {}
    drifted = 0
    for path, records in sets:
        for r in records:
            if r["workload"] in CONCURRENT_WORKLOADS or "signal" in r:
                continue
            key = (r["workload"], r.get("seed"), r.get("trace", 0))
            counts = r.get("counts", {})
            if key not in first:
                first[key] = (path, counts)
                continue
            ref_path, ref = first[key]
            timing = TIMING_DEPENDENT_COUNTS.get(key[0], set())
            for name in sorted(set(ref) | set(counts)):
                if ref.get(name) == counts.get(name):
                    continue
                if name in timing:
                    label = "varies (timing-dependent)"
                else:
                    label = "DRIFT"
                    drifted += 1
                print(f"{label} {key[0]} seed {key[1]} trace {key[2]}:"
                      f" {name} {ref.get(name)} ({ref_path}) vs"
                      f" {counts.get(name)} ({path})")
    return drifted


def fmt(v):
    return f"{v:.6g}"


def summary(path, records, metrics):
    print(f"== {path}: {len(records)} runs")
    for w in workloads_of(records):
        untraced = [r for r in records if r["workload"] == w
                    and r.get("trace", 0) == 0]
        traced = [r for r in records if r["workload"] == w
                  and r.get("trace", 0) == 1]
        print(f"-- {w}: {len(untraced)} untraced, {len(traced)} traced runs")
        gated = sorted({m for r in untraced for m in r.get("metrics", {})})
        extras = sorted({m for r in untraced for m in r.get("extra", {})})
        for name in gated + extras:
            vals = series(records, w, name)
            q1, med, q3 = quartiles(vals)
            bound = metrics.get(name, {}).get("bound")
            note = "not gated" if bound is None else f"bound {bound:g}"
            print(f"  {name:<22} median {fmt(med):>12}"
                  f" q1 {fmt(q1):>12} q3 {fmt(q3):>12}"
                  f" spread {spread(vals):.4f} ({note}) n={len(vals)}")
        verify = [r.get("verify_s", 0) for r in untraced]
        if verify:
            print(f"  {'verify_s':<22} median {fmt(statistics.median(verify)):>12}"
                  f" s      (untimed oracle work)")
        if traced:
            layer = sorted({m for r in traced for m in r.get("metrics", {})})
            for name in layer:
                vals = series(records, w, name, trace=1)
                print(f"  [traced] {name:<30} median"
                      f" {fmt(statistics.median(vals)):>12}")
            for traced_name, name, slower in (
                    ("trace.throughput_ops_s", "throughput_ops_s",
                     lambda on, off: 1 - on / off),
                    ("trace.op_cpu_vs_probe", "op_cpu_vs_probe",
                     lambda on, off: on / off - 1),
                    ("trace.stmt_mean_vs_bypass", "stmt_mean_vs_bypass",
                     lambda on, off: on / off - 1)):
                t_on = series(records, w, traced_name, trace=1)
                t_off = series(records, w, name)
                if t_on and t_off:
                    on, off = statistics.median(t_on), statistics.median(t_off)
                    print(f"  tracing overhead on {name}: traced {fmt(on)}"
                          f" vs untraced {fmt(off)}"
                          f" ({100 * slower(on, off):+.1f}%)")


def verdicts(base_path, base, new_path, new, metrics):
    bad = 0
    print(f"== {new_path} vs {base_path}")
    for w in workloads_of(base):
        for name, spec in metrics.items():
            a, b = series(base, w, name), series(new, w, name)
            if not a or not b:
                continue
            bound, direction = spec["bound"], spec["better"]
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) if direction == "lower" else (qa[1] - qb[1])
            all_better = all(better(x, y, direction) for x in b for y in a)
            if worse > bound * abs(qa[1]) and not all_better:
                verdict = "regressed"
            elif (name != "setup_s" and max(spread(a), spread(b)) > bound
                  and not all_better):
                verdict = "unresolved"
            else:
                verdict = "within bound"
            if verdict != "within bound":
                bad += 1
            print(f"  {w:<14} {name:<20} base {fmt(qa[1]):>11}"
                  f" [{fmt(qa[0])}, {fmt(qa[2])}]  new {fmt(qb[1]):>11}"
                  f" [{fmt(qb[0])}, {fmt(qb[2])}]  {verdict}")
        # The wall-clock numbers move with the host, so they get no
        # verdict; a change that adds waiting to a layer both recycler
        # and bypass runs share shows only here (judge it with --claim's
        # alternating pairs).
        for name in UNGATED_BETTER:
            a, b = series(base, w, name), series(new, w, name)
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                print(f"  {w:<14} {name:<20} base {fmt(ma):>11}"
                      f"  new {fmt(mb):>11}  ({100 * (mb / ma - 1):+.1f}%,"
                      f" not gated)")
    return bad


def claim(parent, change, spec, metrics):
    name, _, workload = spec.partition(":")
    direction = metrics.get(name, {}).get("better", UNGATED_BETTER.get(name))
    if direction is None or not workload:
        sys.exit(f"--claim wants METRIC:WORKLOAD with an end-to-end metric"
                 f" or one of {sorted(UNGATED_BETTER)}, got {spec}")
    a, b = series(parent, workload, name), series(change, workload, name)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x, direction))
    q1, med_a, q3 = quartiles(a) if a else (0, 0, 0)
    med_b = statistics.median(b) if b else 0
    gap = (med_a - med_b) if direction == "lower" else (med_b - med_a)
    ok = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > (q3 - q1)
    print(f"claim {name} on {workload}: {wins}/{len(pairs)} pairs won,"
          f" median {fmt(med_a)} -> {fmt(med_b)} (gap {fmt(gap)}, parent"
          f" IQR {fmt(q3 - q1)}): {'HOLDS' if ok else 'NOT MET'}")
    return ok


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("sets", nargs="+", help="result-set JSONL files")
    parser.add_argument("--claim", help="METRIC:WORKLOAD (two sets)")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "..",
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    metrics = load_end_to_end(args.benchmark)
    sets = [(p, load_records(p)) for p in args.sets]

    bad = sum(failures(p, r) for p, r in sets)
    if len(sets) == 1:
        summary(*sets[0], metrics)
    else:
        base_path, base = sets[0]
        for path, records in sets[1:]:
            bad += verdicts(base_path, base, path, records, metrics)
    bad += drift(sets)
    if args.claim:
        if len(sets) != 2:
            sys.exit("--claim compares exactly two sets: PARENT CHANGE")
        if not claim(sets[0][1], sets[1][1], args.claim, metrics):
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
