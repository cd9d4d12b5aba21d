#!/usr/bin/env bash
# End-to-end benchmark entry point (see README.md in this directory).
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds 10] [--trace 0|1]
#                    [--runs K] [--record FILE]
#
# Builds recycledb_e2e from source on first use (into build-e2e/ at the
# repository root), then runs workloads, each in its own process. Each
# workload's op counts are fixed and take about 10 timed seconds;
# --seconds is accepted for BENCHMARK.json's run_seconds and must be 10.
#
# With --workload, runs that workload once; the last stdout line is the
# run's JSON result ({"correct", "attempted", "failed", "metrics"}).
# --trace 1 makes it the traced run (per-layer metrics, spans written to
# build-e2e/traces/). Without --workload, runs every workload K
# times (seeds N, N+1, ...; traced runs too with --trace 1), prints one
# JSON line per run with the workload's name, then a summary from
# compare.py. --record appends each run's full record to FILE.
#
# Exits 0 only if every run succeeded: 1 when a run failed an op, an
# oracle comparison or a property check, or crashed (the signal is
# printed); 2 when the benchmark could not be built or started.
set -u

DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$DIR/../.." && pwd)"
OUT="$ROOT/build-e2e"
BUILD="$OUT/cmake"
WORKLOADS=(tpch_streams sky_restart distinct_miss rollup_append)

workload=""
seed=1
trace=0
runs=1
record=""
while [ $# -gt 0 ]; do
  if [ $# -lt 2 ]; then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds)
      if [ "$2" != 10 ]; then
        echo "run.sh: op counts are fixed for 10-second runs;" \
             "--seconds must be 10" >&2
        exit 2
      fi ;;
    --trace) trace="$2" ;;
    --runs) runs="$2" ;;
    --record) record="$2" ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift 2
done
case "$trace" in 0|1) ;; *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;; esac

if [ ! -f "$ROOT/CMakeLists.txt" ] || [ ! -d "$ROOT/src" ]; then
  echo "run.sh: recycledb sources not found under $ROOT" >&2
  exit 2
fi
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -S "$DIR" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >&2 || exit 2
fi
cmake --build "$BUILD" --target recycledb_e2e -j "$(nproc)" >&2 || exit 2
mkdir -p "$OUT/scratch" "$OUT/traces" || exit 2

# run_one WORKLOAD SEED TRACE: one run in its own process. Its output
# passes through; a crash or timeout becomes a failed result line.
run_one() {
  local w="$1" s="$2" t="$3"
  local args=(--workload "$w" --seed "$s" --scratch "$OUT/scratch")
  [ "$t" = 1 ] && args+=(--trace "$OUT/traces/$w-$s.jsonl")
  [ -n "$record" ] && args+=(--record "$record")
  timeout --kill-after=5 170 "$BUILD/recycledb_e2e" "${args[@]}"
  local rc=$?
  if [ "$rc" -eq 124 ] || [ "$rc" -gt 128 ]; then
    local sig=$((rc == 124 ? 15 : rc - 128))
    if [ "$rc" -eq 124 ]; then
      echo "workload $w seed $s timed out after 170 s (signal $sig)"
    else
      echo "workload $w seed $s crashed: signal $sig (exit $rc)"
    fi
    echo "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
    [ -n "$record" ] && echo "{\"workload\": \"$w\", \"seed\": $s, \"trace\": $t, \"correct\": false, \"attempted\": 1, \"failed\": 1, \"signal\": $sig, \"metrics\": {}, \"counts\": {}}" >> "$record"
    return 1
  fi
  return "$rc"
}

if [ -n "$workload" ]; then
  run_one "$workload" "$seed" "$trace"
  exit $?
fi

# Every workload, each run in its own process.
[ -z "$record" ] && record="$OUT/runs.jsonl" && : > "$record"
status=0
lines=()
for ((i = 0; i < runs; i++)); do
  for w in "${WORKLOADS[@]}"; do
    modes=(0)
    [ "$trace" = 1 ] && modes=(0 1)
    for t in "${modes[@]}"; do
      out="$(run_one "$w" $((seed + i)) "$t")" || status=1
      printf '%s\n' "$out" | sed '$d'
      last="$(printf '%s\n' "$out" | tail -n 1)"
      case "$last" in
        \{*) ;;
        *) last='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}' ;;
      esac
      lines+=("{\"workload\": \"$w\", \"seed\": $((seed + i)), \"trace\": $t, ${last#\{}")
    done
  done
done
printf '%s\n' "${lines[@]}"
python3 "$DIR/compare.py" "$record" || status=1
exit "$status"
