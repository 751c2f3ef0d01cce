#!/usr/bin/env bash
# Builds bench/perf and runs it.
#
#   bench/perf/run.sh [--out DIR] [--runs N] [--seed N] [--seconds S]
#       Runs every workload, untraced and then traced, N times each
#       (default 1), prints every metric with its unit, writes one result
#       file per run into DIR (default build/perf/results) for compare.py,
#       runs the oracle self-test, and exits non-zero if any oracle failed
#       or a traced run's spans do not partition its pass.
#
#   bench/perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       Builds if needed and runs one workload (the perf_suite arguments).
#       The last line of output is the result as one JSON object.
#
# Run from anywhere; paths are relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/../.."

build=build/perf
{
  if [ ! -f "$build/Makefile" ]; then
    cmake -S bench/perf -B "$build"
  fi
  cmake --build "$build" -j4
} >&2
if [ -d .git ]; then
  PERF_GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)
  export PERF_GIT_SHA
fi

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$build/perf_suite" "$@"
  fi
done

out=$build/results runs=1 seed=2012 seconds=10
while [ $# -gt 0 ]; do
  case "$1" in
    --out) out=$2 ;;
    --runs) runs=$2 ;;
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    *) echo "usage: $0 [--out DIR] [--runs N] [--seed N] [--seconds S]" >&2
       exit 2 ;;
  esac
  shift 2
done
mkdir -p "$out"

status=0
for run in $(seq 1 "$runs"); do
  for workload in corpus pages batch synth kernels; do
    for trace in 0 1; do
      file=$out/$workload.trace$trace.run$run.json
      output=$("$build/perf_suite" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" --out "$file")
      printf '%s\n\n' "$output"
      if [[ ${output##*$'\n'} != *'"failed":0,'* ]]; then
        echo "FAIL: $workload (trace $trace) has failed oracle items" >&2
        status=1
      fi
      if [ "$trace" = 1 ] && ! grep -q '"partition_ok": true' "$file"; then
        echo "FAIL: $workload spans do not partition the traced pass" >&2
        status=1
      fi
    done
  done
done
"$build/perf_suite" --selftest || status=1
echo "results: $out (compare two result directories with bench/perf/compare.py)"
exit $status
