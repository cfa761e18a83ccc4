#!/bin/bash
# Run every reproduction bench and print the paper-style tables.
#
#   ./run_benches.sh [bench flags...]   all benches, flags passed through
#                                       (--frames/--reps/--seed/--quick
#                                       suit all; the others only some,
#                                       docs/benchmarks.md)
#   ./run_benches.sh --json             hot-path suite only, refreshing the
#                                       BENCH_*.json perf trajectory at the
#                                       repo root (docs/benchmarks.md)
cd "$(dirname "$0")"

if [ "$1" = "--json" ]; then
  shift
  bench=build/bench/bench_hotpath
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (cmake --build build --target bench_hotpath)" >&2
    exit 1
  fi
  "$bench" --json=BENCH_hotpath.json "$@"
  exit $?
fi

for b in build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "############################################################"
  echo "## $b"
  echo "############################################################"
  "$b" "$@"
  echo
done
