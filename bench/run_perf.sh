#!/usr/bin/env bash
# One-command Release-mode perf harness (docs/benchmarks.md):
#
#   configure (Release) -> build -> run perf_placement + perf_storage +
#   perf_latency + perf_durability -> stamp build-type context ->
#   optionally ratchet-check vs the committed files.
#
# Outputs (stamped, i.e. context reports the code-under-test build type),
# one BENCH_<name>.json per perf_<name> binary:
#   BENCH_placement.json  perf_placement run, incl. the BatchPlacer sweep
#   BENCH_storage.json    perf_storage run
#   BENCH_latency.json    perf_latency SLO run
#   BENCH_durability.json perf_durability churn run
#
# --check compares each output with its committed twin and enforces the
# same-run rules bench/ratchet_rules.txt lists for that file.
#
# Debug builds cannot produce these files: the perf binaries refuse
# machine-readable output without NDEBUG (bench/perf_main.hpp), and
# `perf_ratchet stamp` refuses runs not marked release.  With --filter the
# outputs land in the build dir instead of the repo root so a partial run
# can never overwrite the committed baseline.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build-perf"
OUT_DIR="$ROOT"
FILTER=""
CHECK=0

usage() {
  echo "usage: bench/run_perf.sh [--build-dir DIR] [--out DIR]" >&2
  echo "                         [--filter REGEX] [--check]" >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT_DIR="$2"; shift 2 ;;
    --filter) FILTER="$2"; shift 2 ;;
    --check) CHECK=1; shift ;;
    *) usage ;;
  esac
done

if [ -n "$FILTER" ] && [ "$OUT_DIR" = "$ROOT" ]; then
  OUT_DIR="$BUILD_DIR"
  echo "run_perf: --filter set; writing partial results to $OUT_DIR" >&2
fi

mkdir -p "$OUT_DIR"

# perf_<name> writes BENCH_<name>.json.
NAMES=(placement storage latency durability)
RATCHET="$BUILD_DIR/tools/perf_ratchet"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target "${NAMES[@]/#/perf_}" perf_ratchet \
  -j"$(nproc)"

for name in "${NAMES[@]}"; do
  raw="$BUILD_DIR/bench/${name}_raw.json"
  args=("--benchmark_out=$raw" "--benchmark_out_format=json")
  if [ -n "$FILTER" ]; then
    args+=("--benchmark_filter=$FILTER")
  fi
  "$BUILD_DIR/bench/perf_$name" "${args[@]}"
  "$RATCHET" stamp --in "$raw" --out "$OUT_DIR/BENCH_$name.json"
done

# Every check runs, whatever the ones before it found: a failing check is
# recorded instead of letting `set -e` stop the script, and the script
# exits non-zero at the end if any check failed.
if [ "$CHECK" = 1 ]; then
  FAILED=()
  for name in "${NAMES[@]}"; do
    file="BENCH_$name.json"
    rules=()
    while read -r bench rule; do
      if [ "$bench" = "$file" ]; then
        rules+=(--rule "$rule")
      fi
    done < "$ROOT/bench/ratchet_rules.txt"
    if ! "$RATCHET" check --baseline "$ROOT/$file" \
        --current "$OUT_DIR/$file" "${rules[@]}"; then
      FAILED+=("$name")
    fi
  done
  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "run_perf: ratchet check failed for: ${FAILED[*]}" >&2
    exit 1
  fi
fi

echo "run_perf: done; stamped results in $OUT_DIR"
