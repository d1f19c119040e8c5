#!/usr/bin/env bash
# One-command Release-mode perf harness (docs/benchmarks.md):
#
#   configure (Release) -> build -> run perf_placement + perf_storage +
#   perf_latency -> stamp build-type context -> optionally ratchet-check
#   vs baseline.
#
# Outputs (stamped, i.e. context reports the code-under-test build type):
#   BENCH_placement.json  full perf_placement run -- the ratchet baseline
#   BENCH_batch.json      bm_batch_place rows only (BatchPlacer sweep)
#   BENCH_storage.json    perf_storage run
#   BENCH_latency.json    perf_latency SLO run (p99 policy-ordering rule)
#   BENCH_durability.json perf_durability churn run (counter-ordering rules)
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

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" \
  --target perf_placement perf_storage perf_latency perf_durability \
  perf_ratchet -j"$(nproc)"

RATCHET="$BUILD_DIR/tools/perf_ratchet"

run_and_stamp() {
  local bin="$1" raw="$2" out="$3" filter="$4"
  local args=("--benchmark_out=$raw" "--benchmark_out_format=json")
  if [ -n "$filter" ]; then
    args+=("--benchmark_filter=$filter")
  fi
  "$bin" "${args[@]}"
  "$RATCHET" stamp --in "$raw" --out "$out"
}

run_and_stamp "$BUILD_DIR/bench/perf_placement" \
  "$BUILD_DIR/bench/placement_raw.json" \
  "$OUT_DIR/BENCH_placement.json" "$FILTER"
run_and_stamp "$BUILD_DIR/bench/perf_placement" \
  "$BUILD_DIR/bench/batch_raw.json" \
  "$OUT_DIR/BENCH_batch.json" "bm_batch_place"
run_and_stamp "$BUILD_DIR/bench/perf_storage" \
  "$BUILD_DIR/bench/storage_raw.json" \
  "$OUT_DIR/BENCH_storage.json" "$FILTER"
run_and_stamp "$BUILD_DIR/bench/perf_latency" \
  "$BUILD_DIR/bench/latency_raw.json" \
  "$OUT_DIR/BENCH_latency.json" "$FILTER"
run_and_stamp "$BUILD_DIR/bench/perf_durability" \
  "$BUILD_DIR/bench/durability_raw.json" \
  "$OUT_DIR/BENCH_durability.json" "$FILTER"

# Every rule runs, whatever the ones before it found: `check` records a
# failing rule instead of letting `set -e` stop the script, and the script
# exits non-zero at the end if any rule failed.
FAILED_RULES=()
check() {
  local name="$1"
  shift
  if ! "$RATCHET" check "$@"; then
    FAILED_RULES+=("$name")
  fi
}

if [ "$CHECK" = 1 ]; then
  check placement \
    --baseline "$ROOT/BENCH_placement.json" \
    --current "$OUT_DIR/BENCH_placement.json" \
    --min-speedup "bm_factory_replicated/fast_redundant_share/1000/4:bm_factory_replicated/redundant_share/1000/4:10"
  # The SLO rule is machine-independent (seeded queueing-model outputs),
  # so it is strict: power-of-two must beat random at p99 under Zipf-0.9.
  check latency \
    --baseline "$ROOT/BENCH_latency.json" \
    --current "$OUT_DIR/BENCH_latency.json" \
    --max-p99-ratio "bm_loadsim/zipf09/power-of-two:bm_loadsim/zipf09/random:1.0"
  # Durability orderings are machine-independent too (seeded event-model
  # counters): more replication never loses more, repair never hurts, and
  # the adaptive strategy never moves more than the striping baseline.
  check durability \
    --baseline "$ROOT/BENCH_durability.json" \
    --current "$OUT_DIR/BENCH_durability.json" \
    --max-counter-ratio "exp_loss_ppm:bm_churnsim/k3:bm_churnsim/k2:1.0" \
    --max-counter-ratio "exp_loss_ppm:bm_churnsim/k4:bm_churnsim/k3:1.0" \
    --max-counter-ratio "loss_ppm:bm_churnsim/k3:bm_churnsim/k3_repair_off:1.0" \
    --max-counter-ratio "max_move_ratio:bm_churnsim/k3:bm_churnsim/k3/round_robin:1.0"
  # Same-run storage budgets: a mirrored 4 KiB read verifies one copy, and
  # a mirrored 4 KiB overwrite seals one copy (memcmp matches the others),
  # so each may cost at most two fragment-checksum passes of the same bytes.
  check storage \
    --baseline "$ROOT/BENCH_storage.json" \
    --current "$OUT_DIR/BENCH_storage.json" \
    --min-speedup "bm_disk_read/0:bm_fragment_checksum/4096:0.5" \
    --min-speedup "bm_disk_overwrite/0:bm_fragment_checksum/4096:0.5"
  if [ "${#FAILED_RULES[@]}" -gt 0 ]; then
    echo "run_perf: ratchet check failed for: ${FAILED_RULES[*]}" >&2
    exit 1
  fi
fi

echo "run_perf: done; stamped results in $OUT_DIR"
