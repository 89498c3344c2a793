#!/usr/bin/env bash
# Bench smoke: run every bench driver once at minimal sizes and fail on any
# nonzero exit. Benches are not part of ctest, so without this they only
# ever compile in CI and can bit-rot at runtime (stale flags, renamed
# registry algorithms, workload API drift). Drivers enforce their own
# same-run floors through that exit code, on every machine:
#   - bench_server_throughput: cached compress >= 100x the cold DP, a
#     compress at an uncached bound on a generation whose DP state is
#     cached (a re-query) >= 30x the cold compress, and Info RPCs with 64
#     idle connections >= 0.5x alone;
#   - bench_scenario_expand: one program request >= 5x the same scenarios
#     as RPCs, bitwise identical;
#   - bench_incremental_update: patched recompress >= 2x the cold DP,
#     field- and byte-identical;
#   - bench_evaluate_kernel: simd_batch (BATCHSTAT lines) and native jit
#     code (JITSTAT lines with mode=native; a jit fallback is the compiled
#     kernel itself) >= 1.0x the single-scenario compiled loop, and the
#     auto-routed backend at width 1 and 40 no more than 1.5x slower than
#     the fastest registered one (ROUTESTAT best_over_auto >= 0.67),
#     one 40-scenario simd_batch call >= 1.2x ten 4-scenario calls on the
#     same scenarios (LANESTAT ratio: two lane groups per CSR walk), and,
#     where simd_batch runs AVX-512 lanes, its 40-scenario call (16 + 16
#     lanes, then an 8-lane AVX2 tail) >= 1.0x the same call pinned to
#     AVX2 lanes (KINDSTAT ratio). BATCHSTAT and JITSTAT time the
#     compiled loop in the same interleaved rounds as the backend.
# bench_evaluate_kernel and bench_parallel_scaling also exit nonzero when an
# evaluation path (the serving evaluator, or a call split across the pool)
# differs bitwise from the path it is compared against.
# Other timings printed here are meaningless.
#
# Usage: tools/bench_smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "bench_smoke: no such directory: $BENCH_DIR" >&2
  exit 2
fi

# Minimal sizes: tiny workload scale, a low brute-force cut ceiling, and a
# short benchmark_min_time for the Google Benchmark ablation drivers (which
# ignore the env vars' scale only partially — the flag keeps them fast).
export PROVABS_BENCH_SCALE="${PROVABS_BENCH_SCALE:-0.05}"
export PROVABS_BRUTE_MAX_CUTS="${PROVABS_BRUTE_MAX_CUTS:-300}"

failures=0
count=0
for bench in "$BENCH_DIR"/bench_*; do
  [ -x "$bench" ] || continue
  [ -f "$bench" ] || continue
  name=$(basename "$bench")
  count=$((count + 1))
  args=()
  # Google Benchmark drivers accept --benchmark_min_time; the self-timed
  # drivers would reject unknown flags, so sniff by name.
  case "$name" in
    bench_ablation_mlcompute|bench_ablation_sparse_dp)
      args=(--benchmark_min_time=0.01) ;;
  esac
  echo "== $name ${args[*]:-}"
  "$bench" "${args[@]}" > /dev/null 2> /tmp/bench_smoke_err.$$
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAILED: $name (exit $rc)" >&2
    sed 's/^/    /' /tmp/bench_smoke_err.$$ >&2
    failures=$((failures + 1))
  fi
  rm -f /tmp/bench_smoke_err.$$
done

if [ "$count" -eq 0 ]; then
  echo "bench_smoke: no bench binaries found under $BENCH_DIR" >&2
  exit 2
fi

echo "bench_smoke: $count drivers, $failures failures"
[ "$failures" -eq 0 ]
