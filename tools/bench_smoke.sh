#!/usr/bin/env bash
# Bench smoke: run every bench driver once at minimal sizes and fail on any
# nonzero exit. Benches are not part of ctest, so without this they only
# ever compile in CI and can bit-rot at runtime (stale flags, renamed
# registry algorithms, workload API drift). Drivers enforce their own
# same-run floors through that exit code, on every machine:
# bench_server_throughput (cached compress >= 100x the cold DP, Info RPCs
# with 64 idle connections >= 0.5x alone), bench_scenario_expand (one
# program request >= 5x the same scenarios as RPCs, bitwise identical) and
# bench_incremental_update (patched recompress >= 2x the cold DP, field-
# and byte-identical). Other timings printed here are meaningless — with
# TWO machine-keyed exceptions, checked only when the current MACHINEKEY
# (cpu model) matches the cpu recorded in BENCH_evaluate.json; on other
# machines they are skipped (their smoke timings are 3-240 us and swing
# about 2x between runs):
#   - bench_evaluate_kernel: the simd_batch backend must not fall below
#     1.0x the single-scenario compiled loop at the recorded batch width.
#     A vectorized backend slower than the scalar loop it batches is a
#     regression even at smoke scale.
#   - bench_evaluate_kernel: the jit arm's single-scenario sweep must not
#     fall below 1.0x the compiled loop — but only JITSTAT lines with
#     mode=native; hosts where the jit fell back (forced off, no executable
#     memory) skip cleanly, since the fallback IS the compiled kernel and
#     its ratio is just noise.
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
  # This driver's stdout carries the MACHINEKEY/stat lines the threshold
  # checks below parse; every other driver's is discarded.
  out=/dev/null
  case "$name" in
    bench_evaluate_kernel) out=/tmp/bench_smoke_eval.$$ ;;
  esac
  "$bench" "${args[@]}" > "$out" 2> /tmp/bench_smoke_err.$$
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAILED: $name (exit $rc)" >&2
    sed 's/^/    /' /tmp/bench_smoke_err.$$ >&2
    failures=$((failures + 1))
  fi
  rm -f /tmp/bench_smoke_err.$$
done

# Threshold the batched-arm ratios, keyed by machine: only meaningful on
# the CPU the reference numbers were recorded on.
EVAL_OUT=/tmp/bench_smoke_eval.$$
REFERENCE_JSON="$(cd "$(dirname "$0")/.." && pwd)/BENCH_evaluate.json"
if [ -s "$EVAL_OUT" ] && [ -f "$REFERENCE_JSON" ]; then
  recorded_cpu=$(sed -n 's/^[[:space:]]*"cpu": "\(.*\)",*$/\1/p' "$REFERENCE_JSON" | head -1)
  this_cpu=$(sed -n 's/^MACHINEKEY cpu=//p' "$EVAL_OUT" | head -1)
  if [ -n "$recorded_cpu" ] && [ "$recorded_cpu" = "$this_cpu" ]; then
    slow=$(awk '/^BATCHSTAT / && /backend=simd_batch/ {
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^ratio=/) { sub("ratio=", "", $i); if ($i + 0 < 1.0) print }
      }
    }' "$EVAL_OUT")
    if [ -n "$slow" ]; then
      echo "FAILED: simd_batch below 1.0x compiled on the recorded machine ($this_cpu):" >&2
      grep 'backend=simd_batch' "$EVAL_OUT" | sed 's/^/    /' >&2
      failures=$((failures + 1))
    else
      echo "bench_smoke: simd_batch batched-arm ratios >= 1.0x compiled (machine key matched)"
    fi
    # The jit arm: native code must beat the compiled loop it replaces.
    # Only mode=native lines are thresholded — a fallback line measures
    # the compiled kernel against itself plus dispatch overhead.
    jit_slow=$(awk '/^JITSTAT / && /mode=native/ {
      for (i = 1; i <= NF; i++) {
        if ($i ~ /^ratio=/) { sub("ratio=", "", $i); if ($i + 0 < 1.0) print }
      }
    }' "$EVAL_OUT")
    if [ -n "$jit_slow" ]; then
      echo "FAILED: jit below 1.0x compiled on the recorded machine ($this_cpu):" >&2
      grep '^JITSTAT ' "$EVAL_OUT" | sed 's/^/    /' >&2
      failures=$((failures + 1))
    elif grep -q 'mode=native' "$EVAL_OUT"; then
      echo "bench_smoke: jit single-scenario ratios >= 1.0x compiled (machine key matched)"
    else
      echo "bench_smoke: skipping jit threshold (jit arm ran in fallback mode)"
    fi
  else
    echo "bench_smoke: skipping simd_batch/jit thresholds (machine key '$this_cpu' != recorded '$recorded_cpu')"
  fi
fi
rm -f "$EVAL_OUT"

if [ "$count" -eq 0 ]; then
  echo "bench_smoke: no bench binaries found under $BENCH_DIR" >&2
  exit 2
fi

echo "bench_smoke: $count drivers, $failures failures"
[ "$failures" -eq 0 ]
