#!/usr/bin/env bash
# Benchmark baselines: runs the baseline benches in release mode and
# refreshes the BENCH_*.json files at the repo root (the cross-PR baseline
# series — commit the refreshed files).
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   one short iteration for CI; does NOT rewrite any BENCH_*.json
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi

# Full runs compile for the host CPU so wide f64 packs lower to real vector
# registers (AVX-512/AVX2/RVV) instead of split baseline ops — the JSON
# headers record both the host and the compiled ISA, so the committed series
# stays self-describing across machines. On AVX-512 x86 LLVM additionally
# defaults to `prefer-256-bit` (downclock mitigation), which lowers the
# 8-lane f64 packs to two ymm halves and makes W8 pure overhead over W4;
# `-prefer-256-bit` is dropped so W8 gets real zmm registers. Smoke runs
# keep default flags (CI determinism, no full-workspace rebuild churn).
# Override: BENCH_RUSTFLAGS.
if [[ "$SMOKE" == "0" ]]; then
  NATIVE="-C target-cpu=native"
  if [[ "$(uname -m)" == "x86_64" ]]; then
    NATIVE="$NATIVE -C target-feature=-prefer-256-bit"
  fi
  export RUSTFLAGS="${BENCH_RUSTFLAGS:-$NATIVE}"
  echo "full bench run: RUSTFLAGS=$RUSTFLAGS"
fi

echo "== gravity SIMD + interaction-cache bench (writes BENCH_gravity.json) =="
BENCH_SMOKE=$SMOKE cargo bench -q -p repro-bench --bench bench_gravity

echo "== hydro SIMD + step-pipeline bench (writes BENCH_hydro.json) =="
BENCH_SMOKE=$SMOKE cargo bench -q -p repro-bench --bench bench_hydro

echo "== tracer overhead bench (writes BENCH_trace_overhead.json) =="
BENCH_SMOKE=$SMOKE cargo bench -q -p repro-bench --bench bench_trace

echo "== deep-tree scale bench (writes BENCH_scale.json) =="
BENCH_SMOKE=$SMOKE cargo bench -q -p repro-bench --bench bench_scale

echo "== scheduler per-task bench (writes BENCH_amt.json) =="
BENCH_SMOKE=$SMOKE cargo bench -q -p repro-bench --bench bench_amt

if [[ "$SMOKE" == "0" ]]; then
  echo "== octotiger kernel bench (stdout reference numbers) =="
  cargo bench -q -p repro-bench --bench bench_octotiger

  echo
  echo "BENCH_gravity.json updated:"
  cat BENCH_gravity.json
  echo
  echo "BENCH_hydro.json updated:"
  cat BENCH_hydro.json
  echo
  echo "BENCH_trace_overhead.json updated:"
  cat BENCH_trace_overhead.json
  echo
  echo "BENCH_scale.json updated:"
  cat BENCH_scale.json
  echo
  echo "BENCH_amt.json updated:"
  cat BENCH_amt.json
fi
