#!/usr/bin/env bash
# Re-records the four BENCH_*.json baselines at the repo root — the numbers
# the referee in benchmark/ cannot see (per-width kernel sweeps, deep-tree
# scale, scheduler cost per empty task). Commit the refreshed files. Wall
# time end to end and per layer is `bash benchmark/run.sh`, not this script.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   one short pass (BENCH_SMOKE=1, default flags); rewrites nothing
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi

# Full runs use the referee's flag pair (benchmark/run.sh): compiled for the
# host CPU, and on x86_64 without LLVM's `prefer-256-bit` default, which
# would lower the 8-lane f64 packs to two ymm halves and make W8 pure
# overhead over W4. The JSON headers record host and compiled ISA. Own
# target directory (the one ci.sh's native step uses): different RUSTFLAGS
# would otherwise evict the default build.
if [[ "$SMOKE" == "0" ]]; then
  export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/native"
  RUSTFLAGS="-C target-cpu=native"
  if [[ "$(uname -m)" == "x86_64" ]]; then
    RUSTFLAGS="$RUSTFLAGS -C target-feature=-prefer-256-bit"
  fi
  export RUSTFLAGS
  echo "full bench run: RUSTFLAGS=$RUSTFLAGS"
fi

for bench in gravity hydro scale amt; do
  echo "== bench_$bench (BENCH_$bench.json) =="
  BENCH_SMOKE=$SMOKE cargo bench -q -p repro-bench --bench "bench_$bench"
done
