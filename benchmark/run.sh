#!/usr/bin/env bash
# The one command of the referee benchmark: build with the pinned flags, then
# hand every argument to the benchmark binary.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--workload W] [--label L] [--traced] [--smoke]
#       the set, one process per workload, results in benchmark/results/<L>/
#   benchmark/run.sh compare A B | compare --self-test
#
# Flags are pinned, recorded in every result and enforced by `compare`:
# the host CPU's full ISA, and on x86_64 without LLVM's `prefer-256-bit`
# default so the 8-lane f64 packs get real zmm registers (the same pair the
# full runs of scripts/bench.sh use).
set -euo pipefail
cd "$(dirname "$0")/.."

FLAGS="-C target-cpu=native"
if [[ "$(uname -m)" == "x86_64" ]]; then
  FLAGS="$FLAGS -C target-feature=-prefer-256-bit"
fi
export RUSTFLAGS="$FLAGS"
# Its own target directory, so the tier-1 build cache is not thrashed.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

# Build output goes to stderr: stdout carries only the benchmark's report.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

export BENCHMARK_RUSTFLAGS="$RUSTFLAGS"
BENCHMARK_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCHMARK_COMMIT
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
