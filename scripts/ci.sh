#!/usr/bin/env bash
# Tier-1 CI gate: build, test, format, lint. Run from anywhere; operates on
# the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

# The wire format is ours (`distrib::wire`): no serializer dependency may come
# back, and nothing in the workspace may need a proc-macro to build. The
# runtime stack is `std` alone: locks and condvars are `std::sync`'s (taken
# through `amt::lock`), frames are `Vec<u8>`, the scheduler's queues are
# `amt`'s own deque, and a delivered frame is read by a task on its
# destination's runtime (`distrib::cluster`), so no channel carries parcels.
# `shims/` holds the one stand-in the tests use, `proptest`.
echo "== structure: std only — no serde, crossbeam, parking_lot, bytes or proc-macro crate =="
if git grep -n "serde" -- '*Cargo.toml' Cargo.lock; then
  echo "serde is back in a manifest or the root lock file" >&2
  exit 1
fi
if git grep -nwE "crossbeam-channel|crossbeam-deque|parking_lot|bytes" -- '*Cargo.toml' Cargo.lock; then
  echo "a crate the runtime stack replaced with std is back in a manifest or the root lock file" >&2
  exit 1
fi
if [[ "$(git ls-files shims | cut -d/ -f2 | sort -u)" != "proptest" ]]; then
  echo "shims/ holds something besides proptest:" >&2
  git ls-files shims >&2
  exit 1
fi
if git grep -nE "^proc-macro *= *true" -- '*Cargo.toml'; then
  echo "a workspace member is a proc-macro crate" >&2
  exit 1
fi
# The cluster runs all its work on the localities' `amt` runtimes: a frame
# is delivered inside the call that sends it and read in a receive task, so
# `distrib` starts no OS thread of its own. Test code is exempt: each file is
# cut at its first `#[cfg(test)]`, as `scripts/loc.sh` counts.
echo "== structure: no OS thread started in distrib's non-test code =="
spawns=$(find crates/distrib/src -name '*.rs' -print0 | xargs -0 awk '
  /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
  /thread::spawn|thread::Builder/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$spawns" ]]; then
  echo "distrib starts an OS thread outside its tests:" >&2
  echo "$spawns" >&2
  exit 1
fi
# A deposit is its frame: the step writes a leaf's interior into the frame
# and reads it back from it in place (`SubGrid::interior`, `interior_mut`),
# and hashes it in place. The copying `interior_data()` is for callers
# outside the crate; octotiger's non-test code, cut as above, never calls it
# — as a method or by its path. Comment lines do not count.
echo "== structure: no interior copied in octotiger's non-test code =="
copies=$(find crates/octotiger/src -name '*.rs' -print0 | xargs -0 awk '
  /^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
  /^[[:space:]]*\/\// { next }
  /(\.|::)interior_data[[:space:]]*\(/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$copies" ]]; then
  echo "octotiger copies a leaf interior through interior_data() outside its tests:" >&2
  echo "$copies" >&2
  exit 1
fi
# Non-test lines per crate, against a budget: the total this tree has. A
# change that grows it raises the budget in its own diff and says why in
# CHANGES.md.
echo "== line budget: non-test lines =="
bash scripts/loc.sh --budget 16992

echo "== cargo build --release =="
cargo build --release

# Every crate's unit, integration and doc tests, the shims' included, once.
echo "== cargo test --workspace -q =="
cargo test --workspace -q

# The pinned gravity hashes were recorded from the two fallback-only builds:
# `mul_add` as mul + add (default flags — the workspace run above), and fused
# (`+fma`, which compiles no backend: those need AVX2 or AVX-512F — this
# step). The native-ISA step below holds the backends to the fused row. Own
# target directory per flag set: different RUSTFLAGS would otherwise evict
# the default build.
echo "== gravity bits: lane-loop fallback, fused =="
RUSTFLAGS="-C target-feature=+fma" CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/fma" \
  cargo test -q -p octotiger --test gravity_bits

# Default flags compile only the lane-loop fallback of `Simd<W>`; this is
# the one place CI builds the AVX2 / AVX-512 backends and holds them to the
# same bits (backend ops == lane loops, gravity pinned to the fallback's
# hashes, every bitwise suite) — and the one build in which `bench_diff`'s
# fresh M2L sweep has a 4-lane backend to judge. The flags are the
# referee's — benchmark/run.sh spells them `FLAGS="-C target-cpu=native"`
# plus, on x86_64, `-C target-feature=-prefer-256-bit` — so on an AVX-512
# host the default lane count is 8 and the suites below run on real zmm
# packs, the codegen that is measured.
NATIVE_FLAGS="-C target-cpu=native"
if [[ "$(uname -m)" == "x86_64" ]]; then
  NATIVE_FLAGS="$NATIVE_FLAGS -C target-feature=-prefer-256-bit"
fi
echo "== native-ISA step ($NATIVE_FLAGS): SIMD backends keep the fallback's bits =="
(
  export RUSTFLAGS="$NATIVE_FLAGS"
  export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/native"
  cargo test -q -p kokkos-lite -p octotiger
  cargo test -q --test simd_gravity_prop --test simd_hydro_prop --test ghost_plan_prop \
    --test distributed_bits
  cargo run --release -q -p repro-bench --bin bench_diff -- gravity
)

# The referee in benchmark/ is frozen between `[benchmark]` PRs and builds
# against this workspace by path: deleting an API it names has to fail here,
# not in the pipeline that runs it. Its flags and target directory are
# run.sh's, so the two share one build. The un-`--locked` build prunes the
# stale benchmark/Cargo.lock in the working tree; put it back.
echo "== frozen referee: builds and passes its own tests against this workspace =="
RUSTFLAGS="$NATIVE_FLAGS" CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/benchmark" \
  cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
git checkout -- benchmark/Cargo.lock
if [[ -n "$(git status --porcelain benchmark/)" ]]; then
  echo "the referee's tests left benchmark/ dirty" >&2
  git status --short benchmark/ >&2
  exit 1
fi

# What the referee cannot see (crates/bench), one short pass each; the
# gates inside them fire, no BENCH_*.json is rewritten.
echo "== kernel sweep smokes (gravity, hydro: every pack width runs) =="
BENCH_SMOKE=1 cargo bench -q -p repro-bench --bench bench_gravity
BENCH_SMOKE=1 cargo bench -q -p repro-bench --bench bench_hydro

# Also the memory gate: level-4 peak RSS at most 67.3 B per cell (61.2
# measured with hydro before gravity in wavefront order and no acceleration
# table, plus 10 %).
echo "== deep-tree scale smoke (level 4: mid-run regrid rebuilds < 25% of lists, peak RSS <= 67.3 B/cell) =="
BENCH_SMOKE=1 cargo bench -q -p repro-bench --bench bench_scale

echo "== scheduler per-task smoke (spread gate on the external-producer case) =="
BENCH_SMOKE=1 cargo bench -q -p repro-bench --bench bench_amt

echo "== baseline gate (self-test, then counts / ratios against the committed BENCH_*.json) =="
cargo run --release -q -p repro-bench --bin bench_diff -- --self-test
BENCH_SMOKE=1 cargo run --release -q -p repro-bench --bin bench_diff

# One observability option (`--trace-out`), one reader (`trace_report`): a
# traced run samples its counters at its step boundaries, so neither smoke
# passes a second flag.
echo "== trace smoke: 2 localities, flow events, counter series, analyzer =="
TRACE_OUT=$(mktemp -t apexlite_ci_XXXXXX.json)
FLAME_OUT=$(mktemp -t apexlite_flame_XXXXXX.txt)
cargo run --release --example distributed_cluster -- \
  --max_level=1 --stop_step=2 --hpx:threads=2 \
  --trace-out="$TRACE_OUT" >/dev/null
# --require: all three instrumented layers are in the trace, the
# receive span, which runs on the localities' workers, and the in-nodes'
# spans, one per kind of deposit (where a step took its peer's halo, rate
# and blocks). --require-flow:
# the 2-locality run pairs every received parcel's "f" flow event with its
# sender's "s" (the Perfetto arrows exist). --check: non-empty critical path
# within the wall window, utilization rows, a non-empty flamegraph, a
# distributed critical path that bounds every single-locality path (whether
# it crosses a network leg is the run's timing, not a gate), and ordered
# latency percentiles with histogram count == parcels delivered — read off
# the cluster-wide imbalance + parcel-latency series the run sampled.
cargo run --release -p apex-lite --bin trace_report -- \
  --check --require task,phase,comm,parcel_recv,halo_exchange,rate_exchange,blocks_exchange \
  --min-spans 10 --require-flow \
  --require-counter=/runtime/imbalance \
  --require-counter=/comms/parcel_latency --flame-out="$FLAME_OUT" \
  "$TRACE_OUT"
test -s "$FLAME_OUT"
rm -f "$TRACE_OUT" "$FLAME_OUT"

# The overlap gate runs at level 2 (64 leaves): on single-core CI hosts,
# overlap of two span families depends on the OS preempting a worker
# mid-span, and level-1 runs are short enough to miss that window ~40% of
# the time. Level 2 gives each family ~10x the open-span time and passes
# deterministically (measured 10/10 on a 1-core box vs 6/10 at level 1).
# The driver-owned counters (`/gravity/*`, `/work/*`, the wavefront's
# `/step/held_results_hwm`, the ghost plan's `/ghost/plan_rebuilds`: one per
# generation planned, patched or whole) are in the trace too.
echo "== step trace: gravity/hydro spans overlap, driver-owned counters sampled =="
TRACE_FUT=$(mktemp -t apexlite_fut_XXXXXX.json)
cargo run --release --example rotating_star -- \
  --max_level=2 --stop_step=3 --hpx:threads=4 \
  --trace-out="$TRACE_FUT" >/dev/null
cargo run --release -p apex-lite --bin trace_report -- \
  --check --require-overlap=gravity_solve,hydro_step \
  --require-counter=/gravity/cache_hits --require-counter=/work/gravity_flops \
  --require-counter=/step/held_results_hwm \
  --require-counter=/ghost/plan_rebuilds \
  "$TRACE_FUT"
rm -f "$TRACE_FUT"

# The exhibits are projections of host-measured counts (tasks spawned among
# them): a change that moves one must regenerate figures_full.txt in the same
# commit. The generator is deterministic; about two and a half minutes.
echo "== exhibits: figures_full.txt is what this tree generates =="
cargo run --release -p octo-core --bin figures -- all | diff - figures_full.txt

# Every intra-doc link resolves (links to private items are another lint).
echo "== cargo doc: no broken intra-doc link =="
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
