//! Hydro SIMD + step-pipeline bench — the BENCH_hydro.json datapoint.
//!
//! Two experiments:
//!
//! 1. Kernel sweep: one full hydro step (MUSCL reconstruction + HLL fluxes)
//!    over every leaf of the rotating-star tree, scalar reference vs the
//!    staged SoA SIMD path (stage built per leaf, each face flux once) at
//!    every supported pack width, and next to it the CFL reduction over the
//!    same leaves. Legacy dispatch = inline serial execution, isolating the
//!    kernels from scheduling noise.
//! 2. Step pipeline: a short multi-worker driver run of the step's task
//!    graph, reporting wall time, the measured gravity/hydro overlap ratio
//!    and the task counts `bench_diff` holds exact.
//!
//! Results go to stdout (criterion-style lines) and, on a full run, to
//! `BENCH_hydro.json` at the repo root so successive PRs accumulate a
//! baseline series.
//!
//! `BENCH_SMOKE=1` runs one short iteration for CI (no timing assertions,
//! no JSON write — smoke numbers must not clobber the committed baseline).

use std::time::Instant;

use octotiger::hydro;
use octotiger::kernel_backend::{Dispatch, KernelType, SimdPolicy};
use octotiger::recycle::RecyclePool;
use octotiger::subgrid::CELLS;
use octotiger::{Driver, OctoConfig};

struct KernelPoint {
    label: String,
    ns_per_sweep: f64,
    cfl_ns_per_sweep: f64,
}

struct StepPoint {
    seconds: f64,
    overlap_ratio: f64,
    tasks_spawned: u64,
    fused_launches: u64,
}

/// Worker count for the step-pipeline comparison. The paper's RISC-V runs
/// sweep 1..64 cores; CI boxes are small, so stay modest and deterministic.
const STEP_THREADS: usize = 3;

fn bench_config(level: u32, steps: u32) -> OctoConfig {
    OctoConfig {
        max_level: level,
        stop_step: steps,
        threads: STEP_THREADS,
        simd_width: 4,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

/// Best (min) wall time of `iters` full-tree hydro sweeps per policy, with
/// the policies interleaved iteration-by-iteration: ambient drift hits every
/// width equally instead of penalizing whichever policy is timed last, and
/// min filters OS scheduling noise, so width-vs-width gaps reflect intrinsic
/// kernel cost.
fn time_kernel_sweeps(driver: &Driver, policies: &[SimdPolicy], iters: u32) -> Vec<KernelPoint> {
    let tree = driver.tree();
    let d = Dispatch::Legacy;
    let state_pool = RecyclePool::new();
    let stage_pool = RecyclePool::new();
    let dt = 1.0e-4;
    let sweep = |policy: SimdPolicy| {
        for &leaf in tree.leaf_ids() {
            let out = match policy {
                SimdPolicy::Scalar => hydro::step_interior(tree.subgrid(leaf), dt, &d),
                SimdPolicy::Width(_) => {
                    let mut out = state_pool.acquire(CELLS);
                    let grid = tree.subgrid(leaf);
                    hydro::step_interior_staged_into(grid, dt, &d, policy, &mut out, &stage_pool);
                    out
                }
            };
            state_pool.release(std::hint::black_box(out));
        }
    };
    let cfl_sweep = |policy: SimdPolicy| {
        let speeds = tree
            .leaf_ids()
            .iter()
            .map(|&leaf| hydro::max_signal_speed_policy(tree.subgrid(leaf), &d, policy));
        std::hint::black_box(speeds.fold(0.0, f64::max));
    };
    for &p in policies {
        sweep(p); // warm-up (also primes the pools)
    }
    let mut best = vec![(f64::INFINITY, f64::INFINITY); policies.len()];
    for _ in 0..iters {
        for (i, &p) in policies.iter().enumerate() {
            let start = Instant::now();
            sweep(p);
            best[i].0 = best[i].0.min(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            cfl_sweep(p);
            best[i].1 = best[i].1.min(start.elapsed().as_nanos() as f64);
        }
    }
    policies
        .iter()
        .zip(best)
        .map(|(p, (ns, cfl_ns))| KernelPoint {
            label: p.label(),
            ns_per_sweep: ns,
            cfl_ns_per_sweep: cfl_ns,
        })
        .collect()
}

/// One multi-worker driver run; wall time + measured overlap + task counts.
fn run_step(level: u32, steps: u32) -> StepPoint {
    let mut driver = Driver::new(bench_config(level, steps));
    let m = driver.run(STEP_THREADS);
    StepPoint {
        seconds: m.elapsed_seconds,
        overlap_ratio: m.overlap_ratio,
        tasks_spawned: m.runtime_stats.tasks_spawned,
        fused_launches: driver.aggregation_stats().fused_launches,
    }
}

/// Best-of-`reps` step run. Min (not mean) filters OS scheduling noise,
/// which dominates on small shared CI hosts — the fastest run is the one
/// closest to intrinsic cost.
fn time_step(level: u32, steps: u32, reps: u32) -> StepPoint {
    (0..reps)
        .map(|_| run_step(level, steps))
        .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
        .expect("at least one repetition")
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (level, iters, steps, reps) = if smoke { (1, 1, 1, 1) } else { (2, 20, 10, 7) };

    let driver = Driver::new(bench_config(level, steps));
    let policies = [
        SimdPolicy::Scalar,
        SimdPolicy::Width(1),
        SimdPolicy::Width(2),
        SimdPolicy::Width(4),
        SimdPolicy::Width(8),
    ];
    let kernel_points = time_kernel_sweeps(&driver, &policies, iters);
    for p in &kernel_points {
        println!(
            "hydro-simd/muscl_hll_sweep/{}: min {:.2} µs, cfl {:.2} µs",
            p.label,
            p.ns_per_sweep / 1e3,
            p.cfl_ns_per_sweep / 1e3
        );
    }
    let scalar_ns = kernel_points[0].ns_per_sweep;
    for p in &kernel_points[1..] {
        println!(
            "hydro-simd/speedup/{}: {:.2}x vs scalar",
            p.label,
            scalar_ns / p.ns_per_sweep
        );
    }

    let step = time_step(level, steps, reps);
    println!(
        "hydro-step/steps: {:.2} ms, overlap_ratio {:.3}, tasks_spawned {} fused_launches {}",
        step.seconds * 1e3,
        step.overlap_ratio,
        step.tasks_spawned,
        step.fused_launches
    );

    if smoke {
        println!("BENCH_SMOKE=1: skipping BENCH_hydro.json write");
        return;
    }

    let kernel_json: Vec<String> = kernel_points
        .iter()
        .map(|p| {
            format!(
                "    {{\"policy\": \"{}\", \"ns_per_sweep\": {:.0}, \"speedup_vs_scalar\": {:.3}, \"cfl_ns_per_sweep\": {:.0}}}",
                p.label,
                p.ns_per_sweep,
                scalar_ns / p.ns_per_sweep,
                p.cfl_ns_per_sweep
            )
        })
        .collect();
    let step_json = format!(
        "    {{\"seconds\": {:.6}, \"overlap_ratio\": {:.4}, \"tasks_spawned\": {}, \"fused_launches\": {}}}",
        step.seconds, step.overlap_ratio, step.tasks_spawned, step.fused_launches
    );
    let json = format!(
        "{{\n  \"bench\": \"hydro\",\n  \"host_simd_isa\": \"{}\",\n  \"compiled_simd_isa\": \"{}\",\n  \"tree_level\": {level},\n  \"steps\": {steps},\n  \"sweep_iters\": {iters},\n  \"step_reps\": {reps},\n  \"threads\": {STEP_THREADS},\n  \"kernel_sweeps\": [\n{}\n  ],\n  \"step_modes\": [\n{}\n  ]\n}}\n",
        octotiger::kernel_backend::host_simd_isa(),
        octotiger::kernel_backend::compiled_simd_isa(),
        kernel_json.join(",\n"),
        step_json,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hydro.json");
    std::fs::write(path, json).expect("write BENCH_hydro.json");
    println!("wrote {path}");
}
