//! Hydro kernel sweep — the BENCH_hydro.json datapoint.
//!
//! One full hydro step (MUSCL reconstruction + HLL fluxes) over every leaf
//! of the level-2 star, scalar reference vs the staged SoA SIMD path (each
//! leaf's ghost frame gathered and converted in place, each face flux once)
//! at every supported pack width, and next to it the CFL reduction over the
//! same leaves. Legacy dispatch = inline serial execution, isolating the
//! kernels from scheduling noise.
//! The application run cannot give this: it executes one width. What the
//! step costs end to end is the referee's
//! `octotiger.hydro.{step_s,cfl_leaf_s}`.
//!
//! `BENCH_SMOKE=1` runs one iteration at level 1 for CI and writes nothing.

use std::time::Instant;

use octotiger::hydro;
use octotiger::kernel_backend::{Dispatch, SimdPolicy};
use octotiger::star::NF;
use octotiger::subgrid::{CELLS, FRAME_LEN};
use octotiger::{OctoConfig, Octree, RotatingStar};
use repro_bench::{smoke, write_baseline, POLICIES};

struct KernelPoint {
    label: String,
    ns_per_sweep: f64,
    cfl_ns_per_sweep: f64,
}

/// Best (min) wall time of `iters` full-tree hydro sweeps per policy, with
/// the policies interleaved iteration-by-iteration: ambient drift hits every
/// width equally instead of penalizing whichever policy is timed last, and
/// min filters OS scheduling noise, so width-vs-width gaps reflect intrinsic
/// kernel cost.
fn time_kernel_sweeps(tree: &Octree, policies: &[SimdPolicy], iters: u32) -> Vec<KernelPoint> {
    let d = Dispatch::Legacy;
    let mut frame = vec![0.0; FRAME_LEN];
    let mut out = vec![[0.0; NF]; CELLS];
    let dt = 1.0e-4;
    let mut sweep = |policy: SimdPolicy| {
        for (pos, &leaf) in tree.leaf_ids().iter().enumerate() {
            let grid = tree.subgrid(leaf);
            tree.gather_frame(pos, &mut frame, |n| tree.subgrid(n));
            match policy {
                SimdPolicy::Scalar => {
                    std::hint::black_box(hydro::step_interior(&frame, grid.dx, dt, &d));
                }
                SimdPolicy::Width(_) => {
                    hydro::step_interior_staged_into(grid, &mut frame, dt, &d, policy, &mut out);
                    std::hint::black_box(&out);
                }
            }
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
        sweep(p); // warm-up
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

fn main() {
    let smoke = smoke();
    let (level, iters) = if smoke { (1, 1) } else { (2, 20) };
    let config = OctoConfig {
        max_level: level,
        ..OctoConfig::default()
    };
    let mut tree = Octree::build(&RotatingStar::paper_default(), &config, 1.0);
    tree.plan_ghosts(|_| true);
    let points = time_kernel_sweeps(&tree, &POLICIES, iters);
    let scalar_ns = points[0].ns_per_sweep;
    for p in &points {
        println!(
            "hydro-simd/muscl_hll_sweep/{}: min {:.2} µs ({:.2}x vs scalar), cfl {:.2} µs",
            p.label,
            p.ns_per_sweep / 1e3,
            scalar_ns / p.ns_per_sweep,
            p.cfl_ns_per_sweep / 1e3
        );
    }
    if smoke {
        println!("BENCH_SMOKE=1: skipping BENCH_hydro.json write");
        return;
    }
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"policy\": \"{}\", \"ns_per_sweep\": {:.0}, \
                 \"speedup_vs_scalar\": {:.3}, \"cfl_ns_per_sweep\": {:.0}}}",
                p.label,
                p.ns_per_sweep,
                scalar_ns / p.ns_per_sweep,
                p.cfl_ns_per_sweep
            )
        })
        .collect();
    write_baseline(
        "hydro",
        &[
            ("tree_level", level.to_string()),
            ("sweep_iters", iters.to_string()),
        ],
        "kernel_sweeps",
        &rows,
    );
}
