//! # repro-bench — what the referee cannot see
//!
//! Every end-to-end and per-layer number of this repository is measured by
//! the referee in `benchmark/` (`benchmark/run.sh`, six workloads, the
//! catalogue in `BENCHMARK.json`). This crate holds the three measurements
//! an application run cannot make, each a plain `fn main` timed with
//! `Instant`, each with a committed `BENCH_*.json` baseline:
//!
//! * `bench_gravity`, `bench_hydro` — the kernels alone at every pack width
//!   (ns per interaction / per sweep at W ∈ {scalar, 1, 2, 4, 8});
//! * `bench_scale` — depth 2/4/5 with a mid-run regrid, and the level-4
//!   memory and rebuild-ratio gates CI runs;
//! * `bench_amt` — scheduler cost per empty task and its spread gate
//!   ([`per_task`]).
//!
//! The `bench_diff` binary re-measures what in those baselines does not
//! depend on the machine. What a bench and `bench_diff` both run lives
//! here, so the two cannot drift apart.

pub mod per_task;
pub mod scale;

use std::time::Instant;

use octotiger::gravity::{self, GravityKernels, GravityWorkspace, InteractionCache};
use octotiger::kernel_backend::{self, Dispatch, SimdPolicy};
use octotiger::{Driver, OctoConfig};

/// The pack widths a kernel sweep covers, the scalar oracle first.
pub const POLICIES: [SimdPolicy; 5] = [
    SimdPolicy::Scalar,
    SimdPolicy::Width(1),
    SimdPolicy::Width(2),
    SimdPolicy::Width(4),
    SimdPolicy::Width(8),
];

/// The rotating star refined to `level` — the tree the kernel sweeps walk.
pub fn star(level: u32) -> Driver {
    Driver::new(OctoConfig {
        max_level: level,
        ..OctoConfig::default()
    })
}

/// `BENCH_SMOKE=1`: one short pass for CI — gates fire, no baseline is
/// written (smoke numbers must not clobber the committed series).
pub fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Write `BENCH_<bench>.json` at the repository root: the header every
/// baseline shares (bench name, host and compiled SIMD ISA — what a reader
/// needs to tell whether two files' timings are comparable), the bench's own
/// numeric `params`, then its `rows` (one JSON object each) under `rows_key`.
pub fn write_baseline(bench: &str, params: &[(&str, String)], rows_key: &str, rows: &[String]) {
    let params: String = params
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value},\n"))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host_simd_isa\": \"{}\",\n  \
         \"compiled_simd_isa\": \"{}\",\n{params}  \"{rows_key}\": [\n    {}\n  ]\n}}\n",
        kernel_backend::host_simd_isa(),
        kernel_backend::compiled_simd_isa(),
        rows.join(",\n    ")
    );
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Cost of the two gravity kernels under one SIMD policy.
pub struct GravityKernelPoint {
    /// `SimdPolicy::label` of the policy.
    pub label: String,
    /// Near-field (P2P) nanoseconds per block-block interaction.
    pub p2p_ns_per_interaction: f64,
    /// Far-field (M2L) nanoseconds per block-node interaction.
    pub m2l_ns_per_interaction: f64,
}

/// Time the M2L and the P2P kernel over every leaf of `driver`'s tree, per
/// policy: best (min) of `iters` whole-tree sweeps, divided by the sweep's
/// interaction count. The policies are interleaved iteration by iteration:
/// ambient drift — frequency scaling, background load — hits every width
/// equally instead of penalizing whichever policy happens to be timed last,
/// and min filters OS scheduling noise, so width-vs-width ratios reflect
/// intrinsic kernel cost. The M2L time includes reading each far node's
/// `moments` entry in place (there is no gathered far table to time apart);
/// `Legacy` dispatch runs the kernels inline, away from task-scheduling
/// noise.
pub fn gravity_kernel_sweeps(
    driver: &Driver,
    policies: &[SimdPolicy],
    iters: u32,
) -> Vec<GravityKernelPoint> {
    let tree = driver.tree();
    let blocks: Vec<gravity::BlockSoA> = tree
        .leaf_ids()
        .iter()
        .map(|&l| gravity::compute_blocks(tree.subgrid(l)))
        .collect();
    let mut ws = GravityWorkspace::new();
    ws.upward_pass(tree, &blocks);
    let mut cache = InteractionCache::new();
    cache.ensure(tree, &ws.moments, driver.config().theta);
    let lists = cache.lists();
    let per_block = gravity::BLOCKS as f64;
    let far_interactions = lists.iter().map(|l| l.0.len() as f64).sum::<f64>() * per_block;
    let near_interactions =
        lists.iter().map(|l| l.1.len() as f64).sum::<f64>() * per_block * per_block;

    let d = Dispatch::Legacy;
    let mut acc = vec![[0.0; 3]; gravity::BLOCKS];
    // One whole-tree sweep of each kernel; returns (m2l ns, p2p ns).
    let mut sweep = |policy: SimdPolicy| {
        let kernels = GravityKernels {
            multipole: &d,
            monopole: &d,
            simd: policy,
        };
        let start = Instant::now();
        for (tb, (far, _)) in blocks.iter().zip(lists) {
            gravity::m2l_blocks(&kernels, tb, &ws.moments, far, &mut acc);
            std::hint::black_box(&acc);
        }
        let m2l = start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        for ((&leaf, tb), (_, near)) in tree.leaf_ids().iter().zip(&blocks).zip(lists) {
            let eps = gravity::softening(tree.node_geometry(leaf).1);
            gravity::p2p_blocks(&kernels, &blocks, &ws.leaf_pos, tb, near, eps, &mut acc);
            std::hint::black_box(&acc);
        }
        (m2l, start.elapsed().as_nanos() as f64)
    };
    let mut best = vec![(f64::INFINITY, f64::INFINITY); policies.len()];
    // Iteration 0 is the warm-up.
    for it in 0..=iters {
        for (best, &p) in best.iter_mut().zip(policies) {
            let (m2l, p2p) = sweep(p);
            if it > 0 {
                *best = (best.0.min(m2l), best.1.min(p2p));
            }
        }
    }
    policies
        .iter()
        .zip(best)
        .map(|(p, (m2l, p2p))| GravityKernelPoint {
            label: p.label(),
            p2p_ns_per_interaction: p2p / near_interactions,
            // A level-1 tree (the smoke run) has no far field: report 0.
            m2l_ns_per_interaction: if far_interactions > 0.0 {
                m2l / far_interactions
            } else {
                0.0
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gravity_kernel_sweeps_report_one_finite_point_per_policy() {
        let d = star(1);
        let policies = [SimdPolicy::Scalar, SimdPolicy::Width(4)];
        let points = gravity_kernel_sweeps(&d, &policies, 1);
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].label, "simd4");
        for p in &points {
            assert!(p.p2p_ns_per_interaction.is_finite() && p.p2p_ns_per_interaction > 0.0);
            assert!(p.m2l_ns_per_interaction.is_finite());
        }
    }
}
