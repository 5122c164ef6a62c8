//! # repro-bench — the benchmark harness
//!
//! One Criterion bench per subsystem plus `bench_figures`, which regenerates
//! every table and figure of the paper (the `cargo bench` entry point the
//! reproduction brief asks for). Helpers shared by the benches live here.

pub mod per_task;

use std::time::Instant;

use amt::Runtime;
use octotiger::gravity::{self, GravityKernels, GravityWorkspace, InteractionCache};
use octotiger::kernel_backend::{Dispatch, SimdPolicy};
use octotiger::{Driver, KernelType, OctoConfig};

/// A small rotating-star driver for kernel benches (level 1, one step).
pub fn tiny_driver(kernel: KernelType) -> Driver {
    Driver::new(OctoConfig {
        max_level: 1,
        stop_step: 1,
        ..OctoConfig::with_all_kernels(kernel)
    })
}

/// A runtime sized for this host.
pub fn bench_runtime() -> Runtime {
    Runtime::new(std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4)))
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
    fn helpers_construct() {
        let rt = bench_runtime();
        assert!(rt.num_threads() >= 2);
        let d = tiny_driver(KernelType::KokkosSerial);
        assert!(d.tree().leaf_count() >= 8);
    }

    #[test]
    fn gravity_kernel_sweeps_report_one_finite_point_per_policy() {
        let d = tiny_driver(KernelType::KokkosSerial);
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
