//! Pins a level-2 gravity solve to the bits of the lane-loop fallback.
//!
//! The constants below were recorded from builds in which `Simd<W>` has no
//! ISA backend (default flags; `-C target-feature=+fma` for the fused row).
//! A build that compiles a backend in (`-C target-cpu=native` on an AVX2 or
//! AVX-512 host) must reproduce them: a backend runs the same IEEE
//! operations per lane in the same order (`recip_sqrt` included: an f32
//! seed and one cubic step, no hardware estimate), so a whole solve has the
//! same bits. The kernels put targets across the lanes and sum a list in one
//! order whatever the lane count (`gravity::SUM_GROUPS`), so there is one
//! hash, not one per width. The production solve — cached lists, leaf after
//! leaf — must agree with the one-shot solve too. `scripts/ci.sh` runs this
//! file in all three builds: default flags, `+fma`, and the host's native
//! ISA.

use octotiger::gravity::{
    accel_for_leaf, compute_blocks, BlockSoA, GravityKernels, GravityWorkspace, InteractionCache,
    LeafSolve,
};
use octotiger::kernel_backend::{Dispatch, SimdPolicy};
use octotiger::octree::Octree;
use octotiger::star::RotatingStar;
use octotiger::OctoConfig;

/// `(hash, hash of a build whose `mul_add` is fused)` at every lane count.
const FALLBACK_BITS: (u64, u64) = (0xb8bc_3212_2a42_0315, 0xe51a_a577_fb81_03d5);

/// FNV-1a over the bits of every cell's acceleration, leaf order.
fn hash(accels: impl Iterator<Item = Vec<[f64; 3]>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for acc in accels {
        for byte in acc.iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn level2_solve_has_the_fallbacks_bits_at_every_width_one_shot_and_on_cached_lists() {
    let cfg = OctoConfig {
        max_level: 2,
        ..OctoConfig::default()
    };
    let tree = Octree::build(&RotatingStar::paper_default(), &cfg, 1.0);
    let leaves = tree.leaf_ids();
    let blocks: Vec<BlockSoA> = leaves
        .iter()
        .map(|&l| compute_blocks(tree.subgrid(l)))
        .collect();
    let mut ws = GravityWorkspace::new();
    ws.upward_pass(&tree, &blocks);
    let mut cache = InteractionCache::new();
    cache.ensure(&tree, &ws.moments, cfg.theta);
    let dispatch = Dispatch::Legacy;

    let (plain, fused) = FALLBACK_BITS;
    for width in SimdPolicy::SUPPORTED_WIDTHS {
        let kernels = GravityKernels {
            multipole: &dispatch,
            monopole: &dispatch,
            simd: SimdPolicy::from_width(width).unwrap(),
        };
        let one_shot = hash(leaves.iter().map(|&leaf| {
            accel_for_leaf(
                &tree,
                &ws.moments,
                &blocks,
                &ws.leaf_pos,
                leaf,
                cfg.theta,
                &kernels,
            )
        }));
        // The driver's solve: cached lists.
        let solve = LeafSolve {
            tree: &tree,
            moments: &ws.moments,
            blocks: &blocks,
            leaf_pos: &ws.leaf_pos,
            kernels: &kernels,
        };
        let cached = hash(
            leaves
                .iter()
                .zip(cache.lists())
                .map(|(&leaf, (far, near))| solve.accel(leaf, far, near)),
        );
        let want = if cfg!(target_feature = "fma") {
            fused
        } else {
            plain
        };
        assert_eq!(one_shot, want, "width {width}, one shot: {one_shot:#x}");
        assert_eq!(cached, want, "width {width}, cached lists");
    }
}
