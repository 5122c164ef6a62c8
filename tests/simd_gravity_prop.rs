//! Property tests for the gravity kernels on random sources: at every
//! supported lane count (1/2/4/8) the monopole and multipole kernels match
//! the scalar oracle within 1e-12 relative error, and the lane counts agree
//! with each other bit for bit — targets sit across the lanes and a list is
//! summed in one order (`gravity::SUM_GROUPS`), so the width is invisible.

use proptest::prelude::*;

use octotiger_riscv_repro::octotiger::gravity::{
    m2l_blocks, p2p_blocks, BlockSoA, GravityKernels, Moments, BLOCKS,
};
use octotiger_riscv_repro::octotiger::kernel_backend::{Dispatch, SimdPolicy};

fn rel_err(a: [f64; 3], b: [f64; 3]) -> f64 {
    let diff = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
    let norm = (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]).sqrt();
    diff / norm.max(1e-30)
}

/// 64 blocks of `(mass, x, y, z)` as one SoA leaf.
fn leaf(blocks: &[(f64, f64, f64, f64)]) -> BlockSoA {
    let mut out = BlockSoA::zero();
    for (b, &(m, x, y, z)) in blocks.iter().enumerate() {
        out.mass[b] = m;
        out.set_com(b, [x, y, z]);
    }
    out
}

fn leaf_strategy(mass: std::ops::Range<f64>) -> impl Strategy<Value = BlockSoA> {
    proptest::collection::vec(
        (mass, -1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        BLOCKS..BLOCKS + 1,
    )
    .prop_map(|blocks| leaf(&blocks))
}

/// `kernel(kernels, out)` at the scalar oracle and at every width.
fn check_widths(
    kernel: impl Fn(&GravityKernels<'_>, &mut [[f64; 3]]),
) -> Result<[[f64; 3]; BLOCKS], TestCaseError> {
    let d = Dispatch::Legacy;
    let at = |simd| {
        let kernels = GravityKernels {
            multipole: &d,
            monopole: &d,
            simd,
        };
        let mut out = [[f64::NAN; 3]; BLOCKS];
        kernel(&kernels, &mut out);
        out
    };
    let oracle = at(SimdPolicy::Scalar);
    let first = at(SimdPolicy::Width(1));
    for (b, (got, want)) in first.iter().zip(&oracle).enumerate() {
        prop_assert!(
            rel_err(*got, *want) < 1e-12,
            "block {} diverged from the oracle: {:?} vs {:?}",
            b,
            got,
            want
        );
    }
    for w in SimdPolicy::SUPPORTED_WIDTHS {
        prop_assert_eq!(
            at(SimdPolicy::Width(w)).map(|a| a.map(f64::to_bits)),
            first.map(|a| a.map(f64::to_bits)),
            "width {} against width 1",
            w
        );
    }
    Ok(first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_monopole_matches_scalar_at_every_width(
        // The target leaf is source 0 too, so every target meets a
        // coincident source; masses start at 0 (the oracle skips those).
        leaves in proptest::collection::vec(leaf_strategy(0.0..10.0), 1..4),
        eps in 0.01f64..0.5,
    ) {
        let near: Vec<usize> = (0..leaves.len()).collect();
        let pos = near.clone();
        check_widths(|k, out| p2p_blocks(k, &leaves, &pos, &leaves[0], &near, eps, out))?;
    }

    #[test]
    fn vacuum_leaf_gives_the_same_signed_zeros_at_every_width(
        leaves in proptest::collection::vec(leaf_strategy(0.0..10.0), 1..3),
        eps in 0.01f64..0.5,
    ) {
        let vacuum: Vec<BlockSoA> = leaves
            .into_iter()
            .map(|mut l| {
                l.mass = [0.0; BLOCKS];
                l
            })
            .collect();
        let near: Vec<usize> = (0..vacuum.len()).collect();
        let pos = near.clone();
        let got = check_widths(|k, out| p2p_blocks(k, &vacuum, &pos, &vacuum[0], &near, eps, out))?;
        for a in got.iter().flatten() {
            prop_assert_eq!(a.to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn simd_multipole_matches_scalar_at_every_width(
        // Far sources kept ≥ 0.5 away from the targets (the MAC guarantees
        // separation in real traversals; the kernel has no softening).
        // 1..=50 sources: every `len % 4`, below and above one group.
        sources in proptest::collection::vec(
            (
                0.1f64..10.0,
                (1.5f64..4.0, 1.5f64..4.0, 1.5f64..4.0),
                (-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0),
                (-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0),
            ),
            1..51,
        ),
        targets in leaf_strategy(0.0..1.0),
        signs in (any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let moments: Vec<Moments> = sources
            .iter()
            .map(|(mass, com, qa, qb)| Moments {
                mass: *mass,
                // Scatter sources into all octants, still separated.
                com: [
                    if signs.0 { com.0 } else { -com.0 },
                    if signs.1 { com.1 } else { -com.1 },
                    if signs.2 { com.2 } else { -com.2 },
                ],
                quad: [qa.0, qa.1, qa.2, qb.0, qb.1, qb.2],
            })
            .collect();
        let far: Vec<usize> = (0..moments.len()).collect();
        check_widths(|k, out| m2l_blocks(k, &targets, &moments, &far, out))?;
    }
}
