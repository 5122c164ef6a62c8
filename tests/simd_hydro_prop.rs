//! Property and regression tests for the vectorized hydro solver and the
//! step's task graph:
//!
//! - at every supported pack width (1/2/4/8) the SIMD MUSCL/HLL kernel —
//!   each face flux evaluated once — and the CFL reduction over the
//!   conserved interior must match the scalar reference **bitwise** (far
//!   stronger than the 1e-12 the spec asks for) on random states, including
//!   shock discontinuities and floored vacuum cells, from ghost frames whose
//!   448 edge and corner cells are NaN (no stencil reads them, so the gather
//!   never fills them);
//! - ten steps must leave every conserved field of every leaf with the same
//!   bits on one worker, on three, and on two localities — the graph only
//!   reorders independent work.

use proptest::prelude::*;

use octotiger_riscv_repro::distrib::CoalesceConfig;
use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::kernel_backend::{Dispatch, SimdPolicy};
use octotiger_riscv_repro::octotiger::star::{GAMMA, NF, P_FLOOR, RHO_FLOOR};
use octotiger_riscv_repro::octotiger::subgrid::{
    frame_index, SubGrid, CELLS, FRAME_CELLS, FRAME_LEN, NG, NX,
};
use octotiger_riscv_repro::octotiger::{
    hydro, DistConfig, DistRun, Driver, KernelType, OctoConfig,
};

/// A leaf and its ghost frame, every interior and face-ghost cell from a
/// tiled table of primitive states, with an optional pressure shock at the x
/// midplane and exact vacuum-floor cells wherever the table says so; the
/// frame's edge and corner cells are NaN.
fn fill_leaf(
    vals: &[(f64, f64, f64, f64, f64)],
    shock: bool,
    vacuum_stride: usize,
) -> (SubGrid, Vec<f64>) {
    let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
    let mut frame = vec![f64::NAN; FRAME_LEN];
    let n = NX as i64 + NG as i64;
    for i in -(NG as i64)..n {
        for j in -(NG as i64)..n {
            for k in -(NG as i64)..n {
                let in_shell = |x: &&i64| !(0..NX as i64).contains(*x);
                let shell_rank = [i, j, k].iter().filter(in_shell).count();
                if shell_rank > 1 {
                    continue;
                }
                let idx = ((i + NG as i64) * 49 + (j + NG as i64) * 7 + (k + NG as i64)) as usize;
                let (rho, vx, vy, vz, p) = vals[idx % vals.len()];
                let (rho, vx, vy, vz, mut p) =
                    if vacuum_stride > 0 && idx.is_multiple_of(vacuum_stride) {
                        // Exact floor state: the limiter and both HLL
                        // early-return branches run against clamped values.
                        (RHO_FLOOR, 0.0, 0.0, 0.0, P_FLOOR)
                    } else {
                        (rho, vx, vy, vz, p)
                    };
                if shock && i < NX as i64 / 2 {
                    p *= 100.0;
                }
                let e = p / (GAMMA - 1.0) + 0.5 * rho * (vx * vx + vy * vy + vz * vz);
                let u = [rho, rho * vx, rho * vy, rho * vz, e];
                for f in 0..NF {
                    frame[f * FRAME_CELLS + frame_index(i, j, k)] = u[f];
                    if shell_rank == 0 {
                        g.set(f, i, j, k, u[f]);
                    }
                }
            }
        }
    }
    (g, frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_hydro_step_matches_scalar_bitwise_at_every_width(
        vals in proptest::collection::vec(
            (1.0e-8f64..5.0, -2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0, 1.0e-10f64..10.0),
            8..32,
        ),
        shock in any::<bool>(),
        vacuum_stride in 0usize..7,
        dt in 1.0e-6f64..1.0e-4,
    ) {
        let (g, frame) = fill_leaf(&vals, shock, vacuum_stride);
        let d = Dispatch::Legacy;
        let reference = hydro::step_interior(&frame, g.dx, dt, &d);
        prop_assert!(
            reference.iter().flatten().all(|v| v.is_finite()),
            "an edge or corner NaN reached the scalar update"
        );
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let mut out = vec![[0.0; NF]; CELLS];
            let mut stage = frame.clone();
            hydro::step_interior_staged_into(
                &g, &mut stage, dt, &d, SimdPolicy::Width(w), &mut out,
            );
            for (c, (a, b)) in reference.iter().zip(&out).enumerate() {
                for f in 0..NF {
                    prop_assert!(
                        a[f].to_bits() == b[f].to_bits(),
                        "width {} diverged at cell {} field {}: {:e} vs {:e}",
                        w, c, f, b[f], a[f]
                    );
                }
            }
        }
    }

    #[test]
    fn simd_cfl_reduction_matches_scalar_bitwise_at_every_width(
        vals in proptest::collection::vec(
            (1.0e-8f64..5.0, -2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0, 1.0e-10f64..10.0),
            8..32,
        ),
        shock in any::<bool>(),
        vacuum_stride in 0usize..7,
    ) {
        let (g, _) = fill_leaf(&vals, shock, vacuum_stride);
        let d = Dispatch::Legacy;
        let reference = hydro::max_signal_speed(&g, &d);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let speed = hydro::max_signal_speed_policy(&g, &d, SimdPolicy::Width(w));
            prop_assert!(
                speed.to_bits() == reference.to_bits(),
                "width {} CFL diverged: {:e} vs {:e}",
                w, speed, reference
            );
        }
    }
}

fn run_config(width: usize, steps: u32) -> OctoConfig {
    OctoConfig {
        max_level: 1,
        stop_step: steps,
        threads: 3,
        simd_width: width,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

/// The task graph reorders only *independent* work, so ten steps must give
/// the same bits however the work is spread: one worker (every task inline,
/// in spawn order), three workers, and two localities of two workers each —
/// same dt sequence, same conserved fields everywhere.
#[test]
fn ten_steps_bitwise_equal_on_1_worker_3_workers_and_2_localities() {
    for width in [0, 4] {
        let mut one = Driver::new(run_config(width, 10));
        let mut three = Driver::new(run_config(width, 10));
        assert_eq!(one.run(1).steps, 10);
        assert_eq!(three.run(3).steps, 10);
        assert_eq!(
            one.sim_time().to_bits(),
            three.sim_time().to_bits(),
            "dt sequence diverged (width {width})"
        );
        let two_localities = DistRun::execute(DistConfig {
            nodes: 2,
            threads_per_node: 2,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
            octo: run_config(width, 10),
        });
        let want = one.leaf_hashes();
        assert_eq!(three.leaf_hashes(), want, "width {width}: 3 workers");
        assert_eq!(
            two_localities.leaf_hashes, want,
            "width {width}: 2 localities"
        );
    }
}
