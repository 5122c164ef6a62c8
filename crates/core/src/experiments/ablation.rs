//! Ablation exhibits for the design choices DESIGN.md §6 calls out:
//!
//! * `ablation_theta` — the FMM opening parameter (`--theta`): gravity
//!   accuracy (vs direct summation) against far/near interaction counts;
//! * `ablation_chunks` — tasks per kernel for the Kokkos-HPX execution
//!   space (the §3.2 knob): measured task counts and projected step time on
//!   the JH7110.

use amt::Runtime;
use octotiger::gravity::{self, BLOCKS};
use octotiger::kernel_backend::Dispatch;
use octotiger::subgrid::FRAME_LEN;
use octotiger::{Driver, KernelType, OctoConfig, Octree, RotatingStar};
use rv_machine::{CostModel, CpuArch, RuntimeEvent};

use crate::report::{Exhibit, Series};

fn ablation_driver(quick: bool) -> Driver {
    Driver::new(OctoConfig {
        max_level: if quick { 2 } else { 3 },
        stop_step: 1,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    })
}

/// θ sweep: RMS acceleration error vs interaction volume.
pub(crate) fn run_ablation_theta(quick: bool) -> Exhibit {
    let driver = ablation_driver(quick);
    let tree = driver.tree();
    let blocks: Vec<gravity::BlockSoA> = tree
        .leaf_ids()
        .iter()
        .map(|&l| gravity::compute_blocks(tree.subgrid(l)))
        .collect();
    let moments = gravity::upward_pass(tree, &blocks);
    let pos = gravity::leaf_positions(tree);
    // The densest leaf is the most demanding target.
    let target = *tree
        .leaf_ids()
        .iter()
        .max_by(|&&a, &&b| {
            tree.subgrid(a)
                .mass()
                .partial_cmp(&tree.subgrid(b).mass())
                .expect("finite masses")
        })
        .expect("tree has leaves");
    let reference = gravity::direct_accel(tree, &blocks, target, &pos);
    let d = Dispatch::Legacy;
    let kernels = gravity::GravityKernels {
        multipole: &d,
        monopole: &d,
        simd: Default::default(),
    };

    let mut err_series = Vec::new();
    let mut work_series = Vec::new();
    for &theta in &[0.2, 0.35, 0.5, 0.65, 0.8] {
        let acc = gravity::accel_for_leaf(tree, &moments, &blocks, &pos, target, theta, &kernels);
        let lists = gravity::interaction_lists(tree, &moments, target, theta);
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in acc.iter().zip(&reference) {
            num += (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2);
            den += b[0] * b[0] + b[1] * b[1] + b[2] * b[2];
        }
        let rms_rel = (num / den.max(1e-300)).sqrt();
        err_series.push((theta, rms_rel));
        let interactions = lists.far().len() * BLOCKS + lists.near().len() * BLOCKS * BLOCKS;
        work_series.push((theta, interactions as f64));
    }
    let mut e = Exhibit::new(
        "ablation_theta",
        "FMM opening parameter: accuracy vs interaction volume (one leaf)",
        "theta",
        "relative RMS error / interactions",
    );
    e.push_series(Series::new("rms error vs direct", err_series));
    e.push_series(Series::new("interactions", work_series));
    e.note("paper runs use --theta=0.5".to_string());
    e
}

/// Tasks-per-kernel sweep for the Kokkos-HPX space: measured tasks and the
/// projected JH7110 step time (the §3.2 trade-off: more tasks = better
/// load balance for big kernels, more context-switch overhead).
pub(crate) fn run_ablation_chunks(quick: bool) -> Exhibit {
    let cfg = OctoConfig {
        max_level: if quick { 1 } else { 2 },
        stop_step: 1,
        ..OctoConfig::with_all_kernels(KernelType::KokkosHpx)
    };
    let mut tasks_series = Vec::new();
    let mut overhead_series = Vec::new();
    let cm = CostModel::new(CpuArch::Jh7110);
    for &chunks in &[1usize, 2, 4, 8, 16] {
        // Measure one real step with the kernel dispatcher forced to
        // `chunks` tasks per kernel by running the kernels directly.
        let mut tree = Octree::build(&RotatingStar::paper_default(), &cfg, 1.0);
        tree.plan_ghosts(|_| true);
        let mut frame = vec![0.0; FRAME_LEN];
        let rt = Runtime::new(4);
        rt.reset_stats();
        let d = Dispatch::new(KernelType::KokkosHpx, &rt.handle(), chunks);
        for (pos, &leaf) in tree.leaf_ids().iter().enumerate() {
            tree.gather_frame(pos, &mut frame, |n| tree.subgrid(n));
            let dx = tree.subgrid(leaf).dx;
            let _ = octotiger::hydro::step_interior(&frame, dx, 1e-4, &d);
        }
        let tasks = rt.stats().tasks_spawned;
        tasks_series.push((chunks as f64, tasks as f64));
        overhead_series.push((
            chunks as f64,
            cm.event_seconds(RuntimeEvent::ContextSwitch, tasks) * 1e3,
        ));
    }
    let mut e = Exhibit::new(
        "ablation_chunks",
        "Kokkos-HPX tasks per kernel (§3.2 knob): tasks and projected switch overhead",
        "tasks per kernel",
        "tasks / overhead (ms on JH7110)",
    );
    e.push_series(Series::new("tasks spawned", tasks_series));
    e.push_series(Series::new("switch overhead [ms]", overhead_series));
    e.note(
        "the 4-core boards need few tasks per kernel: concurrent per-sub-grid \
         launches already fill the machine (the paper's Kokkos-Serial result)"
            .to_string(),
    );
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_trades_accuracy_for_work() {
        let e = run_ablation_theta(true);
        let err = e.series_by_label("rms error vs direct").unwrap();
        let work = e.series_by_label("interactions").unwrap();
        // Error grows (weakly) with theta, interactions shrink.
        assert!(err.points.first().unwrap().1 <= err.points.last().unwrap().1 + 1e-12);
        assert!(work.points.first().unwrap().1 >= work.points.last().unwrap().1);
        // At the paper's theta the error is small.
        assert!(
            err.y_at(0.5).unwrap() < 0.05,
            "θ=0.5 rms {}",
            err.y_at(0.5).unwrap()
        );
    }

    #[test]
    fn more_chunks_mean_more_tasks_and_overhead() {
        let e = run_ablation_chunks(true);
        let tasks = e.series_by_label("tasks spawned").unwrap();
        let overhead = e.series_by_label("switch overhead [ms]").unwrap();
        assert!(tasks.points.last().unwrap().1 > tasks.points.first().unwrap().1);
        assert!(overhead.points.last().unwrap().1 > overhead.points.first().unwrap().1);
    }
}
