//! Figure 7: Octo-Tiger node-level scaling on one VisionFive2 — rotating
//! star, five steps, one to four cores, three kernel configurations
//! (no-Kokkos legacy, Kokkos Serial space, Kokkos HPX space).

use octotiger::{Driver, KernelType, OctoConfig};
use rv_machine::CpuArch;

use crate::project::{octo_cells_per_sec, OctoProfile};
use crate::report::{Exhibit, Series};

/// Refinement level / steps used by the runner.
pub(crate) fn fig7_config(quick: bool, kernel: KernelType) -> OctoConfig {
    OctoConfig {
        max_level: if quick { 2 } else { 4 },
        stop_step: if quick { 2 } else { 5 },
        ..OctoConfig::with_all_kernels(kernel)
    }
}

/// Run one (kernel, cores) cell of Fig. 7 on the host and return the
/// measured profile.
pub(crate) fn measure_octo(quick: bool, kernel: KernelType, cores: usize) -> OctoProfile {
    let cfg = fig7_config(quick, kernel);
    OctoProfile::of_run(&Driver::new(cfg).run(cores), kernel)
}

/// Fig. 7 runner.
pub(crate) fn run_fig7(quick: bool) -> Exhibit {
    let mut e = Exhibit::new(
        "fig7",
        "Octo-Tiger node-level scaling (VisionFive2, rotating star)",
        "cores",
        "cells processed / second",
    );
    let mut leaf_note = None;
    for kernel in KernelType::ALL {
        let mut points = Vec::new();
        for cores in 1..=4u32 {
            let profile = measure_octo(quick, kernel, cores as usize);
            if leaf_note.is_none() {
                leaf_note = Some(format!(
                    "tree: {} leaves / {} cells (paper level 4: 1184 leaves / 606208 cells)",
                    profile.cells_processed / 512 / u64::from(profile.steps),
                    profile.cells_processed / u64::from(profile.steps),
                ));
            }
            points.push((
                f64::from(cores),
                octo_cells_per_sec(CpuArch::Jh7110, cores, &profile),
            ));
        }
        e.push_series(Series::new(kernel.label(), points));
    }
    if let Some(n) = leaf_note {
        e.note(n);
    }
    let at4 = |label: &str| e.series_by_label(label).and_then(|s| s.y_at(4.0));
    if let (Some(serial), Some(hpx)) = (
        at4(KernelType::KokkosSerial.label()),
        at4(KernelType::KokkosHpx.label()),
    ) {
        e.note(format!(
            "Kokkos Serial / Kokkos HPX at 4 cores: {:.3}× (paper: Serial 'showed some performance improvement')",
            serial / hpx
        ));
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_three_series_scaling_up() {
        let e = run_fig7(true);
        assert_eq!(e.series.len(), 3);
        for s in &e.series {
            assert_eq!(s.points.len(), 4);
            for w in s.points.windows(2) {
                assert!(w[1].1 > w[0].1, "{} must scale with cores", s.label);
            }
        }
    }

    #[test]
    fn fig7_serial_space_not_slower_than_hpx_space() {
        // §6.2.1: the Serial execution space showed some improvement over
        // the HPX execution space (concurrent kernel launches already fill
        // the four cores).
        let e = run_fig7(true);
        let serial = e.series_by_label(KernelType::KokkosSerial.label()).unwrap();
        let hpx = e.series_by_label(KernelType::KokkosHpx.label()).unwrap();
        let s4 = serial.y_at(4.0).unwrap();
        let h4 = hpx.y_at(4.0).unwrap();
        assert!(s4 >= h4, "Serial {s4} must be >= HPX-space {h4}");
    }

    #[test]
    fn fig7_all_configs_within_a_few_percent() {
        // The paper's three curves sit close together.
        let e = run_fig7(true);
        let ys: Vec<f64> = e.series.iter().map(|s| s.y_at(4.0).unwrap()).collect();
        let max = ys.iter().copied().fold(f64::MIN, f64::max);
        let min = ys.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min < 1.3, "configs should be close: {ys:?}");
    }
}
