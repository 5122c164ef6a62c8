//! Figure 8 (distributed scaling: one vs two boards, TCP vs MPI, plus the
//! Fugaku reference) and Figure 9 (energy consumption).

use distrib::CoalesceConfig;
use octotiger::dist_driver::{DistConfig, DistRun};
use octotiger::{KernelType, OctoConfig};
use rv_machine::{CpuArch, NetBackend};

use crate::project::{dist_cells_per_sec, dist_time_seconds, DistProfile};
use crate::report::{Exhibit, Series};

fn dist_octo_config(quick: bool) -> OctoConfig {
    // Quick mode still needs enough compute per step that the
    // communication/computation ratio resembles the paper's level-4 run;
    // level 2 is the smallest tree with a realistic boundary-to-volume
    // ratio.
    OctoConfig {
        max_level: if quick { 2 } else { 4 },
        stop_step: if quick { 2 } else { 5 },
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

/// Host measurements + projected series for Figs. 8 and 9 (the two figures
/// share the same two host runs: the backend only changes the projection).
pub(crate) fn run_fig8_and_fig9(quick: bool) -> (Exhibit, Exhibit) {
    let cfg = dist_octo_config(quick);
    let m1 = DistRun::execute(DistConfig {
        nodes: 1,
        threads_per_node: 4,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
        octo: cfg.clone(),
    });
    let m2 = DistRun::execute(DistConfig {
        nodes: 2,
        threads_per_node: 4,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
        octo: cfg,
    });
    let p1 = DistProfile::of_run(&m1);
    let p2 = DistProfile::of_run(&m2);
    let total = m1.cells_processed;
    assert_eq!(total, m2.cells_processed, "same problem on 1 and 2 boards");

    // --- Fig. 8 ---
    let mut fig8 = Exhibit::new(
        "fig8",
        "Octo-Tiger distributed scaling (rotating star, 4 cores per node)",
        "nodes",
        "cells processed / second",
    );
    // The backends differ only in their link model: the cluster has one
    // delivery path (`distrib::Cluster`), so the one measured 2-node
    // profile feeds all three link models.
    let rv1 = dist_cells_per_sec(CpuArch::Jh7110, 4, NetBackend::Tcp, &p1, total);
    let rv2_tcp = dist_cells_per_sec(CpuArch::Jh7110, 4, NetBackend::Tcp, &p2, total);
    let rv2_mpi = dist_cells_per_sec(CpuArch::Jh7110, 4, NetBackend::Mpi, &p2, total);
    let rv2_lci = dist_cells_per_sec(CpuArch::Jh7110, 4, NetBackend::Lci, &p2, total);
    fig8.push_series(Series::new("RISC-V TCP", vec![(1.0, rv1), (2.0, rv2_tcp)]));
    fig8.push_series(Series::new("RISC-V MPI", vec![(1.0, rv1), (2.0, rv2_mpi)]));
    fig8.push_series(Series::new("RISC-V LCI", vec![(1.0, rv1), (2.0, rv2_lci)]));
    let fg1 = dist_cells_per_sec(CpuArch::A64fx, 4, NetBackend::TofuD, &p1, total);
    let fg2 = dist_cells_per_sec(CpuArch::A64fx, 4, NetBackend::TofuD, &p2, total);
    fig8.push_series(Series::new(
        "Fugaku (4 cores)",
        vec![(1.0, fg1), (2.0, fg2)],
    ));
    fig8.note(format!(
        "TCP speedup 1→2 boards: {:.2}× (paper ≈1.85×), MPI: {:.2}× (paper ≈1.55×)",
        rv2_tcp / rv1,
        rv2_mpi / rv1
    ));
    fig8.note(format!(
        "LCI speedup 1→2 boards: {:.2}× (projected from the HPX-LCI link \
         calibration; explicit progress cuts per-parcel overhead below TCP)",
        rv2_lci / rv1
    ));
    fig8.note(format!(
        "Fugaku / RISC-V single node: {:.2}× (paper ≈7×)",
        fg1 / rv1
    ));
    fig8.note(format!(
        "measured wire traffic for 2 boards: {} messages, {:.2} MiB",
        m2.net.messages,
        m2.net.bytes as f64 / (1024.0 * 1024.0)
    ));

    // --- Fig. 9 ---
    let mut fig9 = Exhibit::new(
        "fig9",
        "Energy consumption (rotating star run)",
        "nodes",
        "joules",
    );
    let t_rv1 = dist_time_seconds(CpuArch::Jh7110, 4, NetBackend::Tcp, &p1);
    let t_rv2 = dist_time_seconds(CpuArch::Jh7110, 4, NetBackend::Tcp, &p2);
    let t_fg1 = dist_time_seconds(CpuArch::A64fx, 4, NetBackend::TofuD, &p1);
    let t_fg2 = dist_time_seconds(CpuArch::A64fx, 4, NetBackend::TofuD, &p2);
    let e_rv1 = crate::project::energy_report(CpuArch::Jh7110, 1, 4, t_rv1);
    let e_rv2 = crate::project::energy_report(CpuArch::Jh7110, 2, 4, t_rv2);
    let e_fg1 = crate::project::energy_report(CpuArch::A64fx, 1, 4, t_fg1);
    let e_fg2 = crate::project::energy_report(CpuArch::A64fx, 2, 4, t_fg2);
    fig9.push_series(Series::new(
        "RISC-V (wall meter)",
        vec![(1.0, e_rv1.joules), (2.0, e_rv2.joules)],
    ));
    fig9.push_series(Series::new(
        "A64FX (PowerAPI)",
        vec![(1.0, e_fg1.joules), (2.0, e_fg2.joules)],
    ));
    fig9.note(format!(
        "board power: {:.2} W (paper: 3.22 W running Octo-Tiger)",
        e_rv1.watts_per_node
    ));
    fig9.note(format!(
        "power ratio A64FX/RISC-V: {:.1}×, energy ratio RISC-V/A64FX: {:.2}× \
         (paper: power lower on RISC-V, energy higher)",
        e_fg1.watts_per_node / e_rv1.watts_per_node,
        e_rv1.joules / e_fg1.joules
    ));
    (fig8, fig9)
}

/// Fig. 8 alone.
pub fn run_fig8(quick: bool) -> Exhibit {
    run_fig8_and_fig9(quick).0
}

/// Fig. 9 alone.
pub(crate) fn run_fig9(quick: bool) -> Exhibit {
    run_fig8_and_fig9(quick).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shapes_match_paper() {
        let e = run_fig8(true);
        let tcp = e.series_by_label("RISC-V TCP").unwrap();
        let mpi = e.series_by_label("RISC-V MPI").unwrap();
        let lci = e.series_by_label("RISC-V LCI").unwrap();
        let fugaku = e.series_by_label("Fugaku (4 cores)").unwrap();
        // All three backends speed up from one to two boards…
        assert!(tcp.y_at(2.0).unwrap() > tcp.y_at(1.0).unwrap());
        assert!(mpi.y_at(2.0).unwrap() > mpi.y_at(1.0).unwrap());
        assert!(lci.y_at(2.0).unwrap() > lci.y_at(1.0).unwrap());
        // …TCP more than MPI…
        assert!(tcp.y_at(2.0).unwrap() > mpi.y_at(2.0).unwrap());
        // …LCI at least as well as MPI (its whole point is lower
        // per-message overhead than the two-sided backend)…
        assert!(lci.y_at(2.0).unwrap() > mpi.y_at(2.0).unwrap());
        // …all from the same single-board baseline…
        assert_eq!(lci.y_at(1.0), tcp.y_at(1.0));
        // …and Fugaku is far above both.
        assert!(fugaku.y_at(1.0).unwrap() > 3.0 * tcp.y_at(1.0).unwrap());
    }

    #[test]
    fn fig8_speedups_in_paper_range() {
        let e = run_fig8(true);
        let tcp = e.series_by_label("RISC-V TCP").unwrap();
        let mpi = e.series_by_label("RISC-V MPI").unwrap();
        let s_tcp = tcp.y_at(2.0).unwrap() / tcp.y_at(1.0).unwrap();
        let s_mpi = mpi.y_at(2.0).unwrap() / mpi.y_at(1.0).unwrap();
        assert!(
            (1.3..2.0).contains(&s_tcp),
            "TCP speedup {s_tcp} (paper 1.85)"
        );
        assert!(
            (1.1..1.9).contains(&s_mpi),
            "MPI speedup {s_mpi} (paper 1.55)"
        );
        assert!(s_tcp > s_mpi, "TCP must out-scale MPI");
        let lci = e.series_by_label("RISC-V LCI").unwrap();
        let s_lci = lci.y_at(2.0).unwrap() / lci.y_at(1.0).unwrap();
        assert!(
            (1.3..2.0).contains(&s_lci),
            "LCI speedup {s_lci} (projected; same band as TCP)"
        );
        assert!(s_lci > s_mpi, "LCI must out-scale MPI");
    }

    #[test]
    fn fig9_riscv_lower_power_higher_energy() {
        let e = run_fig9(true);
        let rv = e.series_by_label("RISC-V (wall meter)").unwrap();
        let a64 = e.series_by_label("A64FX (PowerAPI)").unwrap();
        // Energy: RISC-V above A64FX despite far lower power (§7).
        assert!(rv.y_at(1.0).unwrap() > a64.y_at(1.0).unwrap());
        assert!(rv.y_at(2.0).unwrap() > a64.y_at(2.0).unwrap());
    }
}
