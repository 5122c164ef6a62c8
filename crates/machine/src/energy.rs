//! Power and energy model (paper §7).
//!
//! The paper measures power two different ways and is explicit that they are
//! not directly comparable:
//!
//! * **RISC-V boards** — a wall power meter on the USB supply: whole-board
//!   power (CPU + DRAM + SSD + Ethernet + conversion losses). Measured:
//!   3.19 W running `stress --cpu 4` and **3.22 W running Octo-Tiger** on
//!   four cores, averaged over one minute.
//! * **A64FX (Fugaku)** — Riken's PowerAPI, which "isolates the chip's power
//!   consumption".
//!
//! Fig. 9's finding: *power* is far lower on RISC-V, but *energy* is higher
//! because the simulation runs ≈7× longer. The [`PowerModel`] reproduces
//! both measurement styles; [`PowerMeter`] integrates power over a run the
//! way the wall meter's one-minute average does.

use crate::arch::CpuArch;

/// Per-architecture power model: `P(active) = idle + active_cores · per_core`.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Baseline power with zero busy cores, watts.
    pub(crate) idle_w: f64,
    /// Additional power per busy core, watts.
    pub(crate) per_core_w: f64,
}

impl PowerModel {
    /// Power model for `arch`, matching the measurement style of the paper.
    pub fn for_arch(arch: CpuArch) -> Self {
        match arch {
            // Whole VisionFive2 / HiFive board at the wall. Calibrated so
            // that 4 busy cores give the paper's 3.22 W (Octo-Tiger) and the
            // idle board draws ≈2.2 W.
            CpuArch::RiscvU74 | CpuArch::Jh7110 => PowerModel {
                idle_w: 2.20,
                per_core_w: 0.255,
            },
            // A64FX package via PowerAPI. A fully loaded A64FX draws
            // ≈110-120 W over 48 cores; a 4-core run still pays a share of
            // the uncore/HBM baseline, giving ≈16 W for the paper's
            // configuration — low enough that, with the ≈7× runtime gap,
            // the RISC-V boards consume *more energy* despite ≈5× less
            // power (the paper's §7 finding).
            CpuArch::A64fx => PowerModel {
                idle_w: 10.0,
                per_core_w: 1.5,
            },
            // Not measured in the paper; public TDP-derived estimates kept
            // for completeness (used only by extension experiments).
            CpuArch::Epyc7543 => PowerModel {
                idle_w: 65.0,
                per_core_w: 2.8,
            },
            CpuArch::XeonGold6140 => PowerModel {
                idle_w: 45.0,
                per_core_w: 4.5,
            },
        }
    }

    /// Power draw with `active_cores` busy cores, watts.
    pub fn power_watts(&self, active_cores: u32) -> f64 {
        self.idle_w + self.per_core_w * f64::from(active_cores)
    }
}

/// Integrating power meter: feed it (duration, watts) segments, read back the
/// average power (what the paper reports: "average power consumption over one
/// minute") and total energy.
#[derive(Debug, Default, Clone)]
pub struct PowerMeter {
    joules: f64,
    seconds: f64,
}

impl PowerMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a segment of `seconds` at `watts`.
    pub fn record(&mut self, seconds: f64, watts: f64) {
        assert!(seconds >= 0.0 && watts >= 0.0, "negative power segment");
        self.joules += watts * seconds;
        self.seconds += seconds;
    }

    /// Average power over everything recorded, watts (0 if nothing recorded).
    pub fn average_watts(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.joules / self.seconds
        }
    }
}

/// One row of Fig. 9: energy for a run on `nodes` nodes of `arch`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Architecture of the nodes.
    pub(crate) arch: CpuArch,
    /// Node count (1 or 2 in the paper).
    pub nodes: u32,
    /// Busy cores per node.
    pub(crate) cores_per_node: u32,
    /// Run duration, seconds.
    pub(crate) seconds: f64,
    /// Average power per node, watts.
    pub watts_per_node: f64,
    /// Total energy across nodes, joules.
    pub joules: f64,
}

impl EnergyReport {
    /// Build a report from the power model for a measured/projected runtime.
    pub fn for_run(arch: CpuArch, nodes: u32, cores_per_node: u32, seconds: f64) -> Self {
        let pm = PowerModel::for_arch(arch);
        let watts = pm.power_watts(cores_per_node);
        EnergyReport {
            arch,
            nodes,
            cores_per_node,
            seconds,
            watts_per_node: watts,
            joules: watts * seconds * f64::from(nodes),
        }
    }
}

/// Short lower-case architecture tag used in counter paths
/// (`/energy/{tag}/joules`).
pub(crate) fn arch_counter_tag(arch: CpuArch) -> &'static str {
    match arch {
        CpuArch::A64fx => "a64fx",
        CpuArch::Epyc7543 => "epyc7543",
        CpuArch::XeonGold6140 => "xeon6140",
        CpuArch::RiscvU74 => "u74",
        CpuArch::Jh7110 => "jh7110",
    }
}

/// Emit the `/energy/{arch}/…` gauge counters for a run of `seconds` on
/// `nodes` × `cores_per_node` busy cores into an apex-lite snapshot — the
/// bridge between the §7 power model and the unified counter namespace.
pub fn energy_counters_into(
    snap: &mut apex_lite::CounterSnapshot,
    arch: CpuArch,
    nodes: u32,
    cores_per_node: u32,
    seconds: f64,
) {
    let report = EnergyReport::for_run(arch, nodes, cores_per_node, seconds);
    let tag = arch_counter_tag(arch);
    snap.set_gauge(
        format!("/energy/{tag}/watts_per_node"),
        report.watts_per_node,
    );
    snap.set_gauge(format!("/energy/{tag}/joules"), report.joules);
    snap.set_gauge(format!("/energy/{tag}/seconds"), seconds);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscv_board_power_matches_paper() {
        // 3.22 W for Octo-Tiger with four busy cores (±2%).
        let p = PowerModel::for_arch(CpuArch::Jh7110).power_watts(4);
        assert!((p - 3.22).abs() / 3.22 < 0.02, "board power {p} W");
    }

    #[test]
    fn riscv_power_far_below_a64fx() {
        let rv = PowerModel::for_arch(CpuArch::Jh7110).power_watts(4);
        let a64 = PowerModel::for_arch(CpuArch::A64fx).power_watts(4);
        assert!(rv < a64 / 3.0);
    }

    #[test]
    fn energy_higher_on_riscv_despite_lower_power() {
        // §7: RISC-V runs ≈7× longer, so its energy ends up higher even
        // though its power is ≈5× lower.
        let t_rv = 700.0;
        let t_a64 = t_rv / 7.0;
        let e_rv = PowerModel::for_arch(CpuArch::Jh7110).power_watts(4) * t_rv;
        let e_a64 = PowerModel::for_arch(CpuArch::A64fx).power_watts(4) * t_a64;
        assert!(e_rv > e_a64, "E_rv={e_rv} J vs E_a64={e_a64} J");
    }

    #[test]
    fn meter_average() {
        let mut m = PowerMeter::new();
        m.record(30.0, 3.0);
        m.record(30.0, 3.4);
        assert!((m.average_watts() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_reads_zero() {
        let m = PowerMeter::new();
        assert_eq!(m.average_watts(), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative power segment")]
    fn meter_rejects_negative_segments() {
        PowerMeter::new().record(-1.0, 3.0);
    }

    #[test]
    fn report_scales_with_nodes() {
        let one = EnergyReport::for_run(CpuArch::Jh7110, 1, 4, 100.0);
        let two = EnergyReport::for_run(CpuArch::Jh7110, 2, 4, 100.0);
        assert!((two.joules - 2.0 * one.joules).abs() < 1e-9);
        assert_eq!(one.watts_per_node, two.watts_per_node);
    }

    #[test]
    fn energy_counters_land_in_the_namespace() {
        let mut snap = apex_lite::CounterSnapshot::new();
        energy_counters_into(&mut snap, CpuArch::Jh7110, 2, 4, 100.0);
        let report = EnergyReport::for_run(CpuArch::Jh7110, 2, 4, 100.0);
        match snap.get("/energy/jh7110/joules") {
            Some(apex_lite::CounterValue::Gauge(j)) => {
                assert!((j - report.joules).abs() < 1e-9)
            }
            other => panic!("missing joules gauge: {other:?}"),
        }
        assert!(snap.get("/energy/jh7110/watts_per_node").is_some());
        assert!(snap.get("/energy/jh7110/seconds").is_some());
    }
}
