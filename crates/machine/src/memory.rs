//! Memory-subsystem model.
//!
//! §6.2.1 of the paper observes that Octo-Tiger on the VisionFive2 is
//! noticeably *more* than 5× slower than A64FX (≈7× in §6.2.2) because
//! "with more memory usage, the slow connection to the memory appears to
//! kick in and slows the overall simulation". The development boards have a
//! single narrow LPDDR4/DDR4 channel, while the comparison CPUs have
//! HBM2 (A64FX) or many DDR4 channels.
//!
//! We model this with a shared-bandwidth roofline: a workload phase that
//! moves `bytes` of data and executes `flops` on `cores` cores takes
//! `max(t_compute, t_memory)` where `t_memory = bytes / bw_effective` and
//! the effective bandwidth saturates as more cores contend for the single
//! memory controller.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::arch::CpuArch;

/// High-water mark of the simulation's own arena bytes (octree node lanes +
/// resident sub-grids), maintained by [`note_arena_bytes`]. Process-global:
/// the paper reports one peak-memory figure per run, not per driver.
static ARENA_HWM: AtomicU64 = AtomicU64::new(0);

/// Record the current size of the simulation's data arena; the running
/// maximum is what [`peak_rss_bytes`] falls back to on platforms without a
/// readable OS high-water mark.
pub fn note_arena_bytes(bytes: u64) {
    ARENA_HWM.fetch_max(bytes, Ordering::Relaxed);
}

/// High-water mark reported so far via [`note_arena_bytes`].
pub(crate) fn arena_high_water_bytes() -> u64 {
    ARENA_HWM.load(Ordering::Relaxed)
}

/// Peak resident-set size of this process in bytes: the OS `VmHWM` figure
/// where `/proc/self/status` exists (Linux — the boards in the study all run
/// it), otherwise the arena high-water mark. The larger of the two is
/// returned so the metric is monotone and never under-reports the arena.
///
/// This is the reproduction's analogue of the paper's §6.2.1 memory-pressure
/// observation: deep trees are memory-bound before they are compute-bound,
/// so peak RSS is reported next to cells/sec in [`RunMetrics`]-style
/// summaries.
///
/// [`RunMetrics`]: https://en.wikipedia.org/wiki/Resident_set_size
pub fn peak_rss_bytes() -> u64 {
    os_peak_rss_bytes()
        .unwrap_or(0)
        .max(arena_high_water_bytes())
}

/// `VmHWM` from `/proc/self/status`, in bytes. `None` off Linux or if the
/// field is missing/unparsable.
fn os_peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // "VmHWM:    123456 kB"
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kib * 1024)
}

/// Per-architecture memory model.
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    arch: CpuArch,
}

impl MemoryModel {
    /// Model for `arch`.
    pub fn new(arch: CpuArch) -> Self {
        MemoryModel { arch }
    }

    /// Effective bandwidth (GiB/s) visible to `cores` active cores.
    ///
    /// One core cannot saturate the controller (limited MLP — especially on
    /// the in-order U74, which sustains roughly 55% of board bandwidth from
    /// a single core); additional cores add bandwidth with diminishing
    /// returns until the board limit.
    pub fn effective_bandwidth_gib(&self, cores: u32) -> f64 {
        let spec = self.arch.spec();
        let peak = spec.mem_bandwidth_gib;
        let single_core_fraction = if self.arch.is_riscv() { 0.55 } else { 0.35 };
        let single = peak * single_core_fraction;
        // Saturating growth: bw(c) = peak * (1 - (1 - f)^c)
        let f = single / peak;
        peak * (1.0 - (1.0 - f).powi(cores as i32))
    }

    /// Seconds to move `bytes` with `cores` active cores.
    pub fn transfer_seconds(&self, bytes: u64, cores: u32) -> f64 {
        let bw = self.effective_bandwidth_gib(cores.max(1)) * 1024.0 * 1024.0 * 1024.0;
        bytes as f64 / bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_grows_with_cores_and_saturates() {
        let m = MemoryModel::new(CpuArch::Jh7110);
        let b1 = m.effective_bandwidth_gib(1);
        let b2 = m.effective_bandwidth_gib(2);
        let b4 = m.effective_bandwidth_gib(4);
        assert!(b1 < b2 && b2 < b4);
        assert!(b4 <= CpuArch::Jh7110.spec().mem_bandwidth_gib + 1e-9);
        // diminishing returns
        assert!(b2 - b1 > b4 - m.effective_bandwidth_gib(3));
    }

    #[test]
    fn transfer_time_linear_in_bytes() {
        let m = MemoryModel::new(CpuArch::RiscvU74);
        let t1 = m.transfer_seconds(1 << 20, 2);
        let t2 = m.transfer_seconds(1 << 21, 2);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_covers_arena_high_water() {
        note_arena_bytes(1);
        let before = peak_rss_bytes();
        assert!(before > 0, "Linux VmHWM or the arena mark must be nonzero");
        // The arena mark only ratchets upward and peak RSS tracks it.
        note_arena_bytes(u64::MAX / 2);
        assert_eq!(arena_high_water_bytes(), u64::MAX / 2);
        assert!(peak_rss_bytes() >= u64::MAX / 2);
        note_arena_bytes(1024);
        assert_eq!(
            arena_high_water_bytes(),
            u64::MAX / 2,
            "high-water mark never decreases"
        );
    }
}
