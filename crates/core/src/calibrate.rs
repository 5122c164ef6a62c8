//! Calibration constants for the machine projection.
//!
//! Everything here is *data*, not logic: the per-architecture cycle costs
//! live in `rv_machine::cost`; this module holds the workload-level
//! efficiency factors the paper's figures constrain. EXPERIMENTS.md lists
//! each exhibit's constraining statement; `sensitivity` tests in
//! `crate::project` perturb every constant by ±20% and check that the
//! paper's qualitative orderings survive.

use rv_machine::CpuArch;

use crate::maclaurin::Approach;

/// Efficiency of one (architecture, benchmark style) pair relative to that
/// architecture's sustained scalar chain rate.
///
/// Provenance:
/// * Async/future reaches the sustained rate everywhere (Fig. 4a's ordering
///   AMD > Intel > A64FX > RISC-V is carried by the per-arch cycle costs).
/// * `for_each(par)`: Fig. 4b shows "the performance on RISC-V and A64FX
///   was close but smaller" — the chunked algorithm's fixed-stride loop
///   defeats the A64FX's already-weak scalar front end (no vectorizable
///   body: `pow` chains), costing it roughly half its async rate, while
///   the x86 cores lose only bookkeeping overhead.
/// * Senders & receivers performed "slightly better than the coroutine
///   implementation" on RISC-V (Fig. 5): every coroutine suspension is a
///   scheduler round trip plus frame save/restore.
pub(crate) fn approach_efficiency(arch: CpuArch, approach: Approach) -> f64 {
    use Approach::*;
    match (arch, approach) {
        (_, Futures) => 1.0,
        (CpuArch::A64fx, ParForEach) => 0.45,
        (CpuArch::Epyc7543 | CpuArch::XeonGold6140, ParForEach) => 0.88,
        (_, ParForEach) => 0.92,
        (_, SendersReceivers) => 0.97,
        (_, Coroutines) => 0.90,
    }
}

/// Serial (non-parallelizable) fraction of the Maclaurin benchmark: final
/// reduction + runtime startup. Bounds strong scaling at high core counts.
pub(crate) const MACLAURIN_SERIAL_FRACTION: f64 = 0.002;

/// Load-imbalance multiplier for chunked runs (chunks are equal-sized, but
/// `pow(x, k)` cost varies slightly with k).
pub(crate) const CHUNK_IMBALANCE: f64 = 1.02;

/// Fraction of communication time the futurized task graph overlaps with
/// computation (paper §3.1: parallelism in the task graph "is automatically
/// used to hide communication latencies").
pub(crate) const COMM_OVERLAP: f64 = 0.30;

/// Serial fraction of an Octo-Tiger step (M2M upward pass, apply phase,
/// step orchestration) — limits node-level scaling in Fig. 7.
pub(crate) const OCTO_SERIAL_FRACTION: f64 = 0.03;

/// Extra per-kernel-launch overhead of the Kokkos dispatch layer relative
/// to the legacy hand-rolled kernels, in scheduler-event equivalents per
/// kernel (the Kokkos functor/policy indirection; small, per §6.2.1 all
/// three configurations perform within a few percent).
pub(crate) const KOKKOS_DISPATCH_EVENTS: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiencies_are_sane() {
        for arch in CpuArch::ALL {
            for ap in Approach::ALL {
                let e = approach_efficiency(arch, ap);
                assert!((0.1..=1.0).contains(&e), "{arch:?} {ap:?}: {e}");
            }
        }
    }

    #[test]
    fn futures_is_the_reference_style() {
        for arch in CpuArch::ALL {
            assert_eq!(approach_efficiency(arch, Approach::Futures), 1.0);
        }
    }

    #[test]
    fn senders_beat_coroutines_on_riscv() {
        // Fig. 5's ordering.
        assert!(
            approach_efficiency(CpuArch::RiscvU74, Approach::SendersReceivers)
                > approach_efficiency(CpuArch::RiscvU74, Approach::Coroutines)
        );
    }

    #[test]
    fn a64fx_for_each_penalty_exceeds_x86() {
        // Fig. 4b: A64FX drops toward the RISC-V line for for_each.
        assert!(
            approach_efficiency(CpuArch::A64fx, Approach::ParForEach)
                < approach_efficiency(CpuArch::Epyc7543, Approach::ParForEach)
        );
    }
}
