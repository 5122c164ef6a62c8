//! What-if model for the RISC-V ISA extensions the paper's conclusion (§8)
//! asks for:
//!
//! > "the development of ISA extensions is ongoing within the RISC-V
//! > community. Some examples that would benefit HPX and other AMTs are
//! > one-cycle context switches, extended atomics, hardware support for
//! > global address space, and possibly hardware support for thread
//! > scheduling (hardware queues). [...] Adding hardware support for
//! > exponents can reduce the number of floating point operations from
//! > approximately ⌈2·e⌉+3 down to 4."
//!
//! Each [`IsaExtension`] rewrites the relevant piece of the cost model;
//! [`speedup`] projects a measured workload profile under it. This is the
//! paper's *future work* turned into a runnable projection (see the
//! `isa_whatif` example and `octo-core`'s ablation exhibit).

use crate::arch::CpuArch;
use crate::cost::{CostModel, RuntimeEvent};

/// Proposed RISC-V ISA extensions from the paper's conclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaExtension {
    /// Single-cycle user-space context switches (hardware shadow register
    /// files): `ContextSwitch`/`TaskSpawn` collapse to a handful of cycles.
    OneCycleContextSwitch,
    /// Extended atomics (e.g. unconditional far atomics): RMW cost drops to
    /// near-L1 latency.
    ExtendedAtomics,
    /// Hardware exponentiation: each `exp`-step costs 4 flop-equivalents
    /// instead of ⌈2·e⌉+3 ≈ 9 (§8's own estimate), shrinking `pow`-bound
    /// work by that ratio.
    HardwareExponent,
    /// Hardware task queues (thread-scheduling support): steal/enqueue cost
    /// becomes a single memory-ordered operation.
    HardwareTaskQueues,
    /// The V vector extension at 128-bit (2 × f64 lanes) — the minimum
    /// RVA23-profile vector unit the boards lack.
    Vector128,
}

impl IsaExtension {
    /// All modelled extensions.
    pub const ALL: [IsaExtension; 5] = [
        IsaExtension::OneCycleContextSwitch,
        IsaExtension::ExtendedAtomics,
        IsaExtension::HardwareExponent,
        IsaExtension::HardwareTaskQueues,
        IsaExtension::Vector128,
    ];

    /// Short label for exhibits.
    pub fn label(self) -> &'static str {
        match self {
            IsaExtension::OneCycleContextSwitch => "1-cycle ctx switch",
            IsaExtension::ExtendedAtomics => "extended atomics",
            IsaExtension::HardwareExponent => "hardware exp",
            IsaExtension::HardwareTaskQueues => "hw task queues",
            IsaExtension::Vector128 => "V ext (128-bit)",
        }
    }
}

/// A measured workload summary the what-if model can rescale.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfWorkload {
    /// Flops in `pow`/`exp`-style software-transcendental chains.
    pub transcendental_flops: u64,
    /// Flops in plain arithmetic (vectorizable with the V extension).
    pub plain_flops: u64,
    /// Context switches + task spawns.
    pub task_events: u64,
    /// Steals / queue operations.
    pub queue_events: u64,
    /// Atomic RMW operations.
    pub atomic_events: u64,
}

/// Projected time of the workload on a *baseline* RISC-V board.
pub(crate) fn baseline_seconds(arch: CpuArch, cores: u32, w: &WhatIfWorkload) -> f64 {
    assert!(
        arch.is_riscv(),
        "what-if extensions target the RISC-V boards"
    );
    let cm = CostModel::new(arch);
    let clock = arch.spec().clock_ghz * 1e9;
    let t_flops = cm.flop_seconds(w.transcendental_flops + w.plain_flops);
    let t_events = (w.task_events as f64
        * (cm.event_cycles(RuntimeEvent::ContextSwitch)
            + cm.event_cycles(RuntimeEvent::TaskSpawn))
        + w.queue_events as f64 * cm.event_cycles(RuntimeEvent::Steal)
        + w.atomic_events as f64 * cm.event_cycles(RuntimeEvent::AtomicRmw))
        / clock;
    (t_flops + t_events) / f64::from(cores)
}

/// Projected time with one extension enabled.
pub(crate) fn extended_seconds(
    arch: CpuArch,
    cores: u32,
    w: &WhatIfWorkload,
    ext: IsaExtension,
) -> f64 {
    assert!(
        arch.is_riscv(),
        "what-if extensions target the RISC-V boards"
    );
    let cm = CostModel::new(arch);
    let clock = arch.spec().clock_ghz * 1e9;
    let mut trans = w.transcendental_flops as f64;
    let mut plain = w.plain_flops as f64;
    let mut ctx_cost =
        cm.event_cycles(RuntimeEvent::ContextSwitch) + cm.event_cycles(RuntimeEvent::TaskSpawn);
    let mut steal_cost = cm.event_cycles(RuntimeEvent::Steal);
    let mut atomic_cost = cm.event_cycles(RuntimeEvent::AtomicRmw);
    let mut flop_rate_scale = 1.0;
    match ext {
        IsaExtension::OneCycleContextSwitch => ctx_cost = 2.0,
        IsaExtension::ExtendedAtomics => atomic_cost = 4.0,
        IsaExtension::HardwareExponent => {
            // §8: ⌈2e⌉+3 → 4 flop-equivalents per exponent step.
            trans *=
                f64::from(CostModel::HARDWARE_EXP_FLOPS) / f64::from(CostModel::SOFTWARE_EXP_FLOPS);
        }
        IsaExtension::HardwareTaskQueues => steal_cost = 1.0,
        IsaExtension::Vector128 => {
            // Plain arithmetic vectorizes 2-wide; transcendental chains
            // stay scalar (no vector exp on a minimal V implementation).
            plain /= 2.0;
            flop_rate_scale = 1.0;
        }
    }
    let t_flops = cm.flop_seconds((trans + plain) as u64) * flop_rate_scale;
    let t_events = (w.task_events as f64 * ctx_cost
        + w.queue_events as f64 * steal_cost
        + w.atomic_events as f64 * atomic_cost)
        / clock;
    (t_flops + t_events) / f64::from(cores)
}

/// Speedup factor the extension would deliver on this workload.
pub fn speedup(arch: CpuArch, cores: u32, w: &WhatIfWorkload, ext: IsaExtension) -> f64 {
    baseline_seconds(arch, cores, w) / extended_seconds(arch, cores, w, ext)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Maclaurin-like workload: transcendental-dominated, few tasks.
    fn pow_bound() -> WhatIfWorkload {
        WhatIfWorkload {
            transcendental_flops: 95_000_000,
            plain_flops: 5_000_000,
            task_events: 100,
            queue_events: 50,
            atomic_events: 1_000,
        }
    }

    /// A fine-grained task storm: scheduler-dominated.
    fn task_bound() -> WhatIfWorkload {
        WhatIfWorkload {
            transcendental_flops: 1_000,
            plain_flops: 100_000,
            task_events: 1_000_000,
            queue_events: 500_000,
            atomic_events: 2_000_000,
        }
    }

    #[test]
    fn hardware_exp_halves_pow_bound_work() {
        let s = speedup(
            CpuArch::RiscvU74,
            4,
            &pow_bound(),
            IsaExtension::HardwareExponent,
        );
        // 95% of flops shrink by 9/4 ≈ 2.25 ⇒ ≈2.1× overall.
        assert!((1.8..2.3).contains(&s), "hardware-exp speedup {s}");
    }

    #[test]
    fn context_switch_extension_helps_task_storms_only() {
        let fine = speedup(
            CpuArch::Jh7110,
            4,
            &task_bound(),
            IsaExtension::OneCycleContextSwitch,
        );
        let coarse = speedup(
            CpuArch::Jh7110,
            4,
            &pow_bound(),
            IsaExtension::OneCycleContextSwitch,
        );
        assert!(fine > 1.5, "task-bound speedup {fine}");
        assert!(coarse < 1.01, "pow-bound speedup {coarse} should be ≈1");
    }

    #[test]
    fn every_extension_is_a_speedup() {
        for w in [pow_bound(), task_bound()] {
            for ext in IsaExtension::ALL {
                let s = speedup(CpuArch::RiscvU74, 4, &w, ext);
                assert!(s >= 0.999, "{ext:?} must never slow down: {s}");
            }
        }
    }

    #[test]
    fn vector_extension_targets_plain_flops() {
        let w = WhatIfWorkload {
            transcendental_flops: 0,
            plain_flops: 100_000_000,
            task_events: 0,
            queue_events: 0,
            atomic_events: 0,
        };
        let s = speedup(CpuArch::RiscvU74, 4, &w, IsaExtension::Vector128);
        assert!((1.9..2.1).contains(&s), "2-lane vector speedup {s}");
        // But it does nothing for pow chains.
        let s2 = speedup(CpuArch::RiscvU74, 4, &pow_bound(), IsaExtension::Vector128);
        assert!(s2 < 1.1);
    }

    #[test]
    #[should_panic(expected = "target the RISC-V boards")]
    fn non_riscv_rejected() {
        let _ = baseline_seconds(CpuArch::A64fx, 4, &pow_bound());
    }

    #[test]
    fn labels_distinct() {
        let mut l: Vec<_> = IsaExtension::ALL.iter().map(|e| e.label()).collect();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), IsaExtension::ALL.len());
    }
}
