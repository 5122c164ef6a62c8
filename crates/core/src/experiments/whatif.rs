//! Extension exhibits beyond the paper's figures:
//!
//! * `whatif` — the §8 ISA-extension discussion turned into numbers: how
//!   much each proposed extension (1-cycle context switch, extended
//!   atomics, hardware exponentiation, hardware task queues, a minimal V
//!   extension) would speed up the two workload classes of the study;
//! * `membench` — the §8 memory-benchmark future work (STREAM-Triad, GUPS),
//!   implemented in [`crate::membench`].

use amt::Runtime;
use rv_machine::extensions::{self, IsaExtension, WhatIfWorkload};
use rv_machine::CpuArch;

use crate::maclaurin::{self, PAPER_N, PAPER_X};
use crate::membench;
use crate::report::{Exhibit, Series};

/// Characterize the Maclaurin benchmark as a what-if workload (measured
/// flop split + scheduler event counts from a host run).
pub(crate) fn maclaurin_workload(quick: bool) -> WhatIfWorkload {
    let fpt = maclaurin::flops_per_term(PAPER_X);
    let n_host = if quick { 20_000 } else { 200_000 };
    let (tasks, steals) = Runtime::with(4, |rt| {
        rt.reset_stats();
        let _ = maclaurin::run(maclaurin::Approach::Futures, &rt.handle(), PAPER_X, n_host);
        let s = rt.stats();
        (s.tasks_spawned, s.steals)
    });
    let total = (PAPER_N as f64 * fpt) as u64;
    WhatIfWorkload {
        // pow dominates: ~95% of the counted flops sit in exp/log chains.
        transcendental_flops: total * 95 / 100,
        plain_flops: total * 5 / 100,
        task_events: tasks,
        queue_events: steals,
        atomic_events: tasks * 4,
    }
}

/// A fine-grained task storm (the coroutine style at small stride): the
/// scheduler-bound end of the spectrum.
pub(crate) fn task_storm_workload(quick: bool) -> WhatIfWorkload {
    let n_host = if quick { 20_000u64 } else { 100_000 };
    let (tasks, steals) = Runtime::with(4, |rt| {
        rt.reset_stats();
        let _ = maclaurin::coroutine_style(&rt.handle(), PAPER_X, n_host, 16, 64);
        let s = rt.stats();
        (s.tasks_spawned, s.steals)
    });
    // Scale resume counts up to the paper's n.
    let scale = PAPER_N / n_host;
    WhatIfWorkload {
        transcendental_flops: PAPER_N * 95,
        plain_flops: PAPER_N * 5,
        task_events: tasks * scale,
        queue_events: steals * scale,
        atomic_events: tasks * scale * 4,
    }
}

/// The `whatif` exhibit: speedup factor per extension per workload.
pub fn run_whatif(quick: bool) -> Exhibit {
    let mut e = Exhibit::new(
        "whatif",
        "Projected speedups of the §8 ISA extensions on the VisionFive2",
        "extension index",
        "speedup ×",
    );
    let workloads = [
        ("Maclaurin (pow-bound)", maclaurin_workload(quick)),
        ("coroutine storm (task-bound)", task_storm_workload(quick)),
    ];
    for (label, w) in &workloads {
        let points = IsaExtension::ALL
            .iter()
            .enumerate()
            .map(|(i, &ext)| (i as f64, extensions::speedup(CpuArch::Jh7110, 4, w, ext)))
            .collect();
        e.push_series(Series::new(*label, points));
    }
    for (i, ext) in IsaExtension::ALL.iter().enumerate() {
        e.note(format!("extension {i}: {}", ext.label()));
    }
    e.note(
        "§8: hardware exponent support cuts ⌈2e⌉+3 ≈ 9 flop-equivalents per \
         exponent step to 4"
            .to_string(),
    );
    e
}

/// The `membench` exhibit (STREAM-Triad + GUPS projections).
pub(crate) fn run_membench(quick: bool) -> Exhibit {
    Runtime::with(4, |rt| membench::run_exhibit(&rt.handle(), quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whatif_hardware_exp_helps_pow_bound_most() {
        let e = run_whatif(true);
        let pow = e.series_by_label("Maclaurin (pow-bound)").unwrap();
        let storm = e.series_by_label("coroutine storm (task-bound)").unwrap();
        // Index 2 = hardware exp; index 0 = 1-cycle ctx switch.
        assert!(pow.y_at(2.0).unwrap() > 1.5);
        assert!(pow.y_at(2.0).unwrap() > storm.y_at(2.0).unwrap() * 0.99);
        // The context-switch extension matters most for the storm.
        assert!(storm.y_at(0.0).unwrap() > pow.y_at(0.0).unwrap());
    }

    #[test]
    fn whatif_speedups_are_at_least_one() {
        let e = run_whatif(true);
        for s in &e.series {
            for (_, y) in &s.points {
                assert!(*y >= 0.999, "{}: {y}", s.label);
            }
        }
    }

    #[test]
    fn membench_exhibit_has_all_archs() {
        let e = run_membench(true);
        assert_eq!(e.series.len(), 4);
        for s in &e.series {
            assert_eq!(s.points.len(), 2);
        }
    }
}
