//! Figures 4a/4b (FLOP/s across four CPUs), Figure 5 (senders & receivers
//! vs future + coroutine on RISC-V), Figure 6a/6b (normalized performance),
//! and the §6.1 flop-count measurement.

use amt::Runtime;
use rv_machine::CpuArch;

use crate::maclaurin::{self, Approach, PAPER_FLOPS, PAPER_N, PAPER_X};
use crate::project::{maclaurin_flops_per_sec, maclaurin_normalized, MaclaurinProfile};
use crate::report::{Exhibit, Series};

fn host_terms(quick: bool) -> u64 {
    if quick {
        20_000
    } else {
        200_000
    }
}

/// Run `approach` on the host with `cores` workers, returning the measured
/// profile (task/steal counts) scaled to the paper's n.
pub(crate) fn measure_profile(
    approach: Approach,
    cores: usize,
    quick: bool,
    flops_per_term: f64,
) -> MaclaurinProfile {
    Runtime::with(cores, |rt| {
        rt.reset_stats();
        let n = host_terms(quick);
        let sum = maclaurin::run(approach, &rt.handle(), PAPER_X, n);
        // Sanity: the result must be on its way to ln(1 + x).
        let want = (1.0 + PAPER_X).ln();
        assert!(
            (sum - want).abs() < 1e-3,
            "{approach:?} diverged: {sum} vs {want}"
        );
        let stats = rt.stats();
        MaclaurinProfile {
            terms: PAPER_N,
            flops_per_term,
            // Coroutine resume counts scale with n; scale the measured task
            // count up to the paper's n for styles whose task count is
            // n-dependent.
            tasks: match approach {
                Approach::Coroutines => stats.tasks_spawned * (PAPER_N / n.max(1)),
                _ => stats.tasks_spawned,
            },
            sched_events: stats.steals + stats.yields,
        }
    })
}

/// Architectures and the core counts Fig. 4 sweeps ("we capped the data at
/// ten cores to still show the scaling behavior for the RISC-V boards").
fn fig4_archs() -> Vec<(CpuArch, u32)> {
    vec![
        (CpuArch::Epyc7543, 10),
        (CpuArch::XeonGold6140, 10),
        (CpuArch::A64fx, 10),
        (CpuArch::RiscvU74, 4),
    ]
}

fn fig4_like(id: &str, title: &str, approach: Approach, quick: bool, normalized: bool) -> Exhibit {
    let mut e = Exhibit::new(
        id,
        title,
        "cores",
        if normalized {
            "FLOP/s / peak (Eq. 3)"
        } else {
            "FLOP/s"
        },
    );
    let fpt = maclaurin::flops_per_term(PAPER_X);
    for (arch, max_cores) in fig4_archs() {
        let mut points = Vec::new();
        for cores in 1..=max_cores {
            let profile = measure_profile(approach, cores as usize, quick, fpt);
            let y = if normalized {
                maclaurin_normalized(arch, cores, approach, &profile)
            } else {
                maclaurin_flops_per_sec(arch, cores, approach, &profile)
            };
            points.push((f64::from(cores), y));
        }
        e.push_series(Series::new(arch.tag(), points));
    }
    let a64 = e.series_by_label("a64fx").and_then(|s| s.y_at(4.0));
    let rv = e.series_by_label("riscv-u74").and_then(|s| s.y_at(4.0));
    if let (Some(a), Some(r)) = (a64, rv) {
        let claim = match (approach, normalized) {
            (Approach::Futures, false) => " (paper §6.1: ≈5×)",
            (Approach::ParForEach, false) => " (paper §6.1: 'RISC-V and A64FX close')",
            _ => " (normalized: RISC-V benefits from its tiny peak)",
        };
        e.note(format!("A64FX / RISC-V at 4 cores: {:.2}×{claim}", a / r));
    }
    e.note(format!(
        "measured flops/term = {fpt:.1} (paper: {:.1} via perf)",
        PAPER_FLOPS as f64 / PAPER_N as f64
    ));
    e
}

/// Fig. 4a: asynchronous programming (`hpx::async` + futures).
pub fn run_fig4a(quick: bool) -> Exhibit {
    fig4_like(
        "fig4a",
        "Maclaurin FLOP/s — async/future (hpx::async)",
        Approach::Futures,
        quick,
        false,
    )
}

/// Fig. 4b: parallel algorithms (`hpx::for_each(par)`).
pub(crate) fn run_fig4b(quick: bool) -> Exhibit {
    fig4_like(
        "fig4b",
        "Maclaurin FLOP/s — for_each(par)",
        Approach::ParForEach,
        quick,
        false,
    )
}

/// Fig. 6a: normalized performance for async/future.
pub(crate) fn run_fig6a(quick: bool) -> Exhibit {
    fig4_like(
        "fig6a",
        "Normalized performance — async/future",
        Approach::Futures,
        quick,
        true,
    )
}

/// Fig. 6b: normalized performance for for_each(par).
pub(crate) fn run_fig6b(quick: bool) -> Exhibit {
    fig4_like(
        "fig6b",
        "Normalized performance — for_each(par)",
        Approach::ParForEach,
        quick,
        true,
    )
}

/// Fig. 5: senders & receivers vs future + coroutine, RISC-V only
/// (the C++20 styles the paper could not compile on the x86 nodes).
pub(crate) fn run_fig5(quick: bool) -> Exhibit {
    let mut e = Exhibit::new(
        "fig5",
        "Maclaurin FLOP/s on RISC-V — senders & receivers vs future+coroutine",
        "cores",
        "FLOP/s",
    );
    let fpt = maclaurin::flops_per_term(PAPER_X);
    for approach in [Approach::SendersReceivers, Approach::Coroutines] {
        let mut points = Vec::new();
        for cores in 1..=4u32 {
            let profile = measure_profile(approach, cores as usize, quick, fpt);
            points.push((
                f64::from(cores),
                maclaurin_flops_per_sec(CpuArch::RiscvU74, cores, approach, &profile),
            ));
        }
        e.push_series(Series::new(approach.label(), points));
    }
    let sr = e
        .series_by_label(Approach::SendersReceivers.label())
        .and_then(|s| s.y_at(4.0));
    let co = e
        .series_by_label(Approach::Coroutines.label())
        .and_then(|s| s.y_at(4.0));
    if let (Some(s), Some(c)) = (sr, co) {
        e.note(format!(
            "S&R / coroutine at 4 cores: {:.2}× (paper: 'slightly better')",
            s / c
        ));
    }
    e
}

/// §6.1's flop-count measurement: our software-math count vs the paper's
/// perf count.
pub(crate) fn run_flops(quick: bool) -> Exhibit {
    let mut e = Exhibit::new(
        "flops",
        "Flop count of the Maclaurin benchmark (perf substitute)",
        "n (terms)",
        "flops",
    );
    let n = if quick { 10_000 } else { 100_000 };
    let (_, flops) = maclaurin::counted(PAPER_X, n);
    let per_term = flops as f64 / n as f64;
    let extrapolated = per_term * PAPER_N as f64;
    e.push_series(Series::new(
        "counted (softmath)",
        vec![(n as f64, flops as f64), (PAPER_N as f64, extrapolated)],
    ));
    e.push_series(Series::new(
        "paper (perf, Intel)",
        vec![(PAPER_N as f64, PAPER_FLOPS as f64)],
    ));
    e.note(format!(
        "{per_term:.1} flops/term measured vs paper's {:.1}; ratio {:.2}",
        PAPER_FLOPS as f64 / PAPER_N as f64,
        extrapolated / PAPER_FLOPS as f64
    ));
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_has_four_architectures_with_right_extents() {
        let e = run_fig4a(true);
        assert_eq!(e.series.len(), 4);
        assert_eq!(e.series_by_label("riscv-u74").unwrap().points.len(), 4);
        assert_eq!(e.series_by_label("amd").unwrap().points.len(), 10);
    }

    #[test]
    fn fig4a_amd_on_top_riscv_on_bottom() {
        let e = run_fig4a(true);
        let at4 = |label: &str| e.series_by_label(label).unwrap().y_at(4.0).unwrap();
        assert!(at4("amd") > at4("intel"));
        assert!(at4("intel") > at4("a64fx"));
        assert!(at4("a64fx") > at4("riscv-u74"));
    }

    #[test]
    fn fig4b_closes_the_a64fx_riscv_gap() {
        let a = run_fig4a(true);
        let b = run_fig4b(true);
        let gap = |e: &Exhibit| {
            e.series_by_label("a64fx").unwrap().y_at(4.0).unwrap()
                / e.series_by_label("riscv-u74").unwrap().y_at(4.0).unwrap()
        };
        assert!(
            gap(&b) < gap(&a),
            "for_each must narrow the A64FX/RISC-V gap: {} vs {}",
            gap(&b),
            gap(&a)
        );
    }

    #[test]
    fn fig5_senders_above_coroutines() {
        let e = run_fig5(true);
        let sr = e.series_by_label("senders & receivers").unwrap();
        let co = e.series_by_label("future + coroutine").unwrap();
        for (p, q) in sr.points.iter().zip(&co.points) {
            assert!(p.1 > q.1, "S&R above coroutines at {} cores", p.0);
        }
    }

    #[test]
    fn fig6_normalized_within_unit_interval() {
        let e = run_fig6a(true);
        for s in &e.series {
            for (_, y) in &s.points {
                assert!(*y > 0.0 && *y < 1.0);
            }
        }
    }

    #[test]
    fn flops_within_factor_of_paper() {
        let e = run_flops(true);
        let ours = e.series[0].points.last().unwrap().1;
        let paper = e.series[1].points.last().unwrap().1;
        let ratio = ours / paper;
        assert!(
            (0.5..2.0).contains(&ratio),
            "flop count should be the paper's order of magnitude: {ratio}"
        );
    }

    #[test]
    fn scaling_monotone_for_all_archs() {
        let e = run_fig4a(true);
        for s in &e.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 > w[0].1, "{} not monotone", s.label);
            }
        }
    }
}
