//! `amr_l3_t2`: the octree, interaction-list and pool layers used the other
//! way round. One op is a `Driver::regrid` of four leaves followed by one
//! `Driver::step`; the unit of work is cells stepped.
//!
//! Ops come in cycles of eight on a fresh level-3 star. The 32 leaves a cycle
//! refines are always the same (every ninth of the 288 initial leaves); the
//! seed decides the *order* in which they are refined, and every cycle of a
//! run replays that order. So the tree a cycle ends with (288 → 596 leaves),
//! and with it the peak RSS and nearly all of the work, depends neither on
//! the seed nor on how many cycles fit into the window, while the sequence of
//! topologies the interaction lists are rebuilt for does follow the seed.
//! Each cycle's `Driver::new` is one more set-up sample.

use std::time::Instant;

use amt::Runtime;
use apex_lite::trace::{self, Cat};
use octotiger::{Driver, OctoConfig, WorkEstimate};

use super::star::{self, DriverWindow};
use super::{work_delta, work_sum, Outcome, Rng, RunArgs, SchedWindow, Window, SMOKE_OPS};
use crate::spans::BENCH_REGRID;

const THREADS: usize = 2;
const OPS_PER_CYCLE: u64 = 8;
const VICTIMS_PER_OP: usize = 4;
/// The op of the first cycle after which the field state is hashed.
const HASH_OP: u64 = 3;
/// Relative mass drift allowed over a cycle. Refining arbitrary leaves is not
/// exactly conservative: seeds 1–12 drift by 1.2e-4 … 5.4e-4.
const MASS_DRIFT_MAX: f64 = 2e-3;

/// Positions in the initial leaf list of the leaves a cycle refines, in the
/// seed's order: every `leaves / n`-th leaf, shuffled.
pub fn victim_order(seed: u64, leaves: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).map(|i| i * leaves / n).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("cells");
    let rt = Runtime::new(THREADS);
    let ops_per_cycle = if args.smoke { SMOKE_OPS } else { OPS_PER_CYCLE };
    let sched = SchedWindow::open(&rt);
    let mut traced_work = WorkEstimate::default();
    let mut regrid_s = Vec::new();
    let mut cycle = 0u64;
    // The traced pass traces whole cycles, alternately, so traced and
    // untraced ops cover the same tree sizes.
    let mut win = Window::open(args, if args.trace { 2 } else { 1 });
    while win.more() {
        let traced = args.trace && cycle.is_multiple_of(2);
        let t0 = Instant::now();
        let mut d = Driver::new(OctoConfig {
            max_level: if args.smoke { 2 } else { 3 },
            threads: THREADS,
            ..OctoConfig::default()
        });
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let mass0 = d.tree().total_mass();
        let victims: Vec<_> = victim_order(
            args.seed,
            d.tree().leaf_count(),
            VICTIMS_PER_OP * ops_per_cycle as usize,
        )
        .into_iter()
        .map(|pos| d.tree().leaf_ids()[pos])
        .collect();

        let t0 = Instant::now();
        let warm = star::checked_step(&mut d, &rt);
        if cycle == 0 {
            out.put("octotiger.driver.first_step_s", t0.elapsed().as_secs_f64());
        }
        out.check(warm.is_ok(), || format!("warm-up step: {warm:?}"));

        let counters = DriverWindow::open(&d);
        let (mut refined, mut cells_stepped, mut ops_done) = (0usize, 0.0, 0.0);
        for (op, victims) in victims.chunks(VICTIMS_PER_OP).enumerate() {
            let before = d.work();
            let done = out.op(traced, || {
                let t0 = Instant::now();
                let report = {
                    let _span = trace::span(Cat::Phase, BENCH_REGRID);
                    d.regrid(&rt, victims)
                };
                let regrid = t0.elapsed().as_secs_f64();
                star::checked_step(&mut d, &rt).map(|()| (regrid, report.leaves_refined))
            });
            if let Some((regrid, leaves)) = done {
                regrid_s.push(regrid);
                refined += leaves;
                ops_done += 1.0;
                let cells = d.tree().cell_count() as f64;
                cells_stepped += cells;
                if traced {
                    traced_work = work_sum(&traced_work, &work_delta(&d.work(), &before));
                } else {
                    out.work += cells;
                }
            }
            if cycle == 0 && op as u64 + 1 == HASH_OP {
                out.state_hash = Some(star::state_hash(&d));
            }
        }
        let mass1 = d.tree().total_mass();
        out.check(((mass1 - mass0) / mass0).abs() <= MASS_DRIFT_MAX, || {
            format!("cycle {cycle}: mass drifted from {mass0:e} to {mass1:e}")
        });

        // Every cycle replays the same ops, so the last cycle's counts stand
        // for all of them.
        counters.close(&d, ops_done, cells_stepped, &mut out);
        star::tree_metrics(&d, &mut out);
        out.put("octotiger.driver.overlap_ratio", d.overlap_ratio());
        out.put(
            "octotiger.driver.leaves_refined",
            refined as f64 / f64::max(ops_done, 1.0),
        );
        cycle += 1;
    }

    let (ops, wall) = out.ops_and_wall();
    sched.close(&rt, ops, wall, &mut out);
    out.put("octotiger.driver.regrid_s", crate::stats::median(&regrid_s));
    out.mark_exact(&[
        "octotiger.octree.leaves",
        "octotiger.octree.cells",
        "octotiger.driver.leaves_refined",
        "octotiger.gravity.far_interactions",
        "octotiger.gravity.near_interactions",
        "octotiger.gravity.leaves_rebuilt",
        "octotiger.gravity.leaves_retained",
    ]);
    if args.trace {
        star::span_metrics(&mut out, &traced_work);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_order_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| victim_order(seed, 288, 32);
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(7));
        // Every seed refines the same 32 distinct leaves.
        let mut sorted = draw(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).map(|i| i * 9).collect::<Vec<_>>());
    }
}
