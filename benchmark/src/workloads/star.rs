//! `star_l4_t1` / `star_l4_t2`: the paper's node-level problem. One op is one
//! `Driver::step` of the level-4 rotating star (1576 leaves, 806 912 cells);
//! the unit of work is cells. The star is the paper's fixed problem, so the
//! seed changes nothing here.
//!
//! Also home of what `amr_l3_t2` shares: the state hash, the driver counter
//! window and the span-derived driver/gravity/hydro metrics.

use std::time::Instant;

use amt::Runtime;
use apex_lite::trace::Cat;
use apex_lite::CounterSnapshot;
use octo_core::project::{octo_cells_per_sec, OctoProfile};
use octotiger::{Driver, OctoConfig, WorkEstimate};
use rv_machine::CpuArch;

use super::{work_delta, work_sum, Outcome, RunArgs, SchedWindow, Window};

/// The timed step after which the field state is hashed.
const HASH_STEP: u64 = 3;
/// Relative mass drift allowed over a run (observed 1e-7 … 4e-6).
const MASS_DRIFT_MAX: f64 = 1e-4;

pub fn run(args: &RunArgs, threads: usize) -> Outcome {
    let mut out = Outcome::new("cells");
    let config = || OctoConfig {
        max_level: if args.smoke { 2 } else { 4 },
        threads,
        ..OctoConfig::default()
    };

    let mut built = None;
    for _ in 0..if args.smoke { 1 } else { 5 } {
        // Free the previous problem first: peak RSS is the program's, not
        // that of two problems side by side.
        drop(built.take());
        let t0 = Instant::now();
        let fresh = (Driver::new(config()), Runtime::new(threads));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(fresh);
    }
    let (mut d, rt) = built.expect("at least one set-up");
    let cells = d.tree().cell_count() as f64;
    let mass0 = d.tree().total_mass();

    // Cold step: builds the interaction lists and fills the pools.
    let t0 = Instant::now();
    let dt = d.step(&rt);
    out.put("octotiger.driver.first_step_s", t0.elapsed().as_secs_f64());
    out.check(dt.is_finite(), || format!("warm-up step returned dt {dt}"));

    let sched = SchedWindow::open(&rt);
    let counters = DriverWindow::open(&d);
    let mut traced_work = WorkEstimate::default();
    let mut win = Window::open(args, HASH_STEP);
    while win.more() {
        let traced = out.next_is_traced(args);
        let before = d.work();
        let done = out.op(traced, || checked_step(&mut d, &rt));
        if done.is_some() && traced {
            traced_work = work_sum(&traced_work, &work_delta(&d.work(), &before));
        }
        if out.attempted == HASH_STEP {
            out.state_hash = Some(state_hash(&d));
        }
    }

    let (steps, wall) = out.ops_and_wall();
    out.work = cells * out.op_s.len() as f64;
    let mass1 = d.tree().total_mass();
    out.check(((mass1 - mass0) / mass0).abs() <= MASS_DRIFT_MAX, || {
        format!("mass drifted from {mass0:e} to {mass1:e}")
    });

    let sched_delta = sched.close(&rt, steps, wall, &mut out);
    let work = counters.close(&d, steps, cells * steps, &mut out);
    tree_metrics(&d, &mut out);
    out.put("octotiger.driver.overlap_ratio", d.overlap_ratio());
    out.put(
        "core.projected_jh7110_cells_per_s",
        octo_cells_per_sec(
            CpuArch::Jh7110,
            4,
            &OctoProfile {
                work,
                cells_processed: (cells * steps) as u64,
                steps: steps as u32,
                tasks: sched_delta.tasks_spawned,
                kokkos_dispatch: true,
                // CFL, multipole, monopole, hydro: four launches per leaf per step.
                kernel_launches: d.tree().leaf_count() as u64 * 4 * steps as u64,
            },
        ),
    );
    out.mark_exact(&[
        "octotiger.octree.leaves",
        "octotiger.octree.cells",
        "octotiger.gravity.far_interactions",
        "octotiger.gravity.near_interactions",
        "octotiger.gravity.mac_evals",
        "octotiger.gravity.cache_hits",
        "octotiger.gravity.cache_misses",
    ]);
    if args.trace {
        span_metrics(&mut out, &traced_work);
    }
    out
}

/// One step plus its output check: `dt` and the total mass stay finite.
pub fn checked_step(d: &mut Driver, rt: &Runtime) -> Result<(), String> {
    let dt = d.step(rt);
    let mass = d.tree().total_mass();
    if dt.is_finite() && dt > 0.0 && mass.is_finite() {
        Ok(())
    } else {
        Err(format!("step returned dt {dt}, total mass {mass}"))
    }
}

/// FNV-1a over the bits of every leaf's interior state, in leaf order.
pub fn state_hash(d: &Driver) -> u64 {
    let tree = d.tree();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &leaf in tree.leaf_ids() {
        for v in tree.subgrid(leaf).interior_data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

pub fn tree_metrics(d: &Driver, out: &mut Outcome) {
    let tree = d.tree();
    out.put("octotiger.octree.leaves", tree.leaf_count() as f64);
    out.put("octotiger.octree.cells", tree.cell_count() as f64);
    out.put(
        "octotiger.octree.resident_mb",
        tree.resident_bytes() as f64 / 1e6,
    );
}

/// The driver's own counters over a window of steps, by their `/gravity/…`
/// and `/work/…` names.
pub struct DriverWindow {
    work0: WorkEstimate,
    snap0: CounterSnapshot,
    pool0: (u64, u64),
}

fn snapshot(d: &Driver) -> CounterSnapshot {
    let mut snap = CounterSnapshot::new();
    d.counters_into(&mut snap);
    snap
}

impl DriverWindow {
    pub fn open(d: &Driver) -> Self {
        let pool = d.stage_pool_stats();
        DriverWindow {
            work0: d.work(),
            snap0: snapshot(d),
            pool0: (pool.hits, pool.misses),
        }
    }

    /// Write the counter-sourced `octotiger.*` metrics, per step, and return
    /// the window's work.
    pub fn close(
        self,
        d: &Driver,
        steps: f64,
        cells_stepped: f64,
        out: &mut Outcome,
    ) -> WorkEstimate {
        let steps = steps.max(1.0);
        let work = work_delta(&d.work(), &self.work0);
        let snap = snapshot(d);
        let delta = |path: &str| (snap.count(path) - self.snap0.count(path)) as f64;
        out.put(
            "octotiger.gravity.far_interactions",
            work.far_interactions as f64 / steps,
        );
        out.put(
            "octotiger.gravity.near_interactions",
            work.near_interactions as f64 / steps,
        );
        out.put("octotiger.gravity.mac_evals", work.mac_evals as f64 / steps);
        out.put(
            "octotiger.gravity.interactions_per_cell",
            (work.far_interactions + work.near_interactions) as f64 / cells_stepped.max(1.0),
        );
        out.put(
            "octotiger.gravity.cache_hits",
            delta("/gravity/cache_hits") / steps,
        );
        out.put(
            "octotiger.gravity.cache_misses",
            delta("/gravity/cache_misses") / steps,
        );
        let rebuilt = delta("/gravity/cache/leaves_rebuilt");
        let retained = delta("/gravity/cache/leaves_retained");
        out.put("octotiger.gravity.leaves_rebuilt", rebuilt / steps);
        out.put("octotiger.gravity.leaves_retained", retained / steps);
        out.put(
            "octotiger.gravity.rebuild_ratio",
            rebuilt / (rebuilt + retained).max(1.0),
        );
        out.put(
            "octotiger.hydro.flops_per_byte",
            work.hydro_flops as f64 / (work.bytes as f64).max(1.0),
        );
        let launches = delta("/work/aggregation/fused_launches");
        out.put("octotiger.aggregate.fused_launches", launches / steps);
        out.put(
            "octotiger.aggregate.batch_size_avg",
            d.aggregation_stats().batch_size_avg(),
        );
        let pool = d.stage_pool_stats();
        let (hits, misses) = (pool.hits - self.pool0.0, pool.misses - self.pool0.1);
        out.put(
            "octotiger.recycle.stage_pool_hit_frac",
            hits as f64 / ((hits + misses) as f64).max(1.0),
        );
        work
    }
}

/// Layer times from the spans the program emitted during the traced steps.
/// Busy seconds are per traced step; `traced_work` is the work those steps
/// did, so the flop rates divide like by like.
pub fn span_metrics(out: &mut Outcome, traced_work: &WorkEstimate) {
    let steps = out.kept_op_s.len().max(1) as f64;
    let wall: f64 = out.kept_op_s.iter().sum::<f64>().max(1e-12);
    let busy = |name: &str| out.store.busy_s(name);
    let per_step = [
        ("octotiger.driver.ghost_exchange_s", busy("ghost_exchange")),
        ("octotiger.driver.cfl_reduction_s", busy("cfl_reduction")),
        (
            "octotiger.driver.gravity_moments_s",
            busy("gravity_moments"),
        ),
        ("octotiger.gravity.m2l_s", busy("m2l")),
        ("octotiger.gravity.p2p_s", busy("p2p")),
        ("octotiger.gravity.cache_rebuild_s", busy("cache_rebuild")),
        ("octotiger.hydro.step_s", busy("hydro_step")),
        ("octotiger.hydro.cfl_leaf_s", busy("cfl_leaf")),
    ];
    let kernels = busy("m2l") + busy("p2p");
    let hydro = busy("hydro_step");
    let attributed = out.store.union_s(Cat::Phase);
    for (name, total) in per_step {
        out.put(name, total / steps);
    }
    let gravity_gflops = traced_work.gravity_flops as f64 * 1e-9 / kernels.max(1e-12);
    out.put("octotiger.gravity.gflops", gravity_gflops);
    out.put(
        "octotiger.hydro.gflops",
        traced_work.hydro_flops as f64 * 1e-9 / hydro.max(1e-12),
    );
    out.put(
        "octotiger.driver.unattributed_frac",
        (1.0 - attributed / wall).max(0.0),
    );
}
