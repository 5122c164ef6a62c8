//! One deep-tree run of `bench_scale`: a short rotating-star run with a
//! regrid sweep landing between the steps. Shared by the bench (which writes
//! `BENCH_scale.json` and asserts the level-4 gates) and by `bench_diff`
//! (which holds a fresh run's counts to that baseline).

use std::time::Instant;

use amt::Runtime;
use octotiger::kernel_backend::KernelType;
use octotiger::{Driver, OctoConfig};

/// What [`time_scale`] found.
pub struct ScalePoint {
    pub level: u32,
    pub steps: u32,
    pub leaves: usize,
    pub cells: usize,
    pub seconds: f64,
    pub cells_per_second: f64,
    /// Throughput of the steps *after* the first — the first step pays the
    /// cold interaction-list build and hosts the regrid sweep, so this is
    /// the steady-state number the depth gate compares (a rebuild storm
    /// after the sweep would land squarely in it).
    pub steady_cells_per_second: f64,
    /// Steady-state work throughput (driver flop estimate / second). Raw
    /// cells/sec falls with depth because the *work per cell* grows — the
    /// per-target-leaf traversal accretes ~O(depth) far entries per leaf
    /// (measured below as `interactions_per_cell`). Flops/sec factors that
    /// out: it must stay flat across depth, or the machine itself is
    /// falling off a cliff (rebuild storm, cache thrash, allocator churn).
    pub steady_flops_per_second: f64,
    /// Measured (near + far) block interactions per cell per steady step —
    /// the intrinsic depth cost the raw cells/sec divides by.
    pub interactions_per_cell: f64,
    pub peak_rss_bytes: u64,
    pub arena_bytes: u64,
    pub partial_rebuilds: u64,
    pub leaves_rebuilt: u64,
    pub leaves_retained: u64,
}

impl ScalePoint {
    /// Peak resident bytes per cell of the tree.
    pub fn bytes_per_cell(&self) -> f64 {
        self.peak_rss_bytes as f64 / self.cells as f64
    }

    /// Fraction of leaves the mid-run sweeps re-traversed (0 when no
    /// partial rebuild ran).
    pub fn rebuild_ratio(&self) -> f64 {
        let visited = self.leaves_rebuilt + self.leaves_retained;
        if visited == 0 {
            0.0
        } else {
            self.leaves_rebuilt as f64 / visited as f64
        }
    }
}

/// Pick a spread of refinement victims among the *deepest* leaves: a deep
/// leaf's neighbour cone is a fixed ball of same-level cells, while a
/// coarse leaf bordering the refined region sits in the near list of every
/// fine leaf around it (and can cascade through grading). Deterministic —
/// the committed series must be reproducible.
fn pick_victims(d: &Driver, n: usize) -> Vec<usize> {
    let tree = d.tree();
    let deepest: Vec<usize> = tree
        .leaf_ids()
        .iter()
        .filter(|&&l| tree.node(l).level == tree.max_level())
        .copied()
        .collect();
    let stride = (deepest.len() / (n + 1).max(1)).max(1);
    deepest
        .iter()
        .skip(stride / 2)
        .step_by(stride)
        .take(n)
        .copied()
        .collect()
}

/// One timed run at `level`: `steps` driver steps with a regrid sweep after
/// the first (so the cache is warm when the topology changes — the
/// incremental path, not the cold build, is what's measured).
pub fn time_scale(level: u32, steps: u32, threads: usize) -> ScalePoint {
    let mut d = Driver::new(OctoConfig {
        max_level: level,
        stop_step: steps,
        threads,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    });
    let rt = Runtime::new(threads);
    // A deep sweep splits few victims (cones don't scale with tree size);
    // a level-4 tree is small enough that even fixed-size cones are a
    // noticeable fraction, so fewer victims there.
    let victims = if level >= 5 { 4 } else { 2 };
    let mut cells: u64 = 0;
    let mut steady_cells: u64 = 0;
    let mut steady_seconds = 0.0f64;
    let mut steady_flops: u64 = 0;
    let mut steady_inter: u64 = 0;
    let mut cold = octotiger::gravity::CacheStats::default();
    let start = Instant::now();
    for s in 0..steps {
        let w0 = d.work();
        let t0 = Instant::now();
        d.step(&rt);
        let dt = t0.elapsed().as_secs_f64();
        cells += d.tree().cell_count() as u64;
        if s == 0 {
            // Snapshot before the sweep: the cold build counts every leaf
            // as rebuilt, the sweep's effect is the delta past it.
            cold = d.cache_stats();
            let picks = pick_victims(&d, victims);
            d.regrid(&rt, &picks);
        } else {
            let w1 = d.work();
            steady_cells += d.tree().cell_count() as u64;
            steady_seconds += dt;
            steady_flops += w1.flops() - w0.flops();
            steady_inter += (w1.far_interactions - w0.far_interactions)
                + (w1.near_interactions - w0.near_interactions);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    rv_machine::memory::note_arena_bytes(d.tree().resident_bytes());
    let cs = d.cache_stats();
    ScalePoint {
        level,
        steps,
        leaves: d.tree().leaf_count(),
        cells: d.tree().cell_count(),
        seconds,
        cells_per_second: cells as f64 / seconds.max(1e-12),
        steady_cells_per_second: steady_cells as f64 / steady_seconds.max(1e-12),
        steady_flops_per_second: steady_flops as f64 / steady_seconds.max(1e-12),
        interactions_per_cell: steady_inter as f64 / (steady_cells as f64).max(1.0),
        peak_rss_bytes: rv_machine::memory::peak_rss_bytes(),
        arena_bytes: d.tree().resident_bytes(),
        partial_rebuilds: cs.partial_rebuilds - cold.partial_rebuilds,
        leaves_rebuilt: cs.leaves_rebuilt - cold.leaves_rebuilt,
        leaves_retained: cs.leaves_retained - cold.leaves_retained,
    }
}
