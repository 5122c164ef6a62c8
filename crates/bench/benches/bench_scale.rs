//! Deep-tree scale bench — the BENCH_scale.json datapoint (cells/sec ×
//! depth) and the CI gate for the incremental interaction-list cache.
//!
//! For each tree depth it times a short rotating-star run with one mid-run
//! regrid sweep landing between the steps, and reports
//!
//! * throughput — the paper's Fig. 7 cells/sec metric swept over depth,
//!   next to work throughput (flops/sec) and the measured interactions per
//!   cell. Raw cells/sec *must* fall with depth (the per-target-leaf
//!   traversal accretes ~O(depth) far entries per leaf — the physics bill);
//!   the gated invariant is that flops/sec stays within 2× across depth,
//!   i.e. the machine itself does not fall off a cliff on deep trees;
//! * peak RSS (`rv_machine::memory::peak_rss_bytes`) next to the arena
//!   bytes and per cell, the §6.2.1 memory-pressure axis — gated at level 4
//!   to at most twice the arena, so nothing sub-grid-sized can be kept per
//!   leaf across tasks again without CI saying so;
//! * the cache-retention ratio of the mid-run sweep: with subtree-scoped
//!   invalidation only the split's neighbour cone re-traverses, so the
//!   rebuild ratio must stay **< 25 %** of the leaves (gate asserted here).
//!
//! `BENCH_SMOKE=1` runs the level-4 gates only (CI): the rebuild-ratio and
//! memory assertions still fire, no JSON is written.

use std::time::Instant;

use amt::Runtime;
use octotiger::kernel_backend::KernelType;
use octotiger::{Driver, OctoConfig};

struct ScalePoint {
    level: u32,
    steps: u32,
    leaves: usize,
    cells: usize,
    seconds: f64,
    cells_per_second: f64,
    /// Throughput of the steps *after* the first — the first step pays the
    /// cold interaction-list build and hosts the regrid sweep, so this is
    /// the steady-state number the depth gate compares (a rebuild storm
    /// after the sweep would land squarely in it).
    steady_cells_per_second: f64,
    /// Steady-state work throughput (driver flop estimate / second). Raw
    /// cells/sec falls with depth because the *work per cell* grows — the
    /// per-target-leaf traversal accretes ~O(depth) far entries per leaf
    /// (measured below as `interactions_per_cell`). Flops/sec factors that
    /// out: it must stay flat across depth, or the machine itself is
    /// falling off a cliff (rebuild storm, cache thrash, allocator churn).
    steady_flops_per_second: f64,
    /// Measured (near + far) block interactions per cell per steady step —
    /// the intrinsic depth cost the raw cells/sec divides by.
    interactions_per_cell: f64,
    peak_rss_bytes: u64,
    arena_bytes: u64,
    partial_rebuilds: u64,
    leaves_rebuilt: u64,
    leaves_retained: u64,
}

impl ScalePoint {
    /// Peak resident bytes per cell of the tree.
    fn bytes_per_cell(&self) -> f64 {
        self.peak_rss_bytes as f64 / self.cells as f64
    }

    /// Fraction of leaves the mid-run sweeps re-traversed (0 when no
    /// partial rebuild ran).
    fn rebuild_ratio(&self) -> f64 {
        let visited = self.leaves_rebuilt + self.leaves_retained;
        if visited == 0 {
            0.0
        } else {
            self.leaves_rebuilt as f64 / visited as f64
        }
    }
}

fn scale_config(level: u32, threads: usize) -> OctoConfig {
    OctoConfig {
        max_level: level,
        stop_step: 3,
        threads,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
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
fn time_scale(level: u32, steps: u32, threads: usize) -> ScalePoint {
    let mut cfg = scale_config(level, threads);
    cfg.stop_step = steps;
    let mut d = Driver::new(cfg);
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

fn print_point(p: &ScalePoint) {
    println!(
        "scale/level{}: {} leaves, {:.3e} cells/s ({:.3e} steady, \
         {:.3e} flops/s, {:.0} inter/cell), peak_rss {:.1} MiB \
         ({:.0} B/cell), arena {:.1} MiB, partial_rebuilds {} rebuilt {} \
         retained {} (rebuild ratio {:.1}%)",
        p.level,
        p.leaves,
        p.cells_per_second,
        p.steady_cells_per_second,
        p.steady_flops_per_second,
        p.interactions_per_cell,
        p.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        p.bytes_per_cell(),
        p.arena_bytes as f64 / (1024.0 * 1024.0),
        p.partial_rebuilds,
        p.leaves_rebuilt,
        p.leaves_retained,
        p.rebuild_ratio() * 100.0
    );
}

/// The CI gate: the mid-run sweep must take the incremental path and
/// re-traverse < 25 % of the leaves.
fn assert_gate(p: &ScalePoint) {
    assert!(
        p.partial_rebuilds >= 1,
        "level {}: mid-run regrid did not take the incremental path",
        p.level
    );
    let ratio = p.rebuild_ratio();
    assert!(
        ratio < 0.25,
        "level {}: mid-run regrid rebuilt {:.1}% of interaction lists \
         (gate: < 25%) — rebuilt {} retained {}",
        p.level,
        ratio * 100.0,
        p.leaves_rebuilt,
        p.leaves_retained
    );
}

/// The memory gate, at level 4 (where the process's peak is this level's):
/// a sub-grid-sized buffer kept per leaf across tasks costs 0.6 of the arena
/// (the primitive stage did: 2.64 × arena with it, 1.65 without).
fn assert_memory_gate(p: &ScalePoint) {
    assert!(
        p.peak_rss_bytes <= 2 * p.arena_bytes,
        "level {}: peak RSS {} B is more than twice the arena's {} B — \
         is something sub-grid-sized alive per leaf across tasks?",
        p.level,
        p.peak_rss_bytes,
        p.arena_bytes
    );
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);

    if smoke {
        // Level 4 is the paper's production depth and deep enough that a
        // 4-victim sweep's neighbour cones are a small minority.
        let p = time_scale(4, 2, threads);
        print_point(&p);
        assert_gate(&p);
        assert_memory_gate(&p);
        println!(
            "BENCH_SMOKE=1: rebuild-ratio and memory gates OK, skipping BENCH_scale.json write"
        );
        return;
    }

    let points: Vec<ScalePoint> = [(2u32, 3u32), (4, 3), (5, 2)]
        .iter()
        .map(|&(level, steps)| time_scale(level, steps, threads))
        .collect();
    for p in &points {
        print_point(p);
    }
    for p in points.iter().filter(|p| p.level >= 4) {
        assert_gate(p);
    }
    assert_memory_gate(&points[1]);
    let l2 = &points[0];
    let l5 = points.last().expect("three depths");
    // Two depth numbers, one gated. Raw cells/sec falls with depth because
    // the work per cell grows — the per-target-leaf traversal accretes
    // ~O(depth) far-list entries (interactions_per_cell column: measured
    // ~13× more block interactions per cell at level 5 than level 2), which
    // is the tree-code physics bill, not a software cliff. The gated number
    // is steady-state *work* throughput (flops/sec): a rebuild storm, cache
    // thrash, or allocator churn at depth would sink it, intrinsic list
    // growth does not. Cold list build + the sweep live in step 0 and are
    // excluded from both (one-time costs).
    let cells_ratio = l2.steady_cells_per_second / l5.steady_cells_per_second;
    let depth_ratio = l2.steady_flops_per_second / l5.steady_flops_per_second;
    println!(
        "scale/depth-penalty: level-5 runs {:.2}x below level-2 in raw \
         cells/sec ({:.0}x the interactions per cell) and {:.2}x in \
         flops/sec (gate: < 2x)",
        cells_ratio,
        l5.interactions_per_cell / l2.interactions_per_cell.max(1e-12),
        depth_ratio
    );
    assert!(
        depth_ratio < 2.0,
        "level-5 work throughput fell more than 2x below level-2: \
         {depth_ratio:.2}x — the machine, not the physics, is slowing down"
    );

    let point_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"level\": {}, \"steps\": {}, \"leaves\": {}, \"cells\": {}, \
                 \"seconds\": {:.6}, \"cells_per_second\": {:.1}, \
                 \"steady_cells_per_second\": {:.1}, \
                 \"steady_flops_per_second\": {:.1}, \
                 \"interactions_per_cell\": {:.1}, \
                 \"peak_rss_bytes\": {}, \"arena_bytes\": {}, \
                 \"bytes_per_cell\": {:.1}, \
                 \"partial_rebuilds\": {}, \"leaves_rebuilt\": {}, \
                 \"leaves_retained\": {}, \"rebuild_ratio\": {:.4}}}",
                p.level,
                p.steps,
                p.leaves,
                p.cells,
                p.seconds,
                p.cells_per_second,
                p.steady_cells_per_second,
                p.steady_flops_per_second,
                p.interactions_per_cell,
                p.peak_rss_bytes,
                p.arena_bytes,
                p.bytes_per_cell(),
                p.partial_rebuilds,
                p.leaves_rebuilt,
                p.leaves_retained,
                p.rebuild_ratio()
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scale\",\n  \"host_simd_isa\": \"{}\",\n  \
         \"compiled_simd_isa\": \"{}\",\n  \"threads\": {threads},\n  \
         \"depth_penalty_l5_vs_l2_cells\": {cells_ratio:.3},\n  \
         \"depth_penalty_l5_vs_l2_flops\": {depth_ratio:.3},\n  \"levels\": [\n{}\n  ]\n}}\n",
        octotiger::kernel_backend::host_simd_isa(),
        octotiger::kernel_backend::compiled_simd_isa(),
        point_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
    println!("wrote {path}");
}
