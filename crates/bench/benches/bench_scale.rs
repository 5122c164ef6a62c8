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
//!   to at most [`MAX_BYTES_PER_CELL`], so neither a ghost frame per leaf
//!   nor anything sub-grid-sized kept per leaf across tasks can come back
//!   without CI saying so;
//! * the cache-retention ratio of the mid-run sweep: with subtree-scoped
//!   invalidation only the split's neighbour cone re-traverses, so the
//!   rebuild ratio must stay **< 25 %** of the leaves (gate asserted here).
//!
//! `BENCH_SMOKE=1` runs the level-4 gates only (CI): the rebuild-ratio and
//! memory assertions still fire, no JSON is written.

use repro_bench::scale::{time_scale, ScalePoint};

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

/// Peak resident bytes per cell the level-4 run may reach: 74.6 measured (40
/// B of interior per cell, hydro results held behind the gather wavefront,
/// one acceleration per gravity block) plus 10 %; a per-cell copy of the
/// accelerations read 79.7, holding every leaf's result until one apply
/// phase 133, and a ghost frame stored per leaf again adds 95.
const MAX_BYTES_PER_CELL: f64 = 82.0;

/// The memory gate, at level 4 (where the process's peak is this level's).
fn assert_memory_gate(p: &ScalePoint) {
    assert!(
        p.bytes_per_cell() <= MAX_BYTES_PER_CELL,
        "level {}: peak RSS {:.0} B per cell (gate: {MAX_BYTES_PER_CELL}) — \
         is something sub-grid-sized alive per leaf?",
        p.level,
        p.bytes_per_cell()
    );
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);

    if repro_bench::smoke() {
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

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"level\": {}, \"steps\": {}, \"leaves\": {}, \"cells\": {}, \
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
    repro_bench::write_baseline(
        "scale",
        &[
            ("threads", threads.to_string()),
            ("depth_penalty_l5_vs_l2_cells", format!("{cells_ratio:.3}")),
            ("depth_penalty_l5_vs_l2_flops", format!("{depth_ratio:.3}")),
        ],
        "levels",
        &rows,
    );
}
