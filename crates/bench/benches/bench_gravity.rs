//! Gravity kernel sweep — the BENCH_gravity.json datapoint.
//!
//! Times the two fast-multipole kernels (`m2l_blocks`, `p2p_blocks`) at
//! every supported lane count against the scalar oracle, each in
//! nanoseconds per interaction (M2L reads `moments` in place, inside the
//! timed region), on the level-2 star. The application run cannot give
//! this: it executes one width. What the step costs end to end is the
//! referee's `octotiger.gravity.{m2l_s,p2p_s}`.
//!
//! `BENCH_SMOKE=1` runs one iteration at level 1 for CI and writes nothing.

use repro_bench::{gravity_kernel_sweeps, smoke, star, write_baseline, POLICIES};

fn main() {
    let smoke = smoke();
    let (level, iters) = if smoke { (1, 1) } else { (2, 12) };
    let points = gravity_kernel_sweeps(&star(level), &POLICIES, iters);
    for p in &points {
        println!(
            "gravity-simd/{}: p2p {:.3} ns/interaction, m2l {:.3} ns/interaction",
            p.label, p.p2p_ns_per_interaction, p.m2l_ns_per_interaction
        );
    }
    if smoke {
        println!("BENCH_SMOKE=1: skipping BENCH_gravity.json write");
        return;
    }
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"policy\": \"{}\", \"p2p_ns_per_interaction\": {:.3}, \
                 \"m2l_ns_per_interaction\": {:.3}}}",
                p.label, p.p2p_ns_per_interaction, p.m2l_ns_per_interaction
            )
        })
        .collect();
    write_baseline(
        "gravity",
        &[
            ("tree_level", level.to_string()),
            ("sweep_iters", iters.to_string()),
        ],
        "kernel_sweeps",
        &rows,
    );
}
