//! Gravity SIMD/caching baseline bench — the BENCH_gravity.json datapoint.
//!
//! Times the two fast-multipole kernels (`m2l_blocks`, `p2p_blocks`) at
//! every supported lane count against the scalar oracle, each in
//! nanoseconds per interaction (M2L reads `moments` in place, inside the
//! timed region), and a short driver run whose task, launch
//! and cache counts `bench_diff` holds exact. Results go to
//! stdout (criterion-style lines) and, on a full run, to
//! `BENCH_gravity.json` at the repo root so successive PRs accumulate a
//! baseline series.
//!
//! `BENCH_SMOKE=1` runs one short iteration for CI (no timing assertions,
//! no JSON write — smoke numbers must not clobber the committed baseline).

use octotiger::kernel_backend::{KernelType, SimdPolicy};
use octotiger::{Driver, OctoConfig};
use repro_bench::gravity_kernel_sweeps;

struct DriverPoint {
    seconds: f64,
    hits: u64,
    misses: u64,
    mac_evals: u64,
    tasks_spawned: u64,
    fused_launches: u64,
}

fn bench_config(level: u32, steps: u32) -> OctoConfig {
    OctoConfig {
        max_level: level,
        stop_step: steps,
        threads: 2,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

/// One short driver run; reports wall time, cache and launch counters.
fn time_driver(level: u32, steps: u32) -> DriverPoint {
    let mut driver = Driver::new(bench_config(level, steps));
    let m = driver.run(2);
    DriverPoint {
        seconds: m.elapsed_seconds,
        hits: m.cache.hits,
        misses: m.cache.misses,
        mac_evals: m.work.mac_evals,
        tasks_spawned: m.runtime_stats.tasks_spawned,
        fused_launches: driver.aggregation_stats().fused_launches,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (level, iters, steps) = if smoke { (1, 1, 1) } else { (2, 12, 4) };

    let driver = Driver::new(bench_config(level, steps));
    let policies = [
        SimdPolicy::Scalar,
        SimdPolicy::Width(1),
        SimdPolicy::Width(2),
        SimdPolicy::Width(4),
        SimdPolicy::Width(8),
    ];
    let kernel_points = gravity_kernel_sweeps(&driver, &policies, iters);
    for p in &kernel_points {
        println!(
            "gravity-simd/{}: p2p {:.3} ns/interaction, m2l {:.3} ns/interaction",
            p.label, p.p2p_ns_per_interaction, p.m2l_ns_per_interaction
        );
    }

    let run = time_driver(level, steps);
    println!(
        "gravity-cache/steps: {:.2} ms, hits {} misses {} \
         mac_evals {} tasks_spawned {} fused_launches {}",
        run.seconds * 1e3,
        run.hits,
        run.misses,
        run.mac_evals,
        run.tasks_spawned,
        run.fused_launches
    );

    if smoke {
        println!("BENCH_SMOKE=1: skipping BENCH_gravity.json write");
        return;
    }

    let kernel_json: Vec<String> = kernel_points
        .iter()
        .map(|p| {
            format!(
                "    {{\"policy\": \"{}\", \"p2p_ns_per_interaction\": {:.3}, \"m2l_ns_per_interaction\": {:.3}}}",
                p.label, p.p2p_ns_per_interaction, p.m2l_ns_per_interaction
            )
        })
        .collect();
    let driver_json = format!(
        "    {{\"seconds\": {:.6}, \"hits\": {}, \"misses\": {}, \"mac_evals\": {}, \"tasks_spawned\": {}, \"fused_launches\": {}}}",
        run.seconds, run.hits, run.misses, run.mac_evals, run.tasks_spawned, run.fused_launches
    );
    let json = format!(
        "{{\n  \"bench\": \"gravity\",\n  \"host_simd_isa\": \"{}\",\n  \"compiled_simd_isa\": \"{}\",\n  \"tree_level\": {level},\n  \"steps\": {steps},\n  \"sweep_iters\": {iters},\n  \"kernel_sweeps\": [\n{}\n  ],\n  \"driver_runs\": [\n{}\n  ]\n}}\n",
        octotiger::kernel_backend::host_simd_isa(),
        octotiger::kernel_backend::compiled_simd_isa(),
        kernel_json.join(",\n"),
        driver_json
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gravity.json");
    std::fs::write(path, json).expect("write BENCH_gravity.json");
    println!("wrote {path}");
}
