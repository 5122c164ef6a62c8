//! Gravity SIMD/caching baseline bench — the BENCH_gravity.json datapoint.
//!
//! Times the two SoA fast-multipole kernels (`m2l_blocks`, `p2p_blocks`) at
//! every supported SIMD width against the scalar reference path, each in
//! nanoseconds per interaction, and a short driver run with the
//! interaction-list cache on vs off. Results go to
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
    cache: bool,
    host_tasks: usize,
    seconds: f64,
    hits: u64,
    misses: u64,
    mac_evals: u64,
    tasks_spawned: u64,
    fused_launches: u64,
}

fn bench_config(level: u32, steps: u32, cache: bool, host_tasks: usize) -> OctoConfig {
    OctoConfig {
        max_level: level,
        stop_step: steps,
        threads: 2,
        use_interaction_cache: cache,
        monopole_host_tasks: host_tasks,
        multipole_host_tasks: host_tasks,
        hydro_host_tasks: host_tasks,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

/// Work-aggregation batch size for the batched driver runs; `1` is the
/// per-leaf baseline. `BENCH_HOST_TASKS` overrides (the CI smoke run pins
/// two sizes to exercise both paths).
fn batch_size() -> usize {
    std::env::var("BENCH_HOST_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16)
}

/// One short driver run; reports wall time, cache and aggregation counters.
fn time_driver(level: u32, steps: u32, cache: bool, host_tasks: usize) -> DriverPoint {
    let mut driver = Driver::new(bench_config(level, steps, cache, host_tasks));
    let m = driver.run(2);
    let agg = driver.aggregation_stats();
    DriverPoint {
        cache,
        host_tasks,
        seconds: m.elapsed_seconds,
        hits: m.cache.hits,
        misses: m.cache.misses,
        mac_evals: m.work.mac_evals,
        tasks_spawned: m.runtime_stats.tasks_spawned,
        fused_launches: agg.fused_launches,
    }
}

fn main() {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    let (level, iters, steps) = if smoke { (1, 1, 1) } else { (2, 12, 4) };

    let batch = batch_size();
    let driver = Driver::new(bench_config(level, steps, true, 1));
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

    let driver_points = [
        time_driver(level, steps, true, 1),
        time_driver(level, steps, false, 1),
        time_driver(level, steps, true, batch),
    ];
    for p in &driver_points {
        println!(
            "gravity-cache/steps(cache={},host_tasks={}): {:.2} ms, hits {} misses {} \
             mac_evals {} tasks_spawned {} fused_launches {}",
            p.cache,
            p.host_tasks,
            p.seconds * 1e3,
            p.hits,
            p.misses,
            p.mac_evals,
            p.tasks_spawned,
            p.fused_launches
        );
    }

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
    let driver_json: Vec<String> = driver_points
        .iter()
        .map(|p| {
            format!(
                "    {{\"interaction_cache\": {}, \"host_tasks\": {}, \"seconds\": {:.6}, \"hits\": {}, \"misses\": {}, \"mac_evals\": {}, \"tasks_spawned\": {}, \"fused_launches\": {}}}",
                p.cache, p.host_tasks, p.seconds, p.hits, p.misses, p.mac_evals, p.tasks_spawned, p.fused_launches
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"gravity\",\n  \"host_simd_isa\": \"{}\",\n  \"compiled_simd_isa\": \"{}\",\n  \"tree_level\": {level},\n  \"steps\": {steps},\n  \"sweep_iters\": {iters},\n  \"kernel_sweeps\": [\n{}\n  ],\n  \"driver_runs\": [\n{}\n  ]\n}}\n",
        octotiger::kernel_backend::host_simd_isa(),
        octotiger::kernel_backend::compiled_simd_isa(),
        kernel_json.join(",\n"),
        driver_json.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gravity.json");
    std::fs::write(path, json).expect("write BENCH_gravity.json");
    println!("wrote {path}");
}
