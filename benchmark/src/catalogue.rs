//! The metric catalogue: every name the benchmark reports, with its unit and
//! the direction in which it improves. `BENCHMARK.json` lists the same names
//! (a unit test keeps the two in step) and adds the regression bounds.

use crate::stats::Better::{self, Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees; the same four on every workload.
pub const END_TO_END: [Metric; 4] = [
    // Work done by the timed ops ÷ their summed wall time, in the workload's
    // unit (cells, cell-steps, tasks, parcels) per second.
    m("work_per_s", "1/s", Higher),
    m("op_s_p50", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// `setup_s` may also move by this much before `compare` calls it a
/// regression: a sub-millisecond set-up doubles on scheduler noise alone.
pub const SETUP_ABS_FLOOR_S: f64 = 0.03;

/// Single layers. Source: `C` a counter the call already returns, `O` timed
/// from outside, `T` the program's own spans (traced pass).
pub const PER_LAYER: [Metric; 74] = [
    // amt — C: per op over the timed window.
    m("amt.tasks_spawned", "count", Lower),
    m("amt.steals", "count", Lower),
    m("amt.parks", "count", Lower),
    m("amt.yields", "count", Lower),
    m("amt.busy_frac", "ratio", Higher),
    m("amt.park_frac", "ratio", Lower),
    m("amt.imbalance", "ratio", Lower),
    m("amt.steal_ratio", "ratio", Lower),
    // amt — O.
    m("amt.overhead_us_per_task", "us", Lower),
    m("amt.future.op_s", "s", Lower),
    m("amt.par.op_s", "s", Lower),
    m("amt.sr.op_s", "s", Lower),
    m("amt.coro.op_s", "s", Lower),
    m("amt.spawn_join_us_per_task", "us", Lower),
    m("amt.runtime_start_s", "s", Lower),
    // kokkos-lite — O.
    m("kokkos-lite.serial_launch_ns", "ns", Lower),
    m("kokkos-lite.hpx_launch_us", "us", Lower),
    m("kokkos-lite.reduce_gelem_per_s", "Gelem/s", Higher),
    // octotiger.octree — C.
    m("octotiger.octree.leaves", "count", Lower),
    m("octotiger.octree.cells", "count", Lower),
    m("octotiger.octree.resident_mb", "MB", Lower),
    // octotiger.driver — O, T, C.
    m("octotiger.driver.first_step_s", "s", Lower),
    m("octotiger.driver.ghost_exchange_s", "s", Lower),
    m("octotiger.driver.cfl_reduction_s", "s", Lower),
    m("octotiger.driver.gravity_moments_s", "s", Lower),
    m("octotiger.driver.overlap_ratio", "ratio", Higher),
    m("octotiger.driver.critical_path_frac", "ratio", Lower),
    m("octotiger.driver.unattributed_frac", "ratio", Lower),
    m("octotiger.driver.regrid_s", "s", Lower),
    m("octotiger.driver.leaves_refined", "count", Lower),
    // octotiger.gravity — T busy seconds per step, C counts per step.
    m("octotiger.gravity.m2l_s", "s", Lower),
    m("octotiger.gravity.p2p_s", "s", Lower),
    m("octotiger.gravity.cache_rebuild_s", "s", Lower),
    m("octotiger.gravity.far_interactions", "count", Lower),
    m("octotiger.gravity.near_interactions", "count", Lower),
    m("octotiger.gravity.mac_evals", "count", Lower),
    m("octotiger.gravity.interactions_per_cell", "count", Lower),
    m("octotiger.gravity.cache_hits", "count", Higher),
    m("octotiger.gravity.cache_misses", "count", Lower),
    m("octotiger.gravity.leaves_rebuilt", "count", Lower),
    m("octotiger.gravity.leaves_retained", "count", Higher),
    m("octotiger.gravity.rebuild_ratio", "ratio", Lower),
    m("octotiger.gravity.gflops", "Gflop/s", Higher),
    m("octotiger.gravity.peak_frac", "ratio", Higher),
    // octotiger.hydro — T, C.
    m("octotiger.hydro.step_s", "s", Lower),
    m("octotiger.hydro.cfl_leaf_s", "s", Lower),
    m("octotiger.hydro.gflops", "Gflop/s", Higher),
    m("octotiger.hydro.flops_per_byte", "flop/B", Higher),
    // octotiger.aggregate, octotiger.recycle — C.
    m("octotiger.aggregate.fused_launches", "count", Lower),
    m("octotiger.aggregate.batch_size_avg", "count", Higher),
    m("octotiger.recycle.stage_pool_hit_frac", "ratio", Higher),
    // octotiger.dist_driver — T, O, C.
    m("octotiger.dist_driver.halo_exchange_s", "s", Lower),
    m("octotiger.dist_driver.comm_flush_s", "s", Lower),
    m("octotiger.dist_driver.speedup_2loc", "ratio", Higher),
    m("octotiger.dist_driver.owned_imbalance", "ratio", Lower),
    // distrib — C per op, O, T.
    m("distrib.messages", "count", Lower),
    m("distrib.bytes", "B", Lower),
    m("distrib.parcels", "count", Lower),
    m("distrib.batches", "count", Lower),
    m("distrib.queue_depth_hwm", "count", Lower),
    m("distrib.parcel_latency_p50_us", "us", Lower),
    m("distrib.parcel_latency_p99_us", "us", Lower),
    m("distrib.remote_small_rt_us", "us", Lower),
    m("distrib.remote_halo_rt_us", "us", Lower),
    m("distrib.local_rt_us", "us", Lower),
    m("distrib.wire.encode_gb_per_s", "GB/s", Higher),
    m("distrib.wire.decode_gb_per_s", "GB/s", Higher),
    m("distrib.wire_share", "ratio", Lower),
    // apex-lite — O, C.
    m("apex-lite.trace_overhead_frac", "ratio", Lower),
    m("apex-lite.events_recorded", "count", Lower),
    m("apex-lite.events_dropped", "count", Lower),
    // machine, core.
    m("machine.host_fma_gflops", "Gflop/s", Higher),
    m("core.projected_jh7110_cells_per_s", "cells/s", Higher),
    m("core.maclaurin.sequential_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            spec.get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|row| {
                    fields
                        .iter()
                        .map(|f| row.get(f).and_then(Json::as_str).expect(f).to_string())
                        .collect()
                })
                .collect()
        };
        let of = |ms: &[Metric]| -> Vec<Vec<String>> {
            ms.iter()
                .map(|m| {
                    let better = match m.better {
                        Higher => "higher",
                        Lower => "lower",
                    };
                    vec![m.name.into(), m.unit.into(), better.into()]
                })
                .collect()
        };
        let fields = ["name", "unit", "better"];
        assert_eq!(rows("end_to_end", &fields), of(&END_TO_END));
        assert_eq!(rows("per_layer", &fields), of(&PER_LAYER));
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|(n, w)| vec![n.to_string(), w.to_string()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
        for e in spec.get("end_to_end").expect("end_to_end").as_arr() {
            let bound = e.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
