//! `dist_l3_2loc`: the Fig. 8 exhibit. One op is one `DistRun::execute` of
//! two localities × one worker on the level-3 star, ten steps over the TCP
//! parcelport with coalescing off (the paper's default); the unit of work is
//! cells·steps. The star is fixed, so the seed changes nothing here.
//!
//! `execute` boots and tears down its own cluster, so every op also yields a
//! set-up sample: its wall time minus the stepping time it reports. In the
//! traced pass the benchmark switches the tracer on around `execute`, as for
//! every other workload; `trace_out` stays unset, because reading the file
//! back through `apex_lite::validate` takes minutes (see `spans::summary`).

use std::time::Instant;

use apex_lite::CounterSnapshot;
use distrib::CoalesceConfig;
use octotiger::{DistConfig, DistMetrics, DistRun, OctoConfig};
use rv_machine::NetBackend;

use super::{put_parcel_latency, put_sched_from_counters, Outcome, RunArgs, Window};
use crate::stats::median;

/// The phase spans `dist_driver` emits, for the critical-path analysis.
const PHASES: [&str; 5] = [
    "halo_exchange",
    "cfl_reduction",
    "gravity_solve",
    "hydro_step",
    "comm_flush",
];

fn config(args: &RunArgs, nodes: u32) -> DistConfig {
    DistConfig {
        nodes,
        threads_per_node: 1,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
        octo: OctoConfig {
            max_level: if args.smoke { 2 } else { 3 },
            stop_step: if args.smoke { 2 } else { 10 },
            threads: 1,
            ..OctoConfig::default()
        },
    }
}

/// One execute plus its output check; returns the metrics and the wall time.
fn execute(cfg: DistConfig) -> Result<(DistMetrics, f64), String> {
    let t0 = Instant::now();
    let m = DistRun::execute(cfg);
    let wall = t0.elapsed().as_secs_f64();
    if m.cells_processed == m.cell_count as u64 * u64::from(m.steps)
        && m.elapsed_seconds.is_finite()
    {
        Ok((m, wall))
    } else {
        Err(format!(
            "{} cells processed, expected {} × {}",
            m.cells_processed, m.cell_count, m.steps
        ))
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("cell-steps");
    let warm = execute(config(args, 2));
    out.check(warm.is_ok(), || format!("warm-up op: {warm:?}"));

    // Fig. 8's ratio: the same ten steps on one locality, inside the window.
    let mut window_args = args.clone();
    let mut single_s = Vec::new();
    if args.trace {
        let t0 = Instant::now();
        single_s.extend(
            (0..2)
                .filter_map(|_| execute(config(args, 1)).ok())
                .map(|(m, _)| m.elapsed_seconds),
        );
        window_args.seconds -= t0.elapsed().as_secs_f64();
    }

    let mut last: Option<DistMetrics> = None;
    let mut elapsed = Vec::new();
    let mut win = Window::open(&window_args, if args.trace { 2 } else { 3 });
    while win.more() {
        let traced = out.next_is_traced(args);
        let Some((m, wall)) = out.op(traced, || execute(config(args, 2))) else {
            continue;
        };
        out.setup_s.push(wall - m.elapsed_seconds);
        elapsed.push(m.elapsed_seconds);
        if !traced {
            out.work += m.cells_processed as f64;
        }
        if let Some(first) = &last {
            out.check(
                m.port.parcels == first.port.parcels && m.net.bytes == first.net.bytes,
                || {
                    format!(
                        "wire traffic changed between ops: {} parcels / {} B, then {} / {}",
                        first.port.parcels, first.net.bytes, m.port.parcels, m.net.bytes
                    )
                },
            );
        }
        last = Some(m);
    }

    let Some(m) = last else {
        return out;
    };
    let steps = f64::from(m.steps);
    if !single_s.is_empty() {
        out.put(
            "octotiger.dist_driver.speedup_2loc",
            median(&single_s) / median(&elapsed).max(1e-12),
        );
    }
    // `execute` starts its counters from zero, so one op's metrics are the op.
    put_sched_from_counters(
        &mut out,
        &CounterSnapshot::new(),
        &m.counters,
        m.nodes,
        1.0,
        m.elapsed_seconds,
    );
    let mean_owned = m.owned_per_node.iter().sum::<usize>() as f64 / m.owned_per_node.len() as f64;
    let max_owned = m.owned_per_node.iter().copied().max().unwrap_or(0) as f64;
    out.put(
        "octotiger.dist_driver.owned_imbalance",
        max_owned / mean_owned,
    );
    out.put("octotiger.octree.leaves", m.leaf_count as f64);
    out.put("octotiger.octree.cells", m.cell_count as f64);
    out.put(
        "octotiger.gravity.far_interactions",
        m.work.far_interactions as f64 / steps,
    );
    out.put(
        "octotiger.gravity.near_interactions",
        m.work.near_interactions as f64 / steps,
    );
    out.put(
        "octotiger.gravity.mac_evals",
        m.work.mac_evals as f64 / steps,
    );
    out.put(
        "octotiger.gravity.interactions_per_cell",
        (m.work.far_interactions + m.work.near_interactions) as f64 / m.cells_processed as f64,
    );
    let per_locality = |what: &str| -> f64 {
        (0..m.nodes)
            .map(|i| m.counters.count(&format!("/gravity/locality{i}/{what}")) as f64)
            .sum()
    };
    out.put(
        "octotiger.gravity.cache_hits",
        per_locality("cache_hits") / steps,
    );
    out.put(
        "octotiger.gravity.cache_misses",
        per_locality("cache_misses") / steps,
    );
    out.put("distrib.messages", m.port.messages as f64);
    out.put("distrib.bytes", m.net.bytes as f64);
    out.put("distrib.parcels", m.port.parcels as f64);
    out.put("distrib.batches", m.port.batches as f64);
    out.put("distrib.queue_depth_hwm", m.port.queue_depth_hwm as f64);
    put_parcel_latency(&mut out, &m.counters);
    out.mark_exact(&[
        "octotiger.octree.leaves",
        "octotiger.gravity.far_interactions",
        "octotiger.gravity.near_interactions",
        "distrib.messages",
        "distrib.bytes",
        "distrib.parcels",
    ]);
    if !out.kept_op_s.is_empty() {
        let ops = out.kept_op_s.len() as f64;
        let phases: Vec<String> = PHASES.iter().map(|p| p.to_string()).collect();
        // The supervising thread's phase spans envelop whole remote exchanges
        // and would hide the wire legs. The analyzer means to leave that lane
        // out but keeps it, because the lane sends the action parcels (and
        // then finds no wire leg at all), so it is dropped here.
        let mut summary = out.store.summary();
        let names = std::mem::take(&mut summary.thread_names);
        summary
            .records
            .retain(|r| names.get(&(r.pid, r.tid)).map(String::as_str) != Some("driver"));
        let path = apex_lite::critical_path_distributed(&summary, &phases);
        let halo = out.store.busy_s("halo_exchange") / (ops * steps);
        let flush = out.store.busy_s("comm_flush") / ops;
        out.put("octotiger.dist_driver.halo_exchange_s", halo);
        out.put("octotiger.dist_driver.comm_flush_s", flush);
        out.put(
            "distrib.wire_share",
            path.network_ns as f64 / (path.path.path_ns as f64).max(1.0),
        );
    }
    out
}
