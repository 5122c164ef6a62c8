//! End-to-end observability tests: the tracer's zero-allocation guarantee
//! on the scheduler hot path, agreement between trace span counts and
//! `RunMetrics`, the unified counter namespace of a full run, and the
//! performance-observatory layer — critical-path analysis, per-worker
//! utilization, flamegraph export, and the counter series a traced run
//! samples at its step boundaries.
//!
//! Tracer state is process-global, so every test here serializes on one
//! lock (the harness runs tests in this binary on parallel threads).

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::apex_lite::{self, trace, validate, CounterValue};
use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::{DistConfig, DistRun, Driver, KernelType, OctoConfig};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let g = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    trace::set_enabled(false);
    trace::reset();
    g
}

fn tiny_config() -> OctoConfig {
    OctoConfig {
        max_level: 1,
        stop_step: 3,
        threads: 2,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

/// Phase spans a step emits once: its joins and serial sections.
const JOIN_PHASES: [&str; 2] = ["cfl_reduction", "gravity_moments"];
/// Phase spans a step emits once per owned leaf: the kernel families.
const LEAF_PHASES: [&str; 4] = ["cfl_leaf", "p2m_leaf", "gravity_solve", "hydro_step"];

fn tmp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("apexlite_{tag}_{}.json", std::process::id()))
}

#[test]
fn disabled_tracing_allocates_nothing_in_scheduler_hot_path() {
    let _g = lock();
    let before = trace::tracer_allocs();
    // A full run spawns hundreds of tasks through every instrumented hot
    // path (execute, steal, park, yield, kernel spans) with tracing off.
    let mut driver = Driver::new(tiny_config());
    let m = driver.run(2);
    assert!(m.runtime_stats.tasks_spawned > 0);
    assert_eq!(
        trace::tracer_allocs(),
        before,
        "disabled tracer allocated on the scheduler hot path"
    );
    assert!(trace::drain().is_empty(), "disabled tracer recorded events");
}

#[test]
fn trace_spans_agree_with_run_metrics() {
    let _g = lock();
    let path = tmp_trace("driver");
    let mut cfg = tiny_config();
    cfg.trace_out = Some(path.to_string_lossy().into_owned());
    let mut driver = Driver::new(cfg);
    let metrics = driver.run(2);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace must validate");
    let _ = std::fs::remove_file(&path);

    // The step's joins and serial sections: one span per step each. (The
    // kernels in between are per-*leaf* spans — counted below.)
    let steps = u64::from(metrics.steps);
    for phase in JOIN_PHASES {
        assert_eq!(summary.count_name(phase), steps, "phase {phase}");
    }
    // One ghost-plan build per topology generation stepped on — a static
    // tree builds once, in the first step — and the counter says the same.
    // The ghost zones are gathered inside the hydro tasks: no phase of
    // their own.
    assert_eq!(summary.count_name("ghost_plan_build"), 1);
    assert_eq!(summary.count_name("ghost_exchange"), 0);
    assert!(metrics.counters.get("/ghost/plan_rebuilds") == Some(CounterValue::Count(1)));
    for census in ["/ghost/faces_slab", "/ghost/faces_indexed"] {
        assert!(
            matches!(metrics.counters.get(census), Some(CounterValue::Count(n)) if n > 0),
            "{census} missing or zero"
        );
    }
    // The ISSUE's cross-check: gravity cache-rebuild spans equal the
    // interaction cache's measured miss count (1 for a static topology).
    assert_eq!(summary.count_name("cache_rebuild"), metrics.cache.misses);
    assert_eq!(metrics.cache.misses, 1);
    // Scheduler task spans cover the spawned kernels (inline degraded-mode
    // execution is also spanned, so ≥ is the safe direction).
    assert!(summary.count_cat("task") > 0, "no scheduler task spans");
    assert!(summary.count_cat("gravity") > 0, "no gravity kernel spans");
    // Counter dump rides along in the metrics.
    assert!(
        metrics.counters.get("/gravity/cache_misses")
            == Some(CounterValue::Count(metrics.cache.misses))
    );
}

#[test]
fn futurized_trace_shows_per_leaf_spans_overlapping_across_workers() {
    let _g = lock();
    let path = tmp_trace("futurized");
    let mut cfg = tiny_config();
    cfg.threads = 4;
    cfg.trace_out = Some(path.to_string_lossy().into_owned());
    let mut driver = Driver::new(cfg);
    let metrics = driver.run(4);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("futurized trace must validate");
    let _ = std::fs::remove_file(&path);

    // There are no phase barriers: gravity_solve and hydro_step are
    // per-*leaf* task spans, one per leaf per step, plus one span per step
    // for the serial joins (dt reduction, M2M + interaction lists).
    let steps = u64::from(metrics.steps);
    let leaf_spans = steps * metrics.leaf_count as u64;
    for name in LEAF_PHASES {
        assert_eq!(summary.count_name(name), leaf_spans, "per-leaf {name}");
    }
    for name in JOIN_PHASES {
        assert_eq!(summary.count_name(name), steps, "per-step {name}");
    }
    assert_eq!(summary.count_name("ghost_plan_build"), 1);

    // The tentpole's proof obligation: gravity kernels on one worker ran
    // while hydro kernels ran on another — positive wall-clock overlap
    // both in the trace and in the driver's envelope counter.
    assert!(
        summary.overlap_ns("gravity_solve", "hydro_step") > 0,
        "futurized run never interleaved gravity and hydro spans"
    );
    assert!(
        metrics.overlap_ratio > 0.0,
        "overlap_ratio not positive: {}",
        metrics.overlap_ratio
    );
    assert!(
        metrics.counters.get("/runtime/overlap_ratio")
            == Some(CounterValue::Gauge(metrics.overlap_ratio))
    );
}

#[test]
fn single_node_dist_trace_covers_all_three_layers_and_counters() {
    let _g = lock();
    let path = tmp_trace("dist");
    let mut octo = tiny_config();
    octo.trace_out = Some(path.to_string_lossy().into_owned());
    let cfg = DistConfig {
        nodes: 1,
        threads_per_node: 2,
        backend: NetBackend::Tcp,
        coalesce: Default::default(),
        octo,
    };
    let metrics = DistRun::execute(cfg);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace must validate");
    let _ = std::fs::remove_file(&path);

    // Scheduler tasks and driver phases appear even on one locality; the
    // comm layer has nothing to record there (no parcel crosses a wire),
    // and the two-locality test below checks it.
    assert!(summary.count_cat("task") > 0, "no scheduler spans");
    assert!(summary.count_cat("phase") > 0, "no driver phase spans");

    // Unified counter dump: ≥ 20 counters spanning all the namespaces.
    assert!(
        metrics.counters.len() >= 20,
        "only {} counters: {:?}",
        metrics.counters.len(),
        metrics.counters
    );
    for prefix in ["/runtime/", "/comms/", "/gravity/", "/work/", "/energy/"] {
        assert!(
            metrics.counters.iter().any(|(k, _)| k.starts_with(prefix)),
            "no counters under {prefix}: {:?}",
            metrics.counters
        );
    }
}

#[test]
fn two_node_trace_merges_locality_prefixed_pids() {
    let _g = lock();
    let path = tmp_trace("dist2");
    let mut octo = tiny_config();
    octo.stop_step = 2;
    octo.trace_out = Some(path.to_string_lossy().into_owned());
    let cfg = DistConfig {
        nodes: 2,
        threads_per_node: 2,
        backend: NetBackend::Tcp,
        coalesce: Default::default(),
        octo,
    };
    let metrics = DistRun::execute(cfg);
    assert_eq!(metrics.nodes, 2);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace must validate");
    let _ = std::fs::remove_file(&path);

    // Both localities' workers must appear as distinct Chrome process
    // lanes, merged into one stream.
    assert!(
        summary.pids >= 2,
        "expected ≥2 locality pids, got {}",
        summary.pids
    );
    assert!(text.contains("locality0") && text.contains("locality1"));
    // The step's phases run in the locality lanes: every join once per
    // locality per step — the halo exchange with them — and every kernel
    // family once per leaf per step, on the leaf's owner. The supervising
    // thread keeps the `driver` lane, in which it sends the `step` actions.
    let steps = u64::from(metrics.steps);
    for name in JOIN_PHASES.into_iter().chain(["halo_exchange"]) {
        assert_eq!(summary.count_name(name), 2 * steps, "per-locality {name}");
    }
    for name in LEAF_PHASES {
        let owned_spans = steps * metrics.leaf_count as u64;
        assert_eq!(summary.count_name(name), owned_spans, "per-leaf {name}");
    }
    let lane_of = |name: &str| -> Vec<&str> {
        let in_lane = |r: &&apex_lite::SpanRecord| r.name == name;
        let lane = |r: &apex_lite::SpanRecord| summary.thread_names[&(r.pid, r.tid)].as_str();
        summary.records.iter().filter(in_lane).map(lane).collect()
    };
    assert!(lane_of("halo_exchange").iter().all(|l| *l != "driver"));
    // A frame is sent inline, in the caller's span: the supervisor's `step`
    // request to locality 1 is a `parcel_send` of the `driver` lane.
    let driver_sends = lane_of("parcel_send")
        .iter()
        .filter(|l| **l == "driver")
        .count();
    assert_eq!(driver_sends as u64, steps, "one remote `step` per step");
    // Real wire traffic shows up as parcel_send spans with matching flow
    // events on the receiving locality.
    assert!(summary.count_name("parcel_send") > 0);
    assert!(summary.count_name("parcel_recv") > 0);
    assert!(
        !summary.flow_edges.is_empty(),
        "wire traffic produced no matched flow pairs"
    );
    // No frame waits in a queue: the referee's high-water mark reads 0.
    assert_eq!(metrics.port.queue_depth_hwm, 0);
}

#[test]
fn critical_path_bounds_hold_on_futurized_trace() {
    let _g = lock();
    let path = tmp_trace("critpath");
    let mut cfg = tiny_config();
    cfg.threads = 4;
    cfg.trace_out = Some(path.to_string_lossy().into_owned());
    let mut driver = Driver::new(cfg);
    let metrics = driver.run(4);
    assert!(metrics.steps > 0);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace must validate");
    let _ = std::fs::remove_file(&path);

    let phases = apex_lite::default_phases(&summary);
    assert!(
        phases.iter().any(|p| p == "hydro_step"),
        "phase autodetection missed hydro_step: {phases:?}"
    );
    let cp = apex_lite::critical_path(&summary, &phases);

    // The property pair: the critical path can never exceed the trace's
    // wall window, and can never undershoot the busiest single phase
    // (that phase's own merged segments are one feasible chain).
    assert!(cp.path_ns > 0, "empty critical path on a traced run");
    assert!(
        cp.path_ns <= cp.wall_ns,
        "critical path {} ns exceeds wall {} ns",
        cp.path_ns,
        cp.wall_ns
    );
    let max_phase_active = cp.by_phase.iter().map(|p| p.active_ns).max().unwrap_or(0);
    assert!(
        cp.path_ns >= max_phase_active,
        "critical path {} ns below busiest phase {} ns",
        cp.path_ns,
        max_phase_active
    );
    assert!(!cp.segments.is_empty());

    // Utilization rows: one per traced lane, with positive busy time on
    // the workers that executed kernels.
    let util = apex_lite::worker_utilization(&summary);
    assert!(!util.is_empty(), "no worker utilization rows");
    assert!(
        util.iter().any(|w| w.busy_ns > 0),
        "no worker recorded busy time"
    );
    let imb = apex_lite::imbalance_ratio(&util);
    assert!(imb >= 1.0, "imbalance ratio {imb} below 1.0 with busy data");

    // Flamegraph: collapsed stacks must be non-empty and carry the
    // per-leaf kernel frames.
    let stacks = apex_lite::collapsed_stacks(&summary);
    assert!(!stacks.is_empty(), "empty flamegraph");
    let rendered = apex_lite::render_collapsed(&stacks);
    assert!(rendered.contains("hydro_step"), "flamegraph lost kernels");
}

#[test]
fn per_phase_path_totals_agree_with_run_metrics() {
    let _g = lock();
    let path = tmp_trace("phase_agree");
    let mut cfg = tiny_config();
    cfg.trace_out = Some(path.to_string_lossy().into_owned());
    let mut driver = Driver::new(cfg);
    let metrics = driver.run(2);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace must validate");
    let _ = std::fs::remove_file(&path);

    // One span per step for a join, one per leaf per step for a kernel
    // family: the analyzer's per-phase span counts are fully determined by
    // RunMetrics.
    let cp = apex_lite::critical_path(&summary, &apex_lite::default_phases(&summary));
    let steps = u64::from(metrics.steps);
    let per_step = JOIN_PHASES.map(|p| (p, steps));
    let per_leaf = LEAF_PHASES.map(|p| (p, steps * metrics.leaf_count as u64));
    for (phase, spans) in per_step.into_iter().chain(per_leaf) {
        let row = cp
            .by_phase
            .iter()
            .find(|p| p.name == phase)
            .unwrap_or_else(|| panic!("phase {phase} missing from critical-path table"));
        assert_eq!(row.spans, spans, "span count for {phase}");
        assert!(row.active_ns > 0, "no active time for {phase}");
    }
    // The path is a chain of phase segments: it is the sum of the
    // per-phase contributions.
    let contributed: u64 = cp.by_phase.iter().map(|p| p.path_ns).sum();
    assert_eq!(cp.path_ns, contributed);
}

#[test]
fn traced_run_samples_every_counter_at_step_boundaries() {
    let _g = lock();
    let trace_path = tmp_trace("series");
    let mut cfg = tiny_config();
    cfg.stop_step = 5;
    // The one observability option: no cadence, no second output, no table.
    cfg.trace_out = Some(trace_path.to_string_lossy().into_owned());
    let mut driver = Driver::new(cfg);
    let metrics = driver.run_on(&Runtime::new(2));

    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let summary = validate(&text).expect("trace with counters must validate");
    let _ = std::fs::remove_file(&trace_path);
    assert!(summary.counter_events > 0, "no counter events in trace");

    // One sample at the start, one per step, one at the end — of the
    // registry's providers and of the counters the driver keeps itself.
    let samples = metrics.steps as usize + 2;
    for name in [
        "/gravity/cache_hits",
        "/work/gravity_flops",
        "/runtime/imbalance",
    ] {
        let series = summary
            .counter_series
            .get(name)
            .unwrap_or_else(|| panic!("{name} series missing from trace"));
        assert_eq!(series.len(), samples, "{name}: {series:?}");
        assert!(
            series.windows(2).all(|w| w[0].0 <= w[1].0),
            "{name}: sample timestamps not monotone"
        );
    }
    // Every counter of the final snapshot is in the trace, and its last
    // point is the final snapshot's value.
    for (name, value) in metrics.counters.iter() {
        let series = summary.counter_series.get(name);
        let last = series.and_then(|pts| pts.last()).map(|&(_, v)| v);
        assert_eq!(last, Some(value.as_f64()), "{name}");
    }
    let hits = &summary.counter_series["/gravity/cache_hits"];
    assert_eq!(hits[0].1, 0.0, "nothing is cached before the first step");
    assert!(hits.windows(2).all(|w| w[0].1 <= w[1].1), "a count fell");
    assert_eq!(hits[samples - 1].1, metrics.cache.hits as f64);
    // A reader can tell readings from counts.
    assert!(summary.gauge_series.contains("/runtime/imbalance"));
    assert!(!summary.gauge_series.contains("/gravity/cache_hits"));
}

#[test]
fn two_node_run_routes_critical_path_through_network_legs() {
    let _g = lock();
    let path = tmp_trace("dist_flows");
    let mut octo = tiny_config();
    octo.stop_step = 2;
    octo.trace_out = Some(path.to_string_lossy().into_owned());
    let metrics = DistRun::execute(DistConfig::from_octo(2, octo));

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace with flow events must validate");
    let _ = std::fs::remove_file(&path);

    // Every received parcel pairs its sender's "s" with its receiver's
    // "f" — the Perfetto arrows exist and cross locality pids.
    assert!(!summary.flow_edges.is_empty(), "no matched flow pairs");
    assert!(
        summary.flow_edges.iter().any(|e| e.src_pid != e.dst_pid),
        "no flow crosses a locality boundary"
    );

    // The distributed critical path. Every parcel is a candidate wire leg,
    // but whether the longest chain *takes* one is the run's timing: when
    // one locality is the later one at every join it never waits for the
    // wire, and the path is that locality's own lane (about one run in ten
    // at this size). What holds in every run: the legs are in the pool, a
    // path that stays home is exactly the longest single-locality path, and
    // a path that crosses is at least that. That a *waiting* task puts the
    // wire on the path is pinned on a fixed trace in `apex_lite::critpath`
    // (`a_task_waiting_for_the_wire_puts_the_wire_on_the_path`).
    let phases = apex_lite::default_phases(&summary);
    let d = apex_lite::critical_path_distributed(&summary, &phases);
    let wire = d
        .path
        .by_phase
        .iter()
        .find(|p| p.name == "network")
        .expect("network legs among the path's candidates");
    assert_eq!(wire.spans, metrics.port.parcels, "one leg per parcel");
    assert_eq!(wire.path_ns, d.network_ns);
    assert!(
        d.path.path_ns <= d.path.wall_ns,
        "distributed path {} ns exceeds wall {} ns",
        d.path.path_ns,
        d.path.wall_ns
    );
    let longest_local = d.per_locality_path_ns.values().copied().max().unwrap_or(0);
    assert!(longest_local > 0, "no locality has a path of its own");
    if d.network_edges_on_path == 0 {
        assert_eq!((d.path.path_ns, d.network_ns), (longest_local, 0));
    } else {
        assert!(d.path.path_ns >= longest_local);
    }

    // Latency histogram: exactly one observation per delivered parcel,
    // with ordered percentiles.
    let h = metrics
        .counters
        .histogram("/comms/parcel_latency")
        .expect("parcel latency histogram in final counters");
    assert_eq!(
        h.count(),
        metrics.port.parcels,
        "one observation per parcel"
    );
    let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
    assert!(p50 <= p95 && p95 <= p99, "{p50} / {p95} / {p99}");

    // The step-boundary samples carry the same invariant into the trace,
    // where trace_report's --check gate reads them.
    let series_count = summary
        .counter_series
        .get("/comms/parcel_latency")
        .and_then(|pts| pts.last())
        .map(|&(_, v)| v)
        .expect("/comms/parcel_latency series in trace");
    let series_parcels = summary
        .counter_series
        .get("/comms/parcels")
        .and_then(|pts| pts.last())
        .map(|&(_, v)| v)
        .expect("/comms/parcels series in trace");
    assert_eq!(series_count, series_parcels);
}

#[test]
fn dist_run_exports_global_imbalance_and_counter_series() {
    let _g = lock();
    let path = tmp_trace("dist_sampler");
    let mut octo = tiny_config();
    octo.stop_step = 2;
    octo.trace_out = Some(path.to_string_lossy().into_owned());
    let cfg = DistConfig {
        nodes: 2,
        threads_per_node: 2,
        backend: NetBackend::Tcp,
        coalesce: Default::default(),
        octo,
    };
    let metrics = DistRun::execute(cfg);

    // The cluster-wide roll-up next to the per-locality gauges.
    assert!(
        matches!(
            metrics.counters.get("/runtime/imbalance"),
            Some(CounterValue::Gauge(v)) if v >= 0.0
        ),
        "global /runtime/imbalance gauge missing: {:?}",
        metrics.counters.get("/runtime/imbalance")
    );
    for loc in 0..2 {
        let key = format!("/runtime/locality{loc}/imbalance");
        assert!(
            matches!(metrics.counters.get(&key), Some(CounterValue::Gauge(_))),
            "{key} missing"
        );
    }

    // Locality-prefixed series land in the merged trace.
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let summary = validate(&text).expect("trace must validate");
    let _ = std::fs::remove_file(&path);
    assert!(summary.counter_events > 0);
    assert!(
        summary
            .counter_series
            .keys()
            .any(|k| k.starts_with("/runtime/locality")),
        "no locality-prefixed counter series: {:?}",
        summary.counter_series.keys().collect::<Vec<_>>()
    );
    // The registry's providers are sampled at every step boundary; what
    // the localities report at the end is in the final sample.
    let samples = metrics.steps as usize + 2;
    assert_eq!(summary.counter_series["/runtime/imbalance"].len(), samples);
    assert_eq!(summary.counter_series["/comms/parcels"].len(), samples);
    assert_eq!(
        summary.counter_series["/gravity/locality0/cache_hits"].len(),
        1
    );
}
