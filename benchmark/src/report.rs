//! Turns a workload's outcome into the printed report: one
//! `workload metric value unit [n=samples]` line per metric, a `detail:` line
//! holding the full record (what the set mode files under
//! `benchmark/results/`), and, last, the result object of the referee's
//! contract.

use std::collections::BTreeMap;

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::stats::{median, tail_percentile};
use crate::workloads::{Outcome, RunArgs};

/// Phase spans the node-level driver emits, for the critical-path analysis.
const DRIVER_PHASES: [&str; 8] = [
    "ghost_exchange",
    "cfl_reduction",
    "cfl_leaf",
    "p2m_leaf",
    "gravity_moments",
    "gravity_solve",
    "hydro_step",
    "regrid",
];

/// What must match before two result sets may be compared.
pub fn header(args: &RunArgs) -> Json {
    let env = |key: &str| Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "host_simd_isa",
            Json::Str(octotiger::kernel_backend::host_simd_isa().into()),
        ),
        (
            "compiled_simd_isa",
            Json::Str(octotiger::kernel_backend::compiled_simd_isa().into()),
        ),
        ("rustflags", env("BENCHMARK_RUSTFLAGS")),
        ("commit", env("BENCHMARK_COMMIT")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// The four end-to-end values, in catalogue order.
fn end_to_end(out: &Outcome) -> [f64; 4] {
    let wall: f64 = out.op_s.iter().sum();
    [
        if wall > 0.0 { out.work / wall } else { 0.0 },
        median(&out.op_s),
        median(&out.setup_s),
        rv_machine::memory::peak_rss_bytes() as f64 / 1e6,
    ]
}

/// What only the traced pass can add to the layer metrics: the probes, the
/// tracing overhead, and what needs the spans as a whole.
fn finish_trace(args: &RunArgs, out: &mut Outcome, probes: &[(&'static str, f64)]) {
    for &(name, value) in probes {
        out.layer.entry(name).or_insert(value);
    }
    if !out.op_s.is_empty() && !out.traced_op_s.is_empty() {
        out.put(
            "apex-lite.trace_overhead_frac",
            median(&out.traced_op_s) / median(&out.op_s) - 1.0,
        );
    }
    let (recorded, dropped) = (out.store.recorded as f64, out.store.dropped as f64);
    out.layer
        .entry("apex-lite.events_recorded")
        .or_insert(recorded);
    out.layer
        .entry("apex-lite.events_dropped")
        .or_insert(dropped);
    if let (Some(&gflops), Some(&peak)) = (
        out.layer.get("octotiger.gravity.gflops"),
        out.layer.get("machine.host_fma_gflops"),
    ) {
        out.put("octotiger.gravity.peak_frac", gflops / peak);
    }

    if out.store.is_empty() {
        return;
    }
    for (name, secs) in out.store.self_table().into_iter().take(12) {
        println!("{} self_time.{name} {secs:.6} s", args.workload);
    }
    if let Some(path) = &args.trace_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, apex_lite::export(&out.store.to_trace())));
        out.check(written.is_ok(), || {
            format!("writing {}: {written:?}", path.display())
        });
    }
    let wall: f64 = out.kept_op_s.iter().sum::<f64>().max(1e-12);
    if out.layer.contains_key("octotiger.hydro.step_s") {
        let phases: Vec<String> = DRIVER_PHASES.iter().map(|p| p.to_string()).collect();
        let path = apex_lite::critical_path(&out.store.summary(), &phases);
        out.put(
            "octotiger.driver.critical_path_frac",
            path.path_ns as f64 * 1e-9 / wall,
        );
    }
}

fn metric_obj(values: impl IntoIterator<Item = (&'static str, f64, &'static str)>) -> Json {
    Json::obj(values.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }))
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

pub fn print(args: &RunArgs, mut out: Outcome, probes: &[(&'static str, f64)]) {
    let w = &args.workload;
    if args.trace {
        finish_trace(args, &mut out, probes);
    }
    let e2e = end_to_end(&out);
    let correct = out.failed == 0 && out.notes.is_empty() && out.attempted > 0;

    println!(
        "{w} work_per_s {:.6e} {}/s n={}",
        e2e[0],
        out.work_unit,
        out.op_s.len()
    );
    println!("{w} op_s_p50 {:.6} s n={}", e2e[1], out.op_s.len());
    if let Some((p, v)) = tail_percentile(&out.op_s) {
        println!("{w} op_s_tail {v:.6} s p{p} n={}", out.op_s.len());
    }
    println!("{w} setup_s {:.6} s n={}", e2e[2], out.setup_s.len());
    println!("{w} peak_rss_mb {:.3} MB", e2e[3]);
    println!(
        "{w} fail_frac {} ratio failed={} attempted={}",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in &PER_LAYER {
        if let Some(v) = out.layer.get(m.name) {
            println!("{w} {} {v:.6} {}", m.name, m.unit);
        }
    }
    if let Some(h) = out.state_hash {
        println!("{w} state_hash {h:#018x} fnv1a");
    }
    for note in &out.notes {
        println!("{w} FAILED {note}");
    }

    // Exactly the metrics the contract asks of this pass; a layer metric this
    // workload does not exercise reads 0.
    let metrics = if args.trace {
        metric_obj(PER_LAYER.iter().map(|m| {
            (
                m.name,
                out.layer.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            )
        }))
    } else {
        metric_obj(END_TO_END.iter().zip(e2e).map(|(m, v)| (m.name, v, m.unit)))
    };
    let floats =
        |map: &BTreeMap<&'static str, f64>| Json::obj(map.iter().map(|(k, v)| (*k, Json::Num(*v))));
    let detail = Json::obj([
        ("workload", Json::Str(w.clone())),
        ("trace", Json::Bool(args.trace)),
        ("header", header(args)),
        ("work_unit", Json::Str(out.work_unit.into())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics.clone()),
        ("layer", floats(&out.layer)),
        ("exact", floats(&out.exact)),
        (
            "state_hash",
            out.state_hash
                .map_or(Json::Null, |h| Json::Str(format!("{h:#018x}"))),
        ),
        ("op_s", nums(&out.op_s)),
        ("setup_s", nums(&out.setup_s)),
        (
            "notes",
            Json::Arr(out.notes.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("detail: {}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}
