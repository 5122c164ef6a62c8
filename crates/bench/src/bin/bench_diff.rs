//! bench_diff — the bench-regression gate.
//!
//! Re-runs the deterministic parts of the committed baseline benches and
//! diffs them against `BENCH_gravity.json` / `BENCH_hydro.json` /
//! `BENCH_scale.json` / `BENCH_amt.json` at the repo root, with per-metric
//! tolerances:
//!
//! * **count metrics** (cache hits/misses, MAC evaluations, tasks spawned,
//!   fused launches, leaf/cell counts, rebuild counters) must match the
//!   baseline **exactly** — they are functions of the configuration, not of
//!   the machine, so any drift is a behaviour change that slipped past the
//!   unit tests;
//! * **timing metrics** (driver/step/level wall seconds) must stay within
//!   `--tolerance` (default 1.75×) of the baseline — but only when the
//!   baseline's `host_simd_isa`/`compiled_simd_isa` headers match this
//!   build and this is an optimized build. Otherwise the timings are
//!   **skipped with a notice**: a baseline recorded with AVX-512 native
//!   codegen says nothing about an SSE2 CI build, and flagging it would
//!   just train people to ignore the gate;
//! * **lower-bound metrics** (gravity/hydro overlap ratio) must not fall
//!   more than a fixed slack below the baseline — the futurized task graph
//!   overlapping phases is structural, not ISA-dependent;
//! * **the M2L vector gate**: in the committed gravity baseline and in a
//!   fresh sweep of this build, the `simd4` M2L kernel must be at least
//!   [`M2L_SIMD4_MIN_SPEEDUP`]× faster per interaction than `simd1` whenever
//!   the build has AVX2 or wider — a ratio within one run, so machine speed
//!   cancels. (Before `Simd<4>` got a real `ymm` backend, `simd4` M2L was
//!   *slower* than `simd1`; that must not come back silently.)
//! * **the scheduler's spread gate**: the repetitions of `BENCH_amt.json`'s
//!   external-producer empty-task case may not spread beyond
//!   `per_task::MAX_SPREAD` (max ÷ min) — a producer that pays a wake-up per
//!   push shows as a bimodal run time long before it shows in a median.
//!
//! `BENCH_trace_overhead.json` is checked for internal consistency only
//! (overhead within budget, zero disabled-path allocations): its numbers
//! are produced and gated by `bench_trace` itself.
//!
//! `--self-test` exercises the comparison logic without running anything:
//! a synthetic baseline diffed against itself must pass, and against a
//! copy with every timing doubled must fail. `BENCH_SMOKE=1` limits the
//! scale re-run to level 2 (deeper levels take minutes).

use std::process::ExitCode;
use std::time::Instant;

use amt::Runtime;
use apex_lite::json::{self, Value};
use octotiger::kernel_backend::{self, KernelType, SimdPolicy};
use octotiger::{Driver, OctoConfig};
use repro_bench::gravity_kernel_sweeps;
use repro_bench::per_task::{self, Case, Style};

/// Default allowed slowdown for timing metrics. Baselines are min-of-many
/// on an idle machine; a fresh single run on a loaded CI box needs slack,
/// while a genuine 2× regression must still trip the gate.
const DEFAULT_TOLERANCE: f64 = 1.75;

/// Allowed drop in overlap ratio below the baseline.
const OVERLAP_SLACK: f64 = 0.25;

/// Least `simd1 ÷ simd4` M2L time per interaction on an AVX2-or-wider
/// build (measured 3.1× at level 2).
const M2L_SIMD4_MIN_SPEEDUP: f64 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// Deterministic count: must match exactly.
    Count,
    /// Wall-clock: fresh/baseline must stay ≤ tolerance; ISA-gated.
    Timing,
    /// Quality ratio: fresh must stay ≥ baseline − slack.
    LowerBound(f64),
}

struct Cmp {
    name: String,
    baseline: f64,
    fresh: f64,
    class: Class,
}

struct Report {
    failures: Vec<String>,
    notices: Vec<String>,
    compared: usize,
    skipped: usize,
}

impl Report {
    fn new() -> Self {
        Report {
            failures: Vec::new(),
            notices: Vec::new(),
            compared: 0,
            skipped: 0,
        }
    }
}

/// Why timing metrics cannot be compared on this build, if they can't.
fn timing_skip_reason(doc: &Value) -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("unoptimized build (run with --release to compare timings)".into());
    }
    let host = kernel_backend::host_simd_isa();
    let compiled = kernel_backend::compiled_simd_isa();
    let bh = doc.get("host_simd_isa").and_then(Value::as_str);
    let bc = doc.get("compiled_simd_isa").and_then(Value::as_str);
    match (bh, bc) {
        (Some(h), Some(c)) if h == host && c == compiled => None,
        (Some(h), Some(c)) => Some(format!(
            "ISA mismatch: baseline {h}/{c}, this build {host}/{compiled}"
        )),
        _ => Some("baseline lacks host_simd_isa/compiled_simd_isa headers".into()),
    }
}

/// Diff one metric into the report.
fn judge(cmp: &Cmp, tolerance: f64, timing_skip: &Option<String>, report: &mut Report) {
    match cmp.class {
        Class::Count => {
            report.compared += 1;
            if (cmp.fresh - cmp.baseline).abs() > 1e-9 {
                report.failures.push(format!(
                    "{}: count drifted — baseline {}, fresh {}",
                    cmp.name, cmp.baseline, cmp.fresh
                ));
            }
        }
        Class::Timing => {
            if timing_skip.is_some() {
                report.skipped += 1;
                return;
            }
            report.compared += 1;
            let ratio = cmp.fresh / cmp.baseline.max(1e-12);
            if ratio > tolerance {
                report.failures.push(format!(
                    "{}: {:.2}x slower than baseline ({:.6} vs {:.6}, tolerance {:.2}x)",
                    cmp.name, ratio, cmp.fresh, cmp.baseline, tolerance
                ));
            }
        }
        Class::LowerBound(slack) => {
            report.compared += 1;
            if cmp.fresh < cmp.baseline - slack {
                report.failures.push(format!(
                    "{}: fell to {:.4}, baseline {:.4} (slack {:.2})",
                    cmp.name, cmp.fresh, cmp.baseline, slack
                ));
            }
        }
    }
}

fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("baseline missing numeric field {key:?}"))
}

fn load(dir: &str, file: &str) -> Result<Value, String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------------------
// Fresh measurements — mirrors of the baseline benches' configurations.
// The configs here are the contract: they must stay in lockstep with
// benches/bench_gravity.rs, bench_hydro.rs and bench_scale.rs, or the
// count diffs go off against the wrong run.
// ---------------------------------------------------------------------------

struct DriverPoint {
    seconds: f64,
    hits: f64,
    misses: f64,
    mac_evals: f64,
    tasks_spawned: f64,
    fused_launches: f64,
    overlap_ratio: f64,
}

/// One gravity-bench driver run (bench_gravity::bench_config).
fn gravity_point(level: u32, steps: u32) -> DriverPoint {
    driver_point(OctoConfig {
        max_level: level,
        stop_step: steps,
        threads: 2,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    })
}

/// One hydro-bench step run (bench_hydro::bench_config, 3 workers).
fn hydro_point(level: u32, steps: u32) -> DriverPoint {
    driver_point(OctoConfig {
        max_level: level,
        stop_step: steps,
        threads: 3,
        simd_width: 4,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    })
}

fn driver_point(cfg: OctoConfig) -> DriverPoint {
    let threads = cfg.threads;
    let mut driver = Driver::new(cfg);
    let m = driver.run(threads);
    DriverPoint {
        seconds: m.elapsed_seconds,
        hits: m.cache.hits as f64,
        misses: m.cache.misses as f64,
        mac_evals: m.work.mac_evals as f64,
        tasks_spawned: m.runtime_stats.tasks_spawned as f64,
        fused_launches: driver.aggregation_stats().fused_launches as f64,
        overlap_ratio: m.overlap_ratio,
    }
}

struct ScalePoint {
    seconds: f64,
    leaves: f64,
    cells: f64,
    partial_rebuilds: f64,
    leaves_rebuilt: f64,
    leaves_retained: f64,
}

/// One scale-bench level run (bench_scale::time_scale): `steps` driver
/// steps with the deterministic mid-run regrid sweep after the first.
fn scale_point(level: u32, steps: u32, threads: usize) -> ScalePoint {
    let mut d = Driver::new(OctoConfig {
        max_level: level,
        stop_step: steps,
        threads,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    });
    let rt = Runtime::new(threads);
    let victims = if level >= 5 { 4 } else { 2 };
    let mut cold = octotiger::gravity::CacheStats::default();
    let start = Instant::now();
    for s in 0..steps {
        d.step(&rt);
        if s == 0 {
            cold = d.cache_stats();
            let tree = d.tree();
            let deepest: Vec<usize> = tree
                .leaf_ids()
                .iter()
                .filter(|&&l| tree.node(l).level == tree.max_level())
                .copied()
                .collect();
            let stride = (deepest.len() / (victims + 1).max(1)).max(1);
            let picks: Vec<usize> = deepest
                .iter()
                .skip(stride / 2)
                .step_by(stride)
                .take(victims)
                .copied()
                .collect();
            d.regrid(&rt, &picks);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let cs = d.cache_stats();
    ScalePoint {
        seconds,
        leaves: d.tree().leaf_count() as f64,
        cells: d.tree().cell_count() as f64,
        partial_rebuilds: (cs.partial_rebuilds - cold.partial_rebuilds) as f64,
        leaves_rebuilt: (cs.leaves_rebuilt - cold.leaves_rebuilt) as f64,
        leaves_retained: (cs.leaves_retained - cold.leaves_retained) as f64,
    }
}

// ---------------------------------------------------------------------------
// Per-baseline diffs
// ---------------------------------------------------------------------------

/// The M2L vector gate on one pair of per-interaction times.
fn judge_m2l_speedup(tag: &str, isa: &str, simd1_ns: f64, simd4_ns: f64, report: &mut Report) {
    if !["avx2", "avx512f"].contains(&isa) {
        report.skipped += 1;
        report.notices.push(format!(
            "{tag}: M2L vector gate skipped — built for {isa}, no 4-lane backend"
        ));
        return;
    }
    report.compared += 1;
    let speedup = simd1_ns / simd4_ns;
    if speedup < M2L_SIMD4_MIN_SPEEDUP {
        report.failures.push(format!(
            "{tag}: simd4 M2L only {speedup:.2}x faster than simd1 ({simd4_ns:.3} vs \
             {simd1_ns:.3} ns/interaction, need {M2L_SIMD4_MIN_SPEEDUP:.1}x on {isa}) — \
             the kernel is not running on vector registers"
        ));
    }
}

/// `m2l_ns_per_interaction` of `policy` in the baseline's kernel sweeps.
fn baseline_m2l_ns(doc: &Value, policy: &str) -> Result<f64, String> {
    doc.get("kernel_sweeps")
        .and_then(Value::as_arr)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("policy").and_then(Value::as_str) == Some(policy))
        })
        .ok_or_else(|| format!("baseline kernel_sweeps lacks policy {policy:?}"))
        .and_then(|row| get_f64(row, "m2l_ns_per_interaction"))
}

fn diff_gravity(doc: &Value, tolerance: f64, report: &mut Report) -> Result<(), String> {
    let timing_skip = timing_skip_reason(doc);
    if let Some(why) = &timing_skip {
        report
            .notices
            .push(format!("gravity: timing metrics skipped — {why}"));
    }
    let level = get_f64(doc, "tree_level")? as u32;
    judge_m2l_speedup(
        "gravity/baseline",
        doc.get("compiled_simd_isa")
            .and_then(Value::as_str)
            .unwrap_or("unknown"),
        baseline_m2l_ns(doc, "simd1")?,
        baseline_m2l_ns(doc, "simd4")?,
        report,
    );
    if cfg!(debug_assertions) {
        report.skipped += 1;
        report
            .notices
            .push("gravity/fresh: M2L vector gate skipped — unoptimized build".into());
    } else {
        let driver = Driver::new(OctoConfig {
            max_level: level,
            ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
        });
        let fresh =
            gravity_kernel_sweeps(&driver, &[SimdPolicy::Width(1), SimdPolicy::Width(4)], 3);
        judge_m2l_speedup(
            "gravity/fresh",
            kernel_backend::compiled_simd_isa(),
            fresh[0].m2l_ns_per_interaction,
            fresh[1].m2l_ns_per_interaction,
            report,
        );
    }
    let steps = get_f64(doc, "steps")? as u32;
    let runs = doc
        .get("driver_runs")
        .and_then(Value::as_arr)
        .ok_or("baseline missing driver_runs")?;
    for row in runs {
        let tag = "gravity/driver";
        let fresh = gravity_point(level, steps);
        let metrics = [
            ("hits", fresh.hits, Class::Count),
            ("misses", fresh.misses, Class::Count),
            ("mac_evals", fresh.mac_evals, Class::Count),
            ("tasks_spawned", fresh.tasks_spawned, Class::Count),
            ("fused_launches", fresh.fused_launches, Class::Count),
            ("seconds", fresh.seconds, Class::Timing),
        ];
        for (key, value, class) in metrics {
            let cmp = Cmp {
                name: format!("{tag}/{key}"),
                baseline: get_f64(row, key)?,
                fresh: value,
                class,
            };
            judge(&cmp, tolerance, &timing_skip, report);
        }
    }
    Ok(())
}

fn diff_hydro(doc: &Value, tolerance: f64, report: &mut Report) -> Result<(), String> {
    let timing_skip = timing_skip_reason(doc);
    if let Some(why) = &timing_skip {
        report
            .notices
            .push(format!("hydro: timing metrics skipped — {why}"));
    }
    report
        .notices
        .push("hydro: kernel sweep timings are gated by the full bench_hydro run, not here".into());
    let level = get_f64(doc, "tree_level")? as u32;
    let steps = get_f64(doc, "steps")? as u32;
    let modes = doc
        .get("step_modes")
        .and_then(Value::as_arr)
        .ok_or("baseline missing step_modes")?;
    for row in modes {
        let tag = "hydro/step";
        let fresh = hydro_point(level, steps);
        let metrics = [
            ("tasks_spawned", fresh.tasks_spawned, Class::Count),
            ("fused_launches", fresh.fused_launches, Class::Count),
            (
                "overlap_ratio",
                fresh.overlap_ratio,
                Class::LowerBound(OVERLAP_SLACK),
            ),
            ("seconds", fresh.seconds, Class::Timing),
        ];
        for (key, value, class) in metrics {
            let cmp = Cmp {
                name: format!("{tag}/{key}"),
                baseline: get_f64(row, key)?,
                fresh: value,
                class,
            };
            judge(&cmp, tolerance, &timing_skip, report);
        }
    }
    Ok(())
}

fn diff_scale(doc: &Value, tolerance: f64, smoke: bool, report: &mut Report) -> Result<(), String> {
    let timing_skip = timing_skip_reason(doc);
    if let Some(why) = &timing_skip {
        report
            .notices
            .push(format!("scale: timing metrics skipped — {why}"));
    }
    let threads = get_f64(doc, "threads")? as usize;
    let levels = doc
        .get("levels")
        .and_then(Value::as_arr)
        .ok_or("baseline missing levels")?;
    for row in levels {
        let level = get_f64(row, "level")? as u32;
        let steps = get_f64(row, "steps")? as u32;
        if smoke && level > 2 {
            report.notices.push(format!(
                "scale: level {level} skipped (BENCH_SMOKE=1 — deep levels take minutes)"
            ));
            report.skipped += 1;
            continue;
        }
        let tag = format!("scale/level{level}");
        let fresh = scale_point(level, steps, threads.max(1));
        let metrics = [
            ("leaves", fresh.leaves, Class::Count),
            ("cells", fresh.cells, Class::Count),
            ("partial_rebuilds", fresh.partial_rebuilds, Class::Count),
            ("leaves_rebuilt", fresh.leaves_rebuilt, Class::Count),
            ("leaves_retained", fresh.leaves_retained, Class::Count),
            ("seconds", fresh.seconds, Class::Timing),
        ];
        for (key, value, class) in metrics {
            let cmp = Cmp {
                name: format!("{tag}/{key}"),
                baseline: get_f64(row, key)?,
                fresh: value,
                class,
            };
            judge(&cmp, tolerance, &timing_skip, report);
        }
    }
    Ok(())
}

/// `BENCH_amt.json`: every `per_task` row re-measured with the shared
/// harness. Spawn counts are exact, the median time per task is a timing,
/// and the gated rows must keep their repetitions together.
fn diff_amt(doc: &Value, tolerance: f64, report: &mut Report) -> Result<(), String> {
    let timing_skip = timing_skip_reason(doc);
    if let Some(why) = &timing_skip {
        report
            .notices
            .push(format!("amt: timing metrics skipped — {why}"));
    }
    let tasks = get_f64(doc, "tasks")? as usize;
    let reps = get_f64(doc, "reps")? as usize;
    let rows = doc
        .get("per_task")
        .and_then(Value::as_arr)
        .ok_or("baseline missing per_task")?;
    for row in rows {
        let label = |key: &str| {
            row.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("per_task row missing {key:?}"))
        };
        let case = Case {
            style: Style::from_label(label("style")?)
                .ok_or_else(|| format!("unknown per_task style {:?}", label("style")))?,
            on_worker: label("producer")? == "on_worker",
            workers: get_f64(row, "workers")? as usize,
        };
        let tag = format!("amt/per_task/{}", case.label());
        let fresh = per_task::measure_gated(case, tasks, reps);
        let metrics = [
            ("tasks_spawned", fresh.tasks_spawned as f64, Class::Count),
            ("ns_per_task", fresh.ns_per_task, Class::Timing),
        ];
        for (key, value, class) in metrics {
            let cmp = Cmp {
                name: format!("{tag}/{key}"),
                baseline: get_f64(row, key)?,
                fresh: value,
                class,
            };
            judge(&cmp, tolerance, &timing_skip, report);
        }
        if case.is_gated() {
            report.compared += 1;
            if fresh.max_over_min > per_task::MAX_SPREAD {
                report.failures.push(format!(
                    "{tag}: repetitions spread {:.2}x (gate {:.1}x) — the producer is paying \
                     for wake-ups again",
                    fresh.max_over_min,
                    per_task::MAX_SPREAD
                ));
            }
        }
    }
    Ok(())
}

/// Internal-consistency check on the committed trace-overhead datapoint.
fn diff_trace_overhead(doc: &Value, report: &mut Report) -> Result<(), String> {
    let overhead = get_f64(doc, "overhead_pct")?;
    let budget = get_f64(doc, "budget_pct")?;
    let allocs = get_f64(doc, "disabled_tracer_allocs")?;
    let events = get_f64(doc, "events_recorded")?;
    report.compared += 3;
    if overhead > budget {
        report.failures.push(format!(
            "trace_overhead: committed overhead {overhead:.2}% exceeds budget {budget:.2}%"
        ));
    }
    if allocs != 0.0 {
        report.failures.push(format!(
            "trace_overhead: committed disabled_tracer_allocs = {allocs} (must be 0)"
        ));
    }
    // Sampler fields are newer than the bench itself: tolerate their
    // absence in a pre-sampler baseline.
    if let Some(sampler) = doc.get("sampler_overhead_pct").and_then(Value::as_f64) {
        report.compared += 1;
        if sampler > budget {
            report.failures.push(format!(
                "trace_overhead: committed sampler increment {sampler:.2}% exceeds budget {budget:.2}%"
            ));
        }
    }
    if events <= 0.0 {
        report
            .failures
            .push("trace_overhead: committed events_recorded is zero".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Self-test — exercises the comparison logic with no benchmark runs.
// ---------------------------------------------------------------------------

fn self_test(tolerance: f64) -> Result<(), String> {
    let baseline = [
        ("t/seconds", 0.35, Class::Timing),
        ("t/m2l_ns_per_interaction", 1.9, Class::Timing),
        ("t/hits", 3.0, Class::Count),
        ("t/overlap", 0.94, Class::LowerBound(OVERLAP_SLACK)),
    ];
    let no_skip: Option<String> = None;

    // Identity diff must pass.
    let mut clean = Report::new();
    for (name, v, class) in baseline {
        let cmp = Cmp {
            name: name.into(),
            baseline: v,
            fresh: v,
            class,
        };
        judge(&cmp, tolerance, &no_skip, &mut clean);
    }
    if !clean.failures.is_empty() {
        return Err(format!(
            "identity diff produced failures: {:?}",
            clean.failures
        ));
    }

    // A 2× slowdown on every timing metric must be flagged.
    let mut slow = Report::new();
    for (name, v, class) in baseline {
        let fresh = if class == Class::Timing { v * 2.0 } else { v };
        let cmp = Cmp {
            name: name.into(),
            baseline: v,
            fresh,
            class,
        };
        judge(&cmp, tolerance, &no_skip, &mut slow);
    }
    if slow.failures.len() != 2 {
        return Err(format!(
            "2x slowdown should flag both timing metrics, flagged {}: {:?}",
            slow.failures.len(),
            slow.failures
        ));
    }

    // Count drift and overlap collapse must be flagged even when timings
    // are skipped for ISA mismatch.
    let skip: Option<String> = Some("ISA mismatch (self-test)".into());
    let mut drift = Report::new();
    for (name, v, class) in baseline {
        let fresh = match class {
            Class::Count => v + 1.0,
            Class::LowerBound(_) => v - 0.5,
            Class::Timing => v * 10.0,
        };
        let cmp = Cmp {
            name: name.into(),
            baseline: v,
            fresh,
            class,
        };
        judge(&cmp, tolerance, &skip, &mut drift);
    }
    if drift.failures.len() != 2 || drift.skipped != 2 {
        return Err(format!(
            "ISA-skipped diff should flag count+overlap and skip 2 timings, \
             got {} failures / {} skipped: {:?}",
            drift.failures.len(),
            drift.skipped,
            drift.failures
        ));
    }

    // The M2L vector gate: flagged on a vector build, skipped on a scalar one.
    let mut gate = Report::new();
    judge_m2l_speedup("t", "avx2", 5.8, 1.9, &mut gate);
    judge_m2l_speedup("t", "avx512f", 5.8, 6.4, &mut gate);
    judge_m2l_speedup("t", "sse2", 5.8, 6.4, &mut gate);
    if gate.failures.len() != 1 || gate.compared != 2 || gate.skipped != 1 {
        return Err(format!(
            "M2L vector gate should pass 3.1x, flag 0.9x and skip sse2, got {:?}",
            gate.failures
        ));
    }
    println!(
        "bench_diff --self-test: OK (identity passes, 2x slowdown flagged, ISA skip honored, \
         M2L vector gate trips)"
    );
    Ok(())
}

// ---------------------------------------------------------------------------

fn usage() -> String {
    "usage: bench_diff [--self-test] [--tolerance=X] [--baseline-dir=DIR] \
     [gravity|hydro|scale|amt|trace_overhead]...\n\
     default: diff all five committed baselines; BENCH_SMOKE=1 limits the \
     scale re-run to level 2"
        .into()
}

fn run() -> Result<bool, String> {
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut baseline_dir: String = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").into();
    let mut want_self_test = false;
    let mut benches: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--self-test" {
            want_self_test = true;
        } else if let Some(v) = arg.strip_prefix("--tolerance=") {
            tolerance = v.parse().map_err(|e| format!("--tolerance={v}: {e}"))?;
            if tolerance <= 1.0 {
                return Err("--tolerance must be > 1.0".into());
            }
        } else if let Some(v) = arg.strip_prefix("--baseline-dir=") {
            baseline_dir = v.into();
        } else if ["gravity", "hydro", "scale", "amt", "trace_overhead"].contains(&arg.as_str()) {
            benches.push(arg);
        } else {
            return Err(usage());
        }
    }
    if want_self_test {
        self_test(tolerance)?;
        if benches.is_empty() {
            return Ok(true);
        }
    }
    if benches.is_empty() {
        benches = vec![
            "gravity".into(),
            "hydro".into(),
            "scale".into(),
            "amt".into(),
            "trace_overhead".into(),
        ];
    }
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");

    let mut report = Report::new();
    for bench in &benches {
        match bench.as_str() {
            "gravity" => diff_gravity(
                &load(&baseline_dir, "BENCH_gravity.json")?,
                tolerance,
                &mut report,
            )?,
            "hydro" => diff_hydro(
                &load(&baseline_dir, "BENCH_hydro.json")?,
                tolerance,
                &mut report,
            )?,
            "scale" => diff_scale(
                &load(&baseline_dir, "BENCH_scale.json")?,
                tolerance,
                smoke,
                &mut report,
            )?,
            "amt" => diff_amt(
                &load(&baseline_dir, "BENCH_amt.json")?,
                tolerance,
                &mut report,
            )?,
            "trace_overhead" => diff_trace_overhead(
                &load(&baseline_dir, "BENCH_trace_overhead.json")?,
                &mut report,
            )?,
            _ => unreachable!("benches vetted during argument parsing"),
        }
    }

    for n in &report.notices {
        println!("bench_diff: notice: {n}");
    }
    for f in &report.failures {
        println!("bench_diff: FAIL: {f}");
    }
    println!(
        "bench_diff: {} metrics compared, {} skipped, {} regressions",
        report.compared,
        report.skipped,
        report.failures.len()
    );
    Ok(report.failures.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_diff: error: {e}");
            ExitCode::from(2)
        }
    }
}
