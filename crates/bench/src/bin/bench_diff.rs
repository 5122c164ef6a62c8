//! bench_diff — the gate over what in the committed baselines does not
//! depend on the machine.
//!
//! Wall time against a parent commit is the referee's job
//! (`benchmark/run.sh compare`, which refuses a pair built with different
//! flags); nothing here compares a time with a recorded time. What is left
//! holds on every host, so no check waits for a baseline recorded with this
//! build's flags:
//!
//! * **exact counts** (`BENCH_scale.json`: leaves, cells and the mid-run
//!   sweep's rebuild counters per level; `BENCH_amt.json`: tasks spawned per
//!   repetition of each `per_task` case) must match a fresh run — they are
//!   functions of the configuration, so any drift is a behaviour change;
//! * **the M2L vector gate**: `simd4` M2L must be at least
//!   [`M2L_SIMD4_MIN_SPEEDUP`]× faster per interaction than `simd1` in the
//!   committed `BENCH_gravity.json`, and in a fresh sweep wherever this build
//!   has a 4-lane backend (AVX2 or wider) — a ratio within one run, so
//!   machine speed cancels. (Before `Simd<4>` got a real `ymm` backend,
//!   `simd4` M2L was *slower* than `simd1`; that must not come back
//!   silently.)
//! * **the scheduler's spread gate**: the repetitions of the
//!   external-producer empty-task cases may not spread beyond
//!   `per_task::MAX_SPREAD` (max ÷ min) — a producer that pays a wake-up per
//!   push shows as a bimodal run time long before it shows in a median;
//! * **the overlap floor**: on three workers the gravity and hydro task
//!   families of a level-2 step must overlap by at least [`OVERLAP_MIN`] of
//!   the shorter one's envelope — the step graph has no phase barrier.
//!
//! `--self-test` exercises the comparison logic without running anything.
//! `BENCH_SMOKE=1` re-runs the scale baseline's level-2 row only (deeper
//! levels take minutes and up to a gigabyte).

use std::process::ExitCode;

use apex_lite::json::{self, Value};
use octotiger::kernel_backend::{self, KernelType, SimdPolicy};
use octotiger::{Driver, OctoConfig};
use repro_bench::per_task::{self, Case, Style};
use repro_bench::scale::time_scale;
use repro_bench::{gravity_kernel_sweeps, star};

/// Least `simd1 ÷ simd4` M2L time per interaction on an AVX2-or-wider
/// build (measured 3.1× at level 2).
const M2L_SIMD4_MIN_SPEEDUP: f64 = 2.0;

/// Least gravity/hydro overlap ratio of a level-2 run on 3 workers
/// (measured 0.94–0.98; a step with a barrier between the families reads 0).
const OVERLAP_MIN: f64 = 0.7;

const BENCHES: [&str; 4] = ["gravity", "scale", "amt", "overlap"];

enum Check {
    /// A deterministic count: must equal the baseline exactly.
    Exact(f64),
    /// A ratio within one run: must not fall below the floor.
    AtLeast(f64),
    /// A ratio within one run: must not rise above the ceiling.
    AtMost(f64),
}

#[derive(Default)]
struct Report {
    failures: Vec<String>,
    notices: Vec<String>,
    compared: usize,
}

impl Report {
    /// Hold `value` to `check`; `why` says what a failure means.
    fn judge(&mut self, name: &str, value: f64, check: Check, why: &str) {
        self.compared += 1;
        let verdict = match check {
            Check::Exact(want) if value != want => format!("count drifted from baseline {want}"),
            Check::AtLeast(floor) if value < floor => format!("below the floor {floor}"),
            Check::AtMost(ceiling) if value > ceiling => format!("above the ceiling {ceiling}"),
            _ => return,
        };
        self.failures
            .push(format!("{name}: {value:.4} {verdict} — {why}"));
    }
}

fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("baseline missing numeric field {key:?}"))
}

fn get_rows<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("baseline missing {key}"))
}

fn load(dir: &str, file: &str) -> Result<Value, String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Whether the M2L vector gate applies to a build for `isa`: one without a
/// 4-lane backend has no vector code to lose, which is a notice, not a check.
fn m2l_gate_applies(tag: &str, isa: &str, report: &mut Report) -> bool {
    let applies = ["avx2", "avx512f"].contains(&isa);
    if !applies {
        report.notices.push(format!(
            "{tag}: built for {isa}, no 4-lane backend — the M2L vector gate does not apply"
        ));
    }
    applies
}

/// The M2L vector gate on one pair of per-interaction times.
fn judge_m2l_speedup(tag: &str, simd1_ns: f64, simd4_ns: f64, report: &mut Report) {
    report.judge(
        &format!("{tag}/m2l_simd4_speedup"),
        simd1_ns / simd4_ns,
        Check::AtLeast(M2L_SIMD4_MIN_SPEEDUP),
        "the simd4 M2L kernel is not running on vector registers",
    );
}

/// `m2l_ns_per_interaction` of `policy` in the baseline's kernel sweeps.
fn baseline_m2l_ns(doc: &Value, policy: &str) -> Result<f64, String> {
    get_rows(doc, "kernel_sweeps")?
        .iter()
        .find(|r| r.get("policy").and_then(Value::as_str) == Some(policy))
        .ok_or_else(|| format!("baseline kernel_sweeps lacks policy {policy:?}"))
        .and_then(|row| get_f64(row, "m2l_ns_per_interaction"))
}

fn diff_gravity(doc: &Value, report: &mut Report) -> Result<(), String> {
    let recorded_for = doc
        .get("compiled_simd_isa")
        .and_then(Value::as_str)
        .ok_or("baseline missing compiled_simd_isa")?;
    if m2l_gate_applies("gravity/baseline", recorded_for, report) {
        judge_m2l_speedup(
            "gravity/baseline",
            baseline_m2l_ns(doc, "simd1")?,
            baseline_m2l_ns(doc, "simd4")?,
            report,
        );
    }
    if cfg!(debug_assertions) {
        report.notices.push(
            "gravity/fresh: unoptimized build — run with --release for the fresh sweep".into(),
        );
    } else if m2l_gate_applies("gravity/fresh", kernel_backend::compiled_simd_isa(), report) {
        let level = get_f64(doc, "tree_level")? as u32;
        let policies = [SimdPolicy::Width(1), SimdPolicy::Width(4)];
        let fresh = gravity_kernel_sweeps(&star(level), &policies, 3);
        judge_m2l_speedup(
            "gravity/fresh",
            fresh[0].m2l_ns_per_interaction,
            fresh[1].m2l_ns_per_interaction,
            report,
        );
    }
    Ok(())
}

fn diff_scale(doc: &Value, smoke: bool, report: &mut Report) -> Result<(), String> {
    let threads = get_f64(doc, "threads")? as usize;
    for row in get_rows(doc, "levels")? {
        let level = get_f64(row, "level")? as u32;
        if smoke && level > 2 {
            report.notices.push(format!(
                "scale: BENCH_SMOKE=1 leaves level {level} to a full run"
            ));
            continue;
        }
        let fresh = time_scale(level, get_f64(row, "steps")? as u32, threads.max(1));
        for (key, value) in [
            ("leaves", fresh.leaves as f64),
            ("cells", fresh.cells as f64),
            ("partial_rebuilds", fresh.partial_rebuilds as f64),
            ("leaves_rebuilt", fresh.leaves_rebuilt as f64),
            ("leaves_retained", fresh.leaves_retained as f64),
        ] {
            report.judge(
                &format!("scale/level{level}/{key}"),
                value,
                Check::Exact(get_f64(row, key)?),
                "the tree or the incremental list rebuild changed",
            );
        }
    }
    Ok(())
}

/// `BENCH_amt.json`: every `per_task` row re-measured with the shared
/// harness. Spawn counts are exact and the gated rows must keep their
/// repetitions together.
fn diff_amt(doc: &Value, report: &mut Report) -> Result<(), String> {
    let tasks = get_f64(doc, "tasks")? as usize;
    let reps = get_f64(doc, "reps")? as usize;
    for row in get_rows(doc, "per_task")? {
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
        report.judge(
            &format!("{tag}/tasks_spawned"),
            fresh.tasks_spawned as f64,
            Check::Exact(get_f64(row, "tasks_spawned")?),
            "a join style spawns a different number of tasks",
        );
        if case.is_gated() {
            report.judge(
                &format!("{tag}/max_over_min"),
                fresh.max_over_min,
                Check::AtMost(per_task::MAX_SPREAD),
                "the producer is paying for wake-ups again",
            );
        }
    }
    Ok(())
}

/// Gravity/hydro overlap of a fresh level-2 run on 3 workers.
fn diff_overlap(report: &mut Report) {
    let mut driver = Driver::new(OctoConfig {
        max_level: 2,
        stop_step: 10,
        threads: 3,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    });
    report.judge(
        "overlap/level2/w3",
        driver.run(3).overlap_ratio,
        Check::AtLeast(OVERLAP_MIN),
        "gravity and hydro tasks no longer run side by side",
    );
}

/// Exercises the comparison logic with no benchmark runs: what a recorded
/// run passes, and that each kind of regression trips its check.
fn self_test() -> Result<(), String> {
    let run = |count: f64, simd4_ns: f64, spread: f64, overlap: f64| {
        let mut r = Report::default();
        r.judge("t/hits", count, Check::Exact(3.0), "");
        judge_m2l_speedup("t", 5.8, simd4_ns, &mut r);
        r.judge("t/spread", spread, Check::AtMost(per_task::MAX_SPREAD), "");
        r.judge("t/overlap", overlap, Check::AtLeast(OVERLAP_MIN), "");
        r
    };
    let cases = [
        ("a recorded run", run(3.0, 1.9, 1.4, 0.94), 0),
        ("a doubled count", run(6.0, 1.9, 1.4, 0.94), 1),
        ("a halved M2L ratio", run(3.0, 3.8, 1.4, 0.94), 1),
        ("a widened spread", run(3.0, 1.9, 4.2, 0.94), 1),
        ("serialized families", run(3.0, 1.9, 1.4, 0.3), 1),
    ];
    for (what, report, want) in cases {
        if report.failures.len() != want || report.compared != 4 {
            return Err(format!(
                "{what} should give {want} failure(s) over 4 comparisons, got {} over {}: {:?}",
                report.failures.len(),
                report.compared,
                report.failures
            ));
        }
    }
    let mut builds = Report::default();
    let applies = ["sse2", "avx2", "avx512f"].map(|isa| m2l_gate_applies("t", isa, &mut builds));
    if applies != [false, true, true] || builds.notices.len() != 1 {
        return Err(format!(
            "the M2L vector gate applies to builds with a 4-lane backend only, got {applies:?}"
        ));
    }
    println!(
        "bench_diff --self-test: OK (a recorded run passes; a doubled count, a halved M2L \
         ratio, a widened spread and serialized families each trip it)"
    );
    Ok(())
}

fn usage() -> String {
    format!(
        "usage: bench_diff [--self-test] [--baseline-dir=DIR] [{}]...\n\
         default: all four; BENCH_SMOKE=1 limits the scale re-run to level 2",
        BENCHES.join("|")
    )
}

fn run() -> Result<bool, String> {
    let mut baseline_dir: String = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").into();
    let mut want_self_test = false;
    let mut benches: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--self-test" {
            want_self_test = true;
        } else if let Some(v) = arg.strip_prefix("--baseline-dir=") {
            baseline_dir = v.into();
        } else if BENCHES.contains(&arg.as_str()) {
            benches.push(arg);
        } else {
            return Err(usage());
        }
    }
    if want_self_test {
        self_test()?;
        if benches.is_empty() {
            return Ok(true);
        }
    }
    if benches.is_empty() {
        benches = BENCHES.map(String::from).to_vec();
    }

    let mut report = Report::default();
    for bench in &benches {
        match bench.as_str() {
            "gravity" => diff_gravity(&load(&baseline_dir, "BENCH_gravity.json")?, &mut report)?,
            "scale" => diff_scale(
                &load(&baseline_dir, "BENCH_scale.json")?,
                repro_bench::smoke(),
                &mut report,
            )?,
            "amt" => diff_amt(&load(&baseline_dir, "BENCH_amt.json")?, &mut report)?,
            "overlap" => diff_overlap(&mut report),
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
        "bench_diff: {} metrics compared, {} regressions",
        report.compared,
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
