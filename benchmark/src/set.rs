//! The set: every workload in a process of its own (so `peak_rss_mb` is the
//! workload's), results filed under `benchmark/results/<label>/`, the
//! cross-workload checks, and a non-zero exit if any check failed.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::workloads::WORKLOADS;
use crate::Cli;

pub const RESULTS_DIR: &str = "benchmark/results";

/// `run_seconds` of `BENCHMARK.json`, so a hand-run set measures what the
/// referee measures.
fn default_seconds() -> f64 {
    std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|j| j.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

/// Run one workload in a child process, echo its report, and return the
/// record of its `detail:` line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out.filter(|_| !smoke) {
        cmd.arg("--trace-out").arg(path);
    }
    let output = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail: ") {
            Some(json) => detail = Some(Json::parse(json)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    detail.ok_or_else(|| format!("{workload}: printed no detail record"))
}

/// File `record` as the next run of `(workload, seed)` under `dir`.
fn file_record(dir: &Path, stem: &str, record: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = (0..)
        .map(|k| dir.join(format!("{stem}.r{k}.json")))
        .find(|p| !p.exists())
        .expect("an unused run index");
    std::fs::write(&path, record.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn main(cli: &Cli) -> Result<i32, String> {
    let seed: u64 = cli.number("--seed")?.unwrap_or(1);
    let seconds: f64 = cli.number("--seconds")?.unwrap_or_else(default_seconds);
    let label = cli.value("--label").unwrap_or("local");
    let smoke = cli.has("--smoke");
    let traced = cli.has("--traced");
    let names: Vec<&str> = match cli.value("--workload") {
        Some(one) => {
            crate::known_workload(one)?;
            vec![one]
        }
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let dir = Path::new(RESULTS_DIR).join(label);

    let mut problems: Vec<String> = Vec::new();
    let mut records: Vec<(&str, Json)> = Vec::new();
    for name in names {
        let trace_out = dir.join(format!("{name}.trace.json"));
        let passes: &[Option<&Path>] = if traced {
            &[None, Some(&trace_out)]
        } else {
            &[None]
        };
        for &pass in passes {
            match run_child(name, seed, seconds, smoke, pass) {
                Ok(record) => {
                    if record.get("correct") != Some(&Json::Bool(true)) {
                        problems.push(format!("{name}: output checks failed"));
                    }
                    if !smoke {
                        let kind = if pass.is_some() { "traced." } else { "" };
                        let path = file_record(&dir, &format!("{name}.{kind}s{seed}"), &record)?;
                        println!("{name} result_file {}", path.display());
                    }
                    if pass.is_none() {
                        records.push((name, record));
                    } else {
                        for (gate, limit) in [
                            ("apex-lite.events_dropped", 0.0),
                            ("apex-lite.trace_overhead_frac", 0.03),
                        ] {
                            let v = metric(&record, gate).unwrap_or(0.0);
                            let verdict = if v <= limit { "ok" } else { "ABOVE" };
                            println!("{name} gate {gate} {v:.4} limit {limit} {verdict}");
                        }
                    }
                }
                Err(why) => problems.push(why),
            }
        }
    }

    let find = |name: &str| records.iter().find(|(n, _)| *n == name).map(|(_, r)| r);
    if let (Some(t1), Some(t2)) = (find("star_l4_t1"), find("star_l4_t2")) {
        // One worker and two must compute the same fields, bit for bit.
        if t1.get("state_hash") != t2.get("state_hash") {
            problems.push("star_l4_t1 and star_l4_t2 disagree on state_hash".into());
        }
        if let (Some(w1), Some(w2)) = (metric(t1, "work_per_s"), metric(t2, "work_per_s")) {
            println!("summary parallel_eff {:.4} ratio", w2 / (2.0 * w1));
        }
    }
    for p in &problems {
        println!("summary FAILED {p}");
    }
    println!(
        "summary {} workloads, {} problems",
        records.len(),
        problems.len()
    );
    Ok(i32::from(!problems.is_empty()))
}
