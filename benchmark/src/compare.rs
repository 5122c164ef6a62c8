//! `compare A B`: two result sets of `benchmark/results/` side by side. One
//! row per (workload, seed, end-to-end metric) with both medians, by how much
//! B is worse, the bound `BENCHMARK.json` fixes, and a verdict:
//!
//! * `ok` — B is not worse than A by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — the runs of a set spread wider than the bound, so neither
//!   can be said, unless every run of B is worse than every run of A.
//!
//! Before any row it refuses sets that are not comparable (different build
//! flags, ISA, core count, run length) and reports failed ops, differing
//! `state_hash` and differing exact counters as problems.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalogue::{END_TO_END, SETUP_ABS_FLOOR_S};
use crate::json::Json;
use crate::set::RESULTS_DIR;
use crate::stats::{exceeds_bound, iqr_share, median, worsening, Better};
use crate::Cli;

/// Header fields that must agree between the two sets.
const COMPARABLE: [&str; 6] = [
    "nproc",
    "host_simd_isa",
    "compiled_simd_isa",
    "rustflags",
    "seconds",
    "smoke",
];

/// All runs of one `(workload, seed)` in one set.
#[derive(Default)]
struct Group {
    records: Vec<Json>,
}

type Set = BTreeMap<(String, u64), Group>;

impl Group {
    fn values(&self, metric: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// The distinct renderings of `field` across the runs.
    fn distinct(&self, field: &str) -> Vec<String> {
        let mut seen: Vec<String> = self
            .records
            .iter()
            .map(|r| r.get(field).map_or("null".into(), Json::render))
            .collect();
        seen.sort();
        seen.dedup();
        seen
    }

    fn comparable_header(&self) -> Vec<String> {
        let mut seen: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                COMPARABLE
                    .iter()
                    .map(|f| {
                        let v = r.get("header").and_then(|h| h.get(f));
                        format!("{f}={}", v.map_or("null".into(), Json::render))
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        seen.sort();
        seen.dedup();
        seen
    }

    fn failed(&self) -> f64 {
        self.records
            .iter()
            .filter_map(|r| r.get("failed").and_then(Json::as_f64))
            .sum::<f64>()
            + self
                .records
                .iter()
                .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
                .count() as f64
    }
}

fn group(records: Vec<Json>) -> Set {
    let mut set = Set::new();
    for r in records {
        if r.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        let seed = r
            .get("header")
            .and_then(|h| h.get("seed"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        set.entry((workload.to_string(), seed as u64))
            .or_default()
            .records
            .push(r);
    }
    set
}

fn load(label: &str) -> Result<Set, String> {
    let dir = Path::new(RESULTS_DIR).join(label);
    let mut records = Vec::new();
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        records.push(Json::parse(&text).map_err(|e| format!("{name}: {e}"))?);
    }
    if records.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(group(records))
}

/// Run-to-run spread of one set's values as a share of their median.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (hi - lo) / median(values).abs().max(f64::MIN_POSITIVE)
        }
        _ => iqr_share(values),
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let worse = exceeds_bound(median(a), median(b), better, bound, floor);
    let noisy = spread(a).max(spread(b)) > bound;
    let every_b_worse = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(x, y, better) > 0.0));
    match (worse, noisy) {
        (true, true) if !every_b_worse => Verdict::Unresolved,
        (true, _) => Verdict::Regressed,
        (false, true) => Verdict::Unresolved,
        (false, false) => Verdict::Ok,
    }
}

/// Compare two sets; prints the rows and returns the problems found.
fn compare(a: &Set, b: &Set, bounds: &BTreeMap<String, f64>) -> Vec<String> {
    let mut problems = Vec::new();
    println!(
        "{:<18} {:>4} {:<12} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "seed", "metric", "A", "B", "worse", "bound"
    );
    for (key, ga) in a {
        let (workload, seed) = key;
        let Some(gb) = b.get(key) else {
            problems.push(format!("{workload} seed {seed}: missing from B"));
            continue;
        };
        let (ha, hb) = (ga.comparable_header(), gb.comparable_header());
        if ha.len() != 1 || ha != hb {
            problems.push(format!(
                "{workload} seed {seed}: headers differ, refusing to compare: {ha:?} vs {hb:?}"
            ));
            continue;
        }
        for (label, g) in [("A", ga), ("B", gb)] {
            if g.failed() > 0.0 {
                problems.push(format!("{workload} seed {seed}: failed ops in {label}"));
            }
        }
        for field in ["state_hash", "exact"] {
            let (xa, xb) = (ga.distinct(field), gb.distinct(field));
            if xa.len() != 1 || xa != xb {
                problems.push(format!(
                    "{workload} seed {seed}: {field} differs: {xa:?} vs {xb:?}"
                ));
            }
        }
        for m in &END_TO_END {
            let (va, vb) = (ga.values(m.name), gb.values(m.name));
            let bound = bounds.get(m.name).copied().unwrap_or(0.1);
            let floor = if m.name == "setup_s" {
                SETUP_ABS_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(&va, &vb, m.better, bound, floor);
            println!(
                "{workload:<18} {seed:>4} {:<12} {:>13.6e} {:>13.6e} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                median(&va),
                median(&vb),
                worsening(median(&va), median(&vb), m.better) * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if v == Verdict::Regressed {
                problems.push(format!("{workload} seed {seed}: {} regressed", m.name));
            }
        }
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        problems.push(format!("{} seed {}: missing from A", key.0, key.1));
    }
    problems
}

fn bounds_from_spec() -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&text)?;
    Ok(spec
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// A synthetic run record with the given op time (set-up and memory fixed).
fn synthetic(op_s: f64, failed: f64) -> Json {
    let value = |v: f64| Json::obj([("value", Json::Num(v))]);
    Json::obj([
        ("workload", Json::Str("synthetic".into())),
        ("trace", Json::Bool(false)),
        (
            "header",
            Json::obj([("seed", Json::Num(1.0)), ("nproc", Json::Num(2.0))]),
        ),
        ("correct", Json::Bool(failed == 0.0)),
        ("failed", Json::Num(failed)),
        ("state_hash", Json::Str("0x1".into())),
        ("exact", Json::obj([("cells", Json::Num(512.0))])),
        (
            "metrics",
            Json::obj([
                ("work_per_s", value(1000.0 / op_s)),
                ("op_s_p50", value(op_s)),
                ("setup_s", value(0.1)),
                ("peak_rss_mb", value(300.0)),
            ]),
        ),
    ])
}

/// An identical pair passes; a 2× slowdown and a failed op are flagged.
fn self_test(bounds: &BTreeMap<String, f64>) -> Vec<String> {
    let set = |op_s: f64, failed: f64| {
        group(
            [0.99, 1.0, 1.01]
                .iter()
                .map(|k| synthetic(op_s * k, failed))
                .collect(),
        )
    };
    let mut wrong = Vec::new();
    let same = compare(&set(1.0, 0.0), &set(1.0, 0.0), bounds);
    if !same.is_empty() {
        wrong.push(format!("an identical pair was flagged: {same:?}"));
    }
    let slow = compare(&set(1.0, 0.0), &set(2.0, 0.0), bounds);
    for metric in ["work_per_s", "op_s_p50"] {
        if !slow.iter().any(|p| p.contains(metric)) {
            wrong.push(format!("a 2x slowdown did not flag {metric}: {slow:?}"));
        }
    }
    let failed = compare(&set(1.0, 0.0), &set(1.0, 1.0), bounds);
    if !failed.iter().any(|p| p.contains("failed ops in B")) {
        wrong.push(format!("a failed op was not flagged: {failed:?}"));
    }
    wrong
}

pub fn main(cli: &Cli) -> Result<i32, String> {
    let bounds = bounds_from_spec()?;
    let problems = if cli.has("--self-test") {
        self_test(&bounds)
    } else {
        let [_, a, b] = cli.positional.as_slice() else {
            return Err("usage: compare <label A> <label B> | compare --self-test".into());
        };
        compare(&load(a)?, &load(b)?, &bounds)
    };
    for p in &problems {
        println!("compare FAILED {p}");
    }
    println!("compare: {} problems", problems.len());
    Ok(i32::from(!problems.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> BTreeMap<String, f64> {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), 0.1))
            .collect()
    }

    #[test]
    fn self_test_holds() {
        assert_eq!(self_test(&bounds()), Vec::<String>::new());
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_worse() {
        let lower = Better::Lower;
        // Medians 5 % apart, runs ±1 %: ok.
        let a = [0.99, 1.0, 1.01, 1.0];
        let b = [1.04, 1.05, 1.06, 1.05];
        assert_eq!(verdict(&a, &b, lower, 0.1, 0.0), Verdict::Ok);
        // Runs ±30 %, medians equal: cannot be called unchanged.
        let noisy = [0.7, 1.0, 1.3, 1.0, 0.75, 1.25];
        assert_eq!(
            verdict(&noisy, &noisy, lower, 0.1, 0.0),
            Verdict::Unresolved
        );
        // Noisy, but every B run is slower than every A run: regressed.
        let slow: Vec<f64> = noisy.iter().map(|v| v * 3.0).collect();
        assert_eq!(verdict(&noisy, &slow, lower, 0.1, 0.0), Verdict::Regressed);
        // Noisy and overlapping, median 20 % worse: unresolved.
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&noisy, &worse, lower, 0.1, 0.0),
            Verdict::Unresolved
        );
    }

    #[test]
    fn differing_headers_are_refused() {
        let a = group(vec![synthetic(1.0, 0.0)]);
        let mut other = synthetic(1.0, 0.0);
        if let Json::Obj(m) = &mut other {
            m.insert(
                "header".into(),
                Json::obj([("seed", Json::Num(1.0)), ("nproc", Json::Num(8.0))]),
            );
        }
        let problems = compare(&a, &group(vec![other]), &bounds());
        assert!(problems.iter().any(|p| p.contains("headers differ")));
    }
}
