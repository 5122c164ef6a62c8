//! Scheduler cost per task — the BENCH_amt.json datapoint.
//!
//! The `per_task` group: what the scheduler costs per empty task, by join
//! style, producer placement and worker count, and the spread gate on the
//! external-producer case. The application run cannot give this: its tasks
//! do work. Spawn / join / steal cost under load is the referee's
//! `maclaurin_fine_t2` workload and its `amt.*` rows.
//!
//! `BENCH_SMOKE=1` runs the group and its gate (CI) and writes nothing.

use repro_bench::per_task::{self, Point};
use repro_bench::{smoke, write_baseline};

fn main() {
    let points: Vec<Point> = per_task::cases()
        .into_iter()
        .map(|case| per_task::measure_gated(case, per_task::TASKS, per_task::REPS))
        .collect();
    for p in &points {
        println!(
            "per_task/{}: {:.0} ns/task (min {:.0}, max/min {:.2}), \
             {:.1} parks {:.1} steals {} spawned per rep",
            p.case.label(),
            p.ns_per_task,
            p.min_ns_per_task,
            p.max_over_min,
            p.parks,
            p.steals,
            p.tasks_spawned
        );
    }
    for p in points.iter().filter(|p| p.case.is_gated()) {
        assert!(
            p.max_over_min <= per_task::MAX_SPREAD,
            "per_task/{}: repetitions spread {:.2}x (gate {:.1}x) — \
             the producer is paying for wake-ups again",
            p.case.label(),
            p.max_over_min,
            per_task::MAX_SPREAD
        );
    }
    if smoke() {
        println!("BENCH_SMOKE=1: per_task spread gate OK, skipping BENCH_amt.json write");
        return;
    }
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"style\": \"{}\", \"producer\": \"{}\", \"workers\": {}, \
                 \"tasks_spawned\": {}, \"ns_per_task\": {:.1}, \
                 \"min_ns_per_task\": {:.1}, \"max_over_min\": {:.3}, \
                 \"parks\": {:.1}, \"steals\": {:.1}}}",
                p.case.style.label(),
                p.case.producer(),
                p.case.workers,
                p.tasks_spawned,
                p.ns_per_task,
                p.min_ns_per_task,
                p.max_over_min,
                p.parks,
                p.steals
            )
        })
        .collect();
    write_baseline(
        "amt",
        &[
            ("tasks", per_task::TASKS.to_string()),
            ("reps", per_task::REPS.to_string()),
        ],
        "per_task",
        &rows,
    );
}
