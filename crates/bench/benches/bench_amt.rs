//! Bench for the `amt` runtime. The `per_task` group — what the scheduler
//! costs per empty task, by join style, producer placement and worker
//! count — is the BENCH_amt.json baseline that `bench_diff` gates; the
//! criterion groups after it print reference numbers for task spawn/sync
//! throughput, parallel algorithms, senders & receivers, coroutine resumes,
//! and the thread-count ablation DESIGN.md calls out.
//!
//! `BENCH_SMOKE=1` runs the `per_task` group and its spread gate only (CI)
//! and writes no JSON.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;

use amt::par::{self, ExecutionPolicy};
use amt::sr::{schedule, sync_wait, Sender};
use amt::{coro, when_all, Runtime};
use repro_bench::bench_runtime;
use repro_bench::per_task::{self, Point};

/// Measure every `per_task` case, print it, and hold the gated cases to the
/// spread gate.
fn per_task_group() -> Vec<Point> {
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
    points
}

fn write_baseline(points: &[Point]) {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"style\": \"{}\", \"producer\": \"{}\", \"workers\": {}, \
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
    let json = format!(
        "{{\n  \"bench\": \"amt\",\n  \"host_simd_isa\": \"{}\",\n  \
         \"compiled_simd_isa\": \"{}\",\n  \"tasks\": {},\n  \"reps\": {},\n  \
         \"per_task\": [\n{}\n  ]\n}}\n",
        octotiger::kernel_backend::host_simd_isa(),
        octotiger::kernel_backend::compiled_simd_isa(),
        per_task::TASKS,
        per_task::REPS,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_amt.json");
    std::fs::write(path, json).expect("write BENCH_amt.json");
    println!("wrote {path}");
}

fn spawn_throughput(c: &mut Criterion) {
    let rt = bench_runtime();
    let h = rt.handle();
    let mut g = c.benchmark_group("amt-spawn");
    g.sample_size(10);
    for &count in &[64usize, 512] {
        g.bench_with_input(BenchmarkId::new("spawn_get", count), &count, |b, &n| {
            b.iter(|| {
                let futures: Vec<_> = (0..n).map(|i| h.spawn(move || black_box(i * 2))).collect();
                black_box(when_all(futures).get())
            })
        });
    }
    g.finish();
}

fn parallel_algorithms(c: &mut Criterion) {
    let rt = bench_runtime();
    let h = rt.handle();
    let data: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    let mut g = c.benchmark_group("amt-par");
    g.sample_size(10);
    g.bench_function("transform_reduce_par", |b| {
        b.iter(|| {
            black_box(par::transform_reduce(
                &h,
                ExecutionPolicy::Par,
                0..data.len(),
                0.0,
                |i| data[i] * 0.5,
                |a, b| a + b,
            ))
        })
    });
    g.bench_function("transform_reduce_seq", |b| {
        b.iter(|| {
            black_box(par::transform_reduce(
                &h,
                ExecutionPolicy::Seq,
                0..data.len(),
                0.0,
                |i| data[i] * 0.5,
                |a, b| a + b,
            ))
        })
    });
    g.finish();
}

fn senders_and_coroutines(c: &mut Criterion) {
    let rt = bench_runtime();
    let h = rt.handle();
    let mut g = c.benchmark_group("amt-styles");
    g.sample_size(10);
    g.bench_function("senders_pipeline", |b| {
        b.iter(|| {
            black_box(sync_wait(
                schedule(&h).then(|_| 1).then(|x| x + 1).then(|x| x * 2),
            ))
        })
    });
    g.bench_function("coroutine_resumes", |b| {
        b.iter(|| {
            let co = coro::ChunkedFold::new(0..4096, 256, 0u64, |acc, i| acc + i as u64);
            black_box(coro::spawn_coroutine(&h, co).get())
        })
    });
    g.finish();
}

/// Ablation (DESIGN.md §6): the same reduction across worker counts.
fn ablation_sched(c: &mut Criterion) {
    let mut g = c.benchmark_group("amt-ablation-sched");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("reduce_threads", threads),
            &threads,
            |b, &t| {
                let rt = Runtime::new(t);
                let h = rt.handle();
                b.iter(|| {
                    black_box(par::transform_reduce(
                        &h,
                        ExecutionPolicy::Par,
                        1..200_000,
                        0.0,
                        |i| 1.0 / i as f64,
                        |a, b| a + b,
                    ))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    spawn_throughput,
    parallel_algorithms,
    senders_and_coroutines,
    ablation_sched
);

fn main() {
    let points = per_task_group();
    if std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1") {
        println!("BENCH_SMOKE=1: per_task spread gate OK, skipping BENCH_amt.json write");
        return;
    }
    write_baseline(&points);
    benches();
}
