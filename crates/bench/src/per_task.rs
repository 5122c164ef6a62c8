//! The `per_task` group of `bench_amt`: what the scheduler costs per task
//! when the task does nothing. Shared by the bench (which writes
//! `BENCH_amt.json`) and by `bench_diff` (which re-measures it against that
//! baseline), so the two cannot drift apart.
//!
//! A case is a join style × where the producer runs × the worker count;
//! a repetition pushes [`TASKS`] empty tasks through it and joins them. The
//! spread over the repetitions is part of the result: before the wake
//! throttle a producer outside the pool paid a futex wake on every push
//! while a worker slept, and the same case took 10 ms or 57 ms.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amt::sr::{schedule, sync_wait, Sender};
use amt::{future_pair, par, when_all, Handle, Runtime};

/// Empty tasks per repetition.
pub const TASKS: usize = 40_000;
/// Repetitions per case.
pub const REPS: usize = 10;
/// Largest `max ÷ min` over the repetitions of [`Case::is_gated`] cases (the
/// gate on the bimodality described above).
pub const MAX_SPREAD: f64 = 3.0;

/// How the tasks are spawned and joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// `spawn_detached`, the last task to count down fulfils a promise.
    Detached,
    /// `spawn` + `when_all`.
    WhenAll,
    /// `par::scope`.
    Scope,
    /// `sr::schedule(..).bulk(..)` under `sync_wait`.
    Bulk,
}

impl Style {
    pub const ALL: [Style; 4] = [Style::Detached, Style::WhenAll, Style::Scope, Style::Bulk];

    pub fn label(self) -> &'static str {
        match self {
            Style::Detached => "detached",
            Style::WhenAll => "when_all",
            Style::Scope => "scope",
            Style::Bulk => "bulk",
        }
    }

    pub fn from_label(label: &str) -> Option<Style> {
        Style::ALL.into_iter().find(|s| s.label() == label)
    }

    /// Push `tasks` empty tasks through `h` and join them.
    fn run(self, h: &Handle, tasks: usize) {
        match self {
            Style::Detached => {
                let (promise, done) = future_pair();
                let left = Arc::new((AtomicUsize::new(tasks), promise));
                for _ in 0..tasks {
                    let left = Arc::clone(&left);
                    h.spawn_detached(move || {
                        if left.0.fetch_sub(1, Ordering::SeqCst) == 1 {
                            left.1.set_value(());
                        }
                    });
                }
                done.get();
            }
            Style::WhenAll => {
                let futures = (0..tasks).map(|i| h.spawn(move || i)).collect();
                std::hint::black_box(when_all(futures).get());
            }
            Style::Scope => par::scope(h, |sc| {
                for _ in 0..tasks {
                    sc.spawn(|| {});
                }
            }),
            Style::Bulk => sync_wait(schedule(h).bulk(tasks, |_| {})),
        }
    }
}

/// One case of the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub style: Style,
    /// The producer is itself a task (pushes go to its worker's deque and it
    /// helps while it joins) instead of a thread outside the pool (pushes go
    /// to the injector).
    pub on_worker: bool,
    pub workers: usize,
}

impl Case {
    /// The external-producer empty-task case proper: nothing but the
    /// scheduler between the producer's push and the task's countdown.
    pub fn is_gated(&self) -> bool {
        self.style == Style::Detached && !self.on_worker
    }

    /// `style/producer/w<workers>`, the case's name in reports and baselines.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/w{}",
            self.style.label(),
            self.producer(),
            self.workers
        )
    }

    pub fn producer(&self) -> &'static str {
        if self.on_worker {
            "on_worker"
        } else {
            "off_worker"
        }
    }
}

/// Every style, producer off and on a worker, 1 and 2 workers.
pub fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for workers in [1, 2] {
        for on_worker in [false, true] {
            for style in Style::ALL {
                out.push(Case {
                    style,
                    on_worker,
                    workers,
                });
            }
        }
    }
    out
}

/// What [`measure`] found.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub case: Case,
    /// Tasks the runtime counted per repetition (exact: a function of the
    /// case).
    pub tasks_spawned: u64,
    /// Median over the repetitions.
    pub ns_per_task: f64,
    pub min_ns_per_task: f64,
    pub max_over_min: f64,
    /// Mean per repetition.
    pub parks: f64,
    /// Mean per repetition.
    pub steals: f64,
}

/// How long a fresh runtime is exercised before its repetitions count. The
/// kernel starts a worker on the CPU of the thread that created it and
/// moves it away some milliseconds later; until then producer and worker
/// share one core's cache and a repetition takes a quarter of the time it
/// takes once they run in parallel.
const WARM_UP: Duration = Duration::from_millis(100);

/// [`measure`], and for a gated case whose repetitions spread beyond
/// [`MAX_SPREAD`], once more: on a shared host about one measurement in ten
/// contains a repetition during which the kernel ran producer and worker on
/// one CPU (four times faster here — no cache line crosses a core) or ran
/// neither; a scheduler that makes the producer pay for wake-ups spreads
/// every measurement.
pub fn measure_gated(case: Case, tasks: usize, reps: usize) -> Point {
    let point = measure(case, tasks, reps);
    if case.is_gated() && point.max_over_min > MAX_SPREAD {
        return measure(case, tasks, reps);
    }
    point
}

/// Run `reps` repetitions of `case` on a fresh runtime, after [`WARM_UP`].
pub fn measure(case: Case, tasks: usize, reps: usize) -> Point {
    let rt = Runtime::new(case.workers);
    let h = rt.handle();
    let once = || {
        if case.on_worker {
            let h = h.clone();
            rt.spawn(move || case.style.run(&h, tasks)).get();
        } else {
            case.style.run(&h, tasks);
        }
    };
    let warm_up = Instant::now();
    while warm_up.elapsed() < WARM_UP {
        once();
    }
    let before = rt.stats();
    let mut ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            once();
            t0.elapsed().as_nanos() as f64 / tasks as f64
        })
        .collect();
    let d = rt.stats().delta(&before);
    assert_eq!(
        d.tasks_spawned % reps as u64,
        0,
        "{case:?}: spawn count differs between repetitions"
    );
    ns.sort_by(f64::total_cmp);
    let per_rep = |n: u64| n as f64 / reps as f64;
    Point {
        case,
        tasks_spawned: d.tasks_spawned / reps as u64,
        ns_per_task: ns[ns.len() / 2],
        min_ns_per_task: ns[0],
        max_over_min: ns[ns.len() - 1] / ns[0],
        parks: per_rep(d.parks),
        steals: per_rep(d.steals),
    }
}
