//! The six workloads and what they share: the seeded generator, the
//! closed-loop op runner with failure accounting, and the run outcome.

pub mod amr;
pub mod dist;
pub mod maclaurin;
pub mod parcel;
pub mod star;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use amt::{Runtime, RuntimeStats, WorkerStats};
use apex_lite::CounterSnapshot;
use octotiger::WorkEstimate;

use crate::spans::{self, SpanStore};

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "star_l4_t1",
        "paper's level-4 rotating star on 1 worker: kernels are all of the time, scheduler idle; plain single-threaded baseline",
    ),
    (
        "star_l4_t2",
        "same star on 2 workers (Fig. 7 at this host's cores): adds stealing, gravity/hydro overlap and the serial sections that cap scaling",
    ),
    (
        "amr_l3_t2",
        "level-3 star, every step follows a seeded regrid: interaction lists rebuilt not hit, tree and pools grow; the write use of the caches",
    ),
    (
        "dist_l3_2loc",
        "Fig. 8: 2 localities x 1 worker over the TCP parcelport, 10 steps per op; second stepper, halo exchange, serialization, framing",
    ),
    (
        "maclaurin_fine_t2",
        "Figs. 4-5 four styles cut into 40000 tasks of 100 terms on 2 workers: spawn, when_all, steal and park are the run time",
    ),
    (
        "parcel_storm",
        "bursts of remote u64 actions plus 20 KB echoes between 2 localities: encode, frame, parcelport, AGAS, decode do nearly all the work",
    ),
];

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Level 2, three ops: the quick check CI and reviewers run.
    pub smoke: bool,
    /// Where the traced pass writes its Perfetto-loadable trace.
    pub trace_out: Option<PathBuf>,
}

/// SplitMix64: the benchmark's only source of workload variation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What a workload hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why ops or run-level output checks failed (empty on a clean run).
    pub notes: Vec<String>,
    /// Unit of `work`, e.g. `cells`.
    pub work_unit: &'static str,
    /// Work done by the untraced timed ops.
    pub work: f64,
    /// Wall time of each untraced timed op.
    pub op_s: Vec<f64>,
    /// Wall time of each traced timed op (traced pass only).
    pub traced_op_s: Vec<f64>,
    /// Wall time of the traced ops whose spans `store` kept.
    pub kept_op_s: Vec<f64>,
    /// Wall time of each fresh construction of the problem.
    pub setup_s: Vec<f64>,
    /// FNV-1a over the field state at a fixed point of the run.
    pub state_hash: Option<u64>,
    /// Counts that must repeat exactly for one seed (compared by `compare`).
    pub exact: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload measured.
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans of the traced ops.
    pub store: SpanStore,
}

impl Outcome {
    pub fn new(work_unit: &'static str) -> Self {
        Outcome {
            work_unit,
            ..Outcome::default()
        }
    }

    /// A run-level output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.notes.push(what());
        }
    }

    /// Run one op in the closed loop: timed from outside, under
    /// `catch_unwind`; `Err` (a failed output check) and a panic both count
    /// as a failed op. With `traced` the program's tracer is on for the op
    /// and its spans are kept. Returns the op's value on success.
    pub fn op<T>(&mut self, traced: bool, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let timed = move || {
            let t0 = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(f));
            (t0.elapsed().as_secs_f64(), out)
        };
        let ((secs, out), kept) = if traced {
            spans::traced(&mut self.store, spans::BENCH_OP, timed)
        } else {
            (timed(), false)
        };
        match out {
            Ok(Ok(v)) => {
                if traced {
                    self.traced_op_s.push(secs);
                } else {
                    self.op_s.push(secs);
                }
                if kept {
                    self.kept_op_s.push(secs);
                }
                Some(v)
            }
            Ok(Err(why)) => {
                self.fail(format!("op {}: {why}", self.attempted));
                None
            }
            Err(payload) => {
                let why = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                self.fail(format!("op {} panicked: {why}", self.attempted));
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// In the traced pass every other op is traced, so traced and untraced
    /// ops see the same drift and their medians give the tracing overhead.
    pub fn next_is_traced(&self, args: &RunArgs) -> bool {
        args.trace && self.attempted.is_multiple_of(2)
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Timed ops that succeeded, traced or not, and their summed wall time.
    pub fn ops_and_wall(&self) -> (f64, f64) {
        let all = self.op_s.iter().chain(&self.traced_op_s);
        (all.clone().count() as f64, all.sum())
    }

    /// Declare layer metrics that must repeat exactly for one seed.
    pub fn mark_exact(&mut self, names: &[&'static str]) {
        for &name in names {
            self.exact.insert(name, self.layer[name]);
        }
    }
}

/// Closed-loop pacing: keep issuing rounds until the window is over, but
/// never fewer than `min`; the smoke check runs exactly `min`.
pub struct Window {
    start: Instant,
    seconds: f64,
    min: u64,
    smoke: bool,
    done: u64,
}

/// Ops of a smoke check.
pub const SMOKE_OPS: u64 = 3;

impl Window {
    pub fn open(args: &RunArgs, min: u64) -> Self {
        Window {
            start: Instant::now(),
            seconds: args.seconds,
            min,
            smoke: args.smoke,
            done: 0,
        }
    }

    pub fn more(&mut self) -> bool {
        let go = self.done < self.min
            || (!self.smoke && self.start.elapsed().as_secs_f64() < self.seconds);
        self.done += 1;
        go
    }
}

/// Scheduler counters over a window of ops, read from the structs the
/// runtime already returns.
pub struct SchedWindow {
    stats0: RuntimeStats,
    workers0: Vec<WorkerStats>,
}

impl SchedWindow {
    pub fn open(rt: &Runtime) -> Self {
        SchedWindow {
            stats0: rt.stats(),
            workers0: rt.worker_stats(),
        }
    }

    /// Write the `amt.*` counter metrics and return the window's totals.
    pub fn close(self, rt: &Runtime, ops: f64, wall_s: f64, out: &mut Outcome) -> RuntimeStats {
        let d = rt.stats().delta(&self.stats0);
        let workers: Vec<(u64, u64)> = rt
            .worker_stats()
            .iter()
            .zip(&self.workers0)
            .map(|(a, b)| (a.busy_ns - b.busy_ns, a.park_ns - b.park_ns))
            .collect();
        put_sched(out, &d, &workers, ops, wall_s);
        d
    }
}

/// The `amt.*` counter metrics: counts per op, busy and parked time as a
/// fraction of `workers × wall_s`. `workers` holds each worker's
/// `(busy_ns, park_ns)` over the window.
pub fn put_sched(
    out: &mut Outcome,
    d: &RuntimeStats,
    workers: &[(u64, u64)],
    ops: f64,
    wall_s: f64,
) {
    let per_op = |n: u64| n as f64 / ops.max(1.0);
    out.put("amt.tasks_spawned", per_op(d.tasks_spawned));
    out.put("amt.steals", per_op(d.steals));
    out.put("amt.parks", per_op(d.parks));
    out.put("amt.yields", per_op(d.yields));
    out.put(
        "amt.steal_ratio",
        d.steals as f64 / (d.tasks_executed as f64).max(1.0),
    );
    let busy: f64 = workers.iter().map(|w| w.0 as f64).sum();
    let park: f64 = workers.iter().map(|w| w.1 as f64).sum();
    let denom = (workers.len() as f64 * wall_s * 1e9).max(1.0);
    out.put("amt.busy_frac", busy / denom);
    out.put("amt.park_frac", park / denom);
    let max = workers.iter().map(|w| w.0).max().unwrap_or(0) as f64;
    let mean = busy / workers.len().max(1) as f64;
    out.put("amt.imbalance", if mean > 0.0 { max / mean } else { 0.0 });
}

/// [`put_sched`] for runtimes the benchmark cannot reach directly (a
/// cluster's): read the `/runtime/locality{i}/…` counters the cluster
/// registers, as the difference of two snapshots.
pub fn put_sched_from_counters(
    out: &mut Outcome,
    before: &CounterSnapshot,
    after: &CounterSnapshot,
    localities: u32,
    ops: f64,
    wall_s: f64,
) {
    let delta = |path: &str| after.count(path) - before.count(path);
    let mut d = RuntimeStats::default();
    let mut workers = Vec::new();
    for i in 0..localities {
        let p = format!("/runtime/locality{i}");
        d.tasks_spawned += delta(&format!("{p}/tasks_spawned"));
        d.tasks_executed += delta(&format!("{p}/tasks_executed"));
        d.steals += delta(&format!("{p}/steals"));
        d.parks += delta(&format!("{p}/parks"));
        d.yields += delta(&format!("{p}/yields"));
        for w in 0.. {
            if after.get(&format!("{p}/worker{w}/busy_ns")).is_none() {
                break;
            }
            workers.push((
                delta(&format!("{p}/worker{w}/busy_ns")),
                delta(&format!("{p}/worker{w}/park_ns")),
            ));
        }
    }
    put_sched(out, &d, &workers, ops, wall_s);
}

/// Combine two work counters field by field.
fn zip_work(a: &WorkEstimate, b: &WorkEstimate, f: fn(u64, u64) -> u64) -> WorkEstimate {
    WorkEstimate {
        hydro_flops: f(a.hydro_flops, b.hydro_flops),
        gravity_flops: f(a.gravity_flops, b.gravity_flops),
        bytes: f(a.bytes, b.bytes),
        far_interactions: f(a.far_interactions, b.far_interactions),
        near_interactions: f(a.near_interactions, b.near_interactions),
        ghost_samples: f(a.ghost_samples, b.ghost_samples),
        ghost_slab_bytes: f(a.ghost_slab_bytes, b.ghost_slab_bytes),
        mac_evals: f(a.mac_evals, b.mac_evals),
    }
}

/// `later − earlier`.
pub fn work_delta(later: &WorkEstimate, earlier: &WorkEstimate) -> WorkEstimate {
    zip_work(later, earlier, |a, b| a - b)
}

pub fn work_sum(a: &WorkEstimate, b: &WorkEstimate) -> WorkEstimate {
    zip_work(a, b, |a, b| a + b)
}

/// The `/comms/parcel_latency` histogram's percentiles, in µs.
pub fn put_parcel_latency(out: &mut Outcome, counters: &CounterSnapshot) {
    if let Some(h) = counters.histogram("/comms/parcel_latency") {
        out.put(
            "distrib.parcel_latency_p50_us",
            h.quantile(0.5) as f64 * 1e-3,
        );
        out.put(
            "distrib.parcel_latency_p99_us",
            h.quantile(0.99) as f64 * 1e-3,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..16).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(7));
        let mut a = [0, 1, 2, 3];
        let mut b = [0, 1, 2, 3];
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3]);
    }

    #[test]
    fn a_panicking_or_failing_op_is_counted_not_propagated() {
        let mut out = Outcome::new("ops");
        assert_eq!(out.op(false, || Ok::<_, String>(5)), Some(5));
        assert_eq!(out.op(false, || Err::<u8, _>("sum is NaN".into())), None);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r: Option<u8> = out.op(false, || panic!("boom"));
        std::panic::set_hook(hook);
        assert_eq!(r, None);
        assert_eq!((out.attempted, out.failed, out.op_s.len()), (3, 2, 1));
        assert!(out.notes[1].contains("boom"));
    }
}
