//! Work-stealing task scheduler — the heart of the HPX-like runtime.
//!
//! One OS thread per configured core, each with a LIFO deque
//! (`crossbeam_deque`), a global FIFO injector for external submissions, and
//! randomized-order stealing. Idle workers park on a condvar with a short
//! timeout (re-checking queues to avoid lost-wakeup hazards).
//!
//! Every scheduler event (spawn, execution, steal, park, yield) is counted;
//! [`RuntimeStats`] snapshots feed the `rv-machine` cost model, which charges
//! per-event cycle costs that differ between the paper's architectures —
//! RISC-V context switches being the expensive case its conclusion discusses.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use apex_lite::trace::{self, Cat, ThreadLabel};
use crossbeam_deque::{Injector, Steal, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};

use crate::future::{pair, Future};

pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Stats {
    spawned: AtomicU64,
    executed: AtomicU64,
    stolen: AtomicU64,
    parked: AtomicU64,
    yields: AtomicU64,
    panics: AtomicU64,
}

/// Per-worker event counters (the `/runtime/worker{N}/...` counters in the
/// apex-lite namespace). Kept separate from the global [`Stats`] totals so
/// the hot paths touch one extra same-core atomic, not a shared one.
///
/// `busy_ns`/`park_ns` are always-on wall-clock accounting (two
/// `Instant`-reads per task / park wait, no allocation): they feed the
/// `/runtime/imbalance` max/mean-busy gauge and the per-worker utilization
/// counters even when span tracing is disabled.
#[derive(Default)]
struct WorkerCounters {
    executed: AtomicU64,
    stolen: AtomicU64,
    parked: AtomicU64,
    yields: AtomicU64,
    busy_ns: AtomicU64,
    park_ns: AtomicU64,
}

/// Snapshot of one worker's event counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed to completion.
    pub tasks_executed: u64,
    /// Successful steals this worker performed.
    pub steals: u64,
    /// Times this worker parked for lack of work.
    pub parks: u64,
    /// Cooperative yields on this worker.
    pub yields: u64,
    /// Wall-clock nanoseconds spent executing tasks.
    pub busy_ns: u64,
    /// Wall-clock nanoseconds spent parked waiting for work.
    pub park_ns: u64,
}

/// Snapshot of scheduler event counts since construction (or the last
/// [`Runtime::reset_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Tasks submitted to the scheduler.
    pub tasks_spawned: u64,
    /// Tasks executed to completion (each implies one context switch).
    pub tasks_executed: u64,
    /// Successful steals from another worker's deque.
    pub steals: u64,
    /// Times a worker went to sleep for lack of work.
    pub parks: u64,
    /// Cooperative yields (a waiting worker executing someone else's task).
    pub yields: u64,
    /// Tasks that panicked (caught; the owning future re-raises).
    pub panics: u64,
}

impl RuntimeStats {
    /// Per-interval sample: the events counted since `prev` was taken.
    /// Saturating, so per-step sampling never requires zeroing the shared
    /// counters mid-run (and survives a concurrent [`Runtime::reset_stats`]).
    pub fn delta(&self, prev: &RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            tasks_spawned: self.tasks_spawned.saturating_sub(prev.tasks_spawned),
            tasks_executed: self.tasks_executed.saturating_sub(prev.tasks_executed),
            steals: self.steals.saturating_sub(prev.steals),
            parks: self.parks.saturating_sub(prev.parks),
            yields: self.yields.saturating_sub(prev.yields),
            panics: self.panics.saturating_sub(prev.panics),
        }
    }
}

pub(crate) struct Shared {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    sleepers: AtomicU64,
    stats: Stats,
    workers: Vec<WorkerCounters>,
    /// Trace process lane for this runtime's threads (locality id in
    /// cluster runs, 0 otherwise).
    pid: u32,
    threads: usize,
}

struct WorkerCtx {
    shared: Arc<Shared>,
    index: usize,
    deque: Deque<Task>,
}

thread_local! {
    static CTX: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

impl Shared {
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep_lock.lock();
            self.wake.notify_one();
        }
    }

    fn wake_all(&self) {
        let _g = self.sleep_lock.lock();
        self.wake.notify_all();
    }

    /// Pop or steal one task, from the perspective of worker `index`
    /// (local deque → injector → other workers' deques).
    fn find_task(&self, local: &Deque<Task>, index: usize) -> Option<Task> {
        if let Some(t) = local.pop() {
            return Some(t);
        }
        loop {
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // Steal round: start from a pseudo-random neighbour to avoid
        // convoying on worker 0.
        let n = self.stealers.len();
        if n > 1 {
            let start = (index * 7 + 3) % n;
            for k in 0..n {
                let victim = (start + k) % n;
                if victim == index {
                    continue;
                }
                loop {
                    match self.stealers[victim].steal() {
                        Steal::Success(t) => {
                            self.stats.stolen.fetch_add(1, Ordering::Relaxed);
                            self.workers[index].stolen.fetch_add(1, Ordering::Relaxed);
                            trace::instant(Cat::Sched, "steal");
                            return Some(t);
                        }
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
            }
        }
        None
    }

    fn run_task(&self, task: Task, worker: Option<usize>) {
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = worker {
            self.workers[i].executed.fetch_add(1, Ordering::Relaxed);
        }
        let start = worker.map(|_| trace::now_ns());
        let _span = trace::span(Cat::Task, "execute");
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
            // Futures carry their own panic payloads; a detached task that
            // panics is counted and otherwise dropped, keeping workers alive.
            self.stats.panics.fetch_add(1, Ordering::Relaxed);
        }
        if let (Some(i), Some(s)) = (worker, start) {
            self.workers[i]
                .busy_ns
                .fetch_add(trace::now_ns().saturating_sub(s), Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            tasks_spawned: self.stats.spawned.load(Ordering::Relaxed),
            tasks_executed: self.stats.executed.load(Ordering::Relaxed),
            steals: self.stats.stolen.load(Ordering::Relaxed),
            parks: self.stats.parked.load(Ordering::Relaxed),
            yields: self.stats.yields.load(Ordering::Relaxed),
            panics: self.stats.panics.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for c in [
            &self.stats.spawned,
            &self.stats.executed,
            &self.stats.stolen,
            &self.stats.parked,
            &self.stats.yields,
            &self.stats.panics,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        for w in &self.workers {
            for c in [
                &w.executed,
                &w.stolen,
                &w.parked,
                &w.yields,
                &w.busy_ns,
                &w.park_ns,
            ] {
                c.store(0, Ordering::Relaxed);
            }
        }
    }

    fn worker_snapshot(&self) -> Vec<WorkerStats> {
        self.workers
            .iter()
            .map(|w| WorkerStats {
                tasks_executed: w.executed.load(Ordering::Relaxed),
                steals: w.stolen.load(Ordering::Relaxed),
                parks: w.parked.load(Ordering::Relaxed),
                yields: w.yields.load(Ordering::Relaxed),
                busy_ns: w.busy_ns.load(Ordering::Relaxed),
                park_ns: w.park_ns.load(Ordering::Relaxed),
            })
            .collect()
    }
}

fn worker_main(shared: Arc<Shared>, index: usize, deque: Deque<Task>) {
    // Announce the trace identity before any event: Chrome lanes read
    // "locality{pid} / worker{index}". Never allocates (tracing may be off).
    trace::set_thread_label(shared.pid, ThreadLabel::Worker(index as u32));
    CTX.with(|c| {
        *c.borrow_mut() = Some(WorkerCtx {
            shared: Arc::clone(&shared),
            index,
            deque,
        })
    });
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let task = CTX.with(|c| {
            let borrow = c.borrow();
            let ctx = borrow.as_ref().expect("worker context missing");
            ctx.shared.find_task(&ctx.deque, ctx.index)
        });
        match task {
            Some(t) => shared.run_task(t, Some(index)),
            None => {
                shared.stats.parked.fetch_add(1, Ordering::Relaxed);
                shared.workers[index].parked.fetch_add(1, Ordering::Relaxed);
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                let park_start = trace::now_ns();
                {
                    let _span = trace::span(Cat::Sched, "park");
                    let mut g = shared.sleep_lock.lock();
                    // Re-check under the lock: a producer may have pushed and
                    // notified between our failed search and this point.
                    if shared.injector.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                        shared.wake.wait_for(&mut g, Duration::from_micros(500));
                    }
                }
                shared.workers[index].park_ns.fetch_add(
                    trace::now_ns().saturating_sub(park_start),
                    Ordering::Relaxed,
                );
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    CTX.with(|c| *c.borrow_mut() = None);
}

/// True when the calling thread is a worker of *any* [`Runtime`].
pub(crate) fn on_worker() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Index of the runtime worker executing the current task, or `None` when
/// called off a worker thread (e.g. from `main`). Worker-affine consumers —
/// the scratch/recycle pools' per-worker free-lists — use this to pick a
/// shard without contending on one global lock.
pub fn current_worker() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.index))
}

/// If on a worker thread, pop/steal and execute one ready task.
/// Returns `true` if a task was executed. This is how blocking operations
/// *help* instead of stalling a core (HPX: suspending the hpx-thread lets
/// the worker pick up other work).
pub(crate) fn help_one() -> bool {
    let found = CTX.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().and_then(|ctx| {
            ctx.shared
                .find_task(&ctx.deque, ctx.index)
                .map(|t| (Arc::clone(&ctx.shared), ctx.index, t))
        })
    });
    match found {
        Some((shared, index, t)) => {
            shared.stats.yields.fetch_add(1, Ordering::Relaxed);
            shared.workers[index].yields.fetch_add(1, Ordering::Relaxed);
            trace::instant(Cat::Sched, "yield");
            shared.run_task(t, Some(index));
            true
        }
        None => false,
    }
}

/// Cloneable, `Send` handle for submitting work to a [`Runtime`].
///
/// The handle stays valid after the runtime shuts down; tasks submitted then
/// run inline on the submitting thread (documented degraded mode, mirroring
/// HPX executing on the calling thread after `hpx::finalize`).
#[derive(Clone)]
pub struct Handle {
    shared: Arc<Shared>,
}

impl Handle {
    /// Spawn `f` as a task, returning a [`Future`] for its result —
    /// `hpx::async`.
    pub fn spawn<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (promise, future) = pair();
        self.spawn_detached(move || {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                Ok(v) => promise.set_value(v),
                Err(e) => promise.set_panic(e),
            }
        });
        future
    }

    /// Spawn a fire-and-forget task — `hpx::post`.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.stats.spawned.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.executed.fetch_add(1, Ordering::Relaxed);
            let _span = trace::span(Cat::Task, "execute");
            f();
            return;
        }
        push_task(&self.shared, Box::new(f));
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.threads
    }

    /// Snapshot of the scheduler event counters.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.snapshot()
    }

    /// Per-worker event counters, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared.worker_snapshot()
    }

    /// Register this runtime's counters with an apex-lite registry under
    /// `prefix` (e.g. `/runtime`): scheduler totals, per-worker
    /// `worker{N}/...` breakdowns (now including wall-clock `busy_ns` /
    /// `park_ns`), and the `imbalance` max/mean-busy gauge. The provider
    /// captures a clone of this handle, so it stays valid for the
    /// registry's lifetime.
    pub fn register_counters(&self, registry: &mut apex_lite::CounterRegistry, prefix: &str) {
        let h = self.clone();
        registry.register(prefix, move |c| {
            let s = h.stats();
            c.count("tasks_spawned", s.tasks_spawned);
            c.count("tasks_executed", s.tasks_executed);
            c.count("steals", s.steals);
            c.count("parks", s.parks);
            c.count("yields", s.yields);
            c.count("panics", s.panics);
            let per = h.worker_stats();
            c.gauge("imbalance", imbalance(&per));
            for (i, w) in per.into_iter().enumerate() {
                c.count(&format!("worker{i}/executed"), w.tasks_executed);
                c.count(&format!("worker{i}/steals"), w.steals);
                c.count(&format!("worker{i}/parks"), w.parks);
                c.count(&format!("worker{i}/yields"), w.yields);
                c.count(&format!("worker{i}/busy_ns"), w.busy_ns);
                c.count(&format!("worker{i}/park_ns"), w.park_ns);
            }
        });
    }
}

/// Load-imbalance ratio over a set of workers: max busy time / mean busy
/// time. `1.0` is perfectly balanced; `0.0` means no recorded busy time
/// (or no workers). This is the `/runtime/imbalance` gauge the ROADMAP's
/// scale-out and autotuner items consume.
pub fn imbalance(stats: &[WorkerStats]) -> f64 {
    let total: u64 = stats.iter().map(|w| w.busy_ns).sum();
    if stats.is_empty() || total == 0 {
        return 0.0;
    }
    let max = stats.iter().map(|w| w.busy_ns).max().unwrap_or(0) as f64;
    max / (total as f64 / stats.len() as f64)
}

fn push_task(shared: &Arc<Shared>, task: Task) {
    shared.stats.spawned.fetch_add(1, Ordering::Relaxed);
    let leftover = CTX.with(|c| {
        let borrow = c.borrow();
        match borrow.as_ref() {
            Some(ctx) if Arc::ptr_eq(&ctx.shared, shared) => {
                ctx.deque.push(task);
                None
            }
            _ => Some(task),
        }
    });
    if let Some(t) = leftover {
        shared.injector.push(t);
    }
    shared.wake_one();
}

/// The HPX-like runtime: a pool of worker threads executing lightweight
/// tasks with work stealing. Dropping the runtime shuts the pool down
/// (pending queued tasks are abandoned — call [`Runtime::wait_idle`] or hold
/// futures if you need completion).
pub struct Runtime {
    shared: Arc<Shared>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Start a runtime with `threads` workers (≥1, like `--hpx:threads=N`).
    pub fn new(threads: usize) -> Self {
        Self::new_labeled(threads, 0)
    }

    /// Start a runtime whose worker threads carry trace process lane `pid`
    /// (the distrib cluster passes the locality id, so a merged trace shows
    /// one Chrome process per locality).
    pub fn new_labeled(threads: usize, pid: u32) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        let deques: Vec<Deque<Task>> = (0..threads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(Deque::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicU64::new(0),
            stats: Stats::default(),
            workers: (0..threads).map(|_| WorkerCounters::default()).collect(),
            pid,
            threads,
        });
        let joins = deques
            .into_iter()
            .enumerate()
            .map(|(i, d)| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amt-worker-{i}"))
                    .spawn(move || worker_main(s, i, d))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Runtime { shared, joins }
    }

    /// Run `f` against a fresh runtime of `threads` workers, then tear it
    /// down — the shape every experiment uses for its core sweep.
    pub fn with<R>(threads: usize, f: impl FnOnce(&Runtime) -> R) -> R {
        let rt = Runtime::new(threads);
        f(&rt)
    }

    /// Submission handle (cloneable, `Send`).
    pub fn handle(&self) -> Handle {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.threads
    }

    /// Snapshot of the scheduler event counters.
    pub fn stats(&self) -> RuntimeStats {
        self.shared.snapshot()
    }

    /// Per-worker event counters, indexed by worker id.
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared.worker_snapshot()
    }

    /// Zero the event counters (between experiment repetitions).
    pub fn reset_stats(&self) {
        self.shared.reset();
    }

    /// Spawn directly from the runtime (convenience over `handle().spawn`).
    pub fn spawn<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.handle().spawn(f)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        // The last owner may be dropped inside one of this runtime's own
        // tasks (a task holding the final `Arc` of whatever owns the
        // runtime). A thread cannot join itself; shutdown is already
        // flagged, so that worker exits as soon as its task returns.
        let me = std::thread::current().id();
        for j in self.joins.drain(..) {
            if j.thread().id() != me {
                let _ = j.join();
            }
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.shared.threads)
            .field("stats", &self.shared.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn last_owner_dropped_inside_a_task_shuts_down_without_joining_itself() {
        // Regression: `Drop` joined every worker, the calling one included
        // ("Resource deadlock avoided" panic on the worker thread).
        let rt = Arc::new(Runtime::new(2));
        let handle = rt.handle();
        let (tx, rx) = std::sync::mpsc::channel();
        let owner = Arc::clone(&rt);
        let task = handle.spawn(move || {
            // Wait until this task holds the only owner, then drop it here.
            rx.recv().expect("main thread released its owner");
            let rt = Arc::try_unwrap(owner).expect("task holds the last owner");
            drop(rt);
        });
        drop(rt);
        tx.send(()).expect("task is waiting");
        task.get(); // re-raises the task's panic, if any
        assert_eq!(handle.stats().panics, 0);
        // Degraded mode after shutdown: work runs inline on the submitter.
        assert_eq!(handle.spawn(|| 7).get(), 7);
    }

    #[test]
    fn spawn_and_get() {
        let rt = Runtime::new(2);
        let f = rt.spawn(|| 7 * 6);
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn many_tasks_all_execute() {
        let rt = Runtime::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let futures: Vec<_> = (0..1000)
            .map(|_| {
                let c = Arc::clone(&counter);
                rt.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for f in futures {
            f.get();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn nested_spawn_from_worker() {
        let rt = Runtime::new(2);
        let h = rt.handle();
        let f = rt.spawn(move || {
            let inner = h.spawn(|| 10);
            inner.get() + 1
        });
        assert_eq!(f.get(), 11);
    }

    #[test]
    fn deeply_nested_spawns_do_not_deadlock_on_one_thread() {
        // A single worker must be able to complete a chain of blocking
        // nested spawns by helping.
        let rt = Runtime::new(1);
        fn nest(h: Handle, depth: usize) -> usize {
            if depth == 0 {
                return 0;
            }
            let h2 = h.clone();
            let f = h.spawn(move || nest(h2, depth - 1) + 1);
            f.get()
        }
        let h = rt.handle();
        let f = rt.spawn(move || nest(h, 50));
        assert_eq!(f.get(), 50);
    }

    #[test]
    fn stats_count_spawn_and_execute() {
        let rt = Runtime::new(2);
        let fs: Vec<_> = (0..100).map(|i| rt.spawn(move || i)).collect();
        for f in fs {
            f.get();
        }
        let s = rt.stats();
        assert!(s.tasks_spawned >= 100);
        assert!(s.tasks_executed >= 100);
        rt.reset_stats();
        assert_eq!(rt.stats().tasks_spawned, 0);
    }

    #[test]
    fn panicking_task_propagates_through_future() {
        let rt = Runtime::new(2);
        let f = rt.spawn(|| -> i32 { panic!("boom") });
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()));
        assert!(res.is_err());
        // Pool survives:
        assert_eq!(rt.spawn(|| 1).get(), 1);
    }

    #[test]
    fn detached_panic_does_not_kill_workers() {
        let rt = Runtime::new(1);
        rt.handle().spawn_detached(|| panic!("ignored"));
        // The single worker must still process new work.
        assert_eq!(rt.spawn(|| 5).get(), 5);
        assert!(rt.stats().panics >= 1);
    }

    #[test]
    fn handle_survives_runtime_drop() {
        let rt = Runtime::new(1);
        let h = rt.handle();
        drop(rt);
        // Degraded inline mode.
        assert_eq!(h.spawn(|| 3).get(), 3);
    }

    #[test]
    fn steals_happen_with_imbalanced_load() {
        let rt = Runtime::new(4);
        // One producer task spawning many children from its own deque
        // forces the other three workers to steal.
        let h = rt.handle();
        let f = rt.spawn(move || {
            let kids: Vec<_> = (0..400)
                .map(|i| {
                    h.spawn(move || {
                        // Spin long enough that children overlap and idle
                        // workers wake up to steal.
                        let mut x = i as u64;
                        for _ in 0..200_000 {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(x)
                    })
                })
                .collect();
            let n = kids.len();
            for k in kids {
                k.get();
            }
            n
        });
        assert_eq!(f.get(), 400);
        assert!(rt.stats().steals > 0, "expected steals: {:?}", rt.stats());
    }

    #[test]
    fn with_tears_down() {
        let out = Runtime::with(3, |rt| {
            assert_eq!(rt.num_threads(), 3);
            rt.spawn(|| 2).get()
        });
        assert_eq!(out, 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Runtime::new(0);
    }

    #[test]
    fn stats_delta_is_per_interval_and_saturating() {
        let rt = Runtime::new(2);
        for f in (0..50).map(|i| rt.spawn(move || i)).collect::<Vec<_>>() {
            f.get();
        }
        let prev = rt.stats();
        for f in (0..30).map(|i| rt.spawn(move || i)).collect::<Vec<_>>() {
            f.get();
        }
        let d = rt.stats().delta(&prev);
        assert!(d.tasks_spawned >= 30 && d.tasks_spawned < 80);
        // A reset between samples saturates to zero instead of wrapping.
        rt.reset_stats();
        let after_reset = rt.stats().delta(&prev);
        assert_eq!(after_reset.tasks_spawned, 0);
    }

    #[test]
    fn per_worker_stats_account_for_all_executions() {
        let rt = Runtime::new(2);
        for f in (0..200).map(|i| rt.spawn(move || i)).collect::<Vec<_>>() {
            f.get();
        }
        let total = rt.stats();
        let per = rt.worker_stats();
        assert_eq!(per.len(), 2);
        let executed: u64 = per.iter().map(|w| w.tasks_executed).sum();
        assert_eq!(executed, total.tasks_executed);
        let steals: u64 = per.iter().map(|w| w.steals).sum();
        assert_eq!(steals, total.steals);
    }

    #[test]
    fn counter_registry_exports_runtime_namespace() {
        let rt = Runtime::new(2);
        let mut reg = apex_lite::CounterRegistry::new();
        rt.handle().register_counters(&mut reg, "/runtime");
        for f in (0..50).map(|i| rt.spawn(move || i)).collect::<Vec<_>>() {
            f.get();
        }
        let s = reg.sample();
        assert!(s.count("/runtime/tasks_executed") >= 50);
        assert!(s.get("/runtime/worker0/executed").is_some());
        assert!(s.get("/runtime/worker1/steals").is_some());
        assert!(s.get("/runtime/worker0/busy_ns").is_some());
        assert!(s.get("/runtime/worker1/park_ns").is_some());
        assert!(
            matches!(
                s.get("/runtime/imbalance"),
                Some(apex_lite::CounterValue::Gauge(_))
            ),
            "imbalance must be a gauge: {:?}",
            s.get("/runtime/imbalance")
        );
        // Totals + imbalance gauge + 6 counters per worker.
        assert_eq!(s.len(), 6 + 1 + 2 * 6);
    }

    #[test]
    fn busy_time_accrues_and_imbalance_is_sane() {
        let rt = Runtime::new(2);
        let fs: Vec<_> = (0..64)
            .map(|i| {
                rt.spawn(move || {
                    let mut x = i as u64;
                    for _ in 0..100_000 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(x)
                })
            })
            .collect();
        for f in fs {
            f.get();
        }
        let per = rt.worker_stats();
        let busy: u64 = per.iter().map(|w| w.busy_ns).sum();
        assert!(busy > 0, "no busy time recorded: {per:?}");
        let r = imbalance(&per);
        // max/mean over n workers is bounded by [1, n].
        assert!((1.0..=per.len() as f64).contains(&r), "imbalance {r}");
        // Parked workers accrue park time (the pool idles after the burst).
        std::thread::sleep(Duration::from_millis(5));
        let parked: u64 = rt.worker_stats().iter().map(|w| w.park_ns).sum();
        assert!(parked > 0, "no park time recorded");
    }

    #[test]
    fn imbalance_edge_cases() {
        assert_eq!(imbalance(&[]), 0.0);
        let zero = WorkerStats::default();
        assert_eq!(imbalance(&[zero, zero]), 0.0);
        let a = WorkerStats {
            busy_ns: 300,
            ..WorkerStats::default()
        };
        let b = WorkerStats {
            busy_ns: 100,
            ..WorkerStats::default()
        };
        // max 300, mean 200 → 1.5.
        assert!((imbalance(&[a, b]) - 1.5).abs() < 1e-12);
        // Perfectly balanced → 1.0.
        assert!((imbalance(&[a, a]) - 1.0).abs() < 1e-12);
    }
}
