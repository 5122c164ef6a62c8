//! Work-stealing task scheduler — the heart of the HPX-like runtime.
//!
//! One OS thread per configured core, each with a LIFO deque
//! ([`crate::deque`]), a global FIFO injector for external submissions, and
//! stealing from the other workers' deques. A worker that runs dry probes the
//! queues for a bounded number of lock-free rounds, then parks on a condvar
//! with a short timeout; a push wakes at most one sleeper per burst
//! (DESIGN §5.7 has the protocol and its no-lost-wake-up argument).
//!
//! Every scheduler event (spawn, execution, steal, park, yield) is counted;
//! [`RuntimeStats`] snapshots feed the `rv-machine` cost model, which charges
//! per-event cycle costs that differ between the paper's architectures —
//! RISC-V context switches being the expensive case its conclusion discusses.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use apex_lite::trace::{self, Cat, ThreadLabel};

use crate::deque::{Injector, Stealer, Worker as Deque};
use crate::future::{pair, Future};
use crate::lock;

pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Polls of the queues, a `spin_loop` hint apart, by a worker that ran dry
/// before it parks: about as long as one push takes, so a push that is under
/// way is met without a system call on either side. Deliberately no longer:
/// a worker that outruns its producer and keeps polling takes every task the
/// moment it appears, and the two then trade cache lines task by task (the
/// empty-task cases of `bench_amt` ran 1.5–2× slower with 32 polls and
/// `yield_now` than with 4); a parked worker lets a backlog build that it
/// then drains in batches.
const PROBE_ROUNDS: u32 = 4;
/// A parked worker looks at the queues again after this long, wake-up or not.
const PARK_TIMEOUT: Duration = Duration::from_micros(500);

/// One thread's event counters (the `/runtime/worker{N}/...` counters in the
/// apex-lite namespace), on cache lines of their own: the hot paths touch
/// only the running thread's lines, and the totals are summed on demand.
/// There is one per worker plus one for every thread that is not a worker
/// of this runtime.
///
/// `busy_ns`/`park_ns` are always-on wall-clock accounting that feeds the
/// `/runtime/imbalance` max/mean-busy gauge and the per-worker utilization
/// counters even when span tracing is disabled. `busy_ns` accrues per busy
/// *interval* — from the moment a worker finds work after running dry to
/// the moment it runs dry again — so a task costs no clock read; the open
/// interval is added when it closes.
#[derive(Default)]
#[repr(align(128))]
struct Counters {
    spawned: AtomicU64,
    executed: AtomicU64,
    stolen: AtomicU64,
    parked: AtomicU64,
    yields: AtomicU64,
    busy_ns: AtomicU64,
    park_ns: AtomicU64,
}

impl Counters {
    fn all(&self) -> [&AtomicU64; 7] {
        [
            &self.spawned,
            &self.executed,
            &self.stolen,
            &self.parked,
            &self.yields,
            &self.busy_ns,
            &self.park_ns,
        ]
    }
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
    /// Wall-clock nanoseconds spent executing tasks, up to the last time
    /// this worker ran dry.
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
    /// Tasks that panicked (caught; the payload goes to the task's joiner,
    /// which re-raises it). Counted once the task has finished unwinding,
    /// which is after the joiner can see the payload.
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
    /// Held by a worker from its last look at the queues until it waits, and
    /// by whoever notifies `wake`. `sleepers` changes and `wake_pending` is
    /// cleared only under it.
    sleep_lock: Mutex<()>,
    wake: Condvar,
    /// Workers between "about to wait" and "woke up".
    sleepers: AtomicUsize,
    /// A wake-up is on its way to a sleeper that has not yet looked at the
    /// queues: further pushes leave the waking to that worker.
    wake_pending: AtomicBool,
    panics: AtomicU64,
    /// One per worker, then one for all other threads.
    counters: Vec<Counters>,
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

/// What a task unwinds with after it has handed its panic payload to its
/// joiner (promise, scope, receiver): the scheduler still sees — and
/// counts — a panicked task, and the payload exists once.
struct PayloadDelivered;

/// End a task whose panic payload has been delivered to its joiner.
pub(crate) fn unwind_after_delivery() -> ! {
    std::panic::resume_unwind(Box::new(PayloadDelivered))
}

impl Shared {
    /// Counters of the threads that are not workers of this runtime.
    fn off_worker(&self) -> &Counters {
        &self.counters[self.threads]
    }

    /// Is there a task in any queue? Lock-free.
    fn work_visible(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// After a push: wake one sleeper, unless there is none or one is
    /// already on its way.
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) == 0
            || self.wake_pending.load(Ordering::SeqCst)
            || self.wake_pending.swap(true, Ordering::SeqCst)
        {
            return;
        }
        let _g = lock(&self.sleep_lock);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.wake.notify_one();
        } else {
            // Everyone woke up in the meantime and will find the task.
            self.wake_pending.store(false, Ordering::SeqCst);
        }
    }

    fn wake_all(&self) {
        let _g = lock(&self.sleep_lock);
        self.wake.notify_all();
    }

    /// Pop or steal one task, from the perspective of worker `index`
    /// (local deque → injector → other workers' deques). Takes no lock on a
    /// queue that reads empty.
    fn find_task(&self, local: &Deque<Task>, index: usize) -> Option<Task> {
        if let Some(t) = local.pop() {
            return Some(t);
        }
        if let Some(t) = self.injector.steal_batch_and_pop(local) {
            return Some(t);
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
                if let Some(t) = self.stealers[victim].steal() {
                    self.counters[index].stolen.fetch_add(1, Ordering::Relaxed);
                    trace::instant(Cat::Sched, "steal");
                    return Some(t);
                }
            }
        }
        None
    }

    /// The bounded search of a worker that ran dry, before it parks.
    fn probe(&self, local: &Deque<Task>, index: usize) -> Option<Task> {
        (0..PROBE_ROUNDS).find_map(|_| {
            std::hint::spin_loop();
            self.find_task(local, index)
        })
    }

    /// Sleep until a push wakes this worker or the timeout passes — unless
    /// a task shows up first.
    fn park(&self, index: usize) {
        let mut g = lock(&self.sleep_lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // A pusher looks at `sleepers` after its push; this look at the
        // queues comes after the increment. One of the two sees the other.
        if !self.work_visible() && !self.shutdown.load(Ordering::SeqCst) {
            let counters = &self.counters[index];
            counters.parked.fetch_add(1, Ordering::Relaxed);
            let start = trace::now_ns();
            {
                let _span = trace::span(Cat::Sched, "park");
                g = self
                    .wake
                    .wait_timeout(g, PARK_TIMEOUT)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            counters
                .park_ns
                .fetch_add(trace::now_ns().saturating_sub(start), Ordering::Relaxed);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        // Whatever was pushed while the wake-up was on its way is this
        // worker's to find, and to pass on (`worker_loop`).
        self.wake_pending.store(false, Ordering::SeqCst);
        drop(g);
    }

    /// Run `task` on the thread whose counters are `counters[slot]`.
    fn run_task(&self, task: Task, slot: usize) {
        self.counters[slot].executed.fetch_add(1, Ordering::Relaxed);
        let _span = trace::span(Cat::Task, "execute");
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
            // The joiner, if there is one, already has the payload; a
            // detached task that panics is counted and otherwise dropped,
            // keeping workers alive.
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> RuntimeStats {
        let sum = |f: fn(&Counters) -> &AtomicU64| -> u64 {
            self.counters
                .iter()
                .map(|c| f(c).load(Ordering::Relaxed))
                .sum()
        };
        RuntimeStats {
            tasks_spawned: sum(|c| &c.spawned),
            tasks_executed: sum(|c| &c.executed),
            steals: sum(|c| &c.stolen),
            parks: sum(|c| &c.parked),
            yields: sum(|c| &c.yields),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.panics.store(0, Ordering::Relaxed);
        for c in self.counters.iter().flat_map(Counters::all) {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// The workers' counters. Tasks run by other threads (a handle used
    /// after shutdown) are in the totals only.
    fn worker_snapshot(&self) -> Vec<WorkerStats> {
        self.counters[..self.threads]
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
            shared,
            index,
            deque,
        })
    });
    // Shared borrow for the life of the loop: tasks re-borrow it the same
    // way (`Handle::spawn_boxed`, `help_one`).
    CTX.with(|c| worker_loop(c.borrow().as_ref().expect("worker context just set")));
    CTX.with(|c| *c.borrow_mut() = None);
}

fn worker_loop(ctx: &WorkerCtx) {
    let (shared, index) = (&*ctx.shared, ctx.index);
    // Start of the open busy interval; `None` while the worker is dry.
    let mut busy_since: Option<u64> = None;
    let close_interval = |since: &mut Option<u64>| {
        if let Some(start) = since.take() {
            shared.counters[index]
                .busy_ns
                .fetch_add(trace::now_ns().saturating_sub(start), Ordering::Relaxed);
        }
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        let task = match shared.find_task(&ctx.deque, index) {
            Some(t) => t,
            None => {
                close_interval(&mut busy_since);
                match shared.probe(&ctx.deque, index) {
                    Some(t) => t,
                    None => {
                        shared.park(index);
                        continue;
                    }
                }
            }
        };
        if busy_since.is_none() {
            busy_since = Some(trace::now_ns());
            // Pushes that found a wake-up already under way left theirs to
            // the worker it was meant for: pass it on if work is left.
            if shared.work_visible() {
                shared.wake_one();
            }
        }
        shared.run_task(task, index);
    }
    close_interval(&mut busy_since);
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
    CTX.with(|c| {
        let borrow = c.borrow();
        let Some(ctx) = borrow.as_ref() else {
            return false;
        };
        let Some(task) = ctx.shared.find_task(&ctx.deque, ctx.index) else {
            return false;
        };
        ctx.shared.counters[ctx.index]
            .yields
            .fetch_add(1, Ordering::Relaxed);
        trace::instant(Cat::Sched, "yield");
        // The helper is inside a task, so its busy interval is open.
        ctx.shared.run_task(task, ctx.index);
        true
    })
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
                Err(e) => promise.fail_task(e),
            }
        });
        future
    }

    /// Spawn a fire-and-forget task — `hpx::post`.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.spawn_boxed(Box::new(f));
    }

    /// [`Handle::spawn_detached`] for a task that is already boxed.
    pub(crate) fn spawn_boxed(&self, task: Task) {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.off_worker().spawned.fetch_add(1, Ordering::Relaxed);
            shared.run_task(task, shared.threads);
            return;
        }
        let leftover = CTX.with(|c| match c.borrow().as_ref() {
            Some(ctx) if Arc::ptr_eq(&ctx.shared, shared) => {
                shared.counters[ctx.index]
                    .spawned
                    .fetch_add(1, Ordering::Relaxed);
                ctx.deque.push(task);
                None
            }
            _ => Some(task),
        });
        if let Some(task) = leftover {
            shared.off_worker().spawned.fetch_add(1, Ordering::Relaxed);
            shared.injector.push(task);
        }
        shared.wake_one();
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
            sleepers: AtomicUsize::new(0),
            wake_pending: AtomicBool::new(false),
            panics: AtomicU64::new(0),
            counters: (0..=threads).map(|_| Counters::default()).collect(),
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
