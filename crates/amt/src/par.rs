//! Parallel algorithms with execution policies — HPX's implementation of the
//! C++17/20 parallel algorithms (`hpx::for_each(hpx::execution::par, …)`),
//! which is what the paper's Fig. 4b benchmark measures.
//!
//! Algorithms chunk their index range into `chunks_per_thread × threads`
//! tasks (HPX's default static chunker has the same shape) and run them
//! under a [`scope`], so closures may borrow from the caller's stack.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use apex_lite::trace::{self, Cat};

use crate::future::{unwrap_outcome, PanicPayload};
use crate::runtime::{help_one, on_worker, unwind_after_delivery};
use crate::{lock, Future, Handle};

/// Execution policy selector, mirroring `hpx::execution`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionPolicy {
    /// Sequential on the calling thread — `hpx::execution::seq`.
    Seq,
    /// Parallel tasks — `hpx::execution::par`.
    Par,
}

impl ExecutionPolicy {
    /// Whether this policy may execute on multiple tasks.
    pub fn is_parallel(self) -> bool {
        !matches!(self, ExecutionPolicy::Seq)
    }
}

/// Default number of chunks for `len` items on `threads` workers: four waves
/// per worker, never more chunks than items.
pub fn default_chunks(threads: usize, len: usize) -> usize {
    (threads * 4).clamp(1, len.max(1))
}

struct ScopeSync {
    pending: AtomicUsize,
    /// The scope's body has returned and its caller waits for `pending` to
    /// reach zero: only then is a zero worth a notify (a system call). While
    /// the body is still spawning, workers that keep up with it pass through
    /// zero all the time.
    joining: AtomicBool,
    lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

impl ScopeSync {
    /// Run `f`, one of the scope's tasks: keep its panic for the join, then
    /// count it out. Returns whether it panicked.
    fn run(&self, f: impl FnOnce()) -> bool {
        // `f` is consumed — run and dropped — inside `catch_unwind`.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err();
        let delivered = panicked.is_some();
        if let Some(e) = panicked {
            lock(&self.panic).get_or_insert(e);
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 && self.joining.load(Ordering::SeqCst) {
            let _g = lock(&self.lock);
            self.done.notify_all();
        }
        delivered
    }
}

/// A structured-concurrency scope: tasks spawned on it may borrow anything
/// that outlives the `scope` call, because `scope` does not return until all
/// of them finished (helping the scheduler while it waits). As with
/// `std::thread::scope`, a task may spawn on the scope that runs it.
pub struct Scope<'scope, 'env: 'scope> {
    handle: Handle,
    sync: Arc<ScopeSync>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// Erase the `'scope` lifetime of a scoped task so it can ride the
/// runtime's `'static` spawn queue.
///
/// # Safety
///
/// The caller must ensure the returned closure runs (or is dropped) before
/// `'scope` ends, i.e. before anything it borrows is invalidated. In this
/// module that contract is upheld by [`scope`]: every erased closure runs
/// inside [`ScopeSync::run`], which decrements `ScopeSync::pending` exactly
/// once — on the normal and on the unwinding path, after the closure has run
/// and been dropped — and `scope` does not return, even when a task
/// panicked, until `pending` is back to zero.
unsafe fn erase<'scope>(f: Box<dyn FnOnce() + Send + 'scope>) -> Box<dyn FnOnce() + Send> {
    std::mem::transmute(f)
}

/// [`erase`] for a continuation, which rides a future's `'static` slot.
///
/// # Safety
///
/// As for [`erase`].
unsafe fn erase_with<'scope, T>(
    f: Box<dyn FnOnce(T) + Send + 'scope>,
) -> Box<dyn FnOnce(T) + Send> {
    std::mem::transmute(f)
}

impl<'scope> Scope<'scope, '_> {
    /// Spawn a borrowing task on the scope.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.sync.pending.fetch_add(1, Ordering::SeqCst);
        let sync = Arc::clone(&self.sync);
        // One allocation: the bookkeeping wraps `f` before the whole is boxed.
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if sync.run(f) {
                unwind_after_delivery();
            }
        });
        // SAFETY: the task above decrements `pending` on every exit path,
        // after `f` is gone, and `scope()` blocks until `pending` returns to
        // zero, so everything `f` borrows outlives its use. What is left of
        // the task after the decrement (`sync`) borrows nothing.
        let task = unsafe { erase(task) };
        self.handle.spawn_boxed(task);
    }

    /// `Future::then` for a continuation that borrows: `f` runs with
    /// `future`'s value on the thread that completes it (here, if it is
    /// complete), no thread waits for it meanwhile, and `scope` does not
    /// return before `f` ran. Its panic is re-raised at the scope's join.
    pub fn then<T, F>(&'scope self, future: Future<T>, f: F)
    where
        T: Send + 'static,
        F: FnOnce(T) + Send + 'scope,
    {
        self.sync.pending.fetch_add(1, Ordering::SeqCst);
        let sync = Arc::clone(&self.sync);
        // SAFETY: as in `spawn`: `f` is consumed inside `ScopeSync::run`,
        // which counts it out after it is gone, and the scope waits for it.
        let f = unsafe { erase_with(Box::new(f)) };
        future.on_complete(move |outcome| {
            sync.run(|| f(unwrap_outcome(outcome)));
        });
    }
}

/// Run `f` with a [`Scope`]; returns after every scoped task completed.
/// The first panic from any scoped task, or from `f`, is re-raised here.
pub fn scope<'env, F, R>(handle: &Handle, f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    let sc = Scope {
        handle: handle.clone(),
        sync: Arc::new(ScopeSync {
            pending: AtomicUsize::new(0),
            joining: AtomicBool::new(false),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }),
        scope: PhantomData,
        env: PhantomData,
    };
    // A panicking body still waits for the tasks it spawned: they borrow
    // what its unwinding would free.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&sc)));
    let sync = &sc.sync;
    // Set before the first look at `pending`: the task that brings it to
    // zero looks at `joining` after its decrement, so one of the two sees
    // the other (and the timed wait below bounds what a bug here could cost).
    sync.joining.store(true, Ordering::SeqCst);
    // Wait for quiescence, helping if we are a worker. Never busy-spin:
    // when there is nothing to help with, nap on the scope's condvar (a
    // spinning waiter would starve the workers on oversubscribed hosts).
    let worker = on_worker();
    while sync.pending.load(Ordering::SeqCst) != 0 {
        if worker && help_one() {
            continue;
        }
        let g = lock(&sync.lock);
        if sync.pending.load(Ordering::SeqCst) != 0 {
            // On a worker the nap sits inside a task's span, which it must
            // not pass off as work (see `Future::get`).
            let _span = worker.then(|| trace::span(Cat::Sched, "wait"));
            drop(sync.done.wait_timeout(g, Duration::from_micros(200)));
        }
    }
    let result = result.unwrap_or_else(|e| std::panic::resume_unwind(e));
    if let Some(e) = lock(&sync.panic).take() {
        std::panic::resume_unwind(e);
    }
    result
}

/// Split `range` into at most `chunks` contiguous sub-ranges.
pub fn split_range(range: Range<usize>, chunks: usize) -> Vec<Range<usize>> {
    let len = range.len();
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = range.start;
    for i in 0..chunks {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    debug_assert_eq!(start, range.end);
    out
}

/// Index-space parallel loop over `chunks` tasks —
/// `hpx::experimental::for_loop` with the knob the paper's §3.2 highlights:
/// the Kokkos-HPX execution space lets the user steer how many tasks a
/// kernel is divided into.
pub fn for_loop_chunked<F>(
    handle: &Handle,
    policy: ExecutionPolicy,
    range: Range<usize>,
    chunks: usize,
    f: F,
) where
    F: Fn(usize) + Send + Sync,
{
    if range.is_empty() {
        return;
    }
    if !policy.is_parallel() || handle.num_threads() == 1 && chunks <= 1 {
        for i in range {
            f(i);
        }
        return;
    }
    let f = &f;
    scope(handle, |sc| {
        for sub in split_range(range, chunks) {
            sc.spawn(move || {
                for i in sub {
                    f(i);
                }
            });
        }
    });
}

/// Map-reduce over an index space — `hpx::transform_reduce`. The reduction
/// operator must be associative; partial results are combined in chunk order
/// so the result is deterministic for a fixed chunk count.
pub fn transform_reduce<R, M, B>(
    handle: &Handle,
    policy: ExecutionPolicy,
    range: Range<usize>,
    identity: R,
    map: M,
    reduce: B,
) -> R
where
    R: Send + Clone,
    M: Fn(usize) -> R + Send + Sync,
    B: Fn(R, R) -> R + Send + Sync,
{
    transform_reduce_chunked(
        handle,
        policy,
        range.clone(),
        default_chunks(handle.num_threads(), range.len()),
        identity,
        map,
        reduce,
    )
}

/// [`transform_reduce`] with an explicit chunk count.
pub fn transform_reduce_chunked<R, M, B>(
    handle: &Handle,
    policy: ExecutionPolicy,
    range: Range<usize>,
    chunks: usize,
    identity: R,
    map: M,
    reduce: B,
) -> R
where
    R: Send + Clone,
    M: Fn(usize) -> R + Send + Sync,
    B: Fn(R, R) -> R + Send + Sync,
{
    if range.is_empty() {
        return identity;
    }
    if !policy.is_parallel() {
        let mut acc = identity;
        for i in range {
            acc = reduce(acc, map(i));
        }
        return acc;
    }
    let subranges = split_range(range, chunks);
    let mut partials: Vec<Option<R>> = vec![None; subranges.len()];
    {
        let map = &map;
        let reduce = &reduce;
        let ids: Vec<R> = vec![identity.clone(); subranges.len()];
        scope(handle, |sc| {
            for ((slot, sub), id) in partials.iter_mut().zip(subranges).zip(ids) {
                sc.spawn(move || {
                    let mut acc = id;
                    for i in sub {
                        acc = reduce(acc, map(i));
                    }
                    *slot = Some(acc);
                });
            }
        });
    }
    let mut acc = identity;
    for p in partials {
        acc = reduce(acc, p.expect("scope guarantees completion"));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn split_range_covers_exactly() {
        let parts = split_range(3..103, 7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts.first().unwrap().start, 3);
        assert_eq!(parts.last().unwrap().end, 103);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn split_range_more_chunks_than_items() {
        let parts = split_range(0..3, 10);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn split_empty_range() {
        assert!(split_range(5..5, 4).is_empty());
    }

    #[test]
    fn for_loop_chunked_visits_every_index_once_under_either_policy() {
        let rt = Runtime::new(4);
        for policy in [ExecutionPolicy::Seq, ExecutionPolicy::Par] {
            let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
            for_loop_chunked(&rt.handle(), policy, 0..1000, 16, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn transform_reduce_sums() {
        let rt = Runtime::new(4);
        let s = transform_reduce(
            &rt.handle(),
            ExecutionPolicy::Par,
            0..10_001,
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        assert_eq!(s, 10_000 * 10_001 / 2);
    }

    #[test]
    fn transform_reduce_deterministic_float_order() {
        // Fixed chunk count ⇒ bitwise-identical result run to run.
        let rt = Runtime::new(4);
        let run = || {
            transform_reduce_chunked(
                &rt.handle(),
                ExecutionPolicy::Par,
                1..100_000,
                16,
                0.0f64,
                |i| 1.0 / i as f64,
                |a, b| a + b,
            )
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn transform_reduce_empty_range_gives_identity() {
        let rt = Runtime::new(2);
        let s = transform_reduce(
            &rt.handle(),
            ExecutionPolicy::Par,
            10..10,
            42i64,
            |i| i as i64,
            |a, b| a + b,
        );
        assert_eq!(s, 42);
    }

    #[test]
    fn scope_waits_for_all_tasks() {
        let rt = Runtime::new(4);
        let counter = AtomicU64::new(0);
        scope(&rt.handle(), |sc| {
            for _ in 0..64 {
                sc.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_micros(100));
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn scope_propagates_panic() {
        let rt = Runtime::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(&rt.handle(), |sc| {
                sc.spawn(|| panic!("scoped boom"));
            });
        }));
        assert!(res.is_err());
        // Runtime still usable.
        assert_eq!(rt.spawn(|| 1).get(), 1);
    }

    #[test]
    fn scope_panic_path_keeps_borrows_alive() {
        // The unsafe lifetime erasure in `erase` is only
        // sound if `scope` refuses to unwind before every task finished —
        // including when one of them panics. Borrow stack data from tasks
        // that race a panicking sibling and check all of them completed
        // against the still-live borrow before the panic resurfaced.
        let rt = Runtime::new(4);
        let data: Vec<u64> = (0..256).collect();
        let touched = AtomicU64::new(0);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(&rt.handle(), |sc| {
                for chunk in data.chunks(16) {
                    let touched = &touched;
                    sc.spawn(move || {
                        touched.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                    });
                }
                sc.spawn(|| panic!("die mid-scope"));
            });
        }));
        assert!(res.is_err(), "the scoped panic must resurface");
        // Quiescence before unwind: every borrowing task ran to completion
        // while `data` was still alive.
        assert_eq!(touched.load(Ordering::Relaxed), (0..256u64).sum::<u64>());
        drop(data);
        // Runtime still usable afterwards.
        assert_eq!(rt.spawn(|| 7).get(), 7);
    }

    /// A task spawns into the scope that runs it, and a continuation of a
    /// promise fulfilled off the runtime runs as part of the scope: the scope
    /// returns after both, and nobody waits on the promise meanwhile.
    #[test]
    fn tasks_spawn_into_their_own_scope_and_continuations_join_it() {
        let rt = Runtime::new(2);
        let (promise, future) = crate::future_pair();
        let completer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            promise.set_value(40u64);
        });
        let (spawned, got) = (&AtomicU64::new(0), &AtomicU64::new(0));
        scope(&rt.handle(), |sc| {
            sc.then(future, move |v| {
                got.store(v, Ordering::Relaxed);
                sc.spawn(move || {
                    got.fetch_add(2, Ordering::Relaxed);
                });
            });
            sc.spawn(move || {
                sc.spawn(move || {
                    spawned.fetch_add(1, Ordering::Relaxed);
                })
            });
        });
        assert_eq!(got.load(Ordering::Relaxed), 42);
        assert_eq!(spawned.load(Ordering::Relaxed), 1);
        completer.join().expect("completer");
        // A continuation's panic resurfaces at the join, not in the thread
        // that completed its future.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(&rt.handle(), |sc| {
                sc.then(crate::make_ready_future(()), |()| panic!("late boom"));
            });
        }));
        assert!(res.is_err());
    }

    #[test]
    fn nested_scopes_from_worker() {
        let rt = Runtime::new(2);
        let h = rt.handle();
        let total = rt
            .spawn(move || {
                let counter = AtomicU64::new(0);
                scope(&h, |outer| {
                    for _ in 0..4 {
                        let h2 = h.clone();
                        let c = &counter;
                        outer.spawn(move || {
                            scope(&h2, |inner| {
                                for _ in 0..8 {
                                    inner.spawn(|| {
                                        c.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        });
                    }
                });
                counter.load(Ordering::Relaxed)
            })
            .get();
        assert_eq!(total, 32);
    }

    #[test]
    fn policy_predicates() {
        assert!(!ExecutionPolicy::Seq.is_parallel());
        assert!(ExecutionPolicy::Par.is_parallel());
    }

    #[test]
    fn default_chunks_bounds() {
        assert_eq!(default_chunks(4, 0), 1);
        assert_eq!(default_chunks(4, 3), 3);
        assert_eq!(default_chunks(4, 1000), 16);
    }
}
