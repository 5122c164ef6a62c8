//! Senders & receivers — the std::execution (P2300) subset the paper's
//! Maclaurin benchmark uses (its Fig. 5 compares "sender & receiver" against
//! "future + coroutine" on RISC-V).
//!
//! A [`Sender`] describes asynchronous work; nothing runs until the sender
//! is [`Sender::start`]ed with a [`Receiver`] (here: a boxed continuation) or
//! driven by [`sync_wait`]. A receiver is completed with a value or, when a
//! stage panicked, with the panic payload (P2300's `set_value` /
//! `set_error`), which the stages downstream pass through untouched and
//! `sync_wait` re-raises. Combinators build pipelines:
//!
//! ```
//! use amt::{Runtime, sr};
//! use amt::sr::Sender;
//!
//! let rt = Runtime::new(2);
//! let sum = sr::sync_wait(
//!     sr::schedule(&rt.handle())
//!         .then(|_| 40)
//!         .then(|x| x + 2),
//! );
//! assert_eq!(sum, 42);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::future::{pair, PanicPayload};
use crate::runtime::unwind_after_delivery;
use crate::{lock, Handle};

/// How a sender completes: with its value, or with the payload of a panic
/// raised in it or upstream of it.
pub type Completion<T> = std::thread::Result<T>;

/// The continuation a sender is started with; invoked exactly once.
pub type Receiver<T> = Box<dyn FnOnce(Completion<T>) + Send + 'static>;

/// What the iterations of one started [`Bulk`] share.
struct BulkRun<T, F> {
    f: F,
    remaining: AtomicUsize,
    panic: Mutex<Option<PanicPayload>>,
    /// The upstream value and the receiver, for the iteration that finishes
    /// last.
    finish: Mutex<Option<(T, Receiver<T>)>>,
}

/// A description of asynchronous work completing with `Output`.
pub trait Sender: Sized + Send + 'static {
    /// The value this sender completes with.
    type Output: Send + 'static;

    /// Start the work; `receiver` is invoked exactly once, with the value
    /// (P2300 `set_value`) or a panic payload (`set_error`).
    fn start(self, receiver: Receiver<Self::Output>);

    /// The scheduler this sender completes on (used by [`Bulk`] to place
    /// its iterations). Every chain starts at [`schedule`], so there is one.
    fn scheduler(&self) -> Handle;

    /// Transform the completion value — `std::execution::then`.
    fn then<F, U>(self, f: F) -> Then<Self, F>
    where
        F: FnOnce(Self::Output) -> U + Send + 'static,
        U: Send + 'static,
    {
        Then { upstream: self, f }
    }

    /// Run `f(i)` for `i in 0..shape` on the completion scheduler, then pass
    /// the upstream value through — `std::execution::bulk`.
    fn bulk<F>(self, shape: usize, f: F) -> Bulk<Self, F>
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        Bulk {
            upstream: self,
            shape,
            f,
        }
    }
}

/// Sender completing with `()` on a runtime task —
/// `std::execution::schedule(scheduler)`.
pub struct Schedule {
    handle: Handle,
}

/// Create a [`Schedule`] sender for `handle`'s runtime.
pub fn schedule(handle: &Handle) -> Schedule {
    Schedule {
        handle: handle.clone(),
    }
}

impl Sender for Schedule {
    type Output = ();
    fn start(self, receiver: Receiver<()>) {
        self.handle.spawn_detached(move || receiver(Ok(())));
    }
    fn scheduler(&self) -> Handle {
        self.handle.clone()
    }
}

/// Sender adaptor mapping the value; see [`Sender::then`].
pub struct Then<S, F> {
    upstream: S,
    f: F,
}

impl<S, F, U> Sender for Then<S, F>
where
    S: Sender,
    F: FnOnce(S::Output) -> U + Send + 'static,
    U: Send + 'static,
{
    type Output = U;
    fn start(self, receiver: Receiver<U>) {
        let f = self.f;
        self.upstream.start(Box::new(move |done| {
            let out = match done {
                Ok(v) => catch_unwind(AssertUnwindSafe(|| f(v))),
                Err(upstream) => return receiver(Err(upstream)),
            };
            let panicked_here = out.is_err();
            receiver(out);
            // This stage runs inside a task of the completion scheduler,
            // which must still end as a panicked task.
            if panicked_here {
                unwind_after_delivery();
            }
        }));
    }
    fn scheduler(&self) -> Handle {
        self.upstream.scheduler()
    }
}

/// Sender adaptor running a parallel iteration space; see [`Sender::bulk`].
pub struct Bulk<S, F> {
    upstream: S,
    shape: usize,
    f: F,
}

impl<S, F> Sender for Bulk<S, F>
where
    S: Sender,
    F: Fn(usize) + Send + Sync + 'static,
{
    type Output = S::Output;
    fn start(self, receiver: Receiver<S::Output>) {
        let shape = self.shape;
        let f = self.f;
        let h = self.upstream.scheduler();
        self.upstream.start(Box::new(move |done| {
            let value = match done {
                Ok(value) if shape > 0 => value,
                done => return receiver(done),
            };
            let run = Arc::new(BulkRun {
                f,
                remaining: AtomicUsize::new(shape),
                panic: Mutex::new(None),
                finish: Mutex::new(Some((value, receiver))),
            });
            for i in 0..shape {
                let run = Arc::clone(&run);
                h.spawn_detached(move || {
                    let panicked = catch_unwind(AssertUnwindSafe(|| (run.f)(i))).err();
                    let delivered = panicked.is_some();
                    if let Some(e) = panicked {
                        lock(&run.panic).get_or_insert(e);
                    }
                    if run.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                        let (value, receiver) =
                            lock(&run.finish).take().expect("one iteration is last");
                        receiver(match lock(&run.panic).take() {
                            Some(e) => Err(e),
                            None => Ok(value),
                        });
                    }
                    if delivered {
                        unwind_after_delivery();
                    }
                });
            }
        }));
    }

    fn scheduler(&self) -> Handle {
        self.upstream.scheduler()
    }
}

/// Drive a sender to completion and return its value —
/// `std::this_thread::sync_wait`. Re-raises the panic of a stage that
/// panicked.
pub fn sync_wait<S: Sender>(sender: S) -> S::Output {
    let (promise, future) = pair();
    sender.start(Box::new(move |done| match done {
        Ok(v) => promise.set_value(v),
        Err(e) => promise.set_panic(e),
    }));
    future.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn then_chain() {
        let rt = Runtime::new(1);
        let v = sync_wait(
            schedule(&rt.handle())
                .then(|()| 2)
                .then(|x| x + 1)
                .then(|x| x * 3),
        );
        assert_eq!(v, 9);
    }

    #[test]
    fn schedule_runs_on_runtime() {
        let rt = Runtime::new(2);
        let before = rt.stats().tasks_spawned;
        let v = sync_wait(schedule(&rt.handle()).then(|_| 7));
        assert_eq!(v, 7);
        assert!(rt.stats().tasks_spawned > before);
    }

    #[test]
    fn bulk_runs_every_index() {
        let rt = Runtime::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        let out = sync_wait(
            schedule(&rt.handle())
                .bulk(100, move |_i| {
                    h2.fetch_add(1, Ordering::Relaxed);
                })
                .then(|_| "done"),
        );
        assert_eq!(out, "done");
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn bulk_zero_shape_passes_through() {
        let rt = Runtime::new(1);
        let v = sync_wait(schedule(&rt.handle()).then(|_| 3).bulk(0, |_| {}));
        assert_eq!(v, 3);
    }

    #[test]
    fn maclaurin_shaped_pipeline() {
        // The Fig. 5 benchmark shape: schedule → bulk(partial sums) → then(collect).
        let rt = Runtime::new(4);
        let n = 10_000usize;
        let chunks = 16usize;
        let partials: Arc<Vec<Mutex<f64>>> =
            Arc::new((0..chunks).map(|_| Mutex::new(0.0)).collect());
        let p2 = Arc::clone(&partials);
        let total = sync_wait(
            schedule(&rt.handle())
                .bulk(chunks, move |c| {
                    let lo = c * n / chunks + 1;
                    let hi = (c + 1) * n / chunks;
                    let mut s = 0.0;
                    for k in lo..=hi {
                        s += 1.0 / k as f64;
                    }
                    *lock(&p2[c]) = s;
                })
                .then(move |_| partials.iter().map(|m| *lock(m)).sum::<f64>()),
        );
        let direct: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        assert!((total - direct).abs() < 1e-9);
    }
}
