//! Promises and futures with continuations — HPX's `hpx::future` /
//! `hpx::promise` / `hpx::when_all` in Rust.
//!
//! Futures here are *eager* and single-ownership: a producer (task, parcel
//! handler, kernel completion) fulfils the [`Promise`]; the consumer either
//! blocks on [`Future::get`] (helping the scheduler if called on a worker
//! thread, exactly like a suspended hpx-thread frees its worker) or attaches
//! a continuation with [`Future::then`] to extend the task DAG without
//! blocking. Panics travel through the DAG: a panicking producer re-raises
//! at the eventual `get`.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use apex_lite::trace::{self, Cat};

use crate::lock;
use crate::runtime::{help_one, on_worker, unwind_after_delivery};

pub(crate) type PanicPayload = Box<dyn Any + Send + 'static>;

pub(crate) enum Outcome<T> {
    Value(T),
    Panicked(PanicPayload),
}

type Continuation<T> = Box<dyn FnOnce(Outcome<T>) + Send + 'static>;

struct State<T> {
    outcome: Option<Outcome<T>>,
    continuation: Option<Continuation<T>>,
    /// A thread is (or was) blocked on `ready`: completion notifies only
    /// then — a notify is a system call even with nobody waiting.
    waiting: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Inner<T> {
    /// A worker with nothing to help with naps briefly on the future's own
    /// condvar (callers re-check, so a lost notify only costs the timeout).
    /// The nap is a `sched` span: the task around it is waiting, not working.
    fn nap(&self) {
        let mut st = lock(&self.state);
        if st.outcome.is_none() {
            st.waiting = true;
            let _span = trace::span(Cat::Sched, "wait");
            drop(self.ready.wait_timeout(st, Duration::from_micros(200)));
        }
    }

    /// Block the (non-worker) thread until the outcome is there.
    fn block(&self) -> MutexGuard<'_, State<T>> {
        let mut st = lock(&self.state);
        while st.outcome.is_none() {
            st.waiting = true;
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st
    }
}

/// Producer side of a future pair; see [`pair`].
pub struct Promise<T> {
    inner: Arc<Inner<T>>,
}

/// Consumer side: a single-ownership eager future.
pub struct Future<T> {
    inner: Arc<Inner<T>>,
}

/// Create a connected promise/future pair (`hpx::promise` +
/// `promise.get_future()`).
pub fn pair<T>() -> (Promise<T>, Future<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            outcome: None,
            continuation: None,
            waiting: false,
        }),
        ready: Condvar::new(),
    });
    (
        Promise {
            inner: Arc::clone(&inner),
        },
        Future { inner },
    )
}

/// A future that is already complete (`hpx::make_ready_future`).
pub fn make_ready_future<T>(value: T) -> Future<T> {
    let (p, f) = pair();
    p.set_value(value);
    f
}

impl<T> Promise<T> {
    fn complete(&self, outcome: Outcome<T>) {
        let cont = {
            let mut st = lock(&self.inner.state);
            assert!(st.outcome.is_none(), "promise already satisfied");
            match st.continuation.take() {
                Some(c) => Some((c, outcome)),
                None => {
                    st.outcome = Some(outcome);
                    if st.waiting {
                        self.inner.ready.notify_all();
                    }
                    None
                }
            }
        };
        if let Some((c, outcome)) = cont {
            c(outcome);
        }
    }

    /// Fulfil the promise with a value. Panics if already satisfied.
    pub fn set_value(&self, value: T) {
        self.complete(Outcome::Value(value));
    }

    /// Fulfil the promise with a panic payload; the consumer's `get`
    /// re-raises it.
    pub fn set_panic(&self, payload: PanicPayload) {
        self.complete(Outcome::Panicked(payload));
    }

    /// [`Promise::set_panic`] from inside the task that panicked, which then
    /// ends as a panicked task (the scheduler counts it).
    pub(crate) fn fail_task(&self, payload: PanicPayload) -> ! {
        self.set_panic(payload);
        unwind_after_delivery()
    }
}

impl<T: Send + 'static> Future<T> {
    /// Register `f` to run exactly once with the outcome (internal basis for
    /// `then`/`when_all`). Runs inline on the completing thread, or
    /// immediately if already complete.
    pub(crate) fn on_complete(self, f: impl FnOnce(Outcome<T>) + Send + 'static) {
        let mut f = Some(f);
        let ready = {
            let mut st = lock(&self.inner.state);
            match st.outcome.take() {
                Some(o) => Some(o),
                None => {
                    assert!(
                        st.continuation.is_none(),
                        "future already has a continuation"
                    );
                    st.continuation = Some(Box::new(f.take().expect("just set")));
                    None
                }
            }
        };
        if let Some(o) = ready {
            (f.take().expect("not consumed on pending path"))(o);
        }
    }

    /// Attach a continuation, producing the future of its result —
    /// `hpx::future::then`. The continuation runs on whichever thread
    /// completes this future (HPX's `launch::sync` continuation policy).
    pub fn then<U, F>(self, f: F) -> Future<U>
    where
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        let (p, fut) = pair();
        self.on_complete(move |outcome| match outcome {
            Outcome::Value(v) => {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(v))) {
                    Ok(u) => p.set_value(u),
                    Err(e) => p.set_panic(e),
                }
            }
            Outcome::Panicked(e) => p.set_panic(e),
        });
        fut
    }

    /// Is the result available?
    pub fn is_ready(&self) -> bool {
        lock(&self.inner.state).outcome.is_some()
    }

    /// Block until complete and return the value, re-raising producer
    /// panics. On a worker thread this *helps*: it executes other ready
    /// tasks while waiting.
    pub fn get(self) -> T {
        if on_worker() {
            loop {
                {
                    let mut st = lock(&self.inner.state);
                    if let Some(o) = st.outcome.take() {
                        return unwrap_outcome(o);
                    }
                }
                if !help_one() {
                    self.inner.nap();
                }
            }
        } else {
            let outcome = self.inner.block().outcome.take();
            unwrap_outcome(outcome.expect("block returns when complete"))
        }
    }

    /// Block until complete without consuming the value.
    pub fn wait(&self) {
        if on_worker() {
            while !self.is_ready() {
                if !help_one() {
                    self.inner.nap();
                }
            }
        } else {
            drop(self.inner.block());
        }
    }
}

pub(crate) fn unwrap_outcome<T>(o: Outcome<T>) -> T {
    match o {
        Outcome::Value(v) => v,
        Outcome::Panicked(e) => std::panic::resume_unwind(e),
    }
}

/// Combine a vector of futures into a future of the vector of results, in
/// input order — `hpx::when_all`. If any input panicked, the first observed
/// panic is re-raised by the combined future's `get`.
pub fn when_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<Vec<T>> {
    let n = futures.len();
    let (p, fut) = pair();
    if n == 0 {
        p.set_value(Vec::new());
        return fut;
    }
    // One slot per input, written by whichever thread completes it, and
    // one countdown: completions on different workers share no lock.
    struct Join<T> {
        slots: Vec<Mutex<Option<T>>>,
        panic: Mutex<Option<PanicPayload>>,
        remaining: AtomicUsize,
        promise: Promise<Vec<T>>,
    }
    let join = Arc::new(Join {
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
        panic: Mutex::new(None),
        remaining: AtomicUsize::new(n),
        promise: p,
    });
    for (i, f) in futures.into_iter().enumerate() {
        let j = Arc::clone(&join);
        f.on_complete(move |outcome| {
            match outcome {
                Outcome::Value(v) => *lock(&j.slots[i]) = Some(v),
                Outcome::Panicked(e) => {
                    lock(&j.panic).get_or_insert(e);
                }
            }
            if j.remaining.fetch_sub(1, Ordering::SeqCst) != 1 {
                return;
            }
            // Last completion: every slot was written before its decrement.
            match lock(&j.panic).take() {
                Some(e) => j.promise.set_panic(e),
                None => j.promise.set_value(
                    j.slots
                        .iter()
                        .map(|s| lock(s).take().expect("slot unfilled at join"))
                        .collect(),
                ),
            }
        });
    }
    fut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn ready_future_gets_immediately() {
        assert_eq!(make_ready_future(5).get(), 5);
    }

    #[test]
    fn promise_then_get_off_worker() {
        let (p, f) = pair();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            p.set_value("hello");
        });
        assert_eq!(f.get(), "hello");
        t.join().unwrap();
    }

    #[test]
    fn then_chains_in_order() {
        let f = make_ready_future(1).then(|x| x + 1).then(|x| x * 10);
        assert_eq!(f.get(), 20);
    }

    #[test]
    fn then_registered_before_completion() {
        let (p, f) = pair();
        let g = f.then(|x: i32| x * 2);
        p.set_value(21);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn when_all_preserves_order() {
        let rt = Runtime::new(4);
        let futures: Vec<_> = (0..50).map(|i| rt.spawn(move || i * i)).collect();
        let all = when_all(futures).get();
        assert_eq!(all, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn when_all_empty_is_ready() {
        let f: Future<Vec<i32>> = when_all(Vec::new());
        assert!(f.is_ready());
        assert!(f.get().is_empty());
    }

    #[test]
    fn when_all_propagates_panic() {
        let rt = Runtime::new(2);
        let futures = vec![
            rt.spawn(|| 1),
            rt.spawn(|| -> i32 { panic!("inner") }),
            rt.spawn(|| 3),
        ];
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| when_all(futures).get()));
        assert!(res.is_err());
    }

    #[test]
    #[should_panic(expected = "promise already satisfied")]
    fn double_set_panics() {
        let (p, _f) = pair();
        p.set_value(1);
        p.set_value(2);
    }

    #[test]
    fn panic_travels_through_then_chain() {
        let f = make_ready_future(1)
            .then(|_| -> i32 { panic!("mid-chain") })
            .then(|x| x + 1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()));
        assert!(res.is_err());
    }

    #[test]
    fn wait_then_is_ready() {
        let rt = Runtime::new(1);
        let f = rt.spawn(|| 11);
        f.wait();
        assert!(f.is_ready());
        assert_eq!(f.get(), 11);
    }

    #[test]
    fn get_on_worker_helps() {
        // A chain deeper than the worker count: only possible if blocked
        // gets execute other tasks.
        let rt = Runtime::new(1);
        let h = rt.handle();
        let f = rt.spawn(move || {
            let futures: Vec<_> = (0..20).map(|i| h.spawn(move || i)).collect();
            futures.into_iter().map(|f| f.get()).sum::<i32>()
        });
        assert_eq!(f.get(), 190);
    }
}
