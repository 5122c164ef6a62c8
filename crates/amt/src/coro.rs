//! "Future + coroutine" parallelism — the fourth style of the paper's
//! Maclaurin benchmark (Fig. 5 compares it against senders & receivers on
//! RISC-V).
//!
//! The C++ benchmark uses C++20 coroutines returning HPX futures: the
//! coroutine body suspends at `co_await` points and is resumed by the
//! scheduler. Rust has no stable equivalent, so we model a coroutine as an
//! explicitly resumable state machine ([`Coroutine::resume`]): the driver
//! spawns a task that performs one resume step; every [`CoStep::Yield`]
//! reschedules the coroutine as a *new* task. This preserves the property
//! that matters for the study — each suspension is a full scheduler round
//! trip whose cost the machine model charges as a context switch.

use crate::future::{pair, Future};
use crate::Handle;

/// Result of one resume step.
pub enum CoStep<T> {
    /// The coroutine suspended; resume it again later.
    Yield,
    /// The coroutine finished with a value.
    Done(T),
}

/// A resumable computation (a hand-written C++20 coroutine frame).
pub trait Coroutine: Send + 'static {
    /// Final result type.
    type Output: Send + 'static;
    /// Run until the next suspension point or completion.
    fn resume(&mut self) -> CoStep<Self::Output>;
}

/// Adapt a closure `FnMut() -> CoStep<T>` into a [`Coroutine`].
pub struct FnCoroutine<F>(pub F);

impl<F, T> Coroutine for FnCoroutine<F>
where
    F: FnMut() -> CoStep<T> + Send + 'static,
    T: Send + 'static,
{
    type Output = T;
    fn resume(&mut self) -> CoStep<T> {
        (self.0)()
    }
}

/// Drive `coro` on `handle`'s runtime, returning the future of its result.
/// Each suspension is one scheduler round trip (a fresh task).
pub fn spawn_coroutine<C: Coroutine>(handle: &Handle, coro: C) -> Future<C::Output> {
    let (promise, future) = pair();
    step(handle.clone(), coro, promise);
    future
}

fn step<C: Coroutine>(handle: Handle, mut coro: C, promise: crate::Promise<C::Output>) {
    let h = handle.clone();
    handle.spawn_detached(move || {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| coro.resume())) {
            Ok(CoStep::Done(v)) => promise.set_value(v),
            Ok(CoStep::Yield) => step(h, coro, promise),
            Err(e) => promise.fail_task(e),
        }
    });
}

/// A coroutine that folds an index range in slices of `stride`, suspending
/// between slices — the exact shape of the Maclaurin coroutine benchmark
/// (sum a block of series terms, `co_await` the scheduler, continue).
pub struct ChunkedFold<R, F> {
    next: usize,
    end: usize,
    stride: usize,
    acc: R,
    f: F,
}

impl<R, F> ChunkedFold<R, F>
where
    R: Send + 'static,
    F: FnMut(R, usize) -> R + Send + 'static,
{
    /// Fold `f` over `range`, yielding every `stride` indices.
    pub fn new(range: std::ops::Range<usize>, stride: usize, init: R, f: F) -> Self {
        assert!(stride > 0, "stride must be positive");
        ChunkedFold {
            next: range.start,
            end: range.end,
            stride,
            acc: init,
            f,
        }
    }
}

impl<R, F> Coroutine for ChunkedFold<R, F>
where
    R: Send + Default + 'static,
    F: FnMut(R, usize) -> R + Send + 'static,
{
    type Output = R;
    fn resume(&mut self) -> CoStep<R> {
        let stop = (self.next + self.stride).min(self.end);
        let mut acc = std::mem::take(&mut self.acc);
        while self.next < stop {
            acc = (self.f)(acc, self.next);
            self.next += 1;
        }
        self.acc = acc;
        if self.next >= self.end {
            CoStep::Done(std::mem::take(&mut self.acc))
        } else {
            CoStep::Yield
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{when_all, Runtime};

    #[test]
    fn fn_coroutine_counts_down() {
        let rt = Runtime::new(2);
        let mut remaining = 5;
        let f = spawn_coroutine(
            &rt.handle(),
            FnCoroutine(move || {
                if remaining == 0 {
                    CoStep::Done("finished")
                } else {
                    remaining -= 1;
                    CoStep::Yield
                }
            }),
        );
        assert_eq!(f.get(), "finished");
    }

    #[test]
    fn each_yield_is_a_task() {
        let rt = Runtime::new(1);
        rt.reset_stats();
        let mut remaining = 10;
        spawn_coroutine(
            &rt.handle(),
            FnCoroutine(move || {
                if remaining == 0 {
                    CoStep::Done(())
                } else {
                    remaining -= 1;
                    CoStep::Yield
                }
            }),
        )
        .get();
        // 10 yields + 1 completion = 11 resume tasks.
        assert!(rt.stats().tasks_spawned >= 11);
    }

    #[test]
    fn chunked_fold_sums_range() {
        let rt = Runtime::new(2);
        let co = ChunkedFold::new(0..1000, 64, 0u64, |acc, i| acc + i as u64);
        assert_eq!(spawn_coroutine(&rt.handle(), co).get(), 999 * 1000 / 2);
    }

    #[test]
    fn chunked_fold_single_slice() {
        let rt = Runtime::new(1);
        let co = ChunkedFold::new(0..10, 100, 0u64, |acc, i| acc + i as u64);
        assert_eq!(spawn_coroutine(&rt.handle(), co).get(), 45);
    }

    #[test]
    fn chunked_fold_empty_range() {
        let rt = Runtime::new(1);
        let co = ChunkedFold::new(5..5, 4, 7u64, |acc, _| acc);
        assert_eq!(spawn_coroutine(&rt.handle(), co).get(), 7);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let _ = ChunkedFold::new(0..10, 0, 0u64, |acc, _| acc);
    }

    #[test]
    fn many_concurrent_coroutines() {
        let rt = Runtime::new(4);
        let futures: Vec<_> = (0..32)
            .map(|c| {
                let co = ChunkedFold::new(0..100, 10, 0u64, move |acc, i| acc + (i + c) as u64);
                spawn_coroutine(&rt.handle(), co)
            })
            .collect();
        let sums = when_all(futures).get();
        for (c, s) in sums.into_iter().enumerate() {
            assert_eq!(s, (0..100u64).map(|i| i + c as u64).sum::<u64>());
        }
    }

    #[test]
    fn coroutine_panic_propagates() {
        let rt = Runtime::new(1);
        let f = spawn_coroutine(
            &rt.handle(),
            FnCoroutine(|| -> CoStep<()> { panic!("coro boom") }),
        );
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get())).is_err());
    }
}
