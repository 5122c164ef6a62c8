//! Execution spaces — where a Kokkos kernel runs (paper §3.2).
//!
//! The paper evaluates exactly two CPU spaces, and so do we:
//!
//! * [`Serial`] — the kernel body runs inline on the calling task's core.
//!   Octo-Tiger still gets multicore usage in this mode because it launches
//!   one kernel per sub-grid concurrently (§6.2.1 found this *fastest* on
//!   the 4-core boards);
//! * [`HpxSpace`] — the Kokkos-HPX execution space: the kernel's iteration
//!   range is split into `amt` tasks on the HPX-like runtime, giving the
//!   user fine-grained control over tasks-per-kernel (useful when a single
//!   kernel must fill the whole machine).

use amt::par::{self, ExecutionPolicy};
use amt::Handle;

/// Where and how a kernel's iteration space executes.
pub trait ExecutionSpace: Clone + Send + Sync {
    /// Human-readable name ("Serial", "HPX"), as printed by figure output.
    fn name(&self) -> &'static str;

    /// Maximum useful concurrency of the space.
    fn concurrency(&self) -> usize;

    /// Run `f(i)` for every `i` in `range`.
    fn for_range<F>(&self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(usize) + Send + Sync;

    /// Fold `map(i)` over `range` with the associative `join`.
    fn reduce_range<R, M, J>(
        &self,
        range: std::ops::Range<usize>,
        identity: R,
        map: M,
        join: J,
    ) -> R
    where
        R: Send + Clone,
        M: Fn(usize) -> R + Send + Sync,
        J: Fn(R, R) -> R + Send + Sync;
}

/// Inline execution on the calling core — `Kokkos::Serial`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl ExecutionSpace for Serial {
    fn name(&self) -> &'static str {
        "Serial"
    }

    fn concurrency(&self) -> usize {
        1
    }

    fn for_range<F>(&self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        for i in range {
            f(i);
        }
    }

    fn reduce_range<R, M, J>(
        &self,
        range: std::ops::Range<usize>,
        identity: R,
        map: M,
        join: J,
    ) -> R
    where
        R: Send + Clone,
        M: Fn(usize) -> R + Send + Sync,
        J: Fn(R, R) -> R + Send + Sync,
    {
        let mut acc = identity;
        for i in range {
            acc = join(acc, map(i));
        }
        acc
    }
}

/// Kernel execution as tasks on the HPX-like runtime —
/// `Kokkos::Experimental::HPX`. `chunks` steers how many tasks each kernel
/// is divided into (the §3.2 knob); `None` uses the runtime default.
#[derive(Clone)]
pub struct HpxSpace {
    handle: Handle,
    chunks: Option<usize>,
}

impl HpxSpace {
    /// HPX space over `handle`'s runtime with default chunking.
    pub fn new(handle: Handle) -> Self {
        HpxSpace {
            handle,
            chunks: None,
        }
    }

    /// HPX space producing exactly `chunks` tasks per kernel.
    pub fn with_chunks(handle: Handle, chunks: usize) -> Self {
        assert!(chunks >= 1, "need at least one chunk");
        HpxSpace {
            handle,
            chunks: Some(chunks),
        }
    }

    fn chunks_for(&self, len: usize) -> usize {
        self.chunks
            .unwrap_or_else(|| par::default_chunks(self.handle.num_threads(), len))
    }
}

impl ExecutionSpace for HpxSpace {
    fn name(&self) -> &'static str {
        "HPX"
    }

    fn concurrency(&self) -> usize {
        self.handle.num_threads()
    }

    fn for_range<F>(&self, range: std::ops::Range<usize>, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        let chunks = self.chunks_for(range.len());
        par::for_loop_chunked(&self.handle, ExecutionPolicy::Par, range, chunks, f);
    }

    fn reduce_range<R, M, J>(
        &self,
        range: std::ops::Range<usize>,
        identity: R,
        map: M,
        join: J,
    ) -> R
    where
        R: Send + Clone,
        M: Fn(usize) -> R + Send + Sync,
        J: Fn(R, R) -> R + Send + Sync,
    {
        let chunks = self.chunks_for(range.len());
        par::transform_reduce_chunked(
            &self.handle,
            ExecutionPolicy::Par,
            range,
            chunks,
            identity,
            map,
            join,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn serial_visits_in_order() {
        // Serial runs inline on one thread; observe the order through a
        // Mutex (contention-free here) to satisfy the Sync bound.
        let seen = std::sync::Mutex::new(Vec::new());
        Serial.for_range(0..5, |i| seen.lock().unwrap().push(i));
        assert_eq!(seen.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn serial_reduce() {
        let s = Serial.reduce_range(1..101, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, 5050);
    }

    #[test]
    fn hpx_space_visits_all() {
        let rt = Runtime::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        HpxSpace::new(rt.handle()).for_range(0..1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn hpx_space_reduce_matches_serial() {
        let rt = Runtime::new(3);
        let par =
            HpxSpace::new(rt.handle()).reduce_range(0..5000, 0u64, |i| i as u64, |a, b| a + b);
        let ser = Serial.reduce_range(0..5000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(par, ser);
    }

    #[test]
    fn explicit_chunk_count_controls_tasks() {
        let rt = Runtime::new(4);
        rt.reset_stats();
        HpxSpace::with_chunks(rt.handle(), 2).for_range(0..1000, |_| {});
        let two = rt.stats().tasks_spawned;
        rt.reset_stats();
        HpxSpace::with_chunks(rt.handle(), 8).for_range(0..1000, |_| {});
        let eight = rt.stats().tasks_spawned;
        assert!(
            eight > two,
            "more chunks must mean more tasks ({two} vs {eight})"
        );
    }

    #[test]
    fn concurrency_reflects_threads() {
        let rt = Runtime::new(3);
        assert_eq!(HpxSpace::new(rt.handle()).concurrency(), 3);
        assert_eq!(Serial.concurrency(), 1);
    }

    #[test]
    fn names() {
        let rt = Runtime::new(1);
        assert_eq!(Serial.name(), "Serial");
        assert_eq!(HpxSpace::new(rt.handle()).name(), "HPX");
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_rejected() {
        let rt = Runtime::new(1);
        let _ = HpxSpace::with_chunks(rt.handle(), 0);
    }
}
