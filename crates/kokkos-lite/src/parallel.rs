//! Parallel patterns — `Kokkos::parallel_for` and `parallel_reduce`,
//! generic over the [`ExecutionSpace`]. The same kernel
//! body runs unchanged on [`Serial`](crate::space::Serial) and
//! [`HpxSpace`](crate::space::HpxSpace), which is the portability claim the
//! paper relies on (§3.2: the identical Kokkos kernel runs everywhere).

use crate::policy::RangePolicy;
use crate::space::ExecutionSpace;
use send_cell::SendCell;

/// `Kokkos::parallel_for` over a 1-D range.
pub fn parallel_for<S, F>(space: &S, policy: RangePolicy, f: F)
where
    S: ExecutionSpace,
    F: Fn(usize) + Send + Sync,
{
    space.for_range(policy.range(), f);
}

/// `Kokkos::parallel_reduce` over a 1-D range with a custom joiner.
pub(crate) fn parallel_reduce<S, R, M, J>(
    space: &S,
    policy: RangePolicy,
    identity: R,
    map: M,
    join: J,
) -> R
where
    S: ExecutionSpace,
    R: Send + Clone,
    M: Fn(usize) -> R + Send + Sync,
    J: Fn(R, R) -> R + Send + Sync,
{
    space.reduce_range(policy.range(), identity, map, join)
}

/// Sum-reduction convenience (the common Kokkos `parallel_reduce` with a
/// `double&` accumulator).
pub fn parallel_reduce_sum<S, M>(space: &S, policy: RangePolicy, map: M) -> f64
where
    S: ExecutionSpace,
    M: Fn(usize) -> f64 + Send + Sync,
{
    parallel_reduce(space, policy, 0.0, map, |a, b| a + b)
}

/// Max-reduction convenience (Octo-Tiger's CFL signal-speed reduction).
pub fn parallel_reduce_max<S, M>(space: &S, policy: RangePolicy, map: M) -> f64
where
    S: ExecutionSpace,
    M: Fn(usize) -> f64 + Send + Sync,
{
    parallel_reduce(space, policy, f64::NEG_INFINITY, map, f64::max)
}

/// Elementwise parallel initialization: `out[i] = f(i)` — the common
/// "compute a new field into a scratch view" kernel shape (Octo-Tiger's
/// hydro update writes the next state this way). Chunks of `out` are moved
/// into the space's tasks, so no locking is involved.
pub fn parallel_fill<S, T, F>(space: &S, out: &mut [T], f: F)
where
    S: ExecutionSpace,
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    let n = out.len();
    if n == 0 {
        return;
    }
    let conc = space.concurrency();
    if conc <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return;
    }
    let chunk = n.div_ceil(conc * 4);
    let pieces: Vec<(usize, SendCell<&mut [T]>)> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(ci, c)| (ci * chunk, SendCell::new(c)))
        .collect();
    space.for_range(0..pieces.len(), |pi| {
        let (offset, cell) = &pieces[pi];
        let slice = cell.take();
        for (local, slot) in slice.iter_mut().enumerate() {
            *slot = f(offset + local);
        }
    });
}

/// Run-granular parallel initialization: `out` is consecutive rows of
/// `row_len` elements, cut into runs of whole rows, and `f(first_row, run)`
/// fills each run in place — one run (all of `out`) on a space without
/// concurrency, `4 × concurrency` runs otherwise. This is the kernel shape
/// explicitly-vectorized stencil code needs: a task owns whole rows, so a
/// `Simd<W>` pack can store `W` contiguous elements at once without two
/// tasks ever sharing a cache line of output, and it sees its whole run, so
/// what neighbouring rows share (a face flux) is computed once per run.
pub fn parallel_fill_row_runs<S, T, F>(space: &S, out: &mut [T], row_len: usize, f: F)
where
    S: ExecutionSpace,
    T: Send,
    F: Fn(usize, &mut [T]) + Send + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(out.len() % row_len, 0, "output must be whole rows");
    let rows = out.len() / row_len;
    if rows == 0 {
        return;
    }
    let conc = space.concurrency();
    if conc <= 1 {
        f(0, out);
        return;
    }
    let group = rows.div_ceil(conc * 4).max(1);
    let pieces: Vec<(usize, SendCell<&mut [T]>)> = out
        .chunks_mut(group * row_len)
        .enumerate()
        .map(|(gi, c)| (gi * group, SendCell::new(c)))
        .collect();
    space.for_range(0..pieces.len(), |pi| {
        let (row0, cell) = &pieces[pi];
        f(*row0, cell.take());
    });
}

/// Minimal one-shot cell allowing disjoint `&mut` chunks to cross into
/// `Fn(usize)` kernels exactly once each.
mod send_cell {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(crate) struct SendCell<T> {
        taken: AtomicBool,
        value: UnsafeCell<Option<T>>,
    }

    // SAFETY: access is guarded by the `taken` flag — each cell's value is
    // moved out exactly once, by exactly one thread.
    unsafe impl<T: Send> Sync for SendCell<T> {}
    unsafe impl<T: Send> Send for SendCell<T> {}

    impl<T> SendCell<T> {
        pub(crate) fn new(v: T) -> Self {
            SendCell {
                taken: AtomicBool::new(false),
                value: UnsafeCell::new(Some(v)),
            }
        }

        pub(crate) fn take(&self) -> T {
            let was = self.taken.swap(true, Ordering::AcqRel);
            assert!(!was, "SendCell taken twice");
            // SAFETY: the swap above guarantees exclusive access.
            unsafe { (*self.value.get()).take().expect("value present") }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{HpxSpace, Serial};
    use amt::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_for_counts() {
        let rt = Runtime::new(4);
        for run_hpx in [false, true] {
            let hits: Vec<AtomicU64> = (0..300).map(|_| AtomicU64::new(0)).collect();
            let body = |i: usize| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            if run_hpx {
                parallel_for(&HpxSpace::new(rt.handle()), RangePolicy::new(0, 300), body);
            } else {
                parallel_for(&Serial, RangePolicy::new(0, 300), body);
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn reduce_sum_and_max() {
        let rt = Runtime::new(3);
        let hpx = HpxSpace::new(rt.handle());
        let s = parallel_reduce_sum(&hpx, RangePolicy::new(1, 101), |i| i as f64);
        assert_eq!(s, 5050.0);
        let m = parallel_reduce_max(&hpx, RangePolicy::new(0, 100), |i| ((i * 37) % 91) as f64);
        let want = (0..100)
            .map(|i| ((i * 37) % 91) as f64)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(m, want);
    }

    #[test]
    fn reduce_custom_join_matches_serial() {
        let rt = Runtime::new(4);
        let hpx = HpxSpace::new(rt.handle());
        let join = |a: (f64, u64), b: (f64, u64)| (a.0 + b.0, a.1 + b.1);
        let map = |i: usize| (1.0 / (i + 1) as f64, 1u64);
        let p = parallel_reduce(&hpx, RangePolicy::new(0, 10_000), (0.0, 0), map, join);
        let s = parallel_reduce(&Serial, RangePolicy::new(0, 10_000), (0.0, 0), map, join);
        assert_eq!(p.1, s.1);
        assert!((p.0 - s.0).abs() < 1e-9);
    }

    #[test]
    fn fill_row_runs_cover_every_row_once_on_all_spaces() {
        let rt = Runtime::new(4);
        let hpx = HpxSpace::new(rt.handle());
        let rows = 64;
        let row_len = 8;
        let runs = AtomicU64::new(0);
        let body = |row0: usize, run: &mut [f64]| {
            runs.fetch_add(1, Ordering::Relaxed);
            for (n, slot) in run.iter_mut().enumerate() {
                *slot += ((row0 + n / row_len) * 100 + n % row_len) as f64;
            }
        };
        let mut serial = vec![0.0; rows * row_len];
        parallel_fill_row_runs(&Serial, &mut serial, row_len, body);
        assert_eq!(runs.swap(0, Ordering::Relaxed), 1, "Serial: one run");
        let mut par = vec![0.0; rows * row_len];
        parallel_fill_row_runs(&hpx, &mut par, row_len, body);
        assert_eq!(runs.load(Ordering::Relaxed), 16, "4 per worker");
        assert_eq!(serial, par);
        assert_eq!(serial[9 * row_len + 3], 903.0);
        // Empty output is a no-op even with a nonzero row length.
        let mut empty: Vec<f64> = vec![];
        parallel_fill_row_runs(&hpx, &mut empty, row_len, body);
    }

    #[test]
    fn empty_policies_are_noops() {
        let rt = Runtime::new(2);
        let hpx = HpxSpace::new(rt.handle());
        let hits = AtomicU64::new(0);
        parallel_for(&hpx, RangePolicy::new(5, 5), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 0);
        let s = parallel_reduce_sum(&hpx, RangePolicy::new(5, 5), |_| 1.0);
        assert_eq!(s, 0.0);
    }
}
