//! The Maclaurin-series benchmark — Eq. (1) of the paper:
//!
//! ```text
//! ln(1+x) = Σ_{k=1..n} (−1)^{k+1} xᵏ / k,   |x| < 1
//! ```
//!
//! implemented in the paper's four shared-memory parallelism styles
//! ([14], Figs. 4–5): asynchronous programming (`hpx::async` + futures),
//! parallel algorithms (`hpx::for_each(par)`), senders & receivers, and
//! futures + coroutines. Each term is computed with `pow(x, k)` exactly
//! like the reference C++ code, which is why a term costs ≈100 flops
//! (dominated by the software `pow` — see
//! [`rv_machine::counted::softmath`]); the paper measured 100000028581
//! flops for n = 10⁹ with `perf` on one Intel core.

use std::sync::{Arc, Mutex};

use amt::par::{transform_reduce_chunked, ExecutionPolicy};
use amt::sr::{schedule, sync_wait, Sender};
use amt::{coro, lock, when_all, Handle};
use rv_machine::{CountedF64, FlopCounter};

/// The four benchmark styles, in the order the paper presents them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// `hpx::async` + `hpx::future` (Fig. 4a).
    Futures,
    /// `hpx::for_each(hpx::execution::par, ...)` (Fig. 4b).
    ParForEach,
    /// Senders & receivers (Fig. 5).
    SendersReceivers,
    /// Futures + coroutines (Fig. 5).
    Coroutines,
}

impl Approach {
    /// All four styles.
    pub const ALL: [Approach; 4] = [
        Approach::Futures,
        Approach::ParForEach,
        Approach::SendersReceivers,
        Approach::Coroutines,
    ];

    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            Approach::Futures => "async/future",
            Approach::ParForEach => "for_each(par)",
            Approach::SendersReceivers => "senders & receivers",
            Approach::Coroutines => "future + coroutine",
        }
    }
}

/// The paper's default series argument.
pub const PAPER_X: f64 = 0.5;
/// The paper's term count (n = 10⁹).
pub(crate) const PAPER_N: u64 = 1_000_000_000;
/// The paper's `perf`-measured flop count for n = 10⁹ on one Intel core.
pub(crate) const PAPER_FLOPS: u64 = 100_000_028_581;

/// One series term, computed the way the C++ benchmark does: `std::pow`.
#[inline]
pub(crate) fn term(x: f64, k: u64) -> f64 {
    let sign = if k.is_multiple_of(2) { -1.0 } else { 1.0 };
    sign * x.powf(k as f64) / k as f64
}

/// Sequential reference sum over `[1, n]`.
pub fn sequential(x: f64, n: u64) -> f64 {
    (1..=n).map(|k| term(x, k)).sum()
}

fn chunk_bounds(n: u64, chunks: usize, c: usize) -> (u64, u64) {
    let chunks = chunks as u64;
    let c = c as u64;
    let lo = c * n / chunks + 1;
    let hi = (c + 1) * n / chunks;
    (lo, hi)
}

/// Asynchronous-programming style: one `spawn` (≈ `hpx::async`) per chunk,
/// `when_all`, reduce.
pub fn futures_style(handle: &Handle, x: f64, n: u64, chunks: usize) -> f64 {
    let futures: Vec<amt::Future<f64>> = (0..chunks)
        .map(|c| {
            let (lo, hi) = chunk_bounds(n, chunks, c);
            handle.spawn(move || (lo..=hi).map(|k| term(x, k)).sum::<f64>())
        })
        .collect();
    when_all(futures).get().into_iter().sum()
}

/// Parallel-algorithm style: `transform_reduce` with the `par` policy
/// (`hpx::for_each`-family).
pub fn par_style(handle: &Handle, x: f64, n: u64, chunks: usize) -> f64 {
    transform_reduce_chunked(
        handle,
        ExecutionPolicy::Par,
        1..(n as usize + 1),
        chunks,
        0.0,
        |k| term(x, k as u64),
        |a, b| a + b,
    )
}

/// Senders & receivers style: `schedule → bulk(chunks) → then(reduce)`.
pub fn senders_style(handle: &Handle, x: f64, n: u64, chunks: usize) -> f64 {
    let partials: Arc<Vec<Mutex<f64>>> = Arc::new((0..chunks).map(|_| Mutex::new(0.0)).collect());
    let fill = Arc::clone(&partials);
    sync_wait(
        schedule(handle)
            .bulk(chunks, move |c| {
                let (lo, hi) = chunk_bounds(n, chunks, c);
                *lock(&fill[c]) = (lo..=hi).map(|k| term(x, k)).sum::<f64>();
            })
            .then(move |_| partials.iter().map(|m| *lock(m)).sum::<f64>()),
    )
}

/// Futures + coroutines style: one resumable coroutine per chunk, yielding
/// every `stride` terms (each yield is a scheduler round trip, like
/// `co_await`).
pub fn coroutine_style(handle: &Handle, x: f64, n: u64, chunks: usize, stride: usize) -> f64 {
    let futures: Vec<amt::Future<f64>> = (0..chunks)
        .map(|c| {
            let (lo, hi) = chunk_bounds(n, chunks, c);
            let co =
                coro::ChunkedFold::new(lo as usize..hi as usize + 1, stride, 0.0, move |acc, k| {
                    acc + term(x, k as u64)
                });
            coro::spawn_coroutine(handle, co)
        })
        .collect();
    when_all(futures).get().into_iter().sum()
}

/// Run `approach` with its default granularity (4 chunks per worker, the
/// coroutine style yielding every 4096 terms).
pub fn run(approach: Approach, handle: &Handle, x: f64, n: u64) -> f64 {
    let chunks = (handle.num_threads() * 4).max(1);
    match approach {
        Approach::Futures => futures_style(handle, x, n, chunks),
        Approach::ParForEach => par_style(handle, x, n, chunks),
        Approach::SendersReceivers => senders_style(handle, x, n, chunks),
        Approach::Coroutines => coroutine_style(handle, x, n, chunks, 4096),
    }
}

/// Flop-counted sequential run (our `perf` substitute): returns
/// `(sum, flops)` using the software-math instrumented scalar.
pub(crate) fn counted(x: f64, n: u64) -> (f64, u64) {
    let ctr = FlopCounter::new();
    let sum = {
        let _g = ctr.install();
        let xc = CountedF64::new(x);
        let mut acc = CountedF64::new(0.0);
        for k in 1..=n {
            let sign = if k % 2 == 0 { -1.0 } else { 1.0 };
            let p = xc.powf(k as f64);
            acc += CountedF64::new(sign) * p / CountedF64::new(k as f64);
        }
        acc.get()
    };
    (sum, ctr.flops())
}

/// Measured flops per term (counted on a small sample, the way one
/// extrapolates a `perf` measurement).
pub fn flops_per_term(x: f64) -> f64 {
    let sample = 10_000;
    let (_, flops) = counted(x, sample);
    flops as f64 / sample as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt::Runtime;

    const N: u64 = 100_000;

    fn reference(x: f64) -> f64 {
        (1.0 + x).ln()
    }

    #[test]
    fn sequential_converges_to_ln() {
        for &x in &[0.1, 0.5, 0.9, -0.5] {
            let s = sequential(x, 2_000_000);
            assert!(
                (s - reference(x)).abs() < 1e-6,
                "x={x}: {s} vs {}",
                reference(x)
            );
        }
    }

    #[test]
    fn all_styles_agree_with_sequential() {
        let rt = Runtime::new(4);
        let h = rt.handle();
        let want = sequential(PAPER_X, N);
        for approach in Approach::ALL {
            let got = run(approach, &h, PAPER_X, N);
            assert!((got - want).abs() < 1e-12, "{approach:?}: {got} vs {want}");
        }
    }

    #[test]
    fn chunk_bounds_partition_exactly() {
        for chunks in [1usize, 3, 7, 16] {
            let mut total = 0u64;
            let mut last_hi = 0;
            for c in 0..chunks {
                let (lo, hi) = chunk_bounds(N, chunks, c);
                assert_eq!(lo, last_hi + 1);
                total += hi - lo + 1;
                last_hi = hi;
            }
            assert_eq!(total, N);
            assert_eq!(last_hi, N);
        }
    }

    #[test]
    fn counted_flops_is_about_100_per_term() {
        // The paper: 100000028581 flops for 10⁹ terms ⇒ ≈100/term.
        let fpt = flops_per_term(PAPER_X);
        assert!(
            (60.0..140.0).contains(&fpt),
            "flops/term = {fpt}, expected ≈100 (paper)"
        );
    }

    #[test]
    fn counted_sum_matches_uncounted() {
        // The counted variant computes pow in software; it agrees with the
        // libm-based run to well below the series truncation error.
        let (counted_sum, flops) = counted(0.5, 50_000);
        let plain = sequential(0.5, 50_000);
        assert!(
            (counted_sum - plain).abs() < 1e-7,
            "{counted_sum} vs {plain}"
        );
        assert!((counted_sum - reference(0.5)).abs() < 1e-4);
        assert!(flops > 0);
    }

    #[test]
    fn term_alternates_sign() {
        assert!(term(0.5, 1) > 0.0);
        assert!(term(0.5, 2) < 0.0);
        assert!(term(0.5, 3) > 0.0);
    }

    #[test]
    fn single_chunk_single_thread() {
        let rt = Runtime::new(1);
        let got = futures_style(&rt.handle(), 0.5, 10_000, 1);
        assert!((got - sequential(0.5, 10_000)).abs() < 1e-12);
    }

    #[test]
    fn coroutine_stride_does_not_change_result() {
        let rt = Runtime::new(2);
        let a = coroutine_style(&rt.handle(), 0.5, N, 8, 128);
        let b = coroutine_style(&rt.handle(), 0.5, N, 8, 100_000);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn approach_labels_distinct() {
        let mut l: Vec<_> = Approach::ALL.iter().map(|a| a.label()).collect();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), 4);
    }
}
