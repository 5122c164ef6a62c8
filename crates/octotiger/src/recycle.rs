//! Buffer recycling — the reproduction's stand-in for **cppuddle**
//! (Table 1 of the paper lists it in Octo-Tiger's toolchain): a pool that
//! hands kernel scratch buffers back out instead of re-allocating them for
//! every one of the thousands of per-sub-grid kernel launches each step.
//!
//! The pool is size-bucketed and thread-safe; buffers are returned
//! explicitly (RAII would hide the pool handle inside the buffer type and
//! complicate crossing task boundaries, which is exactly where these
//! buffers travel).
//!
//! The free lists are sharded per runtime worker ([`amt::current_worker`]):
//! at level-2 trees a single `Mutex<HashMap>` is invisible, but a level-5
//! step issues ~10⁵ acquire/release pairs across all workers and the one
//! lock becomes a serialization point. A worker releases into its own shard
//! and acquires from it first (buffers stay warm in that worker's cache),
//! falling back to scavenging the other shards so reuse still works across
//! task migrations and from non-worker threads (shard 0).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use amt::lock;

/// Number of per-worker free-list shards. Worker indices map onto shards
/// modulo this; a power of two keeps the mapping cheap and bounds the
/// scavenging sweep on very wide machines.
const SHARDS: usize = 8;

/// Shard for the calling thread: the runtime worker's own shard on a worker
/// thread, shard 0 elsewhere (tests, `main`, bench harnesses).
fn home_shard() -> usize {
    amt::current_worker().map_or(0, |w| w % SHARDS)
}

type FreeLists = HashMap<usize, Vec<Vec<f64>>>;

/// A recycling pool of `Vec<f64>` scratch buffers.
#[derive(Debug, Default)]
pub struct RecyclePool {
    shards: [Mutex<FreeLists>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Pool statistics (reuse effectiveness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers served from the free list.
    pub hits: u64,
    /// Buffers that had to be freshly allocated.
    pub misses: u64,
}

impl RecyclePool {
    /// Acquire a buffer of exactly `len` elements, reusing a previously
    /// released one when available — **as it was released**: initialised,
    /// contents unspecified (the consumer writes each element before reading
    /// it; a debug build fills the buffer with NaN to hold it to that).
    /// The caller's own shard is tried first (no contention in the steady
    /// state); other shards are scavenged before giving up and allocating.
    pub fn acquire(&self, len: usize) -> Vec<f64> {
        let home = home_shard();
        let recycled = (0..SHARDS)
            .map(|i| &self.shards[(home + i) % SHARDS])
            .find_map(|shard| lock(shard).get_mut(&len).and_then(Vec::pop));
        match recycled {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Only a buffer released shorter than its capacity grows.
                buf.resize(len, 0.0);
                #[cfg(debug_assertions)]
                buf.fill(f64::NAN);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0.0; len]
            }
        }
    }

    /// Return a buffer for future reuse (its capacity is what's recycled).
    /// Lands in the calling worker's own shard.
    pub fn release(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        lock(&self.shards[home_shard()])
            .entry(buf.capacity())
            .or_default()
            .push(buf);
    }

    /// Reuse statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently parked in the pool (all shards).
    pub fn parked(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Drop every parked buffer (memory pressure relief).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn second_acquire_reuses_first_release() {
        let pool: RecyclePool = RecyclePool::default();
        let a = pool.acquire(512);
        pool.release(a);
        let b = pool.acquire(512);
        assert_eq!(b.len(), 512);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn reused_buffers_come_back_unreset_and_poisoned_in_debug() {
        let pool: RecyclePool = RecyclePool::default();
        let mut a = pool.acquire(16);
        assert!(a.iter().all(|&x| x == 0.0), "a fresh buffer is zeroed");
        a.fill(7.0);
        a.truncate(4);
        pool.release(a);
        let b = pool.acquire(16);
        assert_eq!(b.len(), 16, "a buffer released short grows back");
        if cfg!(debug_assertions) {
            assert!(b.iter().all(|x| x.is_nan()), "debug builds poison");
        } else {
            assert_eq!(b[..4], [7.0; 4], "release builds do not touch it");
        }
    }

    #[test]
    fn different_sizes_use_different_buckets() {
        let pool: RecyclePool = RecyclePool::default();
        pool.release(vec![0.0; 100]);
        let _ = pool.acquire(200);
        assert_eq!(pool.stats().misses, 1, "size mismatch cannot be served");
        assert_eq!(pool.parked(), 1, "the 100-element buffer stays parked");
    }

    #[test]
    fn clear_empties_the_pool() {
        let pool: RecyclePool = RecyclePool::default();
        pool.release(vec![0.0; 8]);
        pool.release(vec![0.0; 8]);
        assert_eq!(pool.parked(), 2);
        pool.clear();
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn cross_shard_scavenging_still_reuses() {
        // A buffer released on one worker (or off-worker → shard 0) must be
        // reusable from any other thread: scavenging keeps the pool's reuse
        // guarantee, sharding only changes who contends with whom.
        let pool: Arc<RecyclePool> = Arc::new(RecyclePool::default());
        pool.release(vec![0.0; 64]); // off-worker → shard 0
        let rt = amt::Runtime::new(2);
        let reused = {
            let p = Arc::clone(&pool);
            rt.spawn(move || {
                let buf = p.acquire(64);
                let len = buf.len();
                p.release(buf); // parked in the worker's own shard
                len
            })
            .get()
        };
        assert_eq!(reused, 64);
        assert!(pool.stats().hits >= 1, "worker must scavenge shard 0");
        assert_eq!(pool.parked(), 1);
    }
}
