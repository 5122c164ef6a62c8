//! # amt — an HPX-like Asynchronous Many-Task runtime in Rust
//!
//! This crate is the reproduction's stand-in for **HPX**, the C++ standard
//! library for parallelism and concurrency that the SC'23 paper ports to
//! RISC-V. It provides the same programming model surface the paper's
//! benchmarks exercise:
//!
//! * **Lightweight tasks** on a work-stealing worker pool
//!   ([`Runtime`], [`Handle::spawn`]) — HPX's `hpx::async`;
//! * **Futures with continuations** ([`Future::then`], [`when_all`])
//!   forming user-defined task DAGs;
//! * **Parallel algorithms** ([`par::transform_reduce`],
//!   [`par::for_loop_chunked`]) with execution policies `seq` / `par` — HPX's
//!   `hpx::for_each(hpx::execution::par, ...)`;
//! * **Senders & receivers** ([`sr`]) — the P2300 subset used by the paper's
//!   Maclaurin benchmark;
//! * **Coroutine-style resumable tasks** ([`coro`]) — Rust has no C++20
//!   coroutines, so "future + coroutine" is modelled as an explicitly
//!   resumable state machine whose every suspension is a scheduler round
//!   trip (the same control structure the C++ benchmark produces);
//! * **Instrumentation** ([`RuntimeStats`]) counting spawns, steals, parks
//!   and yields. These counts feed the `rv-machine` cost model so runtime
//!   overheads can be projected onto the paper's CPUs (RISC-V context
//!   switches are the expensive case the paper's conclusion discusses).
//!
//! Blocking a worker thread is always safe: waits performed on a worker
//! (`Future::get`, scopes) *help* — they execute other ready tasks while
//! waiting, exactly like HPX suspending an hpx-thread.
//!
//! The stack is `std` alone. Its queues are the crate's own Chase–Lev deque
//! and injector (a private module), and its locks are `std::sync`'s, taken
//! through [`lock`].
//!
//! ```
//! use amt::Runtime;
//!
//! let rt = Runtime::new(4);
//! let f = rt.handle().spawn(|| 21).then(|x| x * 2);
//! assert_eq!(f.get(), 42);
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};

mod deque;
mod future;
mod runtime;

pub mod coro;
pub mod par;
pub mod sr;

pub use future::{make_ready_future, pair as future_pair, when_all, Future, Promise};
pub use runtime::{current_worker, imbalance, Handle, Runtime, RuntimeStats, WorkerStats};

/// Lock `m`, ignoring poison: a panic while the lock was held does not make
/// it unusable, and the data is left in whatever state the panic reached.
/// This is the workspace's one lock policy. Panics travel to their joiners
/// as payloads (the task's promise, scope or receiver), so nothing needs a
/// lock to carry the news as well.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = Arc::clone(&m);
        let joined = std::thread::spawn(move || {
            let mut g = super::lock(&m2);
            *g += 1;
            panic!("poison attempt");
        })
        .join();
        assert!(joined.is_err(), "the holder panicked");
        assert!(m.is_poisoned());
        // No poison for `lock`: the lock works and holds what the panic left.
        *super::lock(&m) += 1;
        assert_eq!(*super::lock(&m), 7);
    }
}
