//! A remote call writes its payload once and reads it once: the argument's
//! image goes straight into the request frame and is decoded from it on the
//! target locality, and the result's image goes straight into the response
//! frame and is decoded from it on the caller's — no payload, parcel or
//! reply buffer in between, and no frame that grows while it is written.
//!
//! One test in its own binary: the allocator below watches every thread
//! (the receive tasks run on the localities' workers), so nothing may run
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use distrib::{Cluster, ClusterConfig, LocalityHandle};
use rv_machine::NetBackend;

/// Smallest allocation counted (`usize::MAX`: none).
static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Sizes of the counted allocations, in order; `LOGGED` counts them.
static SIZES: [AtomicUsize; 64] = [const { AtomicUsize::new(0) }; 64];
static LOGGED: AtomicUsize = AtomicUsize::new(0);

struct WatchingAlloc;

// SAFETY: defers to `System`; the bookkeeping is atomics only, which never
// allocate. A reallocation goes through `alloc`, so a buffer that grows past
// the watch is counted again.
unsafe impl GlobalAlloc for WatchingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= WATCH.load(Ordering::Relaxed) {
            let i = LOGGED.fetch_add(1, Ordering::Relaxed);
            if let Some(slot) = SIZES.get(i) {
                slot.store(layout.size(), Ordering::Relaxed);
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: WatchingAlloc = WatchingAlloc;

/// Sizes of the allocations of at least `watch` bytes made while running `f`.
fn large_allocations_during(watch: usize, f: impl FnOnce()) -> Vec<usize> {
    LOGGED.store(0, Ordering::Relaxed);
    WATCH.store(watch, Ordering::Relaxed);
    f();
    WATCH.store(usize::MAX, Ordering::Relaxed);
    let logged = LOGGED.load(Ordering::Relaxed);
    assert!(logged <= SIZES.len(), "{logged} large allocations");
    (SIZES[..logged].iter())
        .map(|s| s.load(Ordering::Relaxed))
        .collect()
}

#[test]
fn a_remote_echo_allocates_one_buffer_per_payload_crossing() {
    let cluster = Cluster::new(ClusterConfig {
        localities: 2,
        threads_per_locality: 1,
        backend: NetBackend::Tcp,
        ..ClusterConfig::default()
    });
    cluster.register_action("echo", |_: &LocalityHandle, _, v: Vec<f64>| v);
    let here = cluster.locality(0);
    let remote = cluster.locality(1).new_component(());
    let sent: Vec<f64> = (0..4096).map(f64::from).collect();
    let n = 8 * sent.len();
    // Once unwatched, so whatever a first call sets up lazily is in place.
    let _: Vec<f64> = here.invoke(remote, "echo", &sent).get();
    let sizes = large_allocations_during(n, || {
        let back: Vec<f64> = here.invoke(remote, "echo", &sent).get();
        assert_eq!(back, sent);
    });
    // The request frame, the argument decoded from it, the response frame,
    // the result decoded from that — each allocated at its final size.
    assert_eq!(
        sizes.len(),
        4,
        "allocations of at least {n} bytes: {sizes:?}"
    );
    assert_eq!(
        sizes.iter().filter(|&&size| size == n).count(),
        2,
        "{sizes:?}"
    );
    assert!(sizes.iter().all(|&size| size < n + 128), "{sizes:?}");
}
