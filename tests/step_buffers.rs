//! The step's buffers live per topology generation: the leaf-order P2M
//! block table is allocated on a generation's first step, once, and every
//! later step of the generation overwrites it in place — so a steady step
//! makes no allocation as large as it. No step allocates a table of
//! per-leaf accelerations: a leaf's exist only while they wait for its
//! write-back.
//!
//! One test in its own binary: the allocator below watches every thread
//! (the step runs on the runtime's workers), so nothing may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use octotiger_riscv_repro::amt::Runtime;
use octotiger_riscv_repro::octotiger::gravity::{BlockSoA, BLOCKS};
use octotiger_riscv_repro::octotiger::{Driver, OctoConfig};

// ---- allocations of at least `WATCH` bytes, on any thread ------------------

/// Smallest allocation recorded (`usize::MAX`: none).
static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Sizes of the recorded allocations, in order; `LOGGED` counts them.
static SIZES: [AtomicUsize; 256] = [const { AtomicUsize::new(0) }; 256];
static LOGGED: AtomicUsize = AtomicUsize::new(0);

struct WatchingAlloc;

// SAFETY: defers to `System`; the bookkeeping is atomics only, which never
// allocate.
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
fn a_steady_step_allocates_no_step_buffer() {
    let mut d = Driver::new(OctoConfig {
        max_level: 2,
        threads: 2,
        ..OctoConfig::default()
    });
    let rt = Runtime::new(2);
    // At the tree's size: the block table, one `BlockSoA` per leaf, and a
    // table of per-block acceleration slots, one per owned leaf (here every
    // leaf).
    let sizes = |d: &Driver| {
        let leaves = d.tree().leaf_count();
        let accel_slot = std::mem::size_of::<Mutex<Option<[[f64; 3]; BLOCKS]>>>();
        (
            leaves * std::mem::size_of::<BlockSoA>(),
            leaves * accel_slot,
        )
    };
    // A generation's first step allocates the block table once, its later
    // steps nothing as large; no step allocates an acceleration table.
    let generation = |d: &mut Driver, label: &str| {
        let (blocks, accels) = sizes(d);
        for step in 0..3 {
            let allocs = large_allocations_during(blocks.min(accels), || {
                d.step(&rt);
            });
            let count = |size| allocs.iter().filter(|&&a| a == size).count();
            if step == 0 {
                assert_eq!(count(blocks), 1, "{label}, block table: {allocs:?}");
                assert_eq!(count(accels), 0, "{label}, acceleration table: {allocs:?}");
            } else {
                assert_eq!(allocs, [], "{label}, steady step {step}");
            }
        }
    };
    generation(&mut d, "built tree");
    let victims = d.tree().leaf_ids()[..3].to_vec();
    assert!(d.regrid(&rt, &victims).leaves_refined >= 3);
    generation(&mut d, "after a regrid");
}
