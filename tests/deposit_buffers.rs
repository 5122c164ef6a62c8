//! A deposit is its frame: a two-locality step writes each halo and blocks
//! deposit from the leaves and the block table straight into its request
//! frame, and the peer's in-node reads that frame in place — no copy of a
//! leaf's interior and no decoded deposit on either side of the wire.
//!
//! One test in its own binary: the allocator below watches every thread
//! (the steps run on the localities' workers), so nothing may run beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::gravity::BLOCKS;
use octotiger_riscv_repro::octotiger::star::NF;
use octotiger_riscv_repro::octotiger::subgrid::{CELLS, FRAME_LEN};
use octotiger_riscv_repro::octotiger::{DistConfig, DistMetrics, DistRun, OctoConfig};

// ---- allocations of at least `WATCH` bytes, on any thread ------------------

/// Smallest allocation recorded (`usize::MAX`: none).
static WATCH: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Sizes of the recorded allocations, in order; `LOGGED` counts them.
static SIZES: [AtomicUsize; 2048] = [const { AtomicUsize::new(0) }; 2048];
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

/// Sizes of the allocations of at least `watch` bytes made while running
/// `f`, ascending.
fn large_allocations_during<R>(watch: usize, f: impl FnOnce() -> R) -> (R, Vec<usize>) {
    LOGGED.store(0, Ordering::Relaxed);
    WATCH.store(watch, Ordering::Relaxed);
    let out = f();
    WATCH.store(usize::MAX, Ordering::Relaxed);
    let logged = LOGGED.load(Ordering::Relaxed);
    assert!(logged <= SIZES.len(), "{logged} large allocations");
    let mut sizes: Vec<usize> = (SIZES[..logged].iter())
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    sizes.sort_unstable();
    (out, sizes)
}

/// A level-2 two-locality run of `steps` steps, one worker per locality.
fn run(steps: u32) -> DistMetrics {
    DistRun::execute(DistConfig {
        nodes: 2,
        threads_per_node: 1,
        backend: NetBackend::Tcp,
        coalesce: Default::default(),
        octo: OctoConfig {
            max_level: 2,
            stop_step: steps,
            threads: 1,
            ..OctoConfig::default()
        },
    })
}

/// The bytes of the frame of a request to `action` whose argument's image
/// is `image` bytes long: the frame's 31 bytes in front of the parcel, then
/// the parcel — variant, caller, target, the action's name behind its
/// count, the image behind its count, call id.
fn request_frame(action: &str, image: usize) -> usize {
    31 + 4 + 4 + 8 + (4 + action.len()) + (4 + image) + 8
}

#[test]
fn a_two_locality_step_allocates_one_frame_per_deposit() {
    // A leaf's interior is the smallest buffer watched: every payload-sized
    // allocation is counted.
    let interior = 8 * NF * CELLS;
    // One steady step is what two steps allocate beyond one (the first
    // builds the generation's plan and buffers).
    let (one, mut fewer) = large_allocations_during(interior, || run(1));
    let (two, more) = large_allocations_during(interior, || run(2));
    assert_eq!(one.leaf_count, two.leaf_count);
    let mut step = Vec::new();
    for size in more {
        match fewer.iter().position(|&s| s == size) {
            Some(at) => {
                fewer.swap_remove(at);
            }
            None => step.push(size),
        }
    }
    assert_eq!(
        fewer,
        [],
        "the shorter run allocated what the longer did not"
    );

    let leaves = two.leaf_count;
    let count = |size| step.iter().filter(|&&s| s == size).count();
    // Each owned leaf's hydro task: its result and its ghost frame. No
    // other buffer a leaf's interior long: no leaf is copied to be sent or
    // decoded to be received.
    assert_eq!(count(interior), leaves, "{step:?}");
    assert_eq!(count(8 * FRAME_LEN), leaves, "{step:?}");
    let frames: Vec<usize> = (step.iter().copied())
        .filter(|&s| s != interior && s != 8 * FRAME_LEN)
        .collect();
    // Per direction one blocks frame, each owned leaf's position and blocks…
    let blocks =
        |owned: usize| request_frame("deposit_blocks", 4 + owned * (8 + 4 * (4 + 8 * BLOCKS)));
    let mut want: Vec<usize> = two.owned_per_node.iter().map(|&n| blocks(n)).collect();
    // …and one halo frame, each read leaf's position and interior.
    let halo = |size: usize| {
        let entries = size.checked_sub(request_frame("deposit_halo", 4))?;
        (entries % (8 + 4 + interior) == 0 && entries > 0).then_some(size)
    };
    let halos: Vec<usize> = frames.iter().filter_map(|&s| halo(s)).collect();
    assert_eq!(halos.len(), 2, "one halo frame each way: {frames:?}");
    want.extend(halos);
    want.sort_unstable();
    assert_eq!(frames, want, "no other payload-sized buffer");
}
