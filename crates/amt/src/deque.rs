//! The scheduler's work-stealing queues.
//!
//! They have the work-stealing *semantics* the runtime relies on — LIFO
//! owner pops for cache locality, FIFO steals from the opposite end,
//! batched injector drains — and the two properties its scheduler is built
//! on: a worker's own `push`/`pop` never wait for a thief, and a probe of an
//! empty queue (`pop`, `steal`, `steal_batch_and_pop`, `is_empty`, `len`)
//! is a couple of atomic loads, never a lock.
//!
//! * [`Worker`] / [`Stealer`] are a Chase–Lev deque: a growable ring with a
//!   `bottom` index only the owner writes and a `top` index only thieves
//!   advance. Where the published algorithm lets thieves (and the owner, for
//!   the last item) race with a compare-and-swap on `top`, this one has them
//!   take a small mutex. The owner's `push`, and its `pop` while more than
//!   one item is left, touch no lock and no read-modify-write at all; thieves
//!   queue up behind each other, which they would do on the CAS as well. In
//!   exchange no slot is ever read while it may be written — the original
//!   reads first and throws the value away when its CAS fails — and a
//!   retired ring can be freed on the spot, with no epochs or hazard
//!   pointers. (With every deque operation under one mutex, a worker
//!   spawning empty tasks while another stole them ran slower than on one
//!   worker alone, and slower than before the queue published its length:
//!   `bench_amt`, `per_task/*/on_worker/w2`, 640–720 against 430–480
//!   ns/task.)
//! * [`Injector`] is a locked `VecDeque` with its length published beside
//!   the lock. Consumers drain it in batches, one lock per batch, which a
//!   lock-free list of blocks (the standard library's channel, tried in its
//!   place) did not beat when the queue is long and lost to by 8 % on the
//!   referee's `maclaurin_fine_t2`.
//!
//! Raw slot access is the `ring` module's two `unsafe fn`s; each of their
//! call sites (all in this file) says why its preconditions hold. A take
//! that finds nothing is `None`: no operation here ever asks to be retried.
//!
//! # Memory ordering
//!
//! Every access to `top`, `bottom` and the injector's length that another
//! thread can observe is `SeqCst`. Two arguments need the single total order
//! that gives: the deque's own (below, at `pop`), and the runtime's sleep
//! protocol, a Dekker pair — "push, then look for sleepers" against
//! "register as sleeper, then look for work". The injector's length is
//! written only while its lock is held, so it never disagrees with the queue
//! for longer than one critical section.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ring::Ring;

// A mutex here guards `()` or a `VecDeque`, valid at every step, so a panic
// under it leaves nothing to repair.
use crate::lock;

/// Most tasks one `steal_batch_and_pop` moves besides the one it returns.
const MAX_BATCH: usize = 32;

/// Slots of a new deque's ring (512 B of task pointers); it doubles when full.
const MIN_CAP: usize = 32;

/// On cache lines of its own (128 B covers the adjacent-line prefetcher
/// too, as for the deque's `OwnerLine` / `ThiefLine`), so that one side's
/// writes do not invalidate what the other side polls.
#[repr(align(128))]
struct Padded<T>(T);

/// The raw ring of slots under the deque: the module's two `unsafe fn`s.
mod ring {
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;

    /// A power-of-two ring of possibly-uninitialised slots, addressed by an
    /// ever-growing index. It knows nothing about which slots are live: its
    /// users keep that in `top` and `bottom`, and dropping a `Ring` frees
    /// the memory without dropping any item.
    pub(super) struct Ring<T> {
        slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    }

    impl<T> Ring<T> {
        pub(super) fn new(cap: usize) -> Self {
            assert!(cap.is_power_of_two());
            Ring {
                slots: (0..cap)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
            }
        }

        pub(super) fn cap(&self) -> isize {
            self.slots.len() as isize
        }

        fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
            self.slots[index as usize & (self.slots.len() - 1)].get()
        }

        /// Put `value` into the slot of `index`, without dropping what the
        /// slot held.
        ///
        /// # Safety
        ///
        /// No other thread may access that slot during the call.
        pub(super) unsafe fn write(&self, index: isize, value: T) {
            // SAFETY: the slot pointer is in bounds and aligned (it comes
            // from the boxed slice); exclusive access is the caller's duty.
            unsafe { (*self.slot(index)).write(value) };
        }

        /// Move the item out of the slot of `index`.
        ///
        /// # Safety
        ///
        /// The slot must hold an item written by [`Ring::write`] that no
        /// earlier `read` has moved out (or this copy must be the only one
        /// that is ever used), and no other thread may write the slot during
        /// the call.
        pub(super) unsafe fn read(&self, index: isize) -> T {
            // SAFETY: in bounds and aligned as above; initialised and not
            // concurrently written by the caller's contract.
            unsafe { (*self.slot(index)).assume_init_read() }
        }
    }
}

/// The state shared by a [`Worker`] and its [`Stealer`]s.
///
/// Live items are the indices `top..bottom`. Invariants:
///
/// * `bottom` and `ring` are written by the owner only (`ring` only while it
///   holds `thieves`); `top` only grows, and only under `thieves`.
/// * A thief reads slot `i` only while it holds `thieves` and `i == top`.
/// * The owner writes slot `b` only when `b - top < cap` for a value of
///   `top` it has loaded (`top` only grows, so an old value is safe): every
///   index that shares the slot is then below `top`, and whoever moved `top`
///   past it had finished reading it.
struct Deque<T> {
    owner: OwnerLine<T>,
    thief: ThiefLine,
}

/// The owner's cache lines: where the next push goes, and the current ring.
#[repr(align(128))]
struct OwnerLine<T> {
    bottom: AtomicIsize,
    ring: AtomicPtr<Ring<T>>,
}

/// The thieves' cache lines: the oldest live index, and their mutex.
#[repr(align(128))]
struct ThiefLine {
    top: AtomicIsize,
    lock: Mutex<()>,
}

// SAFETY: a `Deque` hands each item to exactly one thread, by value, so `T:
// Send` is all it needs; `&T` is never shared. The raw `Ring` pointer is
// owned by the deque (allocated in `new`/`grow`, freed in `grow`/`drop`) and
// every access to its slots follows the invariants above.
unsafe impl<T: Send> Send for Deque<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for Deque<T> {}

impl<T> Deque<T> {
    fn len(&self) -> usize {
        // `top` first: it only grows, so the difference is never too large.
        let t = self.thief.top.load(Ordering::SeqCst);
        let b = self.owner.bottom.load(Ordering::SeqCst);
        (b - t).max(0) as usize
    }

    fn steal(&self) -> Option<T> {
        if self.len() == 0 {
            return None;
        }
        let _thieves = lock(&self.thief.lock);
        let t = self.thief.top.load(Ordering::SeqCst);
        let b = self.owner.bottom.load(Ordering::SeqCst);
        if b - t <= 0 {
            return None;
        }
        // SAFETY: the ring pointer is valid: the owner replaces and frees a
        // ring only while it holds `thieves`, which we hold. Slot `t` holds
        // an item: the owner wrote it before it published `bottom > t`,
        // which we have seen. Nobody writes it now: the owner would need
        // `b' - top >= cap` to be false for `b' = t + k·cap`, and `top`
        // cannot pass `t` while we hold the lock. Nobody else moves it out:
        // other thieves are locked out, and the owner takes an item without
        // the lock only after it has seen `top` below that item's index with
        // `bottom` already lowered to it — then `top == t` here implies we
        // have seen the lowered `bottom` and `b - t <= 0` above (the
        // argument is spelled out at `Worker::pop`).
        let item = unsafe { (*self.owner.ring.load(Ordering::SeqCst)).read(t) };
        self.thief.top.store(t + 1, Ordering::SeqCst);
        Some(item)
    }
}

impl<T> Drop for Deque<T> {
    fn drop(&mut self) {
        let t = self.thief.top.load(Ordering::Relaxed);
        let b = self.owner.bottom.load(Ordering::Relaxed);
        // SAFETY: the pointer came from `Box::into_raw` in `new`/`grow` and
        // is not freed elsewhere once the deque is being dropped.
        let ring = unsafe { Box::from_raw(self.owner.ring.load(Ordering::Relaxed)) };
        for i in t..b {
            // SAFETY: `&mut self`: no other thread; `top..bottom` are
            // exactly the slots that hold an item nobody has moved out.
            drop(unsafe { ring.read(i) });
        }
    }
}

/// Owner side of a per-worker deque. Push/pop at the back (LIFO);
/// stealers take from the front. `Send` but not `Sync`: there is one owner.
pub struct Worker<T> {
    deque: Arc<Deque<T>>,
    /// A value `top` has had: enough to tell that the ring is not full
    /// without touching the thieves' line on every push.
    top_seen: Cell<isize>,
}

impl<T> Worker<T> {
    pub fn new_lifo() -> Self {
        let ring = Box::into_raw(Box::new(Ring::new(MIN_CAP)));
        Worker {
            deque: Arc::new(Deque {
                owner: OwnerLine {
                    bottom: AtomicIsize::new(0),
                    ring: AtomicPtr::new(ring),
                },
                thief: ThiefLine {
                    top: AtomicIsize::new(0),
                    lock: Mutex::new(()),
                },
            }),
            top_seen: Cell::new(0),
        }
    }

    /// The current ring. Only the owner replaces it, so for the owner the
    /// reference is good until its next `grow`.
    fn ring(&self) -> &Ring<T> {
        // SAFETY: valid since `new`/`grow`; freed only by `grow` (called by
        // this same thread, not while the reference is in use) or by
        // `Deque::drop` (after every `Worker` is gone).
        unsafe { &*self.deque.owner.ring.load(Ordering::Relaxed) }
    }

    pub fn push(&self, task: T) {
        let d = &*self.deque;
        let b = d.owner.bottom.load(Ordering::Relaxed);
        if b - self.top_seen.get() >= self.ring().cap() {
            self.top_seen.set(d.thief.top.load(Ordering::SeqCst));
            if b - self.top_seen.get() >= self.ring().cap() {
                self.grow(b);
            }
        }
        // SAFETY: `b - top_seen < cap` (third invariant of `Deque`): no live
        // index shares slot `b`, and no thief is still reading an old one.
        unsafe { self.ring().write(b, task) };
        d.owner.bottom.store(b + 1, Ordering::SeqCst);
    }

    /// Move the live items into a ring of twice the size.
    #[cold]
    fn grow(&self, b: isize) {
        let d = &*self.deque;
        // No thief reads the old ring from here on, and `top` stands still.
        let _thieves = lock(&d.thief.lock);
        let t = d.thief.top.load(Ordering::SeqCst);
        let old = d.owner.ring.load(Ordering::Relaxed);
        let new = Ring::new(2 * self.ring().cap() as usize);
        for i in t..b {
            // SAFETY: `t..b` are live, thieves are locked out, the owner is
            // here; each item is moved to the same index of the new ring and
            // the old copy is never used again. The new ring is private.
            unsafe { new.write(i, (*old).read(i)) };
        }
        d.owner
            .ring
            .store(Box::into_raw(Box::new(new)), Ordering::SeqCst);
        // SAFETY: `old` came from `Box::into_raw`; thieves dereference the
        // ring pointer only under the lock we hold and will load the new
        // one; the owner's own references ended above. Freeing a `Ring`
        // drops no item.
        drop(unsafe { Box::from_raw(old) });
        self.top_seen.set(t);
    }

    pub fn pop(&self) -> Option<T> {
        let d = &*self.deque;
        let b = d.owner.bottom.load(Ordering::Relaxed) - 1;
        if b < d.thief.top.load(Ordering::SeqCst) {
            return None;
        }
        // Announce the take: from here thieves may only go below `b`.
        d.owner.bottom.store(b, Ordering::SeqCst);
        if d.thief.top.load(Ordering::SeqCst) < b {
            // An item is left below ours, so no thief can be at `b`: a thief
            // takes index `i` only after loading `top == i` and then `bottom
            // > i`. If one had loaded `top == b`, that value of `top` would
            // have been stored before its two loads, yet after our load just
            // above (which saw less) — and so after our store of `bottom =
            // b`, which its load of `bottom` must then see: `b > b` fails.
            //
            // SAFETY: slot `b` is live (below the old `bottom`, not below
            // `top`), this thread wrote it, and by the argument above no
            // thief reads or takes it.
            return Some(unsafe { self.ring().read(b) });
        }
        // Ours is the last item, or a thief just took it: settle that under
        // the thieves' lock, where `top` stands still.
        let _thieves = lock(&d.thief.lock);
        let t = d.thief.top.load(Ordering::SeqCst);
        let item = (t == b).then(|| {
            d.thief.top.store(b + 1, Ordering::SeqCst);
            // SAFETY: `top == b` under the lock: the item is still there and
            // no thief can touch it before it sees `top == b + 1`.
            unsafe { self.ring().read(b) }
        });
        // Empty either way: `top == bottom == b + 1`.
        d.owner.bottom.store(b + 1, Ordering::SeqCst);
        item
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.deque.len() == 0
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.deque.len()
    }

    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            deque: self.deque.clone(),
        }
    }
}

/// Thief side of a worker's deque; steals one task from the front.
pub struct Stealer<T> {
    deque: Arc<Deque<T>>,
}

impl<T> Stealer<T> {
    pub fn steal(&self) -> Option<T> {
        self.deque.steal()
    }

    pub fn is_empty(&self) -> bool {
        self.deque.len() == 0
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.deque.len()
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            deque: self.deque.clone(),
        }
    }
}

/// Global FIFO injector for submissions from outside the worker pool: a
/// locked `VecDeque` whose length is published beside the lock, so that a
/// probe of the empty injector takes no lock. A consumer that finds a
/// backlog takes a batch per lock, which is what keeps an external producer
/// and the workers out of each other's way.
pub struct Injector<T> {
    len: Padded<AtomicUsize>,
    items: Mutex<VecDeque<T>>,
}

/// The locked items; publishes the new length when it goes out of scope.
struct Locked<'a, T> {
    items: MutexGuard<'a, VecDeque<T>>,
    len: &'a AtomicUsize,
}

impl<T> Drop for Locked<'_, T> {
    fn drop(&mut self) {
        self.len.store(self.items.len(), Ordering::SeqCst);
    }
}

impl<T> Injector<T> {
    pub fn new() -> Self {
        Injector {
            len: Padded(AtomicUsize::new(0)),
            items: Mutex::new(VecDeque::new()),
        }
    }

    fn lock(&self) -> Locked<'_, T> {
        Locked {
            items: lock(&self.items),
            len: &self.len.0,
        }
    }

    /// The locked items, or `None` — without locking — when the injector
    /// reads empty.
    fn lock_nonempty(&self) -> Option<Locked<'_, T>> {
        (!self.is_empty()).then(|| self.lock())
    }

    pub fn push(&self, task: T) {
        self.lock().items.push_back(task);
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        self.len.0.load(Ordering::SeqCst)
    }

    #[cfg(test)]
    pub fn steal(&self) -> Option<T> {
        self.lock_nonempty().and_then(|mut q| q.items.pop_front())
    }

    /// Drain a batch (up to half of what is left after the first task,
    /// capped at [`MAX_BATCH`]) into `worker`'s queue, newest first so that
    /// its owner pops them oldest first, and return the first task
    /// immediately.
    pub fn steal_batch_and_pop(&self, worker: &Worker<T>) -> Option<T> {
        let mut q = self.lock_nonempty()?;
        let first = q.items.pop_front()?;
        let extra = (q.items.len() / 2).min(MAX_BATCH);
        for task in q.items.drain(..extra).rev() {
            worker.push(task);
        }
        Some(first)
    }
}

/// The deque and the injector against a `VecDeque` model, and under threads.
///
/// * Single-threaded, every observable of a random operation sequence must
///   equal the model's: the owner pops LIFO, thieves and the injector take
///   FIFO, `steal_batch_and_pop` returns the oldest task and moves at most
///   half of the rest (capped at 32) so that the owner pops them in arrival
///   order, `len` / `is_empty` agree
///   after every step. Sequences are long enough to make the ring grow and
///   wrap.
/// * Four threads (the owner, two thieves, one injector producer) pass a
///   million items around: each is delivered exactly once, and what is left
///   in the queues when they are dropped is dropped exactly once.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    use proptest::prelude::*;

    #[test]
    fn lifo_owner_fifo_thief() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3)); // owner: LIFO
        assert_eq!(s.steal(), Some(1)); // thief: FIFO
        assert_eq!(w.pop(), Some(2));
        assert!(s.steal().is_none());
    }

    #[test]
    fn injector_batches_into_worker() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let w = Worker::new_lifo();
        assert_eq!(inj.steal_batch_and_pop(&w), Some(0));
        // Half of the remaining 9 tasks moved into the worker's queue, which
        // its owner pops in arrival order.
        assert_eq!(w.len(), 4);
        assert_eq!(inj.len(), 5);
        assert_eq!([w.pop(), w.pop(), w.pop(), w.pop()], [1, 2, 3, 4].map(Some));
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push,
        Pop,
        Steal,
        Inject,
        InjectorSteal,
        Batch,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        // Pushes outweigh takes so that queues get long (the ring starts at 32
        // slots) and drain again.
        let op = (0u8..14).prop_map(|n| match n {
            0..=3 => Op::Push,
            4..=5 => Op::Pop,
            6..=7 => Op::Steal,
            8..=11 => Op::Inject,
            12 => Op::InjectorSteal,
            _ => Op::Batch,
        });
        proptest::collection::vec(op, 1..600)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_sequences_match_the_vecdeque_model(ops in arb_ops()) {
            let worker = Worker::new_lifo();
            let stealer = worker.stealer();
            let injector = Injector::new();
            let mut deque_model: VecDeque<u32> = VecDeque::new();
            let mut injector_model: VecDeque<u32> = VecDeque::new();
            let mut next = 0u32;
            for op in ops {
                match op {
                    Op::Push => {
                        worker.push(next);
                        deque_model.push_back(next);
                        next += 1;
                    }
                    Op::Pop => prop_assert_eq!(worker.pop(), deque_model.pop_back()),
                    Op::Steal => prop_assert_eq!(stealer.steal(), deque_model.pop_front()),
                    Op::Inject => {
                        injector.push(next);
                        injector_model.push_back(next);
                        next += 1;
                    }
                    Op::InjectorSteal => {
                        prop_assert_eq!(injector.steal(), injector_model.pop_front())
                    }
                    Op::Batch => {
                        let first = injector_model.pop_front();
                        if first.is_some() {
                            let moved = (injector_model.len() / 2).min(32);
                            deque_model.extend(injector_model.drain(..moved).rev());
                        }
                        prop_assert_eq!(injector.steal_batch_and_pop(&worker), first);
                    }
                }
                prop_assert_eq!(worker.len(), deque_model.len());
                prop_assert_eq!(stealer.len(), deque_model.len());
                prop_assert_eq!(worker.is_empty(), deque_model.is_empty());
                prop_assert_eq!(stealer.is_empty(), deque_model.is_empty());
                prop_assert_eq!(injector.len(), injector_model.len());
                prop_assert_eq!(injector.is_empty(), injector_model.is_empty());
            }
            // The queue holds the model's items in the model's order.
            while let Some(want) = deque_model.pop_front() {
                prop_assert_eq!(stealer.steal(), Some(want));
            }
            prop_assert_eq!(worker.pop(), None);
        }
    }

    /// Counts its own drop, and remembers which item it is.
    struct Item {
        id: usize,
        drops: Arc<Vec<AtomicUsize>>,
    }

    impl Drop for Item {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn four_threads_deliver_a_million_items_exactly_once() {
        const ITEMS: usize = 1_000_000;
        // The producer pushes odd ids through the injector, the owner pushes
        // even ids onto its own deque.
        let drops: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let delivered: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let take = |item: Item, delivered: &[AtomicUsize]| {
            delivered[item.id].fetch_add(1, Ordering::Relaxed);
        };
        let injector = Arc::new(Injector::new());
        let worker = Worker::new_lifo();
        let stop = Arc::new(AtomicBool::new(false));

        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let (stealer, stop, delivered) =
                    (worker.stealer(), stop.clone(), delivered.clone());
                std::thread::spawn(move || {
                    let mut taken = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        if let Some(item) = stealer.steal() {
                            take(item, &delivered);
                            taken += 1;
                        }
                    }
                    taken
                })
            })
            .collect();
        let producer = {
            let (injector, drops) = (injector.clone(), drops.clone());
            std::thread::spawn(move || {
                for id in (1..ITEMS).step_by(2) {
                    injector.push(Item {
                        id,
                        drops: drops.clone(),
                    });
                }
            })
        };
        // The owner: push its own items, pull batches out of the injector, pop
        // — and leave a remainder behind on purpose.
        let mut popped = 0usize;
        for id in (0..ITEMS).step_by(2) {
            worker.push(Item {
                id,
                drops: drops.clone(),
            });
            if id % 8 == 0 {
                if let Some(item) = injector.steal_batch_and_pop(&worker) {
                    take(item, &delivered);
                    popped += 1;
                }
            }
            if id % 6 == 0 {
                if let Some(item) = worker.pop() {
                    take(item, &delivered);
                    popped += 1;
                }
            }
        }
        producer.join().expect("producer");
        stop.store(true, Ordering::SeqCst);
        let stolen: usize = thieves.into_iter().map(|t| t.join().expect("thief")).sum();
        assert!(stolen > 0, "the thieves never got anything");

        let left = worker.len() + injector.len();
        assert_eq!(popped + stolen + left, ITEMS, "items lost or duplicated");
        drop(worker);
        drop(injector);
        for id in 0..ITEMS {
            let (delivered, drops) = (
                delivered[id].load(Ordering::Relaxed),
                drops[id].load(Ordering::Relaxed),
            );
            assert!(delivered <= 1, "item {id} delivered {delivered} times");
            assert_eq!(drops, 1, "item {id} dropped {drops} times");
        }
        let delivered_total: usize = delivered.iter().map(|d| d.load(Ordering::Relaxed)).sum();
        assert_eq!(delivered_total, popped + stolen);
    }
}
