//! The deque and the injector against a `VecDeque` model, and under threads.
//!
//! * Single-threaded, every observable of a random operation sequence must
//!   equal the model's: the owner pops LIFO, thieves and the injector take
//!   FIFO, `steal_batch_and_pop` returns the oldest task and moves at most
//!   half of the rest (capped at 32) in order, `len` / `is_empty` agree
//!   after every step. Sequences are long enough to make the ring grow and
//!   wrap.
//! * Four threads (the owner, two thieves, one injector producer) pass a
//!   million items around: each is delivered exactly once, and what is left
//!   in the queues when they are dropped is dropped exactly once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_deque::{Injector, Steal, Worker};
use proptest::prelude::*;

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

fn as_steal<T>(o: Option<T>) -> Steal<T> {
    o.map_or(Steal::Empty, Steal::Success)
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
                Op::Steal => {
                    prop_assert_eq!(stealer.steal(), as_steal(deque_model.pop_front()))
                }
                Op::Inject => {
                    injector.push(next);
                    injector_model.push_back(next);
                    next += 1;
                }
                Op::InjectorSteal => {
                    prop_assert_eq!(injector.steal(), as_steal(injector_model.pop_front()))
                }
                Op::Batch => {
                    let first = injector_model.pop_front();
                    if first.is_some() {
                        let moved = (injector_model.len() / 2).min(32);
                        deque_model.extend(injector_model.drain(..moved));
                    }
                    prop_assert_eq!(injector.steal_batch_and_pop(&worker), as_steal(first));
                }
            }
            prop_assert_eq!(worker.len(), deque_model.len());
            prop_assert_eq!(stealer.len(), deque_model.len());
            prop_assert_eq!(worker.is_empty(), deque_model.is_empty());
            prop_assert_eq!(stealer.is_empty(), deque_model.is_empty());
            prop_assert_eq!(injector.len(), injector_model.len());
            prop_assert_eq!(injector.is_empty(), injector_model.is_empty());
        }
        // What the batches moved arrived in order: drain and compare.
        while let Some(want) = deque_model.pop_front() {
            prop_assert_eq!(stealer.steal(), Steal::Success(want));
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
    let drops: Arc<Vec<AtomicUsize>> = Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
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
            let (stealer, stop, delivered) = (worker.stealer(), stop.clone(), delivered.clone());
            std::thread::spawn(move || {
                let mut taken = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    if let Steal::Success(item) = stealer.steal() {
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
            if let Steal::Success(item) = injector.steal_batch_and_pop(&worker) {
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
