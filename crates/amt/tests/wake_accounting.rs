//! The scheduler's wake protocol and its always-on accounting, from outside:
//!
//! * no lost wake-up — a task pushed at an idle runtime is picked up at
//!   once, not at the next park timeout;
//! * an idle runtime sleeps instead of polling;
//! * `busy_ns` only grows, and never by more than the wall clock allows;
//! * spawn and execution counts balance, per worker and in total, after
//!   each of the four Maclaurin styles of the paper's Figs. 4–5.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amt::par::{transform_reduce_chunked, ExecutionPolicy};
use amt::sr::{schedule, sync_wait, Sender};
use amt::{coro, when_all, Handle, Runtime, WorkerStats};

/// A runtime whose workers have all been through their first park.
fn idle_runtime(workers: usize) -> Runtime {
    let rt = Runtime::new(workers);
    rt.spawn(|| ()).get();
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.worker_stats().iter().any(|w| w.parks == 0) {
        assert!(Instant::now() < deadline, "workers never parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    rt
}

#[test]
fn sequential_round_trips_lose_no_wake_up() {
    // Every spawn finds both workers parked (or about to park: the case the
    // re-check under the sleep lock exists for). A lost wake-up would cost
    // the 500 µs park timeout each time; a delivered one costs two thread
    // wake-ups. The bound is half the timeout per round trip.
    const TRIPS: u32 = 2000;
    let rt = idle_runtime(2);
    let start = Instant::now();
    for i in 0..TRIPS {
        assert_eq!(rt.spawn(move || i + 1).get(), i + 1);
    }
    let per_trip = start.elapsed() / TRIPS;
    assert!(
        per_trip < Duration::from_micros(250),
        "{per_trip:?} per spawn+get round trip: wake-ups are being lost"
    );
}

#[test]
fn idle_runtime_sleeps_instead_of_polling() {
    let rt = idle_runtime(2);
    let before = rt.worker_stats();
    let start = Instant::now();
    std::thread::sleep(Duration::from_millis(100));
    // Park time is booked when a park ends: allow for the one under way.
    let idle_ns = start.elapsed().as_nanos() as u64 - 1_000_000;
    for (i, (a, b)) in rt.worker_stats().iter().zip(&before).enumerate() {
        let parked = a.park_ns - b.park_ns;
        assert!(
            parked * 10 >= idle_ns * 8,
            "worker {i} parked {parked} ns of {idle_ns} ns idle: it is spinning"
        );
        assert_eq!(a.busy_ns, b.busy_ns, "worker {i} was busy with nothing");
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = iters;
    for _ in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    std::hint::black_box(x)
}

#[test]
fn busy_ns_is_monotone_and_bounded_by_the_wall_clock() {
    const WORKERS: usize = 2;
    let start = Instant::now();
    let rt = Runtime::new(WORKERS);
    let done = Arc::new(AtomicBool::new(false));
    let snapshots: Arc<Mutex<Vec<Vec<WorkerStats>>>> = Arc::default();
    let sampler = {
        let (h, done, snapshots) = (rt.handle(), done.clone(), snapshots.clone());
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                snapshots.lock().unwrap().push(h.worker_stats());
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    // Bursts with gaps, so that busy intervals open and close many times.
    for burst in 0..20 {
        let futures = (0..64).map(|i| rt.spawn(move || spin(2_000 + i))).collect();
        when_all(futures).get();
        if burst % 4 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    done.store(true, Ordering::SeqCst);
    sampler.join().expect("sampler");
    let last = rt.worker_stats();
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut snapshots = std::mem::take(&mut *snapshots.lock().unwrap());
    snapshots.push(last.clone());
    assert!(
        snapshots.len() > 10,
        "sampler took {} snapshots",
        snapshots.len()
    );
    for pair in snapshots.windows(2) {
        for (w, (a, b)) in pair[0].iter().zip(&pair[1]).enumerate() {
            assert!(
                a.busy_ns <= b.busy_ns,
                "worker {w}: busy_ns went {a:?} -> {b:?}"
            );
            assert!(
                a.park_ns <= b.park_ns,
                "worker {w}: park_ns went {a:?} -> {b:?}"
            );
        }
    }
    let busy: u64 = last.iter().map(|w| w.busy_ns).sum();
    assert!(busy > 0, "no busy time recorded: {last:?}");
    assert!(
        busy <= WORKERS as u64 * wall_ns,
        "{busy} ns busy on {WORKERS} workers in {wall_ns} ns"
    );
    for w in &last {
        assert!(w.busy_ns + w.park_ns <= wall_ns, "{w:?} in {wall_ns} ns");
    }
}

// The four styles of `octo_core::maclaurin` (which depends on this crate),
// at a size that takes milliseconds.
const X: f64 = 0.5;
const TERMS: usize = 200_000;
const TASKS: usize = 2_000;

fn term(k: usize) -> f64 {
    let sign = if k.is_multiple_of(2) { -1.0 } else { 1.0 };
    sign * X.powf(k as f64) / k as f64
}

fn chunk(c: usize) -> std::ops::RangeInclusive<usize> {
    c * TERMS / TASKS + 1..=(c + 1) * TERMS / TASKS
}

fn futures_style(h: &Handle) -> f64 {
    let futures = (0..TASKS)
        .map(|c| h.spawn(move || chunk(c).map(term).sum::<f64>()))
        .collect();
    when_all(futures).get().into_iter().sum()
}

fn par_style(h: &Handle) -> f64 {
    transform_reduce_chunked(
        h,
        ExecutionPolicy::Par,
        1..TERMS + 1,
        TASKS,
        0.0,
        term,
        |a, b| a + b,
    )
}

fn senders_style(h: &Handle) -> f64 {
    let partials: Arc<Vec<Mutex<f64>>> = Arc::new((0..TASKS).map(|_| Mutex::new(0.0)).collect());
    let fill = partials.clone();
    sync_wait(
        schedule(h)
            .bulk(TASKS, move |c| {
                *fill[c].lock().unwrap() = chunk(c).map(term).sum()
            })
            .then(move |()| partials.iter().map(|m| *m.lock().unwrap()).sum()),
    )
}

fn coroutine_style(h: &Handle) -> f64 {
    let futures = (0..TASKS)
        .map(|c| {
            let range = *chunk(c).start()..*chunk(c).end() + 1;
            let co = coro::ChunkedFold::new(range, 50, 0.0, |acc, k| acc + term(k));
            coro::spawn_coroutine(h, co)
        })
        .collect();
    when_all(futures).get().into_iter().sum()
}

#[test]
fn counts_balance_after_each_maclaurin_style() {
    let rt = Runtime::new(2);
    let h = rt.handle();
    // Name, evaluation, tasks it spawns.
    type Style = (&'static str, fn(&Handle) -> f64, u64);
    let styles: [Style; 4] = [
        ("futures", futures_style, TASKS as u64),
        ("par", par_style, TASKS as u64),
        ("senders", senders_style, TASKS as u64 + 1),
        ("coroutines", coroutine_style, 2 * TASKS as u64),
    ];
    for (name, style, spawns) in styles {
        rt.reset_stats();
        let sum = style(&h);
        assert!((sum - 1.5f64.ln()).abs() < 1e-12, "{name}: sum {sum}");
        let total = rt.stats();
        assert_eq!(total.tasks_spawned, spawns, "{name}: {total:?}");
        assert_eq!(total.tasks_executed, spawns, "{name}: {total:?}");
        let per = rt.worker_stats();
        let sum_of = |f: fn(&WorkerStats) -> u64| per.iter().map(f).sum::<u64>();
        assert_eq!(sum_of(|w| w.tasks_executed), total.tasks_executed, "{name}");
        assert_eq!(sum_of(|w| w.steals), total.steals, "{name}");
        assert_eq!(sum_of(|w| w.yields), total.yields, "{name}");
        assert_eq!(total.panics, 0, "{name}");
    }
}
