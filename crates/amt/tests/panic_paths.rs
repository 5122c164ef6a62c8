//! Failure semantics of the join paths (ROADMAP 3(b)): a task that panics
//! inside `par::scope`, `when_all`, `sr::bulk` / `sr::then` or a coroutine
//! while its joiner is a *help-stealing* worker — the join is called from
//! inside a task, directly and one task deeper, on 1 and 2 workers —
//!
//! * surfaces at the join with the original payload,
//! * is counted in `RuntimeStats::panics` exactly once,
//! * never hangs (every case runs under a watchdog), and
//! * leaves the runtime usable.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use amt::coro::{spawn_coroutine, CoStep, FnCoroutine};
use amt::sr::{schedule, sync_wait, Sender};
use amt::{par, when_all, Handle, Runtime};

/// The payload: a type of our own, so nothing else can have produced it.
#[derive(Debug, PartialEq)]
struct Boom(u32);

/// A join that must re-raise `Boom`; it gets the handle of the runtime one
/// of whose tasks it runs in.
type Join = fn(&Handle);

fn scope_join(h: &Handle) {
    par::scope(h, |sc| {
        for i in 0..16 {
            sc.spawn(move || {
                if i == 5 {
                    panic_any(Boom(1));
                }
            });
        }
    });
}

fn when_all_join(h: &Handle) {
    let futures = (0..16)
        .map(|i| {
            h.spawn(move || {
                if i == 5 {
                    panic_any(Boom(2));
                }
                i
            })
        })
        .collect();
    when_all(futures).get();
}

fn bulk_join(h: &Handle) {
    sync_wait(schedule(h).bulk(16, |i| {
        if i == 5 {
            panic_any(Boom(3));
        }
    }));
}

fn then_join(h: &Handle) {
    sync_wait(
        schedule(h)
            .then(|()| -> u32 { panic_any(Boom(4)) })
            .then(|x| x + 1),
    );
}

fn coroutine_join(h: &Handle) {
    let mut resumes = 0;
    spawn_coroutine(
        h,
        FnCoroutine(move || -> CoStep<()> {
            resumes += 1;
            if resumes == 3 {
                panic_any(Boom(5));
            }
            CoStep::Yield
        }),
    )
    .get();
}

/// Run `join` inside a task `depth` tasks below the caller and hand back
/// what it unwound with.
fn joined_in_task(h: Handle, depth: u32, join: Join) -> Option<Boom> {
    let inner = h.clone();
    h.spawn(move || {
        if depth > 0 {
            return joined_in_task(inner, depth - 1, join);
        }
        let payload = catch_unwind(AssertUnwindSafe(|| join(&inner))).err()?;
        payload.downcast::<Boom>().ok().map(|b| *b)
    })
    .get()
}

/// Run `f` on a thread of its own; a result that does not arrive in time is
/// a hang.
fn under_watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(f))));
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Ok(())) => {}
        Ok(Err(e)) => std::panic::resume_unwind(e),
        Err(_) => panic!("{what}: hung"),
    }
}

fn check(name: &'static str, join: Join, want: Boom) {
    for workers in [1, 2] {
        for depth in [0, 1] {
            let what = format!("{name}, {workers} worker(s), join {depth} task(s) deep");
            let want = Boom(want.0);
            under_watchdog(&what.clone(), move || {
                let rt = Runtime::new(workers);
                let got = joined_in_task(rt.handle(), depth, join);
                assert_eq!(got, Some(want), "{what}: payload at the join");
                // The count moves when the task has finished unwinding, which
                // is after its joiner can see the payload.
                let deadline = Instant::now() + Duration::from_secs(10);
                while rt.stats().panics == 0 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                assert_eq!(rt.spawn(|| 7).get(), 7, "{what}: runtime unusable");
                let s = rt.stats();
                assert_eq!(s.panics, 1, "{what}: {s:?}");
                assert_eq!(s.tasks_spawned, s.tasks_executed, "{what}: {s:?}");
            });
        }
    }
}

#[test]
fn panic_in_scope_surfaces_at_a_helping_join() {
    check("par::scope", scope_join, Boom(1));
}

#[test]
fn panic_in_when_all_surfaces_at_a_helping_join() {
    check("when_all", when_all_join, Boom(2));
}

#[test]
fn panic_in_bulk_surfaces_at_a_helping_join() {
    check("sr::bulk", bulk_join, Boom(3));
}

#[test]
fn panic_in_then_surfaces_at_a_helping_join() {
    check("sr::then", then_join, Boom(4));
}

#[test]
fn panic_in_coroutine_surfaces_at_a_helping_join() {
    check("coro::spawn_coroutine", coroutine_join, Boom(5));
}
