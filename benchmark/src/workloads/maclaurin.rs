//! `maclaurin_fine_t2`: the paper's Eq. 1 (ln(1+x) at x = 0.5) over 4·10⁶
//! terms cut into 40 000 tasks of 100 terms, on two workers. At about a
//! microsecond of arithmetic per task the run time *is* the `amt` layer:
//! spawn, `when_all`, `par`, senders/receivers, coroutine resumption, steal
//! and park. One op is one evaluation in one of the four styles of Figs. 4–5;
//! a round runs all four in an order shuffled from the seed. The unit of work
//! is tasks.

use std::hint::black_box;
use std::time::Instant;

use amt::{Handle, Runtime};
use octo_core::maclaurin;

use super::{Outcome, Rng, RunArgs, SchedWindow, Window};
use crate::stats::median;

const THREADS: usize = 2;
const X: f64 = 0.5;
const TERMS: u64 = 4_000_000;
const TASKS: usize = 40_000;
/// Terms between two coroutine suspensions: one suspension per task.
const CORO_STRIDE: usize = 50;
/// |sum − ln 1.5| allowed.
const TOLERANCE: f64 = 1e-9;
/// A runtime is up in about 0.1 ms, so the median is taken over many.
const SETUPS: usize = 51;

/// One of the four styles: its per-layer metric and its evaluation.
type Style = (&'static str, fn(&Handle) -> f64);

const STYLES: [Style; 4] = [
    ("amt.future.op_s", |h| {
        maclaurin::futures_style(h, X, TERMS, TASKS)
    }),
    ("amt.par.op_s", |h| maclaurin::par_style(h, X, TERMS, TASKS)),
    ("amt.sr.op_s", |h| {
        maclaurin::senders_style(h, X, TERMS, TASKS)
    }),
    ("amt.coro.op_s", |h| {
        maclaurin::coroutine_style(h, X, TERMS, TASKS, CORO_STRIDE)
    }),
];

fn checked(sum: f64) -> Result<(), String> {
    let err = (sum - 1.5f64.ln()).abs();
    if err <= TOLERANCE {
        Ok(())
    } else {
        Err(format!("sum {sum} is {err:e} away from ln 1.5"))
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new("tasks");
    let mut rng = Rng::new(args.seed);
    let mut rt = None;
    for _ in 0..if args.smoke { 3 } else { SETUPS } {
        // Up to the first task's result: `Runtime::new` alone returns before
        // its workers run, and then times little more than two `clone` calls.
        let t0 = Instant::now();
        let fresh = Runtime::new(THREADS);
        black_box(fresh.handle().spawn(|| 1u64).get());
        out.setup_s.push(t0.elapsed().as_secs_f64());
        rt = Some(fresh);
    }
    let rt = rt.expect("at least one set-up");
    let handle = rt.handle();
    let mut order = [0, 1, 2, 3];

    for _ in 0..if args.smoke { 0 } else { 3 } {
        for (_, style) in STYLES {
            black_box(style(&handle));
        }
    }

    let sched = SchedWindow::open(&rt);
    let mut per_style: [Vec<f64>; 4] = Default::default();
    let mut win = Window::open(args, 1);
    while win.more() {
        rng.shuffle(&mut order);
        for &s in &order {
            let traced = out.next_is_traced(args);
            let style = STYLES[s].1;
            if out.op(traced, || checked(style(&handle))).is_some() && !traced {
                per_style[s].push(*out.op_s.last().expect("op just timed"));
                out.work += TASKS as f64;
            }
        }
    }

    let (ops, wall) = out.ops_and_wall();
    sched.close(&rt, ops, wall, &mut out);
    for ((name, _), samples) in STYLES.iter().zip(&per_style) {
        out.put(name, median(samples));
    }
    if args.trace {
        let mut sequential_s = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            let sum = black_box(maclaurin::sequential(black_box(X), TERMS));
            sequential_s.push(t0.elapsed().as_secs_f64());
            out.check(checked(sum).is_ok(), || format!("sequential sum {sum}"));
        }
        let sequential = median(&sequential_s);
        out.put("core.maclaurin.sequential_s", sequential);
        // Worker-seconds an evaluation costs beyond its arithmetic, per task.
        out.put(
            "amt.overhead_us_per_task",
            (median(&out.op_s) * THREADS as f64 - sequential) / TASKS as f64 * 1e6,
        );
    }
    out
}
