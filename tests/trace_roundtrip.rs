//! Property tests for the apex-lite Chrome exporter: any well-nested set of
//! per-thread span trees, emitted in completion order (the ring-buffer
//! discipline), must round-trip through `export` → `validate` with exact
//! counts and monotonically-timestamped, strictly-nested spans per worker.
//!
//! These tests build [`Trace`] values directly instead of going through the
//! global tracer, so they are deterministic and safe to run in parallel
//! with anything else in this binary.

use proptest::prelude::*;

use octotiger_riscv_repro::apex_lite::trace::{Cat, Event, EventKind, ThreadMeta, Trace};
use octotiger_riscv_repro::apex_lite::{export, validate};

const NAMES: [&str; 6] = [
    "execute",
    "m2l",
    "p2p",
    "parcel_send",
    "gravity_solve",
    "hydro_step",
];
const CATS: [Cat; 5] = [Cat::Task, Cat::Sched, Cat::Phase, Cat::Gravity, Cat::Comm];

/// Interpret a byte stream as push/pop/instant operations on a span stack,
/// producing one thread's event list in completion order. The stack
/// discipline guarantees strict nesting; the monotonic logical clock
/// guarantees completion-order timestamps.
fn thread_events(ops: &[u8]) -> Vec<Event> {
    let mut t: u64 = 0;
    let mut stack: Vec<(usize, u64)> = Vec::new();
    let mut events = Vec::new();
    let close = |idx: usize, start: u64, end: u64, events: &mut Vec<Event>| {
        events.push(Event {
            cat: CATS[idx % CATS.len()],
            name: NAMES[idx % NAMES.len()],
            ts_ns: start,
            kind: EventKind::Span {
                dur_ns: end - start,
            },
        });
    };
    for &op in ops {
        // Irregular strictly-positive increments, sub-µs included so the
        // three-decimal "ts" formatting is exercised.
        t += 1 + u64::from(op) % 997;
        match op % 3 {
            0 if stack.len() < 12 => stack.push((usize::from(op), t)),
            1 => {
                if let Some((idx, start)) = stack.pop() {
                    close(idx, start, t, &mut events);
                }
            }
            _ => events.push(Event {
                cat: CATS[usize::from(op) % CATS.len()],
                name: NAMES[usize::from(op) % NAMES.len()],
                ts_ns: t,
                kind: EventKind::Instant,
            }),
        }
    }
    while let Some((idx, start)) = stack.pop() {
        t += 1;
        close(idx, start, t, &mut events);
    }
    events
}

fn trace_from(threads_ops: &[Vec<u8>]) -> Trace {
    let threads = threads_ops
        .iter()
        .enumerate()
        .map(|(i, ops)| {
            (
                ThreadMeta {
                    pid: (i % 2) as u32,
                    tid: i as u32,
                    name: format!("worker{i}"),
                },
                thread_events(ops),
            )
        })
        .filter(|(_, ev)| !ev.is_empty())
        .collect();
    Trace {
        threads,
        dropped: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exported_trace_is_valid_with_exact_counts(
        threads_ops in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..4,
        )
    ) {
        let trace = trace_from(&threads_ops);
        let spans: u64 = trace
            .threads
            .iter()
            .flat_map(|(_, ev)| ev.iter())
            .filter(|e| matches!(e.kind, EventKind::Span { .. }))
            .count() as u64;
        let instants = trace.len() as u64 - spans;

        let doc = export(&trace);
        let summary = validate(&doc).expect("exported trace must validate");
        prop_assert_eq!(summary.spans, spans);
        prop_assert_eq!(summary.instants, instants);
        prop_assert_eq!(summary.threads, trace.threads.len());
        for name in NAMES {
            prop_assert_eq!(summary.count_name(name), trace.count_name(name));
        }
        for cat in CATS {
            prop_assert_eq!(summary.count_cat(cat.as_str()), trace.count_cat(cat));
        }
    }

    #[test]
    fn breaking_nesting_is_rejected(
        ops in proptest::collection::vec(any::<u8>(), 1..100),
        overlap_ns in 1u64..500,
    ) {
        // Take a valid thread and append two partially-overlapping spans;
        // the validator must reject the document.
        let mut events = thread_events(&ops);
        let base = events.iter().map(|e| e.ts_ns).max().unwrap_or(0) + 10_000;
        events.push(Event {
            cat: Cat::Task,
            name: "a",
            ts_ns: base,
            kind: EventKind::Span { dur_ns: 1_000 },
        });
        events.push(Event {
            cat: Cat::Task,
            name: "b",
            ts_ns: base + overlap_ns,
            kind: EventKind::Span { dur_ns: 1_000 },
        });
        let trace = Trace {
            threads: vec![(
                ThreadMeta { pid: 0, tid: 0, name: "w".to_string() },
                events,
            )],
            dropped: 0,
        };
        let err = validate(&export(&trace)).expect_err("partial overlap must fail");
        prop_assert!(err.contains("partially overlaps"), "unexpected error: {}", err);
    }
}
