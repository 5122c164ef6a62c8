//! `trace_check` — CI validator for exported Chrome traces.
//!
//! Usage:
//!
//! ```text
//! trace_check [--require CAT[,CAT...]] [--require-overlap A,B] [--min-spans N]
//!             [--require-flow[=N]] FILE...
//! ```
//!
//! Each FILE is parsed and validated (well-formed JSON, required fields,
//! per-thread completion-order monotonicity, strict span nesting). With
//! `--require`, every listed token must appear in every file, matching
//! either an event *category* or a span *name* — the CI smoke run uses
//! `--require task,phase,comm` to prove the trace spans all three
//! instrumented layers. With `--require-overlap A,B`, spans named `A`
//! and `B` must have been simultaneously open (on any two threads) for a
//! positive wall-clock duration — the CI proof that a futurized run really
//! interleaved gravity and hydro instead of running them phase-by-phase.
//! With `--require-flow` (optionally `--require-flow=N`), the trace must
//! contain at least N *matched* `"s"`/`"f"` flow pairs — the distributed
//! smoke run's proof that parcels carried their trace context end to end.
//! Dangling flow ends (an `"f"` with no `"s"` anywhere) are a validation
//! error regardless of flags. Exits non-zero on any failure.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut require: Vec<String> = Vec::new();
    let mut require_overlap: Vec<(String, String)> = Vec::new();
    let mut min_spans: u64 = 1;
    let mut require_flow: Option<u64> = None;
    let mut files: Vec<String> = Vec::new();

    let parse_overlap = |v: &str| -> Option<(String, String)> {
        let (a, b) = v.split_once(',')?;
        if a.is_empty() || b.is_empty() {
            return None;
        }
        Some((a.to_string(), b.to_string()))
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix("--require-overlap=") {
            match parse_overlap(v) {
                Some(p) => require_overlap.push(p),
                None => return usage("--require-overlap needs NAME_A,NAME_B"),
            }
        } else if arg == "--require-overlap" {
            match args.next().as_deref().and_then(parse_overlap) {
                Some(p) => require_overlap.push(p),
                None => return usage("--require-overlap needs NAME_A,NAME_B"),
            }
        } else if let Some(v) = arg.strip_prefix("--require=") {
            require.extend(v.split(',').map(str::to_string));
        } else if arg == "--require" {
            match args.next() {
                Some(v) => require.extend(v.split(',').map(str::to_string)),
                None => return usage("--require needs a value"),
            }
        } else if arg == "--require-flow" {
            require_flow = Some(1);
        } else if let Some(v) = arg.strip_prefix("--require-flow=") {
            match v.parse() {
                Ok(n) => require_flow = Some(n),
                Err(_) => return usage("--require-flow needs a number"),
            }
        } else if let Some(v) = arg.strip_prefix("--min-spans=") {
            match v.parse() {
                Ok(n) => min_spans = n,
                Err(_) => return usage("--min-spans needs a number"),
            }
        } else if arg == "--min-spans" {
            match args.next().as_deref().map(str::parse) {
                Some(Ok(n)) => min_spans = n,
                _ => return usage("--min-spans needs a number"),
            }
        } else if arg == "--help" || arg == "-h" {
            return usage("");
        } else if arg.starts_with('-') {
            return usage(&format!("unknown flag {arg:?}"));
        } else {
            files.push(arg);
        }
    }
    if files.is_empty() {
        return usage("no trace files given");
    }

    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: FAIL: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match check_text(&text, min_spans, &require, &require_overlap, require_flow) {
            Ok(lines) => {
                for line in lines {
                    println!("{file}: {line}");
                }
            }
            Err(e) => {
                eprintln!("{file}: FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Validate one trace document and apply the CLI's checks. Returns the
/// report lines to print (last one the `OK` summary) or a combined
/// failure message. Pure so the failure paths are unit-testable.
fn check_text(
    text: &str,
    min_spans: u64,
    require: &[String],
    require_overlap: &[(String, String)],
    require_flow: Option<u64>,
) -> Result<Vec<String>, String> {
    if text.trim().is_empty() {
        return Err("empty trace file (no JSON document; was the run traced at all?)".into());
    }
    let summary = apex_lite::validate(text)?;
    let events = summary.spans + summary.instants + summary.counter_events;
    if events == 0 {
        return Err(
            "trace contains zero events (valid JSON but nothing was recorded; \
             was tracing enabled before the run?)"
                .into(),
        );
    }
    let mut lines: Vec<String> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    if summary.spans < min_spans {
        problems.push(format!(
            "only {} spans (need >= {min_spans})",
            summary.spans
        ));
    }
    for tok in require {
        if summary.count_cat(tok) == 0 && summary.count_name(tok) == 0 {
            problems.push(format!(
                "required token {tok:?} matched zero span names and zero categories \
                 (categories present: [{}])",
                summary
                    .by_cat
                    .keys()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    for (a, b) in require_overlap {
        let ns = summary.overlap_ns(a, b);
        if ns == 0 {
            problems.push(format!(
                "spans {a:?} and {b:?} never overlapped in wall-clock time \
                 ({} {a:?} spans, {} {b:?} spans)",
                summary.count_name(a),
                summary.count_name(b)
            ));
        } else {
            lines.push(format!("overlap {a:?}/{b:?} = {ns} ns"));
        }
    }
    if let Some(n) = require_flow {
        let matched = summary.flow_edges.len() as u64;
        if matched < n {
            problems.push(format!(
                "only {matched} matched flow pair(s) (need >= {n}; {} \"s\" starts, \
                 {} \"f\" ends seen — did the parcelports emit flow events?)",
                summary.flow_starts, summary.flow_ends
            ));
        } else {
            lines.push(format!("flows: {matched} matched pair(s)"));
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    let cats: Vec<String> = summary
        .by_cat
        .iter()
        .map(|(c, n)| format!("{c}:{n}"))
        .collect();
    lines.push(format!(
        "OK — {} spans, {} instants, {} threads, {} localities [{}]",
        summary.spans,
        summary.instants,
        summary.threads,
        summary.pids,
        cats.join(" ")
    ));
    Ok(lines)
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("trace_check: {err}");
    }
    eprintln!(
        "usage: trace_check [--require CAT_OR_NAME[,...]] [--require-overlap A,B] \
         [--min-spans N] FILE..."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::check_text;
    use apex_lite::trace::{Cat, Event, EventKind, ThreadMeta, Trace};

    fn one_span_trace() -> String {
        apex_lite::export(&Trace {
            threads: vec![(
                ThreadMeta {
                    pid: 0,
                    tid: 0,
                    name: "worker0".into(),
                },
                vec![Event {
                    cat: Cat::Phase,
                    name: "gravity_solve",
                    ts_ns: 100,
                    kind: EventKind::Span { dur_ns: 50 },
                }],
            )],
            dropped: 0,
        })
    }

    #[test]
    fn empty_file_fails_with_clear_message() {
        for text in ["", "   \n\t "] {
            let err = check_text(text, 0, &[], &[], None).unwrap_err();
            assert!(err.contains("empty trace file"), "{err}");
        }
    }

    #[test]
    fn zero_event_trace_fails_with_clear_message() {
        let err = check_text(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}",
            0,
            &[],
            &[],
            None,
        )
        .unwrap_err();
        assert!(err.contains("zero events"), "{err}");
    }

    #[test]
    fn require_matching_nothing_fails_and_names_present_cats() {
        let text = one_span_trace();
        let err = check_text(&text, 1, &["no_such_token".to_string()], &[], None).unwrap_err();
        assert!(err.contains("required token \"no_such_token\""), "{err}");
        assert!(err.contains("zero span names and zero categories"), "{err}");
        assert!(
            err.contains("phase"),
            "should list present categories: {err}"
        );
    }

    #[test]
    fn require_matches_name_or_category() {
        let text = one_span_trace();
        // By span name.
        check_text(&text, 1, &["gravity_solve".to_string()], &[], None).unwrap();
        // By category.
        let lines = check_text(&text, 1, &["phase".to_string()], &[], None).unwrap();
        assert!(lines.last().unwrap().starts_with("OK — 1 spans"));
    }

    #[test]
    fn min_spans_enforced() {
        let text = one_span_trace();
        let err = check_text(&text, 2, &[], &[], None).unwrap_err();
        assert!(err.contains("only 1 spans (need >= 2)"), "{err}");
    }

    fn flow_trace(with_end: bool) -> String {
        let mut loc1 = vec![Event {
            cat: Cat::Comm,
            name: "parcel",
            ts_ns: 100,
            kind: EventKind::FlowStart { id: 42 },
        }];
        if with_end {
            loc1.push(Event {
                cat: Cat::Comm,
                name: "parcel",
                ts_ns: 900,
                kind: EventKind::FlowEnd { id: 42 },
            });
        }
        loc1.push(Event {
            cat: Cat::Phase,
            name: "work",
            ts_ns: 1000,
            kind: EventKind::Span { dur_ns: 10 },
        });
        apex_lite::export(&Trace {
            threads: vec![(
                ThreadMeta {
                    pid: 0,
                    tid: 0,
                    name: "worker0".into(),
                },
                loc1,
            )],
            dropped: 0,
        })
    }

    #[test]
    fn require_flow_counts_matched_pairs() {
        let text = flow_trace(true);
        let lines = check_text(&text, 1, &[], &[], Some(1)).unwrap();
        assert!(lines.iter().any(|l| l.contains("flows: 1 matched pair")));
        let err = check_text(&text, 1, &[], &[], Some(5)).unwrap_err();
        assert!(
            err.contains("only 1 matched flow pair(s) (need >= 5"),
            "{err}"
        );
    }

    #[test]
    fn unmatched_start_is_legal_but_fails_require_flow() {
        // An "s" whose parcel never landed (dropped on shutdown) validates
        // fine — but it is not a matched pair.
        let text = flow_trace(false);
        check_text(&text, 1, &[], &[], None).unwrap();
        let err = check_text(&text, 1, &[], &[], Some(1)).unwrap_err();
        assert!(err.contains("1 \"s\" starts"), "{err}");
        assert!(err.contains("0 \"f\" ends"), "{err}");
    }
}
