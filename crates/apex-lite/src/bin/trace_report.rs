//! `trace_report` — the one reader of an exported Chrome trace: validator,
//! "what limited this run?" analyzer and CI gate.
//!
//! ```text
//! trace_report [--phases=A,B,...] [--flame-out=FILE] [--check]
//!              [--require CAT_OR_NAME[,...]] [--require-overlap A,B]
//!              [--require-flow[=N]] [--min-spans N]
//!              [--require-counter=NAME]... FILE...
//! ```
//!
//! Each FILE is parsed and validated (well-formed JSON, required fields,
//! per-thread completion-order monotonicity, strict span nesting, no
//! dangling flow end), then reported:
//!
//! * the **critical path** through the phase span DAG (longest
//!   happens-before chain over merged phase activity segments — see
//!   `apex_lite::critpath`), with per-phase contributions and slack;
//! * a **comms** section, when the trace carries matched parcel flow
//!   events: the comms-aware distributed critical path (network share,
//!   per-locality baselines), per-link parcel
//!   counts/bytes, and parcel-latency percentiles from the
//!   `/comms/parcel_latency` histogram counter;
//! * **per-worker utilization** rows (busy/park fractions of the trace
//!   window, steal/yield counts) plus the max/mean-busy imbalance ratio;
//! * the **counter series** a traced run samples at its step boundaries
//!   (`"C"` events): the per-step delta table and every series' last value.
//!
//! `--flame-out=FILE` additionally writes a collapsed-stack flamegraph
//! (`flamegraph.pl`/inferno input, self-time ns counts).
//!
//! The `--require…` flags and `--min-spans` state what a trace must hold;
//! a trace that does not fails. `--require` tokens match an event
//! *category* or a span *name* (`--require task,phase,comm`: all three
//! instrumented layers are in the trace). `--require-overlap A,B`: spans
//! named `A` and `B` were simultaneously open, on any two threads, for a
//! positive wall-clock time — a futurized run really interleaved gravity and
//! hydro. `--require-flow[=N]`: at least N *matched* `"s"`/`"f"` flow pairs —
//! parcels carried their trace context end to end. `--require-counter`: the
//! named counter series is in the trace.
//!
//! `--check` adds the analyzer's own assertions: non-empty critical path
//! within wall, at least one utilization row, a non-empty flamegraph when
//! one was asked for; on a multi-locality trace with flows the distributed
//! path must bound every single-locality path from above and stay within
//! wall, the latency percentiles must be ordered (p50 ≤ p95 ≤ p99), and the
//! histogram count must equal the parcels delivered. Exits non-zero on any
//! failure.

use apex_lite::{chrome::TraceSummary, critpath, flame, CounterSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

#[derive(Default)]
struct Options {
    phases: Option<Vec<String>>,
    flame_out: Option<String>,
    check: bool,
    require: Vec<String>,
    require_overlap: Vec<(String, String)>,
    require_flow: Option<u64>,
    min_spans: u64,
    require_counters: Vec<String>,
}

const USAGE: &str = "usage: trace_report [--phases=A,B,...] [--flame-out=FILE] [--check] \
                     [--require CAT_OR_NAME[,...]] [--require-overlap A,B] [--require-flow[=N]] \
                     [--min-spans N] [--require-counter=NAME]... FILE...";

/// Options and trace files of one invocation. Every valued flag reads
/// `--flag=value` and `--flag value`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Options, Vec<String>), String> {
    let mut opts = Options::default();
    let mut files: Vec<String> = Vec::new();
    let list = |v: String| v.split(',').map(str::to_string).collect::<Vec<_>>();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            files.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |what: &str| {
            let next = inline.clone().or_else(|| args.next());
            next.ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag {
            "--phases" => opts.phases = Some(list(value("A,B,...")?)),
            "--flame-out" => opts.flame_out = Some(value("a path")?),
            "--check" => opts.check = true,
            "--require" => opts.require.extend(list(value("CAT_OR_NAME[,...]")?)),
            "--require-overlap" => match list(value("NAME_A,NAME_B")?).as_slice() {
                [a, b] if !a.is_empty() && !b.is_empty() => {
                    opts.require_overlap.push((a.clone(), b.clone()));
                }
                _ => return Err("--require-overlap needs NAME_A,NAME_B".into()),
            },
            "--require-flow" => {
                let n = inline.as_deref().map_or(Ok(1), str::parse);
                opts.require_flow = Some(n.map_err(|_| "--require-flow needs a number")?);
            }
            "--min-spans" => {
                let n = value("a number")?.parse();
                opts.min_spans = n.map_err(|_| "--min-spans needs a number")?;
            }
            "--require-counter" => opts.require_counters.push(value("a counter path")?),
            _ => return Err(format!("unknown flag {arg:?}")),
        }
    }
    if files.is_empty() {
        return Err("no trace file given".into());
    }
    Ok((opts, files))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (opts, files) = match parse_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("trace_report: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for file in &files {
        let mut out = String::new();
        let result = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read: {e}"))
            .and_then(|text| report(file, &text, &opts, &mut out));
        print!("{out}");
        if let Err(e) = result {
            eprintln!("{file}: FAIL: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `part` as a percentage of `whole` (an empty whole has only empty parts).
fn pct(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// The trace's counter samples as per-step deltas: each sample against the
/// one before it. The last sample is the end of the run, taken right after
/// the last step's, so it closes no step and gets no column.
fn step_deltas(summary: &TraceSummary) -> Vec<CounterSnapshot> {
    let mut samples: BTreeMap<u64, CounterSnapshot> = BTreeMap::new();
    for (name, points) in &summary.counter_series {
        for &(ts, v) in points {
            let sample = samples.entry(ts).or_default();
            if summary.gauge_series.contains(name) {
                sample.set_gauge(name.as_str(), v);
            } else {
                sample.set_count(name.as_str(), v as u64);
            }
        }
    }
    let samples: Vec<CounterSnapshot> = samples.into_values().collect();
    let steps = samples.len().saturating_sub(2);
    let deltas = samples.windows(2).map(|w| w[1].delta(&w[0]));
    deltas.take(steps).collect()
}

/// Validate one trace document, write its report into `out` and apply the
/// requirements and checks of `opts`; `Err` is the combined failure message.
/// Pure but for `--flame-out`, so the failure paths are unit-testable.
fn report(file: &str, text: &str, opts: &Options, out: &mut String) -> Result<(), String> {
    if text.trim().is_empty() {
        return Err("empty trace file (no JSON document; was the run traced at all?)".into());
    }
    let summary = apex_lite::validate(text)?;
    if summary.spans + summary.instants + summary.counter_events == 0 {
        return Err(
            "trace contains zero events (valid JSON but nothing was recorded; \
             was tracing enabled before the run?)"
                .into(),
        );
    }
    let cats: Vec<String> = summary
        .by_cat
        .iter()
        .map(|(c, n)| format!("{c}:{n}"))
        .collect();
    let _ = writeln!(
        out,
        "{file}: {} spans, {} instants, {} counter events, {} threads, {} localities [{}], \
         wall {:.3} ms",
        summary.spans,
        summary.instants,
        summary.counter_events,
        summary.threads,
        summary.pids,
        cats.join(" "),
        ms(summary.last_end_ns - summary.first_ts_ns)
    );

    // Critical path.
    let phases = match &opts.phases {
        Some(p) => p.clone(),
        None => critpath::default_phases(&summary),
    };
    let cp = critpath::critical_path(&summary, &phases);
    let _ = writeln!(
        out,
        "critical path: {:.3} ms over {} segments ({:.1}% of wall, slack {:.3} ms)",
        ms(cp.path_ns),
        cp.segments.len(),
        pct(cp.path_ns, cp.wall_ns),
        ms(cp.slack_ns)
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>12} {:>12} {:>8} {:>7}",
        "phase", "path ms", "active ms", "spans", "share"
    );
    for p in &cp.by_phase {
        let _ = writeln!(
            out,
            "  {:<24} {:>12.3} {:>12.3} {:>8} {:>6.1}%",
            p.name,
            ms(p.path_ns),
            ms(p.active_ns),
            p.spans,
            pct(p.path_ns, cp.wall_ns)
        );
    }

    // Comms: distributed critical path + wire traffic, when the trace
    // carries matched parcel flow events.
    let dcp = (!summary.flow_edges.is_empty())
        .then(|| critpath::critical_path_distributed(&summary, &phases));
    if let Some(d) = &dcp {
        let _ = writeln!(
            out,
            "distributed critical path: {:.3} ms over {} segments ({} network legs, \
             {:.3} ms on the wire = {:.1}% of path)",
            ms(d.path.path_ns),
            d.path.segments.len(),
            d.network_edges_on_path,
            ms(d.network_ns),
            pct(d.network_ns, d.path.path_ns)
        );
        for (pid, &p) in &d.per_locality_path_ns {
            let _ = writeln!(
                out,
                "  locality {pid}: single-locality path {:>10.3} ms",
                ms(p)
            );
        }
    }
    let last_of =
        |name: &str| -> Option<f64> { summary.counter_series.get(name)?.last().map(|&(_, v)| v) };
    let latency = last_of("/comms/parcel_latency").map(|count| {
        let q = |p: &str| last_of(&format!("/comms/parcel_latency/{p}")).unwrap_or(0.0);
        (count, q("p50"), q("p95"), q("p99"))
    });
    if let Some((count, p50, p95, p99)) = latency {
        let _ = writeln!(
            out,
            "parcel latency: {count} parcels, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
            p50 / 1e3,
            p95 / 1e3,
            p99 / 1e3
        );
    }
    let links: Vec<&String> = summary
        .counter_series
        .keys()
        .filter(|k| k.starts_with("/comms/link") && k.ends_with("/parcels"))
        .collect();
    if !links.is_empty() {
        let _ = writeln!(out, "links:");
        for parcels_key in links {
            let base = parcels_key.trim_end_matches("/parcels");
            let _ = writeln!(
                out,
                "  {base}: {} parcels, {} bytes",
                last_of(parcels_key).unwrap_or(0.0),
                last_of(&format!("{base}/bytes")).unwrap_or(0.0)
            );
        }
    }

    // Per-worker utilization.
    let util = critpath::worker_utilization(&summary);
    let _ = writeln!(out, "worker utilization ({} lanes):", util.len());
    let _ = writeln!(
        out,
        "  {:>4} {:>4} {:<12} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "pid", "tid", "thread", "busy ms", "busy%", "park%", "steals", "yields"
    );
    for u in &util {
        let _ = writeln!(
            out,
            "  {:>4} {:>4} {:<12} {:>10.3} {:>6.1}% {:>6.1}% {:>7} {:>7}",
            u.pid,
            u.tid,
            u.thread,
            ms(u.busy_ns),
            100.0 * u.busy_frac(),
            100.0 * u.park_frac(),
            u.steals,
            u.yields
        );
    }
    let _ = writeln!(
        out,
        "/runtime/imbalance (max/mean busy, from trace) = {:.3}",
        critpath::imbalance_ratio(&util)
    );

    // Counter series carried in the trace.
    if !summary.counter_series.is_empty() {
        let deltas = step_deltas(&summary);
        if !deltas.is_empty() {
            out.push_str(&apex_lite::render_step_table("counters", &deltas));
        }
        let _ = writeln!(
            out,
            "counter series: {} ({} samples total)",
            summary.counter_series.len(),
            summary.counter_events
        );
        for (name, points) in &summary.counter_series {
            let last = points.last().map(|&(_, v)| v).unwrap_or(0.0);
            let _ = writeln!(out, "  {name}: {} points, last {last}", points.len());
        }
    }

    // Flamegraph.
    let mut flame_lines = 0usize;
    if let Some(path) = &opts.flame_out {
        let stacks = flame::collapsed_stacks(&summary);
        flame_lines = stacks.len();
        let text = flame::render_collapsed(&stacks);
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "flamegraph: {flame_lines} stacks -> {path}");
    }

    // What the caller requires of the trace.
    let mut problems: Vec<String> = Vec::new();
    if summary.spans < opts.min_spans {
        let (have, need) = (summary.spans, opts.min_spans);
        problems.push(format!("only {have} spans (need >= {need})"));
    }
    for tok in &opts.require {
        if summary.count_cat(tok) == 0 && summary.count_name(tok) == 0 {
            let present: Vec<&str> = summary.by_cat.keys().map(String::as_str).collect();
            problems.push(format!(
                "required token {tok:?} matched zero span names and zero categories \
                 (categories present: [{}])",
                present.join(" ")
            ));
        }
    }
    for (a, b) in &opts.require_overlap {
        let ns = summary.overlap_ns(a, b);
        if ns == 0 {
            problems.push(format!(
                "spans {a:?} and {b:?} never overlapped in wall-clock time \
                 ({} {a:?} spans, {} {b:?} spans)",
                summary.count_name(a),
                summary.count_name(b)
            ));
        } else {
            let _ = writeln!(out, "overlap {a:?}/{b:?} = {ns} ns");
        }
    }
    if let Some(n) = opts.require_flow {
        let matched = summary.flow_edges.len() as u64;
        if matched < n {
            problems.push(format!(
                "only {matched} matched flow pair(s) (need >= {n}; {} \"s\" starts, \
                 {} \"f\" ends seen — did the parcel sends emit flow events?)",
                summary.flow_starts, summary.flow_ends
            ));
        } else {
            let _ = writeln!(out, "flows: {matched} matched pair(s)");
        }
    }
    for name in &opts.require_counters {
        if !summary.counter_series.contains_key(name) {
            problems.push(format!(
                "required counter series {name:?} absent from trace ({} series present)",
                summary.counter_series.len()
            ));
        }
    }

    // The analyzer's own assertions.
    if opts.check {
        if cp.path_ns == 0 || cp.segments.is_empty() {
            problems.push("empty critical path (no phase spans matched)".into());
        }
        if cp.path_ns > cp.wall_ns {
            let (path, wall) = (cp.path_ns, cp.wall_ns);
            problems.push(format!("critical path {path} ns exceeds wall {wall} ns"));
        }
        if util.is_empty() {
            problems.push("no worker utilization rows".into());
        }
        if opts.flame_out.is_some() && flame_lines == 0 {
            problems.push("flamegraph is empty".into());
        }
        if let Some(d) = &dcp {
            if d.path.path_ns > d.path.wall_ns {
                problems.push(format!(
                    "distributed critical path {} ns exceeds wall {} ns",
                    d.path.path_ns, d.path.wall_ns
                ));
            }
            for (pid, &p) in &d.per_locality_path_ns {
                if d.path.path_ns < p {
                    problems.push(format!(
                        "distributed critical path {} ns is shorter than locality {pid}'s \
                         own path {p} ns — cross-locality edges must only lengthen it",
                        d.path.path_ns
                    ));
                }
            }
        }
        if let Some((count, p50, p95, p99)) = latency {
            if !(p50 <= p95 && p95 <= p99) {
                problems.push(format!(
                    "parcel latency percentiles out of order: p50 {p50} / p95 {p95} / p99 {p99}"
                ));
            }
            if let Some(parcels) = last_of("/comms/parcels").filter(|&n| n != count) {
                problems.push(format!(
                    "latency histogram holds {count} observations but {parcels} parcels \
                     were delivered — every received parcel must be measured exactly once"
                ));
            }
        }
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }
    if opts.check {
        let _ = writeln!(out, "{file}: CHECK OK");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_lite::trace::{Cat, Event, EventKind, ThreadMeta, Trace};
    use apex_lite::TimeSeries;

    fn args(line: &str) -> Options {
        let words = line.split_whitespace().map(str::to_string);
        parse_args(words.chain(["t.json".to_string()])).unwrap().0
    }

    fn run(text: &str, line: &str) -> Result<String, String> {
        let mut out = String::new();
        report("t.json", text, &args(line), &mut out).map(|()| out)
    }

    fn span(name: &'static str, ts_ns: u64, dur_ns: u64) -> Event {
        Event {
            cat: Cat::Phase,
            name,
            ts_ns,
            kind: EventKind::Span { dur_ns },
        }
    }

    fn flow(ts_ns: u64, kind: EventKind) -> Event {
        Event {
            cat: Cat::Comm,
            name: "parcel",
            ts_ns,
            kind,
        }
    }

    fn one_lane(events: Vec<Event>) -> Trace {
        let meta = ThreadMeta {
            pid: 0,
            tid: 0,
            name: "worker0".into(),
        };
        Trace {
            threads: vec![(meta, events)],
            dropped: 0,
        }
    }

    fn one_span_trace() -> String {
        apex_lite::export(&one_lane(vec![span("gravity_solve", 100, 50)]))
    }

    #[test]
    fn both_spellings_of_a_valued_flag_parse_alike() {
        let a = args("--require task,phase --require-overlap a,b --min-spans 3 --require-flow");
        let b = args("--require=task,phase --require-overlap=a,b --min-spans=3 --require-flow=1");
        for o in [&a, &b] {
            assert_eq!(o.require, ["task", "phase"]);
            assert_eq!(o.require_overlap, [("a".to_string(), "b".to_string())]);
            assert_eq!((o.min_spans, o.require_flow), (3, Some(1)));
        }
        let bad = |line: &str| parse_args(line.split(' ').map(str::to_string)).err();
        assert_eq!(bad("--check"), Some("no trace file given".into()));
        assert_eq!(
            bad("--bogus t.json"),
            Some("unknown flag \"--bogus\"".into())
        );
        assert!(bad("--require-overlap=a t.json").is_some());
        assert!(bad("--min-spans=many t.json").is_some());
    }

    #[test]
    fn empty_file_fails_with_clear_message() {
        for text in ["", "   \n\t "] {
            let err = run(text, "").unwrap_err();
            assert!(err.contains("empty trace file"), "{err}");
        }
    }

    #[test]
    fn zero_event_trace_fails_with_clear_message() {
        let err = run("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}", "").unwrap_err();
        assert!(err.contains("zero events"), "{err}");
    }

    #[test]
    fn require_matching_nothing_fails_and_names_present_cats() {
        let err = run(&one_span_trace(), "--require no_such_token").unwrap_err();
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
        run(&text, "--require gravity_solve --min-spans 1").unwrap();
        let out = run(&text, "--require phase --check").unwrap();
        assert!(out.starts_with("t.json: 1 spans"), "{out}");
        assert!(out.ends_with("t.json: CHECK OK\n"), "{out}");
    }

    #[test]
    fn min_spans_enforced() {
        let err = run(&one_span_trace(), "--min-spans 2").unwrap_err();
        assert!(err.contains("only 1 spans (need >= 2)"), "{err}");
    }

    fn flow_trace(with_end: bool) -> String {
        let mut events = vec![flow(100, EventKind::FlowStart { id: 42 })];
        if with_end {
            events.push(flow(900, EventKind::FlowEnd { id: 42 }));
        }
        events.push(span("work", 1000, 10));
        apex_lite::export(&one_lane(events))
    }

    #[test]
    fn require_flow_counts_matched_pairs() {
        let text = flow_trace(true);
        let out = run(&text, "--require-flow").unwrap();
        assert!(out.contains("flows: 1 matched pair"), "{out}");
        let err = run(&text, "--require-flow=5").unwrap_err();
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
        run(&text, "").unwrap();
        let err = run(&text, "--require-flow").unwrap_err();
        assert!(err.contains("1 \"s\" starts"), "{err}");
        assert!(err.contains("0 \"f\" ends"), "{err}");
    }

    #[test]
    fn counter_series_print_as_per_step_deltas_and_can_be_required() {
        // Start, two step boundaries, end of run; the energy gauge exists
        // in the end-of-run sample only.
        let mut series = TimeSeries::default();
        let mut snap = CounterSnapshot::new();
        for (ts, hits, imbalance) in [(0, 0, 0.0), (10, 4, 1.5), (20, 12, 1.25), (21, 12, 1.25)] {
            snap.set_count("/gravity/cache_hits", hits);
            snap.set_gauge("/runtime/imbalance", imbalance);
            if ts == 21 {
                snap.set_gauge("/energy/joules", 2.0);
            }
            series.push(ts, &snap);
        }
        let trace = one_lane(vec![span("hydro_step", 1, 18)]);
        let text = apex_lite::export_with_counters(&trace, &series);
        let out = run(&text, "--check --require-counter=/gravity/cache_hits").unwrap();
        let (_, table) = out
            .split_once("== counters (per-step deltas) ==")
            .expect("step table");
        let row = |name: &str| -> Vec<String> {
            let line = table.lines().find(|l| l.starts_with(name)).expect(name);
            line.split_whitespace().skip(1).map(String::from).collect()
        };
        assert_eq!(row("/gravity/cache_hits"), ["4", "8"]);
        assert_eq!(row("/runtime/imbalance"), ["1.500", "1.250"]);
        assert!(out.contains("  /energy/joules: 1 points, last 2"), "{out}");
        let err = run(&text, "--require-counter=/comms/parcels").unwrap_err();
        assert!(err.contains("\"/comms/parcels\" absent"), "{err}");
    }
}
