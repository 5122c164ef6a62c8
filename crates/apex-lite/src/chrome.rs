//! Chrome trace-event exporter and validator.
//!
//! [`export`] turns a drained [`Trace`] into the Trace Event Format JSON
//! that `about://tracing` and Perfetto load directly: one `"X"` (complete)
//! event per span, `"i"` for instants, and `"M"` metadata records naming
//! each process lane (`locality{pid}`) and thread. Timestamps are
//! microseconds with nanosecond precision (three decimals), matching what
//! APEX's OTF2→Chrome conversion produces for HPX runs.
//!
//! [`validate`] re-parses an exported file and checks the structural
//! invariants the round-trip tests rely on: every event carries the fields
//! its phase requires, per-thread events are recorded in non-decreasing
//! completion order (the ring buffers record at span *close*), and spans on
//! one thread are strictly nested — Perfetto renders overlapping
//! non-nested spans on one track as garbage, so we reject them here.

use crate::counters::{CounterSnapshot, CounterValue};
use crate::critpath::merge_intervals;
use crate::json::{self, Value};
use crate::trace::{EventKind, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Format `ns` nanoseconds as microseconds with three decimals.
fn fmt_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn push_meta(out: &mut String, kind: &str, pid: u32, tid: u32, name: &str) {
    out.push_str("{\"ph\":\"M\",\"name\":\"");
    out.push_str(kind);
    let _ = write!(out, "\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"");
    json::escape_into(out, name);
    out.push_str("\"}},\n");
}

/// Serialize `trace` as a Chrome trace-event JSON document.
pub fn export(trace: &Trace) -> String {
    export_with_counters(trace, &TimeSeries::default())
}

/// Counter time-series of a traced run: per path, `(ts_ns, value)` points
/// in sample order. A traced run pushes one sample at its start, one at
/// every step boundary and one at its end, on the thread that drives the
/// steps. Timestamps share the tracer's clock ([`crate::trace::now_ns`]) so
/// counter points line up with spans in the merged Chrome export.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Path → `(ts_ns, value)` points, oldest first.
    pub(crate) series: BTreeMap<String, Vec<(u64, f64)>>,
    /// Paths that carry gauges (readings); every other path accumulates.
    pub(crate) gauges: BTreeSet<String>,
}

impl TimeSeries {
    /// Fold one snapshot in at time `ts_ns`.
    pub fn push(&mut self, ts_ns: u64, snap: &CounterSnapshot) {
        for (path, v) in snap.iter() {
            if matches!(v, CounterValue::Gauge(_)) {
                self.gauges.insert(path.to_string());
            }
            let points = self.series.entry(path.to_string()).or_default();
            points.push((ts_ns, v.as_f64()));
        }
    }
}

/// Serialize `trace` plus its counter time-series as one Chrome
/// trace-event document: spans/instants as usual, and each counter series
/// as `"C"` (counter) events Perfetto renders as per-name value tracks
/// (category `gauge` for readings, `counter` for accumulating counts).
/// Counter events ride on `pid 0, tid 0` (they are process-global, not
/// lane-local) and are exempt from the per-thread ordering invariants.
pub fn export_with_counters(trace: &Trace, series: &TimeSeries) -> String {
    let n_points: usize = series.series.values().map(Vec::len).sum();
    let mut out = String::with_capacity(128 + trace.len() * 96 + n_points * 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");

    let mut seen_pids: Vec<u32> = Vec::new();
    for (meta, _) in &trace.threads {
        if !seen_pids.contains(&meta.pid) {
            seen_pids.push(meta.pid);
            push_meta(
                &mut out,
                "process_name",
                meta.pid,
                0,
                &format!("locality{}", meta.pid),
            );
        }
        push_meta(&mut out, "thread_name", meta.pid, meta.tid, &meta.name);
    }

    let mut first = true;
    for (meta, events) in &trace.threads {
        for ev in events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            match ev.kind {
                EventKind::Span { dur_ns } => {
                    out.push_str("{\"ph\":\"X\",\"name\":\"");
                    json::escape_into(&mut out, ev.name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(ev.cat.as_str());
                    let _ = write!(out, "\",\"pid\":{},\"tid\":{},\"ts\":", meta.pid, meta.tid);
                    fmt_us(&mut out, ev.ts_ns);
                    out.push_str(",\"dur\":");
                    fmt_us(&mut out, dur_ns);
                    out.push('}');
                }
                EventKind::Instant => {
                    out.push_str("{\"ph\":\"i\",\"name\":\"");
                    json::escape_into(&mut out, ev.name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(ev.cat.as_str());
                    let _ = write!(out, "\",\"pid\":{},\"tid\":{},\"ts\":", meta.pid, meta.tid);
                    fmt_us(&mut out, ev.ts_ns);
                    out.push_str(",\"s\":\"t\"}");
                }
                EventKind::FlowStart { id } => {
                    out.push_str("{\"ph\":\"s\",\"name\":\"");
                    json::escape_into(&mut out, ev.name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(ev.cat.as_str());
                    let _ = write!(
                        out,
                        "\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":",
                        meta.pid, meta.tid
                    );
                    fmt_us(&mut out, ev.ts_ns);
                    out.push('}');
                }
                EventKind::FlowEnd { id } => {
                    // `"bp":"e"` binds the arrow to the enclosing slice
                    // (the parcel_recv span), which is how Perfetto draws
                    // sender→receiver arrows between localities.
                    out.push_str("{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"");
                    json::escape_into(&mut out, ev.name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(ev.cat.as_str());
                    let _ = write!(
                        out,
                        "\",\"id\":{id},\"pid\":{},\"tid\":{},\"ts\":",
                        meta.pid, meta.tid
                    );
                    fmt_us(&mut out, ev.ts_ns);
                    out.push('}');
                }
            }
        }
    }
    for (name, points) in &series.series {
        let cat = if series.gauges.contains(name) {
            "gauge"
        } else {
            "counter"
        };
        for &(ts, v) in points {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("{\"ph\":\"C\",\"name\":\"");
            json::escape_into(&mut out, name);
            let _ = write!(out, "\",\"cat\":\"{cat}\",\"pid\":0,\"tid\":0,\"ts\":");
            fmt_us(&mut out, ts);
            let _ = write!(out, ",\"args\":{{\"value\":{v}}}}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

/// One validated `"X"` span, with names resolved — the analyzer's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Locality id.
    pub pid: u64,
    /// Thread id within the locality.
    pub tid: u64,
    /// Span name.
    pub name: String,
    /// Category string.
    pub cat: String,
    /// Start, integer ns.
    pub ts: u64,
    /// End (`ts + dur`), integer ns.
    pub end: u64,
}

/// One matched `"s"`/`"f"` flow pair: a causal edge from the lane that
/// sent a parcel to the lane that received it, paired by flow id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// Flow id shared by both ends.
    pub id: u64,
    /// Sending locality.
    pub src_pid: u64,
    /// Sending thread.
    pub src_tid: u64,
    /// Send timestamp, ns on the sender's clock.
    pub src_ts: u64,
    /// Receiving locality.
    pub dst_pid: u64,
    /// Receiving thread.
    pub dst_tid: u64,
    /// Receive timestamp, ns on the receiver's clock.
    pub dst_ts: u64,
}

/// What [`validate`] learned about a trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of `"X"` span events.
    pub spans: u64,
    /// Number of `"i"` instant events.
    pub instants: u64,
    /// Number of `"s"` flow-start events.
    pub flow_starts: u64,
    /// Number of `"f"` flow-end events.
    pub flow_ends: u64,
    /// Matched flow pairs — the cross-locality happens-before edges the
    /// distributed critical path routes through.
    pub flow_edges: Vec<FlowEdge>,
    /// Distinct `(pid, tid)` lanes carrying events.
    pub threads: usize,
    /// Distinct pids (locality lanes).
    pub pids: usize,
    /// Event counts per category.
    pub by_cat: BTreeMap<String, u64>,
    /// Event counts per name.
    pub by_name: BTreeMap<String, u64>,
    /// Per span name: `[start_ns, end_ns)` wall-clock intervals, across all
    /// threads. Spans on *different* threads may overlap freely (only
    /// same-thread partial overlap is a validation error), and that
    /// cross-thread overlap is exactly what a futurized scheduler produces.
    pub intervals_by_name: BTreeMap<String, Vec<(u64, u64)>>,
    /// Every span with lane and names resolved, in file order — what the
    /// critical-path / flamegraph analyzers consume.
    pub records: Vec<SpanRecord>,
    /// `(pid, tid)` → thread name from `"M"` metadata.
    pub thread_names: BTreeMap<(u64, u64), String>,
    /// `(pid, tid)` → instant-name counts (steal/yield accounting).
    pub instants_by_thread: BTreeMap<(u64, u64), BTreeMap<String, u64>>,
    /// Earliest span/instant start in the trace, ns.
    pub first_ts_ns: u64,
    /// Latest span end (or instant timestamp), ns.
    pub last_end_ns: u64,
    /// Number of `"C"` counter events.
    pub counter_events: u64,
    /// Counter series reassembled from `"C"` events: name → `(ts_ns, value)`.
    pub counter_series: BTreeMap<String, Vec<(u64, f64)>>,
    /// The series among them that carry gauges (`"cat":"gauge"`).
    pub gauge_series: BTreeSet<String>,
}

impl TraceSummary {
    /// Events (spans + instants) in category `cat`.
    pub fn count_cat(&self, cat: &str) -> u64 {
        self.by_cat.get(cat).copied().unwrap_or(0)
    }

    /// Events named `name`.
    pub fn count_name(&self, name: &str) -> u64 {
        self.by_name.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds during which a span named `a` and a span named `b`
    /// were simultaneously open (on any threads). Positive only when the
    /// two kinds of work genuinely interleaved in wall-clock time — the
    /// check `trace_report --require-overlap=A,B` runs on futurized traces.
    pub fn overlap_ns(&self, a: &str, b: &str) -> u64 {
        let (Some(xs), Some(ys)) = (self.intervals_by_name.get(a), self.intervals_by_name.get(b))
        else {
            return 0;
        };
        // Per-name unions first, so concurrent same-name spans are charged
        // once; the lists are small (one span per leaf task) and the
        // quadratic sweep over the two unions is fine.
        let mut total = 0u64;
        for &(s0, e0) in &merge_intervals(xs) {
            for &(s1, e1) in &merge_intervals(ys) {
                total += e0.min(e1).saturating_sub(s0.max(s1));
            }
        }
        total
    }
}

/// Microsecond float → integer nanoseconds. Exported values are exact
/// multiples of 0.001 µs, so rounding recovers the original integer.
fn us_to_ns(us: f64) -> Result<u64, String> {
    if !us.is_finite() || us < 0.0 {
        return Err(format!("non-finite or negative timestamp {us}"));
    }
    Ok((us * 1000.0).round() as u64)
}

fn req_num(ev: &Value, key: &str) -> Result<f64, String> {
    ev.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("event missing numeric {key:?}: {ev:?}"))
}

fn req_str<'a>(ev: &'a Value, key: &str) -> Result<&'a str, String> {
    ev.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event missing string {key:?}: {ev:?}"))
}

#[derive(Clone, Copy)]
struct SpanRec {
    ts: u64,
    end: u64,
}

/// Validate an exported Chrome trace: well-formed JSON, required fields
/// per event phase, per-thread completion-order monotonicity, and strict
/// span nesting per thread. Returns counts on success.
pub fn validate(json_text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(json_text)?;
    let unit = doc
        .get("displayTimeUnit")
        .and_then(Value::as_str)
        .ok_or("missing displayTimeUnit")?;
    if unit != "ms" {
        return Err(format!("unexpected displayTimeUnit {unit:?}"));
    }
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut summary = TraceSummary {
        first_ts_ns: u64::MAX, // normalized to 0 below if no events
        ..TraceSummary::default()
    };
    // Per (pid,tid): spans for the nesting check, and the completion time
    // of the last event seen in file order.
    let mut spans: BTreeMap<(u64, u64), Vec<SpanRec>> = BTreeMap::new();
    let mut last_done: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    let mut pids: Vec<u64> = Vec::new();
    // Flow ends are paired after the sweep: the sender's lane can appear
    // later in the file than the receiver's, so an "f" may precede its "s".
    let mut flow_starts: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let mut flow_ends: Vec<(usize, u64, u64, u64, u64)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let at = |e: String| format!("event {i}: {e}");
        let ph = req_str(ev, "ph").map_err(at)?;
        match ph {
            "M" => {
                let name = req_str(ev, "name")?;
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {i}: unknown metadata {name:?}"));
                }
                let label = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: metadata missing args.name"))?;
                if name == "thread_name" {
                    let pid = req_num(ev, "pid").map_err(at)? as u64;
                    let tid = req_num(ev, "tid").map_err(at)? as u64;
                    summary.thread_names.insert((pid, tid), label.to_string());
                }
            }
            "C" => {
                // Counter samples: process-global value tracks, exempt from
                // the per-lane ordering/nesting invariants below.
                let name = req_str(ev, "name").map_err(at)?;
                if ev.get("cat").and_then(Value::as_str) == Some("gauge") {
                    summary.gauge_series.insert(name.to_string());
                }
                let ts = us_to_ns(req_num(ev, "ts").map_err(at)?)?;
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: counter missing numeric args.value"))?;
                summary.counter_events += 1;
                summary
                    .counter_series
                    .entry(name.to_string())
                    .or_default()
                    .push((ts, value));
            }
            "X" | "i" | "s" | "f" => {
                let name = req_str(ev, "name").map_err(at)?;
                let cat = req_str(ev, "cat").map_err(at)?;
                let pid = req_num(ev, "pid").map_err(at)? as u64;
                let tid = req_num(ev, "tid").map_err(at)? as u64;
                let ts = us_to_ns(req_num(ev, "ts").map_err(at)?)?;
                let key = (pid, tid);
                if !pids.contains(&pid) {
                    pids.push(pid);
                }
                // When the event completed: a span at its end, a point
                // marker at once.
                let done = match ph {
                    "X" => {
                        let dur = us_to_ns(req_num(ev, "dur").map_err(at)?)?;
                        let end = ts
                            .checked_add(dur)
                            .ok_or_else(|| format!("event {i}: ts+dur overflow"))?;
                        spans.entry(key).or_default().push(SpanRec { ts, end });
                        summary
                            .intervals_by_name
                            .entry(name.to_string())
                            .or_default()
                            .push((ts, end));
                        summary.records.push(SpanRecord {
                            pid,
                            tid,
                            name: name.to_string(),
                            cat: cat.to_string(),
                            ts,
                            end,
                        });
                        summary.spans += 1;
                        end
                    }
                    "i" => {
                        req_str(ev, "s").map_err(at)?;
                        *summary
                            .instants_by_thread
                            .entry(key)
                            .or_default()
                            .entry(name.to_string())
                            .or_insert(0) += 1;
                        summary.instants += 1;
                        ts
                    }
                    // Flow events: point markers on a lane, paired by id.
                    // They share the per-lane completion-order invariant
                    // (recorded immediately, like instants) but are exempt
                    // from span nesting — an arrow endpoint lives *inside*
                    // its enclosing parcel_send/parcel_recv slice.
                    _ => {
                        let id = req_num(ev, "id").map_err(at)? as u64;
                        if ph == "s" {
                            summary.flow_starts += 1;
                            flow_starts.insert(id, (pid, tid, ts));
                        } else {
                            summary.flow_ends += 1;
                            flow_ends.push((i, id, pid, tid, ts));
                        }
                        ts
                    }
                };
                summary.first_ts_ns = summary.first_ts_ns.min(ts);
                summary.last_end_ns = summary.last_end_ns.max(done);
                // Ring buffers record at completion: file order per thread
                // must be non-decreasing in completion time.
                if let Some(prev) = last_done.get(&key) {
                    if done < *prev {
                        return Err(format!(
                            "event {i} ({name}): completion time regressed on pid {pid} tid \
                             {tid} ({done} ns after {prev} ns)"
                        ));
                    }
                }
                last_done.insert(key, done);
                *summary.by_cat.entry(cat.to_string()).or_insert(0) += 1;
                *summary.by_name.entry(name.to_string()).or_insert(0) += 1;
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }

    // Pair flow ends with their starts. A dangling "f" (no matching "s")
    // is a broken causal edge and fails validation; an unmatched "s" is
    // legal (its receiver's ring may have overwritten the "f", or the
    // parcel is still in flight at export time).
    for (i, id, dst_pid, dst_tid, dst_ts) in flow_ends {
        let Some(&(src_pid, src_tid, src_ts)) = flow_starts.get(&id) else {
            return Err(format!(
                "event {i}: dangling flow — \"f\" with id {id} has no matching \"s\" start \
                 anywhere in the trace"
            ));
        };
        summary.flow_edges.push(FlowEdge {
            id,
            src_pid,
            src_tid,
            src_ts,
            dst_pid,
            dst_tid,
            dst_ts,
        });
    }

    // Strict nesting per thread: sort (ts asc, end desc), sweep a stack.
    // Two spans on one thread must be disjoint or one inside the other.
    for ((pid, tid), mut recs) in spans {
        recs.sort_by(|a, b| a.ts.cmp(&b.ts).then(b.end.cmp(&a.end)));
        let mut stack: Vec<SpanRec> = Vec::new();
        for s in recs {
            loop {
                match stack.last() {
                    None => break,
                    Some(top) if s.ts >= top.ts && s.end <= top.end => break,
                    Some(top) if top.end <= s.ts => {
                        stack.pop();
                    }
                    Some(top) => {
                        return Err(format!(
                            "pid {pid} tid {tid}: span [{}, {}] partially overlaps [{}, {}]",
                            s.ts, s.end, top.ts, top.end
                        ));
                    }
                }
            }
            stack.push(s);
        }
    }

    summary.threads = last_done.len();
    summary.pids = pids.len();
    if summary.first_ts_ns == u64::MAX {
        summary.first_ts_ns = 0;
    }
    Ok(summary)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::{Cat, Event, EventKind, ThreadMeta, Trace};

    pub(crate) fn meta(pid: u32, tid: u32, name: &str) -> ThreadMeta {
        ThreadMeta {
            pid,
            tid,
            name: name.to_string(),
        }
    }

    pub(crate) fn span_ev(name: &'static str, cat: Cat, ts: u64, dur: u64) -> Event {
        Event {
            cat,
            name,
            ts_ns: ts,
            kind: EventKind::Span { dur_ns: dur },
        }
    }

    pub(crate) fn instant_ev(name: &'static str, cat: Cat, ts: u64) -> Event {
        Event {
            cat,
            name,
            ts_ns: ts,
            kind: EventKind::Instant,
        }
    }

    #[test]
    fn export_validate_round_trip() {
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 0, "worker0"),
                    vec![
                        // Completion order: child closes before parent.
                        span_ev("m2l", Cat::Gravity, 1500, 400),
                        instant_ev("steal", Cat::Sched, 2000),
                        span_ev("gravity_solve", Cat::Phase, 1000, 4000),
                    ],
                ),
                (
                    meta(1, 1, "worker0"),
                    vec![span_ev("flush", Cat::Comm, 100, 50)],
                ),
            ],
            dropped: 0,
        };
        let out = export(&trace);
        let s = validate(&out).unwrap();
        assert_eq!(s.spans, 3);
        assert_eq!(s.instants, 1);
        assert_eq!(s.threads, 2);
        assert_eq!(s.pids, 2);
        assert_eq!(s.count_cat("gravity"), 1);
        assert_eq!(s.count_cat("comm"), 1);
        assert_eq!(s.count_name("gravity_solve"), 1);
    }

    #[test]
    fn cross_thread_overlap_is_measured_not_rejected() {
        // gravity on worker0 [1000, 5000], hydro on worker1 [2000, 7000]:
        // legal (different threads) and 3000 ns of genuine interleaving.
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 0, "worker0"),
                    vec![span_ev("gravity_solve", Cat::Phase, 1000, 4000)],
                ),
                (
                    meta(0, 1, "worker1"),
                    vec![
                        span_ev("hydro_step", Cat::Phase, 2000, 5000),
                        span_ev("hydro_step", Cat::Phase, 8000, 1000),
                    ],
                ),
            ],
            dropped: 0,
        };
        let s = validate(&export(&trace)).unwrap();
        assert_eq!(s.overlap_ns("gravity_solve", "hydro_step"), 3000);
        assert_eq!(s.overlap_ns("hydro_step", "gravity_solve"), 3000);
        assert_eq!(s.overlap_ns("gravity_solve", "missing"), 0);
        assert_eq!(s.intervals_by_name.get("hydro_step").map(Vec::len), Some(2));
    }

    #[test]
    fn timestamps_survive_at_ns_precision() {
        let trace = Trace {
            threads: vec![(
                meta(0, 0, "w"),
                vec![span_ev("s", Cat::Task, 1_234_567_891, 987_654_321)],
            )],
            dropped: 0,
        };
        let out = export(&trace);
        assert!(out.contains("\"ts\":1234567.891"));
        assert!(out.contains("\"dur\":987654.321"));
        validate(&out).unwrap();
    }

    #[test]
    fn rejects_partial_overlap() {
        let trace = Trace {
            threads: vec![(
                meta(0, 0, "w"),
                vec![
                    span_ev("a", Cat::Task, 100, 100), // ends 200
                    span_ev("b", Cat::Task, 150, 100), // ends 250: overlaps a
                ],
            )],
            dropped: 0,
        };
        let err = validate(&export(&trace)).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn rejects_completion_order_regression() {
        let trace = Trace {
            threads: vec![(
                meta(0, 0, "w"),
                vec![
                    span_ev("late", Cat::Task, 0, 500),  // done at 500
                    span_ev("early", Cat::Task, 0, 100), // done at 100: regressed
                ],
            )],
            dropped: 0,
        };
        let err = validate(&export(&trace)).unwrap_err();
        assert!(err.contains("completion time regressed"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_bad_json() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"traceEvents\":[]}").is_err());
        assert!(validate("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // Empty trace is valid.
        let s = validate("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}").unwrap();
        assert_eq!(s.spans + s.instants, 0);
    }

    #[test]
    fn counter_events_round_trip() {
        let trace = Trace {
            threads: vec![(
                meta(0, 1, "worker0"),
                vec![span_ev("gravity_solve", Cat::Phase, 1000, 4000)],
            )],
            dropped: 0,
        };
        let mut series = TimeSeries::default();
        let mut snap = CounterSnapshot::new();
        snap.set_count("/runtime/steals", 2);
        snap.set_gauge("/runtime/imbalance", 1.5);
        series.push(2_000, &snap);
        snap.set_count("/runtime/steals", 7);
        series.push(4_500, &snap);
        let out = export_with_counters(&trace, &series);
        let s = validate(&out).unwrap();
        assert_eq!(s.spans, 1);
        assert_eq!(s.counter_events, 4);
        assert_eq!(
            s.counter_series["/runtime/steals"],
            vec![(2_000, 2.0), (4_500, 7.0)]
        );
        assert_eq!(s.counter_series["/runtime/imbalance"][1], (4_500, 1.5));
        // The kind survives: a reader can tell a reading from a count.
        assert_eq!(
            s.gauge_series.iter().collect::<Vec<_>>(),
            ["/runtime/imbalance"]
        );
        // Counter events don't perturb the span summary or wall window.
        assert_eq!((s.first_ts_ns, s.last_end_ns), (1000, 5000));
        assert_eq!(s.threads, 1);
        // Metadata captured the thread label; the record carries the lane.
        assert_eq!(s.thread_names[&(0, 1)], "worker0");
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].name, "gravity_solve");
        assert_eq!(s.records[0].cat, "phase");
        assert_eq!((s.records[0].ts, s.records[0].end), (1000, 5000));
    }

    fn flow_ev(name: &'static str, ts: u64, kind: EventKind) -> Event {
        Event {
            cat: Cat::Comm,
            name,
            ts_ns: ts,
            kind,
        }
    }

    #[test]
    fn flow_events_round_trip_and_pair_across_localities() {
        // Receiver lane (pid 0) appears *first* in the file — "f" before
        // its "s" — and pairing must still succeed.
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 0, "worker0"),
                    vec![
                        flow_ev("parcel", 5000, EventKind::FlowEnd { id: 7 }),
                        span_ev("parcel_recv", Cat::Comm, 4900, 300),
                    ],
                ),
                (
                    meta(1, 1, "worker0"),
                    vec![
                        flow_ev("parcel", 1000, EventKind::FlowStart { id: 7 }),
                        flow_ev("parcel", 1200, EventKind::FlowStart { id: 8 }),
                    ],
                ),
            ],
            dropped: 0,
        };
        let out = export(&trace);
        assert!(out.contains("\"ph\":\"s\""));
        assert!(out.contains("\"ph\":\"f\",\"bp\":\"e\""));
        let s = validate(&out).unwrap();
        assert_eq!((s.flow_starts, s.flow_ends), (2, 1));
        assert_eq!(s.flow_edges.len(), 1);
        let e = s.flow_edges[0];
        assert_eq!((e.id, e.src_pid, e.dst_pid), (7, 1, 0));
        assert_eq!((e.src_ts, e.dst_ts), (1000, 5000));
        // Flow points don't count as spans/instants but do count lanes.
        assert_eq!((s.spans, s.instants), (1, 0));
        assert_eq!(s.threads, 2);
        assert_eq!(s.count_cat("comm"), 4);
    }

    #[test]
    fn rejects_dangling_flow_end() {
        let trace = Trace {
            threads: vec![(
                meta(0, 0, "worker0"),
                vec![flow_ev("parcel", 100, EventKind::FlowEnd { id: 99 })],
            )],
            dropped: 0,
        };
        let err = validate(&export(&trace)).unwrap_err();
        assert!(err.contains("dangling flow"), "{err}");
        assert!(err.contains("id 99"), "{err}");
    }

    #[test]
    fn rejects_counter_without_value() {
        let bad = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                   {\"ph\":\"C\",\"name\":\"/x\",\"pid\":0,\"tid\":0,\"ts\":1.0,\"args\":{}}]}";
        let err = validate(bad).unwrap_err();
        assert!(err.contains("counter missing numeric args.value"), "{err}");
    }

    #[test]
    fn escapes_names() {
        let trace = Trace {
            threads: vec![(
                meta(0, 0, "we\"ird\nname"),
                vec![span_ev("ok", Cat::Task, 0, 1)],
            )],
            dropped: 0,
        };
        validate(&export(&trace)).unwrap();
    }
}
