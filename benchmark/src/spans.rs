//! In-memory span store for the traced pass.
//!
//! The benchmark wraps each outside call in its own `bench_*` span, switches
//! the program's tracer on for that op only, drains the per-thread rings
//! right after it (so nothing is overwritten) and keeps the events here until
//! the run ends. Layer times are then read from the span names the program
//! already emits: *busy* is the sum of a name's span durations, *self* is the
//! duration minus the part the span's children on the same thread cover.

use std::collections::BTreeMap;

use apex_lite::trace::{self, Cat, Event, EventKind, ThreadMeta, Trace};
use apex_lite::{FlowEdge, SpanRecord, TraceSummary};

/// Spans the benchmark itself records around its calls into the program.
pub const BENCH_OP: &str = "bench_op";
pub const BENCH_REGRID: &str = "bench_regrid";

/// Events the store keeps at most (about 10 MB, 30 MB once exported): the
/// star workloads stay far below it, `maclaurin_fine_t2` and `parcel_storm`
/// emit some 10⁵ events per op and keep their first few traced ops.
const KEEP_EVENTS: u64 = 300_000;

#[derive(Default)]
pub struct SpanStore {
    threads: BTreeMap<u32, (ThreadMeta, Vec<Event>)>,
    kept: u64,
    /// Events lost to ring overwrites (must stay 0).
    pub dropped: u64,
    /// Events drained, kept or not.
    pub recorded: u64,
}

/// Run `f` with the tracer on, inside a benchmark span `name`, and move what
/// it recorded into `store`. Also tells whether the store kept the events.
pub fn traced<R>(store: &mut SpanStore, name: &'static str, f: impl FnOnce() -> R) -> (R, bool) {
    trace::reset();
    trace::set_enabled(true);
    let out = {
        let _span = trace::span(Cat::Phase, name);
        f()
    };
    trace::set_enabled(false);
    (out, store.absorb(trace::drain()))
}

impl SpanStore {
    /// Count `t`'s events and keep them while the budget lasts.
    pub fn absorb(&mut self, t: Trace) -> bool {
        self.dropped += t.dropped;
        self.recorded += t.len() as u64;
        if self.kept + t.len() as u64 > KEEP_EVENTS {
            return false;
        }
        self.kept += t.len() as u64;
        for (meta, events) in t.threads {
            self.threads
                .entry(meta.tid)
                .or_insert_with(|| (meta, Vec::new()))
                .1
                .extend(events);
        }
        true
    }

    pub fn is_empty(&self) -> bool {
        self.kept == 0
    }

    fn spans(&self) -> impl Iterator<Item = (&Event, u64)> {
        self.threads
            .values()
            .flat_map(|(_, evs)| evs.iter())
            .filter_map(|e| match e.kind {
                EventKind::Span { dur_ns } => Some((e, dur_ns)),
                _ => None,
            })
    }

    /// Σ span durations of `name` across all threads, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans()
            .filter(|(e, _)| e.name == name)
            .map(|(_, d)| d)
            .sum();
        ns as f64 * 1e-9
    }

    /// Wall-clock union of every program span of category `cat` (benchmark
    /// spans excluded), in seconds.
    pub fn union_s(&self, cat: Cat) -> f64 {
        let iv: Vec<(u64, u64)> = self
            .spans()
            .filter(|(e, _)| e.cat == cat && !e.name.starts_with("bench_"))
            .map(|(e, d)| (e.ts_ns, e.ts_ns + d))
            .collect();
        union_ns(iv) as f64 * 1e-9
    }

    /// Self time per span name in seconds, largest first.
    pub fn self_table(&self) -> Vec<(&'static str, f64)> {
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (_, evs) in self.threads.values() {
            let mut spans: Vec<(u64, u64, &'static str)> = evs
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Span { dur_ns } => Some((e.ts_ns, e.ts_ns + dur_ns, e.name)),
                    _ => None,
                })
                .collect();
            for (name, ns) in self_times(&mut spans) {
                *by_name.entry(name).or_default() += ns;
            }
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(n, ns)| (n, ns as f64 * 1e-9))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// The analyzer's view of the program's events — what
    /// `apex_lite::validate` would return for the exported trace, minus the
    /// benchmark's own `bench_*` spans, which cover whole ops and would be
    /// the entire critical path. Built from memory because
    /// `validate` parses the JSON in time quadratic in its size (107 s for
    /// the 3.7 MB trace of two level-4 steps).
    pub fn summary(&self) -> TraceSummary {
        let mut sum = TraceSummary {
            first_ts_ns: u64::MAX,
            ..TraceSummary::default()
        };
        let mut flow_starts: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        let mut flow_ends = Vec::new();
        for (meta, events) in self.threads.values() {
            let (pid, tid) = (u64::from(meta.pid), u64::from(meta.tid));
            sum.thread_names.insert((pid, tid), meta.name.clone());
            for e in events.iter().filter(|e| !e.name.starts_with("bench_")) {
                let end = match e.kind {
                    EventKind::Span { dur_ns } => {
                        let end = e.ts_ns + dur_ns;
                        sum.spans += 1;
                        sum.intervals_by_name
                            .entry(e.name.to_string())
                            .or_default()
                            .push((e.ts_ns, end));
                        sum.records.push(SpanRecord {
                            pid,
                            tid,
                            name: e.name.to_string(),
                            cat: e.cat.as_str().to_string(),
                            ts: e.ts_ns,
                            end,
                        });
                        end
                    }
                    EventKind::Instant => {
                        sum.instants += 1;
                        let per_thread = sum.instants_by_thread.entry((pid, tid)).or_default();
                        *per_thread.entry(e.name.to_string()).or_default() += 1;
                        e.ts_ns
                    }
                    EventKind::FlowStart { id } => {
                        sum.flow_starts += 1;
                        flow_starts.insert(id, (pid, tid, e.ts_ns));
                        e.ts_ns
                    }
                    EventKind::FlowEnd { id } => {
                        sum.flow_ends += 1;
                        flow_ends.push((id, pid, tid, e.ts_ns));
                        e.ts_ns
                    }
                };
                *sum.by_name.entry(e.name.to_string()).or_default() += 1;
                *sum.by_cat.entry(e.cat.as_str().to_string()).or_default() += 1;
                sum.first_ts_ns = sum.first_ts_ns.min(e.ts_ns);
                sum.last_end_ns = sum.last_end_ns.max(end);
            }
        }
        for (id, dst_pid, dst_tid, dst_ts) in flow_ends {
            if let Some(&(src_pid, src_tid, src_ts)) = flow_starts.get(&id) {
                sum.flow_edges.push(FlowEdge {
                    id,
                    src_pid,
                    src_tid,
                    src_ts,
                    dst_pid,
                    dst_tid,
                    dst_ts,
                });
            }
        }
        sum.threads = self.threads.len();
        sum.first_ts_ns = sum.first_ts_ns.min(sum.last_end_ns);
        sum
    }

    /// Everything kept, as one `Trace` for `apex_lite::export`.
    pub fn to_trace(&self) -> Trace {
        Trace {
            threads: self.threads.values().cloned().collect(),
            dropped: self.dropped,
        }
    }
}

/// Total length covered by `intervals` (overlaps counted once).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span of one thread: its duration minus what its direct
/// children cover. `spans` are `(start, end, name)`; RAII guards make spans
/// of one thread nest, so direct children never overlap one another.
pub fn self_times<'a>(spans: &mut [(u64, u64, &'a str)]) -> Vec<(&'a str, u64)> {
    // Parents before children: earlier start first, longer span first on ties.
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut covered = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (start, end, _) = spans[i];
        while open.last().is_some_and(|&p| spans[p].1 <= start) {
            open.pop();
        }
        if let Some(&p) = open.last() {
            covered[p] += end.min(spans[p].1) - start;
        }
        open.push(i);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(&(s, e, name), c)| (name, (e - s).saturating_sub(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // op [0,100) ─ step [10,90) ─ m2l [20,40), p2p [40,70) ─ inner [45,50)
        //            └ flush [92,98)
        let mut spans = vec![
            (40, 70, "p2p"),
            (0, 100, "op"),
            (92, 98, "flush"),
            (10, 90, "step"),
            (45, 50, "inner"),
            (20, 40, "m2l"),
        ];
        let got: BTreeMap<&str, u64> = self_times(&mut spans).into_iter().collect();
        assert_eq!(got["op"], 100 - 80 - 6);
        assert_eq!(got["step"], 80 - 20 - 30);
        assert_eq!(got["m2l"], 20);
        assert_eq!(got["p2p"], 30 - 5);
        assert_eq!(got["inner"], 5);
        assert_eq!(got["flush"], 6);
        // Self times of a tree add up to the root's duration.
        assert_eq!(got.values().sum::<u64>(), 100);
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40), (40, 45)]), 35);
        assert_eq!(union_ns(Vec::new()), 0);
    }
}
