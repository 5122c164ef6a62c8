//! Critical-path and per-worker utilization analysis over a validated
//! trace — the "what limited this run?" half of apex-lite.
//!
//! ## Critical-path definition
//!
//! The futurized step emits many concurrent same-name spans (one
//! `gravity_solve` per leaf task), so a naive longest-chain over raw spans
//! either double-counts concurrency or misses it. We instead analyse
//! *phase activity segments*: for each phase name, the wall-clock union of
//! all its spans (across every thread) is merged into disjoint segments —
//! "some gravity work was in flight during [s, e)". The critical path is
//! then the longest happens-before chain over the pooled segments: a
//! sequence `seg_1, …, seg_k` with `end(seg_i) ≤ start(seg_{i+1})`
//! maximising total covered time. One DP finds it (`longest_chain`,
//! O(n log n)): [`critical_path`] pools every segment on one locality,
//! [`critical_path_distributed`] pins each segment to its locality and adds
//! the parcels as wire legs between them.
//!
//! Two properties follow by construction and are what the tests gate on:
//!
//! * **path ≤ wall** — chain segments are pairwise disjoint and live
//!   inside the trace's `[first_ts, last_end]` window;
//! * **path ≥ max single-phase active time** — one phase's own merged
//!   segments are disjoint and ordered, hence themselves a feasible
//!   chain, so the optimum can only be longer.
//!
//! `wall − path` is the *slack*: wall-clock time where no chained phase
//! segment was open (scheduler gaps, non-phase work). Per-phase rows
//! split the path into contributions so "gravity is 60% of the critical
//! path" is a one-line read.

use crate::chrome::{SpanRecord, TraceSummary};
use std::collections::{BTreeMap, BTreeSet};

/// One merged activity segment of a named phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSegment {
    /// Phase (span) name this segment belongs to.
    pub name: String,
    /// Segment start, ns on the trace clock.
    pub(crate) start_ns: u64,
    /// Segment end, ns on the trace clock.
    pub(crate) end_ns: u64,
}

impl PhaseSegment {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-phase breakdown of the critical path.
#[derive(Debug, Clone)]
pub struct PhaseContribution {
    /// Phase name.
    pub name: String,
    /// Nanoseconds this phase contributes to the critical path.
    pub path_ns: u64,
    /// Total active (union) time of the phase across the whole run.
    pub active_ns: u64,
    /// Number of raw spans carrying this name.
    pub spans: u64,
}

/// Result of [`critical_path`].
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Trace wall-clock window (last span/instant end − first start).
    pub wall_ns: u64,
    /// Total length of the longest chain.
    pub path_ns: u64,
    /// Wall time not covered by the chain (`wall_ns − path_ns`).
    pub slack_ns: u64,
    /// The chain itself, in time order.
    pub segments: Vec<PhaseSegment>,
    /// Per-phase contributions, largest `path_ns` first.
    pub by_phase: Vec<PhaseContribution>,
}

/// Merge raw `[start, end)` intervals into a disjoint, ordered union.
/// Touching intervals (`end == next start`) coalesce.
pub(crate) fn merge_intervals(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in sorted {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Total nanoseconds covered by the union of `intervals`.
pub(crate) fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    merge_intervals(intervals).iter().map(|(s, e)| e - s).sum()
}

/// What is left of `[start, end)` after cutting out `holes` (disjoint and
/// ordered, as [`merge_intervals`] returns them).
fn subtract_intervals(start: u64, end: u64, holes: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut left = Vec::new();
    let mut at = start;
    for &(hs, he) in holes {
        if he <= at {
            continue;
        }
        if hs >= end {
            break;
        }
        if hs > at {
            left.push((at, hs));
        }
        at = he;
    }
    if at < end {
        left.push((at, end));
    }
    left
}

/// Every lane's `sched` spans (parks, and waits inside a task), merged:
/// the time the lane's thread spent blocked. A span of any other category
/// that encloses such an interval was not working through it.
fn blocked_by_lane(summary: &TraceSummary) -> BTreeMap<(u64, u64), Vec<(u64, u64)>> {
    let mut blocked: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for rec in summary.records.iter().filter(|r| r.cat == "sched") {
        blocked
            .entry((rec.pid, rec.tid))
            .or_default()
            .push((rec.ts, rec.end));
    }
    for spans in blocked.values_mut() {
        *spans = merge_intervals(spans);
    }
    blocked
}

/// The parts of `rec` during which its thread was not blocked.
fn working_time(
    blocked: &BTreeMap<(u64, u64), Vec<(u64, u64)>>,
    rec: &SpanRecord,
) -> Vec<(u64, u64)> {
    let holes = blocked
        .get(&(rec.pid, rec.tid))
        .map_or(&[][..], Vec::as_slice);
    subtract_intervals(rec.ts, rec.end, holes)
}

/// Phase names to analyse when the caller doesn't pick any: every span
/// name recorded under the `phase` category, in first-seen order.
pub fn default_phases(summary: &TraceSummary) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for rec in &summary.records {
        if rec.cat == "phase" && !names.iter().any(|n| n == &rec.name) {
            names.push(rec.name.clone());
        }
    }
    names
}

/// Name of the wire legs among the distributed path's segments.
const NETWORK: &str = "network";

/// One node of the happens-before DAG: a phase activity segment pinned to
/// its locality, or a network leg bridging two.
#[derive(Clone, Copy)]
struct Seg<'a> {
    name: &'a str,
    start_ns: u64,
    end_ns: u64,
    /// Locality a predecessor must end on.
    pid_in: u64,
    /// Locality a successor must start on.
    pid_out: u64,
}

impl Seg<'_> {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Longest pid-chained happens-before chain over `segs`:
/// `dp[i] = dur_i + max{dp[j] : end_j ≤ start_i ∧ pid_out_j == pid_in_i}`.
/// Sorts `segs` by end and returns the chain's indices in time order. Each
/// locality keeps the prefix maximum of the chains that end on it, in end
/// order, so a segment finds its best predecessor with one
/// `partition_point`: O(n log n) — a level-4 trace pools ~10⁴ segments.
fn longest_chain(segs: &mut [Seg<'_>]) -> Vec<usize> {
    segs.sort_by_key(|s| (s.end_ns, s.start_ns, s.name));
    let n = segs.len();
    let mut dp = vec![0u64; n];
    let mut prev = vec![usize::MAX; n];
    // pid_out → (end_ns, index of the longest chain ending at or before it).
    let mut best_on: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    for (i, seg) in segs.iter().enumerate() {
        dp[i] = seg.dur();
        if let Some(ends) = best_on.get(&seg.pid_in) {
            let before = ends.partition_point(|&(end, _)| end <= seg.start_ns);
            if let Some(&(_, j)) = ends[..before].last() {
                if dp[j] > 0 {
                    dp[i] += dp[j];
                    prev[i] = j;
                }
            }
        }
        let ends = best_on.entry(seg.pid_out).or_default();
        let best = match ends.last() {
            Some(&(_, j)) if dp[j] >= dp[i] => j,
            _ => i,
        };
        ends.push((seg.end_ns, best));
    }
    let mut chain = Vec::new();
    let mut at = (0..n).max_by_key(|&i| dp[i]).unwrap_or(usize::MAX);
    while at != usize::MAX {
        chain.push(at);
        at = prev[at];
    }
    chain.reverse();
    chain
}

/// The longest chain through `segs` as a [`CriticalPath`] over a window of
/// `wall_ns`: the chain, and one row per segment name.
fn path_through(mut segs: Vec<Seg<'_>>, wall_ns: u64, summary: &TraceSummary) -> CriticalPath {
    let chain = longest_chain(&mut segs);
    // name → (ns on the path, ns active).
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for seg in &segs {
        rows.entry(seg.name).or_default().1 += seg.dur();
    }
    for &i in &chain {
        rows.entry(segs[i].name).or_default().0 += segs[i].dur();
    }
    let mut by_phase: Vec<PhaseContribution> = rows
        .into_iter()
        .map(|(name, (path_ns, active_ns))| PhaseContribution {
            name: name.to_string(),
            path_ns,
            active_ns,
            spans: if name == NETWORK {
                summary.flow_edges.len() as u64
            } else {
                summary.count_name(name)
            },
        })
        .collect();
    by_phase.sort_by(|a, b| b.path_ns.cmp(&a.path_ns).then(a.name.cmp(&b.name)));
    let segments: Vec<PhaseSegment> = chain
        .iter()
        .map(|&i| PhaseSegment {
            name: segs[i].name.to_string(),
            start_ns: segs[i].start_ns,
            end_ns: segs[i].end_ns,
        })
        .collect();
    let path_ns = segments.iter().map(PhaseSegment::dur).sum();
    CriticalPath {
        wall_ns,
        path_ns,
        slack_ns: wall_ns.saturating_sub(path_ns),
        segments,
        by_phase,
    }
}

/// Compute the critical path through `phases` (see module docs for the
/// definition): every phase's activity segments pooled on one locality, no
/// wire legs. Unknown phase names contribute nothing; an empty trace or an
/// empty phase list yields an empty path with `wall_ns` still set.
pub fn critical_path(summary: &TraceSummary, phases: &[String]) -> CriticalPath {
    let mut segs: Vec<Seg<'_>> = Vec::new();
    for name in phases {
        let Some(intervals) = summary.intervals_by_name.get(name) else {
            continue;
        };
        segs.extend(merge_intervals(intervals).into_iter().map(|(s, e)| Seg {
            name,
            start_ns: s,
            end_ns: e,
            pid_in: 0,
            pid_out: 0,
        }));
    }
    let wall_ns = summary.last_end_ns.saturating_sub(summary.first_ts_ns);
    path_through(segs, wall_ns, summary)
}

/// Result of [`critical_path_distributed`]: the comms-aware critical path
/// plus the distributed-only diagnostics `trace_report`'s comms section
/// prints.
#[derive(Debug, Clone, Default)]
pub struct DistCriticalPath {
    /// The path itself (`"network"` segments are the wire legs).
    pub path: CriticalPath,
    /// Nanoseconds of the path spent on network legs.
    pub network_ns: u64,
    /// Number of cross-locality flow edges the path routes through.
    pub network_edges_on_path: u64,
    /// Per-locality single-locality path lengths (the distributed path is
    /// ≥ each of these by construction).
    pub per_locality_path_ns: BTreeMap<u64, u64>,
}

/// Comms-aware critical path across localities. Like [`critical_path`],
/// but activity segments are merged **per locality** (work on locality 1
/// cannot extend a chain on locality 0 without a parcel in between), flow
/// edges become `"network"` legs whose endpoints pin the chain to the
/// sending/receiving locality. Every locality records on one clock
/// (`trace::now_ns` counts from one epoch for the whole process), so the
/// timestamps are read as recorded; a receive is clamped to no earlier
/// than its send, a sanity bound on a trace file's input.
///
/// When the trace carries flow edges, the chain pool is every
/// non-scheduler span on the parcel-exchanging localities, *less the time
/// its thread spent blocked inside it* — `sched` spans (parks, and the
/// waits of a task that joins a remote reply with nothing to help with) are
/// excluded and cut out of the spans that enclose them. A task that waits
/// for the wire is then a gap on its lane that only the peer's work and the
/// two wire legs can fill, so the path crosses the network wherever the run
/// really waited for it, instead of only when the lanes happen to leave
/// gaps. Also excluded is any coordination lane whose pid exchanges no
/// parcels: its phase envelopes span whole remote exchanges and would tile
/// the wall, hiding the wire legs they contain. Without flow edges the
/// function falls back to the `phases` list and matches the single-locality
/// analysis exactly.
pub fn critical_path_distributed(summary: &TraceSummary, phases: &[String]) -> DistCriticalPath {
    // Per-(name, pid) merged activity segments.
    let flow_pids: BTreeSet<u64> = summary
        .flow_edges
        .iter()
        .flat_map(|e| [e.src_pid, e.dst_pid])
        .collect();
    let blocked = blocked_by_lane(summary);
    let mut by_name_pid: BTreeMap<(&str, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for rec in &summary.records {
        let pieces = if flow_pids.is_empty() {
            if !phases.iter().any(|p| p == &rec.name) {
                continue;
            }
            vec![(rec.ts, rec.end)]
        } else {
            if !flow_pids.contains(&rec.pid) || rec.cat == "sched" {
                continue;
            }
            working_time(&blocked, rec)
        };
        by_name_pid
            .entry((rec.name.as_str(), rec.pid))
            .or_default()
            .extend(pieces);
    }
    let mut segs: Vec<Seg<'_>> = Vec::new();
    for ((name, pid), intervals) in by_name_pid {
        segs.extend(merge_intervals(&intervals).into_iter().map(|(s, e)| Seg {
            name,
            start_ns: s,
            end_ns: e,
            pid_in: pid,
            pid_out: pid,
        }));
    }

    // Single-locality baselines: the same DP over one pid's segments, no
    // network legs — each is a feasible chain of the global problem, so
    // the distributed path dominates every one of them.
    let seg_pids: BTreeSet<u64> = segs.iter().map(|s| s.pid_in).collect();
    let mut per_locality_path_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for pid in seg_pids {
        let mut local: Vec<Seg<'_>> = segs.iter().filter(|s| s.pid_in == pid).copied().collect();
        let chain = longest_chain(&mut local);
        per_locality_path_ns.insert(pid, chain.iter().map(|&i| local[i].dur()).sum());
    }

    // Network legs: send → recv, clamped causal.
    segs.extend(summary.flow_edges.iter().map(|e| Seg {
        name: NETWORK,
        start_ns: e.src_ts,
        end_ns: e.dst_ts.max(e.src_ts),
        pid_in: e.src_pid,
        pid_out: e.dst_pid,
    }));

    let wall_ns = segs
        .iter()
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(0)
        .saturating_sub(segs.iter().map(|s| s.start_ns).min().unwrap_or(0));
    let path = path_through(segs, wall_ns, summary);
    let legs = || path.segments.iter().filter(|s| s.name == NETWORK);
    DistCriticalPath {
        network_ns: legs().map(PhaseSegment::dur).sum(),
        network_edges_on_path: legs().count() as u64,
        path,
        per_locality_path_ns,
    }
}

/// One lane's utilization over the trace window.
#[derive(Debug, Clone)]
pub struct WorkerUtilization {
    /// Locality id.
    pub pid: u64,
    /// Thread id within the locality.
    pub tid: u64,
    /// Thread name from trace metadata (empty when unnamed).
    pub thread: String,
    /// Union of non-`sched` span time on this lane (actual work).
    pub busy_ns: u64,
    /// Union of `park` span time (idle, waiting for work).
    pub(crate) park_ns: u64,
    /// `steal` instants recorded on this lane.
    pub steals: u64,
    /// `yield` instants recorded on this lane.
    pub yields: u64,
    /// Trace wall window the fractions are relative to.
    pub wall_ns: u64,
}

impl WorkerUtilization {
    /// Busy fraction of the trace window (0 when the window is empty).
    pub fn busy_frac(&self) -> f64 {
        self.busy_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// Parked fraction of the trace window.
    pub fn park_frac(&self) -> f64 {
        self.park_ns as f64 / self.wall_ns.max(1) as f64
    }
}

/// Per-lane busy/park/steal/yield accounting, ordered by (pid, tid).
/// Every lane carrying at least one span or instant gets a row. Time a
/// thread spent blocked (`sched` spans) is park time even inside a task's
/// span, so busy and park never count the same nanosecond.
pub fn worker_utilization(summary: &TraceSummary) -> Vec<WorkerUtilization> {
    let wall_ns = summary.last_end_ns.saturating_sub(summary.first_ts_ns);
    let park = blocked_by_lane(summary);
    let mut busy: BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        park.keys().map(|&key| (key, Vec::new())).collect();
    for rec in summary.records.iter().filter(|r| r.cat != "sched") {
        busy.entry((rec.pid, rec.tid))
            .or_default()
            .extend(working_time(&park, rec));
    }
    for key in summary.instants_by_thread.keys() {
        busy.entry(*key).or_default();
    }
    busy.into_iter()
        .map(|((pid, tid), spans)| {
            let instants = summary.instants_by_thread.get(&(pid, tid));
            let count = |name: &str| -> u64 {
                instants
                    .and_then(|m| m.get(name))
                    .copied()
                    .unwrap_or_default()
            };
            WorkerUtilization {
                pid,
                tid,
                thread: summary
                    .thread_names
                    .get(&(pid, tid))
                    .cloned()
                    .unwrap_or_default(),
                busy_ns: union_ns(&spans),
                park_ns: park.get(&(pid, tid)).map(|p| union_ns(p)).unwrap_or(0),
                steals: count("steal"),
                yields: count("yield"),
                wall_ns,
            }
        })
        .collect()
}

/// Imbalance ratio (max busy / mean busy) over the worker lanes — lanes
/// whose thread name contains `"worker"`, falling back to all lanes when
/// none are labelled. `1.0` is perfectly balanced; `0.0` means no busy
/// time at all. Matches the `/runtime/imbalance` counter definition.
pub fn imbalance_ratio(util: &[WorkerUtilization]) -> f64 {
    let workers: Vec<&WorkerUtilization> = {
        let labelled: Vec<&WorkerUtilization> = util
            .iter()
            .filter(|u| u.thread.contains("worker"))
            .collect();
        if labelled.is_empty() {
            util.iter().collect()
        } else {
            labelled
        }
    };
    let total: u64 = workers.iter().map(|u| u.busy_ns).sum();
    if workers.is_empty() || total == 0 {
        return 0.0;
    }
    let max = workers.iter().map(|u| u.busy_ns).max().unwrap_or(0) as f64;
    max / (total as f64 / workers.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::tests::{instant_ev, meta, span_ev};
    use crate::chrome::{export, validate};
    use crate::trace::{Cat, Event, EventKind, Trace};

    fn phases(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Hand-computed fixture: two workers, overlapping same-name spans.
    ///
    /// ```text
    /// w0: gravity [0,1000)            hydro [3000,5000)
    /// w1: gravity [500,1500)  comm [1500,2000)   hydro [4000,6000)
    /// ```
    /// gravity union [0,1500), comm [1500,2000), hydro union [3000,6000)
    /// → chain g+c+h = 1500+500+3000 = 5000, wall 6000, slack 1000.
    fn fixture() -> TraceSummary {
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 1, "worker0"),
                    vec![
                        span_ev("gravity_solve", Cat::Phase, 0, 1000),
                        instant_ev("steal", Cat::Sched, 2500),
                        span_ev("hydro_step", Cat::Phase, 3000, 2000),
                    ],
                ),
                (
                    meta(0, 2, "worker1"),
                    vec![
                        span_ev("gravity_solve", Cat::Phase, 500, 1000),
                        span_ev("comm_flush", Cat::Phase, 1500, 500),
                        span_ev("park", Cat::Sched, 2000, 1000),
                        span_ev("hydro_step", Cat::Phase, 4000, 2000),
                    ],
                ),
            ],
            dropped: 0,
        };
        validate(&export(&trace)).unwrap()
    }

    #[test]
    fn hand_computed_critical_path() {
        let s = fixture();
        let names = default_phases(&s);
        assert_eq!(
            names,
            phases(&["gravity_solve", "hydro_step", "comm_flush"])
        );
        let cp = critical_path(&s, &phases(&["gravity_solve", "comm_flush", "hydro_step"]));
        assert_eq!(cp.wall_ns, 6000);
        assert_eq!(cp.path_ns, 5000);
        assert_eq!(cp.slack_ns, 1000);
        assert_eq!(cp.segments.len(), 3);
        assert_eq!(cp.segments[0].name, "gravity_solve");
        assert_eq!((cp.segments[0].start_ns, cp.segments[0].end_ns), (0, 1500));
        assert_eq!(cp.segments[1].name, "comm_flush");
        assert_eq!(cp.segments[2].name, "hydro_step");
        assert_eq!(
            (cp.segments[2].start_ns, cp.segments[2].end_ns),
            (3000, 6000)
        );
        // hydro contributes most, then gravity, then comm.
        assert_eq!(cp.by_phase[0].name, "hydro_step");
        assert_eq!(cp.by_phase[0].path_ns, 3000);
        assert_eq!(cp.by_phase[0].active_ns, 3000);
        assert_eq!(cp.by_phase[0].spans, 2);
        assert_eq!(cp.by_phase[1].name, "gravity_solve");
        assert_eq!(cp.by_phase[1].path_ns, 1500);
    }

    #[test]
    fn path_bounds_hold() {
        let s = fixture();
        let names = default_phases(&s);
        let cp = critical_path(&s, &names);
        assert!(cp.path_ns <= cp.wall_ns);
        for p in &cp.by_phase {
            assert!(
                cp.path_ns >= p.active_ns,
                "path {} < active {} for {}",
                cp.path_ns,
                p.active_ns,
                p.name
            );
        }
    }

    #[test]
    fn hand_computed_utilization() {
        let s = fixture();
        let util = worker_utilization(&s);
        assert_eq!(util.len(), 2);
        let w0 = &util[0];
        assert_eq!((w0.pid, w0.tid, w0.thread.as_str()), (0, 1, "worker0"));
        assert_eq!(w0.busy_ns, 3000); // [0,1000) + [3000,5000)
        assert_eq!(w0.park_ns, 0);
        assert_eq!(w0.steals, 1);
        let w1 = &util[1];
        assert_eq!(w1.busy_ns, 3500); // [500,2000) + [4000,6000)
        assert_eq!(w1.park_ns, 1000);
        assert!((w0.busy_frac() - 0.5).abs() < 1e-12);
        // imbalance = max/mean = 3500 / 3250.
        let r = imbalance_ratio(&util);
        assert!((r - 3500.0 / 3250.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn empty_and_unknown_phases() {
        let s = fixture();
        let cp = critical_path(&s, &phases(&["no_such_phase"]));
        assert_eq!(cp.path_ns, 0);
        assert_eq!(cp.slack_ns, cp.wall_ns);
        assert!(cp.segments.is_empty());
        let empty = validate("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}").unwrap();
        let cp = critical_path(&empty, &phases(&["gravity_solve"]));
        assert_eq!((cp.wall_ns, cp.path_ns), (0, 0));
        assert!(worker_utilization(&empty).is_empty());
        assert_eq!(imbalance_ratio(&[]), 0.0);
    }

    /// Two localities with traffic in both directions:
    ///
    /// ```text
    /// loc0: compute [0,1000)                        finish [3200,4000)
    ///         └─ net id7 [1000,1200) ─┐   ┌─ net id8 [3000,3200) ─┘
    /// loc1:                  compute [1500,3000)
    /// ```
    /// → path = 1000 + 200 + 1500 + 200 + 800 = 3700 of wall 4000.
    fn dist_fixture() -> TraceSummary {
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 1, "worker0"),
                    vec![
                        span_ev("compute", Cat::Phase, 0, 1000),
                        Event {
                            cat: Cat::Comm,
                            name: "parcel",
                            ts_ns: 1000,
                            kind: EventKind::FlowStart { id: 7 },
                        },
                        Event {
                            cat: Cat::Comm,
                            name: "parcel",
                            ts_ns: 3200,
                            kind: EventKind::FlowEnd { id: 8 },
                        },
                        span_ev("finish", Cat::Phase, 3200, 800),
                    ],
                ),
                (
                    meta(1, 1, "worker0"),
                    vec![
                        Event {
                            cat: Cat::Comm,
                            name: "parcel",
                            ts_ns: 1200,
                            kind: EventKind::FlowEnd { id: 7 },
                        },
                        span_ev("compute", Cat::Phase, 1500, 1500),
                        Event {
                            cat: Cat::Comm,
                            name: "parcel",
                            ts_ns: 3000,
                            kind: EventKind::FlowStart { id: 8 },
                        },
                    ],
                ),
            ],
            dropped: 0,
        };
        validate(&export(&trace)).unwrap()
    }

    #[test]
    fn distributed_path_routes_through_network_legs() {
        let s = dist_fixture();
        let dist = critical_path_distributed(&s, &phases(&["compute", "finish"]));
        assert_eq!(dist.path.wall_ns, 4000);
        assert_eq!(dist.path.path_ns, 3700);
        assert_eq!(dist.network_ns, 400);
        assert_eq!(dist.network_edges_on_path, 2);
        let names: Vec<&str> = dist.path.segments.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["compute", "network", "compute", "network", "finish"]
        );
        // Single-locality baselines are dominated by the distributed path.
        assert_eq!(dist.per_locality_path_ns.get(&0), Some(&1800));
        assert_eq!(dist.per_locality_path_ns.get(&1), Some(&1500));
        for (&pid, &local) in &dist.per_locality_path_ns {
            assert!(dist.path.path_ns >= local, "path < locality {pid} path");
        }
        assert!(dist.path.path_ns <= dist.path.wall_ns);
        // Network shows up in the per-phase table with its edge count.
        let net = dist
            .path
            .by_phase
            .iter()
            .find(|p| p.name == "network")
            .expect("network row");
        assert_eq!((net.path_ns, net.active_ns, net.spans), (400, 400, 2));
    }

    #[test]
    fn a_receive_before_its_send_clamps_to_a_zero_length_leg() {
        // Sanity on the clamp: feed a single edge whose recv precedes its
        // send — the network leg must clamp to zero length, never
        // underflow.
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 1, "w"),
                    vec![Event {
                        cat: Cat::Comm,
                        name: "parcel",
                        ts_ns: 5000,
                        kind: EventKind::FlowStart { id: 1 },
                    }],
                ),
                (
                    meta(1, 1, "w"),
                    vec![
                        Event {
                            cat: Cat::Comm,
                            name: "parcel",
                            ts_ns: 200,
                            kind: EventKind::FlowEnd { id: 1 },
                        },
                        span_ev("compute", Cat::Phase, 6000, 1000),
                    ],
                ),
            ],
            dropped: 0,
        };
        let s = validate(&export(&trace)).unwrap();
        let dist = critical_path_distributed(&s, &phases(&["compute"]));
        assert_eq!(dist.network_ns, 0);
        // The zero-length leg still chains: send@5000 → recv clamps to
        // 5000 on loc1 → compute [6000,7000) is reachable.
        assert_eq!(dist.path.path_ns, 1000);
        assert!(dist.path.path_ns <= dist.path.wall_ns);
    }

    #[test]
    fn subtract_intervals_cuts_holes_out() {
        let holes = [(10, 20), (30, 40), (60, 70)];
        assert_eq!(
            subtract_intervals(0, 50, &holes),
            [(0, 10), (20, 30), (40, 50)]
        );
        assert_eq!(subtract_intervals(15, 35, &holes), [(20, 30)]);
        assert_eq!(subtract_intervals(10, 20, &holes), []);
        assert_eq!(subtract_intervals(41, 59, &holes), [(41, 59)]);
        assert_eq!(subtract_intervals(5, 8, &[]), [(5, 8)]);
    }

    /// A task on locality 1 asks locality 0 for data and waits for the
    /// reply with nothing to help with; its span covers the wait.
    ///
    /// ```text
    /// loc0:                  serve [1200,2800)
    /// loc1: task [0 ........................ 5000)
    ///            wait [1000 ......... 3000)
    /// flows: 1→0 sent 1000 received 1200, 0→1 sent 2800 received 3000
    /// ```
    fn remote_wait_fixture(with_wait_span: bool) -> TraceSummary {
        let flow = |ts_ns, kind| Event {
            cat: Cat::Comm,
            name: "parcel",
            ts_ns,
            kind,
        };
        let mut waiter = vec![
            flow(1000, EventKind::FlowStart { id: 1 }),
            flow(3000, EventKind::FlowEnd { id: 2 }),
            span_ev("execute", Cat::Task, 0, 5000),
        ];
        if with_wait_span {
            waiter.insert(1, span_ev("wait", Cat::Sched, 1000, 2000));
        }
        let trace = Trace {
            threads: vec![
                (
                    meta(0, 1, "worker0"),
                    vec![
                        flow(1200, EventKind::FlowEnd { id: 1 }),
                        span_ev("serve", Cat::Task, 1200, 1600),
                        flow(2800, EventKind::FlowStart { id: 2 }),
                    ],
                ),
                (meta(1, 1, "worker0"), waiter),
            ],
            dropped: 0,
        };
        validate(&export(&trace)).unwrap()
    }

    #[test]
    fn a_task_waiting_for_the_wire_puts_the_wire_on_the_path() {
        // With the wait recorded, the waiting task is two pieces around a
        // gap that the peer's work and the two legs fill exactly.
        let dist = critical_path_distributed(&remote_wait_fixture(true), &[]);
        assert_eq!(dist.network_edges_on_path, 2);
        assert_eq!(dist.network_ns, 400);
        assert_eq!(dist.path.path_ns, 5000);
        let names: Vec<&str> = dist.path.segments.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["execute", "network", "serve", "network", "execute"]);
        assert_eq!(dist.per_locality_path_ns.get(&1), Some(&3000));
        // Without it the task's span tiles its lane and hides the wire —
        // what made the path's route depend on scheduling luck.
        let blind = critical_path_distributed(&remote_wait_fixture(false), &[]);
        assert_eq!(blind.network_edges_on_path, 0);
        assert_eq!(blind.path.path_ns, 5000);
    }

    #[test]
    fn blocked_time_inside_a_task_is_park_time_not_busy_time() {
        let util = worker_utilization(&remote_wait_fixture(true));
        let waiter = util.iter().find(|u| u.pid == 1).expect("locality 1 lane");
        assert_eq!((waiter.busy_ns, waiter.park_ns), (3000, 2000));
        let server = util.iter().find(|u| u.pid == 0).expect("locality 0 lane");
        assert_eq!((server.busy_ns, server.park_ns), (1600, 0));
    }

    #[test]
    fn distributed_matches_single_locality_analysis_on_one_pid() {
        let s = fixture();
        let names = default_phases(&s);
        let cp = critical_path(&s, &names);
        let dist = critical_path_distributed(&s, &names);
        assert_eq!(dist.path.path_ns, cp.path_ns);
        assert_eq!(dist.network_ns, 0);
        assert_eq!(dist.network_edges_on_path, 0);
        assert_eq!(dist.per_locality_path_ns.get(&0), Some(&cp.path_ns));
    }

    /// The prefix-maximum DP against its defining recurrence, evaluated
    /// quadratically, on pseudo-random pools over three localities (wire
    /// legs and zero-length segments among them).
    #[test]
    fn longest_chain_equals_the_quadratic_recurrence() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..300 {
            let mut segs: Vec<Seg<'_>> = Vec::new();
            for _ in 0..below(40) {
                let (start, pid) = (below(100), below(3));
                segs.push(Seg {
                    name: "s",
                    start_ns: start,
                    end_ns: start + below(20),
                    pid_in: pid,
                    pid_out: if below(4) == 0 { below(3) } else { pid },
                });
            }
            let chain = longest_chain(&mut segs);
            for w in chain.windows(2) {
                let (a, b) = (segs[w[0]], segs[w[1]]);
                assert!(a.end_ns <= b.start_ns && a.pid_out == b.pid_in);
            }
            let mut dp = vec![0u64; segs.len()];
            for (i, s) in segs.iter().enumerate() {
                let fits =
                    |j: &usize| segs[*j].end_ns <= s.start_ns && segs[*j].pid_out == s.pid_in;
                dp[i] = s.dur() + (0..i).filter(fits).map(|j| dp[j]).max().unwrap_or(0);
            }
            let path: u64 = chain.iter().map(|&i| segs[i].dur()).sum();
            assert_eq!(path, dp.into_iter().max().unwrap_or(0));
        }
    }

    #[test]
    fn interval_union_merges_touching_and_overlapping() {
        assert_eq!(
            merge_intervals(&[(5, 9), (0, 3), (3, 5), (20, 30)]),
            vec![(0, 9), (20, 30)]
        );
        assert_eq!(union_ns(&[(0, 10), (5, 15), (40, 41)]), 16);
        assert_eq!(union_ns(&[]), 0);
    }
}
