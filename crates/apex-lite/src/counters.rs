//! Hierarchical counter registry — the HPX performance-counter stand-in.
//!
//! HPX exposes `/threads{locality#0/total}/count/cumulative`-style counter
//! paths, sampled on demand. This module unifies the workspace's scattered
//! statistics (`amt::RuntimeStats`, `distrib::PortStats`, gravity cache
//! hit/miss counts, work/flop estimates, energy model output) behind the
//! same idea:
//!
//! * a [`CounterSnapshot`] maps slash-separated paths
//!   (`/runtime/worker0/steals`) to typed values ([`CounterValue`]);
//! * [`CounterSnapshot::delta`] turns two lifetime snapshots into a
//!   per-interval sample without resetting any shared state mid-run;
//! * a [`CounterRegistry`] holds long-lived *providers* (closures over
//!   cloneable stat handles) so one `sample()` call assembles the whole
//!   namespace;
//! * [`render_step_table`] prints per-step deltas as a plain-text table
//!   (`trace_report` feeds it a trace's counter series).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in a [`Histogram`]: 16 exact unit buckets for values
/// below 16, then 4 sub-buckets per power of two up to `u64::MAX`
/// (octaves 4..=63 → 60 × 4 = 240 log-linear buckets).
pub(crate) const HISTOGRAM_BUCKETS: usize = 256;

/// Worst-case relative error of a [`Histogram::quantile`] estimate.
///
/// Log-linear buckets in octave `o` are `2^(o-2)` wide on a lower bound of
/// at least `2^o`, so the true value is within ±½ bucket of the returned
/// midpoint: `(2^(o-2) / 2) / 2^o = 1/8`. Values below 16 land in exact
/// unit buckets (zero error).
pub const HISTOGRAM_MAX_RELATIVE_ERROR: f64 = 0.125;

/// Log-bucketed value distribution — the HPX/APEX latency-percentile
/// primitive (HdrHistogram-style log-linear buckets).
///
/// Fixed-size and `Copy`, so it travels inside [`CounterValue`] through
/// snapshots, deltas and cross-locality merges without allocation. Bucket
/// counts add element-wise, which makes [`Histogram::merge`] associative
/// and commutative: locality snapshots can be combined in any order and
/// grouping and yield the identical distribution.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Bucket index of `v` under the log-linear scheme.
fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (octave - 2)) & 3) as usize;
    16 + (octave - 4) * 4 + sub
}

/// Inclusive-lower/exclusive-upper value bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 16 {
        return (i as u64, i as u64 + 1);
    }
    let k = i - 16;
    let octave = 4 + (k / 4) as u32;
    let sub = (k % 4) as u64;
    let width = 1u64 << (octave - 2);
    let lower = (1u64 << octave) + sub * width;
    (lower, lower.saturating_add(width))
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Merge `other` into `self` (bucket-wise add — associative and
    /// commutative, so locality snapshots combine in any order).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Bucket-wise `self − prev` (saturating), for per-interval deltas.
    pub(crate) fn delta(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (b, p)) in self.buckets.iter().zip(&prev.buckets).enumerate() {
            out.buckets[i] = b.saturating_sub(*p);
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = self.sum.saturating_sub(prev.sum);
        out
    }

    /// Estimate of the `q`-quantile (`0.0 ..= 1.0`): the midpoint of the
    /// bucket holding the ⌈q·count⌉-th smallest observation, exact for
    /// values < 16 and within [`HISTOGRAM_MAX_RELATIVE_ERROR`] otherwise.
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                let (lo, hi) = bucket_bounds(i);
                return if i < 16 { lo } else { lo + (hi - lo) / 2 };
            }
        }
        bucket_bounds(HISTOGRAM_BUCKETS - 1).0
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("p50", &self.quantile(0.5))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

/// Lock-free shared recording side of a [`Histogram`] — the parcel receive
/// threads record concurrently with relaxed atomics; providers
/// take a coherent-enough [`AtomicHistogram::snapshot`] at sample time.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation (relaxed; safe from any thread).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Copy the current state into a value [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (b, a) in h.buckets.iter_mut().zip(&self.buckets) {
            *b = a.load(Ordering::Relaxed);
        }
        // Derive count/sum from the caller-visible invariant fields; the
        // bucket array may race ahead of them by in-flight records, which
        // only ever under-reports the newest observations.
        h.count = self
            .count
            .load(Ordering::Relaxed)
            .min(h.buckets.iter().sum());
        h.sum = self.sum.load(Ordering::Relaxed);
        h
    }
}

/// One counter value.
///
/// The histogram variant is ~2 KiB inline; boxing it would cost an
/// allocation per histogram per sample and take `Copy` away from every
/// snapshot consumer. Snapshots live for one sample, so the inline size
/// is the better trade.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// Monotonically accumulating event count (delta-able).
    Count(u64),
    /// Point-in-time measurement (watts, ratios); deltas keep the newer
    /// reading.
    Gauge(f64),
    /// Value distribution with percentile estimates; deltas subtract
    /// bucket-wise, merges add bucket-wise.
    Histogram(Histogram),
}

impl CounterValue {
    /// Numeric view (for tables and plotting); a histogram reads as its
    /// observation count (percentiles ride along as derived gauges, see
    /// [`Collector::histogram`]).
    pub fn as_f64(&self) -> f64 {
        match self {
            CounterValue::Count(v) => *v as f64,
            CounterValue::Gauge(v) => *v,
            CounterValue::Histogram(h) => h.count() as f64,
        }
    }
}

impl std::fmt::Display for CounterValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CounterValue::Count(v) => write!(f, "{v}"),
            CounterValue::Gauge(v) => write!(f, "{v:.3}"),
            CounterValue::Histogram(h) => write!(
                f,
                "n={} p50={} p99={}",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99)
            ),
        }
    }
}

/// A sampled set of counters, keyed by hierarchical path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    values: BTreeMap<String, CounterValue>,
}

impl CounterSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a count at `path` (slash-separated, e.g. `/runtime/steals`).
    pub fn set_count(&mut self, path: impl Into<String>, v: u64) {
        self.values.insert(path.into(), CounterValue::Count(v));
    }

    /// Set a gauge at `path`.
    pub fn set_gauge(&mut self, path: impl Into<String>, v: f64) {
        self.values.insert(path.into(), CounterValue::Gauge(v));
    }

    /// Set a histogram at `path`.
    pub(crate) fn set_histogram(&mut self, path: impl Into<String>, h: Histogram) {
        self.values.insert(path.into(), CounterValue::Histogram(h));
    }

    /// Histogram at `path` (`None` when absent or another kind).
    pub fn histogram(&self, path: &str) -> Option<Histogram> {
        match self.get(path) {
            Some(CounterValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Value at `path`, if sampled.
    pub fn get(&self, path: &str) -> Option<CounterValue> {
        self.values.get(path).copied()
    }

    /// Count at `path` (0 when absent or a gauge).
    pub fn count(&self, path: &str) -> u64 {
        match self.get(path) {
            Some(CounterValue::Count(v)) => v,
            _ => 0,
        }
    }

    /// Number of counters sampled.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate `(path, value)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, CounterValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Per-interval sample: counts become `self − prev` (saturating, so a
    /// mid-run reset in the source can't underflow), gauges keep the newer
    /// reading. Paths absent from `prev` pass through unchanged.
    pub fn delta(&self, prev: &CounterSnapshot) -> CounterSnapshot {
        let mut out = CounterSnapshot::new();
        for (path, v) in self.iter() {
            let dv = match (v, prev.get(path)) {
                (CounterValue::Count(now), Some(CounterValue::Count(then))) => {
                    CounterValue::Count(now.saturating_sub(then))
                }
                (CounterValue::Histogram(now), Some(CounterValue::Histogram(then))) => {
                    CounterValue::Histogram(now.delta(&then))
                }
                (v, _) => v,
            };
            out.values.insert(path.to_string(), dv);
        }
        out
    }
}

/// Bound collector a provider writes through: prefixes every path it emits.
pub struct Collector<'a> {
    prefix: &'a str,
    snap: &'a mut CounterSnapshot,
}

impl Collector<'_> {
    /// Emit a count at `{prefix}/{name}`.
    pub fn count(&mut self, name: &str, v: u64) {
        self.snap.set_count(format!("{}/{}", self.prefix, name), v);
    }

    /// Emit a gauge at `{prefix}/{name}`.
    pub fn gauge(&mut self, name: &str, v: f64) {
        self.snap.set_gauge(format!("{}/{}", self.prefix, name), v);
    }

    /// Emit a histogram at `{prefix}/{name}` plus derived percentile gauges
    /// at `{prefix}/{name}/p50`, `/p95`, `/p99` (same unit as recorded), so
    /// the percentiles flow through plain-f64 paths — the run's
    /// [`TimeSeries`](crate::TimeSeries) and Chrome `"C"` counter tracks.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        let base = format!("{}/{}", self.prefix, name);
        self.snap
            .set_gauge(format!("{base}/p50"), h.quantile(0.5) as f64);
        self.snap
            .set_gauge(format!("{base}/p95"), h.quantile(0.95) as f64);
        self.snap
            .set_gauge(format!("{base}/p99"), h.quantile(0.99) as f64);
        self.snap.set_histogram(base, *h);
    }
}

type Provider = Box<dyn Fn(&mut Collector<'_>) + Send + Sync>;

/// Registry of counter providers. Register each subsystem once (closures
/// capture cloneable stat handles — `amt::Handle`, `Arc<PortStats>`, ...);
/// every [`CounterRegistry::sample`] call then assembles one coherent
/// [`CounterSnapshot`] across all of them.
#[derive(Default)]
pub struct CounterRegistry {
    providers: Vec<(String, Provider)>,
}

impl CounterRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `provider` under `prefix` (paths it emits become
    /// `{prefix}/{name}`).
    pub fn register(
        &mut self,
        prefix: impl Into<String>,
        provider: impl Fn(&mut Collector<'_>) + Send + Sync + 'static,
    ) {
        self.providers.push((prefix.into(), Box::new(provider)));
    }

    /// Sample every provider into one snapshot.
    pub fn sample(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot::new();
        for (prefix, provider) in &self.providers {
            provider(&mut Collector {
                prefix,
                snap: &mut snap,
            });
        }
        snap
    }
}

impl std::fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterRegistry")
            .field(
                "prefixes",
                &self.providers.iter().map(|(p, _)| p).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Render per-step delta snapshots as one table: rows are counter paths,
/// one column per step.
pub fn render_step_table(title: &str, steps: &[CounterSnapshot]) -> String {
    let mut paths: Vec<&str> = Vec::new();
    for s in steps {
        for (k, _) in s.iter() {
            if !paths.contains(&k) {
                paths.push(k);
            }
        }
    }
    paths.sort_unstable();
    let width = paths.iter().map(|p| p.len()).max().unwrap_or(0).max(7);
    let mut out = format!("== {title} (per-step deltas) ==\n");
    let mut header = format!("{:<width$}", "counter");
    for i in 0..steps.len() {
        let _ = write!(header, "  {:>14}", format!("step {i}"));
    }
    out.push_str(&header);
    out.push('\n');
    for path in paths {
        let _ = write!(out, "{path:<width$}");
        for s in steps {
            let cell = s.get(path).map(|v| v.to_string()).unwrap_or_default();
            let _ = write!(out, "  {cell:>14}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_set_get_and_prefix() {
        let mut s = CounterSnapshot::new();
        s.set_count("/runtime/worker0/steals", 3);
        s.set_count("/runtime/worker1/steals", 5);
        s.set_gauge("/energy/jh7110/watts", 3.22);
        assert_eq!(s.len(), 3);
        assert_eq!(s.count("/runtime/worker0/steals"), 3);
        assert_eq!(s.count("/absent"), 0);
        assert_eq!(
            s.get("/energy/jh7110/watts"),
            Some(CounterValue::Gauge(3.22))
        );
    }

    #[test]
    fn delta_subtracts_counts_keeps_gauges() {
        let mut a = CounterSnapshot::new();
        a.set_count("/n", 10);
        a.set_gauge("/w", 3.0);
        let mut b = CounterSnapshot::new();
        b.set_count("/n", 14);
        b.set_gauge("/w", 3.5);
        b.set_count("/new", 2);
        let d = b.delta(&a);
        assert_eq!(d.count("/n"), 4);
        assert_eq!(d.get("/w"), Some(CounterValue::Gauge(3.5)));
        assert_eq!(d.count("/new"), 2);
        // A reset source (smaller now) saturates instead of underflowing.
        let d2 = a.delta(&b);
        assert_eq!(d2.count("/n"), 0);
    }

    #[test]
    fn registry_samples_providers_under_prefixes() {
        let mut reg = CounterRegistry::new();
        reg.register("/runtime", |c| {
            c.count("steals", 7);
            c.count("parks", 2);
        });
        reg.register("/net", |c| c.count("messages", 40));
        let s = reg.sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.count("/runtime/steals"), 7);
        assert_eq!(s.count("/net/messages"), 40);
    }

    #[test]
    fn histogram_buckets_are_exact_below_16_and_bounded_above() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
            assert_eq!(bucket_index(v), v as usize);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 15);
        // Log-linear region: bounds bracket the value, width/lower ≤ 1/4.
        for v in [16u64, 17, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "{v} not in [{lo},{hi})"
            );
            assert!((hi - lo) as f64 / lo as f64 <= 0.25 + 1e-12);
        }
        // Indices cover [0, HISTOGRAM_BUCKETS) and never panic.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_ordered() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 5, 100, 100, 10_000, 1_000_000] {
            h.record(v);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert_eq!(h.quantile(0.1), 5, "exact in the unit-bucket region");
    }

    #[test]
    fn histogram_merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 30, 700, 700, 44_000] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 30, 9_999_999] {
            b.record(v);
            all.record(v);
        }
        let mut m = a;
        m.merge(&b);
        assert_eq!(m, all);
        // Delta of a merge recovers the other half.
        assert_eq!(m.delta(&b), a);
    }

    #[test]
    fn atomic_histogram_snapshot_round_trips() {
        let ah = AtomicHistogram::new();
        for v in [3u64, 3, 250, 1 << 30] {
            ah.record(v);
        }
        let h = ah.snapshot();
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 3 + 3 + 250 + (1 << 30));
    }

    #[test]
    fn histogram_counter_value_flows_through_snapshot_and_delta() {
        let mut h1 = Histogram::new();
        h1.record(10);
        let mut h2 = h1;
        h2.record(500);
        h2.record(600);
        let mut a = CounterSnapshot::new();
        a.set_histogram("/comms/parcel_latency", h1);
        let mut b = CounterSnapshot::new();
        b.set_histogram("/comms/parcel_latency", h2);
        let d = b.delta(&a);
        let dh = d.histogram("/comms/parcel_latency").unwrap();
        assert_eq!(dh.count(), 2);
        assert_eq!(b.get("/comms/parcel_latency").unwrap().as_f64(), 3.0);
        // Collector emits the base histogram plus percentile gauges.
        let mut reg = CounterRegistry::new();
        reg.register("/comms", move |c| c.histogram("parcel_latency", &h2));
        let s = reg.sample();
        assert!(s.histogram("/comms/parcel_latency").is_some());
        for p in ["p50", "p95", "p99"] {
            assert!(
                matches!(
                    s.get(&format!("/comms/parcel_latency/{p}")),
                    Some(CounterValue::Gauge(_))
                ),
                "missing derived {p}"
            );
        }
        let h = s.get("/comms/parcel_latency").expect("histogram");
        assert!(h.to_string().starts_with("n=3 "));
    }

    #[test]
    fn step_table_renders_all_paths() {
        let mut s1 = CounterSnapshot::new();
        s1.set_count("/runtime/steals", 1);
        let mut s2 = CounterSnapshot::new();
        s2.set_count("/runtime/steals", 4);
        s2.set_gauge("/energy/watts", 3.2);
        let steps = render_step_table("run", &[s1, s2]);
        assert!(steps.contains("step 0") && steps.contains("step 1"));
        assert!(steps.contains("/runtime/steals"));
        assert!(steps.contains("/energy/watts") && steps.contains("3.200"));
    }
}
