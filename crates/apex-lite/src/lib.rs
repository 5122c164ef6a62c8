//! # apex-lite — unified observability for the Octo-Tiger reproduction
//!
//! HPX builds (as benchmarked in the source paper) come with two
//! observability systems: the **performance-counter framework**
//! (hierarchical `/threads{locality#0/total}/...` counters sampled on
//! demand) and **APEX** (task-level begin/end tracing exported to
//! OTF2/Chrome traces). Our reproduction had the same raw numbers
//! scattered across four crates — `amt::RuntimeStats`, `distrib`'s
//! `PortStats`, octotiger's `CacheStats`/`WorkEstimate`, and the `machine`
//! flop/energy models — with no way to see them together or over time.
//!
//! This crate is the small, dependency-free core both halves plug into:
//!
//! * [`trace`] — a lock-light span tracer: per-thread ring buffers,
//!   `Instant`-based nanosecond timestamps, zero-cost when disabled
//!   (one relaxed atomic load, no allocation — ever — on the disabled
//!   path). The AMT scheduler, the octotiger driver phases, the gravity
//!   kernels, and the distrib comm layer all emit scoped spans into it.
//! * [`counters`] — a [`CounterRegistry`] unifying every subsystem's
//!   statistics under one `/runtime/worker{N}/steals`-style namespace,
//!   with typed snapshots and per-step deltas.
//! * [`chrome`] — a Chrome trace-event JSON exporter
//!   (`about://tracing` / Perfetto-loadable), the [`TimeSeries`] of counter
//!   samples a traced run takes at its step boundaries (exported as `"C"`
//!   counter tracks), and the validator behind the round-trip tests and
//!   the `trace_report` binary.
//! * [`critpath`] — the trace analyzer: one longest-chain DP over phase
//!   activity segments (single- and multi-locality critical path),
//!   per-worker utilization, and the `/runtime/imbalance` max/mean-busy
//!   ratio (the `trace_report` binary's engine).
//! * [`flame`] — collapsed-stack flamegraph export (self-time-exact,
//!   `flamegraph.pl`/inferno-compatible).
//! * [`json`] — the minimal JSON parser backing the validator.
//!
//! Everything upstream gates on [`trace::enabled`], so a run without
//! `--trace-out` pays one atomic load per would-be span and nothing else.

pub mod chrome;
pub mod counters;
pub mod critpath;
pub mod flame;
pub mod json;
pub mod trace;

pub use chrome::{
    export, export_with_counters, validate, FlowEdge, SpanRecord, TimeSeries, TraceSummary,
};
pub use counters::{
    render_step_table, CounterRegistry, CounterSnapshot, CounterValue, Histogram,
    HISTOGRAM_MAX_RELATIVE_ERROR,
};
pub use critpath::{
    critical_path, critical_path_distributed, default_phases, imbalance_ratio, worker_utilization,
};
pub use flame::{collapsed_stacks, render_collapsed};
