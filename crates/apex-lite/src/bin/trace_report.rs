//! `trace_report` — the "what limited this run?" analyzer CLI.
//!
//! Usage:
//!
//! ```text
//! trace_report [--phases=A,B,...] [--flame-out=FILE] \
//!              [--require-counter=NAME]... [--check] FILE
//! ```
//!
//! Validates an exported Chrome trace and prints three views:
//!
//! * the **critical path** through the phase span DAG (longest
//!   happens-before chain over merged phase activity segments — see
//!   `apex_lite::critpath`), with per-phase contributions and slack;
//! * **per-worker utilization** rows (busy/park fractions of the trace
//!   window, steal/yield counts) plus the max/mean-busy imbalance ratio;
//! * a **comms** section, when the trace carries matched parcel flow
//!   events: the comms-aware distributed critical path (network share,
//!   per-locality baselines, estimated clock offsets), per-link parcel
//!   counts/bytes, and parcel-latency percentiles from the
//!   `/comms/parcel_latency` histogram counter;
//! * sampled **counter series** carried in the trace (`"C"` events), when
//!   the run was started with `--sample_interval_ms`.
//!
//! `--flame-out=FILE` additionally writes a collapsed-stack flamegraph
//! (`flamegraph.pl`/inferno input, self-time ns counts). `--check` makes
//! the CI-facing assertions fatal: non-empty critical path, at least one
//! utilization row, and (per `--require-counter=NAME`) the named counter
//! series present in the trace; on a multi-locality trace with flows the
//! distributed path must route through at least one network leg, bound
//! every single-locality path from above, stay within wall, the latency
//! percentiles must be ordered (p50 ≤ p95 ≤ p99), and the histogram
//! count must equal the parcels delivered. Exits non-zero on any failure.

use apex_lite::{chrome, critpath, flame};
use std::process::ExitCode;

struct Options {
    phases: Option<Vec<String>>,
    flame_out: Option<String>,
    require_counters: Vec<String>,
    check: bool,
}

fn main() -> ExitCode {
    let mut opts = Options {
        phases: None,
        flame_out: None,
        require_counters: Vec::new(),
        check: false,
    };
    let mut files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(v) = arg.strip_prefix("--phases=") {
            opts.phases = Some(v.split(',').map(str::to_string).collect());
        } else if let Some(v) = arg.strip_prefix("--flame-out=") {
            opts.flame_out = Some(v.to_string());
        } else if arg == "--flame-out" {
            match args.next() {
                Some(v) => opts.flame_out = Some(v),
                None => return usage("--flame-out needs a path"),
            }
        } else if let Some(v) = arg.strip_prefix("--require-counter=") {
            opts.require_counters.push(v.to_string());
        } else if arg == "--check" {
            opts.check = true;
        } else if arg == "--help" || arg == "-h" {
            return usage("");
        } else if arg.starts_with('-') {
            return usage(&format!("unknown flag {arg:?}"));
        } else {
            files.push(arg);
        }
    }
    if files.is_empty() {
        return usage("no trace file given");
    }

    let mut failed = false;
    for file in &files {
        if let Err(e) = report(file, &opts) {
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

fn report(file: &str, opts: &Options) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read: {e}"))?;
    if text.trim().is_empty() {
        return Err("empty trace file".into());
    }
    let summary = apex_lite::validate(&text)?;
    if summary.spans + summary.instants + summary.counter_events == 0 {
        return Err("trace contains no events".into());
    }

    println!(
        "{file}: {} spans, {} instants, {} counter events, {} threads, {} localities, \
         wall {:.3} ms",
        summary.spans,
        summary.instants,
        summary.counter_events,
        summary.threads,
        summary.pids,
        ms(summary.last_end_ns - summary.first_ts_ns)
    );

    // Critical path.
    let phases = match &opts.phases {
        Some(p) => p.clone(),
        None => critpath::default_phases(&summary),
    };
    let cp = critpath::critical_path(&summary, &phases);
    let pct = |part: u64| {
        if cp.wall_ns == 0 {
            0.0
        } else {
            100.0 * part as f64 / cp.wall_ns as f64
        }
    };
    println!(
        "critical path: {:.3} ms over {} segments ({:.1}% of wall, slack {:.3} ms)",
        ms(cp.path_ns),
        cp.segments.len(),
        pct(cp.path_ns),
        ms(cp.slack_ns)
    );
    println!(
        "  {:<24} {:>12} {:>12} {:>8} {:>7}",
        "phase", "path ms", "active ms", "spans", "share"
    );
    for p in &cp.by_phase {
        println!(
            "  {:<24} {:>12.3} {:>12.3} {:>8} {:>6.1}%",
            p.name,
            ms(p.path_ns),
            ms(p.active_ns),
            p.spans,
            pct(p.path_ns)
        );
    }

    // Comms: distributed critical path + wire traffic, when the trace
    // carries matched parcel flow events.
    let dcp = if summary.flow_edges.is_empty() {
        None
    } else {
        let d = critpath::critical_path_distributed(&summary, &phases);
        let net_pct = if d.path.path_ns == 0 {
            0.0
        } else {
            100.0 * d.network_ns as f64 / d.path.path_ns as f64
        };
        println!(
            "distributed critical path: {:.3} ms over {} segments ({} network legs, \
             {:.3} ms on the wire = {:.1}% of path)",
            ms(d.path.path_ns),
            d.path.segments.len(),
            d.network_edges_on_path,
            ms(d.network_ns),
            net_pct
        );
        for (pid, &p) in &d.per_locality_path_ns {
            let off = d.offsets.get(pid).copied().unwrap_or(0);
            println!(
                "  locality {pid}: single-locality path {:>10.3} ms, clock offset {off:+} ns",
                ms(p)
            );
        }
        Some(d)
    };
    let last_of =
        |name: &str| -> Option<f64> { summary.counter_series.get(name)?.last().map(|&(_, v)| v) };
    if let Some(count) = last_of("/comms/parcel_latency") {
        let us = |v: Option<f64>| v.unwrap_or(0.0) / 1e3;
        println!(
            "parcel latency: {count} parcels, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us",
            us(last_of("/comms/parcel_latency/p50")),
            us(last_of("/comms/parcel_latency/p95")),
            us(last_of("/comms/parcel_latency/p99"))
        );
    }
    let links: Vec<&String> = summary
        .counter_series
        .keys()
        .filter(|k| k.starts_with("/comms/link") && k.ends_with("/parcels"))
        .collect();
    if !links.is_empty() {
        println!("links:");
        for parcels_key in links {
            let base = parcels_key.trim_end_matches("/parcels");
            println!(
                "  {base}: {} parcels, {} bytes",
                last_of(parcels_key).unwrap_or(0.0),
                last_of(&format!("{base}/bytes")).unwrap_or(0.0)
            );
        }
    }

    // Per-worker utilization.
    let util = critpath::worker_utilization(&summary);
    println!("worker utilization ({} lanes):", util.len());
    println!(
        "  {:>4} {:>4} {:<12} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "pid", "tid", "thread", "busy ms", "busy%", "park%", "steals", "yields"
    );
    for u in &util {
        println!(
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
    println!(
        "/runtime/imbalance (max/mean busy, from trace) = {:.3}",
        critpath::imbalance_ratio(&util)
    );

    // Counter series carried in the trace.
    if !summary.counter_series.is_empty() {
        println!(
            "counter series: {} ({} samples total)",
            summary.counter_series.len(),
            summary.counter_events
        );
        for (name, points) in &summary.counter_series {
            let last = points.last().map(|&(_, v)| v).unwrap_or(0.0);
            println!("  {name}: {} points, last {last}", points.len());
        }
    }

    // Flamegraph.
    let mut flame_lines = 0usize;
    if let Some(path) = &opts.flame_out {
        let stacks = flame::collapsed_stacks(&summary);
        flame_lines = stacks.len();
        let text = flame::render_collapsed(&stacks);
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("flamegraph: {flame_lines} stacks -> {path}");
    }

    if opts.check {
        check_summary(&summary, &cp, dcp.as_ref(), &util, opts, flame_lines)?;
        println!("{file}: CHECK OK");
    }
    Ok(())
}

fn check_summary(
    summary: &chrome::TraceSummary,
    cp: &critpath::CriticalPath,
    dcp: Option<&critpath::DistCriticalPath>,
    util: &[critpath::WorkerUtilization],
    opts: &Options,
    flame_lines: usize,
) -> Result<(), String> {
    if cp.path_ns == 0 || cp.segments.is_empty() {
        return Err("empty critical path (no phase spans matched)".into());
    }
    if cp.path_ns > cp.wall_ns {
        return Err(format!(
            "critical path {} ns exceeds wall {} ns",
            cp.path_ns, cp.wall_ns
        ));
    }
    if util.is_empty() {
        return Err("no worker utilization rows".into());
    }
    for name in &opts.require_counters {
        if !summary.counter_series.contains_key(name) {
            return Err(format!(
                "required counter series {name:?} absent from trace ({} series present)",
                summary.counter_series.len()
            ));
        }
    }
    if opts.flame_out.is_some() && flame_lines == 0 {
        return Err("flamegraph is empty".into());
    }
    if let Some(d) = dcp {
        if d.path.path_ns > d.path.wall_ns {
            return Err(format!(
                "distributed critical path {} ns exceeds wall {} ns",
                d.path.path_ns, d.path.wall_ns
            ));
        }
        for (pid, &p) in &d.per_locality_path_ns {
            if d.path.path_ns < p {
                return Err(format!(
                    "distributed critical path {} ns is shorter than locality {pid}'s \
                     own path {p} ns — cross-locality edges must only lengthen it",
                    d.path.path_ns
                ));
            }
        }
    }
    let last_of =
        |name: &str| -> Option<f64> { summary.counter_series.get(name)?.last().map(|&(_, v)| v) };
    if let Some(count) = last_of("/comms/parcel_latency") {
        let p50 = last_of("/comms/parcel_latency/p50").unwrap_or(0.0);
        let p95 = last_of("/comms/parcel_latency/p95").unwrap_or(0.0);
        let p99 = last_of("/comms/parcel_latency/p99").unwrap_or(0.0);
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "parcel latency percentiles out of order: p50 {p50} / p95 {p95} / p99 {p99}"
            ));
        }
        if let Some(parcels) = last_of("/comms/parcels") {
            if count != parcels {
                return Err(format!(
                    "latency histogram holds {count} observations but {parcels} parcels \
                     were delivered — every received parcel must be measured exactly once"
                ));
            }
        }
    }
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("trace_report: {err}");
    }
    eprintln!(
        "usage: trace_report [--phases=A,B,...] [--flame-out=FILE] \
         [--require-counter=NAME]... [--check] FILE..."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
