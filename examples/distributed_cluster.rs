//! Two-board distributed run — the paper's §6.2.2 in-house cluster
//! experiment, comparing the TCP, MPI and LCI parcelports. One run measures
//! the messages and bytes; each parcelport's link model projects them.
//!
//! ```bash
//! cargo run --release --example distributed_cluster \
//!     [-- <max_level>] [--trace-out=trace.json]
//! ```

use octotiger_riscv_repro::machine::{CpuArch, NetBackend};
use octotiger_riscv_repro::octo_core::project::{dist_cells_per_sec, DistProfile};
use octotiger_riscv_repro::octotiger::dist_driver::{DistConfig, DistRun};
use octotiger_riscv_repro::octotiger::OctoConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The full Listing-3 flag surface (`--hpx:threads`, `--trace-out`,
    // ...) plus the legacy positional max_level.
    let mut octo = OctoConfig::from_args(args.iter().map(String::as_str))
        .unwrap_or_else(|e| panic!("bad arguments: {e}"));
    if !args.iter().any(|a| a.starts_with("--max_level")) {
        octo.max_level = args.iter().find_map(|a| a.parse().ok()).unwrap_or(2);
    }
    if !args.iter().any(|a| a.starts_with("--stop_step")) {
        octo.stop_step = 3;
    }
    let level = octo.max_level;

    println!("== supervisor + delegate, rotating star level {level} ==");
    let mut profiles = Vec::new();
    for nodes in [1u32, 2] {
        let metrics = DistRun::execute(DistConfig::from_octo(nodes, octo.clone()));
        println!(
            "{nodes} node(s): {} leaves, owned {:?}, host {:.2}s, wire: {} msgs / {:.2} MiB",
            metrics.leaf_count,
            metrics.owned_per_node,
            metrics.elapsed_seconds,
            metrics.net.messages,
            metrics.net.bytes as f64 / (1024.0 * 1024.0)
        );
        profiles.push((metrics.cells_processed, DistProfile::of_run(&metrics)));
    }

    if let Some(path) = &octo.trace_out {
        println!("\nChrome trace written to {path} (load it at https://ui.perfetto.dev)");
    }

    let (total, p1) = &profiles[0];
    let (_, p2) = &profiles[1];
    println!("\nprojected on the VisionFive2 boards (JH7110, 4 cores):");
    let one = dist_cells_per_sec(CpuArch::Jh7110, 4, NetBackend::Tcp, p1, *total);
    println!("  1 board            {one:>12.0} cells/s");
    for backend in [NetBackend::Tcp, NetBackend::Mpi, NetBackend::Lci] {
        let two = dist_cells_per_sec(CpuArch::Jh7110, 4, backend, p2, *total);
        println!(
            "  2 boards via {:<5} {two:>12.0} cells/s (speedup {:.2}×)",
            format!("{backend:?}"),
            two / one
        );
    }
    println!("  (paper: TCP ≈1.85×, MPI ≈1.55×; LCI projected from its link model)");
}
