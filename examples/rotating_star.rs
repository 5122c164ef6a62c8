//! Node-level rotating-star simulation — the paper's §6.2.1 run, accepting
//! the same command-line options as Listing 2:
//!
//! ```bash
//! cargo run --release --example rotating_star -- \
//!     --max_level=2 --stop_step=5 --theta=0.5 \
//!     --hydro_host_kernel_type=KOKKOS --hpx:threads=4
//! ```

use octotiger_riscv_repro::machine::CpuArch;
use octotiger_riscv_repro::octo_core::project::{octo_cells_per_sec, OctoProfile};
use octotiger_riscv_repro::octotiger::{Driver, OctoConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = OctoConfig::from_args(args.iter().map(String::as_str))
        .unwrap_or_else(|e| panic!("bad arguments: {e}"));
    // Default to a laptop-friendly level unless the caller asked otherwise.
    if !args.iter().any(|a| a.starts_with("--max_level")) {
        cfg.max_level = 2;
    }
    println!(
        "rotating star: level {}, {} steps, θ = {}, kernels = {:?}/{:?}/{:?}, {} threads",
        cfg.max_level,
        cfg.stop_step,
        cfg.theta,
        cfg.hydro_kernel,
        cfg.multipole_kernel,
        cfg.monopole_kernel,
        cfg.threads
    );

    let mut driver = Driver::new(cfg.clone());
    let mass_before = driver.tree().total_mass();
    println!(
        "tree: {} leaves, {} cells (paper level 4: 1184 leaves / 606208 cells)",
        driver.tree().leaf_count(),
        driver.tree().cell_count()
    );

    let metrics = driver.run(cfg.threads);
    let mass_after = driver.tree().total_mass();
    if let Some(path) = &cfg.trace_out {
        println!("Chrome trace written to {path} (load it at https://ui.perfetto.dev)");
    }

    println!(
        "host: {:.2}s for {} steps → {:.0} cells/s; sim time {:.4}",
        metrics.elapsed_seconds, metrics.steps, metrics.cells_per_second, metrics.sim_time
    );
    println!(
        "mass conservation: {:.6} → {:.6} (drift {:.2e})",
        mass_before,
        mass_after,
        ((mass_after - mass_before) / mass_before).abs()
    );
    println!(
        "work: {:.2e} hydro flops, {:.2e} gravity flops, {} tasks, {} steals",
        metrics.work.hydro_flops as f64,
        metrics.work.gravity_flops as f64,
        metrics.runtime_stats.tasks_spawned,
        metrics.runtime_stats.steals
    );

    let profile = OctoProfile::of_run(&metrics, cfg.hydro_kernel);
    println!("\nprojected cells/s at 4 cores:");
    for arch in [CpuArch::Jh7110, CpuArch::A64fx, CpuArch::Epyc7543] {
        println!(
            "  {:<28} {:>12.0}",
            arch.to_string(),
            octo_cells_per_sec(arch, 4, &profile)
        );
    }
}
