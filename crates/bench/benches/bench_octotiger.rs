//! Criterion bench for the Octo-Tiger mini-app (Fig. 7's substance):
//! per-sub-grid hydro and gravity kernels across all three kernel backends,
//! a full driver step, and the θ / sub-grid ablations of DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use octotiger::gravity;
use octotiger::hydro;
use octotiger::kernel_backend::{Dispatch, KernelType};
use octotiger::subgrid::SubGrid;
use octotiger::{Driver, OctoConfig, RotatingStar};
use repro_bench::{bench_runtime, tiny_driver};

fn star_subgrid() -> SubGrid {
    let star = RotatingStar::paper_default();
    let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
    g.init_from_star(&star);
    g
}

fn hydro_kernels(c: &mut Criterion) {
    let rt = bench_runtime();
    let grid = star_subgrid();
    let mut g = c.benchmark_group("octotiger-hydro");
    g.sample_size(10);
    for kind in KernelType::ALL {
        let d = Dispatch::new(kind, &rt.handle(), 4);
        g.bench_with_input(
            BenchmarkId::new("subgrid_step", kind.label()),
            &d,
            |b, d| b.iter(|| black_box(hydro::step_interior(&grid, 1e-4, d))),
        );
    }
    g.bench_function("max_signal_speed", |b| {
        let d = Dispatch::Legacy;
        b.iter(|| black_box(hydro::max_signal_speed(&grid, &d)))
    });
    g.finish();
}

/// Both gravity kernels on `d` at the default SIMD width.
fn legacy_kernels(d: &Dispatch) -> gravity::GravityKernels<'_> {
    gravity::GravityKernels {
        multipole: d,
        monopole: d,
        simd: Default::default(),
    }
}

fn gravity_kernels(c: &mut Criterion) {
    let driver = tiny_driver(KernelType::KokkosSerial);
    let tree = driver.tree();
    let blocks: Vec<gravity::BlockSoA> = tree
        .leaf_ids()
        .iter()
        .map(|&l| gravity::compute_blocks(tree.subgrid(l)))
        .collect();
    let moments = gravity::upward_pass(tree, &blocks);
    let pos = gravity::leaf_positions(tree);
    let target = tree.leaf_ids()[0];
    let d = Dispatch::Legacy;
    let kernels = legacy_kernels(&d);
    let mut g = c.benchmark_group("octotiger-gravity");
    g.sample_size(10);
    g.bench_function("p2m_blocks", |b| {
        b.iter(|| black_box(gravity::compute_blocks(tree.subgrid(target))))
    });
    g.bench_function("m2m_upward", |b| {
        b.iter(|| black_box(gravity::upward_pass(tree, &blocks)))
    });
    g.bench_function("fmm_leaf_theta05", |b| {
        b.iter(|| {
            black_box(gravity::accel_for_leaf(
                tree, &moments, &blocks, &pos, target, 0.5, &kernels,
            ))
        })
    });
    g.bench_function("direct_leaf", |b| {
        b.iter(|| black_box(gravity::direct_accel(tree, &blocks, target, &pos)))
    });
    g.finish();
}

/// Ablation: the θ accuracy/speed trade-off (`--theta` in the paper).
fn ablation_theta(c: &mut Criterion) {
    let driver = tiny_driver(KernelType::KokkosSerial);
    let tree = driver.tree();
    let blocks: Vec<gravity::BlockSoA> = tree
        .leaf_ids()
        .iter()
        .map(|&l| gravity::compute_blocks(tree.subgrid(l)))
        .collect();
    let moments = gravity::upward_pass(tree, &blocks);
    let pos = gravity::leaf_positions(tree);
    let target = tree.leaf_ids()[0];
    let d = Dispatch::Legacy;
    let kernels = legacy_kernels(&d);
    let mut g = c.benchmark_group("octotiger-ablation-theta");
    g.sample_size(10);
    for theta in [0.2f64, 0.5, 0.8] {
        g.bench_with_input(
            BenchmarkId::new("theta", format!("{theta}")),
            &theta,
            |b, &t| {
                b.iter(|| {
                    black_box(gravity::accel_for_leaf(
                        tree, &moments, &blocks, &pos, target, t, &kernels,
                    ))
                })
            },
        );
    }
    g.finish();
}

fn full_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("octotiger-step");
    g.sample_size(10);
    for kind in KernelType::ALL {
        g.bench_with_input(
            BenchmarkId::new("level1_step", kind.label()),
            &kind,
            |b, &k| {
                let rt = bench_runtime();
                let mut driver = Driver::new(OctoConfig {
                    max_level: 1,
                    stop_step: 1,
                    ..OctoConfig::with_all_kernels(k)
                });
                b.iter(|| black_box(driver.step(&rt)))
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    hydro_kernels,
    gravity_kernels,
    ablation_theta,
    full_step
);
criterion_main!(benches);
