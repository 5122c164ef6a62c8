//! Criterion bench for the distributed substrate: local vs remote action
//! round trips and the parcel-coalescing ablation. (Encode/decode throughput
//! is the referee benchmark's `distrib.wire.*` probe.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use distrib::{Cluster, ClusterConfig, CoalesceConfig, LocalityHandle};
use rv_machine::NetBackend;

fn actions(c: &mut Criterion) {
    let cluster = Cluster::new(ClusterConfig {
        localities: 2,
        threads_per_locality: 2,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
    });
    cluster.register_action("echo", |_: &LocalityHandle, _, v: Vec<f64>| v);
    let l0 = cluster.locality(0);
    let l1 = cluster.locality(1);
    let local_gid = l0.new_component(());
    let remote_gid = l1.new_component(());
    let payload: Vec<f64> = (0..512).map(|i| i as f64).collect();

    let mut g = c.benchmark_group("distrib-actions");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::new("invoke", "local"),
        &local_gid,
        |b, &gid| {
            b.iter(|| {
                let r: Vec<f64> = l0.invoke(gid, "echo", &payload).get();
                black_box(r)
            })
        },
    );
    g.bench_with_input(
        BenchmarkId::new("invoke", "remote"),
        &remote_gid,
        |b, &gid| {
            b.iter(|| {
                let r: Vec<f64> = l0.invoke(gid, "echo", &payload).get();
                black_box(r)
            })
        },
    );
    g.finish();
}

/// The coalescing ablation: a burst of small remote invocations with the
/// batching layer off vs on. Prints the resulting port counters once per
/// variant so the frame reduction is visible next to the timing.
fn ablation_coalesce(c: &mut Criterion) {
    let mut g = c.benchmark_group("distrib-coalesce");
    g.sample_size(10);
    for (label, coalesce) in [
        ("off", CoalesceConfig::default()),
        ("on", CoalesceConfig::enabled()),
    ] {
        let cluster = Cluster::new(ClusterConfig {
            localities: 2,
            threads_per_locality: 2,
            backend: NetBackend::Tcp,
            coalesce,
        });
        cluster.register_action("bump", |_: &LocalityHandle, _, x: u64| x + 1);
        let l0 = cluster.locality(0);
        let gid = cluster.locality(1).new_component(());
        g.bench_function(BenchmarkId::new("burst64", label), |b| {
            b.iter(|| {
                let futs: Vec<amt::Future<u64>> =
                    (0..64u64).map(|i| l0.invoke(gid, "bump", &i)).collect();
                black_box(amt::when_all(futs).get())
            })
        });
        cluster.flush_network();
        let p = cluster.port_stats();
        println!(
            "coalesce={label}: frames={} parcels={} batches={} queue_hwm={}",
            p.messages, p.parcels, p.batches, p.queue_depth_hwm
        );
    }
    g.finish();
}

criterion_group!(benches, actions, ablation_coalesce);
criterion_main!(benches);
