//! Distributed-stack integration: supervisor/delegate runs over the
//! simulated parcelports, compared against the node-level driver.

use octotiger_riscv_repro::distrib::{Cluster, ClusterConfig, CoalesceConfig, LocalityHandle};
use octotiger_riscv_repro::machine::NetBackend;
use octotiger_riscv_repro::octotiger::dist_driver::{DistConfig, DistRun};
use octotiger_riscv_repro::octotiger::{Driver, KernelType, OctoConfig};

fn octo_cfg() -> OctoConfig {
    OctoConfig {
        max_level: 1,
        stop_step: 3,
        ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
    }
}

#[test]
fn distributed_and_node_level_drivers_agree_on_tree_shape() {
    let node = Driver::new(octo_cfg());
    let dist = DistRun::execute(DistConfig {
        nodes: 2,
        threads_per_node: 2,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
        octo: octo_cfg(),
    });
    assert_eq!(node.tree().leaf_count(), dist.leaf_count);
    assert_eq!(node.tree().cell_count(), dist.cell_count);
}

#[test]
fn wire_traffic_scales_with_steps() {
    let run = |steps: u32| {
        DistRun::execute(DistConfig {
            nodes: 2,
            threads_per_node: 2,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig {
                stop_step: steps,
                ..octo_cfg()
            },
        })
        .net
    };
    let two = run(2);
    let four = run(4);
    assert!(four.messages > two.messages);
    assert!(four.bytes > two.bytes);
    // Per-step traffic is constant (same tree, same halo).
    assert_eq!(four.messages % 2, 0);
    assert!(
        (four.bytes as f64 / two.bytes as f64 - 2.0).abs() < 0.1,
        "bytes: {} vs {}",
        two.bytes,
        four.bytes
    );
}

#[test]
fn actions_compose_into_a_tree_traversal() {
    // A distributed recursive reduction across both localities — the
    // pattern Octo-Tiger's tree traversals use (§3.1: recursion over
    // possibly-remote children with unified syntax).
    let cluster = Cluster::new(ClusterConfig {
        localities: 2,
        threads_per_locality: 2,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
    });
    cluster.register_action(
        "subtree_sum",
        |ctx: &LocalityHandle, gid, children: Vec<octotiger_riscv_repro::distrib::Gid>| -> u64 {
            let own = ctx
                .with_component::<u64, _>(gid, |v| *v)
                .expect("component lives here");
            let futures: Vec<amt::Future<u64>> = children
                .iter()
                .map(|&c| {
                    ctx.invoke(
                        c,
                        "subtree_sum",
                        &Vec::<octotiger_riscv_repro::distrib::Gid>::new(),
                    )
                })
                .collect();
            own + amt::when_all(futures).get().into_iter().sum::<u64>()
        },
    );
    let l0 = cluster.locality(0);
    let l1 = cluster.locality(1);
    // Root on locality 0, four leaves alternating localities.
    let leaves: Vec<_> = (0..4u64)
        .map(|i| {
            if i % 2 == 0 {
                l0.new_component(10 + i)
            } else {
                l1.new_component(10 + i)
            }
        })
        .collect();
    let root = l0.new_component(1u64);
    let total: u64 = l0.invoke(root, "subtree_sum", &leaves).get();
    assert_eq!(total, 1 + 10 + 11 + 12 + 13);
    assert!(cluster.net_stats().remote_actions >= 2);
}

/// The backend is a link *model*: a run under the MPI one computes the
/// node-level driver's bits, which are the TCP runs' (`distributed_bits`
/// runs that matrix).
#[test]
fn mpi_and_tcp_runs_produce_identical_physics() {
    let mpi = DistRun::execute(DistConfig {
        nodes: 2,
        threads_per_node: 2,
        backend: NetBackend::Mpi,
        coalesce: CoalesceConfig::default(),
        octo: octo_cfg(),
    });
    assert_eq!(mpi.leaf_hashes.len(), mpi.leaf_count);
    let mut node = Driver::new(octo_cfg());
    node.run(2);
    assert_eq!(mpi.leaf_hashes, node.leaf_hashes(), "same field bits");
}

#[test]
fn single_node_distributed_run_matches_cell_throughput_shape() {
    let m = DistRun::execute(DistConfig {
        nodes: 1,
        threads_per_node: 2,
        backend: NetBackend::Tcp,
        coalesce: CoalesceConfig::default(),
        octo: octo_cfg(),
    });
    assert_eq!(m.net.messages, 0);
    assert!(m.cells_per_second > 0.0);
    assert!(m.work.flops() > 0);
}

#[test]
fn back_to_back_runs_tear_down_without_a_panic() {
    // Regression: a run's teardown can drop the last owner of a locality's
    // runtime inside one of that runtime's own tasks. `Runtime::drop` used
    // to join the calling worker too ("Resource deadlock avoided"); the
    // scheduler catches a task's panic, so it showed only on stderr — count
    // panics where they are raised.
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        previous(info);
    }));
    for _ in 0..20 {
        DistRun::execute(DistConfig {
            nodes: 2,
            threads_per_node: 1,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig {
                stop_step: 1,
                ..octo_cfg()
            },
        });
    }
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "a teardown panicked");
}
