//! Distributed runs — the paper's §6.2.2 experiment: the rotating star on
//! the two-board VisionFive2 cluster, one locality per board with all four
//! cores, comparing the TCP and MPI parcelports (Fig. 8). A run measures
//! messages and bytes; the parcelports differ only in the link model the
//! projection applies to them (`rv_machine::NetBackend::net_cost`).
//!
//! There is no second stepper here. Each locality holds one
//! [`Driver`] — the whole octree, stepping the leaves on its side of the
//! x = 0 plane — and a run is one `step` action per locality per step. What
//! the localities need of each other is part of the step's plan
//! (`crate::plan`): per peer, three send nodes, each released by the data
//! it ships, and three in-nodes, each released by the peer's deposit of
//!
//! 1. its **halo leaves** — the interior of owned leaves a peer's ghost
//!    plan reads (so the ghost gather stays local),
//! 2. its **CFL rate** (a small scalar message),
//! 3. its **gravity blocks** — its P2M results, so every locality runs the
//!    same FMM over the complete mass distribution while computing
//!    accelerations only for its own leaves.
//!
//! A send node invokes the peer's `deposit_*` action, writing its deposit
//! from the leaves or the block table straight into the request frame
//! (`crate::deposit`). That action only fulfils the promise the peer's
//! `Locality` component holds for the step with the frame the deposit
//! arrived in; the in-node then runs on the thread that fulfilled it, or
//! when the step starts if the deposit came first, reads the frame in place
//! and copies each entry into its leaf or table slot, and the frame goes
//! when the in-node retires. A deposit is one buffer, its frame, on both
//! sides of the wire. No task waits on the wire, and no lock is held while
//! anything waits: the `step` action takes its `Driver` out of the
//! component, and the step's one wait is its plan's scope (DESIGN §5.3).
//! Every deposit crosses the `distrib` wire as real serialized bytes, so the
//! Fig. 8 projection consumes *measured* message counts and volumes.

use apex_lite::trace;
use apex_lite::{CounterRegistry, CounterSnapshot};
use distrib::{
    Cluster, ClusterConfig, CoalesceConfig, Encode, Gid, LocalityHandle, NetSnapshot, Payload,
    PortSnapshot,
};
use rv_machine::NetBackend;

use crate::config::OctoConfig;
use crate::driver::{Driver, RunObserver, WorkEstimate};
use crate::plan::{Kind, Link, Node};
use crate::star::{InitialModel, RotatingStar};

/// Configuration of a distributed run. (`Clone` but not `Copy`: the
/// embedded [`OctoConfig`] carries the heap-allocated trace-output path.)
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Localities (boards): 1 or 2 in the paper.
    pub nodes: u32,
    /// Worker threads per locality (4 on the VisionFive2).
    pub threads_per_node: usize,
    /// Referee shim, ignored: the parcelports differ only in the Fig. 8
    /// link model, which the projection applies (see
    /// [`distrib::ClusterConfig::backend`]).
    pub backend: NetBackend,
    /// Referee shim, ignored (see [`CoalesceConfig`]).
    pub coalesce: CoalesceConfig,
    /// Application configuration.
    pub octo: OctoConfig,
}

impl DistConfig {
    /// Distributed configuration derived from a parsed [`OctoConfig`]: the
    /// thread count follows `--hpx:threads`.
    pub fn from_octo(nodes: u32, octo: OctoConfig) -> Self {
        DistConfig {
            nodes,
            threads_per_node: octo.threads,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
            octo,
        }
    }
}

/// Results of a distributed run.
#[derive(Debug, Clone)]
pub struct DistMetrics {
    /// Localities used.
    pub nodes: u32,
    /// Steps executed.
    pub steps: u32,
    /// Global leaf count.
    pub leaf_count: usize,
    /// Global interior cell count.
    pub cell_count: usize,
    /// `cells × steps`.
    pub cells_processed: u64,
    /// Wall-clock seconds on the host.
    pub elapsed_seconds: f64,
    /// Cells per second (host) — Fig. 8's y-axis.
    pub cells_per_second: f64,
    /// Wire statistics (messages, bytes) for the projection.
    pub net: NetSnapshot,
    /// Raw wire counters (frames, framed bytes).
    pub port: PortSnapshot,
    /// Aggregate work counters across localities.
    pub work: WorkEstimate,
    /// Aggregate scheduler statistics across localities.
    pub runtime_stats: amt::RuntimeStats,
    /// Leaves owned per locality (load balance diagnostic).
    pub owned_per_node: Vec<usize>,
    /// Final field state: [`Driver::leaf_hashes`] in leaf order, each entry
    /// reported by the locality that owns the leaf.
    pub leaf_hashes: Vec<u64>,
    /// Unified counter dump (`/runtime/locality{N}/…`, `/comms/…`,
    /// `/gravity/…`, `/work/…`, `/energy/…`) sampled at the end of the run.
    pub counters: CounterSnapshot,
}

/// A locality's component: its driver — out of it while it steps — and,
/// one step ahead, each deposit its peer makes into the next step, in
/// in-node order (halo, rate, blocks): the promise the deposit action
/// fulfils with the deposit's frame and the future that releases the
/// in-node, which keeps that frame if the deposit came before the step.
struct Locality {
    driver: Option<Driver>,
    promises: Vec<Option<amt::Promise<Payload>>>,
    arrivals: Vec<amt::Future<Payload>>,
}

impl Locality {
    /// Expect the deposits of the next step from `peers` peers.
    fn expect(&mut self, peers: usize) {
        let pairs = (0..3 * peers).map(|_| amt::future_pair());
        (self.promises, self.arrivals) = pairs.map(|(p, f)| (Some(p), f)).unzip();
    }
}

/// The actions that make the deposits into a locality's step, in in-node
/// order.
const DEPOSITS: [&str; 3] = ["deposit_halo", "deposit_rate", "deposit_blocks"];

fn register_actions(cluster: &Cluster) {
    // A deposit action hands its frame, unread, to the in-node.
    for (kind, name) in DEPOSITS.into_iter().enumerate() {
        cluster.register_action(name, move |ctx: &LocalityHandle, gid, deposit: Payload| {
            let promise = ctx
                .with_component::<Locality, _>(gid, |loc| loc.promises[kind].take())
                .expect("locality component")
                .expect("one deposit of each kind per step");
            promise.set_value(deposit);
        });
    }
    // One step of the locality's driver: `(the step's index, the peer's
    // component)`, answered with `dt`. The driver is taken out of its
    // component for the step and put back after it, with the next step's
    // deposits expected, so the step runs under no lock at all.
    cluster.register_action(
        "step",
        |ctx: &LocalityHandle, gid, (step, peer): (u64, Option<Gid>)| -> f64 {
            let handle = ctx.runtime();
            let (driver, arrivals) = ctx
                .with_component::<Locality, _>(gid, |loc| {
                    (loc.driver.take(), std::mem::take(&mut loc.arrivals))
                })
                .expect("locality component");
            let mut driver = driver.expect("one step at a time");
            assert_eq!(driver.steps_done(), step, "the supervisor's step");
            let dt = match peer {
                None => driver.step_with(&handle, None),
                Some(peer) => {
                    let send = |(kind, _): Node, image: &dyn Encode| {
                        let action = match kind {
                            Kind::HaloOut => DEPOSITS[0],
                            Kind::RateOut => DEPOSITS[1],
                            Kind::BlocksOut => DEPOSITS[2],
                            _ => unreachable!("only a send node ships"),
                        };
                        ctx.invoke(peer, action, image)
                    };
                    let link = Link {
                        arrivals,
                        send: &send,
                    };
                    driver.step_with(&handle, Some(link))
                }
            };
            ctx.with_component::<Locality, _>(gid, |loc| {
                loc.driver = Some(driver);
                loc.expect(usize::from(peer.is_some()));
            });
            dt
        },
    );
}

/// Entry point for distributed runs.
pub struct DistRun;

impl DistRun {
    /// Execute a distributed rotating-star run and collect [`DistMetrics`].
    ///
    /// # Panics
    /// With the step index, when the CFL reduction over the localities
    /// returns a `dt` that is not positive and finite
    /// ([`crate::hydro::global_dt`]).
    pub fn execute(config: DistConfig) -> DistMetrics {
        Self::execute_with_model(&RotatingStar::paper_default(), config)
    }

    /// [`DistRun::execute`] for any [`InitialModel`].
    pub fn execute_with_model<M: InitialModel>(model: &M, config: DistConfig) -> DistMetrics {
        assert!(
            (1..=2).contains(&config.nodes),
            "the in-house cluster has two boards"
        );
        let cluster = Cluster::new(ClusterConfig {
            localities: config.nodes,
            threads_per_locality: config.threads_per_node,
            ..ClusterConfig::default()
        });
        register_actions(&cluster);

        // One locality component each.
        let mut localities: Vec<Gid> = Vec::new();
        let mut owned_per_node = Vec::new();
        let mut leaf_count = 0;
        for node in 0..config.nodes {
            let driver = Driver::for_locality(model, config.octo.clone(), node, config.nodes);
            leaf_count = driver.tree().leaf_count();
            owned_per_node.push(driver.owned_leaves().len());
            let mut locality = Locality {
                driver: Some(driver),
                promises: Vec::new(),
                arrivals: Vec::new(),
            };
            locality.expect(config.nodes as usize - 1);
            localities.push(cluster.locality(node).new_component(locality));
        }
        let cell_count = leaf_count * crate::subgrid::CELLS;
        let supervisor = cluster.locality(0);
        cluster.reset_net_stats();

        // The supervising thread gets its own Chrome lane, distinct from
        // every locality pid: folding its sends into locality 0's lane
        // would hide the wire legs from the distributed critical-path
        // analysis.
        trace::set_thread_label(config.nodes, trace::ThreadLabel::Named("driver"));
        let mut registry = CounterRegistry::new();
        cluster.register_counters(&mut registry);
        let mut observer = RunObserver::start(&config.octo, registry, CounterRegistry::sample);

        let steps = config.octo.stop_step;
        for step in 0..steps {
            // One barrier per step, driven from the supervisor (the paper's
            // supervisor/delegate roles); everything else is between the
            // localities.
            let stepping = (0..localities.len())
                .map(|i| {
                    let peer = (config.nodes == 2).then(|| localities[1 - i]);
                    supervisor.invoke(localities[i], "step", &(u64::from(step), peer))
                })
                .collect();
            let dts: Vec<f64> = amt::when_all(stepping).get();
            assert!(
                dts.iter().all(|dt| dt.to_bits() == dts[0].to_bits()),
                "step {step}: the localities disagree on dt: {dts:?}"
            );
            observer.step_done(CounterRegistry::sample);
        }
        let elapsed = observer.elapsed_seconds();

        // Each locality reports what it owns.
        let mut work = WorkEstimate::default();
        let mut counters = observer.registry().sample();
        let mut leaf_hashes = vec![0; leaf_count];
        for (i, &gid) in localities.iter().enumerate() {
            let report = |loc: &mut Locality| {
                let d = loc.driver.as_ref().expect("no step is running");
                work.add(&d.work());
                let (cache, ghost) = (d.cache_stats(), d.tree().ghost_stats());
                for (layer, name, count) in [
                    ("gravity", "cache_hits", cache.hits),
                    ("gravity", "cache_misses", cache.misses),
                    ("ghost", "plan_rebuilds", ghost.plan_rebuilds),
                    ("ghost", "faces_slab", ghost.faces.slab),
                    ("ghost", "faces_indexed", ghost.faces.indexed),
                ] {
                    counters.set_count(format!("/{layer}/locality{i}/{name}"), count);
                }
                for &pos in d.owned_leaves() {
                    leaf_hashes[pos] = d.leaf_hash(pos);
                }
            };
            cluster
                .locality(i as u32)
                .with_component::<Locality, _>(gid, report)
                .expect("driver component");
        }
        work.counters_into(&mut counters);
        rv_machine::energy_counters_into(
            &mut counters,
            rv_machine::CpuArch::Jh7110,
            config.nodes,
            config.threads_per_node as u32,
            elapsed,
        );
        observer.finish(&counters);

        let cells_processed = cell_count as u64 * u64::from(steps);
        DistMetrics {
            nodes: config.nodes,
            steps,
            leaf_count,
            cell_count,
            cells_processed,
            elapsed_seconds: elapsed,
            cells_per_second: cells_processed as f64 / elapsed.max(1e-12),
            net: cluster.net_stats(),
            port: cluster.port_stats(),
            work,
            runtime_stats: cluster.runtime_stats(),
            owned_per_node,
            leaf_hashes,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;

    fn tiny(nodes: u32) -> DistConfig {
        DistConfig {
            nodes,
            threads_per_node: 2,
            backend: NetBackend::Tcp,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig {
                max_level: 1,
                stop_step: 2,
                threads: 2,
                ..OctoConfig::with_all_kernels(KernelType::KokkosSerial)
            },
        }
    }

    #[test]
    fn single_node_run_has_no_wire_traffic() {
        let m = DistRun::execute(tiny(1));
        assert_eq!(m.nodes, 1);
        assert_eq!(m.net.messages, 0, "single locality stays off the wire");
        assert!(m.net.local_actions > 0);
        assert!(m.cells_per_second > 0.0);
        assert_eq!(m.owned_per_node, vec![m.leaf_count]);
    }

    #[test]
    fn two_node_run_exchanges_real_bytes() {
        let m = DistRun::execute(tiny(2));
        assert_eq!(m.nodes, 2);
        assert!(m.net.messages > 0);
        assert!(
            m.net.bytes > 10_000,
            "halo + blocks are real payloads: {}",
            m.net.bytes
        );
        assert_eq!(m.owned_per_node.iter().sum::<usize>(), m.leaf_count);
        // The x = 0 split of a centred star is balanced.
        let diff = m.owned_per_node[0].abs_diff(m.owned_per_node[1]);
        assert!(
            diff <= m.leaf_count / 4,
            "imbalanced split: {:?}",
            m.owned_per_node
        );
    }

    #[test]
    fn two_node_matches_single_node_shape() {
        let m1 = DistRun::execute(tiny(1));
        let m2 = DistRun::execute(tiny(2));
        assert_eq!(m1.leaf_count, m2.leaf_count);
        assert_eq!(m1.cells_processed, m2.cells_processed);
        assert_eq!(m1.leaf_hashes, m2.leaf_hashes, "same field bits");
        // The kernels that ran are the same set, split between two owners;
        // the dual traversal is not split — each locality walks the tree.
        assert_eq!(m1.work.far_interactions, m2.work.far_interactions);
        assert_eq!(m1.work.near_interactions, m2.work.near_interactions);
        assert_eq!(m1.work.hydro_flops, m2.work.hydro_flops);
        assert_eq!(2 * m1.work.mac_evals, m2.work.mac_evals);
    }

    #[test]
    fn a_step_costs_one_action_and_three_pushes_per_locality() {
        let m = DistRun::execute(tiny(2));
        let steps = u64::from(m.steps);
        // Remote: the supervisor's `step` on locality 1, and halo + rate +
        // blocks in both directions; each is a request and its answer.
        assert_eq!(m.net.remote_actions, steps * (1 + 3 * 2));
        assert_eq!(m.port.parcels, 2 * m.net.remote_actions);
        assert_eq!(m.net.local_actions, steps, "the supervisor's own `step`");
    }

    #[test]
    fn from_octo_takes_the_thread_count() {
        let octo = OctoConfig::from_args(["--hpx:threads=2"]).unwrap();
        assert_eq!(DistConfig::from_octo(2, octo).threads_per_node, 2);
    }

    #[test]
    #[should_panic(expected = "two boards")]
    fn three_nodes_rejected() {
        let _ = DistRun::execute(tiny(3));
    }
}
