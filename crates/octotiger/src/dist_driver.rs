//! Distributed time stepper — the paper's §6.2.2 experiment: the rotating
//! star on the two-board VisionFive2 cluster, one locality per board with
//! all four cores, comparing the TCP and MPI parcelports (Fig. 8).
//!
//! Decomposition: each locality holds a replica of the octree *structure*
//! but **owns** the leaves on its side of the x = 0 plane (supervisor:
//! x < 0, delegate: x ≥ 0, mirroring the paper's supervisor/delegate
//! command lines of Listings 2–3). Per step the localities exchange
//!
//! 1. **halo leaves** — the full interior state of owned leaves that touch
//!    remotely owned ones (so ghost fill stays local),
//! 2. the **CFL reduction** (a small scalar message),
//! 3. **gravity blocks** — each side's P2M results, so both can run the
//!    same FMM over the complete mass distribution while computing
//!    accelerations only for their own leaves.
//!
//! Every payload crosses the `distrib` wire as real serialized bytes, so
//! the Fig. 8 projection consumes *measured* message counts and volumes.

use serde::{Deserialize, Serialize};

use amt::par::scope;
use apex_lite::trace::{self, Cat};
use apex_lite::{CounterRegistry, CounterSnapshot};
use distrib::{
    Cluster, ClusterConfig, CoalesceConfig, Gid, LocalityHandle, NetSnapshot, PortSnapshot,
};
use rv_machine::NetBackend;

use crate::config::OctoConfig;
use crate::driver::WorkEstimate;
use crate::gravity::{
    self, BlockSoA, GravityKernels, GravityWorkspace, InteractionCache, ScratchPool, BLOCKS,
};
use crate::hydro;
use crate::kernel_backend::Dispatch;
use crate::octree::{NodeId, Octree};
use crate::recycle::RecyclePool;
use crate::star::RotatingStar;
use crate::subgrid::Face;

/// Configuration of a distributed run. (`Clone` but not `Copy`: the
/// embedded [`OctoConfig`] carries the heap-allocated trace-output path.)
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Localities (boards): 1 or 2 in the paper.
    pub nodes: u32,
    /// Worker threads per locality (4 on the VisionFive2).
    pub threads_per_node: usize,
    /// Parcelport backend.
    pub backend: NetBackend,
    /// Parcel-coalescing layer (off by default, like the paper's runs).
    pub coalesce: CoalesceConfig,
    /// Application configuration.
    pub octo: OctoConfig,
}

impl DistConfig {
    /// The paper's configuration on `nodes` boards with `backend`.
    pub fn paper(nodes: u32, backend: NetBackend) -> Self {
        DistConfig {
            nodes,
            threads_per_node: 4,
            backend,
            coalesce: CoalesceConfig::default(),
            octo: OctoConfig::default(),
        }
    }

    /// Distributed configuration derived from a parsed [`OctoConfig`]: the
    /// backend follows `--hpx:parcelport`, the thread count `--hpx:threads`,
    /// and the coalescing layer `--coalesce`.
    pub fn from_octo(nodes: u32, octo: OctoConfig) -> Self {
        DistConfig {
            nodes,
            threads_per_node: octo.threads,
            backend: octo.parcelport,
            coalesce: if octo.coalesce {
                CoalesceConfig::enabled()
            } else {
                CoalesceConfig::default()
            },
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
    /// Raw parcelport counters (frames, parcels, coalesced batches, queue
    /// high-water mark).
    pub port: PortSnapshot,
    /// Aggregate work counters across localities.
    pub work: WorkEstimate,
    /// Aggregate scheduler statistics across localities.
    pub runtime_stats: amt::RuntimeStats,
    /// Leaves owned per locality (load balance diagnostic).
    pub owned_per_node: Vec<usize>,
    /// Unified counter dump (`/runtime/locality{N}/…`, `/comms/…`,
    /// `/gravity/…`, `/work/…`, `/energy/…`) sampled at the end of the run.
    pub counters: CounterSnapshot,
    /// Number of periodic counter samples taken (0 unless
    /// `--sample_interval_ms` was set).
    pub counter_samples: u64,
}

/// Per-locality domain component.
struct Domain {
    tree: Octree,
    cfg: OctoConfig,
    /// Ownership flag per leaf position.
    owned: Vec<bool>,
    /// Leaf positions whose data must be shipped to the peer.
    halo_out: Vec<usize>,
    /// Snapshot staged for the peer's halo pull.
    halo_snapshot: Vec<(u64, Vec<f64>)>,
    /// Own leaves' blocks (leaf position → wire blocks), staged for pull.
    blocks_snapshot: Vec<(u64, BlocksWire)>,
    /// Recycled gravity solve state (moments table, traversal order).
    gravity_ws: GravityWorkspace,
    /// Cross-step interaction-list cache keyed on tree topology.
    interaction_cache: InteractionCache,
    /// Per-worker gravity scratch buffers.
    scratch: ScratchPool,
    /// Recycled per-leaf hydro output buffers.
    state_pool: RecyclePool<[f64; crate::star::NF]>,
    /// Recycled SoA primitive staging buffers for the SIMD hydro path.
    stage_pool: RecyclePool<f64>,
    /// Work counters.
    work: WorkEstimate,
}

/// Serializable form of [`BlockSoA`] — the SoA lanes go on the wire as four
/// flat streams, same layout the SIMD kernels consume.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BlocksWire {
    mass: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl From<&BlockSoA> for BlocksWire {
    fn from(b: &BlockSoA) -> Self {
        BlocksWire {
            mass: b.mass.to_vec(),
            x: b.x.to_vec(),
            y: b.y.to_vec(),
            z: b.z.to_vec(),
        }
    }
}

impl From<&BlocksWire> for BlockSoA {
    fn from(w: &BlocksWire) -> Self {
        let mut b = BlockSoA::zero();
        b.mass.copy_from_slice(&w.mass);
        b.x.copy_from_slice(&w.x);
        b.y.copy_from_slice(&w.y);
        b.z.copy_from_slice(&w.z);
        b
    }
}

/// Report returned by the solve phase.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct StepReport {
    owned_cells: u64,
    far_interactions: u64,
    near_interactions: u64,
    hydro_flops: u64,
    gravity_flops: u64,
    bytes: u64,
    mac_evals: u64,
}

fn build_domain(cfg: OctoConfig, node: u32, nodes: u32) -> Domain {
    let star = RotatingStar::paper_default();
    let tree = Octree::build(&star, &cfg, 1.0);
    let n_leaves = tree.leaf_count();
    // Spatial split at x = 0 (supervisor keeps x < 0).
    let owned: Vec<bool> = tree
        .leaf_ids()
        .iter()
        .map(|&l| {
            if nodes == 1 {
                return true;
            }
            let (origin, dx) = tree.node_geometry(l);
            let cx = origin[0] + 4.0 * dx;
            if node == 0 {
                cx < 0.0
            } else {
                cx >= 0.0
            }
        })
        .collect();
    // Halo: owned leaves with a face neighbour owned by the peer.
    let leaf_pos = gravity::leaf_positions(&tree);
    let mut halo_out = Vec::new();
    for (pos, &leaf) in tree.leaf_ids().iter().enumerate() {
        if !owned[pos] {
            continue;
        }
        let node_ref = tree.node(leaf);
        let mut boundary = false;
        for face in Face::ALL {
            // Probe across the face; any neighbouring leaf owned remotely
            // makes this a halo leaf. Sampling covers level jumps.
            let (origin, dxc) = tree.node_geometry(leaf);
            let size = tree.node_size(node_ref.level);
            let mut p = [
                origin[0] + size / 2.0,
                origin[1] + size / 2.0,
                origin[2] + size / 2.0,
            ];
            p[face.axis()] += face.sign() as f64 * (size / 2.0 + dxc / 2.0);
            if p[face.axis()].abs() >= 1.0 {
                continue;
            }
            let (nl, _) = tree.locate(p);
            if !owned[leaf_pos[nl]] {
                boundary = true;
                break;
            }
        }
        if boundary {
            halo_out.push(pos);
        }
    }
    assert_eq!(n_leaves, owned.len());
    Domain {
        tree,
        cfg,
        owned,
        halo_out,
        halo_snapshot: Vec::new(),
        blocks_snapshot: Vec::new(),
        gravity_ws: GravityWorkspace::new(),
        interaction_cache: InteractionCache::new(),
        scratch: ScratchPool::new(),
        state_pool: RecyclePool::new(),
        stage_pool: RecyclePool::new(),
        work: WorkEstimate::default(),
    }
}

fn owned_leaves(domain: &Domain) -> Vec<(usize, NodeId)> {
    domain
        .tree
        .leaf_ids()
        .iter()
        .enumerate()
        .filter(|(pos, _)| domain.owned[*pos])
        .map(|(pos, &l)| (pos, l))
        .collect()
}

/// Ghost exchange of one locality: fill the ghosts of the leaves it owns
/// (the pulled halo leaves are sources only) and charge the faces filled.
fn fill_owned_ghosts(d: &mut Domain, handle: &amt::Handle) {
    let owned = &d.owned;
    let faces = d.tree.exchange_ghosts(handle, |pos| owned[pos]);
    d.work.add_ghost_faces(faces);
}

/// Register all domain actions on `cluster`.
fn register_actions(cluster: &Cluster) {
    // Stage the halo snapshot (owned boundary leaves' interior data).
    cluster.register_action("prepare_halo", |ctx: &LocalityHandle, gid, (): ()| -> u64 {
        ctx.with_component::<Domain, _>(gid, |d| {
            d.halo_snapshot = d
                .halo_out
                .iter()
                .map(|&pos| {
                    let leaf = d.tree.leaf_ids()[pos];
                    (pos as u64, d.tree.subgrid(leaf).interior_data())
                })
                .collect();
            d.halo_snapshot.len() as u64
        })
        .expect("domain component")
    });

    // Serve the staged halo.
    cluster.register_action(
        "get_halo",
        |ctx: &LocalityHandle, gid, (): ()| -> Vec<(u64, Vec<f64>)> {
            ctx.with_component::<Domain, _>(gid, |d| d.halo_snapshot.clone())
                .expect("domain component")
        },
    );

    // Pull the peer's halo and install it into the local tree replica.
    cluster.register_action(
        "pull_halo",
        |ctx: &LocalityHandle, gid, peer: Option<Gid>| -> u64 {
            let Some(peer) = peer else { return 0 };
            let halo: Vec<(u64, Vec<f64>)> = ctx.invoke(peer, "get_halo", &()).get();
            ctx.with_component::<Domain, _>(gid, |d| {
                for (pos, data) in &halo {
                    let leaf = d.tree.leaf_ids()[*pos as usize];
                    d.tree.subgrid_mut(leaf).set_interior_data(data);
                }
                halo.len() as u64
            })
            .expect("domain component")
        },
    );

    // Ghost fill + local CFL reduction: max(signal speed / dx) over owned
    // leaves.
    cluster.register_action(
        "local_max_rate",
        |ctx: &LocalityHandle, gid, (): ()| -> f64 {
            let handle = ctx.runtime();
            ctx.with_component::<Domain, _>(gid, |d| {
                fill_owned_ghosts(d, &handle);
                let dispatch = Dispatch::new(d.cfg.hydro_kernel, &handle, 4);
                hydro::max_cfl_rate(owned_leaves(d).into_iter().map(|(_, leaf)| {
                    let g = d.tree.subgrid(leaf);
                    hydro::max_signal_speed(g, &dispatch) / g.dx
                }))
            })
            .expect("domain component")
        },
    );

    // P2M for owned leaves; stage the wire snapshot for the peer.
    cluster.register_action(
        "prepare_blocks",
        |ctx: &LocalityHandle, gid, (): ()| -> u64 {
            ctx.with_component::<Domain, _>(gid, |d| {
                d.blocks_snapshot = owned_leaves(d)
                    .into_iter()
                    .map(|(pos, leaf)| {
                        let b = gravity::compute_blocks(d.tree.subgrid(leaf));
                        (pos as u64, BlocksWire::from(&b))
                    })
                    .collect();
                d.blocks_snapshot.len() as u64
            })
            .expect("domain component")
        },
    );

    cluster.register_action(
        "get_blocks",
        |ctx: &LocalityHandle, gid, (): ()| -> Vec<(u64, BlocksWire)> {
            ctx.with_component::<Domain, _>(gid, |d| d.blocks_snapshot.clone())
                .expect("domain component")
        },
    );

    // Pull peer blocks, run gravity (FMM over the complete mass
    // distribution) and hydro for owned leaves, apply.
    cluster.register_action(
        "solve_step",
        |ctx: &LocalityHandle, gid, (dt, peer): (f64, Option<Gid>)| -> StepReport {
            // Pull strictly *before* taking the component lock: the peer's
            // `get_blocks` needs its own lock, and both sides solving at
            // once must not deadlock.
            let peer_blocks: Vec<(u64, BlocksWire)> = match peer {
                Some(p) => ctx.invoke(p, "get_blocks", &()).get(),
                None => Vec::new(),
            };
            let handle = ctx.runtime();
            ctx.with_component::<Domain, _>(gid, |d| {
                solve_step_locked(d, &handle, dt, &peer_blocks)
            })
            .expect("domain component")
        },
    );
}

struct LeafOut {
    leaf: NodeId,
    acc: Vec<[f64; 3]>,
    state: Vec<[f64; crate::star::NF]>,
    far: u64,
    near: u64,
}

fn solve_step_locked(
    d: &mut Domain,
    handle: &amt::Handle,
    dt: f64,
    peer_blocks: &[(u64, BlocksWire)],
) -> StepReport {
    let n = d.tree.leaf_count();
    // Assemble the global block table: own + peer.
    let mut all_blocks: Vec<Option<BlockSoA>> = (0..n).map(|_| None).collect();
    for (pos, w) in &d.blocks_snapshot {
        all_blocks[*pos as usize] = Some(BlockSoA::from(w));
    }
    for (pos, w) in peer_blocks {
        all_blocks[*pos as usize] = Some(BlockSoA::from(w));
    }
    let blocks: Vec<BlockSoA> = all_blocks
        .into_iter()
        .map(|b| b.unwrap_or_else(BlockSoA::zero))
        .collect();
    d.gravity_ws.upward_pass(&d.tree, &blocks);
    if !d.cfg.use_interaction_cache {
        d.interaction_cache.invalidate();
    }
    let rebuilt = d
        .interaction_cache
        .ensure(&d.tree, &d.gravity_ws.moments, d.cfg.theta)
        .rebuilt;
    let multipole = Dispatch::new(d.cfg.multipole_kernel, handle, 4);
    let monopole = Dispatch::new(d.cfg.monopole_kernel, handle, 4);
    let hydro_d = Dispatch::new(d.cfg.hydro_kernel, handle, 4);
    let targets = owned_leaves(d);

    // Parallel kernels over owned leaves.
    let mut results: Vec<Option<LeafOut>> = (0..targets.len()).map(|_| None).collect();
    {
        let tree = &d.tree;
        let blocks = &blocks;
        let ws = &d.gravity_ws;
        let lists = d.interaction_cache.lists();
        let scratch_pool = &d.scratch;
        let kernels = GravityKernels {
            multipole: &multipole,
            monopole: &monopole,
            simd: d.cfg.simd_policy(),
        };
        let kernels = &kernels;
        let hydro_d = &hydro_d;
        let policy = d.cfg.simd_policy();
        let state_pool = &d.state_pool;
        let stage_pool = &d.stage_pool;
        scope(handle, |sc| {
            for (slot, &(_, leaf)) in results.iter_mut().zip(&targets) {
                sc.spawn(move || {
                    let (far, near) = &lists[ws.leaf_pos[leaf]];
                    let mut scratch = scratch_pool.take();
                    let acc = gravity::accel_for_leaf_with(
                        tree,
                        &ws.moments,
                        blocks,
                        &ws.leaf_pos,
                        leaf,
                        far,
                        near,
                        kernels,
                        &mut scratch,
                    );
                    scratch_pool.put(scratch);
                    let state = hydro::step_interior_policy(
                        tree.subgrid(leaf),
                        dt,
                        hydro_d,
                        policy,
                        state_pool,
                        stage_pool,
                    );
                    *slot = Some(LeafOut {
                        leaf,
                        acc,
                        state,
                        far: far.len() as u64,
                        near: near.len() as u64,
                    });
                });
            }
        });
    }

    // Apply.
    let lanes = d.cfg.simd_policy().lanes() as u64;
    let mut far_total = 0;
    let mut near_total = 0;
    let mut far_padded = 0;
    for out in results.into_iter().map(|r| r.expect("scope done")) {
        let grid = d.tree.subgrid_mut(out.leaf);
        hydro::apply_interior(grid, &out.state);
        hydro::apply_gravity_source(grid, &out.acc, dt);
        d.state_pool.release(out.state);
        far_total += out.far;
        near_total += out.near;
        far_padded += rv_machine::simd_padded_interactions(out.far, lanes);
    }

    let owned_cells = targets.len() as u64 * crate::subgrid::CELLS as u64;
    let far_inter = far_padded * BLOCKS as u64;
    let near_inter = near_total * (BLOCKS * BLOCKS) as u64;
    // MAC evaluations are only executed on a cache miss (proxied by the
    // list sizes, as in the node-level driver).
    let mac_evals = if rebuilt { far_total + near_total } else { 0 };
    let report = StepReport {
        owned_cells,
        far_interactions: far_inter,
        near_interactions: near_inter,
        hydro_flops: owned_cells * hydro::HYDRO_FLOPS_PER_CELL,
        gravity_flops: far_inter * gravity::MULTIPOLE_FLOPS_PER_INTERACTION
            + near_inter * gravity::MONOPOLE_FLOPS_PER_INTERACTION
            + mac_evals * gravity::MAC_FLOPS_PER_EVAL,
        bytes: owned_cells * hydro::HYDRO_BYTES_PER_CELL,
        mac_evals,
    };
    d.work.hydro_flops += report.hydro_flops;
    d.work.gravity_flops += report.gravity_flops;
    d.work.bytes += report.bytes;
    d.work.far_interactions += report.far_interactions;
    d.work.near_interactions += report.near_interactions;
    d.work.mac_evals += report.mac_evals;
    report
}

/// Entry point for distributed runs.
pub struct DistRun;

impl DistRun {
    /// Execute a distributed rotating-star run and collect [`DistMetrics`].
    ///
    /// # Panics
    /// With the step index, when the CFL reduction over the localities
    /// returns a `dt` that is not positive and finite
    /// ([`hydro::global_dt`]).
    pub fn execute(config: DistConfig) -> DistMetrics {
        assert!(
            (1..=2).contains(&config.nodes),
            "the in-house cluster has two boards"
        );
        let cluster = Cluster::new(ClusterConfig {
            localities: config.nodes,
            threads_per_locality: config.threads_per_node,
            backend: config.backend,
            coalesce: config.coalesce,
        });
        register_actions(&cluster);

        // Create one domain component per locality.
        let mut gids: Vec<Gid> = Vec::new();
        let mut owned_per_node = Vec::new();
        let mut leaf_count = 0;
        for node in 0..config.nodes {
            let domain = build_domain(config.octo.clone(), node, config.nodes);
            leaf_count = domain.tree.leaf_count();
            owned_per_node.push(domain.owned.iter().filter(|&&o| o).count());
            let loc = cluster.locality(node);
            gids.push(loc.new_component(domain));
        }
        let cell_count = leaf_count * crate::subgrid::CELLS;
        let supervisor = cluster.locality(0);
        cluster.reset_net_stats();

        let peer_of = |i: usize| -> Option<Gid> {
            if config.nodes == 2 {
                Some(gids[1 - i])
            } else {
                None
            }
        };

        let tracing = config.octo.trace_out.is_some();
        if tracing {
            trace::reset();
            trace::set_enabled(true);
        }
        // The supervising thread gets its own Chrome lane, distinct from
        // every locality pid: its phase envelopes span whole remote
        // exchanges, and folding them into locality 0's lane would hide
        // the wire legs from the distributed critical-path analysis.
        trace::set_thread_label(config.nodes, trace::ThreadLabel::Named("driver"));
        let mut registry = CounterRegistry::new();
        cluster.register_counters(&mut registry);
        let registry = std::sync::Arc::new(registry);
        let sampler = config.octo.sample_interval_ms.map(|ms| {
            apex_lite::Sampler::start(
                std::sync::Arc::clone(&registry),
                std::time::Duration::from_millis(ms),
            )
        });
        let mut prev = registry.sample();
        let mut step_deltas: Vec<CounterSnapshot> = Vec::new();

        let start = std::time::Instant::now();
        let steps = config.octo.stop_step;
        for step in 0..steps {
            // Stamp the step index so queue-depth high-water marks can be
            // attributed to the step that produced them.
            cluster.note_step(u64::from(step));
            // Phase barriers driven from the supervisor, mirroring the
            // paper's supervisor/delegate roles.
            let barrier_u64 = |action: &str, with_peer: bool| {
                let futs: Vec<amt::Future<u64>> = gids
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| {
                        if with_peer {
                            supervisor.invoke(g, action, &peer_of(i))
                        } else {
                            supervisor.invoke(g, action, &())
                        }
                    })
                    .collect();
                amt::when_all(futs).get();
            };
            {
                let _span = trace::span(Cat::Phase, "halo_exchange");
                barrier_u64("prepare_halo", false);
                barrier_u64("pull_halo", true);
            }
            let dt = {
                let _span = trace::span(Cat::Phase, "cfl_reduction");
                let rates: Vec<f64> = amt::when_all(
                    gids.iter()
                        .map(|&g| supervisor.invoke(g, "local_max_rate", &()))
                        .collect(),
                )
                .get();
                hydro::global_dt(config.octo.cfl, rates.into_iter(), u64::from(step))
            };
            {
                // P2M + block exchange: the distributed gravity front half.
                let _span = trace::span(Cat::Phase, "gravity_solve");
                barrier_u64("prepare_blocks", false);
            }
            {
                // FMM + hydro + apply, fused per locality in `solve_step`.
                let _span = trace::span(Cat::Phase, "hydro_step");
                let _reports: Vec<StepReport> = amt::when_all(
                    gids.iter()
                        .enumerate()
                        .map(|(i, &g)| supervisor.invoke(g, "solve_step", &(dt, peer_of(i))))
                        .collect(),
                )
                .get();
            }
            if config.octo.counter_table {
                let cur = registry.sample();
                step_deltas.push(cur.delta(&prev));
                prev = cur;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Close any open coalescer batches so the port counters are final.
        {
            let _span = trace::span(Cat::Phase, "comm_flush");
            cluster.flush_network();
        }

        // Aggregate work counters.
        let mut work = WorkEstimate::default();
        let mut counters = registry.sample();
        for (i, &g) in gids.iter().enumerate() {
            let loc = cluster.locality(i as u32);
            let (w, cache, ghost) = loc
                .with_component::<Domain, _>(g, |d| {
                    (d.work, d.interaction_cache.stats(), d.tree.ghost_stats())
                })
                .expect("domain component");
            work.hydro_flops += w.hydro_flops;
            work.gravity_flops += w.gravity_flops;
            work.bytes += w.bytes;
            work.far_interactions += w.far_interactions;
            work.near_interactions += w.near_interactions;
            work.ghost_samples += w.ghost_samples;
            work.ghost_slab_bytes += w.ghost_slab_bytes;
            work.mac_evals += w.mac_evals;
            counters.set_count(format!("/gravity/locality{i}/cache_hits"), cache.hits);
            counters.set_count(format!("/gravity/locality{i}/cache_misses"), cache.misses);
            counters.set_count(
                format!("/ghost/locality{i}/plan_rebuilds"),
                ghost.plan_rebuilds,
            );
            counters.set_count(format!("/ghost/locality{i}/faces_slab"), ghost.faces.slab);
            counters.set_count(
                format!("/ghost/locality{i}/faces_indexed"),
                ghost.faces.indexed,
            );
        }
        counters.set_count("/gravity/far_interactions", work.far_interactions);
        counters.set_count("/gravity/near_interactions", work.near_interactions);
        counters.set_count("/gravity/mac_evals", work.mac_evals);
        counters.set_count("/work/hydro_flops", work.hydro_flops);
        counters.set_count("/work/gravity_flops", work.gravity_flops);
        counters.set_count("/work/bytes", work.bytes);
        counters.set_count("/work/ghost_samples", work.ghost_samples);
        counters.set_count("/work/ghost_slab_bytes", work.ghost_slab_bytes);
        rv_machine::energy_counters_into(
            &mut counters,
            rv_machine::CpuArch::Jh7110,
            config.nodes,
            config.threads_per_node as u32,
            elapsed,
        );
        if config.octo.counter_table {
            print!(
                "{}",
                apex_lite::render_step_table("distributed per-step counters", &step_deltas)
            );
            print!(
                "{}",
                apex_lite::render_table("distributed run totals", &counters)
            );
        }
        // Wind down the sampler (if any) before exporting: its series ride
        // along in the Chrome trace as `"C"` counter events and back the
        // `--metrics-out` CSV dump.
        let mut series = match sampler {
            Some(s) => s.stop(),
            None => apex_lite::TimeSeries::default(),
        };
        if config.octo.metrics_out.is_some() && series.samples == 0 {
            // No cadence requested: still emit a one-shot final snapshot so
            // the CSV is never empty.
            series.push(trace::now_ns(), &counters);
        }
        if let Some(path) = &config.octo.metrics_out {
            if let Err(e) = std::fs::write(path, series.render_csv()) {
                eprintln!("warning: failed to write metrics to {path}: {e}");
            }
        }
        if let Some(path) = &config.octo.trace_out {
            trace::set_enabled(false);
            let t = trace::drain();
            if let Err(e) = std::fs::write(path, apex_lite::export_with_counters(&t, &series)) {
                eprintln!("warning: failed to write trace to {path}: {e}");
            }
        }

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
            counters,
            counter_samples: series.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;

    fn tiny(nodes: u32, backend: NetBackend) -> DistConfig {
        DistConfig {
            nodes,
            threads_per_node: 2,
            backend,
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
    fn owned_ghost_frames_equal_the_node_level_exchange() {
        // Each locality fills only what it owns; together the two replicas
        // hold, leaf for leaf, the frames one node-level exchange produces.
        let cfg = OctoConfig {
            max_level: 2,
            ..OctoConfig::default()
        };
        let rt = amt::Runtime::new(2);
        let handle = rt.handle();
        let mut node_level = build_domain(cfg.clone(), 0, 1);
        fill_owned_ghosts(&mut node_level, &handle);
        let mut owned_total = 0;
        for node in 0..2 {
            let mut d = build_domain(cfg.clone(), node, 2);
            fill_owned_ghosts(&mut d, &handle);
            for (_, leaf) in owned_leaves(&d) {
                let (got, want) = (d.tree.subgrid(leaf), node_level.tree.subgrid(leaf));
                let same = got.u.as_slice().iter().zip(want.u.as_slice());
                assert!(same.into_iter().all(|(a, b)| a.to_bits() == b.to_bits()));
                owned_total += 1;
            }
            assert_eq!(d.tree.ghost_stats().plan_rebuilds, 1);
        }
        assert_eq!(owned_total, node_level.tree.leaf_count());
        assert!(node_level.work.ghost_samples > 0 && node_level.work.ghost_slab_bytes > 0);
    }

    #[test]
    fn single_node_run_has_no_wire_traffic() {
        let m = DistRun::execute(tiny(1, NetBackend::Tcp));
        assert_eq!(m.nodes, 1);
        assert_eq!(m.net.messages, 0, "single locality stays off the wire");
        assert!(m.net.local_actions > 0);
        assert!(m.cells_per_second > 0.0);
        assert_eq!(m.owned_per_node, vec![m.leaf_count]);
    }

    #[test]
    fn two_node_run_exchanges_real_bytes() {
        let m = DistRun::execute(tiny(2, NetBackend::Tcp));
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
        let m1 = DistRun::execute(tiny(1, NetBackend::Tcp));
        let m2 = DistRun::execute(tiny(2, NetBackend::Tcp));
        assert_eq!(m1.leaf_count, m2.leaf_count);
        assert_eq!(m1.cells_processed, m2.cells_processed);
    }

    #[test]
    fn mpi_and_tcp_same_messages_different_backend() {
        let t = DistRun::execute(tiny(2, NetBackend::Tcp));
        let m = DistRun::execute(tiny(2, NetBackend::Mpi));
        // Identical communication pattern; the backend only changes the
        // modelled link cost (consumed by the Fig. 8 projection).
        assert_eq!(t.net.messages, m.net.messages);
        assert_eq!(t.net.bytes, m.net.bytes);
    }

    #[test]
    fn lci_backend_same_traffic_as_tcp() {
        let t = DistRun::execute(tiny(2, NetBackend::Tcp));
        let l = DistRun::execute(tiny(2, NetBackend::Lci));
        // The explicit-progress port carries the identical communication
        // pattern; only the modelled link cost differs.
        assert_eq!(t.net.messages, l.net.messages);
        assert_eq!(t.net.bytes, l.net.bytes);
        assert_eq!(t.port.parcels, l.port.parcels);
    }

    #[test]
    fn coalescing_preserves_parcels_and_never_inflates_frames() {
        let base = DistRun::execute(tiny(2, NetBackend::Tcp));
        let mut cfg = tiny(2, NetBackend::Tcp);
        cfg.coalesce = CoalesceConfig::enabled();
        let coal = DistRun::execute(cfg);
        // Same application → same parcels; batching can only merge frames.
        assert_eq!(coal.port.parcels, base.port.parcels);
        assert!(
            coal.port.messages <= base.port.messages,
            "coalesced {} > baseline {}",
            coal.port.messages,
            base.port.messages
        );
        assert_eq!(base.port.batches, 0, "baseline runs uncoalesced");
    }

    #[test]
    fn from_octo_honours_parcelport_flag() {
        let octo = OctoConfig::from_args(["--hpx:parcelport=lci", "--hpx:threads=2"]).unwrap();
        let cfg = DistConfig::from_octo(2, octo);
        assert_eq!(cfg.backend, NetBackend::Lci);
        assert_eq!(cfg.threads_per_node, 2);
        assert!(!cfg.coalesce.enabled, "coalescing stays off unless asked");
        let octo = OctoConfig::from_args(["--coalesce=on"]).unwrap();
        assert!(DistConfig::from_octo(2, octo).coalesce.enabled);
    }

    #[test]
    #[should_panic(expected = "two boards")]
    fn three_nodes_rejected() {
        let _ = DistRun::execute(tiny(3, NetBackend::Tcp));
    }
}
