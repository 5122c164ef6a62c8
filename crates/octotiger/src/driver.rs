//! The time stepper — the paper's §6.2.1 experiment: "a single rotating
//! star with a level of refinement of four is simulated for five time
//! steps", measuring *cells processed per second* while scaling from one
//! core to all four — and, with an ownership mask over the leaves and the
//! peers' deposits as nodes of the step's plan, §6.2.2's two boards: a
//! node-level run is the same plan with no peers.
//!
//! Per step, interleaving the two solvers exactly as §3.3 describes:
//! CFL reduction → gravity solve (P2M / M2M / multipole + monopole kernels)
//! → hydro kernel (gathering its leaf's ghost zone) → each leaf's update and
//! gravity source, written back once its last reader has gathered. Every
//! per-leaf kernel invocation is one `amt` task, so the
//! runtime always sees `leaf_count` concurrent kernels per phase — the
//! paper's source of multicore utilization even with the Kokkos Serial
//! execution space.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use amt::par::scope;
use amt::{Handle, Runtime};
use apex_lite::trace::{self, Cat};
use apex_lite::{CounterRegistry, CounterSnapshot};

use crate::config::OctoConfig;
use crate::deposit::{self, BlocksImage, HaloImage};
use crate::gravity::{
    self, BlockSoA, CacheStats, EnsureReport, GravityKernels, GravityWorkspace, InteractionCache,
    LeafSolve,
};
use crate::hydro;
use crate::kernel_backend::Dispatch;
use crate::octree::{GhostFaces, NodeId, Octree, FACE_VALUES};
use crate::plan::{Kind::*, Link, Peer, Run, StepPlan};
use crate::star::{field, InitialModel, RotatingStar, NF};
use crate::subgrid::{SubGrid, CELLS, FRAME_LEN, NX};

/// Work counters accumulated over a run — the measured quantities the
/// `rv-machine` projection turns into per-architecture runtimes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkEstimate {
    /// Estimated hydro flops.
    pub hydro_flops: u64,
    /// Estimated gravity flops (multipole + monopole kernels).
    pub gravity_flops: u64,
    /// Estimated bytes of field traffic.
    pub bytes: u64,
    /// Far-field (M2L) node-block interactions.
    pub far_interactions: u64,
    /// Near-field (P2P) block-block interactions.
    pub near_interactions: u64,
    /// Ghost cells filled by per-cell tree-descent sampling (level jumps and
    /// domain boundaries) — latency-bound on in-order cores.
    pub ghost_samples: u64,
    /// Bytes moved by fast same-level ghost slab copies.
    pub ghost_slab_bytes: u64,
    /// Multipole-acceptance (MAC) evaluations executed by the dual
    /// traversal. Charged only on interaction-cache *misses*: cached solves
    /// skip the traversal, and the projection must not bill flops that
    /// never ran.
    pub mac_evals: u64,
}

impl WorkEstimate {
    /// Total flops.
    pub fn flops(&self) -> u64 {
        self.hydro_flops + self.gravity_flops
    }

    /// Charge one step's ghost zones: [`FACE_VALUES`] values per face, as
    /// latency-bound samples where the face crosses a level jump or the
    /// domain boundary, as slab bytes where it is a same-level copy.
    pub(crate) fn add_ghost_faces(&mut self, faces: GhostFaces) {
        self.ghost_samples += faces.indexed * FACE_VALUES;
        self.ghost_slab_bytes += faces.slab * FACE_VALUES * 8;
    }

    /// Add another locality's counters to these.
    pub(crate) fn add(&mut self, other: &WorkEstimate) {
        self.hydro_flops += other.hydro_flops;
        self.gravity_flops += other.gravity_flops;
        self.bytes += other.bytes;
        self.far_interactions += other.far_interactions;
        self.near_interactions += other.near_interactions;
        self.ghost_samples += other.ghost_samples;
        self.ghost_slab_bytes += other.ghost_slab_bytes;
        self.mac_evals += other.mac_evals;
    }

    /// Write the `/gravity/…` and `/work/…` work counters into `snap`.
    pub(crate) fn counters_into(&self, snap: &mut CounterSnapshot) {
        snap.set_count("/gravity/far_interactions", self.far_interactions);
        snap.set_count("/gravity/near_interactions", self.near_interactions);
        snap.set_count("/gravity/mac_evals", self.mac_evals);
        snap.set_count("/work/hydro_flops", self.hydro_flops);
        snap.set_count("/work/gravity_flops", self.gravity_flops);
        snap.set_count("/work/bytes", self.bytes);
        snap.set_count("/work/ghost_samples", self.ghost_samples);
        snap.set_count("/work/ghost_slab_bytes", self.ghost_slab_bytes);
    }
}

/// Results of a timed run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Steps executed.
    pub steps: u32,
    /// Octree leaves.
    pub leaf_count: usize,
    /// Interior cells (leaves × 512).
    pub cell_count: usize,
    /// `cells × steps` — the paper's throughput numerator.
    pub cells_processed: u64,
    /// Wall-clock seconds on the host.
    pub elapsed_seconds: f64,
    /// Cells processed per second (host) — Fig. 7/8's y-axis.
    pub cells_per_second: f64,
    /// Scheduler event counts over the run.
    pub runtime_stats: amt::RuntimeStats,
    /// Work counters for the machine projection.
    pub work: WorkEstimate,
    /// Interaction-list cache hit/miss counters over the run.
    pub cache: CacheStats,
    /// Final simulation time.
    pub sim_time: f64,
    /// Fraction of the shorter solver's wall-time during which the gravity
    /// and hydro kernel families ran concurrently, accumulated over the run
    /// (> 0 on several workers: the task graph interleaves the solvers).
    pub overlap_ratio: f64,
    /// Unified counter dump (`/runtime/…`, `/gravity/…`, `/work/…`,
    /// `/energy/…`) sampled at the end of the run.
    pub counters: CounterSnapshot,
}

/// Wall-clock envelope of one task family within a step: the earliest start
/// and latest end across all its per-leaf tasks (monotonic `now_ns` stamps).
struct Envelope {
    start: AtomicU64,
    end: AtomicU64,
}

impl Envelope {
    fn new() -> Self {
        Envelope {
            start: AtomicU64::new(u64::MAX),
            end: AtomicU64::new(0),
        }
    }

    fn record(&self, s: u64, e: u64) {
        self.start.fetch_min(s, Ordering::Relaxed);
        self.end.fetch_max(e, Ordering::Relaxed);
    }

    fn interval(&self) -> Option<(u64, u64)> {
        let s = self.start.load(Ordering::Relaxed);
        let e = self.end.load(Ordering::Relaxed);
        (s != u64::MAX && e >= s).then_some((s, e))
    }
}

/// Run totals behind the `/runtime/overlap_ratio` counter.
#[derive(Debug, Clone, Copy, Default)]
struct OverlapTotals {
    gravity_ns: u64,
    hydro_ns: u64,
    overlap_ns: u64,
}

/// What the referee benchmark reads of the step's kernel launches
/// (`benchmark/` is frozen; ROADMAP lists the `[benchmark]` PR that retires
/// this with the two catalogue rows): one launch per work item, so both
/// fields count kernel tasks — 4 per owned leaf per step.
#[derive(Debug, Clone, Copy)]
pub struct AggregationSnapshot {
    /// Work items (leaves) launched.
    pub(crate) items: u64,
    /// Kernel tasks launched.
    pub(crate) fused_launches: u64,
}

impl AggregationSnapshot {
    /// Leaves per launch: 1.0 once a step has run.
    pub fn batch_size_avg(&self) -> f64 {
        self.items as f64 / (self.fused_launches as f64).max(1.0)
    }
}

/// What the referee benchmark reads of the hydro frames (`benchmark/` is
/// frozen; ROADMAP item 7 retires this with its catalogue row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Frames reused: none.
    pub hits: u64,
    /// Frames allocated: one per hydro task.
    pub misses: u64,
}

/// Which leaves this driver steps: all of them on one locality, its side of
/// the x = 0 plane on two (supervisor: x < 0, delegate: x ≥ 0, the roles of
/// the paper's Listings 2–3). Every locality holds the whole tree; the mask
/// decides whose kernels run where.
struct Ownership {
    node: u32,
    nodes: u32,
    /// Tree generation the tables below were derived from.
    built_for: Option<u64>,
    /// Per leaf position: owned here.
    mask: Vec<bool>,
    /// The owned leaf positions, ascending — the step's work items.
    positions: Vec<usize>,
    /// Owned leaves whose interior a leaf owned elsewhere gathers ghosts from.
    halo_out: Vec<usize>,
    /// The step's plan over `positions`, built on a generation's first step
    /// (not at set-up).
    plan: Option<StepPlan>,
    /// What the step holds at step size, allocated on a generation's first
    /// step once the previous generation's are dropped.
    buffers: Option<StepBuffers>,
}

/// The buffers of a step, overwritten in place by every step of one
/// topology generation: the leaf-order P2M table, and per owned leaf the
/// CFL rate and the slot of what its nodes hand on. A step leaves every
/// slot empty.
struct StepBuffers {
    /// The leaf-order P2M table: P2M writes the owned entries, the exchange
    /// the rest; the moments pass and the gravity tasks read it.
    blocks: Vec<BlockSoA>,
    speeds: Vec<AtomicU64>,
    slots: Vec<Mutex<Slot>>,
}

/// What an owned leaf's nodes hand on: the hydro result until its
/// write-back, and the block accelerations, boxed, from its gravity task to
/// its source — which runs at once unless the write-back is still pending.
#[derive(Default)]
struct Slot {
    result: Option<Vec<[f64; NF]>>,
    accel: Option<Box<[[f64; 3]; gravity::BLOCKS]>>,
}

impl StepBuffers {
    fn new(leaves: usize, owned: usize) -> Self {
        StepBuffers {
            blocks: vec![BlockSoA::zero(); leaves],
            speeds: (0..owned).map(|_| AtomicU64::new(0)).collect(),
            slots: (0..owned).map(|_| Mutex::default()).collect(),
        }
    }
}

impl Ownership {
    /// Bring the tables up to `tree`'s topology (a no-op until a regrid).
    fn refresh(&mut self, tree: &mut Octree) {
        if self.built_for == Some(tree.generation()) {
            return;
        }
        let (node, nodes) = (self.node, self.nodes);
        self.mask = tree
            .leaf_ids()
            .iter()
            .map(|&leaf| {
                let (origin, dx) = tree.node_geometry(leaf);
                let centre_x = origin[0] + (NX / 2) as f64 * dx;
                nodes == 1 || (centre_x < 0.0) == (node == 0)
            })
            .collect();
        let mask = &self.mask;
        self.positions = (0..mask.len()).filter(|&pos| mask[pos]).collect();
        self.halo_out = if nodes == 1 {
            Vec::new()
        } else {
            tree.halo_sources(|pos| !mask[pos])
        };
        self.plan = None;
        self.buffers = None;
        self.built_for = Some(tree.generation());
    }
}

/// The simulation driver.
pub struct Driver {
    tree: Octree,
    config: OctoConfig,
    ownership: Ownership,
    sim_time: f64,
    work: WorkEstimate,
    /// Gravity/hydro concurrency totals (latency hiding of the task graph).
    overlap: OverlapTotals,
    /// Recycled gravity solve state (moments table, traversal order).
    gravity_ws: GravityWorkspace,
    /// Cross-step interaction-list cache keyed on tree topology.
    interaction_cache: InteractionCache,
    /// Kernel tasks launched: 4 per owned leaf per step
    /// (`/work/aggregation/fused_launches`).
    kernel_tasks: u64,
    /// Regrid sweeps executed (`/regrid/sweeps`).
    regrid_sweeps: u64,
    /// Leaves split across all sweeps, cascades included
    /// (`/regrid/leaves_refined`).
    regrid_leaves: u64,
    /// Steps completed: the index a failing step is reported under.
    steps_done: u64,
    /// Most hydro results held at once in any step so far
    /// (`/step/held_results_hwm`).
    held_results_hwm: u64,
}

/// What one [`Driver::regrid`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegridReport {
    /// Leaves split this sweep — the requested ones that were still leaves
    /// plus every cascade split the 2:1 grading closure forced.
    pub leaves_refined: usize,
}

impl Driver {
    /// Build the rotating-star problem for `config` on a `[-1, 1]³` domain.
    pub fn new(config: OctoConfig) -> Self {
        Self::with_model(&RotatingStar::paper_default(), config)
    }

    /// Build any [`InitialModel`] problem (e.g. a
    /// [`crate::star::BinaryStar`]) on a `[-1, 1]³` domain.
    pub fn with_model<M: InitialModel>(model: &M, config: OctoConfig) -> Self {
        Self::for_locality(model, config, 0, 1)
    }

    /// The driver of locality `node` of `nodes`: the whole tree's topology,
    /// stepping the leaves that locality owns and holding data for those and
    /// their halo only (so no regrid, and no whole-tree diagnostics, on one
    /// locality of several: repartitioning is ROADMAP item 1).
    pub(crate) fn for_locality<M: InitialModel>(
        model: &M,
        config: OctoConfig,
        node: u32,
        nodes: u32,
    ) -> Self {
        config.validate().expect("invalid configuration");
        assert!(
            node < nodes && nodes <= 2,
            "ownership is the x = 0 split: at most two localities"
        );
        let mut tree = Octree::build_topology(model, &config, 1.0);
        let mut ownership = Ownership {
            node,
            nodes,
            built_for: None,
            mask: Vec::new(),
            positions: Vec::new(),
            halo_out: Vec::new(),
            plan: None,
            buffers: None,
        };
        ownership.refresh(&mut tree);
        // Data for the leaves this locality reads: the ones it owns and the
        // ones its ghost plan gathers from (their owners keep those current).
        let mask = &ownership.mask;
        let mut reads = mask.clone();
        if nodes > 1 {
            for pos in tree.halo_sources(|pos| mask[pos]) {
                reads[pos] = true;
            }
        }
        tree.allocate_leaves(model, |pos| reads[pos]);
        Driver {
            tree,
            config,
            ownership,
            sim_time: 0.0,
            work: WorkEstimate::default(),
            overlap: OverlapTotals::default(),
            gravity_ws: GravityWorkspace::new(),
            interaction_cache: InteractionCache::new(),
            kernel_tasks: 0,
            regrid_sweeps: 0,
            regrid_leaves: 0,
            steps_done: 0,
            held_results_hwm: 0,
        }
    }

    /// The underlying octree.
    pub fn tree(&self) -> &Octree {
        &self.tree
    }

    /// The active configuration.
    pub fn config(&self) -> &OctoConfig {
        &self.config
    }

    /// Positions in [`Octree::leaf_ids`] of the leaves this driver steps
    /// (all of them unless it is one locality of several).
    pub(crate) fn owned_leaves(&self) -> &[usize] {
        &self.ownership.positions
    }

    /// Steps completed.
    pub(crate) fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// FNV-1a over the bits of the interior data of the leaf at `pos`, one
    /// `f64` per round, read in place.
    pub(crate) fn leaf_hash(&self, pos: usize) -> u64 {
        let data = self.tree.subgrid(self.tree.leaf_ids()[pos]).interior();
        data.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// [`Driver::leaf_hash`] of every leaf, leaf order — the field state two
    /// runs are compared on.
    pub fn leaf_hashes(&self) -> Vec<u64> {
        (0..self.tree.leaf_count())
            .map(|pos| self.leaf_hash(pos))
            .collect()
    }

    /// Execute one time step on `runtime`; returns `dt`.
    ///
    /// # Panics
    /// With the step index, when the CFL reduction returns a `dt` that is
    /// not positive and finite ([`hydro::global_dt`]) — a NaN in the state
    /// ends the run within a step instead of spreading through it (the
    /// panic is raised inside a task and rethrown at the scope's join). The
    /// message names the first owned leaf, in leaf order, whose CFL rate
    /// poisoned the fold, and the field and cell of its first non-finite
    /// value.
    pub fn step(&mut self, runtime: &Runtime) -> f64 {
        self.step_with(&runtime.handle(), None)
    }

    /// One time step over the owned leaves: the generation's [`StepPlan`],
    /// run by its countdown executor, each node bound here to its kernel
    /// call or its deposit (`plan.rs` holds the scheduling rules):
    ///
    /// ```text
    /// p2m per leaf ─last─┬─► M2M + lists ◄── blocks in ◄┄ peer ─┐
    ///                    └─► blocks out ┄► peer                 ├─► gravity per leaf ─────────┐
    /// cfl per leaf ─last─┬─► dt ◄── rate in ◄┄ peer ────────────┘                             │
    ///                    │   └─► hydro per leaf, in wavefront order                           │
    ///                    └─► rate out ┄► peer   ▲ (those gathering from the peer)             │
    /// halo out ┄► peer           halo in ◄┄ peer ┘                                            │
    /// leaf k: its p2m, halo out, each hydro gathering from k ─last─► update k ─last─► source k ◄┘
    /// ```
    ///
    /// A hydro task gathers its leaf's ghost zone through the tree's plan
    /// and holds its result until the last reader of the leaf's old interior
    /// writes it back; the later of that write-back and the leaf's gravity
    /// task adds the source, per block (on one worker every write-back comes
    /// first, so no acceleration waits). Per leaf that is a serial walk's
    /// order, so the bits are a serial walk's. Leaf data is lent out in
    /// per-leaf locks ([`Octree::lend_grids`]) that the plan keeps
    /// uncontended; the gravity state sits in one `RwLock` that P2M, the
    /// blocks deposit and the moments pass write and the gravity tasks read.
    /// With a `link` (one locality of two), the send nodes write their
    /// deposits from the leaves and the block table into frames to the peer,
    /// and the peer's release the in-nodes, each read in place from its
    /// frame and checked whole before anything of it is written; without one
    /// the plan has no remote node. No node waits for anything: the step
    /// waits once, for the whole plan. A step that stops (a bad deposit, a
    /// non-finite `dt`) hands the leaves back to the tree first.
    pub(crate) fn step_with(&mut self, handle: &Handle, link: Option<Link>) -> f64 {
        self.step_by(handle, |plan, run| plan.execute(handle, link, run))
    }

    /// [`Driver::step_with`] with the plan run by `execute`: its executor,
    /// or a test's.
    fn step_by(&mut self, handle: &Handle, execute: impl FnOnce(&StepPlan, &Run)) -> f64 {
        let hydro_dispatch = Dispatch::new(self.config.hydro_kernel, handle, 4);
        let multipole_dispatch = Dispatch::new(self.config.multipole_kernel, handle, 4);
        let monopole_dispatch = Dispatch::new(self.config.monopole_kernel, handle, 4);
        let policy = self.config.simd_policy();
        let kernels = GravityKernels {
            multipole: &multipole_dispatch,
            monopole: &monopole_dispatch,
            simd: policy,
        };
        let (cfl_factor, step, theta) = (self.config.cfl, self.steps_done, self.config.theta);

        self.ownership.refresh(&mut self.tree);
        let mask = &self.ownership.mask;
        let faces = self.tree.plan_ghosts(|pos| mask[pos]);
        self.work.add_ghost_faces(faces);
        let own = &mut self.ownership;
        let (mask, halo_out, node) = (&own.mask, &own.halo_out, own.node);
        // A leaf position is the peer's: on one locality of two, every leaf
        // not owned here.
        let theirs = |pos: usize| mask.get(pos) == Some(&false);
        let plan = &*(own.plan).get_or_insert_with(|| {
            let sources = self.tree.gather_sources();
            let peer = Peer {
                reads: halo_out,
                owns: &theirs,
            };
            let peers: Vec<Peer> = (own.nodes > 1).then_some(peer).into_iter().collect();
            StepPlan::new(&own.positions, |pos| sources.of(pos), &peers)
        });
        let leaf_count = self.tree.leaf_count();
        let buffers =
            (own.buffers).get_or_insert_with(|| StepBuffers::new(leaf_count, own.positions.len()));
        // The step's work items: index `k` below is the `k`-th owned leaf.
        let owned = &own.positions;
        let leaves: Vec<NodeId> = owned.iter().map(|&p| self.tree.leaf_ids()[p]).collect();
        let (speeds, slots) = (&buffers.speeds, &buffers.slots);
        let slot = |k: usize| slots[k].lock().expect("leaf slot");
        let peer_rates: Vec<AtomicU64> = (1..own.nodes).map(|_| AtomicU64::new(0)).collect();
        // Peer `p` is the `p`-th other locality.
        let from = |p: usize| p as u32 + u32::from(p as u32 >= node);
        let dt_bits = AtomicU64::new(0);
        // Gravity state, the leaf-order P2M table and the list update's report.
        let (ws, cache) = (&mut self.gravity_ws, &mut self.interaction_cache);
        let blocks = buffers.blocks.as_mut_slice();
        let gravity = RwLock::new((ws, cache, blocks, None::<EnsureReport>));
        let (g_env, h_env) = (Envelope::new(), Envelope::new());
        // Hydro results held now and at most.
        let (held, held_hwm) = (AtomicU64::new(0), AtomicU64::new(0));
        let grids = self.tree.lend_grids();
        let tree = &self.tree;
        let lent = |leaf: NodeId| grids[leaf].as_ref().expect("leaf with data");
        let grid = |leaf: NodeId| lent(leaf).read().expect("leaf lock");
        let grid_mut = |k: usize| lent(leaves[k]).write().expect("leaf lock");
        let dt = || f64::from_bits(dt_bits.load(Ordering::Relaxed));
        let rates = || (speeds.iter()).map(|s| f64::from_bits(s.load(Ordering::Relaxed)));
        // Why peer `p`'s deposit of `what` does not read: the step stops,
        // before anything of it is written.
        let unread = |p, what: &str, e| {
            let from = from(p);
            format!("step {step}: locality {from} deposited {what} that does not read: {e}")
        };
        // Where an entry of peer `p`'s deposit goes: leaf position `pos`, a
        // leaf of the peer's that this locality `holds`, whose entry takes
        // `want` values and has `len` — else the step stops, before anything
        // of the deposit is written.
        let checked = |p, what: &str, pos: u64, holds: &dyn Fn(usize) -> bool, (len, want)| {
            let at = usize::try_from(pos)
                .ok()
                .filter(|&at| theirs(at) && holds(at));
            let why = match at {
                Some(at) if len == want => return at,
                Some(_) => format!("{len} values, not {want}"),
                None => "not one of its leaves held here".to_string(),
            };
            panic!(
                "step {step}: locality {} deposited {what} for leaf position {pos}: {why}",
                from(p)
            )
        };

        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(plan, &|node, deposit, ship| match node {
                (Cfl, k) => {
                    let _span = trace::span(Cat::Phase, "cfl_leaf");
                    let g = grid(leaves[k]);
                    let speed = hydro::max_signal_speed_policy(&g, &hydro_dispatch, policy);
                    speeds[k].store((speed / g.dx).to_bits(), Ordering::Relaxed);
                }
                (P2m, k) => {
                    let _span = trace::span(Cat::Phase, "p2m_leaf");
                    let blocks = gravity::compute_blocks(&grid(leaves[k]));
                    gravity.write().expect("gravity state").2[owned[k]] = blocks;
                }
                // A max-fold: any arrival order of the rates gives the same
                // bits, and so does the fold of the localities' own folds.
                (Dt, _) => {
                    let _span = trace::span(Cat::Phase, "cfl_reduction");
                    let peers =
                        (peer_rates.iter()).map(|r| f64::from_bits(r.load(Ordering::Relaxed)));
                    let ours = hydro::max_cfl_rate(rates());
                    let rate = hydro::max_cfl_rate(std::iter::once(ours).chain(peers));
                    let dt = hydro::global_dt(cfl_factor, rate, step, || {
                        poisoned_leaf(owned, rates(), |k| grid(leaves[k]).first_non_finite())
                    });
                    dt_bits.store(dt.to_bits(), Ordering::Relaxed);
                }
                // The serial M2M + interaction-list section over the
                // completed block table, hidden behind CFL/hydro work on
                // other workers.
                (Moments, _) => {
                    let mut state = gravity.write().expect("gravity state");
                    let (ws, cache, blocks, report) = &mut *state;
                    let _span = trace::span(Cat::Phase, "gravity_moments");
                    ws.upward_pass(tree, blocks);
                    *report = Some(cache.ensure(tree, &ws.moments, theta));
                }
                (Hydro, k) => {
                    let t0 = trace::now_ns();
                    let _span = trace::span(Cat::Phase, "hydro_step");
                    let mut out = vec![[0.0; NF]; CELLS];
                    let mut frame = vec![0.0; FRAME_LEN];
                    tree.gather_frame(owned[k], &mut frame, grid);
                    let (g, dispatch) = (grid(leaves[k]), &hydro_dispatch);
                    hydro::step_interior_staged_into(
                        &g,
                        &mut frame,
                        dt(),
                        dispatch,
                        policy,
                        &mut out,
                    );
                    drop(frame);
                    slot(k).result = Some(out);
                    let now = held.fetch_add(1, Ordering::Relaxed) + 1;
                    held_hwm.fetch_max(now, Ordering::Relaxed);
                    h_env.record(t0, trace::now_ns());
                }
                (Gravity, k) => {
                    let t0 = trace::now_ns();
                    let _span = trace::span(Cat::Phase, "gravity_solve");
                    let state = gravity.read().expect("gravity state");
                    let (ws, cache, blocks, _) = &*state;
                    let solve = LeafSolve {
                        tree,
                        moments: &ws.moments,
                        blocks,
                        leaf_pos: &ws.leaf_pos,
                        kernels: &kernels,
                    };
                    let acc = solve.accel(leaves[k], &cache.lists()[owned[k]]);
                    slot(k).accel = Some(Box::new(acc));
                    g_env.record(t0, trace::now_ns());
                }
                (WriteBack, k) => {
                    let _span = trace::span(Cat::Phase, "write_back");
                    let state = slot(k).result.take();
                    hydro::apply_interior(&mut grid_mut(k), &state.expect("hydro result held"));
                    held.fetch_sub(1, Ordering::Relaxed);
                }
                (Source, k) => {
                    let _span = trace::span(Cat::Phase, "gravity_source");
                    let acc = slot(k).accel.take();
                    hydro::apply_gravity_source(
                        &mut grid_mut(k),
                        &acc.expect("gravity done"),
                        dt(),
                    );
                }
                // The sends (their wire work is `distrib`'s `parcel_send`),
                // each written from where it lies into the frame: the old
                // interior of the leaves the peer reads, this locality's CFL
                // rate, its P2M blocks.
                (HaloOut, _) => {
                    let leaf = |pos: usize| grid(tree.leaf_ids()[pos]);
                    ship(&HaloImage {
                        positions: halo_out,
                        leaf,
                    });
                }
                (RateOut, _) => ship(&hydro::max_cfl_rate(rates())),
                (BlocksOut, _) => {
                    let state = gravity.read().expect("gravity state");
                    ship(&BlocksImage {
                        positions: owned,
                        table: state.2,
                    });
                }
                // The peer's deposits, each read in place from its frame and
                // checked whole before any of it is written; a span each
                // marks where the step took it.
                (HaloIn, p) => {
                    let _span = trace::span(Cat::Phase, "halo_exchange");
                    let halo = deposit.expect("an in-node runs with its deposit");
                    let entries = deposit::halo_entries(halo.image())
                        .unwrap_or_else(|e| panic!("{}", unread(p, "a halo", e)));
                    let held = |at: usize| grids[tree.leaf_ids()[at]].is_some();
                    let at: Vec<usize> = (entries.iter())
                        .map(|&(pos, values)| {
                            checked(p, "a halo", pos, &held, (values.len(), NF * CELLS))
                        })
                        .collect();
                    for (at, (_, values)) in at.into_iter().zip(entries) {
                        let mut leaf = lent(tree.leaf_ids()[at]).write().expect("leaf lock");
                        deposit::copy_values(leaf.interior_mut(), values);
                    }
                }
                (RateIn, p) => {
                    let _span = trace::span(Cat::Phase, "rate_exchange");
                    let rate = deposit.expect("an in-node runs with its deposit");
                    let rate: f64 = distrib::from_bytes(rate.image())
                        .unwrap_or_else(|e| panic!("{}", unread(p, "a rate", e)));
                    peer_rates[p].store(rate.to_bits(), Ordering::Relaxed);
                }
                (BlocksIn, p) => {
                    let _span = trace::span(Cat::Phase, "blocks_exchange");
                    let blocks = deposit.expect("an in-node runs with its deposit");
                    let entries = deposit::blocks_entries(blocks.image())
                        .unwrap_or_else(|e| panic!("{}", unread(p, "blocks", e)));
                    let at: Vec<usize> = (entries.iter())
                        .map(|&(pos, _)| checked(p, "blocks", pos, &|_| true, (1, 1)))
                        .collect();
                    let table = &mut gravity.write().expect("gravity state").2;
                    for (at, (_, lanes)) in at.into_iter().zip(entries) {
                        for (into, lane) in table[at].lanes_mut().into_iter().zip(lanes) {
                            deposit::copy_values(into, lane);
                        }
                    }
                }
            })
        }));
        self.tree.restore_grids(grids);
        if let Err(why) = stopped {
            std::panic::resume_unwind(why);
        }
        let dt = dt();
        let report = gravity.into_inner().expect("gravity state").3;
        self.held_results_hwm = self.held_results_hwm.max(held_hwm.into_inner());

        self.accumulate_overlap(&g_env, &h_env);
        self.account_step(report.expect("moments pass ran"));
        self.sim_time += dt;
        dt
    }

    /// Fold one step's gravity/hydro kernel-family envelopes into the run's
    /// overlap totals (the `/runtime/overlap_ratio` counter).
    fn accumulate_overlap(&mut self, g: &Envelope, h: &Envelope) {
        if let (Some((g0, g1)), Some((h0, h1))) = (g.interval(), h.interval()) {
            self.overlap.gravity_ns += g1 - g0;
            self.overlap.hydro_ns += h1 - h0;
            self.overlap.overlap_ns += g1.min(h1).saturating_sub(g0.max(h0));
        }
    }

    /// Post-step work accounting over the owned leaves (the step's start
    /// charged their ghost faces).
    fn account_step(&mut self, report: EnsureReport) {
        let owned = &self.ownership.positions;
        self.steps_done += 1;
        self.kernel_tasks += 4 * owned.len() as u64;
        // Work accounting. Far (M2L) interactions are charged in the kernel's
        // summation groups (`gravity::SUM_GROUPS`), whatever the host's lane
        // count: the modelled program must not depend on build flags.
        // Near lists stream 64-block leaves, whole groups already.
        let lists = self.interaction_cache.lists();
        let groups = |n: usize| n.next_multiple_of(gravity::SUM_GROUPS) as u64;
        let far: u64 = owned
            .iter()
            .map(|&pos| groups(lists[pos].far().len()))
            .sum();
        let near: u64 = owned
            .iter()
            .map(|&pos| lists[pos].near().len() as u64)
            .sum();
        let cells = (owned.len() * CELLS) as u64;
        self.work.hydro_flops += cells * hydro::HYDRO_FLOPS_PER_CELL;
        self.work.bytes += cells * hydro::HYDRO_BYTES_PER_CELL;
        let far_inter = far * gravity::BLOCKS as u64;
        let near_inter = near * (gravity::BLOCKS * gravity::BLOCKS) as u64;
        self.work.far_interactions += far_inter;
        self.work.near_interactions += near_inter;
        self.work.gravity_flops += far_inter * gravity::MULTIPOLE_FLOPS_PER_INTERACTION
            + near_inter * gravity::MONOPOLE_FLOPS_PER_INTERACTION;
        // MAC evaluations only ran on a cache miss, and a *partial* rebuild
        // only traversed the dirty leaves — the ensure report carries the
        // exact entry count of the lists that were re-traversed (every
        // accepted or opened node was MAC-tested). Retained lists cost 0.
        // The lists cover the whole tree on every locality, so each one
        // charges the traversal it really ran.
        self.work.mac_evals += report.mac_evals;
        self.work.gravity_flops += report.mac_evals * gravity::MAC_FLOPS_PER_EVAL;
    }

    /// Run `stop_step` steps on a fresh runtime of `threads` workers and
    /// report throughput — one point of Fig. 7.
    pub fn run(&mut self, threads: usize) -> RunMetrics {
        let runtime = Runtime::new(threads);
        self.run_on(&runtime)
    }

    /// Run `stop_step` steps on an existing runtime.
    ///
    /// Honours `--trace-out=FILE`: a Chrome trace of the run (scheduler
    /// tasks, driver phases, gravity kernels) with every counter — the
    /// registry's and the driver's own — sampled at the step boundaries.
    pub fn run_on(&mut self, runtime: &Runtime) -> RunMetrics {
        let mut registry = CounterRegistry::new();
        runtime
            .handle()
            .register_counters(&mut registry, "/runtime");
        runtime.reset_stats();
        let mut observer = RunObserver::start(&self.config, registry, |r| self.sample_counters(r));
        let mut steps = 0;
        for _ in 0..self.config.stop_step {
            self.step(runtime);
            steps += 1;
            observer.step_done(|r| self.sample_counters(r));
        }
        let elapsed = observer.elapsed_seconds();
        rv_machine::memory::note_arena_bytes(self.tree.resident_bytes());
        let mut counters = self.sample_counters(observer.registry());
        rv_machine::energy_counters_into(
            &mut counters,
            rv_machine::CpuArch::Jh7110,
            1,
            runtime.worker_stats().len() as u32,
            elapsed,
        );
        observer.finish(&counters);
        let cell_count = self.tree.cell_count();
        let cells_processed = cell_count as u64 * u64::from(steps);
        RunMetrics {
            steps,
            leaf_count: self.tree.leaf_count(),
            cell_count,
            cells_processed,
            elapsed_seconds: elapsed,
            cells_per_second: cells_processed as f64 / elapsed.max(1e-12),
            runtime_stats: runtime.stats(),
            work: self.work,
            cache: self.interaction_cache.stats(),
            sim_time: self.sim_time,
            overlap_ratio: self.overlap_ratio(),
            counters,
        }
    }

    /// Sample the registry and fold in the driver-owned counters.
    fn sample_counters(&self, registry: &CounterRegistry) -> CounterSnapshot {
        let mut snap = registry.sample();
        self.counters_into(&mut snap);
        snap
    }

    /// Write the driver's `/gravity/…` and `/work/…` counters into `snap`.
    /// These live on `&self` (not behind a registry provider) because the
    /// driver is single-owner mutable state.
    pub fn counters_into(&self, snap: &mut CounterSnapshot) {
        let cs = self.interaction_cache.stats();
        snap.set_count("/gravity/cache_hits", cs.hits);
        snap.set_count("/gravity/cache_misses", cs.misses);
        snap.set_count("/gravity/cache/partial_rebuilds", cs.partial_rebuilds);
        snap.set_count("/gravity/cache/leaves_rebuilt", cs.leaves_rebuilt);
        snap.set_count("/gravity/cache/leaves_retained", cs.leaves_retained);
        snap.set_count("/regrid/sweeps", self.regrid_sweeps);
        snap.set_count("/regrid/leaves_refined", self.regrid_leaves);
        snap.set_count(
            "/runtime/peak_rss_bytes",
            rv_machine::memory::peak_rss_bytes(),
        );
        self.work.counters_into(snap);
        let ghost = self.tree.ghost_stats();
        snap.set_count("/ghost/plan_rebuilds", ghost.plan_rebuilds);
        snap.set_count("/ghost/faces_slab", ghost.faces.slab);
        snap.set_count("/ghost/faces_indexed", ghost.faces.indexed);
        snap.set_count("/step/held_results_hwm", self.held_results_hwm);
        snap.set_count("/runtime/overlap_ns", self.overlap.overlap_ns);
        snap.set_gauge("/runtime/overlap_ratio", self.overlap_ratio());
        let launches = self.aggregation_stats().fused_launches;
        snap.set_count("/work/aggregation/fused_launches", launches);
    }

    /// Kernel tasks launched so far, in the shape the referee benchmark reads.
    pub fn aggregation_stats(&self) -> AggregationSnapshot {
        AggregationSnapshot {
            items: self.kernel_tasks,
            fused_launches: self.kernel_tasks,
        }
    }

    /// Drop the cached interaction lists, so the next step re-traverses
    /// every leaf: the rebuild-every-step reference the incremental cache is
    /// tested against.
    pub fn invalidate_interaction_lists(&mut self) {
        self.interaction_cache.invalidate();
    }

    /// Fraction of the shorter kernel family's wall-clock envelope that
    /// overlapped the other family, accumulated over all steps so far.
    /// Positive on several workers — the direct evidence for the paper's
    /// "interleaving of the two solvers" claim.
    pub fn overlap_ratio(&self) -> f64 {
        let denom = self.overlap.gravity_ns.min(self.overlap.hydro_ns);
        if denom == 0 {
            0.0
        } else {
            self.overlap.overlap_ns as f64 / denom as f64
        }
    }

    /// The hydro frames in the shape the referee benchmark reads: each hydro
    /// task allocates its own, so every one is a miss.
    pub fn stage_pool_stats(&self) -> PoolStats {
        PoolStats {
            hits: 0,
            misses: self.kernel_tasks / 4,
        }
    }

    /// Work counters accumulated so far.
    pub fn work(&self) -> WorkEstimate {
        self.work
    }

    /// Interaction-list cache counters accumulated so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.interaction_cache.stats()
    }

    /// Splits prolongated per task of a [`Driver::regrid`] sweep.
    const REGRID_SPLITS_PER_TASK: usize = 16;

    /// Refine a batch of leaves mid-run as **one** regrid sweep driven as an
    /// `amt` task graph: serial structural split + 2:1 grading closure, the
    /// prolongation of every split fanned out as tasks
    /// (`REGRID_SPLITS_PER_TASK` splits each), then a serial install with a
    /// single generation bump. One `regrid` phase span wraps the whole sweep
    /// — a 1000-leaf regrid used to emit 1000.
    pub fn regrid(&mut self, runtime: &Runtime, requested: &[NodeId]) -> RegridReport {
        let _span = trace::span(Cat::Phase, "regrid");
        let splits = self.tree.begin_regrid(requested);
        if splits.is_empty() {
            return RegridReport::default();
        }
        let mut grids: Vec<Option<[SubGrid; 8]>> = (0..splits.len()).map(|_| None).collect();
        {
            let tree = &self.tree;
            let handle = runtime.handle();
            scope(&handle, |sc| {
                let per_task = Self::REGRID_SPLITS_PER_TASK;
                for (slots, parents) in grids.chunks_mut(per_task).zip(splits.chunks(per_task)) {
                    sc.spawn(move || {
                        for (slot, &(parent, _)) in slots.iter_mut().zip(parents) {
                            *slot = Some(tree.prolongate_children(parent));
                        }
                    });
                }
            });
        }
        let installs = splits
            .iter()
            .zip(grids)
            .map(|(&(parent, _), g)| (parent, g.expect("scope prolongated every split")))
            .collect();
        self.tree.finish_regrid(installs);
        self.regrid_sweeps += 1;
        self.regrid_leaves += splits.len() as u64;
        rv_machine::memory::note_arena_bytes(self.tree.resident_bytes());
        RegridReport {
            leaves_refined: splits.len(),
        }
    }

    /// Current simulation time.
    pub fn sim_time(&self) -> f64 {
        self.sim_time
    }
}

/// What a run stopped by a non-finite `dt` names ([`hydro::global_dt`]'s
/// culprit): the first owned leaf, in leaf order, whose CFL rate (`rates`,
/// one per owned leaf) is not a positive finite number — the one that
/// poisoned the fold — and the field and cell of its first non-finite value
/// (`first_non_finite` of the `k`-th owned leaf). The failure path only: one
/// leaf is scanned.
fn poisoned_leaf(
    owned: &[usize],
    rates: impl Iterator<Item = f64>,
    first_non_finite: impl Fn(usize) -> Option<(usize, [usize; 3])>,
) -> String {
    let mut rates = rates.enumerate();
    let Some((k, rate)) = rates.find(|&(_, r)| !(r.is_finite() && r > 0.0)) else {
        return "no owned leaf has a non-finite CFL rate".to_string();
    };
    let pos = owned[k];
    let value = match first_non_finite(k) {
        Some((f, [i, j, k])) => format!(
            "its first non-finite value is field {} at cell ({i}, {j}, {k})",
            field::NAMES[f]
        ),
        None => "its interior is finite".to_string(),
    };
    format!("leaf {pos} has CFL rate {rate}, {value}")
}

/// The observability side of a timed run, the same for one locality and for
/// several: `--trace-out` switches the tracer on and makes the step loop
/// sample the counters — at the start, at every step boundary and at the
/// end, on the calling thread. The caller owns the step loop and the
/// counters. Without the flag nothing is sampled and nothing allocated.
pub(crate) struct RunObserver {
    registry: CounterRegistry,
    /// `--trace-out`: the file, and the counters at every sample so far.
    traced: Option<(String, apex_lite::TimeSeries)>,
    start: Instant,
}

impl RunObserver {
    /// Switch on what `config` asks for and start the clock. `sample` reads
    /// `registry` plus whatever counters the caller keeps itself.
    pub(crate) fn start(
        config: &OctoConfig,
        registry: CounterRegistry,
        sample: impl FnOnce(&CounterRegistry) -> CounterSnapshot,
    ) -> Self {
        let traced = config.trace_out.clone().map(|path| {
            trace::reset();
            trace::set_enabled(true);
            let mut series = apex_lite::TimeSeries::default();
            series.push(trace::now_ns(), &sample(&registry));
            (path, series)
        });
        RunObserver {
            registry,
            traced,
            start: Instant::now(),
        }
    }

    pub(crate) fn registry(&self) -> &CounterRegistry {
        &self.registry
    }

    /// One step finished: a traced run samples its counters.
    pub(crate) fn step_done(&mut self, sample: impl FnOnce(&CounterRegistry) -> CounterSnapshot) {
        if let Some((_, series)) = &mut self.traced {
            series.push(trace::now_ns(), &sample(&self.registry));
        }
    }

    pub(crate) fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// End of a traced run: `counters`, its final snapshot, is the last
    /// sample, and the trace is written with the series as counter tracks.
    pub(crate) fn finish(self, counters: &CounterSnapshot) {
        let Some((path, mut series)) = self.traced else {
            return;
        };
        series.push(trace::now_ns(), counters);
        trace::set_enabled(false);
        let t = trace::drain();
        if let Err(e) = std::fs::write(&path, apex_lite::export_with_counters(&t, &series)) {
            eprintln!("warning: failed to write trace to {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;
    use crate::star::field;
    use distrib::{Encode, Payload};

    fn tiny_config(kernel: KernelType) -> OctoConfig {
        OctoConfig {
            max_level: 1,
            stop_step: 2,
            threads: 2,
            ..OctoConfig::with_all_kernels(kernel)
        }
    }

    #[test]
    fn run_produces_metrics() {
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let m = d.run(2);
        assert_eq!(m.steps, 2);
        assert_eq!(m.cell_count, m.leaf_count * CELLS);
        assert_eq!(m.cells_processed, 2 * m.cell_count as u64);
        assert!(m.cells_per_second > 0.0);
        assert!(m.work.flops() > 0);
        assert!(m.sim_time > 0.0);
        assert!(m.runtime_stats.tasks_spawned > 0);

        // What a run counts is a function of its configuration, not of the
        // machine. Level 2 (64 leaves), 4 steps, 2 workers: one list build
        // of one MAC evaluation per leaf pair, hits after it; 4 kernel
        // tasks per leaf per step, and with the root task 257 tasks per
        // step.
        let mut d = Driver::new(OctoConfig {
            max_level: 2,
            stop_step: 4,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let m = d.run(2);
        assert_eq!(m.leaf_count, 64);
        assert_eq!((m.cache.misses, m.cache.hits), (1, 3));
        assert_eq!(m.work.mac_evals, 64 * 64);
        assert_eq!(d.aggregation_stats().fused_launches, 4 * 64 * 4);
        assert_eq!(m.runtime_stats.tasks_spawned, 4 * 257);
    }

    /// Two steps of a level-3 tree on one worker, each against a serial walk
    /// from the pre-step state: every leaf gathers its frame from the old
    /// interiors, then every leaf takes its update and then its gravity
    /// source, once. Equal bits mean each owned leaf was written back exactly
    /// once per step, and never before a task that reads it had gathered.
    /// The results held at once stay under a quarter of the leaves.
    #[test]
    fn each_leaf_is_written_back_once_after_its_last_reader() {
        let cfg = OctoConfig {
            max_level: 3,
            simd_width: 0,
            ..tiny_config(KernelType::Legacy)
        };
        let (mut d, mut walk) = (Driver::new(cfg.clone()), Driver::new(cfg.clone()));
        let rt = Runtime::new(1);
        let kernels = GravityKernels {
            multipole: &Dispatch::Legacy,
            monopole: &Dispatch::Legacy,
            simd: cfg.simd_policy(),
        };
        let mut frame = vec![0.0; FRAME_LEN];
        for step in 0..2 {
            let dt = d.step(&rt);
            let tree = &mut walk.tree;
            tree.plan_ghosts(|_| true);
            let leaves = tree.leaf_ids().to_vec();
            let blocks: Vec<BlockSoA> = (leaves.iter())
                .map(|&leaf| gravity::compute_blocks(tree.subgrid(leaf)))
                .collect();
            let moments = gravity::upward_pass(tree, &blocks);
            let pos = gravity::leaf_positions(tree);
            let updates: Vec<_> = (leaves.iter().enumerate())
                .map(|(p, &leaf)| {
                    tree.gather_frame(p, &mut frame, |n| tree.subgrid(n));
                    let mut state = vec![[0.0; NF]; CELLS];
                    let (grid, policy) = (tree.subgrid(leaf), cfg.simd_policy());
                    let legacy = &Dispatch::Legacy;
                    hydro::step_interior_staged_into(
                        grid, &mut frame, dt, legacy, policy, &mut state,
                    );
                    let theta = cfg.theta;
                    let acc = gravity::accel_for_leaf(
                        tree, &moments, &blocks, &pos, leaf, theta, &kernels,
                    );
                    (state, acc)
                })
                .collect();
            for (&leaf, (state, acc)) in leaves.iter().zip(updates) {
                hydro::apply_interior(tree.subgrid_mut(leaf), &state);
                hydro::apply_gravity_source(tree.subgrid_mut(leaf), &acc, dt);
            }
            assert_eq!(d.leaf_hashes(), walk.leaf_hashes(), "step {step}");
        }
        let mut snap = CounterSnapshot::default();
        d.counters_into(&mut snap);
        let held = snap.count("/step/held_results_hwm");
        assert!(
            held > 0 && 4 * held <= d.owned_leaves().len() as u64,
            "{held} held"
        );
    }

    /// A small star in one octant: 22 leaves at level 3, 8 of them in one
    /// level-2 node, level jumps on every side.
    struct OffCentre(RotatingStar);

    impl InitialModel for OffCentre {
        fn density_at(&self, x: f64, y: f64, z: f64) -> f64 {
            self.0.density_at(x - 0.75, y - 0.75, z - 0.75)
        }

        fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
            InitialModel::conserved_at(&self.0, x - 0.75, y - 0.75, z - 0.75)
        }

        fn reference_density(&self) -> f64 {
            self.0.reference_density()
        }
    }

    /// The plan is the step's only ordering: fifty seeded random
    /// topological orders of it, each run serially from the same state, give
    /// the bits of the task executor on two workers — on the 22-leaf tree,
    /// and on the next generation's plan after a regrid whose 2:1 closure
    /// cascades (36 leaves).
    fn every_order_gives_the_executor_s_bits(regrid: bool) {
        let cfg = OctoConfig {
            max_level: 3,
            simd_width: 0,
            ..OctoConfig::default()
        };
        let star = OffCentre(RotatingStar::new(0.2, 1.0, 0.2));
        let rt = Runtime::new(2);
        let start = || {
            let mut d = Driver::with_model(&star, cfg.clone());
            assert_eq!(d.tree().leaf_count(), 22);
            if regrid {
                let victim = d.tree().leaf_ids()[10];
                assert_eq!(d.regrid(&rt, &[victim]).leaves_refined, 2);
            }
            d
        };
        let mut d = start();
        d.step(&rt);
        let want = d.leaf_hashes();
        for seed in 0..50 {
            let mut d = start();
            d.step_by(&rt.handle(), |plan, run| {
                StepPlan::execute_shuffled(seed, &[(plan, run)])
            });
            assert_eq!(d.leaf_hashes(), want, "order {seed}");
        }
    }

    /// The deposits are the only ordering between two localities: fifty
    /// seeded random orders over both localities' plans, each deposit
    /// delivered at a random point after its send, give every owned leaf the
    /// node-level bits after two steps (the second step's halo differs from
    /// the data a locality starts with).
    #[test]
    fn every_order_of_two_localities_gives_the_node_level_bits() {
        let cfg = OctoConfig {
            max_level: 3,
            simd_width: 0,
            ..OctoConfig::default()
        };
        let star = OffCentre(RotatingStar::new(0.2, 1.0, 0.2));
        let rt = Runtime::new(2);
        let mut d = Driver::with_model(&star, cfg.clone());
        d.step(&rt);
        d.step(&rt);
        let want = d.leaf_hashes();
        let handle = rt.handle();
        for seed in 0..50 {
            let mut halves: Vec<Driver> = (0..2)
                .map(|node| Driver::for_locality(&star, cfg.clone(), node, 2))
                .collect();
            let [a, b] = &mut halves[..] else {
                unreachable!("two localities")
            };
            for step in 0..2 {
                let mut dt_b = 0.0;
                let dt_a = a.step_by(&handle, |plan_a, run_a| {
                    dt_b = b.step_by(&handle, |plan_b, run_b| {
                        let seed = 2 * seed + step;
                        StepPlan::execute_shuffled(seed, &[(plan_a, run_a), (plan_b, run_b)])
                    });
                });
                assert_eq!(dt_a.to_bits(), dt_b.to_bits(), "order {seed}, step {step}");
            }
            for d in &halves {
                for &pos in d.owned_leaves() {
                    assert_eq!(d.leaf_hash(pos), want[pos], "order {seed}, leaf {pos}");
                }
            }
        }
    }

    /// A peer's deposit that names a leaf that is not its own here, carries
    /// an interior of the wrong length, or whose image does not read — cut
    /// short, or with bytes left over behind its last entry — stops the step
    /// with a message that names the sender (and the position, where there
    /// is one). Nothing of it is written: each leaf of the peer's held here
    /// keeps its hash, even where the image's first entries are whole.
    #[test]
    fn a_bad_deposit_stops_the_step_naming_sender_and_leaf() {
        let star = RotatingStar::paper_default();
        let cfg = tiny_config(KernelType::Legacy);
        let rt = Runtime::new(1);
        // A leaf of this locality's, and the peer's that it reads.
        let mut d = Driver::for_locality(&star, cfg.clone(), 0, 2);
        let mask = d.ownership.mask.clone();
        let mine = d.owned_leaves()[0] as u64;
        let halo: Vec<u64> = (d.tree.halo_sources(|pos| mask[pos]).into_iter())
            .map(|pos| pos as u64)
            .collect();
        assert!(halo.len() >= 2, "{halo:?}");
        let image = |value: &dyn Encode| distrib::to_bytes(value).expect("encodes");
        let whole = || vec![0.0; NF * CELLS];
        // Every leaf the peer's gathers read, with new values.
        let fresh: Vec<(u64, Vec<f64>)> = halo
            .iter()
            .map(|&pos| (pos, vec![1.5; NF * CELLS]))
            .collect();
        let no_blocks = image(&Vec::<(u64, BlockSoA)>::new());
        let not_theirs = "not one of its leaves held here";
        let unread = "that does not read";
        let cut = |mut image: Vec<u8>| {
            image.pop();
            image
        };
        let longer = |mut image: Vec<u8>| {
            image.push(0);
            image
        };
        for (halo_image, blocks_image, want) in [
            (
                image(&vec![(99u64, whole())]),
                no_blocks.clone(),
                format!("a halo for leaf position 99: {not_theirs}"),
            ),
            (
                image(&vec![(mine, whole())]),
                no_blocks.clone(),
                format!("a halo for leaf position {mine}: {not_theirs}"),
            ),
            (
                image(&vec![(halo[0], vec![0.0; 5])]),
                no_blocks.clone(),
                format!("leaf position {}: 5 values, not {}", halo[0], NF * CELLS),
            ),
            (
                image(&Vec::<(u64, Vec<f64>)>::new()),
                image(&vec![(mine, BlockSoA::zero())]),
                format!("blocks for leaf position {mine}: {not_theirs}"),
            ),
            (
                cut(image(&fresh)),
                no_blocks.clone(),
                format!("a halo {unread}: unexpected end of parcel payload"),
            ),
            (
                longer(image(&fresh)),
                no_blocks.clone(),
                format!("a halo {unread}: 1 trailing bytes after decode"),
            ),
        ] {
            let mut d = Driver::for_locality(&star, cfg.clone(), 0, 2);
            let hashes = |d: &Driver| -> Vec<u64> {
                halo.iter().map(|&pos| d.leaf_hash(pos as usize)).collect()
            };
            let before = hashes(&d);
            let arrivals = [halo_image, image(&1.0), blocks_image];
            let link = Link {
                arrivals: (arrivals.into_iter())
                    .map(|image| amt::make_ready_future(Payload::from(image)))
                    .collect(),
                send: &|_, _| amt::make_ready_future(()),
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                d.step_with(&rt.handle(), Some(link))
            }));
            let payload = run.expect_err("a bad deposit must stop the step");
            let message = payload.downcast_ref::<String>().expect("panic message");
            assert!(message.starts_with("step 0: locality 1 "), "{message}");
            assert!(message.ends_with(&want), "{message}");
            assert_eq!(hashes(&d), before, "{want}");
        }
    }

    /// On one worker the real executor runs every hydro task and write-back
    /// before the first gravity task, and each leaf's source right after its
    /// gravity task: no acceleration waits for its write-back.
    #[test]
    fn one_worker_runs_hydro_and_write_backs_before_gravity() {
        let mut d = Driver::new(OctoConfig {
            max_level: 2,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let rt = Runtime::new(1);
        let handle = rt.handle();
        for step in 0..2 {
            let kinds = Mutex::new(Vec::new());
            d.step_by(&handle, |plan, run| {
                plan.execute(&handle, None, &|node, deposit, ship| {
                    kinds.lock().expect("log").push(node.0);
                    run(node, deposit, ship)
                })
            });
            let kinds = kinds.into_inner().expect("log");
            let first = (kinds.iter()).position(|&kind| kind == Gravity);
            let (before, after) = kinds.split_at(first.expect("gravity ran"));
            let count = |kinds: &[_], kind| kinds.iter().filter(|&&k| k == kind).count();
            let n = d.owned_leaves().len();
            assert_eq!(count(before, Hydro), n, "step {step}: hydro");
            assert_eq!(count(before, WriteBack), n, "step {step}: write-backs");
            assert!(
                after.chunks(2).all(|pair| pair == [Gravity, Source]),
                "step {step}: each source right after its gravity task"
            );
        }
    }

    #[test]
    fn every_topological_order_of_the_plan_gives_the_same_bits() {
        every_order_gives_the_executor_s_bits(false);
    }

    #[test]
    fn every_topological_order_after_a_regrid_gives_the_same_bits() {
        every_order_gives_the_executor_s_bits(true);
    }

    /// The step buffers belong to the generation: every step leaves each
    /// leaf's slot empty, and the first step after a regrid sizes them for
    /// the new tree.
    #[test]
    fn every_step_leaves_its_slots_empty() {
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        let check = |d: &Driver, label: &str| {
            let b = d
                .ownership
                .buffers
                .as_ref()
                .expect("this generation's buffers");
            assert_eq!(b.blocks.len(), d.tree().leaf_count(), "{label}");
            assert_eq!(b.slots.len(), d.owned_leaves().len(), "{label}");
            for slot in &b.slots {
                let slot = slot.lock().expect("slot");
                assert!(slot.result.is_none(), "{label}: a result is held");
                assert!(slot.accel.is_none(), "{label}: an acceleration is held");
            }
        };
        for step in 0..2 {
            d.step(&rt);
            check(&d, &format!("step {step}"));
        }
        let victim = d.tree().leaf_ids()[0];
        assert!(d.regrid(&rt, &[victim]).leaves_refined > 0);
        for step in 2..4 {
            d.step(&rt);
            check(&d, &format!("step {step}, after a regrid"));
        }
    }

    #[test]
    fn dt_is_positive_and_stable() {
        let mut d = Driver::new(tiny_config(KernelType::Legacy));
        let rt = Runtime::new(2);
        let dt1 = d.step(&rt);
        let dt2 = d.step(&rt);
        assert!(dt1 > 0.0 && dt2 > 0.0);
        // Quasi-static star: dt should not collapse between steps.
        assert!(dt2 > 0.25 * dt1, "dt collapsed: {dt1} -> {dt2}");
    }

    /// One NaN density: `f64::max` drops the cell from its leaf's CFL rate,
    /// so step 0 still gets a `dt`; its gravity solve carries the NaN mass
    /// into every leaf's momenta, and step 1's reduction must stop the run
    /// (it panics inside a task and rethrows at the scope's join), naming
    /// the first leaf and, in storage order, its first non-finite value.
    #[test]
    fn nan_in_the_state_stops_the_run_at_the_next_cfl_reduction() {
        let mut d = Driver::new(tiny_config(KernelType::Legacy));
        let leaf = d.tree.leaf_ids()[0];
        d.tree.subgrid_mut(leaf).set(field::RHO, 3, 3, 3, f64::NAN);
        let rt = Runtime::new(2);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..3 {
                d.step(&rt);
            }
        }));
        let payload = run.expect_err("a poisoned run must not finish");
        let message = payload.downcast_ref::<String>().expect("panic message");
        assert!(
            message.starts_with("step 1: the CFL reduction returned dt = NaN"),
            "{message}"
        );
        assert!(
            message.ends_with(
                ": leaf 0 has CFL rate -inf, its first non-finite value is field sx at cell (0, 0, 0)"
            ),
            "{message}"
        );
    }

    /// Each locality gathers the frames of what it owns from the leaves it
    /// holds — its own and its halo; leaf for leaf, the two replicas' frames
    /// are the node-level ones, and their halo sets are exactly what the
    /// other side reads.
    #[test]
    fn owned_gathered_frames_equal_the_node_level_ones() {
        let cfg = OctoConfig {
            max_level: 2,
            ..OctoConfig::default()
        };
        let star = RotatingStar::paper_default();
        let mut node_level = Driver::new(cfg.clone());
        let census = node_level.tree.plan_ghosts(|_| true);
        let mut halves: Vec<Driver> = (0..2)
            .map(|node| Driver::for_locality(&star, cfg.clone(), node, 2))
            .collect();
        let (mut want, mut got) = (vec![f64::NAN; FRAME_LEN], vec![f64::NAN; FRAME_LEN]);
        let mut owned_total = 0;
        let mut faces = GhostFaces::default();
        for d in &mut halves {
            let mask = d.ownership.mask.clone();
            let owned = d.tree.plan_ghosts(|pos| mask[pos]);
            faces.slab += owned.slab;
            faces.indexed += owned.indexed;
            let (reference, tree) = (&node_level.tree, &d.tree);
            for &pos in d.owned_leaves() {
                reference.gather_frame(pos, &mut want, |n| reference.subgrid(n));
                tree.gather_frame(pos, &mut got, |n| tree.subgrid(n));
                assert!(got
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
                owned_total += 1;
            }
            assert_eq!(d.tree.ghost_stats().plan_rebuilds, 1);
        }
        assert_eq!(owned_total, node_level.tree.leaf_count());
        assert_eq!(faces, census, "between them, every face once");
        // What one side ships is what the other side's plan reads.
        for (mine, theirs) in [(0, 1), (1, 0)] {
            let mask = halves[theirs].ownership.mask.clone();
            let read = halves[theirs].tree.halo_sources(|pos| mask[pos]);
            assert!(!read.is_empty());
            assert_eq!(halves[mine].ownership.halo_out, read);
        }
        assert!(node_level.owned_leaves().len() == owned_total);
        assert!(node_level.ownership.halo_out.is_empty());
    }

    #[test]
    fn mass_approximately_conserved_over_steps() {
        // The star is in near-equilibrium; over two short steps mass change
        // should be tiny (boundary outflow of floor material only).
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let before = d.tree().total_mass();
        let rt = Runtime::new(2);
        d.step(&rt);
        d.step(&rt);
        let after = d.tree().total_mass();
        assert!(
            ((after - before) / before).abs() < 0.01,
            "mass drifted {before} -> {after}"
        );
    }

    #[test]
    fn density_stays_positive_everywhere() {
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        for _ in 0..3 {
            d.step(&rt);
        }
        for &leaf in d.tree().leaf_ids() {
            let g = d.tree().subgrid(leaf);
            for c in 0..CELLS {
                let (i, j, k) = crate::hydro::cell_coords(c);
                assert!(g.at(field::RHO, i, j, k) > 0.0);
                assert!(g.at(field::EGAS, i, j, k) > 0.0);
            }
        }
    }

    #[test]
    fn all_kernel_backends_run_and_agree_on_structure() {
        let mut results = Vec::new();
        for kind in KernelType::ALL {
            let mut d = Driver::new(tiny_config(kind));
            let m = d.run(2);
            results.push((kind, m.leaf_count, m.sim_time));
        }
        // Same tree and same dt sequence regardless of backend.
        assert!(results.windows(2).all(|w| w[0].1 == w[1].1));
        for w in results.windows(2) {
            assert!(
                (w[0].2 - w[1].2).abs() < 1e-12,
                "sim time must not depend on dispatch backend: {results:?}"
            );
        }
    }

    #[test]
    fn interaction_cache_hits_across_steps() {
        let mut d = Driver::new(OctoConfig {
            stop_step: 4,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let m = d.run(2);
        // Static topology: one miss on the first step, hits after.
        assert_eq!(m.cache.misses, 1);
        assert_eq!(m.cache.hits, 3);
        // The rebuild-every-step reference traverses every step.
        let mut off = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        for _ in 0..4 {
            off.invalidate_interaction_lists();
            off.step(&rt);
        }
        assert_eq!(off.cache_stats().misses, 4);
        assert_eq!(off.cache_stats().hits, 0);
        assert!(
            off.work().mac_evals > m.work.mac_evals,
            "cache hits must not be billed MAC evaluations"
        );
    }

    #[test]
    fn noop_refine_keeps_cache_warm() {
        // Refining an already-refined node must not bump the topology
        // generation, so the interaction-list cache survives.
        let mut d = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        d.step(&rt);
        let victim = d.tree().leaf_ids()[0];
        d.regrid(&rt, &[victim]);
        let kids = d.tree().children_of(victim).expect("victim split");
        d.step(&rt); // miss: topology changed
        let gen = d.tree().generation();
        let again = d.regrid(&rt, &[victim]);
        assert_eq!(again.leaves_refined, 0, "a refined node is not split again");
        assert_eq!(d.tree().children_of(victim), Some(kids));
        assert_eq!(d.tree().generation(), gen);
        d.step(&rt); // hit: the cache must still be valid
        assert_eq!(d.cache_stats().misses, 2);
        assert_eq!(d.cache_stats().hits, 1);
    }

    #[test]
    fn refinement_between_solves_matches_uncached_driver() {
        // The ISSUE's regression test: refining the octree between solves
        // must invalidate the interaction-list cache, so a cached run stays
        // bitwise identical to one that rebuilds its lists before every step.
        let mut d_on = Driver::new(tiny_config(KernelType::KokkosSerial));
        let mut d_off = Driver::new(tiny_config(KernelType::KokkosSerial));
        let rt = Runtime::new(2);
        d_on.step(&rt);
        d_off.step(&rt);
        let leaf_on = d_on.tree().leaf_ids()[0];
        let leaf_off = d_off.tree().leaf_ids()[0];
        assert_eq!(leaf_on, leaf_off);
        let gen_before = d_on.tree().generation();
        d_on.regrid(&rt, &[leaf_on]);
        d_off.regrid(&rt, &[leaf_off]);
        assert!(d_on.tree().generation() > gen_before);
        d_on.step(&rt);
        d_off.invalidate_interaction_lists();
        d_off.step(&rt);
        assert_eq!(d_on.tree().leaf_count(), d_off.tree().leaf_count());
        for (&a, &b) in d_on.tree().leaf_ids().iter().zip(d_off.tree().leaf_ids()) {
            assert_eq!(a, b);
            let ga = d_on.tree().subgrid(a).interior_data();
            let gb = d_off.tree().subgrid(b).interior_data();
            assert_eq!(ga, gb, "cached run diverged from uncached after refine");
        }
        // Both steps of the cached run were misses: the initial build and
        // the rebuild forced by the generation bump.
        assert_eq!(d_on.cache_stats().misses, 2);
        assert_eq!(d_on.cache_stats().hits, 0);
    }

    #[test]
    fn work_estimate_scales_with_steps() {
        let mut d1 = Driver::new(OctoConfig {
            stop_step: 1,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let mut d2 = Driver::new(OctoConfig {
            stop_step: 2,
            ..tiny_config(KernelType::KokkosSerial)
        });
        let w1 = d1.run(1).work;
        let w2 = d2.run(1).work;
        assert_eq!(w2.hydro_flops, 2 * w1.hydro_flops);
        assert!(w2.gravity_flops >= w1.gravity_flops * 2 * 9 / 10);
    }

    #[test]
    fn work_estimate_does_not_follow_the_lane_count() {
        // The modelled program is charged in `gravity::SUM_GROUPS`, not in
        // the host's lanes: an ISA-following default must not move exhibits.
        let work = |simd_width| {
            Driver::new(OctoConfig {
                simd_width,
                ..OctoConfig::small_test()
            })
            .run(1)
            .work
        };
        let want = work(4);
        assert!(want.far_interactions > 0);
        assert_eq!(
            want.far_interactions % (gravity::SUM_GROUPS * gravity::BLOCKS) as u64,
            0
        );
        for width in [1, 2, 8] {
            assert_eq!(work(width), want, "width {width}");
        }
    }
}
