//! # Work aggregation — fusing per-leaf kernel launches into batched
//! SoA mega-streams
//!
//! The paper's per-sub-grid tasks are tiny (a leaf is 8³ cells, 4³
//! interaction blocks), so each kernel launch is too short to amortize
//! task-spawn overhead or keep wide SIMD lanes busy. Octo-Tiger solves
//! this with cppuddle-style *work aggregation* ("From Merging Frameworks
//! to Merging Stars", arXiv 2210.06439): many sub-grid invocations are
//! fused into one contiguous SoA launch, executed as a single task.
//!
//! This module is that layer for the mini app:
//!
//! * [`AggregationRegion`] packs leaf indices into batches with the
//!   parcel coalescer's *seal-on-full / seal-on-flush* protocol
//!   (`distrib::coalesce`): a batch seals the moment it reaches the
//!   configured size, and the stragglers seal when the region flushes.
//! * [`run_unified_gravity_batch`] gathers one batch's far-field tables
//!   into a single fused [`FarField`] (per-leaf sub-ranges addressed via
//!   [`FarField::range_view`], each segment padded to `SIMD_PAD` with
//!   sentinel rows so ragged-tail handling lands exactly on leaf
//!   boundaries without predicated loads), then solves every leaf of the
//!   batch inside one task. The near field needs no gather: its sources
//!   are whole `BlockSoA`s, which the P2P kernel sweeps where they lie.
//! * [`run_cfl_batch`] / [`run_p2m_batch`] / [`run_hydro_batch`] batch
//!   the remaining per-leaf families; the hydro batch writes all leaves
//!   into one fused state buffer (a batch-sized
//!   [`RecyclePool`] buffer class).
//! * [`run_gravity_stage`] drives the whole gravity fan-out through its
//!   regions.
//!
//! **Bitwise invariant**: a batch is a *contiguous* run of the step's work
//! items (the owned leaves, in leaf order) and every per-leaf slice of a fused stream sees exactly the data the
//! per-leaf path saw, in the same order, through the same kernels — so
//! any batch size produces bit-identical states, and batch size 1 *is*
//! today's per-leaf path (modulo one `Vec` of bookkeeping). The
//! `aggregation_prop` tests pin this for every width × batch-size combo.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use amt::par::scope;
use amt::Handle;
use apex_lite::trace::{self, Cat, SpanGuard};

use crate::gravity::{self, BlockSoA, FarField, GravityKernels, Moments, BLOCKS};
use crate::hydro::{self, HydroStage};
use crate::kernel_backend::{Dispatch, SimdPolicy};
use crate::octree::{NodeId, Octree};
use crate::recycle::RecyclePool;
use crate::star::NF;
use crate::subgrid::CELLS;

/// Per-family batch sizes — the `--monopole_host_tasks` /
/// `--multipole_host_tasks` / `--hydro_host_tasks` knobs, named after the
/// upstream Octo-Tiger spack variants (`max_kernels_fused` per kernel
/// family). A value of 1 disables aggregation for that family and
/// reproduces the per-leaf path bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationConfig {
    /// Leaves fused per near-field (P2P) launch.
    pub monopole: usize,
    /// Leaves fused per far-field (M2L) launch.
    pub multipole: usize,
    /// Leaves fused per CFL/hydro launch.
    pub hydro: usize,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            monopole: 1,
            multipole: 1,
            hydro: 1,
        }
    }
}

impl AggregationConfig {
    /// True when the two gravity families batch at the same size, letting
    /// one fused task run a leaf's M2L *and* P2P back to back (the common
    /// case, and the one that preserves per-leaf `gravity_solve` span
    /// durations). Unequal sizes split gravity into separate M2L-batch
    /// and P2P-batch task families joined per leaf.
    pub fn unified_gravity(&self) -> bool {
        self.monopole == self.multipole
    }
}

/// Atomic seal/launch counters behind the
/// `/work/aggregation/{batch_size_avg,seals_on_full,seals_on_flush,fused_launches}`
/// counters. One instance lives on the [`Driver`](crate::driver::Driver)
/// and is shared by every region of every step.
#[derive(Debug, Default)]
pub struct AggregationStats {
    items: AtomicU64,
    fused_launches: AtomicU64,
    seals_on_full: AtomicU64,
    seals_on_flush: AtomicU64,
}

/// Point-in-time copy of [`AggregationStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationSnapshot {
    /// Work items (leaves) that went through a region.
    pub items: u64,
    /// Batches launched (each is one `amt` task).
    pub fused_launches: u64,
    /// Batches sealed because they reached the configured size.
    pub seals_on_full: u64,
    /// Batches sealed by the end-of-stage flush (ragged tails).
    pub seals_on_flush: u64,
}

impl AggregationSnapshot {
    /// Mean leaves per launched batch (1.0 when aggregation is off).
    pub fn batch_size_avg(&self) -> f64 {
        if self.fused_launches == 0 {
            0.0
        } else {
            self.items as f64 / self.fused_launches as f64
        }
    }
}

impl AggregationStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn record_seal(&self, batch_len: usize, on_full: bool) {
        self.items.fetch_add(batch_len as u64, Ordering::Relaxed);
        self.fused_launches.fetch_add(1, Ordering::Relaxed);
        if on_full {
            self.seals_on_full.fetch_add(1, Ordering::Relaxed);
        } else {
            self.seals_on_flush.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sample the counters.
    pub fn snapshot(&self) -> AggregationSnapshot {
        AggregationSnapshot {
            items: self.items.load(Ordering::Relaxed),
            fused_launches: self.fused_launches.load(Ordering::Relaxed),
            seals_on_full: self.seals_on_full.load(Ordering::Relaxed),
            seals_on_flush: self.seals_on_flush.load(Ordering::Relaxed),
        }
    }
}

/// Packs work items (leaf indices) into batches using the parcel
/// coalescer's protocol: [`push`](Self::push) seals and hands back a
/// batch the moment it reaches `cap` items (*seal on full*), and
/// [`flush`](Self::flush) seals whatever remains at end of stage (*seal
/// on flush*). Items pushed in ascending order yield contiguous batches
/// — the property the fused-buffer slicing in the apply phase relies on.
pub struct AggregationRegion<'a> {
    cap: usize,
    buf: Vec<usize>,
    sealed: usize,
    stats: &'a AggregationStats,
}

impl<'a> AggregationRegion<'a> {
    /// Region sealing every `cap` items (`cap >= 1`).
    pub fn new(cap: usize, stats: &'a AggregationStats) -> Self {
        assert!(cap >= 1, "aggregation batch size must be >= 1");
        AggregationRegion {
            cap,
            buf: Vec::with_capacity(cap),
            sealed: 0,
            stats,
        }
    }

    /// Add one item; returns `(batch_index, batch)` when this item filled
    /// the batch.
    pub fn push(&mut self, item: usize) -> Option<(usize, Vec<usize>)> {
        self.buf.push(item);
        (self.buf.len() >= self.cap).then(|| self.seal(true))
    }

    /// Seal the ragged remainder, if any. Call exactly once, after the
    /// last `push`.
    pub fn flush(&mut self) -> Option<(usize, Vec<usize>)> {
        (!self.buf.is_empty()).then(|| self.seal(false))
    }

    /// Batches sealed so far.
    pub fn sealed(&self) -> usize {
        self.sealed
    }

    fn seal(&mut self, on_full: bool) -> (usize, Vec<usize>) {
        let batch = std::mem::take(&mut self.buf);
        self.stats.record_seal(batch.len(), on_full);
        let index = self.sealed;
        self.sealed += 1;
        (index, batch)
    }

    /// Number of batches `n` items produce at batch size `cap` — what the
    /// step's last-arriver counters count.
    pub fn batch_count(n: usize, cap: usize) -> usize {
        n.div_ceil(cap)
    }
}

/// Trace span marking one fused launch. Emitted only when the family
/// actually aggregates (`cap > 1`) so a batch-size-1 trace stays
/// identical to the pre-aggregation baseline.
pub fn launch_span(cap: usize) -> Option<SpanGuard> {
    (cap > 1).then(|| trace::span(Cat::Task, "aggregate_launch"))
}

/// Reusable buffers for one gravity batch: the fused far table with
/// per-leaf sub-ranges and the per-block accumulators. All grow-only,
/// recycled via [`BatchScratches`].
#[derive(Default)]
pub struct BatchScratch {
    /// Fused far-field table of the whole batch.
    pub far: FarField,
    /// Per-leaf `(start, len)` source ranges into `far`, batch order.
    pub far_ranges: Vec<(usize, usize)>,
    /// Far-field acceleration per block of the leaf being solved.
    block_acc: Vec<[f64; 3]>,
    /// Near-field acceleration per block of the leaf being solved.
    near_acc: Vec<[f64; 3]>,
}

impl BatchScratch {
    /// Fresh scratch with the per-block accumulators pre-sized.
    pub fn new() -> Self {
        BatchScratch {
            block_acc: vec![[0.0; 3]; BLOCKS],
            near_acc: vec![[0.0; 3]; BLOCKS],
            ..Self::default()
        }
    }

    fn clear(&mut self) {
        self.far.clear();
        self.far_ranges.clear();
        self.block_acc.resize(BLOCKS, [0.0; 3]);
        self.near_acc.resize(BLOCKS, [0.0; 3]);
    }
}

/// Shared free list of [`BatchScratch`] buffers (take / put / idle). Batch
/// streams have data-dependent lengths, so they recycle here as grow-only
/// buffers rather than through the length-keyed [`RecyclePool`].
#[derive(Default)]
pub struct BatchScratches {
    pool: Mutex<Vec<BatchScratch>>,
}

impl BatchScratches {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a scratch buffer (fresh if the pool is dry); `clear` sizes the
    /// per-block accumulators either way.
    pub fn take(&self) -> BatchScratch {
        let mut s = self
            .pool
            .lock()
            .expect("batch scratch pool lock")
            .pop()
            .unwrap_or_default();
        s.clear();
        s
    }

    /// Return a scratch buffer for reuse.
    pub fn put(&self, s: BatchScratch) {
        self.pool.lock().expect("batch scratch pool lock").push(s);
    }

    /// Number of pooled (idle) buffers.
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("batch scratch pool lock").len()
    }
}

/// Per-leaf gravity result: cell accelerations plus far/near interaction
/// counts for work accounting.
pub type AccelEntry = (Vec<[f64; 3]>, u64, u64);

/// Fan-out slot one gravity solve writes its [`AccelEntry`] into.
pub type AccelSlot = Mutex<Option<AccelEntry>>;

/// Split-gravity join slot: `(M2L block accelerations, P2P block
/// accelerations)` for one leaf, filled by the two batch families.
pub type HalfSlot = Mutex<(Option<Vec<[f64; 3]>>, Option<Vec<[f64; 3]>>)>;

/// Everything a gravity batch task needs, borrowed from the step.
pub struct GravityBatchCtx<'a> {
    /// The (immutable-for-the-step) octree.
    pub tree: &'a Octree,
    /// Upward-pass moments, node order.
    pub moments: &'a [Moments],
    /// P2M blocks of *every* leaf, leaf order (sources may be owned elsewhere).
    pub blocks: &'a [BlockSoA],
    /// `NodeId` → leaf-order position.
    pub leaf_pos: &'a [usize],
    /// Ids of the step's leaves (the owned ones, leaf order) — what batch
    /// items index into.
    pub leaves: &'a [NodeId],
    /// Cached interaction lists, leaf order.
    pub lists: &'a [(Vec<NodeId>, Vec<NodeId>)],
    /// Execution spaces + SIMD width of the kernels.
    pub kernels: &'a GravityKernels<'a>,
    /// Batch scratch recycling.
    pub scratch: &'a BatchScratches,
}

impl GravityBatchCtx<'_> {
    fn lists_for(&self, idx: usize) -> &(Vec<NodeId>, Vec<NodeId>) {
        &self.lists[self.leaf_pos[self.leaves[idx]]]
    }
}

/// Gather one batch's far tables into one fused [`FarField`], with per-leaf
/// sub-ranges recorded in batch order. Every segment is padded, so segments
/// stay SIMD_PAD-aligned with sentinel rows in between and each sub-range
/// view full-loads its ragged tail instead of predicating it.
fn gather_far(ctx: &GravityBatchCtx<'_>, batch: &[usize], scratch: &mut BatchScratch) {
    for &idx in batch {
        let (far, _) = ctx.lists_for(idx);
        let start = scratch.far.push_segment(ctx.moments, far);
        scratch.far_ranges.push((start, far.len()));
    }
}

/// M2L for the `k`-th leaf of a gathered batch: the same multipole kernel
/// the per-leaf path runs, pointed at this leaf's sub-range view of the
/// fused far table (padded tail at the leaf boundary). Writes
/// `scratch.block_acc`.
fn m2l_for_leaf(ctx: &GravityBatchCtx<'_>, scratch: &mut BatchScratch, k: usize, idx: usize) {
    let tb = &ctx.blocks[ctx.leaf_pos[ctx.leaves[idx]]];
    let (start, len) = scratch.far_ranges[k];
    let ffv = scratch.far.range_view(start, len);
    gravity::m2l_blocks(ctx.kernels, tb, ffv, &mut scratch.block_acc);
}

/// P2P for one leaf: the per-leaf path's in-place sweep over the near
/// list's blocks. Writes `scratch.near_acc`.
fn p2p_for_leaf(ctx: &GravityBatchCtx<'_>, scratch: &mut BatchScratch, idx: usize) {
    let target = ctx.leaves[idx];
    let (_, dx) = ctx.tree.node_geometry(target);
    gravity::p2p_blocks(
        ctx.kernels,
        ctx.blocks,
        ctx.leaf_pos,
        &ctx.blocks[ctx.leaf_pos[target]],
        &ctx.lists_for(idx).1,
        gravity::softening(dx),
        &mut scratch.near_acc,
    );
}

fn accel_entry(ctx: &GravityBatchCtx<'_>, idx: usize, acc: Vec<[f64; 3]>) -> AccelEntry {
    let (far, near) = ctx.lists_for(idx);
    (acc, far.len() as u64, near.len() as u64)
}

/// One *unified* gravity batch (M2L and P2P fused at the same size):
/// gather the whole batch's sources, then solve each leaf back to back
/// inside this single task, each under its own `gravity_solve` span.
/// `record` feeds the gravity envelope for the overlap counter; results
/// land in `out` by leaf index.
pub fn run_unified_gravity_batch(
    ctx: &GravityBatchCtx<'_>,
    batch: &[usize],
    record: &(dyn Fn(u64, u64) + Sync),
    out: &[AccelSlot],
) {
    let mut scratch = ctx.scratch.take();
    gather_far(ctx, batch, &mut scratch);
    for (k, &idx) in batch.iter().enumerate() {
        let t0 = trace::now_ns();
        let _span = trace::span(Cat::Phase, "gravity_solve");
        m2l_for_leaf(ctx, &mut scratch, k, idx);
        p2p_for_leaf(ctx, &mut scratch, idx);
        let acc = gravity::scatter_block_accel(&scratch.block_acc, &scratch.near_acc);
        *out[idx].lock().expect("accel slot") = Some(accel_entry(ctx, idx, acc));
        record(t0, trace::now_ns());
    }
    ctx.scratch.put(scratch);
}

/// Last-arriver join of the split-gravity path: when both halves of a
/// leaf have landed, combine and scatter them. The per-leaf pending
/// counter starts at 2; whichever batch family decrements it to zero
/// finishes the leaf.
fn finish_split_leaf(
    ctx: &GravityBatchCtx<'_>,
    idx: usize,
    halves: &[HalfSlot],
    pending: &[AtomicU8],
    out: &[AccelSlot],
) {
    if pending[idx].fetch_sub(1, Ordering::AcqRel) != 1 {
        return;
    }
    let (block_acc, near_acc) = {
        let mut slot = halves[idx].lock().expect("half slot");
        (
            slot.0.take().expect("m2l half done"),
            slot.1.take().expect("p2p half done"),
        )
    };
    let _span = trace::span(Cat::Phase, "gravity_solve");
    let acc = gravity::scatter_block_accel(&block_acc, &near_acc);
    *out[idx].lock().expect("accel slot") = Some(accel_entry(ctx, idx, acc));
}

/// One M2L-only batch of the split-gravity path (unequal batch sizes):
/// far tables fused, each leaf's block accelerations parked in its
/// [`HalfSlot`], and any leaf whose P2P half already landed is finished
/// here.
pub fn run_m2l_batch(
    ctx: &GravityBatchCtx<'_>,
    batch: &[usize],
    halves: &[HalfSlot],
    pending: &[AtomicU8],
    record: &(dyn Fn(u64, u64) + Sync),
    out: &[AccelSlot],
) {
    let mut scratch = ctx.scratch.take();
    gather_far(ctx, batch, &mut scratch);
    for (k, &idx) in batch.iter().enumerate() {
        let t0 = trace::now_ns();
        m2l_for_leaf(ctx, &mut scratch, k, idx);
        halves[idx].lock().expect("half slot").0 = Some(scratch.block_acc.clone());
        record(t0, trace::now_ns());
        finish_split_leaf(ctx, idx, halves, pending, out);
    }
    ctx.scratch.put(scratch);
}

/// One P2P-only batch of the split-gravity path — mirror of
/// [`run_m2l_batch`]; nothing to gather.
pub fn run_p2p_batch(
    ctx: &GravityBatchCtx<'_>,
    batch: &[usize],
    halves: &[HalfSlot],
    pending: &[AtomicU8],
    record: &(dyn Fn(u64, u64) + Sync),
    out: &[AccelSlot],
) {
    let mut scratch = ctx.scratch.take();
    for &idx in batch {
        let t0 = trace::now_ns();
        p2p_for_leaf(ctx, &mut scratch, idx);
        halves[idx].lock().expect("half slot").1 = Some(scratch.near_acc.clone());
        record(t0, trace::now_ns());
        finish_split_leaf(ctx, idx, halves, pending, out);
    }
    ctx.scratch.put(scratch);
}

/// Drive the whole gravity fan-out through aggregation regions: unified
/// batches when both gravity families share a size, otherwise separate
/// M2L/P2P batch families with per-leaf last-arriver joins. Opens its own
/// task scope (a barrier over the stage).
pub fn run_gravity_stage(
    handle: &Handle,
    ctx: &GravityBatchCtx<'_>,
    cfg: AggregationConfig,
    stats: &AggregationStats,
    record: &(dyn Fn(u64, u64) + Sync),
    out: &[AccelSlot],
) {
    let n = ctx.leaves.len();
    if cfg.unified_gravity() {
        let cap = cfg.multipole;
        scope(handle, |sc| {
            let mut region = AggregationRegion::new(cap, stats);
            let spawn = |batch: Vec<usize>| {
                sc.spawn(move || {
                    let _launch = launch_span(cap);
                    run_unified_gravity_batch(ctx, &batch, record, out);
                });
            };
            for idx in 0..n {
                if let Some((_, batch)) = region.push(idx) {
                    spawn(batch);
                }
            }
            if let Some((_, batch)) = region.flush() {
                spawn(batch);
            }
        });
    } else {
        let pending: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(2)).collect();
        let halves: Vec<HalfSlot> = (0..n).map(|_| Mutex::new((None, None))).collect();
        let (pending, halves) = (&pending[..], &halves[..]);
        scope(handle, |sc| {
            let mut m2l_region = AggregationRegion::new(cfg.multipole, stats);
            let mut p2p_region = AggregationRegion::new(cfg.monopole, stats);
            let spawn_m2l = |batch: Vec<usize>| {
                let cap = cfg.multipole;
                sc.spawn(move || {
                    let _launch = launch_span(cap);
                    run_m2l_batch(ctx, &batch, halves, pending, record, out);
                });
            };
            let spawn_p2p = |batch: Vec<usize>| {
                let cap = cfg.monopole;
                sc.spawn(move || {
                    let _launch = launch_span(cap);
                    run_p2p_batch(ctx, &batch, halves, pending, record, out);
                });
            };
            for idx in 0..n {
                if let Some((_, batch)) = m2l_region.push(idx) {
                    spawn_m2l(batch);
                }
                if let Some((_, batch)) = p2p_region.push(idx) {
                    spawn_p2p(batch);
                }
            }
            if let Some((_, batch)) = m2l_region.flush() {
                spawn_m2l(batch);
            }
            if let Some((_, batch)) = p2p_region.flush() {
                spawn_p2p(batch);
            }
        });
    }
}

/// Everything a CFL/hydro batch task needs, borrowed from the step.
pub struct HydroBatchCtx<'a> {
    /// The (immutable-until-apply) octree.
    pub tree: &'a Octree,
    /// Ids of the step's leaves (the owned ones, leaf order).
    pub leaves: &'a [NodeId],
    /// Execution space of the hydro kernels.
    pub dispatch: &'a Dispatch,
    /// SIMD width policy.
    pub policy: SimdPolicy,
    /// Pool of `[f64; NF]` state buffers — fused batch buffers
    /// (`batch_len × CELLS`) recycle here as batch-sized classes.
    pub state_pool: &'a RecyclePool<[f64; NF]>,
    /// Pool behind the SoA primitive staging views.
    pub stage_pool: &'a RecyclePool<f64>,
}

/// One CFL batch: per-leaf max-signal-speed (plus SoA staging at vector
/// widths) for every leaf of the batch inside one task.
pub fn run_cfl_batch(
    ctx: &HydroBatchCtx<'_>,
    batch: &[usize],
    speeds: &[AtomicU64],
    stage_slots: &[Mutex<Option<HydroStage>>],
) {
    for &idx in batch {
        let _span = trace::span(Cat::Phase, "cfl_leaf");
        let g = ctx.tree.subgrid(ctx.leaves[idx]);
        let (speed, stage) =
            hydro::max_signal_speed_policy(g, ctx.dispatch, ctx.policy, ctx.stage_pool);
        speeds[idx].store((speed / g.dx).to_bits(), Ordering::Release);
        *stage_slots[idx].lock().expect("stage slot") = stage;
    }
}

/// One P2M batch: per-leaf block moments for every leaf of the batch
/// inside one task.
pub fn run_p2m_batch(
    tree: &Octree,
    leaves: &[NodeId],
    batch: &[usize],
    block_slots: &[Mutex<Option<BlockSoA>>],
) {
    for &idx in batch {
        let _span = trace::span(Cat::Phase, "p2m_leaf");
        *block_slots[idx].lock().expect("block slot") =
            Some(gravity::compute_blocks(tree.subgrid(leaves[idx])));
    }
}

/// One hydro batch: acquire a *fused* state buffer of `batch_len × CELLS`
/// cells (a batch-sized [`RecyclePool`] class), step every leaf of the
/// batch into its slice, and park the buffer in the batch's slot. The
/// apply phase walks the slots in batch order and slices leaves back out,
/// so the update order — and every bit of the update — matches the
/// per-leaf path.
pub fn run_hydro_batch(
    ctx: &HydroBatchCtx<'_>,
    batch: &[usize],
    dt: f64,
    record: &(dyn Fn(u64, u64) + Sync),
    stage_slots: &[Mutex<Option<HydroStage>>],
    out_slot: &Mutex<Option<Vec<[f64; NF]>>>,
) {
    let mut fused = ctx.state_pool.acquire(batch.len() * CELLS);
    for (k, &idx) in batch.iter().enumerate() {
        let t0 = trace::now_ns();
        let _span = trace::span(Cat::Phase, "hydro_step");
        let stage = stage_slots[idx].lock().expect("stage slot").take();
        hydro::step_interior_staged_into(
            ctx.tree.subgrid(ctx.leaves[idx]),
            stage,
            dt,
            ctx.dispatch,
            ctx.policy,
            &mut fused[k * CELLS..(k + 1) * CELLS],
            ctx.stage_pool,
        );
        record(t0, trace::now_ns());
    }
    *out_slot.lock().expect("batch state slot") = Some(fused);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_seals_on_full_and_flush() {
        let stats = AggregationStats::new();
        let mut region = AggregationRegion::new(3, &stats);
        let mut sealed = Vec::new();
        for i in 0..7 {
            if let Some(b) = region.push(i) {
                sealed.push(b);
            }
        }
        if let Some(b) = region.flush() {
            sealed.push(b);
        }
        assert_eq!(
            sealed,
            vec![
                (0, vec![0, 1, 2]),
                (1, vec![3, 4, 5]),
                (2, vec![6]) // ragged tail, sealed by the flush
            ]
        );
        let s = stats.snapshot();
        assert_eq!(s.items, 7);
        assert_eq!(s.fused_launches, 3);
        assert_eq!(s.seals_on_full, 2);
        assert_eq!(s.seals_on_flush, 1);
        assert!((s.batch_size_avg() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(AggregationRegion::batch_count(7, 3), 3);
    }

    #[test]
    fn batch_size_one_seals_every_item_on_full() {
        let stats = AggregationStats::new();
        let mut region = AggregationRegion::new(1, &stats);
        for i in 0..4 {
            assert_eq!(region.push(i), Some((i, vec![i])));
        }
        assert_eq!(region.flush(), None);
        let s = stats.snapshot();
        assert_eq!(s.fused_launches, 4);
        assert_eq!(s.seals_on_flush, 0);
        assert!((s.batch_size_avg() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn launch_span_only_when_aggregating() {
        // cap 1 must leave the trace identical to the baseline.
        assert!(launch_span(1).is_none());
    }

    #[test]
    fn batch_scratch_pool_recycles() {
        let pool = BatchScratches::new();
        let mut s = pool.take();
        s.far.push(&Moments {
            mass: 1.0,
            com: [0.0; 3],
            quad: [0.0; 6],
        });
        s.far_ranges.push((0, 1));
        pool.put(s);
        assert_eq!(pool.idle(), 1);
        // Recycled scratch comes back cleared.
        let s = pool.take();
        assert!(s.far.is_empty() && s.far_ranges.is_empty());
        assert_eq!(s.block_acc.len(), BLOCKS);
    }
}
