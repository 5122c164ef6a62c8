//! Gravity solver — Octo-Tiger's grid-based fast multipole method (paper
//! §3.3: "the gravity solver uses a grid-based fast multipole method to
//! compute the (Newtonian) gravitational field generated by the fluid in
//! each time step"), with the θ opening criterion exposed as the paper's
//! `--theta` option (0.5 in its runs).
//!
//! Structure of one solve:
//!
//! 1. **P2M** — each leaf's 8³ cells are aggregated into 4³ = 64 *blocks*
//!    (2×2×2 cells each): mass + centre of mass per block, stored as
//!    structure-of-arrays ([`BlockSoA`]) so the kernels can stream
//!    contiguous `x/y/z/mass` lanes. Blocks are the source/target
//!    granularity of both kernels: a solve returns one acceleration per
//!    block, and each cell reads its block's ([`block_of_cell`]) when the
//!    source term is applied (a smoothing equivalent to Octo-Tiger's
//!    cell-block aggregation in its monopole kernels).
//! 2. **M2M** — upward pass: every tree node gets mass, centre of mass and
//!    traceless quadrupole moments from its children.
//! 3. **Dual traversal** — for each target leaf, walk the tree with the
//!    multipole acceptance criterion `size/dist < θ`: accepted nodes join
//!    the *far list* (evaluated with the **multipole kernel**), leaf nodes
//!    too close join the *near list* (block-block **monopole kernel**,
//!    Plummer-softened); a leaf's two lists are one exact-size array of
//!    32-bit node ids ([`LeafLists`]). Because the lists depend only on
//!    tree topology and (weakly, through the MAC) on the centres of mass,
//!    they are cached across solves in an [`InteractionCache`] keyed on the
//!    octree's topology generation.
//!
//! Both kernels put **targets across the lanes**: a pack holds `W` of the
//! leaf's 64 target blocks, each source is broadcast, and the sum over a
//! list has one order at every `W` ([`SUM_GROUPS`]) — the lane count of the
//! configured [`SimdPolicy`] is a host-performance choice that moves no bit.
//! A leaf's packs run through
//! [`Dispatch`](crate::kernel_backend::Dispatch) (the execution-space axis,
//! mirroring `--multipole_host_kernel_type` / `--monopole_host_kernel_type`).
//! A scalar oracle per operator ([`multipole_accel`], [`point_accel`]) is
//! [`SimdPolicy::Scalar`]. A direct O(N²) summation ([`direct_accel`])
//! validates the FMM in tests.

use apex_lite::trace::{self, Cat};
use distrib::{Encode, Reader, Wire, WireError, Writer};

use crate::kernel_backend::{Dispatch, SimdPolicy};
use crate::octree::{NodeId, Octree};
use crate::star::field;
use crate::subgrid::{SubGrid, NX};
use kokkos_lite::Simd;

/// Blocks per dimension (8 cells / 2 per block).
pub(crate) const NB: usize = NX / 2;
/// Blocks per leaf. 64 is a multiple of every supported SIMD width
/// (1/2/4/8), so a leaf's targets are whole packs: no remainder, no padding.
pub const BLOCKS: usize = NB * NB * NB;

/// Aggregated mass blocks of one leaf, structure-of-arrays: contiguous
/// per-component coordinate and mass lanes, the layout the SIMD kernels
/// stream (the real Octo-Tiger's SoA containers for its SIMD-typed
/// kernels, "From Merging Frameworks to Merging Stars").
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSoA {
    /// Centre-of-mass x per block.
    pub(crate) x: [f64; BLOCKS],
    /// Centre-of-mass y per block.
    pub(crate) y: [f64; BLOCKS],
    /// Centre-of-mass z per block.
    pub(crate) z: [f64; BLOCKS],
    /// Mass per block.
    pub mass: [f64; BLOCKS],
}

impl BlockSoA {
    /// All-zero blocks.
    pub fn zero() -> Self {
        BlockSoA {
            x: [0.0; BLOCKS],
            y: [0.0; BLOCKS],
            z: [0.0; BLOCKS],
            mass: [0.0; BLOCKS],
        }
    }

    /// Centre of mass of block `b` (AoS view for scalar callers).
    #[inline]
    pub(crate) fn com(&self, b: usize) -> [f64; 3] {
        [self.x[b], self.y[b], self.z[b]]
    }

    /// The lanes in wire order: mass, x, y, z.
    pub(crate) fn lanes_mut(&mut self) -> [&mut [f64; BLOCKS]; 4] {
        [&mut self.mass, &mut self.x, &mut self.y, &mut self.z]
    }

    /// Set the centre of mass of block `b`.
    #[inline]
    pub fn set_com(&mut self, b: usize, c: [f64; 3]) {
        self.x[b] = c[0];
        self.y[b] = c[1];
        self.z[b] = c[2];
    }
}

/// The wire image of a leaf's blocks: the lanes mass, x, y, z, each a `u32`
/// count of [`BLOCKS`] followed by its values — the layout the kernels
/// stream. Decoding refuses any other count.
impl Encode for BlockSoA {
    fn image_len(&self) -> usize {
        Self::MIN_BYTES
    }

    fn encode(&self, out: &mut Writer) {
        for lane in [&self.mass, &self.x, &self.y, &self.z] {
            lane.as_slice().encode(out);
        }
    }
}

impl Wire for BlockSoA {
    const MIN_BYTES: usize = 4 * (4 + 8 * BLOCKS);

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut b = BlockSoA::zero();
        for lane in b.lanes_mut() {
            if u32::decode(r)? as usize != BLOCKS {
                return Err(WireError::BadLength);
            }
            for value in lane {
                *value = f64::decode(r)?;
            }
        }
        Ok(b)
    }
}

/// Multipole moments of a tree node about its centre of mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Total mass.
    pub mass: f64,
    /// Centre of mass.
    pub com: [f64; 3],
    /// Traceless quadrupole (xx, yy, zz, xy, xz, yz):
    /// `Q_ij = Σ m (3 d_i d_j − |d|² δ_ij)`.
    pub quad: [f64; 6],
}

impl Moments {
    fn zero() -> Self {
        Moments {
            mass: 0.0,
            com: [0.0; 3],
            quad: [0.0; 6],
        }
    }
}

/// Flat block index of block `(bi, bj, bk)`.
#[inline]
pub(crate) fn block_index(bi: usize, bj: usize, bk: usize) -> usize {
    (bi * NB + bj) * NB + bk
}

/// Block containing interior cell `(i, j, k)`.
#[inline]
pub fn block_of_cell(i: usize, j: usize, k: usize) -> usize {
    block_index(i / 2, j / 2, k / 2)
}

/// P2M: aggregate a sub-grid's cells into its 64 SoA blocks.
pub fn compute_blocks(sub: &SubGrid) -> BlockSoA {
    let vol = sub.dx * sub.dx * sub.dx;
    let rho = sub.field(field::RHO);
    let mut mass = [0.0; BLOCKS];
    let mut weighted = [[0.0; 3]; BLOCKS];
    for i in 0..NX {
        for j in 0..NX {
            for k in 0..NX {
                let m = rho[crate::hydro::cell_index(i, j, k)] * vol;
                let c = sub.cell_center(i as i64, j as i64, k as i64);
                let b = block_of_cell(i, j, k);
                mass[b] += m;
                for d in 0..3 {
                    weighted[b][d] += m * c[d];
                }
            }
        }
    }
    let mut out = BlockSoA::zero();
    out.mass = mass;
    for b in 0..BLOCKS {
        // Fallback to the geometric block centre for (near-)massless blocks.
        if mass[b] > 0.0 {
            out.set_com(
                b,
                [
                    weighted[b][0] / mass[b],
                    weighted[b][1] / mass[b],
                    weighted[b][2] / mass[b],
                ],
            );
        } else {
            let bi = b / (NB * NB);
            let bj = (b / NB) % NB;
            let bk = b % NB;
            out.set_com(
                b,
                [
                    sub.origin[0] + (2.0 * bi as f64 + 1.0) * sub.dx,
                    sub.origin[1] + (2.0 * bj as f64 + 1.0) * sub.dx,
                    sub.origin[2] + (2.0 * bk as f64 + 1.0) * sub.dx,
                ],
            );
        }
    }
    out
}

/// Combine point-mass contributions `(mass, position, child quadrupole)`
/// into the moments about their common centre of mass.
fn combine(parts: impl Iterator<Item = (f64, [f64; 3], [f64; 6])> + Clone) -> Moments {
    let mut total = 0.0;
    let mut com = [0.0; 3];
    for (m, p, _) in parts.clone() {
        total += m;
        for d in 0..3 {
            com[d] += m * p[d];
        }
    }
    if total <= 0.0 {
        return Moments::zero();
    }
    for c in &mut com {
        *c /= total;
    }
    let mut quad = [0.0; 6];
    for (m, p, q) in parts {
        let d = [p[0] - com[0], p[1] - com[1], p[2] - com[2]];
        let d2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        // Parallel-axis shift + child quadrupole pass-through.
        quad[0] += q[0] + m * (3.0 * d[0] * d[0] - d2);
        quad[1] += q[1] + m * (3.0 * d[1] * d[1] - d2);
        quad[2] += q[2] + m * (3.0 * d[2] * d[2] - d2);
        quad[3] += q[3] + m * 3.0 * d[0] * d[1];
        quad[4] += q[4] + m * 3.0 * d[0] * d[2];
        quad[5] += q[5] + m * 3.0 * d[1] * d[2];
    }
    Moments {
        mass: total,
        com,
        quad,
    }
}

/// Reusable per-solve gravity state: the M2M traversal order, the moments
/// table and the leaf-position map. The topology-dependent parts
/// (`internal_order`, `leaf_pos`) are recomputed only when the octree's
/// generation changes, and the moments vector is recycled in place — the
/// per-step `Vec` churn of the old free-function path is gone.
#[derive(Default)]
pub struct GravityWorkspace {
    generation: Option<u64>,
    internal_order: Vec<NodeId>,
    /// Moments per tree node, valid after [`Self::upward_pass`].
    pub moments: Vec<Moments>,
    /// `NodeId` → leaf-order position (`usize::MAX` for internal nodes).
    pub leaf_pos: Vec<usize>,
}

impl GravityWorkspace {
    /// Empty workspace; allocations happen lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refresh the topology-derived tables if the tree changed. The M2M
    /// order only needs children-before-parents, which level-descending
    /// order guarantees — so when the tree's split log covers the gap since
    /// our snapshot, the newly internal nodes (exactly the logged splits)
    /// are *merged* into the retained order instead of re-deriving and
    /// re-sorting all O(nodes) internals. The leaf-position map is a dense
    /// refill either way (one pass, no sort).
    fn prepare(&mut self, tree: &Octree) {
        let gen = tree.generation();
        if self.generation == Some(gen) {
            return;
        }
        match self.generation {
            Some(g0) if !self.internal_order.is_empty() => {
                let mut fresh: Vec<NodeId> = tree.splits_since(g0).collect();
                fresh.sort_by_key(|&id| std::cmp::Reverse(tree.node(id).level));
                let old = std::mem::take(&mut self.internal_order);
                self.internal_order = Vec::with_capacity(old.len() + fresh.len());
                let (mut a, mut b) = (old.into_iter().peekable(), fresh.into_iter().peekable());
                loop {
                    let take_a = match (a.peek(), b.peek()) {
                        (Some(&x), Some(&y)) => tree.node(x).level >= tree.node(y).level,
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => break,
                    };
                    let next = if take_a { a.next() } else { b.next() };
                    self.internal_order.extend(next);
                }
            }
            _ => {
                self.internal_order.clear();
                self.internal_order
                    .extend((0..tree.node_count()).filter(|&id| tree.node(id).children.is_some()));
                // Internal nodes in decreasing depth: arena order is
                // BFS-ish, so sort by level (children strictly deeper than
                // parents).
                self.internal_order
                    .sort_by_key(|&id| std::cmp::Reverse(tree.node(id).level));
            }
        }
        self.leaf_pos.clear();
        self.leaf_pos.resize(tree.node_count(), usize::MAX);
        for (i, &leaf) in tree.leaf_ids().iter().enumerate() {
            self.leaf_pos[leaf] = i;
        }
        self.generation = Some(gen);
    }

    /// M2M upward pass into the recycled moments table; `blocks` is aligned
    /// with `tree.leaf_ids()`. Returns the moments slice.
    pub fn upward_pass(&mut self, tree: &Octree, blocks: &[BlockSoA]) -> &[Moments] {
        assert_eq!(blocks.len(), tree.leaf_count(), "blocks per leaf");
        self.prepare(tree);
        self.moments.clear();
        self.moments.resize(tree.node_count(), Moments::zero());
        // Leaves first (P2M → leaf moments).
        for (pos, &leaf) in tree.leaf_ids().iter().enumerate() {
            let b = &blocks[pos];
            self.moments[leaf] = combine((0..BLOCKS).map(|i| (b.mass[i], b.com(i), [0.0; 6])));
        }
        for idx in 0..self.internal_order.len() {
            let id = self.internal_order[idx];
            let children = tree.node(id).children.expect("filtered to internal");
            self.moments[id] = combine(children.iter().map(|&c| {
                (
                    self.moments[c].mass,
                    self.moments[c].com,
                    self.moments[c].quad,
                )
            }));
        }
        &self.moments
    }
}

/// M2M upward pass: moments for every tree node (indexed by `NodeId`).
/// One-shot convenience wrapper over [`GravityWorkspace::upward_pass`].
pub fn upward_pass(tree: &Octree, blocks: &[BlockSoA]) -> Vec<Moments> {
    let mut ws = GravityWorkspace::new();
    ws.upward_pass(tree, blocks);
    ws.moments
}

/// The interaction lists of one target leaf in one exact-size allocation:
/// its far nodes (M2L sources), then its near leaves (P2P sources), as
/// 32-bit node ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafLists {
    ids: Box<[u32]>,
    far_len: usize,
}

impl LeafLists {
    /// Far nodes, in traversal order.
    pub fn far(&self) -> &[u32] {
        &self.ids[..self.far_len]
    }

    /// Near leaves, in traversal order.
    pub fn near(&self) -> &[u32] {
        &self.ids[self.far_len..]
    }
}

/// Interaction lists of one target leaf ([`LeafLists`]: far nodes for M2L,
/// near leaves for P2P). `theta` is the opening parameter; smaller = more
/// accurate.
pub fn interaction_lists(
    tree: &Octree,
    moments: &[Moments],
    target: NodeId,
    theta: f64,
) -> LeafLists {
    let narrow = |id: NodeId| u32::try_from(id).expect("node ids fit in 32 bits");
    let (t_origin, _) = tree.node_geometry(target);
    let t_size = tree.node_size(tree.node(target).level);
    let t_center = [
        t_origin[0] + t_size / 2.0,
        t_origin[1] + t_size / 2.0,
        t_origin[2] + t_size / 2.0,
    ];
    let t_radius = t_size * 0.5 * 3f64.sqrt();
    let mut far = Vec::new();
    let mut near = Vec::new();
    let mut stack = vec![0usize]; // root is node 0 by construction
    while let Some(id) = stack.pop() {
        if moments[id].mass <= 0.0 {
            continue;
        }
        let s = tree.node_size(tree.node(id).level);
        // The opening decision uses the source cell's *geometric* centre,
        // not its centre of mass: real Octo-Tiger's FMM stencils are
        // geometric, and it makes the far/near partition a pure function of
        // (topology, θ) — the invariant the interaction-list cache and its
        // incremental invalidation rest on. (The M2L expansion itself still
        // evaluates at the COM via the node's moments.)
        let (s_origin, _) = tree.node_geometry(id);
        let dx = [
            s_origin[0] + s / 2.0 - t_center[0],
            s_origin[1] + s / 2.0 - t_center[1],
            s_origin[2] + s / 2.0 - t_center[2],
        ];
        let dist = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
        let eff = dist - t_radius;
        if id != target && eff > 0.0 && s / eff < theta {
            far.push(narrow(id));
        } else {
            match tree.node(id).children {
                Some(children) => stack.extend(children),
                None => near.push(narrow(id)),
            }
        }
    }
    LeafLists {
        far_len: far.len(),
        ids: [far, near].concat().into(),
    }
}

/// Hit/miss counters of an [`InteractionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Solves that reused the cached lists.
    pub hits: u64,
    /// Solves that (re)built lists (a dual traversal executed — includes
    /// partial rebuilds, which still traverse for the dirty leaves).
    pub misses: u64,
    /// Misses served by the incremental path (only dirty leaves' lists
    /// rebuilt, the rest spliced from the retained structure).
    pub partial_rebuilds: u64,
    /// Per-leaf traversals executed across all misses.
    pub leaves_rebuilt: u64,
    /// Leaf lists retained (spliced, not traversed) across partial rebuilds.
    pub leaves_retained: u64,
}

/// What one [`InteractionCache::ensure`] call did, for the caller's work
/// accounting: `mac_evals` counts the far+near list entries of the lists
/// that were actually (re)traversed this call — retained lists cost nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnsureReport {
    /// Whether any traversal ran (false = pure cache hit).
    pub(crate) rebuilt: bool,
    /// Leaves whose lists were rebuilt by this call.
    pub leaves_rebuilt: usize,
    /// Leaves whose lists were retained by this call.
    pub leaves_retained: usize,
    /// MAC interaction decisions taken (far+near entries of rebuilt lists).
    pub mac_evals: u64,
}

/// Cross-step cache of the per-leaf far/near interaction lists, keyed on
/// the octree's topology generation (and θ). The opening test is purely
/// geometric (cell centre and size, never the moments — the density floor
/// also keeps every node's mass positive, so the empty-subtree prune never
/// fires in a run), which makes the lists an exact function of
/// `(topology, θ)`: a hit is bitwise identical to a rebuild.
///
/// A refinement does not discard the whole cache. The MAC decision for a
/// far-accepted node depends only on its size and geometric centre — both
/// unchanged by a split below it — so a retained target's *far* entries
/// stay valid verbatim. Only a target whose **near** list mentions a split
/// node (its "neighbour cone": the split node was close enough that the
/// traversal descended to it as a leaf) must re-traverse, plus the sweep's
/// new leaves themselves. [`Self::ensure`] gets the exact split set from
/// [`Octree::splits_since`] and moves every clean target's lists into the
/// new leaf order untouched — at level 5 a single-leaf refine re-traverses
/// a few percent of targets instead of all of them.
#[derive(Default)]
pub struct InteractionCache {
    key: Option<(u64, u64)>,
    /// Leaf order the cached `lists` are aligned with (snapshot of
    /// `tree.leaf_ids()` at the last rebuild).
    leaf_ids: Vec<NodeId>,
    lists: Vec<LeafLists>,
    stats: CacheStats,
}

impl InteractionCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make the per-leaf lists current for `(tree topology, θ)`. The
    /// returned report says whether any traversal ran (a miss, charged by
    /// the cost model) and how many leaves were rebuilt vs retained.
    ///
    /// One path: a leaf is dirty when it is new, when its cached near list
    /// names a node split since the cached generation, or — with no cached
    /// generation of the same θ — always. The dirty leaves are traversed;
    /// every clean list moves over unchanged.
    pub fn ensure(&mut self, tree: &Octree, moments: &[Moments], theta: f64) -> EnsureReport {
        let key = (tree.generation(), theta.to_bits());
        if self.key == Some(key) {
            self.stats.hits += 1;
            return EnsureReport::default();
        }
        self.stats.misses += 1;
        // One span per miss: trace cache_rebuild count == stats.misses.
        let _span = trace::span(Cat::Gravity, "cache_rebuild");
        let since = (self.key)
            .filter(|&(g0, t0)| t0 == theta.to_bits() && tree.generation() > g0)
            .map(|(g0, _)| g0);
        // Node ids are stable and never removed, so the bitmap covers every
        // id an old near list names.
        let mut is_split = vec![false; tree.node_count()];
        for id in since.into_iter().flat_map(|g0| tree.splits_since(g0)) {
            is_split[id] = true;
        }
        let mut old: std::collections::HashMap<NodeId, LeafLists> = match since {
            Some(_) => self.leaf_ids.drain(..).zip(self.lists.drain(..)).collect(),
            None => Default::default(),
        };
        let mut report = EnsureReport {
            rebuilt: true,
            ..EnsureReport::default()
        };
        self.lists = (tree.leaf_ids().iter())
            .map(|&leaf| {
                let clean = (old.remove(&leaf))
                    .filter(|lists| lists.near().iter().all(|&n| !is_split[n as usize]));
                if let Some(lists) = clean {
                    report.leaves_retained += 1;
                    return lists;
                }
                let lists = interaction_lists(tree, moments, leaf, theta);
                report.mac_evals += lists.ids.len() as u64;
                report.leaves_rebuilt += 1;
                lists
            })
            .collect();
        self.leaf_ids.clear();
        self.leaf_ids.extend_from_slice(tree.leaf_ids());
        self.stats.partial_rebuilds += u64::from(is_split.contains(&true));
        self.stats.leaves_rebuilt += report.leaves_rebuilt as u64;
        self.stats.leaves_retained += report.leaves_retained as u64;
        self.key = Some(key);
        report
    }

    /// Cached lists, aligned with `tree.leaf_ids()`.
    pub fn lists(&self) -> &[LeafLists] {
        &self.lists
    }

    /// Drop the key so the next [`Self::ensure`] rebuilds (the cache-off
    /// ablation path).
    pub(crate) fn invalidate(&mut self) {
        self.key = None;
    }

    /// Lifetime hit/miss counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Acceleration at `p` from a multipole source (monopole + traceless
/// quadrupole) — the scalar **multipole kernel** body.
#[inline]
pub(crate) fn multipole_accel(m: &Moments, p: [f64; 3]) -> [f64; 3] {
    let x = [p[0] - m.com[0], p[1] - m.com[1], p[2] - m.com[2]];
    let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
    if r2 == 0.0 {
        return [0.0; 3];
    }
    let r = r2.sqrt();
    let inv_r3 = 1.0 / (r2 * r);
    let inv_r5 = inv_r3 / r2;
    let inv_r7 = inv_r5 / r2;
    // Monopole: a = −M x / r³.
    let mut a = [
        -m.mass * x[0] * inv_r3,
        -m.mass * x[1] * inv_r3,
        -m.mass * x[2] * inv_r3,
    ];
    // Quadrupole of potential φ = −(x·Q·x)/(2 r⁵):
    // a = −∇φ = (Q·x)/r⁵ − (5/2)(x·Q·x) x / r⁷.
    let q = m.quad;
    let qx = [
        q[0] * x[0] + q[3] * x[1] + q[4] * x[2],
        q[3] * x[0] + q[1] * x[1] + q[5] * x[2],
        q[4] * x[0] + q[5] * x[1] + q[2] * x[2],
    ];
    let xqx = x[0] * qx[0] + x[1] * qx[1] + x[2] * qx[2];
    for d in 0..3 {
        a[d] += -(qx[d] * inv_r5 - 2.5 * xqx * x[d] * inv_r7);
    }
    a
}

/// Acceleration at `p` from one point mass with Plummer softening `eps` —
/// the scalar **monopole (P2P) kernel** body.
#[inline]
pub(crate) fn point_accel(mass: f64, src: [f64; 3], p: [f64; 3], eps: f64) -> [f64; 3] {
    let x = [p[0] - src[0], p[1] - src[1], p[2] - src[2]];
    let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + eps * eps;
    let inv_r3 = 1.0 / (r2 * r2.sqrt());
    [
        -mass * x[0] * inv_r3,
        -mass * x[1] * inv_r3,
        -mass * x[2] * inv_r3,
    ]
}

/// `match_width!(policy, |W| simd, scalar)`: `simd` monomorphised with the
/// policy's lane count bound to the const `W`; the scalar oracle and
/// unvalidated widths take `scalar`. The gravity entry points match once
/// per leaf, outside every loop.
macro_rules! match_width {
    ($policy:expr, |$w:ident| $simd:expr, $scalar:expr) => {
        match $policy {
            SimdPolicy::Width(1) => {
                const $w: usize = 1;
                $simd
            }
            SimdPolicy::Width(2) => {
                const $w: usize = 2;
                $simd
            }
            SimdPolicy::Width(4) => {
                const $w: usize = 4;
                $simd
            }
            SimdPolicy::Width(8) => {
                const $w: usize = 8;
                $simd
            }
            SimdPolicy::Scalar | SimdPolicy::Width(_) => $scalar,
        }
    };
}

/// Interleaved partial sums per target — the *definition* of the kernels'
/// summation order: source number `s` of a target's list (far nodes for
/// M2L; near leaves × their 64 blocks for P2P) adds into partial sum
/// `s % SUM_GROUPS`, and the partial sums are combined left to right once
/// per target. The order names no lane count, so every width has the same
/// bits. The work accounting charges far lists in whole groups of this size
/// ([`crate::driver`]).
pub(crate) const SUM_GROUPS: usize = 4;

/// Running positive sums of one target pack: `[group][axis]`.
type Partials<const W: usize> = [[Simd<W>; 3]; SUM_GROUPS];

/// The `W` targets `tb[b0..b0 + W]` as one pack per axis.
#[inline(always)]
fn load_targets<const W: usize>(tb: &BlockSoA, b0: usize) -> [Simd<W>; 3] {
    [
        Simd::from_slice(&tb.x, b0),
        Simd::from_slice(&tb.y, b0),
        Simd::from_slice(&tb.z, b0),
    ]
}

/// Combine the partial sums left to right, negate (the kernels accumulate
/// `−a`), and store one acceleration per lane.
#[inline(always)]
fn store_targets<const W: usize>(acc: Partials<W>, out: &mut [[f64; 3]]) {
    let [x, y, z] = std::array::from_fn(|d| -(((acc[0][d] + acc[1][d]) + acc[2][d]) + acc[3][d]));
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = [x.0[l], y.0[l], z.0[l]];
    }
}

/// One broadcast P2P source against the target pack `p`, added to the
/// partial sum `acc`. Forced inline so the accumulators stay in vector
/// registers across the source stream. A zero-mass source and a source
/// coincident with its target add exactly zero (Plummer `eps > 0` keeps
/// `1/r` finite), so there is no mask; `r2` is at least `eps²` and at most
/// the squared domain diagonal, deep inside [`Simd::recip_sqrt`]'s domain.
#[inline(always)]
fn p2p_source<const W: usize>(
    src: &BlockSoA,
    s: usize,
    p: &[Simd<W>; 3],
    eps2: Simd<W>,
    acc: &mut [Simd<W>; 3],
) {
    let x = p[0] - Simd::splat(src.x[s]);
    let y = p[1] - Simd::splat(src.y[s]);
    let z = p[2] - Simd::splat(src.z[s]);
    let r2 = x.mul_add(x, y.mul_add(y, z.mul_add(z, eps2)));
    let inv_r = r2.recip_sqrt();
    let w = Simd::splat(src.mass[s]) * inv_r * inv_r * inv_r;
    acc[0] = x.mul_add(w, acc[0]);
    acc[1] = y.mul_add(w, acc[1]);
    acc[2] = z.mul_add(w, acc[2]);
}

/// P2P of the target pack at `b0` over a near list's blocks, swept where
/// they lie. `BLOCKS` is a multiple of [`SUM_GROUPS`], so block `s` of every
/// source leaf lands in group `s % SUM_GROUPS`.
#[inline(always)]
fn p2p_targets<'a, const W: usize>(
    tb: &BlockSoA,
    b0: usize,
    sources: impl Iterator<Item = &'a BlockSoA>,
    eps: f64,
    out: &mut [[f64; 3]],
) {
    let p = load_targets::<W>(tb, b0);
    let eps2 = Simd::splat(eps * eps);
    let mut acc: Partials<W> = [[Simd::zero(); 3]; SUM_GROUPS];
    for src in sources {
        for s0 in (0..BLOCKS).step_by(SUM_GROUPS) {
            for (g, acc) in acc.iter_mut().enumerate() {
                p2p_source(src, s0 + g, &p, eps2, acc);
            }
        }
    }
    store_targets(acc, out);
}

/// One broadcast M2L source against the target pack `p`, added to the
/// partial sum `acc`; forced inline like [`p2p_source`]. Far sources are
/// strictly outside the target leaf's circumscribed sphere (the MAC
/// guarantees `dist − radius > 0`), so `r² > 0` and [`multipole_accel`]'s
/// `r² == 0` guard is unnecessary.
#[inline(always)]
fn m2l_source<const W: usize>(m: &Moments, p: &[Simd<W>; 3], acc: &mut [Simd<W>; 3]) {
    let x = p[0] - Simd::splat(m.com[0]);
    let y = p[1] - Simd::splat(m.com[1]);
    let z = p[2] - Simd::splat(m.com[2]);
    // Six splats spelled out, not `m.quad.map(Simd::splat)`: `[T; N]::map`
    // goes through `try_map`, and when LLVM declines to inline that, every
    // source pays a call (M2L at widths 2–8: +20–30 % per step).
    let q = m.quad;
    let q = [
        Simd::<W>::splat(q[0]),
        Simd::splat(q[1]),
        Simd::splat(q[2]),
        Simd::splat(q[3]),
        Simd::splat(q[4]),
        Simd::splat(q[5]),
    ];
    let r2 = x.mul_add(x, y.mul_add(y, z * z));
    // The correctly rounded `1/√r²`, not `recip_sqrt`: M2L is bound by its
    // multiply-adds, so the divider is free here and the five extra
    // operations of `recip_sqrt` are not.
    let inv_r = Simd::splat(1.0) / r2.sqrt();
    let inv_r2 = inv_r * inv_r;
    let inv_r3 = inv_r2 * inv_r;
    let inv_r5 = inv_r3 * inv_r2;
    let inv_r7 = inv_r5 * inv_r2;
    // Q·x rows.
    let qx = q[0].mul_add(x, q[3].mul_add(y, q[4] * z));
    let qy = q[3].mul_add(x, q[1].mul_add(y, q[5] * z));
    let qz = q[4].mul_add(x, q[5].mul_add(y, q[2] * z));
    let xqx = x.mul_add(qx, y.mul_add(qy, z * qz));
    // a = −[M x/r³ + (Q·x)/r⁵ − (5/2)(x·Q·x) x/r⁷]: accumulate the
    // bracket positively, negate once after the last source.
    let s = Simd::splat(m.mass).mul_add(inv_r3, -(Simd::splat(2.5) * xqx * inv_r7));
    acc[0] = qx.mul_add(inv_r5, x.mul_add(s, acc[0]));
    acc[1] = qy.mul_add(inv_r5, y.mul_add(s, acc[1]));
    acc[2] = qz.mul_add(inv_r5, z.mul_add(s, acc[2]));
}

/// M2L of the target pack at `b0` over a far list, each node's moments
/// read in place.
#[inline(always)]
fn m2l_targets<const W: usize>(
    tb: &BlockSoA,
    b0: usize,
    moments: &[Moments],
    far: &[u32],
    out: &mut [[f64; 3]],
) {
    let p = load_targets::<W>(tb, b0);
    // The partial sums are independent, so each takes its own pass over
    // every fourth node: three live accumulators instead of twelve (one
    // interleaved loop spilled them on every source), and the two dependent
    // multiply-adds that end a source are far shorter than the time it
    // takes to issue it, so a single chain per pass costs nothing.
    let acc: Partials<W> = std::array::from_fn(|g| {
        let mut acc = [Simd::zero(); 3];
        // An index loop, not `far.iter().skip(g).step_by(..)`: that adaptor
        // iterates through `try_fold`, and when LLVM declines to inline the
        // fold's closure every source becomes a call with the accumulators
        // in memory (M2L at width 2: 4.3 -> 14.8 ns per interaction).
        let mut s = g;
        while s < far.len() {
            m2l_source(&moments[far[s] as usize], &p, &mut acc);
            s += SUM_GROUPS;
        }
        acc
    });
    store_targets(acc, out);
}

/// Softening length for a leaf of cell width `dx`.
#[inline]
pub fn softening(dx: f64) -> f64 {
    dx
}

/// The two kernel-configuration axes bundled for the solve path: which
/// execution space runs a leaf's target packs, and how many targets a pack
/// holds.
pub struct GravityKernels<'a> {
    /// Execution space of the far-field (M2L) target loop.
    pub multipole: &'a Dispatch,
    /// Execution space of the near-field (P2P) target loop.
    pub monopole: &'a Dispatch,
    /// Lane count of both kernels' target packs.
    pub simd: SimdPolicy,
}

/// Multipole kernel of one target leaf: far-field acceleration per block of
/// `tb` from the moments of its `far` list, under an `m2l` span. Targets
/// across the lanes, each source broadcast, summed in the [`SUM_GROUPS`]
/// order; the scalar oracle sums [`multipole_accel`] in list order.
pub fn m2l_blocks(
    kernels: &GravityKernels<'_>,
    tb: &BlockSoA,
    moments: &[Moments],
    far: &[u32],
    out: &mut [[f64; 3]],
) {
    let _span = trace::span(Cat::Gravity, "m2l");
    match_width!(
        kernels.simd,
        |W| kernels.multipole.fill_rows(out, W, |row, out| {
            m2l_targets::<W>(tb, row * W, moments, far, out)
        }),
        kernels.multipole.fill(out, |b| {
            let p = tb.com(b);
            let mut a = [0.0; 3];
            for &n in far {
                let da = multipole_accel(&moments[n as usize], p);
                a[0] += da[0];
                a[1] += da[1];
                a[2] += da[2];
            }
            a
        })
    )
}

/// Monopole kernel of one target leaf: near-field block-block P2P per block
/// of `tb`, under a `p2p` span. The near list's [`BlockSoA`]s are swept in
/// place, in list order, the same way as [`m2l_blocks`] sweeps a far list.
/// Self-leaf self-block and zero-mass contributions are exactly zero, so no
/// index masking is needed; the scalar oracle skips massless sources and
/// sums [`point_accel`] per source leaf, then over the list.
pub fn p2p_blocks(
    kernels: &GravityKernels<'_>,
    blocks: &[BlockSoA],
    leaf_pos: &[usize],
    tb: &BlockSoA,
    near: &[u32],
    eps: f64,
    out: &mut [[f64; 3]],
) {
    let _span = trace::span(Cat::Gravity, "p2p");
    let sources = || near.iter().map(|&src| &blocks[leaf_pos[src as usize]]);
    match_width!(
        kernels.simd,
        |W| kernels.monopole.fill_rows(out, W, |row, out| {
            p2p_targets::<W>(tb, row * W, sources(), eps, out)
        }),
        kernels.monopole.fill(out, |b| {
            let p = tb.com(b);
            let mut a = [0.0; 3];
            for src in sources() {
                let mut da = [0.0; 3];
                for s in (0..BLOCKS).filter(|&s| src.mass[s] > 0.0) {
                    let d = point_accel(src.mass[s], src.com(s), p, eps);
                    da[0] += d[0];
                    da[1] += d[1];
                    da[2] += d[2];
                }
                a[0] += da[0];
                a[1] += da[1];
                a[2] += da[2];
            }
            a
        })
    )
}

/// What every leaf solve of one gravity pass reads: the tree, the upward
/// pass's moments, the P2M blocks of *every* leaf in leaf order (near-list
/// sources may be owned elsewhere) and the kernel configuration.
pub struct LeafSolve<'a> {
    /// The (immutable-for-the-pass) octree.
    pub tree: &'a Octree,
    /// Upward-pass moments, node order.
    pub moments: &'a [Moments],
    /// P2M blocks, leaf order.
    pub blocks: &'a [BlockSoA],
    /// `NodeId` → leaf-order position.
    pub leaf_pos: &'a [usize],
    /// Execution spaces + lane count of the kernels.
    pub kernels: &'a GravityKernels<'a>,
}

impl LeafSolve<'_> {
    /// Block accelerations of leaf `target` from its `lists`: [`m2l_blocks`]
    /// over the far list's moments plus [`p2p_blocks`] over the near list's
    /// blocks, both read where they lie. One value per block, not per cell:
    /// each cell reads its block's ([`block_of_cell`]) when
    /// [`crate::hydro::apply_gravity_source`] adds the source.
    pub fn accel(&self, target: NodeId, lists: &LeafLists) -> [[f64; 3]; BLOCKS] {
        let tb = &self.blocks[self.leaf_pos[target]];
        let (_, dx) = self.tree.node_geometry(target);
        let mut acc = [[0.0; 3]; BLOCKS];
        let mut near_acc = [[0.0; 3]; BLOCKS];
        m2l_blocks(self.kernels, tb, self.moments, lists.far(), &mut acc);
        p2p_blocks(
            self.kernels,
            self.blocks,
            self.leaf_pos,
            tb,
            lists.near(),
            softening(dx),
            &mut near_acc,
        );
        for (a, near) in acc.iter_mut().zip(&near_acc) {
            for d in 0..3 {
                a[d] += near[d];
            }
        }
        acc
    }
}

/// One-shot FMM acceleration for one target leaf: its own dual traversal
/// around [`LeafSolve::accel`]. For tests, benches and single-leaf studies;
/// the driver solves on cached lists.
pub fn accel_for_leaf(
    tree: &Octree,
    moments: &[Moments],
    blocks: &[BlockSoA],
    leaf_pos: &[usize],
    target: NodeId,
    theta: f64,
    kernels: &GravityKernels<'_>,
) -> [[f64; 3]; BLOCKS] {
    let lists = interaction_lists(tree, moments, target, theta);
    let solve = LeafSolve {
        tree,
        moments,
        blocks,
        leaf_pos,
        kernels,
    };
    solve.accel(target, &lists)
}

/// `NodeId` → leaf-order position (usize::MAX for internal nodes).
pub fn leaf_positions(tree: &Octree) -> Vec<usize> {
    let mut pos = vec![usize::MAX; tree.node_count()];
    for (i, &leaf) in tree.leaf_ids().iter().enumerate() {
        pos[leaf] = i;
    }
    pos
}

/// Reference O(N²) direct summation over *all* blocks of all leaves, with
/// the same per-target-leaf softening, one value per target block like
/// [`LeafSolve::accel`] — validates the FMM.
pub fn direct_accel(
    tree: &Octree,
    blocks: &[BlockSoA],
    target: NodeId,
    leaf_pos: &[usize],
) -> [[f64; 3]; BLOCKS] {
    let tb = &blocks[leaf_pos[target]];
    let (_, dx) = tree.node_geometry(target);
    let eps = softening(dx);
    let mut block_acc = [[0.0f64; 3]; BLOCKS];
    for (b, acc) in block_acc.iter_mut().enumerate() {
        let p = tb.com(b);
        for (src_pos, sb) in blocks.iter().enumerate() {
            let self_leaf = src_pos == leaf_pos[target];
            for s in 0..BLOCKS {
                if self_leaf && s == b {
                    continue;
                }
                if sb.mass[s] <= 0.0 {
                    continue;
                }
                let da = point_accel(sb.mass[s], sb.com(s), p, eps);
                acc[0] += da[0];
                acc[1] += da[1];
                acc[2] += da[2];
            }
        }
    }
    block_acc
}

/// Analytic flop estimate per M2L (multipole) interaction, for the
/// projection model — validated against the counted kernels in tests.
pub(crate) const MULTIPOLE_FLOPS_PER_INTERACTION: u64 = 60;
/// P2P pairwise interaction cost (incl. sqrt), validated likewise.
pub(crate) const MONOPOLE_FLOPS_PER_INTERACTION: u64 = 22;
/// MAC evaluation cost per dual-traversal node visit (distance + compare);
/// charged only on cache *misses* — cached solves skip the traversal, and
/// the projection must not bill flops that were never executed.
pub(crate) const MAC_FLOPS_PER_EVAL: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OctoConfig;
    use crate::star::RotatingStar;

    /// A leaf's blocks travel as four lanes, each a `u32` count of 64 and
    /// its values — the image of the four `Vec`s they used to be copied
    /// into — and an image with any other count is refused.
    #[test]
    fn block_images_are_four_counted_lanes() {
        let mut b = BlockSoA::zero();
        b.mass[0] = 1.5;
        b.set_com(BLOCKS - 1, [1.0, -2.0, 0.25]);
        let lanes = [b.mass.to_vec(), b.x.to_vec(), b.y.to_vec(), b.z.to_vec()];
        let image = distrib::to_bytes(&b).expect("encodes");
        assert_eq!(image, distrib::to_bytes(&lanes).expect("encodes"));
        assert_eq!(b.image_len(), image.len());
        assert_eq!(distrib::from_bytes::<BlockSoA>(&image), Ok(b));
        let mut short = lanes;
        short[2].pop();
        let image = distrib::to_bytes(&short).expect("encodes");
        assert_eq!(
            distrib::from_bytes::<BlockSoA>(&image),
            Err(WireError::BadLength)
        );
    }

    /// Both gravity kernels on `d` at width `simd`.
    fn kernels(d: &Dispatch, simd: SimdPolicy) -> GravityKernels<'_> {
        GravityKernels {
            multipole: d,
            monopole: d,
            simd,
        }
    }

    fn test_tree(level: u32) -> (Octree, Vec<BlockSoA>, Vec<Moments>, Vec<usize>) {
        let star = RotatingStar::paper_default();
        let cfg = OctoConfig {
            max_level: level,
            ..OctoConfig::default()
        };
        let tree = Octree::build(&star, &cfg, 1.0);
        let blocks: Vec<BlockSoA> = tree
            .leaf_ids()
            .iter()
            .map(|&l| compute_blocks(tree.subgrid(l)))
            .collect();
        let moments = upward_pass(&tree, &blocks);
        let pos = leaf_positions(&tree);
        (tree, blocks, moments, pos)
    }

    #[test]
    fn blocks_conserve_leaf_mass() {
        let (tree, blocks, _, pos) = test_tree(2);
        for &leaf in tree.leaf_ids() {
            let grid_mass = tree.subgrid(leaf).mass();
            let block_mass: f64 = blocks[pos[leaf]].mass.iter().sum();
            assert!(
                ((grid_mass - block_mass) / grid_mass.max(1e-30)).abs() < 1e-12,
                "P2M must conserve mass"
            );
        }
    }

    #[test]
    fn root_moments_match_total_mass_and_com() {
        let (tree, _, moments, _) = test_tree(2);
        let root = &moments[0];
        assert!(
            ((root.mass - tree.total_mass()) / tree.total_mass()).abs() < 1e-12,
            "M2M conserves mass"
        );
        // Star centred at origin → COM ≈ origin.
        for d in 0..3 {
            assert!(
                root.com[d].abs() < 1e-6,
                "COM component {d} = {}",
                root.com[d]
            );
        }
    }

    #[test]
    fn quadrupole_is_traceless() {
        let (_, _, moments, _) = test_tree(2);
        for m in &moments {
            if m.mass > 0.0 {
                let trace = m.quad[0] + m.quad[1] + m.quad[2];
                let scale = m.quad.iter().map(|q| q.abs()).fold(0.0, f64::max);
                // Absolute epsilon covers vacuum-floor nodes whose moments
                // are pure rounding noise.
                assert!(
                    trace.abs() <= 1e-12 + 1e-9 * scale,
                    "trace {trace} vs scale {scale}"
                );
            }
        }
    }

    #[test]
    fn interaction_lists_cover_all_mass_exactly_once() {
        let (tree, blocks, moments, pos) = test_tree(2);
        let target = tree.leaf_ids()[0];
        let lists = interaction_lists(&tree, &moments, target, 0.5);
        let far_mass: f64 = lists.far().iter().map(|&n| moments[n as usize].mass).sum();
        let near_mass: f64 = (lists.near().iter())
            .map(|&n| blocks[pos[n as usize]].mass.iter().sum::<f64>())
            .sum();
        let total = tree.total_mass();
        assert!(
            ((far_mass + near_mass - total) / total).abs() < 1e-9,
            "mass partition: far {far_mass} + near {near_mass} != {total}"
        );
        assert!(
            lists.near().contains(&(target as u32)),
            "self-leaf is always near"
        );
    }

    #[test]
    fn fmm_matches_direct_summation() {
        let (tree, blocks, moments, pos) = test_tree(2);
        let d = Dispatch::Legacy;
        // Compare on a leaf near the star centre (strongest field).
        let target = *tree
            .leaf_ids()
            .iter()
            .max_by(|&&a, &&b| {
                tree.subgrid(a)
                    .mass()
                    .partial_cmp(&tree.subgrid(b).mass())
                    .unwrap()
            })
            .unwrap();
        let fmm = accel_for_leaf(
            &tree,
            &moments,
            &blocks,
            &pos,
            target,
            0.5,
            &kernels(&d, SimdPolicy::default()),
        );
        let direct = direct_accel(&tree, &blocks, target, &pos);
        let mut max_rel: f64 = 0.0;
        for (a, b) in fmm.iter().zip(&direct) {
            let na = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
            let nb = (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]).sqrt();
            let diff =
                ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
            if nb > 1e-12 {
                max_rel = max_rel.max(diff / nb.max(na));
            }
        }
        assert!(
            max_rel < 0.05,
            "FMM(θ=0.5) vs direct: max relative error {max_rel}"
        );
    }

    #[test]
    fn smaller_theta_is_more_accurate() {
        let (tree, blocks, moments, pos) = test_tree(2);
        let d = Dispatch::Legacy;
        let target = tree.leaf_ids()[tree.leaf_count() / 2];
        let direct = direct_accel(&tree, &blocks, target, &pos);
        let err = |theta: f64| -> f64 {
            let fmm = accel_for_leaf(
                &tree,
                &moments,
                &blocks,
                &pos,
                target,
                theta,
                &kernels(&d, SimdPolicy::default()),
            );
            fmm.iter()
                .zip(&direct)
                .map(|(a, b)| {
                    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
                })
                .sum()
        };
        let loose = err(0.9);
        let tight = err(0.2);
        assert!(
            tight <= loose,
            "θ=0.2 error {tight} must not exceed θ=0.9 error {loose}"
        );
    }

    #[test]
    fn gravity_points_inward() {
        // For the centred star, acceleration on an off-centre leaf must
        // point roughly toward the origin.
        let (tree, blocks, moments, pos) = test_tree(2);
        let d = Dispatch::Legacy;
        for &leaf in tree.leaf_ids() {
            let (origin, dxc) = tree.node_geometry(leaf);
            let size = 8.0 * dxc;
            let center = [
                origin[0] + size / 2.0,
                origin[1] + size / 2.0,
                origin[2] + size / 2.0,
            ];
            let r = (center[0] * center[0] + center[1] * center[1] + center[2] * center[2]).sqrt();
            if r < 0.4 {
                continue; // skip near-central leaves where direction varies
            }
            let acc = accel_for_leaf(
                &tree,
                &moments,
                &blocks,
                &pos,
                leaf,
                0.5,
                &kernels(&d, SimdPolicy::default()),
            );
            let mid = acc[block_of_cell(4, 4, 4)];
            let dot = mid[0] * center[0] + mid[1] * center[1] + mid[2] * center[2];
            assert!(dot < 0.0, "acceleration must point inward at r={r}");
            break;
        }
    }

    #[test]
    fn point_accel_inverse_square() {
        let a1 = point_accel(1.0, [0.0; 3], [1.0, 0.0, 0.0], 0.0);
        let a2 = point_accel(1.0, [0.0; 3], [2.0, 0.0, 0.0], 0.0);
        assert!((a1[0] + 1.0).abs() < 1e-12);
        assert!((a2[0] + 0.25).abs() < 1e-12);
        assert_eq!(a1[1], 0.0);
    }

    #[test]
    fn softening_bounds_close_encounters() {
        let a = point_accel(1.0, [0.0; 3], [1e-9, 0.0, 0.0], 0.1);
        assert!(a[0].abs() < 1e-5, "softened force stays finite: {}", a[0]);
    }

    #[test]
    fn multipole_reduces_to_monopole_for_point() {
        let m = Moments {
            mass: 2.0,
            com: [0.5, 0.0, 0.0],
            quad: [0.0; 6],
        };
        let a = multipole_accel(&m, [1.5, 0.0, 0.0]);
        assert!((a[0] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn block_of_cell_maps_pairs() {
        assert_eq!(block_of_cell(0, 0, 0), block_of_cell(1, 1, 1));
        assert_ne!(block_of_cell(1, 1, 1), block_of_cell(2, 1, 1));
        assert_eq!(block_of_cell(7, 7, 7), BLOCKS - 1);
    }

    fn rel_diff(a: [f64; 3], b: [f64; 3]) -> f64 {
        let na = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
        let nb = (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]).sqrt();
        let d = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
        d / na.max(nb).max(1e-300)
    }

    /// `f(kernels, out)` at the scalar oracle and at every width: the widths
    /// must agree bit for bit with each other and to 1e-12 with the oracle.
    fn widths_agree(f: impl Fn(&GravityKernels<'_>, &mut [[f64; 3]])) -> [[f64; 3]; BLOCKS] {
        let d = Dispatch::Legacy;
        let at = |simd| {
            let mut out = [[f64::NAN; 3]; BLOCKS];
            f(&kernels(&d, simd), &mut out);
            out
        };
        let oracle = at(SimdPolicy::Scalar);
        let first = at(SimdPolicy::Width(1));
        for (b, (got, want)) in first.iter().zip(&oracle).enumerate() {
            assert!(
                rel_diff(*got, *want) < 1e-12,
                "block {b}: {got:?} vs {want:?}"
            );
        }
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let got = at(SimdPolicy::Width(w));
            assert_eq!(
                got.map(|a| a.map(f64::to_bits)),
                first.map(|a| a.map(f64::to_bits)),
                "width {w} against width 1"
            );
        }
        first
    }

    /// Every leaf of `tree`, as a near list.
    fn all_leaves(tree: &Octree) -> Vec<u32> {
        tree.leaf_ids().iter().map(|&leaf| leaf as u32).collect()
    }

    #[test]
    fn p2p_has_one_set_of_bits_at_every_width() {
        let (tree, blocks, _, pos) = test_tree(1);
        let tb = &blocks[0];
        let near = all_leaves(&tree);
        widths_agree(|k, out| p2p_blocks(k, &blocks, &pos, tb, &near, 0.05, out));
    }

    /// P2P's `r2` stays inside the domain of `Simd::recip_sqrt` (the normal
    /// f32 range): `eps²` at a coincident source — every target meets itself
    /// in its own leaf — and the squared diagonal of the `[-1, 1]³` domain
    /// at most. In a debug build of the lane loops (default flags, and W 1/2
    /// everywhere) `recip_sqrt` itself asserts it on every lane below.
    #[test]
    fn p2p_r2_stays_inside_the_recip_sqrt_domain() {
        let (tree, blocks, _, pos) = test_tree(1);
        // Softening of a level-12 leaf: 2⁸ times finer than any tree here.
        let eps = softening(tree.node_size(12) / NX as f64);
        let domain = f64::from(f32::MIN_POSITIVE)..=f64::from(f32::MAX);
        assert!(domain.contains(&(eps * eps)));
        assert!(domain.contains(&(12.0 + eps * eps)));
        let near = all_leaves(&tree);
        let got = widths_agree(|k, out| p2p_blocks(k, &blocks, &pos, &blocks[0], &near, eps, out));
        assert!(got.iter().flatten().all(|a| a.is_finite()));
    }

    #[test]
    fn vacuum_sources_add_the_same_signed_zero_at_every_width() {
        // All masses zero: every product is ±0, every partial sum stays +0,
        // and the one negation per target makes each component −0.
        let (tree, mut blocks, _, pos) = test_tree(1);
        for b in &mut blocks {
            b.mass = [0.0; BLOCKS];
        }
        let near = all_leaves(&tree);
        let got = widths_agree(|k, out| p2p_blocks(k, &blocks, &pos, &blocks[0], &near, 0.05, out));
        for a in got.iter().flatten() {
            assert_eq!(a.to_bits(), (-0.0f64).to_bits());
        }
    }

    #[test]
    fn m2l_has_one_set_of_bits_at_every_far_list_length() {
        // Lengths 0..=13 cover every `len % SUM_GROUPS` with and without a
        // full group before the remainder.
        let (_, blocks, moments, _) = test_tree(2);
        let far: Vec<u32> = (0..moments.len() as u32)
            .filter(|&n| moments[n as usize].mass > 0.0)
            .take(13)
            .collect();
        // A target leaf well away from the sources' centres of mass.
        let mut tb = blocks[0].clone();
        for b in 0..BLOCKS {
            tb.set_com(b, [3.0 + tb.x[b], 2.0 + tb.y[b], -4.0 + tb.z[b]]);
        }
        for len in 0..=far.len() {
            widths_agree(|k, out| m2l_blocks(k, &tb, &moments, &far[..len], out));
        }
    }

    #[test]
    fn partial_sums_combine_in_reduce_sum_order() {
        // `store_targets` is `Simd::<4>::reduce_sum` of a target's four
        // partial sums, then the negation — the order width 4 had when
        // sources sat across the lanes, which pinned every hash.
        let groups = [0.1, 1.0e16, -1.0e16, 0.3];
        let acc: Partials<2> = std::array::from_fn(|g| {
            [
                Simd([groups[g], groups[3 - g]]),
                Simd::splat(groups[g]),
                Simd::zero(),
            ]
        });
        let mut out = [[f64::NAN; 3]; 2];
        store_targets(acc, &mut out);
        let fwd = -Simd::<4>(groups).reduce_sum();
        let mut rev = groups;
        rev.reverse();
        assert_eq!(out[0], [fwd, fwd, -0.0]);
        assert_eq!(out[1][0], -Simd::<4>(rev).reduce_sum());
        assert_eq!(out[0][2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn workspace_upward_pass_matches_free_function_and_caches_topology() {
        let (tree, blocks, moments, _) = test_tree(2);
        let mut ws = GravityWorkspace::new();
        let ws_moments = ws.upward_pass(&tree, &blocks).to_vec();
        assert_eq!(ws_moments.len(), moments.len());
        for (a, b) in ws_moments.iter().zip(&moments) {
            assert_eq!(a, b, "workspace pass must equal the one-shot pass");
        }
        assert_eq!(ws.leaf_pos, leaf_positions(&tree));
        // Second pass on the same topology reuses the cached order.
        let gen = ws.generation;
        ws.upward_pass(&tree, &blocks);
        assert_eq!(ws.generation, gen);
        assert_eq!(ws.generation, Some(tree.generation()));
    }

    #[test]
    fn interaction_cache_hits_until_invalidated() {
        let (tree, _, moments, pos) = test_tree(1);
        let mut cache = InteractionCache::new();
        assert!(
            cache.ensure(&tree, &moments, 0.5).rebuilt,
            "first solve misses"
        );
        assert!(!cache.ensure(&tree, &moments, 0.5).rebuilt, "same key hits");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.partial_rebuilds, 0, "θ/invalidation misses are full");
        // θ is part of the key.
        assert!(cache.ensure(&tree, &moments, 0.3).rebuilt, "new θ misses");
        // Explicit invalidation (the cache-off ablation path).
        cache.invalidate();
        assert!(cache.ensure(&tree, &moments, 0.3).rebuilt);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(
            cache.stats().leaves_rebuilt,
            3 * tree.leaf_count() as u64,
            "every miss so far re-traversed every leaf"
        );
        // Cached lists equal a fresh traversal, leaf by leaf.
        for (i, &leaf) in tree.leaf_ids().iter().enumerate() {
            let fresh = interaction_lists(&tree, &moments, leaf, 0.3);
            assert_eq!(cache.lists()[i], fresh, "leaf {} (pos {i})", pos[leaf]);
        }
    }

    #[test]
    fn incremental_ensure_matches_full_rebuild_and_skips_clean_leaves() {
        // Refine mid-run, then compare the incremental cache against a
        // from-scratch cache: the spliced structure must be identical and
        // the retained lists must not have been re-traversed.
        let (mut tree, _, moments, _) = test_tree(2);
        let mut warm = InteractionCache::new();
        assert!(warm.ensure(&tree, &moments, 0.5).rebuilt);
        // Split the heaviest leaf (deep in the star → a real neighbour cone).
        let victim = *tree
            .leaf_ids()
            .iter()
            .max_by(|&&a, &&b| {
                tree.subgrid(a)
                    .mass()
                    .partial_cmp(&tree.subgrid(b).mass())
                    .unwrap()
            })
            .unwrap();
        tree.regrid(&[victim]);
        let blocks: Vec<BlockSoA> = tree
            .leaf_ids()
            .iter()
            .map(|&l| compute_blocks(tree.subgrid(l)))
            .collect();
        let moments = upward_pass(&tree, &blocks);
        let report = warm.ensure(&tree, &moments, 0.5);
        assert!(report.rebuilt);
        assert!(report.leaves_retained > 0, "clean leaves must be spliced");
        assert!(
            report.leaves_rebuilt < tree.leaf_count(),
            "a single split must not rebuild every list"
        );
        assert_eq!(
            report.leaves_rebuilt + report.leaves_retained,
            tree.leaf_count()
        );
        let s = warm.stats();
        assert_eq!(s.partial_rebuilds, 1);
        assert_eq!(s.leaves_retained, report.leaves_retained as u64);
        // mac_evals charges only the re-traversed lists.
        let mut cold = InteractionCache::new();
        let cold_report = cold.ensure(&tree, &moments, 0.5);
        assert!(report.mac_evals < cold_report.mac_evals);
        // Incremental ≡ full rebuild ≡ a fresh traversal, list by list.
        assert_eq!(warm.lists().len(), cold.lists().len());
        for (i, (w, c)) in warm.lists().iter().zip(cold.lists()).enumerate() {
            assert_eq!(w, c, "leaf position {i}");
            let fresh = interaction_lists(&tree, &moments, tree.leaf_ids()[i], 0.5);
            assert_eq!(*w, fresh, "leaf position {i}");
        }
    }

    #[test]
    fn workspace_prepare_is_incremental_after_refine() {
        // After a mid-run refine the workspace merges the newly internal
        // nodes instead of re-deriving the order; the result must equal a
        // cold workspace's full derivation.
        let (mut tree, blocks, _, _) = test_tree(2);
        let mut warm = GravityWorkspace::new();
        warm.upward_pass(&tree, &blocks);
        tree.regrid(&[tree.leaf_ids()[0]]);
        let blocks: Vec<BlockSoA> = tree
            .leaf_ids()
            .iter()
            .map(|&l| compute_blocks(tree.subgrid(l)))
            .collect();
        let warm_moments = warm.upward_pass(&tree, &blocks).to_vec();
        let mut cold = GravityWorkspace::new();
        let cold_moments = cold.upward_pass(&tree, &blocks).to_vec();
        assert_eq!(warm.leaf_pos, cold.leaf_pos);
        assert_eq!(
            warm.internal_order.len(),
            cold.internal_order.len(),
            "merge must cover exactly the split nodes"
        );
        for (a, b) in warm_moments.iter().zip(&cold_moments) {
            assert_eq!(a, b, "incremental order must give identical moments");
        }
    }

    #[test]
    fn flop_constants_match_counted_kernels() {
        use rv_machine::{CountedF64, FlopCounter};
        let c = CountedF64::new;

        // Counted mirror of `point_accel` (the scalar P2P body).
        let counted_point = |mass: f64, src: [f64; 3], p: [f64; 3], eps: f64| {
            let x = [
                c(p[0]) - c(src[0]),
                c(p[1]) - c(src[1]),
                c(p[2]) - c(src[2]),
            ];
            let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + c(eps) * c(eps);
            let inv_r3 = c(1.0) / (r2 * r2.sqrt());
            [
                -c(mass) * x[0] * inv_r3,
                -c(mass) * x[1] * inv_r3,
                -c(mass) * x[2] * inv_r3,
            ]
        };
        let ctr = FlopCounter::new();
        {
            let _g = ctr.install();
            let _ = counted_point(2.0, [0.1, 0.2, 0.3], [1.0, -0.5, 0.25], 0.05);
        }
        let monopole_cost = ctr.flops() + ctr.cmps();
        assert_eq!(
            monopole_cost, MONOPOLE_FLOPS_PER_INTERACTION,
            "monopole constant must equal the counted kernel exactly"
        );

        // Counted mirror of `multipole_accel`.
        let m = Moments {
            mass: 2.0,
            com: [0.1, -0.2, 0.3],
            quad: [1.0, -0.5, -0.5, 0.2, 0.1, -0.3],
        };
        let p = [1.5, 0.5, -1.0];
        ctr.reset();
        {
            let _g = ctr.install();
            let x = [
                c(p[0]) - c(m.com[0]),
                c(p[1]) - c(m.com[1]),
                c(p[2]) - c(m.com[2]),
            ];
            let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2];
            let r = r2.sqrt();
            let inv_r3 = c(1.0) / (r2 * r);
            let inv_r5 = inv_r3 / r2;
            let inv_r7 = inv_r5 / r2;
            let mut a = [
                -c(m.mass) * x[0] * inv_r3,
                -c(m.mass) * x[1] * inv_r3,
                -c(m.mass) * x[2] * inv_r3,
            ];
            let q: Vec<CountedF64> = m.quad.iter().map(|&v| c(v)).collect();
            let qx = [
                q[0] * x[0] + q[3] * x[1] + q[4] * x[2],
                q[3] * x[0] + q[1] * x[1] + q[5] * x[2],
                q[4] * x[0] + q[5] * x[1] + q[2] * x[2],
            ];
            let xqx = x[0] * qx[0] + x[1] * qx[1] + x[2] * qx[2];
            for d in 0..3 {
                a[d] += -(qx[d] * inv_r5 - c(2.5) * xqx * x[d] * inv_r7);
            }
        }
        let multipole_cost = ctr.flops() + ctr.cmps();
        let lo = MULTIPOLE_FLOPS_PER_INTERACTION * 85 / 100;
        let hi = MULTIPOLE_FLOPS_PER_INTERACTION * 115 / 100;
        assert!(
            (lo..=hi).contains(&multipole_cost),
            "multipole constant {MULTIPOLE_FLOPS_PER_INTERACTION} vs counted {multipole_cost}"
        );
    }

    #[test]
    fn dispatch_backends_agree_on_gravity() {
        let (tree, blocks, moments, pos) = test_tree(1);
        let rt = amt::Runtime::new(2);
        let target = tree.leaf_ids()[0];
        // Axis 1 — execution spaces: identical inner kernels run per
        // block, so Legacy / Kokkos Serial / Kokkos HPX must agree BITWISE
        // at the (default, SIMD) width.
        let legacy = accel_for_leaf(
            &tree,
            &moments,
            &blocks,
            &pos,
            target,
            0.5,
            &kernels(&Dispatch::Legacy, SimdPolicy::default()),
        );
        let hpx = Dispatch::new(
            crate::kernel_backend::KernelType::KokkosHpx,
            &rt.handle(),
            4,
        );
        let ser = Dispatch::new(
            crate::kernel_backend::KernelType::KokkosSerial,
            &rt.handle(),
            4,
        );
        let mixed = GravityKernels {
            multipole: &hpx,
            monopole: &ser,
            simd: SimdPolicy::default(),
        };
        let kk = accel_for_leaf(&tree, &moments, &blocks, &pos, target, 0.5, &mixed);
        for (a, b) in legacy.iter().zip(&kk) {
            for d in 0..3 {
                assert_eq!(a[d].to_bits(), b[d].to_bits());
            }
        }
        // Axis 2 — lane counts: one summation order, so the widths agree
        // BITWISE too; the scalar oracle sums in list order and agrees to
        // 1e-12 relative.
        let d = Dispatch::Legacy;
        let at = |simd| {
            accel_for_leaf(
                &tree,
                &moments,
                &blocks,
                &pos,
                target,
                0.5,
                &kernels(&d, simd),
            )
        };
        let oracle = at(SimdPolicy::Scalar);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let got = at(SimdPolicy::Width(w));
            for ((a, b), o) in got.iter().zip(&legacy).zip(&oracle) {
                assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "width {w}");
                assert!(rel_diff(*a, *o) < 1e-12, "width {w}: {a:?} vs {o:?}");
            }
        }
    }
}
