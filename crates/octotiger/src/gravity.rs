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
//!    granularity of the near field; cells inherit their block's
//!    acceleration (a smoothing equivalent to Octo-Tiger's cell-block
//!    aggregation in its monopole kernels).
//! 2. **M2M** — upward pass: every tree node gets mass, centre of mass and
//!    traceless quadrupole moments from its children.
//! 3. **Dual traversal** — for each target leaf, walk the tree with the
//!    multipole acceptance criterion `size/dist < θ`: accepted nodes join
//!    the *far list* (evaluated with the **multipole kernel**), leaf nodes
//!    too close join the *near list* (block-block **monopole kernel**,
//!    Plummer-softened). Because the lists depend only on tree topology
//!    and (weakly, through the MAC) on the centres of mass, they are
//!    cached across solves in an [`InteractionCache`] keyed on the
//!    octree's topology generation.
//!
//! Both kernels dispatch their block loops through
//! [`Dispatch`](crate::kernel_backend::Dispatch) (the execution-space axis,
//! mirroring `--multipole_host_kernel_type` / `--monopole_host_kernel_type`)
//! and vectorize their inner source loops per the configured
//! [`SimdPolicy`] (the data-parallel axis): splat the target block, stream
//! the SoA sources in `Simd<W>` packs, `mul_add`-accumulate, `recip_sqrt`
//! for the Plummer-softened distance of the near field. The scalar path is
//! retained as an always-available reference backend. A direct O(N²)
//! summation ([`direct_accel`]) validates the FMM in tests.

use std::sync::Mutex;

use apex_lite::trace::{self, Cat};

use crate::kernel_backend::{Dispatch, SimdPolicy};
use crate::octree::{NodeId, Octree};
use crate::star::field;
use crate::subgrid::{SubGrid, CELLS, NX};
use kokkos_lite::Simd;

/// Blocks per dimension (8 cells / 2 per block).
pub const NB: usize = NX / 2;
/// Blocks per leaf. 64 is a multiple of every supported SIMD width
/// (1/2/4/8), so the per-leaf SoA arrays need no tail padding; slices of
/// other lengths (the far-field table) are handled with predicated loads.
pub const BLOCKS: usize = NB * NB * NB;

/// Position sentinel loaded into padded (predicated-out) SIMD lanes. Far
/// from every real coordinate (the domain is O(1) wide), so together with
/// a padded mass/quadrupole of zero the lane's contribution is exactly
/// zero while `1/r` stays finite — no per-lane masking needed.
const PAD_POS: f64 = 1.0e6;

/// Aggregated mass blocks of one leaf, structure-of-arrays: contiguous
/// per-component coordinate and mass lanes, the layout the SIMD kernels
/// stream (the real Octo-Tiger's SoA containers for its SIMD-typed
/// kernels, "From Merging Frameworks to Merging Stars").
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSoA {
    /// Centre-of-mass x per block.
    pub x: [f64; BLOCKS],
    /// Centre-of-mass y per block.
    pub y: [f64; BLOCKS],
    /// Centre-of-mass z per block.
    pub z: [f64; BLOCKS],
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
    pub fn com(&self, b: usize) -> [f64; 3] {
        [self.x[b], self.y[b], self.z[b]]
    }

    /// Set the centre of mass of block `b`.
    #[inline]
    pub fn set_com(&mut self, b: usize, c: [f64; 3]) {
        self.x[b] = c[0];
        self.y[b] = c[1];
        self.z[b] = c[2];
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
pub fn block_index(bi: usize, bj: usize, bk: usize) -> usize {
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
    let mut rho = [0.0; CELLS];
    sub.interior_field(field::RHO, &mut rho);
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

/// Interaction lists of one target leaf: (far nodes for M2L, near leaves
/// for P2P). `theta` is the opening parameter; smaller = more accurate.
pub fn interaction_lists(
    tree: &Octree,
    moments: &[Moments],
    target: NodeId,
    theta: f64,
) -> (Vec<NodeId>, Vec<NodeId>) {
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
            far.push(id);
        } else {
            match tree.node(id).children {
                Some(children) => stack.extend(children),
                None => near.push(id),
            }
        }
    }
    (far, near)
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
    pub rebuilt: bool,
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
/// A refinement no longer discards the whole cache. The MAC decision for a
/// far-accepted node depends only on its size and geometric centre — both
/// unchanged by a split below it — so a retained target's *far* entries
/// stay valid verbatim. Only a target whose **near** list mentions a split
/// node (its "neighbour cone": the split node was close enough that the
/// traversal descended to it as a leaf) must re-traverse, plus the sweep's
/// new leaves themselves. [`Self::ensure`] gets the exact split set from
/// [`Octree::splits_since`] and splices every clean target's lists into the
/// new leaf order untouched — at level 5 a single-leaf refine re-traverses
/// a few percent of targets instead of all of them.
#[derive(Default)]
pub struct InteractionCache {
    key: Option<(u64, u64)>,
    /// Leaf order the cached `lists` are aligned with (snapshot of
    /// `tree.leaf_ids()` at the last rebuild).
    leaf_ids: Vec<NodeId>,
    lists: Vec<(Vec<NodeId>, Vec<NodeId>)>,
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
    pub fn ensure(&mut self, tree: &Octree, moments: &[Moments], theta: f64) -> EnsureReport {
        let key = (tree.generation(), theta.to_bits());
        if self.key == Some(key) {
            self.stats.hits += 1;
            return EnsureReport {
                rebuilt: false,
                ..EnsureReport::default()
            };
        }
        self.stats.misses += 1;
        // One span per rebuild, partial or full: trace cache_rebuild count
        // == stats.misses.
        let _span = trace::span(Cat::Gravity, "cache_rebuild");
        // Same θ and a newer topology of the *same* tree: the split log
        // names every node that stopped being a leaf since our snapshot, so
        // only lists whose near cone mentions one need re-traversal.
        let incremental = self
            .key
            .filter(|&(g0, t0)| t0 == theta.to_bits() && tree.generation() > g0)
            .map(|(g0, _)| g0)
            .filter(|_| !self.leaf_ids.is_empty());
        let report = match incremental {
            Some(g0) => self.partial_rebuild(tree, moments, theta, g0),
            None => self.full_rebuild(tree, moments, theta),
        };
        self.key = Some(key);
        report
    }

    /// Rebuild every leaf's lists from scratch.
    fn full_rebuild(&mut self, tree: &Octree, moments: &[Moments], theta: f64) -> EnsureReport {
        self.lists.clear();
        let mut mac_evals = 0u64;
        for &leaf in tree.leaf_ids() {
            let (far, near) = interaction_lists(tree, moments, leaf, theta);
            mac_evals += (far.len() + near.len()) as u64;
            self.lists.push((far, near));
        }
        self.leaf_ids.clear();
        self.leaf_ids.extend_from_slice(tree.leaf_ids());
        self.stats.leaves_rebuilt += self.lists.len() as u64;
        EnsureReport {
            rebuilt: true,
            leaves_rebuilt: self.lists.len(),
            leaves_retained: 0,
            mac_evals,
        }
    }

    /// Re-traverse only the leaves invalidated by the splits after
    /// generation `g0`; splice every other retained list into the new leaf
    /// order.
    fn partial_rebuild(
        &mut self,
        tree: &Octree,
        moments: &[Moments],
        theta: f64,
        g0: u64,
    ) -> EnsureReport {
        let mut is_split = vec![false; tree.node_count()];
        let mut any = false;
        for id in tree.splits_since(g0) {
            is_split[id] = true;
            any = true;
        }
        if !any {
            // Generation moved without a covering log (defensive — e.g. a
            // cache shared across trees): fall back to the full path.
            return self.full_rebuild(tree, moments, theta);
        }
        let old_pos: std::collections::HashMap<NodeId, usize> = self
            .leaf_ids
            .iter()
            .enumerate()
            .map(|(pos, &leaf)| (leaf, pos))
            .collect();
        let mut old: Vec<Option<(Vec<NodeId>, Vec<NodeId>)>> = std::mem::take(&mut self.lists)
            .into_iter()
            .map(Some)
            .collect();
        let mut leaves_rebuilt = 0usize;
        let mut leaves_retained = 0usize;
        let mut mac_evals = 0u64;
        self.lists = tree
            .leaf_ids()
            .iter()
            .map(|&leaf| {
                // A split node appears in old near lists (ids are stable and
                // never removed, so the bitmap covers them all); old far
                // entries stay valid — the MAC saw the same size/position.
                let clean = old_pos.get(&leaf).copied().filter(|&pos| {
                    old[pos]
                        .as_ref()
                        .is_some_and(|(_, near)| near.iter().all(|&n| !is_split[n]))
                });
                match clean {
                    Some(pos) => {
                        leaves_retained += 1;
                        old[pos].take().expect("each old list spliced once")
                    }
                    None => {
                        let (far, near) = interaction_lists(tree, moments, leaf, theta);
                        mac_evals += (far.len() + near.len()) as u64;
                        leaves_rebuilt += 1;
                        (far, near)
                    }
                }
            })
            .collect();
        self.leaf_ids.clear();
        self.leaf_ids.extend_from_slice(tree.leaf_ids());
        self.stats.partial_rebuilds += 1;
        self.stats.leaves_rebuilt += leaves_rebuilt as u64;
        self.stats.leaves_retained += leaves_retained as u64;
        EnsureReport {
            rebuilt: true,
            leaves_rebuilt,
            leaves_retained,
            mac_evals,
        }
    }

    /// Cached `(far, near)` lists, aligned with `tree.leaf_ids()`.
    pub fn lists(&self) -> &[(Vec<NodeId>, Vec<NodeId>)] {
        &self.lists
    }

    /// Drop the key so the next [`Self::ensure`] rebuilds (the cache-off
    /// ablation path).
    pub fn invalidate(&mut self) {
        self.key = None;
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Acceleration at `p` from a multipole source (monopole + traceless
/// quadrupole) — the scalar **multipole kernel** body.
#[inline]
pub fn multipole_accel(m: &Moments, p: [f64; 3]) -> [f64; 3] {
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
pub fn point_accel(mass: f64, src: [f64; 3], p: [f64; 3], eps: f64) -> [f64; 3] {
    let x = [p[0] - src[0], p[1] - src[1], p[2] - src[2]];
    let r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + eps * eps;
    let inv_r3 = 1.0 / (r2 * r2.sqrt());
    [
        -mass * x[0] * inv_r3,
        -mass * x[1] * inv_r3,
        -mass * x[2] * inv_r3,
    ]
}

/// Scalar reference: total P2P acceleration at `p` from SoA sources.
/// Zero-mass sources are skipped (their contribution is exactly zero);
/// a source coincident with `p` contributes exactly zero too (Plummer
/// `eps > 0` keeps `1/r` finite), which is why the SIMD path needs no
/// self-interaction mask.
pub fn monopole_accel_scalar(
    p: [f64; 3],
    mass: &[f64],
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    eps: f64,
) -> [f64; 3] {
    let mut a = [0.0; 3];
    for s in 0..mass.len() {
        if mass[s] <= 0.0 {
            continue;
        }
        let da = point_accel(mass[s], [sx[s], sy[s], sz[s]], p, eps);
        a[0] += da[0];
        a[1] += da[1];
        a[2] += da[2];
    }
    a
}

/// `match_width!(policy, |W| simd, scalar)`: `simd` monomorphised with the
/// policy's pack width bound to the const `W`; the scalar reference and
/// unvalidated widths take `scalar`. The gravity entry points match once
/// per leaf sweep, outside every loop.
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

/// Load the pack at `s[off..]`: branch-free when `PAD` is false, predicated
/// (lanes past the end read `fill`) when true.
#[inline(always)]
fn load_pack<const W: usize, const PAD: bool>(s: &[f64], off: usize, fill: f64) -> Simd<W> {
    if PAD {
        Simd::from_slice_padded(s, off, fill)
    } else {
        Simd::from_slice(s, off)
    }
}

/// One pack of P2P interactions: the sources at `off` against the splatted
/// target `p`, added to the running positive sums `acc`. Forced inline so
/// the accumulators stay in vector registers across the source stream.
/// Padded lanes load mass 0 at the [`PAD_POS`] sentinel, so they contribute
/// exactly zero — no masking. `r2` is at least `eps²` (a coincident source)
/// and at most about `3·PAD_POS²` (a padded lane): inside the domain of
/// [`Simd::recip_sqrt`] by twenty orders of magnitude at either end.
#[inline(always)]
fn p2p_pack<const W: usize, const PAD: bool>(
    [mass, sx, sy, sz]: [&[f64]; 4],
    off: usize,
    p: &[Simd<W>; 3],
    eps2: Simd<W>,
    acc: &mut [Simd<W>; 3],
) {
    let m = load_pack::<W, PAD>(mass, off, 0.0);
    let x = p[0] - load_pack::<W, PAD>(sx, off, PAD_POS);
    let y = p[1] - load_pack::<W, PAD>(sy, off, PAD_POS);
    let z = p[2] - load_pack::<W, PAD>(sz, off, PAD_POS);
    let r2 = x.mul_add(x, y.mul_add(y, z.mul_add(z, eps2)));
    let inv_r = r2.recip_sqrt();
    let w = m * inv_r * inv_r * inv_r;
    acc[0] = x.mul_add(w, acc[0]);
    acc[1] = y.mul_add(w, acc[1]);
    acc[2] = z.mul_add(w, acc[2]);
}

/// Width-generic SIMD P2P sweep of one target over a list of SoA source
/// streams `[mass, x, y, z]`: splat the target, stream every source in
/// `Simd<W>` packs, `mul_add`-accumulate, `recip_sqrt` for the softened
/// distance. The three vector accumulators live across the whole list: one
/// horizontal reduction and one negation per target, after the last source.
#[inline(always)]
fn p2p_sweep<'a, const W: usize>(
    p: [f64; 3],
    sources: impl Iterator<Item = [&'a [f64]; 4]>,
    eps: f64,
) -> [f64; 3] {
    let p = p.map(Simd::<W>::splat);
    let eps2 = Simd::<W>::splat(eps * eps);
    let mut acc = [Simd::<W>::zero(); 3];
    for src in sources {
        // Written out rather than through `sweep_packs`: a closure called
        // from two sites stays out of line, and the accumulators with it.
        // Only the remainder pack pays for predication.
        let len = src[0].len();
        let mut off = 0;
        while off + W <= len {
            p2p_pack::<W, false>(src, off, &p, eps2, &mut acc);
            off += W;
        }
        if off < len {
            p2p_pack::<W, true>(src, off, &p, eps2, &mut acc);
        }
    }
    acc.map(|a| -a.reduce_sum())
}

/// Width-generic SIMD P2P kernel over one source stream: the one-source
/// case of the sweep [`p2p_blocks`] runs over a near list.
#[inline]
pub fn monopole_accel_simd<const W: usize>(
    p: [f64; 3],
    mass: &[f64],
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    eps: f64,
) -> [f64; 3] {
    p2p_sweep::<W>(p, std::iter::once([mass, sx, sy, sz]), eps)
}

/// Monopole slice kernel dispatched per the configured [`SimdPolicy`].
pub fn monopole_accel_soa(
    policy: SimdPolicy,
    p: [f64; 3],
    mass: &[f64],
    sx: &[f64],
    sy: &[f64],
    sz: &[f64],
    eps: f64,
) -> [f64; 3] {
    match_width!(
        policy,
        |W| monopole_accel_simd::<W>(p, mass, sx, sy, sz, eps),
        monopole_accel_scalar(p, mass, sx, sy, sz, eps)
    )
}

/// Storage alignment of a [`FarField`] segment: the widest supported pack.
/// [`FarField::pad_to_simd`] rounds each segment's storage up to a multiple
/// of this with sentinel rows, so every narrower width divides it too.
pub const SIMD_PAD: usize = 8;

/// SoA table of one leaf's far-field sources (M2L inputs), rebuilt per
/// target leaf inside reusable scratch — the multipole analogue of
/// [`BlockSoA`]. Sized by the far list, so segment lengths are ragged;
/// builders call [`FarField::pad_to_simd`] after each segment so the M2L
/// kernel's remainder pack can load sentinel rows straight from storage
/// instead of constructing a predicated pack lane by lane.
#[derive(Debug, Clone, Default)]
pub struct FarField {
    /// Source masses.
    pub mass: Vec<f64>,
    /// Source COM x.
    pub x: Vec<f64>,
    /// Source COM y.
    pub y: Vec<f64>,
    /// Source COM z.
    pub z: Vec<f64>,
    /// Traceless quadrupole components (xx, yy, zz, xy, xz, yz), each a
    /// contiguous lane.
    pub quad: [Vec<f64>; 6],
    /// Real (non-sentinel) sources pushed so far.
    len: usize,
}

impl FarField {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of real sources (sentinel pad rows excluded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no sources are loaded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all sources, keeping capacity.
    pub fn clear(&mut self) {
        self.mass.clear();
        self.x.clear();
        self.y.clear();
        self.z.clear();
        for q in &mut self.quad {
            q.clear();
        }
        self.len = 0;
    }

    /// Append one multipole source.
    pub fn push(&mut self, m: &Moments) {
        self.mass.push(m.mass);
        self.x.push(m.com[0]);
        self.y.push(m.com[1]);
        self.z.push(m.com[2]);
        for (lane, &q) in self.quad.iter_mut().zip(m.quad.iter()) {
            lane.push(q);
        }
        self.len += 1;
    }

    /// Round the storage up to a multiple of [`SIMD_PAD`] with sentinel
    /// rows (zero mass and quadrupole at [`PAD_POS`]) — exactly the lane
    /// values `from_slice_padded` constructs for a ragged remainder, so a
    /// full-pack load over the pad region is bitwise-identical to the
    /// predicated load it replaces. Does not change [`FarField::len`].
    pub fn pad_to_simd(&mut self) {
        while !self.mass.len().is_multiple_of(SIMD_PAD) {
            self.mass.push(0.0);
            self.x.push(PAD_POS);
            self.y.push(PAD_POS);
            self.z.push(PAD_POS);
            for q in &mut self.quad {
                q.push(0.0);
            }
        }
    }

    /// Append the moments of `nodes`, then pad ([`FarField::pad_to_simd`]):
    /// how a leaf's far table is built from its far list.
    pub fn push_segment(&mut self, moments: &[Moments], nodes: &[NodeId]) {
        for &n in nodes {
            self.push(&moments[n]);
        }
        self.pad_to_simd();
    }

    /// Borrowed view of the table: the slices cover the storage, sentinel
    /// pad rows included, so the M2L kernel can finish the ragged remainder
    /// with one full-pack load; without padded storage the kernel falls back
    /// to a predicated load at the view's end.
    pub fn as_view(&self) -> FarFieldView<'_> {
        FarFieldView {
            mass: &self.mass,
            x: &self.x,
            y: &self.y,
            z: &self.z,
            quad: std::array::from_fn(|i| &self.quad[i][..]),
            len: self.len,
        }
    }
}

/// Borrowed SoA slice of a [`FarField`] — the unit the M2L kernels consume:
/// one contiguous source stream with at most one ragged tail pack. The slices
/// may run past [`FarFieldView::len`] into sentinel pad rows — the kernels
/// full-load the tail from those rows when present and only construct a
/// predicated pack when the slices end flush with the real sources.
#[derive(Debug, Clone, Copy)]
pub struct FarFieldView<'a> {
    /// Source masses.
    pub mass: &'a [f64],
    /// Source COM x.
    pub x: &'a [f64],
    /// Source COM y.
    pub y: &'a [f64],
    /// Source COM z.
    pub z: &'a [f64],
    /// Traceless quadrupole components (xx, yy, zz, xy, xz, yz).
    pub quad: [&'a [f64]; 6],
    /// Real sources in the view (the slices may be longer by pad rows).
    len: usize,
}

impl FarFieldView<'_> {
    /// Number of real sources in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view holds no sources.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Scalar reference: far-field acceleration at `p` from a [`FarField`]
/// table (sequential [`multipole_accel`] over the sources).
pub fn multipole_accel_scalar(p: [f64; 3], ff: &FarField) -> [f64; 3] {
    multipole_accel_scalar_view(p, ff.as_view())
}

/// [`multipole_accel_scalar`] over a borrowed [`FarFieldView`].
pub fn multipole_accel_scalar_view(p: [f64; 3], ff: FarFieldView<'_>) -> [f64; 3] {
    let mut a = [0.0; 3];
    for s in 0..ff.len() {
        let m = Moments {
            mass: ff.mass[s],
            com: [ff.x[s], ff.y[s], ff.z[s]],
            quad: [
                ff.quad[0][s],
                ff.quad[1][s],
                ff.quad[2][s],
                ff.quad[3][s],
                ff.quad[4][s],
                ff.quad[5][s],
            ],
        };
        let da = multipole_accel(&m, p);
        a[0] += da[0];
        a[1] += da[1];
        a[2] += da[2];
    }
    a
}

/// One pack of M2L interactions: the sources at `off` of `ff` against the
/// splatted target `p`, added to the running positive sums `acc`. Forced
/// inline, like [`p2p_pack`]; padded lanes sit at the [`PAD_POS`] sentinel
/// with zero mass and quadrupole.
#[inline(always)]
fn m2l_pack<const W: usize, const PAD: bool>(
    ff: &FarFieldView<'_>,
    off: usize,
    p: &[Simd<W>; 3],
    acc: &mut [Simd<W>; 3],
) {
    let m = load_pack::<W, PAD>(ff.mass, off, 0.0);
    let x = p[0] - load_pack::<W, PAD>(ff.x, off, PAD_POS);
    let y = p[1] - load_pack::<W, PAD>(ff.y, off, PAD_POS);
    let z = p[2] - load_pack::<W, PAD>(ff.z, off, PAD_POS);
    let q = |i: usize| load_pack::<W, PAD>(ff.quad[i], off, 0.0);
    let r2 = x.mul_add(x, y.mul_add(y, z * z));
    // The correctly rounded `1/√r²`, not `recip_sqrt`: M2L is bound by its
    // multiply-adds, so the divider is free here and the five extra
    // operations of `recip_sqrt` are not (0.068 → 0.085 s per level-4 step).
    let inv_r = Simd::splat(1.0) / r2.sqrt();
    let inv_r2 = inv_r * inv_r;
    let inv_r3 = inv_r2 * inv_r;
    let inv_r5 = inv_r3 * inv_r2;
    let inv_r7 = inv_r5 * inv_r2;
    // Q·x rows.
    let qx = q(0).mul_add(x, q(3).mul_add(y, q(4) * z));
    let qy = q(3).mul_add(x, q(1).mul_add(y, q(5) * z));
    let qz = q(4).mul_add(x, q(5).mul_add(y, q(2) * z));
    let xqx = x.mul_add(qx, y.mul_add(qy, z * qz));
    // a = −[M x/r³ + (Q·x)/r⁵ − (5/2)(x·Q·x) x/r⁷]: accumulate the
    // bracket positively, negate once after the reduction.
    let s = m.mul_add(inv_r3, -(Simd::splat(2.5) * xqx * inv_r7));
    acc[0] = qx.mul_add(inv_r5, x.mul_add(s, acc[0]));
    acc[1] = qy.mul_add(inv_r5, y.mul_add(s, acc[1]));
    acc[2] = qz.mul_add(inv_r5, z.mul_add(s, acc[2]));
}

/// Width-generic SIMD M2L kernel over a borrowed [`FarFieldView`]. Far
/// sources are strictly outside the target leaf's circumscribed sphere (the
/// MAC guarantees `dist − radius > 0`), so `r² > 0` on every real lane and
/// the scalar kernel's `r² == 0` guard is unnecessary.
#[inline]
pub fn multipole_accel_simd_view<const W: usize>(p: [f64; 3], ff: FarFieldView<'_>) -> [f64; 3] {
    let p = p.map(Simd::<W>::splat);
    let mut acc = [Simd::<W>::zero(); 3];
    // Every pack the storage covers takes the branch-free unpadded loads —
    // the remainder pack too when the view's slices extend into sentinel
    // pad rows (padded storage holds exactly the lane values a predicated
    // load would construct, so the arithmetic is bitwise-identical). Only a
    // view that ends flush with its real sources pays for the lane-by-lane
    // predicated construction — 10 SoA streams per pack, which is what
    // made ragged tails disproportionately expensive at wide W. Written out
    // for the reason given in `p2p_sweep`.
    let mut off = 0;
    while off < ff.len() && off + W <= ff.mass.len() {
        m2l_pack::<W, false>(&ff, off, &p, &mut acc);
        off += W;
    }
    if off < ff.len() {
        m2l_pack::<W, true>(&ff, off, &p, &mut acc);
    }
    acc.map(|a| -a.reduce_sum())
}

/// Multipole slice kernel dispatched per the configured [`SimdPolicy`].
pub fn multipole_accel_soa(policy: SimdPolicy, p: [f64; 3], ff: &FarField) -> [f64; 3] {
    let ff = ff.as_view();
    match_width!(
        policy,
        |W| multipole_accel_simd_view::<W>(p, ff),
        multipole_accel_scalar_view(p, ff)
    )
}

/// Softening length for a leaf of cell width `dx`.
#[inline]
pub fn softening(dx: f64) -> f64 {
    dx
}

/// The two kernel-configuration axes bundled for the solve path: which
/// execution space runs the per-block loops, and at which SIMD width the
/// inner source loops run.
pub struct GravityKernels<'a> {
    /// Execution space of the far-field (M2L) block loop.
    pub multipole: &'a Dispatch,
    /// Execution space of the near-field (P2P) block loop.
    pub monopole: &'a Dispatch,
    /// Width policy of both inner source loops.
    pub simd: SimdPolicy,
}

/// Multipole kernel of one target leaf: far-field acceleration per block of
/// `tb` from the far table `ff`, under an `m2l` span.
pub fn m2l_blocks(
    kernels: &GravityKernels<'_>,
    tb: &BlockSoA,
    ff: FarFieldView<'_>,
    out: &mut [[f64; 3]],
) {
    let _span = trace::span(Cat::Gravity, "m2l");
    match_width!(
        kernels.simd,
        |W| kernels
            .multipole
            .fill(out, |b| multipole_accel_simd_view::<W>(tb.com(b), ff)),
        kernels
            .multipole
            .fill(out, |b| multipole_accel_scalar_view(tb.com(b), ff))
    )
}

/// Monopole kernel of one target leaf: near-field block-block P2P per block
/// of `tb`, under a `p2p` span. The near list's [`BlockSoA`]s are swept in
/// place, in list order, into one set of accumulators per target block,
/// reduced once after the last source leaf — the accumulation order every
/// execution mode shares. Self-leaf self-block and zero-mass contributions
/// are exactly zero in the SoA kernels, so no index masking is needed (see
/// [`monopole_accel_scalar`]).
pub fn p2p_blocks(
    kernels: &GravityKernels<'_>,
    blocks: &[BlockSoA],
    leaf_pos: &[usize],
    tb: &BlockSoA,
    near: &[NodeId],
    eps: f64,
    out: &mut [[f64; 3]],
) {
    let _span = trace::span(Cat::Gravity, "p2p");
    let sources = || near.iter().map(|&src| &blocks[leaf_pos[src]]);
    match_width!(
        kernels.simd,
        |W| kernels.monopole.fill(out, |b| {
            let streams = sources().map(|s| [&s.mass[..], &s.x[..], &s.y[..], &s.z[..]]);
            p2p_sweep::<W>(tb.com(b), streams, eps)
        }),
        // The scalar reference sums per source leaf, then over the list.
        kernels.monopole.fill(out, |b| {
            let p = tb.com(b);
            let mut a = [0.0; 3];
            for s in sources() {
                let da = monopole_accel_scalar(p, &s.mass, &s.x, &s.y, &s.z, eps);
                a[0] += da[0];
                a[1] += da[1];
                a[2] += da[2];
            }
            a
        })
    )
}

/// Combine per-block far and near accelerations and scatter them to cells
/// (each cell inherits its block's value) — the final stage of a leaf
/// solve.
pub fn scatter_block_accel(block_acc: &[[f64; 3]], near_acc: &[[f64; 3]]) -> Vec<[f64; 3]> {
    let mut out = vec![[0.0f64; 3]; CELLS];
    for i in 0..NX {
        for j in 0..NX {
            for k in 0..NX {
                let b = block_of_cell(i, j, k);
                let c = crate::hydro::cell_index(i, j, k);
                for d in 0..3 {
                    out[c][d] = block_acc[b][d] + near_acc[b][d];
                }
            }
        }
    }
    out
}

/// Reusable buffers of one leaf solve: the far table and the per-block
/// accumulators. Grow-only; [`LeafSolve::accel`] resets what it reads, so one
/// scratch serves any number of leaves in a row.
#[derive(Default)]
pub struct GravityScratch {
    far: FarField,
    /// Far-field acceleration per block of the leaf being solved.
    block_acc: Vec<[f64; 3]>,
    /// Near-field acceleration per block of the leaf being solved.
    near_acc: Vec<[f64; 3]>,
}

/// Shared free list of [`GravityScratch`] buffers. Far tables have
/// data-dependent lengths, so they recycle here as grow-only buffers rather
/// than through the length-keyed [`RecyclePool`](crate::recycle::RecyclePool).
#[derive(Default)]
pub struct GravityScratches {
    pool: Mutex<Vec<GravityScratch>>,
}

impl GravityScratches {
    /// Take a scratch buffer (fresh if the pool is dry).
    pub fn take(&self) -> GravityScratch {
        let mut pool = self.pool.lock().expect("gravity scratch pool lock");
        pool.pop().unwrap_or_default()
    }

    /// Return a scratch buffer for reuse.
    pub fn put(&self, s: GravityScratch) {
        self.pool.lock().expect("gravity scratch pool lock").push(s);
    }
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
    /// Execution spaces + SIMD width of the kernels.
    pub kernels: &'a GravityKernels<'a>,
}

impl LeafSolve<'_> {
    /// Cell accelerations of leaf `target` from its `far` and `near` lists —
    /// the three stages every solve is made of: the far table gathered into
    /// `scratch` and swept by [`m2l_blocks`], the near list's blocks swept
    /// where they lie by [`p2p_blocks`], then [`scatter_block_accel`].
    pub fn accel(
        &self,
        target: NodeId,
        far: &[NodeId],
        near: &[NodeId],
        scratch: &mut GravityScratch,
    ) -> Vec<[f64; 3]> {
        let tb = &self.blocks[self.leaf_pos[target]];
        let (_, dx) = self.tree.node_geometry(target);
        scratch.far.clear();
        scratch.far.push_segment(self.moments, far);
        scratch.block_acc.resize(BLOCKS, [0.0; 3]);
        scratch.near_acc.resize(BLOCKS, [0.0; 3]);
        m2l_blocks(
            self.kernels,
            tb,
            scratch.far.as_view(),
            &mut scratch.block_acc,
        );
        p2p_blocks(
            self.kernels,
            self.blocks,
            self.leaf_pos,
            tb,
            near,
            softening(dx),
            &mut scratch.near_acc,
        );
        scatter_block_accel(&scratch.block_acc, &scratch.near_acc)
    }
}

/// One-shot FMM acceleration for one target leaf: its own dual traversal and
/// a transient scratch around [`LeafSolve::accel`]. For tests, benches and
/// single-leaf studies; the driver solves on cached lists and recycled
/// scratch.
pub fn accel_for_leaf(
    tree: &Octree,
    moments: &[Moments],
    blocks: &[BlockSoA],
    leaf_pos: &[usize],
    target: NodeId,
    theta: f64,
    kernels: &GravityKernels<'_>,
) -> Vec<[f64; 3]> {
    let (far, near) = interaction_lists(tree, moments, target, theta);
    let solve = LeafSolve {
        tree,
        moments,
        blocks,
        leaf_pos,
        kernels,
    };
    solve.accel(target, &far, &near, &mut GravityScratch::default())
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
/// the same per-target-leaf softening — validates the FMM.
pub fn direct_accel(
    tree: &Octree,
    blocks: &[BlockSoA],
    target: NodeId,
    leaf_pos: &[usize],
) -> Vec<[f64; 3]> {
    let tb = &blocks[leaf_pos[target]];
    let (_, dx) = tree.node_geometry(target);
    let eps = softening(dx);
    let mut block_acc = vec![[0.0f64; 3]; BLOCKS];
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
    let mut out = vec![[0.0f64; 3]; CELLS];
    for i in 0..NX {
        for j in 0..NX {
            for k in 0..NX {
                let b = block_of_cell(i, j, k);
                out[crate::hydro::cell_index(i, j, k)] = block_acc[b];
            }
        }
    }
    out
}

/// Analytic flop estimate per M2L (multipole) interaction, for the
/// projection model — validated against the counted kernels in tests.
pub const MULTIPOLE_FLOPS_PER_INTERACTION: u64 = 60;
/// P2P pairwise interaction cost (incl. sqrt), validated likewise.
pub const MONOPOLE_FLOPS_PER_INTERACTION: u64 = 22;
/// MAC evaluation cost per dual-traversal node visit (distance + compare);
/// charged only on cache *misses* — cached solves skip the traversal, and
/// the projection must not bill flops that were never executed.
pub const MAC_FLOPS_PER_EVAL: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OctoConfig;
    use crate::star::RotatingStar;

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
        let (far, near) = interaction_lists(&tree, &moments, target, 0.5);
        let far_mass: f64 = far.iter().map(|&n| moments[n].mass).sum();
        let near_mass: f64 = near
            .iter()
            .map(|&n| blocks[pos[n]].mass.iter().sum::<f64>())
            .sum();
        let total = tree.total_mass();
        assert!(
            ((far_mass + near_mass - total) / total).abs() < 1e-9,
            "mass partition: far {far_mass} + near {near_mass} != {total}"
        );
        assert!(near.contains(&target), "self-leaf is always near");
    }

    #[test]
    fn fmm_matches_direct_summation() {
        let (tree, blocks, moments, pos) = test_tree(2);
        let d = Dispatch::Legacy;
        // Compare on a leaf near the star centre (strongest field); the
        // default dispatch runs the SIMD (width-4) kernels.
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
            let mid = acc[crate::hydro::cell_index(4, 4, 4)];
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

    #[test]
    fn simd_monopole_matches_scalar_all_widths() {
        let (tree, blocks, _, pos) = test_tree(1);
        let leaf = tree.leaf_ids()[0];
        let sb = &blocks[pos[leaf]];
        let p = [0.3, -0.1, 0.2];
        let eps = 0.05;
        let want = monopole_accel_scalar(p, &sb.mass, &sb.x, &sb.y, &sb.z, eps);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let got =
                monopole_accel_soa(SimdPolicy::Width(w), p, &sb.mass, &sb.x, &sb.y, &sb.z, eps);
            assert!(
                rel_diff(got, want) < 1e-12,
                "width {w}: {got:?} vs {want:?}"
            );
        }
    }

    /// P2P's `r2` stays inside the domain of `Simd::recip_sqrt` (the normal
    /// f32 range): `eps²` at a coincident source, `3·(PAD_POS + 1)² + eps²`
    /// at a padded lane of a target in the far corner of the `[-1, 1]³`
    /// domain. In a debug build of the lane loops (default flags, and W 1/2
    /// everywhere) `recip_sqrt` itself asserts it on every lane below.
    #[test]
    fn p2p_r2_stays_inside_the_recip_sqrt_domain() {
        let (tree, blocks, _, pos) = test_tree(1);
        // Softening of a level-12 leaf: 2⁸ times finer than any tree here.
        let eps = softening(tree.node_size(12) / NX as f64);
        let domain = f64::from(f32::MIN_POSITIVE)..=f64::from(f32::MAX);
        assert!(domain.contains(&(eps * eps)));
        assert!(domain.contains(&(3.0 * (PAD_POS + 1.0).powi(2) + eps * eps)));

        fn padded_lanes_add_exactly_zero<const W: usize>(eps: f64) {
            let p = [-1.0; 3].map(Simd::<W>::splat);
            let mut acc = [Simd::<W>::zero(); 3];
            // No source rows at all: every lane is a padded one.
            p2p_pack::<W, true>([&[]; 4], 0, &p, Simd::splat(eps * eps), &mut acc);
            for a in acc {
                assert_eq!(a.0.map(f64::to_bits), [0; W], "W={W}: {a:?}");
            }
        }
        padded_lanes_add_exactly_zero::<1>(eps);
        padded_lanes_add_exactly_zero::<2>(eps);
        padded_lanes_add_exactly_zero::<4>(eps);
        padded_lanes_add_exactly_zero::<8>(eps);

        // A ragged stream (padded remainder at every width > 1) whose first
        // source coincides with the target: `r2 = eps²` on that lane.
        let sb = &blocks[pos[tree.leaf_ids()[0]]];
        let (mass, x, y, z) = (&sb.mass[..13], &sb.x[..13], &sb.y[..13], &sb.z[..13]);
        let want = monopole_accel_scalar(sb.com(0), mass, x, y, z, eps);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let got = monopole_accel_soa(SimdPolicy::Width(w), sb.com(0), mass, x, y, z, eps);
            assert!(got.iter().all(|a| a.is_finite()), "width {w}: {got:?}");
            assert!(
                rel_diff(got, want) < 1e-12,
                "width {w}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn simd_multipole_matches_scalar_including_tails() {
        let (_, _, moments, _) = test_tree(2);
        // Table sized to hit a remainder lane at every width > 1.
        let mut ff = FarField::new();
        for m in moments.iter().filter(|m| m.mass > 0.0).take(13) {
            ff.push(m);
        }
        assert_eq!(ff.len(), 13, "odd length exercises the padded tail");
        let p = [1.1, 0.7, -0.9];
        let want = multipole_accel_scalar(p, &ff);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let got = multipole_accel_soa(SimdPolicy::Width(w), p, &ff);
            assert!(
                rel_diff(got, want) < 1e-12,
                "width {w}: {got:?} vs {want:?}"
            );
        }
    }

    #[test]
    fn padded_storage_is_bitwise_identical_to_predicated_tail() {
        let (_, _, moments, _) = test_tree(2);
        // Ragged at every width; unpadded table forces the predicated
        // tail, padded table full-loads the sentinel rows.
        let mut plain = FarField::new();
        for m in moments.iter().filter(|m| m.mass > 0.0).take(13) {
            plain.push(m);
        }
        let mut padded = plain.clone();
        padded.pad_to_simd();
        assert_eq!(padded.len(), 13, "pad must not change the logical len");
        assert_eq!(padded.mass.len(), 16);
        let p = [1.1, 0.7, -0.9];
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let a = multipole_accel_soa(SimdPolicy::Width(w), p, &plain);
            let b = multipole_accel_soa(SimdPolicy::Width(w), p, &padded);
            for d in 0..3 {
                assert_eq!(
                    a[d].to_bits(),
                    b[d].to_bits(),
                    "width {w} axis {d}: padded load must be bit-exact"
                );
            }
        }
        // The view covers the storage: pad rows when there are some.
        assert_eq!(plain.as_view().mass.len(), 13);
        assert_eq!(padded.as_view().mass.len(), 16);
        assert_eq!(padded.as_view().len(), 13);
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
    fn partial_rebuild_matches_full_rebuild_and_skips_clean_leaves() {
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
        tree.refine_leaf(victim);
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
        // Incremental ≡ full rebuild, list by list.
        assert_eq!(warm.lists().len(), cold.lists().len());
        for (i, (w, c)) in warm.lists().iter().zip(cold.lists()).enumerate() {
            assert_eq!(w, c, "leaf position {i}");
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
        tree.refine_leaf(tree.leaf_ids()[0]);
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
        // Axis 2 — SIMD widths: different summation orders, so agreement
        // is to 1e-12 relative against the scalar reference.
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
        let reference = at(SimdPolicy::Scalar);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let got = at(SimdPolicy::Width(w));
            for (a, b) in got.iter().zip(&reference) {
                assert!(rel_diff(*a, *b) < 1e-12, "width {w}: {a:?} vs {b:?}");
            }
        }
    }
}
