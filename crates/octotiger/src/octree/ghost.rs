//! Ghost exchange as a cached copy plan (DESIGN §5.6).
//!
//! Which interior cell feeds which ghost cell is a pure function of the
//! octree topology, so it is worked out once per [`Octree::generation`] —
//! one `locate` per ghost cell of a level-jump or domain-boundary face, none
//! for a same-level face — and every exchange after that is plain copying:
//! no tree descent, no per-face buffer, no serial pass.
//!
//! The exchange is a single fused pass, one task per target leaf, and rests
//! on one invariant: **sources are interior cells, and a leaf's ghost cells
//! are written only by that leaf's task.** Interior and ghost cells are
//! disjoint, so no task reads what another writes. All `unsafe` of the
//! exchange is [`GhostPlan::fill_leaf`].

use amt::par::scope;
use amt::Handle;

use super::{NodeId, Octree};
use crate::star::NF;
use crate::subgrid::{Face, SubGrid, NG, NT, NX};

/// Ghost cells per face: `NG` layers of `NX²`.
const FACE_CELLS: usize = NG * NX * NX;
/// Ghost values per face (`NF` fields per cell) — what the work accounting
/// charges per face, sampled or copied.
pub const FACE_VALUES: u64 = (NF * FACE_CELLS) as u64;
/// Flat distance between two fields of one cell in a sub-grid.
const FIELD_STRIDE: usize = NT * NT * NT;
/// Flat length of one sub-grid's field data.
const GRID_LEN: usize = NF * FIELD_STRIDE;

/// Faces by the kind of copy that fills them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GhostFaces {
    /// Same-level neighbour: a strided slab copy.
    pub slab: u64,
    /// Coarser or finer neighbours, or the domain boundary: one table entry
    /// per ghost cell.
    pub indexed: u64,
}

/// Counters of the ghost plan (`/ghost/…`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GhostStats {
    /// Times the plan was (re)built — once per topology generation used.
    pub plan_rebuilds: u64,
    /// Face census of the current plan over all leaves.
    pub faces: GhostFaces,
}

#[derive(Debug, Clone, Copy)]
enum FaceSource {
    /// The same-level leaf across the face.
    Slab(u32),
    /// Start of this face's `FACE_CELLS` entries in [`GhostPlan::cells`].
    Indexed(u32),
}

/// The interior cell one ghost cell copies: its leaf and the flat offset of
/// the cell within field 0 (field `f` is `f · FIELD_STRIDE` further on).
#[derive(Debug, Clone, Copy)]
struct CellSource {
    node: u32,
    offset: u32,
}

/// Base address of one node's field data (null where the node has none).
#[derive(Debug, Clone, Copy)]
struct GridBase(*mut f64);

// SAFETY: a `GridBase` is only a number outside `GhostPlan::run`, which
// fills the table from an exclusive borrow of the sub-grids, dereferences it
// under the invariant documented on `fill_leaf`, and clears it before that
// borrow ends.
unsafe impl Send for GridBase {}
// SAFETY: as above — shared between the tasks of one `run` only.
unsafe impl Sync for GridBase {}

/// The copy plan of one topology generation.
#[derive(Debug, Default)]
pub(super) struct GhostPlan {
    /// Generation the tables were built for (`None` = never built).
    built_for: Option<u64>,
    /// `faces[6 · leaf position + face]`, faces in [`Face::ALL`] order.
    faces: Vec<FaceSource>,
    /// Per-cell sources of the indexed faces, in [`ghost_cells`] order.
    cells: Vec<CellSource>,
    stats: GhostStats,
    /// Per-node base pointers, valid only inside [`GhostPlan::run`]; kept
    /// for its capacity so a steady-state exchange allocates nothing.
    bases: Vec<GridBase>,
}

/// Ghost-frame index ranges `[x, y, z]` of the ghost cells behind `face`.
fn ghost_box(face: Face) -> [std::ops::Range<usize>; 3] {
    let mut b = [NG..NG + NX, NG..NG + NX, NG..NG + NX];
    b[face.axis()] = if face.sign() < 0 { 0..NG } else { NG + NX..NT };
    b
}

/// Ghost-frame `(x, y, z)` of every ghost cell behind `face`, z fastest —
/// the order of a face's entries in [`GhostPlan::cells`].
fn ghost_cells(face: Face) -> impl Iterator<Item = (usize, usize, usize)> {
    let [bx, by, bz] = ghost_box(face);
    bx.flat_map(move |x| {
        let bz = bz.clone();
        by.clone()
            .flat_map(move |y| bz.clone().map(move |z| (x, y, z)))
    })
}

fn flat(x: usize, y: usize, z: usize) -> usize {
    (x * NT + y) * NT + z
}

impl GhostPlan {
    pub(super) fn stats(&self) -> GhostStats {
        self.stats
    }

    pub(super) fn resident_bytes(&self) -> usize {
        self.faces.capacity() * std::mem::size_of::<FaceSource>()
            + self.cells.capacity() * std::mem::size_of::<CellSource>()
            + self.bases.capacity() * std::mem::size_of::<GridBase>()
    }

    /// Rebuild the tables for `tree`'s current topology. A face whose
    /// neighbour is a same-level leaf becomes a slab copy; every other ghost
    /// cell is located once, at its centre, exactly as per-step sampling
    /// did — so the plan names the cell sampling would have read.
    fn rebuild(&mut self, tree: &Octree) {
        self.faces.clear();
        self.cells.clear();
        let mut census = GhostFaces::default();
        for &leaf in &tree.leaves {
            let (level, coords) = (u32::from(tree.levels[leaf]), tree.coords[leaf]);
            // Geometry only: the plan is a function of the topology, and a
            // leaf need not carry data to be planned for.
            let (origin, dx) = tree.node_geometry(leaf);
            for face in Face::ALL {
                let same_level = tree
                    .neighbor_coords(level, coords, face)
                    .and_then(|nc| tree.node_at(level, nc))
                    .filter(|&n| tree.is_leaf(n));
                if let Some(n) = same_level {
                    self.faces.push(FaceSource::Slab(n as u32));
                    census.slab += 1;
                    continue;
                }
                self.faces
                    .push(FaceSource::Indexed(self.cells.len() as u32));
                census.indexed += 1;
                for (x, y, z) in ghost_cells(face) {
                    // The centre of ghost-frame cell (x, y, z), as
                    // `SubGrid::cell_center` computes it.
                    let centre =
                        |d: usize, i: usize| origin[d] + ((i as i64 - NG as i64) as f64 + 0.5) * dx;
                    let p = [centre(0, x), centre(1, y), centre(2, z)];
                    let (src, c) = tree.locate(p);
                    // `fill_leaf` reads at this offset without a check.
                    assert!(
                        c.iter().all(|&i| i < NX),
                        "ghost source must be an interior cell"
                    );
                    self.cells.push(CellSource {
                        node: src as u32,
                        offset: flat(c[0] + NG, c[1] + NG, c[2] + NG) as u32,
                    });
                }
            }
        }
        // Resident until the next regrid: keep no growth slack.
        self.cells.shrink_to_fit();
        self.built_for = Some(tree.generation);
        self.stats.plan_rebuilds += 1;
        self.stats.faces = census;
    }

    /// Fill the face ghosts of every leaf whose position passes `is_target`,
    /// one task per leaf on `handle` (inline on the calling thread without
    /// one), and count the faces filled.
    fn run(
        &mut self,
        subgrids: &mut [Option<SubGrid>],
        leaves: &[NodeId],
        handle: Option<&Handle>,
        is_target: impl Fn(usize) -> bool,
    ) -> GhostFaces {
        assert_eq!(self.faces.len(), 6 * leaves.len(), "plan is for this tree");
        // Exclusive access to every sub-grid, as raw bases, until the end of
        // this function.
        let mut bases = std::mem::take(&mut self.bases);
        bases.clear();
        bases.extend(subgrids.iter_mut().map(|g| match g {
            Some(g) => {
                assert_eq!(g.u.size(), GRID_LEN, "sub-grid field data resized");
                GridBase(g.u.as_mut_slice().as_mut_ptr())
            }
            None => GridBase(std::ptr::null_mut()),
        }));
        let targets = || leaves.iter().enumerate().filter(|&(pos, _)| is_target(pos));
        assert!(
            targets().all(|(_, &l)| !bases[l].0.is_null()),
            "every target leaf carries data"
        );
        let mut filled = GhostFaces::default();
        for (pos, _) in targets() {
            for source in &self.faces[6 * pos..6 * pos + 6] {
                match source {
                    FaceSource::Slab(_) => filled.slab += 1,
                    FaceSource::Indexed(_) => filled.indexed += 1,
                }
            }
        }
        let (plan, table) = (&*self, &bases[..]);
        // SAFETY (both calls): every non-null entry of `table` is the base
        // of a sub-grid's `GRID_LEN` values (asserted above), all borrowed
        // exclusively through `subgrids` until this function returns, and
        // every target has one (asserted above; `fill_leaf` checks each
        // source it reads); leaf positions are distinct, so each target is
        // filled by exactly one call and no two calls run for one leaf.
        match handle {
            Some(handle) => scope(handle, |sc| {
                for (pos, &leaf) in targets() {
                    sc.spawn(move || unsafe { plan.fill_leaf(table, pos, leaf) });
                }
            }),
            None => targets().for_each(|(pos, &leaf)| unsafe { plan.fill_leaf(table, pos, leaf) }),
        }
        bases.clear();
        self.bases = bases;
        filled
    }

    /// Copy the six faces' ghost values of the leaf at `pos` into place.
    ///
    /// Reads touch interior cells only (a slab is the neighbour's interior
    /// layers; every table offset was checked interior at build time) and
    /// writes touch only `leaf`'s own ghost cells ([`ghost_box`]). Interior
    /// and ghost cells are disjoint, so concurrent calls for *different*
    /// leaves never access the same `f64` unless both only read it.
    ///
    /// # Safety
    ///
    /// * every non-null `bases[n]` is the base of `GRID_LEN` values, valid
    ///   for reads and writes, that nothing accesses during the call except
    ///   other `fill_leaf` calls of the same plan, and `bases[leaf]` is not
    ///   null;
    /// * no other call for the same `leaf` runs concurrently;
    /// * `leaf` is the leaf at position `pos`.
    unsafe fn fill_leaf(&self, bases: &[GridBase], pos: usize, leaf: NodeId) {
        let dst = bases[leaf].0;
        for (face, source) in Face::ALL.into_iter().zip(&self.faces[6 * pos..6 * pos + 6]) {
            match *source {
                FaceSource::Slab(n) => {
                    // Ghost layer t of a low face is the neighbour's layer
                    // t + NX (its interior nearest the shared face, nearest
                    // first on both sides); of a high face, layer t − NX.
                    let stride = [NT * NT, NT, 1][face.axis()] as isize;
                    let shift = -face.sign() as isize * NX as isize * stride;
                    let src = bases[n as usize].0.cast_const();
                    assert!(!src.is_null(), "slab source carries data");
                    let [bx, by, bz] = ghost_box(face);
                    for f in 0..NF {
                        for x in bx.clone() {
                            for y in by.clone() {
                                let t = f * FIELD_STRIDE + flat(x, y, bz.start);
                                std::ptr::copy_nonoverlapping(
                                    src.offset(t as isize + shift),
                                    dst.add(t),
                                    bz.len(),
                                );
                            }
                        }
                    }
                }
                FaceSource::Indexed(start) => {
                    let entries = &self.cells[start as usize..start as usize + FACE_CELLS];
                    for ((x, y, z), cell) in ghost_cells(face).zip(entries) {
                        let src = bases[cell.node as usize].0.cast_const();
                        assert!(!src.is_null(), "ghost source carries data");
                        let (s, t) = (cell.offset as usize, flat(x, y, z));
                        for f in 0..NF {
                            *dst.add(f * FIELD_STRIDE + t) = *src.add(f * FIELD_STRIDE + s);
                        }
                    }
                }
            }
        }
    }
}

impl Octree {
    /// Fill the face ghosts of every leaf whose position in
    /// [`Octree::leaf_ids`] passes `is_target` (a distributed locality
    /// passes its owned leaves), one `amt` task per leaf, and return how
    /// many faces took which kind of copy.
    ///
    /// The copy plan behind it is built on the first call and rebuilt only
    /// when [`Octree::generation`] has changed since; values come from the
    /// interior cell containing each ghost cell's centre, across level jumps
    /// and clamped into the domain at its boundary (outflow).
    pub fn exchange_ghosts(
        &mut self,
        handle: &Handle,
        is_target: impl Fn(usize) -> bool,
    ) -> GhostFaces {
        self.run_ghost_plan(Some(handle), is_target)
    }

    /// [`Octree::exchange_ghosts`] for all leaves on the calling thread —
    /// the same plan and the same per-leaf copy, without a runtime.
    pub fn fill_ghosts(&mut self) -> GhostFaces {
        self.run_ghost_plan(None, |_| true)
    }

    fn run_ghost_plan(
        &mut self,
        handle: Option<&Handle>,
        is_target: impl Fn(usize) -> bool,
    ) -> GhostFaces {
        self.ensure_ghost_plan();
        self.ghost
            .run(&mut self.subgrids, &self.leaves, handle, is_target)
    }

    /// (Re)build the copy plan unless it is the current generation's.
    fn ensure_ghost_plan(&mut self) {
        if self.ghost.built_for != Some(self.generation) {
            let _span = apex_lite::trace::span(apex_lite::trace::Cat::Phase, "ghost_plan_build");
            let mut plan = std::mem::take(&mut self.ghost);
            plan.rebuild(self);
            self.ghost = plan;
        }
    }

    /// The halo of a target set: positions (ascending) of the leaves outside
    /// `is_target` whose interior cells the copy plan reads to fill a
    /// target's ghosts — same-level, level-jump and clamped boundary faces
    /// alike, because it is read off the plan the exchange itself runs.
    pub fn halo_sources(&mut self, is_target: impl Fn(usize) -> bool) -> Vec<usize> {
        self.ensure_ghost_plan();
        let pos_of = crate::gravity::leaf_positions(self);
        let plan = &self.ghost;
        let mut feeds = vec![false; self.leaves.len()];
        for pos in (0..self.leaves.len()).filter(|&pos| is_target(pos)) {
            for source in &plan.faces[6 * pos..6 * pos + 6] {
                match *source {
                    FaceSource::Slab(n) => feeds[pos_of[n as usize]] = true,
                    FaceSource::Indexed(start) => {
                        let entries = &plan.cells[start as usize..start as usize + FACE_CELLS];
                        for cell in entries {
                            feeds[pos_of[cell.node as usize]] = true;
                        }
                    }
                }
            }
        }
        (0..feeds.len())
            .filter(|&pos| feeds[pos] && !is_target(pos))
            .collect()
    }

    /// Counters of the ghost plan.
    pub fn ghost_stats(&self) -> GhostStats {
        self.ghost.stats()
    }
}
