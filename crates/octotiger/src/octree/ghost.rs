//! The ghost zone as a cached gather plan (DESIGN §5.6).
//!
//! Which interior cell feeds which ghost cell is a pure function of the
//! octree topology, so it is worked out once per [`Octree::generation`] —
//! one `locate` per ghost cell of a level-jump or domain-boundary face, none
//! for a same-level face. A leaf stores its interior only: the hydro task
//! that needs a leaf's ghost zone gathers it through the plan into a scratch
//! frame ([`Octree::gather_frame`]) — plain copies, no tree descent, no
//! per-face buffer, no exchange pass. The plan also names, per leaf, the
//! leaves its gather reads ([`Octree::gather_sources`]): a step writes a
//! leaf back only once every task that reads it has gathered. A regrid
//! replans only the leaves whose gather reads a leaf it split.

use std::ops::Deref;

use super::{NodeId, Octree, NONE};
use crate::star::NF;
use crate::subgrid::{Face, SubGrid, CELLS, FRAME_CELLS, FRAME_LEN, NG, NT, NX};

/// Ghost cells per face: `NG` layers of `NX²`.
const FACE_CELLS: usize = NG * NX * NX;
/// Ghost values per face (`NF` fields per cell) — what the work accounting
/// charges per face, sampled or copied.
pub const FACE_VALUES: u64 = (NF * FACE_CELLS) as u64;

/// Positions one leaf's gather can read: its own, and by 2:1 grading at
/// most four source leaves per face.
const MAX_READS: usize = 1 + 6 * 4;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaceSource {
    /// The same-level leaf across the face.
    Slab(u32),
    /// Start of this face's `FACE_CELLS` entries in [`GhostPlan::cells`].
    Indexed(u32),
}

/// The interior cell one ghost cell copies: its leaf and the cell's index in
/// that leaf's interior (field `f` is `f · CELLS` further on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CellSource {
    node: u32,
    cell: u32,
}

/// The gather plan of one topology generation. Two plans are equal when
/// their tables are: a plan patched along the split log must equal a whole
/// rebuild of the same tree ([`Octree::fresh_ghost_plan`]).
#[derive(Debug, Default)]
pub struct GhostPlan {
    /// Generation the tables were built for (`None` = never built).
    built_for: Option<u64>,
    /// The leaf order the tables follow: the tree's at `built_for`.
    leaves: Vec<u32>,
    /// `faces[6 · leaf position + face]`, faces in [`Face::ALL`] order.
    faces: Vec<FaceSource>,
    /// Per-cell sources of the indexed faces, in [`ghost_cells`] order.
    cells: Vec<CellSource>,
    /// The reader table: leaf `pos`'s gather reads the leaves at positions
    /// `reads[first[pos]..first[pos + 1]]` (ascending, its own included).
    first: Vec<u32>,
    reads: Vec<u32>,
    stats: GhostStats,
}

impl PartialEq for GhostPlan {
    fn eq(&self, other: &Self) -> bool {
        (self.built_for, &self.leaves, &self.faces, &self.cells)
            == (other.built_for, &other.leaves, &other.faces, &other.cells)
            && (&self.first, &self.reads, self.stats.faces)
                == (&other.first, &other.reads, other.stats.faces)
    }
}

/// The reader table of a current plan ([`Octree::gather_sources`]).
#[derive(Clone, Copy)]
pub(crate) struct GatherSources<'a> {
    first: &'a [u32],
    reads: &'a [u32],
}

impl<'a> GatherSources<'a> {
    /// Positions (ascending, its own included) of the leaves whose interior
    /// cells the gather of the leaf at `pos` reads.
    pub(crate) fn of(&self, pos: usize) -> &'a [u32] {
        &self.reads[self.first[pos] as usize..self.first[pos + 1] as usize]
    }
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
    pub(super) fn resident_bytes(&self) -> usize {
        (self.leaves.capacity() + self.first.capacity() + self.reads.capacity()) * 4
            + self.faces.capacity() * std::mem::size_of::<FaceSource>()
            + self.cells.capacity() * std::mem::size_of::<CellSource>()
    }

    /// The six face sources of the leaf at `pos`.
    fn faces_of(&self, pos: usize) -> &[FaceSource] {
        &self.faces[6 * pos..6 * pos + 6]
    }

    fn sources(&self) -> GatherSources<'_> {
        GatherSources {
            first: &self.first,
            reads: &self.reads,
        }
    }

    /// Bring the tables to `tree`'s topology. A leaf is replanned when it is
    /// new or when its gather reads a node split since the plan's generation
    /// ([`Octree::splits_since`]): the interaction cache's dirty-or-move
    /// rule. Every other leaf's entries are copied into the new leaf order —
    /// node ids are stable, so only the `Indexed` starts and the reader
    /// positions are re-based. Each table is allocated once, at its exact
    /// size. With no plan to copy from this is the whole rebuild.
    ///
    /// Replanning a face: a same-level leaf neighbour makes it a slab copy;
    /// every other ghost cell is located once, at its centre, exactly as
    /// per-step sampling did — so the plan names the cell sampling would
    /// have read.
    fn rebuild(&mut self, tree: &Octree) {
        // Per node id: the old position of a leaf whose entries carry over.
        let mut kept = vec![NONE; tree.len()];
        if let Some(g0) = self.built_for {
            let mut split = vec![false; tree.len()];
            for id in tree.splits_since(g0) {
                split[id] = true;
            }
            let old = self.sources();
            for (p, &leaf) in self.leaves.iter().enumerate() {
                if old
                    .of(p)
                    .iter()
                    .all(|&q| !split[self.leaves[q as usize] as usize])
                {
                    kept[leaf as usize] = p as u32;
                }
            }
        }
        let same_level = |leaf: NodeId, face: Face| {
            let (level, coords) = (u32::from(tree.levels[leaf]), tree.coords[leaf]);
            tree.neighbor_coords(level, coords, face)
                .and_then(|nc| tree.node_at(level, nc))
                .filter(|&n| tree.is_leaf(n))
        };
        let indexed = |s: &&FaceSource| matches!(s, FaceSource::Indexed(_));
        let indexed_faces: usize = (tree.leaves.iter())
            .map(|&leaf| match kept[leaf] {
                NONE => (Face::ALL.into_iter())
                    .filter(|&face| same_level(leaf, face).is_none())
                    .count(),
                p => self.faces_of(p as usize).iter().filter(indexed).count(),
            })
            .sum();
        let mut faces = Vec::with_capacity(6 * tree.leaves.len());
        let mut cells = Vec::with_capacity(indexed_faces * FACE_CELLS);
        for &leaf in &tree.leaves {
            if kept[leaf] != NONE {
                for &source in self.faces_of(kept[leaf] as usize) {
                    faces.push(match source {
                        FaceSource::Slab(_) => source,
                        FaceSource::Indexed(start) => {
                            let at = cells.len() as u32;
                            cells.extend_from_slice(&self.cells[start as usize..][..FACE_CELLS]);
                            FaceSource::Indexed(at)
                        }
                    });
                }
                continue;
            }
            // Geometry only: the plan is a function of the topology, and a
            // leaf need not carry data to be planned for.
            let (origin, dx) = tree.node_geometry(leaf);
            for face in Face::ALL {
                if let Some(n) = same_level(leaf, face) {
                    faces.push(FaceSource::Slab(n as u32));
                    continue;
                }
                faces.push(FaceSource::Indexed(cells.len() as u32));
                for (x, y, z) in ghost_cells(face) {
                    // The centre of ghost-frame cell (x, y, z), as
                    // `SubGrid::cell_center` computes it.
                    let centre =
                        |d: usize, i: usize| origin[d] + ((i as i64 - NG as i64) as f64 + 0.5) * dx;
                    let p = [centre(0, x), centre(1, y), centre(2, z)];
                    let (src, c) = tree.locate(p);
                    cells.push(CellSource {
                        node: src as u32,
                        cell: ((c[0] * NX + c[1]) * NX + c[2]) as u32,
                    });
                }
            }
        }
        debug_assert_eq!(cells.len(), cells.capacity());

        // The reader table, counted, then filled at that size: a kept row
        // with its positions re-based (leaf order is by level and
        // coordinates, so they stay ascending), a replanned one read off the
        // new faces.
        let pos_of = crate::gravity::leaf_positions(tree);
        let row_of = |pos: usize, leaf: NodeId, row: &mut [u32; MAX_READS]| -> usize {
            match kept[leaf] {
                NONE => gather_row(&faces[6 * pos..][..6], &cells, pos, &pos_of, row),
                p => {
                    let old = self.sources().of(p as usize);
                    for (r, &q) in row.iter_mut().zip(old) {
                        *r = pos_of[self.leaves[q as usize] as usize] as u32;
                    }
                    old.len()
                }
            }
        };
        let mut row = [0u32; MAX_READS];
        let mut first = Vec::with_capacity(tree.leaves.len() + 1);
        first.push(0);
        for (pos, &leaf) in tree.leaves.iter().enumerate() {
            first.push(first[pos] + row_of(pos, leaf, &mut row) as u32);
        }
        let mut reads = Vec::with_capacity(first[tree.leaves.len()] as usize);
        for (pos, &leaf) in tree.leaves.iter().enumerate() {
            let len = row_of(pos, leaf, &mut row);
            reads.extend_from_slice(&row[..len]);
        }

        let slab = faces.len() - indexed_faces;
        self.stats.faces = GhostFaces {
            slab: slab as u64,
            indexed: indexed_faces as u64,
        };
        self.leaves = tree.leaves.iter().map(|&leaf| leaf as u32).collect();
        (self.faces, self.cells, self.first, self.reads) = (faces, cells, first, reads);
        self.built_for = Some(tree.generation);
        self.stats.plan_rebuilds += 1;
    }
}

/// The reader row of the leaf at `pos`, from its six face sources `faces`:
/// its own position and every face's source leaves, each once, ascending,
/// written to `row`; returns its length.
fn gather_row(
    faces: &[FaceSource],
    cells: &[CellSource],
    pos: usize,
    pos_of: &[usize],
    row: &mut [u32; MAX_READS],
) -> usize {
    row[0] = pos as u32;
    let mut len = 1;
    let mut add = |node: u32| {
        let q = pos_of[node as usize] as u32;
        if !row[..len].contains(&q) {
            row[len] = q;
            len += 1;
        }
    };
    for source in faces {
        match *source {
            FaceSource::Slab(n) => add(n),
            FaceSource::Indexed(start) => {
                for cell in &cells[start as usize..][..FACE_CELLS] {
                    add(cell.node);
                }
            }
        }
    }
    row[..len].sort_unstable();
    len
}

impl Octree {
    /// Build the gather plan unless it is the current generation's, and
    /// return the face census of the leaves whose position in
    /// [`Octree::leaf_ids`] passes `is_target` (a distributed locality
    /// passes its owned leaves): the faces gathering their frames reads,
    /// which the work accounting charges once per step.
    pub fn plan_ghosts(&mut self, is_target: impl Fn(usize) -> bool) -> GhostFaces {
        self.ensure_ghost_plan();
        let mut census = GhostFaces::default();
        for pos in (0..self.leaves.len()).filter(|&pos| is_target(pos)) {
            for source in self.ghost.faces_of(pos) {
                match source {
                    FaceSource::Slab(_) => census.slab += 1,
                    FaceSource::Indexed(_) => census.indexed += 1,
                }
            }
        }
        census
    }

    /// Gather the conserved ghost frame (`[NF][NT³]`, see
    /// [`crate::subgrid::FRAME_LEN`]) of the leaf at position `pos`: its own
    /// interior and its six face slabs, each ghost cell the value of the
    /// interior cell containing its centre — across level jumps, and clamped
    /// into the domain at its boundary (outflow). The 448 edge and corner
    /// cells are no stencil's and are left as they were. Each leaf is read
    /// through `grid` (node id → its data: `|n| tree.subgrid(n)`, or a read
    /// guard while a step has the data lent out), called once for the leaf's
    /// own interior and once per source leaf per face.
    ///
    /// # Panics
    /// Unless [`Octree::plan_ghosts`] has run since the last topology change,
    /// or when a leaf the plan reads carries no data.
    pub fn gather_frame<G: Deref<Target = SubGrid>>(
        &self,
        pos: usize,
        frame: &mut [f64],
        grid: impl Fn(NodeId) -> G,
    ) {
        assert_eq!(frame.len(), FRAME_LEN, "ghost frame size");
        assert_eq!(
            self.ghost.built_for,
            Some(self.generation),
            "the gather plan is behind the topology: `plan_ghosts` first"
        );
        let own = grid(self.leaves[pos]);
        for (lane, fields) in frame
            .chunks_exact_mut(FRAME_CELLS)
            .zip(own.u.as_slice().chunks_exact(CELLS))
        {
            for (row, cells) in fields.chunks_exact(NX).enumerate() {
                let at = flat(row / NX + NG, row % NX + NG, NG);
                lane[at..at + NX].copy_from_slice(cells);
            }
        }
        // Released before the faces: a boundary face reads the leaf again.
        drop(own);
        for (face, source) in Face::ALL.into_iter().zip(self.ghost.faces_of(pos)) {
            match *source {
                FaceSource::Slab(n) => {
                    // Ghost layer x of a low face is the neighbour's interior
                    // layer x − NG + NX (its interior nearest the shared face,
                    // nearest first on both sides); of a high face, layer
                    // x − NG − NX.
                    let src = grid(n as NodeId);
                    let src = src.u.as_slice();
                    let interior = |d: usize, x: usize| {
                        let shift = if d == face.axis() { -face.sign() } else { 0 };
                        (x as i64 - NG as i64 + shift * NX as i64) as usize
                    };
                    let [bx, by, bz] = ghost_box(face);
                    for x in bx {
                        for y in by.clone() {
                            let s =
                                (interior(0, x) * NX + interior(1, y)) * NX + interior(2, bz.start);
                            let t = flat(x, y, bz.start);
                            for f in 0..NF {
                                frame[f * FRAME_CELLS + t..][..bz.len()]
                                    .copy_from_slice(&src[f * CELLS + s..][..bz.len()]);
                            }
                        }
                    }
                }
                FaceSource::Indexed(start) => {
                    let entries = &self.ghost.cells[start as usize..][..FACE_CELLS];
                    // 2:1 grading: at most four leaves feed one face.
                    let mut held: [Option<(u32, G)>; 4] = Default::default();
                    for ((x, y, z), cell) in ghost_cells(face).zip(entries) {
                        let slot = held
                            .iter()
                            .position(|h| h.as_ref().is_none_or(|(n, _)| *n == cell.node))
                            .expect("at most four source leaves per face");
                        let (_, src) = held[slot]
                            .get_or_insert_with(|| (cell.node, grid(cell.node as NodeId)));
                        let src = src.u.as_slice();
                        let (s, t) = (cell.cell as usize, flat(x, y, z));
                        for f in 0..NF {
                            frame[f * FRAME_CELLS + t] = src[f * CELLS + s];
                        }
                    }
                }
            }
        }
    }

    /// (Re)build the gather plan unless it is the current generation's.
    fn ensure_ghost_plan(&mut self) {
        if self.ghost.built_for != Some(self.generation) {
            let _span = apex_lite::trace::span(apex_lite::trace::Cat::Phase, "ghost_plan_build");
            let mut plan = std::mem::take(&mut self.ghost);
            plan.rebuild(self);
            self.ghost = plan;
        }
    }

    /// The reader table: per leaf position, the positions (ascending, its
    /// own included) of the leaves whose interior cells its gather reads —
    /// same-level, level-jump and clamped boundary faces alike, because it is
    /// read off the plan the gather itself runs.
    pub(crate) fn gather_sources(&mut self) -> GatherSources<'_> {
        self.ensure_ghost_plan();
        self.ghost.sources()
    }

    /// The halo of a target set: positions (ascending) of the leaves outside
    /// `is_target` whose interior a target's gather reads.
    pub fn halo_sources(&mut self, is_target: impl Fn(usize) -> bool) -> Vec<usize> {
        self.ensure_ghost_plan();
        let sources = self.ghost.sources();
        let mut halo: Vec<usize> = (0..self.leaves.len())
            .filter(|&pos| is_target(pos))
            .flat_map(|pos| sources.of(pos).iter().map(|&s| s as usize))
            .filter(|&s| !is_target(s))
            .collect();
        halo.sort_unstable();
        halo.dedup();
        halo
    }

    /// The current gather plan (built by [`Octree::plan_ghosts`]).
    pub fn ghost_plan(&self) -> &GhostPlan {
        &self.ghost
    }

    /// A whole rebuild of the gather plan for the current topology: what
    /// the plan patched along the split log must equal.
    pub fn fresh_ghost_plan(&self) -> GhostPlan {
        let mut plan = GhostPlan::default();
        plan.rebuild(self);
        plan
    }

    /// Counters of the ghost plan.
    pub fn ghost_stats(&self) -> GhostStats {
        self.ghost.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OctoConfig;
    use crate::star::RotatingStar;

    /// Per leaf, the reader row names what its gather reads — its own
    /// position and every source of every face, each once, ascending — and
    /// no row holds more than 1 + 6 × 4 positions, on a built tree and on a
    /// plan patched after a regrid.
    #[test]
    fn reader_rows_are_the_gathered_leaves_each_once() {
        let cfg = OctoConfig {
            max_level: 3,
            ..OctoConfig::default()
        };
        let mut tree = Octree::build(&RotatingStar::paper_default(), &cfg, 1.0);
        for sweep in 0..2 {
            tree.plan_ghosts(|_| true);
            let pos_of = crate::gravity::leaf_positions(&tree);
            let plan = &tree.ghost;
            let mut widest = 0;
            for pos in 0..tree.leaf_count() {
                let mut want = vec![pos as u32];
                for source in plan.faces_of(pos) {
                    match *source {
                        FaceSource::Slab(n) => want.push(pos_of[n as usize] as u32),
                        FaceSource::Indexed(start) => want.extend(
                            (plan.cells[start as usize..][..FACE_CELLS].iter())
                                .map(|cell| pos_of[cell.node as usize] as u32),
                        ),
                    }
                }
                want.sort_unstable();
                want.dedup();
                assert_eq!(plan.sources().of(pos), want, "sweep {sweep}, leaf {pos}");
                widest = widest.max(want.len());
            }
            assert!(widest <= MAX_READS, "{widest} positions");
            // Split a leaf next to a level jump: level-3 leaves get level-4
            // neighbours, and the grading closure cascades.
            let victim = tree.leaf_ids()[tree.leaf_count() / 2];
            tree.regrid(&[victim]);
        }
    }
}
