//! The 8×8×8 sub-grid — the unit of computation in Octo-Tiger.
//!
//! "Each node in the octree contains a 8×8×8 sub-grid for computational
//! efficiency" (paper §3.3), i.e. 512 cells per tree leaf; every compute
//! kernel operates on one sub-grid at a time. A leaf stores its interior
//! only: a rank-4 `kokkos_lite::View` of `[field][x][y][z]`. The hydro
//! stencil's two ghost layers per face are gathered into a scratch **frame**
//! by the task that needs them ([`crate::octree::Octree::gather_frame`]).

use kokkos_lite::View;

use crate::star::{field, InitialModel, GAMMA, NF, P_FLOOR, RHO_FLOOR};

/// Interior cells per dimension (the paper's 8).
pub const NX: usize = 8;
/// Ghost width (minmod reconstruction + HLL need 2).
pub const NG: usize = 2;
/// Cells per dimension of a ghost frame.
pub(crate) const NT: usize = NX + 2 * NG;
/// Interior cells per sub-grid (the paper's 512).
pub const CELLS: usize = NX * NX * NX;
/// Cells of one ghost frame: the interior plus `NG` layers on every side.
pub const FRAME_CELLS: usize = NT * NT * NT;
/// Flat length of a ghost frame: `[NF][NT][NT][NT]`, z fastest. Only the
/// interior and the six face slabs are ever written or read; the 448 edge
/// and corner cells are not part of any stencil.
pub const FRAME_LEN: usize = NF * FRAME_CELLS;

/// Flat index within one field of a ghost frame of cell `(i, j, k)`,
/// interior-relative (ghost indices −NG..NX+NG).
#[inline]
pub fn frame_index(i: i64, j: i64, k: i64) -> usize {
    let at = |x: i64| {
        usize::try_from(x + NG as i64)
            .ok()
            .filter(|&x| x < NT)
            .expect("cell inside the ghost frame")
    };
    (at(i) * NT + at(j)) * NT + at(k)
}

/// One face of a sub-grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Face {
    /// −x
    XM,
    /// +x
    XP,
    /// −y
    YM,
    /// +y
    YP,
    /// −z
    ZM,
    /// +z
    ZP,
}

impl Face {
    /// All six faces.
    pub const ALL: [Face; 6] = [Face::XM, Face::XP, Face::YM, Face::YP, Face::ZM, Face::ZP];

    /// Axis (0 = x, 1 = y, 2 = z).
    pub(crate) fn axis(self) -> usize {
        match self {
            Face::XM | Face::XP => 0,
            Face::YM | Face::YP => 1,
            Face::ZM | Face::ZP => 2,
        }
    }

    /// −1 for the low face, +1 for the high face.
    pub(crate) fn sign(self) -> i64 {
        match self {
            Face::XM | Face::YM | Face::ZM => -1,
            Face::XP | Face::YP | Face::ZP => 1,
        }
    }
}

/// One leaf's field data: conserved variables on its 8³ interior.
#[derive(Debug, Clone)]
pub struct SubGrid {
    /// Conserved fields `[NF][NX][NX][NX]`: field `f` of cell `(i, j, k)` is
    /// element `f · CELLS + (i·NX + j)·NX + k`.
    pub(crate) u: View<f64>,
    /// Physical coordinate of the low corner of interior cell (0, 0, 0).
    pub origin: [f64; 3],
    /// Cell width.
    pub dx: f64,
}

/// Primitive state (ρ, vx, vy, vz, p) of one cell's conserved state, floors
/// applied.
#[inline]
pub(crate) fn primitives_of(u: [f64; NF]) -> [f64; 5] {
    let rho = u[field::RHO].max(RHO_FLOOR);
    let vx = u[field::SX] / rho;
    let vy = u[field::SY] / rho;
    let vz = u[field::SZ] / rho;
    let kinetic = 0.5 * rho * (vx * vx + vy * vy + vz * vz);
    let p = ((GAMMA - 1.0) * (u[field::EGAS] - kinetic)).max(P_FLOOR);
    [rho, vx, vy, vz, p]
}

/// Flat offset of field `f` of interior cell `(i, j, k)`.
#[inline]
fn offset(f: usize, i: i64, j: i64, k: i64) -> usize {
    let at = |x: i64| {
        usize::try_from(x)
            .ok()
            .filter(|&x| x < NX)
            .expect("interior cell index")
    };
    f * CELLS + (at(i) * NX + at(j)) * NX + at(k)
}

impl SubGrid {
    /// Zero-initialized sub-grid at `origin` with cell width `dx`.
    pub fn new(origin: [f64; 3], dx: f64) -> Self {
        assert!(dx > 0.0, "cell width must be positive");
        SubGrid {
            u: View::new_4d("u", NF, NX, NX, NX),
            origin,
            dx,
        }
    }

    /// Physical centre of cell `(i, j, k)` (ghost indices allowed: pass −1,
    /// −2, NX, NX+1).
    pub fn cell_center(&self, i: i64, j: i64, k: i64) -> [f64; 3] {
        [
            self.origin[0] + (i as f64 + 0.5) * self.dx,
            self.origin[1] + (j as f64 + 0.5) * self.dx,
            self.origin[2] + (k as f64 + 0.5) * self.dx,
        ]
    }

    /// Read field `f` of interior cell `(i, j, k)`.
    #[inline]
    pub fn at(&self, f: usize, i: i64, j: i64, k: i64) -> f64 {
        self.u.as_slice()[offset(f, i, j, k)]
    }

    /// Write field `f` of interior cell `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, f: usize, i: i64, j: i64, k: i64, v: f64) {
        self.u.as_mut_slice()[offset(f, i, j, k)] = v;
    }

    /// Field `f` of every interior cell, in cell-index order
    /// (`(i·NX + j)·NX + k`) — the contiguous lane the gravity P2M kernel
    /// streams.
    pub(crate) fn field(&self, f: usize) -> &[f64] {
        &self.u.as_slice()[f * CELLS..][..CELLS]
    }

    /// Initialize every interior cell from an initial model.
    pub(crate) fn init_from_model<M: InitialModel>(&mut self, model: &M) {
        for i in 0..NX as i64 {
            for j in 0..NX as i64 {
                for k in 0..NX as i64 {
                    let c = self.cell_center(i, j, k);
                    let u = model.conserved_at(c[0], c[1], c[2]);
                    for (f, v) in u.iter().enumerate() {
                        self.set(f, i, j, k, *v);
                    }
                }
            }
        }
    }

    /// Primitive state (ρ, vx, vy, vz, p) of an interior cell, floors
    /// applied.
    #[inline]
    pub(crate) fn primitives(&self, i: i64, j: i64, k: i64) -> [f64; 5] {
        primitives_of(std::array::from_fn(|f| self.at(f, i, j, k)))
    }

    /// Volume integral of field `f` over the interior.
    pub(crate) fn integral(&self, f: usize) -> f64 {
        let vol = self.dx * self.dx * self.dx;
        self.field(f).iter().fold(0.0, |sum, v| sum + v) * vol
    }

    /// Total mass in the sub-grid interior.
    pub fn mass(&self) -> f64 {
        self.integral(field::RHO)
    }

    /// The `NF × 512` interior values, field-major in cell-index order, in
    /// place: what a halo deposit is written from and a leaf hash reads.
    pub(crate) fn interior(&self) -> &[f64] {
        self.u.as_slice()
    }

    /// [`SubGrid::interior`], to write: what a halo deposit is read into.
    pub(crate) fn interior_mut(&mut self) -> &mut [f64] {
        self.u.as_mut_slice()
    }

    /// A copy of the interior (`SubGrid::interior` lends it in place), for
    /// callers outside the crate. The step never copies an interior this
    /// way (`scripts/ci.sh` checks).
    pub fn interior_data(&self) -> Vec<f64> {
        self.interior().to_vec()
    }

    /// `(field, cell)` of the first value, in storage order, that is not
    /// finite — what a run stopped by a non-finite `dt` names.
    pub(crate) fn first_non_finite(&self) -> Option<(usize, [usize; 3])> {
        let at = self.u.as_slice().iter().position(|v| !v.is_finite())?;
        let c = at % CELLS;
        Some((at / CELLS, [c / (NX * NX), (c / NX) % NX, c % NX]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::RotatingStar;

    #[test]
    fn geometry_constants_match_paper() {
        assert_eq!(NX, 8);
        assert_eq!(CELLS, 512, "the paper's 512 cells per sub-grid");
        assert_eq!(NT, 12);
        // 20 480 B per leaf, where the ghost frame took 69 120.
        assert_eq!(SubGrid::new([0.0; 3], 1.0).u.bytes(), 20_480);
        assert_eq!(FRAME_LEN * 8, 69_120);
    }

    #[test]
    fn cell_centers() {
        let g = SubGrid::new([0.0, 0.0, 0.0], 0.5);
        assert_eq!(g.cell_center(0, 0, 0), [0.25, 0.25, 0.25]);
        assert_eq!(g.cell_center(-1, 0, 7), [-0.25, 0.25, 3.75]);
    }

    #[test]
    fn storage_is_field_major_in_cell_index_order() {
        let mut g = SubGrid::new([0.0; 3], 1.0);
        g.set(field::EGAS, 1, 2, 3, 7.0);
        assert_eq!(g.u.as_slice()[4 * CELLS + (NX + 2) * NX + 3], 7.0);
        assert_eq!(g.field(field::EGAS)[(NX + 2) * NX + 3], 7.0);
        assert_eq!(g.at(field::EGAS, 1, 2, 3), 7.0);
        assert_eq!(frame_index(-2, -2, -2), 0);
        assert_eq!(frame_index(0, 0, 0), (NG * NT + NG) * NT + NG);
        assert_eq!(frame_index(9, 9, 9), FRAME_CELLS - 1);
    }

    #[test]
    #[should_panic(expected = "interior cell index")]
    fn a_ghost_index_is_not_a_cell_of_the_sub_grid() {
        SubGrid::new([0.0; 3], 1.0).at(field::RHO, -1, 0, 0);
    }

    #[test]
    fn star_init_puts_mass_in_the_middle() {
        let star = RotatingStar::paper_default();
        // Sub-grid covering the star centre.
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_model(&star);
        assert!(g.mass() > 0.0);
        assert!(g.at(field::RHO, 4, 4, 4) > 0.5, "near-central density");
    }

    #[test]
    fn primitives_recover_initialization() {
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([0.0, 0.0, 0.0], 0.02);
        g.init_from_model(&star);
        let c = g.cell_center(2, 3, 4);
        let [rho, vx, vy, _vz, p] = g.primitives(2, 3, 4);
        let r = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        assert!((rho - star.density(r)).abs() < 1e-12);
        assert!((vx + star.omega * c[1]).abs() < 1e-12);
        assert!((vy - star.omega * c[0]).abs() < 1e-12);
        assert!((p - star.pressure(rho)).abs() / p < 1e-9);
    }

    #[test]
    fn interior_data_round_trips_and_names_the_first_non_finite_value() {
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_model(&RotatingStar::paper_default());
        let mut h = SubGrid::new([0.0; 3], 1.0);
        h.interior_mut().copy_from_slice(g.interior());
        assert_eq!(h.interior_data(), g.interior_data());
        assert_eq!(g.interior().len(), NF * CELLS);
        assert_eq!(g.first_non_finite(), None);
        g.set(field::SZ, 5, 6, 7, f64::INFINITY);
        g.set(field::EGAS, 0, 0, 0, f64::NAN);
        assert_eq!(g.first_non_finite(), Some((field::SZ, [5, 6, 7])));
    }

    #[test]
    fn face_axes_and_signs() {
        assert_eq!(Face::XM.axis(), 0);
        assert_eq!(Face::ZP.axis(), 2);
        assert_eq!(Face::YM.sign(), -1);
        assert_eq!(Face::YP.sign(), 1);
    }

    #[test]
    fn integral_scales_with_volume() {
        let mut g = SubGrid::new([0.0; 3], 2.0);
        for i in 0..NX as i64 {
            for j in 0..NX as i64 {
                for k in 0..NX as i64 {
                    g.set(field::RHO, i, j, k, 1.0);
                }
            }
        }
        assert!((g.mass() - 512.0 * 8.0).abs() < 1e-9);
    }
}
