//! The 8×8×8 sub-grid — the unit of computation in Octo-Tiger.
//!
//! "Each node in the octree contains a 8×8×8 sub-grid for computational
//! efficiency" (paper §3.3), i.e. 512 cells per tree leaf; every compute
//! kernel operates on one sub-grid (plus ghost layers) at a time. Storage is
//! a rank-4 `kokkos_lite::View` of `[field][x][y][z]` including a 2-cell
//! ghost shell (the hydro reconstruction stencil needs two upwind cells).

use kokkos_lite::View;

use crate::star::{field, InitialModel, RotatingStar, GAMMA, NF, P_FLOOR, RHO_FLOOR};

/// Interior cells per dimension (the paper's 8).
pub const NX: usize = 8;
/// Ghost width (minmod reconstruction + HLL need 2).
pub const NG: usize = 2;
/// Total cells per dimension including ghosts.
pub const NT: usize = NX + 2 * NG;
/// Interior cells per sub-grid (the paper's 512).
pub const CELLS: usize = NX * NX * NX;

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
    pub fn axis(self) -> usize {
        match self {
            Face::XM | Face::XP => 0,
            Face::YM | Face::YP => 1,
            Face::ZM | Face::ZP => 2,
        }
    }

    /// −1 for the low face, +1 for the high face.
    pub fn sign(self) -> i64 {
        match self {
            Face::XM | Face::YM | Face::ZM => -1,
            Face::XP | Face::YP | Face::ZP => 1,
        }
    }

    /// The opposite face.
    pub fn opposite(self) -> Face {
        match self {
            Face::XM => Face::XP,
            Face::XP => Face::XM,
            Face::YM => Face::YP,
            Face::YP => Face::YM,
            Face::ZM => Face::ZP,
            Face::ZP => Face::ZM,
        }
    }
}

/// One leaf's field data: conserved variables on an 8³ interior plus ghosts.
#[derive(Debug, Clone)]
pub struct SubGrid {
    /// Conserved fields `[NF][NT][NT][NT]`, ghost shell included.
    pub u: View<f64>,
    /// Physical coordinate of the low corner of interior cell (0, 0, 0).
    pub origin: [f64; 3],
    /// Cell width.
    pub dx: f64,
}

/// Primitive state (ρ, vx, vy, vz, p) of one cell's conserved state, floors
/// applied.
#[inline]
fn primitives_of(u: [f64; NF]) -> [f64; 5] {
    let rho = u[field::RHO].max(RHO_FLOOR);
    let vx = u[field::SX] / rho;
    let vy = u[field::SY] / rho;
    let vz = u[field::SZ] / rho;
    let kinetic = 0.5 * rho * (vx * vx + vy * vy + vz * vz);
    let p = ((GAMMA - 1.0) * (u[field::EGAS] - kinetic)).max(P_FLOOR);
    [rho, vx, vy, vz, p]
}

impl SubGrid {
    /// Zero-initialized sub-grid at `origin` with cell width `dx`.
    pub fn new(origin: [f64; 3], dx: f64) -> Self {
        assert!(dx > 0.0, "cell width must be positive");
        SubGrid {
            u: View::new_4d("u", NF, NT, NT, NT),
            origin,
            dx,
        }
    }

    /// Physical centre of interior cell `(i, j, k)` (ghost indices allowed:
    /// pass −1, −2, NX, NX+1).
    pub fn cell_center(&self, i: i64, j: i64, k: i64) -> [f64; 3] {
        [
            self.origin[0] + (i as f64 + 0.5) * self.dx,
            self.origin[1] + (j as f64 + 0.5) * self.dx,
            self.origin[2] + (k as f64 + 0.5) * self.dx,
        ]
    }

    /// Read field `f` at interior-relative index (ghosts: −NG..NX+NG).
    #[inline]
    pub fn at(&self, f: usize, i: i64, j: i64, k: i64) -> f64 {
        self.u.get4(
            f,
            (i + NG as i64) as usize,
            (j + NG as i64) as usize,
            (k + NG as i64) as usize,
        )
    }

    /// Write field `f` at interior-relative index.
    #[inline]
    pub fn set(&mut self, f: usize, i: i64, j: i64, k: i64, v: f64) {
        self.u.set4(
            f,
            (i + NG as i64) as usize,
            (j + NG as i64) as usize,
            (k + NG as i64) as usize,
            v,
        );
    }

    /// Initialize every interior cell (and ghost shell) from an initial
    /// model.
    pub fn init_from_model<M: InitialModel>(&mut self, model: &M) {
        let ng = NG as i64;
        for i in -ng..(NX as i64 + ng) {
            for j in -ng..(NX as i64 + ng) {
                for k in -ng..(NX as i64 + ng) {
                    let c = self.cell_center(i, j, k);
                    let u = model.conserved_at(c[0], c[1], c[2]);
                    for (f, v) in u.iter().enumerate() {
                        self.set(f, i, j, k, *v);
                    }
                }
            }
        }
    }

    /// Initialize from the single rotating star (the paper's scenario).
    pub fn init_from_star(&mut self, star: &RotatingStar) {
        self.init_from_model(star);
    }

    /// Primitive state (ρ, vx, vy, vz, p) at an index, floors applied.
    #[inline]
    pub fn primitives(&self, i: i64, j: i64, k: i64) -> [f64; 5] {
        primitives_of(std::array::from_fn(|f| self.at(f, i, j, k)))
    }

    /// Fill an SoA primitive staging view over the **whole ghost frame**:
    /// `out` is `[5][NT][NT][NT]` flattened (field-major, z fastest), so
    /// `out[q·NT³ + ((i+NG)·NT + j+NG)·NT + k+NG]` is primitive `q` of
    /// ghost-frame cell `(i, j, k)`. Each primitive becomes a contiguous
    /// z-lane the SIMD hydro kernels load with plain unit-stride packs —
    /// and each cell's conserved→primitive conversion (with floors) happens
    /// exactly once per step instead of once per stencil visit. One flat
    /// loop over the five conserved lanes, which have the same layout.
    ///
    /// Per-lane values are bit-identical to [`SubGrid::primitives`].
    pub fn stage_primitives(&self, out: &mut [f64]) {
        const LANE: usize = NT * NT * NT;
        assert_eq!(out.len(), 5 * LANE, "staging view size mismatch");
        let u: [&[f64]; NF] = std::array::from_fn(|f| &self.u.as_slice()[f * LANE..][..LANE]);
        let mut lanes = out.chunks_exact_mut(LANE);
        let [rho, vx, vy, vz, p] = std::array::from_fn(|_| lanes.next().expect("sized above"));
        for c in 0..LANE {
            [rho[c], vx[c], vy[c], vz[c], p[c]] = primitives_of(u.map(|lane| lane[c]));
        }
    }

    /// Volume integral of field `f` over the interior.
    pub fn integral(&self, f: usize) -> f64 {
        let vol = self.dx * self.dx * self.dx;
        let mut sum = 0.0;
        for i in 0..NX as i64 {
            for j in 0..NX as i64 {
                for k in 0..NX as i64 {
                    sum += self.at(f, i, j, k);
                }
            }
        }
        sum * vol
    }

    /// Total mass in the sub-grid interior.
    pub fn mass(&self) -> f64 {
        self.integral(field::RHO)
    }

    /// Flatten the interior (no ghosts) to `NF × 512` values — the payload
    /// of an inter-locality halo-leaf exchange.
    pub fn interior_data(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(NF * NX * NX * NX);
        for f in 0..NF {
            for i in 0..NX as i64 {
                for j in 0..NX as i64 {
                    for k in 0..NX as i64 {
                        out.push(self.at(f, i, j, k));
                    }
                }
            }
        }
        out
    }

    /// Interior values of one field in cell-index order (row-major
    /// `(i·NX + j)·NX + k`, no ghosts) — the contiguous SoA-friendly load
    /// the gravity P2M kernel streams instead of strided per-cell `at`
    /// calls through the ghost frame.
    pub fn interior_field(&self, f: usize, out: &mut [f64; CELLS]) {
        for i in 0..NX {
            for j in 0..NX {
                for k in 0..NX {
                    out[(i * NX + j) * NX + k] = self.at(f, i as i64, j as i64, k as i64);
                }
            }
        }
    }

    /// Install interior data produced by [`SubGrid::interior_data`].
    pub fn set_interior_data(&mut self, data: &[f64]) {
        assert_eq!(data.len(), NF * NX * NX * NX, "interior data size mismatch");
        let mut it = data.iter();
        for f in 0..NF {
            for i in 0..NX as i64 {
                for j in 0..NX as i64 {
                    for k in 0..NX as i64 {
                        self.set(f, i, j, k, *it.next().expect("sized above"));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_constants_match_paper() {
        assert_eq!(NX, 8);
        assert_eq!(CELLS, 512, "the paper's 512 cells per sub-grid");
        assert_eq!(NT, 12);
    }

    #[test]
    fn cell_centers() {
        let g = SubGrid::new([0.0, 0.0, 0.0], 0.5);
        assert_eq!(g.cell_center(0, 0, 0), [0.25, 0.25, 0.25]);
        assert_eq!(g.cell_center(-1, 0, 7), [-0.25, 0.25, 3.75]);
    }

    #[test]
    fn get_set_ghost_indices() {
        let mut g = SubGrid::new([0.0; 3], 1.0);
        g.set(field::RHO, -2, 0, 0, 7.0);
        g.set(field::EGAS, 9, 9, 9, 3.0);
        assert_eq!(g.at(field::RHO, -2, 0, 0), 7.0);
        assert_eq!(g.at(field::EGAS, 9, 9, 9), 3.0);
    }

    #[test]
    fn star_init_puts_mass_in_the_middle() {
        let star = RotatingStar::paper_default();
        // Sub-grid covering the star centre.
        let mut g = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        g.init_from_star(&star);
        assert!(g.mass() > 0.0);
        assert!(g.at(field::RHO, 4, 4, 4) > 0.5, "near-central density");
    }

    #[test]
    fn primitives_recover_initialization() {
        let star = RotatingStar::paper_default();
        let mut g = SubGrid::new([0.0, 0.0, 0.0], 0.02);
        g.init_from_star(&star);
        let c = g.cell_center(2, 3, 4);
        let [rho, vx, vy, _vz, p] = g.primitives(2, 3, 4);
        let r = (c[0] * c[0] + c[1] * c[1] + c[2] * c[2]).sqrt();
        assert!((rho - star.density(r)).abs() < 1e-12);
        assert!((vx + star.omega * c[1]).abs() < 1e-12);
        assert!((vy - star.omega * c[0]).abs() < 1e-12);
        assert!((p - star.pressure(rho)).abs() / p < 1e-9);
    }

    #[test]
    fn staged_primitives_match_per_cell_primitives_bitwise() {
        let mut star_leaf = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        star_leaf.init_from_star(&RotatingStar::paper_default());
        // Below both floors everywhere, ghosts included: every lane clamps.
        let mut vacuum = SubGrid::new([0.0; 3], 0.1);
        let u = vacuum.u.as_mut_slice();
        u[..NT * NT * NT].fill(0.5 * RHO_FLOOR);
        u[NT * NT * NT..].fill(0.0);
        for g in [star_leaf, vacuum] {
            let mut stage = vec![f64::NAN; 5 * NT * NT * NT];
            g.stage_primitives(&mut stage);
            let ng = NG as i64;
            for x in 0..NT {
                for y in 0..NT {
                    for z in 0..NT {
                        let want = g.primitives(x as i64 - ng, y as i64 - ng, z as i64 - ng);
                        let c = (x * NT + y) * NT + z;
                        for (q, w) in want.iter().enumerate() {
                            assert_eq!(
                                stage[q * NT * NT * NT + c].to_bits(),
                                w.to_bits(),
                                "primitive {q} at ({x},{y},{z})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_axes_and_signs() {
        assert_eq!(Face::XM.axis(), 0);
        assert_eq!(Face::ZP.axis(), 2);
        assert_eq!(Face::YM.sign(), -1);
        assert_eq!(Face::YP.sign(), 1);
        for f in Face::ALL {
            assert_eq!(f.opposite().opposite(), f);
            assert_eq!(f.axis(), f.opposite().axis());
            assert_ne!(f.sign(), f.opposite().sign());
        }
    }

    #[test]
    fn integral_scales_with_volume() {
        let mut g = SubGrid::new([0.0; 3], 2.0);
        g.u.as_mut_slice().fill(0.0);
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
