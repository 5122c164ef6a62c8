//! Finite-volume hydro solver — Octo-Tiger's hydro module (paper §3.3:
//! "the hydro solver uses finite volumes to compute the inviscid
//! Navier-Stokes equations", i.e. the compressible Euler equations).
//!
//! Per sub-grid kernel: second-order MUSCL reconstruction (minmod limiter)
//! of the primitive variables, HLL Riemann fluxes, dimension-by-dimension,
//! forward-Euler update. Each kernel invocation processes one 8³ sub-grid
//! through its gathered ghost frame
//! ([`Octree::gather_frame`](crate::octree::Octree::gather_frame)) —
//! exactly the paper's per-sub-grid kernel-launch granularity — and
//! dispatches its cell loop through
//! [`Dispatch`](crate::kernel_backend::Dispatch), so the same physics runs
//! as legacy loops, Kokkos-Serial or Kokkos-HPX.

use kokkos_lite::simd::{sweep_packs, Simd};

use crate::gravity::{block_of_cell, BLOCKS};
use crate::kernel_backend::{Dispatch, SimdPolicy};
use crate::star::{field, GAMMA, NF, P_FLOOR, RHO_FLOOR};
use crate::subgrid::{
    frame_index, primitives_of, SubGrid, CELLS, FRAME_CELLS, FRAME_LEN, NG, NT, NX,
};

/// Flat interior-cell index.
#[inline]
pub(crate) fn cell_index(i: usize, j: usize, k: usize) -> usize {
    (i * NX + j) * NX + k
}

/// Inverse of [`cell_index`].
#[inline]
pub(crate) fn cell_coords(c: usize) -> (i64, i64, i64) {
    let k = c % NX;
    let j = (c / NX) % NX;
    let i = c / (NX * NX);
    (i as i64, j as i64, k as i64)
}

#[inline]
fn minmod(a: f64, b: f64) -> f64 {
    if a * b <= 0.0 {
        0.0
    } else if a.abs() < b.abs() {
        a
    } else {
        b
    }
}

#[inline]
fn sound_speed(rho: f64, p: f64) -> f64 {
    (GAMMA * p / rho).sqrt()
}

#[inline]
fn energy_of(prim: &[f64; 5]) -> f64 {
    let [rho, vx, vy, vz, p] = *prim;
    p / (GAMMA - 1.0) + 0.5 * rho * (vx * vx + vy * vy + vz * vz)
}

#[inline]
fn conserved_of(prim: &[f64; 5]) -> [f64; NF] {
    let [rho, vx, vy, vz, _p] = *prim;
    [rho, rho * vx, rho * vy, rho * vz, energy_of(prim)]
}

/// Physical flux of the Euler equations along `axis` for primitive state.
#[inline]
fn physical_flux(prim: &[f64; 5], axis: usize) -> [f64; NF] {
    let [rho, vx, vy, vz, p] = *prim;
    let v = [vx, vy, vz];
    let vn = v[axis];
    let e = energy_of(prim);
    let mut f = [
        rho * vn,
        rho * vx * vn,
        rho * vy * vn,
        rho * vz * vn,
        (e + p) * vn,
    ];
    f[field::SX + axis] += p;
    f
}

/// HLL numerical flux between left/right primitive face states.
#[inline]
fn hll_flux(left: &[f64; 5], right: &[f64; 5], axis: usize) -> [f64; NF] {
    let cl = sound_speed(left[0], left[4]);
    let cr = sound_speed(right[0], right[4]);
    let vnl = left[1 + axis];
    let vnr = right[1 + axis];
    let sl = (vnl - cl).min(vnr - cr);
    let sr = (vnl + cl).max(vnr + cr);
    if sl >= 0.0 {
        return physical_flux(left, axis);
    }
    if sr <= 0.0 {
        return physical_flux(right, axis);
    }
    let fl = physical_flux(left, axis);
    let fr = physical_flux(right, axis);
    let ul = conserved_of(left);
    let ur = conserved_of(right);
    let mut out = [0.0; NF];
    let inv = 1.0 / (sr - sl);
    for f in 0..NF {
        out[f] = (sr * fl[f] - sl * fr[f] + sl * sr * (ur[f] - ul[f])) * inv;
    }
    out
}

/// Conserved state of frame cell `(i, j, k)` (interior-relative).
#[inline]
fn frame_cell(frame: &[f64], i: i64, j: i64, k: i64) -> [f64; NF] {
    let at = frame_index(i, j, k);
    std::array::from_fn(|f| frame[f * FRAME_CELLS + at])
}

/// Primitive state of the frame cell at offset `o` cells along `axis` from
/// `(i, j, k)` (may reach two ghost layers).
#[inline]
fn prim_off(frame: &[f64], axis: usize, i: i64, j: i64, k: i64, o: i64) -> [f64; 5] {
    primitives_of(match axis {
        0 => frame_cell(frame, i + o, j, k),
        1 => frame_cell(frame, i, j + o, k),
        _ => frame_cell(frame, i, j, k + o),
    })
}

/// HLL flux through the **low** face of cell `(i, j, k)` along `axis`, with
/// minmod-limited linear reconstruction.
fn face_flux(frame: &[f64], axis: usize, i: i64, j: i64, k: i64) -> [f64; NF] {
    let m2 = prim_off(frame, axis, i, j, k, -2);
    let m1 = prim_off(frame, axis, i, j, k, -1);
    let p0 = prim_off(frame, axis, i, j, k, 0);
    let p1 = prim_off(frame, axis, i, j, k, 1);
    let mut left = [0.0; 5];
    let mut right = [0.0; 5];
    for f in 0..5 {
        left[f] = m1[f] + 0.5 * minmod(m1[f] - m2[f], p0[f] - m1[f]);
        right[f] = p0[f] - 0.5 * minmod(p0[f] - m1[f], p1[f] - p0[f]);
    }
    // Floors after reconstruction.
    left[0] = left[0].max(RHO_FLOOR);
    right[0] = right[0].max(RHO_FLOOR);
    left[4] = left[4].max(P_FLOOR);
    right[4] = right[4].max(P_FLOOR);
    hll_flux(&left, &right, axis)
}

/// Maximum signal speed (|v| + c_s over all axes) in the interior —
/// Octo-Tiger's CFL reduction kernel.
pub fn max_signal_speed(sub: &SubGrid, dispatch: &Dispatch) -> f64 {
    dispatch.reduce_max(CELLS, |c| {
        let (i, j, k) = cell_coords(c);
        let [rho, vx, vy, vz, p] = sub.primitives(i, j, k);
        let cs = sound_speed(rho, p);
        vx.abs().max(vy.abs()).max(vz.abs()) + cs
    })
}

/// Largest of the per-leaf CFL rates (maximum signal speed over cell
/// width), or NaN when one of them is not a positive number. `f64::max`
/// drops NaN, and a leaf whose cells are all NaN reduces to −∞, so a plain
/// max-fold would carry on at the floor rate; a valid leaf signals at its
/// sound speed at least, and anything else poisons the fold instead of
/// vanishing from it.
pub(crate) fn max_cfl_rate(rates: impl Iterator<Item = f64>) -> f64 {
    rates.fold(1e-30_f64, |max, rate| {
        if rate > 0.0 && !max.is_nan() {
            max.max(rate)
        } else {
            f64::NAN
        }
    })
}

/// Global time step of step number `step`: `cfl` over `rate`, the
/// [`max_cfl_rate`] of every leaf (on several localities: of the localities'
/// own `max_cfl_rate`s, which is the same fold, NaN poison included).
///
/// # Panics
/// Naming the step and what `culprit` says — called on this failure path
/// only — when that is not a positive finite number: the state has gone
/// non-finite and every further step would compute on garbage.
pub(crate) fn global_dt(cfl: f64, rate: f64, step: u64, culprit: impl FnOnce() -> String) -> f64 {
    let dt = cfl / rate;
    if !(dt.is_finite() && dt > 0.0) {
        panic!(
            "step {step}: the CFL reduction returned dt = {dt}; the state is no longer finite: {}",
            culprit()
        );
    }
    dt
}

/// One forward-Euler hydro update of the leaf whose conserved ghost frame
/// ([`FRAME_LEN`] values, face ghosts gathered) is `frame`, cell width `dx`:
/// returns the new interior conserved states. Pure function of the frame —
/// the caller applies it with [`apply_interior`]. The scalar oracle the
/// staged entry ([`step_interior_staged_into`]) is checked against.
pub fn step_interior(frame: &[f64], dx: f64, dt: f64, dispatch: &Dispatch) -> Vec<[f64; NF]> {
    let mut out = vec![[0.0; NF]; CELLS];
    step_into_slice(frame, dx, dt, dispatch, &mut out);
    out
}

/// Scalar hydro update written into a caller-provided `CELLS`-sized slice.
fn step_into_slice(frame: &[f64], dx: f64, dt: f64, dispatch: &Dispatch, out: &mut [[f64; NF]]) {
    assert_eq!(frame.len(), FRAME_LEN, "ghost frame size");
    let lambda = dt / dx;
    debug_assert_eq!(out.len(), CELLS);
    dispatch.fill(out, |c| {
        let (i, j, k) = cell_coords(c);
        let mut u = frame_cell(frame, i, j, k);
        for axis in 0..3 {
            let f_lo = face_flux(frame, axis, i, j, k);
            let (hi_i, hi_j, hi_k) = match axis {
                0 => (i + 1, j, k),
                1 => (i, j + 1, k),
                _ => (i, j, k + 1),
            };
            let f_hi = face_flux(frame, axis, hi_i, hi_j, hi_k);
            for f in 0..NF {
                u[f] += lambda * (f_lo[f] - f_hi[f]);
            }
        }
        // Positivity floors.
        u[field::RHO] = u[field::RHO].max(RHO_FLOOR);
        let kinetic = 0.5
            * (u[field::SX] * u[field::SX]
                + u[field::SY] * u[field::SY]
                + u[field::SZ] * u[field::SZ])
            / u[field::RHO];
        u[field::EGAS] = u[field::EGAS].max(kinetic + P_FLOOR / (GAMMA - 1.0));
        u
    });
}

// ---------------------------------------------------------------------------
// Explicitly-vectorized hydro path: the gathered frame converted in place to
// an SoA primitive stage, plus width-generic `Simd<W>` MUSCL + HLL kernels.
// The scalar functions above remain the bit-exact reference — every vector
// expression below mirrors its scalar counterpart's operation order exactly
// (plain mul/add, no FMA contraction), and every branch is a lane-wise select
// of identically-valued operands, so the SIMD path agrees **bitwise** with
// the scalar path at all widths. That is the same discipline PR 2
// established for the gravity kernels and what the agreement tests enforce.
// ---------------------------------------------------------------------------

/// Element stride between cells one apart along each axis of a frame: the
/// z index is fastest, so z-lanes are unit-stride and a stencil offset along
/// any axis is a single scaled displacement of the same contiguous pack.
const AXIS_STRIDE: [usize; 3] = [NT * NT, NT, 1];

/// Frame index of interior cell `(i, j, k)`.
#[inline]
fn stage_index(i: usize, j: usize, k: usize) -> usize {
    ((i + NG) * NT + (j + NG)) * NT + (k + NG)
}

/// Convert a conserved frame to primitives (ρ, vx, vy, vz, p — five lanes
/// of the same layout) in place: one flat loop, each cell's conversion (with
/// floors) exactly once per step, where the scalar path re-derives
/// primitives at every stencil visit (~24× per cell). Per-lane values are
/// bit-identical to [`SubGrid::primitives`]; edge and corner cells convert
/// whatever they hold and are never read.
fn primitives_in_place(frame: &mut [f64]) {
    assert_eq!(frame.len(), FRAME_LEN, "ghost frame size");
    let mut lanes = frame.chunks_exact_mut(FRAME_CELLS);
    let [rho, vx, vy, vz, p] = std::array::from_fn(|_| lanes.next().expect("sized above"));
    for c in 0..FRAME_CELLS {
        [rho[c], vx[c], vy[c], vz[c], p[c]] = primitives_of([rho[c], vx[c], vy[c], vz[c], p[c]]);
    }
}

/// Load the five primitive packs of `W` consecutive-z cells at `at` of a
/// primitive stage ([`primitives_in_place`]).
#[inline]
fn load_prims<const W: usize>(stage: &[f64], at: usize) -> [Simd<W>; 5] {
    std::array::from_fn(|q| Simd::from_slice(stage, q * FRAME_CELLS + at))
}

/// Lane-wise [`minmod`]: the data-dependent branches become selects of
/// pre-computed operands, so the pack never diverges.
#[inline]
fn minmod_v<const W: usize>(a: Simd<W>, b: Simd<W>) -> Simd<W> {
    let zero = Simd::zero();
    let slope = a.abs().lt(b.abs()).select(a, b);
    (a * b).le(zero).select(zero, slope)
}

#[inline]
fn sound_speed_v<const W: usize>(rho: Simd<W>, p: Simd<W>) -> Simd<W> {
    (Simd::splat(GAMMA) * p / rho).sqrt()
}

#[inline]
fn energy_of_v<const W: usize>(prim: &[Simd<W>; 5]) -> Simd<W> {
    let [rho, vx, vy, vz, p] = *prim;
    p / Simd::splat(GAMMA - 1.0) + Simd::splat(0.5) * rho * (vx * vx + vy * vy + vz * vz)
}

#[inline]
fn conserved_of_v<const W: usize>(prim: &[Simd<W>; 5]) -> [Simd<W>; NF] {
    let [rho, vx, vy, vz, _p] = *prim;
    [rho, rho * vx, rho * vy, rho * vz, energy_of_v(prim)]
}

#[inline]
fn physical_flux_v<const W: usize>(prim: &[Simd<W>; 5], axis: usize) -> [Simd<W>; NF] {
    let [rho, vx, vy, vz, p] = *prim;
    let v = [vx, vy, vz];
    let vn = v[axis];
    let e = energy_of_v(prim);
    let mut f = [
        rho * vn,
        rho * vx * vn,
        rho * vy * vn,
        rho * vz * vn,
        (e + p) * vn,
    ];
    f[field::SX + axis] = f[field::SX + axis] + p;
    f
}

/// Lane-wise [`hll_flux`]: the scalar early returns become a two-level
/// select. The middle state is computed unconditionally for every lane —
/// always finite, because `sr − sl ≥ 2·min(c_l, c_r) > 0` (the floors
/// guarantee p ≥ P_FLOOR and ρ ≥ RHO_FLOOR, so both sound speeds are
/// positive).
#[inline]
fn hll_flux_v<const W: usize>(
    left: &[Simd<W>; 5],
    right: &[Simd<W>; 5],
    axis: usize,
) -> [Simd<W>; NF] {
    let cl = sound_speed_v(left[0], left[4]);
    let cr = sound_speed_v(right[0], right[4]);
    let vnl = left[1 + axis];
    let vnr = right[1 + axis];
    let sl = (vnl - cl).min(vnr - cr);
    let sr = (vnl + cl).max(vnr + cr);
    let fl = physical_flux_v(left, axis);
    let fr = physical_flux_v(right, axis);
    let ul = conserved_of_v(left);
    let ur = conserved_of_v(right);
    let zero = Simd::zero();
    let left_wins = sl.ge(zero);
    let right_wins = sr.le(zero);
    let inv = Simd::splat(1.0) / (sr - sl);
    let mut out = [Simd::zero(); NF];
    for f in 0..NF {
        let mid = (sr * fl[f] - sl * fr[f] + sl * sr * (ur[f] - ul[f])) * inv;
        out[f] = left_wins.select(fl[f], right_wins.select(fr[f], mid));
    }
    out
}

/// Lane-wise [`face_flux`] through the low faces along `axis` of the `W`
/// consecutive-z cells at staging index `at`. The stencil walks along the
/// axis stride while the pack lanes stay z-contiguous, so all four stencil
/// loads are plain unit-stride packs.
#[inline]
fn face_flux_v<const W: usize>(stage: &[f64], axis: usize, at: usize) -> [Simd<W>; NF] {
    let s = AXIS_STRIDE[axis];
    let m2 = load_prims(stage, at - 2 * s);
    let m1 = load_prims(stage, at - s);
    let p0 = load_prims(stage, at);
    let p1 = load_prims(stage, at + s);
    let half = Simd::splat(0.5);
    let mut left = [Simd::zero(); 5];
    let mut right = [Simd::zero(); 5];
    for f in 0..5 {
        left[f] = m1[f] + half * minmod_v(m1[f] - m2[f], p0[f] - m1[f]);
        right[f] = p0[f] - half * minmod_v(p0[f] - m1[f], p1[f] - p0[f]);
    }
    // Floors after reconstruction (lane-wise max, exact like the scalar max).
    left[0] = left[0].max(Simd::splat(RHO_FLOOR));
    right[0] = right[0].max(Simd::splat(RHO_FLOOR));
    left[4] = left[4].max(Simd::splat(P_FLOOR));
    right[4] = right[4].max(Simd::splat(P_FLOOR));
    hll_flux_v(&left, &right, axis)
}

/// One face row of the flux scratch: `[NF][NX]`, z contiguous.
const FLUX_ROW: usize = NF * NX;
/// Face rows of the flux scratch of a run of rows, rows taken in order: a
/// ring of `2·NX` x-face rows (the high face of row `r` goes to slot
/// `(r + NX) % 2·NX` and is the low face of row `r + NX`, `NX` rows later)
/// and two y-face rows (face `fj` of the plane in slot `fj % 2`).
const FLUX_ROWS: usize = 2 * NX + 2;
/// Behind them, the nine z faces of the current row: `[NF][NX + 1]`.
const FLUX_Z: usize = FLUX_ROWS * FLUX_ROW;
/// Flat length of the flux scratch (6 KB).
const FLUX_LEN: usize = FLUX_Z + NF * (NX + 1);

/// Store the flux packs of `W` faces at `k0` of a `[NF][stride]` face row.
#[inline]
fn store_flux<const W: usize>(flux: [Simd<W>; NF], row: &mut [f64], stride: usize, k0: usize) {
    for (f, pack) in flux.iter().enumerate() {
        pack.write_to(row, f * stride + k0);
    }
}

/// Inverse of [`store_flux`].
#[inline]
fn load_flux<const W: usize>(row: &[f64], stride: usize, k0: usize) -> [Simd<W>; NF] {
    std::array::from_fn(|f| Simd::from_slice(row, f * stride + k0))
}

/// Fluxes through the low faces along `axis` of the k-row of cells whose
/// first is at staging index `at0`, into face row `row` of `flux`.
fn flux_row<const W: usize>(stage: &[f64], axis: usize, at0: usize, flux: &mut [f64], row: usize) {
    let row = &mut flux[row * FLUX_ROW..][..FLUX_ROW];
    sweep_packs::<W>(NX, |k0, _| {
        store_flux(face_flux_v::<W>(stage, axis, at0 + k0), row, NX, k0);
    });
}

/// SIMD hydro kernel written into a caller-provided `CELLS`-sized slice (see
/// [`step_into_slice`] for why the slice form exists). One launch per leaf;
/// each run of rows the dispatcher hands out computes every face flux it
/// needs **once**, into a scratch on its stack, and updates its cells as the
/// scalar kernel does, `u + λ·(f_lo − f_hi)` in x, y, z order. The high face
/// of a cell is the low face of its upper neighbour — the scalar kernel
/// makes that very [`face_flux`] call for both — so reading it back instead
/// of evaluating it again changes no bit.
fn step_rows_simd_slice<const W: usize>(
    sub: &SubGrid,
    stage: &[f64],
    dt: f64,
    dispatch: &Dispatch,
    out: &mut [[f64; NF]],
) {
    debug_assert_eq!(out.len(), CELLS);
    // NX = 8 is divisible by every supported width, so there are no tail
    // packs; Simd<1> is the degenerate scalar pack for completeness.
    const {
        assert!(
            NX.is_multiple_of(W),
            "pack width must divide the row length"
        )
    };
    let lambda = Simd::<W>::splat(dt / sub.dx);
    let u_all = sub.u.as_slice();
    // The stencil reads through four primitive packs (`load_prims`); the
    // update starts from the leaf's conserved interior.
    dispatch.fill_row_runs(out, NX, |row0, run| {
        let mut flux = [0.0; FLUX_LEN];
        for (r, chunk) in (row0..).zip(run.chunks_mut(NX)) {
            let j = r % NX;
            let at0 = stage_index(r / NX, j, 0);
            // x: the low face was the high face of the row one plane down,
            // if the run began at or before that row.
            let (x_lo, x_hi) = (r % (2 * NX), (r + NX) % (2 * NX));
            if r < row0 + NX {
                flux_row::<W>(stage, 0, at0, &mut flux, x_lo);
            }
            flux_row::<W>(stage, 0, at0 + AXIS_STRIDE[0], &mut flux, x_hi);
            // y: likewise of the previous row, within a plane.
            let (y_lo, y_hi) = (2 * NX + j % 2, 2 * NX + (j + 1) % 2);
            if r == row0 || j == 0 {
                flux_row::<W>(stage, 1, at0, &mut flux, y_lo);
            }
            flux_row::<W>(stage, 1, at0 + AXIS_STRIDE[1], &mut flux, y_hi);
            // z: the row's nine faces, the ninth as a pack of one (hydro has
            // the same bits at every width).
            let z = &mut flux[FLUX_Z..];
            sweep_packs::<W>(NX, |k0, _| {
                store_flux(face_flux_v::<W>(stage, 2, at0 + k0), z, NX + 1, k0);
            });
            store_flux(face_flux_v::<1>(stage, 2, at0 + NX), z, NX + 1, NX);
            let face_row = |slot: usize| &flux[slot * FLUX_ROW..][..FLUX_ROW];
            let z = &flux[FLUX_Z..];
            // Per axis: low face row, high face row, their stride, and how
            // far up the row the high faces start.
            let faces = [
                (face_row(x_lo), face_row(x_hi), NX, 0),
                (face_row(y_lo), face_row(y_hi), NX, 0),
                (z, z, NX + 1, 1),
            ];
            sweep_packs::<W>(NX, |k0, is_tail| {
                debug_assert!(!is_tail, "NX is a multiple of every pack width");
                // Conserved fields are already SoA per field in the View:
                // `[NF][NX][NX][NX]` row-major, z contiguous.
                let mut u: [Simd<W>; NF] =
                    std::array::from_fn(|f| Simd::from_slice(u_all, f * CELLS + r * NX + k0));
                for (lo, hi, stride, up) in faces {
                    let f_lo = load_flux::<W>(lo, stride, k0);
                    let f_hi = load_flux::<W>(hi, stride, k0 + up);
                    for f in 0..NF {
                        u[f] = u[f] + lambda * (f_lo[f] - f_hi[f]);
                    }
                }
                // Positivity floors.
                u[field::RHO] = u[field::RHO].max(Simd::splat(RHO_FLOOR));
                let kinetic = Simd::splat(0.5)
                    * (u[field::SX] * u[field::SX]
                        + u[field::SY] * u[field::SY]
                        + u[field::SZ] * u[field::SZ])
                    / u[field::RHO];
                u[field::EGAS] = u[field::EGAS].max(kinetic + Simd::splat(P_FLOOR / (GAMMA - 1.0)));
                for (lane, cell) in chunk[k0..k0 + W].iter_mut().enumerate() {
                    for (f, uf) in u.iter().enumerate() {
                        cell[f] = uf.extract(lane);
                    }
                }
            });
        }
    });
}

/// [`max_signal_speed`] at pack width `W`, straight from the conserved
/// interior rows: the arithmetic of [`SubGrid::primitives`] and
/// [`sound_speed`] per lane and a max-fold, which has no order to keep — the
/// scalar reduction's bits at every width.
fn max_signal_speed_w<const W: usize>(sub: &SubGrid) -> f64 {
    const {
        assert!(
            NX.is_multiple_of(W),
            "pack width must divide the row length"
        )
    };
    let u_all = sub.u.as_slice();
    let mut acc = Simd::<W>::splat(f64::NEG_INFINITY);
    for row in 0..NX * NX {
        sweep_packs::<W>(NX, |k0, _| {
            let u = |f: usize| Simd::<W>::from_slice(u_all, f * CELLS + row * NX + k0);
            let rho = u(field::RHO).max(Simd::splat(RHO_FLOOR));
            let (vx, vy, vz) = (u(field::SX) / rho, u(field::SY) / rho, u(field::SZ) / rho);
            let kinetic = Simd::splat(0.5) * rho * (vx * vx + vy * vy + vz * vz);
            let p =
                (Simd::splat(GAMMA - 1.0) * (u(field::EGAS) - kinetic)).max(Simd::splat(P_FLOOR));
            acc = acc.max(vx.abs().max(vy.abs()).max(vz.abs()) + sound_speed_v(rho, p));
        });
    }
    acc.reduce_max()
}

/// Per-leaf CFL speed via `policy` — [`max_signal_speed`]'s bits either way.
pub fn max_signal_speed_policy(sub: &SubGrid, dispatch: &Dispatch, policy: SimdPolicy) -> f64 {
    match policy {
        SimdPolicy::Scalar => max_signal_speed(sub, dispatch),
        SimdPolicy::Width(1) => max_signal_speed_w::<1>(sub),
        SimdPolicy::Width(2) => max_signal_speed_w::<2>(sub),
        SimdPolicy::Width(4) => max_signal_speed_w::<4>(sub),
        SimdPolicy::Width(8) => max_signal_speed_w::<8>(sub),
        SimdPolicy::Width(other) => panic!("unsupported SIMD width {other}"),
    }
}

/// Policy-dispatched hydro update of `sub` into a caller-provided
/// `CELLS`-sized slice — the one production entry. `frame` is `sub`'s
/// gathered conserved ghost frame, scratch of the calling task: the scalar
/// oracle reads it as it is, a vector policy converts it to primitives in
/// place and updates from `sub`'s conserved interior.
pub fn step_interior_staged_into(
    sub: &SubGrid,
    frame: &mut [f64],
    dt: f64,
    dispatch: &Dispatch,
    policy: SimdPolicy,
    out: &mut [[f64; NF]],
) {
    let SimdPolicy::Width(w) = policy else {
        return step_into_slice(frame, sub.dx, dt, dispatch, out);
    };
    primitives_in_place(frame);
    match w {
        1 => step_rows_simd_slice::<1>(sub, frame, dt, dispatch, out),
        2 => step_rows_simd_slice::<2>(sub, frame, dt, dispatch, out),
        4 => step_rows_simd_slice::<4>(sub, frame, dt, dispatch, out),
        8 => step_rows_simd_slice::<8>(sub, frame, dt, dispatch, out),
        other => panic!("unsupported SIMD width {other}"),
    }
}

/// Write the interior states produced by [`step_interior`] back.
pub(crate) fn apply_interior(sub: &mut SubGrid, new_state: &[[f64; NF]]) {
    assert_eq!(new_state.len(), CELLS, "state buffer size mismatch");
    for (f, lane) in sub.u.as_mut_slice().chunks_exact_mut(CELLS).enumerate() {
        for (v, cell) in lane.iter_mut().zip(new_state) {
            *v = cell[f];
        }
    }
}

/// Apply the gravitational source terms for one step: momentum gains
/// ρ·g·dt, energy gains v·g·ρ·dt (work done by gravity). `acc` holds one
/// acceleration per gravity block ([`crate::gravity::LeafSolve::accel`]);
/// each cell reads its block's.
pub(crate) fn apply_gravity_source(sub: &mut SubGrid, acc: &[[f64; 3]; BLOCKS], dt: f64) {
    let u = sub.u.as_mut_slice();
    for c in 0..CELLS {
        let (i, j, k) = cell_coords(c);
        let g = acc[block_of_cell(i as usize, j as usize, k as usize)];
        let at = |f: usize| f * CELLS + c;
        let rho = u[at(field::RHO)];
        let (sx, sy, sz) = (u[at(field::SX)], u[at(field::SY)], u[at(field::SZ)]);
        u[at(field::SX)] = sx + rho * g[0] * dt;
        u[at(field::SY)] = sy + rho * g[1] * dt;
        u[at(field::SZ)] = sz + rho * g[2] * dt;
        let de = (sx * g[0] + sy * g[1] + sz * g[2]) * dt;
        u[at(field::EGAS)] += de;
    }
}

/// Analytic flop estimate for one hydro cell update (used by the machine
/// projection; derivation: 6 face fluxes × [4 primitive conversions ≈ 22
/// flops each + reconstruction 5 fields × 6 + HLL ≈ 70 incl. two sqrt] ≈
/// 6 × 190, plus update/floor arithmetic ≈ 60). The charge of the *modelled*
/// program (the paper's kernel, both faces of every cell), not of the host
/// kernel, which computes each face once: ROADMAP item 2 decides the model,
/// and a host optimisation must not move an exhibit.
pub(crate) const HYDRO_FLOPS_PER_CELL: u64 = 1200;

/// Bytes moved per hydro cell update (5 fields read over a ~4-wide stencil
/// reach + 5 written, 8 B each, with cache reuse ≈ 3× single-field
/// traffic) — the modelled program's, like [`HYDRO_FLOPS_PER_CELL`].
pub(crate) const HYDRO_BYTES_PER_CELL: u64 = 240;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_backend::KernelType;
    use crate::star::RotatingStar;

    /// A leaf at `origin` with cell width `dx` and its ghost frame, every
    /// cell of both from `state(i, j, k)` (interior-relative) except the
    /// frame's edge and corner cells, which are NaN: no stencil reads them.
    fn leaf_of(
        origin: [f64; 3],
        dx: f64,
        state: impl Fn(i64, i64, i64) -> [f64; NF],
    ) -> (SubGrid, Vec<f64>) {
        let mut g = SubGrid::new(origin, dx);
        let mut frame = vec![f64::NAN; FRAME_LEN];
        let span = -(NG as i64)..(NX + NG) as i64;
        for i in span.clone() {
            for j in span.clone() {
                for k in span.clone() {
                    let in_shell = |x: &&i64| !(0..NX as i64).contains(*x);
                    let shell_rank = [i, j, k].iter().filter(in_shell).count();
                    if shell_rank > 1 {
                        continue;
                    }
                    let u = state(i, j, k);
                    for (f, v) in u.iter().enumerate() {
                        frame[f * FRAME_CELLS + frame_index(i, j, k)] = *v;
                        if shell_rank == 0 {
                            g.set(f, i, j, k, *v);
                        }
                    }
                }
            }
        }
        (g, frame)
    }

    fn uniform_grid(rho: f64, v: [f64; 3], p: f64) -> (SubGrid, Vec<f64>) {
        let u = conserved_of(&[rho, v[0], v[1], v[2], p]);
        leaf_of([0.0; 3], 0.1, |_, _, _| u)
    }

    fn star_leaf() -> (SubGrid, Vec<f64>) {
        let star = RotatingStar::paper_default();
        let geometry = SubGrid::new([-0.1, -0.1, -0.1], 0.025);
        leaf_of(geometry.origin, geometry.dx, |i, j, k| {
            let c = geometry.cell_center(i, j, k);
            star.conserved_at(c[0], c[1], c[2])
        })
    }

    /// A pressure jump at the x midplane of a moving gas (`v = 0` for the
    /// gas at rest).
    fn shock_leaf(v: [f64; 3]) -> (SubGrid, Vec<f64>) {
        let u = conserved_of(&[1.0, v[0], v[1], v[2], 0.1]);
        leaf_of([0.0; 3], 0.1, |i, _, _| {
            let mut u = u;
            if i < 4 {
                u[field::EGAS] = 10.0 / (GAMMA - 1.0);
            }
            u
        })
    }

    #[test]
    fn minmod_properties() {
        assert_eq!(minmod(1.0, 2.0), 1.0);
        assert_eq!(minmod(-3.0, -2.0), -2.0);
        assert_eq!(minmod(1.0, -1.0), 0.0);
        assert_eq!(minmod(0.0, 5.0), 0.0);
    }

    #[test]
    fn uniform_state_is_stationary() {
        let (g, frame) = uniform_grid(1.0, [0.1, -0.2, 0.3], 0.7);
        let out = step_interior(&frame, g.dx, 0.01, &Dispatch::Legacy);
        for (u, before) in out.iter().zip(g.field(field::RHO)) {
            assert!(
                (u[field::RHO] - before).abs() < 1e-13,
                "uniform flow must not change"
            );
        }
    }

    #[test]
    fn hll_flux_consistency_with_physical_flux() {
        // Equal left/right supersonic states → upwind flux.
        let prim = [1.0, 2.0, 0.0, 0.0, 0.1]; // v > c
        let f = hll_flux(&prim, &prim, 0);
        let want = physical_flux(&prim, 0);
        for (a, b) in f.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn hll_mass_flux_sign_follows_flow() {
        let left = [1.0, 1.5, 0.0, 0.0, 1.0];
        let right = [1.0, 1.5, 0.0, 0.0, 1.0];
        assert!(hll_flux(&left, &right, 0)[field::RHO] > 0.0);
        let lneg = [1.0, -1.5, 0.0, 0.0, 1.0];
        assert!(hll_flux(&lneg, &lneg, 0)[field::RHO] < 0.0);
    }

    #[test]
    fn pressure_jump_accelerates_toward_low_pressure() {
        // High pressure in the left half: after one step the interface
        // cells must gain positive x-momentum.
        let (g, frame) = shock_leaf([0.0; 3]);
        let out = step_interior(&frame, g.dx, 0.001, &Dispatch::Legacy);
        let c = cell_index(4, 4, 4); // right of the interface at i=4
        assert!(
            out[c][field::SX] > 0.0,
            "gas must accelerate toward low pressure: sx = {}",
            out[c][field::SX]
        );
    }

    #[test]
    fn interior_mass_conserved_with_closed_box() {
        // A centred blob: over one tiny step the interior mass changes only
        // by the (small) net flux through the frame's faces.
        let (g, frame) = star_leaf();
        let before = g.mass();
        let out = step_interior(&frame, g.dx, 1e-6, &Dispatch::Legacy);
        let mut after = 0.0;
        for u in &out {
            after += u[field::RHO];
        }
        after *= g.dx * g.dx * g.dx;
        assert!(
            ((after - before) / before).abs() < 1e-3,
            "tiny step must nearly conserve mass: {before} -> {after}"
        );
    }

    #[test]
    fn all_dispatch_backends_agree_bitwise() {
        let (g, frame) = star_leaf();
        let rt = amt::Runtime::new(3);
        let reference = step_interior(&frame, g.dx, 1e-4, &Dispatch::Legacy);
        for kind in [KernelType::KokkosSerial, KernelType::KokkosHpx] {
            let d = Dispatch::new(kind, &rt.handle(), 4);
            let out = step_interior(&frame, g.dx, 1e-4, &d);
            for (a, b) in reference.iter().zip(&out) {
                for f in 0..NF {
                    assert_eq!(a[f].to_bits(), b[f].to_bits(), "{kind:?} diverged");
                }
            }
        }
    }

    #[test]
    fn signal_speed_positive_and_scales_with_pressure() {
        let (cold, _) = uniform_grid(1.0, [0.0; 3], 0.1);
        let (hot, _) = uniform_grid(1.0, [0.0; 3], 10.0);
        let d = Dispatch::Legacy;
        let sc = max_signal_speed(&cold, &d);
        let sh = max_signal_speed(&hot, &d);
        assert!(sc > 0.0);
        assert!(sh > sc * 5.0, "c_s ∝ √p: {sc} vs {sh}");
    }

    #[test]
    fn gravity_source_adds_momentum_and_work() {
        let (mut g, _) = uniform_grid(2.0, [1.0, 0.0, 0.0], 1.0);
        let acc = [[0.5, 0.0, 0.0]; BLOCKS];
        let e0 = g.at(field::EGAS, 3, 3, 3);
        let sx0 = g.at(field::SX, 3, 3, 3);
        apply_gravity_source(&mut g, &acc, 0.1);
        let sx1 = g.at(field::SX, 3, 3, 3);
        let e1 = g.at(field::EGAS, 3, 3, 3);
        assert!((sx1 - (sx0 + 2.0 * 0.5 * 0.1)).abs() < 1e-12);
        assert!((e1 - (e0 + sx0 * 0.5 * 0.1)).abs() < 1e-12);
    }

    /// Each cell reads its block's acceleration: bitwise the per-cell source
    /// loop over the block values copied out to every cell, on the rotating
    /// star's state with a different acceleration in every block.
    #[test]
    fn block_source_equals_the_per_cell_loop_over_expanded_values() {
        let (mut got, _) = star_leaf();
        let mut want = got.clone();
        let acc: [[f64; 3]; BLOCKS] = std::array::from_fn(|b| {
            let b = b as f64;
            [0.3 + b, -0.7 * b, 1.0 / (b + 3.0)]
        });
        let dt = 1.3e-3;
        let mut cells = vec![[f64::NAN; 3]; CELLS];
        for i in 0..NX {
            for j in 0..NX {
                for k in 0..NX {
                    cells[cell_index(i, j, k)] = acc[block_of_cell(i, j, k)];
                }
            }
        }
        let u = want.u.as_mut_slice();
        for (c, g) in cells.iter().enumerate() {
            let at = |f: usize| f * CELLS + c;
            let rho = u[at(field::RHO)];
            let (sx, sy, sz) = (u[at(field::SX)], u[at(field::SY)], u[at(field::SZ)]);
            u[at(field::SX)] = sx + rho * g[0] * dt;
            u[at(field::SY)] = sy + rho * g[1] * dt;
            u[at(field::SZ)] = sz + rho * g[2] * dt;
            let de = (sx * g[0] + sy * g[1] + sz * g[2]) * dt;
            u[at(field::EGAS)] += de;
        }
        apply_gravity_source(&mut got, &acc, dt);
        let bits = |g: &SubGrid| {
            g.interior_data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&want));
        assert!(want.interior_data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn positivity_floors_hold_in_vacuum() {
        let (g, frame) = uniform_grid(RHO_FLOOR, [0.0; 3], P_FLOOR);
        let out = step_interior(&frame, g.dx, 0.01, &Dispatch::Legacy);
        for u in &out {
            assert!(u[field::RHO] >= RHO_FLOOR);
            assert!(u[field::EGAS] > 0.0);
        }
    }

    #[test]
    fn cell_index_roundtrip() {
        for c in 0..CELLS {
            let (i, j, k) = cell_coords(c);
            assert_eq!(cell_index(i as usize, j as usize, k as usize), c);
        }
    }

    #[test]
    fn apply_writes_the_interior_in_cell_index_order() {
        let (mut g, _) = uniform_grid(1.0, [0.0; 3], 1.0);
        let state: Vec<[f64; NF]> = (0..CELLS)
            .map(|c| std::array::from_fn(|f| (f * CELLS + c) as f64))
            .collect();
        apply_interior(&mut g, &state);
        let want: Vec<f64> = (0..NF * CELLS).map(|v| v as f64).collect();
        assert_eq!(g.interior_data(), want);
    }

    /// The production entry on a copy of `frame` (it converts its frame in
    /// place) into a buffer no cell of which may survive.
    fn staged(
        g: &SubGrid,
        frame: &[f64],
        dt: f64,
        dispatch: &Dispatch,
        policy: SimdPolicy,
    ) -> Vec<[f64; NF]> {
        let mut stage = frame.to_vec();
        let mut out = vec![[f64::NAN; NF]; CELLS];
        step_interior_staged_into(g, &mut stage, dt, dispatch, policy, &mut out);
        out
    }

    fn assert_same_bits(got: &[[f64; NF]], want: &[[f64; NF]], what: &str) {
        for (c, (a, b)) in want.iter().zip(got).enumerate() {
            for f in 0..NF {
                assert_eq!(
                    a[f].to_bits(),
                    b[f].to_bits(),
                    "{what} diverged at cell {c} field {f}"
                );
            }
        }
    }

    /// Each face once ≡ both faces of every cell: all four widths × the three
    /// execution spaces × 1, 4 and 16 tasks over the HPX space's runs (on 3
    /// workers ten of 6 rows and one of 4, so runs reuse x faces across a
    /// plane and start mid-plane), on the star, a shock and the floored vacuum
    /// (the limiter and both HLL early-return branches against clamped
    /// states) — every frame with NaN edges and corners, which no path reads.
    #[test]
    fn flux_once_matches_scalar_bitwise_at_all_widths_spaces_and_run_lengths() {
        let rt = amt::Runtime::new(3);
        let handle = rt.handle();
        let mut dispatches: Vec<(String, Dispatch)> = KernelType::ALL
            .iter()
            .map(|&kind| (format!("{kind:?}"), Dispatch::new(kind, &handle, 4)))
            .collect();
        for chunks in [1, 16] {
            let d = Dispatch::new(KernelType::KokkosHpx, &handle, chunks);
            dispatches.push((format!("KokkosHpx/{chunks}"), d));
        }
        let leaves = [
            (star_leaf(), 1e-4),
            (shock_leaf([0.3, -0.2, 0.1]), 1e-3),
            (uniform_grid(RHO_FLOOR, [0.0; 3], P_FLOOR), 0.01),
        ];
        for ((g, frame), dt) in leaves {
            let reference = step_interior(&frame, g.dx, dt, &Dispatch::Legacy);
            assert!(reference.iter().flatten().all(|v| v.is_finite()));
            for (name, d) in &dispatches {
                for w in SimdPolicy::SUPPORTED_WIDTHS {
                    let out = staged(&g, &frame, dt, d, SimdPolicy::Width(w));
                    assert_same_bits(&out, &reference, &format!("{name} width {w}"));
                }
                // Scalar policy through the same entry is the reference path.
                let out = staged(&g, &frame, dt, d, SimdPolicy::Scalar);
                assert_same_bits(&out, &reference, &format!("{name} scalar"));
            }
        }
    }

    #[test]
    fn cfl_from_the_conserved_interior_matches_scalar_bitwise() {
        let d = Dispatch::Legacy;
        let leaves = [
            star_leaf(),
            shock_leaf([0.3, -0.2, 0.1]),
            uniform_grid(RHO_FLOOR, [0.0; 3], P_FLOOR),
        ];
        for (g, _) in leaves {
            let want = max_signal_speed(&g, &d);
            assert!(want > 0.0);
            for policy in SimdPolicy::SUPPORTED_WIDTHS
                .map(SimdPolicy::Width)
                .into_iter()
                .chain([SimdPolicy::Scalar])
            {
                let got = max_signal_speed_policy(&g, &d, policy);
                assert_eq!(got.to_bits(), want.to_bits(), "{policy:?} CFL diverged");
            }
        }
    }

    /// A NaN density is floored away like the scalar reduction floors it; a
    /// leaf that is NaN throughout has no signal speed, and that poisons the
    /// fold so the step stops under its index and names the culprit.
    #[test]
    fn nan_leaf_poisons_the_cfl_fold_at_every_width() {
        let d = Dispatch::Legacy;
        let (mut one_cell, _) = star_leaf();
        one_cell.set(field::RHO, 3, 3, 3, f64::NAN);
        let (mut all, _) = star_leaf();
        all.u.as_mut_slice().fill(f64::NAN);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            let policy = SimdPolicy::Width(w);
            let got = max_signal_speed_policy(&one_cell, &d, policy);
            assert_eq!(got.to_bits(), max_signal_speed(&one_cell, &d).to_bits());
            let dead = max_signal_speed_policy(&all, &d, policy);
            assert_eq!(dead.to_bits(), max_signal_speed(&all, &d).to_bits());
            let rate = max_cfl_rate([got / one_cell.dx, dead / all.dx].into_iter());
            assert!(rate.is_nan(), "width {w}: {rate}");
            let stop = std::panic::catch_unwind(|| global_dt(0.4, rate, 7, || "leaf 1".into()));
            let message = stop.expect_err("dt must not be computed from NaN");
            let message = message.downcast_ref::<String>().expect("panic message");
            assert!(
                message.starts_with("step 7: the CFL reduction") && message.ends_with(": leaf 1"),
                "{message}"
            );
        }
    }
}
