//! Rotating-star initial model — the `rotating_star.ini` scenario of the
//! paper's §6.2: "a single rotating star with gravity and hydro solvers
//! enabled".
//!
//! The star is an n = 3/2 polytrope (the classical model for the
//! fully-convective stars Octo-Tiger simulates; its consistent adiabatic
//! index is γ = 5/3). The radial structure comes from integrating the
//! Lane–Emden equation
//!
//! ```text
//! θ'' + (2/ξ)θ' + θⁿ = 0,   θ(0) = 1, θ'(0) = 0,   ρ = ρ_c θⁿ
//! ```
//!
//! numerically (RK4); solid-body rotation at a fraction of the Keplerian
//! break-up rate is superimposed. Units are code units with G = 1.

/// Adiabatic index for the n = 3/2 polytrope.
pub const GAMMA: f64 = 5.0 / 3.0;

/// Polytropic index.
pub(crate) const POLY_N: f64 = 1.5;

/// Density floor applied outside the star (the "vacuum" every grid code
/// needs).
pub const RHO_FLOOR: f64 = 1.0e-10;

/// Pressure floor.
pub const P_FLOOR: f64 = 1.0e-13;

/// Number of conserved fields: ρ, s_x, s_y, s_z, E.
pub const NF: usize = 5;

/// Conserved-field indices.
pub mod field {
    /// Mass density.
    pub const RHO: usize = 0;
    /// x-momentum density.
    pub const SX: usize = 1;
    /// y-momentum density.
    pub const SY: usize = 2;
    /// z-momentum density.
    pub(crate) const SZ: usize = 3;
    /// Total energy density.
    pub const EGAS: usize = 4;
    /// Field names, by index.
    pub(crate) const NAMES: [&str; super::NF] = ["rho", "sx", "sy", "sz", "egas"];
}

/// A solved rotating polytrope.
#[derive(Debug, Clone)]
pub struct RotatingStar {
    /// Outer radius in code units.
    pub radius: f64,
    /// Central density ρ_c.
    pub(crate) central_density: f64,
    /// Polytropic constant K (P = K ρ^{5/3}).
    pub(crate) k_poly: f64,
    /// Solid-body angular velocity around z.
    pub(crate) omega: f64,
    /// Total mass.
    pub mass: f64,
    alpha: f64,
    /// (ξ, θ) table from the Lane–Emden integration.
    profile: Vec<(f64, f64)>,
}

impl RotatingStar {
    /// Build a star of `radius` and `central_density`, rotating at
    /// `omega_frac` of the Keplerian break-up rate √(GM/R³).
    pub fn new(radius: f64, central_density: f64, omega_frac: f64) -> Self {
        assert!(radius > 0.0 && central_density > 0.0);
        assert!((0.0..1.0).contains(&omega_frac), "break-up or faster");
        let (profile, xi1, dtheta_at_xi1) = integrate_lane_emden(POLY_N);
        let alpha = radius / xi1;
        // α² = (n+1) K ρ_c^{1/n−1} / (4πG)  ⇒  K (G = 1):
        let k_poly = 4.0 * std::f64::consts::PI * alpha * alpha
            / ((POLY_N + 1.0) * central_density.powf(1.0 / POLY_N - 1.0));
        // M = 4π α³ ρ_c ξ₁² |θ'(ξ₁)|.
        let mass = 4.0
            * std::f64::consts::PI
            * alpha.powi(3)
            * central_density
            * xi1
            * xi1
            * dtheta_at_xi1.abs();
        let omega = omega_frac * (mass / radius.powi(3)).sqrt();
        RotatingStar {
            radius,
            central_density,
            k_poly,
            omega,
            mass,
            alpha,
            profile,
        }
    }

    /// The paper's scenario at a scale that fills a [-1, 1]³ domain.
    pub fn paper_default() -> Self {
        RotatingStar::new(0.7, 1.0, 0.2)
    }

    /// Density at radius `r` from the centre (with floor).
    pub fn density(&self, r: f64) -> f64 {
        if r >= self.radius {
            return RHO_FLOOR;
        }
        let xi = r / self.alpha;
        let theta = self.theta_at(xi).max(0.0);
        (self.central_density * theta.powf(POLY_N)).max(RHO_FLOOR)
    }

    /// Polytropic pressure for a given density (with floor).
    pub(crate) fn pressure(&self, rho: f64) -> f64 {
        (self.k_poly * rho.powf(GAMMA)).max(P_FLOOR)
    }

    /// Conserved state [ρ, s_x, s_y, s_z, E] at position `(x, y, z)`
    /// relative to the star centre.
    pub fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
        let r = (x * x + y * y + z * z).sqrt();
        let rho = self.density(r);
        // Solid-body rotation about z: v = Ω ẑ × r.
        let (vx, vy, vz) = if rho > 2.0 * RHO_FLOOR {
            (-self.omega * y, self.omega * x, 0.0)
        } else {
            (0.0, 0.0, 0.0)
        };
        let p = self.pressure(rho);
        let kinetic = 0.5 * rho * (vx * vx + vy * vy + vz * vz);
        [
            rho,
            rho * vx,
            rho * vy,
            rho * vz,
            p / (GAMMA - 1.0) + kinetic,
        ]
    }

    fn theta_at(&self, xi: f64) -> f64 {
        let table = &self.profile;
        if xi <= table[0].0 {
            return table[0].1;
        }
        if xi >= table[table.len() - 1].0 {
            return 0.0;
        }
        // The table is uniform in ξ after the first entry.
        let h = table[1].0 - table[0].0;
        let idx = (((xi - table[0].0) / h) as usize).min(table.len() - 2);
        let (x0, t0) = table[idx];
        let (x1, t1) = table[idx + 1];
        let w = (xi - x0) / (x1 - x0);
        t0 * (1.0 - w) + t1 * w
    }
}

/// An initial fluid configuration the octree can be built from: the single
/// rotating star of the paper's runs, or a binary (Octo-Tiger's production
/// scenario). `Sync` because tree construction samples it from parallel
/// tasks.
pub trait InitialModel: Sync {
    /// Density at a position (with vacuum floor).
    fn density_at(&self, x: f64, y: f64, z: f64) -> f64;
    /// Conserved state at a position.
    fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF];
    /// Reference (central) density the refinement threshold scales with.
    fn reference_density(&self) -> f64;
}

impl InitialModel for RotatingStar {
    fn density_at(&self, x: f64, y: f64, z: f64) -> f64 {
        self.density((x * x + y * y + z * z).sqrt())
    }
    fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
        RotatingStar::conserved_at(self, x, y, z)
    }
    fn reference_density(&self) -> f64 {
        self.central_density
    }
}

impl InitialModel for BinaryStar {
    fn density_at(&self, x: f64, y: f64, z: f64) -> f64 {
        BinaryStar::density(self, x, y, z)
    }
    fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
        BinaryStar::conserved_at(self, x, y, z)
    }
    fn reference_density(&self) -> f64 {
        self.primary
            .central_density
            .max(self.secondary.central_density)
    }
}

/// A binary star system — the scenario Octo-Tiger exists for ("used to
/// simulate and study binary star systems and their eventual outcomes",
/// §3.3; the paper's Fig. 1 shows such a merger). Two polytropes on a
/// circular mutual orbit; the mass-transfer region between them is where
/// AMR concentrates resolution.
#[derive(Debug, Clone)]
pub struct BinaryStar {
    /// Primary (accretor).
    pub primary: RotatingStar,
    /// Secondary (donor).
    pub secondary: RotatingStar,
    /// Orbital separation (centre to centre).
    pub separation: f64,
    /// Orbital angular velocity about the z-axis through the barycentre.
    pub orbital_omega: f64,
    /// Barycentric x-offsets of the two stars (primary, secondary).
    pub offsets: (f64, f64),
}

impl BinaryStar {
    /// Build a binary with `separation` between component centres. Each
    /// component is non-spinning in its own frame; the pair co-rotates at
    /// the Keplerian rate Ω = √(G(M₁+M₂)/a³).
    pub(crate) fn new(primary: RotatingStar, secondary: RotatingStar, separation: f64) -> Self {
        assert!(
            separation > primary.radius + secondary.radius,
            "components must not overlap initially"
        );
        let m_total = primary.mass + secondary.mass;
        let orbital_omega = (m_total / separation.powi(3)).sqrt();
        // Barycentre at the origin: x₁·M₁ + x₂·M₂ = 0.
        let x1 = -separation * secondary.mass / m_total;
        let x2 = separation * primary.mass / m_total;
        BinaryStar {
            primary,
            secondary,
            separation,
            orbital_omega,
            offsets: (x1, x2),
        }
    }

    /// An unequal-mass pair (donor 60% of the accretor's radius) filling a
    /// `[-1, 1]³` domain — the merger-precursor configuration.
    pub fn paper_like() -> Self {
        let primary = RotatingStar::new(0.35, 1.0, 0.0);
        let secondary = RotatingStar::new(0.21, 0.8, 0.0);
        BinaryStar::new(primary, secondary, 0.95)
    }

    /// Density at `(x, y, z)`: superposition of the two components.
    pub(crate) fn density(&self, x: f64, y: f64, z: f64) -> f64 {
        let r1 = ((x - self.offsets.0).powi(2) + y * y + z * z).sqrt();
        let r2 = ((x - self.offsets.1).powi(2) + y * y + z * z).sqrt();
        (self.primary.density(r1) + self.secondary.density(r2) - RHO_FLOOR).max(RHO_FLOOR)
    }

    /// Conserved state at `(x, y, z)`: both stars move on the circular
    /// orbit (rigid rotation of the whole configuration about the
    /// barycentre — the co-rotating initial data Octo-Tiger uses).
    pub(crate) fn conserved_at(&self, x: f64, y: f64, z: f64) -> [f64; NF] {
        let rho = self.density(x, y, z);
        let (vx, vy) = if rho > 2.0 * RHO_FLOOR {
            (-self.orbital_omega * y, self.orbital_omega * x)
        } else {
            (0.0, 0.0)
        };
        // Pressure from the dominant component's polytropic relation.
        let r1 = ((x - self.offsets.0).powi(2) + y * y + z * z).sqrt();
        let rho1 = self.primary.density(r1);
        let p = if rho1 >= rho - rho1 {
            self.primary.pressure(rho)
        } else {
            self.secondary.pressure(rho)
        };
        let kinetic = 0.5 * rho * (vx * vx + vy * vy);
        [rho, rho * vx, rho * vy, 0.0, p / (GAMMA - 1.0) + kinetic]
    }
}

/// RK4 integration of Lane–Emden; returns the (ξ, θ) table, the first zero
/// ξ₁, and θ'(ξ₁).
fn integrate_lane_emden(n: f64) -> (Vec<(f64, f64)>, f64, f64) {
    let h = 1.0e-3;
    let mut xi = 1.0e-6;
    // Series expansion near the centre: θ ≈ 1 − ξ²/6, θ' ≈ −ξ/3.
    let mut theta = 1.0 - xi * xi / 6.0;
    let mut phi = -xi / 3.0;
    let mut table = Vec::with_capacity(4096);
    table.push((xi, theta));
    let deriv = |xi: f64, theta: f64, phi: f64| -> (f64, f64) {
        let t = theta.max(0.0);
        (phi, -t.powf(n) - 2.0 * phi / xi)
    };
    loop {
        let (k1t, k1p) = deriv(xi, theta, phi);
        let (k2t, k2p) = deriv(xi + 0.5 * h, theta + 0.5 * h * k1t, phi + 0.5 * h * k1p);
        let (k3t, k3p) = deriv(xi + 0.5 * h, theta + 0.5 * h * k2t, phi + 0.5 * h * k2p);
        let (k4t, k4p) = deriv(xi + h, theta + h * k3t, phi + h * k3p);
        let new_theta = theta + h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t);
        let new_phi = phi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p);
        if new_theta <= 0.0 {
            // Linear interpolation to the zero crossing.
            let frac = theta / (theta - new_theta);
            let xi1 = xi + frac * h;
            table.push((xi1, 0.0));
            return (table, xi1, new_phi);
        }
        xi += h;
        theta = new_theta;
        phi = new_phi;
        table.push((xi, theta));
        assert!(xi < 20.0, "Lane-Emden failed to reach surface");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_emden_first_zero_matches_literature() {
        // ξ₁ ≈ 3.65375 for n = 1.5.
        let (_, xi1, _) = integrate_lane_emden(POLY_N);
        assert!(
            (xi1 - 3.65375).abs() < 2e-3,
            "xi1 = {xi1} should be ≈3.65375"
        );
    }

    #[test]
    fn density_profile_monotone_decreasing() {
        let star = RotatingStar::paper_default();
        let mut last = f64::INFINITY;
        for i in 0..100 {
            let r = star.radius * i as f64 / 100.0;
            let rho = star.density(r);
            assert!(rho <= last + 1e-12, "density must not increase outward");
            last = rho;
        }
    }

    #[test]
    fn central_density_and_vacuum() {
        let star = RotatingStar::paper_default();
        assert!((star.density(0.0) - 1.0).abs() < 1e-6);
        assert_eq!(star.density(star.radius * 1.5), RHO_FLOOR);
        assert_eq!(star.density(star.radius), RHO_FLOOR);
    }

    #[test]
    fn mass_matches_numerical_shell_integral() {
        let star = RotatingStar::new(0.7, 1.0, 0.0);
        let steps = 4000;
        let mut m = 0.0;
        for i in 0..steps {
            let r = star.radius * (i as f64 + 0.5) / steps as f64;
            let dr = star.radius / steps as f64;
            m += 4.0 * std::f64::consts::PI * r * r * star.density(r) * dr;
        }
        assert!(
            ((m - star.mass) / star.mass).abs() < 0.01,
            "shell integral {m} vs analytic {}",
            star.mass
        );
    }

    #[test]
    fn rotation_velocity_is_solid_body() {
        let star = RotatingStar::paper_default();
        let u = star.conserved_at(0.2, 0.0, 0.0);
        let rho = u[field::RHO];
        let vy = u[field::SY] / rho;
        assert!((vy - star.omega * 0.2).abs() < 1e-12);
        assert_eq!(u[field::SX], -star.omega * 0.0 * rho);
        assert_eq!(u[field::SZ], 0.0);
    }

    #[test]
    fn vacuum_is_at_rest() {
        let star = RotatingStar::paper_default();
        let u = star.conserved_at(0.9, 0.9, 0.9);
        assert_eq!(u[field::SX], 0.0);
        assert_eq!(u[field::SY], 0.0);
        assert!(u[field::RHO] <= 2.0 * RHO_FLOOR);
    }

    #[test]
    fn energy_positive_everywhere() {
        let star = RotatingStar::paper_default();
        for &(x, y, z) in &[
            (0.0, 0.0, 0.0),
            (0.3, 0.2, 0.1),
            (0.69, 0.0, 0.0),
            (0.9, 0.9, 0.9),
        ] {
            let u = star.conserved_at(x, y, z);
            assert!(u[field::EGAS] > 0.0);
            assert!(u[field::RHO] > 0.0);
        }
    }

    #[test]
    fn omega_scales_with_fraction() {
        let slow = RotatingStar::new(0.7, 1.0, 0.1);
        let fast = RotatingStar::new(0.7, 1.0, 0.3);
        assert!((fast.omega / slow.omega - 3.0).abs() < 1e-9);
        assert_eq!(RotatingStar::new(0.7, 1.0, 0.0).omega, 0.0);
    }

    #[test]
    #[should_panic(expected = "break-up")]
    fn super_keplerian_rejected() {
        let _ = RotatingStar::new(0.7, 1.0, 1.0);
    }

    #[test]
    fn pressure_floor_in_vacuum() {
        let star = RotatingStar::paper_default();
        assert_eq!(star.pressure(0.0), P_FLOOR);
        assert!(star.pressure(1.0) > P_FLOOR);
    }

    #[test]
    fn binary_barycentre_is_origin() {
        let b = BinaryStar::paper_like();
        let (x1, x2) = b.offsets;
        let moment = x1 * b.primary.mass + x2 * b.secondary.mass;
        assert!(moment.abs() < 1e-12 * (b.primary.mass + b.secondary.mass));
        assert!(x1 < 0.0 && x2 > 0.0, "primary left, secondary right");
        assert!((x2 - x1 - b.separation).abs() < 1e-12);
    }

    #[test]
    fn binary_density_peaks_at_both_centres() {
        let b = BinaryStar::paper_like();
        let at1 = b.density(b.offsets.0, 0.0, 0.0);
        let at2 = b.density(b.offsets.1, 0.0, 0.0);
        let mid = b.density(0.0, 0.0, 0.0);
        assert!(at1 > 0.9, "primary centre: {at1}");
        assert!(at2 > 0.7, "secondary centre: {at2}");
        assert!(mid < at1.min(at2), "between the stars is rarefied");
    }

    #[test]
    fn binary_orbit_is_keplerian() {
        let b = BinaryStar::paper_like();
        let want = ((b.primary.mass + b.secondary.mass) / b.separation.powi(3)).sqrt();
        assert!((b.orbital_omega - want).abs() < 1e-12);
        // Orbital velocity at the secondary's centre is Ω × r.
        let u = b.conserved_at(b.offsets.1, 0.0, 0.0);
        let vy = u[field::SY] / u[field::RHO];
        assert!((vy - b.orbital_omega * b.offsets.1).abs() < 1e-9);
    }

    #[test]
    fn binary_state_is_physical_everywhere() {
        let b = BinaryStar::paper_like();
        for &(x, y, z) in &[
            (0.0, 0.0, 0.0),
            (b.offsets.0, 0.0, 0.0),
            (b.offsets.1, 0.1, 0.0),
            (0.9, 0.9, 0.9),
        ] {
            let u = b.conserved_at(x, y, z);
            assert!(u[field::RHO] > 0.0);
            let kinetic =
                0.5 * (u[field::SX] * u[field::SX] + u[field::SY] * u[field::SY]) / u[field::RHO];
            assert!(u[field::EGAS] >= kinetic, "positive internal energy");
        }
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_binary_rejected() {
        let a = RotatingStar::new(0.5, 1.0, 0.0);
        let b = RotatingStar::new(0.5, 1.0, 0.0);
        let _ = BinaryStar::new(a, b, 0.8);
    }
}
