//! # octotiger — mini Octo-Tiger: AMR astrophysics on the amt/kokkos-lite stack
//!
//! Rust reproduction of the application of the SC'23 study: **Octo-Tiger**,
//! the 3D adaptive-mesh-refinement, multi-physics code for simulating binary
//! star systems (paper §3.3). Faithful structural properties:
//!
//! * an adaptive [`octree::Octree`] whose leaves carry **8×8×8 sub-grids**
//!   (512 cells — the paper's numbers), 2:1 face-graded;
//! * two **interleaved solvers**: finite-volume hydro ([`hydro`]) and a
//!   fast-multipole gravity solver ([`gravity`]) with the paper's
//!   `--theta` opening parameter;
//! * one compute-kernel invocation **per sub-grid**, launched as an `amt`
//!   task, so parallelism comes from concurrent kernel launches;
//! * three kernel backends ([`kernel_backend::KernelType`]): legacy loops,
//!   Kokkos-Serial and Kokkos-HPX — the configurations of Fig. 7;
//! * a [`driver::Driver`] (node-level, §6.2.1) and a
//!   [`dist_driver`] (two-locality distributed runs over TCP/MPI parcelport
//!   models, §6.2.2) measuring *cells processed per second*;
//! * the `rotating_star` scenario ([`star::RotatingStar`]): an n = 3/2
//!   Lane–Emden polytrope in solid-body rotation.

#![forbid(unsafe_code)]

pub mod config;
pub mod dist_driver;
pub mod driver;
pub mod gravity;
pub mod hydro;
pub mod kernel_backend;
pub mod octree;
pub mod star;
pub mod subgrid;

pub use config::OctoConfig;
pub use dist_driver::{DistConfig, DistMetrics, DistRun};
pub use driver::{Driver, RegridReport, RunMetrics, WorkEstimate};
pub use gravity::EnsureReport;
pub use kernel_backend::{Dispatch, KernelType};
pub use octree::Octree;
pub use star::{BinaryStar, InitialModel, RotatingStar};
