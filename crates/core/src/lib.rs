//! # octo-core — the experiment harness
//!
//! Regenerates every table and figure of *"Evaluating HPX and Kokkos on
//! RISC-V using an Astrophysics Application Octo-Tiger"* (SC'23 workshops)
//! on top of the reproduction stack (`amt`, `kokkos-lite`, `distrib`,
//! `octotiger`, `rv-machine`):
//!
//! * [`maclaurin`] — the Eq. (1) benchmark in the paper's four parallelism
//!   styles, plus the flop-counted variant substituting for `perf`;
//! * [`project`] — measured host counts → per-architecture time/throughput/
//!   energy via the `rv-machine` cost models (DESIGN.md §5);
//! * [`calibrate`] — the documented calibration constants;
//! * [`experiments`] — one runner per exhibit (Tables 1–2, Figs. 4–9);
//! * [`report`] — text rendering of the regenerated exhibits.
//!
//! ```bash
//! cargo run --release -p octo-core --bin figures -- all --quick
//! cargo run --release -p octo-core --bin figures -- fig8
//! ```

pub(crate) mod calibrate;
pub mod experiments;
pub mod maclaurin;
pub(crate) mod membench;
pub mod project;
pub(crate) mod report;

pub use report::{Exhibit, Series};
