//! # rv-machine — architecture, cost, and energy models
//!
//! The SC'23 study *"Evaluating HPX and Kokkos on RISC-V using an
//! Astrophysics Application Octo-Tiger"* evaluates four CPU testbeds:
//!
//! * SiFive **U74-MC** (HiFive Unmatched, RISC-V RV64GC, no V extension),
//! * StarFive **JH7110** (VisionFive2 boards, the 2-node in-house cluster),
//! * AMD **EPYC 7543**, Intel **Xeon Gold 6140**, and Fujitsu **A64FX**
//!   (Supercomputer Fugaku / Ookami).
//!
//! None of that hardware is available to this reproduction, so this crate is
//! the substitute mandated by the study design: a faithful *model* of those
//! machines. It provides
//!
//! * [`arch`] — the spec table of the paper's Table 2 and the peak-performance
//!   formula of Eq. (2);
//! * [`cost`] — a cycle-level cost model for floating-point work (including
//!   the software-exponentiation penalty the paper's §8 discusses for
//!   RISC-V), task-runtime overheads, and network backends;
//! * [`counted`] — flop-counting instrumented arithmetic, standing in for the
//!   paper's `perf`-based flop measurement;
//! * [`memory`] — a bandwidth/latency model for the memory-bound Octo-Tiger
//!   regime (§6.2: "the slow connection to the memory appears to kick in");
//! * [`energy`] — power/energy accounting (wall-socket power meter on the
//!   SBCs vs chip-level PowerAPI on Fugaku, §7).
//!
//! Everything downstream (the `amt` runtime, `kokkos-lite`, `octotiger`, and
//! the figure harness in `octo-core`) runs *real* Rust code on the host and
//! uses this crate to project measured operation counts onto the paper's
//! machines.

pub(crate) mod arch;
pub(crate) mod cost;
pub mod counted;
pub(crate) mod energy;
pub mod extensions;
pub mod memory;

pub use arch::{CpuArch, CpuSpec, VectorWidth};
pub use cost::{CostModel, NetBackend, NetCost, RuntimeEvent};
pub use counted::{CountedF64, FlopCounter};
pub use energy::{energy_counters_into, EnergyReport, PowerMeter, PowerModel};
pub use extensions::WhatIfWorkload;
pub use memory::MemoryModel;
