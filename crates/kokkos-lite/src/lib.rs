//! # kokkos-lite — a Kokkos-like performance-portability layer
//!
//! Reproduction stand-in for **Kokkos** and the **HPX-Kokkos** integration
//! the paper ports to RISC-V (§3.2, §5):
//!
//! * [`view::View`] — multi-dimensional arrays with `Left`/`Right` layouts
//!   (Kokkos `View`s, the sub-grid storage of Octo-Tiger);
//! * [`policy::RangePolicy`] — the iteration space;
//! * [`parallel`] — `parallel_for` / `parallel_reduce` / `parallel_scan`,
//!   generic over the execution space;
//! * [`space::Serial`] and [`space::HpxSpace`] — the two CPU execution
//!   spaces of the paper's Fig. 7: inline execution vs splitting each kernel
//!   into `amt` tasks (with the tasks-per-kernel knob of §3.2);
//! * [`simd::Simd`] — portable SIMD packs with compile-time AVX2 / AVX-512
//!   backends; `Simd<1>` is the scalar fallback the V-extension-less RISC-V
//!   boards compile to.
//!
//! Porting note mirrored from §5: Kokkos itself needed *no* code changes for
//! RISC-V, only build-system architecture detection — correspondingly, the
//! only architecture-specific code of this crate is the pair of x86 SIMD
//! backends inside [`simd`], which a RISC-V build does not compile; the
//! target architecture otherwise enters only through `rv_machine::CpuArch`
//! in [`simd::natural_width`].

pub mod parallel;
pub mod policy;
pub mod simd;
pub mod space;
pub mod view;

pub use parallel::{
    parallel_fill, parallel_fill_row_runs, parallel_for, parallel_reduce, parallel_reduce_max,
    parallel_reduce_sum, parallel_scan_inclusive,
};
pub use policy::RangePolicy;
pub use simd::{natural_width, simd_sum, sweep_packs, Mask, Simd};
pub use space::{ExecutionSpace, HpxSpace, Serial};
pub use view::{create_mirror, deep_copy, Layout, View};
