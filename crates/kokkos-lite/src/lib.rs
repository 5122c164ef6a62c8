//! # kokkos-lite — a Kokkos-like performance-portability layer
//!
//! Reproduction stand-in for **Kokkos** and the **HPX-Kokkos** integration
//! the paper ports to RISC-V (§3.2, §5):
//!
//! * [`View`] — multi-dimensional arrays with `Left`/`Right` layouts
//!   (Kokkos `View`s, the sub-grid storage of Octo-Tiger);
//! * [`RangePolicy`] — the iteration space;
//! * [`parallel_for`] and the `parallel_reduce` family, generic over the
//!   execution space;
//! * [`Serial`] and [`HpxSpace`] — the two CPU execution
//!   spaces of the paper's Fig. 7: inline execution vs splitting each kernel
//!   into `amt` tasks (with the tasks-per-kernel knob of §3.2);
//! * [`simd::Simd`] — portable SIMD packs with compile-time AVX2 / AVX-512
//!   backends; `Simd<1>` is the scalar fallback the V-extension-less RISC-V
//!   boards compile to.
//!
//! Porting note mirrored from §5: Kokkos itself needed *no* code changes for
//! RISC-V, only build-system architecture detection — correspondingly, the
//! only architecture-specific code of this crate is the pair of x86 SIMD
//! backends inside [`simd`], which a RISC-V build does not compile.

pub(crate) mod parallel;
pub(crate) mod policy;
pub mod simd;
pub(crate) mod space;
pub(crate) mod view;

pub use parallel::{
    parallel_fill, parallel_fill_row_runs, parallel_for, parallel_reduce_max, parallel_reduce_sum,
};
pub use policy::RangePolicy;
pub use simd::Simd;
pub use space::{ExecutionSpace, HpxSpace, Serial};
pub use view::{Layout, View};
