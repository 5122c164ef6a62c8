//! Kernel backend selection — the three configurations of the paper's
//! Fig. 7 node-level scaling experiment.

/// How a compute kernel is dispatched on one sub-grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelType {
    /// The "old" hand-written kernels predating the Kokkos port
    /// (Octo-Tiger compiled without Kokkos).
    Legacy,
    /// Kokkos kernels in the Serial execution space: each kernel invocation
    /// runs inline on the calling task's core; multicore utilization comes
    /// from concurrent per-sub-grid kernel launches. The paper found this
    /// *fastest* on the 4-core boards (§6.2.1).
    KokkosSerial,
    /// Kokkos kernels in the HPX execution space: each kernel is split into
    /// further `amt` tasks.
    KokkosHpx,
}

impl KernelType {
    /// All three Fig. 7 configurations, in the figure's legend order.
    pub const ALL: [KernelType; 3] = [
        KernelType::Legacy,
        KernelType::KokkosSerial,
        KernelType::KokkosHpx,
    ];

    /// Parse the paper's CLI spelling (`KOKKOS` means the Kokkos kernels
    /// with the Serial host execution space, the configuration of
    /// Listings 2–3).
    pub(crate) fn parse(s: &str) -> Result<Self, String> {
        match s {
            "LEGACY" | "OLD" => Ok(KernelType::Legacy),
            "KOKKOS" | "KOKKOS_SERIAL" => Ok(KernelType::KokkosSerial),
            "KOKKOS_HPX" => Ok(KernelType::KokkosHpx),
            other => Err(format!("unknown kernel type {other:?}")),
        }
    }

    /// Label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            KernelType::Legacy => "HPX (no Kokkos)",
            KernelType::KokkosSerial => "Kokkos Serial space",
            KernelType::KokkosHpx => "Kokkos HPX space",
        }
    }
}

/// SIMD width policy of the gravity and hydro kernels — the second,
/// orthogonal axis of kernel configuration. [`KernelType`] picks the
/// *execution space* (where the per-leaf loops run); `SimdPolicy` picks the
/// *lane count* of a pack of gravity targets or hydro cells — a pure
/// host-performance choice, bitwise invisible — mirroring how the real Octo-Tiger
/// combines Kokkos execution spaces with `Kokkos::Experimental::simd` types
/// ("From Merging Frameworks to Merging Stars", Daiß et al. 2022).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdPolicy {
    /// The scalar oracles — kept as an always-available backend so
    /// agreement tests keep the vector path honest (gravity's sums its
    /// sources in plain list order, so it agrees to rounding, not bitwise).
    /// This is also what the RISC-V boards run (no V extension, Table 2).
    Scalar,
    /// Width-generic `Simd<W>` packs over the SoA block layout;
    /// the width is one of 1, 2, 4, 8.
    Width(usize),
}

impl SimdPolicy {
    /// Widths the kernels are compiled for (monomorphized `Simd<W>` loops).
    pub const SUPPORTED_WIDTHS: [usize; 4] = [1, 2, 4, 8];

    /// Policy from a configured width: `0` selects the scalar reference
    /// path, otherwise the width must be one of [`Self::SUPPORTED_WIDTHS`].
    pub fn from_width(w: usize) -> Result<Self, String> {
        if w == 0 {
            Ok(SimdPolicy::Scalar)
        } else if Self::SUPPORTED_WIDTHS.contains(&w) {
            Ok(SimdPolicy::Width(w))
        } else {
            Err(format!(
                "unsupported SIMD width {w} (use 0 for scalar, or one of 1/2/4/8)"
            ))
        }
    }

    /// Lanes per pack: scalar and `Width(1)` both process one element.
    pub(crate) fn lanes(self) -> usize {
        match self {
            SimdPolicy::Scalar => 1,
            SimdPolicy::Width(w) => w.max(1),
        }
    }

    /// Label used in figure/bench output.
    pub fn label(self) -> String {
        match self {
            SimdPolicy::Scalar => "scalar".to_string(),
            SimdPolicy::Width(w) => format!("simd{w}"),
        }
    }
}

impl Default for SimdPolicy {
    /// The widest pack that is one register in this build: 8 lanes where
    /// AVX-512F is compiled in (`zmm`), 4 everywhere else (`ymm` under AVX2,
    /// and what LLVM's SLP vectoriser handles best without a `Simd`
    /// backend). Gravity and hydro have the same bits at every lane count,
    /// so the default may follow the compiled ISA — upstream's
    /// `simd_extension=DISCOVER`.
    fn default() -> Self {
        SimdPolicy::Width(if cfg!(target_feature = "avx512f") {
            8
        } else {
            4
        })
    }
}

/// Widest vector extension the *host CPU* supports, detected at runtime.
///
/// Bench JSON headers record this next to [`compiled_simd_isa`] so a
/// baseline series mixing machines (or build flags) is self-describing —
/// the paper's Fig. 6/7 cross-ISA comparison depends on knowing which
/// vector unit actually executed.
pub fn host_simd_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            "avx512f"
        } else if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else if std::arch::is_x86_feature_detected!("avx") {
            "avx"
        } else {
            "sse2"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(target_arch = "riscv64")]
    {
        // No stable runtime probe for the V extension; report the arch and
        // let `compiled_simd_isa` carry the build-time answer.
        "riscv64"
    }
    #[cfg(not(any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )))]
    {
        "unknown"
    }
}

/// Widest vector extension this *binary was compiled for* (`cfg!` — i.e.
/// what `-C target-cpu`/`-C target-feature` enabled). When this lags
/// [`host_simd_isa`], wide `Simd<f64, 8>` packs lower to split narrow ops;
/// the committed benches record both so W8-vs-W4 numbers are interpretable.
pub fn compiled_simd_isa() -> &'static str {
    if cfg!(target_feature = "avx512f") {
        "avx512f"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "avx") {
        "avx"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else if cfg!(target_feature = "neon") {
        "neon"
    } else if cfg!(target_feature = "v") {
        "rvv"
    } else {
        "baseline"
    }
}

/// Runtime dispatcher for one kernel backend. Built once per run from the
/// configured [`KernelType`]; all Octo-Tiger kernels (hydro, multipole,
/// monopole) funnel their per-cell loops through it, so switching the CLI
/// flag really switches the execution path, as in the paper.
#[derive(Clone)]
pub enum Dispatch {
    /// Hand-written loops, no Kokkos involved.
    Legacy,
    /// Kokkos kernels on the Serial execution space.
    KokkosSerial,
    /// Kokkos kernels on the HPX execution space (kernel split into tasks).
    KokkosHpx(kokkos_lite::HpxSpace),
}

impl Dispatch {
    /// Build the dispatcher for `kind`. `handle` is only used by the HPX
    /// execution space; `tasks_per_kernel` is the §3.2 knob (the paper's
    /// 4-core boards want a handful of tasks per kernel).
    pub fn new(kind: KernelType, handle: &amt::Handle, tasks_per_kernel: usize) -> Self {
        match kind {
            KernelType::Legacy => Dispatch::Legacy,
            KernelType::KokkosSerial => Dispatch::KokkosSerial,
            KernelType::KokkosHpx => Dispatch::KokkosHpx(kokkos_lite::HpxSpace::with_chunks(
                handle.clone(),
                tasks_per_kernel.max(1),
            )),
        }
    }

    /// Elementwise kernel: `out[i] = f(i)`.
    pub(crate) fn fill<T, F>(&self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        match self {
            Dispatch::Legacy => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = f(i);
                }
            }
            Dispatch::KokkosSerial => kokkos_lite::parallel_fill(&kokkos_lite::Serial, out, f),
            Dispatch::KokkosHpx(space) => kokkos_lite::parallel_fill(space, out, f),
        }
    }

    /// Run-granular fill kernel: `out` is rows of `row_len` elements and
    /// `f(first_row, run)` writes a run of whole rows in place — all of `out`
    /// under Legacy and in the Serial space, the HPX space's pieces otherwise.
    pub(crate) fn fill_row_runs<T, F>(&self, out: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        match self {
            Dispatch::Legacy => {
                assert!(row_len > 0, "row_len must be positive");
                assert_eq!(out.len() % row_len, 0, "output must be whole rows");
                f(0, out);
            }
            Dispatch::KokkosSerial => {
                kokkos_lite::parallel_fill_row_runs(&kokkos_lite::Serial, out, row_len, f)
            }
            Dispatch::KokkosHpx(space) => {
                kokkos_lite::parallel_fill_row_runs(space, out, row_len, f)
            }
        }
    }

    /// [`Dispatch::fill_row_runs`] a row at a time: `f(row, chunk)` writes one
    /// row, so it can store full `Simd<W>` packs (the gravity kernels' shape).
    pub(crate) fn fill_rows<T, F>(&self, out: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        self.fill_row_runs(out, row_len, |row0, run| {
            for (local, chunk) in run.chunks_mut(row_len).enumerate() {
                f(row0 + local, chunk);
            }
        });
    }

    /// Max-reduction kernel over `0..n`.
    pub(crate) fn reduce_max<F>(&self, n: usize, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Send + Sync,
    {
        match self {
            Dispatch::Legacy => (0..n).map(f).fold(f64::NEG_INFINITY, f64::max),
            Dispatch::KokkosSerial => kokkos_lite::parallel_reduce_max(
                &kokkos_lite::Serial,
                kokkos_lite::RangePolicy::new(0, n),
                f,
            ),
            Dispatch::KokkosHpx(space) => {
                kokkos_lite::parallel_reduce_max(space, kokkos_lite::RangePolicy::new(0, n), f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        assert_eq!(
            KernelType::parse("KOKKOS").unwrap(),
            KernelType::KokkosSerial
        );
        assert_eq!(
            KernelType::parse("KOKKOS_HPX").unwrap(),
            KernelType::KokkosHpx
        );
        assert_eq!(KernelType::parse("LEGACY").unwrap(), KernelType::Legacy);
        assert!(KernelType::parse("CUDA").is_err());
    }

    #[test]
    fn labels_distinct() {
        let mut labels: Vec<_> = KernelType::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn all_dispatchers_compute_the_same() {
        let rt = amt::Runtime::new(2);
        for kind in KernelType::ALL {
            let d = Dispatch::new(kind, &rt.handle(), 4);
            let mut out = vec![0u64; 100];
            d.fill(&mut out, |i| (i * i) as u64);
            assert!(out.iter().enumerate().all(|(i, &v)| v == (i * i) as u64));
            let m = d.reduce_max(100, |i| ((i * 37) % 91) as f64);
            assert_eq!(m, 90.0);
            let mut rows = vec![0u64; 48];
            d.fill_rows(&mut rows, 8, |r, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = (r * 10 + k) as u64;
                }
            });
            assert_eq!(rows[8 * 3 + 5], 35);
            assert!(rows
                .iter()
                .enumerate()
                .all(|(n, &v)| v == ((n / 8) * 10 + n % 8) as u64));
        }
    }

    #[test]
    fn simd_policy_from_width() {
        assert_eq!(SimdPolicy::from_width(0).unwrap(), SimdPolicy::Scalar);
        for w in SimdPolicy::SUPPORTED_WIDTHS {
            assert_eq!(SimdPolicy::from_width(w).unwrap(), SimdPolicy::Width(w));
        }
        assert!(SimdPolicy::from_width(3).is_err());
        assert!(SimdPolicy::from_width(16).is_err());
        assert_eq!(SimdPolicy::Scalar.lanes(), 1);
        assert_eq!(SimdPolicy::Width(8).lanes(), 8);
        let native = if cfg!(target_feature = "avx512f") {
            8
        } else {
            4
        };
        assert_eq!(SimdPolicy::default(), SimdPolicy::Width(native));
        assert_eq!(SimdPolicy::Scalar.label(), "scalar");
        assert_eq!(SimdPolicy::Width(4).label(), "simd4");
    }

    #[test]
    fn simd_isa_probes_return_known_tokens() {
        let known = [
            "avx512f", "avx2", "avx", "sse2", "neon", "riscv64", "rvv", "baseline", "unknown",
        ];
        assert!(known.contains(&host_simd_isa()), "{}", host_simd_isa());
        assert!(
            known.contains(&compiled_simd_isa()),
            "{}",
            compiled_simd_isa()
        );
    }

    #[test]
    fn kokkos_hpx_dispatch_spawns_tasks() {
        let rt = amt::Runtime::new(2);
        rt.reset_stats();
        let d = Dispatch::new(KernelType::KokkosHpx, &rt.handle(), 8);
        let mut out = vec![0.0f64; 4096];
        d.fill(&mut out, |i| i as f64);
        assert!(rt.stats().tasks_spawned > 0);

        rt.reset_stats();
        let ser = Dispatch::new(KernelType::KokkosSerial, &rt.handle(), 8);
        ser.fill(&mut out, |i| i as f64);
        assert_eq!(rt.stats().tasks_spawned, 0, "Serial space spawns nothing");
    }
}
