//! CPU architecture descriptions (the paper's Table 2) and the theoretical
//! peak-performance formula (Eq. 2).
//!
//! Table 2 of the paper:
//!
//! | CPU                  | Clock [GHz] | VL | FPU/core | FMA | Cores | Peak [GFLOP/s] |
//! |----------------------|-------------|----|----------|-----|-------|----------------|
//! | ARM A64FX            | 1.8         | 8  | 2        | yes | 48    | 2764.8         |
//! | AMD EPYC 7543        | 2.8         | 4  | 2        | yes | 64    | 2867.2         |
//! | Intel Xeon Gold 6140 | 2.3         | 8  | 2        | yes | 18    | 1324.8         |
//! | RISC-V U74-MC        | 1.2         | —  | 1        | no* | 4     | 9.6            |
//!
//! (*) The U74 supports FMA only for the 32-bit floating-point ISA; the paper
//! nevertheless keeps the factor 2 of Eq. (2) in its peak number, and so do
//! we, to match Table 2 exactly.

/// SIMD vector width in `f64` lanes. `Scalar` models the RISC-V boards,
/// which implement neither the V (vector) nor the P (packed SIMD) extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorWidth {
    /// No SIMD: one f64 lane (RISC-V U74/JH7110 in this study).
    Scalar,
    /// `n` f64 lanes (A64FX SVE-512 → 8, AVX-512 → 8, AVX2/EPYC "Zen3" → 4).
    Lanes(u32),
}

impl VectorWidth {
    /// Number of f64 lanes contributed to the peak-performance product.
    #[inline]
    pub fn lanes(self) -> u32 {
        match self {
            VectorWidth::Scalar => 1,
            VectorWidth::Lanes(n) => n,
        }
    }

    /// Whether the architecture has any SIMD capability at all.
    #[inline]
    pub fn has_simd(self) -> bool {
        matches!(self, VectorWidth::Lanes(n) if n > 1)
    }
}

/// The four CPUs evaluated in the paper, plus the StarFive JH7110 that powers
/// the VisionFive2 in-house cluster (same U74 cores, slightly higher clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuArch {
    /// Fujitsu A64FX (Supercomputer Fugaku, Ookami): Arm v8.2 + SVE-512.
    A64fx,
    /// AMD EPYC 7543 ("Milan"): x86-64, AVX2 (4 f64 lanes).
    Epyc7543,
    /// Intel Xeon Gold 6140 ("Skylake-SP"): x86-64, AVX-512 (8 f64 lanes).
    XeonGold6140,
    /// SiFive U74-MC on the HiFive Unmatched board: RV64GC, in-order dual
    /// issue with a single FPU pipe, no vector extension.
    RiscvU74,
    /// StarFive JH7110 on the VisionFive2 boards (licensed SiFive U74 design):
    /// the in-house two-board cluster of §4.
    Jh7110,
}

/// Static description of one CPU: exactly the columns of Table 2 plus the
/// memory-subsystem figures used by [`crate::memory::MemoryModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Architecture tag.
    pub(crate) arch: CpuArch,
    /// Human-readable name as printed in the paper.
    pub name: &'static str,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// SIMD width in f64 lanes.
    pub vector: VectorWidth,
    /// FPU units per core.
    pub fpu_per_core: u32,
    /// Whether 64-bit FMA is available. (RISC-V U74: only the 32-bit FP ISA
    /// has FMA, so `false` here.)
    pub fma64: bool,
    /// Physical core count of the socket/board.
    pub cores: u32,
    /// Sustainable main-memory bandwidth in GiB/s (board level).
    pub(crate) mem_bandwidth_gib: f64,
    /// Main-memory access latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Instruction set architecture family, for reporting.
    pub(crate) isa: &'static str,
}

impl CpuArch {
    /// All architectures that appear in the paper's figures.
    pub const ALL: [CpuArch; 5] = [
        CpuArch::A64fx,
        CpuArch::Epyc7543,
        CpuArch::XeonGold6140,
        CpuArch::RiscvU74,
        CpuArch::Jh7110,
    ];

    /// The four rows of Table 2 (the JH7110 is folded into the U74 row in the
    /// paper because it is the same licensed core).
    pub const TABLE2: [CpuArch; 4] = [
        CpuArch::A64fx,
        CpuArch::Epyc7543,
        CpuArch::XeonGold6140,
        CpuArch::RiscvU74,
    ];

    /// Full specification record.
    pub fn spec(self) -> CpuSpec {
        match self {
            CpuArch::A64fx => CpuSpec {
                arch: self,
                name: "ARM A64FX",
                clock_ghz: 1.8,
                vector: VectorWidth::Lanes(8),
                fpu_per_core: 2,
                fma64: true,
                cores: 48,
                // 4x 8GiB HBM2 stacks: ~1024 GB/s; per-CMG share is lower but
                // a 4-core slice of one CMG still sees ~256 GiB/s.
                mem_bandwidth_gib: 256.0,
                mem_latency_ns: 120.0,
                isa: "Armv8.2-A + SVE",
            },
            CpuArch::Epyc7543 => CpuSpec {
                arch: self,
                name: "AMD EPYC 7543",
                clock_ghz: 2.8,
                vector: VectorWidth::Lanes(4),
                fpu_per_core: 2,
                fma64: true,
                cores: 64,
                mem_bandwidth_gib: 190.0,
                mem_latency_ns: 95.0,
                isa: "x86-64 (Zen3, AVX2)",
            },
            CpuArch::XeonGold6140 => CpuSpec {
                arch: self,
                name: "Intel Xeon Gold 6140",
                clock_ghz: 2.3,
                vector: VectorWidth::Lanes(8),
                fpu_per_core: 2,
                fma64: true,
                cores: 18,
                mem_bandwidth_gib: 110.0,
                mem_latency_ns: 90.0,
                isa: "x86-64 (Skylake-SP, AVX-512)",
            },
            CpuArch::RiscvU74 => CpuSpec {
                arch: self,
                name: "RISC-V U74-MC (hifiveu)",
                clock_ghz: 1.2,
                vector: VectorWidth::Scalar,
                fpu_per_core: 1,
                fma64: false,
                cores: 4,
                // DDR4 single channel on the HiFive Unmatched; measured
                // STREAM-like bandwidth on these boards is a few GiB/s.
                mem_bandwidth_gib: 3.2,
                mem_latency_ns: 160.0,
                isa: "RV64GC (no V/P extension)",
            },
            CpuArch::Jh7110 => CpuSpec {
                arch: self,
                name: "StarFive JH7110 (VisionFive2)",
                clock_ghz: 1.5,
                vector: VectorWidth::Scalar,
                fpu_per_core: 1,
                fma64: false,
                cores: 4,
                // 8 GB LPDDR4 on the VisionFive2.
                mem_bandwidth_gib: 2.8,
                mem_latency_ns: 170.0,
                isa: "RV64GC (no V/P extension)",
            },
        }
    }

    /// Theoretical peak performance in GFLOP/s for `cores` cores — Eq. (2):
    ///
    /// ```text
    /// Perf_peak(#cores) = 2 × clock × vector_length × #FPU × #cores
    /// ```
    ///
    /// The factor 2 is the FMA factor; the paper keeps it even for the U74
    /// row (whose 64-bit ISA lacks FMA), and Table 2's 9.6 GFLOP/s is only
    /// reproduced with the factor included, so we follow the paper.
    pub fn peak_gflops(self, cores: u32) -> f64 {
        let s = self.spec();
        2.0 * s.clock_ghz
            * f64::from(s.vector.lanes())
            * f64::from(s.fpu_per_core)
            * f64::from(cores)
    }

    /// Peak performance of the full socket/board (the Table 2 column).
    pub fn peak_gflops_full(self) -> f64 {
        self.peak_gflops(self.spec().cores)
    }

    /// Short machine tag used in figure output ("a64fx", "amd", ...).
    pub fn tag(self) -> &'static str {
        match self {
            CpuArch::A64fx => "a64fx",
            CpuArch::Epyc7543 => "amd",
            CpuArch::XeonGold6140 => "intel",
            CpuArch::RiscvU74 => "riscv-u74",
            CpuArch::Jh7110 => "riscv-jh7110",
        }
    }

    /// Whether this is one of the RISC-V single-board computers.
    pub(crate) fn is_riscv(self) -> bool {
        matches!(self, CpuArch::RiscvU74 | CpuArch::Jh7110)
    }
}

impl std::fmt::Display for CpuArch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_peak_numbers_match_paper() {
        // The Table 2 "Peak performance" column, to one decimal.
        assert!((CpuArch::A64fx.peak_gflops_full() - 2764.8).abs() < 1e-9);
        assert!((CpuArch::Epyc7543.peak_gflops_full() - 2867.2).abs() < 1e-9);
        assert!((CpuArch::XeonGold6140.peak_gflops_full() - 1324.8).abs() < 1e-9);
        assert!((CpuArch::RiscvU74.peak_gflops_full() - 9.6).abs() < 1e-9);
    }

    #[test]
    fn peak_scales_linearly_in_cores() {
        for arch in CpuArch::ALL {
            let p1 = arch.peak_gflops(1);
            for c in 2..=8 {
                let pc = arch.peak_gflops(c);
                assert!((pc - p1 * f64::from(c)).abs() < 1e-9, "{arch:?} cores={c}");
            }
        }
    }

    #[test]
    fn riscv_is_scalar_and_others_are_not() {
        assert!(!CpuArch::RiscvU74.spec().vector.has_simd());
        assert!(!CpuArch::Jh7110.spec().vector.has_simd());
        assert!(CpuArch::A64fx.spec().vector.has_simd());
        assert!(CpuArch::Epyc7543.spec().vector.has_simd());
        assert!(CpuArch::XeonGold6140.spec().vector.has_simd());
    }

    #[test]
    fn vector_width_lane_counts() {
        assert_eq!(VectorWidth::Scalar.lanes(), 1);
        assert_eq!(VectorWidth::Lanes(8).lanes(), 8);
        assert!(!VectorWidth::Lanes(1).has_simd());
    }

    #[test]
    fn table2_row_order_matches_paper() {
        let names: Vec<&str> = CpuArch::TABLE2.iter().map(|a| a.spec().name).collect();
        assert_eq!(
            names,
            vec![
                "ARM A64FX",
                "AMD EPYC 7543",
                "Intel Xeon Gold 6140",
                "RISC-V U74-MC (hifiveu)"
            ]
        );
    }

    #[test]
    fn fma_availability_matches_table() {
        assert!(CpuArch::A64fx.spec().fma64);
        assert!(CpuArch::Epyc7543.spec().fma64);
        assert!(CpuArch::XeonGold6140.spec().fma64);
        assert!(!CpuArch::RiscvU74.spec().fma64, "U74 FMA is 32-bit-only");
    }

    #[test]
    fn display_and_tags_are_distinct() {
        let mut tags: Vec<&str> = CpuArch::ALL.iter().map(|a| a.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), CpuArch::ALL.len());
    }

    #[test]
    fn jh7110_is_a_four_core_riscv_board() {
        let s = CpuArch::Jh7110.spec();
        assert_eq!(s.cores, 4);
        assert!(CpuArch::Jh7110.is_riscv());
        assert!(!CpuArch::A64fx.is_riscv());
    }
}
