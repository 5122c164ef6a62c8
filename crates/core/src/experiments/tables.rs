//! Table 1 (software stack) and Table 2 (CPU specs + Eq. 2 peak).

use rv_machine::CpuArch;

use crate::report::{Exhibit, Series};

/// Table 1: the paper's toolchain and the Rust equivalent built here.
pub(crate) fn run_table1() -> Exhibit {
    let mut e = Exhibit::new(
        "table1",
        "Compiler and software versions (paper) → reproduction substitute",
        "component",
        "—",
    );
    let rows: [(&str, &str, &str); 8] = [
        ("gcc 11.3.0/12.2.0", "→", "rustc (this toolchain)"),
        ("HPX d1042a9", "→", "crate `amt` (this repo)"),
        ("Boost 1.79/1.82", "→", "std (+ amt's own Chase–Lev deque)"),
        ("Kokkos 7a18e97", "→", "crate `kokkos-lite` (this repo)"),
        ("HPX-Kokkos 246b4b8", "→", "`kokkos_lite::space::HpxSpace`"),
        ("cppuddle c084385", "→", "buffer reuse inside kernels"),
        ("jemalloc/tcmalloc", "→", "system allocator"),
        ("Octo-Tiger", "→", "crate `octotiger` (this repo)"),
    ];
    for (a, _, c) in rows {
        e.note(format!("{a:<22} → {c}"));
    }
    e
}

/// Table 2: clock, vector length, FPUs, FMA, cores and peak GFLOP/s.
pub(crate) fn run_table2() -> Exhibit {
    let mut e = Exhibit::new(
        "table2",
        "CPU specifications and theoretical peak (Eq. 2)",
        "CPU",
        "GFLOP/s (full socket)",
    );
    let mut peaks = Vec::new();
    for (i, arch) in CpuArch::TABLE2.iter().enumerate() {
        let s = arch.spec();
        peaks.push((i as f64, arch.peak_gflops_full()));
        e.note(format!(
            "{:<24} clock {:>4.1} GHz | VL {:>2} | FPU {} | FMA {} | cores {:>2} | peak {:>7.1} GFLOP/s",
            s.name,
            s.clock_ghz,
            if s.vector.has_simd() {
                s.vector.lanes().to_string()
            } else {
                "—".to_string()
            },
            s.fpu_per_core,
            if s.fma64 { "yes" } else { "no*" },
            s.cores,
            arch.peak_gflops_full(),
        ));
    }
    e.push_series(Series::new("peak GFLOP/s", peaks));
    e.note("(*) U74 FMA exists only in the 32-bit FP ISA; Table 2 keeps the factor 2 regardless.");
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_paper_column() {
        let e = run_table2();
        let peaks = &e.series[0].points;
        let values: Vec<f64> = peaks.iter().map(|(_, y)| *y).collect();
        assert_eq!(values, vec![2764.8, 2867.2, 1324.8, 9.6]);
    }

    #[test]
    fn table1_lists_whole_stack() {
        let e = run_table1();
        let text = e.render();
        assert!(text.contains("HPX"));
        assert!(text.contains("Kokkos"));
        assert!(text.contains("Octo-Tiger"));
        assert!(text.contains("amt"));
    }
}
