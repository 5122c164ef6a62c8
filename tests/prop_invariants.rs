//! Property-based tests (proptest) on the core data structures and
//! invariants of the stack.

use proptest::prelude::*;

use octotiger_riscv_repro::amt::{par, when_all, Runtime};
use octotiger_riscv_repro::distrib::{from_bytes, to_bytes};
use octotiger_riscv_repro::kokkos_lite::{Layout, View};
use octotiger_riscv_repro::machine::counted::softmath;
use octotiger_riscv_repro::octotiger::star::RotatingStar;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- wire format ----

    #[test]
    fn wire_roundtrips_arbitrary_f64_vectors(data in proptest::collection::vec(any::<f64>(), 0..256)) {
        let bytes = to_bytes(&data).unwrap();
        let back: Vec<f64> = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), data.len());
        for (a, b) in back.iter().zip(&data) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn wire_roundtrips_nested_structures(
        pairs in proptest::collection::vec((any::<u64>(), proptest::option::of(any::<i32>())), 0..64),
        tag in ".{0,32}",
    ) {
        let value = (tag.clone(), pairs.clone());
        let bytes = to_bytes(&value).unwrap();
        let back: (String, Vec<(u64, Option<i32>)>) = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, value);
    }

    #[test]
    fn wire_rejects_any_truncation(v in proptest::collection::vec(any::<u32>(), 1..32)) {
        let bytes = to_bytes(&v).unwrap();
        // Every strict prefix must fail to decode (never panic).
        for cut in 0..bytes.len() {
            let cut_short: Result<Vec<u32>, _> = from_bytes(&bytes[..cut]);
            prop_assert!(cut_short.is_err());
        }
    }

    // ---- parallel algorithms ----

    #[test]
    fn split_range_partitions_any_range(start in 0usize..1000, len in 0usize..1000, chunks in 1usize..64) {
        let parts = par::split_range(start..start + len, chunks);
        let total: usize = parts.iter().map(|r| r.len()).sum();
        prop_assert_eq!(total, len);
        let mut expected = start;
        for p in &parts {
            prop_assert_eq!(p.start, expected);
            prop_assert!(!p.is_empty());
            expected = p.end;
        }
        if len > 0 {
            prop_assert_eq!(expected, start + len);
            prop_assert!(parts.len() <= chunks);
            // Balanced: sizes differ by at most one.
            let min = parts.iter().map(|r| r.len()).min().unwrap();
            let max = parts.iter().map(|r| r.len()).max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }

    #[test]
    fn transform_reduce_matches_serial_for_any_input(data in proptest::collection::vec(-1000i64..1000, 1..512)) {
        let rt = Runtime::new(2);
        let serial: i64 = data.iter().sum();
        let parallel = par::transform_reduce(
            &rt.handle(),
            par::ExecutionPolicy::Par,
            0..data.len(),
            0i64,
            |i| data[i],
            |a, b| a + b,
        );
        prop_assert_eq!(parallel, serial);
    }

    #[test]
    fn when_all_preserves_arbitrary_order(values in proptest::collection::vec(any::<i32>(), 0..64)) {
        let rt = Runtime::new(2);
        let futures: Vec<_> = values
            .iter()
            .map(|&v| rt.spawn(move || v))
            .collect();
        let got = when_all(futures).get();
        prop_assert_eq!(got, values);
    }

    // ---- views ----

    #[test]
    fn view_indexing_is_bijective_for_any_extents(
        d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6,
        left in any::<bool>(),
    ) {
        let layout = if left { Layout::Left } else { Layout::Right };
        let v: View<u8> = View::with_layout("p", &[d0, d1, d2], layout);
        let mut seen = vec![false; v.size()];
        for i in 0..d0 {
            for j in 0..d1 {
                for k in 0..d2 {
                    let idx = v.index3(i, j, k);
                    prop_assert!(idx < v.size());
                    prop_assert!(!seen[idx]);
                    seen[idx] = true;
                }
            }
        }
    }

    // ---- software math (the perf substitute) ----

    #[test]
    fn soft_ln_tracks_libm(x in 1e-6f64..1e6) {
        let got = softmath::soft_ln(x);
        let want = x.ln();
        prop_assert!((got - want).abs() <= 1e-11 * want.abs().max(1.0),
            "ln({}) = {} vs {}", x, got, want);
    }

    #[test]
    fn soft_exp_tracks_libm(y in -700.0f64..700.0) {
        let got = softmath::soft_exp(y);
        let want = y.exp();
        prop_assert!(((got - want) / want).abs() < 1e-11,
            "exp({}) = {} vs {}", y, got, want);
    }

    #[test]
    fn soft_pow_tracks_libm(x in 0.01f64..100.0, y in -50.0f64..50.0) {
        let got = softmath::soft_pow(x, y);
        let want = x.powf(y);
        if want.is_finite() && want != 0.0 {
            prop_assert!(((got - want) / want).abs() < 1e-9,
                "pow({}, {}) = {} vs {}", x, y, got, want);
        }
    }

    // ---- star model ----

    #[test]
    fn star_density_never_negative_or_nan(
        radius in 0.1f64..2.0,
        rhoc in 0.1f64..10.0,
        frac in 0.0f64..0.9,
        r in 0.0f64..5.0,
    ) {
        let star = RotatingStar::new(radius, rhoc, frac);
        let rho = star.density(r);
        prop_assert!(rho.is_finite());
        prop_assert!(rho > 0.0);
        prop_assert!(rho <= rhoc * 1.0001);
    }

    #[test]
    fn star_conserved_state_is_physical(x in -1.0f64..1.0, y in -1.0f64..1.0, z in -1.0f64..1.0) {
        let star = RotatingStar::paper_default();
        let u = star.conserved_at(x, y, z);
        prop_assert!(u[0] > 0.0, "positive density");
        prop_assert!(u[4] > 0.0, "positive energy");
        // Energy must dominate kinetic energy (positive internal energy).
        let kinetic = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
        prop_assert!(u[4] >= kinetic);
    }
}
