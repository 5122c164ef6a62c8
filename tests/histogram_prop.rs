//! Property tests for the log-bucketed latency [`Histogram`]: percentile
//! estimates stay within the bucket-width error bound of the exact
//! sorted-slice percentiles, and merging locality snapshots is
//! associative and commutative — the invariants the distributed comms
//! counters (`/comms/parcel_latency` across localities) lean on.
//!
//! [`Histogram`]: apex_lite::Histogram

use apex_lite::{Histogram, HISTOGRAM_MAX_RELATIVE_ERROR};
use proptest::prelude::*;

/// Latency-shaped observations: spread over many octaves (ns to tens of
/// seconds) so the test exercises the exact sub-16 buckets, the linear
/// sub-buckets, and the high octaves alike.
fn arb_latencies() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,                    // exact unit buckets
            16u64..4096,                 // low octaves
            4096u64..10_000_000,         // microsecond-to-ms band
            10_000_000u64..u64::MAX / 2, // tail
        ],
        1..400,
    )
}

/// The ⌈q·n⌉-th smallest observation — the definition `quantile`
/// approximates through its buckets.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every percentile estimate lands within the advertised relative
    /// error of the exact order statistic (exactly on it below 16).
    #[test]
    fn quantiles_match_exact_percentiles_within_bucket_error(
        values in arb_latencies(),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let est = h.quantile(q);
            if exact < 16 {
                prop_assert_eq!(est, exact, "unit buckets are exact (q={})", q);
            } else {
                // The estimate is the midpoint of the bucket holding the
                // exact order statistic; bucket width ≤ lo/4, so the
                // midpoint is within lo/8 of any member (+1 for the
                // integer midpoint rounding).
                let tol = (exact as f64 * HISTOGRAM_MAX_RELATIVE_ERROR) as u64 + 1;
                prop_assert!(
                    est.abs_diff(exact) <= tol,
                    "q={}: estimate {} vs exact {} (tol {})",
                    q, est, exact, tol
                );
            }
        }
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Percentiles are monotone in q — p50 ≤ p95 ≤ p99, the ordering the
    /// trace_report check gate asserts on real runs.
    #[test]
    fn quantiles_are_monotone_in_q(values in arb_latencies()) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
        prop_assert!(p50 <= p95 && p95 <= p99, "{} / {} / {}", p50, p95, p99);
    }

    /// Merging per-locality snapshots is associative and commutative, and
    /// agrees with recording everything into one histogram — so the order
    /// localities report in can never change the merged percentiles.
    #[test]
    fn merge_is_associative_commutative_and_lossless(
        a in arb_latencies(),
        b in arb_latencies(),
        c in arb_latencies(),
    ) {
        let hist_of = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // (a ∪ b) ∪ c
        let mut left = ha;
        left.merge(&hb);
        left.merge(&hc);
        // a ∪ (b ∪ c)
        let mut right = hb;
        right.merge(&hc);
        let mut assoc = ha;
        assoc.merge(&right);
        // c ∪ b ∪ a
        let mut comm = hc;
        comm.merge(&hb);
        comm.merge(&ha);
        // One histogram fed every observation directly.
        let mut all: Vec<u64> = Vec::new();
        all.extend(&a);
        all.extend(&b);
        all.extend(&c);
        let direct = hist_of(&all);

        for q in [0.5, 0.95, 0.99] {
            let want = direct.quantile(q);
            prop_assert_eq!(left.quantile(q), want);
            prop_assert_eq!(assoc.quantile(q), want);
            prop_assert_eq!(comm.quantile(q), want);
        }
        prop_assert_eq!(left.count(), direct.count());
        prop_assert_eq!(assoc.count(), direct.count());
        prop_assert_eq!(comm.count(), direct.count());
        prop_assert_eq!(left.sum(), direct.sum());
    }
}
