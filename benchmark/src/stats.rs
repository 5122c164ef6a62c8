//! Sample statistics and the regression-bound rule shared by the run report
//! and `compare`.

/// Quantile by linear interpolation between order statistics (`q` in 0..=1).
/// Returns 0 for an empty sample so an aborted workload still prints a row.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the referee computes over ten runs
/// (`statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let n = samples.len();
    let med = median(samples);
    if n < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let exclusive = |k: f64| {
        let pos = (k * (n + 1) as f64 / 4.0 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (exclusive(3.0) - exclusive(1.0)) / med.abs()
}

/// The highest of p99/p95/p90/p75 that still has at least ten samples beyond
/// it, as `(percent, value)`; `None` below 40 samples, where even p75 has
/// fewer than ten.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len() as f64;
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * f64::from(100 - p) / 100.0 >= 10.0)
        .map(|p| (p, quantile(samples, f64::from(p) / 100.0)))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// By what share of `base` the candidate is *worse* (negative: better).
pub fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if cand == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// The regression rule: worse by more than `bound` (a share of the base) and,
/// where the metric has an absolute floor, also by more than `abs_floor` in
/// the metric's own unit — a 0.2 ms set-up may double without tripping it.
pub fn exceeds_bound(base: f64, cand: f64, better: Better, bound: f64, abs_floor: f64) -> bool {
    worsening(base, cand, better) > bound && (cand - base).abs() > abs_floor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let n = |k: usize| (0..k).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&n(39)), None);
        assert_eq!(tail_percentile(&n(40)).map(|t| t.0), Some(75));
        assert_eq!(tail_percentile(&n(99)).map(|t| t.0), Some(75));
        assert_eq!(tail_percentile(&n(100)).map(|t| t.0), Some(90));
        assert_eq!(tail_percentile(&n(200)).map(|t| t.0), Some(95));
        assert_eq!(tail_percentile(&n(1000)).map(|t| t.0), Some(99));
        let (_, v) = tail_percentile(&n(101)).expect("p90");
        assert!((v - 90.0).abs() < 1e-9);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_check_honours_direction_and_absolute_floor() {
        // 9 % slower against an 8 % bound trips; 7 % does not.
        assert!(exceeds_bound(1.0, 1.09, Better::Lower, 0.08, 0.0));
        assert!(!exceeds_bound(1.0, 1.07, Better::Lower, 0.08, 0.0));
        // Throughput falls: worse for "higher".
        assert!(exceeds_bound(100.0, 90.0, Better::Higher, 0.08, 0.0));
        assert!(!exceeds_bound(100.0, 120.0, Better::Higher, 0.08, 0.0));
        // Set-up of 0.2 ms doubling stays under the 0.03 s floor ...
        assert!(!exceeds_bound(0.0002, 0.0004, Better::Lower, 0.15, 0.03));
        // ... a 0.14 s set-up growing by 0.05 s does not.
        assert!(exceeds_bound(0.14, 0.19, Better::Lower, 0.15, 0.03));
    }
}
