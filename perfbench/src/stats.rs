//! Order statistics for latency samples.

/// The median of `xs` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile to report for `n` samples: the highest of
/// p99, p95, p90 and p50 that still leaves at least ten samples beyond
/// it. Returns `None` when even the median has fewer than ten
/// samples above it.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count beyond the nearest rank is exact.
    [990, 950, 900, 500]
        .into_iter()
        .find(|&pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// The `p`-th percentile of `xs` by the nearest-rank rule; `0.0` for
/// an empty slice.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 57, 100, 999, 1000, 4321, 100_000] {
            let p = tail_percentile(n).unwrap();
            let beyond = n - (p / 100.0 * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }
}
