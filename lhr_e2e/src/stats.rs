//! Order statistics for timings: nearest-rank percentiles, the highest
//! percentile a sample can support, medians and quartiles.
//!
//! Percentiles are given in per mille (`900` is p90) so that ranks are
//! exact integer arithmetic: `0.9 * 100` is not `90` in floating point.

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `per_mille / 1000` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a rank above 1000.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(per_mille <= 1000, "percentile above p100");
    sorted[rank(sorted.len(), per_mille).max(1) - 1]
}

/// The 1-based nearest rank of `per_mille` among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000)
}

/// The highest of p99.9, p99, p95, p90, p75 and p50 that leaves at
/// least ten samples above it, in per mille; `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n - rank(n, pm) >= 10)
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of no samples");
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = v.len() as i64;
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when clamping raised `j`, as in the reference method.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 5.0);
        assert_eq!(percentile(&v, 900), 9.0);
        assert_eq!(percentile(&v, 901), 10.0);
        assert_eq!(percentile(&v, 1000), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        // Exact integer ranks: p90 of 100 samples is the 90th.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 900), 90.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(750));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        for n in 20..3000 {
            let pm = tail_percentile(n).expect("n >= 20");
            assert!(n - rank(n, pm) >= 10, "n={n} p={pm}");
        }
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
