//! Order statistics behind every number the benchmark reports.
//!
//! Quantiles follow Python's `statistics.quantiles` default
//! ("exclusive") method exactly, so a spread computed here matches the
//! one a Python script computes from the same run files.

/// The median (mean of the middle pair for an even count); `None` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `n - 1` cut points dividing `xs` into `n` equal-probability
/// groups; `None` when `xs` is empty or `n < 2`.
pub fn quantiles(xs: &[f64], n: usize) -> Option<Vec<f64>> {
    let data = sorted(xs);
    let ld = data.len();
    if ld == 0 || n < 2 {
        return None;
    }
    if ld == 1 {
        return Some(vec![data[0]; n - 1]);
    }
    let m = ld + 1;
    Some(
        (1..n)
            .map(|i| {
                let j = (i * m / n).clamp(1, ld - 1);
                // Signed: past the clamp the method extrapolates, as
                // Python's does for tiny samples.
                let delta = (i * m) as f64 - (j * n) as f64;
                let nf = n as f64;
                (data[j - 1] * (nf - delta) + data[j] * delta) / nf
            })
            .collect(),
    )
}

/// First and third quartile.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let q = quantiles(xs, 4)?;
    Some((q[0], q[2]))
}

/// The `pct`-th percentile (0 < `pct` < 100), or `None` unless at least
/// ten samples lie beyond it — a tail percentile read from fewer
/// samples than that is noise.
pub fn percentile_with_tail(xs: &[f64], pct: usize) -> Option<f64> {
    if pct == 0 || pct >= 100 || xs.len() * (100 - pct) < 1000 {
        return None;
    }
    Some(quantiles(xs, 100)?[pct - 1])
}

/// Interquartile range as a share of the median.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&xs, 4).unwrap(), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4).unwrap(), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quantiles(&[7.0], 4).unwrap(), vec![7.0; 3]);
        assert!(quantiles(&[], 4).is_none());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // statistics.quantiles(range(1, 101), n=100)[89] == 90.9
        assert!((percentile_with_tail(&xs, 90).unwrap() - 90.9).abs() < 1e-9);
        assert!(percentile_with_tail(&xs[..99], 90).is_none());
        assert!(percentile_with_tail(&xs[..20], 50).is_some());
        assert!(percentile_with_tail(&xs[..19], 50).is_none());
        assert!(percentile_with_tail(&xs, 99).is_none());
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }
}
