//! Estimators: median, quartiles as Python's `statistics.quantiles(n=4)`
//! gives them (the driver's spread rule), and percentiles that refuse a
//! sample too small to carry them.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
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

/// Smallest of `xs` (NaN when empty).
pub fn fastest_time(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::min)
}

/// Largest of `xs` (NaN when empty).
pub fn fastest_rate(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NAN, f64::max)
}

/// `(q1, q3)` by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`; `None` with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs).abs())
}

/// The `p`-th percentile (nearest rank) of `xs`. Refuses when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a tail read off a handful of
/// samples is noise.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..100.0).contains(&p) {
        return Err(format!("percentile {p} outside [0, 100)"));
    }
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {} beyond it, {MIN_BEYOND} required",
            n.saturating_sub(rank)
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fastest_is_the_extreme_and_nan_when_empty() {
        assert_eq!(fastest_time(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest_rate(&[3.0, 1.0, 2.0]), 3.0);
        assert!(fastest_time(&[]).is_nan() && fastest_rate(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&xs), Some(1.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        assert_eq!(percentile(&xs, 50.0), Ok(500.0));
        assert!(
            percentile(&xs[..999], 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        assert!(percentile(&xs[..19], 50.0).is_err());
        assert_eq!(percentile(&xs[..20], 50.0), Ok(10.0));
        assert!(percentile(&xs, 100.0).is_err());
    }
}
