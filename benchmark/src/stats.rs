//! Order statistics shared by the run report and `compare`.

/// Quartile cut points `[q1, median, q3]` of `values` by the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`, so spreads printed
/// here match the ones an external check computes from the same numbers.
/// A single value is its own quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d: Vec<f64> = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Median of `values` (the middle quartile cut point).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The `p`-th percentile (`0..=100`) of `values` by linear interpolation
/// between closest ranks; NaN for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut d: Vec<f64> = values.to_vec();
    d.sort_by(f64::total_cmp);
    if d.is_empty() {
        return f64::NAN;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (d.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    d[lo] + (d[hi] - d[lo]) * (rank - lo as f64)
}

/// The smallest finite value at each position across `series` (one series
/// per pass, positions aligned); positions with no finite value are left
/// out.
pub fn best_by_position(series: &[&[f64]]) -> Vec<f64> {
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    (0..len)
        .filter_map(|i| {
            series
                .iter()
                .filter_map(|s| s.get(i).copied())
                .filter(|x| x.is_finite())
                .reduce(f64::min)
        })
        .collect()
}

/// Interquartile range as a share of the median — the run-to-run spread
/// that bounds are judged against.
pub fn rel_spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!(quartiles(&[]).iter().all(|q| q.is_nan()));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn best_by_position_skips_failures() {
        let a = [3.0, f64::NAN, 5.0];
        let b = [2.0, f64::NAN, 6.0, 1.0];
        let best = best_by_position(&[&a, &b]);
        assert_eq!(best, vec![2.0, 5.0, 1.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
