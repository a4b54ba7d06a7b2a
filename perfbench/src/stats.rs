//! Summary statistics shared by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Geometric mean of strictly positive values; `None` when `xs` is empty
/// or holds a value that is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// The nearest-rank percentile `p` (in `0..1`) of `xs`, refused (`None`)
/// unless at least [`MIN_TAIL`] samples lie strictly beyond its rank —
/// a tail percentile read off fewer samples than that is noise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // Nearest rank: the smallest sample with at least p·n samples at or
    // below it.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_TAIL {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Samples a reported percentile must leave above it.
pub const MIN_TAIL: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_weighs_every_value_the_same() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_above_it() {
        // 1000 samples: rank 990 leaves exactly 10 above.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves only 9 above — refused.
        assert_eq!(percentile(&xs[..999], 0.99), None);
    }

    #[test]
    fn median_percentile_and_small_samples() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        // 10 samples: p50 leaves 5 above — refused.
        assert_eq!(percentile(&xs[..10], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 1.0), None);
    }
}
