//! Small summary statistics over samples.

/// The `q`-quantile (linear interpolation), `None` for no samples or a
/// NaN among them.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    emca_metrics::stats::percentile(xs, q)
}

/// The median; NaN for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).unwrap_or(f64::NAN)
}

/// The arithmetic mean; `None` for no samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// `num / den`, `None` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(ratio(1.0, 0.0), None);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), Some(9.0));
    }
}
