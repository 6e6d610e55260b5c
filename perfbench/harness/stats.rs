//! Percentiles with the sample-count rule: a percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie beyond it, so a p99
//! needs 1,000 samples and a p90 needs 100.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A sample too small for the percentile asked of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ThinSample {
    pub what: String,
    pub samples: usize,
    pub percentile: f64,
    pub needed: usize,
}

impl std::fmt::Display for ThinSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} samples cannot support p{} (needs {} with {} beyond it)",
            self.what, self.samples, self.percentile, self.needed, MIN_BEYOND
        )
    }
}

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Smallest sample count for which `p` has [`MIN_BEYOND`] samples
/// beyond its rank.
pub fn needed_for(p: f64) -> usize {
    (1..).find(|&n| n - rank(p, n) >= MIN_BEYOND).expect("some n suffices")
}

/// Nearest-rank percentile of ascending `sorted`, refused when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(what: &str, sorted: &[f64], p: f64) -> Result<f64, ThinSample> {
    let n = sorted.len();
    if n == 0 || n - rank(p, n) < MIN_BEYOND {
        return Err(ThinSample {
            what: what.to_owned(),
            samples: n,
            percentile: p,
            needed: needed_for(p),
        });
    }
    Ok(sorted[rank(p, n) - 1])
}

/// Median (nearest-rank p50) of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(50.0, v.len()) - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v = ramp(1000);
        assert_eq!(percentile("t", &v, 50.0), Ok(500.0));
        assert_eq!(percentile("t", &v, 99.0), Ok(990.0));
        assert_eq!(percentile("t", &v, 90.0), Ok(900.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn ten_samples_beyond_the_percentile() {
        assert_eq!(needed_for(99.0), 1000);
        assert_eq!(needed_for(90.0), 100);
        assert_eq!(needed_for(50.0), 20);
        // 999 samples leave only 9 beyond rank 990: refused.
        let thin = percentile("reads", &ramp(999), 99.0).unwrap_err();
        assert_eq!((thin.samples, thin.needed), (999, 1000));
        assert!(percentile("commits", &ramp(99), 90.0).is_err());
        assert_eq!(percentile("commits", &ramp(100), 90.0), Ok(90.0));
        assert!(percentile("empty", &[], 50.0).is_err());
    }
}
