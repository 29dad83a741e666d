//! Exact order statistics over raw samples. Nothing on the measurement
//! path buckets a latency: percentiles come from the sorted per-operation
//! vectors.

/// Samples a percentile needs beyond it before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// An exact percentile of a sorted sample vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the rank.
    pub fn trusted(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `sorted` (ascending);
/// `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(Percentile {
        value: sorted[rank - 1],
        beyond: sorted.len() - rank,
    })
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle samples for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(max − min) / median`: how far repeated runs of the same code sit
/// apart, as a share of their median.
pub fn relative_gap(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&v, 0.50).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.trusted());
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(!percentile(&short, 0.99).unwrap().trusted());
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_mean_gap() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(relative_gap(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(relative_gap(&[5.0]), 0.0);
    }
}
