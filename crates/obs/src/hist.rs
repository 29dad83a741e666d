//! Geometric-bucket latency/duration histogram, the one bucketing
//! implementation the server and the facade registry share.
//!
//! Geometric buckets (≈9% relative width) over microseconds give
//! HDR-style bounded relative error for quantiles without storing raw
//! samples; the maximum is tracked exactly.

use std::time::Duration;

/// Bucket boundaries grow by this factor: `ceil(bucket upper bound) =
/// GROWTH^(i+1)` microseconds, so any reported quantile is within one
/// growth step of the true value.
pub const GROWTH: f64 = 1.09;

/// Fixed bucket count covers `GROWTH^BUCKETS` µs ≈ 36 minutes — beyond
/// any sane request latency; slower samples clamp into the last bucket.
pub const BUCKETS: usize = 256;

/// A fixed-size geometric latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            total: 0,
            max_us: 0,
        }
    }

    fn bucket_of(us: u64) -> usize {
        // log_GROWTH(us), computed without floats drifting at the low
        // end: bucket 0 holds [0, 1] µs.
        if us <= 1 {
            return 0;
        }
        let idx = (us as f64).ln() / GROWTH.ln();
        (idx.ceil() as usize).min(BUCKETS - 1)
    }

    /// Upper bound (µs) of a bucket, the value quantiles report.
    fn bucket_upper(idx: usize) -> u64 {
        if idx == 0 {
            return 1;
        }
        GROWTH.powi(idx as i32).ceil() as u64
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        self.record_us(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one sample given directly in microseconds.
    pub fn record_us(&mut self, us: u64) {
        self.counts[Self::bucket_of(us)] += 1;
        self.total += 1;
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact maximum recorded latency.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us)
    }

    /// Exact maximum recorded latency in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// The latency at quantile `q ∈ [0, 1]`, within one bucket's
    /// relative error (and never above the exact maximum). Returns zero
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Duration::from_micros(Self::bucket_upper(idx).min(self.max_us));
            }
        }
        self.max()
    }

    /// The non-empty buckets as `(bucket index, count)` pairs, in index
    /// order — the sparse form snapshots and the wire format carry.
    pub fn sparse_buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
    }

    /// Rebuilds a histogram from its sparse form. Bucket indices at or
    /// beyond [`BUCKETS`] clamp into the last bucket (a decoder never
    /// panics on a snapshot from a build with different constants), and
    /// `total` is recomputed from the counts so the invariant
    /// `total == Σ counts` cannot be violated by a forged snapshot.
    pub fn from_sparse(buckets: &[(u32, u64)], max_us: u64) -> Self {
        let mut h = Histogram::new();
        for &(idx, count) in buckets {
            let idx = (idx as usize).min(BUCKETS - 1);
            h.counts[idx] += count;
            h.total += count;
        }
        h.max_us = max_us;
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
    }

    #[test]
    fn quantiles_bounded_by_bucket_error() {
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.len(), 10_000);
        for (q, exact) in [(0.50, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).as_micros() as f64;
            let rel = (got - exact).abs() / exact;
            assert!(rel < GROWTH - 1.0 + 0.01, "q{q}: got {got}, want ≈{exact}");
        }
        assert_eq!(h.max(), Duration::from_micros(10_000));
    }

    #[test]
    fn quantile_never_exceeds_exact_max() {
        let mut h = Histogram::new();
        h.record(Duration::from_micros(777));
        assert_eq!(h.quantile(0.99), Duration::from_micros(777));
        assert_eq!(h.quantile(1.0), Duration::from_micros(777));
    }

    #[test]
    fn oversized_samples_clamp_into_last_bucket() {
        let mut h = Histogram::new();
        h.record(Duration::from_secs(86_400));
        assert_eq!(h.len(), 1);
        assert_eq!(h.max(), Duration::from_secs(86_400));
        assert!(h.quantile(0.5) <= h.max());
    }

    #[test]
    fn sparse_roundtrip_is_lossless() {
        let mut h = Histogram::new();
        for us in [0, 1, 2, 40, 41, 9_000, 9_000, 123_456_789] {
            h.record_us(us);
        }
        let sparse: Vec<(u32, u64)> = h.sparse_buckets().collect();
        let back = Histogram::from_sparse(&sparse, h.max_us());
        assert_eq!(back, h);
    }

    #[test]
    fn from_sparse_clamps_out_of_range_buckets() {
        let h = Histogram::from_sparse(&[(10_000, 3)], 500);
        assert_eq!(h.len(), 3);
        assert!(h.quantile(0.5) <= h.max());
    }
}
