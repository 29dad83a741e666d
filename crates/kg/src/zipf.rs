//! Power-law (Zipf) sampling for synthetic graph generation.
//!
//! Real knowledge graphs' node degrees follow a power law (paper §II,
//! citing \[13\]). The synthetic dataset generators use this sampler to pick
//! entities with Zipfian popularity so that degree distributions — and
//! therefore the skew of the queried embedding space — match the real
//! datasets in shape.
//!
//! Implementation: inverse-CDF sampling over a precomputed cumulative
//! table. Construction is `O(n)`, sampling is `O(log n)` via binary search.
//! Hand-rolled to avoid a `rand_distr` dependency (see DESIGN.md §4).

use rand::Rng;

/// A Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank `i` (0-based) has probability proportional to `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite() && s >= 0.0, "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        #[expect(
            clippy::expect_used,
            reason = "the CDF is built from finite positive masses; no entry is NaN"
        )]
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("NaN in CDF"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        let hi = self.cdf[i];
        let lo = if i == 0 { 0.0 } else { self.cdf[i - 1] };
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 1.1);
        let total: f64 = (0..z.len()).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn rank_zero_is_most_likely() {
        let z = Zipf::new(100, 1.0);
        for i in 1..z.len() {
            assert!(z.pmf(0) >= z.pmf(i));
        }
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_match_pmf_roughly() {
        let z = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000usize;
        let mut counts = vec![0usize; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Head of the distribution should be within a few percent.
        for (i, &count) in counts.iter().enumerate().take(5) {
            let observed = count as f64 / n as f64;
            let expected = z.pmf(i);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {i}: observed {observed}, expected {expected}"
            );
        }
        // Tail ranks must still be reachable.
        assert!(counts[49] > 0);
    }

    #[test]
    fn single_rank_support() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(z.sample(&mut rng), 0);
        assert!((z.pmf(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "Zipf over zero ranks")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
