//! Aggregate and statistical queries (§V-B): COUNT, SUM, AVG, MAX, MIN
//! over the attributes of the entities in a probability ball, with the
//! martingale (Azuma) deviation bound of Theorem 4.
//!
//! The relevant entities lie in the S₁ ball of radius `r_τ = d_min/p_τ`
//! around the query center; their probabilities decrease from 1 at the
//! center (inverse-distance model). The estimator accesses only the `a`
//! most-probable of the `b` ball members and scales up per Equation (3)
//! (COUNT/SUM/AVG) or Equation (4) (MAX/MIN).

/// Which aggregate to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKind {
    /// Expected number of relevant entities.
    Count,
    /// Expected sum of an attribute.
    Sum,
    /// Expected average of an attribute.
    Avg,
    /// Expected maximum of an attribute.
    Max,
    /// Expected minimum of an attribute.
    Min,
}

/// Specification of one aggregate query.
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// The aggregate to compute.
    pub kind: AggregateKind,
    /// Attribute name (ignored for COUNT).
    pub attribute: Option<String>,
    /// Probability threshold `p_τ` delimiting the ball (paper example:
    /// 0.05; ground truth in §VI uses 0.01).
    pub p_tau: f64,
    /// How many of the closest points to access (`a`); `None` = all.
    pub sample_size: Option<usize>,
}

impl AggregateSpec {
    /// COUNT with threshold `p_τ`.
    pub fn count(p_tau: f64) -> Self {
        Self {
            kind: AggregateKind::Count,
            attribute: None,
            p_tau,
            sample_size: None,
        }
    }

    /// An attribute aggregate with threshold `p_τ`.
    pub fn of(kind: AggregateKind, attribute: &str, p_tau: f64) -> Self {
        Self {
            kind,
            attribute: Some(attribute.to_owned()),
            p_tau,
            sample_size: None,
        }
    }

    /// Restricts the estimator to the `a` most-probable entities.
    pub fn with_sample(mut self, a: usize) -> Self {
        self.sample_size = Some(a);
        self
    }
}

/// The Theorem 4 deviation bound attached to an estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationBound {
    /// The estimate μ the bound is relative to.
    pub mu: f64,
    /// `Σ_{i≤a} vᵢ² + (b−a)·v_m²` — the martingale increment mass.
    pub increment_mass: f64,
}

impl DeviationBound {
    /// `Pr[|S − μ| ≥ δμ] ≤ 2·exp(−2δ²μ² / (Σ vᵢ² + (b−a)v_m²))`.
    pub fn tail_probability(&self, delta: f64) -> f64 {
        assert!(delta >= 0.0, "δ must be non-negative");
        if self.increment_mass <= 0.0 {
            // No unaccessed mass and zero accessed values: the estimate is
            // exact.
            return if delta == 0.0 { 1.0 } else { 0.0 };
        }
        (2.0 * (-2.0 * delta * delta * self.mu * self.mu / self.increment_mass).exp()).min(1.0)
    }

    /// The smallest relative error δ guaranteed with probability at least
    /// `confidence` (inverts the tail bound).
    pub fn delta_for_confidence(&self, confidence: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&confidence),
            "confidence must be in [0, 1), got {confidence}"
        );
        if self.increment_mass <= 0.0 || self.mu == 0.0 {
            return 0.0;
        }
        let tail = 1.0 - confidence;
        ((self.increment_mass * (2.0 / tail).ln()) / (2.0 * self.mu * self.mu)).sqrt()
    }
}

/// Result of one aggregate query.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// The expected aggregate value.
    pub estimate: f64,
    /// Number of entities accessed (`a`).
    pub accessed: usize,
    /// Total entities in the ball (`b`).
    pub ball_size: usize,
    /// The Theorem 4 deviation bound (meaningful for COUNT/SUM/AVG; for
    /// MAX/MIN it is the analogous bound sketched at the end of §V-B).
    pub bound: DeviationBound,
}

impl AggregateResult {
    /// The aggregate over an empty ball: nothing was predictable around
    /// the query center, so nothing was accessed and nothing deviates.
    pub fn empty() -> Self {
        AggregateResult {
            estimate: 0.0,
            accessed: 0,
            ball_size: 0,
            bound: DeviationBound {
                mu: 0.0,
                increment_mass: 0.0,
            },
        }
    }
}

/// Equation (3): expected SUM from the `a` accessed `(value, probability)`
/// pairs and the probabilities of **all** `b` ball members
/// (`probs_all[i]` descending; the first `values.len()` entries align
/// with `values`).
pub fn estimate_sum(values: &[f64], probs_all: &[f64]) -> f64 {
    let a = values.len();
    assert!(a <= probs_all.len(), "more values than ball members");
    if a == 0 {
        return 0.0;
    }
    let weighted: f64 = values.iter().zip(probs_all).map(|(v, p)| v * p).sum();
    let sum_a: f64 = probs_all[..a].iter().sum();
    let sum_b: f64 = probs_all.iter().sum();
    if sum_a <= 0.0 {
        return 0.0;
    }
    weighted * (sum_b / sum_a)
}

/// COUNT = SUM over the constant 1: `Σ_{i≤b} pᵢ` (independent of `a`
/// because the index already knows every ball member's probability).
pub fn estimate_count(probs_all: &[f64]) -> f64 {
    probs_all.iter().sum()
}

/// AVG = SUM/COUNT: the probability-weighted mean of the accessed values.
pub fn estimate_avg(values: &[f64], probs_all: &[f64]) -> f64 {
    let a = values.len();
    assert!(a <= probs_all.len(), "more values than ball members");
    if a == 0 {
        return 0.0;
    }
    let weighted: f64 = values.iter().zip(probs_all).map(|(v, p)| v * p).sum();
    let sum_a: f64 = probs_all[..a].iter().sum();
    if sum_a <= 0.0 {
        return 0.0;
    }
    weighted / sum_a
}

/// Equation (4): expected MAX from the accessed sample.
///
/// `E[M_S] = Σ uᵢ·pᵢ·∏_{j<i}(1−pⱼ)` with values re-sorted descending, then
/// the sample-maximum correction
/// `E[M] = (E[M_S] − min v)(1 + 1/Σ pᵢ) + min v`.
pub fn estimate_max(values: &[f64], probs: &[f64]) -> f64 {
    let a = values.len();
    assert_eq!(a, probs.len(), "values/probs length mismatch");
    if a == 0 {
        return 0.0;
    }
    // Sort (value, prob) by value descending, ties in input order.
    let mut pairs: Vec<(f64, f64)> = values.iter().copied().zip(probs.iter().copied()).collect();
    sort_by_key_stable(&mut pairs, |x| -x.0);

    let (expected_sample_max, _) = expected_sample_max(&pairs);
    let min_v = values.iter().copied().fold(f64::INFINITY, f64::min);
    let sum_p: f64 = probs.iter().sum();
    if sum_p <= 0.0 {
        return expected_sample_max;
    }
    // The sample-maximum correction of [19] assumes an effective sample
    // size Σpᵢ of at least one draw; with less probability mass than one
    // relevant point there is no basis for extrapolating beyond the
    // sample, so the factor is clamped (and the result never drops below
    // the uncorrected expectation — Eq. (4) can otherwise swing negative
    // when E[M_S] < min v).
    let effective_n = sum_p.max(1.0);
    let corrected = (expected_sample_max - min_v) * (1.0 + 1.0 / effective_n) + min_v;
    corrected.max(expected_sample_max)
}

/// `E[M_S] = Σ uᵢ·pᵢ·∏_{j<i}(1−pⱼ)` over `pairs` sorted by value
/// descending, bit for bit the plain left-to-right loop, and how many
/// terms it added.
///
/// The loop stops once no later term can move the sum. With every
/// probability in [0, 1] the running product `∏(1−pⱼ)` never grows (a
/// rounded `1 − p` is at most 1, and rounding is monotone), so a later
/// term is at most `|u|·∏` in magnitude with `|u|` at most the larger of
/// the remaining values' first and last; a term below a quarter of the
/// sum's ulp rounds back to the sum, in either direction, even where the
/// sum is a power of two (whose lower neighbour is half an ulp away).
/// The sum then stands still, so every later term is as small. Without
/// the stop a long tail of such terms runs through subnormal products —
/// the negated values of a MIN put the largest last — at many times the
/// cost of a normal multiply.
fn expected_sample_max(pairs: &[(f64, f64)]) -> (f64, usize) {
    // A probability outside [0, 1] (or NaN) voids the bound: no stop.
    let bounded = pairs.iter().all(|&(_, p)| (0.0..=1.0).contains(&p));
    let last = pairs.last().map_or(0.0, |&(u, _)| u.abs());
    let mut sum = 0.0;
    let mut none_before = 1.0;
    for (i, &(u, p)) in pairs.iter().enumerate() {
        sum += u * none_before * p;
        none_before *= 1.0 - p;
        let Some(&(next, _)) = pairs.get(i + 1) else {
            return (sum, pairs.len());
        };
        // NaN or ±∞ anywhere here fails the comparison: no stop.
        let margin = 1.0 + 4.0 * f64::EPSILON;
        let quarter = quarter_ulp(sum);
        if bounded
            && next.abs() * none_before * margin < quarter
            && last * none_before * margin < quarter
        {
            return (sum, i + 1);
        }
    }
    (sum, pairs.len())
}

/// A quarter of the spacing of the floats at `x`'s binade (its ulp), or
/// 0 where that is not a normal float — a subnormal or zero sum, whose
/// terms the stop in [`expected_sample_max`] then never skips — and NaN
/// for a non-finite `x`.
fn quarter_ulp(x: f64) -> f64 {
    // The biased exponent; an ulp is 2^(exponent − 1075), a quarter of
    // it 2^(exponent − 1077), whose own biased exponent is
    // exponent − 54.
    let exponent = (x.to_bits() >> 52) & 0x7ff;
    match exponent {
        0x7ff => f64::NAN,
        e if e > 54 => f64::from_bits((e - 54) << 52),
        _ => 0.0,
    }
}

/// MIN via negation: `MIN(v) = −MAX(−v)`.
pub fn estimate_min(values: &[f64], probs: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -estimate_max(&negated, probs)
}

/// [`sort_by_key_stable`] hands shorter inputs to `sort_by` whole.
const DIRECT_SORT: usize = 256;

/// Sorts `items` ascending by `key` under [`f64::total_cmp`], ties in
/// input order: exactly the permutation of the stable
/// `items.sort_by(|a, b| key(a).total_cmp(&key(b)))`. (Descending is the
/// negated key: negation reverses the total order.)
///
/// A long input with finite keys not all equal goes to `n` buckets over
/// `[lo, hi]`, entry to `((key − lo) · scale) as usize` — monotone in the
/// key, as IEEE subtraction, multiplication by a positive constant and
/// truncation are — by a stable counting scatter. Each bucket is then
/// sorted by that stable `sort_by`, which insertion-sorts short slices
/// (nearly every bucket) and puts −0.0, sharing a bucket with +0.0,
/// first. Anything else is one `sort_by`.
pub fn sort_by_key_stable<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> f64) {
    let cmp = |a: &T, b: &T| key(a).total_cmp(&key(b));
    let n = items.len();
    if n < DIRECT_SORT {
        items.sort_by(cmp);
        return;
    }
    // Comparisons, not `f64::min`: a NaN fails `finite` anyway.
    let (mut lo, mut hi, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, true);
    for k in items.iter().map(&key) {
        finite &= k.is_finite();
        if k < lo {
            lo = k;
        }
        if k > hi {
            hi = k;
        }
    }
    // `hi` maps to n − 1 give or take rounding: the clamp is rarely taken.
    let scale = (n - 1) as f64 / (hi - lo);
    if !finite || !scale.is_finite() || scale <= 0.0 {
        items.sort_by(cmp);
        return;
    }
    let bucket = |x: &T| (((key(x) - lo) * scale) as usize).min(n - 1);
    // `ends[b]` counts bucket b, becomes its start, and the scatter
    // advances it to its end.
    let mut ends = vec![0usize; n];
    for x in items.iter() {
        ends[bucket(x)] += 1;
    }
    let mut start = 0;
    for end in ends.iter_mut() {
        (*end, start) = (start, start + *end);
    }
    let mut sorted = items.clone();
    for x in items.iter() {
        let at = &mut ends[bucket(x)];
        sorted[*at] = *x;
        *at += 1;
    }
    let mut start = 0;
    for &end in &ends {
        if end - start > 1 {
            sorted[start..end].sort_by(cmp);
        }
        start = end;
    }
    *items = sorted;
}

/// Builds the Theorem 4 deviation bound.
///
/// * `mu` — the estimate.
/// * `accessed_values` — the `a` accessed attribute values (1s for COUNT).
/// * `unaccessed_probs` — the `b − a` estimated inclusion probabilities of
///   the unaccessed points (only their count enters the mass: the Azuma
///   increment of an unrevealed member is its full value range `v_m`,
///   whatever its inclusion probability).
/// * `v_max_unaccessed` — (an upper estimate of) the largest |value| among
///   the unaccessed points. The paper suggests R-tree statistics or the
///   sample-max inflation of Eq. (4); callers pick.
pub fn deviation_bound(
    mu: f64,
    accessed_values: &[f64],
    unaccessed_probs: &[f64],
    v_max_unaccessed: f64,
) -> DeviationBound {
    let mass: f64 = accessed_values.iter().map(|v| v * v).sum::<f64>()
        + unaccessed_probs.len() as f64 * v_max_unaccessed * v_max_unaccessed;
    DeviationBound {
        mu,
        increment_mass: mass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_with_full_access_is_expected_value() {
        // Full access (a = b): E[s] = Σ vᵢpᵢ · (Σp/Σp) = Σ vᵢpᵢ.
        let values = [10.0, 20.0, 30.0];
        let probs = [1.0, 0.5, 0.25];
        let e = estimate_sum(&values, &probs);
        assert!((e - (10.0 + 10.0 + 7.5)).abs() < 1e-12);
    }

    #[test]
    fn sum_scales_partial_sample() {
        // Access only the first of two identical points: estimator must
        // scale up by Σ_b p / Σ_a p = 1.5/1.0.
        let e = estimate_sum(&[10.0], &[1.0, 0.5]);
        assert!((e - 15.0).abs() < 1e-12);
    }

    #[test]
    fn count_sums_probabilities() {
        assert!((estimate_count(&[1.0, 0.5, 0.25, 0.05]) - 1.8).abs() < 1e-12);
        assert_eq!(estimate_count(&[]), 0.0);
    }

    #[test]
    fn avg_is_weighted_mean() {
        let e = estimate_avg(&[10.0, 30.0], &[1.0, 0.5]);
        assert!((e - (10.0 + 15.0) / 1.5).abs() < 1e-12);
        // Constant values → AVG equals the constant regardless of probs.
        let c = estimate_avg(&[7.0, 7.0, 7.0], &[1.0, 0.3, 0.1]);
        assert!((c - 7.0).abs() < 1e-12);
    }

    #[test]
    fn avg_unaffected_by_unaccessed_probability_mass() {
        let partial = estimate_avg(&[10.0, 30.0], &[1.0, 0.5, 0.4, 0.3]);
        let full_probs = estimate_avg(&[10.0, 30.0], &[1.0, 0.5]);
        assert!((partial - full_probs).abs() < 1e-12);
    }

    #[test]
    fn max_with_certain_point_is_that_point_dominated() {
        // Single certain value: E[M_S] = v; correction (v−v)(1+1/1)+v = v.
        let e = estimate_max(&[42.0], &[1.0]);
        assert!((e - 42.0).abs() < 1e-12);
    }

    #[test]
    fn max_correction_extrapolates_beyond_sample() {
        // Uniform sample far from its own max → estimator exceeds the
        // sample max (the (1 + 1/n) correction of [19]).
        let values = [1.0, 2.0, 3.0, 4.0];
        let probs = [1.0, 1.0, 1.0, 1.0];
        let e = estimate_max(&values, &probs);
        assert!(e > 4.0, "estimate {e} should exceed the sample max");
        assert!(e < 6.0, "estimate {e} unreasonably large");
    }

    #[test]
    fn max_weighs_improbable_large_values_less() {
        let certain = estimate_max(&[10.0, 100.0], &[1.0, 1.0]);
        let unlikely = estimate_max(&[10.0, 100.0], &[1.0, 0.01]);
        assert!(unlikely < certain);
    }

    #[test]
    fn min_mirrors_max() {
        let values = [3.0, 9.0, 1.0];
        let probs = [1.0, 0.5, 0.8];
        let min = estimate_min(&values, &probs);
        let neg: Vec<f64> = values.iter().map(|v| -v).collect();
        let max_of_neg = estimate_max(&neg, &probs);
        assert!((min + max_of_neg).abs() < 1e-12);
        assert!(min < 3.0, "min estimate {min} should be pulled low");
    }

    /// The sample-max loop as Eq. (4) writes it, term by term to the end.
    fn naive_expected_sample_max(pairs: &[(f64, f64)]) -> f64 {
        let mut sum = 0.0;
        let mut none_before = 1.0;
        for &(u, p) in pairs {
            sum += u * none_before * p;
            none_before *= 1.0 - p;
        }
        sum
    }

    /// The early stop changes no bit of `E[M_S]`, on inputs built to
    /// break it: ties, p = 1 (the product drops to zero at once), mixed
    /// signs, huge and tiny values, a sum at a power of two, subnormal
    /// products, non-finite values and probabilities outside [0, 1] —
    /// and on the inputs a served MIN gives it, it stops long before the
    /// end.
    #[test]
    fn early_stop_of_the_sample_max_loop_is_bit_exact() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let sorted = |mut pairs: Vec<(f64, f64)>| {
            sort_by_key_stable(&mut pairs, |x| -x.0);
            pairs
        };
        let mut cases: Vec<Vec<(f64, f64)>> = vec![
            vec![],
            vec![(3.0, 1.0), (2.0, 1.0), (1.0, 0.5)],
            vec![(5.0, 0.5); 200],
            vec![(1e300, 0.9), (-1e300, 0.9), (1e-300, 0.5), (-1e-300, 1.0)],
            vec![(1.0, 0.75), (1e-17, 1.0), (-1e-17, 0.5), (-5e-17, 0.5)],
            vec![(0.5, 1.0), (-1e-16, 0.5), (-1e-16, 0.5), (-1e-16, 0.5)],
            vec![(f64::INFINITY, 0.5), (1.0, 0.5), (f64::NEG_INFINITY, 0.5)],
            vec![(2.0, 0.999), (1.0, 0.999), (f64::NAN, 0.5)],
            vec![(2.0, 0.9), (1.0, 1.5), (0.5, -0.5), (0.25, 0.9)],
            vec![(2.0, 0.9), (1.0, f64::NAN), (0.5, 0.9)],
            vec![(0.0, 0.5), (-0.0, 0.5), (0.0, 1.0)],
            vec![(1e-310, 0.5), (1e-315, 0.9), (-1e-320, 0.5)],
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..400 {
            let n = rng.gen_range(1..300);
            let scale = [1.0, 1e-300, 1e300, 1e-5][round % 4];
            cases.push(
                (0..n)
                    .map(|_| {
                        let u = match rng.gen_range(0..4) {
                            0 => rng.gen_range(-1.0..1.0) * scale,
                            1 => rng.gen_range(0..4) as f64,
                            2 => -rng.gen_range(0.0f64..10.0),
                            _ => rng.gen_range(2000.0..2020.0),
                        };
                        let p = match rng.gen_range(0..4) {
                            0 => 1.0,
                            1 => rng.gen_range(0.0..1e-3),
                            _ => rng.gen_range(0.0..=1.0),
                        };
                        (u, p)
                    })
                    .collect(),
            );
        }
        for pairs in cases.into_iter().map(sorted) {
            let (fast, _) = expected_sample_max(&pairs);
            let naive = naive_expected_sample_max(&pairs);
            assert_eq!(fast.to_bits(), naive.to_bits(), "{pairs:?}");
        }

        // A served MIN: negated attribute values in ascending order of
        // the value, with inverse-distance probabilities, so the product
        // runs down through the subnormals unless the loop stops.
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = sorted(
            (0..20_000)
                .map(|_| {
                    let d: f64 = rng.gen_range(1.0..20.0);
                    (-rng.gen_range(1900.0f64..2020.0), 1.0 / d)
                })
                .collect(),
        );
        let (fast, terms) = expected_sample_max(&pairs);
        assert_eq!(fast.to_bits(), naive_expected_sample_max(&pairs).to_bits());
        assert!(terms < pairs.len() / 10, "stopped after {terms} terms");
    }

    #[test]
    fn quarter_ulp_is_a_quarter_of_the_spacing() {
        for x in [1.0, 1.5, -3.0, 1e300, 1e-290, f64::MAX] {
            let up = f64::from_bits(x.abs().to_bits() + 1);
            let ulp = if up.is_finite() {
                up - x.abs()
            } else {
                2f64.powi(971)
            };
            assert_eq!(quarter_ulp(x), ulp / 4.0, "{x}");
        }
        // Where a quarter ulp would be subnormal, 0: no term is skipped.
        for x in [0.0, -0.0, 1e-300, 1e-310] {
            assert_eq!(quarter_ulp(x), 0.0, "{x}");
        }
        assert!(quarter_ulp(f64::INFINITY).is_nan());
        assert!(quarter_ulp(f64::NAN).is_nan());
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(estimate_sum(&[], &[]), 0.0);
        assert_eq!(estimate_avg(&[], &[]), 0.0);
        assert_eq!(estimate_max(&[], &[]), 0.0);
        assert_eq!(estimate_min(&[], &[]), 0.0);
    }

    #[test]
    fn deviation_bound_monotone_in_delta() {
        let b = deviation_bound(100.0, &[5.0, 5.0, 5.0], &[1.0; 10], 5.0);
        let mut prev = f64::INFINITY;
        for d in [0.01, 0.05, 0.1, 0.5, 1.0] {
            let p = b.tail_probability(d);
            assert!(p <= prev);
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn deviation_bound_tightens_with_more_access() {
        // Accessing more points moves mass from (b−a)v_m² to Σ v² with
        // smaller values → smaller increment mass → tighter bound.
        let loose = deviation_bound(100.0, &[5.0], &[1.0; 20], 10.0);
        let tight = deviation_bound(100.0, &[5.0; 15], &[1.0; 6], 10.0);
        assert!(tight.increment_mass < loose.increment_mass);
        assert!(tight.tail_probability(0.1) <= loose.tail_probability(0.1));
    }

    #[test]
    fn confidence_inversion_roundtrip() {
        let b = deviation_bound(50.0, &[2.0; 10], &[1.0; 5], 3.0);
        for conf in [0.5, 0.9, 0.99] {
            let delta = b.delta_for_confidence(conf);
            let tail = b.tail_probability(delta);
            assert!(
                tail <= 1.0 - conf + 1e-9,
                "conf {conf}: δ {delta} gives tail {tail}"
            );
        }
    }

    #[test]
    fn exact_estimate_has_zero_tail() {
        let b = deviation_bound(10.0, &[], &[], 0.0);
        assert_eq!(b.tail_probability(0.5), 0.0);
        assert_eq!(b.delta_for_confidence(0.99), 0.0);
    }

    #[test]
    fn spec_builders() {
        let c = AggregateSpec::count(0.05);
        assert_eq!(c.kind, AggregateKind::Count);
        assert!(c.attribute.is_none());
        let s = AggregateSpec::of(AggregateKind::Avg, "year", 0.01).with_sample(100);
        assert_eq!(s.kind, AggregateKind::Avg);
        assert_eq!(s.attribute.as_deref(), Some("year"));
        assert_eq!(s.sample_size, Some(100));
    }
}
