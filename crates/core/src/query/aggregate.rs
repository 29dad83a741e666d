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

    /// Combines the bounds of partial estimates over **disjoint**
    /// populations whose estimates *add* (COUNT/SUM fanned out across
    /// relation partitions): the per-part martingales concatenate into
    /// one martingale over the union, so μ = Σμᵢ and the Azuma
    /// increment masses add. The combined bound is exact Theorem 4 for
    /// the union, not a relaxation.
    pub fn combine_sum(parts: &[DeviationBound]) -> DeviationBound {
        DeviationBound {
            mu: parts.iter().map(|b| b.mu).sum(),
            increment_mass: parts.iter().map(|b| b.increment_mass).sum(),
        }
    }

    /// Combines the bounds of a **convex combination** `Σ λᵢ·μᵢ` (AVG
    /// fanned out across partitions, λᵢ the per-part weight, Σλᵢ = 1):
    /// scaling a martingale by λ scales every increment by λ, so the
    /// masses combine as `Σ λᵢ²·massᵢ`. Like [`DeviationBound::combine_sum`]
    /// this is exact Theorem 4 for the combined estimator.
    pub fn combine_weighted(parts: &[(f64, DeviationBound)]) -> DeviationBound {
        DeviationBound {
            mu: parts.iter().map(|(w, b)| w * b.mu).sum(),
            increment_mass: parts.iter().map(|(w, b)| w * w * b.increment_mass).sum(),
        }
    }

    /// Combines the bounds of an **extremal** merge (MAX/MIN across
    /// partitions, `mu` the merged extremal estimate). The max over
    /// parts deviates by more than `t` only if some part does, so the
    /// union bound gives `Σᵢ 2·exp(−2t²/massᵢ) ≤ 2n·exp(−2t²/max massᵢ)`.
    /// Folding the factor n into the exponent, the combined mass is
    /// `n·maxᵢ massᵢ`, which is conservative:
    /// `min(1, 2e^{−x/n}) ≥ min(1, 2n·e^{−x})` for all x ≥ 0, n ≥ 1
    /// (for x ≤ n·ln 2 the left side is 1; beyond it
    /// `x(1 − 1/n) ≥ ln n` follows from `x ≥ n·ln 2 ≥ ln(2n)`). The
    /// tests sweep this inequality against the raw union bound.
    pub fn combine_extremal(mu: f64, parts: &[DeviationBound]) -> DeviationBound {
        let max_mass = parts.iter().map(|b| b.increment_mass).fold(0.0, f64::max);
        DeviationBound {
            mu,
            increment_mass: parts.len() as f64 * max_mass,
        }
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
    // Sort (value, prob) by value descending.
    let mut pairs: Vec<(f64, f64)> = values.iter().copied().zip(probs.iter().copied()).collect();
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0));

    let mut expected_sample_max = 0.0;
    let mut none_before = 1.0;
    for &(u, p) in &pairs {
        expected_sample_max += u * none_before * p;
        none_before *= 1.0 - p;
    }
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

/// MIN via negation: `MIN(v) = −MAX(−v)`.
pub fn estimate_min(values: &[f64], probs: &[f64]) -> f64 {
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    -estimate_max(&negated, probs)
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

/// Merges per-relation partial aggregates — one [`AggregateResult`] per
/// relation of a multi-relation query, computed over **disjoint** ball
/// populations (each relation has its own query center) — into one
/// combined estimate with a combined Theorem 4 bound.
///
/// * COUNT/SUM add: disjoint populations, so the estimates and the
///   martingale masses sum ([`DeviationBound::combine_sum`]).
/// * AVG is the ball-size-weighted mean of the per-relation averages —
///   an approximation of the pooled average (exact when per-relation
///   inclusion-probability profiles agree), with the convex-combination
///   bound ([`DeviationBound::combine_weighted`]). Parts with empty
///   balls carry zero weight; if every ball is empty the weights fall
///   back to uniform.
/// * MAX/MIN take the extremum over parts with non-empty balls, with
///   the union bound folded into one mass
///   ([`DeviationBound::combine_extremal`]).
pub fn merge_partials(kind: AggregateKind, parts: &[AggregateResult]) -> AggregateResult {
    let accessed = parts.iter().map(|p| p.accessed).sum();
    let ball_size = parts.iter().map(|p| p.ball_size).sum();
    let (estimate, bound) = match kind {
        AggregateKind::Count | AggregateKind::Sum => {
            let bounds: Vec<DeviationBound> = parts.iter().map(|p| p.bound).collect();
            (
                parts.iter().map(|p| p.estimate).sum(),
                DeviationBound::combine_sum(&bounds),
            )
        }
        AggregateKind::Avg => {
            let total: f64 = parts.iter().map(|p| p.ball_size as f64).sum();
            let weighted: Vec<(f64, DeviationBound)> = parts
                .iter()
                .map(|p| {
                    let w = if total > 0.0 {
                        p.ball_size as f64 / total
                    } else {
                        1.0 / parts.len().max(1) as f64
                    };
                    (w, p.bound)
                })
                .collect();
            let estimate = parts
                .iter()
                .zip(&weighted)
                .map(|(p, (w, _))| w * p.estimate)
                .sum();
            (estimate, DeviationBound::combine_weighted(&weighted))
        }
        AggregateKind::Max | AggregateKind::Min => {
            // Empty balls contribute no candidate extremum (their 0.0
            // placeholder estimate must not win against negative values).
            let live: Vec<&AggregateResult> = parts.iter().filter(|p| p.ball_size > 0).collect();
            if live.is_empty() {
                (
                    0.0,
                    DeviationBound {
                        mu: 0.0,
                        increment_mass: 0.0,
                    },
                )
            } else {
                let estimate = live.iter().map(|p| p.estimate).fold(
                    if kind == AggregateKind::Max {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    },
                    if kind == AggregateKind::Max {
                        f64::max
                    } else {
                        f64::min
                    },
                );
                let bounds: Vec<DeviationBound> = live.iter().map(|p| p.bound).collect();
                (
                    estimate,
                    DeviationBound::combine_extremal(estimate, &bounds),
                )
            }
        }
    };
    AggregateResult {
        estimate,
        accessed,
        ball_size,
        bound,
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
    fn combine_sum_equals_concatenated_population() {
        // Splitting one population into two disjoint parts and combining
        // must reproduce the bound over the whole population exactly.
        let whole = deviation_bound(30.0, &[5.0, 5.0, 2.0], &[1.0; 8], 4.0);
        let left = deviation_bound(18.0, &[5.0, 5.0], &[1.0; 3], 4.0);
        let right = deviation_bound(12.0, &[2.0], &[1.0; 5], 4.0);
        let combined = DeviationBound::combine_sum(&[left, right]);
        assert!((combined.mu - whole.mu).abs() < 1e-12);
        assert!((combined.increment_mass - whole.increment_mass).abs() < 1e-12);
    }

    #[test]
    fn combine_sum_of_exact_parts_stays_exact() {
        let exact = DeviationBound {
            mu: 3.0,
            increment_mass: 0.0,
        };
        let combined = DeviationBound::combine_sum(&[exact, exact]);
        assert_eq!(combined.tail_probability(0.1), 0.0);
    }

    #[test]
    fn combine_weighted_identity_and_scaling() {
        let b = deviation_bound(50.0, &[2.0; 10], &[1.0; 5], 3.0);
        // A single full-weight part is unchanged.
        let one = DeviationBound::combine_weighted(&[(1.0, b)]);
        assert_eq!(one, b);
        // Halving the weight quarters the mass (λ² scaling).
        let half = DeviationBound::combine_weighted(&[(0.5, b)]);
        assert!((half.mu - 25.0).abs() < 1e-12);
        assert!((half.increment_mass - b.increment_mass / 4.0).abs() < 1e-12);
    }

    #[test]
    fn combine_extremal_dominates_union_bound() {
        // The folded single-mass bound must never claim a smaller tail
        // than the raw union bound it stands in for.
        let masses = [[4.0, 9.0], [0.5, 100.0], [25.0, 25.0]];
        for pair in masses {
            let parts: Vec<DeviationBound> = pair
                .iter()
                .map(|&m| DeviationBound {
                    mu: 10.0,
                    increment_mass: m,
                })
                .collect();
            let combined = DeviationBound::combine_extremal(10.0, &parts);
            for t in [0.5, 1.0, 2.0, 5.0, 10.0, 30.0] {
                let union: f64 = parts
                    .iter()
                    .map(|p| 2.0 * (-2.0 * t * t / p.increment_mass).exp())
                    .sum::<f64>()
                    .min(1.0);
                let folded = combined.tail_probability(t / combined.mu);
                assert!(
                    folded >= union - 1e-12,
                    "folded {folded} < union {union} at t = {t}, masses {pair:?}"
                );
            }
        }
    }

    #[test]
    fn merge_partials_count_and_sum_add() {
        let part = |est: f64, a: usize, b: usize| AggregateResult {
            estimate: est,
            accessed: a,
            ball_size: b,
            bound: deviation_bound(est, &[1.0; 2], &[1.0; 3], 1.0),
        };
        let merged = merge_partials(AggregateKind::Count, &[part(3.0, 2, 5), part(7.0, 2, 5)]);
        assert!((merged.estimate - 10.0).abs() < 1e-12);
        assert_eq!(merged.accessed, 4);
        assert_eq!(merged.ball_size, 10);
        assert!((merged.bound.mu - 10.0).abs() < 1e-12);
        assert!((merged.bound.increment_mass - 2.0 * (2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn merge_partials_avg_weights_by_ball_size() {
        let part = |est: f64, b: usize| AggregateResult {
            estimate: est,
            accessed: b,
            ball_size: b,
            bound: DeviationBound {
                mu: est,
                increment_mass: 1.0,
            },
        };
        // 3 members averaging 10 and 1 member averaging 50 → 20.
        let merged = merge_partials(AggregateKind::Avg, &[part(10.0, 3), part(50.0, 1)]);
        assert!((merged.estimate - 20.0).abs() < 1e-12);
        // All-empty parts fall back to uniform weights.
        let empty = merge_partials(AggregateKind::Avg, &[part(4.0, 0), part(8.0, 0)]);
        assert!((empty.estimate - 6.0).abs() < 1e-12);
    }

    #[test]
    fn merge_partials_extrema_skip_empty_balls() {
        let part = |est: f64, b: usize| AggregateResult {
            estimate: est,
            accessed: b,
            ball_size: b,
            bound: DeviationBound {
                mu: est,
                increment_mass: 2.0,
            },
        };
        // The empty part's 0.0 placeholder must not beat the negative max.
        let merged = merge_partials(AggregateKind::Max, &[part(-5.0, 3), part(0.0, 0)]);
        assert!((merged.estimate - -5.0).abs() < 1e-12);
        assert!(
            (merged.bound.increment_mass - 2.0).abs() < 1e-12,
            "n = 1 live part"
        );
        let merged = merge_partials(AggregateKind::Min, &[part(4.0, 2), part(9.0, 2)]);
        assert!((merged.estimate - 4.0).abs() < 1e-12);
        assert!(
            (merged.bound.increment_mass - 4.0).abs() < 1e-12,
            "n·max mass"
        );
        // Every ball empty → exact zero.
        let none = merge_partials(AggregateKind::Max, &[part(1.0, 0)]);
        assert_eq!(none.estimate, 0.0);
        assert_eq!(none.bound.tail_probability(0.5), 0.0);
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
