//! Closed-form accuracy bounds: Theorems 1, 2 and 3 of the paper.
//!
//! These are pure functions of (ε, α) or of the observed candidate
//! distances, so query processing can attach a concrete guarantee to
//! every answer and tests can check the empirical distortion frequencies
//! against them.

/// Theorem 1, upper tail: `Pr[l₂ ≥ √(1+ε)·l₁] ≤ Δᵤ(ε) = (√(1+ε)/e^{ε/2})^α`
/// for any `ε > 0`.
///
/// # Panics
/// Panics if `ε ≤ 0` or `α == 0`.
pub fn delta_upper(epsilon: f64, alpha: usize) -> f64 {
    assert!(epsilon > 0.0, "upper bound requires ε > 0, got {epsilon}");
    assert!(alpha > 0, "α must be positive");
    ((1.0 + epsilon).sqrt() / (epsilon / 2.0).exp()).powi(alpha as i32)
}

/// Theorem 1, lower tail: `Pr[l₂ ≤ √(1−ε)·l₁] ≤ Δₗ(ε) = (√(1−ε)·e^{ε/2})^α`
/// for `0 < ε < 1`.
///
/// # Panics
/// Panics if `ε ∉ (0, 1)` or `α == 0`.
pub fn delta_lower(epsilon: f64, alpha: usize) -> f64 {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "lower bound requires 0 < ε < 1, got {epsilon}"
    );
    assert!(alpha > 0, "α must be positive");
    ((1.0 - epsilon).sqrt() * (epsilon / 2.0).exp()).powi(alpha as i32)
}

/// One term of Theorem 2: the probability bound `mᵅ / e^{α(m²−1)/2}` that a
/// true top-k entity at distance ratio `m = (r*_k / r*_i)(1+ε) ≥ 1` is
/// missed.
///
/// Returns 1 (vacuous bound) when `m < 1`, i.e. when the inflated k-th
/// radius does not even cover entity `i`'s radius — the theorem gives no
/// guarantee there.
pub fn miss_probability(m: f64, alpha: usize) -> f64 {
    assert!(alpha > 0, "α must be positive");
    assert!(m.is_finite() && m >= 0.0, "invalid distance ratio {m}");
    if m < 1.0 {
        return 1.0;
    }
    let a = alpha as f64;
    (m.powf(a) / (a * (m * m - 1.0) / 2.0).exp()).min(1.0)
}

/// Theorem 2: probability that `FINDTOP-KENTITIES` misses **no** true
/// top-k entity, `∏_{i=1..k} [1 − mᵢᵅ/e^{α(mᵢ²−1)/2}]`, where
/// `mᵢ = (r*_k / r*_i)(1+ε)`.
///
/// `ratios` holds the `mᵢ` values (one per result position).
pub fn topk_success_probability(ratios: &[f64], alpha: usize) -> f64 {
    ratios
        .iter()
        .map(|&m| 1.0 - miss_probability(m, alpha))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

/// Theorem 2: expected number of missing entities compared to the ground
/// truth top-k, `Σ_{i=1..k} mᵢᵅ/e^{α(mᵢ²−1)/2}`.
pub fn expected_misses(ratios: &[f64], alpha: usize) -> f64 {
    ratios.iter().map(|&m| miss_probability(m, alpha)).sum()
}

/// Theorem 3: for the final query region, the probability that a point at
/// S₁-distance ≥ `r*_k (1+ε)/(1−ε′)` from the query spills into the region
/// is at most `(1−ε′)^α · e^{α(ε′−ε′²/2)}`, for `0 < ε′ < 1`.
///
/// # Panics
/// Panics if `ε′ ∉ (0, 1)` or `α == 0`.
pub fn spill_in_bound(epsilon_prime: f64, alpha: usize) -> f64 {
    assert!(
        epsilon_prime > 0.0 && epsilon_prime < 1.0,
        "Theorem 3 requires 0 < ε′ < 1, got {epsilon_prime}"
    );
    assert!(alpha > 0, "α must be positive");
    let a = alpha as f64;
    ((1.0 - epsilon_prime).powf(a)
        * (a * (epsilon_prime - epsilon_prime * epsilon_prime / 2.0)).exp())
    .min(1.0)
}

/// `Γ(k/2)` for integer `k ≥ 1`, by the half-integer recurrence
/// (`Γ(1/2) = √π`, `Γ(1) = 1`, `Γ(x+1) = x·Γ(x)`).
fn gamma_half(k: usize) -> f64 {
    assert!(k >= 1, "Γ(k/2) needs k ≥ 1");
    let mut value = if k % 2 == 0 {
        1.0 // Γ(1)
    } else {
        std::f64::consts::PI.sqrt() // Γ(1/2)
    };
    let mut j = if k % 2 == 0 { 2 } else { 1 };
    while j < k {
        value *= j as f64 / 2.0;
        j += 2;
    }
    value
}

/// The multiplicative bias `E[√α / χ_α] = √(α/2)·Γ((α−1)/2)/Γ(α/2)`
/// incurred when *inverting* a Gaussian-JL-projected distance.
///
/// A projected distance satisfies `l₂ = l₁·χ_α/√α`, so `E[l₂] ≈ l₁`, but
/// by Jensen's inequality `E[1/l₂] = (1/l₁)·E[√α/χ_α] > 1/l₁`: anything
/// proportional to an inverse projected distance (such as the §V-B
/// inverse-distance probability proxy of an unaccessed ball member) is
/// systematically inflated by this factor — ≈1.382 at α = 3, ≈1.151 at
/// α = 6, → 1 as α → ∞. Dividing by it makes the proxy unbiased.
///
/// # Panics
/// Panics if `α < 2` (the expectation diverges at α = 1).
pub fn inverse_projected_distance_bias(alpha: usize) -> f64 {
    assert!(alpha >= 2, "E[1/χ_α] diverges for α < 2, got α = {alpha}");
    (alpha as f64 / 2.0).sqrt() * gamma_half(alpha - 1) / gamma_half(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jl::JlTransform;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_example_upper() {
        // Paper §III-B: ε = 3, α = 3 → with confidence 91.2%, l₂ < 2·l₁.
        let d = delta_upper(3.0, 3);
        assert!(
            (1.0 - d - 0.912).abs() < 0.002,
            "confidence = {}, expected ≈ 0.912",
            1.0 - d
        );
    }

    #[test]
    fn paper_example_lower() {
        // Paper §III-B: ε = 15/16, α = 3 → with confidence ≥ 94%, l₂ > l₁/4.
        let d = delta_lower(15.0 / 16.0, 3);
        assert!(1.0 - d >= 0.93, "confidence = {}", 1.0 - d);
    }

    #[test]
    fn bounds_shrink_with_alpha() {
        for alpha in 1..8 {
            assert!(delta_upper(1.0, alpha + 1) < delta_upper(1.0, alpha));
            assert!(delta_lower(0.5, alpha + 1) < delta_lower(0.5, alpha));
        }
    }

    #[test]
    fn bounds_shrink_with_epsilon() {
        let mut prev = f64::INFINITY;
        for e in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let d = delta_upper(e, 3);
            assert!(d < prev);
            prev = d;
        }
        let mut prev = f64::INFINITY;
        for e in [0.1, 0.3, 0.6, 0.9] {
            let d = delta_lower(e, 3);
            assert!(d < prev);
            prev = d;
        }
    }

    #[test]
    fn bounds_are_probabilities() {
        for e in [0.01, 0.5, 2.0, 10.0] {
            for a in [1, 3, 6] {
                let d = delta_upper(e, a);
                assert!((0.0..=1.0 + 1e-12).contains(&d), "Δᵤ({e},{a}) = {d}");
            }
        }
        for e in [0.01, 0.5, 0.99] {
            for a in [1, 3, 6] {
                let d = delta_lower(e, a);
                assert!((0.0..=1.0 + 1e-12).contains(&d), "Δₗ({e},{a}) = {d}");
            }
        }
    }

    #[test]
    fn empirical_upper_tail_never_beats_bound() {
        // Monte-Carlo check of Theorem 1's upper bound: draw many random
        // projections of a fixed pair; the frequency of l₂ ≥ √(1+ε)·l₁
        // must not exceed Δᵤ(ε) (plus sampling slack).
        let dims = 40;
        let alpha = 3;
        let mut rng = StdRng::seed_from_u64(99);
        let x: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let l1: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let trials = 4_000;
        for eps in [1.0f64, 2.0, 3.0] {
            let threshold = (1.0 + eps).sqrt() * l1;
            let mut exceed = 0;
            for s in 0..trials {
                let t = JlTransform::new(dims, alpha, 1_000_000 + s);
                let tx = t.apply(&x);
                let ty = t.apply(&y);
                let l2: f64 = tx
                    .iter()
                    .zip(&ty)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if l2 >= threshold {
                    exceed += 1;
                }
            }
            let freq = exceed as f64 / trials as f64;
            let bound = delta_upper(eps, alpha);
            assert!(
                freq <= bound + 0.02,
                "ε={eps}: empirical {freq} > bound {bound}"
            );
        }
    }

    #[test]
    fn empirical_lower_tail_never_beats_bound() {
        let dims = 40;
        let alpha = 3;
        let mut rng = StdRng::seed_from_u64(123);
        let x: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let l1: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let trials = 4_000;
        for eps in [0.5f64, 0.75, 0.9375] {
            let threshold = (1.0 - eps).sqrt() * l1;
            let mut below = 0;
            for s in 0..trials {
                let t = JlTransform::new(dims, alpha, 2_000_000 + s);
                let tx = t.apply(&x);
                let ty = t.apply(&y);
                let l2: f64 = tx
                    .iter()
                    .zip(&ty)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                if l2 <= threshold {
                    below += 1;
                }
            }
            let freq = below as f64 / trials as f64;
            let bound = delta_lower(eps, alpha);
            assert!(
                freq <= bound + 0.02,
                "ε={eps}: empirical {freq} > bound {bound}"
            );
        }
    }

    #[test]
    fn miss_probability_properties() {
        // m = 1 → bound 1 (vacuous); grows tighter as m grows.
        assert_eq!(miss_probability(1.0, 3), 1.0);
        assert_eq!(miss_probability(0.5, 3), 1.0);
        let mut prev = 1.0;
        for m in [1.2, 1.5, 2.0, 3.0] {
            let p = miss_probability(m, 3);
            assert!(p < prev, "miss bound not decreasing at m={m}");
            prev = p;
        }
    }

    #[test]
    fn success_probability_composes() {
        let ratios = vec![2.0, 2.5, 3.0];
        let p = topk_success_probability(&ratios, 3);
        let manual: f64 = ratios
            .iter()
            .map(|&m| 1.0 - miss_probability(m, 3))
            .product();
        assert!((p - manual).abs() < 1e-12);
        assert!(p > 0.0 && p <= 1.0);
        let e = expected_misses(&ratios, 3);
        assert!((0.0..=3.0).contains(&e));
    }

    #[test]
    fn spill_bound_valid_range() {
        for ep in [0.1, 0.5, 0.9] {
            let b = spill_in_bound(ep, 3);
            assert!((0.0..=1.0).contains(&b), "spill bound {b}");
        }
    }

    #[test]
    #[should_panic(expected = "requires 0 < ε < 1")]
    fn lower_bound_rejects_large_eps() {
        let _ = delta_lower(1.5, 3);
    }

    #[test]
    #[should_panic(expected = "requires ε > 0")]
    fn upper_bound_rejects_nonpositive_eps() {
        let _ = delta_upper(0.0, 3);
    }
}
