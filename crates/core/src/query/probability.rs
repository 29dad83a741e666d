//! The edge-probability model of the virtual knowledge graph (§V-B).
//!
//! "We let the entity closest to the query center point have probability 1
//! for the relationship, and other entities' probabilities are inversely
//! proportional to their distances to the query center point."

/// Converts sorted-or-unsorted S₁ distances into edge probabilities:
/// `p_i = d_min / d_i`, with `p = 1` for the closest entity (and for any
/// entity at distance 0).
///
/// Returns an empty vector for empty input.
pub fn inverse_distance_probabilities(distances: &[f64]) -> Vec<f64> {
    let d_min = distances.iter().copied().fold(f64::INFINITY, f64::min);
    distances
        .iter()
        .map(|&d| inverse_distance_probability(d, d_min))
        .collect()
}

/// One entry of [`inverse_distance_probabilities`]: the probability of
/// a member at distance `d` when the closest is at `d_min`.
pub fn inverse_distance_probability(d: f64, d_min: f64) -> f64 {
    debug_assert!(d >= 0.0, "negative distance {d}");
    if d <= 0.0 || d_min <= 0.0 {
        // Exact hits (h + r lands on t) get probability 1; if the
        // minimum itself is 0 every other finite distance gets an
        // infinitesimal probability, clamped to a tiny positive value
        // so downstream weights stay well-defined.
        if d <= 0.0 {
            1.0
        } else {
            f64::MIN_POSITIVE
        }
    } else {
        (d_min / d).min(1.0)
    }
}

/// The ball radius in S₁ corresponding to a probability threshold:
/// `p(d) ≥ p_τ ⇔ d ≤ d_min / p_τ`.
///
/// # Panics
/// Panics unless `0 < p_τ ≤ 1` and `d_min ≥ 0`.
pub fn radius_for_threshold(d_min: f64, p_tau: f64) -> f64 {
    assert!(
        p_tau > 0.0 && p_tau <= 1.0,
        "probability threshold must be in (0, 1], got {p_tau}"
    );
    assert!(d_min >= 0.0, "negative minimum distance {d_min}");
    d_min / p_tau
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closest_gets_one() {
        let p = inverse_distance_probabilities(&[2.0, 1.0, 4.0]);
        assert_eq!(p[1], 1.0);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_monotone_in_distance() {
        let d = [1.0, 1.5, 2.0, 8.0];
        let p = inverse_distance_probabilities(&d);
        for w in p.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn zero_distance_handled() {
        let p = inverse_distance_probabilities(&[0.0, 1.0]);
        assert_eq!(p[0], 1.0);
        assert!(p[1] > 0.0 && p[1] < 1e-300);
    }

    #[test]
    fn empty_input() {
        assert!(inverse_distance_probabilities(&[]).is_empty());
    }

    #[test]
    fn threshold_radius() {
        assert_eq!(radius_for_threshold(2.0, 0.05), 40.0);
        assert_eq!(radius_for_threshold(0.0, 0.5), 0.0);
        assert_eq!(radius_for_threshold(3.0, 1.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "probability threshold")]
    fn bad_threshold_rejected() {
        let _ = radius_for_threshold(1.0, 0.0);
    }
}
