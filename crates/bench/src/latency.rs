//! Latency histogram for the serving-layer load generator.
//!
//! The hand-rolled geometric histogram that used to live here moved
//! into `vkg-obs` (as [`vkg::obs::Histogram`]) when the observability
//! subsystem landed, so the server, the facade registry, and this load
//! generator all bucket latencies identically — which is what makes the
//! server-vs-client quantile cross-check in `serve_load --check`
//! meaningful. This module is now a thin re-export plus the
//! bench-side property tests that pin the merge behaviour the
//! cross-check relies on.

pub use vkg::obs::Histogram;

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use proptest::prelude::*;

    use super::Histogram;

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
            assert!(rel < 0.10, "q{q}: got {got}, want ≈{exact}");
        }
        assert_eq!(h.max(), Duration::from_micros(10_000));
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000u64 {
            let d = Duration::from_micros(i * 17 % 4096);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    proptest! {
        /// Merged quantiles are sandwiched: for every q, the merged
        /// histogram's quantile is at least the smaller of the two
        /// parts' quantiles and never exceeds the exact maximum over
        /// both parts (`max(a.max(), b.max())`).
        #[test]
        fn merge_quantiles_bounded_by_parts(
            xs in prop::collection::vec(0u64..2_000_000, 1..200),
            ys in prop::collection::vec(0u64..2_000_000, 1..200),
        ) {
            let mut a = Histogram::new();
            let mut b = Histogram::new();
            for &us in &xs {
                a.record_us(us);
            }
            for &us in &ys {
                b.record_us(us);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(merged.len(), a.len() + b.len());
            prop_assert_eq!(merged.max_us(), a.max_us().max(b.max_us()));
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let m = merged.quantile(q);
                prop_assert!(m >= a.quantile(q).min(b.quantile(q)),
                    "q{}: merged {:?} below both parts", q, m);
                prop_assert!(m <= a.max().max(b.max()),
                    "q{}: merged {:?} above max(a, b)", q, m);
            }
        }
    }
}
