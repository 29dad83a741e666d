//! The random projection S₁ → S₂.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gaussian::fill_standard_normal;

/// A fixed JL random projection from `in_dim` (the embedding space S₁) to
/// `out_dim = α` (the index space S₂).
///
/// The projection matrix is drawn once at construction and then immutable,
/// so all points and all query centers are mapped consistently for the
/// lifetime of an index.
#[derive(Debug, Clone)]
pub struct JlTransform {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` matrix, entries `N(0,1)/√α`.
    matrix: Vec<f64>,
}

impl JlTransform {
    /// Draws a projection with `A_ij ~ N(0,1)` and scale `1/√α`.
    ///
    /// # Panics
    /// Panics if either dimensionality is zero or `out_dim > in_dim`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "dimensionalities must be positive"
        );
        assert!(
            out_dim <= in_dim,
            "JL transform must reduce dimensionality ({out_dim} > {in_dim})"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut matrix = vec![0.0; in_dim * out_dim];
        fill_standard_normal(&mut rng, &mut matrix);
        let scale = 1.0 / (out_dim as f64).sqrt();
        for v in &mut matrix {
            *v *= scale;
        }
        Self {
            in_dim,
            out_dim,
            matrix,
        }
    }

    /// Input (S₁) dimensionality `d`.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output (S₂) dimensionality `α`.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Projects one vector, writing into `out`.
    ///
    /// # Panics
    /// Panics if the slice lengths do not match the transform's shape.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.in_dim, "input dimensionality mismatch");
        assert_eq!(out.len(), self.out_dim, "output dimensionality mismatch");
        for (k, o) in out.iter_mut().enumerate() {
            let row = &self.matrix[k * self.in_dim..(k + 1) * self.in_dim];
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Projects one vector.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.out_dim];
        self.apply_into(x, &mut out);
        out
    }

    /// Projects a row-major `n × in_dim` matrix into a row-major
    /// `n × out_dim` matrix.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `in_dim`.
    pub fn apply_matrix(&self, rows: &[f64]) -> Vec<f64> {
        assert_eq!(rows.len() % self.in_dim, 0, "matrix shape mismatch");
        let n = rows.len() / self.in_dim;
        let mut out = vec![0.0; n * self.out_dim];
        for i in 0..n {
            let x = &rows[i * self.in_dim..(i + 1) * self.in_dim];
            let (lo, hi) = (i * self.out_dim, (i + 1) * self.out_dim);
            self.apply_into(x, &mut out[lo..hi]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn shapes() {
        let t = JlTransform::new(50, 3, 1);
        assert_eq!(t.in_dim(), 50);
        assert_eq!(t.out_dim(), 3);
        assert_eq!(t.apply(&vec![1.0; 50]).len(), 3);
    }

    #[test]
    fn linearity() {
        let t = JlTransform::new(10, 3, 2);
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..10).map(|i| (10 - i) as f64 * 0.5).collect();
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let tx = t.apply(&x);
        let ty = t.apply(&y);
        let tsum = t.apply(&sum);
        for k in 0..3 {
            assert!((tsum[k] - (tx[k] + ty[k])).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_maps_to_zero() {
        let t = JlTransform::new(8, 2, 3);
        assert!(t.apply(&[0.0; 8]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = JlTransform::new(20, 3, 9).apply(&[1.0; 20]);
        let b = JlTransform::new(20, 3, 9).apply(&[1.0; 20]);
        assert_eq!(a, b);
        let c = JlTransform::new(20, 3, 10).apply(&[1.0; 20]);
        assert_ne!(a, c);
    }

    #[test]
    fn apply_matrix_matches_apply() {
        let t = JlTransform::new(6, 2, 4);
        let rows = vec![
            1.0, 2.0, 3.0, 4.0, 5.0, 6.0, //
            -1.0, 0.0, 1.0, 0.5, -0.5, 2.0,
        ];
        let m = t.apply_matrix(&rows);
        let r0 = t.apply(&rows[0..6]);
        let r1 = t.apply(&rows[6..12]);
        assert_eq!(&m[0..2], r0.as_slice());
        assert_eq!(&m[2..4], r1.as_slice());
    }

    #[test]
    fn expected_distance_preserved_on_average() {
        // E[‖T(x) − T(y)‖²] = ‖x − y‖², averaged over many projections.
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64 * 0.71).cos()).collect();
        let true_dist = l2(&x, &y);
        let trials = 600;
        let mean_sq: f64 = (0..trials)
            .map(|s| {
                let t = JlTransform::new(30, 3, s as u64);
                let d = l2(&t.apply(&x), &t.apply(&y));
                d * d
            })
            .sum::<f64>()
            / trials as f64;
        let ratio = mean_sq / (true_dist * true_dist);
        assert!(
            (ratio - 1.0).abs() < 0.12,
            "E[l2²]/l1² = {ratio}, should be ≈ 1"
        );
    }

    #[test]
    #[should_panic(expected = "reduce dimensionality")]
    fn expansion_rejected() {
        let _ = JlTransform::new(3, 5, 0);
    }

    #[test]
    #[should_panic(expected = "input dimensionality mismatch")]
    fn wrong_input_length_rejected() {
        let t = JlTransform::new(5, 2, 0);
        let _ = t.apply(&[1.0, 2.0]);
    }
}
