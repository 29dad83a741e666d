//! Minimum bounding regions (MBRs) in S₂.
//!
//! Fixed-capacity coordinate arrays (`MAX_DIM`) keep MBRs `Copy` and free
//! of per-instance heap allocation — node splits create and discard many
//! thousands of candidate boxes.

/// Maximum supported dimensionality of the index space S₂.
///
/// The paper uses α = 3 or 6; 16 covers the wider projections of the
/// `abl_alpha` ablation and the kernel property tests while keeping the
/// struct a small `Copy` value (264 bytes).
pub const MAX_DIM: usize = 16;

/// An axis-aligned minimum bounding region.
///
/// An *empty* MBR (containing no points) has `min > max` on every axis and
/// behaves as the identity for [`Mbr::include_mbr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mbr {
    dim: u8,
    min: [f64; MAX_DIM],
    max: [f64; MAX_DIM],
}

impl Mbr {
    /// Creates an empty MBR of the given dimensionality.
    ///
    /// # Panics
    /// Panics if `dim` is zero or exceeds [`MAX_DIM`].
    pub fn empty(dim: usize) -> Self {
        assert!(
            dim > 0 && dim <= MAX_DIM,
            "invalid MBR dimensionality {dim}"
        );
        Self {
            dim: dim as u8,
            min: [f64::INFINITY; MAX_DIM],
            max: [f64::NEG_INFINITY; MAX_DIM],
        }
    }

    /// Creates the MBR of a ball: the box `[center − r, center + r]^α`
    /// (line 4 of Algorithm 3 takes the bounding box of `B(q, r_q)`).
    ///
    /// # Panics
    /// Panics if the center's dimensionality is unsupported or `r < 0`.
    pub fn of_ball(center: &[f64], radius: f64) -> Self {
        assert!(radius >= 0.0, "negative ball radius {radius}");
        let mut mbr = Mbr::empty(center.len());
        for (i, &c) in center.iter().enumerate() {
            mbr.min[i] = c - radius;
            mbr.max[i] = c + radius;
        }
        mbr
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Lower bound on `axis`.
    #[inline]
    pub fn min(&self, axis: usize) -> f64 {
        self.min[axis]
    }

    /// Upper bound on `axis`.
    #[inline]
    pub fn max(&self, axis: usize) -> f64 {
        self.max[axis]
    }

    /// Whether no point has been included.
    pub fn is_empty(&self) -> bool {
        self.min[0] > self.max[0]
    }

    /// Expands to cover `p`.
    #[inline]
    pub fn include_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dim());
        for (i, &pi) in p.iter().enumerate().take(self.dim()) {
            self.min[i] = self.min[i].min(pi);
            self.max[i] = self.max[i].max(pi);
        }
    }

    /// Expands to cover `other`.
    pub fn include_mbr(&mut self, other: &Mbr) {
        debug_assert_eq!(self.dim, other.dim);
        for i in 0..self.dim() {
            self.min[i] = self.min[i].min(other.min[i]);
            self.max[i] = self.max[i].max(other.max[i]);
        }
    }

    /// Whether `p` lies inside (inclusive). Every axis is compared, with
    /// no branch on the outcome, so a caller testing many points does not
    /// wait on one verdict to start loading the next point.
    #[inline]
    pub fn contains_point(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dim());
        let bounds = self.min.iter().zip(&self.max).take(self.dim());
        bounds
            .zip(p)
            .fold(true, |inside, ((lo, hi), x)| inside & (lo <= x) & (x <= hi))
    }

    /// Whether the two regions overlap (inclusive).
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        if self.is_empty() || other.is_empty() {
            return false;
        }
        (0..self.dim()).all(|i| self.min[i] <= other.max[i] && other.min[i] <= self.max[i])
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        (0..self.dim()).all(|i| self.min[i] <= other.min[i] && other.max[i] <= self.max[i])
    }

    /// Volume (product of side lengths); 0 for empty or degenerate boxes.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..self.dim())
            .map(|i| (self.max[i] - self.min[i]).max(0.0))
            .product()
    }

    /// Volume of the intersection with `other` (`‖O‖` in the §IV-B1 cost
    /// model); 0 when disjoint.
    pub fn overlap_volume(&self, other: &Mbr) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut v = 1.0;
        for i in 0..self.dim() {
            let side = self.max[i].min(other.max[i]) - self.min[i].max(other.min[i]);
            if side <= 0.0 {
                return 0.0;
            }
            v *= side;
        }
        v
    }

    /// Squared distance from `p` to the nearest point of the region
    /// (0 when inside) — the standard R-tree kNN pruning bound.
    pub fn min_distance_sq(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dim());
        if self.is_empty() {
            return f64::INFINITY;
        }
        (0..self.dim())
            .map(|i| {
                let d = if p[i] < self.min[i] {
                    self.min[i] - p[i]
                } else if p[i] > self.max[i] {
                    p[i] - self.max[i]
                } else {
                    0.0
                };
                d * d
            })
            .sum()
    }

    /// The center of the region (empty regions return the origin).
    pub fn center(&self) -> [f64; MAX_DIM] {
        let mut c = [0.0; MAX_DIM];
        if !self.is_empty() {
            for (i, ci) in c.iter_mut().enumerate().take(self.dim()) {
                *ci = (self.min[i] + self.max[i]) / 2.0;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Mbr {
        let mut m = Mbr::empty(2);
        m.include_point(&[0.0, 0.0]);
        m.include_point(&[1.0, 1.0]);
        m
    }

    #[test]
    fn empty_behaviour() {
        let e = Mbr::empty(3);
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        assert!(!e.intersects(&e));
        assert_eq!(e.min_distance_sq(&[0.0, 0.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn include_point_grows() {
        let b = unit_box();
        assert!(!b.is_empty());
        assert!(b.contains_point(&[0.5, 0.5]));
        assert!(b.contains_point(&[1.0, 0.0]));
        assert!(!b.contains_point(&[1.5, 0.5]));
        assert_eq!(b.volume(), 1.0);
    }

    #[test]
    fn include_mbr_union() {
        let mut a = unit_box();
        let mut b = Mbr::empty(2);
        b.include_point(&[2.0, 2.0]);
        a.include_mbr(&b);
        assert!(a.contains_point(&[2.0, 2.0]));
        assert_eq!(a.volume(), 4.0);
        // Union with empty is identity.
        let before = a;
        a.include_mbr(&Mbr::empty(2));
        assert_eq!(a, before);
    }

    #[test]
    fn intersection_tests() {
        let a = unit_box();
        let mut b = Mbr::empty(2);
        b.include_point(&[0.5, 0.5]);
        b.include_point(&[2.0, 2.0]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        let overlap = a.overlap_volume(&b);
        assert!((overlap - 0.25).abs() < 1e-12);

        let mut c = Mbr::empty(2);
        c.include_point(&[5.0, 5.0]);
        assert!(!a.intersects(&c));
        assert_eq!(a.overlap_volume(&c), 0.0);
    }

    #[test]
    fn touching_boxes_intersect_with_zero_overlap_volume() {
        let a = unit_box();
        let mut b = Mbr::empty(2);
        b.include_point(&[1.0, 0.0]);
        b.include_point(&[2.0, 1.0]);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_volume(&b), 0.0);
    }

    #[test]
    fn containment() {
        let a = unit_box();
        let mut inner = Mbr::empty(2);
        inner.include_point(&[0.25, 0.25]);
        inner.include_point(&[0.75, 0.75]);
        assert!(a.contains_mbr(&inner));
        assert!(!inner.contains_mbr(&a));
        assert!(a.contains_mbr(&Mbr::empty(2)));
    }

    #[test]
    fn ball_region() {
        let q = Mbr::of_ball(&[1.0, 2.0], 0.5);
        assert_eq!(q.min(0), 0.5);
        assert_eq!(q.max(0), 1.5);
        assert_eq!(q.min(1), 1.5);
        assert_eq!(q.max(1), 2.5);
        assert!(q.contains_point(&[1.0, 2.0]));
        // Zero radius is the degenerate point box.
        let p = Mbr::of_ball(&[1.0, 2.0], 0.0);
        assert!(p.contains_point(&[1.0, 2.0]));
        assert_eq!(p.volume(), 0.0);
    }

    #[test]
    fn min_distance() {
        let a = unit_box();
        assert_eq!(a.min_distance_sq(&[0.5, 0.5]), 0.0);
        assert_eq!(a.min_distance_sq(&[2.0, 0.5]), 1.0);
        assert_eq!(a.min_distance_sq(&[2.0, 2.0]), 2.0);
    }

    #[test]
    fn center_of_box() {
        let c = unit_box().center();
        assert_eq!(&c[..2], &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "invalid MBR dimensionality")]
    fn zero_dim_rejected() {
        let _ = Mbr::empty(0);
    }
}
