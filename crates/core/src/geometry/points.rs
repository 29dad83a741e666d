//! Flat storage of S₂ points.
//!
//! One point per entity, id-aligned with the knowledge graph's dense
//! entity ids. Struct-of-arrays layout: all coordinates in one `Vec<f64>`
//! with stride `dim`, which keeps sort-order construction and MBR sweeps
//! cache-friendly (see the workspace performance notes in DESIGN.md §3).

use super::mbr::{Mbr, MAX_DIM};
use crate::error::{check_finite, VkgError, VkgResult};

/// An immutable set of `α`-dimensional points, indexed by dense `u32` ids.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    coords: Vec<f64>,
}

/// `|p|²` in one fixed summation order (`p.iter().map(|c| c * c).sum()`):
/// the contour element sums add it member by member, and a check that
/// recomputes them gets their bits.
#[inline]
pub fn row_norm_sq(p: &[f64]) -> f64 {
    p.iter().map(|c| c * c).sum()
}

impl PointSet {
    /// Wraps a row-major `n × dim` coordinate matrix.
    ///
    /// # Panics
    /// Panics if `dim` is zero or exceeds [`MAX_DIM`], or if the matrix
    /// length is not a multiple of `dim`.
    pub fn from_rows(dim: usize, coords: Vec<f64>) -> Self {
        assert!(dim > 0, "point dimensionality must be positive");
        assert!(
            dim <= MAX_DIM,
            "index space dimensionality {dim} exceeds MAX_DIM={MAX_DIM}"
        );
        assert_eq!(coords.len() % dim, 0, "coordinate matrix shape mismatch");
        Self { dim, coords }
    }

    /// Dimensionality `α`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The coordinates of point `id`.
    #[inline]
    pub fn point(&self, id: u32) -> &[f64] {
        let i = id as usize * self.dim;
        &self.coords[i..i + self.dim]
    }

    /// One coordinate of point `id`.
    #[inline]
    pub fn coord(&self, id: u32, axis: usize) -> f64 {
        debug_assert!(axis < self.dim);
        self.coords[id as usize * self.dim + axis]
    }

    /// Squared Euclidean distance from point `id` to `target`.
    #[inline]
    pub fn distance_sq(&self, id: u32, target: &[f64]) -> f64 {
        self.point(id)
            .iter()
            .zip(target)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// The minimum bounding region of a set of point ids.
    ///
    /// Returns an empty MBR if `ids` is empty.
    pub fn mbr_of(&self, ids: &[u32]) -> Mbr {
        let mut mbr = Mbr::empty(self.dim);
        for &id in ids {
            mbr.include_point(self.point(id));
        }
        mbr
    }

    /// Whether point `id` lies inside `region` (inclusive bounds).
    #[inline]
    pub fn in_region(&self, id: u32, region: &Mbr) -> bool {
        region.contains_point(self.point(id))
    }

    /// Refuses a set holding a NaN or ±∞ coordinate: such a point has no
    /// place in a sort order ([`crate::rtree::SortOrders`]).
    pub(crate) fn check_finite(&self) -> VkgResult<()> {
        check_finite("projected entity embedding", &self.coords)
    }

    /// All ids `0..len` in order.
    pub fn all_ids(&self) -> Vec<u32> {
        (0..self.len() as u32).collect()
    }

    /// Appends a point, returning its id (dynamic updates, paper §VIII).
    ///
    /// # Errors
    /// [`VkgError::Mismatch`] if the coordinate count does not match
    /// the dimensionality; [`VkgError::InvalidParameter`] if the dense
    /// `u32` id space is exhausted. This path is reachable from served
    /// dynamic updates, so it must not panic.
    pub fn try_push(&mut self, coords: &[f64]) -> VkgResult<u32> {
        if coords.len() != self.dim {
            return Err(VkgError::Mismatch {
                what: "point dimensionality",
                expected: self.dim,
                found: coords.len(),
            });
        }
        let Ok(id) = u32::try_from(self.len()) else {
            return Err(VkgError::InvalidParameter(format!(
                "point id space exhausted at {} points",
                self.len()
            )));
        };
        self.coords.extend_from_slice(coords);
        Ok(id)
    }

    /// Overwrites the coordinates of an existing point.
    ///
    /// # Errors
    /// [`VkgError::Mismatch`] on a shape mismatch,
    /// [`VkgError::InvalidParameter`] on an out-of-range id — both
    /// reachable from served dynamic updates, so no panics here.
    pub fn try_set(&mut self, id: u32, coords: &[f64]) -> VkgResult<()> {
        if coords.len() != self.dim {
            return Err(VkgError::Mismatch {
                what: "point dimensionality",
                expected: self.dim,
                found: coords.len(),
            });
        }
        if id as usize >= self.len() {
            return Err(VkgError::InvalidParameter(format!(
                "point id {id} out of range (len {})",
                self.len()
            )));
        }
        let i = id as usize * self.dim;
        self.coords[i..i + self.dim].copy_from_slice(coords);
        Ok(())
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.coords.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PointSet {
        // Four points at unit-square corners in 2-D.
        PointSet::from_rows(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    }

    #[test]
    fn shape_and_access() {
        let ps = grid();
        assert_eq!(ps.dim(), 2);
        assert_eq!(ps.len(), 4);
        assert_eq!(ps.point(2), &[0.0, 1.0]);
        assert_eq!(ps.coord(3, 1), 1.0);
    }

    #[test]
    fn distances() {
        let ps = grid();
        assert_eq!(ps.distance_sq(0, &[1.0, 1.0]), 2.0);
        assert_eq!(ps.distance_sq(3, &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn bounding_region() {
        let ps = grid();
        let mbr = ps.mbr_of(&[0, 3]);
        assert_eq!(mbr.min(0), 0.0);
        assert_eq!(mbr.max(0), 1.0);
        assert_eq!(mbr.min(1), 0.0);
        assert_eq!(mbr.max(1), 1.0);
        let sub = ps.mbr_of(&[1]);
        assert_eq!(sub.min(0), 1.0);
        assert_eq!(sub.max(0), 1.0);
    }

    #[test]
    fn region_membership() {
        let ps = grid();
        let region = ps.mbr_of(&[0, 1]); // bottom edge
        assert!(ps.in_region(0, &region));
        assert!(ps.in_region(1, &region));
        assert!(!ps.in_region(2, &region));
    }

    #[test]
    fn all_ids_dense() {
        assert_eq!(grid().all_ids(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn coordinates_track_mutations() {
        let mut ps = grid();
        assert_eq!(row_norm_sq(ps.point(3)), 2.0);
        let id = ps.try_push(&[3.0, 4.0]).expect("well-shaped push");
        assert_eq!(id, 4);
        assert_eq!(ps.point(4), &[3.0, 4.0]);
        assert_eq!(row_norm_sq(ps.point(4)), 25.0);
        ps.try_set(0, &[2.0, 0.0]).expect("well-shaped set");
        assert_eq!(ps.point(0), &[2.0, 0.0]);
        assert_eq!(ps.len(), 5);
        assert_eq!(ps.bytes(), 10 * std::mem::size_of::<f64>());
    }

    #[test]
    fn dynamic_shape_errors_are_typed() {
        let mut ps = grid();
        assert!(matches!(
            ps.try_push(&[1.0, 2.0, 3.0]),
            Err(VkgError::Mismatch {
                what: "point dimensionality",
                expected: 2,
                found: 3,
            })
        ));
        assert!(matches!(
            ps.try_set(0, &[1.0]),
            Err(VkgError::Mismatch { .. })
        ));
        assert!(matches!(
            ps.try_set(99, &[1.0, 2.0]),
            Err(VkgError::InvalidParameter(_))
        ));
        // Failed mutations leave the set untouched.
        assert_eq!(ps.len(), 4);
        assert_eq!(ps.point(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DIM")]
    fn oversized_dim_rejected() {
        let _ = PointSet::from_rows(MAX_DIM + 1, vec![0.0; (MAX_DIM + 1) * 2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn ragged_matrix_rejected() {
        let _ = PointSet::from_rows(3, vec![0.0; 7]);
    }
}
