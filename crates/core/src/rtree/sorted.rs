//! The multi-sort-order partition representation.
//!
//! BULKLOADCHUNK keeps the data in `S` *sort orders* — here one per S₂
//! axis (points are degenerate rectangles, so the 2α rectangle coordinates
//! collapse to α). A binary split picks a prefix of one order; all other
//! orders are then stable-partitioned by membership so every order stays
//! sorted (the paper's SPLITONKEY, lines 6–7 of BESTBINARYSPLIT).

use std::collections::HashSet;

use vkg_sync::pool::Pool;
use vkg_sync::Mutex;

use crate::geometry::{Mbr, PointSet};

/// Below this many points the pooled entry points run the serial code
/// outright — fan-out bookkeeping would dominate the saved work.
const POOLED_MIN: usize = 4096;

/// Sorts one axis order with the canonical comparator (coordinate, then
/// id). Shared by the serial and pooled builders so both produce the
/// identical permutation.
fn sort_axis(points: &PointSet, axis: usize, order: &mut [u32]) {
    #[expect(
        clippy::expect_used,
        reason = "a NaN coordinate has no order to sort by; embedding import, try_assemble and every dynamic update refuse non-finite values, so only a hand-built PointSet can fire this, and the message names the cause"
    )]
    order.sort_unstable_by(|&a, &b| {
        points
            .coord(a, axis)
            .partial_cmp(&points.coord(b, axis))
            .expect("NaN coordinate in point set")
            .then(a.cmp(&b))
    });
}

/// A partition of point ids maintained in one sorted list per axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortOrders {
    orders: Vec<Vec<u32>>,
}

impl SortOrders {
    /// Builds the `S = α` sort orders of `ids` over `points`.
    ///
    /// Ties broken by id, so construction is deterministic.
    pub fn build(points: &PointSet, mut ids: Vec<u32>) -> Self {
        let dim = points.dim();
        let mut orders = Vec::with_capacity(dim);
        for axis in 0..dim {
            let mut order = if axis + 1 == dim {
                std::mem::take(&mut ids)
            } else {
                ids.clone()
            };
            sort_axis(points, axis, &mut order);
            orders.push(order);
        }
        Self { orders }
    }

    /// [`SortOrders::build`] with the per-axis sorts fanned out over a
    /// pool. Every axis runs the identical comparator, so the result
    /// equals the serial build at any width; a serial pool or a small
    /// input takes the serial code path outright.
    pub fn build_pooled(points: &PointSet, mut ids: Vec<u32>, pool: &Pool) -> Self {
        let dim = points.dim();
        if pool.is_serial() || ids.len() < POOLED_MIN || dim < 2 {
            return Self::build(points, ids);
        }
        let slots: Vec<Mutex<Vec<u32>>> = (0..dim)
            .map(|axis| {
                Mutex::new(if axis + 1 == dim {
                    std::mem::take(&mut ids)
                } else {
                    ids.clone()
                })
            })
            .collect();
        pool.run(dim, |axis| {
            let mut order = slots[axis].lock();
            sort_axis(points, axis, &mut order);
        });
        Self {
            orders: slots.into_iter().map(Mutex::into_inner).collect(),
        }
    }

    /// Number of points in the partition.
    #[inline]
    pub fn len(&self) -> usize {
        self.orders.first().map_or(0, Vec::len)
    }

    /// Whether the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sort orders `S`.
    pub fn num_orders(&self) -> usize {
        self.orders.len()
    }

    /// The ids in sort order `axis`.
    #[inline]
    pub fn ids(&self, axis: usize) -> &[u32] {
        &self.orders[axis]
    }

    /// Consumes the partition, returning the ids (first order).
    pub fn into_ids(mut self) -> Vec<u32> {
        self.orders.swap_remove(0)
    }

    /// The MBR of the partition: per-axis extremes read in O(α) from the
    /// sorted ends.
    pub fn mbr(&self, points: &PointSet) -> Mbr {
        let mut mbr = Mbr::empty(self.num_orders());
        if self.is_empty() {
            return mbr;
        }
        // The first/last entries of each order give that axis's extremes;
        // include both endpoint *points* so every axis of the MBR is set.
        #[expect(
            clippy::expect_used,
            reason = "every order holds the same len() points, and the empty case returned above"
        )]
        for order in &self.orders {
            mbr.include_point(points.point(order[0]));
            mbr.include_point(points.point(*order.last().expect("non-empty order")));
        }
        mbr
    }

    /// Number of points inside `region`.
    pub fn count_in_region(&self, points: &PointSet, region: &Mbr) -> usize {
        self.orders[0]
            .iter()
            .filter(|&&id| points.in_region(id, region))
            .count()
    }

    /// Splits off the first `count` ids of order `axis` (the paper's
    /// SPLITONKEY): returns `(low, high)` partitions with **all** orders
    /// maintained sorted via stable partition by membership.
    ///
    /// # Panics
    /// Panics if `count` is 0 or ≥ `len` (a split must be proper).
    pub fn split_by_prefix(&self, axis: usize, count: usize) -> (SortOrders, SortOrders) {
        let len = self.len();
        assert!(count > 0 && count < len, "improper split {count}/{len}");
        let low_set: HashSet<u32> = self.orders[axis][..count].iter().copied().collect();

        let mut low = Vec::with_capacity(self.num_orders());
        let mut high = Vec::with_capacity(self.num_orders());
        for order in &self.orders {
            let mut l = Vec::with_capacity(count);
            let mut h = Vec::with_capacity(len - count);
            for &id in order {
                if low_set.contains(&id) {
                    l.push(id);
                } else {
                    h.push(id);
                }
            }
            low.push(l);
            high.push(h);
        }
        (SortOrders { orders: low }, SortOrders { orders: high })
    }

    /// [`SortOrders::split_by_prefix`] with the per-order stable
    /// partitions fanned out over a pool. Membership comes from the
    /// same prefix set, so `(low, high)` equal the serial split at any
    /// width.
    ///
    /// # Panics
    /// Panics if `count` is 0 or ≥ `len` (a split must be proper).
    pub fn split_by_prefix_pooled(
        &self,
        axis: usize,
        count: usize,
        pool: &Pool,
    ) -> (SortOrders, SortOrders) {
        let len = self.len();
        if pool.is_serial() || len < POOLED_MIN || self.num_orders() < 2 {
            return self.split_by_prefix(axis, count);
        }
        assert!(count > 0 && count < len, "improper split {count}/{len}");
        let low_set: HashSet<u32> = self.orders[axis][..count].iter().copied().collect();
        let slots: Vec<Mutex<(Vec<u32>, Vec<u32>)>> = self
            .orders
            .iter()
            .map(|_| Mutex::new((Vec::new(), Vec::new())))
            .collect();
        pool.run(self.num_orders(), |o| {
            let mut l = Vec::with_capacity(count);
            let mut h = Vec::with_capacity(len - count);
            for &id in &self.orders[o] {
                if low_set.contains(&id) {
                    l.push(id);
                } else {
                    h.push(id);
                }
            }
            *slots[o].lock() = (l, h);
        });
        let mut low = Vec::with_capacity(self.num_orders());
        let mut high = Vec::with_capacity(self.num_orders());
        for slot in slots {
            let (l, h) = slot.into_inner();
            low.push(l);
            high.push(h);
        }
        (SortOrders { orders: low }, SortOrders { orders: high })
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.orders
            .iter()
            .map(|o| o.capacity() * std::mem::size_of::<u32>())
            .sum()
    }

    /// Inserts a point id into every order at its sorted position
    /// (dynamic updates, paper §VIII). O(S·n) worst case per insert.
    pub fn insert(&mut self, points: &PointSet, id: u32) {
        for (axis, order) in self.orders.iter_mut().enumerate() {
            let key = points.coord(id, axis);
            let pos = order.partition_point(|&other| {
                let oc = points.coord(other, axis);
                oc < key || (oc == key && other < id)
            });
            order.insert(pos, id);
        }
    }

    /// Removes a point id from every order; returns whether it was
    /// present.
    pub fn remove(&mut self, id: u32) -> bool {
        let mut found = false;
        for order in &mut self.orders {
            if let Some(pos) = order.iter().position(|&x| x == id) {
                order.remove(pos);
                found = true;
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 points in 2-D laid out so axis orders differ.
    fn fixture() -> (PointSet, SortOrders) {
        let ps = PointSet::from_rows(
            2,
            vec![
                0.0, 5.0, // id 0
                1.0, 4.0, // id 1
                2.0, 3.0, // id 2
                3.0, 2.0, // id 3
                4.0, 1.0, // id 4
                5.0, 0.0, // id 5
            ],
        );
        let ids = ps.all_ids();
        let so = SortOrders::build(&ps, ids);
        (ps, so)
    }

    #[test]
    fn orders_are_sorted_per_axis() {
        let (ps, so) = fixture();
        assert_eq!(so.num_orders(), 2);
        assert_eq!(so.ids(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(so.ids(1), &[5, 4, 3, 2, 1, 0]);
        assert_eq!(so.len(), 6);
        let _ = ps;
    }

    #[test]
    fn tie_break_by_id() {
        let ps = PointSet::from_rows(1, vec![7.0, 7.0, 3.0]);
        let so = SortOrders::build(&ps, vec![0, 1, 2]);
        assert_eq!(so.ids(0), &[2, 0, 1]);
    }

    #[test]
    fn mbr_covers_all_points() {
        let (ps, so) = fixture();
        let mbr = so.mbr(&ps);
        assert_eq!(mbr.min(0), 0.0);
        assert_eq!(mbr.max(0), 5.0);
        assert_eq!(mbr.min(1), 0.0);
        assert_eq!(mbr.max(1), 5.0);
    }

    #[test]
    fn split_preserves_sortedness_and_partitioning() {
        let (_ps, so) = fixture();
        let (low, high) = so.split_by_prefix(0, 2);
        assert_eq!(low.ids(0), &[0, 1]);
        assert_eq!(high.ids(0), &[2, 3, 4, 5]);
        // Axis-1 orders stay sorted (descending-x points ascend in y).
        assert_eq!(low.ids(1), &[1, 0]);
        assert_eq!(high.ids(1), &[5, 4, 3, 2]);
        assert_eq!(low.len() + high.len(), 6);
    }

    #[test]
    fn split_on_second_axis() {
        let (_ps, so) = fixture();
        let (low, high) = so.split_by_prefix(1, 3);
        // Lowest three y values are points 5, 4, 3.
        assert_eq!(low.ids(1), &[5, 4, 3]);
        assert_eq!(low.ids(0), &[3, 4, 5]);
        assert_eq!(high.ids(0), &[0, 1, 2]);
    }

    #[test]
    fn count_in_region() {
        let (ps, so) = fixture();
        let region = Mbr::of_ball(&[2.5, 2.5], 1.0);
        // Points (2,3) and (3,2) fall inside.
        assert_eq!(so.count_in_region(&ps, &region), 2);
        let everywhere = Mbr::of_ball(&[2.5, 2.5], 10.0);
        assert_eq!(so.count_in_region(&ps, &everywhere), 6);
    }

    #[test]
    fn into_ids_returns_one_copy() {
        let (_ps, so) = fixture();
        let ids = so.into_ids();
        assert_eq!(ids.len(), 6);
    }

    #[test]
    #[should_panic(expected = "improper split")]
    fn degenerate_split_rejected() {
        let (_ps, so) = fixture();
        let _ = so.split_by_prefix(0, 6);
    }

    #[test]
    fn empty_partition() {
        let ps = PointSet::from_rows(2, vec![]);
        let so = SortOrders::build(&ps, vec![]);
        assert!(so.is_empty());
        assert!(so.mbr(&ps).is_empty());
    }

    /// Enough points to clear `POOLED_MIN` so wide pools take the
    /// parallel paths for real.
    fn large_fixture() -> PointSet {
        let n = POOLED_MIN + 500;
        let coords: Vec<f64> = (0..n * 2)
            .map(|i| ((i as f64) * 0.618).sin() * 50.0)
            .collect();
        PointSet::from_rows(2, coords)
    }

    #[test]
    fn pooled_build_matches_serial_at_any_width() {
        let ps = large_fixture();
        let serial = SortOrders::build(&ps, ps.all_ids());
        for width in [1, 2, 4] {
            let pooled = SortOrders::build_pooled(&ps, ps.all_ids(), &Pool::new(width));
            assert_eq!(pooled, serial, "width {width} diverged");
        }
    }

    #[test]
    fn pooled_split_matches_serial() {
        let ps = large_fixture();
        let so = SortOrders::build(&ps, ps.all_ids());
        let cut = so.len() / 3;
        let (sl, sh) = so.split_by_prefix(1, cut);
        let (pl, ph) = so.split_by_prefix_pooled(1, cut, &Pool::new(4));
        assert_eq!(pl, sl);
        assert_eq!(ph, sh);
    }
}
