//! The multi-sort-order partition representation.
//!
//! BULKLOADCHUNK keeps the data in `S` *sort orders* — here one per S₂
//! axis (points are degenerate rectangles, so the 2α rectangle coordinates
//! collapse to α). A binary split picks a prefix of one order; all other
//! orders are then stable-partitioned by membership so every order stays
//! sorted (the paper's SPLITONKEY, lines 6–7 of BESTBINARYSPLIT).
//!
//! Every order on axis `a` is sorted by one integer key per id,
//! `(coord_key(coord(id, a)), id)`: sorting, inserting and removing all
//! compare that key and nothing else. A split reads no coordinate at
//! all: the split axis's prefix marks its ids in a per-thread id bitmap,
//! and every other order is partitioned by one bit test per id.

use std::cell::{RefCell, RefMut};

use vkg_sync::pool::Pool;
use vkg_sync::Mutex;

use crate::geometry::{Mbr, PointSet};

/// Below this many points the pooled entry points run the serial code
/// outright — fan-out bookkeeping would dominate the saved work.
const POOLED_MIN: usize = 4096;

/// Maps a finite coordinate to a `u64` that orders exactly as the
/// coordinate does: `a < b` iff `coord_key(a) < coord_key(b)`. −0.0 is
/// folded onto +0.0 first, so the two zeros, which compare equal as
/// floats, get one key and tie on id.
#[inline]
fn coord_key(c: f64) -> u64 {
    let c = if c == 0.0 { 0.0 } else { c };
    let bits = c.to_bits();
    // Non-negative floats order as their bits with the sign bit set;
    // negative ones order as their bits inverted.
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// The order key of point `id` on `axis`.
#[inline]
fn order_key(points: &PointSet, axis: usize, id: u32) -> (u64, u32) {
    (coord_key(points.coord(id, axis)), id)
}

/// Sorts `ids` into axis `axis`'s order: one key extraction per id into
/// the reusable `keyed` buffer, one integer sort, one write back.
/// Shared by the serial and pooled builders so both produce the
/// identical permutation.
fn sort_axis(points: &PointSet, axis: usize, ids: &mut [u32], keyed: &mut Vec<(u64, u32)>) {
    keyed.clear();
    keyed.extend(ids.iter().map(|&id| order_key(points, axis, id)));
    keyed.sort_unstable();
    for (slot, &(_, id)) in ids.iter_mut().zip(keyed.iter()) {
        *slot = id;
    }
}

/// Where `id` sits in `order`, the ids of one axis sorted by key: the
/// number of ids whose key is below `id`'s.
fn position(points: &PointSet, axis: usize, order: &[u32], id: u32) -> usize {
    let key = order_key(points, axis, id);
    order.partition_point(|&other| order_key(points, axis, other) < key)
}

thread_local! {
    /// One bit per point id, clear between splits. It grows to the
    /// largest id a split on this thread has marked and is then reused,
    /// so a split allocates nothing in proportion to the id space.
    static LOW_SIDE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// This thread's bitmap with the ids of `low` set; dropping it clears
/// them again, on unwind too, so no later split reads a stale bit.
struct Marked<'a> {
    bits: RefMut<'a, Vec<u64>>,
    low: &'a [u32],
}

impl Drop for Marked<'_> {
    fn drop(&mut self) {
        // Every set bit belongs to `low`, so zeroing their words whole
        // leaves the bitmap clear.
        for &id in self.low {
            if let Some(word) = self.bits.get_mut(id as usize / 64) {
                *word = 0;
            }
        }
    }
}

/// Runs `f` on this thread's id bitmap with exactly the ids of `low`
/// set, then clears them again.
fn with_low_side<R>(low: &[u32], f: impl FnOnce(&[u64]) -> R) -> R {
    LOW_SIDE.with(|cell| {
        let mut marked = Marked {
            bits: cell.borrow_mut(),
            low,
        };
        for &id in low {
            let word = id as usize / 64;
            if word >= marked.bits.len() {
                marked.bits.resize(word + 1, 0);
            }
            marked.bits[word] |= 1 << (id % 64);
        }
        f(&marked.bits)
    })
}

/// Whether `id`'s bit is set in `bits`.
#[inline]
fn is_set(bits: &[u64], id: u32) -> bool {
    bits.get(id as usize / 64)
        .is_some_and(|word| word >> (id % 64) & 1 == 1)
}

/// A partition of point ids maintained in one sorted list per axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortOrders {
    orders: Vec<Vec<u32>>,
}

impl SortOrders {
    /// Builds the `S = α` sort orders of `ids` over `points`.
    ///
    /// Each order is sorted by coordinate with ties broken by id, so
    /// construction is deterministic; −0.0 and +0.0 tie. Every
    /// coordinate must be finite: a NaN has no place in an order (its
    /// position would be arbitrary). Every entry that creates a
    /// coordinate refuses a non-finite one before anything sorts —
    /// [`crate::VirtualKnowledgeGraph::try_assemble`],
    /// [`crate::index::CrackingIndex::insert_point`] and
    /// [`crate::index::CrackingIndex::update_point`].
    pub fn build(points: &PointSet, mut ids: Vec<u32>) -> Self {
        let dim = points.dim();
        let mut keyed = Vec::with_capacity(ids.len());
        let mut orders = Vec::with_capacity(dim);
        for axis in 0..dim {
            let mut order = if axis + 1 == dim {
                std::mem::take(&mut ids)
            } else {
                ids.clone()
            };
            sort_axis(points, axis, &mut order, &mut keyed);
            orders.push(order);
        }
        Self { orders }
    }

    /// [`SortOrders::build`] with the per-axis sorts fanned out over a
    /// pool. Every axis sorts by the identical key, so the result equals
    /// the serial build at any width; a serial pool or a small input
    /// takes the serial code path outright.
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
            let mut keyed = Vec::with_capacity(order.len());
            sort_axis(points, axis, &mut order, &mut keyed);
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
        // The first/last entries of each order give that axis's extremes;
        // include both endpoint *points* so every axis of the MBR is set.
        for order in &self.orders {
            if let (Some(&first), Some(&last)) = (order.first(), order.last()) {
                mbr.include_point(points.point(first));
                mbr.include_point(points.point(last));
            }
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

    /// Panics unless splitting off `count` ids is proper: 0 < `count` <
    /// `len`.
    fn check_proper(&self, count: usize) {
        let len = self.len();
        assert!(count > 0 && count < len, "improper split {count}/{len}");
    }

    /// Order `o`'s ids split into the `count` whose bit is set in
    /// `low_side` and the rest, each side in order: a slice of the split
    /// axis's own order, a stable partition of any other.
    fn split_order(
        &self,
        low_side: &[u64],
        axis: usize,
        count: usize,
        o: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let order = &self.orders[o];
        if o == axis {
            return (order[..count].to_vec(), order[count..].to_vec());
        }
        // Which side an id goes to is as good as random, so a branch on
        // it mispredicts often: every id is written to both sides and
        // only the side it belongs to moves on. Each side has one slot
        // of slack for the write that does not stay.
        let mut low = vec![0u32; count + 1];
        let mut high = vec![0u32; order.len() - count + 1];
        let (mut l, mut h) = (0, 0);
        for &id in order {
            let is_low = usize::from(is_set(low_side, id));
            low[l] = id;
            high[h] = id;
            l += is_low;
            h += 1 - is_low;
        }
        low.truncate(count);
        high.truncate(order.len() - count);
        (low, high)
    }

    /// Splits off the first `count` ids of order `axis` (the paper's
    /// SPLITONKEY): returns `(low, high)` partitions with **all** orders
    /// maintained sorted. Order `axis` is sliced; every other order is
    /// stable-partitioned by membership in the prefix, read from the
    /// thread's id bitmap.
    ///
    /// # Panics
    /// Panics if `count` is 0 or ≥ `len` (a split must be proper).
    pub fn split_by_prefix(&self, axis: usize, count: usize) -> (SortOrders, SortOrders) {
        self.check_proper(count);
        with_low_side(&self.orders[axis][..count], |low_side| {
            let mut low = Vec::with_capacity(self.num_orders());
            let mut high = Vec::with_capacity(self.num_orders());
            for o in 0..self.num_orders() {
                let (l, h) = self.split_order(low_side, axis, count, o);
                low.push(l);
                high.push(h);
            }
            (SortOrders { orders: low }, SortOrders { orders: high })
        })
    }

    /// [`SortOrders::split_by_prefix`] with the per-order stable
    /// partitions fanned out over a pool. The workers share the calling
    /// thread's bitmap, so `(low, high)` equal the serial split at any
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
        if pool.is_serial() || self.len() < POOLED_MIN || self.num_orders() < 2 {
            return self.split_by_prefix(axis, count);
        }
        self.check_proper(count);
        let slots: Vec<Mutex<(Vec<u32>, Vec<u32>)>> = self
            .orders
            .iter()
            .map(|_| Mutex::new((Vec::new(), Vec::new())))
            .collect();
        with_low_side(&self.orders[axis][..count], |low_side| {
            pool.run(self.num_orders(), |o| {
                *slots[o].lock() = self.split_order(low_side, axis, count, o);
            });
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
    /// (dynamic updates, paper §VIII): a binary search per order, then
    /// an O(n) shift. Returns where it went in the first order.
    pub fn insert(&mut self, points: &PointSet, id: u32) -> usize {
        let mut first = 0;
        for (axis, order) in self.orders.iter_mut().enumerate() {
            let pos = position(points, axis, order, id);
            order.insert(pos, id);
            if axis == 0 {
                first = pos;
            }
        }
        first
    }

    /// Removes a point id from every order; returns where it was in the
    /// first order, or `None` if it was not present. Each order is
    /// binary-searched for the id's key, so the point's coordinates must
    /// still be the ones it was inserted or built with: a move detaches
    /// the point before it changes them.
    pub fn remove(&mut self, points: &PointSet, id: u32) -> Option<usize> {
        let mut first = None;
        for (axis, order) in self.orders.iter_mut().enumerate() {
            let pos = position(points, axis, order, id);
            if order.get(pos) == Some(&id) {
                order.remove(pos);
                if axis == 0 {
                    first = Some(pos);
                }
            }
        }
        first
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

    /// The comparator sort the order key replaces: coordinate by
    /// `partial_cmp`, then id. The oracle every keyed operation is held
    /// to.
    fn oracle_orders(points: &PointSet, ids: &[u32]) -> Vec<Vec<u32>> {
        (0..points.dim())
            .map(|axis| {
                let mut order = ids.to_vec();
                order.sort_by(|&a, &b| {
                    points
                        .coord(a, axis)
                        .partial_cmp(&points.coord(b, axis))
                        .unwrap()
                        .then(a.cmp(&b))
                });
                order
            })
            .collect()
    }

    /// The membership partition the key comparison replaces: a
    /// `HashSet` of the prefix, every order filtered through it.
    fn oracle_split(so: &SortOrders, axis: usize, count: usize) -> (SortOrders, SortOrders) {
        let low_set: std::collections::HashSet<u32> =
            so.ids(axis)[..count].iter().copied().collect();
        let (low, high) = so
            .orders
            .iter()
            .map(|order| order.iter().partition(|id| low_set.contains(id)))
            .unzip();
        (SortOrders { orders: low }, SortOrders { orders: high })
    }

    /// The key-comparing SPLITONKEY the bitmap replaces: every other
    /// order keeps an id low iff its key on `axis` is at most the key of
    /// the prefix's last id.
    fn key_split(
        so: &SortOrders,
        points: &PointSet,
        axis: usize,
        count: usize,
    ) -> (SortOrders, SortOrders) {
        let pivot = order_key(points, axis, so.ids(axis)[count - 1]);
        let (low, high) = so
            .orders
            .iter()
            .map(|order| {
                order
                    .iter()
                    .partition(|&&id| order_key(points, axis, id) <= pivot)
            })
            .unzip();
        (SortOrders { orders: low }, SortOrders { orders: high })
    }

    /// Coordinates that stress the key: both zeros, subnormals, values
    /// near the ends of the range, and heavy duplication, mixed with
    /// ordinary values from a xorshift stream.
    fn awkward_points(n: usize, dim: usize, seed: u64) -> PointSet {
        const PALETTE: [f64; 10] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            1.5,
        ];
        let mut state = seed | 1;
        let coords = (0..n * dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 4 {
                    0 | 1 => PALETTE[(state >> 8) as usize % PALETTE.len()],
                    2 => ((state >> 8) % 7) as f64 - 3.0,
                    _ => ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3,
                }
            })
            .collect();
        PointSet::from_rows(dim, coords)
    }

    #[test]
    fn coord_key_orders_like_partial_cmp() {
        let values = [
            f64::MIN,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 4.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE / 4.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::MAX,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    coord_key(a).cmp(&coord_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
        }
        assert_eq!(coord_key(-0.0), coord_key(0.0));
    }

    #[test]
    fn zeros_tie_on_id_in_either_input_order() {
        for (a, b) in [(-0.0, 0.0), (0.0, -0.0)] {
            let ps = PointSet::from_rows(1, vec![a, b, -1.0]);
            for ids in [vec![0, 1, 2], vec![2, 1, 0]] {
                let so = SortOrders::build(&ps, ids);
                assert_eq!(so.ids(0), &[2, 0, 1]);
            }
        }
    }

    #[test]
    fn keyed_build_matches_comparator_sort() {
        let pools = [Pool::new(1), Pool::new(2), Pool::new(4)];
        for (n, dim) in [(0, 2), (1, 1), (2, 3), (3, 2), (5, 3), (64, 2), (999, 3)]
            .into_iter()
            .chain([(POOLED_MIN - 1, 2), (POOLED_MIN, 3), (5_000, 3)])
        {
            let ps = awkward_points(n, dim, n as u64 + 7);
            let mut ids = ps.all_ids();
            // A scrambled input order: the key, not the input, decides.
            ids.reverse();
            ids.rotate_left(n / 3);
            let oracle = oracle_orders(&ps, &ids);
            let serial = SortOrders::build(&ps, ids.clone());
            assert_eq!(serial.orders, oracle, "n {n}");
            for pool in &pools {
                let pooled = SortOrders::build_pooled(&ps, ids.clone(), pool);
                assert_eq!(pooled.orders, oracle, "n {n} width {}", pool.width());
            }
        }
    }

    #[test]
    fn keyed_split_matches_hashset_oracle() {
        let wide = Pool::new(2);
        for (n, dim) in [(2, 2), (7, 3), (200, 3), (POOLED_MIN + 300, 3)] {
            let ps = awkward_points(n, dim, 31 + n as u64);
            let so = SortOrders::build(&ps, ps.all_ids());
            for axis in 0..dim {
                let mut straddled = false;
                for count in [1, n / 3, n / 2, n - 1].into_iter().filter(|&c| c > 0) {
                    let order = so.ids(axis);
                    straddled |= ps.coord(order[count - 1], axis) == ps.coord(order[count], axis);
                    let oracle = oracle_split(&so, axis, count);
                    assert_eq!(so.split_by_prefix(axis, count), oracle);
                    assert_eq!(so.split_by_prefix_pooled(axis, count, &wide), oracle);
                }
                if n >= 200 {
                    assert!(straddled, "no cut between equal coordinates on axis {axis}");
                }
            }
        }
    }

    /// The bitmap partition equals the key-comparing one on awkward
    /// coordinates, on partitions that hold a scattered subset of a large
    /// id space (so the bitmap grows mid-split), and across many splits
    /// in a row on one thread (so each must leave the bitmap clear).
    #[test]
    fn bitmap_split_matches_the_key_oracle() {
        let wide = Pool::new(2);
        for (n, dim, keep) in [(2, 2, 1), (9, 1, 1), (300, 3, 1), (70_000, 3, 11)] {
            let ps = awkward_points(n, dim, 7 + n as u64);
            // Every `keep`-th id, the largest first: ids far apart.
            let ids: Vec<u32> = ps.all_ids().into_iter().rev().step_by(keep).collect();
            let so = SortOrders::build(&ps, ids);
            let len = so.len();
            for axis in 0..dim {
                for count in [1, 2, len / 3, len / 2, len - 1] {
                    if count == 0 || count >= len {
                        continue;
                    }
                    let oracle = key_split(&so, &ps, axis, count);
                    assert_eq!(so.split_by_prefix(axis, count), oracle, "n {n} axis {axis}");
                    assert_eq!(so.split_by_prefix_pooled(axis, count, &wide), oracle);
                    // Split the low side again: a second split on the
                    // same thread reads a bitmap the first one cleared.
                    let (low, _) = oracle;
                    if low.len() > 1 {
                        let again = low.len() / 2 + 1;
                        let inner = key_split(&low, &ps, axis, again.min(low.len() - 1));
                        assert_eq!(low.split_by_prefix(axis, again.min(low.len() - 1)), inner);
                    }
                }
            }
        }
    }

    /// A split that unwinds still clears the bits it set: the next split
    /// on the thread must not read them.
    #[test]
    fn an_unwinding_split_leaves_the_bitmap_clear() {
        let low = [3u32, 700, 64];
        let unwound = std::panic::catch_unwind(|| {
            with_low_side(&low, |bits| {
                assert!(low.iter().all(|&id| is_set(bits, id)));
                panic!("mid-split");
            })
        });
        assert!(unwound.is_err());
        LOW_SIDE.with(|cell| assert!(cell.borrow().iter().all(|&word| word == 0)));
    }

    #[test]
    fn insert_and_remove_round_trip_among_equal_keys() {
        let n = 600;
        let ps = awkward_points(n, 3, 99);
        let all = ps.all_ids();
        // Some points repeat another's coordinates exactly.
        assert!(all
            .iter()
            .any(|&a| all.iter().any(|&b| a != b && ps.point(a) == ps.point(b))));
        let (start, rest) = all.split_at(n / 2);
        let mut so = SortOrders::build(&ps, start.to_vec());
        let mut members = start.to_vec();
        // Insert the rest in a scrambled order.
        for &id in rest.iter().rev().step_by(2).chain(rest.iter().step_by(2)) {
            let at = so.insert(&ps, id);
            assert_eq!(so.ids(0)[at], id);
            members.push(id);
            if members.len() % 50 == 0 {
                assert_eq!(so.orders, oracle_orders(&ps, &members));
            }
        }
        assert_eq!(so.orders, oracle_orders(&ps, &all));
        // Remove every third id; a removed id is not found again, even
        // where another id with its coordinates is still there.
        for &id in all.iter().step_by(3) {
            let at = so.ids(0).iter().position(|&m| m == id);
            assert_eq!(so.remove(&ps, id), at, "id {id}");
            assert_eq!(so.remove(&ps, id), None, "id {id} twice");
            members.retain(|&m| m != id);
        }
        assert_eq!(so.orders, oracle_orders(&ps, &members));
        for &id in &members {
            assert!(so.remove(&ps, id).is_some());
        }
        assert!(so.is_empty());
    }
}
