//! Dynamic updates of the cracking index (the paper's §VIII future work:
//! "we plan to do incremental updates on our partial index").
//!
//! The uneven tree makes this natural: an insert descends to the contour
//! element covering the new point (least MBR enlargement, as in a classic
//! R-tree insert) and splices the point into that element's sorted
//! orders; an overfull leaf simply *reverts to an unsplit partition* and
//! re-cracks lazily when a query next needs it — no eager re-balancing.
//! Removals detach the point from its element and tombstone the id;
//! element MBRs stay conservative (they may over-cover after removals,
//! which affects pruning quality, never correctness). Either edit makes
//! the same edit to the element's packed coordinates
//! ([`super::Node::coords`]) and drops its stored member sums
//! ([`super::Node::sums`]): its readers sum the members again until a
//! crack reinstalls it.

use crate::error::{check_finite, VkgError, VkgResult};
use crate::geometry::PointSet;
use crate::rtree::{height_for, SortOrders};

use super::arena::pack;
use super::{CrackingIndex, Node, NodeId, NodeKind};

impl CrackingIndex {
    /// Inserts a new point, returning its id (= the new entity's dense
    /// id). O(height + S·|element|).
    ///
    /// # Errors
    /// Typed [`VkgError`]s for a shape mismatch, a non-finite
    /// coordinate or id-space overflow — this path is reachable from
    /// served dynamic updates (`AddFactDynamic`), so it must not panic.
    pub fn insert_point(&mut self, coords: &[f64]) -> VkgResult<u32> {
        check_finite("point coordinate", coords)?;
        let id = self.points.try_push(coords)?;
        self.attach_point(id);
        Ok(id)
    }

    /// Moves an existing point to new coordinates (an embedding update
    /// after local graph changes). The id is stable.
    ///
    /// # Errors
    /// Typed [`VkgError`]s for an unknown or tombstoned id, a shape
    /// mismatch or a non-finite coordinate — served dynamic updates
    /// reach this, so no panics.
    pub fn update_point(&mut self, id: u32, coords: &[f64]) -> VkgResult<()> {
        // Validate *before* detaching so a failed update leaves the
        // index untouched.
        self.check_update(id, coords)?;
        let detached = self.detach_point(id);
        debug_assert!(detached, "live point must sit in some element");
        self.points.try_set(id, coords)?;
        self.attach_point(id);
        Ok(())
    }

    /// Everything [`CrackingIndex::update_point`] can refuse, checked
    /// without touching the tree: `id` must name a live point and
    /// `coords` must be finite and of the index's dimensionality. A
    /// write that moves several points asks this of all of them first,
    /// before it logs anything.
    pub fn check_update(&self, id: u32, coords: &[f64]) -> VkgResult<()> {
        if (id as usize) >= self.points.len() {
            return Err(VkgError::InvalidParameter(format!("unknown point id {id}")));
        }
        if self.removed.contains(&id) {
            return Err(VkgError::InvalidParameter(format!(
                "point {id} was removed"
            )));
        }
        if coords.len() != self.points.dim() {
            return Err(VkgError::Mismatch {
                what: "point dimensionality",
                expected: self.points.dim(),
                found: coords.len(),
            });
        }
        check_finite("point coordinate", coords)
    }

    /// Removes a point from the index (tombstoned; ids are never reused).
    /// Returns whether the point was present and live.
    pub fn remove_point(&mut self, id: u32) -> bool {
        if (id as usize) >= self.points.len() || self.removed.contains(&id) {
            return false;
        }
        let detached = self.detach_point(id);
        if detached {
            self.removed.insert(id);
        }
        detached
    }

    /// Number of live (non-tombstoned) points.
    pub fn live_points(&self) -> usize {
        self.points.len() - self.removed.len()
    }

    /// Whether `id` has been tombstoned by [`CrackingIndex::remove_point`].
    pub fn is_removed(&self, id: u32) -> bool {
        self.removed.contains(&id)
    }

    /// Descends from the root by least MBR enlargement and splices the
    /// point into the reached contour element.
    fn attach_point(&mut self, id: u32) {
        let point: Vec<f64> = self.points.point(id).to_vec();
        let mut cur = self.root;
        loop {
            // Expand the node's region on the way down.
            self.nodes[cur as usize].mbr.include_point(&point);
            let next = match &self.nodes[cur as usize].kind {
                #[expect(
                    clippy::expect_used,
                    reason = "split never installs a childless Internal; guarded by the debug_assert above"
                )]
                NodeKind::Internal(children) => {
                    debug_assert!(!children.is_empty());
                    children
                        .iter()
                        .copied()
                        .min_by(|&a, &b| {
                            let ea = self.enlargement(a, &point);
                            let eb = self.enlargement(b, &point);
                            ea.total_cmp(&eb).then_with(|| {
                                self.nodes[a as usize]
                                    .mbr
                                    .volume()
                                    .total_cmp(&self.nodes[b as usize].mbr.volume())
                            })
                        })
                        .expect("internal node has children")
                }
                NodeKind::Leaf(_) | NodeKind::Unsplit(_) => break,
            };
            cur = next;
        }

        let leaf_capacity = self.params.leaf_capacity;
        let fanout = self.params.fanout;
        // Split the borrow: the sorted insert reads point coordinates.
        let points = &self.points;
        let node = &mut self.nodes[cur as usize];
        node.sums = None;
        match &mut node.kind {
            NodeKind::Leaf(ids) => {
                ids.push(id);
                node.coords.extend_from_slice(&point);
                if ids.len() > leaf_capacity {
                    // Overflow: revert to an unsplit partition; the next
                    // query that needs this region re-cracks it.
                    let orders = SortOrders::build(points, std::mem::take(ids));
                    node.height = height_for(orders.len(), leaf_capacity, fanout);
                    node.kind = NodeKind::Unsplit(orders);
                    node.coords = pack(points, &node.kind).0;
                }
            }
            NodeKind::Unsplit(orders) => {
                let at = orders.insert(points, id);
                node.height = height_for(orders.len(), leaf_capacity, fanout);
                node.insert_row(at, &point);
            }
            #[expect(
                clippy::unreachable,
                reason = "the descent loop above only breaks on Leaf or Unsplit"
            )]
            NodeKind::Internal(_) => unreachable!("descent ends at a contour element"),
        }
    }

    /// MBR-volume enlargement of node `n` if it absorbed `point`.
    fn enlargement(&self, n: NodeId, point: &[f64]) -> f64 {
        let mbr = &self.nodes[n as usize].mbr;
        let mut grown = *mbr;
        grown.include_point(point);
        grown.volume() - mbr.volume()
    }

    /// Removes `id` from the contour element holding it. Returns whether
    /// it was found. Element MBRs are left as (valid) over-approximations.
    ///
    /// Runs while the point still has the coordinates it was attached
    /// with: the elements are searched by them, and an unsplit element's
    /// orders are binary-searched by them.
    fn detach_point(&mut self, id: u32) -> bool {
        let point: Vec<f64> = self.points.point(id).to_vec();
        // Search all elements whose region covers the point's coordinates.
        let mut stack = vec![self.root];
        while let Some(cur) = stack.pop() {
            let node = &mut self.nodes[cur as usize];
            if !node.mbr.contains_point(&point) {
                continue;
            }
            if let NodeKind::Internal(children) = &node.kind {
                stack.extend(children.iter().copied());
            } else if take_member(&self.points, node, id) {
                return true;
            }
        }
        // Every region covers its members, so the descent finds every
        // live point; a full contour sweep backs it up all the same.
        self.contour()
            .into_iter()
            .any(|cur| take_member(&self.points, &mut self.nodes[cur as usize], id))
    }
}

/// Removes `id` from contour element `node`, if it is there, with its
/// packed row; an edited element's sums are stale and are dropped.
fn take_member(points: &PointSet, node: &mut Node, id: u32) -> bool {
    let dim = points.dim();
    match &mut node.kind {
        NodeKind::Leaf(ids) => {
            let Some(at) = ids.iter().position(|&x| x == id) else {
                return false;
            };
            ids.swap_remove(at);
            node.swap_remove_row(at, dim);
        }
        NodeKind::Unsplit(orders) => {
            let Some(at) = orders.remove(points, id) else {
                return false;
            };
            node.remove_row(at, dim);
        }
        NodeKind::Internal(_) => return false,
    }
    node.sums = None;
    true
}

#[cfg(test)]
mod tests {
    use crate::config::SplitStrategy;
    use crate::geometry::{Mbr, PointSet};
    use crate::index::CrackingIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        PointSet::from_rows(3, (0..n * 3).map(|_| rng.gen_range(-10.0..10.0)).collect())
    }

    fn search_ids(idx: &mut CrackingIndex, q: &Mbr) -> Vec<u32> {
        let mut out = Vec::new();
        idx.search_region(q, |id| out.push(id));
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_into_fresh_index() {
        let mut idx = CrackingIndex::new(random_points(100, 1), 8, 4, 2.0, SplitStrategy::Greedy);
        let id = idx
            .insert_point(&[1.0, 2.0, 3.0])
            .expect("well-shaped insert");
        assert_eq!(id, 100);
        idx.check_invariants();
        let q = Mbr::of_ball(&[1.0, 2.0, 3.0], 0.1);
        assert!(search_ids(&mut idx, &q).contains(&id));
    }

    #[test]
    fn insert_after_cracking_lands_in_leaf() {
        let mut idx = CrackingIndex::new(random_points(2_000, 2), 8, 4, 2.0, SplitStrategy::Greedy);
        let target = [0.5, 0.5, 0.5];
        idx.crack(&Mbr::of_ball(&target, 2.0));
        let nodes_before = idx.node_count();
        let id = idx.insert_point(&target).expect("well-shaped insert");
        idx.check_invariants();
        assert_eq!(idx.node_count(), nodes_before, "insert allocates no nodes");
        let q = Mbr::of_ball(&target, 0.05);
        assert!(search_ids(&mut idx, &q).contains(&id));
    }

    #[test]
    fn leaf_overflow_reverts_to_partition_and_recracks() {
        let mut idx = CrackingIndex::new(random_points(500, 3), 4, 2, 2.0, SplitStrategy::Greedy);
        let spot = [7.0, 7.0, 7.0];
        idx.crack(&Mbr::of_ball(&spot, 1.0));
        // Stuff one location until leaves overflow repeatedly.
        let mut ids = Vec::new();
        for i in 0..40 {
            ids.push(
                idx.insert_point(&[7.0 + i as f64 * 1e-3, 7.0, 7.0])
                    .expect("well-shaped insert"),
            );
        }
        idx.check_invariants();
        // A fresh crack tidies the overflowed partitions back to ≤ N.
        idx.crack(&Mbr::of_ball(&spot, 1.0));
        idx.check_invariants();
        let q = Mbr::of_ball(&spot, 0.5);
        let found = search_ids(&mut idx, &q);
        for id in ids {
            assert!(found.contains(&id));
        }
    }

    #[test]
    fn remove_point_tombstones() {
        let mut idx = CrackingIndex::new(random_points(300, 4), 8, 4, 2.0, SplitStrategy::Greedy);
        idx.crack(&Mbr::of_ball(&[0.0, 0.0, 0.0], 5.0));
        assert!(idx.remove_point(5));
        assert!(!idx.remove_point(5), "double remove is a no-op");
        assert!(idx.is_removed(5));
        assert_eq!(idx.live_points(), 299);
        idx.check_invariants();
        let everywhere = Mbr::of_ball(&[0.0, 0.0, 0.0], 100.0);
        let found = search_ids(&mut idx, &everywhere);
        assert_eq!(found.len(), 299);
        assert!(!found.contains(&5));
    }

    #[test]
    fn update_point_moves_it() {
        let mut idx = CrackingIndex::new(random_points(400, 5), 8, 4, 2.0, SplitStrategy::Greedy);
        idx.crack(&Mbr::of_ball(&[0.0, 0.0, 0.0], 3.0));
        let old = idx.points().point(7).to_vec();
        idx.update_point(7, &[9.5, 9.5, 9.5]).expect("live id");
        idx.check_invariants();
        let near_new = Mbr::of_ball(&[9.5, 9.5, 9.5], 0.1);
        assert!(search_ids(&mut idx, &near_new).contains(&7));
        let near_old = Mbr::of_ball(&old, 1e-6);
        assert!(!search_ids(&mut idx, &near_old).contains(&7));
    }

    #[test]
    fn interleaved_updates_and_queries_stay_exact() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut idx = CrackingIndex::new(random_points(800, 6), 8, 4, 2.0, SplitStrategy::Greedy);
        let mut live: std::collections::HashSet<u32> = (0..800u32).collect();
        for round in 0..30 {
            match round % 3 {
                0 => {
                    let p = [
                        rng.gen_range(-10.0..10.0),
                        rng.gen_range(-10.0..10.0),
                        rng.gen_range(-10.0..10.0),
                    ];
                    live.insert(idx.insert_point(&p).expect("well-shaped insert"));
                }
                1 => {
                    if let Some(&id) = live.iter().next() {
                        idx.remove_point(id);
                        live.remove(&id);
                    }
                }
                _ => {
                    let c = [
                        rng.gen_range(-10.0..10.0),
                        rng.gen_range(-10.0..10.0),
                        rng.gen_range(-10.0..10.0),
                    ];
                    idx.crack(&Mbr::of_ball(&c, 2.0));
                }
            }
            idx.check_invariants();
        }
        // Exactness against brute force over live points.
        let q = Mbr::of_ball(&[1.0, -1.0, 1.0], 4.0);
        let got = search_ids(&mut idx, &q);
        let want: Vec<u32> = (0..idx.points().len() as u32)
            .filter(|&i| live.contains(&i) && idx.points().in_region(i, &q))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_unknown_ids() {
        let mut idx = CrackingIndex::new(random_points(10, 7), 8, 4, 2.0, SplitStrategy::Greedy);
        assert!(!idx.remove_point(999));
    }

    #[test]
    fn dynamic_errors_are_typed_not_panics() {
        use crate::error::VkgError;
        let mut idx = CrackingIndex::new(random_points(50, 8), 8, 4, 2.0, SplitStrategy::Greedy);
        assert!(matches!(
            idx.insert_point(&[1.0, 2.0]),
            Err(VkgError::Mismatch {
                what: "point dimensionality",
                expected: 3,
                found: 2,
            })
        ));
        assert!(matches!(
            idx.update_point(999, &[0.0, 0.0, 0.0]),
            Err(VkgError::InvalidParameter(_))
        ));
        assert!(idx.remove_point(3));
        assert!(matches!(
            idx.update_point(3, &[0.0, 0.0, 0.0]),
            Err(VkgError::InvalidParameter(_))
        ));
        assert!(matches!(
            idx.update_point(4, &[0.0]),
            Err(VkgError::Mismatch { .. })
        ));
        // Failed calls left the index consistent.
        idx.check_invariants();
        assert_eq!(idx.live_points(), 49);
    }
}
