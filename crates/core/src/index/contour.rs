//! Contour reads (Definitions 2–3): region search, best-first
//! traversal, element summaries.
//!
//! Everything here is a *read* of the current contour — none of these
//! operations crack the index (Algorithm 3 cracks once per query, after
//! the result region stabilizes) — and takes `&self`, so any number of
//! queries traverse at once under the facade's shared guard. The access
//! statistics they keep are relaxed atomics, bumped once per traversal.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::geometry::{kernels, Mbr, PointSet};

use super::arena::add_member;
use super::{CrackingIndex, NodeKind};

/// Most points [`CrackingIndex::nearest_first`] hands its visitor in one
/// run.
pub const BATCH: usize = 8;

/// Queue entry of [`CrackingIndex::nearest_first`] — a tree node keyed by
/// its region's lower bound, or a point keyed by its own distance — as
/// one integer: `d²`'s bits, then 0 for a node and 1 for a point, then
/// the id. `d²` is a sum of squares or +∞ (an empty MBR), never negative
/// and never NaN (refused at import), and non-negative floats order like
/// their bits, so integer order is `(d², node before point, id)`: at
/// equal keys a node pops before a point (it may hold an equally near
/// point with a smaller id) and points pop in id order.
fn queue_entry(d_sq: f64, point: bool, id: u32) -> Reverse<u128> {
    debug_assert!(d_sq.is_sign_positive(), "queue key {d_sq}");
    Reverse(u128::from(d_sq.to_bits()) << 64 | u128::from(point) << 32 | u128::from(id))
}

/// `(d², is a point, id)` of a [`queue_entry`].
fn decode(Reverse(entry): Reverse<u128>) -> (f64, bool, u32) {
    let d_sq = f64::from_bits((entry >> 64) as u64);
    (d_sq, entry >> 32 & 1 == 1, entry as u32)
}

/// Summary statistics of one contour element's in-region members, handed
/// to the [`CrackingIndex::search_region_elements`] visitor. Per §V-B the
/// index estimates the probabilities of unaccessed points from
/// element-level statistics rather than per-point geometry. Both moments
/// come from coordinate and squared-norm sums over the members in element
/// order, stored on the node ([`super::Node::sums`]) or summed in a pass.
#[derive(Debug, Clone, Copy)]
pub struct ElementSummary<'a> {
    /// Bounding region of the whole element (not just the in-region part).
    pub mbr: &'a Mbr,
    /// Mean S₂ coordinates of the element's in-region members.
    pub centroid: &'a [f64],
    /// Mean squared distance of those members from the centroid.
    pub spread_sq: f64,
}

impl CrackingIndex {
    /// Visits every point id inside `q` once, updating access statistics.
    /// An element whose MBR `q` contains is visited without a per-member
    /// test: node MBRs cover their members after every edit, and
    /// [`Mbr::contains_mbr`] is [`PointSet::in_region`]'s comparisons.
    ///
    /// This is a pure read: it does **not** crack the index (Algorithm 3
    /// cracks once per query, after the result region stabilizes).
    pub fn search_region(&self, q: &Mbr, mut visit: impl FnMut(u32)) {
        let (mut elements, mut examined) = (0u64, 0u64);
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.mbr.intersects(q) {
                continue;
            }
            let ids: &[u32] = match &node.kind {
                NodeKind::Internal(children) => {
                    stack.extend(children.iter().rev().copied());
                    continue;
                }
                NodeKind::Leaf(ids) => ids,
                NodeKind::Unsplit(orders) => orders.ids(0),
            };
            elements += 1;
            examined += ids.len() as u64;
            let whole = q.contains_mbr(&node.mbr);
            for &pid in ids {
                if whole || self.points.in_region(pid, q) {
                    visit(pid);
                }
            }
        }
        self.count_access(elements, examined);
    }

    /// Visits the points of the ball `B(q, √r_sq)` nearest first — in
    /// ascending `(squared S₂ distance, id)` order — while the ball
    /// shrinks (the "increasing distance from q" loop of Algorithm 3,
    /// lines 5–8). Returns the number of points whose distance was
    /// computed.
    ///
    /// `visit` gets the points in runs of `(d², id)`: up to [`BATCH`]
    /// consecutive points of that order, all within the radius the run
    /// was collected under, cut short where a tree node is next. It
    /// returns the squared radius to continue with; a visitor that meets
    /// a key beyond its shrinking radius drops the rest of the run, and
    /// the traversal ends at the first queue key beyond the returned
    /// radius. Nodes are only expanded between runs, so each sees the
    /// radius left by every point before it, as if visited one by one.
    ///
    /// One best-first descent: tree nodes are keyed by
    /// [`Mbr::min_distance_sq`], points by the per-point distance
    /// [`kernels::scalar_distances_sq`] gives a whole batch, evaluated
    /// one contour element at a time. Children and points beyond the
    /// current radius are never queued. Like
    /// [`CrackingIndex::search_region`] this is a pure read that counts
    /// each expanded element in the access statistics.
    pub fn nearest_first(
        &self,
        q: &[f64],
        mut r_sq: f64,
        mut visit: impl FnMut(&PointSet, &[(f64, u32)]) -> f64,
    ) -> u64 {
        let root = self.nodes[self.root as usize].mbr.min_distance_sq(q);
        let mut queue = BinaryHeap::from([queue_entry(root, false, self.root)]);
        let mut run: Vec<(f64, u32)> = Vec::with_capacity(BATCH);
        let mut dists: Vec<f64> = Vec::new();
        let (mut elements, mut computed) = (0u64, 0u64);
        while let Some(entry) = queue.pop() {
            let (key, point, id) = decode(entry);
            if key > r_sq {
                break;
            }
            if point {
                run.clear();
                run.push((key, id));
                while run.len() < BATCH {
                    let Some(next) = queue.peek_mut() else { break };
                    let (key, point, id) = decode(*next);
                    if !point || key > r_sq {
                        break;
                    }
                    run.push((key, id));
                    PeekMut::pop(next);
                }
                r_sq = visit(&self.points, &run);
                continue;
            }
            let ids: &[u32] = match &self.nodes[id as usize].kind {
                NodeKind::Internal(children) => {
                    queue.extend(children.iter().filter_map(|&id| {
                        let key = self.nodes[id as usize].mbr.min_distance_sq(q);
                        (key <= r_sq).then(|| queue_entry(key, false, id))
                    }));
                    continue;
                }
                NodeKind::Leaf(ids) => ids,
                NodeKind::Unsplit(orders) => orders.ids(0),
            };
            elements += 1;
            computed += ids.len() as u64;
            dists.resize(ids.len(), 0.0);
            kernels::scalar_distances_sq(&self.points, ids, q, &mut dists);
            // One `extend` per element: a large batch (an unsplit root)
            // is heapified in O(n), not pushed point by point.
            queue.extend(
                ids.iter()
                    .zip(&dists)
                    .filter(|&(_, &key)| key <= r_sq)
                    .map(|(&id, &key)| queue_entry(key, true, id)),
            );
        }
        self.count_access(elements, computed);
        computed
    }

    /// Like [`CrackingIndex::search_region`], but one contour element at
    /// a time: the visitor gets the element's in-region member ids (in
    /// the element's own order) together with their summary statistics.
    /// The aggregate estimators use the element summary to *approximate*
    /// the probabilities of points they do not access exactly (§V-B: "we
    /// know the number of entities in each element of an index contour,
    /// and hence can estimate the b − a probabilities based on the
    /// average distance of an element to a query point").
    ///
    /// The summary is taken over **every** in-region member, whatever
    /// the caller then does with the ids: `‖q − centroid‖² + spread²` is
    /// the exact second moment of the distance from `q` to a random
    /// in-region member — unlike the element MBR's center, which
    /// misrepresents members that cluster away from the box center. A
    /// caller that drops some of the ids (the query entity's known
    /// neighbors, say, which sit right next to the query) is proxying
    /// the rest by a population that still contains them.
    ///
    /// Only an element that `q` cuts costs a pass over its members (the
    /// in-region test and the sums). One that `q` contains is handed over
    /// as its own id slice with the sums it stores — that pass's sums to
    /// the bit — unless an edit since its install cleared them.
    pub fn search_region_elements(
        &self,
        q: &Mbr,
        mut visit: impl FnMut(&[u32], &ElementSummary<'_>),
    ) {
        let dim = self.points.dim();
        let (mut elements, mut examined) = (0u64, 0u64);
        let mut stack = vec![self.root];
        let mut pass_members: Vec<u32> = Vec::new();
        let mut pass_sums = vec![0.0f64; dim + 1];
        let mut centroid = vec![0.0f64; dim];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.mbr.intersects(q) {
                continue;
            }
            let ids: &[u32] = match &node.kind {
                NodeKind::Internal(children) => {
                    stack.extend(children.iter().rev().copied());
                    continue;
                }
                NodeKind::Leaf(ids) => ids,
                NodeKind::Unsplit(orders) => orders.ids(0),
            };
            elements += 1;
            examined += ids.len() as u64;
            let whole = q.contains_mbr(&node.mbr);
            let (members, sums): (&[u32], &[f64]) = match &node.sums {
                Some(stored) if whole => (ids, stored),
                _ => {
                    pass_members.clear();
                    pass_sums.fill(0.0);
                    for &pid in ids {
                        if whole || self.points.in_region(pid, q) {
                            pass_members.push(pid);
                            add_member(&self.points, pid, &mut pass_sums);
                        }
                    }
                    (&pass_members, &pass_sums)
                }
            };
            if members.is_empty() {
                continue;
            }
            let n = members.len() as f64;
            for (c, s) in centroid.iter_mut().zip(sums) {
                *c = s / n;
            }
            let centroid_norm_sq: f64 = centroid.iter().map(|c| c * c).sum();
            let summary = ElementSummary {
                mbr: &node.mbr,
                centroid: &centroid,
                spread_sq: (sums[dim] / n - centroid_norm_sq).max(0.0),
            };
            visit(members, &summary);
        }
        self.count_access(elements, examined);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The integer entry orders like `(d² by total_cmp, node before
    /// point, id)` and decodes to what it encodes: zero, subnormals,
    /// equal keys, +∞, and nodes and points sharing an id.
    #[test]
    fn queue_entries_order_like_distance_then_node_then_id() {
        let keys = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut entries = Vec::new();
        for d_sq in keys {
            for point in [false, true] {
                for id in [0, 1, 7, u32::MAX] {
                    entries.push((d_sq, point, id));
                }
            }
        }
        for &(d_sq, point, id) in &entries {
            let (back, p, i) = decode(queue_entry(d_sq, point, id));
            assert_eq!((back.to_bits(), p, i), (d_sq.to_bits(), point, id));
        }
        for a in &entries {
            for b in &entries {
                let want = a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2));
                let (Reverse(x), Reverse(y)) =
                    (queue_entry(a.0, a.1, a.2), queue_entry(b.0, b.1, b.2));
                assert_eq!(x.cmp(&y), want, "{a:?} against {b:?}");
            }
        }
    }
}
