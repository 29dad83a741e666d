//! Contour reads (Definitions 2–3): region search, best-first
//! traversal, element summaries.
//!
//! Everything here is a *read* of the current contour — none of these
//! operations crack the index (Algorithm 3 cracks once per query, after
//! the result region stabilizes) — and takes `&self`, so any number of
//! queries traverse at once under the facade's shared guard. The access
//! statistics they keep are relaxed atomics, bumped once per traversal.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::geometry::{kernels, Mbr, PointSet};

use super::{CrackingIndex, NodeKind};

/// Queue entry of [`CrackingIndex::nearest_first`]: a tree node keyed by
/// its region's lower bound, or a point keyed by its own distance.
#[derive(PartialEq)]
struct Nearest {
    key: f64,
    point: bool,
    id: u32,
}

impl Eq for Nearest {}

impl Ord for Nearest {
    /// Reversed, so the max-heap pops the smallest key. At equal keys a
    /// node pops before a point (it may hold an equally near point with
    /// a smaller id) and points pop in id order.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then(other.point.cmp(&self.point))
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Nearest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Summary statistics of one contour element's in-region members, handed
/// to the [`CrackingIndex::search_region_elements`] visitor. Per §V-B the
/// index estimates the probabilities of unaccessed points from
/// element-level statistics rather than per-point geometry.
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
    /// Visits every point id inside `q`, updating access statistics.
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
            for &pid in ids {
                if self.points.in_region(pid, q) {
                    visit(pid);
                }
            }
        }
        self.count_access(elements, examined);
    }

    /// Visits the points of the ball `B(q, √r_sq)` nearest first — in
    /// ascending `(squared S₂ distance, id)` order — while the ball
    /// shrinks: `visit` returns the squared radius to continue with, and
    /// the traversal stops at the first queue key beyond it (the
    /// "increasing distance from q" loop of Algorithm 3, lines 5–8).
    /// Returns the number of points whose distance was computed.
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
        mut visit: impl FnMut(&PointSet, u32) -> f64,
    ) -> u64 {
        let mut queue = BinaryHeap::from([Nearest {
            key: self.nodes[self.root as usize].mbr.min_distance_sq(q),
            point: false,
            id: self.root,
        }]);
        let mut dists: Vec<f64> = Vec::new();
        let (mut elements, mut computed) = (0u64, 0u64);
        while let Some(Nearest { key, point, id }) = queue.pop() {
            if key > r_sq {
                break;
            }
            if point {
                r_sq = visit(&self.points, id);
                continue;
            }
            let ids: &[u32] = match &self.nodes[id as usize].kind {
                NodeKind::Internal(children) => {
                    queue.extend(children.iter().filter_map(|&id| {
                        let key = self.nodes[id as usize].mbr.min_distance_sq(q);
                        (key <= r_sq).then_some(Nearest {
                            key,
                            point: false,
                            id,
                        })
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
            queue.extend(ids.iter().zip(&dists).filter(|&(_, &key)| key <= r_sq).map(
                |(&id, &key)| Nearest {
                    key,
                    point: true,
                    id,
                },
            ));
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
    pub fn search_region_elements(
        &self,
        q: &Mbr,
        mut visit: impl FnMut(&[u32], &ElementSummary<'_>),
    ) {
        let dim = self.points.dim();
        let (mut elements, mut examined) = (0u64, 0u64);
        let mut stack = vec![self.root];
        let mut members: Vec<u32> = Vec::new();
        let mut sum = vec![0.0f64; dim];
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
            members.clear();
            sum.iter_mut().for_each(|s| *s = 0.0);
            let mut sum_norm_sq = 0.0;
            for &pid in ids {
                if self.points.in_region(pid, q) {
                    members.push(pid);
                    let p = self.points.point(pid);
                    for (axis, &c) in p.iter().enumerate() {
                        sum[axis] += c;
                    }
                    sum_norm_sq += self.points.norm_sq(pid);
                }
            }
            if members.is_empty() {
                continue;
            }
            let n = members.len() as f64;
            for (c, s) in centroid.iter_mut().zip(&sum) {
                *c = s / n;
            }
            let centroid_norm_sq: f64 = centroid.iter().map(|c| c * c).sum();
            let summary = ElementSummary {
                mbr: &node.mbr,
                centroid: &centroid,
                spread_sq: (sum_norm_sq / n - centroid_norm_sq).max(0.0),
            };
            visit(&members, &summary);
        }
        self.count_access(elements, examined);
    }
}
