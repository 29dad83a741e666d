//! Contour reads (Definitions 2–3): region search, best-first
//! traversal, element summaries.
//!
//! Everything here is a *read* of the current contour — none of these
//! operations crack the index (Algorithm 3 cracks once per query, after
//! the result region stabilizes) — and takes `&self`, so any number of
//! queries traverse at once under the facade's shared guard. The access
//! statistics they keep are relaxed atomics, bumped once per traversal.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::geometry::{kernels, Mbr, PointSet};

use super::arena::add_member;
use super::build::stop_condition;
use super::{CrackingIndex, NodeId, NodeKind};

/// Most points [`CrackingIndex::nearest_first`] hands its visitor in one
/// run.
pub const BATCH: usize = 32;

/// The integer form of a squared distance: `d²` is a sum of squares or
/// +∞ (an empty MBR), never negative and never NaN (refused at import),
/// and non-negative floats order like their bits.
fn key_bits(d_sq: f64) -> u64 {
    debug_assert!(d_sq.is_sign_positive(), "key {d_sq}");
    d_sq.to_bits()
}

/// Sort key of an opened point: its `(d², id)` as integers.
fn point_order(&(d_sq, id): &(f64, u32)) -> (u64, u32) {
    (key_bits(d_sq), id)
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
    /// [`Mbr::contains_mbr`] is [`PointSet::in_region`]'s comparisons. An
    /// element `q` cuts tests its packed rows ([`super::Node::coords`]).
    ///
    /// This is a pure read: it does **not** crack the index (Algorithm 3
    /// cracks once per query, after the result region stabilizes). It
    /// returns [`CrackingIndex::wants_crack`]`(q)` for the tree it read,
    /// from the in-region counts the walk takes anyway.
    pub fn search_region(&self, q: &Mbr, mut visit: impl FnMut(u32)) -> bool {
        let dim = self.points.dim();
        let (mut elements, mut examined) = (0u64, 0u64);
        let mut splits = CrackVerdict::default();
        let mut inside: Vec<u32> = Vec::new();
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
            if q.contains_mbr(&node.mbr) {
                ids.iter().for_each(|&pid| visit(pid));
                continue;
            }
            members_in_region(q, &node.coords, dim, &mut inside);
            inside.iter().for_each(|&at| visit(ids[at as usize]));
            splits.cut(self, &node.kind, inside.len());
        }
        self.count_access(elements, examined);
        splits.0
    }

    /// Visits the points of the ball `B(q, √r_sq)` nearest first — in
    /// ascending `(squared S₂ distance, id)` order — while the ball
    /// shrinks (the "increasing distance from q" loop of Algorithm 3,
    /// lines 5–8). Returns the number of points whose distance was
    /// computed.
    ///
    /// `visit` gets the points in runs of `(d², id)`: up to [`BATCH`]
    /// consecutive points of that order, all within the radius the run
    /// was collected under. It returns the squared radius to continue
    /// with, which never grows; a visitor that meets a key beyond its
    /// shrinking radius drops the rest of the run, and the traversal ends
    /// at the first key beyond the returned radius.
    ///
    /// Tree nodes are expanded best-first from a heap keyed by
    /// [`Mbr::min_distance_sq`]; an opened contour element's points
    /// within the radius (their distances from
    /// [`kernels::packed_distances_sq`] over the element's packed rows,
    /// [`super::Node::coords`], one element at a time) wait in one
    /// buffer, never in the heap. A bound `hi`, doubling in `d²` from
    /// the nearest key not yet handed out and capped inclusively at the
    /// radius, cuts that buffer into *shells*: once every node keyed
    /// `≤ hi` is expanded, every live point with `d² ≤ hi` has been
    /// opened, so the waiting points with `d² ≤ hi`, sorted once by
    /// `(d², id)`, are exactly the next stretch of the emission order.
    /// Nodes open in key order, and a round that would more than double
    /// the waiting points stops at a node keyed `m` instead: every point
    /// below `m` has then been opened, and the shell is the waiting
    /// points with `d² < m`. Children and points beyond the current
    /// radius are never kept. A node expanded for a shell the radius then
    /// shrinks away from is still counted: like
    /// [`CrackingIndex::search_region`] this is a pure read that counts
    /// each expanded element in the access statistics.
    pub fn nearest_first(
        &self,
        q: &[f64],
        mut r_sq: f64,
        mut visit: impl FnMut(&PointSet, &[(f64, u32)]) -> f64,
    ) -> u64 {
        let dim = self.points.dim();
        let root = self.nodes[self.root as usize].mbr.min_distance_sq(q);
        let mut nodes: BinaryHeap<Reverse<(u64, NodeId)>> =
            BinaryHeap::from([Reverse((key_bits(root), self.root))]);
        // Opened points not yet handed out.
        let mut pending: Vec<(f64, u32)> = Vec::new();
        let mut waiting_min = f64::INFINITY;
        let mut dists: Vec<f64> = Vec::new();
        let (mut elements, mut computed) = (0u64, 0u64);
        let mut hi = 0.0f64;
        'shells: loop {
            // The nearest key not handed out yet.
            let next = match nodes.peek() {
                Some(&Reverse((bits, _))) => f64::from_bits(bits).min(waiting_min),
                None if !pending.is_empty() => waiting_min,
                None => break,
            };
            if next > r_sq {
                break;
            }
            hi = (2.0 * hi).max(next).min(r_sq);

            // Open everything that may hold a point of the shell — unless
            // that more than doubles the waiting points: the shell then
            // ends below the first node left, and the next grows from it.
            let limit = 2 * pending.len() + 8 * BATCH;
            let mut below = f64::INFINITY;
            while let Some(&Reverse((bits, id))) = nodes.peek() {
                let key = f64::from_bits(bits);
                if key > hi {
                    break;
                }
                if pending.len() > limit {
                    (below, hi) = (key, key);
                    break;
                }
                nodes.pop();
                let node = &self.nodes[id as usize];
                let ids: &[u32] = match &node.kind {
                    NodeKind::Internal(children) => {
                        nodes.extend(children.iter().filter_map(|&id| {
                            let key = self.nodes[id as usize].mbr.min_distance_sq(q);
                            (key <= r_sq).then(|| Reverse((key_bits(key), id)))
                        }));
                        continue;
                    }
                    NodeKind::Leaf(ids) => ids,
                    NodeKind::Unsplit(orders) => orders.ids(0),
                };
                elements += 1;
                computed += ids.len() as u64;
                dists.resize(ids.len(), 0.0);
                kernels::packed_distances_sq(&node.coords, dim, q, &mut dists);
                pending.extend(
                    ids.iter()
                        .zip(&dists)
                        .filter(|&(_, &d_sq)| d_sq <= r_sq)
                        .map(|(&id, &d_sq)| (d_sq, id)),
                );
            }

            // One pass over the waiting points, in place: the shell
            // (`d² ≤ hi`, and `< below`) to the front, the rest after it,
            // whatever the radius no longer admits dropped.
            let (mut shell, mut kept) = (0, 0);
            waiting_min = f64::INFINITY;
            for i in 0..pending.len() {
                let point = pending[i];
                if point.0 > r_sq {
                    continue;
                }
                if point.0 <= hi && point.0 < below {
                    pending[kept] = pending[shell];
                    pending[shell] = point;
                    shell += 1;
                } else {
                    pending[kept] = point;
                    waiting_min = waiting_min.min(point.0);
                }
                kept += 1;
            }
            pending.truncate(kept);

            let sorted = &mut pending[..shell];
            sorted.sort_unstable_by_key(point_order);
            let mut at = 0;
            while at < shell {
                let window = &sorted[at..shell.min(at + BATCH)];
                let run = &window[..window.partition_point(|p| p.0 <= r_sq)];
                if run.is_empty() {
                    break 'shells;
                }
                r_sq = visit(&self.points, run);
                at += run.len();
            }
            // Drop the shell before the next round opens more, so the
            // buffer never holds two shells' points at once; its slots are
            // refilled from the end, as the rest has no order to keep.
            let moved = (kept - shell).min(shell);
            pending.copy_within(kept - moved..kept, 0);
            pending.truncate(kept - shell);
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
    /// in-region test and the sums, both over its packed rows). One that
    /// `q` contains is handed over as its own id slice with the sums it
    /// stores — that pass's sums to the bit — unless an edit since its
    /// install cleared them. Returns
    /// [`CrackingIndex::wants_crack`]`(q)`, as
    /// [`CrackingIndex::search_region`] does.
    pub fn search_region_elements(
        &self,
        q: &Mbr,
        mut visit: impl FnMut(&[u32], &ElementSummary<'_>),
    ) -> bool {
        let dim = self.points.dim();
        let (mut elements, mut examined) = (0u64, 0u64);
        let mut splits = CrackVerdict::default();
        let mut stack = vec![self.root];
        let mut pass_members: Vec<u32> = Vec::new();
        let mut inside: Vec<u32> = Vec::new();
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
                    if whole {
                        pass_members.extend_from_slice(ids);
                        for row in node.coords.chunks_exact(dim) {
                            add_member(row, &mut pass_sums);
                        }
                    } else {
                        members_in_region(q, &node.coords, dim, &mut inside);
                        splits.cut(self, &node.kind, inside.len());
                        for &at in &inside {
                            let at = at as usize;
                            pass_members.push(ids[at]);
                            add_member(&node.coords[at * dim..(at + 1) * dim], &mut pass_sums);
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
        splits.0
    }
}

/// The positions of the rows of `coords` (packed, `dim` wide) inside
/// `q`, in order, into `out`: each is written and kept by its verdict,
/// with no branch on it, so the tests of consecutive rows overlap.
fn members_in_region(q: &Mbr, coords: &[f64], dim: usize, out: &mut Vec<u32>) {
    out.clear();
    out.resize(coords.len() / dim, 0);
    let mut kept = 0;
    for (at, row) in (0u32..).zip(coords.chunks_exact(dim)) {
        out[kept] = at;
        kept += usize::from(q.contains_point(row));
    }
    out.truncate(kept);
}

/// [`CrackingIndex::wants_crack`] folded into a region read: whether
/// some unsplit element the region cuts fails the §IV-C stop condition.
/// An element the region contains, or a leaf, never does, so only the
/// cut elements' in-region counts — which the read takes anyway — enter
/// it.
#[derive(Debug, Default)]
struct CrackVerdict(bool);

impl CrackVerdict {
    /// Notes an element of `kind` that the region cuts, `in_q` of its
    /// members inside.
    fn cut(&mut self, index: &CrackingIndex, kind: &NodeKind, in_q: usize) {
        if let NodeKind::Unsplit(orders) = kind {
            self.0 |= !stop_condition(in_q, orders.len(), index.params.leaf_capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The integer sort key of a point orders like `(d² by total_cmp,
    /// id)`: zero, subnormals, equal keys and +∞.
    #[test]
    fn point_order_is_distance_then_id() {
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
        let mut points = Vec::new();
        for d_sq in keys {
            for id in [0, 1, 7, u32::MAX] {
                points.push((d_sq, id));
            }
        }
        for a in &points {
            for b in &points {
                let want = a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
                assert_eq!(
                    point_order(a).cmp(&point_order(b)),
                    want,
                    "{a:?} against {b:?}"
                );
            }
        }
    }
}
