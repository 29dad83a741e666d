//! FINDTOP-KENTITIES (Algorithm 3, §V-A).
//!
//! The algorithm runs in the low-dimensional index space S₂ but ranks by
//! true S₁ distance: it visits the points nearest the query point in S₂
//! first, lets the first k of them seed the top-k set, inflates the k-th
//! S₁ distance by `(1+ε)` into an S₂ ball, and keeps visiting while the
//! ball monotonically shrinks as better candidates arrive. When the
//! region stabilizes the index is cracked for it (line 9), so subsequent
//! queries near the same region find a finer tree. Lines 1–8 only read
//! the index ([`find_top_k_read`], `&self`); line 9 is the one step that
//! reshapes it, and [`find_top_k`] is the two in sequence.
//!
//! The paper's line 2 seeds from the smallest contour element containing
//! q instead; seeding from the traversal makes the answer independent of
//! how far the tree is cracked and leaves Theorem 2 untouched (DESIGN.md
//! §7).
//!
//! This module implements the algorithm generically over two closures —
//! the S₁ distance oracle and the skip predicate (known `E`-edges and the
//! query entity itself are excluded per §II's E′-only semantics) — so the
//! same code serves tail queries (`h + r`), head queries (`t − r`), and
//! the unit tests' synthetic geometry.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{VkgError, VkgResult};
use crate::geometry::{Mbr, PointSet};
use crate::index::{CrackingIndex, BATCH};

use super::guarantees::{topk_guarantee, TopKGuarantee};
use super::probability::inverse_distance_probabilities;

/// One predicted edge endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Point id (= dense entity id).
    pub id: u32,
    /// Distance in the original embedding space S₁ (lower = more likely).
    pub distance: f64,
    /// Edge probability under the §V-B inverse-distance model.
    pub probability: f64,
}

/// Result of one top-k query.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Up to `k` predictions, ascending by S₁ distance.
    pub predictions: Vec<Prediction>,
    /// The Theorem 2 guarantee computed from the reported distances.
    pub guarantee: TopKGuarantee,
    /// Number of candidate points whose S₁ distance was evaluated.
    pub s1_evals: u64,
    /// Number of points whose S₂ distance was computed (the cheap
    /// filter): the members of every contour element the traversal
    /// opened — each one the ball reached when its shell was cut, so a
    /// few the ball then shrank away from are counted too.
    pub candidates_examined: u64,
}

/// Max-heap entry so the k-th (worst) current answer pops first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    distance: f64,
    id: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Algorithm 3, seeded from its own traversal: [`find_top_k_read`],
/// then the crack of line 9. `s1_distance(points, id)` is the oracle of
/// one point, asked for every point of a run in turn.
pub fn find_top_k(
    index: &mut CrackingIndex,
    q_s2: &[f64],
    k: usize,
    epsilon: f64,
    alpha: usize,
    mut s1_distance: impl FnMut(&PointSet, u32) -> f64,
    skip: impl FnMut(u32) -> bool,
) -> VkgResult<TopKResult> {
    let per_point = |points: &PointSet, ids: &[u32], out: &mut [f64]| {
        for (d, &id) in out.iter_mut().zip(ids) {
            *d = s1_distance(points, id);
        }
    };
    let (result, region) = find_top_k_read(index, q_s2, k, epsilon, alpha, per_point, skip)?;
    if let Some(region) = region {
        index.crack(&region);
    }
    Ok(result)
}

/// Lines 1–8 of Algorithm 3 — everything but the crack: the answer, and
/// the final (stabilized) region line 9 cracks the index for — `None`
/// when the k-set stayed empty, which leaves nothing to crack for.
///
/// * `q_s2` — the query center in S₂ (the transformed `h + r` / `t − r`).
/// * `k` — number of entities requested.
/// * `epsilon` — the radius inflation of line 3 (`r_q = r*_k(1+ε)`).
/// * `alpha` — dimensionality of S₂ (for the Theorem 2 guarantee).
/// * `s1_distances(points, ids, out)` — the true S₁ distance from the
///   query point to each entity of `ids`, into the same slot of `out`
///   (the expensive oracle). It is asked once per run of the traversal
///   for the run's non-skipped points; up to
///   [`BATCH`] − 1 of them may lie past the point
///   where the query stops, and only the points the query reaches count
///   as evaluations. The index's S₂ point set is passed through so
///   oracles that only need S₂ geometry can read it without re-projecting.
/// * `skip(id)` — true for entities excluded from `E'` (existing
///   neighbours, the query entity itself).
///
/// The answer is a function of the live point set and the arguments
/// alone, never of the tree's shape or of how the traversal cut its
/// runs: walk the non-skipped points in `(d_S₂², id)` order, keep the k
/// best by S₁ distance (a newcomer must beat the k-th strictly), stop at
/// the first point beyond `(1+ε)·` the current k-th S₁ distance.
///
/// # Errors
/// [`VkgError::InvalidParameter`] when `k = 0` or `ε` is not positive.
pub fn find_top_k_read(
    index: &CrackingIndex,
    q_s2: &[f64],
    k: usize,
    epsilon: f64,
    alpha: usize,
    mut s1_distances: impl FnMut(&PointSet, &[u32], &mut [f64]),
    mut skip: impl FnMut(u32) -> bool,
) -> VkgResult<(TopKResult, Option<Mbr>)> {
    if k == 0 {
        return Err(VkgError::InvalidParameter("top-k requires k ≥ 1".into()));
    }
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(VkgError::InvalidParameter("ε must be positive".into()));
    }
    let mut s1_evals = 0u64;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    let mut ids: Vec<u32> = Vec::with_capacity(BATCH);
    let mut dists: Vec<f64> = Vec::with_capacity(BATCH);

    // Lines 2–8: visit the points nearest-in-S₂ first. The radius is
    // unknown and stays infinite until the first k usable points fill
    // the k-set (the seed); from then on the ball shrinks as better
    // candidates arrive and the traversal ends at the first point
    // outside it. Emitted points are distinct, so nothing is seen twice.
    let candidates_examined = index.nearest_first(q_s2, f64::INFINITY, |points, run| {
        ids.clear();
        ids.extend(run.iter().map(|&(_, id)| id).filter(|&id| !skip(id)));
        dists.resize(ids.len(), 0.0);
        s1_distances(points, &ids, &mut dists);
        // The run replayed point by point, as if emitted one at a time:
        // the radius moves after each candidate, and the first key
        // beyond it ends the query with the rest of the run unread.
        let mut r_sq = current_ball_radius_sq(&heap, k, epsilon);
        let mut evaluated = ids.iter().zip(&dists).peekable();
        for &(d_sq, id) in run {
            if d_sq > r_sq {
                break;
            }
            if let Some((_, &d)) = evaluated.next_if(|&(&e, _)| e == id) {
                s1_evals += 1;
                push_candidate(&mut heap, k, id, d);
                r_sq = current_ball_radius_sq(&heap, k, epsilon);
            }
        }
        r_sq
    });

    // Line 9 cracks for the final (stabilized) region.
    let final_region = heap
        .peek()
        .map(|worst| Mbr::of_ball(q_s2, worst.distance * (1.0 + epsilon)));
    index.count_s1_evals(s1_evals);

    // Assemble ascending results with probabilities and guarantees.
    let mut entries: Vec<HeapEntry> = heap.into_vec();
    entries.sort();
    let distances: Vec<f64> = entries.iter().map(|e| e.distance).collect();
    let probabilities = inverse_distance_probabilities(&distances);
    let predictions = entries
        .into_iter()
        .zip(probabilities)
        .map(|(e, probability)| Prediction {
            id: e.id,
            distance: e.distance,
            probability,
        })
        .collect();
    let guarantee = topk_guarantee(&distances, epsilon, alpha);

    let result = TopKResult {
        predictions,
        guarantee,
        s1_evals,
        candidates_examined,
    };
    Ok((result, final_region))
}

/// Pushes a candidate into the bounded max-heap, evicting the k-th
/// (worst) entry when the candidate beats it.
fn push_candidate(heap: &mut BinaryHeap<HeapEntry>, k: usize, id: u32, distance: f64) {
    if heap.len() < k {
        heap.push(HeapEntry { distance, id });
    } else if let Some(mut worst) = heap.peek_mut() {
        if distance < worst.distance {
            *worst = HeapEntry { distance, id };
        }
    }
}

/// Squared S₂ ball radius for the current k-set (infinite until k found).
fn current_ball_radius_sq(heap: &BinaryHeap<HeapEntry>, k: usize, epsilon: f64) -> f64 {
    match heap.peek() {
        Some(worst) if heap.len() >= k => {
            let r = worst.distance * (1.0 + epsilon);
            r * r
        }
        _ => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitStrategy;
    use crate::geometry::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic setup where S₁ *is* S₂ (identity transform): exactness
    /// is then required, which pins the algorithm's plumbing.
    fn identity_setup(n: usize, seed: u64) -> (CrackingIndex, Vec<[f64; 3]>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                    rng.gen_range(-10.0..10.0),
                ]
            })
            .collect();
        let coords: Vec<f64> = pts.iter().flatten().copied().collect();
        let ps = PointSet::from_rows(3, coords);
        let idx = CrackingIndex::new(ps, 16, 8, 2.0, SplitStrategy::Greedy);
        (idx, pts)
    }

    fn l2(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }

    fn brute_top_k(pts: &[[f64; 3]], q: &[f64], k: usize, skip: &dyn Fn(u32) -> bool) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..pts.len() as u32).filter(|&i| !skip(i)).collect();
        ids.sort_by(|&a, &b| l2(&pts[a as usize], q).total_cmp(&l2(&pts[b as usize], q)));
        ids.truncate(k);
        ids
    }

    #[test]
    fn exact_under_identity_transform() {
        let (mut idx, pts) = identity_setup(2_000, 1);
        let q = [1.0, -2.0, 3.0];
        let result = find_top_k(
            &mut idx,
            &q,
            5,
            1.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| false,
        )
        .unwrap();
        let got: Vec<u32> = result.predictions.iter().map(|p| p.id).collect();
        let want = brute_top_k(&pts, &q, 5, &|_| false);
        assert_eq!(got, want);
        // Ascending distances, probabilities descending from 1.
        for w in result.predictions.windows(2) {
            assert!(w[0].distance <= w[1].distance);
            assert!(w[0].probability >= w[1].probability);
        }
        assert_eq!(result.predictions[0].probability, 1.0);
    }

    #[test]
    fn skip_predicate_excludes_neighbours() {
        let (mut idx, pts) = identity_setup(500, 2);
        let q = pts[7];
        let result = find_top_k(
            &mut idx,
            &q,
            3,
            1.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |id| id == 7 || id == 11,
        )
        .unwrap();
        let got: Vec<u32> = result.predictions.iter().map(|p| p.id).collect();
        assert!(!got.contains(&7));
        assert!(!got.contains(&11));
        let want = brute_top_k(&pts, &q, 3, &|id| id == 7 || id == 11);
        assert_eq!(got, want);
    }

    #[test]
    fn repeated_queries_get_faster() {
        let (mut idx, pts) = identity_setup(20_000, 3);
        let q = [0.5, 0.5, 0.5];
        let first = find_top_k(
            &mut idx,
            &q,
            10,
            1.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| false,
        )
        .unwrap();
        let second = find_top_k(
            &mut idx,
            &q,
            10,
            1.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| false,
        )
        .unwrap();
        assert_eq!(
            first.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            second.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert!(
            second.candidates_examined <= first.candidates_examined,
            "cracking must not increase examined candidates ({} → {})",
            first.candidates_examined,
            second.candidates_examined
        );
        idx.check_invariants();
    }

    #[test]
    fn fewer_points_than_k() {
        let (mut idx, pts) = identity_setup(3, 4);
        let q = [0.0, 0.0, 0.0];
        let result = find_top_k(
            &mut idx,
            &q,
            10,
            1.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| false,
        )
        .unwrap();
        assert_eq!(result.predictions.len(), 3);
    }

    #[test]
    fn everything_skipped_yields_empty() {
        let (mut idx, pts) = identity_setup(50, 5);
        let q = [0.0, 0.0, 0.0];
        let result = find_top_k(
            &mut idx,
            &q,
            5,
            1.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| true,
        )
        .unwrap();
        assert!(result.predictions.is_empty());
        assert_eq!(result.guarantee.success_probability, 1.0);
    }

    #[test]
    fn s1_evals_bounded_by_examined_plus_seeds() {
        let (mut idx, pts) = identity_setup(5_000, 6);
        let q = [2.0, 2.0, 2.0];
        let result = find_top_k(
            &mut idx,
            &q,
            5,
            0.5,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| false,
        )
        .unwrap();
        // Every oracle call is for a point the traversal emitted.
        assert!(result.s1_evals <= result.candidates_examined);
        assert!(result.s1_evals >= 5);
    }

    #[test]
    fn guarantee_attached() {
        let (mut idx, pts) = identity_setup(1_000, 7);
        let q = [0.0, 0.0, 0.0];
        let r = find_top_k(
            &mut idx,
            &q,
            5,
            3.0,
            3,
            |_, id| l2(&pts[id as usize], &q),
            |_| false,
        )
        .unwrap();
        assert_eq!(r.guarantee.ratios.len(), 5);
        assert!(r.guarantee.success_probability > 0.5);
    }
}
