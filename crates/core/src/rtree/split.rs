//! BESTBINARYSPLIT: enumerate and rank candidate binary splits.
//!
//! Given a partition in its `S` sort orders and the per-child subtree size
//! `m`, the candidate splits are prefixes of each sort order at the
//! equally spaced positions `m, 2m, …` (COMPUTEBOUNDINGBOXES of
//! Algorithm 1). Each candidate is scored with the two-component cost of
//! §IV-B1: `c_Q` from the Lemma 3 page bound of the two sides, `c_O` from
//! the overlap penalty. Candidates are returned best-first, so the greedy
//! algorithm takes index 0 and TOP-KSPLITSINDEXBUILD takes the first `k`.
//!
//! Each sort order is enumerated in one pass that reads every point once
//! (`axis_candidates`). The per-axis passes fan out over the
//! context's pool only in the offline bulk load; every online crack hands
//! in a serial pool.

use vkg_sync::pool::Pool;
use vkg_sync::Mutex;

use crate::geometry::{Mbr, PointSet};

use super::cost::{div_ceil, overlap_penalty, SplitCost};
use super::sorted::SortOrders;

/// Below this many points candidate enumeration stays serial even on a
/// wide pool — the per-axis passes finish faster than a fan-out.
const POOLED_MIN: usize = 4096;

/// One ranked candidate binary split.
#[derive(Debug, Clone)]
pub struct SplitCandidate {
    /// Sort order (axis) the prefix is taken from (`s*`).
    pub axis: usize,
    /// Number of points in the low side (`i* · m`).
    pub count: usize,
    /// Composite cost of taking this split.
    pub cost: SplitCost,
    /// MBR of the low side.
    pub low_mbr: Mbr,
    /// MBR of the high side.
    pub high_mbr: Mbr,
    /// Points of the low side inside the query region (0 when offline).
    pub low_in_q: usize,
    /// Points of the high side inside the query region (0 when offline).
    pub high_in_q: usize,
}

/// Parameters shared by every candidate evaluation at one node.
#[derive(Debug, Clone, Copy)]
pub struct SplitContext<'a> {
    /// The point set the partitions index into.
    pub points: &'a PointSet,
    /// Query region (None = offline bulk load: overlap cost only).
    pub query: Option<&'a Mbr>,
    /// Leaf capacity `N` (for the `c_Q` page bound).
    pub leaf_capacity: usize,
    /// Overlap weight `βʰ` at this node's height.
    pub beta_pow_h: f64,
    /// Pool the candidate sweeps and partition splits fan out over:
    /// the offline build's. Width 1 — every online crack — is the exact
    /// serial code path.
    pub pool: &'a Pool,
}

/// Enumerates all candidate splits of `orders` at multiples of `m` and
/// returns the best `k`, cheapest first.
///
/// Returns an empty vector when no proper split position exists
/// (`orders.len() ≤ m`).
pub fn best_splits(
    ctx: &SplitContext<'_>,
    orders: &SortOrders,
    m: usize,
    k: usize,
) -> Vec<SplitCandidate> {
    let len = orders.len();
    debug_assert!(m >= 1);
    if len <= m || k == 0 {
        return Vec::new();
    }
    let positions: Vec<usize> = (1..).map(|i| i * m).take_while(|&p| p < len).collect();

    let num_orders = orders.num_orders();
    let mut candidates: Vec<SplitCandidate> = Vec::with_capacity(positions.len() * num_orders);
    if ctx.pool.is_serial() || len < POOLED_MIN || num_orders < 2 {
        for axis in 0..num_orders {
            axis_candidates(ctx, orders, axis, &positions, &mut candidates);
        }
    } else {
        // One pass per axis on the pool; per-axis results land in
        // index-addressed slots and merge in axis order, so the
        // candidate list matches the serial enumeration exactly.
        let slots: Vec<Mutex<Vec<SplitCandidate>>> =
            (0..num_orders).map(|_| Mutex::new(Vec::new())).collect();
        ctx.pool.run(num_orders, |axis| {
            let mut local = Vec::new();
            axis_candidates(ctx, orders, axis, &positions, &mut local);
            *slots[axis].lock() = local;
        });
        for slot in slots {
            candidates.extend(slot.into_inner());
        }
    }
    // (cost, axis, count) tells every two candidates apart, so the
    // unstable sort's order is the only one.
    candidates.sort_unstable_by(|a, b| {
        a.cost
            .cmp(&b.cost)
            .then(a.axis.cmp(&b.axis))
            .then(a.count.cmp(&b.count))
    });
    candidates.truncate(k);
    candidates
}

/// Enumerates the candidates of one sort order (axis) in one pass
/// (COMPUTEBOUNDINGBOXES sampled at `positions`).
///
/// The order is cut into blocks at the positions, and each point is
/// read once: folded into its block's MBR and counted if it lies in the
/// query. A prefix is then the blocks to its left folded from the left,
/// a suffix the blocks to its right folded from the right, and the
/// suffix's in-Q count the total minus the prefix's.
///
/// The candidates are bit-identical to a forward sweep for the prefixes
/// and a backward sweep for the suffixes. `f64::min`/`max` return one of
/// their operands, so a fold's result is one of the run's coordinates
/// whatever the grouping, and equal non-zero coordinates have equal
/// bits. Only which of `-0.0` and `+0.0` wins a tie depends on the order
/// the operands meet in, and that order is kept: blocks meet in sweep
/// order, and a block whose MBR has a zero bound is folded a second time,
/// backward, for the suffixes.
fn axis_candidates(
    ctx: &SplitContext<'_>,
    orders: &SortOrders,
    axis: usize,
    positions: &[usize],
    candidates: &mut Vec<SplitCandidate>,
) {
    let ids = orders.ids(axis);
    let dim = ctx.points.dim();
    let mut prefix = Mbr::empty(dim);
    let mut in_q = 0usize;
    // (MBR, in-Q count) of the prefix ending at each position.
    let mut lows = Vec::with_capacity(positions.len());
    // Each block's MBR as the backward sweep folds it: blocks[j] covers
    // the ids from position j − 1 (or 0) up to position j (or the end).
    let mut blocks = Vec::with_capacity(positions.len() + 1);
    let mut start = 0;
    for end in positions.iter().copied().chain([ids.len()]) {
        let block_ids = &ids[start..end];
        let mut block = Mbr::empty(dim);
        for &id in block_ids {
            let point = ctx.points.point(id);
            block.include_point(point);
            if ctx.query.is_some_and(|q| q.contains_point(point)) {
                in_q += 1;
            }
        }
        prefix.include_mbr(&block);
        if end < ids.len() {
            lows.push((prefix, in_q));
        }
        if (0..dim).any(|a| block.min(a) == 0.0 || block.max(a) == 0.0) {
            block = Mbr::empty(dim);
            for &id in block_ids.iter().rev() {
                block.include_point(ctx.points.point(id));
            }
        }
        blocks.push(block);
        start = end;
    }

    // Right to left, so each suffix takes in the next block to its left;
    // `best_splits` ranks by a total order, so the push order is moot.
    let mut high_mbr = Mbr::empty(dim);
    for (pi, &(low_mbr, low_in_q)) in lows.iter().enumerate().rev() {
        high_mbr.include_mbr(&blocks[pi + 1]);
        let high_in_q = in_q - low_in_q;
        let cq = if ctx.query.is_some() {
            div_ceil(low_in_q, ctx.leaf_capacity) + div_ceil(high_in_q, ctx.leaf_capacity)
        } else {
            0
        };
        let co = overlap_penalty(
            1.0, // beta folded into beta_pow_h below
            0,
            low_mbr.overlap_volume(&high_mbr),
            low_mbr.volume(),
            high_mbr.volume(),
        ) * ctx.beta_pow_h;
        candidates.push(SplitCandidate {
            axis,
            count: positions[pi],
            cost: SplitCost::new(cq, co),
            low_mbr,
            high_mbr,
            low_in_q,
            high_in_q,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters along x.
    fn clustered() -> (PointSet, SortOrders) {
        let mut coords = Vec::new();
        for i in 0..8 {
            coords.extend_from_slice(&[i as f64 * 0.1, (i % 3) as f64]);
        }
        for i in 0..8 {
            coords.extend_from_slice(&[100.0 + i as f64 * 0.1, (i % 3) as f64]);
        }
        let ps = PointSet::from_rows(2, coords);
        let ids = ps.all_ids();
        let so = SortOrders::build(&ps, ids);
        (ps, so)
    }

    static SERIAL: Pool = Pool::serial();

    fn offline_ctx(ps: &PointSet) -> SplitContext<'_> {
        SplitContext {
            points: ps,
            query: None,
            leaf_capacity: 4,
            beta_pow_h: 1.0,
            pool: &SERIAL,
        }
    }

    #[test]
    fn finds_the_natural_gap() {
        let (ps, so) = clustered();
        let ctx = offline_ctx(&ps);
        let best = best_splits(&ctx, &so, 8, 1);
        assert_eq!(best.len(), 1);
        let c = &best[0];
        assert_eq!(c.axis, 0, "should split on x");
        assert_eq!(c.count, 8, "should split between the clusters");
        assert_eq!(c.cost.co, 0.0, "disjoint halves have no overlap cost");
        assert!(!c.low_mbr.intersects(&c.high_mbr) || c.low_mbr.overlap_volume(&c.high_mbr) == 0.0);
    }

    #[test]
    fn candidate_counts_respect_k() {
        let (ps, so) = clustered();
        let ctx = offline_ctx(&ps);
        // m = 4 → positions 4, 8, 12 on each of 2 axes = 6 candidates.
        assert_eq!(best_splits(&ctx, &so, 4, 100).len(), 6);
        assert_eq!(best_splits(&ctx, &so, 4, 2).len(), 2);
        assert!(best_splits(&ctx, &so, 16, 3).is_empty(), "no proper split");
        assert!(best_splits(&ctx, &so, 4, 0).is_empty());
    }

    #[test]
    fn candidates_are_sorted_by_cost() {
        let (ps, so) = clustered();
        let ctx = offline_ctx(&ps);
        let all = best_splits(&ctx, &so, 4, 100);
        for w in all.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn sides_partition_counts() {
        let (ps, so) = clustered();
        let ctx = offline_ctx(&ps);
        for c in best_splits(&ctx, &so, 4, 100) {
            assert!(c.count == 4 || c.count == 8 || c.count == 12);
            // MBRs must jointly cover the partition MBR.
            let mut joint = c.low_mbr;
            joint.include_mbr(&c.high_mbr);
            assert_eq!(joint, so.mbr(&ps));
        }
    }

    #[test]
    fn query_aware_cost_prefers_keeping_q_together() {
        // 12 points on a line; query region covers points 4..8 (indices).
        let coords: Vec<f64> = (0..12).flat_map(|i| [i as f64, 0.0]).collect();
        let ps = PointSet::from_rows(2, coords);
        let so = SortOrders::build(&ps, ps.all_ids());
        let q = Mbr::of_ball(&[5.5, 0.0], 1.6); // covers x ∈ [3.9, 7.1] → ids 4..=7
        let ctx = SplitContext {
            points: &ps,
            query: Some(&q),
            leaf_capacity: 4,
            beta_pow_h: 1.0,
            pool: &SERIAL,
        };
        // m = 4 → positions 4 and 8 on axis 0.
        let best = best_splits(&ctx, &so, 4, 10);
        // Split at 4: low has 0 in Q... ids 4..=7 are in Q; low = ids 0..4
        // (0 in Q), high = 4..12 (4 in Q) → cq = 0 + 1 = 1.
        // Split at 8: low = 0..8 (4 in Q), high = 8..12 (0 in Q) → cq = 1.
        // Both keep Q's points in one side → cq = 1.
        let axis0: Vec<_> = best.iter().filter(|c| c.axis == 0).collect();
        assert!(axis0.iter().all(|c| c.cost.cq == 1));
        // In-Q bookkeeping is consistent.
        for c in axis0 {
            assert_eq!(c.low_in_q + c.high_in_q, 4);
        }
    }

    #[test]
    fn query_counts_split_across_boundary() {
        // Query covering ids 2..=5 with split at 4 separates 2 and 2.
        let coords: Vec<f64> = (0..8).flat_map(|i| [i as f64, 0.0]).collect();
        let ps = PointSet::from_rows(2, coords);
        let so = SortOrders::build(&ps, ps.all_ids());
        let q = Mbr::of_ball(&[3.5, 0.0], 1.6); // x ∈ [1.9, 5.1] → ids 2..=5
        let ctx = SplitContext {
            points: &ps,
            query: Some(&q),
            leaf_capacity: 2,
            beta_pow_h: 1.0,
            pool: &SERIAL,
        };
        let cands = best_splits(&ctx, &so, 4, 10);
        let at4 = cands
            .iter()
            .find(|c| c.axis == 0 && c.count == 4)
            .expect("position 4 must be enumerated");
        assert_eq!(at4.low_in_q, 2);
        assert_eq!(at4.high_in_q, 2);
        assert_eq!(at4.cost.cq, 2, "⌈2/2⌉ + ⌈2/2⌉");
    }

    #[test]
    fn pooled_candidates_match_serial() {
        // Enough points past POOLED_MIN to exercise the fan-out.
        let n = POOLED_MIN + 256;
        let coords: Vec<f64> = (0..n * 2)
            .map(|i| ((i as f64) * 0.377).sin() * 20.0)
            .collect();
        let ps = PointSet::from_rows(2, coords);
        let so = SortOrders::build(&ps, ps.all_ids());
        let m = n / 8;
        let serial = best_splits(&offline_ctx(&ps), &so, m, 100);
        for width in [2, 4] {
            let pool = Pool::new(width);
            let ctx = SplitContext {
                pool: &pool,
                ..offline_ctx(&ps)
            };
            let pooled = best_splits(&ctx, &so, m, 100);
            assert_eq!(pooled.len(), serial.len());
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.axis, b.axis, "width {width}");
                assert_eq!(a.count, b.count, "width {width}");
                assert_eq!(a.cost, b.cost, "width {width}");
                assert_eq!(a.low_mbr, b.low_mbr);
                assert_eq!(a.high_mbr, b.high_mbr);
            }
        }
    }

    /// The two-sweep COMPUTEBOUNDINGBOXES the one-pass enumeration
    /// replaces: a forward sweep samples the prefix MBRs and in-Q counts
    /// at the positions, a backward sweep the suffix ones, reading every
    /// point twice. The oracle [`axis_candidates`] is held to, bit for
    /// bit.
    fn two_sweep_candidates(
        ctx: &SplitContext<'_>,
        orders: &SortOrders,
        axis: usize,
        positions: &[usize],
    ) -> Vec<SplitCandidate> {
        let ids = orders.ids(axis);
        let mut prefix_mbrs = Vec::with_capacity(positions.len());
        let mut prefix_in_q = Vec::with_capacity(positions.len());
        {
            let mut mbr = Mbr::empty(ctx.points.dim());
            let mut in_q = 0usize;
            let mut next = 0usize;
            for (i, &id) in ids.iter().enumerate() {
                mbr.include_point(ctx.points.point(id));
                if let Some(q) = ctx.query {
                    if ctx.points.in_region(id, q) {
                        in_q += 1;
                    }
                }
                if next < positions.len() && i + 1 == positions[next] {
                    prefix_mbrs.push(mbr);
                    prefix_in_q.push(in_q);
                    next += 1;
                }
            }
        }
        let mut suffix_mbrs = vec![Mbr::empty(ctx.points.dim()); positions.len()];
        let mut suffix_in_q = vec![0usize; positions.len()];
        {
            let mut mbr = Mbr::empty(ctx.points.dim());
            let mut in_q = 0usize;
            let mut next = positions.len();
            for (i, &id) in ids.iter().enumerate().rev() {
                mbr.include_point(ctx.points.point(id));
                if let Some(q) = ctx.query {
                    if ctx.points.in_region(id, q) {
                        in_q += 1;
                    }
                }
                if next > 0 && i == positions[next - 1] {
                    next -= 1;
                    suffix_mbrs[next] = mbr;
                    suffix_in_q[next] = in_q;
                }
            }
        }
        let mut candidates = Vec::with_capacity(positions.len());
        for (pi, &p) in positions.iter().enumerate() {
            let (low_mbr, high_mbr) = (prefix_mbrs[pi], suffix_mbrs[pi]);
            let (low_in_q, high_in_q) = (prefix_in_q[pi], suffix_in_q[pi]);
            let cq = if ctx.query.is_some() {
                div_ceil(low_in_q, ctx.leaf_capacity) + div_ceil(high_in_q, ctx.leaf_capacity)
            } else {
                0
            };
            let co = overlap_penalty(
                1.0,
                0,
                low_mbr.overlap_volume(&high_mbr),
                low_mbr.volume(),
                high_mbr.volume(),
            ) * ctx.beta_pow_h;
            candidates.push(SplitCandidate {
                axis,
                count: p,
                cost: SplitCost::new(cq, co),
                low_mbr,
                high_mbr,
                low_in_q,
                high_in_q,
            });
        }
        candidates
    }

    /// Everything a candidate carries, floats as bits: `-0.0` and `+0.0`
    /// differ here though `Mbr`'s `==` calls them equal.
    fn candidate_bits(c: &SplitCandidate) -> Vec<u64> {
        let mut bits = vec![
            c.axis as u64,
            c.count as u64,
            c.cost.cq,
            c.cost.co.to_bits(),
            c.low_in_q as u64,
            c.high_in_q as u64,
        ];
        for mbr in [&c.low_mbr, &c.high_mbr] {
            for a in 0..mbr.dim() {
                bits.extend([mbr.min(a).to_bits(), mbr.max(a).to_bits()]);
            }
        }
        bits
    }

    /// Points that stress the folds: both zeros (in runs, so a block
    /// edge can fall between a `-0.0` and a `+0.0` that tie for a
    /// bound), subnormals, duplicates, and ±1e300 — on axis 0 only, so
    /// no volume overflows.
    fn awkward_points(n: usize, dim: usize, seed: u64) -> PointSet {
        const PALETTE: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            5e-324,
            -5e-324,
            1.5,
            -1.5,
        ];
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let coords = (0..n * dim)
            .map(|i| {
                let r = next();
                match r % 5 {
                    0 | 1 => PALETTE[(r >> 8) as usize % PALETTE.len()],
                    2 => ((r >> 8) % 5) as f64 - 2.0,
                    3 if i % dim == 0 => [1e300, -1e300][(r >> 8) as usize % 2],
                    _ => ((r >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3,
                }
            })
            .collect();
        PointSet::from_rows(dim, coords)
    }

    /// Asserts the one-pass candidates of every axis equal the two-sweep
    /// oracle's bit for bit, with and without `query`, at several `m`.
    fn assert_one_pass_matches_oracle(ps: &PointSet, query: &Mbr, ms: &[usize]) {
        let so = SortOrders::build(ps, ps.all_ids());
        for q in [None, Some(query)] {
            let ctx = SplitContext {
                query: q,
                beta_pow_h: 4.0,
                ..offline_ctx(ps)
            };
            for &m in ms.iter().filter(|&&m| m >= 1 && m < so.len()) {
                let positions: Vec<usize> =
                    (1..).map(|i| i * m).take_while(|&p| p < so.len()).collect();
                for axis in 0..so.num_orders() {
                    let mut one_pass = Vec::new();
                    axis_candidates(&ctx, &so, axis, &positions, &mut one_pass);
                    one_pass.sort_by_key(|c| c.count);
                    let oracle = two_sweep_candidates(&ctx, &so, axis, &positions);
                    let (got, want): (Vec<_>, Vec<_>) = (
                        one_pass.iter().map(candidate_bits).collect(),
                        oracle.iter().map(candidate_bits).collect(),
                    );
                    assert_eq!(got, want, "m {m} axis {axis} query {}", q.is_some());
                }
            }
        }
    }

    #[test]
    fn one_pass_candidates_match_the_two_sweep_oracle() {
        for (n, dim, seed) in [
            (2, 1, 3),
            (9, 2, 5),
            (64, 3, 7),
            (333, 3, 11),
            (2_000, 2, 13),
        ] {
            let ps = awkward_points(n, dim, seed);
            let centre = vec![0.0; dim];
            let query = Mbr::of_ball(&centre, 1.5);
            assert_one_pass_matches_oracle(&ps, &query, &[1, 2, 3, 7, n / 8, n / 3, n - 1]);
        }
    }

    /// Zeros of both signs tie for a bound on both sides of every block
    /// edge: which one an MBR holds depends on the order the sweep meets
    /// them in, and the one-pass candidates must hold the same one.
    #[test]
    fn signed_zero_ties_across_block_edges_keep_the_sweep_order() {
        let patterns: [&[f64]; 4] = [
            &[-0.0, 0.0],
            &[0.0, -0.0],
            &[-0.0, -0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, -0.0, 1.0, -1.0, -0.0],
        ];
        for pattern in patterns {
            for n in [5, 12, 40] {
                // Axis 0 orders the points; axes 1 and 2 cycle through
                // the pattern, so every block is bounded by tied zeros.
                let coords: Vec<f64> = (0..n)
                    .flat_map(|i| {
                        let z = pattern[i % pattern.len()];
                        [i as f64, z, pattern[(i + 1) % pattern.len()]]
                    })
                    .collect();
                let ps = PointSet::from_rows(3, coords);
                let query = Mbr::of_ball(&[n as f64 / 2.0, 0.0, 0.0], n as f64 / 4.0);
                assert_one_pass_matches_oracle(&ps, &query, &[1, 2, 3, 4, 5, 7]);
            }
        }
    }
}
