//! The shared build core: partition an element with stop conditions and
//! recursively construct its (possibly partial) subtree.
//!
//! Both the offline BULKLOADCHUNK (query = `None`, never stops early) and
//! the online cracking paths (query = `Some(Q)`, stop conditions of
//! §IV-C step 3) run through [`build_element`]. The result is a
//! [`BuiltNode`] tree that the index installs into its arena; dry runs of
//! the Algorithm 2 search build the same trees on cloned partitions and
//! keep only the [`RunCost`].
//!
//! The `pool` argument is the offline build's: the bulk load fans its
//! candidate sweeps, stable partitions and per-piece recursion over it.
//! The online callers (`index/crack.rs`) pass `Pool::serial()`, and the
//! stop-condition counts, which only a query reaches, are serial at any
//! width.

use vkg_sync::pool::Pool;
use vkg_sync::Mutex;

use crate::geometry::{Mbr, PointSet};
use crate::rtree::cost::div_ceil;
use crate::rtree::split::SplitContext;
use crate::rtree::{best_splits, height_for, SortOrders};

use super::chooser::{GreedyChooser, SplitChooser};

/// Static build parameters (a subset of [`crate::config::VkgConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct BuildParams {
    /// Leaf capacity `N`.
    pub leaf_capacity: usize,
    /// Non-leaf fanout `M`.
    pub fanout: usize,
    /// Overlap-cost base β.
    pub beta: f64,
    /// Whether split *ranking* uses the query-aware `c_Q` component
    /// (§IV-B1). When false, candidates rank by overlap cost alone (the
    /// classic BULKLOADCHUNK model) while the stop conditions still apply
    /// — the `abl_cost` ablation isolates the contribution of the paper's
    /// two-component cost.
    pub query_aware_cost: bool,
}

/// Aggregate cost of one build run (one contour change candidate).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunCost {
    /// Σ ⌈|Q∩e|/N⌉ over the contour elements produced (Lemma 3; the
    /// candidate weight's major order in Algorithm 2 line 3/17).
    pub cq: u64,
    /// Σ βʰ·‖O‖/min(‖L‖,‖H‖) over the binary splits performed
    /// (secondary order, line 18).
    pub co: f64,
    /// Number of binary splits performed.
    pub splits: u64,
}

/// A subtree produced by a build run, not yet installed in the arena.
#[derive(Debug)]
pub struct BuiltNode {
    /// Bounding region of all points below.
    pub mbr: Mbr,
    /// Height (0 = leaf).
    pub height: u32,
    /// Children / payload.
    pub kind: BuiltKind,
}

/// Payload of a [`BuiltNode`].
#[derive(Debug)]
pub enum BuiltKind {
    /// Fully split internal node.
    Internal(Vec<BuiltNode>),
    /// Terminal leaf holding ≤ N point ids.
    Leaf(Vec<u32>),
    /// A contour partition that the stop conditions left unsplit.
    Unsplit(SortOrders),
}

impl BuiltNode {
    /// Number of nodes in this built subtree.
    pub fn node_count(&self) -> usize {
        match &self.kind {
            BuiltKind::Internal(children) => {
                1 + children.iter().map(BuiltNode::node_count).sum::<usize>()
            }
            _ => 1,
        }
    }

    /// Number of points covered.
    pub fn point_count(&self) -> usize {
        match &self.kind {
            BuiltKind::Internal(children) => children.iter().map(BuiltNode::point_count).sum(),
            BuiltKind::Leaf(ids) => ids.len(),
            BuiltKind::Unsplit(orders) => orders.len(),
        }
    }
}

/// Whether the §IV-C stop condition holds for a partition of `len` points
/// with `in_q` of them in the query region: `Q∩e = ∅` or
/// `⌈|Q∩e|/N⌉ = ⌈|e|/N⌉`.
pub fn stop_condition(in_q: usize, len: usize, leaf_capacity: usize) -> bool {
    in_q == 0 || div_ceil(in_q, leaf_capacity) == div_ceil(len, leaf_capacity)
}

/// Builds the subtree for one contour element.
///
/// * `query = None` — offline bulk load: no stop conditions, candidate
///   ranking by overlap cost only (classic BULKLOADCHUNK).
/// * `query = Some(Q)` — cracking: partitions irrelevant to `Q` or fully
///   covered by `Q` stay unsplit.
///
/// `cost` accumulates the run's `(c_Q, c_O)` and split count. `pool`
/// fans the candidate sweeps, stable partitions, and (offline) per-piece
/// recursion out over workers; a width-1 pool — what every online
/// caller passes — takes the exact serial code paths.
pub fn build_element(
    points: &PointSet,
    params: &BuildParams,
    orders: SortOrders,
    query: Option<&Mbr>,
    chooser: &mut dyn SplitChooser,
    cost: &mut RunCost,
    pool: &Pool,
) -> BuiltNode {
    let len = orders.len();
    let mbr = orders.mbr(points);

    // Terminal leaf: nothing to split.
    if len <= params.leaf_capacity {
        if let Some(q) = query {
            cost.cq += div_ceil(orders.count_in_region(points, q), params.leaf_capacity);
        }
        return BuiltNode {
            mbr,
            height: 0,
            kind: BuiltKind::Leaf(orders.into_ids()),
        };
    }

    let height = height_for(len, params.leaf_capacity, params.fanout);

    // Stop conditions (only online).
    if let Some(q) = query {
        let in_q = orders.count_in_region(points, q);
        if stop_condition(in_q, len, params.leaf_capacity) {
            cost.cq += div_ceil(in_q, params.leaf_capacity);
            return BuiltNode {
                mbr,
                height,
                kind: BuiltKind::Unsplit(orders),
            };
        }
    }

    // PARTITION: repeated best binary splits down to pieces of size ≤ m,
    // with per-piece stop conditions.
    let m = len.div_ceil(params.fanout);
    let ctx = SplitContext {
        points,
        query: if params.query_aware_cost { query } else { None },
        leaf_capacity: params.leaf_capacity,
        beta_pow_h: params.beta.powi(height as i32),
        pool,
    };
    let mut pieces: Vec<(SortOrders, Option<usize>)> = Vec::with_capacity(params.fanout);
    partition(
        &ctx,
        query,
        orders,
        None,
        m,
        chooser,
        cost,
        &mut pieces,
        true,
    );

    let mut children = Vec::with_capacity(pieces.len());
    // Offline bulk load with a single-choice (stateless) chooser: the
    // pieces are independent subtrees, so each one builds on its own
    // worker. The per-piece recursion gets a *serial* pool — the
    // fan-out at this level already owns the workers, and nesting
    // would oversubscribe the machine.
    let offline_parallel =
        query.is_none() && chooser.num_choices() == 1 && !pool.is_serial() && pieces.len() > 1;
    if offline_parallel {
        let inputs: Vec<Mutex<Option<SortOrders>>> = pieces
            .into_iter()
            .map(|(piece, _)| Mutex::new(Some(piece)))
            .collect();
        let outputs: Vec<Mutex<Option<(BuiltNode, RunCost)>>> =
            inputs.iter().map(|_| Mutex::new(None)).collect();
        let serial = Pool::serial();
        pool.run(inputs.len(), |i| {
            let Some(piece) = inputs[i].lock().take() else {
                return;
            };
            let mut piece_cost = RunCost::default();
            let built = build_element(
                points,
                params,
                piece,
                None,
                &mut GreedyChooser,
                &mut piece_cost,
                &serial,
            );
            *outputs[i].lock() = Some((built, piece_cost));
        });
        // Merge in piece order so the aggregate cost sums the same
        // addends in the same sequence on every run at a given width.
        for slot in outputs {
            if let Some((built, piece_cost)) = slot.into_inner() {
                cost.cq += piece_cost.cq;
                cost.co += piece_cost.co;
                cost.splits += piece_cost.splits;
                children.push(built);
            }
        }
        return BuiltNode {
            mbr,
            height,
            kind: BuiltKind::Internal(children),
        };
    }

    for (piece, stopped) in pieces {
        if let Some(in_q) = stopped {
            // Stays a contour element (or terminal leaf when small).
            let piece_mbr = piece.mbr(points);
            let piece_len = piece.len();
            cost.cq += div_ceil(in_q, params.leaf_capacity);
            let child = if piece_len <= params.leaf_capacity {
                BuiltNode {
                    mbr: piece_mbr,
                    height: 0,
                    kind: BuiltKind::Leaf(piece.into_ids()),
                }
            } else {
                BuiltNode {
                    mbr: piece_mbr,
                    height: height_for(piece_len, params.leaf_capacity, params.fanout),
                    kind: BuiltKind::Unsplit(piece),
                }
            };
            children.push(child);
        } else {
            // Reached the per-child size ≤ m: recurse to the next level
            // (line 6 of BULKLOADCHUNK / step 4 of INCREMENTALINDEXBUILD).
            children.push(build_element(
                points, params, piece, query, chooser, cost, pool,
            ));
        }
    }

    BuiltNode {
        mbr,
        height,
        kind: BuiltKind::Internal(children),
    }
}

/// Recursive binary partition of one element into pieces of size ≤ `m`.
///
/// `stop_query` drives the §IV-C stop conditions (always the real query
/// region); the *ranking* query inside `ctx` may be disabled by the
/// cost-model ablation. `in_q` is the partition's count of points in
/// `stop_query` when the caller knows it: a split ranked with the query
/// hands each half the count its candidate carries, so only an
/// ablation's halves are counted afresh. `force` is true for the root
/// call: the element-level stop conditions were already evaluated by the
/// caller, so the first split is mandatory (otherwise a stopped element
/// would recurse forever).
///
/// Each piece lands in `out` with the in-Q count the stop conditions
/// left it unsplit at, or `None` when it reached size `m`.
#[allow(
    clippy::too_many_arguments,
    reason = "recursion state threaded explicitly: context, chooser, cost and output accumulators"
)]
fn partition(
    ctx: &SplitContext<'_>,
    stop_query: Option<&Mbr>,
    orders: SortOrders,
    in_q: Option<usize>,
    m: usize,
    chooser: &mut dyn SplitChooser,
    cost: &mut RunCost,
    out: &mut Vec<(SortOrders, Option<usize>)>,
    force: bool,
) {
    let len = orders.len();
    if len <= m {
        out.push((orders, None));
        return;
    }
    if !force {
        if let Some(q) = stop_query {
            debug_assert!(
                in_q.is_none_or(|c| c == orders.count_in_region(ctx.points, q)),
                "carried in-Q count is stale"
            );
            let in_q = in_q.unwrap_or_else(|| orders.count_in_region(ctx.points, q));
            if stop_condition(in_q, len, ctx.leaf_capacity) {
                out.push((orders, Some(in_q)));
                return;
            }
        }
    }
    let candidates = best_splits(ctx, &orders, m, chooser.num_choices());
    debug_assert!(!candidates.is_empty(), "len > m must yield a position");
    let pick = chooser.choose(&candidates);
    let chosen = &candidates[pick];
    cost.co += chosen.cost.co;
    cost.splits += 1;
    // A query in the context is the stop query (the ablation clears
    // it), so the candidate's in-Q counts are the halves' counts.
    let (low_in_q, high_in_q) = match ctx.query {
        Some(_) => (Some(chosen.low_in_q), Some(chosen.high_in_q)),
        None => (None, None),
    };
    let (low, high) = orders.split_by_prefix_pooled(chosen.axis, chosen.count, ctx.pool);
    partition(ctx, stop_query, low, low_in_q, m, chooser, cost, out, false);
    partition(
        ctx, stop_query, high, high_in_q, m, chooser, cost, out, false,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    static SERIAL: Pool = Pool::serial();

    fn params() -> BuildParams {
        BuildParams {
            leaf_capacity: 8,
            fanout: 4,
            beta: 2.0,
            query_aware_cost: true,
        }
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
        PointSet::from_rows(dim, coords)
    }

    fn collect_leaf_ids(node: &BuiltNode, out: &mut Vec<u32>) {
        match &node.kind {
            BuiltKind::Internal(children) => {
                for c in children {
                    collect_leaf_ids(c, out);
                }
            }
            BuiltKind::Leaf(ids) => out.extend_from_slice(ids),
            BuiltKind::Unsplit(orders) => out.extend_from_slice(orders.ids(0)),
        }
    }

    fn max_leaf_size(node: &BuiltNode) -> usize {
        match &node.kind {
            BuiltKind::Internal(children) => children.iter().map(max_leaf_size).max().unwrap_or(0),
            BuiltKind::Leaf(ids) => ids.len(),
            BuiltKind::Unsplit(orders) => orders.len(),
        }
    }

    #[test]
    fn offline_build_is_complete() {
        let ps = random_points(500, 3, 1);
        let orders = SortOrders::build(&ps, ps.all_ids());
        let mut cost = RunCost::default();
        let node = build_element(
            &ps,
            &params(),
            orders,
            None,
            &mut GreedyChooser,
            &mut cost,
            &SERIAL,
        );
        // Offline: every point in a real leaf, all leaves ≤ N.
        let mut ids = Vec::new();
        collect_leaf_ids(&node, &mut ids);
        ids.sort_unstable();
        assert_eq!(ids, (0..500).collect::<Vec<u32>>());
        assert!(max_leaf_size(&node) <= 8);
        assert!(cost.splits > 0);
        assert_eq!(cost.cq, 0, "offline runs have no query cost");
        fn no_unsplit(n: &BuiltNode) -> bool {
            match &n.kind {
                BuiltKind::Internal(cs) => cs.iter().all(no_unsplit),
                BuiltKind::Leaf(_) => true,
                BuiltKind::Unsplit(_) => false,
            }
        }
        assert!(no_unsplit(&node), "offline build must fully split");
    }

    #[test]
    fn small_input_becomes_leaf() {
        let ps = random_points(5, 3, 2);
        let orders = SortOrders::build(&ps, ps.all_ids());
        let mut cost = RunCost::default();
        let node = build_element(
            &ps,
            &params(),
            orders,
            None,
            &mut GreedyChooser,
            &mut cost,
            &SERIAL,
        );
        assert!(matches!(node.kind, BuiltKind::Leaf(_)));
        assert_eq!(node.height, 0);
        assert_eq!(cost.splits, 0);
    }

    #[test]
    fn cracked_build_is_partial_but_lossless() {
        let ps = random_points(2_000, 3, 3);
        let orders = SortOrders::build(&ps, ps.all_ids());
        // Small query ball in a corner of the space.
        let q = Mbr::of_ball(&[8.0, 8.0, 8.0], 1.5);
        let mut cost = RunCost::default();
        let node = build_element(
            &ps,
            &params(),
            orders,
            Some(&q),
            &mut GreedyChooser,
            &mut cost,
            &SERIAL,
        );
        // All points still present exactly once (Lemma 1).
        let mut ids = Vec::new();
        collect_leaf_ids(&node, &mut ids);
        ids.sort_unstable();
        assert_eq!(ids, (0..2_000).collect::<Vec<u32>>());
        // The cracked tree must be much smaller than a full build.
        let mut full_cost = RunCost::default();
        let full_orders = SortOrders::build(&ps, ps.all_ids());
        let full = build_element(
            &ps,
            &params(),
            full_orders,
            None,
            &mut GreedyChooser,
            &mut full_cost,
            &SERIAL,
        );
        assert!(
            cost.splits * 3 < full_cost.splits,
            "cracked {} splits vs full {}",
            cost.splits,
            full_cost.splits
        );
        assert!(node.node_count() < full.node_count());
    }

    #[test]
    fn disjoint_query_leaves_element_unsplit() {
        let ps = random_points(300, 2, 4);
        let orders = SortOrders::build(&ps, ps.all_ids());
        let q = Mbr::of_ball(&[100.0, 100.0], 1.0); // far away
        let mut cost = RunCost::default();
        let node = build_element(
            &ps,
            &params(),
            orders,
            Some(&q),
            &mut GreedyChooser,
            &mut cost,
            &SERIAL,
        );
        assert!(matches!(node.kind, BuiltKind::Unsplit(_)));
        assert_eq!(cost.splits, 0);
        assert_eq!(cost.cq, 0);
    }

    #[test]
    fn covering_query_stops_immediately() {
        // Q covers everything → ⌈|Q∩e|/N⌉ = ⌈|e|/N⌉ → unsplit.
        let ps = random_points(300, 2, 5);
        let orders = SortOrders::build(&ps, ps.all_ids());
        let q = Mbr::of_ball(&[0.0, 0.0], 1_000.0);
        let mut cost = RunCost::default();
        let node = build_element(
            &ps,
            &params(),
            orders,
            Some(&q),
            &mut GreedyChooser,
            &mut cost,
            &SERIAL,
        );
        assert!(matches!(node.kind, BuiltKind::Unsplit(_)));
        assert_eq!(cost.splits, 0);
        assert_eq!(cost.cq, div_ceil(300, 8));
    }

    #[test]
    fn stop_condition_cases() {
        assert!(stop_condition(0, 100, 8), "empty intersection stops");
        assert!(stop_condition(100, 100, 8), "full coverage stops");
        assert!(stop_condition(97, 100, 8), "⌈97/8⌉ = ⌈100/8⌉ = 13");
        assert!(!stop_condition(1, 100, 8));
        assert!(!stop_condition(50, 100, 8));
    }

    #[test]
    fn run_cost_counts_contour_pages() {
        // Query hits a moderate slab: c_Q must equal the sum over produced
        // contour elements of ⌈|Q∩e|/N⌉, recomputed independently.
        let ps = random_points(800, 2, 6);
        let orders = SortOrders::build(&ps, ps.all_ids());
        let q = Mbr::of_ball(&[0.0, 0.0], 3.0);
        let mut cost = RunCost::default();
        let node = build_element(
            &ps,
            &params(),
            orders,
            Some(&q),
            &mut GreedyChooser,
            &mut cost,
            &SERIAL,
        );
        fn contour_cq(n: &BuiltNode, ps: &PointSet, q: &Mbr, cap: usize) -> u64 {
            match &n.kind {
                BuiltKind::Internal(cs) => cs.iter().map(|c| contour_cq(c, ps, q, cap)).sum(),
                BuiltKind::Leaf(ids) => {
                    div_ceil(ids.iter().filter(|&&i| ps.in_region(i, q)).count(), cap)
                }
                BuiltKind::Unsplit(o) => div_ceil(o.count_in_region(ps, q), cap),
            }
        }
        assert_eq!(cost.cq, contour_cq(&node, &ps, &q, 8));
    }

    /// Structural equality of two built trees: identical MBRs, heights,
    /// leaf id sequences, and unsplit partitions along every path.
    fn trees_equal(a: &BuiltNode, b: &BuiltNode) -> bool {
        if a.mbr != b.mbr || a.height != b.height {
            return false;
        }
        match (&a.kind, &b.kind) {
            (BuiltKind::Internal(ca), BuiltKind::Internal(cb)) => {
                ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| trees_equal(x, y))
            }
            (BuiltKind::Leaf(ia), BuiltKind::Leaf(ib)) => ia == ib,
            (BuiltKind::Unsplit(oa), BuiltKind::Unsplit(ob)) => oa == ob,
            _ => false,
        }
    }

    #[test]
    fn pooled_offline_build_matches_serial_tree() {
        let ps = random_points(6_000, 3, 77);
        let serial_orders = SortOrders::build(&ps, ps.all_ids());
        let mut c1 = RunCost::default();
        let t1 = build_element(
            &ps,
            &params(),
            serial_orders,
            None,
            &mut GreedyChooser,
            &mut c1,
            &SERIAL,
        );
        for width in [2, 4] {
            let pool = Pool::new(width);
            let orders = SortOrders::build_pooled(&ps, ps.all_ids(), &pool);
            let mut c2 = RunCost::default();
            let t2 = build_element(
                &ps,
                &params(),
                orders,
                None,
                &mut GreedyChooser,
                &mut c2,
                &pool,
            );
            assert!(
                trees_equal(&t1, &t2),
                "width {width} built a different tree"
            );
            assert_eq!(c1.splits, c2.splits, "width {width}");
            assert_eq!(c1.cq, c2.cq, "width {width}");
        }
    }

    /// Each half of a query-ranked split inherits its in-Q count from
    /// the chosen candidate instead of counting again: every stopped
    /// piece's carried count equals a fresh count, with the query in the
    /// ranking (carried) and without it (counted afresh).
    #[test]
    fn carried_in_q_counts_equal_a_fresh_count() {
        let ps = random_points(3_000, 3, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut stopped = 0;
        for query_aware in [true, false] {
            for _ in 0..20 {
                let centre: Vec<f64> = (0..3).map(|_| rng.gen_range(-8.0..8.0)).collect();
                let q = Mbr::of_ball(&centre, rng.gen_range(0.5..6.0));
                let ctx = SplitContext {
                    points: &ps,
                    query: query_aware.then_some(&q),
                    leaf_capacity: 8,
                    beta_pow_h: 2.0,
                    pool: &SERIAL,
                };
                let mut pieces = Vec::new();
                let orders = SortOrders::build(&ps, ps.all_ids());
                let in_q = orders.count_in_region(&ps, &q);
                partition(
                    &ctx,
                    Some(&q),
                    orders,
                    Some(in_q),
                    40,
                    &mut GreedyChooser,
                    &mut RunCost::default(),
                    &mut pieces,
                    true,
                );
                for (piece, carried) in &pieces {
                    if let Some(c) = carried {
                        assert_eq!(*c, piece.count_in_region(&ps, &q));
                        stopped += 1;
                    } else {
                        assert!(piece.len() <= 40);
                    }
                }
                let covered: usize = pieces.iter().map(|(p, _)| p.len()).sum();
                assert_eq!(covered, 3_000);
            }
        }
        assert!(stopped >= 40, "only {stopped} pieces stopped");
    }
}
