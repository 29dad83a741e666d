//! The cracking / uneven R-tree index (§IV).
//!
//! The index starts as a single unsplit root partition and is shaped by
//! the queries: each call to [`CrackingIndex::crack`] performs the
//! partial, query-directed top-down build of INCREMENTALINDEXBUILD (or
//! Algorithm 2's TOP-KSPLITSINDEXBUILD when the strategy asks for
//! multiple split choices). A full offline
//! [`CrackingIndex::bulk_load`] path implements the classic
//! BULKLOADCHUNK baseline the paper compares against.
//!
//! The implementation is decomposed into cohesive submodules:
//!
//! - [`arena`] — flat node storage ([`Node`] / [`NodeKind`] / [`NodeId`])
//!   and size accounting;
//! - [`contour`] — reads over the current contour (Definitions 2–3):
//!   region search, best-first traversal, element summaries;
//! - [`crack`] — the crack/split driver turning query regions into
//!   partial builds;
//! - [`build`] — the recursive build core shared by cracking and bulk
//!   loading;
//! - [`chooser`] — split-choice strategies (greedy and top-k candidates);
//! - [`topk`] — Algorithm 2's TOP-KSPLITSINDEXBUILD search;
//! - [`dynamic`] — online insertions and removals.

pub mod arena;
pub mod build;
pub mod chooser;
pub mod contour;
pub mod crack;
pub mod dynamic;
pub mod topk;

pub use arena::{Node, NodeId, NodeKind};
pub use contour::{ElementSummary, BATCH};

use vkg_sync::pool::Pool;
use vkg_sync::{Arc, AtomicU64, Ordering};

use crate::config::SplitStrategy;
use crate::geometry::PointSet;
use crate::rtree::SortOrders;
use crate::stats::IndexStats;

use build::{build_element, BuildParams, RunCost};
use chooser::GreedyChooser;

/// The index's S₁ evaluation counter, held apart from the index
/// ([`CrackingIndex::s1_counter`]).
#[derive(Debug, Clone)]
pub struct S1Counter(Arc<AtomicU64>);

impl S1Counter {
    /// Adds `evals` S₁ distance evaluations.
    pub fn add(&self, evals: u64) {
        // relaxed: a statistic; no reader infers other state from it.
        self.0.fetch_add(evals, Ordering::Relaxed);
    }
}

/// The online cracking R-tree over a set of S₂ points.
#[derive(Debug)]
pub struct CrackingIndex {
    points: PointSet,
    nodes: Vec<Node>,
    root: NodeId,
    params: BuildParams,
    strategy: SplitStrategy,
    /// Structure counters: only `&mut self` operations move them.
    splits_performed: u64,
    nodes_created: u64,
    /// Access counters: reads take `&self` and run concurrently under
    /// the facade's shared guard, so these are atomics, bumped once per
    /// traversal. The S₁ counter is shared with [`S1Counter`] handles:
    /// an aggregate counts its evaluations after the guard is gone.
    elements_accessed: AtomicU64,
    points_examined: AtomicU64,
    s1_distance_evals: Arc<AtomicU64>,
    /// Tombstoned point ids (dynamic removals; ids are never reused).
    removed: std::collections::HashSet<u32>,
}

impl CrackingIndex {
    /// Creates an index whose tree is a single unsplit root — query
    /// processing can start immediately (§IV-C: "we can start processing
    /// the first query when the index only has a root node").
    pub fn new(
        points: PointSet,
        leaf_capacity: usize,
        fanout: usize,
        beta: f64,
        strategy: SplitStrategy,
    ) -> Self {
        Self::with_pool(
            points,
            leaf_capacity,
            fanout,
            beta,
            strategy,
            Pool::serial(),
        )
    }

    /// [`CrackingIndex::new`] with the root sort orders built over
    /// `pool`. The pool is a set-up argument, not index state: the index
    /// does not keep it, and every later search, crack and write is
    /// serial. A width-1 pool reproduces `new` exactly.
    pub fn with_pool(
        points: PointSet,
        leaf_capacity: usize,
        fanout: usize,
        beta: f64,
        strategy: SplitStrategy,
        pool: Pool,
    ) -> Self {
        let mut index = Self::unpacked(points, leaf_capacity, fanout, beta, strategy, &pool);
        index.pack_root();
        index
    }

    /// An index whose one node is the root over every point, a leaf or
    /// an unsplit partition, with its [`Node::coords`] and [`Node::sums`]
    /// not yet taken: [`CrackingIndex::with_pool`] packs them for the
    /// first query to read, and the bulk load takes an unsplit root apart
    /// without them.
    fn unpacked(
        points: PointSet,
        leaf_capacity: usize,
        fanout: usize,
        beta: f64,
        strategy: SplitStrategy,
        pool: &Pool,
    ) -> Self {
        assert!(leaf_capacity >= 2, "leaf capacity N must be ≥ 2");
        assert!(fanout >= 2, "fanout M must be ≥ 2");
        assert!(beta >= 1.0, "β must be ≥ 1");
        let params = BuildParams {
            leaf_capacity,
            fanout,
            beta,
            query_aware_cost: true,
        };
        let ids = points.all_ids();
        let orders = SortOrders::build_pooled(&points, ids, pool);
        let mbr = orders.mbr(&points);
        let len = orders.len();
        let kind = if len <= leaf_capacity {
            NodeKind::Leaf(orders.into_ids())
        } else {
            NodeKind::Unsplit(orders)
        };
        let height = crate::rtree::height_for(len, leaf_capacity, fanout);
        let root_node = Node {
            mbr,
            height,
            kind,
            coords: Vec::new(),
            sums: None,
        };
        Self {
            points,
            nodes: vec![root_node],
            root: 0,
            params,
            strategy,
            splits_performed: 0,
            nodes_created: 1,
            elements_accessed: AtomicU64::new(0),
            points_examined: AtomicU64::new(0),
            s1_distance_evals: Arc::new(AtomicU64::new(0)),
            removed: std::collections::HashSet::new(),
        }
    }

    /// Takes the root's [`Node::coords`] and [`Node::sums`] from its ids.
    fn pack_root(&mut self) {
        let root = &mut self.nodes[self.root as usize];
        (root.coords, root.sums) = arena::pack(&self.points, &root.kind);
    }

    /// Builds the complete balanced index offline (the BULKLOADCHUNK
    /// baseline of §VI). No stop conditions; every leaf materialized.
    pub fn bulk_load(points: PointSet, leaf_capacity: usize, fanout: usize, beta: f64) -> Self {
        Self::bulk_load_with_pool(points, leaf_capacity, fanout, beta, Pool::serial())
    }

    /// [`CrackingIndex::bulk_load`] with an explicit pool: sort-order
    /// construction, candidate sweeps, stable partitions, and the
    /// top-level piece recursion all fan out. The tree is structurally
    /// identical at every width (split choices are deterministic); a
    /// width-1 pool is bit-identical to `bulk_load`. The pool serves
    /// this one offline build and is dropped with it: the returned
    /// index is as serial as any other.
    pub fn bulk_load_with_pool(
        points: PointSet,
        leaf_capacity: usize,
        fanout: usize,
        beta: f64,
        pool: Pool,
    ) -> Self {
        let mut index = Self::unpacked(
            points,
            leaf_capacity,
            fanout,
            beta,
            SplitStrategy::Greedy,
            &pool,
        );
        let root = index.root;
        // A root that already fits in one leaf needs no building: it stays
        // the one contour element, so it is packed. Only an unsplit root is
        // taken apart (swapping the kind out first would destroy a leaf
        // root's payload), and unpacked, since the built tree replaces it
        // before anything reads it.
        if matches!(index.nodes[root as usize].kind, NodeKind::Unsplit(_)) {
            #[expect(
                clippy::unreachable,
                reason = "replace returns the value the matches! above proved Unsplit"
            )]
            let NodeKind::Unsplit(orders) = std::mem::replace(
                &mut index.nodes[root as usize].kind,
                NodeKind::Internal(Vec::new()),
            ) else {
                unreachable!("kind matched Unsplit above");
            };
            let mut cost = RunCost::default();
            let built = build_element(
                &index.points,
                &index.params,
                orders,
                None,
                &mut GreedyChooser,
                &mut cost,
                &pool,
            );
            index.splits_performed += cost.splits;
            index.install(root, built);
        } else {
            index.pack_root();
        }
        index
    }

    /// Disables (or re-enables) the query-aware `c_Q` component of the
    /// split-ranking cost — the `abl_cost` ablation. Stop conditions are
    /// unaffected.
    pub fn set_query_aware_cost(&mut self, enabled: bool) {
        self.params.query_aware_cost = enabled;
    }

    /// The point set the index is built over.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// Dimensionality α of the index space.
    pub fn dim(&self) -> usize {
        self.points.dim()
    }

    /// Current statistics. Under concurrent readers the three access
    /// counters are a monotone sample, not one cut across them.
    pub fn stats(&self) -> IndexStats {
        // relaxed: statistics; no reader infers other state from them.
        let sample = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        IndexStats {
            splits_performed: self.splits_performed,
            nodes_created: self.nodes_created,
            elements_accessed: sample(&self.elements_accessed),
            points_examined: sample(&self.points_examined),
            s1_distance_evals: sample(&self.s1_distance_evals),
        }
    }

    /// Adds one traversal's contour elements and points to the access
    /// counters.
    pub(super) fn count_access(&self, elements: u64, points: u64) {
        // relaxed: statistics; no reader infers other state from them.
        self.elements_accessed
            .fetch_add(elements, Ordering::Relaxed);
        // relaxed: as above.
        self.points_examined.fetch_add(points, Ordering::Relaxed);
    }

    /// Adds a query's S₁ distance evaluations to the access counters
    /// (the oracle runs in the query pipelines, not in the index).
    pub fn count_s1_evals(&self, evals: u64) {
        // relaxed: a statistic; no reader infers other state from it.
        self.s1_distance_evals.fetch_add(evals, Ordering::Relaxed);
    }

    /// A handle on the S₁ evaluation counter that stays valid after the
    /// borrow it was taken from — and the lock guarding that borrow —
    /// is gone.
    pub fn s1_counter(&self) -> S1Counter {
        S1Counter(Arc::clone(&self.s1_distance_evals))
    }

    /// Resets the per-query access counters (splits and nodes are
    /// cumulative structure counters and are preserved).
    pub fn reset_access_counters(&mut self) {
        self.elements_accessed = AtomicU64::new(0);
        self.points_examined = AtomicU64::new(0);
        // relaxed: `&mut self` excludes every other access through the
        // index; a handle still held elsewhere adds to the fresh count.
        self.s1_distance_evals.store(0, Ordering::Relaxed);
    }

    /// Leaf capacity `N`.
    pub fn leaf_capacity(&self) -> usize {
        self.params.leaf_capacity
    }

    /// Consistency checks used by the test-suite: Lemma 1 (the contour
    /// partitions the point ids), MBR containment along every path, and
    /// every element's [`Node::coords`] and stored [`Node::sums`] equal,
    /// bit for bit, to a fresh gather and pass.
    ///
    /// # Panics
    /// Panics on violation.
    pub fn check_invariants(&self) {
        // Lemma 1: contour elements are mutually exclusive and cover all
        // live points; tombstoned points must appear nowhere.
        let mut seen = vec![false; self.points.len()];
        for id in self.contour() {
            for &pid in self.element_point_ids(id) {
                assert!(
                    !seen[pid as usize],
                    "point {pid} appears in two contour elements"
                );
                assert!(
                    !self.removed.contains(&pid),
                    "tombstoned point {pid} still indexed"
                );
                seen[pid as usize] = true;
            }
        }
        for (pid, &s) in seen.iter().enumerate() {
            assert!(
                s || self.removed.contains(&(pid as u32)),
                "live point {pid} is missing from the contour"
            );
        }
        // MBR containment, child coverage and element sums.
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (coords, sums) = arena::pack(&self.points, &node.kind);
            assert!(
                bits(&node.coords) == bits(&coords),
                "node {id}: packed coordinates differ from a fresh gather"
            );
            let fresh = sums.unwrap_or_default();
            assert!(
                node.sums.as_deref().is_none_or(|s| bits(s) == bits(&fresh)),
                "node {id}: stored sums differ from a fresh pass"
            );
            match &node.kind {
                NodeKind::Internal(children) => {
                    assert!(!children.is_empty(), "internal node {id} has no children");
                    for &c in children {
                        let child = &self.nodes[c as usize];
                        assert!(
                            node.mbr.contains_mbr(&child.mbr),
                            "child {c} MBR escapes parent {id}"
                        );
                        stack.push(c);
                    }
                }
                NodeKind::Leaf(ids) => {
                    for &pid in ids {
                        assert!(
                            node.mbr.contains_point(self.points.point(pid)),
                            "leaf point {pid} outside node MBR"
                        );
                    }
                }
                NodeKind::Unsplit(orders) => {
                    for &pid in orders.ids(0) {
                        assert!(
                            node.mbr.contains_point(self.points.point(pid)),
                            "partition point {pid} outside node MBR"
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Mbr;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
        PointSet::from_rows(dim, coords)
    }

    fn fresh(n: usize, strategy: SplitStrategy) -> CrackingIndex {
        CrackingIndex::new(random_points(n, 3, 42), 16, 8, 2.0, strategy)
    }

    /// Brute-force region query for ground truth.
    fn brute_force(ps: &PointSet, q: &Mbr) -> Vec<u32> {
        (0..ps.len() as u32)
            .filter(|&i| ps.in_region(i, q))
            .collect()
    }

    #[test]
    fn new_index_is_root_only() {
        let idx = fresh(1_000, SplitStrategy::Greedy);
        assert_eq!(idx.node_count(), 1);
        assert_eq!(idx.contour(), vec![0]);
        idx.check_invariants();
    }

    #[test]
    fn tiny_input_is_leaf_root() {
        let idx = fresh(10, SplitStrategy::Greedy);
        assert_eq!(idx.node_count(), 1);
        assert!(matches!(idx.nodes[0].kind, NodeKind::Leaf(_)));
        idx.check_invariants();
    }

    #[test]
    fn search_on_unsplit_root_finds_everything() {
        let idx = fresh(500, SplitStrategy::Greedy);
        let q = Mbr::of_ball(&[0.0, 0.0, 0.0], 4.0);
        let mut found = Vec::new();
        idx.search_region(&q, |id| found.push(id));
        found.sort_unstable();
        assert_eq!(found, brute_force(idx.points(), &q));
        assert!(idx.stats().points_examined >= found.len() as u64);
    }

    #[test]
    fn crack_then_search_is_exact() {
        let mut idx = fresh(3_000, SplitStrategy::Greedy);
        let q = Mbr::of_ball(&[2.0, -3.0, 5.0], 2.0);
        idx.crack(&q);
        idx.check_invariants();
        let mut found = Vec::new();
        idx.search_region(&q, |id| found.push(id));
        found.sort_unstable();
        assert_eq!(found, brute_force(idx.points(), &q));
        assert!(idx.node_count() > 1, "crack must split the root");
    }

    #[test]
    fn crack_is_idempotent() {
        let mut idx = fresh(3_000, SplitStrategy::Greedy);
        let q = Mbr::of_ball(&[2.0, -3.0, 5.0], 2.0);
        idx.crack(&q);
        let nodes_after_first = idx.node_count();
        let splits_after_first = idx.stats().splits_performed;
        idx.crack(&q);
        assert_eq!(
            idx.node_count(),
            nodes_after_first,
            "re-crack must not grow"
        );
        assert_eq!(idx.stats().splits_performed, splits_after_first);
        idx.check_invariants();
    }

    #[test]
    fn successive_queries_grow_then_converge() {
        let mut idx = fresh(5_000, SplitStrategy::Greedy);
        let mut rng = StdRng::seed_from_u64(7);
        // Queries cluster around a few hot centers — Figs. 9–11 measure
        // convergence under a *fixed* query distribution, where later
        // queries revisit cracked territory. Independent uniform queries
        // would keep hitting virgin space and never converge.
        let hot: Vec<[f64; 3]> = (0..4)
            .map(|_| {
                [
                    rng.gen_range(-8.0..8.0),
                    rng.gen_range(-8.0..8.0),
                    rng.gen_range(-8.0..8.0),
                ]
            })
            .collect();
        let mut sizes = Vec::new();
        for i in 0..24 {
            let h = hot[i % hot.len()];
            let c = [
                h[0] + rng.gen_range(-0.5..0.5),
                h[1] + rng.gen_range(-0.5..0.5),
                h[2] + rng.gen_range(-0.5..0.5),
            ];
            let q = Mbr::of_ball(&c, 1.0);
            idx.crack(&q);
            sizes.push(idx.node_count());
        }
        idx.check_invariants();
        // Growth must slow down (convergence of Figs. 9–11): the second
        // half of the workload revisits regions the first half cracked.
        let early: usize = sizes[11] - sizes[0];
        let late: usize = sizes[23] - sizes[12];
        assert!(late <= early, "early growth {early}, late {late}");
    }

    #[test]
    fn bulk_load_builds_complete_tree() {
        let ps = random_points(2_000, 3, 9);
        let idx = CrackingIndex::bulk_load(ps, 16, 8, 2.0);
        idx.check_invariants();
        // No unsplit partitions anywhere.
        for id in idx.contour() {
            assert!(
                matches!(idx.nodes[id as usize].kind, NodeKind::Leaf(_)),
                "bulk-loaded index must be fully split"
            );
        }
        // Leaf sizes bounded by N.
        for id in idx.contour() {
            assert!(idx.element_point_ids(id).len() <= 16);
        }
    }

    #[test]
    fn cracked_index_much_smaller_than_bulk() {
        let ps = random_points(20_000, 3, 11);
        let bulk = CrackingIndex::bulk_load(ps.clone(), 16, 8, 2.0);
        let mut cracked = CrackingIndex::new(ps, 16, 8, 2.0, SplitStrategy::Greedy);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let c = [
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
            ];
            cracked.crack(&Mbr::of_ball(&c, 0.8));
        }
        assert!(
            cracked.node_count() * 3 < bulk.node_count(),
            "cracked {} nodes vs bulk {}",
            cracked.node_count(),
            bulk.node_count()
        );
        assert!(
            cracked.stats().splits_performed * 3 < bulk.stats().splits_performed,
            "cracked {} splits vs bulk {}",
            cracked.stats().splits_performed,
            bulk.stats().splits_performed
        );
    }

    #[test]
    fn bulk_and_cracked_search_agree() {
        let ps = random_points(4_000, 3, 21);
        let bulk = CrackingIndex::bulk_load(ps.clone(), 16, 8, 2.0);
        let mut cracked = CrackingIndex::new(ps, 16, 8, 2.0, SplitStrategy::Greedy);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let c = [
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
            ];
            let q = Mbr::of_ball(&c, 1.5);
            cracked.crack(&q);
            let mut a = Vec::new();
            bulk.search_region(&q, |id| a.push(id));
            let mut b = Vec::new();
            cracked.search_region(&q, |id| b.push(id));
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn topk_strategy_produces_valid_index() {
        let mut idx = fresh(3_000, SplitStrategy::TopK { choices: 3 });
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let c = [
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
                rng.gen_range(-10.0..10.0),
            ];
            let q = Mbr::of_ball(&c, 1.5);
            idx.crack(&q);
            idx.check_invariants();
            let mut found = Vec::new();
            idx.search_region(&q, |id| found.push(id));
            found.sort_unstable();
            assert_eq!(found, brute_force(idx.points(), &q));
        }
    }

    #[test]
    fn index_bytes_grow_with_cracking() {
        let mut idx = fresh(5_000, SplitStrategy::Greedy);
        let before = idx.index_bytes();
        idx.crack(&Mbr::of_ball(&[0.0, 0.0, 0.0], 2.0));
        // Splitting adds node envelopes even though payload shrinks per
        // element; byte accounting must stay positive and sane.
        assert!(idx.index_bytes() > 0);
        assert!(before > 0);
    }

    #[test]
    fn empty_point_set() {
        let ps = PointSet::from_rows(3, vec![]);
        let mut idx = CrackingIndex::new(ps, 8, 4, 1.0, SplitStrategy::Greedy);
        let q = Mbr::of_ball(&[0.0, 0.0, 0.0], 1.0);
        idx.crack(&q);
        let mut found = Vec::new();
        idx.search_region(&q, |id| found.push(id));
        assert!(found.is_empty());
        idx.check_invariants();
    }
}
