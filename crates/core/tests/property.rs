//! Property-based tests for the index core: MBR algebra, sort-order
//! splits, the cracking invariants (Lemma 1), search exactness against
//! brute force, the best-first traversal and Algorithm 3 against a
//! sort-everything oracle, the crack pre-check against the crack itself
//! (and the shared read protocol against its exclusive composition),
//! and the aggregate estimators.

use proptest::prelude::*;

use vkg_core::config::SplitStrategy;
use vkg_core::geometry::points::row_norm_sq;
use vkg_core::geometry::{Mbr, PointSet};
use vkg_core::index::build::stop_condition;
use vkg_core::index::{CrackingIndex, NodeId, NodeKind, BATCH};
use vkg_core::metrics::names;
use vkg_core::query::aggregate;
use vkg_core::query::topk::{find_top_k, find_top_k_read, TopKResult};
use vkg_core::rtree::SortOrders;
use vkg_core::{
    AggregateKind, AggregateSpec, Direction, Filter, Query, VirtualKnowledgeGraph, VkgConfig,
    VkgError,
};
use vkg_embed::EmbeddingStore;
use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph, RelationId};
use vkg_sync::pool::Pool;

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = PointSet> {
    prop::collection::vec(-50.0f64..50.0, dim..=max_n * dim).prop_map(move |mut coords| {
        coords.truncate(coords.len() / dim * dim);
        PointSet::from_rows(dim, coords)
    })
}

fn brute_force(ps: &PointSet, q: &Mbr) -> Vec<u32> {
    (0..ps.len() as u32)
        .filter(|&i| ps.in_region(i, q))
        .collect()
}

type Xyz = (f64, f64, f64);

fn arb_xyz(range: f64) -> impl Strategy<Value = Xyz> {
    (-range..range, -range..range, -range..range)
}

/// Rounds to a multiple of ten when `on_grid`: grid points and grid
/// queries make duplicate points and equal distances common, which
/// random reals never do.
fn snap(on_grid: bool, (x, y, z): Xyz) -> [f64; 3] {
    let round = |c: f64| {
        if on_grid {
            (c / 10.0).round() * 10.0
        } else {
            c
        }
    };
    [round(x), round(y), round(z)]
}

/// A tree in one of the shapes Algorithm 3 meets: root-only (0), partly
/// cracked (1), bulk-loaded (2), or cracked and then edited by
/// `insert_point` / `update_point` / `remove_point` (3).
fn shaped_index(
    ps: PointSet,
    on_grid: bool,
    shape: usize,
    cracks: &[(Xyz, f64)],
    edits: &[(usize, Xyz, u32)],
) -> CrackingIndex {
    shaped_index_with(ps, on_grid, shape, SplitStrategy::Greedy, cracks, edits)
}

/// [`shaped_index`] cracking under `strategy`.
fn shaped_index_with(
    ps: PointSet,
    on_grid: bool,
    shape: usize,
    strategy: SplitStrategy,
    cracks: &[(Xyz, f64)],
    edits: &[(usize, Xyz, u32)],
) -> CrackingIndex {
    let rows = (0..ps.len() as u32).flat_map(|id| {
        let p = ps.point(id);
        snap(on_grid, (p[0], p[1], p[2]))
    });
    let ps = PointSet::from_rows(3, rows.collect());
    if shape == 2 {
        return CrackingIndex::bulk_load(ps, 4, 3, 2.0);
    }
    let mut idx = CrackingIndex::new(ps, 4, 3, 2.0, strategy);
    if shape >= 1 {
        for &((x, y, z), r) in cracks {
            idx.crack(&Mbr::of_ball(&[x, y, z], r));
        }
    }
    if shape == 3 {
        for &edit in edits {
            apply_edit(&mut idx, on_grid, edit);
        }
    }
    idx.check_invariants();
    idx
}

/// A tree, for comparing two of them node for node: the node count, the
/// contour, and each non-empty contour element's members and MBR (the
/// region a sampled aggregate reads as `summary.mbr`).
type Tree = (usize, Vec<u32>, Vec<(Vec<u32>, Mbr)>);

fn tree_of(idx: &CrackingIndex) -> Tree {
    let dim = idx.dim();
    let mut everything = Mbr::empty(dim);
    everything.include_point(&vec![-1e12; dim]);
    everything.include_point(&vec![1e12; dim]);
    let mut elements = Vec::new();
    idx.search_region_elements(&everything, |ids, summary| {
        elements.push((ids.to_vec(), *summary.mbr));
    });
    (idx.node_count(), idx.contour(), elements)
}

/// Every live point as `(d², id)`, ascending — the order the traversal
/// must emit.
fn live_by_distance(idx: &CrackingIndex, q: &[f64]) -> Vec<(f64, u32)> {
    let mut all: Vec<(f64, u32)> = (0..idx.points().len() as u32)
        .filter(|&id| !idx.is_removed(id))
        .map(|id| (idx.points().distance_sq(id, q), id))
        .collect();
    all.sort_by(by_distance_then_id);
    all
}

fn by_distance_then_id(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// What `find_top_k` answers, compared bit for bit.
type Answer = (Vec<(u32, u64)>, u64);

fn answer_of(r: &TopKResult) -> Answer {
    let predictions = r.predictions.iter().map(|p| (p.id, p.distance.to_bits()));
    (predictions.collect(), r.s1_evals)
}

/// Test-only definition of a top-k answer, with no tree in it: walk the
/// non-skipped points of `sorted` (every live point in `(d_S₂², id)`
/// order), keep the k best by S₁ distance — a newcomer must beat the
/// k-th strictly — and stop at the first point beyond `(1+ε)·` the
/// current k-th S₁ distance.
fn oracle_top_k(
    sorted: &[(f64, u32)],
    k: usize,
    eps: f64,
    s1: impl Fn(u32) -> f64,
    skip: impl Fn(u32) -> bool,
) -> Answer {
    // The k-set, ascending by (distance, id).
    let (mut set, mut evals) = (Vec::<(f64, u32)>::new(), 0u64);
    for &(d_sq, id) in sorted {
        let full = set.len() == k;
        if full
            && set
                .last()
                .is_some_and(|w| d_sq > (w.0 * (1.0 + eps)).powi(2))
        {
            break;
        }
        if skip(id) {
            continue;
        }
        evals += 1;
        let entry = (s1(id), id);
        if full && set.last().is_some_and(|w| entry.0 < w.0) {
            set.pop();
        }
        if set.len() < k {
            set.push(entry);
            set.sort_by(by_distance_then_id);
        }
    }
    let predictions = set.iter().map(|e| (e.1, e.0.to_bits()));
    (predictions.collect(), evals)
}

/// The bits of a slice of floats, for exact comparisons.
fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Each coordinate summed, then the squared norms, over contour element
/// `id`'s members in element order.
fn fresh_sums(idx: &CrackingIndex, id: NodeId) -> Vec<f64> {
    let dim = idx.dim();
    let mut sums = vec![0.0; dim + 1];
    for &pid in idx.element_point_ids(id) {
        for (s, c) in sums.iter_mut().zip(idx.points().point(pid)) {
            *s += c;
        }
        sums[dim] += row_norm_sq(idx.points().point(pid));
    }
    sums
}

/// The centroid and spread² of `ids`, summed in the order given.
fn summary_of(points: &PointSet, ids: &[u32]) -> (Vec<f64>, f64) {
    let (dim, n) = (points.dim(), ids.len() as f64);
    let (mut sums, mut norm_sq) = (vec![0.0; dim], 0.0);
    for &pid in ids {
        for (s, c) in sums.iter_mut().zip(points.point(pid)) {
            *s += c;
        }
        norm_sq += row_norm_sq(points.point(pid));
    }
    let centroid: Vec<f64> = sums.iter().map(|s| s / n).collect();
    let centroid_norm_sq: f64 = centroid.iter().map(|c| c * c).sum();
    (centroid, (norm_sq / n - centroid_norm_sq).max(0.0))
}

/// `min_n` to `max_n` points in 3-D with coordinates in `range`.
fn arb_points_3d(
    range: std::ops::Range<f64>,
    min_n: usize,
    max_n: usize,
) -> impl Strategy<Value = PointSet> {
    prop::collection::vec(range, min_n * 3..=max_n * 3).prop_map(|mut coords| {
        coords.truncate(coords.len() / 3 * 3);
        PointSet::from_rows(3, coords)
    })
}

/// Points on the lattice of multiples of ten in [-30, 30]³ (once
/// [`snap`]ped): 343 sites for up to 400 points, so equal distances,
/// duplicate points and node keys equal to a point's distance are the
/// rule. Every squared distance and every node key from a lattice query
/// is then a multiple of 100, and so is every shell bound, which doubles
/// from one of them or stops at one.
fn arb_lattice_points() -> impl Strategy<Value = PointSet> {
    arb_points_3d(-35.0..35.0, 1, 400)
}

/// The ids of the runs [`CrackingIndex::nearest_first`] handed out,
/// after checking that every run is a non-empty stretch of `sorted`, keys
/// included, of at most [`BATCH`] points, each following the last.
fn ids_of_runs(sorted: &[(f64, u32)], runs: &[Vec<(f64, u32)>]) -> Vec<u32> {
    let bits = |e: &(f64, u32)| (e.0.to_bits(), e.1);
    let mut at = 0;
    for run in runs {
        assert!(
            !run.is_empty() && run.len() <= BATCH,
            "run of {}",
            run.len()
        );
        let want: Vec<_> = sorted[at..at + run.len()].iter().map(bits).collect();
        assert_eq!(
            run.iter().map(bits).collect::<Vec<_>>(),
            want,
            "run at {at}"
        );
        at += run.len();
    }
    sorted[..at].iter().map(|e| e.1).collect()
}

/// The ids a one-by-one walk over `sorted` keeps from radius² `r_sq`: the
/// first point beyond the radius ends it, and after the `n`-th kept point
/// at `d²` the radius becomes `shrink(n, radius, d²)`.
fn walk(sorted: &[(f64, u32)], r_sq: f64, shrink: impl Fn(usize, f64, f64) -> f64) -> Vec<u32> {
    let (mut kept, mut bound) = (Vec::new(), r_sq);
    for &(d_sq, id) in sorted {
        if d_sq > bound {
            break;
        }
        kept.push(id);
        bound = shrink(kept.len(), bound, d_sq);
    }
    kept
}

/// [`walk`] through the runs of [`CrackingIndex::nearest_first`].
fn walk_index(
    idx: &CrackingIndex,
    q: &[f64],
    r_sq: f64,
    shrink: impl Fn(usize, f64, f64) -> f64,
) -> Vec<u32> {
    let (mut kept, mut bound) = (Vec::new(), r_sq);
    idx.nearest_first(q, r_sq, |_, run| {
        for &(d_sq, id) in run {
            if d_sq > bound {
                break;
            }
            kept.push(id);
            bound = shrink(kept.len(), bound, d_sq);
        }
        bound
    });
    kept
}

/// One `insert_point` (0), `update_point` (1) or `remove_point` (2).
fn apply_edit(idx: &mut CrackingIndex, on_grid: bool, (op, to, pick): (usize, Xyz, u32)) {
    let id = pick % idx.points().len() as u32;
    match op {
        0 => drop(idx.insert_point(&snap(on_grid, to))),
        // Updating a tombstoned id is refused; nothing to undo.
        1 => drop(idx.update_point(id, &snap(on_grid, to))),
        _ => drop(idx.remove_point(id)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The best-first traversal with a fixed radius emits exactly the
    /// brute-force ball `{id : d² ≤ r²}` in `(d², id)` order — tombstoned
    /// ids never — and with a shrinking radius exactly the prefix the
    /// radius still admits, on every tree shape.
    #[test]
    fn nearest_first_is_the_sorted_ball(
        ps in arb_points(120, 3),
        (on_grid, shape) in (any::<bool>(), 0usize..4),
        cracks in prop::collection::vec((arb_xyz(60.0), 0.5f64..30.0), 1..5),
        edits in prop::collection::vec((0usize..3, arb_xyz(50.0), any::<u32>()), 0..24),
        q in arb_xyz(60.0),
        (r, shrink) in (0.0f64..80.0, 0.5f64..1.0),
    ) {
        let idx = shaped_index(ps, on_grid, shape, &cracks, &edits);
        let q = snap(on_grid, q);
        let r_sq = if on_grid { (r / 10.0).round() * 100.0 } else { r * r };
        let sorted = live_by_distance(&idx, &q);
        let ball: Vec<u32> =
            sorted.iter().take_while(|e| e.0 <= r_sq).map(|e| e.1).collect();

        let mut runs: Vec<Vec<(f64, u32)>> = Vec::new();
        let computed = idx.nearest_first(&q, r_sq, |_, run| {
            runs.push(run.to_vec());
            r_sq
        });
        let got: Vec<u32> = runs.iter().flatten().map(|e| e.1).collect();
        prop_assert_eq!(&got, &ball);
        prop_assert!(computed >= ball.len() as u64);
        // Every run is a non-empty stretch of the sorted ball, keys
        // included, of at most BATCH points.
        let mut at = 0;
        for run in &runs {
            prop_assert!(!run.is_empty() && run.len() <= BATCH, "run of {}", run.len());
            let bits = |e: &(f64, u32)| (e.0.to_bits(), e.1);
            let want: Vec<_> = sorted[at..at + run.len()].iter().map(bits).collect();
            prop_assert_eq!(run.iter().map(bits).collect::<Vec<_>>(), want);
            at += run.len();
        }

        let mut want = Vec::new();
        let mut bound = r_sq;
        for &(d_sq, id) in &sorted {
            if d_sq > bound {
                break;
            }
            want.push(id);
            bound *= shrink;
        }
        let (mut got, mut bound) = (Vec::new(), r_sq);
        idx.nearest_first(&q, r_sq, |_, run| {
            for &(d_sq, id) in run {
                if d_sq > bound {
                    break;
                }
                got.push(id);
                bound *= shrink;
            }
            bound
        });
        // `want` is a prefix of `ball` by construction.
        prop_assert_eq!(got, want);
    }

    /// Shell boundaries where everything ties: on lattice points and a
    /// lattice query, points' `d²`, node keys and the shell bounds that
    /// double from them are all multiples of 100 and keep coinciding.
    /// On every tree shape and at every lattice radius the traversal
    /// still hands out the sorted ball in stretches — points at exactly
    /// the radius included, equal distances in id order — and a walk
    /// whose radius shrinks onto each point it keeps (ties at that
    /// distance still come) keeps what a sort of the live points keeps.
    #[test]
    fn shells_on_a_lattice_are_the_sorted_ball(
        ps in arb_lattice_points(),
        shape in 0usize..4,
        cracks in prop::collection::vec((arb_xyz(40.0), 5.0f64..30.0), 1..6),
        edits in prop::collection::vec((0usize..3, arb_xyz(35.0), any::<u32>()), 0..24),
        q in arb_xyz(45.0),
        (r, after) in (0usize..150, 1usize..40),
    ) {
        let idx = shaped_index(ps, true, shape, &cracks, &edits);
        let q = snap(true, q);
        let sorted = live_by_distance(&idx, &q);
        let r_sq = 100.0 * r as f64;
        let ball = sorted.partition_point(|e| e.0 <= r_sq);
        for r_sq in [r_sq, f64::INFINITY] {
            let mut runs: Vec<Vec<(f64, u32)>> = Vec::new();
            idx.nearest_first(&q, r_sq, |_, run| {
                runs.push(run.to_vec());
                r_sq
            });
            let want = if r_sq.is_finite() { ball } else { sorted.len() };
            prop_assert_eq!(ids_of_runs(&sorted, &runs).len(), want);
        }
        let onto_point = |n: usize, bound: f64, d_sq: f64| if n >= after { d_sq } else { bound };
        prop_assert_eq!(
            walk_index(&idx, &q, f64::INFINITY, onto_point),
            walk(&sorted, f64::INFINITY, onto_point)
        );
    }

    /// A visitor whose radius shrinks to exactly a shell bound: once
    /// `after` points are kept, the radius becomes the first kept `d²`
    /// doubled as often as it takes to reach the current point — the
    /// bounds the shells are cut at while each next key lies within one
    /// doubling — so the points lying on it are the last ones the radius
    /// admits, on lattice and on real coordinates, on every tree shape.
    #[test]
    fn radius_shrinking_onto_a_shell_bound(
        ps in prop_oneof![arb_lattice_points(), arb_points(400, 3)],
        (on_grid, shape) in (any::<bool>(), 0usize..4),
        cracks in prop::collection::vec((arb_xyz(40.0), 5.0f64..30.0), 1..6),
        edits in prop::collection::vec((0usize..3, arb_xyz(35.0), any::<u32>()), 0..24),
        q in arb_xyz(45.0),
        after in 1usize..60,
    ) {
        let idx = shaped_index(ps, on_grid, shape, &cracks, &edits);
        let q = snap(on_grid, q);
        let sorted = live_by_distance(&idx, &q);
        let first = sorted.first().map_or(0.0, |e| e.0);
        let onto_bound = |n: usize, bound: f64, d_sq: f64| {
            if n < after || first == 0.0 {
                return bound;
            }
            let mut shell = first;
            while shell < d_sq {
                shell *= 2.0;
            }
            bound.min(shell)
        };
        prop_assert_eq!(
            walk_index(&idx, &q, f64::INFINITY, onto_bound),
            walk(&sorted, f64::INFINITY, onto_bound)
        );
    }

    /// One oracle, every tree: for the same points and the same query a
    /// root-only, a cracked, a bulk-loaded and an edited tree all give
    /// the oracle's ids, distance bits and `s1_evals` — with and without
    /// `skip`, under a filter rejecting ≥ 95 % of ids, with k beyond the
    /// live points — and keep giving them as the queries crack on.
    #[test]
    fn find_top_k_matches_oracle(
        ps in arb_points(120, 3),
        on_grid in any::<bool>(),
        cracks in prop::collection::vec((arb_xyz(60.0), 0.5f64..30.0), 1..5),
        edits in prop::collection::vec((0usize..3, arb_xyz(50.0), any::<u32>()), 0..24),
        queries in prop::collection::vec((arb_xyz(60.0), 1usize..12, 0usize..4), 1..6),
        eps in 0.1f64..2.0,
    ) {
        // The edited tree (shape 3) and its point set, rebuilt from
        // scratch in the three unedited shapes: same live points, four
        // trees. A tombstoned id keeps its row, so the rebuilt trees
        // hold it live: they skip it, which counts no evaluation.
        let mut edited = shaped_index(ps, on_grid, 3, &cracks, &edits);
        let points = edited.points().clone();
        let removed: Vec<u32> =
            (0..points.len() as u32).filter(|&id| edited.is_removed(id)).collect();
        let mut trees = [
            CrackingIndex::new(points.clone(), 4, 3, 2.0, SplitStrategy::Greedy),
            CrackingIndex::new(points.clone(), 4, 3, 2.0, SplitStrategy::Greedy),
            CrackingIndex::bulk_load(points, 4, 3, 2.0),
        ];
        for &((x, y, z), r) in &cracks {
            trees[1].crack(&Mbr::of_ball(&[x, y, z], r));
        }
        for (q, k, mode) in queries {
            let q = snap(on_grid, q);
            // S₁ is S₂ stretched per id, so the two rankings disagree.
            let s1 = |points: &PointSet, id: u32| {
                points.distance_sq(id, &q).sqrt() * (1.0 + f64::from(id % 2) * 0.25)
            };
            let skip = |id: u32| match mode {
                0 => false,
                1 => id % 3 == 0,
                _ => id % 32 != 5,
            };
            // mode 3 also asks for more than the live points can give.
            let k = if mode == 3 { k + edited.live_points() } else { k };
            let sorted = live_by_distance(&edited, &q);
            let want = oracle_top_k(&sorted, k, eps, |id| s1(edited.points(), id), skip);
            let got = find_top_k(&mut edited, &q, k, eps, 3, s1, skip).unwrap();
            prop_assert_eq!(&answer_of(&got), &want, "edited tree");
            edited.check_invariants();
            for (shape, idx) in trees.iter_mut().enumerate() {
                let skip = |id: u32| skip(id) || removed.binary_search(&id).is_ok();
                let got = find_top_k(idx, &q, k, eps, 3, s1, skip).unwrap();
                prop_assert_eq!(&answer_of(&got), &want, "shape {}", shape);
                idx.check_invariants();
            }
        }
    }

    /// The per-point oracle (through `find_top_k`'s adapter) and a batch
    /// oracle (`find_top_k_read`, then its crack) give the same ids,
    /// distance bits, `s1_evals` and `candidates_examined` on root-only,
    /// cracked and bulk-loaded trees, crack them alike, and ask for no
    /// crack when every id is skipped. The oracles are asked for at most
    /// `BATCH − 1` points past where a query stops.
    #[test]
    fn per_point_and_batch_oracles_agree(
        ps in arb_points(120, 3),
        (on_grid, shape) in (any::<bool>(), 0usize..3),
        cracks in prop::collection::vec((arb_xyz(60.0), 0.5f64..30.0), 1..5),
        queries in prop::collection::vec((arb_xyz(60.0), 1usize..12, 0usize..3), 1..6),
        eps in 0.1f64..2.0,
    ) {
        let mut per_point = shaped_index(ps.clone(), on_grid, shape, &cracks, &[]);
        let mut batched = shaped_index(ps, on_grid, shape, &cracks, &[]);
        for (q, k, mode) in queries {
            let q = snap(on_grid, q);
            let s1 = |points: &PointSet, id: u32| {
                points.distance_sq(id, &q).sqrt() * (1.0 + f64::from(id % 2) * 0.25)
            };
            let skip = |id: u32| match mode {
                0 => false,
                1 => id % 3 == 0,
                _ => true,
            };
            let mut calls = 0u64;
            let one = |points: &PointSet, id: u32| {
                calls += 1;
                s1(points, id)
            };
            let a = find_top_k(&mut per_point, &q, k, eps, 3, one, skip).unwrap();
            let mut asked = 0u64;
            let batch = |points: &PointSet, ids: &[u32], out: &mut [f64]| {
                asked += ids.len() as u64;
                for (d, &id) in out.iter_mut().zip(ids).rev() {
                    *d = s1(points, id);
                }
            };
            let (b, region) = find_top_k_read(&batched, &q, k, eps, 3, batch, skip).unwrap();
            if let Some(region) = &region {
                batched.crack(region);
            }
            prop_assert_eq!(
                (answer_of(&a), a.candidates_examined),
                (answer_of(&b), b.candidates_examined)
            );
            prop_assert_eq!(calls, asked);
            prop_assert!(asked - b.s1_evals < BATCH as u64, "{} asked, {} counted", asked, b.s1_evals);
            prop_assert_eq!(region.is_none(), b.predictions.is_empty());
            prop_assert_eq!(tree_of(&per_point), tree_of(&batched));
        }
    }

    /// The pre-check is the crack's own decision, read-only. On every
    /// tree shape and under both strategies `wants_crack(q)` — and the
    /// verdict `search_region` and `search_region_elements` return for
    /// `q` — says whether `crack(q)` splits anything; a crack that splits nothing
    /// leaves the tree as it was — node for node, MBRs included, so the
    /// shared read protocol (which skips it) and the `&mut` composition
    /// (which runs it) cannot drift apart, not even after updates left
    /// an element's MBR loose; and once `q` is cracked for, nothing in
    /// it is left to split.
    #[test]
    fn wants_crack_is_the_cracks_own_decision(
        ps in arb_points(120, 3),
        (on_grid, shape, choices) in (any::<bool>(), 0usize..4, 0usize..4),
        cracks in prop::collection::vec((arb_xyz(60.0), 0.5f64..30.0), 1..5),
        edits in prop::collection::vec((0usize..3, arb_xyz(50.0), any::<u32>()), 0..24),
        regions in prop::collection::vec((arb_xyz(60.0), 0.5f64..40.0), 1..6),
    ) {
        let strategy = match choices {
            0 => SplitStrategy::Greedy,
            choices => SplitStrategy::TopK { choices },
        };
        let mut idx = shaped_index_with(ps, on_grid, shape, strategy, &cracks, &edits);
        for (center, r) in regions {
            let q = Mbr::of_ball(&snap(on_grid, center), r);
            let wanted = idx.wants_crack(&q);
            // The region reads fold the same verdict into their walk.
            prop_assert_eq!(idx.search_region(&q, |_| {}), wanted);
            prop_assert_eq!(idx.search_region_elements(&q, |_, _| {}), wanted);
            let (splits, tree) = (idx.stats().splits_performed, tree_of(&idx));
            idx.crack(&q);
            idx.check_invariants();
            prop_assert_eq!(idx.stats().splits_performed > splits, wanted);
            if !wanted {
                prop_assert_eq!(tree_of(&idx), tree);
            }
            prop_assert!(!idx.wants_crack(&q));
        }
    }

    /// The bucket sort is the stable comparison sort: for keys with ties,
    /// ±0.0, one value throughout, one bucket holding nearly everything,
    /// integer power-law keys (an attribute like `popularity`), plain
    /// reals and non-finite keys, at lengths on both sides of the
    /// direct-sort threshold and in both directions, it puts the entries
    /// in the order `sort_by(total_cmp)` does — entry by entry, the
    /// payload being each entry's input position.
    #[test]
    fn bucket_sort_is_the_stable_comparison_sort(
        shape in 0usize..7,
        draws in prop::collection::vec(any::<u64>(), 0..2_000),
        descending in any::<bool>(),
    ) {
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let keys = draws.iter().map(|&x| match shape {
            0 => (x % 7) as f64,
            1 => [-0.0, 0.0, 1.0, -1.0][(x % 4) as usize],
            2 => 3.5,
            // One bucket: all but a few keys within 1e-9 of each other.
            3 if x % 50 == 0 => 1e3 * unit(x),
            3 => 1e-9 * unit(x),
            4 => (1.0 / (unit(x) + 1e-3)).floor(),
            5 => 100.0 * unit(x) - 50.0,
            _ => [f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0, 1.0][(x % 5) as usize],
        });
        let items: Vec<(f64, usize)> = keys.zip(0..).collect();
        let key = |e: &(f64, usize)| if descending { -e.0 } else { e.0 };
        let mut want = items.clone();
        want.sort_by(|a, b| key(a).total_cmp(&key(b)));
        let mut got = items;
        aggregate::sort_by_key_stable(&mut got, key);
        let order = |v: &[(f64, usize)]| v.iter().map(|e| e.1).collect::<Vec<_>>();
        prop_assert_eq!(order(&got), order(&want));
    }

    /// Every contour element's stored sums are absent (an insert or a
    /// removal edited it since it was installed) or, bit for bit, the
    /// sums a fresh pass over its members in element order adds up —
    /// on root-only, cracked, bulk-loaded and edited trees, through more
    /// cracks and more edits. An element nothing edited stores them.
    #[test]
    fn element_sums_match_a_fresh_pass(
        ps in arb_points(120, 3),
        (on_grid, shape) in (any::<bool>(), 0usize..4),
        cracks in prop::collection::vec((arb_xyz(60.0), 0.5f64..30.0), 1..5),
        edits in prop::collection::vec((0usize..3, arb_xyz(50.0), any::<u32>()), 0..24),
        rounds in prop::collection::vec(
            ((arb_xyz(60.0), 0.5f64..40.0), (0usize..3, arb_xyz(50.0), any::<u32>())),
            1..6,
        ),
    ) {
        let mut idx = shaped_index(ps, on_grid, shape, &cracks, &edits);
        let mut edited = shape == 3 && !edits.is_empty();
        for (round, ((center, r), edit)) in rounds.into_iter().enumerate() {
            for id in idx.contour() {
                match &idx.node(id).sums {
                    Some(sums) => prop_assert_eq!(bits(sums), bits(&fresh_sums(&idx, id))),
                    None => prop_assert!(edited, "element {} lost its sums unedited", id),
                }
            }
            if round % 2 == 0 {
                idx.crack(&Mbr::of_ball(&snap(on_grid, center), r));
            } else {
                apply_edit(&mut idx, on_grid, edit);
                edited = true;
            }
            idx.check_invariants();
        }
    }

    /// Every contour element's packed coordinates (`Node::coords`) are,
    /// bit for bit, its members' `PointSet` rows in element order after
    /// every step of a stream of inserts, moves and removals, bursts of
    /// inserts at one spot (a leaf that overflows reverts to an unsplit
    /// element), greedy or top-k cracks and bulk loads. `check_invariants`
    /// holds the same after each step.
    #[test]
    fn packed_coordinates_follow_every_edit(
        ps in arb_points(150, 3),
        (on_grid, bulk, topk) in (any::<bool>(), any::<bool>(), any::<bool>()),
        steps in prop::collection::vec((0usize..5, arb_xyz(60.0), any::<u32>(), 0.5f64..30.0), 1..30),
    ) {
        let strategy = if topk {
            SplitStrategy::TopK { choices: 3 }
        } else {
            SplitStrategy::Greedy
        };
        let mut idx = shaped_index_with(ps, on_grid, if bulk { 2 } else { 0 }, strategy, &[], &[]);
        let packed_is_a_fresh_gather = |idx: &CrackingIndex| {
            for id in idx.contour() {
                let gathered: Vec<f64> = idx
                    .element_point_ids(id)
                    .iter()
                    .flat_map(|&pid| idx.points().point(pid))
                    .copied()
                    .collect();
                assert_eq!(bits(&idx.node(id).coords), bits(&gathered), "element {id}");
            }
            idx.check_invariants();
        };
        packed_is_a_fresh_gather(&idx);
        for (op, at, pick, r) in steps {
            match op {
                0..=2 => apply_edit(&mut idx, on_grid, (op, at, pick)),
                // Five points at one spot overflow any leaf of capacity
                // four they land in; on a bulk-loaded tree they land in a
                // leaf.
                3 => {
                    for _ in 0..5 {
                        idx.insert_point(&snap(on_grid, at)).unwrap();
                        packed_is_a_fresh_gather(&idx);
                    }
                    prop_assert!(
                        !bulk || idx.contour().iter().any(|&id| {
                            matches!(idx.node(id).kind, NodeKind::Unsplit(_))
                        }),
                        "no leaf reverted"
                    );
                }
                _ => idx.crack(&Mbr::of_ball(&snap(on_grid, at), r)),
            }
            packed_is_a_fresh_gather(&idx);
        }
    }

    /// Region reads over trees that edits have moved points in, where
    /// boxes contain whole elements: `search_region` visits each live
    /// point of the box once, `search_region_elements` hands over the
    /// same ids, each element with the summary a fresh pass over its
    /// ids gives, bit for bit, and `elements_to_split` is the list a
    /// version that counts every element's in-box points gives. Some
    /// element of every case lies wholly inside a box.
    #[test]
    fn region_reads_after_updates_match_brute_force(
        ps in arb_points(120, 3),
        (on_grid, shape) in (any::<bool>(), 0usize..4),
        cracks in prop::collection::vec((arb_xyz(60.0), 0.5f64..30.0), 1..5),
        edits in prop::collection::vec((0usize..3, arb_xyz(50.0), any::<u32>()), 0..24),
        rounds in prop::collection::vec(
            ((arb_xyz(60.0), 0.5f64..80.0), (0usize..3, arb_xyz(50.0), any::<u32>())),
            1..6,
        ),
    ) {
        let mut idx = shaped_index(ps, on_grid, shape, &cracks, &edits);
        let mut contained = 0usize;
        let everything = Mbr::of_ball(&[0.0; 3], 1e6);
        for ((center, r), edit) in rounds {
            apply_edit(&mut idx, on_grid, edit);
            let q = Mbr::of_ball(&snap(on_grid, center), r);
            for q in [q, everything] {
                let live: Vec<u32> = (0..idx.points().len() as u32)
                    .filter(|&id| !idx.is_removed(id) && idx.points().in_region(id, &q))
                    .collect();
                let mut got = Vec::new();
                idx.search_region(&q, |id| got.push(id));
                got.sort_unstable();
                prop_assert_eq!(&got, &live);

                let mut got = Vec::new();
                let mut summaries_ok = true;
                idx.search_region_elements(&q, |ids, summary| {
                    contained += usize::from(q.contains_mbr(summary.mbr));
                    let (centroid, spread_sq) = summary_of(idx.points(), ids);
                    summaries_ok &= bits(&centroid) == bits(summary.centroid)
                        && spread_sq.to_bits() == summary.spread_sq.to_bits();
                    got.extend_from_slice(ids);
                });
                got.sort_unstable();
                prop_assert_eq!(&got, &live);
                prop_assert!(summaries_ok);

                let counted: Vec<NodeId> = idx
                    .contour()
                    .into_iter()
                    .filter(|&id| {
                        let node = idx.node(id);
                        let ids = idx.element_point_ids(id);
                        let in_q = ids.iter().filter(|&&p| idx.points().in_region(p, &q)).count();
                        matches!(node.kind, NodeKind::Unsplit(_))
                            && node.mbr.intersects(&q)
                            && !stop_condition(in_q, ids.len(), idx.leaf_capacity())
                    })
                    .collect();
                prop_assert_eq!(idx.elements_to_split(&q), counted);
            }
            idx.crack(&q);
            idx.check_invariants();
        }
        prop_assert!(contained > 0 || idx.live_points() == 0);
    }

    /// MBR union covers both inputs; intersection volume is bounded by
    /// both volumes; containment is transitive through union.
    #[test]
    fn mbr_algebra(
        pts_a in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..10),
        pts_b in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..10),
    ) {
        let mut a = Mbr::empty(2);
        for (x, y) in &pts_a {
            a.include_point(&[*x, *y]);
        }
        let mut b = Mbr::empty(2);
        for (x, y) in &pts_b {
            b.include_point(&[*x, *y]);
        }
        let mut u = a;
        u.include_mbr(&b);
        prop_assert!(u.contains_mbr(&a));
        prop_assert!(u.contains_mbr(&b));
        for (x, y) in pts_a.iter().chain(&pts_b) {
            prop_assert!(u.contains_point(&[*x, *y]));
        }
        let ov = a.overlap_volume(&b);
        prop_assert!(ov <= a.volume() + 1e-9);
        prop_assert!(ov <= b.volume() + 1e-9);
        prop_assert!(ov >= 0.0);
        // Intersection symmetric.
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        prop_assert!((ov - b.overlap_volume(&a)).abs() < 1e-9);
    }

    /// min_distance_sq is 0 exactly for contained points and positive
    /// otherwise, and never exceeds the distance to any covered point.
    #[test]
    fn mbr_min_distance(
        pts in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..10),
        q in (-30.0f64..30.0, -30.0f64..30.0),
    ) {
        let mut m = Mbr::empty(2);
        for (x, y) in &pts {
            m.include_point(&[*x, *y]);
        }
        let query = [q.0, q.1];
        let d = m.min_distance_sq(&query);
        if m.contains_point(&query) {
            prop_assert_eq!(d, 0.0);
        }
        for (x, y) in &pts {
            let dist = (x - q.0).powi(2) + (y - q.1).powi(2);
            prop_assert!(d <= dist + 1e-9);
        }
    }

    /// A sort-order split partitions the ids and keeps every order sorted.
    #[test]
    fn sort_order_split_partitions(ps in arb_points(40, 3), cut in 1usize..20, axis in 0usize..3) {
        if ps.len() < 2 {
            return Ok(());
        }
        let so = SortOrders::build(&ps, ps.all_ids());
        let cut = cut.min(ps.len() - 1).max(1);
        let (lo, hi) = so.split_by_prefix(axis, cut);
        prop_assert_eq!(lo.len(), cut);
        prop_assert_eq!(lo.len() + hi.len(), ps.len());
        // Partition: every id on exactly one side.
        let mut seen = vec![false; ps.len()];
        for &id in lo.ids(0).iter().chain(hi.ids(0)) {
            prop_assert!(!seen[id as usize]);
            seen[id as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Sortedness maintained in every order on both sides.
        for side in [&lo, &hi] {
            for ax in 0..3 {
                let ids = side.ids(ax);
                for w in ids.windows(2) {
                    prop_assert!(ps.coord(w[0], ax) <= ps.coord(w[1], ax));
                }
            }
        }
        // The low side really is the coordinate prefix on the split axis.
        let max_lo = lo.ids(axis).iter().map(|&i| ps.coord(i, axis)).fold(f64::MIN, f64::max);
        let min_hi = hi.ids(axis).iter().map(|&i| ps.coord(i, axis)).fold(f64::MAX, f64::min);
        prop_assert!(max_lo <= min_hi);
    }

    /// THE core invariant: after arbitrary crack sequences, region search
    /// over the index equals brute force, and Lemma 1 holds.
    #[test]
    fn crack_search_exact(
        ps in arb_points(120, 3),
        queries in prop::collection::vec(
            ((-60.0f64..60.0, -60.0f64..60.0, -60.0f64..60.0), 0.5f64..30.0),
            1..6
        ),
        greedy in any::<bool>(),
    ) {
        let strategy = if greedy {
            SplitStrategy::Greedy
        } else {
            SplitStrategy::TopK { choices: 2 }
        };
        let mut idx = CrackingIndex::new(ps.clone(), 4, 3, 2.0, strategy);
        for ((x, y, z), r) in queries {
            let q = Mbr::of_ball(&[x, y, z], r);
            idx.crack(&q);
            idx.check_invariants();
            let mut got = Vec::new();
            idx.search_region(&q, |id| got.push(id));
            got.sort_unstable();
            prop_assert_eq!(got, brute_force(&ps, &q));
        }
    }

    /// Bulk load is always lossless and fully split regardless of data.
    #[test]
    fn bulk_load_lossless(ps in arb_points(150, 2)) {
        let idx = CrackingIndex::bulk_load(ps.clone(), 4, 3, 1.5);
        idx.check_invariants();
        let all = ps.mbr_of(&ps.all_ids());
        let mut got = Vec::new();
        idx.search_region(&all, |id| got.push(id));
        got.sort_unstable();
        prop_assert_eq!(got.len(), ps.len());
    }

    /// Aggregate estimators: full access reproduces the plain
    /// probability-weighted expectations; MIN/MAX are order-consistent.
    #[test]
    fn aggregate_estimators_consistent(
        pairs in prop::collection::vec((0.1f64..100.0, 0.01f64..1.0), 1..20),
    ) {
        let values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mut probs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        probs.sort_by(|a, b| b.total_cmp(a));
        let sum = aggregate::estimate_sum(&values, &probs);
        let expect: f64 = values.iter().zip(&probs).map(|(v, p)| v * p).sum();
        prop_assert!((sum - expect).abs() < 1e-6 * expect.abs().max(1.0));

        let avg = aggregate::estimate_avg(&values, &probs);
        let (lo, hi) = values.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9, "avg {avg} outside [{lo}, {hi}]");

        let count = aggregate::estimate_count(&probs);
        prop_assert!(count > 0.0 && count <= probs.len() as f64 + 1e-9);

        let max = aggregate::estimate_max(&values, &probs);
        let min = aggregate::estimate_min(&values, &probs);
        prop_assert!(max >= min - 1e-9, "max {max} < min {min}");
        prop_assert!(max.is_finite() && min.is_finite());
        // With a certain closest point (p₁ = 1, the engine's invariant),
        // the MAX estimate is at least the smallest observed value.
        let mut certain = probs.clone();
        certain[0] = 1.0;
        let max_certain = aggregate::estimate_max(&values, &certain);
        prop_assert!(max_certain >= lo - 1e-9, "certain max {max_certain} < lo {lo}");
    }

    /// Theorem 4 tail bound is a valid, monotone tail function for any
    /// inputs.
    #[test]
    fn deviation_bound_valid(
        mu in 0.1f64..1000.0,
        values in prop::collection::vec(0.0f64..50.0, 0..20),
        unaccessed in 0usize..50,
        vm in 0.0f64..50.0,
    ) {
        let b = aggregate::deviation_bound(mu, &values, &vec![1.0; unaccessed], vm);
        let mut prev = f64::INFINITY;
        for delta in [0.01, 0.1, 0.5, 1.0, 2.0] {
            let p = b.tail_probability(delta);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p <= prev + 1e-12);
            prev = p;
        }
        // delta_for_confidence inverts the tail bound — except in the
        // degenerate exact case (zero increment mass), where δ = 0 and
        // Pr[|S − μ| ≥ 0] is trivially 1.
        if b.increment_mass > 0.0 {
            for conf in [0.5, 0.9] {
                let delta = b.delta_for_confidence(conf);
                prop_assert!(b.tail_probability(delta) <= 1.0 - conf + 1e-6);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A root-only tree of 2 000 points or more: at r = ∞ the first
    /// element the traversal opens is the whole set, so every point
    /// waits in one buffer that the shells cut up. The same points
    /// bulk-loaded into leaves of four: a doubled bound reaches hundreds
    /// of leaves at once, and the round stops at a node and ends its
    /// shell below it. Both still hand out every point in stretches of
    /// the sorted set, keep what a one-by-one walk keeps while the radius
    /// shrinks, and answer top-k as the oracle does.
    #[test]
    fn root_only_tree_is_cut_into_shells(
        ps in arb_points_3d(-50.0..50.0, 2_000, 2_400),
        on_grid in any::<bool>(),
        q in arb_xyz(60.0),
        (k, after, eps) in (1usize..40, 1usize..200, 0.1f64..2.0),
    ) {
        let root_only = shaped_index(ps.clone(), on_grid, 0, &[], &[]);
        prop_assert_eq!(root_only.node_count(), 1);
        let q = snap(on_grid, q);
        for idx in [root_only, shaped_index(ps, on_grid, 2, &[], &[])] {
            let sorted = live_by_distance(&idx, &q);
            let mut runs: Vec<Vec<(f64, u32)>> = Vec::new();
            let computed = idx.nearest_first(&q, f64::INFINITY, |_, run| {
                runs.push(run.to_vec());
                f64::INFINITY
            });
            prop_assert_eq!(computed, sorted.len() as u64);
            prop_assert_eq!(ids_of_runs(&sorted, &runs).len(), sorted.len());
            let shrinking = |n: usize, bound: f64, d_sq: f64| {
                if n >= after { bound.min(2.0 * d_sq) * 0.75 } else { bound }
            };
            prop_assert_eq!(
                walk_index(&idx, &q, f64::INFINITY, shrinking),
                walk(&sorted, f64::INFINITY, shrinking)
            );
            let s1 = |points: &PointSet, id: u32| {
                points.distance_sq(id, &q).sqrt() * (1.0 + f64::from(id % 2) * 0.25)
            };
            let skip = |id: u32| id % 3 == 0;
            let want = oracle_top_k(&sorted, k, eps, |id| s1(idx.points(), id), skip);
            let batch = |points: &PointSet, ids: &[u32], out: &mut [f64]| {
                for (d, &id) in out.iter_mut().zip(ids) {
                    *d = s1(points, id);
                }
            };
            let (got, _) = find_top_k_read(&idx, &q, k, eps, 3, batch, skip).unwrap();
            prop_assert_eq!(answer_of(&got), want);
        }
    }
}

proptest! {
    // Each case bulk-loads a ~5k-point set three times, so keep the
    // case count low; the sizes stay above the pooled-path threshold
    // (4096) so the parallel code genuinely runs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A bulk build over a width-N pool produces a tree *identical* to
    /// the width-1 (exact serial) build: same node count, same bytes,
    /// and the same DFS leaf-id visit sequence — the split choices are
    /// deterministic, only the cost bookkeeping may differ in float
    /// accumulation order.
    #[test]
    fn pooled_bulk_build_matches_serial(seed in any::<u64>(), extra in 0usize..600) {
        let n = 4_300 + extra;
        let dim = 3usize;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 100.0 - 50.0
        };
        let coords: Vec<f64> = (0..n * dim).map(|_| next()).collect();
        let ps = PointSet::from_rows(dim, coords);
        let visit_order = |idx: &mut CrackingIndex| {
            let all = idx.points().mbr_of(&idx.points().all_ids());
            let mut order = Vec::with_capacity(n);
            idx.search_region(&all, |id| order.push(id));
            order
        };
        let mut serial = CrackingIndex::bulk_load_with_pool(ps.clone(), 16, 8, 2.0, Pool::serial());
        serial.check_invariants();
        let serial_order = visit_order(&mut serial);
        for width in [2usize, 4] {
            let mut pooled =
                CrackingIndex::bulk_load_with_pool(ps.clone(), 16, 8, 2.0, Pool::new(width));
            pooled.check_invariants();
            prop_assert_eq!(pooled.node_count(), serial.node_count(), "width {}", width);
            prop_assert_eq!(pooled.index_bytes(), serial.index_bytes(), "width {}", width);
            let pooled_order = visit_order(&mut pooled);
            prop_assert_eq!(&pooled_order, &serial_order, "width {}", width);
        }
    }
}

/// A facade assembled at `threads: 4` answers the same seeded query
/// stream as one assembled at `threads: 1`: same ids, same S₁ distance
/// bits, same S₂ candidates per query, same tree at the end. The width
/// builds the root sort orders and nothing a query runs. Every
/// embedding has 200 exact twins, spread over the ids: the twins tie in
/// S₁ and in S₂, so which ten make the answer is decided by
/// `(S₂ distance, id)` visit order.
#[test]
fn pooled_top_k_matches_serial() {
    let (n, d, groups) = (12_000usize, 16usize, 60usize);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2_000) as f64 / 100.0 - 10.0
    };
    let distinct: Vec<f64> = (0..groups * d).map(|_| next()).collect();
    let mut graph = KnowledgeGraph::new();
    graph.add_relation("r0");
    graph.add_relation("r1");
    let mut entities = Vec::with_capacity(n * d);
    for i in 0..n {
        graph.add_entity(&format!("e{i}"));
        let g = i % groups;
        entities.extend_from_slice(&distinct[g * d..(g + 1) * d]);
    }
    let relations: Vec<f64> = (0..2 * d).map(|_| next() / 4.0).collect();
    let store = EmbeddingStore::from_raw(d, entities, relations);
    let run = |threads: usize| {
        let vkg = VirtualKnowledgeGraph::assemble(
            graph.clone(),
            AttributeStore::new(),
            store.clone(),
            VkgConfig {
                threads,
                ..VkgConfig::default()
            },
        );
        // Every group once per relation and direction.
        let answers: Vec<(Answer, u64)> = (0..4 * groups as u32)
            .map(|i| {
                let round = i / groups as u32;
                let direction = [Direction::Tails, Direction::Heads][round as usize % 2];
                let r = vkg
                    .top_k(
                        EntityId(i * 61 % n as u32),
                        RelationId(round / 2),
                        direction,
                        10,
                    )
                    .expect("valid ids");
                (answer_of(&r), r.candidates_examined)
            })
            .collect();
        (answers, vkg.index_node_count())
    };
    let (serial, serial_nodes) = run(1);
    let (pooled, pooled_nodes) = run(4);
    for (i, (p, s)) in pooled.iter().zip(&serial).enumerate() {
        assert_eq!(p, s, "query {i}");
    }
    assert_eq!(pooled_nodes, serial_nodes);
}

/// A top-k whose filter rejects every id answers nothing and asks for
/// no crack: the tree stays node for node what it was, and the round
/// counts one skipped crack.
#[test]
fn empty_k_set_asks_for_no_crack() {
    let (n, d) = (600usize, 4usize);
    let mut graph = KnowledgeGraph::new();
    let r = graph.add_relation("r");
    for i in 0..n {
        graph.add_entity(&format!("e{i}"));
    }
    let rows: Vec<f64> = (0..n * d)
        .map(|i| ((i * 7_919) % 1_000) as f64 / 100.0)
        .collect();
    let store = EmbeddingStore::from_raw(d, rows, vec![0.5; d]);
    let config = VkgConfig {
        alpha: 3,
        epsilon: 0.3,
        leaf_capacity: 8,
        fanout: 4,
        ..VkgConfig::default()
    };
    let vkg = VirtualKnowledgeGraph::assemble(graph, AttributeStore::new(), store, config);
    vkg.top_k(EntityId(0), r, Direction::Tails, 5).unwrap();
    let skipped = || {
        vkg.metrics_snapshot()
            .counter(names::CRACKS_SKIPPED)
            .unwrap()
    };
    let (tree, before) = (tree_of(&vkg.index()), skipped());
    let empty = vkg
        .top_k_filtered(EntityId(1), r, Direction::Tails, 5, |_| false)
        .unwrap();
    assert!(empty.predictions.is_empty());
    assert_eq!(tree_of(&vkg.index()), tree);
    assert_eq!(skipped(), before + 1);
}

/// One request of the twin stream below.
enum TwinOp {
    TopK(EntityId, RelationId, Direction, usize),
    /// Keyed: asked through `execute` and cached by the filter's
    /// fingerprint; otherwise a closure filter, never cached.
    Filtered(EntityId, RelationId, Direction, usize, Filter, bool),
    Aggregate(EntityId, RelationId, Direction, AggregateSpec),
    Fact(EntityId, RelationId, EntityId),
    Entity(String, Vec<f64>),
    Attribute(EntityId, f64),
}

/// The shared read protocol (traverse under the shared guard, crack late
/// and only when the pre-check says something splits) builds exactly the
/// tree of the exclusive composition (`with_published_shard` + the
/// `*_pinned` entry points: probe, read, fill, crack in place). Two
/// facades over one world take the same stream — 160 requests: top-k,
/// top-k filtered by a closure (never cached) and by a declarative
/// `Filter` (asked through `execute`, keyed by its fingerprint on both
/// paths), full and sampled aggregates, each asked twice in a
/// row (the repeat is a hit where the cache is on), with fact, entity
/// and attribute writes moving points in between — one through each
/// path, under both split strategies and with the cache on and off. Every answer must
/// agree bit for bit, the tree-dependent ones included (a sampled
/// aggregate's strata, `candidates_examined`), and the two indexes must
/// end node for node the same: count, contour, members, element MBRs,
/// and every counter.
#[test]
fn shared_protocol_builds_the_tree_of_the_exclusive_composition() {
    let (n, d) = (2_000usize, 4usize);
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state >> 11
    };
    let mut graph = KnowledgeGraph::new();
    let relations: Vec<RelationId> = (0..3)
        .map(|r| graph.add_relation(&format!("r{r}")))
        .collect();
    let mut attributes = AttributeStore::new();
    let mut rows = Vec::with_capacity(n * d);
    for i in 0..n {
        let e = graph.add_entity(&format!("e{i}"));
        rows.extend((0..d).map(|_| (next() % 2_000) as f64 / 100.0 - 10.0));
        if i % 3 != 0 {
            attributes.set("score", e, (next() % 500) as f64 / 10.0);
        }
    }
    let pick = |x: u64| EntityId((x % n as u64) as u32);
    for _ in 0..2 * n {
        let (h, r, t) = (pick(next()), relations[(next() % 3) as usize], pick(next()));
        let _ = graph.add_triple(h, r, t);
    }
    let relation_rows: Vec<f64> = (0..3 * d)
        .map(|_| (next() % 2_000) as f64 / 400.0 - 2.5)
        .collect();
    let store = EmbeddingStore::from_raw(d, rows, relation_rows);

    let kinds = [
        AggregateKind::Count,
        AggregateKind::Sum,
        AggregateKind::Avg,
        AggregateKind::Max,
        AggregateKind::Min,
    ];
    let ops: Vec<TwinOp> = (0..160)
        .map(|i| {
            let (e, r) = (pick(next()), relations[(next() % 3) as usize]);
            let direction = [Direction::Tails, Direction::Heads][(next() % 2) as usize];
            match next() % 20 {
                0..=7 => TwinOp::TopK(e, r, direction, [1, 5, 10][(next() % 3) as usize]),
                x @ 8..=10 => {
                    let lo = (next() % n as u64) as u32;
                    let filter = match x {
                        10 => Filter::NamePrefix(format!("e{}", lo % 20)),
                        _ => Filter::IdRange {
                            lo,
                            hi: lo + n as u32 / 3,
                        },
                    };
                    TwinOp::Filtered(e, r, direction, 5, filter, x > 8)
                }
                11..=15 => {
                    let p_tau = 0.3 + (next() % 50) as f64 / 100.0;
                    let mut spec = match kinds[(next() % 5) as usize] {
                        AggregateKind::Count => AggregateSpec::count(p_tau),
                        kind => AggregateSpec::of(kind, "score", p_tau),
                    };
                    spec.sample_size = [None, Some(0), Some(20)][(next() % 3) as usize];
                    TwinOp::Aggregate(e, r, direction, spec)
                }
                16..=18 => TwinOp::Fact(e, r, pick(next())),
                _ if i % 2 == 0 => TwinOp::Entity(
                    format!("fresh{i}"),
                    (0..d)
                        .map(|_| (next() % 2_000) as f64 / 100.0 - 10.0)
                        .collect(),
                ),
                _ => TwinOp::Attribute(e, (next() % 500) as f64 / 10.0),
            }
        })
        .collect();

    let top_k_bits = |r: &TopKResult| (answer_of(r), r.candidates_examined);
    let aggregate_bits = |r: &vkg_core::AggregateResult| {
        let bound = (r.bound.mu.to_bits(), r.bound.increment_mass.to_bits());
        (r.estimate.to_bits(), r.accessed, r.ball_size, bound)
    };
    for strategy in [SplitStrategy::Greedy, SplitStrategy::TopK { choices: 3 }] {
        for cache_capacity in [0, 256] {
            let assemble = || {
                VirtualKnowledgeGraph::assemble(
                    graph.clone(),
                    attributes.clone(),
                    store.clone(),
                    VkgConfig {
                        alpha: 3,
                        epsilon: 0.3,
                        leaf_capacity: 8,
                        fanout: 4,
                        split_strategy: strategy,
                        cache_capacity,
                        ..VkgConfig::default()
                    },
                )
            };
            let (shared, exclusive) = (assemble(), assemble());
            let twice = |op: &TwinOp| {
                let write = matches!(
                    op,
                    TwinOp::Fact(..) | TwinOp::Entity(..) | TwinOp::Attribute(..)
                );
                if write {
                    1
                } else {
                    2
                }
            };
            let stream = ops.iter().flat_map(|op| std::iter::repeat_n(op, twice(op)));
            for (i, op) in stream.enumerate() {
                let at = format!("op {i}, {strategy:?}, cache {cache_capacity}");
                match op {
                    &TwinOp::TopK(e, r, direction, k) => {
                        let a = shared.top_k(e, r, direction, k).unwrap();
                        let b = exclusive
                            .with_published_shard(r, |pin, snap, state| {
                                exclusive.top_k_pinned(pin, snap, state, e, r, direction, k)
                            })
                            .unwrap();
                        assert_eq!(top_k_bits(&a), top_k_bits(&b), "{at}");
                    }
                    TwinOp::Filtered(e, r, direction, k, filter, keyed) => {
                        let (e, r, direction, k) = (*e, *r, *direction, *k);
                        let a = if *keyed {
                            let query = Query::top_k(e, r, direction, k, Some(filter.clone()));
                            match shared.execute(&query, &mut || {}).unwrap() {
                                (_, vkg_core::Answer::TopK(a)) => a,
                                (_, other) => panic!("a top-k answered {other:?}"),
                            }
                        } else {
                            let snap = shared.snapshot();
                            let keep = |id| filter.accepts(&snap, id);
                            shared.top_k_filtered(e, r, direction, k, keep).unwrap()
                        };
                        let fingerprint = keyed.then(|| filter.fingerprint());
                        let b = exclusive
                            .with_published_shard(r, |pin, snap, state| {
                                let keep = |id| filter.accepts(snap, id);
                                let key = fingerprint.as_deref();
                                exclusive.top_k_filtered_pinned(
                                    pin, snap, state, e, r, direction, k, key, &keep,
                                )
                            })
                            .unwrap();
                        assert_eq!(top_k_bits(&a), top_k_bits(&b), "{at}");
                    }
                    TwinOp::Aggregate(e, r, direction, spec) => {
                        let (e, r, direction) = (*e, *r, *direction);
                        let a = shared.aggregate(e, r, direction, spec).unwrap();
                        let b = exclusive
                            .with_published_shard(r, |pin, snap, state| {
                                exclusive.aggregate_pinned(pin, snap, state, e, r, direction, spec)
                            })
                            .unwrap();
                        assert_eq!(aggregate_bits(&a), aggregate_bits(&b), "{at}");
                    }
                    &TwinOp::Fact(h, r, t) => {
                        let a = shared.add_fact_dynamic(h, r, t, 2, 0.05).unwrap();
                        let b = exclusive.add_fact_dynamic(h, r, t, 2, 0.05).unwrap();
                        assert_eq!(a, b, "{at}");
                    }
                    TwinOp::Entity(name, row) => {
                        let a = shared.add_entity_dynamic(name, row).unwrap();
                        let b = exclusive.add_entity_dynamic(name, row).unwrap();
                        assert_eq!(a, b, "{at}");
                    }
                    &TwinOp::Attribute(e, value) => {
                        shared.set_attribute_dynamic("score", e, value).unwrap();
                        exclusive.set_attribute_dynamic("score", e, value).unwrap();
                    }
                }
            }
            shared.index().check_invariants();
            assert_eq!(shared.index_stats(), exclusive.index_stats());
            assert!(
                shared.index_stats().splits_performed > 0,
                "the stream must crack"
            );
            assert_eq!(tree_of(&shared.index()), tree_of(&exclusive.index()));
            let count = |vkg: &VirtualKnowledgeGraph, name| vkg.metrics_snapshot().counter(name);
            for name in [names::CACHE_HIT, names::CACHE_MISS, names::CACHE_INVALIDATE] {
                let at = format!("{name}, {strategy:?}, cache {cache_capacity}");
                assert_eq!(count(&shared, name), count(&exclusive, name), "{at}");
            }
            if cache_capacity > 0 {
                assert!(
                    count(&shared, names::CACHE_HIT) > Some(0),
                    "repeats must hit"
                );
            }
        }
    }
}

/// The recorded fingerprints [`trees_match_the_comparator_build`] holds
/// the keyed sort orders to.
const TREE_FINGERPRINTS: &str = include_str!("golden/tree_fingerprints.txt");

/// Folds 64-bit words into an FNV-1a digest: stable across platforms and
/// releases, so a fingerprint can be recorded in a file.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[u32]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|&id| self.word(u64::from(id)));
    }
}

/// The index's tree node for node, in arena order: each node's height,
/// MBR bits, `sums` bits, kind, and its children, leaf ids or the ids of
/// every sort order. Along the way every unsplit element's orders are
/// checked against a comparator sort of its members (coordinate by
/// `partial_cmp`, then id).
fn fingerprint(idx: &CrackingIndex) -> u64 {
    let points = idx.points();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(idx.node_count() as u64);
    for id in 0..idx.node_count() as NodeId {
        let node = idx.node(id);
        h.word(u64::from(node.height));
        for axis in 0..idx.dim() {
            h.word(node.mbr.min(axis).to_bits());
            h.word(node.mbr.max(axis).to_bits());
        }
        match node.sums.as_deref() {
            None => h.word(u64::MAX),
            Some(sums) => bits(sums).into_iter().for_each(|b| h.word(b)),
        }
        match &node.kind {
            NodeKind::Internal(children) => {
                h.word(0);
                h.ids(children);
            }
            NodeKind::Leaf(ids) => {
                h.word(1);
                h.ids(ids);
            }
            NodeKind::Unsplit(orders) => {
                h.word(2);
                for axis in 0..orders.num_orders() {
                    let mut oracle = orders.ids(0).to_vec();
                    oracle.sort_by(|&a, &b| {
                        points
                            .coord(a, axis)
                            .partial_cmp(&points.coord(b, axis))
                            .unwrap()
                            .then(a.cmp(&b))
                    });
                    assert_eq!(orders.ids(axis), &oracle[..], "node {id} axis {axis}");
                    h.ids(orders.ids(axis));
                }
            }
        }
    }
    h.0
}

/// A xorshift stream for the fingerprint worlds.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Coordinates on a coarse grid, zeros of both signs among them, so
/// equal keys straddle split cuts and ±0.0 meet in one order.
fn grid_coord(x: u64) -> f64 {
    match x % 41 {
        0 => -0.0,
        v => (v as f64 - 20.0) * 0.25,
    }
}

/// `n` points in 3-D on [`grid_coord`]'s grid.
fn grid_points(n: usize, seed: u64) -> PointSet {
    let mut next = xorshift(seed);
    PointSet::from_rows(3, (0..n * 3).map(|_| grid_coord(next())).collect())
}

/// A cracking index after a stream of cracks with point moves, inserts
/// and removals between them — the index-level writes a fact or an
/// entity makes.
fn cracked_with_edits(n: usize, strategy: SplitStrategy) -> CrackingIndex {
    let mut next = xorshift(0x5bd1_e995_1234_5678);
    let mut idx = CrackingIndex::new(grid_points(n, 17), 8, 4, 2.0, strategy);
    let mut removed = std::collections::HashSet::new();
    for step in 0..60 {
        let centre = [grid_coord(next()), grid_coord(next()), grid_coord(next())];
        idx.crack(&Mbr::of_ball(&centre, 0.5 + (next() % 8) as f64 * 0.25));
        let coords = [grid_coord(next()), grid_coord(next()), grid_coord(next())];
        let id = (next() % idx.points().len() as u64) as u32;
        match step % 4 {
            0 | 1 if !removed.contains(&id) => idx.update_point(id, &coords).unwrap(),
            2 => {
                idx.insert_point(&coords).unwrap();
            }
            3 if removed.insert(id) => assert!(idx.remove_point(id)),
            _ => {}
        }
    }
    idx.check_invariants();
    idx
}

/// A facade over `n` entities in 64 tight clusters (every tenth an
/// exact twin of an earlier one) after 80 top-k queries with a fact
/// write after every fourth and a new entity after every tenth; returns
/// its tree's node count and fingerprint.
fn facade_after_stream(n: usize, strategy: SplitStrategy, threads: usize) -> (usize, u64) {
    let (vkg, relations, mut next) = clustered_facade(n, strategy, threads, AttributeStore::new());
    let d = vkg.embeddings().dim();
    let pick = |x: u64| EntityId((x % n as u64) as u32);
    for i in 0..80u32 {
        let (e, r) = (pick(next()), relations[(next() % 3) as usize]);
        let direction = [Direction::Tails, Direction::Heads][(next() % 2) as usize];
        vkg.top_k(e, r, direction, 10).unwrap();
        if i % 4 == 3 {
            vkg.add_fact_dynamic(e, r, pick(next()), 2, 0.05).unwrap();
        }
        if i % 10 == 9 {
            let row: Vec<f64> = (0..d).map(|_| grid_coord(next())).collect();
            vkg.add_entity_dynamic(&format!("fresh{i}"), &row).unwrap();
        }
    }
    let index = vkg.index();
    index.check_invariants();
    (index.node_count(), fingerprint(&index))
}

/// [`facade_after_stream`]'s facade, `a` on two entities in three,
/// after 60 aggregates served through the shared read protocol — the
/// five kinds at full access and at budgets 1 and 20, both directions,
/// COUNT at two thresholds — with a fact write after every sixth and a
/// new entity after every fifteenth: the ball rounds crack on the
/// verdict their region reads fold in.
fn facade_after_aggregates(n: usize, strategy: SplitStrategy, threads: usize) -> (usize, u64) {
    let mut attributes = AttributeStore::new();
    for id in (0..n as u32).filter(|id| id % 3 != 0) {
        attributes.set("a", EntityId(id), f64::from(id % 97) - 40.0);
    }
    let (vkg, relations, mut next) = clustered_facade(n, strategy, threads, attributes);
    let d = vkg.embeddings().dim();
    let pick = |x: u64| EntityId((x % n as u64) as u32);
    let kinds = [
        AggregateKind::Count,
        AggregateKind::Sum,
        AggregateKind::Avg,
        AggregateKind::Max,
        AggregateKind::Min,
    ];
    for i in 0..60usize {
        let (e, r) = (pick(next()), relations[(next() % 3) as usize]);
        let direction = [Direction::Tails, Direction::Heads][(next() % 2) as usize];
        let mut spec = match kinds[i % 5] {
            AggregateKind::Count => AggregateSpec::count([0.05, 0.3][i / 5 % 2]),
            kind => AggregateSpec::of(kind, "a", 0.3),
        };
        spec.sample_size = [None, Some(1), Some(20)][i / 5 % 3];
        vkg.aggregate(e, r, direction, &spec).unwrap();
        if i % 6 == 5 {
            vkg.add_fact_dynamic(e, r, pick(next()), 2, 0.05).unwrap();
        }
        if i % 15 == 14 {
            let row: Vec<f64> = (0..d).map(|_| grid_coord(next())).collect();
            vkg.add_entity_dynamic(&format!("fresh{i}"), &row).unwrap();
        }
    }
    let index = vkg.index();
    index.check_invariants();
    (index.node_count(), fingerprint(&index))
}

/// The facade of the fingerprint streams: `n` entities in 64 tight
/// clusters (every tenth an exact twin of an earlier one), three
/// relations, `2n` random facts, and the stream's generator.
fn clustered_facade(
    n: usize,
    strategy: SplitStrategy,
    threads: usize,
    attributes: AttributeStore,
) -> (VirtualKnowledgeGraph, Vec<RelationId>, impl FnMut() -> u64) {
    let d = 8;
    let mut next = xorshift(0x2545_f491_4f6c_dd1d);
    let mut graph = KnowledgeGraph::new();
    let relations: Vec<RelationId> = (0..3)
        .map(|r| graph.add_relation(&format!("r{r}")))
        .collect();
    let centres: Vec<f64> = (0..64 * d).map(|_| grid_coord(next()) * 4.0).collect();
    let mut rows: Vec<f64> = Vec::with_capacity(n * d);
    for i in 0..n {
        graph.add_entity(&format!("e{i}"));
        if i % 10 == 9 {
            let twin = (next() % i as u64) as usize * d;
            rows.extend_from_within(twin..twin + d);
        } else {
            let c = (next() % 64) as usize * d;
            rows.extend((0..d).map(|j| centres[c + j] + grid_coord(next()) * 0.01));
        }
    }
    let pick = |x: u64| EntityId((x % n as u64) as u32);
    for _ in 0..2 * n {
        let r = relations[(next() % 3) as usize];
        let _ = graph.add_triple(pick(next()), r, pick(next()));
    }
    let relation_rows: Vec<f64> = (0..3 * d).map(|_| grid_coord(next())).collect();
    let vkg = VirtualKnowledgeGraph::assemble(
        graph,
        attributes,
        EmbeddingStore::from_raw(d, rows, relation_rows),
        VkgConfig {
            alpha: 3,
            leaf_capacity: 16,
            fanout: 8,
            split_strategy: strategy,
            threads,
            ..VkgConfig::default()
        },
    );
    (vkg, relations, next)
}

/// `name nodes fingerprint`, the golden file's row format.
fn fingerprint_row(name: &str, (nodes, digest): (usize, u64)) -> String {
    format!("{name} {nodes} {digest:#018x}")
}

/// Holds `rows` to the golden file's rows of the same names.
fn assert_golden_trees(rows: &[String]) {
    for row in rows {
        let name = row.split(' ').next();
        let golden = TREE_FINGERPRINTS
            .lines()
            .find(|l| !l.starts_with('#') && l.split(' ').next() == name);
        assert_eq!(
            Some(row.as_str()),
            golden,
            "tree moved\nactual rows:\n{}\n",
            rows.join("\n")
        );
    }
}

fn bulk_row(name: &str, n: usize, width: usize) -> String {
    let idx = CrackingIndex::bulk_load_with_pool(grid_points(n, 29), 16, 8, 2.0, Pool::new(width));
    idx.check_invariants();
    fingerprint_row(name, (idx.node_count(), fingerprint(&idx)))
}

/// The keyed sort orders build the trees the comparator sort built,
/// node for node: every node's kind, the ids of every order, and the
/// MBR and `sums` bits, over cracking streams with writes under both
/// split strategies and bulk loads at widths 1 and 2. The golden rows
/// were recorded from the comparator-sort build (float `partial_cmp`
/// sort, `HashSet` partition, linear removal).
#[test]
fn trees_match_the_comparator_build() {
    let cracked = |name: &str, strategy| {
        let idx = cracked_with_edits(6_000, strategy);
        fingerprint_row(name, (idx.node_count(), fingerprint(&idx)))
    };
    assert_golden_trees(&[
        cracked("index_greedy", SplitStrategy::Greedy),
        cracked("index_top2", SplitStrategy::TopK { choices: 2 }),
        fingerprint_row(
            "facade_greedy_w2",
            facade_after_stream(5_000, SplitStrategy::Greedy, 2),
        ),
        fingerprint_row(
            "facade_top2_w1",
            facade_after_stream(3_000, SplitStrategy::TopK { choices: 2 }, 1),
        ),
        bulk_row("bulk_w1", 6_000, 1),
        bulk_row("bulk_w2", 6_000, 2),
    ]);
}

/// [`trees_match_the_comparator_build`] at the benchmark's 100 000
/// points: too slow for a debug build, run in release by CI's answer
/// parity job.
#[test]
#[ignore = "100 000 points; run in release"]
fn trees_match_the_comparator_build_at_100k() {
    assert_golden_trees(&[
        fingerprint_row(
            "facade_greedy_w2_100k",
            facade_after_stream(100_000, SplitStrategy::Greedy, 2),
        ),
        bulk_row("bulk_w1_100k", 100_000, 1),
        bulk_row("bulk_w2_100k", 100_000, 2),
    ]);
}

/// The ball rounds crack on the verdict their region reads fold in, and
/// that cracks what the separate pre-check cracked: after mixed
/// aggregate streams under both strategies, with writes between them,
/// the trees are node for node the ones recorded with a separate
/// `wants_crack` walk after every region read.
#[test]
fn aggregate_streams_crack_as_the_separate_pre_check_did() {
    assert_golden_trees(&[
        fingerprint_row(
            "facade_agg_greedy_w2",
            facade_after_aggregates(5_000, SplitStrategy::Greedy, 2),
        ),
        fingerprint_row(
            "facade_agg_top2_w1",
            facade_after_aggregates(3_000, SplitStrategy::TopK { choices: 2 }, 1),
        ),
    ]);
}

/// A NaN or ±∞ coordinate has no place in a sort order, so every entry
/// that creates a coordinate refuses one with a typed error before
/// anything sorts by it: assembly, a new point, a moved point. A refused
/// write leaves the tree node for node as it was.
#[test]
fn non_finite_coordinates_are_refused_before_any_sort() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut graph = KnowledgeGraph::new();
        graph.add_relation("r");
        let mut rows = Vec::new();
        for i in 0..40 {
            graph.add_entity(&format!("e{i}"));
            rows.extend([i as f64, -(i as f64), 0.5, 1.0]);
        }
        rows[4 * 7 + 2] = bad;
        let store = EmbeddingStore::from_raw(4, rows, vec![0.25; 4]);
        let config = VkgConfig {
            alpha: 2,
            ..VkgConfig::default()
        };
        assert!(matches!(
            VirtualKnowledgeGraph::try_assemble(graph, AttributeStore::new(), store, config),
            Err(VkgError::InvalidParameter(_))
        ));

        let mut idx = CrackingIndex::new(grid_points(500, 3), 8, 4, 2.0, SplitStrategy::Greedy);
        idx.crack(&Mbr::of_ball(&[0.0, 0.0, 0.0], 1.0));
        let before = fingerprint(&idx);
        for coords in [[bad, 0.0, 0.0], [0.0, 0.0, bad]] {
            assert!(matches!(
                idx.insert_point(&coords),
                Err(VkgError::InvalidParameter(_))
            ));
            assert!(matches!(
                idx.update_point(3, &coords),
                Err(VkgError::InvalidParameter(_))
            ));
        }
        assert_eq!(fingerprint(&idx), before);
        assert_eq!(idx.live_points(), 500);
    }
}
