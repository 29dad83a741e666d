//! Micro-benchmarks of the index building blocks: JL projection,
//! sort-order construction, best-binary-split enumeration, cracking,
//! region search and the best-first ball traversal. These isolate the
//! costs the figure-level benches aggregate.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vkg::core::config::SplitStrategy;
use vkg::core::geometry::{Mbr, PointSet};
use vkg::core::index::CrackingIndex;
use vkg::core::rtree::SortOrders;
use vkg::prelude::JlTransform;

fn random_points(n: usize, dim: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-10.0..10.0)).collect();
    PointSet::from_rows(dim, coords)
}

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_micro");

    // JL projection of one 48-dim vector into α = 3.
    let t = JlTransform::new(48, 3, 7);
    let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).sin()).collect();
    group.bench_function("jl_apply_48_to_3", |b| b.iter(|| black_box(t.apply(&x))));

    // Sort-order construction over 10k points (the root-partition cost of
    // the very first query).
    let ps = random_points(10_000, 3, 1);
    group.bench_function("sort_orders_build_10k", |b| {
        b.iter(|| black_box(SortOrders::build(&ps, ps.all_ids())))
    });

    // First-query crack of a 10k-point index.
    group.bench_function("first_crack_10k", |b| {
        b.iter(|| {
            let mut idx = CrackingIndex::new(
                random_points(10_000, 3, 2),
                32,
                8,
                2.0,
                SplitStrategy::Greedy,
            );
            idx.crack(&Mbr::of_ball(&[1.0, 1.0, 1.0], 1.0));
            black_box(idx.node_count())
        })
    });

    // Region search on a converged index.
    let mut idx = CrackingIndex::new(
        random_points(50_000, 3, 3),
        32,
        8,
        2.0,
        SplitStrategy::Greedy,
    );
    let region = Mbr::of_ball(&[0.0, 0.0, 0.0], 1.0);
    idx.crack(&region);
    group.bench_function("search_region_50k_converged", |b| {
        b.iter(|| {
            let mut count = 0usize;
            idx.search_region(&region, |_| count += 1);
            black_box(count)
        })
    });

    // The same ball nearest-first at a fixed radius: what the ordered
    // traversal costs over the plain region search above.
    group.bench_function("nearest_first_50k_converged", |b| {
        b.iter(|| {
            let mut count = 0usize;
            idx.nearest_first(&[0.0, 0.0, 0.0], 1.0, |_, _| {
                count += 1;
                1.0
            });
            black_box(count)
        })
    });

    // Bulk load as the reference cost the cracking amortizes away.
    group.bench_function("bulk_load_10k", |b| {
        b.iter(|| {
            black_box(CrackingIndex::bulk_load(
                random_points(10_000, 3, 4),
                32,
                8,
                2.0,
            ))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_micro
}
criterion_main!(benches);
