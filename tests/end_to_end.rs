//! End-to-end pipeline tests: dataset generation → TransE training →
//! virtual-KG assembly → top-k and aggregate queries → index invariants,
//! on the dim 16 × 8 epochs worlds. Every top-k answer is held to the
//! E′ and guarantee semantics by `checked_top_k`.

mod worlds;

use vkg::prelude::*;
use worlds::{checked_top_k, trained, Data, Train};

#[test]
fn movie_pipeline_end_to_end() {
    let world = trained(Data::Movie, Train::Fast);
    let vkg = world.assemble(VkgConfig::default());
    checked_top_k(&vkg, (world.user(3), world.likes(), Direction::Tails), 5);
    vkg.index().check_invariants();
}

#[test]
fn amazon_pipeline_with_aggregates() {
    let world = trained(Data::Amazon, Train::Fast);
    let vkg = world.assemble(VkgConfig::default());
    let (user, likes) = (world.user(1), world.likes());

    let count = vkg
        .aggregate(user, likes, Direction::Tails, &AggregateSpec::count(0.05))
        .unwrap();
    assert!(count.estimate >= 1.0);
    assert!(count.ball_size >= count.accessed);

    let avg = vkg
        .aggregate(
            user,
            likes,
            Direction::Tails,
            &AggregateSpec::of(AggregateKind::Avg, "quality", 0.05),
        )
        .unwrap();
    assert!(
        (1.0..=5.0).contains(&avg.estimate),
        "avg quality {} outside the rating scale",
        avg.estimate
    );
    vkg.index().check_invariants();
}

#[test]
fn freebase_pipeline_multi_relation() {
    let world = trained(Data::Freebase, Train::Fast);
    let vkg = world.assemble(VkgConfig::default());

    // Query across several distinct relation types with one index.
    let mut used = std::collections::HashSet::new();
    let mut asked = 0;
    for t in world.ds.graph.triples() {
        if asked >= 5 || !used.insert(t.relation) {
            continue;
        }
        asked += 1;
        checked_top_k(&vkg, (t.head, t.relation, Direction::Tails), 3);
        checked_top_k(&vkg, (t.tail, t.relation, Direction::Heads), 3);
    }
    assert_eq!(asked, 5, "expected five distinct relation types queried");
    vkg.index().check_invariants();
}

#[test]
fn index_converges_over_query_sequence() {
    let world = trained(Data::Movie, Train::Fast);
    let vkg = world.assemble(VkgConfig::default());
    let mut node_counts = Vec::new();
    for u in 0..20 {
        checked_top_k(
            &vkg,
            (world.user(u % 10), world.likes(), Direction::Tails),
            5,
        );
        node_counts.push(vkg.index_node_count());
    }
    // Convergence (Figs. 9–11): late growth must be no larger than early.
    let early = node_counts[4] - node_counts[0];
    let late = node_counts[19] - node_counts[15];
    assert!(
        late <= early.max(1),
        "index kept growing: early {early}, late {late}"
    );
    vkg.index().check_invariants();
}

#[test]
fn topk_split_strategy_end_to_end() {
    let world = trained(Data::Movie, Train::Fast);
    let vkg = world.assemble(VkgConfig {
        split_strategy: SplitStrategy::TopK { choices: 3 },
        ..VkgConfig::default()
    });
    for u in 0..6 {
        checked_top_k(&vkg, (world.user(u), world.likes(), Direction::Tails), 5);
    }
    vkg.index().check_invariants();
}

#[test]
fn guarantees_reported_and_sane() {
    let world = trained(Data::Movie, Train::Fast);
    let vkg = world.assemble(VkgConfig::default());
    checked_top_k(&vkg, (world.user(0), world.likes(), Direction::Tails), 5);
}
