//! Cache parity: the epoch-keyed result cache is a performance layer,
//! never an answer change.
//!
//! A cache hit is only legal if it is **provably identical** to
//! recomputation: entries are validated against the exact pinned
//! `(global epoch, index epoch)` pair, hits replay the filling query's
//! crack regions so the tree evolves as if every query had executed, and prefix cuts recompute
//! probabilities and the Theorem 2 guarantee from the cached distances
//! — pure functions of the prefix. Proptest drives seeded workloads
//! that interleave `add_fact_dynamic` writers (epoch bumps → lazy
//! invalidation) with repetition-heavy reads (exact hits, prefix hits,
//! warm starts), asserting the cached engine's outcome stream is bit-identical to a cache-disabled twin's.

use std::sync::OnceLock;

use proptest::prelude::*;
use vkg::prelude::*;

fn trained() -> &'static (Dataset, EmbeddingStore) {
    static TRAINED: OnceLock<(Dataset, EmbeddingStore)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let ds = movie_like(&MovieConfig::tiny());
        let (embeddings, _) = TransE::new(TransEConfig {
            dim: 16,
            epochs: 6,
            ..TransEConfig::default()
        })
        .train(&ds.graph);
        (ds, embeddings)
    })
}

fn engine(cache_capacity: usize) -> VirtualKnowledgeGraph {
    let (ds, embeddings) = trained();
    VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        embeddings.clone(),
        VkgConfig {
            cache_capacity,
            epsilon: 0.5,
            ..VkgConfig::default()
        },
    )
}

/// One step of a replayable workload. Domains are kept deliberately
/// small so sampled workloads repeat queries — the cache's hot path.
#[derive(Debug, Clone)]
enum Op {
    TopK {
        entity: u32,
        relation: u32,
        direction: Direction,
        k: usize,
    },
    Aggregate {
        entity: u32,
        relation: u32,
        direction: Direction,
    },
    /// A dynamic write: bumps every epoch, so cached entries filled
    /// before it must be invalidated, not served.
    AddFact { h: u32, r: u32, t: u32 },
}

/// The semantic outcome of one op: everything a client can observe,
/// down to the float bits. Cost counters (`s1_evals`,
/// `candidates_examined`, `accessed`) are deliberately excluded — a
/// cache hit reports the filling query's costs, which is the point.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    TopK {
        ids: Vec<u32>,
        distance_bits: Vec<u64>,
        probability_bits: Vec<u64>,
        success_bits: u64,
        misses_bits: u64,
    },
    Aggregate {
        estimate_bits: u64,
        mu_bits: u64,
        mass_bits: u64,
        ball_size: usize,
    },
    Fact {
        added: bool,
        epoch: u64,
    },
    Err(String),
}

fn apply(vkg: &VirtualKnowledgeGraph, op: &Op, relations: u32, entities: u32) -> Outcome {
    match *op {
        Op::TopK {
            entity,
            relation,
            direction,
            k,
        } => match vkg.top_k(
            EntityId(entity),
            RelationId(relation % relations),
            direction,
            k,
        ) {
            Ok(r) => Outcome::TopK {
                ids: r.predictions.iter().map(|p| p.id).collect(),
                distance_bits: r.predictions.iter().map(|p| p.distance.to_bits()).collect(),
                probability_bits: r
                    .predictions
                    .iter()
                    .map(|p| p.probability.to_bits())
                    .collect(),
                success_bits: r.guarantee.success_probability.to_bits(),
                misses_bits: r.guarantee.expected_misses.to_bits(),
            },
            Err(e) => Outcome::Err(e.to_string()),
        },
        Op::Aggregate {
            entity,
            relation,
            direction,
        } => {
            let spec = AggregateSpec::count(0.05);
            match vkg.aggregate(
                EntityId(entity),
                RelationId(relation % relations),
                direction,
                &spec,
            ) {
                Ok(r) => Outcome::Aggregate {
                    estimate_bits: r.estimate.to_bits(),
                    mu_bits: r.bound.mu.to_bits(),
                    mass_bits: r.bound.increment_mass.to_bits(),
                    ball_size: r.ball_size,
                },
                Err(e) => Outcome::Err(e.to_string()),
            }
        }
        Op::AddFact { h, r, t } => {
            match vkg.add_fact_dynamic(
                EntityId(h % entities),
                RelationId(r % relations),
                EntityId(t % entities),
                2,
                0.05,
            ) {
                Ok((added, epoch)) => Outcome::Fact { added, epoch },
                Err(e) => Outcome::Err(e.to_string()),
            }
        }
    }
}

fn direction_strategy() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Tails), Just(Direction::Heads)]
}

/// Entities are drawn from a small window so workloads revisit queries;
/// `k` spans 1..8 so repeats at different k exercise prefix cuts (k
/// shrinks) and warm starts (k grows) on top of exact hits.
fn op_strategy(entities: u32) -> impl Strategy<Value = Op> {
    let hot = entities.clamp(1, 6);
    prop_oneof![
        6 => (0..hot, 0u32..4, direction_strategy(), 1usize..8).prop_map(
            |(entity, relation, direction, k)| Op::TopK { entity, relation, direction, k }
        ),
        2 => (0..hot, 0u32..4, direction_strategy()).prop_map(
            |(entity, relation, direction)| Op::Aggregate { entity, relation, direction }
        ),
        1 => (0..entities, 0u32..8, 0..entities).prop_map(
            |(h, r, t)| Op::AddFact { h, r, t }
        ),
    ]
}

/// Reads a counter from the facade's metrics registry by name.
fn counter(vkg: &VirtualKnowledgeGraph, name: &str) -> u64 {
    vkg.metrics_snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The cached engine replays the interleaved read/write workload to
    /// the exact same outcome sequence as a cache-disabled engine.
    #[test]
    fn cached_answers_are_bit_identical_under_writes(
        ops in prop::collection::vec(
            op_strategy(trained().0.graph.num_entities() as u32),
            1..32,
        )
    ) {
        let relations = trained().0.graph.num_relations() as u32;
        let entities = trained().0.graph.num_entities() as u32;
        let plain = engine(0);
        let cached = engine(1024);
        for (i, op) in ops.iter().enumerate() {
            let want = apply(&plain, op, relations, entities);
            let got = apply(&cached, op, relations, entities);
            prop_assert_eq!(&got, &want, "op {} ({:?}) diverged with cache on", i, op);
        }
        cached.index().check_invariants();
    }
}

/// A deterministic repeat-heavy workload actually hits: ten identical
/// queries cost one computation and nine whole-result hits, and the
/// hits return the exact bits of the first answer.
#[test]
fn repeats_hit_and_match_first_answer() {
    let vkg = engine(1024);
    let relations = trained().0.graph.num_relations() as u32;
    let op = Op::TopK {
        entity: 0,
        relation: 1,
        direction: Direction::Tails,
        k: 5,
    };
    let first = apply(&vkg, &op, relations, 1);
    for _ in 0..9 {
        assert_eq!(apply(&vkg, &op, relations, 1), first);
    }
    assert_eq!(counter(&vkg, "core.cache.hit"), 9);
    assert_eq!(counter(&vkg, "core.cache.miss"), 1);
}

/// Shrinking k after a larger fill answers by prefix cut; growing k
/// warm-starts rather than hitting; a write invalidates lazily.
#[test]
fn prefix_hits_warm_starts_and_invalidation_are_counted() {
    let plain = engine(0);
    let cached = engine(1024);
    let relations = trained().0.graph.num_relations() as u32;
    let entities = trained().0.graph.num_entities() as u32;
    let at = |k: usize| Op::TopK {
        entity: 1,
        relation: 0,
        direction: Direction::Tails,
        k,
    };
    // Fill at k=6, cut to k=3, grow to k=8, then write and re-query.
    let script = [at(6), at(3), at(8), Op::AddFact { h: 0, r: 0, t: 3 }, at(8)];
    for op in &script {
        assert_eq!(
            apply(&cached, op, relations, entities),
            apply(&plain, op, relations, entities),
            "diverged on {op:?}"
        );
    }
    assert_eq!(
        counter(&cached, "core.cache.prefix_hit"),
        1,
        "k=3 after k=6"
    );
    assert!(
        counter(&cached, "core.cache.invalidate") >= 1,
        "the post-write re-query must remove the stale k=8 entry"
    );
}
