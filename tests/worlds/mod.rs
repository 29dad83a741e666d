//! The worlds the accuracy suites run on, and the checks every top-k
//! answer they compute is held to.
//!
//! Each (dataset, TransE config) world is trained once per test binary,
//! behind a `OnceLock`; every suite uses the part it needs.

#![allow(dead_code)]

use std::ops::Range;
use std::sync::OnceLock;

use vkg::prelude::*;

#[derive(Clone, Copy)]
pub enum Data {
    Movie,
    Amazon,
    Freebase,
}

/// The TransE configurations the checks run on.
#[derive(Clone, Copy)]
pub enum Train {
    /// dim 24 × 10 epochs.
    Full,
    /// dim 16 × 8 epochs.
    Fast,
    /// dim 16 × 6 epochs.
    Small,
}

/// A generated dataset and the TransE embeddings trained on it.
pub struct Trained {
    pub ds: Dataset,
    pub store: EmbeddingStore,
}

pub fn trained(data: Data, train: Train) -> &'static Trained {
    static WORLDS: [OnceLock<Trained>; 9] = [const { OnceLock::new() }; 9];
    WORLDS[data as usize * 3 + train as usize].get_or_init(|| {
        let ds = match data {
            Data::Movie => movie_like(&MovieConfig::tiny()),
            Data::Amazon => amazon_like(&AmazonConfig::tiny()),
            Data::Freebase => freebase_like(&FreebaseConfig::tiny()),
        };
        let (dim, epochs) = match train {
            Train::Full => (24, 10),
            Train::Fast => (16, 8),
            Train::Small => (16, 6),
        };
        let (store, _) = TransE::new(TransEConfig {
            dim,
            epochs,
            ..TransEConfig::default()
        })
        .train(&ds.graph);
        Trained { ds, store }
    })
}

/// A top-k query: entity, relation, direction.
pub type Query = (EntityId, RelationId, Direction);

impl Trained {
    pub fn user(&self, u: usize) -> EntityId {
        self.ds.graph.entity_id(&format!("user_{u}")).unwrap()
    }

    pub fn likes(&self) -> RelationId {
        self.ds.graph.relation_id("likes").unwrap()
    }

    pub fn assemble(&self, config: VkgConfig) -> VirtualKnowledgeGraph {
        VirtualKnowledgeGraph::assemble(
            self.ds.graph.clone(),
            self.ds.attributes.clone(),
            self.store.clone(),
            config,
        )
    }
}

/// Top-k through the facade, held to what every answer promises: no
/// known edge and never the query entity (E′), at most `k` results in
/// ascending distance with probability 1 at the head, and a Theorem 2
/// guarantee in range with one ratio per prediction. Returns the ids.
pub fn checked_top_k(vkg: &VirtualKnowledgeGraph, (e, r, dir): Query, k: usize) -> Vec<u32> {
    let answer = vkg.top_k(e, r, dir, k).unwrap();
    let graph = vkg.graph();
    let predictions = &answer.predictions;
    assert!(!predictions.is_empty() && predictions.len() <= k);
    for p in predictions {
        assert_ne!(p.id, e.0, "the query entity came back");
        let known = match dir {
            Direction::Tails => graph.has_edge(e, r, EntityId(p.id)),
            Direction::Heads => graph.has_edge(EntityId(p.id), r, e),
        };
        assert!(!known, "known edge to {} came back", p.id);
    }
    for w in predictions.windows(2) {
        assert!(w[0].distance <= w[1].distance);
    }
    assert_eq!(predictions[0].probability, 1.0);
    let g = &answer.guarantee;
    assert!(g.success_probability > 0.0 && g.success_probability <= 1.0);
    assert!(g.expected_misses >= 0.0 && g.expected_misses <= k as f64);
    assert_eq!(g.ratios.len(), predictions.len());
    predictions.iter().map(|p| p.id).collect()
}

/// The default transform seed, `VkgConfig::default().transform_seed`.
pub const JLTR: Range<u64> = 0x4a4c_5452..0x4a4c_5453;

/// Deterministic spread over the triples, alternating directions.
pub fn queries_for(graph: &KnowledgeGraph, n: usize) -> Vec<Query> {
    let triples = graph.triples();
    let step = (triples.len() / n).max(1);
    triples
        .iter()
        .step_by(step)
        .take(n)
        .enumerate()
        .map(|(i, t)| {
            if i % 2 == 0 {
                (t.head, t.relation, Direction::Tails)
            } else {
                (t.tail, t.relation, Direction::Heads)
            }
        })
        .collect()
}

/// Precision@k at `alpha` of the indexed path against the exact no-index
/// scan, on the [`Train::Full`] world of `data`: averaged over `queries`
/// spread queries on one fresh facade per transform seed, and summed
/// over the seeds. Every indexed answer goes through [`checked_top_k`]
/// and every facade ends with `check_invariants`.
pub fn precision_at_k(
    data: Data,
    alpha: usize,
    k: usize,
    seeds: Range<u64>,
    queries: usize,
) -> f64 {
    let world = trained(data, Train::Full);
    let queries = queries_for(&world.ds.graph, queries);
    let mut summed = 0.0;
    for transform_seed in seeds {
        let vkg = world.assemble(VkgConfig {
            alpha,
            transform_seed,
            ..VkgConfig::default()
        });
        let snap = vkg.snapshot();
        let mut total = 0.0;
        for &(e, r, dir) in &queries {
            let indexed = checked_top_k(&vkg, (e, r, dir), k);
            let truth = LinearScanEngine::new().top_k(&snap, e, r, dir, k).unwrap();
            let hits = truth.predictions.iter().filter(|t| indexed.contains(&t.id));
            total += hits.count() as f64 / truth.predictions.len().min(k).max(1) as f64;
        }
        vkg.index().check_invariants();
        summed += total / queries.len() as f64;
    }
    summed
}
