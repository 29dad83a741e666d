//! TransE: translating embeddings for multi-relational data (Bordes et
//! al., NIPS 2013 — the paper's reference \[6\] and default algorithm 𝒜).
//!
//! TransE learns vectors such that `h + r ≈ t` for observed triples, by
//! minimizing the margin-based ranking loss
//!
//! ```text
//!   L = Σ_{(h,r,t) ∈ E} Σ_{(h',r,t') ∈ corrupt(h,r,t)}
//!         [ γ + d(h + r, t) − d(h' + r, t') ]₊
//! ```
//!
//! with stochastic gradient descent, uniform negative sampling (corrupt
//! the head or the tail, never both), and entity vectors projected to the
//! unit ball after every epoch — all as in the original paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vkg_kg::{EntityId, KnowledgeGraph, RelationId};

use crate::store::EmbeddingStore;
use crate::vector::normalize;

/// Hyper-parameters for [`TransE::train`].
#[derive(Debug, Clone)]
pub struct TransEConfig {
    /// Embedding dimensionality `d` (paper uses 50–100).
    pub dim: usize,
    /// Number of passes over the training triples.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Ranking margin γ.
    pub margin: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransEConfig {
    fn default() -> Self {
        Self {
            dim: 50,
            epochs: 50,
            learning_rate: 0.01,
            margin: 1.0,
            seed: 0x7261_6e73, // "rans"
        }
    }
}

impl TransEConfig {
    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            dim: 16,
            epochs: 20,
            ..Self::default()
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Mean margin-ranking loss per triple, one entry per epoch.
    pub epoch_loss: Vec<f64>,
}

impl TrainStats {
    /// Loss of the final epoch (`None` if no epochs ran).
    pub fn final_loss(&self) -> Option<f64> {
        self.epoch_loss.last().copied()
    }
}

/// The TransE trainer.
#[derive(Debug)]
pub struct TransE {
    cfg: TransEConfig,
}

impl TransE {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(cfg: TransEConfig) -> Self {
        Self { cfg }
    }

    /// Trains embeddings on all triples of `graph`.
    ///
    /// Returns the store and per-epoch loss telemetry.
    pub fn train(&self, graph: &KnowledgeGraph) -> (EmbeddingStore, TrainStats) {
        let n = graph.num_entities();
        let m = graph.num_relations();
        let d = self.cfg.dim;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        let mut store = EmbeddingStore::zeros(n, m, d);
        init_uniform(&mut store, &mut rng);

        let triples: Vec<_> = graph.triples().to_vec();
        let mut order: Vec<usize> = (0..triples.len()).collect();
        let mut epoch_loss = Vec::with_capacity(self.cfg.epochs);

        for _ in 0..self.cfg.epochs {
            // Project entity vectors onto the unit ball (TransE line 5).
            for e in 0..n {
                normalize(store.entity_mut(EntityId(e as u32)));
            }
            shuffle(&mut order, &mut rng);
            let mut total = 0.0;
            for &ti in &order {
                let t = triples[ti];
                let (nh, nt) = corrupt(graph, t.head, t.relation, t.tail, &mut rng);
                total += self.sgd_step(&mut store, t.head, t.relation, t.tail, nh, nt);
            }
            let denom = triples.len().max(1) as f64;
            epoch_loss.push(total / denom);
        }

        (store, TrainStats { epoch_loss })
    }

    /// One margin-ranking SGD step; returns the (pre-step) hinge loss.
    fn sgd_step(
        &self,
        store: &mut EmbeddingStore,
        h: EntityId,
        r: RelationId,
        t: EntityId,
        nh: EntityId,
        nt: EntityId,
    ) -> f64 {
        let d = store.dim();
        let pos = triple_score(store, h, r, t);
        let neg = triple_score(store, nh, r, nt);
        let loss = (self.cfg.margin + pos - neg).max(0.0);
        if loss <= 0.0 {
            return 0.0;
        }
        let lr = self.cfg.learning_rate;

        // Gradient of d(h+r,t)² = ‖h+r−t‖²: ∂/∂h = 2(h+r−t), ∂/∂t = −2(h+r−t).
        let mut grad_pos = vec![0.0; d];
        {
            let (hv, rv, tv) = (store.entity(h), store.relation(r), store.entity(t));
            for i in 0..d {
                grad_pos[i] = 2.0 * (hv[i] + rv[i] - tv[i]);
            }
        }
        let mut grad_neg = vec![0.0; d];
        {
            let (hv, rv, tv) = (store.entity(nh), store.relation(r), store.entity(nt));
            for i in 0..d {
                grad_neg[i] = 2.0 * (hv[i] + rv[i] - tv[i]);
            }
        }

        // Descend the positive distance, ascend the negative distance.
        for i in 0..d {
            store.entity_mut(h)[i] -= lr * grad_pos[i];
            store.entity_mut(t)[i] += lr * grad_pos[i];
            store.entity_mut(nh)[i] += lr * grad_neg[i];
            store.entity_mut(nt)[i] -= lr * grad_neg[i];
            store.relation_mut(r)[i] -= lr * (grad_pos[i] - grad_neg[i]);
        }
        loss
    }
}

/// Squared-L2 TransE score (used during training; queries use plain L2,
/// which is order-equivalent).
fn triple_score(store: &EmbeddingStore, h: EntityId, r: RelationId, t: EntityId) -> f64 {
    let d = store.dim();
    let (hv, rv, tv) = (store.entity(h), store.relation(r), store.entity(t));
    let mut s = 0.0;
    for i in 0..d {
        let x = hv[i] + rv[i] - tv[i];
        s += x * x;
    }
    s
}

/// Uniform initialization in `[-6/√d, 6/√d]` with relation vectors
/// normalized once, as in the original TransE paper.
pub(crate) fn init_uniform<R: Rng>(store: &mut EmbeddingStore, rng: &mut R) {
    let d = store.dim();
    let bound = 6.0 / (d as f64).sqrt();
    for e in 0..store.num_entities() {
        for v in store.entity_mut(EntityId(e as u32)).iter_mut() {
            *v = rng.gen_range(-bound..bound);
        }
    }
    for r in 0..store.num_relations() {
        let row = store.relation_mut(RelationId(r as u32));
        for v in row.iter_mut() {
            *v = rng.gen_range(-bound..bound);
        }
        normalize(row);
    }
}

/// Fisher–Yates shuffle (avoids pulling in `rand`'s slice extension trait
/// just for this).
pub(crate) fn shuffle<R: Rng>(order: &mut [usize], rng: &mut R) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

/// Corrupts a triple by replacing its head or tail with a uniformly random
/// entity, redrawing if the corrupted triple happens to exist in `E`
/// (the "filtered" negative sampling of the TransE paper).
pub(crate) fn corrupt<R: Rng>(
    graph: &KnowledgeGraph,
    h: EntityId,
    r: RelationId,
    t: EntityId,
    rng: &mut R,
) -> (EntityId, EntityId) {
    let n = graph.num_entities() as u32;
    for _ in 0..16 {
        let candidate = EntityId(rng.gen_range(0..n));
        let (nh, nt) = if rng.gen_bool(0.5) {
            (candidate, t)
        } else {
            (h, candidate)
        };
        if !graph.has_edge(nh, r, nt) {
            return (nh, nt);
        }
    }
    // Degenerate graphs (nearly complete) fall through; return as-is.
    (h, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small chain graph: a_i --next--> a_{i+1}, plus a "type" relation.
    fn chain_graph(n: usize) -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        for i in 0..n.saturating_sub(1) {
            g.add_fact(&format!("a{i}"), "next", &format!("a{}", i + 1))
                .unwrap();
        }
        for i in 0..n {
            g.add_fact(&format!("a{i}"), "is_a", "node").unwrap();
        }
        g
    }

    #[test]
    fn loss_decreases_over_training() {
        let g = chain_graph(30);
        let (_, stats) = TransE::new(TransEConfig::fast()).train(&g);
        let first = stats.epoch_loss[0];
        let last = stats.final_loss().unwrap();
        assert!(
            last < first,
            "loss did not decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn trained_triples_score_better_than_random_pairs() {
        let g = chain_graph(30);
        let (store, _) = TransE::new(TransEConfig::fast()).train(&g);
        let next = g.relation_id("next").unwrap();
        let mut pos = 0.0;
        let mut neg = 0.0;
        let mut pairs = 0;
        for i in 0..25 {
            let h = g.entity_id(&format!("a{i}")).unwrap();
            let t = g.entity_id(&format!("a{}", i + 1)).unwrap();
            // Negative: skip two ahead — not an edge.
            let f = g.entity_id(&format!("a{}", i + 3));
            if let Some(f) = f {
                pos += store.triple_distance(h, next, t);
                neg += store.triple_distance(h, next, f);
                pairs += 1;
            }
        }
        assert!(pairs > 0);
        assert!(
            pos / pairs as f64 <= neg / pairs as f64,
            "positives ({pos}) should score no worse than negatives ({neg})"
        );
    }

    #[test]
    fn output_shapes_match_graph() {
        let g = chain_graph(10);
        let cfg = TransEConfig {
            dim: 8,
            epochs: 2,
            ..TransEConfig::default()
        };
        let (store, stats) = TransE::new(cfg).train(&g);
        assert_eq!(store.num_entities(), g.num_entities());
        assert_eq!(store.num_relations(), g.num_relations());
        assert_eq!(store.dim(), 8);
        assert_eq!(stats.epoch_loss.len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = chain_graph(12);
        let (a, _) = TransE::new(TransEConfig::fast()).train(&g);
        let (b, _) = TransE::new(TransEConfig::fast()).train(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn entity_norms_bounded_after_training() {
        // Entities are re-normalized at the start of each epoch and moved
        // at most a few SGD steps after; norms must stay moderate.
        let g = chain_graph(20);
        let (store, _) = TransE::new(TransEConfig::fast()).train(&g);
        for e in 0..store.num_entities() {
            let n = crate::vector::norm(store.entity(EntityId(e as u32)));
            assert!(n < 3.0, "entity {e} norm {n} exploded");
        }
    }

    #[test]
    fn empty_graph_trains_trivially() {
        let g = KnowledgeGraph::new();
        let cfg = TransEConfig {
            dim: 4,
            epochs: 3,
            ..TransEConfig::default()
        };
        let (store, stats) = TransE::new(cfg).train(&g);
        assert_eq!(store.num_entities(), 0);
        assert_eq!(stats.epoch_loss, vec![0.0, 0.0, 0.0]);
    }
}
