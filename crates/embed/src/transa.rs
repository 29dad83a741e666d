//! TransA: locally adaptive translation embedding (Jia et al., AAAI 2016 —
//! the paper's reference \[15\], offered as an alternative algorithm 𝒜).
//!
//! TransA replaces TransE's isotropic distance with an adaptive
//! Mahalanobis-style metric per relation:
//!
//! ```text
//!   d_r(h, t) = |h + r − t|ᵀ W_r |h + r − t|,   W_r ⪰ 0
//! ```
//!
//! We learn a **diagonal** `W_r` (non-negative per-dimension weights)
//! jointly with the vectors by SGD. The original paper derives a full
//! matrix in closed form and projects it to the PSD cone; the diagonal
//! restriction keeps `W_r ⪰ 0` trivially (clamp at zero) while preserving
//! the property the downstream index cares about: per-relation anisotropy
//! of the translation residual. This simplification is recorded in
//! DESIGN.md.

use rand::rngs::StdRng;
use rand::SeedableRng;

use vkg_kg::{EntityId, KnowledgeGraph, RelationId};

use crate::store::EmbeddingStore;
use crate::transe::{corrupt, init_uniform, shuffle, TrainStats};
use crate::vector::normalize;

/// Hyper-parameters for [`TransA::train`].
#[derive(Debug, Clone)]
pub struct TransAConfig {
    /// Embedding dimensionality `d`.
    pub dim: usize,
    /// Number of passes over the training triples.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Ranking margin γ.
    pub margin: f64,
    /// L2 regularization on the adaptive weights.
    pub weight_decay: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransAConfig {
    fn default() -> Self {
        Self {
            dim: 50,
            epochs: 50,
            learning_rate: 0.01,
            margin: 1.0,
            weight_decay: 1e-3,
            seed: 0x7472_616e, // "tran"
        }
    }
}

impl TransAConfig {
    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            dim: 16,
            epochs: 20,
            ..Self::default()
        }
    }
}

/// Output of TransA training: the embedding store plus the learned
/// per-relation diagonal metrics.
#[derive(Debug, Clone)]
pub struct TransAModel {
    /// Entity and relation vectors (compatible with everything downstream).
    pub store: EmbeddingStore,
    /// Row-major `m × d` matrix of diagonal weights, all ≥ 0.
    pub weights: Vec<f64>,
    dim: usize,
}

impl TransAModel {
    /// The diagonal weight vector of relation `r`.
    pub fn relation_weights(&self, r: RelationId) -> &[f64] {
        let i = r.index() * self.dim;
        &self.weights[i..i + self.dim]
    }

    /// Adaptive distance `|h+r−t|ᵀ W_r |h+r−t|`.
    pub fn triple_distance(&self, h: EntityId, r: RelationId, t: EntityId) -> f64 {
        let (hv, rv, tv) = (
            self.store.entity(h),
            self.store.relation(r),
            self.store.entity(t),
        );
        let w = self.relation_weights(r);
        let mut s = 0.0;
        for i in 0..self.dim {
            let x = (hv[i] + rv[i] - tv[i]).abs();
            s += w[i] * x * x;
        }
        s
    }
}

/// The TransA trainer.
#[derive(Debug)]
pub struct TransA {
    cfg: TransAConfig,
}

impl TransA {
    /// Creates a trainer with the given hyper-parameters.
    pub fn new(cfg: TransAConfig) -> Self {
        Self { cfg }
    }

    /// Trains a TransA model on all triples of `graph`.
    pub fn train(&self, graph: &KnowledgeGraph) -> (TransAModel, TrainStats) {
        let n = graph.num_entities();
        let m = graph.num_relations();
        let d = self.cfg.dim;
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        let mut store = EmbeddingStore::zeros(n, m, d);
        init_uniform(&mut store, &mut rng);
        // Adaptive weights start at the identity metric.
        let mut weights = vec![1.0f64; m * d];

        let triples: Vec<_> = graph.triples().to_vec();
        let mut order: Vec<usize> = (0..triples.len()).collect();
        let mut epoch_loss = Vec::with_capacity(self.cfg.epochs);

        for _ in 0..self.cfg.epochs {
            for e in 0..n {
                normalize(store.entity_mut(EntityId(e as u32)));
            }
            shuffle(&mut order, &mut rng);
            let mut total = 0.0;
            for &ti in &order {
                let tr = triples[ti];
                let (nh, nt) = corrupt(graph, tr.head, tr.relation, tr.tail, &mut rng);
                total += self.step(
                    &mut store,
                    &mut weights,
                    tr.head,
                    tr.relation,
                    tr.tail,
                    nh,
                    nt,
                );
            }
            epoch_loss.push(total / triples.len().max(1) as f64);
        }

        (
            TransAModel {
                store,
                weights,
                dim: d,
            },
            TrainStats { epoch_loss },
        )
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "one SGD step: the store, the weights, and the positive and corrupted triple ids"
    )]
    fn step(
        &self,
        store: &mut EmbeddingStore,
        weights: &mut [f64],
        h: EntityId,
        r: RelationId,
        t: EntityId,
        nh: EntityId,
        nt: EntityId,
    ) -> f64 {
        let d = store.dim();
        let wi = r.index() * d;

        let score = |store: &EmbeddingStore, weights: &[f64], h: EntityId, t: EntityId| -> f64 {
            let (hv, rv, tv) = (store.entity(h), store.relation(r), store.entity(t));
            (0..d)
                .map(|i| {
                    let x = hv[i] + rv[i] - tv[i];
                    weights[wi + i] * x * x
                })
                .sum()
        };

        let pos = score(store, weights, h, t);
        let neg = score(store, weights, nh, nt);
        let loss = (self.cfg.margin + pos - neg).max(0.0);
        if loss <= 0.0 {
            return 0.0;
        }
        let lr = self.cfg.learning_rate;

        let mut res_pos = vec![0.0; d];
        {
            let (hv, rv, tv) = (store.entity(h), store.relation(r), store.entity(t));
            for i in 0..d {
                res_pos[i] = hv[i] + rv[i] - tv[i];
            }
        }
        let mut res_neg = vec![0.0; d];
        {
            let (hv, rv, tv) = (store.entity(nh), store.relation(r), store.entity(nt));
            for i in 0..d {
                res_neg[i] = hv[i] + rv[i] - tv[i];
            }
        }

        for i in 0..d {
            let w = weights[wi + i];
            let gp = 2.0 * w * res_pos[i];
            let gn = 2.0 * w * res_neg[i];
            store.entity_mut(h)[i] -= lr * gp;
            store.entity_mut(t)[i] += lr * gp;
            store.entity_mut(nh)[i] += lr * gn;
            store.entity_mut(nt)[i] -= lr * gn;
            store.relation_mut(r)[i] -= lr * (gp - gn);
            // Weight gradient: ∂loss/∂w_i = res_pos² − res_neg², plus decay
            // toward the identity metric; clamp to keep W_r ⪰ 0.
            let gw = res_pos[i] * res_pos[i] - res_neg[i] * res_neg[i]
                + self.cfg.weight_decay * (w - 1.0);
            weights[wi + i] = (w - lr * gw).max(0.0);
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn loss_decreases() {
        let g = chain_graph(30);
        let (_, stats) = TransA::new(TransAConfig::fast()).train(&g);
        assert!(stats.final_loss().unwrap() < stats.epoch_loss[0]);
    }

    #[test]
    fn weights_stay_nonnegative() {
        let g = chain_graph(25);
        let (model, _) = TransA::new(TransAConfig::fast()).train(&g);
        assert!(model.weights.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn adaptive_distance_uses_weights() {
        let g = chain_graph(10);
        let (mut model, _) = TransA::new(TransAConfig::fast()).train(&g);
        let next = g.relation_id("next").unwrap();
        let h = g.entity_id("a0").unwrap();
        let t = g.entity_id("a1").unwrap();
        let before = model.triple_distance(h, next, t);
        // Zeroing all weights must zero the distance.
        for w in model.weights.iter_mut() {
            *w = 0.0;
        }
        assert_eq!(model.triple_distance(h, next, t), 0.0);
        assert!(before >= 0.0);
    }

    #[test]
    fn relation_weight_rows_are_disjoint() {
        let g = chain_graph(10);
        let (model, _) = TransA::new(TransAConfig::fast()).train(&g);
        let next = g.relation_id("next").unwrap();
        let is_a = g.relation_id("is_a").unwrap();
        assert_eq!(model.relation_weights(next).len(), 16);
        assert_eq!(model.relation_weights(is_a).len(), 16);
    }

    #[test]
    fn store_is_downstream_compatible() {
        // TransA's store can be used exactly like a TransE store.
        let g = chain_graph(12);
        let (model, _) = TransA::new(TransAConfig::fast()).train(&g);
        let next = g.relation_id("next").unwrap();
        let h = g.entity_id("a0").unwrap();
        let q = model.store.tail_query_point(h, next);
        assert_eq!(q.len(), 16);
    }
}
