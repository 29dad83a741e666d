//! [`QueryEngine`] adapters for the baselines, so the experiment harness
//! and parity tests dispatch over `&mut dyn QueryEngine` uniformly with
//! the cracking index.
//!
//! * [`LinearScanEngine`] — the no-index baseline; exact by definition.
//! * [`PhTreeEngine`] — the PH-tree over the raw S₁ embeddings; exact
//!   kNN up to distance ties.
//! * [`H2AlshEngine`] — H2-ALSH maximum-inner-product search over a
//!   single-relation item corpus; judged against its own exact-MIPS
//!   oracle ([`Accuracy::SelfOracle`]).

use vkg_core::engine::{Accuracy, EngineStats, QueryEngine};
use vkg_core::error::{VkgError, VkgResult};
use vkg_core::query::guarantees::topk_guarantee;
use vkg_core::query::probability::inverse_distance_probabilities;
use vkg_core::query::topk::{Prediction, TopKResult};
use vkg_core::snapshot::{Direction, VkgSnapshot};
use vkg_kg::{EntityId, RelationId};

use crate::h2alsh::{H2Alsh, H2AlshConfig};
use crate::linear_scan::{exact_mips_top_k, LinearScan};
use crate::phtree::PhTree;

/// Assembles a [`TopKResult`] from exact `(id, distance)` pairs.
fn result_from_pairs(pairs: Vec<(u32, f64)>, epsilon: f64, alpha: usize, evals: u64) -> TopKResult {
    let distances: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let probabilities = inverse_distance_probabilities(&distances);
    let guarantee = topk_guarantee(&distances, epsilon, alpha);
    let predictions = pairs
        .into_iter()
        .zip(probabilities)
        .map(|((id, distance), probability)| Prediction {
            id,
            distance,
            probability,
        })
        .collect();
    TopKResult {
        predictions,
        guarantee,
        s1_evals: evals,
        candidates_examined: evals,
    }
}

/// The E′-only skip predicate shared by the S₁-space baselines.
fn eprime_skip<'a>(
    snap: &'a VkgSnapshot,
    entity: EntityId,
    relation: RelationId,
    direction: Direction,
    filter: &'a dyn Fn(EntityId) -> bool,
) -> impl FnMut(u32) -> bool + 'a {
    let known = snap.known_neighbors(entity, relation, direction);
    move |id: u32| id == entity.0 || known.binary_search(&id).is_ok() || !filter(EntityId(id))
}

/// The **no-index** baseline (§VI-B): exact brute-force top-k by
/// iterating over every entity in S₁.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinearScanEngine;

impl LinearScanEngine {
    /// Creates the (stateless) scan engine.
    pub fn new() -> Self {
        Self
    }
}

impl QueryEngine for LinearScanEngine {
    fn name(&self) -> &str {
        "no index"
    }

    fn top_k_filtered(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        if k == 0 {
            return Err(VkgError::InvalidParameter("top-k requires k ≥ 1".into()));
        }
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let scan = LinearScan::new(snap.embeddings());
        let skip = eprime_skip(snap, entity, relation, direction, filter);
        let pairs = scan.top_k_near(&q_s1, k, skip);
        let cfg = snap.config();
        Ok(result_from_pairs(
            pairs,
            cfg.epsilon,
            cfg.alpha,
            snap.embeddings().num_entities() as u64,
        ))
    }
}

/// The **PH-tree** baseline: bit-interleaved hypercube tree over the raw
/// S₁ embeddings (no S₂ transform), with exact best-first kNN.
#[derive(Debug)]
pub struct PhTreeEngine {
    tree: PhTree,
}

impl PhTreeEngine {
    /// Builds the PH-tree over the snapshot's entity embeddings.
    pub fn build(snap: &VkgSnapshot) -> Self {
        let embeddings = snap.embeddings();
        Self {
            tree: PhTree::build(embeddings.entity_rows().to_vec(), embeddings.dim()),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &PhTree {
        &self.tree
    }
}

impl QueryEngine for PhTreeEngine {
    fn name(&self) -> &str {
        "PH-tree"
    }

    fn accuracy(&self) -> Accuracy {
        // Exact kNN, but distance ties may order differently than the
        // scan's id-based tie-breaking.
        Accuracy::Approximate { min_overlap: 0.8 }
    }

    fn top_k_filtered(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        if k == 0 {
            return Err(VkgError::InvalidParameter("top-k requires k ≥ 1".into()));
        }
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        if q_s1.len() != self.tree.dim() {
            return Err(VkgError::Mismatch {
                what: "query dimensionality",
                expected: self.tree.dim(),
                found: q_s1.len(),
            });
        }
        let skip = eprime_skip(snap, entity, relation, direction, filter);
        let pairs = self.tree.top_k(&q_s1, k, skip);
        let cfg = snap.config();
        let evals = pairs.len() as u64;
        Ok(result_from_pairs(pairs, cfg.epsilon, cfg.alpha, evals))
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            nodes: self.tree.node_count(),
            bytes: 0,
            counters: Default::default(),
        }
    }
}

/// The **H2-ALSH** baseline: maximum-inner-product search over a
/// single-relation item corpus (§VI: "H2-ALSH supports collaborative
/// filtering style recommendations, i.e., one relationship type").
///
/// The engine answers a *different* problem than the distance-ranked
/// Algorithm 3 — it maximizes `x · q` over the item subset, ignoring the
/// relation translation and the E′ skip — so parity checks compare it
/// against its own exact-MIPS oracle ([`QueryEngine::reference_top_k`]).
#[derive(Debug)]
pub struct H2AlshEngine {
    index: H2Alsh,
    /// Global entity ids of the item corpus, in index-local order.
    ids: Vec<u32>,
    /// Row-major item matrix (exact-MIPS reference oracle).
    data: Vec<f64>,
    dim: usize,
}

impl H2AlshEngine {
    /// Builds the index over the embeddings of `items` (global entity
    /// ids, e.g. every entity named `movie_*`).
    ///
    /// # Errors
    /// [`VkgError::UnknownEntity`] if an item id is out of range;
    /// [`VkgError::InvalidParameter`] if `items` is empty.
    pub fn build(snap: &VkgSnapshot, items: Vec<u32>, cfg: H2AlshConfig) -> VkgResult<Self> {
        if items.is_empty() {
            return Err(VkgError::InvalidParameter(
                "H2-ALSH needs a non-empty item corpus".into(),
            ));
        }
        let embeddings = snap.embeddings();
        let dim = embeddings.dim();
        let mut data = Vec::with_capacity(items.len() * dim);
        for &id in &items {
            if id as usize >= embeddings.num_entities() {
                return Err(VkgError::UnknownEntity(id));
            }
            data.extend_from_slice(embeddings.entity(EntityId(id)));
        }
        Ok(Self {
            index: H2Alsh::build(data.clone(), dim, cfg),
            ids: items,
            data,
            dim,
        })
    }

    /// The underlying H2-ALSH index.
    pub fn index(&self) -> &H2Alsh {
        &self.index
    }

    fn mips_result(&self, q: &[f64], k: usize) -> TopKResult {
        let hits = self.index.top_k_mips(q, k, |_| false);
        let predictions = hits
            .into_iter()
            .enumerate()
            .map(|(rank, (local, ip))| Prediction {
                id: self.ids[local as usize],
                // MIPS maximizes the inner product; negating it keeps the
                // "ascending = better first" ordering of `predictions`.
                distance: -ip,
                probability: 1.0 / (rank as f64 + 1.0),
            })
            .collect();
        TopKResult {
            predictions,
            guarantee: topk_guarantee(&[], 1.0, 1),
            s1_evals: 0,
            candidates_examined: self.ids.len() as u64,
        }
    }
}

impl QueryEngine for H2AlshEngine {
    fn name(&self) -> &str {
        "H2-ALSH"
    }

    fn accuracy(&self) -> Accuracy {
        Accuracy::SelfOracle { min_recall: 0.8 }
    }

    /// MIPS with the query entity's embedding (collaborative-filtering
    /// semantics: `relation`/`direction` identify the workload but do not
    /// translate the query; `filter` restricts the item corpus).
    fn top_k_filtered(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        _direction: Direction,
        k: usize,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        snap.check_ids(entity, relation)?;
        if k == 0 {
            return Err(VkgError::InvalidParameter("top-k requires k ≥ 1".into()));
        }
        let q = snap.embeddings().entity(entity);
        let mut result = self.mips_result(q, k);
        result.predictions.retain(|p| filter(EntityId(p.id)));
        Ok(result)
    }

    /// The exact-MIPS oracle over the same item corpus.
    fn reference_top_k(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        _direction: Direction,
        k: usize,
    ) -> VkgResult<Vec<u32>> {
        snap.check_ids(entity, relation)?;
        let q = snap.embeddings().entity(entity);
        Ok(exact_mips_top_k(&self.data, self.dim, q, k)
            .into_iter()
            .map(|(local, _)| self.ids[local as usize])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkg_core::VkgConfig;
    use vkg_embed::EmbeddingStore;
    use vkg_kg::{AttributeStore, KnowledgeGraph};

    fn snap() -> VkgSnapshot {
        let mut g = KnowledgeGraph::new();
        let likes = g.add_relation("likes");
        let u = g.add_entity("u0");
        let items: Vec<_> = (0..5).map(|i| g.add_entity(&format!("m{i}"))).collect();
        g.add_triple(u, likes, items[0]).unwrap();
        // u near the origin (nonzero so MIPS has a signal); items on a
        // line at x = 1..5; likes translates +1.
        let mut ent = vec![0.0; 6 * 2];
        ent[0] = 0.1;
        ent[1] = 0.05;
        for (i, _) in items.iter().enumerate() {
            ent[(1 + i) * 2] = 1.0 + i as f64;
        }
        let store = EmbeddingStore::from_raw(2, ent, vec![1.0, 0.0]);
        let cfg = VkgConfig {
            alpha: 2,
            ..VkgConfig::default()
        };
        VkgSnapshot::new(g, AttributeStore::new(), store, cfg).unwrap()
    }

    #[test]
    fn scan_engine_is_exact_with_eprime_skip() {
        let s = snap();
        let mut e = LinearScanEngine::new();
        // (u0, likes, ·) = (1, 0): m0 sits there but is a known edge.
        let r = e
            .top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 2)
            .unwrap();
        let ids: Vec<u32> = r.predictions.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![2, 3]);
        assert!(matches!(e.accuracy(), Accuracy::Exact));
    }

    #[test]
    fn phtree_engine_matches_scan() {
        let s = snap();
        let mut scan = LinearScanEngine::new();
        let mut ph = PhTreeEngine::build(&s);
        let a = scan
            .top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 3)
            .unwrap();
        let b = ph
            .top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 3)
            .unwrap();
        assert_eq!(
            a.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            b.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn h2alsh_engine_recalls_its_own_oracle() {
        let s = snap();
        let items: Vec<u32> = (1..=5).collect();
        let mut e = H2AlshEngine::build(&s, items, H2AlshConfig::default()).unwrap();
        let got = e
            .top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 3)
            .unwrap();
        let want = e
            .reference_top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 3)
            .unwrap();
        let got_ids: std::collections::HashSet<u32> =
            got.predictions.iter().map(|p| p.id).collect();
        let hits = want.iter().filter(|id| got_ids.contains(id)).count();
        assert!(hits >= 2, "recall {hits}/3 against exact MIPS");
    }

    #[test]
    fn h2alsh_rejects_empty_corpus() {
        let s = snap();
        assert!(matches!(
            H2AlshEngine::build(&s, vec![], H2AlshConfig::default()),
            Err(VkgError::InvalidParameter(_))
        ));
    }
}
