//! The unified query-engine layer.
//!
//! Every structure that can answer the paper's queries — the cracking
//! index, the bulk-loaded R-tree, and the baselines in `vkg-baselines`
//! (linear scan, PH-tree, H2-ALSH) — implements [`QueryEngine`] against
//! an immutable [`VkgSnapshot`], so the facade, the experiment harness
//! and the benches dispatch uniformly over `&mut dyn QueryEngine`.
//!
//! The trait splits reads from writes architecturally: the snapshot is
//! shared and lock-free; only the engine (whose internal index may crack
//! on every query) needs `&mut self` — and [`IndexState`] splits again:
//! `&self` read halves a facade runs under a shared lock, then the crack.

pub mod state;

pub use state::{BallRead, IndexState};

use vkg_kg::{EntityId, RelationId};

use crate::error::{VkgError, VkgResult};
use crate::query::aggregate::{AggregateResult, AggregateSpec};
use crate::query::topk::TopKResult;
use crate::snapshot::{Direction, VkgSnapshot};
use crate::stats::IndexStats;

/// What a parity check may assume about an engine's answers, relative to
/// the exact S₁ ground truth (a linear scan under E′ semantics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accuracy {
    /// Answers are exactly the ground-truth ids, in order.
    Exact,
    /// Answers approximate the ground truth: the nearest entity must
    /// agree and at least `min_overlap` of the top-k sets must coincide
    /// (Theorem 2-style probabilistic guarantees).
    Approximate {
        /// Minimum fraction of the top-k set shared with ground truth.
        min_overlap: f64,
    },
    /// The engine answers a *different* exact problem (e.g. H2-ALSH's
    /// inner-product search); compare against the engine's own
    /// [`QueryEngine::reference_top_k`] oracle instead, requiring at
    /// least `min_recall` of it.
    SelfOracle {
        /// Minimum recall against the engine's own reference oracle.
        min_recall: f64,
    },
}

/// Size and access statistics reported uniformly by every engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Index nodes currently allocated (0 for structureless engines).
    pub nodes: usize,
    /// Approximate index size in bytes (0 for structureless engines).
    pub bytes: usize,
    /// Access counters (zeroed fields where an engine does not count).
    pub counters: IndexStats,
}

/// A query-capable structure over a [`VkgSnapshot`].
///
/// Implementations answer predictive top-k entity queries (Algorithm 3
/// semantics: rank candidate entities by S₁ distance from the query
/// point, excluding the query entity and its known neighbors) and may
/// answer aggregate queries (§V-B). Methods take `&mut self` because
/// answering a query may *reshape* the engine (cracking); pure-read
/// engines simply ignore the mutability.
///
/// ```
/// use vkg_core::engine::{IndexState, QueryEngine};
/// use vkg_core::snapshot::{Direction, VkgSnapshot};
/// use vkg_core::VkgConfig;
/// use vkg_embed::EmbeddingStore;
/// use vkg_kg::{AttributeStore, KnowledgeGraph};
///
/// let mut graph = KnowledgeGraph::new();
/// let likes = graph.add_relation("likes");
/// let a = graph.add_entity("a");
/// let b = graph.add_entity("b");
/// let c = graph.add_entity("c");
/// graph.add_triple(a, likes, b).unwrap();
///
/// let store = EmbeddingStore::from_raw(
///     2,
///     vec![0.0, 0.0, 1.0, 0.0, 1.2, 0.0],
///     vec![1.0, 0.0],
/// );
/// let cfg = VkgConfig { alpha: 2, ..VkgConfig::default() };
/// let snap = VkgSnapshot::new(graph, AttributeStore::new(), store, cfg).unwrap();
///
/// let mut engine = IndexState::cracking(&snap);
/// // (a, likes, ·): b is a known edge, so the top prediction is c.
/// let r = engine.top_k(&snap, a, likes, Direction::Tails, 1).unwrap();
/// assert_eq!(r.predictions[0].id, c.0);
/// ```
pub trait QueryEngine: Send {
    /// Short display name (also used in error messages and CSV output).
    fn name(&self) -> &str;

    /// The accuracy contract this engine's answers satisfy.
    fn accuracy(&self) -> Accuracy {
        Accuracy::Exact
    }

    /// Top-k predicted entities for `(entity, relation)` in `direction`
    /// under E′-only semantics.
    fn top_k(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
    ) -> VkgResult<TopKResult> {
        self.top_k_filtered(snap, entity, relation, direction, k, &|_| true)
    }

    /// Top-k restricted to entities accepted by `filter` (e.g. only
    /// movies). The E′ semantics (skip known edges, skip self) always
    /// apply on top of the filter.
    fn top_k_filtered(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult>;

    /// Answers an aggregate query over the probability ball around the
    /// query center (§V-B). Engines without element summaries refuse.
    fn aggregate(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
    ) -> VkgResult<AggregateResult> {
        let _ = (snap, entity, relation, direction, spec);
        Err(VkgError::Unsupported {
            engine: self.name().to_owned(),
            operation: "aggregate",
        })
    }

    /// The ground-truth top-k ids this engine's answers are judged
    /// against (precision denominators in the evaluation). The default is
    /// the exact S₁ scan under E′ semantics; engines answering a
    /// different problem (e.g. MIPS) override it with their own oracle.
    fn reference_top_k(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
    ) -> VkgResult<Vec<u32>> {
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let known = snap.known_neighbors(entity, relation, direction);
        let embeddings = snap.embeddings();
        let mut scored: Vec<(f64, u32)> = (0..embeddings.num_entities() as u32)
            .filter(|&id| id != entity.0 && known.binary_search(&id).is_err())
            .map(|id| (embeddings.distance_to_entity(&q_s1, EntityId(id)), id))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        Ok(scored.into_iter().map(|(_, id)| id).collect())
    }

    /// Current size and access statistics.
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Resets per-query access counters (no-op for engines that do not
    /// count).
    fn reset_access_counters(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkg_embed::EmbeddingStore;
    use vkg_kg::{AttributeStore, KnowledgeGraph};

    use crate::config::VkgConfig;

    /// A minimal engine relying entirely on trait defaults.
    struct Defaults;

    impl QueryEngine for Defaults {
        fn name(&self) -> &str {
            "defaults"
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
            let _ = (snap, entity, relation, direction, k, filter);
            Err(VkgError::Unsupported {
                engine: "defaults".into(),
                operation: "top_k_filtered",
            })
        }
    }

    fn snap() -> VkgSnapshot {
        let mut g = KnowledgeGraph::new();
        let r = g.add_relation("likes");
        let a = g.add_entity("a");
        let b = g.add_entity("b");
        let _c = g.add_entity("c");
        g.add_triple(a, r, b).unwrap();
        let store = EmbeddingStore::from_raw(2, vec![0.0, 0.0, 1.0, 0.0, 1.2, 0.0], vec![1.0, 0.0]);
        let cfg = VkgConfig {
            alpha: 2,
            ..VkgConfig::default()
        };
        VkgSnapshot::new(g, AttributeStore::new(), store, cfg).unwrap()
    }

    #[test]
    fn default_aggregate_is_unsupported() {
        let s = snap();
        let mut e = Defaults;
        let err = e
            .aggregate(
                &s,
                EntityId(0),
                RelationId(0),
                Direction::Tails,
                &AggregateSpec::count(0.1),
            )
            .unwrap_err();
        assert!(matches!(err, VkgError::Unsupported { .. }));
    }

    #[test]
    fn default_reference_is_s1_scan_with_eprime_skip() {
        let s = snap();
        let e = Defaults;
        // (a, likes, ·) = (1, 0): b sits exactly there but is a known
        // edge, so the reference is c then... only c (a excluded too).
        let ids = e
            .reference_top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 5)
            .unwrap();
        assert_eq!(ids, vec![2]);
    }

    #[test]
    fn engines_are_object_safe() {
        let mut e = Defaults;
        let obj: &mut dyn QueryEngine = &mut e;
        assert_eq!(obj.name(), "defaults");
        assert_eq!(obj.accuracy(), Accuracy::Exact);
        assert_eq!(obj.stats(), EngineStats::default());
    }
}
