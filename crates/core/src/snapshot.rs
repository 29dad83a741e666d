//! The immutable read side of a virtual knowledge graph.
//!
//! A [`VkgSnapshot`] bundles everything a query needs to *read* —
//! the materialized graph `G = (V, E)`, its attributes, the embedding
//! store (the algorithm 𝒜 inducing the predicted edges `E'`), the JL
//! transform S₁ → S₂ and the configuration — with **no** interior
//! mutability. It is cheap to share behind an `Arc`, so any number of
//! reader threads can resolve entities, embeddings and query points
//! concurrently while a single writer cracks the index (which lives in
//! [`crate::engine::IndexState`], behind its own lock).
//!
//! Components are **structurally shared**: each store sits behind its
//! own `Arc`, so cloning a snapshot is a handful of reference-count
//! bumps, and the copy-on-write mutators ([`Arc::make_mut`]) copy only
//! the component a dynamic update actually touches. A fact append
//! clones the graph and embeddings but shares the attribute store with
//! every earlier epoch; an attribute write clones nothing else.

use std::sync::Arc;

use vkg_embed::EmbeddingStore;
use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph, RelationId};
use vkg_sync::pool::Pool;
use vkg_transform::JlTransform;

use crate::config::VkgConfig;
use crate::error::{VkgError, VkgResult};
use crate::geometry::PointSet;

/// Which endpoint of the triple the query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Given a head entity `h`, find tails `t` of likely `(h, r, t)` —
    /// query center `h + r`.
    Tails,
    /// Given a tail entity `t`, find heads `h` of likely `(h, r, t)` —
    /// query center `t − r`.
    Heads,
}

/// An immutable, `Arc`-shareable view of the virtual knowledge graph:
/// interned graph + attributes + embeddings + JL transform + config.
///
/// Every accessor takes `&self`; nothing here ever mutates, so reads are
/// lock-free even while an engine cracks its index. Dynamic updates go
/// through the [`crate::vkg::VirtualKnowledgeGraph`] facade, which
/// copy-on-writes the snapshot.
///
/// ```
/// use vkg_core::snapshot::{Direction, VkgSnapshot};
/// use vkg_core::VkgConfig;
/// use vkg_embed::EmbeddingStore;
/// use vkg_kg::{AttributeStore, KnowledgeGraph};
///
/// let mut graph = KnowledgeGraph::new();
/// let likes = graph.add_relation("likes");
/// let a = graph.add_entity("a");
/// let b = graph.add_entity("b");
/// graph.add_triple(a, likes, b).unwrap();
///
/// // Two 2-d entity embeddings and one relation embedding.
/// let store = EmbeddingStore::from_raw(2, vec![0.0, 0.0, 1.0, 0.0], vec![1.0, 0.0]);
/// let cfg = VkgConfig { alpha: 2, ..VkgConfig::default() };
/// let snap = VkgSnapshot::new(graph, AttributeStore::new(), store, cfg).unwrap();
///
/// // The tail query point for (a, likes, ·) is a + likes = (1, 0).
/// let q = snap.query_point_s1(a, likes, Direction::Tails).unwrap();
/// assert_eq!(q, vec![1.0, 0.0]);
/// // b is a known tail of (a, likes) — E′ semantics will exclude it.
/// assert!(snap.known_neighbors(a, likes, Direction::Tails).contains(&b.0));
/// ```
#[derive(Debug, Clone)]
pub struct VkgSnapshot {
    graph: Arc<KnowledgeGraph>,
    attributes: Arc<AttributeStore>,
    embeddings: Arc<EmbeddingStore>,
    transform: Arc<JlTransform>,
    config: VkgConfig,
}

impl VkgSnapshot {
    /// Validates the configuration and component sizes, derives the JL
    /// transform, and freezes everything into a snapshot.
    pub fn new(
        graph: KnowledgeGraph,
        attributes: AttributeStore,
        embeddings: EmbeddingStore,
        config: VkgConfig,
    ) -> VkgResult<Self> {
        config.try_validate()?;
        if embeddings.num_entities() != graph.num_entities() {
            return Err(VkgError::Mismatch {
                what: "entity count",
                expected: graph.num_entities(),
                found: embeddings.num_entities(),
            });
        }
        if embeddings.num_relations() != graph.num_relations() {
            return Err(VkgError::Mismatch {
                what: "relation count",
                expected: graph.num_relations(),
                found: embeddings.num_relations(),
            });
        }
        let transform = JlTransform::new(embeddings.dim(), config.alpha, config.transform_seed);
        Ok(Self {
            graph: Arc::new(graph),
            attributes: Arc::new(attributes),
            embeddings: Arc::new(embeddings),
            transform: Arc::new(transform),
            config,
        })
    }

    /// The materialized knowledge graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// The attribute store.
    pub fn attributes(&self) -> &AttributeStore {
        &self.attributes
    }

    /// The embedding store (space S₁).
    pub fn embeddings(&self) -> &EmbeddingStore {
        &self.embeddings
    }

    /// The S₁ → S₂ Johnson–Lindenstrauss transform.
    pub fn transform(&self) -> &JlTransform {
        &self.transform
    }

    /// The configuration in effect.
    pub fn config(&self) -> &VkgConfig {
        &self.config
    }

    /// Projects every entity embedding into S₂ (the point set an index
    /// is built over).
    pub fn project_points(&self) -> PointSet {
        self.project_points_pooled(&Pool::serial())
    }

    /// [`VkgSnapshot::project_points`] over a thread pool: the n × d
    /// entity matrix is chunked row-wise across the pool's workers.
    /// Bit-identical at every width (each row's matvec is untouched).
    pub fn project_points_pooled(&self, pool: &Pool) -> PointSet {
        let projected = self
            .transform
            .apply_matrix_pooled(pool, self.embeddings.entity_matrix());
        PointSet::from_rows(self.config.alpha, projected)
    }

    /// Projects one S₁ vector into S₂.
    pub fn project(&self, s1: &[f64]) -> Vec<f64> {
        self.transform.apply(s1)
    }

    /// Checks that `entity` and `relation` exist.
    pub fn check_ids(&self, entity: EntityId, relation: RelationId) -> VkgResult<()> {
        if entity.index() >= self.graph.num_entities() {
            return Err(VkgError::UnknownEntity(entity.0));
        }
        if relation.index() >= self.graph.num_relations() {
            return Err(VkgError::UnknownRelation(relation.0));
        }
        Ok(())
    }

    /// The query center in S₁ for an entity/relation/direction
    /// (`h + r` for tails, `t − r` for heads).
    pub fn query_point_s1(
        &self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
    ) -> VkgResult<Vec<f64>> {
        self.check_ids(entity, relation)?;
        Ok(match direction {
            Direction::Tails => self.embeddings.tail_query_point(entity, relation),
            Direction::Heads => self.embeddings.head_query_point(entity, relation),
        })
    }

    /// The entity's known neighbors under `relation` in `direction` —
    /// the edges already in `E`, which the paper's E′-only semantics
    /// exclude from every answer. Sorted ascending (the graph stores
    /// each edge once), so the per-candidate skip test is a
    /// `binary_search` rather than a hash of every candidate id.
    pub fn known_neighbors(
        &self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
    ) -> Vec<u32> {
        let mut known: Vec<u32> = match direction {
            Direction::Tails => self.graph.tails(entity, relation).map(|e| e.0).collect(),
            Direction::Heads => self.graph.heads(entity, relation).map(|e| e.0).collect(),
        };
        known.sort_unstable();
        known
    }

    // Copy-on-write mutators, used only by the facade's dynamic-update
    // path. Each one copies just its own component (and only while the
    // previous epoch still shares it); the others stay shared across
    // epochs, so a write's cost is proportional to what it touches.

    pub(crate) fn graph_mut(&mut self) -> &mut KnowledgeGraph {
        Arc::make_mut(&mut self.graph)
    }

    pub(crate) fn attributes_mut(&mut self) -> &mut AttributeStore {
        Arc::make_mut(&mut self.attributes)
    }

    pub(crate) fn embeddings_mut(&mut self) -> &mut EmbeddingStore {
        Arc::make_mut(&mut self.embeddings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (KnowledgeGraph, EmbeddingStore) {
        let mut g = KnowledgeGraph::new();
        let r = g.add_relation("r");
        let a = g.add_entity("a");
        let b = g.add_entity("b");
        g.add_triple(a, r, b).unwrap();
        let store = EmbeddingStore::from_raw(2, vec![0.0, 0.0, 1.0, 0.0], vec![1.0, 0.0]);
        (g, store)
    }

    fn cfg() -> VkgConfig {
        VkgConfig {
            alpha: 2,
            ..VkgConfig::default()
        }
    }

    #[test]
    fn snapshot_validates_entity_count() {
        let (g, _) = tiny();
        let store = EmbeddingStore::from_raw(2, vec![0.0, 0.0], vec![1.0, 0.0]);
        let err = VkgSnapshot::new(g, AttributeStore::new(), store, cfg()).unwrap_err();
        assert!(matches!(
            err,
            VkgError::Mismatch {
                what: "entity count",
                ..
            }
        ));
    }

    #[test]
    fn snapshot_validates_config() {
        let (g, store) = tiny();
        let bad = VkgConfig {
            alpha: 2,
            beta: 0.0,
            ..VkgConfig::default()
        };
        assert!(matches!(
            VkgSnapshot::new(g, AttributeStore::new(), store, bad),
            Err(VkgError::InvalidParameter(_))
        ));
    }

    #[test]
    fn unknown_ids_rejected() {
        let (g, store) = tiny();
        let snap = VkgSnapshot::new(g, AttributeStore::new(), store, cfg()).unwrap();
        assert_eq!(
            snap.check_ids(EntityId(99), RelationId(0)),
            Err(VkgError::UnknownEntity(99))
        );
        assert_eq!(
            snap.check_ids(EntityId(0), RelationId(9)),
            Err(VkgError::UnknownRelation(9))
        );
    }

    #[test]
    fn clone_shares_components_until_mutated() {
        let (g, store) = tiny();
        let snap = VkgSnapshot::new(g, AttributeStore::new(), store, cfg()).unwrap();
        let mut next = snap.clone();
        assert!(Arc::ptr_eq(&snap.graph, &next.graph));
        assert!(Arc::ptr_eq(&snap.attributes, &next.attributes));
        assert!(Arc::ptr_eq(&snap.embeddings, &next.embeddings));
        assert!(Arc::ptr_eq(&snap.transform, &next.transform));
        // Mutating one component copies it — and only it.
        next.attributes_mut().set("year", EntityId(0), 1999.0);
        assert!(!Arc::ptr_eq(&snap.attributes, &next.attributes));
        assert!(Arc::ptr_eq(&snap.graph, &next.graph));
        assert!(Arc::ptr_eq(&snap.embeddings, &next.embeddings));
        // The original epoch's view is untouched (the column never
        // existed there).
        assert!(snap.attributes().get("year", EntityId(0)).is_err());
        assert_eq!(
            next.attributes().get("year", EntityId(0)).unwrap(),
            Some(1999.0)
        );
    }

    #[test]
    fn projection_dimensions() {
        let (g, store) = tiny();
        let snap = VkgSnapshot::new(g, AttributeStore::new(), store, cfg()).unwrap();
        let pts = snap.project_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts.dim(), 2);
        assert_eq!(snap.project(&[1.0, 2.0]).len(), 2);
    }
}
