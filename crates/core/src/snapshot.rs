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
//! Components are **structurally shared** between epochs. The graph's
//! triple log and the embedding rows live in [`vkg_kg::ChunkVec`]s —
//! spines of `Arc`'d chunks of [`vkg_kg::CHUNK_LEN`] =
//! 2^[`vkg_kg::CHUNK_BITS`] rows — and each adjacency direction in a
//! [`vkg_kg::ChunkLists`], a spine of `Arc`'d flat blocks, one per
//! `CHUNK_LEN` entities; the interners' tables, the attribute store and
//! the transform each sit behind an `Arc`. Cloning a snapshot copies the
//! spines (one pointer per chunk or block) and nothing else; a fact
//! append to the clone then copies what its rows live in: at most two
//! embedding-row chunks (head and tail), the head's block of outgoing and
//! the tail's block of incoming adjacency, and the log's tail chunk.
//! Every other chunk and block, and the whole attribute store, is the
//! same memory in both epochs. An attribute write copies the attribute
//! store and nothing else.

use std::sync::Arc;

use vkg_embed::EmbeddingStore;
use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph, RelationId};
use vkg_transform::JlTransform;

use crate::config::VkgConfig;
use crate::error::{VkgError, VkgResult};
use crate::geometry::PointSet;

/// Which endpoint of the triple the query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    graph: KnowledgeGraph,
    attributes: Arc<AttributeStore>,
    embeddings: EmbeddingStore,
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
            graph,
            attributes: Arc::new(attributes),
            embeddings,
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
    /// is built over), one row chunk of the store at a time.
    pub fn project_points(&self) -> PointSet {
        let alpha = self.config.alpha;
        let mut projected = Vec::with_capacity(self.embeddings.num_entities() * alpha);
        for chunk in self.embeddings.entity_rows().chunks() {
            projected.extend(self.transform.apply_matrix(chunk));
        }
        PointSet::from_rows(alpha, projected)
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

    // Mutators, used only by the facade's dynamic-update path on its
    // private clone of the published snapshot. The graph and the
    // embedding store copy on write chunk by chunk inside their own
    // mutators; the attribute store is copied whole, and only while the
    // previous epoch still shares it.

    pub(crate) fn graph_mut(&mut self) -> &mut KnowledgeGraph {
        &mut self.graph
    }

    pub(crate) fn attributes_mut(&mut self) -> &mut AttributeStore {
        Arc::make_mut(&mut self.attributes)
    }

    pub(crate) fn embeddings_mut(&mut self) -> &mut EmbeddingStore {
        &mut self.embeddings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::points::row_norm_sq;
    use vkg_kg::CHUNK_LEN;

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
        let unshared = |a: &VkgSnapshot, b: &VkgSnapshot| {
            let rows = a.embeddings.entity_rows();
            let [out, inc, log] = a.graph.unshared_chunks(&b.graph);
            rows.unshared_chunks(b.embeddings.entity_rows()) + out + inc + log
        };
        assert!(Arc::ptr_eq(&snap.attributes, &next.attributes));
        assert!(Arc::ptr_eq(&snap.transform, &next.transform));
        assert_eq!(unshared(&snap, &next), 0);
        // Mutating one component copies it — and only it.
        next.attributes_mut().set("year", EntityId(0), 1999.0);
        assert!(!Arc::ptr_eq(&snap.attributes, &next.attributes));
        assert_eq!(unshared(&snap, &next), 0);
        // The original epoch's view is untouched (the column never
        // existed there).
        assert!(snap.attributes().get("year", EntityId(0)).is_err());
        assert_eq!(
            next.attributes().get("year", EntityId(0)).unwrap(),
            Some(1999.0)
        );
    }

    /// Projecting the chunked rows gives, bit for bit, what projecting
    /// the flat row-major matrix gives.
    #[test]
    fn chunked_projection_matches_the_flat_matrix() {
        let (n, d) = (5 * CHUNK_LEN + 17, 32);
        let mut g = KnowledgeGraph::new();
        g.add_relation("r");
        for i in 0..n {
            g.add_entity(&format!("e{i}"));
        }
        let flat: Vec<f64> = (0..n * d)
            .map(|i| ((i * 37) % 1013) as f64 / 7.0 - 70.0)
            .collect();
        let store = EmbeddingStore::from_raw(d, flat.clone(), vec![0.0; d]);
        let snap = VkgSnapshot::new(g, AttributeStore::new(), store, cfg()).unwrap();
        let want = PointSet::from_rows(2, snap.transform().apply_matrix(&flat));
        let bits = |p: &PointSet| -> Vec<u64> {
            (0..p.len() as u32)
                .flat_map(|id| {
                    p.point(id)
                        .iter()
                        .copied()
                        .chain([row_norm_sq(p.point(id))])
                })
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(bits(&snap.project_points()), bits(&want));
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
