//! The embedding store: dense entity/relation matrices in space S₁.
//!
//! This is the artifact the index layer consumes. It does not care *how*
//! the vectors were produced — our own TransE/TransA trainers, or an
//! external tool via [`crate::io`] — only that entity `e`'s vector lives
//! at row `e` and relation `r`'s at row `r`. Rows are kept in
//! [`ChunkVec`]s: a clone shares every chunk of [`vkg_kg::CHUNK_LEN`]
//! rows, and moving one vector in a clone copies that vector's chunk.

use vkg_kg::{ChunkVec, EntityId, RelationId};

use crate::vector::{add, l2_distance, sub};

/// Dense `d`-dimensional embeddings for all entities and relation types.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingStore {
    dim: usize,
    entities: ChunkVec<f64>,
    relations: ChunkVec<f64>,
}

impl EmbeddingStore {
    /// Creates a zero-initialized store for `n` entities and `m` relations
    /// of dimensionality `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn zeros(n: usize, m: usize, dim: usize) -> Self {
        Self::from_raw(dim, vec![0.0; n * dim], vec![0.0; m * dim])
    }

    /// Builds a store from raw row-major matrices.
    ///
    /// # Panics
    /// Panics if either matrix length is not a multiple of `dim`.
    pub fn from_raw(dim: usize, entities: Vec<f64>, relations: Vec<f64>) -> Self {
        assert!(dim > 0, "embedding dimensionality must be positive");
        assert_eq!(entities.len() % dim, 0, "entity matrix shape mismatch");
        assert_eq!(relations.len() % dim, 0, "relation matrix shape mismatch");
        Self {
            dim,
            entities: ChunkVec::from_flat(dim, &entities),
            relations: ChunkVec::from_flat(dim, &relations),
        }
    }

    /// Embedding dimensionality `d` (the paper's S₁ has d in 50–100).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of entity rows.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relation rows.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Entity `e`'s vector.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    #[inline]
    pub fn entity(&self, e: EntityId) -> &[f64] {
        self.entities.row(e.index())
    }

    /// Mutable entity vector (copies the row's chunk if a clone shares it).
    #[inline]
    pub fn entity_mut(&mut self, e: EntityId) -> &mut [f64] {
        self.entities.row_mut(e.index())
    }

    /// Relation `r`'s vector.
    #[inline]
    pub fn relation(&self, r: RelationId) -> &[f64] {
        self.relations.row(r.index())
    }

    /// Mutable relation vector.
    #[inline]
    pub fn relation_mut(&mut self, r: RelationId) -> &mut [f64] {
        self.relations.row_mut(r.index())
    }

    /// The tail-query point `h + r`: tails `t` of plausible `(h, r, t)`
    /// triples cluster around this point (paper §I).
    pub fn tail_query_point(&self, h: EntityId, r: RelationId) -> Vec<f64> {
        add(self.entity(h), self.relation(r))
    }

    /// The head-query point `t − r`: heads `h` of plausible `(h, r, t)`
    /// triples cluster around this point.
    pub fn head_query_point(&self, t: EntityId, r: RelationId) -> Vec<f64> {
        sub(self.entity(t), self.relation(r))
    }

    /// TransE plausibility score of a triple: `‖h + r − t‖₂` (lower is
    /// more plausible).
    pub fn triple_distance(&self, h: EntityId, r: RelationId, t: EntityId) -> f64 {
        let q = self.tail_query_point(h, r);
        l2_distance(&q, self.entity(t))
    }

    /// Distance from an arbitrary S₁ point to entity `e`'s vector.
    #[inline]
    pub fn distance_to_entity(&self, point: &[f64], e: EntityId) -> f64 {
        l2_distance(point, self.entity(e))
    }

    /// [`EmbeddingStore::distance_to_entity`] from `point` to every entity
    /// of `ids`, into the same slot of `out`, bit for bit: four rows at a
    /// time, each still summed left to right, so four independent add
    /// chains overlap instead of running one after another.
    ///
    /// The rows of a run sit at random places in memory. Before summing,
    /// one value from each cache line of every row is read: those loads
    /// depend on nothing, so the whole run's misses are in flight at
    /// once, and the sums then read cached rows instead of waiting on
    /// four at a time.
    ///
    /// # Panics
    /// Panics if an id is out of range, or in debug builds if `ids` and
    /// `out` differ in length.
    pub fn distances_to_entities(&self, point: &[f64], ids: &[u32], out: &mut [f64]) {
        debug_assert_eq!(ids.len(), out.len());
        debug_assert_eq!(point.len(), self.dim);
        // Eight f64 to a 64-byte line; the last value covers the line a
        // row that does not start on a boundary spills into.
        let mut touched = 0.0f64;
        for &id in ids {
            let row = self.entities.row(id as usize);
            touched += row.iter().step_by(8).chain(row.last()).sum::<f64>();
        }
        std::hint::black_box(touched);
        let (mut quads, mut outs) = (ids.chunks_exact(4), out.chunks_exact_mut(4));
        for (quad, dists) in (&mut quads).zip(&mut outs) {
            let [a, b, c, d] = [0, 1, 2, 3].map(|i| self.entities.row(quad[i] as usize));
            let mut sums = [0.0f64; 4];
            for ((((&p, &xa), &xb), &xc), &xd) in point.iter().zip(a).zip(b).zip(c).zip(d) {
                for (s, x) in sums.iter_mut().zip([xa, xb, xc, xd]) {
                    let t = p - x;
                    *s += t * t;
                }
            }
            for (o, s) in dists.iter_mut().zip(sums) {
                *o = s.sqrt();
            }
        }
        for (&id, o) in quads.remainder().iter().zip(outs.into_remainder()) {
            *o = l2_distance(point, self.entities.row(id as usize));
        }
    }

    /// Appends an entity row, returning its id (dynamic graph updates).
    ///
    /// # Panics
    /// Panics if the row's dimensionality does not match the store's.
    pub fn push_entity(&mut self, row: &[f64]) -> EntityId {
        assert_eq!(row.len(), self.dim, "entity row dimensionality mismatch");
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics contract; 2^32 rows would exhaust memory first"
        )]
        let id = u32::try_from(self.num_entities()).expect("entity id overflow");
        self.entities.push_row(row);
        EntityId(id)
    }

    /// The entity rows (chunk-wise for the transform layer and I/O).
    pub fn entity_rows(&self) -> &ChunkVec<f64> {
        &self.entities
    }

    /// The relation rows.
    pub fn relation_rows(&self) -> &ChunkVec<f64> {
        &self.relations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        // 3 entities, 2 relations, dim 2.
        EmbeddingStore::from_raw(
            2,
            vec![0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 1.0],
        )
    }

    #[test]
    fn shape_accessors() {
        let s = store();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.num_entities(), 3);
        assert_eq!(s.num_relations(), 2);
    }

    #[test]
    fn row_access() {
        let s = store();
        assert_eq!(s.entity(EntityId(1)), &[1.0, 0.0]);
        assert_eq!(s.relation(RelationId(1)), &[0.0, 1.0]);
    }

    #[test]
    fn query_points() {
        let s = store();
        // h=e0 (0,0) + r0 (1,0) = (1,0) → exactly e1.
        assert_eq!(
            s.tail_query_point(EntityId(0), RelationId(0)),
            vec![1.0, 0.0]
        );
        // t=e2 (1,1) − r1 (0,1) = (1,0) → exactly e1.
        assert_eq!(
            s.head_query_point(EntityId(2), RelationId(1)),
            vec![1.0, 0.0]
        );
    }

    #[test]
    fn triple_distance_zero_for_exact_translation() {
        let s = store();
        assert_eq!(
            s.triple_distance(EntityId(0), RelationId(0), EntityId(1)),
            0.0
        );
        let d = s.triple_distance(EntityId(0), RelationId(0), EntityId(2));
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mutation_visible_through_reads() {
        let mut s = store();
        s.entity_mut(EntityId(0))[0] = 9.0;
        assert_eq!(s.entity(EntityId(0)), &[9.0, 0.0]);
        s.relation_mut(RelationId(0))[1] = -1.0;
        assert_eq!(s.relation(RelationId(0)), &[1.0, -1.0]);
    }

    #[test]
    fn zeros_constructor() {
        let s = EmbeddingStore::zeros(4, 2, 3);
        assert_eq!(s.num_entities(), 4);
        assert_eq!(s.num_relations(), 2);
        assert!(s.entity(EntityId(3)).iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        let _ = EmbeddingStore::from_raw(3, vec![1.0; 7], vec![]);
    }
}
