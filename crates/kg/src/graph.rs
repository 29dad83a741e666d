//! The knowledge-graph triple store.
//!
//! A knowledge graph `G = (V, E)` is a directed graph whose edges are
//! `(head, relation, tail)` triples (paper §II). This module stores the
//! *materialized* edge set `E`; the predicted edges `E'` of the virtual
//! knowledge graph are never materialized — they are derived on demand by
//! the index and query layers.
//!
//! The store maintains per-entity adjacency lists (needed to *skip* known
//! edges when answering queries over `E'`, per the paper's default
//! semantics), which also answer `has_edge`. Each direction is a
//! [`ChunkLists`]: one flat block per [`CHUNK_LEN`](crate::CHUNK_LEN)
//! entities holding their lists back to back, each list in insertion
//! order. The triple log is a [`ChunkVec`] and the interners share their
//! tables, so a clone shares everything and adding a fact to a clone
//! copies one block of each adjacency direction and the log's tail chunk.
//!
//! Facts go in one at a time ([`KnowledgeGraph::add_triple`], which a
//! served write and log replay use) or in bulk
//! ([`KnowledgeGraph::extend_triples`], which the generators and the TSV
//! reader use): the bulk path appends to the log and then rebuilds both
//! directions from it in one counting pass, exact-size.

use std::collections::HashSet;

use crate::chunked::{ChunkLists, ChunkVec};
use crate::error::{KgError, Result};
use crate::ids::{EntityId, Interner, RelationId};
use crate::stats::GraphStats;

/// A single `(head, relation, tail)` fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Triple {
    /// Head (subject) entity.
    pub head: EntityId,
    /// Relationship type.
    pub relation: RelationId,
    /// Tail (object) entity.
    pub tail: EntityId,
}

/// A directed, labelled multigraph of `(h, r, t)` triples.
///
/// Entities and relations are interned; all APIs work on dense ids.
#[derive(Debug, Default, Clone)]
pub struct KnowledgeGraph {
    entities: Interner,
    relations: Interner,
    triples: ChunkVec<Triple>,
    out: ChunkLists<(RelationId, EntityId)>,
    inc: ChunkLists<(RelationId, EntityId)>,
}

impl KnowledgeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or looks up) an entity by name.
    pub fn add_entity(&mut self, name: &str) -> EntityId {
        let id = self.entities.intern(name);
        while self.out.len() <= id as usize {
            self.out.push_list();
            self.inc.push_list();
        }
        EntityId(id)
    }

    /// Interns (or looks up) a relationship type by name.
    pub fn add_relation(&mut self, name: &str) -> RelationId {
        RelationId(self.relations.intern(name))
    }

    /// Adds the fact `(h, r, t)` to `E`. Duplicate facts are ignored.
    ///
    /// Returns `true` if the edge was new.
    pub fn add_triple(&mut self, h: EntityId, r: RelationId, t: EntityId) -> Result<bool> {
        self.check_entity(h)?;
        self.check_entity(t)?;
        self.check_relation(r)?;
        if self.has_edge(h, r, t) {
            return Ok(false);
        }
        if !self.out.push_to(h.index(), (r, t)) {
            return Err(KgError::UnknownEntity(h.0));
        }
        if !self.inc.push_to(t.index(), (r, h)) {
            return Err(KgError::UnknownEntity(t.0));
        }
        self.triples.push(Triple {
            head: h,
            relation: r,
            tail: t,
        });
        Ok(true)
    }

    /// Adds the facts of `triples` in order, skipping duplicates as
    /// [`KnowledgeGraph::add_triple`] does, and returns how many were new.
    /// The graph ends up exactly as adding them one at a time would leave
    /// it, but both adjacency directions are rebuilt from the log in one
    /// pass with no spare capacity, so this costs `O(|E|)` however few
    /// facts are added: a loader's path, not a single write's.
    ///
    /// Nothing is added if any fact names an unknown id.
    pub fn extend_triples(&mut self, triples: &[Triple]) -> Result<usize> {
        for t in triples {
            self.check_entity(t.head)?;
            self.check_entity(t.tail)?;
            self.check_relation(t.relation)?;
        }
        let before = self.triples.len();
        let mut batch = HashSet::with_capacity(triples.len());
        for &t in triples {
            if !self.has_edge(t.head, t.relation, t.tail) && batch.insert(t) {
                self.triples.push(t);
            }
        }
        drop(batch);
        let (log, rows) = (self.triples.iter(), self.entities.len());
        self.out = ChunkLists::from_entries(
            rows,
            log.clone().map(|t| (t.head.index(), (t.relation, t.tail))),
        );
        self.inc =
            ChunkLists::from_entries(rows, log.map(|t| (t.tail.index(), (t.relation, t.head))));
        Ok(self.triples.len() - before)
    }

    /// Convenience: intern the three names and add the triple.
    pub fn add_fact(&mut self, head: &str, relation: &str, tail: &str) -> Result<bool> {
        let h = self.add_entity(head);
        let r = self.add_relation(relation);
        let t = self.add_entity(tail);
        self.add_triple(h, r, t)
    }

    /// Whether `(h, r, t)` is a known (materialized) edge in `E`: a scan
    /// of the shorter of `h`'s outgoing and `t`'s incoming list.
    pub fn has_edge(&self, h: EntityId, r: RelationId, t: EntityId) -> bool {
        let (out, inc) = (self.out_edges(h), self.in_edges(t));
        if out.len() <= inc.len() {
            out.contains(&(r, t))
        } else {
            inc.contains(&(r, h))
        }
    }

    /// Removes `(h, r, t)` from `E` if present, returning whether it existed.
    ///
    /// Used to mask edges for link-prediction style evaluation (paper §VI-B:
    /// "we randomly mask 5 edges from our datasets").
    pub fn remove_triple(&mut self, h: EntityId, r: RelationId, t: EntityId) -> bool {
        if !self.has_edge(h, r, t) {
            return false;
        }
        let gone = Triple {
            head: h,
            relation: r,
            tail: t,
        };
        let mut kept = ChunkVec::new();
        for tr in self.triples.iter().filter(|&&tr| tr != gone) {
            kept.push(*tr);
        }
        self.triples = kept;
        self.out.remove(h.index(), &(r, t));
        self.inc.remove(t.index(), &(r, h));
        true
    }

    /// Tails `t` such that `(h, r, t) ∈ E`.
    pub fn tails(&self, h: EntityId, r: RelationId) -> impl Iterator<Item = EntityId> + '_ {
        self.out_edges(h)
            .iter()
            .filter(move |(rr, _)| *rr == r)
            .map(|&(_, t)| t)
    }

    /// Heads `h` such that `(h, r, t) ∈ E`.
    pub fn heads(&self, t: EntityId, r: RelationId) -> impl Iterator<Item = EntityId> + '_ {
        self.in_edges(t)
            .iter()
            .filter(move |(rr, _)| *rr == r)
            .map(|&(_, h)| h)
    }

    /// All outgoing `(relation, tail)` pairs of `h`.
    pub fn out_edges(&self, h: EntityId) -> &[(RelationId, EntityId)] {
        self.out.get(h.index()).unwrap_or(&[])
    }

    /// All incoming `(relation, head)` pairs of `t`.
    pub fn in_edges(&self, t: EntityId) -> &[(RelationId, EntityId)] {
        self.inc.get(t.index()).unwrap_or(&[])
    }

    /// Total degree (in + out) of an entity — the paper's `popularity`
    /// attribute for the Freebase MAX-query experiment (Fig. 15).
    pub fn degree(&self, e: EntityId) -> usize {
        self.out_edges(e).len() + self.in_edges(e).len()
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &ChunkVec<Triple> {
        &self.triples
    }

    /// How many blocks of the outgoing adjacency and of the incoming
    /// adjacency, and chunks of the triple log, this graph does not share
    /// with `other`.
    pub fn unshared_chunks(&self, other: &Self) -> [usize; 3] {
        [
            self.out.unshared_chunks(&other.out),
            self.inc.unshared_chunks(&other.inc),
            self.triples.unshared_chunks(&other.triples),
        ]
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.entities.len()
    }

    /// Number of relationship types.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Number of edges in `E`.
    pub fn num_edges(&self) -> usize {
        self.triples.len()
    }

    /// Name of an entity.
    pub fn entity_name(&self, e: EntityId) -> Option<&str> {
        self.entities.name(e.0)
    }

    /// Name of a relationship type.
    pub fn relation_name(&self, r: RelationId) -> Option<&str> {
        self.relations.name(r.0)
    }

    /// Id of an entity by name.
    pub fn entity_id(&self, name: &str) -> Option<EntityId> {
        self.entities.get(name).map(EntityId)
    }

    /// Id of a relationship type by name.
    pub fn relation_id(&self, name: &str) -> Option<RelationId> {
        self.relations.get(name).map(RelationId)
    }

    /// Summary statistics (Table I of the paper).
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            entities: self.num_entities(),
            relation_types: self.num_relations(),
            edges: self.num_edges(),
        }
    }

    fn check_entity(&self, e: EntityId) -> Result<()> {
        if e.index() < self.entities.len() {
            Ok(())
        } else {
            Err(KgError::UnknownEntity(e.0))
        }
    }

    fn check_relation(&self, r: RelationId) -> Result<()> {
        if r.index() < self.relations.len() {
            Ok(())
        } else {
            Err(KgError::UnknownRelation(r.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        g.add_fact("amy", "rates_high", "restaurant_1").unwrap();
        g.add_fact("bob", "rates_high", "restaurant_1").unwrap();
        g.add_fact("amy", "frequents", "grocery_1").unwrap();
        g.add_fact("restaurant_1", "belongs_to", "italian").unwrap();
        g
    }

    #[test]
    fn counts() {
        let g = toy();
        // amy, bob, restaurant_1, grocery_1, italian
        assert_eq!(g.num_entities(), 5);
        assert_eq!(g.num_relations(), 3);
        assert_eq!(g.num_edges(), 4);
        let s = g.stats();
        assert_eq!((s.entities, s.relation_types, s.edges), (5, 3, 4));
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = toy();
        assert!(!g.add_fact("amy", "rates_high", "restaurant_1").unwrap());
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn adjacency_queries() {
        let g = toy();
        let amy = g.entity_id("amy").unwrap();
        let r1 = g.entity_id("restaurant_1").unwrap();
        let rates = g.relation_id("rates_high").unwrap();
        assert!(g.has_edge(amy, rates, r1));
        assert!(!g.has_edge(r1, rates, amy));
        let tails: Vec<_> = g.tails(amy, rates).collect();
        assert_eq!(tails, vec![r1]);
        let heads: Vec<_> = g.heads(r1, rates).collect();
        assert_eq!(heads.len(), 2);
    }

    #[test]
    fn degree_counts_both_directions() {
        let g = toy();
        let r1 = g.entity_id("restaurant_1").unwrap();
        // two incoming rates_high + one outgoing belongs_to
        assert_eq!(g.degree(r1), 3);
    }

    #[test]
    fn remove_triple_masks_edge() {
        let mut g = toy();
        let amy = g.entity_id("amy").unwrap();
        let r1 = g.entity_id("restaurant_1").unwrap();
        let rates = g.relation_id("rates_high").unwrap();
        assert!(g.remove_triple(amy, rates, r1));
        assert!(!g.has_edge(amy, rates, r1));
        assert!(!g.remove_triple(amy, rates, r1));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.tails(amy, rates).count(), 0);
        assert_eq!(g.heads(r1, rates).count(), 1);
    }

    #[test]
    fn unknown_ids_rejected() {
        let mut g = toy();
        let bad = EntityId(999);
        let r = g.relation_id("rates_high").unwrap();
        let ok = g.entity_id("amy").unwrap();
        assert!(matches!(
            g.add_triple(bad, r, ok),
            Err(KgError::UnknownEntity(999))
        ));
        assert!(matches!(
            g.add_triple(ok, RelationId(77), ok),
            Err(KgError::UnknownRelation(77))
        ));
    }

    #[test]
    fn edges_of_missing_entity_are_empty() {
        let g = toy();
        assert!(g.out_edges(EntityId(500)).is_empty());
        assert!(g.in_edges(EntityId(500)).is_empty());
    }
}
