//! Freebase-like dataset generator.
//!
//! The distinguishing features of Freebase in the paper's evaluation are
//! (a) a *large number of relationship types* (2,355 in Table I) — the very
//! thing H2-ALSH cannot handle — and (b) heterogeneous, type-clustered
//! entities with power-law degrees. This generator reproduces both:
//! entities are partitioned into type clusters ("domains"), each relation
//! type has a fixed (head-type, tail-type) signature, and heads/tails are
//! Zipf-sampled within their clusters. Relation frequencies themselves are
//! Zipfian (a few relations like `/type/object/type` dominate).

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::Dataset;
use crate::attributes::AttributeStore;
use crate::graph::{KnowledgeGraph, Triple};
use crate::zipf::Zipf;

/// Configuration for [`freebase_like`].
#[derive(Debug, Clone)]
pub struct FreebaseConfig {
    /// Number of entities.
    pub entities: usize,
    /// Number of relationship types.
    pub relation_types: usize,
    /// Number of entity-type clusters ("domains").
    pub type_clusters: usize,
    /// Total number of edges to generate (before de-duplication).
    pub edges: usize,
    /// Zipf exponent for entity popularity within a cluster.
    pub entity_zipf: f64,
    /// Zipf exponent for relation-type frequency.
    pub relation_zipf: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FreebaseConfig {
    fn default() -> Self {
        Self {
            entities: 20_000,
            relation_types: 200,
            type_clusters: 25,
            edges: 60_000,
            entity_zipf: 0.9,
            relation_zipf: 1.0,
            seed: 0x46524253, // "FRBS"
        }
    }
}

impl FreebaseConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            entities: 300,
            relation_types: 12,
            type_clusters: 4,
            edges: 900,
            ..Self::default()
        }
    }

    /// Scales entity and edge counts by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let d = Self::default();
        Self {
            entities: ((d.entities as f64) * factor).max(50.0) as usize,
            edges: ((d.edges as f64) * factor).max(100.0) as usize,
            ..d
        }
    }
}

/// Generates a Freebase-like dataset.
pub fn freebase_like(cfg: &FreebaseConfig) -> Dataset {
    assert!(cfg.type_clusters >= 1, "need at least one type cluster");
    assert!(
        cfg.entities >= cfg.type_clusters,
        "need at least one entity per cluster"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut graph = KnowledgeGraph::new();

    // Entities, assigned round-robin to clusters so each cluster is a
    // contiguous arithmetic progression of ids.
    let entities: Vec<_> = (0..cfg.entities)
        .map(|i| graph.add_entity(&format!("m_{i}")))
        .collect();
    let cluster_of = |i: usize| i % cfg.type_clusters;
    let mut cluster_members: Vec<Vec<usize>> = vec![Vec::new(); cfg.type_clusters];
    for i in 0..cfg.entities {
        cluster_members[cluster_of(i)].push(i);
    }

    // Relations with (head-cluster, tail-cluster) signatures.
    let relations: Vec<_> = (0..cfg.relation_types)
        .map(|i| graph.add_relation(&format!("/domain_{}/rel_{i}", i % cfg.type_clusters)))
        .collect();
    let signatures: Vec<(usize, usize)> = (0..cfg.relation_types)
        .map(|_| {
            (
                rng.gen_range(0..cfg.type_clusters),
                rng.gen_range(0..cfg.type_clusters),
            )
        })
        .collect();

    let rel_zipf = Zipf::new(cfg.relation_types, cfg.relation_zipf);
    // One Zipf per cluster size class; cluster sizes differ by at most 1,
    // so a single sampler over the minimum size is fine with a re-draw.
    let cluster_zipfs: Vec<Zipf> = cluster_members
        .iter()
        .map(|m| Zipf::new(m.len().max(1), cfg.entity_zipf))
        .collect();

    // Distinct facts in draw order; the graph takes them in one bulk load.
    let mut seen = HashSet::with_capacity(cfg.edges);
    let mut triples = Vec::with_capacity(cfg.edges);
    let mut attempts = 0usize;
    let max_attempts = cfg.edges * 4;
    while triples.len() < cfg.edges && attempts < max_attempts {
        attempts += 1;
        let ri = rel_zipf.sample(&mut rng);
        let (hc, tc) = signatures[ri];
        let h = cluster_members[hc][cluster_zipfs[hc].sample(&mut rng)];
        let t = cluster_members[tc][cluster_zipfs[tc].sample(&mut rng)];
        if h == t {
            continue;
        }
        let fact = Triple {
            head: entities[h],
            relation: relations[ri],
            tail: entities[t],
        };
        if seen.insert(fact) {
            triples.push(fact);
        }
    }
    drop(seen);
    #[expect(
        clippy::expect_used,
        reason = "both endpoints were just added to this graph by the generator"
    )]
    graph
        .extend_triples(&triples)
        .expect("generated ids are valid");
    drop(triples);

    // Popularity = degree; filled in after all edges exist.
    let mut ds = Dataset {
        name: "freebase-like".to_owned(),
        graph,
        attributes: AttributeStore::new(),
    };
    ds.compute_popularity();
    // Also give each entity a synthetic "age"-like numeric for COUNT/SUM
    // experiments that need an attribute on arbitrary entities.
    for &e in &entities {
        let v = rng.gen_range(1.0f64..100.0).round();
        ds.attributes.set("age", e, v);
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EntityId;

    #[test]
    fn counts_match_config() {
        let cfg = FreebaseConfig::tiny();
        let ds = freebase_like(&cfg);
        assert_eq!(ds.graph.num_entities(), cfg.entities);
        assert_eq!(ds.graph.num_relations(), cfg.relation_types);
        // Edge target is met within the attempt budget for the tiny config.
        assert!(ds.graph.num_edges() > cfg.edges / 2);
    }

    #[test]
    fn many_relation_types_actually_used() {
        let ds = freebase_like(&FreebaseConfig::tiny());
        let mut used = std::collections::HashSet::new();
        for t in ds.graph.triples() {
            used.insert(t.relation);
        }
        assert!(used.len() >= 6, "only {} relation types used", used.len());
    }

    #[test]
    fn no_self_loops() {
        let ds = freebase_like(&FreebaseConfig::tiny());
        for t in ds.graph.triples() {
            assert_ne!(t.head, t.tail);
        }
    }

    #[test]
    fn popularity_and_age_attributes_present() {
        let ds = freebase_like(&FreebaseConfig::tiny());
        let e = EntityId(0);
        assert!(ds.attributes.get("popularity", e).unwrap().is_some());
        assert!(ds.attributes.get("age", e).unwrap().is_some());
    }

    #[test]
    fn degrees_follow_power_law_roughly() {
        let ds = freebase_like(&FreebaseConfig::default());
        let mut degrees: Vec<usize> = (0..ds.graph.num_entities() as u32)
            .map(|i| ds.graph.degree(EntityId(i)))
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Top-1% of entities should hold a disproportionate share of edges.
        let top = degrees.len() / 100;
        let top_sum: usize = degrees[..top].iter().sum();
        let total: usize = degrees.iter().sum();
        assert!(
            top_sum as f64 > 0.05 * total as f64,
            "top 1% holds only {top_sum}/{total} of degree mass"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = freebase_like(&FreebaseConfig::tiny());
        let b = freebase_like(&FreebaseConfig::tiny());
        assert_eq!(a.graph.triples(), b.graph.triples());
    }
}
