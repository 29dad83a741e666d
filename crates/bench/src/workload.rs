//! Query workload generation (§VI-B "Queries"): each query randomly
//! picks a head entity + relationship and asks for top-k tails, or a
//! tail entity + relationship and asks for top-k heads — systematically
//! exploring the space of queried embedding vectors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vkg::prelude::*;

/// One generated query.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// The given entity.
    pub entity: EntityId,
    /// The relationship.
    pub relation: RelationId,
    /// Which endpoint is asked for.
    pub direction: Direction,
}

/// Generates `n` random queries over existing triples (guaranteeing the
/// entity actually participates in the relationship, as real workloads
/// do).
pub fn generate(graph: &KnowledgeGraph, n: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let triples = graph.triples();
    assert!(
        !triples.is_empty(),
        "cannot generate queries over an empty graph"
    );
    (0..n)
        .map(|_| {
            let t = triples[rng.gen_range(0..triples.len())];
            if rng.gen_bool(0.5) {
                Query {
                    entity: t.head,
                    relation: t.relation,
                    direction: Direction::Tails,
                }
            } else {
                Query {
                    entity: t.tail,
                    relation: t.relation,
                    direction: Direction::Heads,
                }
            }
        })
        .collect()
}

/// Runs one query against any engine over the shared snapshot.
pub fn run(engine: &mut dyn QueryEngine, snap: &VkgSnapshot, q: &Query, k: usize) -> TopKResult {
    match engine.top_k(snap, q.entity, q.relation, q.direction, k) {
        Ok(r) => r,
        #[expect(
            clippy::panic,
            reason = "harness invariant: queries come from generate() over this graph"
        )]
        Err(e) => panic!("generated queries use valid ids: {e}"),
    }
}

/// precision@K of `answer` against the engine's own ground-truth oracle
/// ([`QueryEngine::reference_top_k`]): the exact E′-semantics S₁ scan for
/// distance-ranked engines, the exact-MIPS scan for H2-ALSH.
pub fn precision_vs_reference(
    engine: &dyn QueryEngine,
    snap: &VkgSnapshot,
    q: &Query,
    k: usize,
    answer: &TopKResult,
) -> f64 {
    let truth = match engine.reference_top_k(snap, q.entity, q.relation, q.direction, k) {
        Ok(t) => t,
        #[expect(
            clippy::panic,
            reason = "harness invariant: queries come from generate() over this graph"
        )]
        Err(e) => panic!("generated queries use valid ids: {e}"),
    };
    if truth.is_empty() {
        return 1.0;
    }
    let truth_ids: std::collections::HashSet<u32> = truth.iter().copied().collect();
    let hits = answer
        .predictions
        .iter()
        .filter(|p| truth_ids.contains(&p.id))
        .count();
    hits as f64 / truth_ids.len().min(k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkg_kg::datasets::{movie_like, MovieConfig};

    use vkg::kg as vkg_kg;

    #[test]
    fn generated_queries_are_valid() {
        let ds = movie_like(&MovieConfig::tiny());
        let qs = generate(&ds.graph, 50, 1);
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert!(q.entity.index() < ds.graph.num_entities());
            assert!(q.relation.index() < ds.graph.num_relations());
        }
        // Both directions occur.
        assert!(qs.iter().any(|q| q.direction == Direction::Tails));
        assert!(qs.iter().any(|q| q.direction == Direction::Heads));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = movie_like(&MovieConfig::tiny());
        let a = generate(&ds.graph, 10, 7);
        let b = generate(&ds.graph, 10, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.entity, y.entity);
            assert_eq!(x.relation, y.relation);
        }
    }
}
