//! Property-based tests for the knowledge-graph substrate.

use proptest::prelude::*;
use vkg_kg::zipf::Zipf;
use vkg_kg::{ChunkVec, EntityId, Interner, KnowledgeGraph, RelationId, CHUNK_LEN};

/// Arbitrary triple script over small id spaces.
fn triple_script() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..20, 0u8..5, 0u8..20), 0..120)
}

proptest! {
    /// `ChunkVec` against a `Vec` model under interleaved push / get_mut /
    /// clone / drop, starting two and a half chunks long: every held
    /// clone keeps the values it was taken with, and one write makes
    /// exactly one chunk differ from a clone taken just before it.
    #[test]
    fn chunk_vec_is_a_persistent_vec(
        script in prop::collection::vec((0u8..4, any::<u16>(), any::<u32>()), 1..48),
    ) {
        let mut model: Vec<u32> = (0..(CHUNK_LEN * 5 / 2) as u32).collect();
        let mut live = ChunkVec::from_flat(1, &model);
        let mut held: Vec<(ChunkVec<u32>, Vec<u32>)> = Vec::new();
        for &(op, at, value) in &script {
            let before = live.clone();
            match op {
                0 => {
                    live.push(value);
                    model.push(value);
                    prop_assert_eq!(live.unshared_chunks(&before), 1);
                }
                1 => {
                    let i = at as usize % model.len();
                    *live.get_mut(i).unwrap() = value;
                    model[i] = value;
                    prop_assert_eq!(live.unshared_chunks(&before), 1);
                }
                2 => held.push((before, model.clone())),
                _ if !held.is_empty() => drop(held.swap_remove(at as usize % held.len())),
                _ => {}
            }
            prop_assert_eq!(live.len(), model.len());
            prop_assert!(live.iter().eq(&model));
            prop_assert_eq!(live.get(model.len()), None);
            for (clone, then) in &held {
                prop_assert!(clone.iter().eq(then), "a held clone changed");
            }
        }
    }

    /// Adjacency lists, membership set, and degree stay mutually
    /// consistent under arbitrary insertion sequences with duplicates.
    #[test]
    fn graph_adjacency_consistent(script in triple_script()) {
        let mut g = KnowledgeGraph::new();
        for &(h, r, t) in &script {
            g.add_fact(&format!("e{h}"), &format!("r{r}"), &format!("e{t}")).unwrap();
        }
        // Every stored triple is visible through all access paths.
        for tr in g.triples() {
            prop_assert!(g.has_edge(tr.head, tr.relation, tr.tail));
            prop_assert!(g.tails(tr.head, tr.relation).any(|t| t == tr.tail));
            prop_assert!(g.heads(tr.tail, tr.relation).any(|h| h == tr.head));
        }
        // Degrees sum to 2 × |E| (each edge contributes one out + one in).
        let total: usize = (0..g.num_entities() as u32)
            .map(|i| g.degree(EntityId(i)))
            .sum();
        prop_assert_eq!(total, 2 * g.num_edges());
        // Triples are unique.
        let set: std::collections::HashSet<_> = g.triples().iter().copied().collect();
        prop_assert_eq!(set.len(), g.num_edges());
    }

    /// Removing an edge erases it from every access path and never
    /// touches other edges.
    #[test]
    fn graph_removal_is_precise(script in triple_script(), victim in 0usize..200) {
        let mut g = KnowledgeGraph::new();
        for &(h, r, t) in &script {
            g.add_fact(&format!("e{h}"), &format!("r{r}"), &format!("e{t}")).unwrap();
        }
        if g.num_edges() == 0 {
            return Ok(());
        }
        let before = g.num_edges();
        let tr = g.triples()[victim % before];
        prop_assert!(g.remove_triple(tr.head, tr.relation, tr.tail));
        prop_assert_eq!(g.num_edges(), before - 1);
        prop_assert!(!g.has_edge(tr.head, tr.relation, tr.tail));
        for other in g.triples() {
            prop_assert!(g.has_edge(other.head, other.relation, other.tail));
        }
    }

    /// Interner ids are dense, stable and name-reversible.
    #[test]
    fn interner_bijection(names in prop::collection::vec("[a-z]{1,6}", 1..40)) {
        let mut i = Interner::new();
        let ids: Vec<u32> = names.iter().map(|n| i.intern(n)).collect();
        for (name, &id) in names.iter().zip(&ids) {
            prop_assert_eq!(i.get(name), Some(id));
            prop_assert_eq!(i.name(id), Some(name.as_str()));
            // Re-interning never mints a new id.
            prop_assert_eq!(i.intern(name), id);
        }
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        prop_assert_eq!(i.len(), distinct.len());
    }

    /// Zipf pmf is a probability distribution and is non-increasing.
    #[test]
    fn zipf_pmf_valid(n in 1usize..500, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
        for i in 1..n {
            prop_assert!(z.pmf(i - 1) >= z.pmf(i) - 1e-12);
        }
    }

    /// Zipf samples always land in range.
    #[test]
    fn zipf_samples_in_range(n in 1usize..100, s in 0.0f64..2.5, seed: u64) {
        use rand::SeedableRng;
        let z = Zipf::new(n, s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// TSV roundtrip preserves the edge multiset for arbitrary graphs.
    #[test]
    fn tsv_roundtrip(script in triple_script()) {
        let mut g = KnowledgeGraph::new();
        for &(h, r, t) in &script {
            g.add_fact(&format!("e{h}"), &format!("r{r}"), &format!("e{t}")).unwrap();
        }
        let mut buf = Vec::new();
        vkg_kg::io::write_tsv(&g, &mut buf).unwrap();
        let g2 = vkg_kg::io::read_tsv(buf.as_slice()).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for tr in g.triples() {
            let h = g2.entity_id(g.entity_name(tr.head).unwrap()).unwrap();
            let r = g2.relation_id(g.relation_name(tr.relation).unwrap()).unwrap();
            let t = g2.entity_id(g.entity_name(tr.tail).unwrap()).unwrap();
            prop_assert!(g2.has_edge(h, r, t));
        }
    }
}

#[test]
fn relation_ids_have_index() {
    assert_eq!(RelationId(3).index(), 3);
}
