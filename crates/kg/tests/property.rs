//! Property-based tests for the knowledge-graph substrate.

use proptest::prelude::*;
use vkg_kg::graph::Triple;
use vkg_kg::zipf::Zipf;
use vkg_kg::{ChunkLists, ChunkVec, EntityId, Interner, KnowledgeGraph, RelationId, CHUNK_LEN};

/// Arbitrary triple script over small id spaces.
fn triple_script() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..20, 0u8..5, 0u8..20), 0..120)
}

proptest! {
    /// `ChunkVec` against a `Vec` model under interleaved push / row_mut /
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
                    live.row_mut(i)[0] = value;
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

    /// `ChunkLists` against a `Vec<Vec<…>>` model under interleaved
    /// push / remove / new list / clone / drop, starting two and a half
    /// chunks of rows long and built by the bulk path: every list keeps
    /// insertion order, every held clone keeps the lists it was taken
    /// with, a write makes exactly one block differ from a clone taken
    /// just before it (none if it changed nothing), and the bulk path
    /// builds what pushing the same entries one by one builds.
    #[test]
    fn chunk_lists_are_persistent_vec_of_lists(
        entries in prop::collection::vec((any::<u16>(), any::<u32>()), 0..300),
        script in prop::collection::vec((0u8..6, any::<u16>(), 0u32..8), 1..48),
    ) {
        let rows = CHUNK_LEN * 5 / 2;
        let entries: Vec<(usize, u32)> =
            entries.iter().map(|&(row, v)| (row as usize % rows, v % 8)).collect();
        let mut model = vec![Vec::new(); rows];
        let mut pushed = ChunkLists::new();
        for _ in 0..rows {
            pushed.push_list();
        }
        for &(row, v) in &entries {
            model[row].push(v);
            prop_assert!(pushed.push_to(row, v));
        }
        let mut live = ChunkLists::from_entries(rows, entries.iter().copied());
        prop_assert!(live == pushed, "bulk and incremental builds differ");
        let mut held: Vec<(ChunkLists<u32>, Vec<Vec<u32>>)> = Vec::new();
        for &(op, at, value) in &script {
            let before = live.clone();
            let i = at as usize % model.len();
            let changed = match op {
                0 | 1 => {
                    prop_assert!(live.push_to(i, value));
                    model[i].push(value);
                    true
                }
                2 => {
                    let there = model[i].iter().position(|&x| x == value);
                    if let Some(p) = there {
                        model[i].remove(p);
                    }
                    prop_assert_eq!(live.remove(i, &value), there.is_some());
                    there.is_some()
                }
                3 => {
                    live.push_list();
                    model.push(Vec::new());
                    true
                }
                4 => {
                    held.push((before.clone(), model.clone()));
                    false
                }
                _ => {
                    if !held.is_empty() {
                        drop(held.swap_remove(i % held.len()));
                    }
                    false
                }
            };
            prop_assert_eq!(live.unshared_chunks(&before), usize::from(changed));
            prop_assert!(!live.push_to(model.len(), 0), "pushed past the last row");
            prop_assert_eq!(live.len(), model.len());
            prop_assert_eq!(live.get(model.len()), None);
            for (row, list) in model.iter().enumerate() {
                prop_assert_eq!(live.get(row), Some(list.as_slice()));
            }
            for (clone, then) in &held {
                for (row, list) in then.iter().enumerate() {
                    prop_assert_eq!(clone.get(row), Some(list.as_slice()), "a held clone changed");
                }
            }
        }
    }

    /// The graph's adjacency against per-entity `Vec` models of its out
    /// and in lists, under interleaved add / remove / new entity / clone /
    /// drop over two and a half chunks of entities, starting from a graph
    /// loaded in bulk that equals the one built fact by fact: lists keep
    /// insertion order, a held clone never changes, and a write leaves
    /// exactly one block of each adjacency direction unshared.
    #[test]
    fn graph_adjacency_matches_a_list_model(
        initial in prop::collection::vec((any::<u16>(), 0u32..3, any::<u16>()), 0..400),
        script in prop::collection::vec((0u8..6, any::<u16>(), 0u32..3, any::<u16>()), 1..40),
    ) {
        type Lists = Vec<Vec<(RelationId, EntityId)>>;
        let entities = CHUNK_LEN * 5 / 2;
        let mut stepwise = KnowledgeGraph::new();
        for i in 0..entities {
            stepwise.add_entity(&format!("e{i}"));
        }
        for r in 0..3 {
            stepwise.add_relation(&format!("r{r}"));
        }
        let mut live = stepwise.clone();
        let fact = |h: u16, r: u32, t: u16, n: usize| Triple {
            head: EntityId((h as usize % n) as u32),
            relation: RelationId(r),
            tail: EntityId((t as usize % n) as u32),
        };
        let initial: Vec<Triple> =
            initial.iter().map(|&(h, r, t)| fact(h, r, t, entities)).collect();
        let mut out: Lists = vec![Vec::new(); entities];
        let mut inc: Lists = vec![Vec::new(); entities];
        let mut new = 0;
        for t in &initial {
            if stepwise.add_triple(t.head, t.relation, t.tail).unwrap() {
                out[t.head.index()].push((t.relation, t.tail));
                inc[t.tail.index()].push((t.relation, t.head));
                new += 1;
            }
        }
        prop_assert_eq!(live.extend_triples(&initial).unwrap(), new);
        prop_assert!(live.triples() == stepwise.triples());
        for e in (0..entities as u32).map(EntityId) {
            prop_assert_eq!(live.out_edges(e), stepwise.out_edges(e));
            prop_assert_eq!(live.in_edges(e), stepwise.in_edges(e));
        }

        let mut held: Vec<(KnowledgeGraph, Lists, Lists)> = Vec::new();
        for &(op, h, r, t) in &script {
            let before = live.clone();
            let n = out.len();
            let t = fact(h, r, t, n);
            let changed = match op {
                0 | 1 => {
                    let new = !out[t.head.index()].contains(&(t.relation, t.tail));
                    prop_assert_eq!(live.add_triple(t.head, t.relation, t.tail).unwrap(), new);
                    if new {
                        out[t.head.index()].push((t.relation, t.tail));
                        inc[t.tail.index()].push((t.relation, t.head));
                    }
                    new
                }
                2 => {
                    // Remove a stored fact most of the time, else a random one.
                    let t = if h % 4 != 0 && !live.triples().is_empty() {
                        live.triples()[h as usize % live.num_edges()]
                    } else {
                        t
                    };
                    let list = &mut out[t.head.index()];
                    let there = list.iter().position(|&e| e == (t.relation, t.tail));
                    if let Some(p) = there {
                        list.remove(p);
                        let list = &mut inc[t.tail.index()];
                        list.retain(|&e| e != (t.relation, t.head));
                    }
                    prop_assert_eq!(live.remove_triple(t.head, t.relation, t.tail), there.is_some());
                    there.is_some()
                }
                3 => {
                    live.add_entity(&format!("e{n}"));
                    out.push(Vec::new());
                    inc.push(Vec::new());
                    true
                }
                4 => {
                    held.push((before.clone(), out.clone(), inc.clone()));
                    false
                }
                _ => {
                    if !held.is_empty() {
                        drop(held.swap_remove(h as usize % held.len()));
                    }
                    false
                }
            };
            let [out_blocks, inc_blocks, _] = live.unshared_chunks(&before);
            let one = usize::from(changed);
            prop_assert_eq!((out_blocks, inc_blocks), (one, one), "op {}", op);
            prop_assert_eq!(live.num_entities(), out.len());
            for e in 0..out.len() {
                let e32 = EntityId(e as u32);
                prop_assert_eq!(live.out_edges(e32), out[e].as_slice());
                prop_assert_eq!(live.in_edges(e32), inc[e].as_slice());
            }
            for (clone, out, inc) in &held {
                for e in 0..out.len() {
                    let e32 = EntityId(e as u32);
                    prop_assert_eq!(clone.out_edges(e32), out[e].as_slice(), "a held clone changed");
                    prop_assert_eq!(clone.in_edges(e32), inc[e].as_slice(), "a held clone changed");
                }
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
