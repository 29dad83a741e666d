//! Persistence: a graph and its (externally trainable) embeddings survive
//! a full export → import cycle and the re-assembled engine answers
//! identically — the paper's "import precomputed embeddings" path.

mod worlds;

use vkg::embed::io as embed_io;
use vkg::kg::io as kg_io;
use vkg::prelude::*;
use worlds::{trained, Data, Train, Trained};

/// The dim 16 × 6 epochs movie world, trained once per binary.
fn world() -> &'static Trained {
    trained(Data::Movie, Train::Small)
}

#[test]
fn graph_tsv_roundtrip_preserves_queries() {
    // The triple TSV format (like the FB15k-style dumps it mirrors) only
    // carries entities that appear in at least one triple, so first
    // canonicalize the generated graph through one roundtrip; the
    // canonical form must then roundtrip losslessly and id-stably.
    let ds = &world().ds;
    let mut buf = Vec::new();
    kg_io::write_tsv(&ds.graph, &mut buf).unwrap();
    let canonical = kg_io::read_tsv(buf.as_slice()).unwrap();
    assert!(canonical.num_entities() <= ds.graph.num_entities());
    assert_eq!(canonical.num_edges(), ds.graph.num_edges());

    let mut buf2 = Vec::new();
    kg_io::write_tsv(&canonical, &mut buf2).unwrap();
    let graph2 = kg_io::read_tsv(buf2.as_slice()).unwrap();
    assert_eq!(graph2.num_entities(), canonical.num_entities());
    assert_eq!(graph2.num_edges(), canonical.num_edges());

    // Ids are assigned in first-occurrence order on both sides and
    // write_tsv emits triples in insertion order — names must map to the
    // same ids, so externally trained embedding rows keep lining up.
    for i in 0..canonical.num_entities() as u32 {
        let name = canonical.entity_name(EntityId(i)).unwrap();
        assert_eq!(
            graph2.entity_id(name),
            Some(EntityId(i)),
            "entity id drift for {name}"
        );
    }

    // Train on the canonical graph; both copies must answer identically.
    let (store, _) = TransE::new(TransEConfig {
        dim: 16,
        epochs: 6,
        ..TransEConfig::default()
    })
    .train(&canonical);
    let a = VirtualKnowledgeGraph::assemble(
        canonical.clone(),
        AttributeStore::new(),
        store.clone(),
        VkgConfig::default(),
    );
    let b =
        VirtualKnowledgeGraph::assemble(graph2, AttributeStore::new(), store, VkgConfig::default());
    let likes = canonical.relation_id("likes").unwrap();
    let mut asked = 0;
    for u in 0..10 {
        let Some(user) = canonical.entity_id(&format!("user_{u}")) else {
            continue;
        };
        asked += 1;
        let ra = a.top_k(user, likes, Direction::Tails, 5).unwrap();
        let rb = b.top_k(user, likes, Direction::Tails, 5).unwrap();
        assert_eq!(
            ra.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            rb.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }
    assert!(asked >= 3, "too few users survived canonicalization");
}

#[test]
fn embedding_tsv_roundtrip_preserves_answers() {
    let Trained { ds, store } = world();

    let mut buf = Vec::new();
    embed_io::write_tsv(store, &mut buf).unwrap();
    let store2 = embed_io::read_tsv(buf.as_slice()).unwrap();
    assert_eq!(store2.dim(), store.dim());

    let a = VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        store.clone(),
        VkgConfig::default(),
    );
    let b = VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        store2,
        VkgConfig::default(),
    );
    let likes = ds.graph.relation_id("likes").unwrap();
    let user = ds.graph.entity_id("user_4").unwrap();
    let ra = a.top_k(user, likes, Direction::Tails, 5).unwrap();
    let rb = b.top_k(user, likes, Direction::Tails, 5).unwrap();
    assert_eq!(
        ra.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
        rb.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
    );
}

#[test]
fn embedding_binary_roundtrip_is_bit_exact() {
    let store = &world().store;
    let bytes = embed_io::to_binary(store);
    let store2 = embed_io::from_binary(&bytes).unwrap();
    assert_eq!(*store, store2, "binary format must be lossless");
}

#[test]
fn binary_format_is_compact() {
    let store = &world().store;
    let bytes = embed_io::to_binary(store);
    let expected = 17 + 8 * store.dim() * (store.num_entities() + store.num_relations());
    assert_eq!(bytes.len(), expected, "17-byte header + raw f64 payload");

    let mut tsv = Vec::new();
    embed_io::write_tsv(store, &mut tsv).unwrap();
    assert!(
        bytes.len() < tsv.len(),
        "binary ({}) should undercut TSV ({})",
        bytes.len(),
        tsv.len()
    );
}

#[test]
fn masked_graph_roundtrip() {
    // Mask-edges workflow survives persistence: remove edges, export,
    // import, and confirm the masked facts are absent while queries work.
    let mut graph = world().ds.graph.clone();
    let t = graph.triples()[0];
    assert!(graph.remove_triple(t.head, t.relation, t.tail));

    let mut buf = Vec::new();
    kg_io::write_tsv(&graph, &mut buf).unwrap();
    let graph2 = kg_io::read_tsv(buf.as_slice()).unwrap();
    // Entity interning order may differ after removal, so compare by name.
    let h = graph2
        .entity_id(graph.entity_name(t.head).unwrap())
        .unwrap();
    let r = graph2
        .relation_id(graph.relation_name(t.relation).unwrap())
        .unwrap();
    let tl = graph2
        .entity_id(graph.entity_name(t.tail).unwrap())
        .unwrap();
    assert!(!graph2.has_edge(h, r, tl));
    assert_eq!(graph2.num_edges(), graph.num_edges());
}
