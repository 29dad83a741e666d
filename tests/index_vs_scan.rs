//! Accuracy of the indexed query path against the exact no-index scan —
//! the precision@K methodology of Figures 4, 6 and 8.
//!
//! The index answers through the lossy JL transform, so exact equality is
//! not required; the paper reports precision@K ≥ 0.945 across datasets,
//! and the same level must hold here.

use vkg::prelude::*;

fn precision_at_k(
    vkg: &mut VirtualKnowledgeGraph,
    scan: &LinearScan<'_>,
    queries: &[(EntityId, RelationId, Direction)],
    k: usize,
) -> f64 {
    let graph = vkg.graph().clone();
    let mut total = 0.0;
    for &(e, r, dir) in queries {
        let indexed = vkg.top_k(e, r, dir, k).unwrap();
        let known: std::collections::HashSet<u32> = match dir {
            Direction::Tails => graph.tails(e, r).map(|x| x.0).collect(),
            Direction::Heads => graph.heads(e, r).map(|x| x.0).collect(),
        };
        let skip = |id: u32| id == e.0 || known.contains(&id);
        let truth = match dir {
            Direction::Tails => scan.top_k_tails(e, r, k, skip),
            Direction::Heads => scan.top_k_heads(e, r, k, skip),
        };
        let truth_ids: std::collections::HashSet<u32> = truth.iter().map(|t| t.0).collect();
        let hits = indexed
            .predictions
            .iter()
            .filter(|p| truth_ids.contains(&p.id))
            .count();
        let denom = truth_ids.len().min(k).max(1);
        total += hits as f64 / denom as f64;
    }
    total / queries.len() as f64
}

fn queries_for(graph: &KnowledgeGraph, n: usize) -> Vec<(EntityId, RelationId, Direction)> {
    // Deterministic spread over triples: alternate directions.
    let triples = graph.triples();
    let step = (triples.len() / n).max(1);
    triples
        .iter()
        .step_by(step)
        .take(n)
        .enumerate()
        .map(|(i, t)| {
            if i % 2 == 0 {
                (t.head, t.relation, Direction::Tails)
            } else {
                (t.tail, t.relation, Direction::Heads)
            }
        })
        .collect()
}

fn embed(graph: &KnowledgeGraph) -> EmbeddingStore {
    let (store, _) = TransE::new(TransEConfig {
        dim: 24,
        epochs: 10,
        ..TransEConfig::default()
    })
    .train(graph);
    store
}

#[test]
fn movie_precision_alpha3() {
    let ds = movie_like(&MovieConfig::tiny());
    let store = embed(&ds.graph);
    let scan_store = store.clone();
    let scan = LinearScan::new(&scan_store);
    let mut vkg = VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        store,
        VkgConfig {
            alpha: 3,
            epsilon: 3.0,
            ..VkgConfig::default()
        },
    );
    let qs = queries_for(&ds.graph, 12);
    let p = precision_at_k(&mut vkg, &scan, &qs, 10);
    assert!(p >= 0.9, "precision@10 = {p} below the paper's ballpark");
    vkg.index().check_invariants();
}

#[test]
fn movie_precision_alpha6_not_worse() {
    // Figure 6: α = 6 preserves distance better than α = 3 — on average.
    let ds = movie_like(&MovieConfig::tiny());
    let store = embed(&ds.graph);
    let scan_store = store.clone();
    let scan = LinearScan::new(&scan_store);
    let qs = queries_for(&ds.graph, 12);

    let mut p3_total = 0.0;
    let mut p6_total = 0.0;
    // Average over several transform seeds: a single draw is noisy.
    for seed in 0..3 {
        let mut v3 = VirtualKnowledgeGraph::assemble(
            ds.graph.clone(),
            ds.attributes.clone(),
            store.clone(),
            VkgConfig {
                alpha: 3,
                transform_seed: seed,
                ..VkgConfig::default()
            },
        );
        let mut v6 = VirtualKnowledgeGraph::assemble(
            ds.graph.clone(),
            ds.attributes.clone(),
            store.clone(),
            VkgConfig {
                alpha: 6,
                transform_seed: seed,
                ..VkgConfig::default()
            },
        );
        p3_total += precision_at_k(&mut v3, &scan, &qs, 10);
        p6_total += precision_at_k(&mut v6, &scan, &qs, 10);
    }
    assert!(
        p6_total >= p3_total - 0.05,
        "α=6 ({p6_total}) markedly worse than α=3 ({p3_total})"
    );
    assert!(p6_total / 3.0 >= 0.9);
}

#[test]
fn amazon_precision() {
    let ds = amazon_like(&AmazonConfig::tiny());
    let store = embed(&ds.graph);
    let scan_store = store.clone();
    let scan = LinearScan::new(&scan_store);
    let mut vkg = VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        store,
        VkgConfig::default(),
    );
    let qs = queries_for(&ds.graph, 12);
    let p = precision_at_k(&mut vkg, &scan, &qs, 10);
    assert!(p >= 0.9, "precision@10 = {p}");
}

#[test]
fn freebase_precision_many_relations() {
    let ds = freebase_like(&FreebaseConfig::tiny());
    let store = embed(&ds.graph);
    let scan_store = store.clone();
    let scan = LinearScan::new(&scan_store);
    let mut vkg = VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        store,
        VkgConfig::default(),
    );
    let qs = queries_for(&ds.graph, 16);
    let p = precision_at_k(&mut vkg, &scan, &qs, 10);
    assert!(p >= 0.85, "precision@10 = {p}");
}

#[test]
fn varying_k_keeps_precision() {
    // Figure 7's k = 2 vs k = 10 comparison: precision holds across k.
    let ds = amazon_like(&AmazonConfig::tiny());
    let store = embed(&ds.graph);
    let scan_store = store.clone();
    let scan = LinearScan::new(&scan_store);
    let qs = queries_for(&ds.graph, 8);
    for k in [2usize, 10] {
        let mut vkg = VirtualKnowledgeGraph::assemble(
            ds.graph.clone(),
            ds.attributes.clone(),
            store.clone(),
            VkgConfig::default(),
        );
        let p = precision_at_k(&mut vkg, &scan, &qs, k);
        assert!(p >= 0.85, "precision@{k} = {p}");
    }
}
