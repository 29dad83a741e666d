//! Cross-checks between the baselines and the indexed engine: every
//! method must agree on the ground truth it is exact for, and approximate
//! methods must hit their advertised recall.

mod worlds;

use vkg::prelude::*;
use worlds::{trained, Data, Train, Trained};

/// The dim 24 × 10 epochs movie world, trained once per binary.
fn trained_movie() -> &'static Trained {
    trained(Data::Movie, Train::Full)
}

#[test]
fn phtree_matches_linear_scan_on_embeddings() {
    let Trained { ds, store } = trained_movie();
    let tree = PhTree::build(store.entity_rows().to_vec(), store.dim());
    let scan = LinearScan::new(store);
    let mut agree = 0usize;
    let mut total = 0usize;
    for (i, t) in ds.graph.triples().iter().step_by(97).take(10).enumerate() {
        let _ = i;
        let q = store.tail_query_point(t.head, t.relation);
        let tree_ids: Vec<u32> = tree.top_k(&q, 5, |_| false).iter().map(|r| r.0).collect();
        let scan_ids: Vec<u32> = scan
            .top_k_near(&q, 5, |_| false)
            .iter()
            .map(|r| r.0)
            .collect();
        // Quantization can flip exact ties; require the nearest to match
        // and ≥ 4/5 overlap.
        assert_eq!(tree_ids[0], scan_ids[0], "nearest neighbour must agree");
        agree += tree_ids.iter().filter(|x| scan_ids.contains(x)).count();
        total += 5;
    }
    assert!(agree as f64 / total as f64 >= 0.8);
}

#[test]
fn h2alsh_recall_on_single_relation() {
    // H2-ALSH's setting: ONE relation type, MIPS over user/item vectors.
    let Trained { ds, store } = trained_movie();
    let movies: Vec<EntityId> = (0..ds.graph.num_entities() as u32)
        .map(EntityId)
        .filter(|&e| {
            ds.graph
                .entity_name(e)
                .is_some_and(|n| n.starts_with("movie_"))
        })
        .collect();
    let dim = store.dim();
    let mut data = Vec::with_capacity(movies.len() * dim);
    for &m in &movies {
        data.extend_from_slice(store.entity(m));
    }
    let idx = H2Alsh::build(data.clone(), dim, H2AlshConfig::default());

    let mut hits = 0usize;
    let mut total = 0usize;
    for u in 0..10 {
        let user = ds.graph.entity_id(&format!("user_{u}")).unwrap();
        let q = store.entity(user);
        let got: Vec<u32> = idx
            .top_k_mips(q, 5, |_| false)
            .iter()
            .map(|r| r.0)
            .collect();
        let want: Vec<u32> = vkg::baselines::linear_scan::exact_mips_top_k(&data, dim, q, 5)
            .iter()
            .map(|r| r.0)
            .collect();
        hits += got.iter().filter(|g| want.contains(g)).count();
        total += 5;
    }
    let recall = hits as f64 / total as f64;
    assert!(recall >= 0.8, "H2-ALSH recall {recall}");
}

/// Satellite of the engine layer: every [`QueryEngine`] — baselines and
/// index states alike — goes through one `&mut dyn QueryEngine` loop and
/// is checked against the contract its [`Accuracy`] advertises, with the
/// exact linear scan as the shared ground truth.
#[test]
fn engines_satisfy_their_accuracy_contracts() {
    let Trained { ds, store } = trained_movie();
    let snap = match VkgSnapshot::new(
        ds.graph.clone(),
        ds.attributes.clone(),
        store.clone(),
        VkgConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => panic!("trained store matches the graph: {e}"),
    };
    let movies: Vec<u32> = (0..ds.graph.num_entities() as u32)
        .filter(|&e| {
            ds.graph
                .entity_name(EntityId(e))
                .is_some_and(|n| n.starts_with("movie_"))
        })
        .collect();
    let mut engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(LinearScanEngine::new()),
        Box::new(PhTreeEngine::build(&snap)),
        Box::new(IndexState::cracking(&snap)),
        Box::new(IndexState::bulk_loaded(&snap)),
        Box::new(H2AlshEngine::build(&snap, movies, H2AlshConfig::default()).unwrap()),
    ];
    let mut truth_engine = LinearScanEngine::new();
    let likes = ds.graph.relation_id("likes").unwrap();
    let users: Vec<EntityId> = (0..8)
        .map(|u| ds.graph.entity_id(&format!("user_{u}")).unwrap())
        .collect();
    let k = 5;

    for engine in engines.iter_mut() {
        let name = engine.name().to_owned();
        let mut hits = 0usize;
        let mut total = 0usize;
        for &user in &users {
            let answer = engine
                .top_k(&snap, user, likes, Direction::Tails, k)
                .unwrap();
            let ids: Vec<u32> = answer.predictions.iter().map(|p| p.id).collect();
            match engine.accuracy() {
                Accuracy::Exact => {
                    let truth = truth_engine
                        .top_k(&snap, user, likes, Direction::Tails, k)
                        .unwrap();
                    let truth_ids: Vec<u32> = truth.predictions.iter().map(|p| p.id).collect();
                    assert_eq!(
                        ids, truth_ids,
                        "{name} claims Exact but diverged from the scan"
                    );
                }
                Accuracy::Approximate { .. } => {
                    let truth = truth_engine
                        .top_k(&snap, user, likes, Direction::Tails, k)
                        .unwrap();
                    hits += ids
                        .iter()
                        .filter(|id| truth.predictions.iter().any(|p| p.id == **id))
                        .count();
                    total += truth.predictions.len().min(k);
                }
                Accuracy::SelfOracle { .. } => {
                    let oracle = engine
                        .reference_top_k(&snap, user, likes, Direction::Tails, k)
                        .unwrap();
                    hits += ids.iter().filter(|id| oracle.contains(id)).count();
                    total += oracle.len().min(k);
                }
            }
        }
        match engine.accuracy() {
            Accuracy::Exact => {}
            Accuracy::Approximate { min_overlap } => {
                let overlap = hits as f64 / total.max(1) as f64;
                assert!(
                    overlap >= min_overlap,
                    "{name}: overlap {overlap:.3} below advertised {min_overlap}"
                );
            }
            Accuracy::SelfOracle { min_recall } => {
                let recall = hits as f64 / total.max(1) as f64;
                assert!(
                    recall >= min_recall,
                    "{name}: recall {recall:.3} below advertised {min_recall}"
                );
            }
        }
    }
}

#[test]
fn phtree_and_h2alsh_handle_skip_consistently() {
    let Trained { ds, store } = trained_movie();
    let tree = PhTree::build(store.entity_rows().to_vec(), store.dim());
    let t = ds.graph.triples()[0];
    let q = store.tail_query_point(t.head, t.relation);
    let banned = tree.top_k(&q, 1, |_| false)[0].0;
    let filtered = tree.top_k(&q, 5, |id| id == banned);
    assert!(filtered.iter().all(|r| r.0 != banned));
}
