//! Dynamic knowledge-graph updates end-to-end (the paper's §VIII future
//! work): new entities and facts arrive after assembly, embeddings move
//! locally, and the partial index absorbs every change in place.

use vkg::prelude::*;

fn world() -> (Dataset, VirtualKnowledgeGraph) {
    let ds = movie_like(&MovieConfig::tiny());
    let embeddings = vkg::embed::least_squares_embedding(
        &ds.graph,
        &vkg::embed::LsConfig {
            dim: 16,
            ..Default::default()
        },
    );
    let vkg = VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        embeddings,
        VkgConfig {
            epsilon: 1.0,
            ..VkgConfig::default()
        },
    );
    (ds, vkg)
}

#[test]
fn cold_start_entity_becomes_queryable() {
    let (_ds, vkg) = world();
    let likes = vkg.graph().relation_id("likes").unwrap();

    // A new movie arrives with an embedding placed exactly where an
    // existing user's "likes" query lands — it must become that user's
    // top prediction.
    let user = vkg.graph().entity_id("user_1").unwrap();
    let target = vkg.query_point_s1(user, likes, Direction::Tails).unwrap();
    let new_movie = vkg
        .add_entity_dynamic("movie_coldstart", &target)
        .expect("well-shaped dynamic entity");
    vkg.index().check_invariants();

    let r = vkg.top_k(user, likes, Direction::Tails, 3).unwrap();
    assert_eq!(
        r.predictions[0].id, new_movie.0,
        "the perfectly placed new movie must rank first"
    );
    assert!(r.predictions[0].distance < 1e-9);
}

#[test]
fn wrong_length_embedding_is_a_typed_error_on_both_branches() {
    let (_ds, vkg) = world();
    let epoch = vkg.epoch();
    // Fresh name → the append branch; known name → the re-embed branch.
    for name in ["movie_bad", "movie_1"] {
        let refused = vkg.add_entity_dynamic(name, &[0.5; 3]);
        let shape = VkgError::Mismatch {
            what: "entity embedding dimensionality",
            expected: 16,
            found: 3,
        };
        assert_eq!(refused, Err(shape), "{name}: 3-long row, d = 16 store");
        assert_eq!(vkg.epoch(), epoch, "{name}: a refused write published");
    }
    assert!(vkg.graph().entity_id("movie_bad").is_none());
    // No lock was left held and no store half-written.
    vkg.add_entity_dynamic("movie_good", &[0.5; 16])
        .expect("a well-shaped add after the refusals");
    assert_eq!(vkg.epoch(), epoch + 1);
    vkg.index().check_invariants();
}

/// Write parameters the wire refuses are refused in process too — with
/// a WAL attached nothing reaches the log, so no restart replays them.
/// (At a NaN rate the write used to ack, log, and leave a NaN row that
/// panicked the next query over it on a NaN ball radius.)
#[test]
fn refused_write_parameters_are_typed_errors_and_never_logged() {
    let (_ds, vkg) = world();
    let log = std::env::temp_dir().join(format!("vkg_dyn_params_{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&log);
    vkg.attach_wal(&log, vkg::core::FaultPlane::none())
        .expect("fresh log");
    let log_len = || std::fs::metadata(&log).expect("log").len();
    let likes = vkg.graph().relation_id("likes").unwrap();
    let user = vkg.graph().entity_id("user_3").unwrap();
    let movie = vkg
        .top_k(user, likes, Direction::Tails, 1)
        .unwrap()
        .predictions[0]
        .id;
    let (epoch, len) = (vkg.epoch(), log_len());

    let refused = [
        vkg.add_fact_durable(9, user, likes, EntityId(movie), 4, f64::NAN),
        vkg.add_fact_durable(9, user, likes, EntityId(movie), 4, 1.5),
        vkg.add_fact_durable(9, user, likes, EntityId(movie), 1 << 20, 0.01),
    ];
    for r in &refused {
        assert!(matches!(r, Err(VkgError::InvalidParameter(_))), "{r:?}");
    }
    let nan_row = vkg.add_entity_dynamic("movie_nan", &[f64::NAN; 16]);
    assert!(
        matches!(nan_row, Err(VkgError::InvalidParameter(_))),
        "{nan_row:?}"
    );
    assert!(vkg.graph().entity_id("movie_nan").is_none());
    assert_eq!(vkg.epoch(), epoch, "a refused write published");
    assert_eq!(log_len(), len, "a refused write was logged");

    // The same token then carries a good write; queries still answer.
    let good = vkg.add_fact_durable(9, user, likes, EntityId(movie), 4, 0.01);
    assert_eq!(good, Ok((true, epoch + 1)));
    assert!(log_len() > len);
    vkg.top_k(user, likes, Direction::Tails, 3).unwrap();
    vkg.index().check_invariants();
    let _ = std::fs::remove_file(&log);
}

#[test]
fn new_fact_is_excluded_from_predictions() {
    let (_ds, vkg) = world();
    let likes = vkg.graph().relation_id("likes").unwrap();
    let user = vkg.graph().entity_id("user_2").unwrap();

    let before = vkg.top_k(user, likes, Direction::Tails, 1).unwrap();
    let top = EntityId(before.predictions[0].id);

    // The user now actually likes their top prediction: the edge enters
    // E, so E′ semantics must drop it from future answers.
    assert!(vkg.add_fact_dynamic(user, likes, top, 4, 0.05).unwrap().0);
    vkg.index().check_invariants();
    let after = vkg.top_k(user, likes, Direction::Tails, 5).unwrap();
    assert!(
        after.predictions.iter().all(|p| p.id != top.0),
        "materialized edge must be skipped"
    );
}

#[test]
fn refinement_pulls_endpoints_together() {
    let (_ds, vkg) = world();
    let likes = vkg.graph().relation_id("likes").unwrap();
    let user = vkg.graph().entity_id("user_3").unwrap();
    // A far-away movie the user does not like yet.
    let movie = vkg.graph().entity_id("movie_50").unwrap();
    let before = vkg.embeddings().triple_distance(user, likes, movie);
    vkg.add_fact_dynamic(user, likes, movie, 8, 0.05).unwrap();
    let after = vkg.embeddings().triple_distance(user, likes, movie);
    assert!(
        after < before,
        "local refinement must tighten the new triple ({before} → {after})"
    );
    vkg.index().check_invariants();
}

/// One step moves an endpoint by `learning_rate / (1 + degree)` of the
/// gradient: a fresh entity takes the whole step, a connected one its
/// share.
#[test]
fn a_fact_moves_an_endpoint_by_its_share() {
    let (_ds, vkg) = world();
    let likes = vkg.graph().relation_id("likes").unwrap();
    let user = vkg.graph().entity_id("user_3").unwrap();
    let degree = vkg.graph().degree(user);
    assert!(degree > 0, "the user must already carry edges");
    let fresh = vkg
        .add_entity_dynamic("movie_fresh", &[0.5; 16])
        .expect("well-shaped dynamic entity");
    assert_eq!(vkg.graph().degree(fresh), 0);

    let before = vkg.snapshot();
    vkg.add_fact_dynamic(user, likes, fresh, 1, 0.05).unwrap();
    let after = vkg.snapshot();
    let moved = |e: EntityId| -> f64 {
        let (a, b) = (before.embeddings().entity(e), after.embeddings().entity(e));
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    let gradient = 2.0 * before.embeddings().triple_distance(user, likes, fresh);
    assert!((moved(fresh) - 0.05 * gradient).abs() < 1e-12);
    assert!((moved(user) * (1 + degree) as f64 - 0.05 * gradient).abs() < 1e-12);
}

#[test]
fn duplicate_fact_is_noop() {
    let (ds, vkg) = world();
    let likes = ds.graph.relation_id("likes").unwrap();
    let t = ds
        .graph
        .triples()
        .iter()
        .find(|t| t.relation == likes)
        .copied()
        .unwrap();
    let h_before = vkg.embeddings().entity(t.head).to_vec();
    let published = vkg.published();
    let (added, epoch) = vkg
        .add_fact_dynamic(t.head, likes, t.tail, 5, 0.05)
        .unwrap();
    assert!(!added);
    assert_eq!(epoch, vkg.epoch(), "duplicates report the current epoch");
    assert_eq!(epoch, published.0, "duplicates publish no epoch");
    assert!(
        std::sync::Arc::ptr_eq(&published.1, &vkg.snapshot()),
        "duplicates leave the published snapshot in place"
    );
    assert_eq!(
        vkg.embeddings().entity(t.head),
        h_before.as_slice(),
        "duplicate facts must not move embeddings"
    );
}

/// Epochs N and N+1 of a twelve-chunk store differ in the chunks the
/// fact's two entities live in and share every other one, and a reader
/// pinned to N keeps reading N.
#[test]
fn fact_write_copies_its_chunks_and_shares_the_rest() {
    use vkg::kg::CHUNK_LEN;

    let (n, dim) = (12 * CHUNK_LEN, 8);
    let mut graph = KnowledgeGraph::new();
    let r = graph.add_relation("r");
    for i in 0..n {
        graph.add_entity(&format!("e{i}"));
    }
    for i in (0..n - 1).step_by(97) {
        let (h, t) = (EntityId(i as u32), EntityId(i as u32 + 1));
        graph.add_triple(h, r, t).unwrap();
    }
    let flat: Vec<f64> = (0..n * dim)
        .map(|i| ((i * 31) % 997) as f64 / 9.0)
        .collect();
    let store = EmbeddingStore::from_raw(dim, flat, vec![0.25; dim]);
    let vkg =
        VirtualKnowledgeGraph::assemble(graph, AttributeStore::new(), store, VkgConfig::default());

    let h = EntityId((3 * CHUNK_LEN + 5) as u32);
    let t = EntityId((9 * CHUNK_LEN + 1) as u32);
    let row_bits = |s: &VkgSnapshot| -> Vec<u64> {
        s.embeddings()
            .entity_rows()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let pinned = vkg.snapshot();
    let rows_then = row_bits(&pinned);
    let edges_then = pinned.graph().num_edges();

    assert_eq!(vkg.add_fact_dynamic(h, r, t, 3, 0.05).unwrap(), (true, 1));
    let next = vkg.snapshot();
    let rows = next.embeddings().entity_rows();
    assert_eq!(rows.unshared_chunks(pinned.embeddings().entity_rows()), 2);
    // One chunk of outgoing adjacency (h's), one of incoming (t's) and
    // the log's tail — of 12, 12 and 1.
    assert_eq!(next.graph().unshared_chunks(pinned.graph()), [1, 1, 1]);
    assert!(next.graph().has_edge(h, r, t));
    assert_ne!(next.embeddings().entity(h), pinned.embeddings().entity(h));

    assert_eq!(row_bits(&pinned), rows_then, "epoch N's rows moved");
    assert_eq!(pinned.graph().num_edges(), edges_then);
    assert!(!pinned.graph().has_edge(h, r, t));
    assert!(pinned.graph().out_edges(h).is_empty() && pinned.graph().in_edges(t).is_empty());
}

#[test]
fn dynamic_attribute_visible_to_aggregates() {
    let (_ds, vkg) = world();
    let likes = vkg.graph().relation_id("likes").unwrap();
    let user = vkg.graph().entity_id("user_0").unwrap();
    // Give every movie a fresh attribute after assembly.
    let ids: Vec<EntityId> = (0..vkg.graph().num_entities() as u32)
        .map(EntityId)
        .filter(|&e| {
            vkg.graph()
                .entity_name(e)
                .is_some_and(|n| n.starts_with("movie_"))
        })
        .collect();
    for (i, m) in ids.iter().enumerate() {
        vkg.set_attribute_dynamic("runtime", *m, 90.0 + (i % 60) as f64)
            .expect("known entity, finite value");
    }
    let r = vkg
        .aggregate(
            user,
            likes,
            Direction::Tails,
            &AggregateSpec::of(AggregateKind::Avg, "runtime", 0.05),
        )
        .unwrap();
    assert!(
        (90.0..=150.0).contains(&r.estimate),
        "avg runtime {} outside the attribute's range",
        r.estimate
    );
}

#[test]
fn many_updates_keep_queries_exact() {
    let (_ds, vkg) = world();
    let likes = vkg.graph().relation_id("likes").unwrap();
    // Interleave queries and updates, then verify against the scan.
    for i in 0..10 {
        let user = vkg.graph().entity_id(&format!("user_{i}")).unwrap();
        let _ = vkg.top_k(user, likes, Direction::Tails, 5).unwrap();
        let q = vkg.query_point_s1(user, likes, Direction::Tails).unwrap();
        let jitter: Vec<f64> = q.iter().map(|v| v + 0.01 * i as f64).collect();
        vkg.add_entity_dynamic(&format!("new_movie_{i}"), &jitter)
            .expect("well-shaped dynamic entity");
    }
    vkg.index().check_invariants();
    let user = vkg.graph().entity_id("user_5").unwrap();
    let indexed = vkg.top_k(user, likes, Direction::Tails, 5).unwrap();
    let scan_store = vkg.embeddings().clone();
    let scan = LinearScan::new(&scan_store);
    let q = vkg.query_point_s1(user, likes, Direction::Tails).unwrap();
    let known: std::collections::HashSet<u32> =
        vkg.graph().tails(user, likes).map(|e| e.0).collect();
    let truth = scan.top_k_near(&q, 5, |id| id == user.0 || known.contains(&id));
    let truth_ids: Vec<u32> = truth.iter().map(|t| t.0).collect();
    let got_ids: Vec<u32> = indexed.predictions.iter().map(|p| p.id).collect();
    let hits = got_ids.iter().filter(|g| truth_ids.contains(g)).count();
    assert!(hits >= 4, "only {hits}/5 agree with the scan after updates");
}
