//! Concurrency: the assembled engine is `Send`, read paths are shareable,
//! snapshots stay frozen beside a writer, and full-access aggregates
//! beside writers of every kind answer at one epoch. (Threaded reads
//! against a single-threaded twin are cells of `tests/differential.rs`.)
//!
//! The snapshot-readers-vs-one-writer scenario is defined **once**
//! ([`snapshot_readers_vs_writer_scenario`]) and exercised two ways: as
//! an ordinary multi-threaded test, and — under `--features model` —
//! through `vkg-sync`'s seeded model scheduler, which serializes the
//! same threads onto explored interleavings and checks for data races,
//! lock-order inversions, and deadlocks along the way.

use std::sync::{Arc, OnceLock};

use vkg::prelude::*;
use vkg_sync::{thread as sync_thread, RwLock};

fn build() -> (Dataset, VirtualKnowledgeGraph) {
    let ds = movie_like(&MovieConfig::tiny());
    let vkg = vkg::build_from_dataset(
        &ds,
        TransEConfig {
            dim: 16,
            epochs: 6,
            ..TransEConfig::default()
        },
        VkgConfig::default(),
    );
    (ds, vkg)
}

#[test]
fn engine_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<VirtualKnowledgeGraph>();
    assert_send::<KnowledgeGraph>();
    assert_send::<EmbeddingStore>();
    assert_send::<CrackingIndex>();
}

#[test]
fn concurrent_readers_on_graph_and_embeddings() {
    let (_ds, vkg) = build();
    let shared = Arc::new(RwLock::new(vkg));
    let mut handles = Vec::new();
    for t in 0..4 {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let guard = shared.read();
            let mut checksum = 0usize;
            for i in (t * 10)..(t * 10 + 10) {
                let e = EntityId(i as u32);
                if let Some(name) = guard.graph().entity_name(e) {
                    checksum += name.len();
                    checksum += guard.embeddings().entity(e).len();
                }
            }
            checksum
        }));
    }
    for h in handles {
        assert!(h.join().unwrap() > 0);
    }
}

/// Snapshot isolation: readers holding `Arc<VkgSnapshot>` clones make
/// progress while the index write lock is held for the whole duration —
/// the read path never touches the engine lock.
#[test]
fn snapshot_readers_progress_while_writer_holds_index_lock() {
    let (ds, vkg) = build();
    let likes = ds.graph.relation_id("likes").unwrap();
    let snap = vkg.snapshot();

    // The "writer": grab the engine write lock and sit on it, as a
    // long-running crack would.
    let writer_guard = vkg.index_mut();

    let (tx, rx) = std::sync::mpsc::channel();
    let n_readers = 4;
    let mut handles = Vec::new();
    for t in 0..n_readers {
        let snap = Arc::clone(&snap);
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let mut checksum = 0usize;
            for u in 0..6 {
                let user = snap.graph().entity_id(&format!("user_{u}")).unwrap();
                let q = snap.query_point_s1(user, likes, Direction::Tails).unwrap();
                checksum += q.len();
                checksum += snap.known_neighbors(user, likes, Direction::Tails).len();
                checksum += snap.project(&q).len();
            }
            tx.send((t, checksum)).unwrap();
        }));
    }

    // Readers must finish while the write lock is still held; a deadlock
    // (reads secretly routed through the engine lock) trips the timeout.
    for _ in 0..n_readers {
        let (_, checksum) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("snapshot readers must progress while the index lock is held");
        assert!(checksum > 0);
    }
    drop(writer_guard);
    for h in handles {
        h.join().unwrap();
    }

    // With the lock released, writers crack and readers keep reading
    // concurrently through the same facade.
    let shared = Arc::new(vkg);
    let mut handles = Vec::new();
    for t in 0..4 {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let user = shared.graph().entity_id(&format!("user_{t}")).unwrap();
            let r = shared.top_k(user, likes, Direction::Tails, 3).unwrap();
            assert!(r.predictions.len() <= 3);
        }));
    }
    let snap2 = shared.snapshot();
    for t in 0..4 {
        let snap2 = Arc::clone(&snap2);
        handles.push(std::thread::spawn(move || {
            let user = snap2.graph().entity_id(&format!("user_{t}")).unwrap();
            assert!(
                !snap2
                    .known_neighbors(user, likes, Direction::Tails)
                    .is_empty()
                    || snap2.graph().num_entities() > 0
            );
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    shared.index().check_invariants();
}

/// The one scenario definition shared by the direct test and the model
/// sweep: readers pin a snapshot and keep reading while one writer
/// publishes a dynamic update. Assertions cover snapshot freezing,
/// epoch monotonicity, and no torn visibility (a bumped epoch implies
/// the complete new snapshot, never half of it).
fn snapshot_readers_vs_writer_scenario(
    vkg: &Arc<VirtualKnowledgeGraph>,
    likes: RelationId,
    tag: &str,
) {
    let base_epoch = vkg.epoch();
    let snap = vkg.snapshot();
    let entities_before = snap.graph().num_entities();
    let dim = snap.embeddings().dim();

    let readers: Vec<_> = (0..2)
        .map(|t| {
            let vkg = Arc::clone(vkg);
            let snap = Arc::clone(&snap);
            sync_thread::spawn(move || {
                let user = snap.graph().entity_id(&format!("user_{t}")).unwrap();
                let q = snap.query_point_s1(user, likes, Direction::Tails).unwrap();
                assert!(!q.is_empty());
                // The pinned snapshot is frozen regardless of the writer.
                assert_eq!(snap.graph().num_entities(), entities_before);
                // Epoch monotonicity: successive reads never go back.
                let e1 = vkg.epoch();
                let (e2, s2) = vkg.published();
                assert!(e2 >= e1, "epoch went backwards: {e1} -> {e2}");
                assert!(e1 >= base_epoch);
                // No torn visibility: an advanced epoch carries the whole
                // update; an unchanged epoch carries none of it.
                if e2 > base_epoch {
                    assert_eq!(s2.graph().num_entities(), entities_before + 1);
                } else {
                    assert_eq!(s2.graph().num_entities(), entities_before);
                }
            })
        })
        .collect();
    let writer = {
        let vkg = Arc::clone(vkg);
        let name = format!("fresh_{tag}");
        sync_thread::spawn(move || {
            vkg.add_entity_dynamic(&name, &vec![30.0; dim])
                .expect("well-shaped dynamic entity");
        })
    };
    for h in readers {
        h.join().expect("reader");
    }
    writer.join().expect("writer");
    assert_eq!(vkg.epoch(), base_epoch + 1, "exactly one publication");
    assert_eq!(vkg.graph().num_entities(), entities_before + 1);
}

#[test]
fn snapshot_readers_vs_one_writer() {
    let (ds, vkg) = build();
    let likes = ds.graph.relation_id("likes").unwrap();
    let vkg = Arc::new(vkg);
    for round in 0..3 {
        snapshot_readers_vs_writer_scenario(&vkg, likes, &format!("round{round}"));
    }
}

/// The same scenario driven through the model scheduler: each seed is
/// one explored interleaving, checked for data races, lock-order
/// inversions, and deadlocks. The VKG is built once (TransE training
/// dominates the cost); the scenario is what the checker permutes.
#[cfg(feature = "model")]
#[test]
fn snapshot_readers_vs_one_writer_model() {
    let (ds, vkg) = build();
    let likes = ds.graph.relation_id("likes").unwrap();
    let vkg = Arc::new(vkg);
    for seed in 0..8 {
        let vkg2 = Arc::clone(&vkg);
        vkg_sync::model::check(seed, move || {
            snapshot_readers_vs_writer_scenario(&vkg2, likes, &format!("seed{seed}"));
        })
        .unwrap_or_else(|v| panic!("model run failed: {v}"));
    }
}

/// The small world of the aggregate-beside-writers scenario: the tiny
/// movie graph with least-squares embeddings (no training), so that a
/// model sweep can assemble a fresh facade per schedule.
fn small_world() -> &'static (Dataset, EmbeddingStore) {
    static WORLD: OnceLock<(Dataset, EmbeddingStore)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = movie_like(&MovieConfig::tiny());
        let embeddings = vkg::embed::least_squares_embedding(
            &ds.graph,
            &vkg::embed::LsConfig {
                dim: 16,
                ..Default::default()
            },
        );
        (ds, embeddings)
    })
}

fn small_engine(cache_capacity: usize) -> VirtualKnowledgeGraph {
    let (ds, embeddings) = small_world();
    VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        embeddings.clone(),
        VkgConfig {
            cache_capacity,
            ..VkgConfig::default()
        },
    )
}

/// The writes of the scenario, one of each kind, in publication order:
/// the `i`-th publishes epoch `i + 1`.
fn apply_write(vkg: &VirtualKnowledgeGraph, i: usize) {
    let (ds, _) = small_world();
    let id = |name: &str| ds.graph.entity_id(name).expect("fixture entity");
    let likes = ds.graph.relation_id("likes").expect("likes");
    match i {
        0 => {
            let (user, movie) = (id("user_0"), id("movie_7"));
            assert!(!ds.graph.has_edge(user, likes, movie), "a fresh fact");
            vkg.add_fact_durable(3, user, likes, movie, 8, 0.5)
                .expect("valid ids");
        }
        1 => vkg
            .set_attribute_dynamic("year", id("movie_3"), 2500.0)
            .expect("known entity"),
        _ => {
            vkg.add_entity_dynamic("movie_fresh", &[0.0; 16])
                .expect("well-shaped embedding");
        }
    }
}

/// Full-access aggregates beside writers of every kind, defined once
/// for the direct test and the model sweep: a reader asks COUNT, SUM and
/// MIN around two users while a writer publishes a fact, an attribute
/// and an entity. Each answer must equal, bit for bit, what a facade at
/// rest answers at the epoch the answer reports — though the writer may
/// publish between a ball's region read and its estimate, which run on
/// either side of dropping the index guard.
fn aggregates_beside_writers_scenario(cache_capacity: usize) {
    const WRITES: usize = 3;
    let (ds, _) = small_world();
    let likes = ds.graph.relation_id("likes").expect("likes");
    let users = [0, 1].map(|u| ds.graph.entity_id(&format!("user_{u}")).expect("user"));
    let specs = [
        AggregateSpec::count(0.3),
        AggregateSpec::of(AggregateKind::Sum, "year", 0.3),
        AggregateSpec::of(AggregateKind::Min, "year", 0.3),
    ];
    let vkg = Arc::new(small_engine(cache_capacity));
    let reader = {
        let vkg = Arc::clone(&vkg);
        let specs = specs.clone();
        sync_thread::spawn(move || {
            let mut answers = Vec::new();
            for spec in &specs {
                for &user in &users {
                    let query = Query::aggregate(user, likes, Direction::Tails, spec.clone());
                    answers.push(ask(&vkg, &query));
                }
            }
            answers
        })
    };
    let writer = {
        let vkg = Arc::clone(&vkg);
        sync_thread::spawn(move || (0..WRITES).for_each(|i| apply_write(&vkg, i)))
    };
    let answers = reader.join().expect("reader");
    writer.join().expect("writer");
    assert_eq!(vkg.epoch(), WRITES as u64);

    // Every answer of every epoch, from a facade at rest.
    let twin = small_engine(0);
    let mut at_rest: Vec<Vec<[u64; 5]>> = Vec::new();
    for epoch in 0..=WRITES {
        let row = specs.iter().flat_map(|spec| {
            let twin = &twin;
            users.iter().map(move |&user| {
                ask(
                    twin,
                    &Query::aggregate(user, likes, Direction::Tails, spec.clone()),
                )
                .1
            })
        });
        at_rest.push(row.collect());
        if epoch < WRITES {
            apply_write(&twin, epoch);
        }
    }
    assert!(
        at_rest.windows(2).filter(|w| w[0] != w[1]).count() >= 2,
        "the writes must move the answers"
    );
    for (i, (at, bits)) in answers.iter().enumerate() {
        assert_eq!(bits, &at_rest[*at as usize][i], "answer {i} at epoch {at}");
    }
}

/// Asks the aggregate `q`: the global epoch it was answered at, and its
/// estimate, bound and counts, floats by their bits.
fn ask(vkg: &VirtualKnowledgeGraph, q: &Query) -> (u64, [u64; 5]) {
    let (pin, Answer::Aggregate(r)) = vkg.execute(q, &mut || {}).expect("valid query") else {
        panic!("not an aggregate: {q:?}");
    };
    let [estimate, mu, mass] = [r.estimate, r.bound.mu, r.bound.increment_mass].map(f64::to_bits);
    let counts = [r.accessed, r.ball_size].map(|n| n as u64);
    (pin.epoch, [estimate, mu, mass, counts[0], counts[1]])
}

#[test]
fn aggregates_beside_writers_of_every_kind() {
    for cache_capacity in [0, 64] {
        aggregates_beside_writers_scenario(cache_capacity);
    }
}

/// The same scenario through the model scheduler, sixteen explored
/// interleavings per cache setting.
#[cfg(feature = "model")]
#[test]
fn aggregates_beside_writers_of_every_kind_model() {
    for cache_capacity in [0, 64] {
        vkg_sync::model::sweep(16, || aggregates_beside_writers_scenario(cache_capacity))
            .unwrap_or_else(|v| panic!("model run failed: {v}"));
    }
}

#[test]
fn index_stats_are_coherent_after_concurrent_load() {
    let (ds, vkg) = build();
    let likes = ds.graph.relation_id("likes").unwrap();
    let shared = Arc::new(vkg);
    let mut handles = Vec::new();
    for t in 0..8 {
        let shared = Arc::clone(&shared);
        let ds_users = ds.graph.entity_id(&format!("user_{t}")).unwrap();
        handles.push(std::thread::spawn(move || {
            let _ = shared.top_k(ds_users, likes, Direction::Tails, 3).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = shared.index_stats();
    assert!(s.s1_distance_evals > 0);
    assert!(shared.index_node_count() >= 1);
    shared.index().check_invariants();
}
