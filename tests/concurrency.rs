//! Concurrency: the assembled engine is `Send`, read paths are shareable,
//! and a lock-guarded engine serves a multi-threaded query workload with
//! results identical to the serial run.
//!
//! The snapshot-readers-vs-one-writer scenario is defined **once**
//! ([`snapshot_readers_vs_writer_scenario`]) and exercised two ways: as
//! an ordinary multi-threaded test, and — under `--features model` —
//! through `vkg-sync`'s seeded model scheduler, which serializes the
//! same threads onto explored interleavings and checks for data races,
//! lock-order inversions, and deadlocks along the way.

use std::sync::Arc;

use vkg::prelude::*;
use vkg_sync::{thread as sync_thread, Mutex, RwLock};

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

#[test]
fn parallel_queries_match_serial_results() {
    let (ds, vkg) = build();
    let likes = ds.graph.relation_id("likes").unwrap();
    let users: Vec<EntityId> = (0..12)
        .map(|u| ds.graph.entity_id(&format!("user_{u}")).unwrap())
        .collect();

    // Serial reference on an identical fresh engine.
    let (_, serial) = {
        let d = movie_like(&MovieConfig::tiny());
        let v = vkg::build_from_dataset(
            &d,
            TransEConfig {
                dim: 16,
                epochs: 6,
                ..TransEConfig::default()
            },
            VkgConfig::default(),
        );
        (d, v)
    };
    let mut serial_answers = Vec::new();
    for &u in &users {
        let r = serial.top_k(u, likes, Direction::Tails, 5).unwrap();
        serial_answers.push(r.predictions.iter().map(|p| p.id).collect::<Vec<_>>());
    }

    // Parallel run: queries mutate the index (cracking), so a Mutex
    // serializes the engine while threads interleave arbitrarily.
    let shared = Arc::new(Mutex::new(vkg));
    let mut handles = Vec::new();
    for (qi, &u) in users.iter().enumerate() {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let guard = shared.lock();
            let r = guard.top_k(u, likes, Direction::Tails, 5).unwrap();
            (qi, r.predictions.iter().map(|p| p.id).collect::<Vec<_>>())
        }));
    }
    let mut parallel_answers = vec![Vec::new(); users.len()];
    for h in handles {
        let (qi, ids) = h.join().unwrap();
        parallel_answers[qi] = ids;
    }

    // Cracking order differs between runs, but answers are order-
    // independent (the index is lossless; only its shape differs).
    for (qi, (s, p)) in serial_answers.iter().zip(&parallel_answers).enumerate() {
        assert_eq!(s, p, "query {qi} diverged under concurrency");
    }
    shared.lock().index().check_invariants();
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

#[test]
fn index_stats_are_coherent_after_concurrent_load() {
    let (ds, vkg) = build();
    let likes = ds.graph.relation_id("likes").unwrap();
    let shared = Arc::new(Mutex::new(vkg));
    let mut handles = Vec::new();
    for t in 0..8 {
        let shared = Arc::clone(&shared);
        let ds_users = ds.graph.entity_id(&format!("user_{t}")).unwrap();
        handles.push(std::thread::spawn(move || {
            let guard = shared.lock();
            let _ = guard.top_k(ds_users, likes, Direction::Tails, 3).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let guard = shared.lock();
    let s = guard.index_stats();
    assert!(s.s1_distance_evals > 0);
    assert!(guard.index_node_count() >= 1);
    guard.index().check_invariants();
}
