//! Model-checked scenarios over the real facade: the epoch-swap
//! publication protocol of [`VirtualKnowledgeGraph`] is explored under
//! `vkg-sync`'s seeded scheduler, which serializes the threads onto
//! adversarial interleavings and verifies the absence of data races,
//! lock-order inversions, and deadlocks at every step.
//!
//! Run with `cargo test -p vkg-core --features model --test model`.

#![cfg(feature = "model")]

use std::sync::Arc;

use vkg_core::vkg::VirtualKnowledgeGraph;
use vkg_core::{AggregateSpec, Direction, FaultPlane, SplitStrategy, VkgConfig};
use vkg_embed::EmbeddingStore;
use vkg_kg::{AttributeStore, KnowledgeGraph, RelationId};
use vkg_sync::{model, thread};

const SEEDS: u64 = 64;

/// A hand-built world (no training): users u0..u3 at x = i, items
/// m0..m5 at x = 10 + i, "likes" translates by +10, so uᵢ + likes ≈ mᵢ.
fn tiny_vkg() -> (VirtualKnowledgeGraph, RelationId) {
    tiny_vkg_cached(0)
}

/// [`tiny_vkg`] with a result cache of `cache_capacity` entries (0 =
/// off), for scenarios that race cached readers against epoch-bumping
/// writers.
fn tiny_vkg_cached(cache_capacity: usize) -> (VirtualKnowledgeGraph, RelationId) {
    let dim = 8;
    let mut g = KnowledgeGraph::new();
    let likes = g.add_relation("likes");
    // A second relation, so scenarios can query the one index from two
    // query points at once.
    let also = g.add_relation("also");
    let users: Vec<_> = (0..4).map(|i| g.add_entity(&format!("u{i}"))).collect();
    let items: Vec<_> = (0..6).map(|i| g.add_entity(&format!("m{i}"))).collect();
    g.add_triple(users[0], likes, items[0]).expect("fresh edge");
    g.add_triple(users[1], also, items[3]).expect("fresh edge");

    let mut ent = vec![0.0; 10 * dim];
    for (i, _) in users.iter().enumerate() {
        ent[i * dim] = i as f64;
    }
    for (j, _) in items.iter().enumerate() {
        ent[(4 + j) * dim] = 10.0 + j as f64;
        ent[(4 + j) * dim + 1] = 0.5;
    }
    let mut rel = vec![0.0; 2 * dim];
    rel[0] = 10.0;
    rel[1] = 0.5;
    rel[dim] = 10.0;
    rel[dim + 1] = -0.5;
    let store = EmbeddingStore::from_raw(dim, ent, rel);

    let mut attrs = AttributeStore::new();
    for (j, &m) in items.iter().enumerate() {
        attrs.set("year", m, 2000.0 + j as f64);
    }
    let cfg = VkgConfig {
        alpha: 3,
        epsilon: 3.0,
        leaf_capacity: 2,
        fanout: 2,
        beta: 2.0,
        split_strategy: SplitStrategy::Greedy,
        query_aware_cost: true,
        transform_seed: 7,
        threads: 1,
        cache_capacity,
    };
    let vkg = VirtualKnowledgeGraph::try_assemble(g, attrs, store, cfg).expect("tiny world");
    (vkg, likes)
}

/// Two concurrent writers and a polling reader: every epoch observation
/// is monotone, and after both writers land the epoch counted exactly
/// one publication per write.
#[test]
fn epoch_monotonic_across_concurrent_writers() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg();
        let vkg = Arc::new(vkg);
        let u1 = vkg.graph().entity_id("u1").expect("u1");
        let m4 = vkg.graph().entity_id("m4").expect("m4");
        let m1 = vkg.graph().entity_id("m1").expect("m1");

        let w1 = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let (added, _) = vkg
                    .add_fact_dynamic(u1, likes, m4, 2, 0.01)
                    .expect("valid ids");
                assert!(added, "fresh edge");
            })
        };
        let w2 = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.set_attribute_dynamic("year", m1, 1999.0)
                    .expect("known entity");
            })
        };
        let reader = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let mut last = vkg.epoch();
                for _ in 0..3 {
                    let e = vkg.epoch();
                    assert!(e >= last, "epoch went backwards: {last} -> {e}");
                    last = e;
                }
            })
        };
        w1.join().expect("writer 1");
        w2.join().expect("writer 2");
        reader.join().expect("reader");
        assert_eq!(vkg.epoch(), 2, "one publication per write");
    })
    .unwrap_or_else(|v| panic!("epoch-monotonicity model failed: {v}"));
}

/// A reader taking the `(epoch, snapshot)` pair must see either all of
/// an update or none of it — the epoch alone decides which.
#[test]
fn no_torn_snapshot_visibility() {
    model::sweep(SEEDS, || {
        let (vkg, _likes) = tiny_vkg();
        let vkg = Arc::new(vkg);
        let u0 = vkg.graph().entity_id("u0").expect("u0");
        let base = vkg.epoch();

        let writer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.set_attribute_dynamic("year", u0, 1987.0)
                    .expect("known entity");
            })
        };
        let reader = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let (epoch, snap) = vkg.published();
                let year = snap.attributes().get("year", u0).expect("year column");
                if epoch > base {
                    assert_eq!(year, Some(1987.0), "bumped epoch ⇒ whole update");
                } else {
                    assert_eq!(year, None, "old epoch ⇒ none of the update");
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");
        let (epoch, snap) = vkg.published();
        assert_eq!(epoch, base + 1);
        assert_eq!(
            snap.attributes().get("year", u0).expect("year column"),
            Some(1987.0)
        );
    })
    .unwrap_or_else(|v| panic!("torn-snapshot model failed: {v}"));
}

/// `with_published_index` pins both epochs for its whole closure: while
/// it runs, a concurrent writer cannot publish (writers serialize on
/// the index lock), so the pin handed in stays exact. Queries and
/// writes also contend on the index lock here, which lets the checker
/// watch the index→published acquisition order from both sides.
#[test]
fn with_published_index_pins_epochs_against_writer() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg();
        let vkg = Arc::new(vkg);
        let u0 = vkg.graph().entity_id("u0").expect("u0");
        let m5 = vkg.graph().entity_id("m5").expect("m5");

        let writer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.set_attribute_dynamic("year", m5, 2024.0)
                    .expect("known entity");
            })
        };
        let querier = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let r = vkg
                    .top_k(u0, likes, Direction::Tails, 2)
                    .expect("valid query");
                assert!(!r.predictions.is_empty());
                assert!(r.predictions.iter().all(|p| p.id != u0.0), "skip self");
            })
        };
        let (pin, reread) = vkg.with_published_index(|pin, snap, _state| {
            assert!(snap.graph().num_entities() >= 10);
            (pin, (vkg.epoch(), vkg.index_epoch()))
        });
        assert_eq!(
            (pin.epoch, pin.index_epoch),
            reread,
            "no publication can land while the index lock is held"
        );
        writer.join().expect("writer");
        querier.join().expect("querier");
        assert_eq!(vkg.epoch(), 1);
    })
    .unwrap_or_else(|v| panic!("epoch-pinning model failed: {v}"));
}

/// Readers that cloned a snapshot `Arc` before a write keep a frozen,
/// internally consistent view while the writer publishes — the engine's
/// copy-on-write contract, checked against explored schedules.
#[test]
fn pinned_snapshot_stays_frozen_during_publication() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg();
        let vkg = Arc::new(vkg);
        let u2 = vkg.graph().entity_id("u2").expect("u2");
        let snap = vkg.snapshot();
        let entities_before = snap.graph().num_entities();
        let dim = snap.embeddings().dim();

        let writer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.add_entity_dynamic("m_fresh", &vec![30.0; dim])
                    .expect("well-shaped embedding");
            })
        };
        let reader = thread::spawn(move || {
            assert_eq!(snap.graph().num_entities(), entities_before);
            let q = snap
                .query_point_s1(u2, likes, Direction::Tails)
                .expect("pinned view answers");
            assert_eq!(q.len(), snap.embeddings().dim());
        });
        writer.join().expect("writer");
        reader.join().expect("reader");
        assert_eq!(vkg.graph().num_entities(), entities_before + 1);
    })
    .unwrap_or_else(|v| panic!("frozen-snapshot model failed: {v}"));
}

/// The index epoch is monotone under concurrent writers and counts
/// exactly the publications that moved a point: a fact and an entity
/// write bump it with the global epoch, an attribute write bumps the
/// global epoch alone.
#[test]
fn index_epoch_monotonic_across_concurrent_writers() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg();
        let vkg = Arc::new(vkg);
        let u2 = vkg.graph().entity_id("u2").expect("u2");
        let m4 = vkg.graph().entity_id("m4").expect("m4");
        let m5 = vkg.graph().entity_id("m5").expect("m5");
        let dim = vkg.embeddings().dim();

        let fact = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.add_fact_dynamic(u2, likes, m4, 2, 0.01)
                    .expect("valid ids");
            })
        };
        let entity = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.add_entity_dynamic("m_fresh", &vec![30.0; dim])
                    .expect("well-shaped embedding");
            })
        };
        let attribute = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.set_attribute_dynamic("year", m5, 2024.0)
                    .expect("known entity");
            })
        };
        let reader = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let mut last = vkg.index_epoch();
                for _ in 0..3 {
                    let now = vkg.index_epoch();
                    assert!(now >= last, "index epoch went backwards: {last} -> {now}");
                    last = now;
                }
            })
        };
        fact.join().expect("fact writer");
        entity.join().expect("entity writer");
        attribute.join().expect("attribute writer");
        reader.join().expect("reader");
        assert_eq!(vkg.epoch(), 3, "one publication per write");
        assert_eq!(vkg.index_epoch(), 2, "the attribute write moved no point");
    })
    .unwrap_or_else(|v| panic!("index-epoch monotonicity model failed: {v}"));
}

/// Queries from two relations' query points, a writer and a drain
/// barrier all contend on the one index lock, each nesting its leaves
/// under it — the checker verifies every explored interleaving is free
/// of deadlocks and lock-order inversions.
#[test]
fn queries_writer_and_quiesce_are_deadlock_free() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg();
        let also = vkg.graph().relation_id("also").expect("also");
        let vkg = Arc::new(vkg);
        let u0 = vkg.graph().entity_id("u0").expect("u0");
        let u1 = vkg.graph().entity_id("u1").expect("u1");
        let m4 = vkg.graph().entity_id("m4").expect("m4");

        let q_likes = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let r = vkg
                    .top_k(u0, likes, Direction::Tails, 2)
                    .expect("valid query");
                assert!(!r.predictions.is_empty());
            })
        };
        let q_also = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let r = vkg
                    .top_k(u1, also, Direction::Tails, 2)
                    .expect("valid query");
                assert!(!r.predictions.is_empty());
            })
        };
        let writer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.add_fact_dynamic(u1, likes, m4, 2, 0.01)
                    .expect("valid ids");
            })
        };
        let drainer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || vkg.quiesce())
        };
        q_likes.join().expect("likes querier");
        q_also.join().expect("also querier");
        writer.join().expect("writer");
        drainer.join().expect("drainer");
        vkg.index().check_invariants();
    })
    .unwrap_or_else(|v| panic!("deadlock-freedom model failed: {v}"));
}

/// The result cache's epoch validation raced against a writer: when no
/// publication lands between two identical reads, the second (cached)
/// answer must be the first one's exact bits; once the writer lands and
/// the world quiesces, the cached engine's answer must equal a
/// cache-disabled twin that applied the same write — a stale entry is
/// invalidated, never served. The checker also watches the cache
/// stripe lock (acquired under the index lock) for order inversions,
/// lost updates, and data races on every explored schedule.
#[test]
fn cached_reads_race_writer_without_stale_answers() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg_cached(64);
        let vkg = Arc::new(vkg);
        let u0 = vkg.graph().entity_id("u0").expect("u0");
        let u1 = vkg.graph().entity_id("u1").expect("u1");
        let m4 = vkg.graph().entity_id("m4").expect("m4");

        let writer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let (added, _) = vkg
                    .add_fact_dynamic(u1, likes, m4, 2, 0.01)
                    .expect("valid ids");
                assert!(added, "fresh edge");
            })
        };
        let reader = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let before = vkg.epoch();
                let r1 = vkg
                    .top_k(u0, likes, Direction::Tails, 2)
                    .expect("valid query");
                let r2 = vkg
                    .top_k(u0, likes, Direction::Tails, 2)
                    .expect("valid query");
                if vkg.epoch() == before {
                    // No publication interleaved the pair, so whether the
                    // second read hit the cache or recomputed, the answer
                    // is the same bits.
                    assert_eq!(
                        r1.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
                        r2.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
                    );
                    for (a, b) in r1.predictions.iter().zip(&r2.predictions) {
                        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                        assert_eq!(a.probability.to_bits(), b.probability.to_bits());
                    }
                }
            })
        };
        writer.join().expect("writer");
        reader.join().expect("reader");

        // Quiescent cross-check: the hand-built world is deterministic,
        // so a cache-off twin given the same write is the ground truth.
        let (plain, likes_p) = tiny_vkg();
        plain
            .add_fact_dynamic(u1, likes_p, m4, 2, 0.01)
            .expect("valid ids");
        let want = plain
            .top_k(u0, likes_p, Direction::Tails, 2)
            .expect("valid query");
        let got = vkg
            .top_k(u0, likes, Direction::Tails, 2)
            .expect("valid query");
        assert_eq!(
            got.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            want.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            "post-write cached answer matches the cache-off ground truth"
        );
        for (g, w) in got.predictions.iter().zip(&want.predictions) {
            assert_eq!(g.distance.to_bits(), w.distance.to_bits());
        }
        vkg.index().check_invariants();
    })
    .unwrap_or_else(|v| panic!("cache-race model failed: {v}"));
}

/// The lock-order check (DESIGN.md §3.7): every lock nesting the facade
/// has — `vkg.index < { vkg.published, vkg.cache, vkg.wal }` — executed
/// once per schedule: the cache on (stripe under the index lock), a WAL
/// attached (durability under it too), every read entry point, every
/// shared-side inspector, every kind of writer.
/// The checker's acquired-while-holding graph is per run, so executing a
/// nesting once is enough for it to report two locks taken in both
/// orders; a nesting that can block forever shows up as a deadlock.
#[test]
fn every_lock_nesting_on_the_facade_is_walked() {
    let log = std::env::temp_dir().join(format!("vkg_model_{}.wal", std::process::id()));
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg_cached(64);
        let also = vkg.graph().relation_id("also").expect("also");
        let _ = std::fs::remove_file(&log);
        vkg.attach_wal(&log, FaultPlane::none()).expect("fresh log");
        let vkg = Arc::new(vkg);
        let id = |name| vkg.graph().entity_id(name).expect("fixture entity");
        let (u0, u1, m1, m4) = (id("u0"), id("u1"), id("m1"), id("m4"));
        let dim = vkg.embeddings().dim();

        let reader = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let tails = Direction::Tails;
                let count = AggregateSpec::count(0.05);
                vkg.top_k(u0, likes, tails, 2).expect("top-k");
                vkg.top_k_filtered(u0, likes, tails, 2, |e| e != m1)
                    .expect("filtered top-k");
                vkg.aggregate(u0, likes, tails, &count).expect("aggregate");
                let multi = vkg
                    .aggregate_multi(u0, &[likes, also], tails, &count)
                    .expect("multi-relation aggregate");
                assert_eq!(multi.parts.len(), 2);
                vkg.with_published_index(|pin, _snap, _state| {
                    assert!(pin.index_epoch <= pin.epoch);
                });
                vkg.metrics_snapshot();
                vkg.index_stats();
                assert!(vkg.index_node_count() > 0 && vkg.index_bytes() > 0);
            })
        };
        let writer = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let (added, _) = vkg
                    .add_fact_durable(7, u1, likes, m4, 2, 0.01)
                    .expect("logged write");
                assert!(added, "fresh edge");
                vkg.add_entity_dynamic("m_fresh", &vec![30.0; dim])
                    .expect("well-shaped embedding");
                vkg.set_attribute_dynamic("year", m1, 1999.0)
                    .expect("known entity");
                vkg.reset_access_counters();
                vkg.quiesce();
            })
        };
        reader.join().expect("reader");
        writer.join().expect("writer");
        assert_eq!(vkg.epoch(), 3, "one publication per write");
        vkg.index().check_invariants();
    })
    .unwrap_or_else(|v| panic!("lock-nesting model failed: {v}"));
    let _ = std::fs::remove_file(&log);
}
