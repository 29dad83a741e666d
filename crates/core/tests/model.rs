//! Model-checked scenarios over the real facade: the epoch-swap
//! publication protocol of [`VirtualKnowledgeGraph`] is explored under
//! `vkg-sync`'s seeded scheduler, which serializes the threads onto
//! adversarial interleavings and verifies the absence of data races,
//! lock-order inversions, and deadlocks at every step.
//!
//! Run with `cargo test -p vkg-core --features model --test model`.

#![cfg(feature = "model")]

use std::sync::Arc;

use vkg_core::metrics::names;
use vkg_core::vkg::VirtualKnowledgeGraph;
use vkg_core::{
    AggregateResult, AggregateSpec, Answer, Direction, FaultPlane, Filter, Query, SplitStrategy,
    VkgConfig, VkgError,
};
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
    tiny_vkg_tuned(cache_capacity, 3.0)
}

/// ε of the worlds whose queries really crack: at the default ε = 3 a
/// query's region covers all ten points and the stop condition leaves
/// the root alone; at 0.3 the first query of a region wants a split, so
/// its read goes on to take the exclusive side — the late crack.
const CRACKING_EPSILON: f64 = 0.3;

/// Late cracks applied so far.
fn cracks_applied(vkg: &VirtualKnowledgeGraph) -> u64 {
    let applied = vkg.metrics_snapshot().counter(names::CRACKS_APPLIED);
    applied.expect("registered at assembly")
}

/// The tiny world at a given cache capacity and ε.
fn tiny_vkg_tuned(cache_capacity: usize, epsilon: f64) -> (VirtualKnowledgeGraph, RelationId) {
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
        epsilon,
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

/// The read protocol on one facade: two readers, at two relations' query
/// points, traverse under the shared guard and crack late (ε is tight,
/// so their first traversals want a split and go on to the exclusive
/// side); a third holds the shared guard and re-reads the epochs inside
/// it, twice; a writer publishes; a drain barrier takes the exclusive
/// side with nothing to do. On every explored interleaving the pin is
/// exact under the shared guard, epochs are monotone, no lock is taken
/// out of order and nothing deadlocks — in particular no reader asks for
/// the exclusive side while it still holds the shared guard, which the
/// checker reports as a self-deadlock.
#[test]
fn readers_late_cracker_writer_and_quiesce_are_deadlock_free() {
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg_tuned(0, CRACKING_EPSILON);
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
        let pinned = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let mut last = 0;
                for _ in 0..2 {
                    vkg.with_published_index(|pin, _snap, _state| {
                        assert_eq!(
                            (pin.epoch, pin.index_epoch),
                            (vkg.epoch(), vkg.index_epoch()),
                            "no publication can land under the shared guard"
                        );
                        assert!(pin.epoch >= last, "epoch went backwards");
                        last = pin.epoch;
                    });
                }
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
        pinned.join().expect("pinned reader");
        writer.join().expect("writer");
        drainer.join().expect("drainer");
        assert_eq!(vkg.epoch(), 1);
        assert!(cracks_applied(&vkg) > 0, "a reader went exclusive, late");
        vkg.index().check_invariants();
    })
    .unwrap_or_else(|v| panic!("deadlock-freedom model failed: {v}"));
}

/// What an aggregate answers, down to the float bits.
fn aggregate_bits(r: &AggregateResult) -> (u64, usize, usize, u64, u64) {
    let bound = &r.bound;
    (
        r.estimate.to_bits(),
        r.accessed,
        r.ball_size,
        bound.mu.to_bits(),
        bound.increment_mass.to_bits(),
    )
}

/// [`aggregate_bits`] of an answer from the served read.
fn served_bits(answer: &Answer) -> (u64, usize, usize, u64, u64) {
    match answer {
        Answer::Aggregate(r) => aggregate_bits(r),
        Answer::TopK(_) => panic!("an aggregate query answers an aggregate"),
    }
}

/// An aggregate is two rounds of the read protocol — the inner top-1,
/// then the ball — and a write may publish between them. The fact
/// written here makes the query's anchor a known edge and moves both
/// its endpoints, so an answer built from the old anchor and the new
/// ball is neither epoch's answer. The second round re-reads the pin
/// and the query starts over: on every interleaving the answer is,
/// bit for bit, the quiescent answer of the one epoch it reports.
#[test]
fn aggregate_straddling_a_publication_answers_at_one_epoch() {
    let count = AggregateSpec::count(0.05);
    // The quiescent answers at epoch 0 and, after the write, at epoch 1.
    let (twin, likes) = tiny_vkg();
    let u0 = twin.graph().entity_id("u0").expect("u0");
    let m1 = twin.graph().entity_id("m1").expect("m1");
    let mut expected = Vec::new();
    for epoch in 0..2 {
        let r = twin.aggregate(u0, likes, Direction::Tails, &count);
        expected.push(aggregate_bits(&r.expect("valid query")));
        if epoch == 0 {
            let (added, _) = twin.add_fact_dynamic(u0, likes, m1, 8, 0.05).expect("ids");
            assert!(added, "fresh edge");
        }
    }
    assert_ne!(expected[0], expected[1], "the write must move the answer");

    for cache_capacity in [0, 64] {
        let expected = expected.clone();
        let count = count.clone();
        model::sweep(SEEDS, move || {
            let (vkg, likes) = tiny_vkg_cached(cache_capacity);
            let vkg = Arc::new(vkg);
            let writer = {
                let vkg = Arc::clone(&vkg);
                thread::spawn(move || {
                    vkg.add_fact_dynamic(u0, likes, m1, 8, 0.05)
                        .expect("valid ids");
                })
            };
            let reader = {
                let vkg = Arc::clone(&vkg);
                let (expected, count) = (expected.clone(), count.clone());
                thread::spawn(move || {
                    let ask = Query::aggregate(u0, likes, Direction::Tails, count);
                    for _ in 0..2 {
                        let (pin, r) = vkg.execute(&ask, &mut || {}).expect("valid query");
                        assert_eq!(
                            served_bits(&r),
                            expected[pin.epoch as usize],
                            "the answer of epoch {}, whole",
                            pin.epoch
                        );
                    }
                })
            };
            writer.join().expect("writer");
            reader.join().expect("reader");
            assert_eq!(vkg.epoch(), 1);
        })
        .unwrap_or_else(|v| panic!("straddling-aggregate model failed: {v}"));
    }

    // The write lands inside the ball round: the writer starts while the
    // full-access ball read holds the shared guard, so it publishes once
    // the guard is dropped — before the S₁ access and the estimate, or
    // while they run on the snapshot the round pinned. Either way the
    // answer is epoch 0's, whole, and its fill cannot pass for epoch 1's.
    // About one schedule in nine publishes before the estimate reads
    // the snapshot, hence the longer sweep.
    let landed_inside = Arc::new(std::sync::atomic::AtomicU64::new(0));
    for cache_capacity in [0, 64] {
        let expected = expected.clone();
        let count = count.clone();
        let landed_inside = Arc::clone(&landed_inside);
        model::sweep(4 * SEEDS, move || {
            let (vkg, likes) = tiny_vkg_cached(cache_capacity);
            let vkg = Arc::new(vkg);
            let mut guards = 0;
            let mut writer = None;
            let ask = Query::aggregate(u0, likes, Direction::Tails, count.clone());
            let (pin, r) = vkg
                .execute(&ask, &mut || {
                    guards += 1;
                    // The second guard is the ball round's.
                    if guards == 2 {
                        let vkg = Arc::clone(&vkg);
                        writer = Some(thread::spawn(move || {
                            vkg.add_fact_dynamic(u0, likes, m1, 8, 0.05)
                                .expect("valid ids");
                        }));
                    }
                })
                .expect("valid query");
            let published_before_return = vkg.epoch() == 1;
            writer
                .expect("the ball round held a guard")
                .join()
                .expect("writer");
            assert_eq!(pin.epoch, 0, "the ball read ran before the write");
            assert_eq!(served_bits(&r), expected[0], "the answer of epoch 0, whole");
            if published_before_return {
                landed_inside.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            // The next ask is epoch 1's answer, never a late epoch-0 fill.
            let (pin, r) = vkg.execute(&ask, &mut || {}).expect("valid query");
            assert_eq!(pin.epoch, 1);
            assert_eq!(served_bits(&r), expected[1], "the answer of epoch 1");
        })
        .unwrap_or_else(|v| panic!("write-inside-the-ball-round model failed: {v}"));
    }
    assert!(
        landed_inside.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no schedule published before the ball round returned"
    );
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
/// has — `vkg.writer < vkg.index < { vkg.published, vkg.cache }`, with
/// `vkg.wal` under `vkg.writer` — executed once per schedule: the cache
/// on (filled under the shared guard and after it), every read entry
/// point — the shared acquisition and, ε being tight, the late exclusive
/// one after it — the held exclusive entries, every shared-side
/// inspector, and `vkg.writer` with every kind of writer: an entity and
/// an attribute (before the log is armed), WAL replay of a logged
/// record, a tokened fact, an entity refused under `vkg.wal` once the
/// log is armed, and an `index_mut` holder.
/// The checker's acquired-while-holding graph is per run, so executing a
/// nesting once is enough for it to report two locks taken in both
/// orders; a nesting that can block forever shows up as a deadlock.
#[test]
fn every_lock_nesting_on_the_facade_is_walked() {
    let dir = std::env::temp_dir();
    let log = dir.join(format!("vkg_model_{}.wal", std::process::id()));
    // A log holding one record, for the writer thread to replay.
    let logged = dir.join(format!("vkg_model_logged_{}.wal", std::process::id()));
    {
        let _ = std::fs::remove_file(&logged);
        let (vkg, likes) = tiny_vkg_tuned(64, CRACKING_EPSILON);
        vkg.attach_wal(&logged, FaultPlane::none())
            .expect("fresh log");
        let id = |name| vkg.graph().entity_id(name).expect("fixture entity");
        vkg.add_fact_durable(5, id("u0"), likes, id("m2"), 2, 0.01)
            .expect("logged write");
    }
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg_tuned(64, CRACKING_EPSILON);
        let also = vkg.graph().relation_id("also").expect("also");
        std::fs::copy(&logged, &log).expect("copy the logged record");
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
                let items = Filter::NamePrefix("m".into());
                vkg.execute(&Query::top_k(u1, also, tails, 2, Some(items)), &mut || {})
                    .expect("served top-k");
                vkg.execute(
                    &Query::aggregate(u1, also, tails, count.clone()),
                    &mut || {},
                )
                .expect("served aggregate");
                // A hit or not, the peek takes the index lock's shared
                // side, then `vkg.published`, then `vkg.cache`.
                let _ = vkg.cached(
                    &Query::aggregate(u1, also, tails, count.clone()),
                    &mut || {},
                );
                vkg.with_published_index(|pin, _snap, _state| {
                    assert!(pin.index_epoch <= pin.epoch);
                });
                vkg.with_published_shard(likes, |pin, snap, state| {
                    vkg.top_k_pinned(pin, snap, state, u0, likes, tails, 2)
                        .expect("pinned top-k");
                    vkg.top_k_filtered_pinned(
                        pin,
                        snap,
                        state,
                        u0,
                        likes,
                        tails,
                        2,
                        Some(b"all"),
                        &|_| true,
                    )
                    .expect("pinned filtered top-k");
                    vkg.aggregate_pinned(pin, snap, state, u0, likes, tails, &count)
                        .expect("pinned aggregate");
                });
                vkg.metrics_snapshot();
                vkg.index_stats();
                assert!(vkg.index_node_count() > 0 && vkg.index_bytes() > 0);
            })
        };
        let writer = {
            let vkg = Arc::clone(&vkg);
            let log = log.clone();
            thread::spawn(move || {
                vkg.add_entity_dynamic("m_fresh", &vec![30.0; dim])
                    .expect("well-shaped embedding");
                vkg.set_attribute_dynamic("year", m1, 1999.0)
                    .expect("known entity");
                let report = vkg.attach_wal(&log, FaultPlane::none()).expect("replay");
                assert_eq!(report.replayed, 1);
                let (added, _) = vkg
                    .add_fact_durable(7, u1, likes, m4, 2, 0.01)
                    .expect("logged write");
                assert!(added, "fresh edge");
                let unlogged = vkg.add_entity_dynamic("m_late", &vec![30.0; dim]);
                assert!(matches!(unlogged, Err(VkgError::Durability(_))));
                vkg.index_mut().check_invariants();
                vkg.quiesce();
            })
        };
        reader.join().expect("reader");
        writer.join().expect("writer");
        assert_eq!(vkg.epoch(), 4, "one publication per write");
        assert!(cracks_applied(&vkg) > 0, "a read went exclusive, late");
        vkg.index().check_invariants();
    })
    .unwrap_or_else(|v| panic!("lock-nesting model failed: {v}"));
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&logged);
}

/// Writers of every kind at once — WAL replay, a logged fact, an entity,
/// an attribute — beside a reader: they are ordered by `vkg.writer`, so
/// each builds on the snapshot the one before it published and no
/// update is lost, and each logged record carries the epoch its write
/// published. An entity or attribute write ordered after the replay
/// armed the log is refused, typed, and publishes nothing.
#[test]
fn concurrent_writers_of_every_kind_lose_no_update() {
    let dir = std::env::temp_dir();
    let log = dir.join(format!("vkg_model_writers_{}.wal", std::process::id()));
    let logged = dir.join(format!(
        "vkg_model_writers_logged_{}.wal",
        std::process::id()
    ));
    {
        let _ = std::fs::remove_file(&logged);
        let (vkg, likes) = tiny_vkg();
        vkg.attach_wal(&logged, FaultPlane::none())
            .expect("fresh log");
        let id = |name| vkg.graph().entity_id(name).expect("fixture entity");
        vkg.add_fact_durable(5, id("u0"), likes, id("m2"), 2, 0.01)
            .expect("logged write");
    }
    model::sweep(SEEDS, || {
        let (vkg, likes) = tiny_vkg();
        std::fs::copy(&logged, &log).expect("copy the logged record");
        let vkg = Arc::new(vkg);
        let id = |name| vkg.graph().entity_id(name).expect("fixture entity");
        let (u0, u2, m2, m4, m5) = (id("u0"), id("u2"), id("m2"), id("m4"), id("m5"));
        let dim = vkg.embeddings().dim();

        let replay = {
            let vkg = Arc::clone(&vkg);
            let log = log.clone();
            thread::spawn(move || {
                vkg.attach_wal(&log, FaultPlane::none()).expect("replay");
            })
        };
        let fact = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                vkg.add_fact_durable(9, u2, likes, m4, 2, 0.01)
                    .expect("valid ids")
            })
        };
        // Applied, or refused (typed) because replay armed the log first.
        let landed = |r: Result<(), VkgError>| !matches!(r, Err(VkgError::Durability(_)));
        let entity = {
            let (vkg, row) = (Arc::clone(&vkg), vec![30.0; dim]);
            thread::spawn(move || landed(vkg.add_entity_dynamic("m_fresh", &row).map(drop)))
        };
        let attribute = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || landed(vkg.set_attribute_dynamic("year", m5, 2024.0)))
        };
        let reader = {
            let vkg = Arc::clone(&vkg);
            thread::spawn(move || {
                let count = AggregateSpec::count(0.05);
                vkg.aggregate(u0, likes, Direction::Tails, &count)
                    .expect("aggregate");
            })
        };
        replay.join().expect("replay");
        let (added, epoch) = fact.join().expect("fact writer");
        let entity = entity.join().expect("entity writer");
        let attribute = attribute.join().expect("attribute writer");
        reader.join().expect("reader");

        assert!(added, "fresh edge");
        let published = 2 + u64::from(entity) + u64::from(attribute);
        assert_eq!(vkg.epoch(), published, "one publication per applied write");
        let snap = vkg.snapshot();
        assert!(snap.graph().has_edge(u0, likes, m2), "the replayed fact");
        assert!(snap.graph().has_edge(u2, likes, m4), "the logged fact");
        let fresh = snap.graph().entity_id("m_fresh").is_some();
        assert_eq!(fresh, entity, "the entity");
        let year = snap.attributes().get("year", m5).expect("year column");
        assert_eq!(year == Some(2024.0), attribute, "the attribute");
        vkg.index().check_invariants();
        // The fact's record: logged with the epoch it published, unless
        // it ran before replay armed the log.
        let (records, _) = vkg_core::wal::replay(&log).expect("log readable");
        if let Some(record) = records.iter().find(|r| r.token == 9) {
            assert_eq!(record.epoch, epoch, "the record names its epoch");
        }
    })
    .unwrap_or_else(|v| panic!("concurrent-writers model failed: {v}"));
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_file(&logged);
}
