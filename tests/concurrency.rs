//! Concurrency: the assembled engine is `Send`, read paths are shareable,
//! and the facade serves a multi-threaded query workload — its readers
//! side by side under the index lock's shared guard, cracking late —
//! with results identical to a single-threaded twin's.
//!
//! The snapshot-readers-vs-one-writer scenario is defined **once**
//! ([`snapshot_readers_vs_writer_scenario`]) and exercised two ways: as
//! an ordinary multi-threaded test, and — under `--features model` —
//! through `vkg-sync`'s seeded model scheduler, which serializes the
//! same threads onto explored interleavings and checks for data races,
//! lock-order inversions, and deadlocks along the way.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

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

    // Parallel run: the facade needs no outer lock — the threads
    // traverse side by side and each applies its own late crack.
    let shared = Arc::new(vkg);
    let mut handles = Vec::new();
    for (qi, &u) in users.iter().enumerate() {
        let shared = Arc::clone(&shared);
        handles.push(std::thread::spawn(move || {
            let r = shared.top_k(u, likes, Direction::Tails, 5).unwrap();
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
    shared.index().check_invariants();
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
                    let (epoch, bits, _) = ask(&vkg, &query);
                    answers.push((epoch, bits));
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
    let mut at_rest: Vec<Vec<Bits>> = Vec::new();
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

/// The world of the threaded differential tests: 20 000 entities, where
/// a query's ball is a small part of the tree and cracks keep landing
/// for the whole run.
fn big_world() -> &'static (Dataset, EmbeddingStore) {
    static WORLD: OnceLock<(Dataset, EmbeddingStore)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = freebase_like(&FreebaseConfig::default());
        assert!(ds.graph.num_entities() >= 20_000);
        let embeddings = vkg::embed::least_squares_embedding(
            &ds.graph,
            &vkg::embed::LsConfig {
                dim: 32,
                ..Default::default()
            },
        );
        (ds, embeddings)
    })
}

fn big_engine(cache_capacity: usize) -> VirtualKnowledgeGraph {
    let (ds, embeddings) = big_world();
    VirtualKnowledgeGraph::assemble(
        ds.graph.clone(),
        ds.attributes.clone(),
        embeddings.clone(),
        VkgConfig {
            cache_capacity,
            epsilon: 0.5,
            ..VkgConfig::default()
        },
    )
}

/// Everything of an answer that is a function of (snapshot, query), down
/// to the float bits. `candidates_examined` depends on how far the tree
/// is cracked and stays out.
#[derive(Debug, PartialEq)]
enum Bits {
    TopK(Vec<(u32, u64, u64)>, (u64, u64), u64),
    Aggregate(u64, (u64, u64), usize, usize),
}

fn bits(answer: &Answer) -> Bits {
    match answer {
        Answer::TopK(r) => {
            let predictions = r
                .predictions
                .iter()
                .map(|p| (p.id, p.distance.to_bits(), p.probability.to_bits()));
            let guarantee = (
                r.guarantee.success_probability.to_bits(),
                r.guarantee.expected_misses.to_bits(),
            );
            Bits::TopK(predictions.collect(), guarantee, r.s1_evals)
        }
        Answer::Aggregate(r) => {
            let bound = (r.bound.mu.to_bits(), r.bound.increment_mass.to_bits());
            Bits::Aggregate(r.estimate.to_bits(), bound, r.accessed, r.ball_size)
        }
    }
}

/// `lanes` fixed streams of `per_lane` reads each — half plain top-k, a
/// quarter filtered, a quarter full-access aggregates — over query keys
/// taken from the graph's own triples. Lanes overlap in keys, so with
/// the cache on one lane's fill is another's hit.
fn streams(lanes: usize, per_lane: usize) -> Vec<Vec<Query>> {
    let (ds, _) = big_world();
    let triples = ds.graph.triples();
    let entities = ds.graph.num_entities() as u32;
    (0..lanes)
        .map(|lane| {
            (0..per_lane)
                .map(|i| {
                    let n = lane * per_lane / 2 + i;
                    let t = &triples[n * 97 % triples.len()];
                    let (entity, direction) = match n % 3 {
                        0 => (t.tail, Direction::Heads),
                        _ => (t.head, Direction::Tails),
                    };
                    let top_k = |k, filter| Query::top_k(entity, t.relation, direction, k, filter);
                    let aggregate = |spec| Query::aggregate(entity, t.relation, direction, spec);
                    match n % 8 {
                        0 | 4 => {
                            let lo = (n as u32 * 7_919) % entities;
                            let hi = lo + entities / 4;
                            top_k(10, Some(Filter::IdRange { lo, hi }))
                        }
                        2 => aggregate(AggregateSpec::count(0.5)),
                        6 => aggregate(AggregateSpec::of(AggregateKind::Sum, "age", 0.6)),
                        _ => top_k([10, 5, 1][n % 3], None),
                    }
                })
                .collect()
        })
        .collect()
}

/// Asks `q` through the facade's served read (the result cache, when
/// on, is in the path): the global epoch the answer was computed at, its
/// bits, and the `(candidates_examined, s1_evals)` a top-k reports.
fn ask(vkg: &VirtualKnowledgeGraph, q: &Query) -> (u64, Bits, (u64, u64)) {
    let (pin, answer) = vkg.execute(q, &mut || {}).expect("valid query");
    let counts = match &answer {
        Answer::TopK(r) => (r.candidates_examined, r.s1_evals),
        Answer::Aggregate(_) => (0, 0),
    };
    (pin.epoch, bits(&answer), counts)
}

/// Fresh facts (no such edge yet), one publication each.
fn fresh_facts(count: usize) -> Vec<(EntityId, RelationId, EntityId)> {
    let (ds, _) = big_world();
    let triples = ds.graph.triples();
    (0..)
        .map(|i| {
            let (a, b) = (
                &triples[i * 131 % triples.len()],
                &triples[(i * 211 + 7) % triples.len()],
            );
            (a.head, a.relation, b.tail)
        })
        .filter(|&(h, r, t)| !ds.graph.has_edge(h, r, t))
        .take(count)
        .collect()
}

/// Four threads drive fixed mixed streams against **one** cracking
/// facade — traversing side by side under the shared guard, each
/// applying its own late cracks — while, in the `writes` variant, a
/// fifth publishes fresh facts in step with their progress. Every
/// answer must equal, bit for bit, what a single-threaded cache-off twin
/// answers for the same query at the same epoch; the tree must be whole
/// at the end.
fn differential(cache_capacity: usize, writes: usize) {
    const LANES: usize = 4;
    const PER_LANE: usize = 48;
    let vkg = big_engine(cache_capacity);
    let lanes = streams(LANES, PER_LANE);
    let facts = fresh_facts(writes);
    let done = AtomicUsize::new(0);
    let start = Barrier::new(LANES + 1);
    let answered: Vec<Vec<(u64, Bits)>> = std::thread::scope(|scope| {
        let readers: Vec<_> = lanes
            .iter()
            .map(|lane| {
                scope.spawn(|| {
                    start.wait();
                    lane.iter()
                        .map(|q| {
                            let (epoch, bits, _) = ask(&vkg, q);
                            done.fetch_add(1, Ordering::SeqCst);
                            (epoch, bits)
                        })
                        .collect()
                })
            })
            .collect();
        // The writer is paced by the readers' progress, not by the
        // clock: write `j` lands once `j/writes` of the reads are in, so
        // every run spreads the publications over the whole stream.
        start.wait();
        for (j, &(h, r, t)) in facts.iter().enumerate() {
            while done.load(Ordering::SeqCst) < j * LANES * PER_LANE / writes {
                std::thread::yield_now();
            }
            let (added, epoch) = vkg.add_fact_dynamic(h, r, t, 2, 0.05).expect("valid ids");
            assert_eq!((added, epoch), (true, j as u64 + 1));
        }
        readers
            .into_iter()
            .map(|reader| reader.join().expect("reader"))
            .collect()
    });
    vkg.index().check_invariants();

    // The twin walks the epochs once, answering at each the reads the
    // threads were answered at it.
    let twin = big_engine(0);
    let mut epochs_read = 0;
    for epoch in 0..=writes as u64 {
        let mut any = false;
        for (lane, answers) in lanes.iter().zip(&answered) {
            for (i, (q, (at, bits))) in lane.iter().zip(answers).enumerate() {
                if *at == epoch {
                    any = true;
                    assert_eq!(*bits, ask(&twin, q).1, "read {i} at epoch {epoch}: {q:?}");
                }
            }
        }
        epochs_read += usize::from(any);
        if let Some(&(h, r, t)) = facts.get(epoch as usize) {
            twin.add_fact_dynamic(h, r, t, 2, 0.05).expect("valid ids");
        }
    }
    if writes > 0 {
        assert!(epochs_read > 2, "reads landed at {epochs_read} epochs");
    } else if cache_capacity == 0 {
        // S₁ evaluations are a function of (snapshot, query) too — of a
        // top-k and of a full-access aggregate alike — so with nothing
        // cached the two facades counted the same number of them.
        assert_eq!(
            vkg.index_stats().s1_distance_evals,
            twin.index_stats().s1_distance_evals
        );
    }
}

#[test]
fn threaded_reads_equal_a_single_threaded_twin() {
    differential(0, 0);
    differential(1024, 0);
}

#[test]
fn threaded_reads_beside_a_writer_equal_a_twin_at_the_same_epoch() {
    differential(0, 12);
    differential(1024, 12);
}

/// No update of the access counters is lost. Four threads of top-k reads
/// (plain and filtered, cache off) bump the facade's counters
/// concurrently; afterwards `points_examined` and `s1_distance_evals`
/// must equal the sums of what the answers themselves report.
#[test]
fn access_counters_equal_the_sums_of_the_answers() {
    let vkg = big_engine(0);
    let lanes: Vec<Vec<Query>> = streams(4, 48)
        .into_iter()
        .map(|lane| {
            lane.into_iter()
                .filter(|q| !matches!(q.op, QueryOp::Aggregate(_)))
                .collect()
        })
        .collect();
    let start = Barrier::new(lanes.len());
    let (examined, evals) = std::thread::scope(|scope| {
        let readers: Vec<_> = lanes
            .iter()
            .map(|lane| {
                scope.spawn(|| {
                    start.wait();
                    lane.iter().fold((0, 0), |sum, q| {
                        let (_, _, counts) = ask(&vkg, q);
                        (sum.0 + counts.0, sum.1 + counts.1)
                    })
                })
            })
            .collect();
        readers.into_iter().fold((0, 0), |sum, reader| {
            let lane = reader.join().expect("reader");
            (sum.0 + lane.0, sum.1 + lane.1)
        })
    });
    let stats = vkg.index_stats();
    assert_eq!(stats.points_examined, examined);
    assert_eq!(stats.s1_distance_evals, evals);
    assert!(stats.elements_accessed > 0 && stats.elements_accessed <= examined);
}

/// The same for all three counters, where every call's share is known:
/// the contour reads take `&self`, so four threads share one index by
/// reference — nothing cracks, the tree stands still — and the totals
/// must be exactly four times what one pass over the calls adds.
#[test]
fn contour_reads_share_an_index_without_losing_counts() {
    let (ds, embeddings) = big_world();
    let snap = VkgSnapshot::new(
        ds.graph.clone(),
        ds.attributes.clone(),
        embeddings.clone(),
        VkgConfig::default(),
    )
    .expect("consistent world");
    let mut state = IndexState::cracking(&snap);
    let centers: Vec<Vec<f64>> = (0..40u32)
        .map(|i| state.index().points().point(i * 487).to_vec())
        .collect();
    for c in &centers[..20] {
        state
            .index_mut()
            .crack(&vkg::core::geometry::Mbr::of_ball(c, 0.2));
    }
    let index = state.index();
    let pass = || {
        for c in &centers {
            let ball = vkg::core::geometry::Mbr::of_ball(c, 0.3);
            index.search_region(&ball, |_| {});
            index.search_region_elements(&ball, |_, _| {});
            let seen = index.nearest_first(c, 0.09, |_, _| 0.09);
            index.count_s1_evals(seen);
        }
    };
    let before = index.stats();
    pass();
    let once = index.stats();
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                start.wait();
                pass();
            });
        }
    });
    let after = index.stats();
    for (name, count) in [
        ("elements_accessed", |s: &IndexStats| s.elements_accessed),
        ("points_examined", |s: &IndexStats| s.points_examined),
        ("s1_distance_evals", |s: &IndexStats| s.s1_distance_evals),
    ] as [(&str, fn(&IndexStats) -> u64); 3]
    {
        let share = count(&once) - count(&before);
        assert!(share > 0, "{name} must move");
        assert_eq!(count(&after) - count(&once), 4 * share, "{name}");
    }
}
