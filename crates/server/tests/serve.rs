//! End-to-end serving tests against a live loopback server: concurrent
//! clients + a dynamic writer, epoch-consistent answers matching the
//! in-process engine, explicit load shedding under an undersized queue,
//! deadline enforcement, graceful drain, and fail-closed handling of
//! malformed frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use vkg_core::query::aggregate::AggregateKind;
use vkg_core::vkg::VirtualKnowledgeGraph;
use vkg_core::{AggregateResult, AggregateSpec, Answer, Direction, Query, VkgConfig, VkgError};
use vkg_embed::{TransE, TransEConfig};
use vkg_kg::datasets::{movie_like, MovieConfig};
use vkg_kg::{EntityId, RelationId};
use vkg_obs::{Clock, SpanOutcome};
use vkg_server::wire::{read_frame, write_frame, MAX_FRAME};
use vkg_server::{
    AggregateWire, Client, ClientError, ErrorCode, Request, RequestOp, Response, Server,
    ServerConfig, TopKWire,
};

/// Users occupy ids `0..60` and movies `60..180` in the tiny movie
/// dataset; relation 0 is valid for every query direction.
const USERS: u32 = 60;
const MOVIES: u32 = 120;

fn build_vkg() -> Arc<VirtualKnowledgeGraph> {
    build_vkg_with(VkgConfig::default())
}

fn build_vkg_with(config: VkgConfig) -> Arc<VirtualKnowledgeGraph> {
    let ds = movie_like(&MovieConfig::tiny());
    let (embeddings, _) = TransE::new(TransEConfig {
        dim: 16,
        epochs: 6,
        ..TransEConfig::default()
    })
    .train(&ds.graph);
    Arc::new(VirtualKnowledgeGraph::assemble(
        ds.graph,
        ds.attributes,
        embeddings,
        config,
    ))
}

fn start(vkg: &Arc<VirtualKnowledgeGraph>, cfg: ServerConfig) -> vkg_server::ServerHandle {
    Server::start(Arc::clone(vkg), "127.0.0.1:0", cfg).expect("bind loopback")
}

/// The headline acceptance test: ≥4 concurrent clients issue top-k and
/// aggregate queries against a live loopback server while a writer
/// appends dynamic facts. Every accepted request gets a well-formed
/// response; after the writer stops, responses match the in-process
/// engine at the same (final) snapshot epoch.
#[test]
fn concurrent_clients_with_dynamic_writer_match_engine() {
    let vkg = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 4,
            queue_capacity: 512,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Phase 1: query storm under concurrent writes.
    let writer = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("writer connects");
        let mut published = 0u64;
        for i in 0..16u32 {
            let (added, epoch) = client
                .add_fact(
                    EntityId(i % USERS),
                    RelationId(0),
                    EntityId(USERS + (i * 7) % MOVIES),
                    2,
                    0.01,
                )
                .expect("dynamic write is answered");
            if added {
                published = epoch;
            }
            thread::sleep(Duration::from_millis(2));
        }
        published
    });

    let readers: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                let mut last_epoch = 0u64;
                for i in 0..30u32 {
                    let entity = EntityId((t * 13 + i) % USERS);
                    if i % 2 == 0 {
                        let top = client
                            .top_k(entity, RelationId(0), Direction::Tails, 5)
                            .expect("top-k is answered");
                        assert!(top.predictions.len() <= 5);
                        for w in top.predictions.windows(2) {
                            assert!(w[0].distance <= w[1].distance, "ascending by distance");
                        }
                        assert!(top.epoch >= last_epoch, "epochs never move backwards");
                        last_epoch = top.epoch;
                    } else {
                        let agg = client
                            .aggregate(
                                entity,
                                RelationId(0),
                                Direction::Tails,
                                AggregateKind::Count,
                                None,
                                0.05,
                                None,
                            )
                            .expect("aggregate is answered");
                        assert!(agg.estimate >= 0.0);
                        assert!(agg.epoch >= last_epoch, "epochs never move backwards");
                        last_epoch = agg.epoch;
                    }
                }
                last_epoch
            })
        })
        .collect();

    let final_write_epoch = writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }
    assert!(final_write_epoch > 0, "the writer published new epochs");

    // Phase 2: the writer is quiet, so the epoch is pinned; remote
    // answers must now equal the in-process engine's bit-for-bit.
    let final_epoch = vkg.epoch();
    assert!(final_epoch >= final_write_epoch);
    let mut client = Client::connect(addr).expect("verification client connects");
    for t in 0..4u32 {
        let entity = EntityId((t * 17) % USERS);
        let remote = client
            .top_k(entity, RelationId(0), Direction::Tails, 5)
            .expect("top-k answered");
        assert_eq!(remote.epoch, final_epoch, "answer pinned to the live epoch");
        let local = vkg
            .top_k(entity, RelationId(0), Direction::Tails, 5)
            .expect("in-process answer");
        assert_eq!(remote.predictions.len(), local.predictions.len());
        for (rp, lp) in remote.predictions.iter().zip(&local.predictions) {
            assert_eq!(rp.id, lp.id);
            assert_eq!(rp.distance, lp.distance);
            assert_eq!(rp.probability, lp.probability);
        }
        assert_eq!(
            remote.success_probability,
            local.guarantee.success_probability
        );

        let remote_agg = client
            .aggregate(
                entity,
                RelationId(0),
                Direction::Tails,
                AggregateKind::Count,
                None,
                0.05,
                None,
            )
            .expect("aggregate answered");
        assert_eq!(remote_agg.epoch, final_epoch);
        let spec = vkg_core::AggregateSpec::count(0.05);
        let local_agg = vkg
            .aggregate(entity, RelationId(0), Direction::Tails, &spec)
            .expect("in-process aggregate");
        assert_eq!(remote_agg.estimate, local_agg.estimate);
        assert_eq!(remote_agg.ball_size as usize, local_agg.ball_size);
    }

    // Every admitted request was answered.
    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
    assert_eq!(counters.shed, 0, "the full-size queue never shed");
}

/// With a deliberately undersized queue and a slow worker, concurrent
/// clients are shed with a typed `Overloaded` response — the server
/// neither stalls nor panics, and every admitted request is answered.
#[test]
fn undersized_queue_sheds_with_typed_overloaded() {
    let vkg = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            worker_think_time: Some(Duration::from_millis(40)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                barrier.wait();
                match client.top_k(
                    EntityId(t as u32 % USERS),
                    RelationId(0),
                    Direction::Tails,
                    3,
                ) {
                    Ok(_) => (1u32, 0u32),
                    Err(ClientError::Server(e)) => {
                        assert_eq!(e.code, ErrorCode::Overloaded, "only overload refusals");
                        (0, 1)
                    }
                    Err(other) => panic!("no transport errors under overload: {other}"),
                }
            })
        })
        .collect();

    let (mut ok, mut shed) = (0, 0);
    for t in threads {
        let (o, s) = t.join().expect("client thread");
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, clients as u32, "every request got a response");
    assert!(ok >= 1, "the admitted requests completed");
    assert!(shed >= 1, "the undersized queue shed load");

    // Every client has its answer, so the queue is drained: the
    // exported gauges already agree with what the clients counted.
    let m = handle.metrics(0);
    let gauge = |name| m.snapshot.gauge(name).expect("exported gauge");
    assert_eq!(gauge("server.shed"), u64::from(shed), "exported shed");
    assert_eq!(gauge("server.admitted"), gauge("server.answered"));

    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
    assert_eq!(counters.shed as u32, shed);
}

/// Requests that overstay their deadline in the queue are refused with
/// `DeadlineExceeded` instead of being executed late.
#[test]
fn queued_requests_past_deadline_are_refused() {
    let vkg = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            worker_think_time: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                client.set_deadline(Some(Duration::from_millis(10)));
                barrier.wait();
                match client.top_k(
                    EntityId(t as u32 % USERS),
                    RelationId(0),
                    Direction::Tails,
                    3,
                ) {
                    Ok(_) => 0u32,
                    Err(ClientError::Server(e)) => {
                        assert_eq!(e.code, ErrorCode::DeadlineExceeded);
                        1
                    }
                    Err(other) => panic!("unexpected failure kind: {other}"),
                }
            })
        })
        .collect();

    let expired: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        expired >= 1,
        "queued-behind-a-slow-worker requests expired their 10ms deadline"
    );
    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
    assert_eq!(counters.deadline_expired as u32, expired);
}

/// Regression test for the deadline re-check: a request is checked
/// against *its own* deadline when the worker pops it — after the
/// requests ahead of it consumed real time — not when it was admitted.
/// Without the re-check, requests at the back of the queue would
/// execute (and bill their think time) long past the deadline the
/// client was promised.
///
/// One worker with a 25ms think time serves 8 read requests carrying
/// 60ms deadlines: the front of the queue answers in time, and requests
/// queued behind ≥2 others' think time must be refused with
/// `DeadlineExceeded` — never executed late, never dropped. Every
/// refusal skipped its execution: the worker executed exactly the
/// requests it answered.
#[test]
fn requests_expiring_behind_a_slow_worker_are_refused_not_executed() {
    let vkg = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            worker_think_time: Some(Duration::from_millis(25)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let clients = 8;
    let barrier = Arc::new(Barrier::new(clients));
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                client.set_deadline(Some(Duration::from_millis(60)));
                barrier.wait();
                match client.top_k(
                    EntityId(t as u32 % USERS),
                    RelationId(0),
                    Direction::Tails,
                    3,
                ) {
                    Ok(_) => (1u32, 0u32),
                    Err(ClientError::Server(e)) => {
                        assert_eq!(e.code, ErrorCode::DeadlineExceeded);
                        (0, 1)
                    }
                    Err(other) => panic!("unexpected failure kind: {other}"),
                }
            })
        })
        .collect();

    let (mut ok, mut expired) = (0u32, 0u32);
    for t in threads {
        let (o, e) = t.join().expect("client thread");
        ok += o;
        expired += e;
    }
    assert_eq!(ok + expired, clients as u32, "every request got a response");
    assert!(ok >= 1, "the front of the queue answered within deadline");
    assert!(
        expired >= 1,
        "requests queued behind others' think time expired"
    );

    // Refused means not executed: the worker ran the engine once per
    // answer it gave and never for a refusal.
    let mut probe = Client::connect(addr).expect("metrics client connects");
    let m = probe.metrics(0).expect("metrics answered");
    let executed = m
        .snapshot
        .counter("server.lock_rounds")
        .expect("lock rounds");
    assert_eq!(
        executed,
        u64::from(ok),
        "one execution per answer, none per refusal"
    );

    drop(probe);
    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered, "no request dropped");
    assert_eq!(counters.deadline_expired as u32, expired);
}

/// The result cache on a live server whose four workers read side by
/// side: concurrent repeat-heavy readers with a dynamic writer, then
/// quiescent top-k and full-accuracy COUNT answers, cached ones
/// included, verified bit-for-bit against a cache-free recompute. The
/// cache must actually hit — while every admitted request is still
/// answered.
#[test]
fn cached_serving_stays_correct_under_writes() {
    let ds = movie_like(&MovieConfig::tiny());
    let (embeddings, _) = TransE::new(TransEConfig {
        dim: 16,
        epochs: 6,
        ..TransEConfig::default()
    })
    .train(&ds.graph);
    let vkg = Arc::new(VirtualKnowledgeGraph::assemble(
        ds.graph,
        ds.attributes,
        embeddings,
        VkgConfig {
            cache_capacity: 1024,
            ..VkgConfig::default()
        },
    ));
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 4,
            queue_capacity: 512,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let writer = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("writer connects");
        for i in 0..12u32 {
            client
                .add_fact(
                    EntityId(i % USERS),
                    RelationId(0),
                    EntityId(USERS + (i * 7) % MOVIES),
                    2,
                    0.01,
                )
                .expect("dynamic write is answered");
            thread::sleep(Duration::from_millis(3));
        }
    });
    // A tiny entity window and repeated k keep the workload cache-hot.
    let readers: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                for i in 0..40u32 {
                    let entity = EntityId((t + i) % 4);
                    let relation = RelationId(i % 2);
                    let top = client
                        .top_k(entity, relation, Direction::Tails, 5)
                        .expect("top-k is answered");
                    assert!(top.predictions.len() <= 5);
                    for w in top.predictions.windows(2) {
                        assert!(w[0].distance <= w[1].distance, "ascending by distance");
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }

    // Quiescent: each key is asked twice over the wire, so the second
    // answer is a cache hit, and both must equal a cache-free recompute
    // (the read halves alone, under the shared guard) at the same
    // published state — bit for bit, guarantee and aggregate bound
    // included. `vkg.top_k` would be served from the same cache.
    let mut client = Client::connect(addr).expect("verification client");
    let hits = |client: &mut Client| {
        let m = client.metrics(0).expect("metrics answered");
        m.snapshot.counter("core.cache.hit").expect("hit counter")
    };
    let hits_before = hits(&mut client);
    let spec = AggregateSpec::count(0.05);
    let mut keys = 0u64;
    for entity in (0..4u32).map(EntityId) {
        for relation in (0..2u32).map(RelationId) {
            let (local, _) = vkg
                .with_published_index(|_pin, snap, state| {
                    state.top_k_read(snap, entity, relation, Direction::Tails, 5, &|_| true)
                })
                .expect("cache-free top-k");
            let local_agg = vkg
                .with_published_index(|_pin, snap, state| -> Result<_, VkgError> {
                    let (nearest, _) =
                        state.aggregate_anchor(snap, entity, relation, Direction::Tails, &spec)?;
                    let Some(nearest) = nearest else {
                        return Ok(AggregateResult::empty());
                    };
                    state
                        .aggregate_ball(snap, entity, relation, Direction::Tails, &spec, &nearest)
                        .map(|(answer, _)| answer)
                })
                .expect("cache-free aggregate");
            for _ in 0..2 {
                let remote = client
                    .top_k(entity, relation, Direction::Tails, 5)
                    .expect("top-k answered");
                assert_eq!(remote.predictions.len(), local.predictions.len());
                for (rp, lp) in remote.predictions.iter().zip(&local.predictions) {
                    assert_eq!(rp.id, lp.id);
                    assert_eq!(rp.distance.to_bits(), lp.distance.to_bits());
                    assert_eq!(rp.probability.to_bits(), lp.probability.to_bits());
                }
                assert_eq!(
                    remote.success_probability.to_bits(),
                    local.guarantee.success_probability.to_bits()
                );
                assert_eq!(
                    remote.expected_misses.to_bits(),
                    local.guarantee.expected_misses.to_bits()
                );

                let remote_agg = client
                    .aggregate(
                        entity,
                        relation,
                        Direction::Tails,
                        AggregateKind::Count,
                        None,
                        0.05,
                        None,
                    )
                    .expect("aggregate answered");
                assert_eq!(remote_agg.estimate.to_bits(), local_agg.estimate.to_bits());
                assert_eq!(remote_agg.mu.to_bits(), local_agg.bound.mu.to_bits());
                assert_eq!(
                    remote_agg.increment_mass.to_bits(),
                    local_agg.bound.increment_mass.to_bits()
                );
                assert_eq!(remote_agg.ball_size as usize, local_agg.ball_size);
            }
            keys += 1;
        }
    }
    // At least every second ask of a top-k and of an aggregate was a hit.
    assert!(
        hits(&mut client) - hits_before >= 2 * keys,
        "the repeated asks were served from the cache"
    );

    drop(client);
    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
    vkg.index().check_invariants();
}

/// Every bit of a top-k answer on the wire.
fn top_k_bits(w: &TopKWire) -> Vec<u64> {
    let mut bits = vec![
        w.epoch,
        w.success_probability.to_bits(),
        w.expected_misses.to_bits(),
        w.s1_evals,
        w.candidates_examined,
    ];
    for p in &w.predictions {
        bits.extend([
            u64::from(p.id),
            p.distance.to_bits(),
            p.probability.to_bits(),
        ]);
    }
    bits
}

/// Every bit of an aggregate answer on the wire.
fn aggregate_bits(w: &AggregateWire) -> [u64; 6] {
    [
        w.epoch,
        w.estimate.to_bits(),
        w.accessed,
        w.ball_size,
        w.mu.to_bits(),
        w.increment_mass.to_bits(),
    ]
}

/// A cache hit is answered by the connection thread that read it: with
/// every worker asleep for `think` per job, a repeated top-k (its `k`
/// clamped to the entity count before the probe, as the worker clamps
/// it) and a repeated COUNT come back long before `think` elapses,
/// bit-identical to the first, computed answer and to a cache-free
/// twin's. The inline answers keep the books: each is admitted and
/// answered, takes one lock round, is a `core.queries` query and a span
/// that spent no time queued; each cacheable read is counted once in
/// `core.cache.hit + core.cache.miss`, and a stale entry is left for the
/// worker, whose probe removes and counts it.
#[test]
fn cache_hits_are_answered_on_the_connection_thread() {
    let think = Duration::from_millis(400);
    let vkg = build_vkg_with(VkgConfig {
        cache_capacity: 64,
        ..VkgConfig::default()
    });
    let twin = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 1,
            worker_think_time: Some(think),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let (entity, relation, tails) = (EntityId(3), RelationId(0), Direction::Tails);
    let entities = twin.graph().num_entities();
    let timed = |call: &mut dyn FnMut() -> Vec<u64>| {
        let sent = Instant::now();
        let bits = call();
        (bits, sent.elapsed())
    };
    let top_k = |client: &mut Client| {
        let answer = client
            .top_k(entity, relation, tails, u32::MAX as usize)
            .expect("top-k is answered");
        top_k_bits(&answer)
    };
    let (computed, slow) = timed(&mut || top_k(&mut client));
    let (cached, fast) = timed(&mut || top_k(&mut client));
    assert!(slow >= think, "the first ask is computed by a worker");
    assert!(fast < think, "the repeat never reached a worker: {fast:?}");
    assert_eq!(cached, computed, "a hit is the computed answer");
    let query = Query::top_k(entity, relation, tails, entities, None);
    let Ok((pin, Answer::TopK(r))) = twin.execute(&query, &mut || {}) else {
        panic!("the twin answers a top-k");
    };
    assert_eq!(cached, top_k_bits(&TopKWire::from_result(pin.epoch, &r)));

    let spec = AggregateSpec::count(0.05);
    let count = |client: &mut Client| {
        let answer = client
            .aggregate(
                entity,
                relation,
                tails,
                AggregateKind::Count,
                None,
                0.05,
                None,
            )
            .expect("COUNT is answered");
        aggregate_bits(&answer).to_vec()
    };
    let (computed, slow) = timed(&mut || count(&mut client));
    let (cached, fast) = timed(&mut || count(&mut client));
    assert!(slow >= think, "the first COUNT is computed by a worker");
    assert!(
        fast < think,
        "the repeated COUNT never reached a worker: {fast:?}"
    );
    assert_eq!(cached, computed, "a hit is the computed answer");
    let query = Query::aggregate(entity, relation, tails, spec);
    let Ok((pin, Answer::Aggregate(r))) = twin.execute(&query, &mut || {}) else {
        panic!("the twin answers a COUNT");
    };
    assert_eq!(
        cached,
        aggregate_bits(&AggregateWire::from_result(pin.epoch, &r))
    );

    // A write makes the top-k's entry stale: the peek leaves it, and the
    // worker's probe removes it, counts it and recomputes.
    client
        .add_fact(EntityId(0), RelationId(0), EntityId(USERS + 7), 2, 0.01)
        .expect("write is answered");
    let (_, slow) = timed(&mut || top_k(&mut client));
    assert!(slow >= think, "a stale entry is recomputed by a worker");

    // Six admitted: two computed reads, two inline hits, the write, the
    // recompute. Five of them cacheable reads: two hits, three misses.
    let m = client.metrics(64).expect("metrics is answered");
    let snap = &m.snapshot;
    let (admitted, reads) = (6, 5);
    assert_eq!(snap.gauge("server.admitted"), Some(admitted));
    assert_eq!(snap.gauge("server.answered"), Some(admitted));
    assert_eq!(snap.counter("server.lock_rounds"), Some(admitted));
    assert_eq!(snap.counter("core.queries"), Some(reads));
    assert_eq!(snap.counter("core.cache.hit"), Some(2));
    assert_eq!(snap.counter("core.cache.miss"), Some(reads - 2));
    assert_eq!(snap.counter("core.cache.invalidate"), Some(1));
    assert_eq!(
        snap.hist("server.latency_us").expect("latency").total,
        admitted
    );
    assert_eq!(snap.spans.len(), admitted as usize);
    let inline: Vec<bool> = snap
        .spans
        .iter()
        .map(|s| s.total_ns() < think.as_nanos() as u64)
        .collect();
    assert_eq!(
        inline,
        [false, true, false, true, false, false],
        "{:?}",
        snap.spans
    );
    for span in &snap.spans {
        assert_eq!(span.outcome, SpanOutcome::Ok);
    }
    for hit in [&snap.spans[1], &snap.spans[3]] {
        assert_eq!(hit.queue_ns, 0, "a hit never queues: {hit:?}");
        assert!(hit.encode_ns > 0, "a hit's encode is timed: {hit:?}");
    }
    assert_eq!(snap.spans[1].op, 0x01);
    assert_eq!(snap.spans[3].op, 0x03);

    drop(client);
    let counters = handle.shutdown();
    assert_eq!(
        counters.admitted,
        counters.answered + counters.shed + counters.deadline_expired + counters.drained,
    );
    assert_eq!(counters.answered, admitted);
}

/// A client-initiated `Shutdown` drains gracefully: the acknowledgement
/// arrives, in-flight work is answered (admitted == answered), all
/// threads join, and the listener stops accepting.
#[test]
fn client_shutdown_drains_without_dropping_requests() {
    let vkg = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            worker_think_time: Some(Duration::from_millis(5)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Keep a few requests in flight while the drain is triggered.
    let inflight: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut outcomes = Vec::new();
                for i in 0..10u32 {
                    let res = client.top_k(
                        EntityId((t * 11 + i) % USERS),
                        RelationId(0),
                        Direction::Tails,
                        3,
                    );
                    match res {
                        // Admitted work is always answered in full.
                        Ok(_) => outcomes.push(true),
                        // Refused-at-the-door during drain is the only
                        // acceptable server-side refusal here.
                        Err(ClientError::Server(e)) => {
                            assert_eq!(e.code, ErrorCode::Draining);
                            outcomes.push(false);
                        }
                        // The connection may also die once the drain
                        // finishes between calls.
                        Err(_) => break,
                    }
                }
                outcomes
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(30));
    let mut control = Client::connect(addr).expect("control client connects");
    control.shutdown().expect("shutdown acknowledged");

    for t in inflight {
        let outcomes = t.join().expect("in-flight client");
        assert!(outcomes.iter().any(|&ok| ok), "clients made progress");
    }

    let counters = handle.join();
    assert_eq!(
        counters.admitted, counters.answered,
        "graceful drain answers every admitted request"
    );
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "the drained server no longer accepts connections"
    );
}

/// Raw-socket abuse: malformed frames get a typed `MalformedRequest`
/// error and a closed connection — never a panic — and the server keeps
/// serving well-behaved clients afterwards.
#[test]
fn malformed_frames_fail_closed_and_server_survives() {
    let vkg = build_vkg();
    let handle = start(&vkg, ServerConfig::default());
    let addr = handle.addr();

    let expect_error_then_close = |payload: &[u8]| {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        write_frame(&mut raw, payload).expect("frame written");
        let resp = read_frame(&mut raw, MAX_FRAME)
            .expect("typed error frame")
            .expect("response before close");
        match Response::decode(&resp).expect("well-formed error response") {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::MalformedRequest),
            other => panic!("wanted a MalformedRequest error, got {other:?}"),
        }
        // The server fails the connection closed after the error.
        let mut rest = Vec::new();
        let _ = raw.read_to_end(&mut rest);
        assert!(rest.is_empty(), "nothing follows the typed error");
    };

    // Unknown opcode.
    expect_error_then_close(&[vkg_server::WIRE_VERSION, 0x7C, 0, 0, 0, 0]);
    // Foreign protocol version.
    expect_error_then_close(&{
        let mut p = Request {
            deadline_ms: 0,
            op: RequestOp::Stats,
        }
        .encode();
        p[0] = 9;
        p
    });
    // Truncated body (frame shorter than its message).
    expect_error_then_close(&[vkg_server::WIRE_VERSION, 0x01, 0, 0]);

    // Oversized declared length: refused before buffering the body.
    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        raw.write_all(&huge).expect("length prefix written");
        let resp = read_frame(&mut raw, MAX_FRAME)
            .expect("typed error frame")
            .expect("response before close");
        match Response::decode(&resp).expect("well-formed error response") {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::MalformedRequest),
            other => panic!("wanted a MalformedRequest error, got {other:?}"),
        }
    }

    // A truncated length prefix followed by a hangup is just a closed
    // connection — no response owed, no panic.
    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        raw.write_all(&[3, 0]).expect("partial prefix written");
        drop(raw);
    }

    // The server is still healthy for well-behaved clients.
    let mut client = Client::connect(addr).expect("healthy client connects");
    let top = client
        .top_k(EntityId(0), RelationId(0), Direction::Tails, 3)
        .expect("server survived the abuse");
    assert!(top.predictions.len() <= 3);
    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
}

/// The server reassembles frames from whatever segments arrive, so
/// clients that frame differently from this crate's one vectored write
/// keep working: one that writes a request's length prefix and payload
/// as two writes with a pause between them, and one that sends two
/// request frames in a single write. Each is answered, in order, with
/// the in-process engine's answer.
#[test]
fn split_and_coalesced_request_frames_are_answered() {
    let vkg = build_vkg();
    let handle = start(&vkg, ServerConfig::default());
    let addr = handle.addr();
    let top_k = |entity: u32| Request {
        deadline_ms: 0,
        op: RequestOp::TopK {
            entity,
            relation: 0,
            direction: Direction::Tails,
            k: 5,
        },
    };
    let expect_engine_answer = |raw: &mut TcpStream, entity: u32| {
        let payload = read_frame(raw, MAX_FRAME)
            .expect("response frame")
            .expect("response before close");
        let remote = match Response::decode(&payload).expect("well-formed response") {
            Response::TopK(t) => t,
            other => panic!("wanted a top-k answer, got {other:?}"),
        };
        let local = vkg
            .top_k(EntityId(entity), RelationId(0), Direction::Tails, 5)
            .expect("in-process answer");
        assert_eq!(remote.epoch, vkg.epoch(), "entity {entity}");
        assert_eq!(remote.predictions.len(), local.predictions.len());
        for (rp, lp) in remote.predictions.iter().zip(&local.predictions) {
            assert_eq!(rp.id, lp.id, "entity {entity}");
            assert_eq!(rp.distance, lp.distance, "entity {entity}");
            assert_eq!(rp.probability, lp.probability, "entity {entity}");
        }
    };

    // Prefix and payload as two writes, the payload 20 ms behind.
    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        raw.set_nodelay(true).expect("nodelay");
        let payload = top_k(3).encode();
        raw.write_all(&(payload.len() as u32).to_le_bytes())
            .expect("length prefix written");
        thread::sleep(Duration::from_millis(20));
        raw.write_all(&payload).expect("payload written");
        expect_engine_answer(&mut raw, 3);
    }

    // Two request frames in one write.
    {
        let mut raw = TcpStream::connect(addr).expect("raw connect");
        let mut both = Vec::new();
        for entity in [7, 11] {
            let payload = top_k(entity).encode();
            both.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            both.extend_from_slice(&payload);
        }
        raw.write_all(&both).expect("two frames written");
        expect_engine_answer(&mut raw, 7);
        expect_engine_answer(&mut raw, 11);
    }

    let counters = handle.shutdown();
    assert_eq!(counters.admitted, 3);
    assert_eq!(counters.admitted, counters.answered);
}

/// Well-formed frames carrying resource-exhaustion parameters are
/// sanitized at admission: an absurd `k` is clamped (no multi-GiB
/// allocation, the answer still arrives), an unbounded refinement
/// budget and a non-finite learning rate are refused with typed `Query`
/// errors, and the shared embeddings stay unpoisoned throughout.
#[test]
fn extreme_parameters_are_sanitized_not_fatal() {
    let vkg = build_vkg();
    let handle = start(&vkg, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // k = u32::MAX: clamped to the entity count, answered normally.
    let top = client
        .top_k(
            EntityId(0),
            RelationId(0),
            Direction::Tails,
            u32::MAX as usize,
        )
        .expect("clamped top-k is answered");
    assert!(top.predictions.len() <= vkg.graph().num_entities());
    assert!(!top.predictions.is_empty());

    // A write demanding billions of gradient steps under the engine
    // write lock is refused before execution.
    match client.add_fact(
        EntityId(0),
        RelationId(0),
        EntityId(USERS),
        u32::MAX as usize,
        0.01,
    ) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Query);
            assert!(e.message.contains("refine_steps"), "typed cause: {e}");
        }
        other => panic!("oversized refine_steps must be refused, got {other:?}"),
    }

    // Non-finite and out-of-range learning rates are refused before
    // they can touch the shared embeddings.
    for lr in [f64::NAN, f64::INFINITY, -0.5, 2.0] {
        match client.add_fact(EntityId(1), RelationId(0), EntityId(USERS + 1), 2, lr) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, ErrorCode::Query);
                assert!(e.message.contains("learning_rate"), "typed cause: {e}");
            }
            other => panic!("learning_rate {lr} must be refused, got {other:?}"),
        }
    }
    assert_eq!(vkg.epoch(), 0, "no refused write published an epoch");

    // The embeddings were never poisoned: answers still match the
    // in-process engine and carry finite distances.
    let remote = client
        .top_k(EntityId(2), RelationId(0), Direction::Tails, 5)
        .expect("server still healthy");
    let local = vkg
        .top_k(EntityId(2), RelationId(0), Direction::Tails, 5)
        .expect("in-process answer");
    assert_eq!(
        remote.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
        local.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
    );
    assert!(remote.predictions.iter().all(|p| p.distance.is_finite()));

    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
}

/// `Stats` reports the live epoch, engine counters, and the
/// admission-control ledger; it stays answerable while queries flow.
#[test]
fn stats_reports_epoch_accuracy_and_ledger() {
    let vkg = build_vkg();
    let handle = start(&vkg, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("client connects");

    client
        .top_k(EntityId(1), RelationId(0), Direction::Tails, 4)
        .expect("top-k");
    let (added, epoch) = client
        .add_fact(EntityId(2), RelationId(0), EntityId(USERS + 5), 2, 0.01)
        .expect("dynamic write");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.epoch, vkg.epoch());
    if added {
        assert_eq!(stats.epoch, epoch, "stats sees the post-write epoch");
    }
    assert!(stats.nodes >= 1);
    assert!(
        stats.s1_distance_evals >= 1,
        "the top-k evaluated distances"
    );
    assert_eq!(stats.server.admitted, 2, "stats itself bypasses admission");
    assert_eq!(stats.server.answered, 2);
    assert_eq!(stats.server.shed, 0);
    // One index, one row: its epoch and the whole ledger.
    assert_eq!(
        stats.shards,
        vec![vkg_server::protocol::ShardStatsWire {
            epoch: vkg.index_epoch(),
            admitted: stats.server.admitted,
            answered: stats.server.answered,
        }]
    );

    let name_filtered = client
        .top_k_filtered(
            EntityId(0),
            RelationId(0),
            Direction::Tails,
            5,
            vkg_server::WireFilter::NamePrefix("movie_".into()),
        )
        .expect("filtered top-k");
    let graph = vkg.graph();
    for p in &name_filtered.predictions {
        let name = graph.entity_name(EntityId(p.id)).expect("named entity");
        assert!(name.starts_with("movie_"), "filter applied server-side");
    }

    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered);
}

/// The `Metrics` opcode exports telemetry that reconciles with what the
/// client just did: per-request spans (with outcomes and refine steps,
/// each inside its call's measured round trip), the mirrored admission
/// counters, and the merged facade registry, whose `core.queries`
/// counts exactly the three read kinds — not the write admitted beside
/// them, nor the `Stats` answered inline.
#[test]
fn metrics_opcode_exports_reconciling_telemetry() {
    let vkg = build_vkg();
    let handle = start(&vkg, ServerConfig::default());
    let mut client = Client::connect(handle.addr()).expect("client connects");

    // Each call is synchronous and timed around, so the i-th round trip
    // brackets the i-th span.
    let mut round_trips = Vec::new();
    let mut timed = |call: &mut dyn FnMut()| {
        let sent = Instant::now();
        call();
        round_trips.push(sent.elapsed());
    };
    for i in 0..8u32 {
        timed(&mut || {
            client
                .top_k(EntityId(i), RelationId(0), Direction::Tails, 5)
                .expect("top-k is answered");
        });
    }
    timed(&mut || {
        client
            .aggregate(
                EntityId(0),
                RelationId(0),
                Direction::Tails,
                AggregateKind::Count,
                None,
                0.05,
                None,
            )
            .expect("aggregate is answered");
    });
    // A well-formed query for an unknown entity: answered with a typed
    // error, traced as an `Error`-outcome span.
    timed(&mut || {
        let err = client.top_k(EntityId(9_999_999), RelationId(0), Direction::Tails, 5);
        assert!(matches!(err, Err(ClientError::Server(_))));
    });
    timed(&mut || {
        let movies = vkg_server::WireFilter::IdRange {
            lo: USERS,
            hi: USERS + MOVIES,
        };
        client
            .top_k_filtered(EntityId(1), RelationId(0), Direction::Tails, 5, movies)
            .expect("filtered top-k is answered");
    });
    // A write is admitted and traced like a read, but asks no query.
    timed(&mut || {
        client
            .add_fact(EntityId(0), RelationId(0), EntityId(USERS + 7), 2, 0.01)
            .expect("write is answered");
    });
    let admitted = round_trips.len() as u64;
    let queries = admitted - 1;
    // Answered inline: no admission, no span, no query.
    client.stats().expect("stats is answered");

    let m = client.metrics(64).expect("metrics is answered");
    let snap = &m.snapshot;

    // Facade-side counters: every executed query was recorded, and
    // exactly one returned a typed error.
    assert_eq!(snap.counter("core.queries"), Some(queries));
    assert_eq!(snap.counter("core.query_errors"), Some(1));
    let core_latency = snap.hist("core.query_latency_us").expect("facade latency");
    assert_eq!(core_latency.total, queries);

    // Server-side mirrors: all admitted work was answered (each call
    // above is synchronous), nothing was shed, the queue is idle.
    assert_eq!(snap.gauge("server.admitted"), Some(admitted));
    assert_eq!(snap.gauge("server.answered"), Some(admitted));
    assert_eq!(snap.gauge("server.shed"), Some(0));
    assert_eq!(snap.gauge("server.queue_depth"), Some(0));
    let server_latency = snap.hist("server.latency_us").expect("server latency");
    assert_eq!(server_latency.total, admitted);

    // Spans: one per admitted request, none dropped (ring holds 256),
    // ordered by id, with outcomes and refine steps that match the
    // traffic above.
    assert_eq!(snap.spans_recorded, admitted);
    assert_eq!(snap.spans_dropped, 0);
    assert_eq!(snap.spans.len(), admitted as usize);
    let ops: Vec<u8> = snap.spans.iter().map(|s| s.op).collect();
    assert_eq!(
        ops[8..],
        [0x03, 0x01, 0x02, 0x04],
        "aggregate, top-k, filtered, write"
    );
    for w in snap.spans.windows(2) {
        assert!(w[0].id < w[1].id, "spans ordered by query id");
    }
    // A span runs from admission to the end of the encode, a strict
    // sub-interval of the client's send → receive of the same call.
    for (span, rtt) in snap.spans.iter().zip(&round_trips) {
        assert!(
            u128::from(span.total_ns()) <= rtt.as_nanos(),
            "span {span:?} outlasts its round trip {rtt:?}"
        );
    }
    // The cache is off (the default), so nothing is served from it.
    assert_eq!(snap.counter("core.cache.hit"), Some(0));
    let errors = snap
        .spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Error)
        .count();
    assert_eq!(errors, 1, "exactly one traced error");
    let topk_refines: u64 = snap
        .spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Ok && s.op == 0x01)
        .map(|s| s.refine_steps)
        .sum();
    assert!(topk_refines > 0, "successful top-k spans carry S1 evals");
    assert_eq!(
        snap.counter("core.refine_steps"),
        Some(snap.spans.iter().map(|s| s.refine_steps).sum()),
        "facade refine counter equals the sum over all spans"
    );

    // A scrape observes the engine without touching it: it reports the
    // served epoch, and a second one reports it again.
    assert_eq!(m.epoch, vkg.epoch());
    assert_eq!(client.metrics(0).expect("second scrape").epoch, m.epoch);

    drop(client);
    let counters = handle.shutdown();
    assert_eq!(counters.admitted, counters.answered, "drain invariant");
}

/// With an injected mock clock the server still serves correctly, and
/// every span phase reads zero — timing is fully deterministic, which
/// is what lets tests assert on span contents at all.
#[test]
fn mock_clock_makes_span_timing_deterministic() {
    let vkg = build_vkg();
    let handle = start(
        &vkg,
        ServerConfig {
            clock: Clock::mock(),
            span_ring: 8,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(handle.addr()).expect("client connects");
    for i in 0..3u32 {
        client
            .top_k(EntityId(i), RelationId(0), Direction::Tails, 3)
            .expect("top-k under a mock clock");
    }
    let m = client.metrics(8).expect("metrics");
    assert_eq!(m.snapshot.spans.len(), 3);
    for s in &m.snapshot.spans {
        assert_eq!(s.total_ns(), 0, "mock time never advances: {s:?}");
        assert_eq!(s.outcome, SpanOutcome::Ok);
    }
    let latency = m.snapshot.hist("server.latency_us").expect("latency");
    assert_eq!(latency.total, 3);
    assert_eq!(latency.max_us, 0);
    drop(client);
    handle.shutdown();
}
