//! Durability + self-healing tests against live loopback servers: the
//! idempotent-write regression (a duplicated `AddFactDynamic` frame
//! never double-applies), and the headline scenario — a retry-enabled
//! client survives a forced server restart mid-load with zero duplicate
//! applications, verified by epoch accounting and the `core.wal.*` /
//! `client.retry.*` counter reconciliation.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vkg_core::vkg::VirtualKnowledgeGraph;
use vkg_core::VkgConfig;
use vkg_embed::{TransE, TransEConfig};
use vkg_kg::datasets::{movie_like, MovieConfig};
use vkg_kg::{EntityId, RelationId};
use vkg_server::{Client, Request, RequestOp, Response, RetryPolicy, Server, ServerConfig};

/// Users occupy ids `0..60` and movies `60..180` in the tiny movie
/// dataset; relation 0 is valid for every query direction.
const USERS: u32 = 60;
const MOVIES: u32 = 120;

fn build_vkg() -> Arc<VirtualKnowledgeGraph> {
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
        VkgConfig::default(),
    ))
}

/// A WAL path in the temp dir, removed again on drop.
struct TempWal(PathBuf);

impl TempWal {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("vkg_serve_{}_{tag}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        TempWal(p)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn metric(rows: &[(String, u64)], name: &str) -> u64 {
    rows.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Satellite regression: sending the SAME tokened `AddFactDynamic`
/// frame twice applies the write once. The duplicate is answered from
/// the idempotency map with the original outcome, the epoch does not
/// advance, and the dedup counter records the hit.
#[test]
fn duplicated_add_fact_frame_does_not_double_apply() {
    let vkg = build_vkg();
    let handle = Server::start(Arc::clone(&vkg), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let req = Request {
        deadline_ms: 0,
        op: RequestOp::AddFactDynamic {
            h: 1,
            r: 0,
            t: USERS + 17,
            refine_steps: 2,
            learning_rate: 0.01,
            token: 0xFEED_FACE,
        },
    };
    let first = client.call(&req).expect("first send answered");
    let Response::FactAdded {
        added: a1,
        epoch: e1,
        token: t1,
    } = first
    else {
        panic!("wanted FactAdded, got {first:?}");
    };
    assert!(a1, "fresh edge applies");
    assert_eq!(t1, 0xFEED_FACE, "token echoed");

    // The exact same frame again — a client retry after a lost ack.
    let second = client.call(&req).expect("duplicate send answered");
    let Response::FactAdded {
        added: a2,
        epoch: e2,
        token: t2,
    } = second
    else {
        panic!("wanted FactAdded, got {second:?}");
    };
    assert_eq!((a2, e2, t2), (a1, e1, t1), "original outcome replayed");
    assert_eq!(vkg.epoch(), e1, "duplicate frame must not publish");

    let metrics = handle.metrics(0);
    assert_eq!(
        metric(&metrics.snapshot.counters, "core.wal.dedup_hits"),
        1,
        "exactly one dedup hit recorded"
    );

    // An untokened duplicate (token 0) is NOT deduplicated — it goes to
    // the graph, which reports the edge as already present.
    let untokened = Request {
        deadline_ms: 0,
        op: RequestOp::AddFactDynamic {
            h: 1,
            r: 0,
            t: USERS + 17,
            refine_steps: 2,
            learning_rate: 0.01,
            token: 0,
        },
    };
    let third = client.call(&untokened).expect("untokened answered");
    let Response::FactAdded { added: a3, .. } = third else {
        panic!("wanted FactAdded, got {third:?}");
    };
    assert!(!a3, "graph-level duplicate");

    handle.shutdown();
}

/// The headline self-healing scenario: a retry-enabled client writes
/// through a forced server restart. The first server (WAL attached) is
/// shut down mid-load; a second server recovers the same WAL on the
/// same address; the client transparently reconnects and finishes. At
/// the end every write is applied exactly once: the final epoch equals
/// the number of distinct logical writes, and the server-side dedup
/// count is covered by the client's recorded write retries.
#[test]
fn self_healing_client_survives_forced_restart_mid_load() {
    let wal = TempWal::new("restart");
    const WRITES: u32 = 12;
    const RESTART_AFTER: u32 = 6;

    let cfg = || ServerConfig {
        wal: Some(wal.0.clone()),
        ..ServerConfig::default()
    };

    let first = Server::start(build_vkg(), "127.0.0.1:0", cfg()).expect("bind loopback");
    let addr = first.addr();
    let mut second_vkg = None;

    let mut client = Client::connect(addr).expect("connect");
    client.set_retry_policy(Some(RetryPolicy {
        max_attempts: 12,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(100),
        seed: 0x00A1_1CE5,
    }));

    let mut first_handle = Some(first);
    let mut second_handle = None;
    let mut acked = Vec::new();
    // Edges already present in the dataset ack with `added = false`,
    // publish nothing, and are never logged — account per phase.
    let mut applied = [0u64; 2];
    for i in 0..WRITES {
        if i == RESTART_AFTER {
            // Forced restart: tear the first server down (dropping every
            // connection) and bring a fresh engine up on the SAME
            // address, recovering the same WAL.
            let counters = first_handle.take().expect("first server live").shutdown();
            assert_eq!(
                counters.admitted, counters.answered,
                "first server answered everything it admitted"
            );
            let vkg = build_vkg();
            second_handle =
                Some(Server::start(Arc::clone(&vkg), addr, cfg()).expect("rebind same address"));
            second_vkg = Some(vkg);
        }
        let (h, t) = (EntityId(i % USERS), EntityId(USERS + (i * 7) % MOVIES));
        let (added, epoch) = client
            .add_fact_idempotent(h, RelationId(0), t, 2, 0.01)
            .expect("self-healing write completes despite the restart");
        if added {
            applied[usize::from(i >= RESTART_AFTER)] += 1;
        }
        acked.push((h, t, epoch));
    }
    let applied_total = applied[0] + applied[1];
    assert!(applied_total > 0, "the plan must apply at least one edge");

    let stats = client.retry_stats();
    assert!(
        stats.reconnects >= 1,
        "the restart must have forced at least one reconnect: {stats:?}"
    );

    // Zero duplicates, three ways. (1) Epoch accounting: the second
    // server replayed the first's acked writes and applied the rest —
    // every logical write published exactly once.
    let second = second_handle.expect("second server live");
    let metrics = second.metrics(0);
    assert_eq!(
        metrics.epoch, applied_total,
        "one publication per applied write"
    );

    // (2) WAL accounting: replayed + fresh appends cover every applied
    // write exactly once, and every server-side dedup hit is explained
    // by a client retry.
    let counters = &metrics.snapshot.counters;
    let replayed = metric(counters, "core.wal.replayed");
    let appended = metric(counters, "core.wal.appended");
    let dedup_hits = metric(counters, "core.wal.dedup_hits");
    assert_eq!(replayed, applied[0], "acked prefix recovered");
    assert_eq!(
        replayed + appended,
        applied_total,
        "every applied write logged exactly once"
    );
    assert!(
        dedup_hits <= stats.write_retries,
        "dedup hits ({dedup_hits}) must be covered by client write \
         retries ({}): an unexplained hit means a duplicate frame",
        stats.write_retries
    );

    // (3) Ground truth: the recovered engine holds every acked edge —
    // those replayed from the WAL and those written after the restart.
    let engine = second_vkg.expect("second engine live");
    for &(h, t, _epoch) in &acked {
        assert!(
            engine.graph().tails(h, RelationId(0)).any(|e| e == t),
            "acked edge ({h:?} -> {t:?}) missing after recovery"
        );
    }
    let stats_probe = client.stats().expect("stats after restart");
    assert_eq!(stats_probe.epoch, applied_total);

    let counters = second.shutdown();
    assert_eq!(
        counters.admitted, counters.answered,
        "second server answered everything it admitted"
    );
}
