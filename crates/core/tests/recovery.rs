//! Crash-recovery suite for the write-ahead log (DESIGN.md §3.9):
//!
//! * property tests — WAL records survive an encode/decode roundtrip
//!   bit-identically, and [`vkg_core::wal::decode_log`] never panics on
//!   arbitrarily truncated or corrupted images;
//! * the fault matrix — a seeded [`FaultPlane`] kills the durability
//!   path at every byte offset × {cache off, on}; after each crash a
//!   fresh engine recovers the log and must hold exactly the acked
//!   prefix: no acked write lost, none applied twice, no panic on a
//!   torn tail;
//! * unlogged write kinds — an entity or attribute write is refused
//!   while a WAL is attached, so every acked write replays;
//! * refusal before the log — a write the index would refuse leaves no
//!   record and moves no point, and a logged record whose parameters
//!   the write path refuses fails recovery with a typed error.

use std::path::PathBuf;

use proptest::prelude::*;

use vkg_core::vkg::VirtualKnowledgeGraph;
use vkg_core::wal::fault::FaultPlane;
use vkg_core::wal::{self, WalRecord, RECORD_BYTES, WAL_MAGIC};
use vkg_core::{Direction, SplitStrategy, VkgConfig, VkgError};
use vkg_embed::EmbeddingStore;
use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph, RelationId};

/// A WAL path in the temp dir, removed again on drop.
struct TempWal(PathBuf);

impl TempWal {
    fn new(tag: &str) -> Self {
        let mut p = std::env::temp_dir();
        p.push(format!("vkg_recovery_{}_{tag}.wal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        TempWal(p)
    }
}

impl Drop for TempWal {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The model-test fixture: users u0..u3 at x = i, items m0..m5 at
/// x = 10 + i, "likes" translating by +10, so uᵢ + likes ≈ mᵢ. One
/// pre-existing edge (u0, likes, m0).
fn tiny_vkg(cache_capacity: usize) -> (VirtualKnowledgeGraph, RelationId) {
    let dim = 8;
    let mut g = KnowledgeGraph::new();
    let likes = g.add_relation("likes");
    let users: Vec<_> = (0..4).map(|i| g.add_entity(&format!("u{i}"))).collect();
    let items: Vec<_> = (0..6).map(|i| g.add_entity(&format!("m{i}"))).collect();
    g.add_triple(users[0], likes, items[0]).expect("fresh edge");

    let mut ent = vec![0.0; 10 * dim];
    for (i, _) in users.iter().enumerate() {
        ent[i * dim] = i as f64;
    }
    for (j, _) in items.iter().enumerate() {
        ent[(4 + j) * dim] = 10.0 + j as f64;
        ent[(4 + j) * dim + 1] = 0.5;
    }
    let mut rel = vec![0.0; dim];
    rel[0] = 10.0;
    rel[1] = 0.5;
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

/// The 23 fresh (user, item) pairs of the fixture, in a fixed order.
fn write_plan(vkg: &VirtualKnowledgeGraph) -> Vec<(EntityId, EntityId)> {
    let mut plan = Vec::new();
    for u in 0..4 {
        for m in 0..6 {
            if (u, m) == (0, 0) {
                continue; // pre-existing edge
            }
            let h = vkg.graph().entity_id(&format!("u{u}")).expect("user");
            let t = vkg.graph().entity_id(&format!("m{m}")).expect("item");
            plan.push((h, t));
        }
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode → decode is bit-identical for arbitrary records,
    /// including non-finite learning rates (PartialEq on `WalRecord`
    /// compares `f64::to_bits`, so NaN payloads count too).
    #[test]
    fn wal_record_roundtrip_is_bit_identical(
        epoch in any::<u64>(),
        token in any::<u64>(),
        h in any::<u32>(),
        r in any::<u32>(),
        t in any::<u32>(),
        refine_steps in any::<u32>(),
        lr_bits in any::<u64>(),
    ) {
        let record = WalRecord {
            epoch,
            token,
            h,
            r,
            t,
            refine_steps,
            learning_rate: f64::from_bits(lr_bits),
        };
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&record.encode());
        let (records, stats) = wal::decode_log(&image).expect("well-formed log");
        prop_assert_eq!(records.len(), 1);
        prop_assert_eq!(records[0], record);
        prop_assert_eq!(records[0].encode(), record.encode());
        prop_assert_eq!(stats.replayed, 1);
        prop_assert_eq!(stats.truncated_bytes, 0);
        prop_assert_eq!(stats.good_bytes, image.len() as u64);
    }

    /// Truncating a valid log at ANY byte offset never panics, yields a
    /// prefix of the original records, and accounts for every byte as
    /// either good or truncated.
    #[test]
    fn arbitrary_truncation_recovers_a_prefix(
        n in 0usize..6,
        cut_seed in any::<u64>(),
        lr_bits in any::<u64>(),
    ) {
        let mut image = WAL_MAGIC.to_vec();
        let originals: Vec<WalRecord> = (0..n as u64)
            .map(|i| WalRecord {
                epoch: i + 1,
                token: i * 7 + 1,
                h: i as u32,
                r: 0,
                t: i as u32 + 100,
                refine_steps: 2,
                learning_rate: f64::from_bits(lr_bits ^ i),
            })
            .collect();
        for rec in &originals {
            image.extend_from_slice(&rec.encode());
        }
        let cut = (cut_seed % (image.len() as u64 + 1)) as usize;
        let torn = &image[..cut];
        let (records, stats) = wal::decode_log(torn).expect("magic prefix stays valid");
        let whole = cut.saturating_sub(WAL_MAGIC.len()) / RECORD_BYTES;
        prop_assert_eq!(records.len(), whole.min(n));
        for (got, want) in records.iter().zip(&originals) {
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(
            stats.good_bytes + stats.truncated_bytes,
            torn.len() as u64
        );
    }

    /// Corrupting any single byte of a valid log never panics and never
    /// yields a record that was not written: decode stops at (or cleanly
    /// skips past nothing but) the corruption.
    #[test]
    fn single_byte_corruption_never_fabricates_records(
        flip_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut image = WAL_MAGIC.to_vec();
        let originals: Vec<WalRecord> = (0..4u64)
            .map(|i| WalRecord {
                epoch: i + 1,
                token: i + 1,
                h: i as u32,
                r: 0,
                t: i as u32 + 100,
                refine_steps: 2,
                learning_rate: 0.01,
            })
            .collect();
        for rec in &originals {
            image.extend_from_slice(&rec.encode());
        }
        let at = (flip_seed % image.len() as u64) as usize;
        image[at] ^= 1 << bit;
        match wal::decode_log(&image) {
            Err(wal::WalError::BadMagic) => prop_assert!(at < WAL_MAGIC.len()),
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
            Ok((records, _)) => {
                // Every decoded record is one of the originals, still in
                // order — the checksum catches anything else.
                prop_assert!(records.len() <= originals.len());
                for (i, got) in records.iter().enumerate() {
                    prop_assert_eq!(got, &originals[i]);
                }
            }
        }
    }
}

/// The fault matrix. Each cell: attach a WAL behind a seeded fault
/// plane, write until the injected fault "crashes" the process, forget
/// the live facade without running a destructor (a kill runs none),
/// then recover into a fresh engine and check the crash-recovery invariant —
/// every acked write present, none applied twice, and an independent
/// replay of the log agrees with the recovered engine.
#[test]
fn fault_matrix_recovery_holds_acked_prefix() {
    for seed in 0..64u64 {
        for &cache in &[0usize, 64] {
            fault_matrix_cell(seed, cache);
        }
    }
}

fn fault_matrix_cell(seed: u64, cache: usize) {
    let wal_file = TempWal::new(&format!("matrix_{seed}_{cache}"));
    let ctx = format!("seed {seed}, cache {cache}");

    // Phase 1: live process, faults armed. `acked` collects exactly the
    // writes whose Ok the "client" observed before the crash.
    let mut acked: Vec<(u64, EntityId, EntityId, bool)> = Vec::new();
    let (vkg, likes) = tiny_vkg(cache);
    let plan = write_plan(&vkg);
    let fault = FaultPlane::seeded(seed, plan.len() as u64 + 1);
    if vkg.attach_wal(&wal_file.0, fault).is_ok() {
        for (i, &(h, t)) in plan.iter().enumerate() {
            let token = 1000 + i as u64;
            match vkg.add_fact_durable(token, h, likes, t, 2, 0.01) {
                Ok((added, _epoch)) => acked.push((token, h, t, added)),
                // The injected fault surfaced: the process "dies"
                // here, mid-write, ack never sent.
                Err(_) => break,
            }
        }
    }
    // else: the fault fired while writing the magic header — the
    // crash happened before any write was acked.
    //
    // The process dies the way a SIGKILL kills it: no destructor runs,
    // so only what an ack put on disk before returning is there to
    // recover — a log that flushes on drop would pass a scope exit.
    std::mem::forget(vkg);

    // Phase 2: restart. Recovery over the torn file must never fail or
    // panic, and must reconstruct at least the acked prefix.
    let (recovered, likes) = tiny_vkg(cache);
    let report = recovered
        .attach_wal(&wal_file.0, FaultPlane::none())
        .unwrap_or_else(|e| panic!("recovery failed ({ctx}): {e}"));
    let acked_adds = acked.iter().filter(|a| a.3).count() as u64;
    assert!(
        report.replayed >= acked_adds,
        "lost acked writes ({ctx}): replayed {} < acked {}",
        report.replayed,
        acked_adds
    );
    for &(_token, h, t, added) in &acked {
        if added {
            assert!(
                recovered.graph().tails(h, likes).any(|e| e == t),
                "acked edge missing after recovery ({ctx})"
            );
        }
    }

    // At-most-once: retrying every acked token is answered from the
    // recovered idempotency map without publishing anything new.
    let epoch_before = recovered.epoch();
    for &(token, h, t, _added) in &acked {
        recovered
            .add_fact_durable(token, h, likes, t, 2, 0.01)
            .unwrap_or_else(|e| panic!("retry after recovery failed ({ctx}): {e}"));
    }
    assert_eq!(
        recovered.epoch(),
        epoch_before,
        "a retried acked write re-applied ({ctx})"
    );

    // Parity: an independent in-process replay of the repaired log
    // reaches the same state (same epoch, identical predictions).
    let (records, _stats) = wal::replay(&wal_file.0).expect("repaired log readable");
    let (oracle, oracle_likes) = tiny_vkg(cache);
    for rec in &records {
        oracle
            .add_fact_dynamic(
                EntityId(rec.h),
                RelationId(rec.r),
                EntityId(rec.t),
                rec.refine_steps as usize,
                rec.learning_rate,
            )
            .unwrap_or_else(|e| panic!("oracle replay failed ({ctx}): {e}"));
    }
    assert_eq!(oracle.epoch(), report.epoch, "epoch parity ({ctx})");
    let probe = recovered.graph().entity_id("u1").expect("u1");
    let a = recovered
        .top_k(probe, likes, Direction::Tails, 3)
        .expect("query recovered engine");
    let b = oracle
        .top_k(probe, oracle_likes, Direction::Tails, 3)
        .expect("query oracle engine");
    assert_eq!(
        a.predictions.len(),
        b.predictions.len(),
        "top-k parity ({ctx})"
    );
    for (x, y) in a.predictions.iter().zip(&b.predictions) {
        assert_eq!(x.id, y.id, "top-k id parity ({ctx})");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "top-k distance parity ({ctx})"
        );
    }
}

/// The log holds fact records only, so while it is attached an entity
/// or attribute write is refused, typed, and publishes nothing: acked
/// and unlogged, an entity named by a later logged fact made the log
/// unreplayable (`UnknownEntity` at every restart), and an attribute
/// vanished at the restart. The acked fact beside them replays.
#[test]
fn unlogged_write_kinds_are_refused_while_a_wal_is_attached() {
    let wal_file = TempWal::new("unlogged_kinds");
    let (vkg, likes) = tiny_vkg(0);
    vkg.attach_wal(&wal_file.0, FaultPlane::none())
        .expect("fresh log");
    let id = |name| vkg.graph().entity_id(name).expect("fixture entity");
    let (u1, m3) = (id("u1"), id("m3"));
    let dim = vkg.embeddings().dim();
    let year = || vkg.attributes().get("year", m3).expect("year column");
    let (epoch, year_before) = (vkg.epoch(), year());

    let refused = |r: Result<(), VkgError>| matches!(r, Err(VkgError::Durability(_)));
    assert!(refused(
        vkg.add_entity_dynamic("u_new", &vec![1.5; dim]).map(drop)
    ));
    assert!(refused(vkg.set_attribute_dynamic("year", m3, 1999.0)));
    assert_eq!(vkg.epoch(), epoch, "a refused write published");
    assert!(vkg.graph().entity_id("u_new").is_none());
    assert_eq!(year(), year_before);

    vkg.add_fact_durable(7, u1, likes, m3, 2, 0.01)
        .expect("logged write");
    drop(vkg);
    let (recovered, likes) = tiny_vkg(0);
    let report = recovered
        .attach_wal(&wal_file.0, FaultPlane::none())
        .expect("the log replays");
    assert_eq!((report.replayed, report.epoch), (1, 1));
    assert!(recovered.graph().has_edge(u1, likes, m3));
}

/// A crash *between* append and ack (simulated by a flush failure, so
/// the record is on disk but the caller saw an error) replays the
/// unacked write on recovery, and the client's retry of that token is
/// answered from the map instead of applying twice.
#[test]
fn logged_but_unacked_write_replays_once() {
    use vkg_core::wal::fault::FaultSpec;

    let wal_file = TempWal::new("unacked");
    let (vkg, likes) = tiny_vkg(0);
    // Flush 0 opens the log (magic); flush 2 is the second append.
    let fault = FaultPlane::with_spec(FaultSpec {
        kill_after_bytes: None,
        short_write_at: None,
        flush_fail_at: Some(2),
    });
    vkg.attach_wal(&wal_file.0, fault).expect("attach");
    let u1 = vkg.graph().entity_id("u1").expect("u1");
    let m1 = vkg.graph().entity_id("m1").expect("m1");
    let m2 = vkg.graph().entity_id("m2").expect("m2");
    vkg.add_fact_durable(7, u1, likes, m1, 2, 0.01)
        .expect("first write acked");
    // Second write: logged, flush fails, NOT acked, engine unchanged —
    // the index included: the points move only after the append.
    let before = vkg.epoch();
    let head = || vkg.index().points().point(u1.0).to_vec();
    let head_before = head();
    let err = vkg.add_fact_durable(8, u1, likes, m2, 2, 0.01);
    assert!(err.is_err(), "flush failure must surface");
    assert_eq!(vkg.epoch(), before, "failed write must not publish");
    assert_eq!(head(), head_before, "failed write must not move the head");
    assert!(
        !vkg.graph().tails(u1, likes).any(|e| e == m2),
        "failed write must not mutate the graph"
    );
    drop(vkg);

    // Restart: the logged-but-unacked record replays exactly once…
    let (recovered, likes) = tiny_vkg(0);
    let report = recovered
        .attach_wal(&wal_file.0, FaultPlane::none())
        .expect("recover");
    assert_eq!(report.replayed, 2);
    assert!(recovered.graph().tails(u1, likes).any(|e| e == m2));
    // …and the client's retry of token 8 does not double-apply.
    let epoch = recovered.epoch();
    let (added, _) = recovered
        .add_fact_durable(8, u1, likes, m2, 2, 0.01)
        .expect("dedup answer");
    assert!(added, "replayed outcome echoed");
    assert_eq!(recovered.epoch(), epoch, "retry must not publish");
}

/// A write the index would refuse (here: the tail's point tombstoned)
/// is refused *before* the log and before any point moves: the WAL
/// keeps its length, the tree keeps the head where it was, and a
/// restart replays the acked write alone.
#[test]
fn refused_write_leaves_log_and_index_untouched() {
    let wal_file = TempWal::new("refused");
    let (vkg, likes) = tiny_vkg(0);
    vkg.attach_wal(&wal_file.0, FaultPlane::none())
        .expect("attach");
    let u1 = vkg.graph().entity_id("u1").expect("u1");
    let m1 = vkg.graph().entity_id("m1").expect("m1");
    let m2 = vkg.graph().entity_id("m2").expect("m2");
    vkg.add_fact_durable(7, u1, likes, m1, 2, 0.01)
        .expect("first write acked");
    assert!(vkg.index_mut().remove_point(m2.0));

    let log_len = || std::fs::metadata(&wal_file.0).expect("log").len();
    let head = || vkg.index().points().point(u1.0).to_vec();
    let (len, epoch, before) = (log_len(), vkg.epoch(), head());
    let refused = vkg.add_fact_durable(8, u1, likes, m2, 2, 0.01);
    assert!(refused.is_err(), "a tombstoned endpoint must be refused");
    assert_eq!(log_len(), len, "a refused write must not be logged");
    assert_eq!(vkg.epoch(), epoch, "a refused write must not publish");
    assert_eq!(head(), before, "a refused write must not move the head");
    assert!(!vkg.graph().has_edge(u1, likes, m2));
    drop(vkg);

    let (recovered, likes) = tiny_vkg(0);
    let report = recovered
        .attach_wal(&wal_file.0, FaultPlane::none())
        .expect("recover");
    assert_eq!((report.replayed, report.truncated_bytes), (1, 0));
    assert!(recovered.graph().has_edge(u1, likes, m1));
    assert!(!recovered.graph().has_edge(u1, likes, m2));
}

/// A correctly checksummed record carrying parameters the write path
/// refuses (a hand-edited or foreign log: the facade never appends one)
/// fails recovery with the typed error — it does not replay a NaN rate
/// into an embedding row (the next query over it would panic on a NaN
/// ball radius, after every restart) or spin `refine_steps` iterations
/// under the writer mutex.
#[test]
fn replayed_record_with_refused_parameters_is_a_typed_error() {
    let cases = [(2, f64::NAN), (2, 1.5), (u32::MAX, 0.01)];
    for (i, &(refine_steps, learning_rate)) in cases.iter().enumerate() {
        let wal_file = TempWal::new(&format!("bad_params_{i}"));
        let record = WalRecord {
            epoch: 1,
            token: 9,
            h: 1, // u1
            r: 0, // likes
            t: 5, // m1
            refine_steps,
            learning_rate,
        };
        let mut image = WAL_MAGIC.to_vec();
        image.extend_from_slice(&record.encode());
        std::fs::write(&wal_file.0, &image).expect("write log image");

        let (vkg, likes) = tiny_vkg(0);
        let refused = vkg.attach_wal(&wal_file.0, FaultPlane::none());
        assert!(
            matches!(refused, Err(VkgError::InvalidParameter(_))),
            "case {i}: {refused:?}"
        );
        assert_eq!(vkg.epoch(), 0, "case {i}: nothing replayed");
        let u1 = vkg.graph().entity_id("u1").expect("u1");
        vkg.top_k(u1, likes, Direction::Tails, 3)
            .expect("the engine still answers");
    }
}
