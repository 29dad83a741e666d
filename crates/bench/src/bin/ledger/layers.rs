//! Single layers timed in isolation, through their public functions:
//! the JL projection of all entities, the bulk build at two pool widths,
//! the distance kernel, the write-ahead log, the admission queue. These
//! do not depend on the workload; they run with every traced run so that
//! a per-layer number always sits beside the end-to-end ones it explains.

use std::hint::black_box;
use std::time::Instant;

use vkg::core::cache::CacheKey;
use vkg::core::config::DEFAULT_CACHE_CAPACITY;
use vkg::core::geometry::kernels;
use vkg::core::wal::{self, WalRecord, RECORD_BYTES};
use vkg::core::{
    CrackingIndex, Direction, FaultPlane, IndexState, QueryEngine, ResultCache, VkgConfig,
    VkgSnapshot,
};
use vkg::sync::pool::{Pool, PoolStats};
use vkg::sync::Arc;
use vkg_server::queue::JobQueue;

use crate::gen::Rng;
use crate::report::Report;
use crate::serve::{engine_config, remove_wal, Env, Inputs};
use crate::spec::{Scale, Workload, K, LEARNING_RATE, REFINE_STEPS};
use crate::stats;

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Median wall milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            ms_since(started)
        })
        .collect();
    stats::median(&times)
}

/// Bulk-loads the index at one pool width; returns the wall time and how
/// many jobs the pool ran across threads.
fn bulk_build(snap: &VkgSnapshot, config: &VkgConfig, width: usize) -> (f64, u64) {
    let sink = Arc::new(PoolStats::new());
    let pool = Pool::new(width).with_stats(Arc::clone(&sink));
    let points = snap.project_points();
    let started = Instant::now();
    let index = CrackingIndex::bulk_load_with_pool(
        points,
        config.leaf_capacity,
        config.fanout,
        config.beta,
        pool,
    );
    let ms = ms_since(started);
    black_box(index.stats());
    (ms, sink.parallel_runs())
}

/// Appends records to a fresh log with the shipped flush policy (flush
/// to the OS per record, no fsync), then decodes the log again.
fn wal_layer(report: &mut Report, env: &Env, records: usize) -> Result<(), String> {
    let path = env
        .scratch
        .join(format!("layer.{}.wal", std::process::id()));
    remove_wal(&path);
    let mut writer = wal::recover(&path, FaultPlane::none())
        .map_err(|e| e.to_string())?
        .writer;
    let mut us = Vec::with_capacity(records);
    for i in 0..records as u32 {
        let record = WalRecord {
            epoch: u64::from(i) + 1,
            token: u64::from(i) + 1,
            h: i,
            r: i % 7,
            t: i + 1,
            refine_steps: REFINE_STEPS as u32,
            learning_rate: LEARNING_RATE,
        };
        let started = Instant::now();
        writer.append(&record).map_err(|e| e.to_string())?;
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(writer);
    let started = Instant::now();
    let (replayed, _) = wal::replay(&path).map_err(|e| e.to_string())?;
    let replay_ms = ms_since(started);
    remove_wal(&path);
    if replayed.len() != records {
        return Err(format!(
            "WAL layer: appended {records} records, replayed {}",
            replayed.len()
        ));
    }
    report.set("core.wal.append_us", stats::median(&us));
    report.set("core.wal.bytes_per_write", RECORD_BYTES as f64);
    report.set(
        "core.wal.replay_ms_per_record",
        replay_ms / records.max(1) as f64,
    );
    Ok(())
}

pub fn run(report: &mut Report, inputs: &Inputs, scale: &Scale, env: &Env) -> Result<(), String> {
    let config = engine_config(Workload::TopkCold, env.nproc);
    let (graph, attributes, embeddings) = (
        inputs.graph.clone(),
        inputs.attributes.clone(),
        inputs.embeddings.clone(),
    );
    let snap = VkgSnapshot::new(graph, attributes, embeddings, config.clone())
        .map_err(|e| e.to_string())?;

    report.set(
        "transform.project_all_ms",
        median_ms(3, || {
            black_box(snap.project_points());
        }),
    );

    let (w1_ms, _) = bulk_build(&snap, &config, 1);
    let (wn_ms, parallel_runs) = bulk_build(&snap, &config, env.nproc);
    report.set("core.rtree.bulk_build_ms_w1", w1_ms);
    report.set("core.rtree.bulk_build_ms_wn", wn_ms);
    report.set("core.rtree.bulk_speedup", w1_ms / wn_ms.max(1e-9));
    report.set("sync.pool.parallel_runs", parallel_runs as f64);
    report.info("pool_width", env.nproc as f64, "count");

    // The distance kernel over one block of random ids, serial pool: the
    // exact path a one-thread engine takes per candidate set.
    let points = snap.project_points();
    let mut rng = Rng::derive(env.seed, &[0x6e0]);
    let block = scale.kernel_block.min(points.len().max(1));
    let ids: Vec<u32> = (0..block)
        .map(|_| rng.below(points.len().max(1)) as u32)
        .collect();
    let q: Vec<f64> = points.point(ids[0]).to_vec();
    let mut out = vec![0.0; ids.len()];
    let rounds = 200;
    let kernel_ms = median_ms(5, || {
        for _ in 0..rounds {
            kernels::distances_sq(&Pool::serial(), &points, black_box(&ids), &q, &mut out);
            black_box(&out);
        }
    });
    report.set(
        "core.geometry.dist_ns_per_point",
        kernel_ms * 1e6 / (rounds * ids.len()) as f64,
    );

    wal_layer(report, env, 2_000.min(scale.entities))?;

    // What a result-cache miss adds to a top-k, on the cache alone: the
    // failed probe and the insert of the fresh answer (past capacity, an
    // eviction too). Taken as facade-with-cache minus facade-without, it
    // would be the difference of two ~2 ms medians.
    if let Some(t) = inputs.graph.triples().first() {
        let answer = IndexState::cracking(&snap)
            .top_k(&snap, t.head, t.relation, Direction::Tails, K)
            .map_err(|e| e.to_string())?;
        let cache = ResultCache::new(DEFAULT_CACHE_CAPACITY);
        let probes = 20_000u32;
        let started = Instant::now();
        for entity in 0..probes {
            let key = CacheKey::top_k(entity, t.relation.0, Direction::Tails, None);
            black_box(cache.lookup_top_k(&key, K, 0, 0, config.epsilon, config.alpha));
            cache.insert_top_k(key, K, 0, 0, &answer);
        }
        report.set(
            "core.cache.probe_insert_us",
            started.elapsed().as_secs_f64() * 1e6 / f64::from(probes),
        );
    }

    // One push and one pop of the admission queue, uncontended.
    let queue: JobQueue<u64> = JobQueue::new(128);
    let pairs = 200_000u64;
    let started = Instant::now();
    for i in 0..pairs {
        black_box(queue.try_push(i));
        black_box(queue.pop());
    }
    report.set(
        "server.queue.push_pop_ns",
        started.elapsed().as_nanos() as f64 / pairs as f64,
    );
    Ok(())
}
