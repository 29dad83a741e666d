//! Open-loop load generator for the `vkg-server` serving layer.
//!
//! Starts an in-process server over the smoke-scale movie dataset, then
//! drives it at a target QPS: request *i* is launched at
//! `start + i/qps` regardless of how long earlier requests took (open
//! loop — the arrival process does not slow down when the server does,
//! so queueing delay shows up in the latencies instead of being hidden
//! by back-pressure). Reports hand-rolled p50/p95/p99/max latency
//! histograms, the shed rate, and the error count.
//!
//! ```text
//! cargo run --release -p vkg-bench --bin serve_load -- --qps 150 --seconds 2 --seed 7 --check
//! ```
//!
//! `--check` exits non-zero unless every completed request succeeded,
//! at least one completed, and the server's own telemetry (fetched over
//! the `Metrics` wire opcode before shutdown) reconciles with what the
//! clients observed: `admitted == answered` once the senders drained,
//! the server's shed count matches the client-observed overload
//! rejections, and the server-side p50 sits at or below the
//! client-side p50 (plus one histogram bucket of tolerance) — the CI
//! tier-2 gate. `--metrics-out PATH` writes the full server snapshot in
//! the `vkg-obs` text exposition format as a run artifact.
//!
//! The serve path's result cache is load-tested through two more
//! knobs. `--cache on|off` switches the engine's epoch-keyed result
//! cache (default off); `--zipf S` skews the workload so a hot head of
//! queries repeats (`S = 0`, the default, keeps the uniform stream). Under
//! `--check`, a quiescent sample of the workload is then asked once over
//! the wire — the cached path — and recomputed cache-free against the
//! same pinned engine state: any bit of divergence fails the run, and
//! with the cache on a skewed workload must also show a non-zero hit
//! count.
//!
//! The crash → restart → parity loop is scriptable through three more
//! flags. `--wal PATH` (default off) attaches the write-ahead log: the
//! server logs + flushes every dynamic write before acking it, every
//! connection self-heals with a per-connection deterministically-seeded
//! [`RetryPolicy`], and writes carry idempotency tokens so a retry after
//! an ambiguous failure applies at most once. `--kill-after N` aborts
//! the whole process the moment the Nth write is acked — destructors do
//! not run, exactly like a SIGKILL — leaving the acked prefix on disk
//! (exit code [`KILLED_EXIT`] tells the harness the kill fired as
//! planned). `--recover` runs the other phase: rebuild the engine,
//! replay the WAL, and print the attach wall time, replayed-record count
//! and truncated bytes. With `--wal`, `--check` additionally reconciles
//! the durability counters: exported `server.wal.appended` must equal
//! the client-observed applied writes, every `server.wal.dedup_hits`
//! must be explained by a recorded client write retry, and the final
//! epoch must equal replayed + appended.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use vkg::sync::{AtomicU64, Ordering};

use vkg::core::config::DEFAULT_CACHE_CAPACITY;
use vkg::core::metrics::names as core_names;
use vkg::core::FaultPlane;
use vkg::obs::expo;
use vkg::prelude::*;
use vkg_bench::latency::Histogram;
use vkg_bench::setup::{self, Scale};
use vkg_bench::workload;
use vkg_server::server::names;
use vkg_server::{Client, ClientError, ErrorCode, RetryPolicy, RetryStats, Server, ServerConfig};

/// Process exit code of a `--kill-after` abort, so the crash-recovery
/// harness can tell a planned kill from an ordinary failure.
const KILLED_EXIT: i32 = 86;

struct Args {
    qps: f64,
    seconds: f64,
    connections: usize,
    seed: u64,
    write_ratio: f64,
    workers: usize,
    queue_capacity: usize,
    /// Result-cache entry capacity: `--cache on` selects
    /// [`DEFAULT_CACHE_CAPACITY`], `off` (the default) 0.
    cache_capacity: usize,
    /// Zipf exponent of the workload (`--zipf`); 0 is uniform.
    zipf: f64,
    /// Write-ahead-log path (`--wal`); `None` keeps the in-memory write
    /// path bit-identical.
    wal: Option<PathBuf>,
    /// Abort the process (as a SIGKILL would) once this many writes
    /// have been acked (`--kill-after`); requires `--wal`.
    kill_after: Option<u64>,
    /// Run the recovery phase instead of the load phase (`--recover`):
    /// replay the WAL into a fresh engine and report what it found.
    recover: bool,
    check: bool,
    metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            qps: 200.0,
            seconds: 5.0,
            connections: 4,
            seed: 7,
            write_ratio: 0.02,
            workers: 4,
            queue_capacity: 128,
            cache_capacity: 0,
            zipf: 0.0,
            wal: None,
            kill_after: None,
            recover: false,
            check: false,
            metrics_out: None,
        }
    }
}

fn usage() {
    eprintln!(
        "usage: serve_load [--qps N] [--seconds N] [--connections N] [--seed N]\n\
         \x20                 [--write-ratio F] [--workers N] [--queue N]\n\
         \x20                 [--cache on|off] [--zipf S]\n\
         \x20                 [--wal PATH] [--kill-after N] [--recover]\n\
         \x20                 [--check] [--metrics-out PATH]"
    );
}

fn parse_args() -> Option<Args> {
    let mut a = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> Option<f64> {
            match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => Some(v),
                _ => {
                    eprintln!("serve_load: {what} wants a positive number");
                    None
                }
            }
        };
        match arg.as_str() {
            "--qps" => a.qps = num("--qps")?,
            "--seconds" => a.seconds = num("--seconds")?,
            "--connections" => a.connections = num("--connections")? as usize,
            "--seed" => a.seed = num("--seed")? as u64,
            "--write-ratio" => a.write_ratio = num("--write-ratio")?.min(1.0),
            "--workers" => a.workers = num("--workers")? as usize,
            "--queue" => a.queue_capacity = num("--queue")? as usize,
            "--cache" => match args.next().as_deref() {
                Some("on") => a.cache_capacity = DEFAULT_CACHE_CAPACITY,
                Some("off") => a.cache_capacity = 0,
                _ => {
                    eprintln!("serve_load: --cache wants `on` or `off`");
                    return None;
                }
            },
            "--zipf" => a.zipf = num("--zipf")?,
            "--wal" => match args.next() {
                Some(path) => a.wal = Some(PathBuf::from(path)),
                None => {
                    eprintln!("serve_load: --wal wants a path");
                    return None;
                }
            },
            "--kill-after" => a.kill_after = Some(num("--kill-after")? as u64),
            "--recover" => a.recover = true,
            "--check" => a.check = true,
            "--metrics-out" => match args.next() {
                Some(path) => a.metrics_out = Some(path),
                None => {
                    eprintln!("serve_load: --metrics-out wants a path");
                    return None;
                }
            },
            _ => {
                usage();
                return None;
            }
        }
    }
    if a.kill_after.is_some() && a.wal.is_none() {
        eprintln!("serve_load: --kill-after only makes sense with --wal (the acked prefix must survive the kill)");
        return None;
    }
    if a.recover && a.wal.is_none() {
        eprintln!("serve_load: --recover wants --wal (which log should be replayed?)");
        return None;
    }
    if a.recover && a.kill_after.is_some() {
        eprintln!("serve_load: --recover and --kill-after are separate phases");
        return None;
    }
    Some(a)
}

/// Per-connection tally, merged after the run.
#[derive(Default)]
struct Tally {
    completed: u64,
    shed: u64,
    deadline_expired: u64,
    errors: u64,
    /// Writes acked with `added = true` — each one the WAL must hold.
    writes_applied: u64,
    /// The connection's self-healing counters (zero without `--wal`).
    retry: RetryStats,
    hist: Histogram,
}

/// `--check`'s cache-parity clause: at quiescence a sample of distinct
/// workload queries is asked once over the wire — the cached serve
/// path — and recomputed cache-free (the read halves alone, under the
/// shared guard) against the same pinned engine state. Returns the number of queries checked; any bit of
/// divergence is an error. Every fourth sample also cross-checks the
/// aggregate path.
fn check_cache_parity(
    vkg: &VirtualKnowledgeGraph,
    addr: std::net::SocketAddr,
    queries: &[workload::Query],
) -> Result<usize, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("parity client: {e}"))?;
    let mut seen = std::collections::HashSet::new();
    let mut checked = 0usize;
    for q in queries {
        if checked >= 32 {
            break;
        }
        if !seen.insert((q.entity.0, q.relation.0, q.direction == Direction::Tails)) {
            continue;
        }
        let remote = client
            .top_k(q.entity, q.relation, q.direction, 10)
            .map_err(|e| format!("remote top-k: {e}"))?;
        let local = vkg
            .with_published_index(|_pin, snap, state| {
                state.top_k_read(snap, q.entity, q.relation, q.direction, 10, &|_| true)
            })
            .map_err(|e| format!("local recompute: {e}"))?
            .0;
        if remote.predictions.len() != local.predictions.len()
            || remote
                .predictions
                .iter()
                .zip(&local.predictions)
                .any(|(r, l)| {
                    r.id != l.id
                        || r.distance.to_bits() != l.distance.to_bits()
                        || r.probability.to_bits() != l.probability.to_bits()
                })
            || remote.success_probability.to_bits() != local.guarantee.success_probability.to_bits()
            || remote.expected_misses.to_bits() != local.guarantee.expected_misses.to_bits()
        {
            return Err(format!(
                "top-k diverged from recomputation on entity {} relation {} ({:?})",
                q.entity.0, q.relation.0, q.direction
            ));
        }
        if checked % 4 == 0 {
            let remote_agg = client
                .aggregate(
                    q.entity,
                    q.relation,
                    q.direction,
                    AggregateKind::Count,
                    None,
                    0.05,
                    None,
                )
                .map_err(|e| format!("remote aggregate: {e}"))?;
            let spec = AggregateSpec::count(0.05);
            let local_agg = vkg
                .with_published_index(|_pin, snap, state| {
                    let (entity, relation, direction) = (q.entity, q.relation, q.direction);
                    let (nearest, _) =
                        state.aggregate_anchor(snap, entity, relation, direction, &spec)?;
                    let Some(nearest) = nearest else {
                        return Ok(AggregateResult::empty());
                    };
                    state
                        .aggregate_ball(snap, entity, relation, direction, &spec, &nearest)
                        .map(|(answer, _)| answer)
                })
                .map_err(|e: VkgError| format!("local aggregate recompute: {e}"))?;
            if remote_agg.estimate.to_bits() != local_agg.estimate.to_bits()
                || remote_agg.mu.to_bits() != local_agg.bound.mu.to_bits()
                || remote_agg.increment_mass.to_bits() != local_agg.bound.increment_mass.to_bits()
                || remote_agg.ball_size as usize != local_agg.ball_size
            {
                return Err(format!(
                    "aggregate diverged from recomputation on entity {} relation {}",
                    q.entity.0, q.relation.0
                ));
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("no queries to sample".into());
    }
    Ok(checked)
}

/// The `--recover` phase: rebuild the engine the load phase served,
/// replay the WAL into it (timing the attach — replay runs every record
/// through the normal dynamic-write path), bring a server up on the
/// recovered state so the `server.wal.*` mirrors export. Under `--check`
/// the phase also gates parity: every replayed record must have
/// published exactly one epoch, and the wire-exported mirror must agree
/// with the facade.
fn run_recover(args: &Args, wal_path: &std::path::Path) -> ExitCode {
    eprintln!(
        "serve_load: recovery phase — rebuilding the smoke-scale engine \
         (cache {} entries)...",
        args.cache_capacity
    );
    let prepared = setup::movie(Scale::Smoke, 16);
    let vkg = Arc::new(VirtualKnowledgeGraph::assemble(
        prepared.dataset.graph,
        prepared.dataset.attributes,
        prepared.embeddings,
        VkgConfig {
            cache_capacity: args.cache_capacity,
            ..setup::bench_config()
        },
    ));
    let wal_bytes = std::fs::metadata(wal_path).map(|m| m.len()).unwrap_or(0);
    let t = Instant::now();
    let report = match vkg.attach_wal(wal_path, FaultPlane::none()) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("serve_load: WAL recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attach_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "serve_load recovery: replayed {} record(s) ({} byte(s), {} truncated) in {:.3} ms -> epoch {}",
        report.replayed, wal_bytes, report.truncated_bytes, attach_ms, report.epoch
    );

    // The WAL is already attached, so the server starts without one —
    // but its metrics export still mirrors the facade's counters, which
    // is the end-to-end surface the parity gate reads.
    let handle = match Server::start(
        Arc::clone(&vkg),
        "127.0.0.1:0",
        ServerConfig {
            workers: args.workers,
            queue_capacity: args.queue_capacity,
            ..ServerConfig::default()
        },
    ) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve_load: cannot bind loopback server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = Client::connect(handle.addr())
        .and_then(|mut c| c.metrics(0))
        .map_err(|e| eprintln!("serve_load: metrics fetch failed: {e}"))
        .ok();
    if let (Some(path), Some(m)) = (&args.metrics_out, &metrics) {
        if let Err(e) = std::fs::write(path, expo::render(&m.snapshot)) {
            eprintln!("serve_load: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  metrics snapshot written to {path}");
    }
    handle.shutdown();

    if args.check {
        // Replayed records were all fresh (`added = true`) when they
        // were logged, so replaying them into an identically-built
        // engine publishes exactly one epoch each — any drift means a
        // lost or duplicated write.
        if report.epoch != report.replayed {
            eprintln!(
                "serve_load: CHECK FAILED — epoch {} after replaying {} record(s)",
                report.epoch, report.replayed
            );
            return ExitCode::FAILURE;
        }
        let Some(m) = &metrics else {
            eprintln!("serve_load: CHECK FAILED — metrics opcode did not answer");
            return ExitCode::FAILURE;
        };
        let mirrored = m.snapshot.gauge(names::WAL_REPLAYED).unwrap_or(u64::MAX);
        if mirrored != report.replayed {
            eprintln!(
                "serve_load: CHECK FAILED — exported server.wal.replayed {} != facade report {}",
                mirrored, report.replayed
            );
            return ExitCode::FAILURE;
        }
        println!("serve_load: CHECK OK (recovery parity reconciled)");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return ExitCode::FAILURE;
    };
    if args.recover {
        let Some(wal_path) = args.wal.clone() else {
            // parse_args already refused this combination.
            return ExitCode::FAILURE;
        };
        return run_recover(&args, &wal_path);
    }

    eprintln!(
        "serve_load: preparing smoke-scale movie dataset + embeddings \
         (cache {} entries, wal {})...",
        args.cache_capacity,
        args.wal
            .as_deref()
            .map_or("off".into(), |p| p.display().to_string()),
    );
    let prepared = setup::movie(Scale::Smoke, 16);
    let graph = prepared.dataset.graph.clone();
    let vkg = Arc::new(VirtualKnowledgeGraph::assemble(
        prepared.dataset.graph,
        prepared.dataset.attributes,
        prepared.embeddings,
        VkgConfig {
            cache_capacity: args.cache_capacity,
            ..setup::bench_config()
        },
    ));
    let handle = match Server::start(
        Arc::clone(&vkg),
        "127.0.0.1:0",
        ServerConfig {
            workers: args.workers,
            queue_capacity: args.queue_capacity,
            wal: args.wal.clone(),
            ..ServerConfig::default()
        },
    ) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve_load: cannot bind loopback server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();

    let total = (args.qps * args.seconds).ceil() as u64;
    let queries = Arc::new(if args.zipf > 0.0 {
        workload::generate_zipf(&graph, total as usize, args.seed, args.zipf)
    } else {
        workload::generate(&graph, total as usize, args.seed)
    });
    let entities = graph.num_entities() as u32;
    eprintln!(
        "serve_load: {} requests at {} QPS over {} connections -> {}",
        total, args.qps, args.connections, addr
    );

    // Open loop: a shared ticket counter assigns each request its
    // absolute launch time; whichever connection is free next takes it.
    let tickets = Arc::new(AtomicU64::new(0));
    // Write acks across every connection, for `--kill-after`.
    let acked_writes = Arc::new(AtomicU64::new(0));
    let wal_mode = args.wal.is_some();
    let kill_after = args.kill_after;
    let start = Instant::now();
    let senders: Vec<_> = (0..args.connections)
        .map(|c| {
            let tickets = Arc::clone(&tickets);
            let acked_writes = Arc::clone(&acked_writes);
            let queries = Arc::clone(&queries);
            let write_ratio = args.write_ratio;
            let qps = args.qps;
            let seed = args.seed;
            thread::spawn(move || {
                let mut tally = Tally::default();
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(e) => {
                        eprintln!("serve_load: connection {c} failed to connect: {e}");
                        tally.errors += 1;
                        return tally;
                    }
                };
                if wal_mode {
                    // Durability runs are the crash runs: every
                    // connection self-heals, seeded per-connection so
                    // the backoff jitter and write tokens are distinct
                    // across the fleet. The pid is mixed in because a
                    // token names a logical write *across* runs: a
                    // fresh process resuming an old WAL must not
                    // regenerate the previous run's token stream, or
                    // the replay-seeded idempotency map would answer
                    // its brand-new writes with the old outcomes.
                    client.set_retry_policy(Some(RetryPolicy {
                        max_attempts: 10,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(50),
                        seed: seed
                            ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ u64::from(std::process::id()) << 32,
                    }));
                }
                loop {
                    // relaxed: a ticket dispenser; each thread only needs a unique value, not ordering.
                    let i = tickets.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(i as f64 / qps);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    // A deterministic slice of the stream becomes
                    // dynamic writes; everything else alternates top-k
                    // and aggregates.
                    let write_every = if write_ratio > 0.0 {
                        (1.0 / write_ratio) as u64
                    } else {
                        u64::MAX
                    };
                    let q = &queries[i as usize];
                    let sent = Instant::now();
                    let outcome = if i % write_every == write_every - 1 {
                        let h = q.entity;
                        let t = EntityId((h.0 * 31 + i as u32 * 7 + c as u32) % entities);
                        let written = if wal_mode {
                            // Tokened: a retry after a crash or a lost
                            // ack applies at most once.
                            client.add_fact_idempotent(h, q.relation, t, 2, 0.01)
                        } else {
                            client.add_fact(h, q.relation, t, 2, 0.01)
                        };
                        written.map(|(added, _epoch)| {
                            if added {
                                tally.writes_applied += 1;
                            }
                            if let Some(kill) = kill_after {
                                // relaxed: a monotone tally; the exit below is the only consumer.
                                let acked = acked_writes.fetch_add(1, Ordering::Relaxed) + 1;
                                if acked >= kill {
                                    // Die the way a SIGKILL would: no
                                    // destructors, no WAL cleanup — the
                                    // acked prefix stays on disk for
                                    // the --recover phase to replay.
                                    eprintln!(
                                        "serve_load: --kill-after {kill} reached; aborting the process"
                                    );
                                    std::process::exit(KILLED_EXIT);
                                }
                            }
                        })
                    } else if i % 10 == 9 {
                        client
                            .aggregate(
                                q.entity,
                                q.relation,
                                q.direction,
                                AggregateKind::Count,
                                None,
                                0.05,
                                None,
                            )
                            .map(|_| ())
                    } else {
                        client
                            .top_k(q.entity, q.relation, q.direction, 10)
                            .map(|_| ())
                    };
                    match outcome {
                        Ok(()) => {
                            tally.hist.record(sent.elapsed());
                            tally.completed += 1;
                        }
                        Err(ClientError::Server(e)) if e.code == ErrorCode::Overloaded => {
                            tally.shed += 1;
                        }
                        Err(ClientError::Server(e)) if e.code == ErrorCode::DeadlineExceeded => {
                            tally.deadline_expired += 1;
                        }
                        Err(e) => {
                            eprintln!("serve_load: request {i} failed: {e}");
                            tally.errors += 1;
                        }
                    }
                }
                tally.retry = client.retry_stats();
                tally
            })
        })
        .collect();

    let mut merged = Tally::default();
    for s in senders {
        match s.join() {
            Ok(t) => {
                merged.completed += t.completed;
                merged.shed += t.shed;
                merged.deadline_expired += t.deadline_expired;
                merged.errors += t.errors;
                merged.writes_applied += t.writes_applied;
                merged.retry.backoffs += t.retry.backoffs;
                merged.retry.reconnects += t.retry.reconnects;
                merged.retry.retried_frames += t.retry.retried_frames;
                merged.retry.write_retries += t.retry.write_retries;
                merged.hist.merge(&t.hist);
            }
            Err(_) => {
                eprintln!("serve_load: a sender thread panicked");
                merged.errors += 1;
            }
        }
    }
    let elapsed = start.elapsed();

    // The cache-parity clause runs while the server is live but
    // quiescent, before the telemetry snapshot, so its traffic (and any
    // hits it produces) is part of the exported counters.
    let parity = args.check.then(|| check_cache_parity(&vkg, addr, &queries));

    // Every sender has its answer, so the queue is drained — fetch the
    // server's own telemetry over the wire before shutting it down.
    let metrics = Client::connect(addr)
        .and_then(|mut c| c.metrics(64))
        .map_err(|e| eprintln!("serve_load: metrics fetch failed: {e}"))
        .ok();
    let counters = handle.shutdown();

    let issued = merged.completed + merged.shed + merged.deadline_expired + merged.errors;
    let shed_rate = merged.shed as f64 / issued.max(1) as f64;
    println!("serve_load results");
    println!(
        "  issued={} completed={} shed={} ({:.2}%) deadline_expired={} errors={}",
        issued,
        merged.completed,
        merged.shed,
        shed_rate * 1e2,
        merged.deadline_expired,
        merged.errors
    );
    println!(
        "  offered={:.0} QPS achieved={:.0} QPS over {:.2}s",
        args.qps,
        merged.completed as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64()
    );
    println!("  latency {}", merged.hist.summary());
    println!(
        "  server counters: admitted={} answered={} shed={} deadline_expired={} drained={}",
        counters.admitted,
        counters.answered,
        counters.shed,
        counters.deadline_expired,
        counters.drained
    );
    if let Some(m) = &metrics {
        let server_p50_us = m
            .snapshot
            .hist(names::LATENCY_US)
            .map(|h| h.quantile_us(0.50))
            .unwrap_or(0);
        println!(
            "  server telemetry (epoch {}): spans recorded={} dropped={} p50={:.2}ms",
            m.epoch,
            m.snapshot.spans_recorded,
            m.snapshot.spans_dropped,
            server_p50_us as f64 / 1e3,
        );
        let hits = m.snapshot.counter(core_names::CACHE_HIT).unwrap_or(0);
        let misses = m.snapshot.counter(core_names::CACHE_MISS).unwrap_or(0);
        println!(
            "  cache: hits={} misses={} invalidations={} | late cracks: applied={} skipped={}",
            hits,
            misses,
            m.snapshot
                .counter(core_names::CACHE_INVALIDATE)
                .unwrap_or(0),
            m.snapshot.counter(core_names::CRACKS_APPLIED).unwrap_or(0),
            m.snapshot.counter(core_names::CRACKS_SKIPPED).unwrap_or(0),
        );
        if wal_mode {
            println!(
                "  wal: appended={} replayed={} dedup_hits={} | client retry: \
                 backoffs={} reconnects={} write_retries={}",
                m.snapshot.gauge(names::WAL_APPENDED).unwrap_or(0),
                m.snapshot.gauge(names::WAL_REPLAYED).unwrap_or(0),
                m.snapshot.gauge(names::WAL_DEDUP_HITS).unwrap_or(0),
                merged.retry.backoffs,
                merged.retry.reconnects,
                merged.retry.write_retries,
            );
        }
    }
    if let Some(path) = &args.metrics_out {
        match &metrics {
            Some(m) => {
                if let Err(e) = std::fs::write(path, expo::render(&m.snapshot)) {
                    eprintln!("serve_load: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("  metrics snapshot written to {path}");
            }
            None => {
                eprintln!("serve_load: --metrics-out set but the metrics fetch failed");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.check {
        if merged.errors > 0 {
            eprintln!(
                "serve_load: CHECK FAILED — {} request errors",
                merged.errors
            );
            return ExitCode::FAILURE;
        }
        if merged.completed == 0 {
            eprintln!("serve_load: CHECK FAILED — no request completed");
            return ExitCode::FAILURE;
        }
        if counters.admitted != counters.answered {
            eprintln!(
                "serve_load: CHECK FAILED — admitted {} != answered {}",
                counters.admitted, counters.answered
            );
            return ExitCode::FAILURE;
        }
        let Some(m) = &metrics else {
            eprintln!("serve_load: CHECK FAILED — metrics opcode did not answer");
            return ExitCode::FAILURE;
        };
        // The snapshot was taken after every sender had its answer, so
        // the exported gauges must already agree with each other and
        // with what the clients saw — not just the post-shutdown
        // counters.
        let g = |name: &str| m.snapshot.gauge(name).unwrap_or(u64::MAX);
        if g(names::ADMITTED) != g(names::ANSWERED) {
            eprintln!(
                "serve_load: CHECK FAILED — exported admitted {} != answered {} after drain",
                g(names::ADMITTED),
                g(names::ANSWERED)
            );
            return ExitCode::FAILURE;
        }
        if wal_mode {
            // A self-healing client retries Overloaded refusals, and
            // every such retry the server sheds again counts once more
            // server-side — so the server total sits between the
            // client's terminal rejections and terminal + backoffs.
            let shed = g(names::SHED);
            if shed < merged.shed || shed > merged.shed + merged.retry.backoffs {
                eprintln!(
                    "serve_load: CHECK FAILED — server shed {} outside [{}, {}] \
                     (client rejections + recorded backoffs)",
                    shed,
                    merged.shed,
                    merged.shed + merged.retry.backoffs
                );
                return ExitCode::FAILURE;
            }
        } else if g(names::SHED) != merged.shed {
            eprintln!(
                "serve_load: CHECK FAILED — server shed {} != client-observed rejections {}",
                g(names::SHED),
                merged.shed
            );
            return ExitCode::FAILURE;
        }
        // Server spans cover admission → encode, a strict sub-interval
        // of each client-measured request, so the server p50 may not
        // exceed the client p50 by more than one geometric bucket
        // (≈9%) plus a small absolute allowance for bucket rounding.
        let server_p50_us = m
            .snapshot
            .hist(names::LATENCY_US)
            .map(|h| h.quantile_us(0.50))
            .unwrap_or(u64::MAX);
        let client_p50_us = merged.hist.quantile(0.50).as_micros() as f64;
        let allowed_us = client_p50_us * 1.10 + 1_000.0;
        if server_p50_us as f64 > allowed_us {
            eprintln!(
                "serve_load: CHECK FAILED — server p50 {server_p50_us}µs exceeds \
                 client p50 {client_p50_us}µs beyond tolerance ({allowed_us:.0}µs)"
            );
            return ExitCode::FAILURE;
        }
        match parity {
            Some(Ok(n)) => println!("  cache parity OK over {n} sampled queries"),
            Some(Err(e)) => {
                eprintln!("serve_load: CHECK FAILED — cache parity: {e}");
                return ExitCode::FAILURE;
            }
            None => {}
        }
        let hits = m.snapshot.counter(core_names::CACHE_HIT).unwrap_or(0);
        if args.cache_capacity == 0 && hits > 0 {
            eprintln!(
                "serve_load: CHECK FAILED — {hits} cache hits reported with the cache disabled"
            );
            return ExitCode::FAILURE;
        }
        if args.cache_capacity > 0 && args.zipf > 0.0 && hits == 0 {
            eprintln!(
                "serve_load: CHECK FAILED — cache enabled on a skewed workload but never hit"
            );
            return ExitCode::FAILURE;
        }
        if wal_mode {
            // Durability counter parity: every applied write the
            // clients saw is a WAL append, every dedup hit is explained
            // by a recorded client write retry, and every record —
            // replayed at startup or appended since — published exactly
            // one epoch.
            let appended = g(names::WAL_APPENDED);
            let replayed = g(names::WAL_REPLAYED);
            let dedup_hits = g(names::WAL_DEDUP_HITS);
            if appended != merged.writes_applied {
                eprintln!(
                    "serve_load: CHECK FAILED — server.wal.appended {} != client-observed \
                     applied writes {}",
                    appended, merged.writes_applied
                );
                return ExitCode::FAILURE;
            }
            if dedup_hits > merged.retry.write_retries {
                eprintln!(
                    "serve_load: CHECK FAILED — {} dedup hits but only {} client write \
                     retries: a duplicate frame applied somewhere",
                    dedup_hits, merged.retry.write_retries
                );
                return ExitCode::FAILURE;
            }
            if m.epoch != replayed + appended {
                eprintln!(
                    "serve_load: CHECK FAILED — epoch {} != replayed {} + appended {}",
                    m.epoch, replayed, appended
                );
                return ExitCode::FAILURE;
            }
        }
        println!("serve_load: CHECK OK (telemetry reconciled)");
    }
    ExitCode::SUCCESS
}
