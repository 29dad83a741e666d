//! The served run: generate the inputs, build the engine, start the real
//! server on loopback, warm it, load it closed-loop for the measured
//! phase, and read the server's own telemetry around that phase.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vkg::core::metrics::names as core_names;
use vkg::core::{VirtualKnowledgeGraph, VkgConfig};
use vkg::embed::{least_squares_embedding, EmbeddingStore, LsConfig};
use vkg::kg::datasets::{freebase_like, FreebaseConfig};
use vkg::kg::{AttributeStore, KnowledgeGraph};
use vkg::obs::MetricsSnapshot;
use vkg::sync::{thread, Arc};
use vkg_server::server::names as server_names;
use vkg_server::{
    AggregateWire, Client, RetryPolicy, Server, ServerConfig, ServerHandle, TopKWire, WireFilter,
};

use crate::gen::{self, Op, OpStream, Rng, Tables};
use crate::report::Report;
use crate::spec::{
    Scale, Workload, EMBED_DIM, EPSILON, K, LEARNING_RATE, P_TAU, REFINE_STEPS, SPAN_RING,
};
use crate::stats;

/// Where and how wide one run executes.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// Cores available to this process.
    pub nproc: usize,
    /// Server workers: `min(nproc, 4)`.
    pub workers: usize,
    /// Client connections, four per worker. With one connection per
    /// worker the loop is bound by thread wake-up latency, which on a
    /// shared host moved throughput by ±20% between identical runs; with
    /// four a worker always has a request waiting, the processors (or
    /// the shard lock) stay busy, and what is left is the host's own
    /// wandering (±6% back to back).
    pub lanes: usize,
    /// Directory for WAL and trace files, inside the build's target
    /// directory.
    pub scratch: PathBuf,
}

impl Env {
    pub fn new(seed: u64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let workers = nproc.min(4);
        Env {
            seed,
            nproc,
            workers,
            lanes: 4 * workers,
            scratch: target.join("ledger"),
        }
    }
}

/// What the benchmark hands the program: graph, attributes, embeddings.
pub struct Inputs {
    pub graph: KnowledgeGraph,
    pub attributes: AttributeStore,
    pub embeddings: EmbeddingStore,
    /// Wall time of generating the three (input preparation, not set-up).
    pub datagen_s: f64,
}

impl Inputs {
    /// The data set is the same at every `--seed` (the generators' own
    /// default seeds): a different graph is a different index, and its
    /// variation would sit on top of the host's in every metric. The seed
    /// drives what is *asked* of this data set.
    pub fn generate(scale: &Scale) -> Self {
        let started = Instant::now();
        let mut dataset = freebase_like(&FreebaseConfig {
            entities: scale.entities,
            edges: scale.edges,
            relation_types: scale.relation_types,
            ..FreebaseConfig::default()
        });
        dataset.compute_popularity();
        let embeddings = least_squares_embedding(
            &dataset.graph,
            &LsConfig {
                dim: EMBED_DIM,
                ..LsConfig::default()
            },
        );
        Inputs {
            graph: dataset.graph,
            attributes: dataset.attributes,
            embeddings,
            datagen_s: started.elapsed().as_secs_f64(),
        }
    }

    fn parts(&self) -> (KnowledgeGraph, AttributeStore, EmbeddingStore) {
        (
            self.graph.clone(),
            self.attributes.clone(),
            self.embeddings.clone(),
        )
    }
}

pub fn engine_config(workload: Workload, nproc: usize) -> VkgConfig {
    VkgConfig {
        epsilon: EPSILON,
        cache_capacity: workload.cache_capacity(),
        threads: if workload.bulk_loaded() { nproc } else { 1 },
        ..VkgConfig::default()
    }
}

/// A fresh engine over a copy of the inputs, as the workload asks.
pub fn assemble(
    inputs: &Inputs,
    workload: Workload,
    nproc: usize,
) -> Result<VirtualKnowledgeGraph, String> {
    assemble_parts(
        inputs.parts(),
        engine_config(workload, nproc),
        workload.bulk_loaded(),
    )
}

/// [`assemble`] with the result cache off, whatever the workload asks.
pub fn assemble_uncached(
    inputs: &Inputs,
    workload: Workload,
    nproc: usize,
) -> Result<VirtualKnowledgeGraph, String> {
    let config = VkgConfig {
        cache_capacity: 0,
        ..engine_config(workload, nproc)
    };
    assemble_parts(inputs.parts(), config, workload.bulk_loaded())
}

fn assemble_parts(
    (graph, attributes, embeddings): (KnowledgeGraph, AttributeStore, EmbeddingStore),
    config: VkgConfig,
    bulk_loaded: bool,
) -> Result<VirtualKnowledgeGraph, String> {
    if bulk_loaded {
        VirtualKnowledgeGraph::try_assemble_bulk_loaded(graph, attributes, embeddings, config)
    } else {
        VirtualKnowledgeGraph::try_assemble(graph, attributes, embeddings, config)
    }
    .map_err(|e| format!("assemble: {e}"))
}

/// A running server with its engine and connected clients.
pub struct Served {
    pub vkg: Arc<VirtualKnowledgeGraph>,
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
}

impl Served {
    /// Builds the engine, starts the server and connects `lanes` clients;
    /// returns the wall time from the first to the last of those steps,
    /// i.e. until the first request can be sent. Copying the inputs is
    /// not part of it.
    pub fn start(
        inputs: &Inputs,
        workload: Workload,
        env: &Env,
        lanes: usize,
        wal: Option<&Path>,
    ) -> Result<(Served, f64), String> {
        let parts = inputs.parts();
        let started = Instant::now();
        let vkg = Arc::new(assemble_parts(
            parts,
            engine_config(workload, env.nproc),
            workload.bulk_loaded(),
        )?);
        let config = ServerConfig {
            workers: env.workers,
            span_ring: SPAN_RING,
            wal: wal.map(Path::to_path_buf),
            ..ServerConfig::default()
        };
        let handle = Server::start(Arc::clone(&vkg), "127.0.0.1:0", config)
            .map_err(|e| format!("server start: {e}"))?;
        let mut clients = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            // Distinct seeds: clients sharing one would emit the same
            // idempotency tokens and the server would drop half the writes.
            client.set_retry_policy(Some(RetryPolicy {
                seed: Rng::derive(env.seed, &[0x70c, lane as u64]).next_u64(),
                ..RetryPolicy::default()
            }));
            clients.push(client);
        }
        let setup_s = started.elapsed().as_secs_f64();
        Ok((
            Served {
                vkg,
                handle,
                clients,
            },
            setup_s,
        ))
    }

    /// Drains the server; returns whether every admitted request was
    /// answered.
    pub fn stop(self) -> bool {
        drop(self.clients);
        let counters = self.handle.shutdown();
        counters.admitted == counters.answered
    }
}

/// A typed answer to one operation.
pub enum Answer {
    TopK(TopKWire),
    Aggregate(AggregateWire),
    Fact { added: bool },
}

/// Sends one operation through the client's typed, self-healing helpers.
pub fn ask(client: &mut Client, op: &Op) -> Result<Answer, String> {
    match *op {
        Op::TopK(q) => {
            let (e, r) = gen::ids(&q);
            client.top_k(e, r, q.direction(), K).map(Answer::TopK)
        }
        Op::Filtered { q, lo, hi } => {
            let (e, r) = gen::ids(&q);
            client
                .top_k_filtered(e, r, q.direction(), K, WireFilter::IdRange { lo, hi })
                .map(Answer::TopK)
        }
        Op::Aggregate { q, kind, sampled } => {
            let (e, r) = gen::ids(&q);
            let (attribute, sample_size) = Op::aggregate_args(kind, sampled);
            client
                .aggregate(e, r, q.direction(), kind, attribute, P_TAU, sample_size)
                .map(Answer::Aggregate)
        }
        Op::AddFact { h, r, t } => client
            .add_fact_idempotent(
                vkg::kg::EntityId(h),
                vkg::kg::RelationId(r),
                vkg::kg::EntityId(t),
                REFINE_STEPS,
                LEARNING_RATE,
            )
            .map(|(added, _epoch)| Answer::Fact { added }),
    }
    .map_err(|e| format!("{op:?}: {e}"))
}

/// [`ask`], counting a fresh write acked `added = false` as a failure:
/// every generated fact is new, so the server dropped or deduplicated it.
fn issue(client: &mut Client, op: &Op) -> Result<(), String> {
    match ask(client, op)? {
        Answer::Fact { added: false } => Err(format!("{op:?}: fresh fact acked added = false")),
        _ => Ok(()),
    }
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion time, from the start of the measured phase.
    done_ns: u64,
    lat_ns: u64,
    write: bool,
}

/// What one connection saw.
#[derive(Default)]
struct Lane {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    /// Fresh facts acked `added = true`.
    acked: Vec<(u32, u32, u32)>,
}

impl Lane {
    fn run(&mut self, client: &mut Client, op: &Op) -> Option<Duration> {
        self.attempted += 1;
        let sent = Instant::now();
        match issue(client, op) {
            Ok(()) => {
                if let Op::AddFact { h, r, t } = *op {
                    self.acked.push((h, r, t));
                }
                Some(sent.elapsed())
            }
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }
}

/// Per-operation sample slots reserved before the measured phase, so no
/// vector grows while the clock runs.
const SAMPLE_CAPACITY: usize = 1 << 21;

/// How often the resident set is sampled during the measured phase.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Closed loop: every connection sends its next request when the
/// previous reply arrives, for `duration`. Beside the lanes, a sampler
/// reads this process's resident set every 100 ms; returns the lanes and
/// those samples (MB).
fn drive(
    clients: &mut [Client],
    streams: Vec<OpStream<'_>>,
    duration: Duration,
) -> (Vec<Lane>, Vec<f64>) {
    let start = Instant::now() + Duration::from_millis(20);
    thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, mut stream)| {
                scope.spawn(move || {
                    let mut lane = Lane {
                        samples: Vec::with_capacity(SAMPLE_CAPACITY),
                        ..Lane::default()
                    };
                    thread::sleep(start.saturating_duration_since(Instant::now()));
                    while start.elapsed() < duration {
                        let op = stream.next_op();
                        if let Some(latency) = lane.run(client, &op) {
                            lane.samples.push(Sample {
                                done_ns: start.elapsed().as_nanos() as u64,
                                lat_ns: latency.as_nanos() as u64,
                                write: op.is_write(),
                            });
                        }
                    }
                    lane
                })
            })
            .collect();
        let sampler = scope.spawn(move || {
            let ticks = (duration.as_nanos() / RSS_SAMPLE_EVERY.as_nanos()) as usize;
            let mut rss = Vec::with_capacity(ticks + 1);
            thread::sleep(start.saturating_duration_since(Instant::now()));
            while start.elapsed() < duration {
                rss.extend(resident_mb("VmRSS:"));
                thread::sleep(RSS_SAMPLE_EVERY);
            }
            rss
        });
        let lanes = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Lane {
                    attempted: 1,
                    failed: 1,
                    first_failure: Some("connection thread panicked".to_owned()),
                    ..Lane::default()
                })
            })
            .collect();
        (lanes, sampler.join().unwrap_or_default())
    })
}

/// Equal slices of the measured phase: `load.drift` compares the last
/// fifth of them with the first.
const WINDOWS: usize = 20;

fn latencies_ms(lanes: &[Lane], write: bool) -> Vec<f64> {
    let mut v: Vec<f64> = lanes
        .iter()
        .flat_map(|l| &l.samples)
        .filter(|s| s.write == write)
        .map(|s| s.lat_ns as f64 / 1e6)
        .collect();
    stats::sort(&mut v);
    v
}

/// Sets `name` to the percentile if at least ten samples lie beyond it;
/// says so if not.
fn percentile_into(report: &mut Report, name: &'static str, sorted_ms: &[f64], q: f64) {
    match stats::percentile(sorted_ms, q) {
        Some(p) if p.trusted() => report.set(name, p.value),
        Some(p) => report.note(format!(
            "{name} not reported: {} samples beyond it (of {}), {} needed",
            p.beyond,
            sorted_ms.len(),
            stats::MIN_BEYOND
        )),
        None => {}
    }
}

/// Turns the lanes' raw samples into the latency and throughput metrics.
fn summarize(report: &mut Report, lanes: &[Lane], duration: Duration) {
    let reads = latencies_ms(lanes, false);
    let writes = latencies_ms(lanes, true);
    report.info("read_samples", reads.len() as f64, "count");
    percentile_into(report, "p50_ms", &reads, 0.50);
    percentile_into(report, "p95_ms", &reads, 0.95);
    percentile_into(report, "p99_ms", &reads, 0.99);
    if report.workload == Workload::WriteMix {
        report.info("write_samples", writes.len() as f64, "count");
        percentile_into(report, "write_p50_ms", &writes, 0.50);
        percentile_into(report, "write_p90_ms", &writes, 0.90);
    }

    // Throughput: replies that arrived inside the phase, over its length.
    // A reply that lands after the phase ended belongs to no window.
    let window_ns = (duration.as_nanos() as u64 / WINDOWS as u64).max(1);
    let mut counts = [0u64; WINDOWS];
    for s in lanes.iter().flat_map(|l| &l.samples) {
        if let Some(slot) = counts.get_mut((s.done_ns / window_ns) as usize) {
            *slot += 1;
        }
    }
    let inside: u64 = counts.iter().sum();
    report.set("qps", inside as f64 / duration.as_secs_f64());
    let per_second = 1e9 / window_ns as f64;
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 * per_second).collect();
    report.info("qps_window_median", stats::median(&rates), "1/s");
    let fifth = WINDOWS / 5;
    let first = stats::mean(&rates[..fifth]);
    if first > 0.0 {
        report.set("load.drift", stats::mean(&rates[WINDOWS - fifth..]) / first);
    }

    report.attempted = lanes.iter().map(|l| l.attempted).sum();
    report.failed = lanes.iter().map(|l| l.failed).sum();
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    if let Some(why) = lanes.iter().find_map(|l| l.first_failure.as_deref()) {
        report.fail(format!(
            "{} of {} operations failed, first: {why}",
            report.failed, report.attempted
        ));
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counter(name).or_else(|| m.gauge(name)).unwrap_or(0) as f64
}

/// Per-layer metrics the server already exports, as deltas over the
/// measured phase plus order statistics of its most recent spans.
fn telemetry(
    report: &mut Report,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    writes: usize,
) {
    let delta = |name: &str| counter(after, name) - counter(before, name);
    let answered = delta(server_names::ANSWERED).max(1.0);
    report.set(
        "server.lock_rounds_per_op",
        delta(server_names::LOCK_ROUNDS) / answered,
    );
    report.set(
        "core.engine.cracklog_replayed_per_op",
        delta(core_names::CRACKS_REPLAYED) / answered,
    );
    let hits = delta(core_names::CACHE_HIT) + delta(core_names::CACHE_PREFIX_HIT);
    let probes = hits + delta(core_names::CACHE_MISS);
    if probes > 0.0 {
        report.set("core.cache.hit_ratio", hits / probes);
    }
    if writes > 0 {
        report.set(
            "core.cache.invalidations_per_write",
            delta(core_names::CACHE_INVALIDATE) / writes as f64,
        );
    }

    type Phase = (&'static str, &'static str, fn(&vkg::obs::Span) -> u64);
    let phases: [Phase; 5] = [
        (
            "server.span.queue_us_p50",
            "server.span.queue_us_p99",
            |s| s.queue_ns,
        ),
        ("server.span.lock_us_p50", "server.span.lock_us_p99", |s| {
            s.lock_ns
        }),
        ("server.span.exec_us_p50", "server.span.exec_us_p99", |s| {
            s.exec_ns
        }),
        (
            "server.span.encode_us_p50",
            "server.span.encode_us_p99",
            |s| s.encode_ns,
        ),
        (
            "server.span.batch_us_p50",
            "server.span.batch_us_p99",
            |s| s.batch_ns,
        ),
    ];
    report.info("server_spans", after.spans.len() as f64, "count");
    for (p50, p99, phase) in phases {
        let mut us: Vec<f64> = after.spans.iter().map(|s| phase(s) as f64 / 1e3).collect();
        stats::sort(&mut us);
        if let (Some(mid), Some(tail)) =
            (stats::percentile(&us, 0.50), stats::percentile(&us, 0.99))
        {
            report.set(p50, mid.value);
            report.set(p99, tail.value);
        }
    }
}

/// One of this process's memory figures in MB, from `/proc/self/status`
/// (`VmRSS:` resident now, `VmHWM:` its peak).
fn resident_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A WAL path no earlier build of this run has written to.
fn wal_path(env: &Env, workload: Workload, build: usize) -> PathBuf {
    env.scratch.join(format!(
        "{}.{}.{build}.wal",
        workload.name(),
        std::process::id()
    ))
}

/// What the served phase leaves for the checks.
pub struct Outcome {
    pub served: Served,
    /// The log the server appended to (`write_mix`).
    pub wal: Option<PathBuf>,
    /// Every fresh fact acked `added = true`, warm phase included.
    pub acked: Vec<(u32, u32, u32)>,
}

/// Set-up, warm phase, measured phase. Fills `report` with the
/// end-to-end metrics and the per-layer ones the served phase yields.
pub fn run(
    report: &mut Report,
    inputs: &Inputs,
    tables: &Tables<'_>,
    scale: &Scale,
    env: &Env,
    seconds: f64,
    setup_builds: usize,
) -> Result<Outcome, String> {
    let workload = report.workload;
    std::fs::create_dir_all(&env.scratch).map_err(|e| format!("{}: {e}", env.scratch.display()))?;

    // Set-up, several times over; the last build is the one that serves.
    let setup_started = Instant::now();
    let mut setup_s = Vec::with_capacity(setup_builds);
    let mut kept: Option<(Served, Option<PathBuf>)> = None;
    for build in 0..setup_builds.max(1) {
        if let Some((served, wal)) = kept.take() {
            served.stop();
            if let Some(stale) = &wal {
                remove_wal(stale);
            }
        }
        let wal = workload
            .logs_writes()
            .then(|| wal_path(env, workload, build));
        if let Some(fresh) = &wal {
            remove_wal(fresh);
        }
        let (served, took_s) = Served::start(inputs, workload, env, env.lanes, wal.as_deref())?;
        setup_s.push(took_s);
        kept = Some((served, wal));
    }
    let Some((mut served, wal)) = kept else {
        return Err("no build ran".to_owned());
    };
    report.set("setup_s", stats::median(&setup_s));
    report.info("setup_builds", setup_s.len() as f64, "count");
    report.info("stage.setup_s", setup_started.elapsed().as_secs_f64(), "s");

    // Warm phase: one connection, untimed for the end-to-end metrics.
    // Lane `env.lanes` is the warm stream; the measured lanes start at 0.
    let lanes_total = env.lanes + 1;
    let mut warm_lane = Lane::default();
    let warm_started = Instant::now();
    for op in gen::warm_ops(tables, env.lanes, lanes_total, scale.warm_ops(workload)) {
        warm_lane.run(&mut served.clients[0], &op);
    }
    report.set(
        "core.index.converge_ms",
        warm_started.elapsed().as_secs_f64() * 1e3,
    );
    report.info("stage.warm_s", warm_started.elapsed().as_secs_f64(), "s");
    if let Some(why) = &warm_lane.first_failure {
        report.fail(format!("warm phase: {why}"));
    }

    // Measured phase.
    let before = served.clients[0]
        .metrics(0)
        .map_err(|e| format!("metrics: {e}"))?
        .snapshot;
    let duration = Duration::from_secs_f64(seconds);
    let streams = (0..env.lanes)
        .map(|lane| tables.stream(lane, lanes_total))
        .collect();
    let (lanes, rss) = drive(&mut served.clients, streams, duration);
    let after = served.clients[0]
        .metrics(SPAN_RING as u32)
        .map_err(|e| format!("metrics: {e}"))?
        .snapshot;
    if !rss.is_empty() {
        report.set("rss_mb", stats::median(&rss));
    }
    if let Some(mb) = resident_mb("VmHWM:") {
        report.info("rss_peak_mb", mb, "MB");
    }

    summarize(report, &lanes, duration);
    let writes = lanes.iter().map(|l| l.acked.len()).sum();
    telemetry(report, &before, &after, writes);
    let stats = served.clients[0]
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    report.set("core.index.nodes", stats.nodes as f64);
    report.set("core.index.bytes", stats.bytes as f64);
    report.set("datagen_s", inputs.datagen_s);

    let mut acked = warm_lane.acked;
    acked.extend(lanes.into_iter().flat_map(|l| l.acked));
    Ok(Outcome { served, wal, acked })
}

/// Removes a log if it is there: one left behind would be replayed.
pub fn remove_wal(path: &Path) {
    let _ = std::fs::remove_file(path);
}
