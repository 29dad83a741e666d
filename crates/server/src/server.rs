//! The serving loop: accept thread, per-connection I/O threads, a
//! bounded admission queue, and a fixed worker pool executing queries
//! against epoch-pinned snapshots.
//!
//! # Admission control
//!
//! Every query or write admitted to the internal job queue is guaranteed an
//! answer — success, a typed query error, or `DeadlineExceeded` — so
//! the counter invariant `admitted == answered` holds whenever the
//! queue is empty (and in particular after a graceful drain). When the
//! queue is full the connection thread *sheds* the request immediately
//! with [`ErrorCode::Overloaded`] instead of queueing unboundedly;
//! clients are expected to back off and retry.
//!
//! A read the result cache already answers never queues: the connection
//! thread that decoded it peeks at the cache first
//! ([`VirtualKnowledgeGraph::cached`], under the index lock's shared
//! side) and, on a hit, encodes and sends the answer itself. The hit is
//! admitted and answered at once, so the invariant holds for it too;
//! anything else — a miss, a stale entry, a write — is queued unchanged,
//! and the worker's own probe counts it.
//!
//! Parameters are **sanitized**: decoding being fail-closed is not
//! enough, because a *well-formed* frame can still carry
//! resource-exhaustion values. A read's `k` is clamped to the entity
//! count and to the largest answer that fits in a response frame
//! wherever its query is made — the connection thread's cache peek and
//! the worker make it alike — and a dynamic write whose gradient-step
//! budget or learning rate [`vkg_core::check_refine_params`] refuses
//! (more than [`MAX_REFINE_STEPS`] steps — the refinement loop runs under
//! the index lock — or a non-finite or out-of-range rate) is refused
//! with a typed [`ErrorCode::Query`] error before it is queued. The
//! facade applies the same rule again on entry, so in-process callers
//! and WAL replay cannot bypass it.
//!
//! # Epoch-swapped reads
//!
//! Workers answer a queued read request through the facade's one served read,
//! [`VirtualKnowledgeGraph::execute`], given the [`vkg_core::Query`] the
//! request asks ([`Request::query`]): a read traverses under
//! the index lock's **shared** side with one `(epoch, snapshot)` pair
//! pinned, so the workers' reads run side by side, and the crack it
//! wants is applied afterwards in a short exclusive section, only when
//! something still splits. The epoch-keyed result cache serves repeats
//! without recomputation. Dynamic writes go through the facade's
//! `&self` single-writer path (its writer mutex, then the same lock,
//! exclusive, for the publication alone) and publish a fresh snapshot
//! with a bumped epoch; every response carries the epoch
//! it was computed at so clients can reason about read-your-writes. A
//! graceful drain joins the workers and then **quiesces** the index
//! (acquiring and releasing its lock) so no guard a detached reader
//! still holds outlives the server.
//!
//! # Observability
//!
//! Every admitted request is traced into a [`vkg_obs::Span`] — queue
//! wait (zero for a cache hit answered inline) → wait for the index
//! lock's shared guard → execute (a late crack's exclusive wait and work
//! included) → encode —
//! and pushed into a fixed-size lock-free [`SpanRing`]; the admission
//! counters and a server-side latency histogram live in a `server.*`
//! [`Registry`] (see [`names`]). The wire `Metrics` opcode (and
//! [`ServerHandle::metrics`]) exports the server registry merged with
//! the facade's `core.*` registry plus the newest spans. Like `Stats`
//! it is answered inline, bypassing admission control, so telemetry
//! stays reachable precisely when the server is overloaded. All timing
//! runs on the [`Clock`] in [`ServerConfig::clock`], which tests mock.

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;
use std::sync::{Arc, Weak};
use std::time::Duration;

use vkg_core::vkg::{IndexPin, VirtualKnowledgeGraph};
use vkg_core::{Answer, Query, QueryEngine, QueryOp};
use vkg_kg::{EntityId, RelationId};
use vkg_obs::{Clock, Counter, Gauge, HistogramCell, Registry, Span, SpanOutcome, SpanRing, Tick};
use vkg_sync::thread::{self, JoinHandle};
use vkg_sync::{AtomicBool, AtomicU64, Ordering};

use crate::protocol::{
    AggregateWire, ErrorCode, MetricsWire, Request, RequestOp, Response, ServerCounters,
    ServerError, ShardStatsWire, StatsWire, TopKWire, PREDICTION_WIRE_BYTES,
};
use crate::queue::{Admission, Counters, JobQueue};
use crate::wire::{read_frame, write_frame, WireError, MAX_FRAME};

/// Metric names exported by the server (`server.*` namespace). The
/// admission counters are mirrored into gauges at export time — the
/// [`Counters`] atomics stay the single source of truth — so the wire
/// `Metrics` export and the `Stats` report can never disagree.
pub mod names {
    /// End-to-end server-side latency per answered request
    /// (queue wait + lock + execute + encode), microseconds.
    pub const LATENCY_US: &str = "server.latency_us";
    /// Jobs sitting in the admission queue at export time.
    pub const QUEUE_DEPTH: &str = "server.queue_depth";
    /// Mirror of [`ServerCounters::admitted`](crate::protocol::ServerCounters::admitted).
    pub const ADMITTED: &str = "server.admitted";
    /// Mirror of [`ServerCounters::answered`](crate::protocol::ServerCounters::answered).
    pub const ANSWERED: &str = "server.answered";
    /// Mirror of [`ServerCounters::shed`](crate::protocol::ServerCounters::shed).
    pub const SHED: &str = "server.shed";
    /// Mirror of [`ServerCounters::deadline_expired`](crate::protocol::ServerCounters::deadline_expired).
    pub const DEADLINE_EXPIRED: &str = "server.deadline_expired";
    /// Mirror of [`ServerCounters::drained`](crate::protocol::ServerCounters::drained).
    pub const DRAINED: &str = "server.drained";
    /// Requests executed against the index: one per query and per
    /// dynamic write, whether a worker ran it or the connection thread
    /// answered it from the result cache (a deadline refusal executes
    /// nothing).
    pub const LOCK_ROUNDS: &str = "server.lock_rounds";
}

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing queries (≥ 1).
    pub workers: usize,
    /// Bounded admission-queue capacity; a full queue sheds with
    /// [`ErrorCode::Overloaded`] (≥ 1).
    pub queue_capacity: usize,
    /// Deadline applied to requests that pass `deadline_ms = 0`.
    pub default_deadline: Duration,
    /// Artificial per-request execution delay — fault injection used by
    /// the overload and deadline tests to make queueing deterministic.
    pub worker_think_time: Option<Duration>,
    /// Capacity of the lock-free span ring: how many of the most recent
    /// per-request spans the `Metrics` export can return.
    pub span_ring: usize,
    /// The clock every span phase, deadline check, and latency sample is
    /// measured on. Tests inject [`Clock::mock`] to make timing
    /// deterministic; the default is the real monotonic clock.
    pub clock: Clock,
    /// Write-ahead log path. `Some(path)` makes [`Server::start`] attach
    /// the WAL to the facade before serving: the log at `path` is
    /// replayed (torn tail truncated), and from then on every dynamic
    /// write is appended + flushed before its `FactAdded` ack. `None`
    /// (the default) serves exactly the in-memory path.
    pub wal: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 128,
            default_deadline: Duration::from_secs(5),
            worker_think_time: None,
            span_ring: 256,
            clock: Clock::real(),
            wal: None,
        }
    }
}

/// The `shard` word of every span traced here: the 62-byte span record
/// keeps the field (`u32::MAX` marks a request that routed nowhere),
/// and the one index is shard 0.
const ROUTED: u32 = 0;

/// One admitted unit of work.
struct Job {
    /// Server-assigned query id, stamped into the traced span.
    id: u64,
    request: Request,
    admitted_at: Tick,
    deadline: Duration,
    /// The worker sends back the answer plus the span traced for it;
    /// the connection thread stamps `encode_ns` and publishes the span.
    reply: mpsc::Sender<(Response, Span)>,
}

/// Server-side observability: the `server.*` registry, the span ring,
/// and the clock everything is measured on. Always on — the handles are
/// atomic adds and the ring never blocks a worker.
struct Obs {
    registry: Registry,
    clock: Clock,
    ring: SpanRing,
    next_query_id: AtomicU64,
    latency: HistogramCell,
    lock_rounds: Counter,
    queue_depth: Gauge,
    admitted: Gauge,
    answered: Gauge,
    shed: Gauge,
    deadline_expired: Gauge,
    drained: Gauge,
}

impl Obs {
    fn new(cfg: &ServerConfig) -> Self {
        let registry = Registry::active();
        Obs {
            clock: cfg.clock.clone(),
            ring: SpanRing::new(cfg.span_ring),
            next_query_id: AtomicU64::new(0),
            latency: registry.histogram(names::LATENCY_US),
            lock_rounds: registry.counter(names::LOCK_ROUNDS),
            queue_depth: registry.gauge(names::QUEUE_DEPTH),
            admitted: registry.gauge(names::ADMITTED),
            answered: registry.gauge(names::ANSWERED),
            shed: registry.gauge(names::SHED),
            deadline_expired: registry.gauge(names::DEADLINE_EXPIRED),
            drained: registry.gauge(names::DRAINED),
            registry,
        }
    }
}

struct Shared {
    vkg: Arc<VirtualKnowledgeGraph>,
    /// The listener's address, which a drain connects to once to wake
    /// the accept thread out of `accept`.
    addr: SocketAddr,
    cfg: ServerConfig,
    queue: JobQueue<Job>,
    counters: Counters,
    draining: AtomicBool,
    obs: Obs,
}

/// The query server. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the background threads.
pub struct Server;

impl Server {
    /// Binds `addr`, spawns the accept loop and `cfg.workers` workers,
    /// and returns immediately. Pass `"127.0.0.1:0"` to let the OS pick
    /// a port (read it back from [`ServerHandle::addr`]).
    pub fn start<A: ToSocketAddrs>(
        vkg: Arc<VirtualKnowledgeGraph>,
        addr: A,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(cfg.queue_capacity >= 1, "need a non-empty queue");
        if let Some(path) = cfg.wal.as_deref() {
            // Replay + arm the WAL before any connection is accepted, so
            // the first acked write is already covered by the log.
            vkg.attach_wal(path, vkg_core::FaultPlane::none())
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let obs = Obs::new(&cfg);
        let shared = Arc::new(Shared {
            vkg,
            addr,
            queue: JobQueue::new(cfg.queue_capacity),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            obs,
            cfg,
        });
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(shared.cfg.workers);
        for i in 0..shared.cfg.workers {
            let worker_shared = Arc::clone(&shared);
            match thread::Builder::new()
                .name(format!("vkg-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unblock the workers spawned so far (they are parked
                    // on `pop`) before reporting the OS's refusal.
                    shared.queue.close();
                    return Err(e);
                }
            }
        }
        let accept_shared = Arc::clone(&shared);
        let accept = match thread::Builder::new()
            .name("vkg-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared, workers))
        {
            Ok(handle) => handle,
            Err(e) => {
                // The worker handles were owned by the failed spawn's
                // closure and are gone; closing the queue lets those
                // detached workers drain and exit.
                shared.queue.close();
                return Err(e);
            }
        };
        Ok(ServerHandle {
            addr,
            shared,
            accept,
        })
    }
}

/// Owner of a running server's threads. Dropping the handle without
/// calling [`ServerHandle::shutdown`]/[`ServerHandle::join`] detaches
/// the threads (they exit once a drain is triggered remotely).
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Current admission-control counters.
    pub fn counters(&self) -> ServerCounters {
        self.shared.counters.snapshot()
    }

    /// The merged observability export — identical in content to what
    /// the wire `Metrics` opcode returns — for in-process callers like
    /// the load generator's artifact writer.
    pub fn metrics(&self, last_spans: usize) -> MetricsWire {
        metrics_export(&self.shared, last_spans)
    }

    /// Triggers a graceful drain and blocks until every thread exits:
    /// stop accepting, answer all admitted work, join workers.
    pub fn shutdown(self) -> ServerCounters {
        begin_drain(&self.shared);
        self.join()
    }

    /// Blocks until the server drains (e.g. after a client sent
    /// `Shutdown`) and every thread exits.
    pub fn join(self) -> ServerCounters {
        let _ = self.accept.join();
        self.shared.counters.snapshot()
    }
}

/// Pause after a failed `accept` (say, out of file descriptors) before
/// the next one, so a persistent failure does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);
/// How long a drain waits for its wake-up connection to be taken.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

pub use vkg_core::MAX_REFINE_STEPS;

/// Fixed bytes of a top-k response around its prediction list (version,
/// opcode, epoch, list length, and the four trailing guarantee/counter
/// fields), rounded up for safety.
const TOPK_FRAME_OVERHEAD: usize = 64;

/// Largest `k` whose top-k response is guaranteed to fit in one
/// [`MAX_FRAME`]-sized frame.
const MAX_K_PER_FRAME: usize = (MAX_FRAME - TOPK_FRAME_OVERHEAD) / PREDICTION_WIRE_BYTES;

/// Refuses a decoded write whose refinement parameters the facade would
/// refuse, before it is admitted (see the module docs), with the typed
/// refusal to send instead of queueing.
#[allow(
    clippy::result_large_err,
    reason = "the Err is the payload: a full refusal Response, built once per rejected request on the cold path, so boxing would only add an allocation"
)]
fn sanitize(request: &Request) -> Result<(), Response> {
    if let RequestOp::AddFactDynamic {
        refine_steps,
        learning_rate,
        ..
    } = request.op
    {
        vkg_core::check_refine_params(refine_steps as usize, learning_rate)
            .map_err(|why| refusal(ErrorCode::Query, &why))?;
    }
    Ok(())
}

/// Starts a drain — `ServerHandle::shutdown` and the wire `Shutdown`
/// alike: flips the draining flag, then wakes the accept thread, which
/// blocks in `accept`, with one loopback connection to the listener. The
/// accept thread reads the flag after every `accept` returns and closes
/// that connection like any other that arrives during the drain, then
/// wakes the connection threads blocked in `read` (`accept_loop`).
/// Should the connection fail, the listener's backlog is full, and the
/// connections already in it wake the accept thread instead.
fn begin_drain(shared: &Shared) {
    // seqcst: drain flag; the drained-counters invariant (admitted ==
    // answered + shed + expired + drained after join) needs every
    // thread to agree on which requests arrived before the drain.
    shared.draining.store(true, Ordering::SeqCst);
    let mut wake = shared.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
}

/// Builds the merged observability export: the facade's `core.*`
/// registry with engine-side gauges freshly sampled, the server's
/// `server.*` registry with the admission counters mirrored into
/// gauges, and the newest `last_spans` spans from the ring.
fn metrics_export(shared: &Shared, last_spans: usize) -> MetricsWire {
    let obs = &shared.obs;
    let counters = shared.counters.snapshot();
    obs.admitted.set(counters.admitted);
    obs.answered.set(counters.answered);
    obs.shed.set(counters.shed);
    obs.deadline_expired.set(counters.deadline_expired);
    obs.drained.set(counters.drained);
    obs.queue_depth
        .set(u64::try_from(shared.queue.len()).unwrap_or(u64::MAX));
    let epoch = shared.vkg.epoch();
    let mut snap = shared.vkg.metrics_snapshot();
    let server = obs.registry.snapshot();
    snap.counters.extend(server.counters);
    snap.gauges.extend(server.gauges);
    snap.hists.extend(server.hists);
    // The merge preserves each registry's sorted order per namespace;
    // re-sort so consumers see one name-ordered listing.
    snap.counters.sort();
    snap.gauges.sort();
    snap.hists.sort_by(|a, b| a.0.cmp(&b.0));
    snap.spans = obs.ring.collect(last_spans);
    snap.spans_recorded = obs.ring.recorded();
    snap.spans_dropped = obs.ring.dropped();
    MetricsWire {
        epoch,
        snapshot: snap,
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, workers: Vec<JoinHandle<()>>) {
    // Each connection's thread beside its stream. The thread owns the
    // stream, so one that ends closes its socket at once; the drain
    // upgrades the streams still open to wake their threads.
    let mut conns: Vec<(JoinHandle<()>, Weak<TcpStream>)> = Vec::new();
    loop {
        let accepted = listener.accept();
        // seqcst: drain flag; pairs with the SeqCst store in
        // begin_drain(), which connects only after it.
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                let stream = Arc::new(stream);
                let weak = Arc::downgrade(&stream);
                let conn_shared = Arc::clone(shared);
                match thread::Builder::new()
                    .name("vkg-conn".into())
                    .spawn(move || connection_loop(&stream, &conn_shared))
                {
                    Ok(handle) => {
                        conns.push((handle, weak));
                        conns.retain(|(h, _)| !h.is_finished());
                    }
                    Err(_) => {
                        // Thread exhaustion: the stream was owned by the
                        // failed spawn's closure and dropped with it, so
                        // the client sees a closed connection and can
                        // retry — the server itself keeps serving.
                    }
                }
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
    // Drain: the listener drops here, and with it the connection that
    // woke this thread (and any other not yet served). A connection
    // thread blocks in `read`; shutting its stream's read side makes that
    // read return end-of-file, and the thread exits after writing any
    // in-flight response.
    drop(listener);
    for (_, stream) in &conns {
        if let Some(stream) = stream.upgrade() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    for (conn, _) in conns {
        let _ = conn.join();
    }
    // No producer remains, so closing the queue lets workers finish the
    // backlog and exit — every admitted job is answered before this
    // returns.
    shared.queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    // Quiesce the index: acquire and release its lock, so any cracking
    // still running (there should be none — workers joined — but belt
    // and braces against detached readers holding a facade guard)
    // finishes before the drain reports complete.
    shared.vkg.quiesce();
}

/// One thread per connection: read frames, decode, admit, and write
/// back whatever the worker answers. It blocks in `read` until a frame
/// arrives, the client hangs up, or the drain shuts the stream's read
/// side. Malformed input fails the connection closed after a
/// best-effort typed error.
fn connection_loop(stream: &TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        // Checked before each frame: Linux still hands over bytes
        // received before the drain's `shutdown`, so a client that keeps
        // sending would otherwise hold the drain open.
        // seqcst: drain flag; pairs with the SeqCst store in begin_drain().
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut reader, MAX_FRAME) {
            Ok(Some(payload)) => payload,
            // A clean EOF, a frame cut short or a failed read: the
            // conversation is over, and no answer is owed.
            Ok(None) | Err(WireError::Truncated | WireError::Io(_)) => return,
            Err(e) => {
                fail_connection(stream, &e);
                return;
            }
        };
        if !serve_frame(stream, shared, &payload) {
            return;
        }
    }
}

/// Handles one decoded frame. Returns `false` when the connection must
/// close (shutdown acknowledged, malformed request, or I/O failure).
fn serve_frame(stream: &TcpStream, shared: &Arc<Shared>, payload: &[u8]) -> bool {
    let request = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => {
            fail_connection(stream, &e);
            return false;
        }
    };
    match request.op {
        RequestOp::Shutdown => {
            begin_drain(shared);
            let _ = send(stream, &Response::ShuttingDown);
            false
        }
        RequestOp::Stats => {
            // Side-effect free: answered inline, bypassing admission
            // control so it stays observable under overload. Holds the
            // index lock's shared side: publication needs the exclusive
            // side, so both epochs and the index statistics are one cut.
            let stats = {
                let index = shared.vkg.index();
                let server = shared.counters.snapshot();
                // The wire keeps its per-shard sequence (v2 clients
                // decode it); one index fills exactly one row.
                let row = ShardStatsWire {
                    epoch: shared.vkg.index_epoch(),
                    admitted: server.admitted,
                    answered: server.answered,
                };
                StatsWire::from_stats(
                    shared.vkg.epoch(),
                    &index.state().stats(),
                    index.state().accuracy(),
                    server,
                    vec![row],
                )
            };
            send(stream, &Response::Stats(stats))
        }
        RequestOp::Metrics { last_spans } => {
            // Like `Stats`: side-effect free and answered inline,
            // bypassing admission control — observability must stay
            // reachable precisely when the queue is full.
            let export = metrics_export(shared, last_spans as usize);
            send(stream, &Response::Metrics(export))
        }
        _ => {
            // seqcst: drain flag; a request must observe the drain iff
            // it globally follows the store, so drained counts add up.
            if shared.draining.load(Ordering::SeqCst) {
                shared.counters.record_drained();
                return send(stream, &refusal(ErrorCode::Draining, "server is draining"));
            }
            if let Err(rejection) = sanitize(&request) {
                return send(stream, &rejection);
            }
            if let Some((response, span)) = serve_cached(shared, &request) {
                return reply(stream, shared, &response, span);
            }
            let deadline = if request.deadline_ms == 0 {
                shared.cfg.default_deadline
            } else {
                Duration::from_millis(u64::from(request.deadline_ms))
            };
            let (reply_tx, reply_rx) = mpsc::channel();
            let job = Job {
                // relaxed: a ticket dispenser; span ids need uniqueness,
                // not ordering with any other state.
                id: shared.obs.next_query_id.fetch_add(1, Ordering::Relaxed),
                request,
                admitted_at: shared.obs.clock.now(),
                deadline,
                reply: reply_tx,
            };
            match shared.queue.try_push(job) {
                Admission::Admitted => {
                    shared.counters.record_admitted();
                    match reply_rx.recv() {
                        Ok((response, span)) => reply(stream, shared, &response, span),
                        Err(_) => send(
                            stream,
                            &refusal(ErrorCode::Internal, "worker pool disappeared"),
                        ),
                    }
                }
                Admission::QueueFull => {
                    shared.counters.record_shed();
                    send(
                        stream,
                        &refusal(ErrorCode::Overloaded, "admission queue full; back off"),
                    )
                }
                Admission::Closed => {
                    shared.counters.record_drained();
                    send(stream, &refusal(ErrorCode::Draining, "server is draining"))
                }
            }
        }
    }
}

/// Answers a cacheable read on the connection thread when the result
/// cache holds its answer at the published epochs
/// ([`VirtualKnowledgeGraph::cached`]), sparing it the queue, the worker
/// hop and the reply channel; `None` otherwise, and nothing is counted.
/// A hit is accounted for as a job that spent no time queued: admitted,
/// one lock round, answered, mirrored into `core.queries`, and traced
/// with its lock and execute phases.
fn serve_cached(shared: &Shared, request: &Request) -> Option<(Response, Span)> {
    let clock = &shared.obs.clock;
    let start = clock.now();
    let query = read_query(&shared.vkg, request)?;
    let mut locked_at = None;
    let (pin, answer) = shared.vkg.cached(&query, &mut || {
        locked_at.get_or_insert_with(|| clock.now());
    })?;
    let response = response_of(pin, answer);
    let finished = clock.now();
    shared.counters.record_admitted();
    shared.obs.lock_rounds.incr();
    let locked_at = locked_at.unwrap_or(start);
    let span = Span {
        // relaxed: a ticket dispenser, as for a queued job.
        id: shared.obs.next_query_id.fetch_add(1, Ordering::Relaxed),
        op: request.op.opcode(),
        shard: ROUTED,
        outcome: SpanOutcome::Ok,
        queue_ns: 0,
        lock_ns: locked_at.since(start),
        exec_ns: finished.since(locked_at),
        encode_ns: 0,
        batch_ns: 0,
        refine_steps: refine_steps_of(&response),
    };
    record_answered(shared, &span, true);
    Some((response, span))
}

/// Sends an answered request's response and publishes its span: the
/// encode runs on the connection thread (a worker that answered is
/// already free), and the span goes into the ring only once its last
/// phase, the encode, is in.
fn reply(mut stream: &TcpStream, shared: &Shared, response: &Response, mut span: Span) -> bool {
    let enc_start = shared.obs.clock.now();
    let payload = encode_bounded(response);
    span.encode_ns = shared.obs.clock.now().since(enc_start);
    shared
        .obs
        .latency
        .record(Duration::from_nanos(span.total_ns()));
    shared.obs.ring.push(&span);
    write_frame(&mut stream, &payload).is_ok()
}

fn refusal(code: ErrorCode, message: &str) -> Response {
    Response::Error(ServerError {
        code,
        message: message.to_string(),
    })
}

/// Encodes a response, downgrading one that outgrew the frame limit to
/// a typed error: that is the request's problem, not the connection's,
/// so the caller never sees `write_frame` fail on size.
fn encode_bounded(response: &Response) -> Vec<u8> {
    let payload = response.encode();
    if payload.len() > MAX_FRAME {
        refusal(
            ErrorCode::Query,
            "result exceeds the maximum response frame; request less data",
        )
        .encode()
    } else {
        payload
    }
}

/// Sends one response; `false` when the connection failed.
fn send(mut stream: &TcpStream, response: &Response) -> bool {
    write_frame(&mut stream, &encode_bounded(response)).is_ok()
}

/// Best-effort typed error before failing the connection closed.
fn fail_connection(stream: &TcpStream, e: &WireError) {
    let _ = send(
        stream,
        &refusal(ErrorCode::MalformedRequest, &e.to_string()),
    );
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        serve_one(shared, job);
    }
}

/// Serves one popped job: deadline check — *after* the pop, so time
/// spent queued behind a slow worker counts against the job's own
/// deadline and an expired job is refused, never executed late —
/// optional think-time fault injection, then `execute`.
fn serve_one(shared: &Arc<Shared>, job: Job) {
    let clock = &shared.obs.clock;
    let unit_start = clock.now();
    let queue_ns = unit_start.since(job.admitted_at);
    let (response, locked_at, read) = if Duration::from_nanos(queue_ns) >= job.deadline {
        shared.counters.record_deadline_expired();
        (
            refusal(
                ErrorCode::DeadlineExceeded,
                "deadline expired while queued; not executed",
            ),
            unit_start,
            false,
        )
    } else {
        if let Some(think) = shared.cfg.worker_think_time {
            thread::sleep(think);
        }
        shared.obs.lock_rounds.incr();
        execute(&shared.vkg, &job.request, clock)
    };
    let finished = clock.now();
    let span = Span {
        id: job.id,
        op: job.request.op.opcode(),
        shard: ROUTED,
        outcome: outcome_of(&response),
        queue_ns,
        // Pop → the index lock's shared guard held (includes the
        // injected think time when the fault-injection knob is set).
        lock_ns: locked_at.since(unit_start),
        // Everything after that: the traversal, and when the query's
        // late crack is applied, its wait for the exclusive side and
        // the crack itself.
        exec_ns: finished.since(locked_at),
        // Stamped by the connection thread once the encode is done.
        encode_ns: 0,
        // Held on the wire (v2 span records carry it); a pop is one
        // job, so nothing waits behind a batch sibling.
        batch_ns: 0,
        refine_steps: refine_steps_of(&response),
    };
    // Every admitted job is answered here exactly once; a hung-up
    // client (closed reply channel) still counts as answered.
    record_answered(shared, &span, read);
    let _ = job.reply.send((response, span));
}

/// Counts one answered request, queued or answered inline. The served
/// reads (`execute`, `cached`) record no query metrics (the server times
/// the request on its own clock) — mirror the executed reads into the
/// facade registry so `core.queries` stays truthful however the engine
/// is driven. Deadline-refused jobs never reached the engine and are not
/// mirrored.
fn record_answered(shared: &Shared, span: &Span, read: bool) {
    shared.counters.record_answered();
    if read {
        shared.vkg.metrics().record_query_timed(
            Duration::from_nanos(span.lock_ns.saturating_add(span.exec_ns)),
            span.refine_steps,
            span.outcome == SpanOutcome::Ok,
        );
    }
}

/// The span outcome a response maps to.
fn outcome_of(response: &Response) -> SpanOutcome {
    match response {
        Response::Error(e) if e.code == ErrorCode::DeadlineExceeded => SpanOutcome::DeadlineExpired,
        Response::Error(_) => SpanOutcome::Error,
        _ => SpanOutcome::Ok,
    }
}

/// Refine steps a response reports: S₁ evaluations for top-k answers,
/// entities accessed for aggregates, zero otherwise.
fn refine_steps_of(response: &Response) -> u64 {
    match response {
        Response::TopK(t) => t.s1_evals,
        Response::Aggregate(a) => a.accessed,
        _ => 0,
    }
}

/// The [`Query`] a read request asks ([`Request::query`]), its `k`
/// clamped (see the module docs); `None` for a write or a control
/// request. The connection thread's cache peek and the worker both ask
/// it, so a hit is probed with the `k` the worker would run.
fn read_query(vkg: &VirtualKnowledgeGraph, request: &Request) -> Option<Query> {
    let mut query = request.query()?;
    if let QueryOp::TopK { k, .. } = &mut query.op {
        // Clamp rather than refuse: the engine allocates O(k) per query,
        // and no answer can exceed the entity count anyway. `max(1)`
        // keeps `k >= 1` requests out of the engine's `k == 0` rejection
        // on an empty graph.
        let entities = vkg.snapshot().graph().num_entities();
        *k = (*k).min(entities.max(1)).min(MAX_K_PER_FRAME);
    }
    Some(query)
}

/// The wire response carrying a served read's answer and the epoch it
/// was computed at.
fn response_of(pin: IndexPin, answer: Answer) -> Response {
    match answer {
        Answer::TopK(r) => Response::TopK(TopKWire::from_result(pin.epoch, &r)),
        Answer::Aggregate(r) => Response::Aggregate(AggregateWire::from_result(pin.epoch, &r)),
    }
}

/// Runs one request against the engine. A read is the query
/// [`read_query`] makes of it, answered by the facade's one served read
/// ([`VirtualKnowledgeGraph::execute`]: shared guard, epochs pinned,
/// late crack); the dynamic write goes through the facade's serialized
/// `&self` writer path (the same lock, exclusive) and reports the
/// post-publish epoch.
///
/// Returns the response, the tick at which the index lock's shared
/// guard was first held, so the worker can split the span into its lock
/// and execute phases, and whether a query ran. Paths that take no
/// shared guard report their own start tick, which makes `exec_ns`
/// cover the whole call (the single-writer path) or nothing (refusals).
fn execute(
    vkg: &VirtualKnowledgeGraph,
    request: &Request,
    clock: &Clock,
) -> (Response, Tick, bool) {
    let start = clock.now();
    let mut locked_at = None;
    let mut on_guard = || {
        locked_at.get_or_insert_with(|| clock.now());
    };
    let query = read_query(vkg, request);
    let read = query.is_some();
    let response = match (query, &request.op) {
        (Some(query), _) => match vkg.execute(&query, &mut on_guard) {
            Ok((pin, answer)) => response_of(pin, answer),
            Err(e) => Response::Error(ServerError::query(&e)),
        },
        (
            None,
            RequestOp::AddFactDynamic {
                h,
                r,
                t,
                refine_steps,
                learning_rate,
                token,
            },
        ) => {
            // The write path acquires the index lock inside the
            // facade; its span charges the whole call to `exec_ns`.
            // With a WAL attached the facade appends + flushes the
            // record before the index mutation this ack reports.
            match vkg.add_fact_durable(
                *token,
                EntityId(*h),
                RelationId(*r),
                EntityId(*t),
                *refine_steps as usize,
                *learning_rate,
            ) {
                // The facade reports the epoch of *this* write (taken while
                // it held the index lock), so a concurrent writer publishing
                // right after cannot leak its later epoch into this response.
                Ok((added, epoch)) => Response::FactAdded {
                    added,
                    epoch,
                    token: *token,
                },
                Err(e) => Response::Error(ServerError::query(&e)),
            }
        }
        (None, _) => refusal(ErrorCode::Internal, "control requests are not queued"),
    };
    (response, locked_at.unwrap_or(start), read)
}
