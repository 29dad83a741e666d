//! Synchronous client for the vkg wire protocol: one TCP connection,
//! one outstanding request at a time (call–response).
//!
//! With a [`RetryPolicy`] installed the client **self-heals**: typed
//! `Overloaded`/`Draining` refusals back off (bounded exponential, with
//! deterministic jitter from the policy's seed) and retry; a connection
//! loss reconnects transparently and re-sends — but only calls that are
//! safe to re-send. Reads always are. An untokened write is not (its
//! response may have been lost *after* the server applied it), so plain
//! [`Client::add_fact`] only retries refusals. The ambiguity is closed
//! by [`Client::add_fact_idempotent`]: it stamps a client-generated
//! token into the request, the server applies each token at most once
//! (answering retries from its idempotency map, surviving even a
//! crash + WAL recovery), and the token is echoed in the ack — so the full
//! reconnect-and-retry loop applies. Everything the healing layer does
//! is counted in [`RetryStats`] (`client.retry.*`), which the load
//! harness reconciles against the facade's `core.wal.*` counters in the
//! server's `Metrics` export.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use vkg_core::query::aggregate::AggregateKind;
use vkg_core::wal::fault::splitmix64;
use vkg_core::Direction;
use vkg_kg::{EntityId, RelationId};
use vkg_sync::thread;

use crate::protocol::{
    AggregateWire, ErrorCode, MetricsWire, Request, RequestOp, Response, ServerError, StatsWire,
    TopKWire, WireFilter,
};
use crate::wire::{read_frame, write_frame, WireError, MAX_FRAME};

/// Counter names of the client's healing layer, reconciled against the
/// `core.wal.*` counters of the server's `Metrics` export.
pub mod retry_names {
    /// Backoff sleeps taken (refusal or transport retry).
    pub const BACKOFFS: &str = "client.retry.backoffs";
    /// Successful transparent reconnects after connection loss.
    pub const RECONNECTS: &str = "client.retry.reconnects";
    /// Requests re-sent after a failure (any kind).
    pub const RETRIED_FRAMES: &str = "client.retry.frames";
    /// `AddFactDynamic` frames re-sent — every server-side dedup hit
    /// must be explained by one of these.
    pub const WRITE_RETRIES: &str = "client.retry.write_retries";
}

/// Everything that can go wrong on the client side of a call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode (or the frame was truncated).
    Wire(WireError),
    /// The server answered with a typed refusal or failure.
    Server(ServerError),
    /// The server answered with a well-formed response of the wrong
    /// kind for the request that was sent.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response variant: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Shorthand result type for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// Bounded-retry configuration for a self-healing [`Client`]. All
/// waiting is deterministic: the jitter stream derives from `seed`, so
/// two clients with equal seeds and equal failures sleep identically.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per logical call, the first included (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Upper bound the doubling saturates at.
    pub max_backoff: Duration,
    /// Seeds the jitter stream **and** the idempotency-token stream.
    /// Give concurrent clients distinct seeds: tokens must not collide
    /// within the server's dedup horizon.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(250),
            seed: 0xC0FF_EE00_D00D_F00D,
        }
    }
}

/// What the healing layer did on this client's behalf
/// (`client.retry.*`; see [`retry_names`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Backoff sleeps taken.
    pub backoffs: u64,
    /// Successful transparent reconnects.
    pub reconnects: u64,
    /// Requests re-sent after a failure.
    pub retried_frames: u64,
    /// `AddFactDynamic` frames among the re-sends.
    pub write_retries: u64,
}

/// A connected client. Cheap to construct; not thread-safe (use one
/// client per thread, as the load generator does).
pub struct Client {
    /// The connection. Responses are read through the buffer, so a
    /// frame's length prefix and payload usually arrive in one `recv`;
    /// requests are written straight to the inner stream.
    conn: BufReader<TcpStream>,
    /// The peer address, kept for transparent reconnects.
    addr: SocketAddr,
    /// Deadline stamped on requests issued through the typed helpers;
    /// `0` defers to the server's default.
    deadline_ms: u32,
    /// Healing behavior; `None` (the default) means every failure
    /// surfaces immediately, exactly as before retries existed.
    policy: Option<RetryPolicy>,
    /// Jitter stream state.
    jitter: u64,
    /// Idempotency-token stream state.
    tokens: u64,
    stats: RetryStats,
}

impl Client {
    /// Connects to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            conn: BufReader::new(stream),
            addr,
            deadline_ms: 0,
            policy: None,
            jitter: 0,
            tokens: 0,
            stats: RetryStats::default(),
        })
    }

    /// Sets the per-request deadline stamped by the typed helpers
    /// (`None` defers to the server default).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline_ms = deadline.map_or(0, |d| d.as_millis().min(u32::MAX as u128) as u32);
    }

    /// Installs (or clears) the healing layer. Installing reseeds the
    /// jitter and token streams from the policy's seed.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        if let Some(p) = &policy {
            self.jitter = p.seed ^ 0x6a09_e667_f3bc_c908;
            self.tokens = p.seed ^ 0xbb67_ae85_84ca_a73b;
        }
        self.policy = policy;
    }

    /// What the healing layer has done so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// The next idempotency token from this client's deterministic
    /// stream (never 0, the wire's "untokened" sentinel).
    pub fn next_token(&mut self) -> u64 {
        loop {
            let token = splitmix64(&mut self.tokens);
            if token != 0 {
                return token;
            }
        }
    }

    /// Sends one request and blocks for its response. The transport
    /// failing mid-call (including server-side connection teardown
    /// after a malformed frame) surfaces as `Io` or `Wire`.
    pub fn call(&mut self, request: &Request) -> ClientResult<Response> {
        write_frame(self.conn.get_mut(), &request.encode())?;
        match read_frame(&mut self.conn, MAX_FRAME)? {
            Some(payload) => Ok(Response::decode(&payload)?),
            None => Err(ClientError::Wire(WireError::Truncated)),
        }
    }

    /// [`Client::call`] under the retry policy. `Overloaded`/`Draining`
    /// refusals always back off and retry (the server answered, so the
    /// request was **not** applied). Transport failures additionally
    /// reconnect and re-send, but only when `resend_safe` — a lost
    /// response to an unsafe (untokened write) call surfaces instead,
    /// because the server may or may not have applied it.
    fn call_resilient(&mut self, request: &Request, resend_safe: bool) -> ClientResult<Response> {
        let Some(policy) = self.policy.clone() else {
            return self.call(request);
        };
        let mut attempt: u32 = 1;
        loop {
            match self.call(request) {
                Ok(Response::Error(e))
                    if matches!(e.code, ErrorCode::Overloaded | ErrorCode::Draining) =>
                {
                    if attempt >= policy.max_attempts {
                        return Ok(Response::Error(e));
                    }
                    self.backoff(&policy, attempt);
                }
                Ok(resp) => return Ok(resp),
                Err(e @ (ClientError::Io(_) | ClientError::Wire(_))) if resend_safe => {
                    if attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    self.backoff(&policy, attempt);
                    // Best-effort: a failed reconnect leaves the dead
                    // stream in place, the next call fails fast, and
                    // the loop backs off again until attempts run out.
                    self.reconnect();
                }
                Err(e) => return Err(e),
            }
            attempt += 1;
            self.stats.retried_frames += 1;
            if matches!(request.op, RequestOp::AddFactDynamic { .. }) {
                self.stats.write_retries += 1;
            }
        }
    }

    /// Sleeps the bounded-exponential, seed-jittered backoff for the
    /// given 1-based attempt number.
    fn backoff(&mut self, policy: &RetryPolicy, attempt: u32) {
        let doublings = attempt.saturating_sub(1).min(20);
        let ceiling = policy
            .base_backoff
            .saturating_mul(1u32 << doublings)
            .min(policy.max_backoff)
            .max(Duration::from_micros(1));
        // Deterministic jitter in [ceiling/2, ceiling]: spreads a herd
        // of retrying clients without losing reproducibility.
        let nanos = u64::try_from(ceiling.as_nanos()).unwrap_or(u64::MAX);
        let jittered = nanos / 2 + splitmix64(&mut self.jitter) % (nanos / 2 + 1);
        thread::sleep(Duration::from_nanos(jittered));
        self.stats.backoffs += 1;
    }

    /// Attempts to replace the connection with a fresh one to the
    /// original address. The buffer goes with the old stream, so no byte
    /// read from the dead connection survives.
    fn reconnect(&mut self) {
        if let Ok(stream) = TcpStream::connect(self.addr) {
            let _ = stream.set_nodelay(true);
            self.conn = BufReader::new(stream);
            self.stats.reconnects += 1;
        }
    }

    fn request(&self, op: RequestOp) -> Request {
        Request {
            deadline_ms: self.deadline_ms,
            op,
        }
    }

    /// Top-k predicted entities for `(entity, relation)` in `direction`.
    pub fn top_k(
        &mut self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
    ) -> ClientResult<TopKWire> {
        let req = self.request(RequestOp::TopK {
            entity: entity.0,
            relation: relation.0,
            direction,
            k: k as u32,
        });
        match self.call_resilient(&req, true)? {
            Response::TopK(t) => Ok(t),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted TopK")),
        }
    }

    /// Top-k restricted by a declarative server-side filter.
    pub fn top_k_filtered(
        &mut self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: WireFilter,
    ) -> ClientResult<TopKWire> {
        let req = self.request(RequestOp::TopKFiltered {
            entity: entity.0,
            relation: relation.0,
            direction,
            k: k as u32,
            filter,
        });
        match self.call_resilient(&req, true)? {
            Response::TopK(t) => Ok(t),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted TopK")),
        }
    }

    /// Aggregate over the probability ball around `(entity, relation)`.
    /// Mirrors the wire message field-for-field, hence the arity.
    #[allow(clippy::too_many_arguments, reason = "one argument per wire field")]
    pub fn aggregate(
        &mut self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        kind: AggregateKind,
        attribute: Option<&str>,
        p_tau: f64,
        sample_size: Option<usize>,
    ) -> ClientResult<AggregateWire> {
        let req = self.request(RequestOp::Aggregate {
            entity: entity.0,
            relation: relation.0,
            direction,
            kind,
            attribute: attribute.map(str::to_string),
            p_tau,
            sample_size: sample_size.map(|a| a.min(u32::MAX as usize) as u32),
        });
        match self.call_resilient(&req, true)? {
            Response::Aggregate(a) => Ok(a),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted Aggregate")),
        }
    }

    /// Appends a fact with local embedding refinement. Returns
    /// `(added, epoch)` — the epoch after the write.
    ///
    /// Untokened: under a retry policy this retries typed refusals
    /// (which the server never applied) but **not** transport failures,
    /// whose response loss leaves the write in doubt. Use
    /// [`Client::add_fact_idempotent`] when full healing is wanted.
    pub fn add_fact(
        &mut self,
        h: EntityId,
        r: RelationId,
        t: EntityId,
        refine_steps: usize,
        learning_rate: f64,
    ) -> ClientResult<(bool, u64)> {
        let req = self.request(RequestOp::AddFactDynamic {
            h: h.0,
            r: r.0,
            t: t.0,
            refine_steps: refine_steps as u32,
            learning_rate,
            token: 0,
        });
        match self.call_resilient(&req, false)? {
            Response::FactAdded { added, epoch, .. } => Ok((added, epoch)),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted FactAdded")),
        }
    }

    /// [`Client::add_fact`] with an idempotency token from this
    /// client's deterministic stream: the server applies the token at
    /// most once (answering re-sends from its dedup map, which survives
    /// crash + WAL recovery), so transport failures reconnect and
    /// re-send safely. The ack must echo the token it was sent.
    pub fn add_fact_idempotent(
        &mut self,
        h: EntityId,
        r: RelationId,
        t: EntityId,
        refine_steps: usize,
        learning_rate: f64,
    ) -> ClientResult<(bool, u64)> {
        let token = self.next_token();
        let req = self.request(RequestOp::AddFactDynamic {
            h: h.0,
            r: r.0,
            t: t.0,
            refine_steps: refine_steps as u32,
            learning_rate,
            token,
        });
        match self.call_resilient(&req, true)? {
            Response::FactAdded {
                added,
                epoch,
                token: echoed,
            } => {
                if echoed != token {
                    return Err(ClientError::Unexpected("FactAdded echoed a foreign token"));
                }
                Ok((added, epoch))
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted FactAdded")),
        }
    }

    /// Engine + server statistics at the current epoch.
    pub fn stats(&mut self) -> ClientResult<StatsWire> {
        let req = self.request(RequestOp::Stats);
        match self.call_resilient(&req, true)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted Stats")),
        }
    }

    /// The server's observability export: merged facade + server metric
    /// registries and at most `last_spans` of the newest request spans.
    /// Answered inline like `stats`, so it works even under overload.
    pub fn metrics(&mut self, last_spans: u32) -> ClientResult<MetricsWire> {
        let req = self.request(RequestOp::Metrics { last_spans });
        match self.call_resilient(&req, true)? {
            Response::Metrics(m) => Ok(m),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted Metrics")),
        }
    }

    /// Asks the server to drain gracefully. The server acknowledges,
    /// then stops admitting work and exits once in-flight requests are
    /// answered.
    pub fn shutdown(&mut self) -> ClientResult<()> {
        match self.call(&self.request(RequestOp::Shutdown))? {
            Response::ShuttingDown => Ok(()),
            Response::Error(e) => Err(ClientError::Server(e)),
            _ => Err(ClientError::Unexpected("wanted ShuttingDown")),
        }
    }
}
