//! The request/response messages of the serving protocol.
//!
//! Every message encodes to one frame payload: `[version][opcode][body]`.
//! Request opcodes occupy `0x01..=0x7F`; responses set the high bit.
//! Encoding is written in [`vkg_kg::codec`]'s `Enc`/`Dec` and every
//! variant round-trips bit-exactly (`encode` → `decode` is the
//! identity), which the property tests in `tests/wire_roundtrip.rs`
//! enforce per variant.

use vkg_core::engine::{Accuracy, EngineStats};
use vkg_core::query::aggregate::{AggregateKind, AggregateResult, AggregateSpec};
use vkg_core::query::topk::TopKResult;
use vkg_core::query::{Query, QueryOp};
use vkg_core::{Direction, VkgError};
use vkg_kg::{EntityId, RelationId};
use vkg_obs::{HistSnapshot, MetricsSnapshot, Span, SpanOutcome};

use vkg_kg::codec::{Dec, DecodeError, Enc};

use crate::wire::{WireError, MIN_PAYLOAD, MIN_WIRE_VERSION, WIRE_VERSION};

/// Request opcodes (`0x01..=0x7F`).
mod op {
    pub const TOP_K: u8 = 0x01;
    pub const TOP_K_FILTERED: u8 = 0x02;
    pub const AGGREGATE: u8 = 0x03;
    pub const ADD_FACT: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const SHUTDOWN: u8 = 0x06;
    pub const METRICS: u8 = 0x07;

    pub const R_TOP_K: u8 = 0x81;
    pub const R_AGGREGATE: u8 = 0x82;
    pub const R_FACT_ADDED: u8 = 0x83;
    pub const R_STATS: u8 = 0x84;
    pub const R_SHUTTING_DOWN: u8 = 0x85;
    pub const R_METRICS: u8 = 0x86;
    pub const R_ERROR: u8 = 0xE0;
}

/// A server-side filter a client can attach to a top-k query: the core's
/// declarative [`vkg_core::query::Filter`]. Closures do not cross the
/// wire; its two shapes do, as the bytes of [`WireFilter::fingerprint`],
/// which are also the result cache's key for the filter.
pub use vkg_core::query::Filter as WireFilter;

/// Reads the `[version][opcode]` header every payload opens with.
fn header(payload: &[u8]) -> Result<(Dec<'_>, u8, u8), WireError> {
    if payload.len() < MIN_PAYLOAD {
        return Err(WireError::FrameTooShort(payload.len()));
    }
    let mut d = Dec::new(payload);
    let version = d.u8()?;
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::BadVersion(version));
    }
    let opcode = d.u8()?;
    Ok((d, version, opcode))
}

/// The operation a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOp {
    /// Predictive top-k entities (Algorithm 3).
    TopK {
        /// Dense entity id.
        entity: u32,
        /// Dense relation id.
        relation: u32,
        /// Query direction.
        direction: Direction,
        /// Number of entities requested.
        k: u32,
    },
    /// Top-k restricted by a declarative filter.
    TopKFiltered {
        /// Dense entity id.
        entity: u32,
        /// Dense relation id.
        relation: u32,
        /// Query direction.
        direction: Direction,
        /// Number of entities requested.
        k: u32,
        /// Candidate filter.
        filter: WireFilter,
    },
    /// Aggregate over the probability ball (§V-B).
    Aggregate {
        /// Dense entity id.
        entity: u32,
        /// Dense relation id.
        relation: u32,
        /// Query direction.
        direction: Direction,
        /// Which aggregate to compute.
        kind: AggregateKind,
        /// Attribute name (required for all but COUNT).
        attribute: Option<String>,
        /// Probability threshold `p_τ`.
        p_tau: f64,
        /// Access budget `a` (`None` = all ball members).
        sample_size: Option<u32>,
    },
    /// Appends a fact and locally refines embeddings (single-writer).
    AddFactDynamic {
        /// Head entity id.
        h: u32,
        /// Relation id.
        r: u32,
        /// Tail entity id.
        t: u32,
        /// Local gradient refinement steps.
        refine_steps: u32,
        /// Refinement learning rate.
        learning_rate: f64,
        /// Client idempotency token (wire v2; 0 = untokened). A retry
        /// after an ambiguous failure reuses the token, and the server
        /// applies the write at most once, echoing the token in
        /// [`Response::FactAdded`]. v1 frames decode with token 0.
        token: u64,
    },
    /// Engine + server statistics at the current epoch.
    Stats,
    /// Full observability export: the merged facade + server metrics
    /// registry and the most recent spans from the server's span ring.
    Metrics {
        /// Keep at most this many of the newest spans (the server also
        /// clamps to its ring capacity).
        last_spans: u32,
    },
    /// Begin a graceful drain: stop admitting, finish in-flight work.
    Shutdown,
}

impl RequestOp {
    /// The wire opcode this operation encodes as. Also stamped into the
    /// [`vkg_obs::Span`] traced for the request, so exported spans name
    /// their operation in the protocol's own vocabulary.
    pub fn opcode(&self) -> u8 {
        match self {
            RequestOp::TopK { .. } => op::TOP_K,
            RequestOp::TopKFiltered { .. } => op::TOP_K_FILTERED,
            RequestOp::Aggregate { .. } => op::AGGREGATE,
            RequestOp::AddFactDynamic { .. } => op::ADD_FACT,
            RequestOp::Stats => op::STATS,
            RequestOp::Metrics { .. } => op::METRICS,
            RequestOp::Shutdown => op::SHUTDOWN,
        }
    }
}

/// One request frame: a deadline plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Per-request deadline in milliseconds, measured from admission;
    /// `0` means "use the server's default deadline".
    pub deadline_ms: u32,
    /// The operation.
    pub op: RequestOp,
}

fn dir_byte(d: Direction) -> u8 {
    match d {
        Direction::Tails => 0,
        Direction::Heads => 1,
    }
}

fn dir_from(b: u8) -> Result<Direction, DecodeError> {
    match b {
        0 => Ok(Direction::Tails),
        1 => Ok(Direction::Heads),
        _ => Err(DecodeError::Malformed("direction byte")),
    }
}

fn kind_byte(k: AggregateKind) -> u8 {
    match k {
        AggregateKind::Count => 0,
        AggregateKind::Sum => 1,
        AggregateKind::Avg => 2,
        AggregateKind::Max => 3,
        AggregateKind::Min => 4,
    }
}

fn kind_from(b: u8) -> Result<AggregateKind, DecodeError> {
    Ok(match b {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum,
        2 => AggregateKind::Avg,
        3 => AggregateKind::Max,
        4 => AggregateKind::Min,
        _ => return Err(DecodeError::Malformed("aggregate kind byte")),
    })
}

impl Request {
    /// Encodes to one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(WIRE_VERSION);
        e.u8(self.op.opcode());
        e.u32(self.deadline_ms);
        match &self.op {
            RequestOp::TopK {
                entity,
                relation,
                direction,
                k,
            } => {
                e.u32(*entity);
                e.u32(*relation);
                e.u8(dir_byte(*direction));
                e.u32(*k);
            }
            RequestOp::TopKFiltered {
                entity,
                relation,
                direction,
                k,
                filter,
            } => {
                e.u32(*entity);
                e.u32(*relation);
                e.u8(dir_byte(*direction));
                e.u32(*k);
                filter.encode(&mut e);
            }
            RequestOp::Aggregate {
                entity,
                relation,
                direction,
                kind,
                attribute,
                p_tau,
                sample_size,
            } => {
                e.u32(*entity);
                e.u32(*relation);
                e.u8(dir_byte(*direction));
                e.u8(kind_byte(*kind));
                e.option(attribute.as_deref(), Enc::str);
                e.f64(*p_tau);
                e.option(sample_size.as_ref(), |e, &a| e.u32(a));
            }
            RequestOp::AddFactDynamic {
                h,
                r,
                t,
                refine_steps,
                learning_rate,
                token,
            } => {
                e.u32(*h);
                e.u32(*r);
                e.u32(*t);
                e.u32(*refine_steps);
                e.f64(*learning_rate);
                e.u64(*token);
            }
            RequestOp::Metrics { last_spans } => {
                e.u32(*last_spans);
            }
            RequestOp::Stats | RequestOp::Shutdown => {}
        }
        e.finish()
    }

    /// Decodes one frame payload. Fails closed on any malformation.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let (mut d, version, opcode) = header(payload)?;
        let deadline_ms = d.u32()?;
        let op = match opcode {
            op::TOP_K => RequestOp::TopK {
                entity: d.u32()?,
                relation: d.u32()?,
                direction: dir_from(d.u8()?)?,
                k: d.u32()?,
            },
            op::TOP_K_FILTERED => RequestOp::TopKFiltered {
                entity: d.u32()?,
                relation: d.u32()?,
                direction: dir_from(d.u8()?)?,
                k: d.u32()?,
                filter: WireFilter::decode(&mut d)?,
            },
            op::AGGREGATE => RequestOp::Aggregate {
                entity: d.u32()?,
                relation: d.u32()?,
                direction: dir_from(d.u8()?)?,
                kind: kind_from(d.u8()?)?,
                attribute: d.option("attribute option tag", Dec::str)?,
                p_tau: d.f64()?,
                sample_size: d.option("sample-size option tag", Dec::u32)?,
            },
            op::ADD_FACT => RequestOp::AddFactDynamic {
                h: d.u32()?,
                r: d.u32()?,
                t: d.u32()?,
                refine_steps: d.u32()?,
                learning_rate: d.f64()?,
                // v1 predates idempotency tokens; those writes decode
                // as untokened.
                token: if version >= 2 { d.u64()? } else { 0 },
            },
            op::STATS => RequestOp::Stats,
            op::METRICS => RequestOp::Metrics {
                last_spans: d.u32()?,
            },
            op::SHUTDOWN => RequestOp::Shutdown,
            other => return Err(WireError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(Request { deadline_ms, op })
    }

    /// The [`Query`] a read request asks: `TopK` and `TopKFiltered` a
    /// top-k with their `k` and filter, `Aggregate` its
    /// [`Request::aggregate_spec`]. Writes and control requests ask none.
    pub fn query(&self) -> Option<Query> {
        let (entity, relation, direction, op) = match &self.op {
            RequestOp::TopK {
                entity,
                relation,
                direction,
                k,
            } => (
                entity,
                relation,
                direction,
                QueryOp::TopK {
                    k: *k as usize,
                    filter: None,
                },
            ),
            RequestOp::TopKFiltered {
                entity,
                relation,
                direction,
                k,
                filter,
            } => {
                let filter = Some(filter.clone());
                (
                    entity,
                    relation,
                    direction,
                    QueryOp::TopK {
                        k: *k as usize,
                        filter,
                    },
                )
            }
            RequestOp::Aggregate {
                entity,
                relation,
                direction,
                ..
            } => (
                entity,
                relation,
                direction,
                QueryOp::Aggregate(self.aggregate_spec()?),
            ),
            RequestOp::AddFactDynamic { .. }
            | RequestOp::Stats
            | RequestOp::Metrics { .. }
            | RequestOp::Shutdown => return None,
        };
        Some(Query {
            entity: EntityId(*entity),
            relation: RelationId(*relation),
            direction: *direction,
            op,
        })
    }

    /// Builds the [`AggregateSpec`] an `Aggregate` request describes.
    /// Returns `None` for other operations.
    pub fn aggregate_spec(&self) -> Option<AggregateSpec> {
        match &self.op {
            RequestOp::Aggregate {
                kind,
                attribute,
                p_tau,
                sample_size,
                ..
            } => Some(AggregateSpec {
                kind: *kind,
                attribute: attribute.clone(),
                p_tau: *p_tau,
                sample_size: sample_size.map(|a| a as usize),
            }),
            _ => None,
        }
    }
}

/// One predicted edge endpoint on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionWire {
    /// Dense entity id.
    pub id: u32,
    /// S₁ distance (lower = more likely).
    pub distance: f64,
    /// Edge probability under the inverse-distance model.
    pub probability: f64,
}

/// A top-k answer with its epoch and Theorem 2 guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKWire {
    /// Snapshot epoch the answer was computed at.
    pub epoch: u64,
    /// Up to `k` predictions, ascending by S₁ distance.
    pub predictions: Vec<PredictionWire>,
    /// Probability no true top-k entity was missed (Theorem 2).
    pub success_probability: f64,
    /// Expected number of missed entities (Theorem 2).
    pub expected_misses: f64,
    /// S₁ distance evaluations this answer cost.
    pub s1_evals: u64,
    /// S₂ candidate points examined.
    pub candidates_examined: u64,
}

impl TopKWire {
    /// Projects an engine answer onto the wire.
    pub fn from_result(epoch: u64, r: &TopKResult) -> Self {
        TopKWire {
            epoch,
            predictions: r
                .predictions
                .iter()
                .map(|p| PredictionWire {
                    id: p.id,
                    distance: p.distance,
                    probability: p.probability,
                })
                .collect(),
            success_probability: r.guarantee.success_probability,
            expected_misses: r.guarantee.expected_misses,
            s1_evals: r.s1_evals,
            candidates_examined: r.candidates_examined,
        }
    }
}

/// An aggregate answer with its epoch and Theorem 4 bound.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateWire {
    /// Snapshot epoch the answer was computed at.
    pub epoch: u64,
    /// The expected aggregate value.
    pub estimate: f64,
    /// Entities accessed (`a`).
    pub accessed: u64,
    /// Ball size (`b`).
    pub ball_size: u64,
    /// Theorem 4 bound: the estimate μ.
    pub mu: f64,
    /// Theorem 4 bound: the martingale increment mass.
    pub increment_mass: f64,
}

impl AggregateWire {
    /// Projects an engine answer onto the wire.
    pub fn from_result(epoch: u64, r: &AggregateResult) -> Self {
        AggregateWire {
            epoch,
            estimate: r.estimate,
            accessed: r.accessed as u64,
            ball_size: r.ball_size as u64,
            mu: r.bound.mu,
            increment_mass: r.bound.increment_mass,
        }
    }
}

/// [`Accuracy`] on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyWire(pub Accuracy);

impl AccuracyWire {
    fn encode(&self, e: &mut Enc) {
        let (tag, x) = match self.0 {
            Accuracy::Exact => (0, 0.0),
            Accuracy::Approximate { min_overlap } => (1, min_overlap),
            Accuracy::SelfOracle { min_recall } => (2, min_recall),
        };
        e.u8(tag);
        e.f64(x);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let (tag, x) = (d.u8()?, d.f64()?);
        Ok(AccuracyWire(match tag {
            0 => Accuracy::Exact,
            1 => Accuracy::Approximate { min_overlap: x },
            2 => Accuracy::SelfOracle { min_recall: x },
            _ => return Err(DecodeError::Malformed("accuracy tag")),
        }))
    }
}

/// Admission-control counters the server reports alongside engine stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Admitted requests answered (success, query error, or deadline).
    pub answered: u64,
    /// Requests shed with `Overloaded` (queue full).
    pub shed: u64,
    /// Admitted requests whose deadline expired before execution.
    pub deadline_expired: u64,
    /// Requests refused because the server was draining.
    pub drained: u64,
}

/// One row of a stats report's `shards` sequence. The wire format
/// keeps the sequence from the engine's sharded days (v2 clients decode
/// it); the server fills exactly one row: the index epoch
/// (publications that mutated the index) and the whole admission
/// ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsWire {
    /// The index epoch at the time of the answer.
    pub epoch: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests answered.
    pub answered: u64,
}

/// Engine + server statistics at one epoch — the remote view of
/// [`EngineStats`] (crack-depth, probe counters) and [`Accuracy`], plus
/// the one-row `shards` sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsWire {
    /// Snapshot epoch at the time of the answer.
    pub epoch: u64,
    /// Index nodes currently allocated.
    pub nodes: u64,
    /// Approximate index size in bytes.
    pub bytes: u64,
    /// Binary splits performed (crack depth proxy).
    pub splits_performed: u64,
    /// Tree nodes created.
    pub nodes_created: u64,
    /// Contour elements touched by searches.
    pub elements_accessed: u64,
    /// Data points examined in S₂.
    pub points_examined: u64,
    /// Full S₁ distance evaluations.
    pub s1_distance_evals: u64,
    /// The engine's accuracy contract.
    pub accuracy: AccuracyWire,
    /// Admission-control counters.
    pub server: ServerCounters,
    /// The index epoch and admission ledger, as a one-row sequence
    /// (see [`ShardStatsWire`]).
    pub shards: Vec<ShardStatsWire>,
}

impl StatsWire {
    /// Assembles from the engine's uniform stats report plus the
    /// `shards` rows.
    pub fn from_stats(
        epoch: u64,
        stats: &EngineStats,
        accuracy: Accuracy,
        server: ServerCounters,
        shards: Vec<ShardStatsWire>,
    ) -> Self {
        StatsWire {
            epoch,
            nodes: stats.nodes as u64,
            bytes: stats.bytes as u64,
            splits_performed: stats.counters.splits_performed,
            nodes_created: stats.counters.nodes_created,
            elements_accessed: stats.counters.elements_accessed,
            points_examined: stats.counters.points_examined,
            s1_distance_evals: stats.counters.s1_distance_evals,
            accuracy: AccuracyWire(accuracy),
            server,
            shards,
        }
    }
}

/// A full observability export: the server's merged metric registry
/// (facade `core.*` names plus server `server.*` names) and the newest
/// spans from the span ring, stamped with the epoch it was taken at.
///
/// Wire shape (after the epoch): counters, gauges, and histograms as
/// name-prefixed sequences; the span accounting pair; then the spans
/// themselves, each a fixed 62-byte record. Decoding fails closed like
/// every other message — declared lengths are bounded against the
/// remaining payload before allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsWire {
    /// Snapshot epoch at the time of the export.
    pub epoch: u64,
    /// The merged registry dump plus last-N spans.
    pub snapshot: MetricsSnapshot,
}

/// Smallest wire footprint of a named counter/gauge row (empty name).
const NAMED_U64_MIN_BYTES: usize = 12;
/// Smallest wire footprint of a named histogram (empty name, no buckets).
const HIST_MIN_BYTES: usize = 24;
/// Wire footprint of one `(bucket, count)` pair.
const BUCKET_PAIR_BYTES: usize = 12;
/// Wire footprint of one span record.
const SPAN_WIRE_BYTES: usize = 62;
/// Wire footprint of one prediction (`id`, distance, probability).
pub(crate) const PREDICTION_WIRE_BYTES: usize = 20;
/// Wire footprint of one stats `shards` row.
const SHARD_ROW_BYTES: usize = 24;

fn encode_named(e: &mut Enc, (name, value): &(String, u64)) {
    e.str(name);
    e.u64(*value);
}

fn decode_named(d: &mut Dec<'_>) -> Result<(String, u64), DecodeError> {
    Ok((d.str()?, d.u64()?))
}

impl MetricsWire {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.epoch);
        e.seq(&self.snapshot.counters, encode_named);
        e.seq(&self.snapshot.gauges, encode_named);
        e.seq(&self.snapshot.hists, |e, (name, h)| {
            e.str(name);
            e.u64(h.total);
            e.u64(h.max_us);
            e.seq(&h.buckets, |e, &(bucket, count)| {
                e.u32(bucket);
                e.u64(count);
            });
        });
        e.u64(self.snapshot.spans_recorded);
        e.u64(self.snapshot.spans_dropped);
        e.seq(&self.snapshot.spans, |e, s| {
            e.u64(s.id);
            e.u8(s.op);
            e.u32(s.shard);
            e.u8(s.outcome as u8);
            e.u64(s.queue_ns);
            e.u64(s.lock_ns);
            e.u64(s.exec_ns);
            e.u64(s.encode_ns);
            e.u64(s.batch_ns);
            e.u64(s.refine_steps);
        });
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let epoch = d.u64()?;
        let counters = d.seq(NAMED_U64_MIN_BYTES, decode_named)?;
        let gauges = d.seq(NAMED_U64_MIN_BYTES, decode_named)?;
        let hists = d.seq(HIST_MIN_BYTES, |d| {
            let name = d.str()?;
            let hist = HistSnapshot {
                total: d.u64()?,
                max_us: d.u64()?,
                buckets: d.seq(BUCKET_PAIR_BYTES, |d| Ok((d.u32()?, d.u64()?)))?,
            };
            Ok((name, hist))
        })?;
        let spans_recorded = d.u64()?;
        let spans_dropped = d.u64()?;
        let spans = d.seq(SPAN_WIRE_BYTES, |d| {
            Ok(Span {
                id: d.u64()?,
                op: d.u8()?,
                shard: d.u32()?,
                outcome: SpanOutcome::from_u8(d.u8()?),
                queue_ns: d.u64()?,
                lock_ns: d.u64()?,
                exec_ns: d.u64()?,
                encode_ns: d.u64()?,
                batch_ns: d.u64()?,
                refine_steps: d.u64()?,
            })
        })?;
        Ok(MetricsWire {
            epoch,
            snapshot: MetricsSnapshot {
                counters,
                gauges,
                hists,
                spans,
                spans_recorded,
                spans_dropped,
            },
        })
    }
}

/// Why a request was refused or failed — the typed half of
/// [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue was full; retry with backoff.
    Overloaded,
    /// The request waited past its deadline and was not executed.
    DeadlineExceeded,
    /// The server is draining and admits no new work.
    Draining,
    /// The frame or message could not be decoded; the connection closes.
    MalformedRequest,
    /// The query itself failed (unknown ids, invalid parameters, …).
    Query,
    /// The server failed internally (e.g. a worker disappeared).
    Internal,
}

impl ErrorCode {
    fn byte(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::DeadlineExceeded => 2,
            ErrorCode::Draining => 3,
            ErrorCode::MalformedRequest => 4,
            ErrorCode::Query => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_byte(b: u8) -> Result<Self, DecodeError> {
        Ok(match b {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::Draining,
            4 => ErrorCode::MalformedRequest,
            5 => ErrorCode::Query,
            6 => ErrorCode::Internal,
            _ => return Err(DecodeError::Malformed("error code byte")),
        })
    }
}

/// A typed refusal or failure sent in place of a result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerError {
    /// Machine-readable cause.
    pub code: ErrorCode,
    /// Human-readable detail (e.g. the rendered [`VkgError`]).
    pub message: String,
}

impl ServerError {
    /// Wraps a query-layer error.
    pub fn query(e: &VkgError) -> Self {
        ServerError {
            code: ErrorCode::Query,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServerError {}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Top-k answer.
    TopK(TopKWire),
    /// Aggregate answer.
    Aggregate(AggregateWire),
    /// Outcome of an `AddFactDynamic` (epoch after the write).
    FactAdded {
        /// Whether the edge was new.
        added: bool,
        /// The epoch after the write (unchanged for duplicates).
        epoch: u64,
        /// The request's idempotency token echoed back (wire v2; 0 when
        /// the write was untokened or arrived on a v1 frame).
        token: u64,
    },
    /// Statistics report.
    Stats(StatsWire),
    /// Observability export (merged registries + recent spans).
    Metrics(MetricsWire),
    /// Acknowledges a `Shutdown`: the server drains and exits.
    ShuttingDown,
    /// Typed refusal or failure.
    Error(ServerError),
}

impl Response {
    /// Encodes to one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(WIRE_VERSION);
        match self {
            Response::TopK(t) => {
                e.u8(op::R_TOP_K);
                e.u64(t.epoch);
                e.seq(&t.predictions, |e, p| {
                    e.u32(p.id);
                    e.f64(p.distance);
                    e.f64(p.probability);
                });
                e.f64(t.success_probability);
                e.f64(t.expected_misses);
                e.u64(t.s1_evals);
                e.u64(t.candidates_examined);
            }
            Response::Aggregate(a) => {
                e.u8(op::R_AGGREGATE);
                e.u64(a.epoch);
                e.f64(a.estimate);
                e.u64(a.accessed);
                e.u64(a.ball_size);
                e.f64(a.mu);
                e.f64(a.increment_mass);
            }
            Response::FactAdded {
                added,
                epoch,
                token,
            } => {
                e.u8(op::R_FACT_ADDED);
                e.bool(*added);
                e.u64(*epoch);
                e.u64(*token);
            }
            Response::Stats(s) => {
                e.u8(op::R_STATS);
                e.u64(s.epoch);
                e.u64(s.nodes);
                e.u64(s.bytes);
                e.u64(s.splits_performed);
                e.u64(s.nodes_created);
                e.u64(s.elements_accessed);
                e.u64(s.points_examined);
                e.u64(s.s1_distance_evals);
                s.accuracy.encode(&mut e);
                e.u64(s.server.admitted);
                e.u64(s.server.answered);
                e.u64(s.server.shed);
                e.u64(s.server.deadline_expired);
                e.u64(s.server.drained);
                e.seq(&s.shards, |e, sh| {
                    e.u64(sh.epoch);
                    e.u64(sh.admitted);
                    e.u64(sh.answered);
                });
            }
            Response::Metrics(m) => {
                e.u8(op::R_METRICS);
                m.encode(&mut e);
            }
            Response::ShuttingDown => {
                e.u8(op::R_SHUTTING_DOWN);
            }
            Response::Error(err) => {
                e.u8(op::R_ERROR);
                e.u8(err.code.byte());
                e.str(&err.message);
            }
        }
        e.finish()
    }

    /// Decodes one frame payload. Fails closed on any malformation.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let (mut d, version, opcode) = header(payload)?;
        let resp = match opcode {
            op::R_TOP_K => Response::TopK(TopKWire {
                epoch: d.u64()?,
                predictions: d.seq(PREDICTION_WIRE_BYTES, |d| {
                    Ok(PredictionWire {
                        id: d.u32()?,
                        distance: d.f64()?,
                        probability: d.f64()?,
                    })
                })?,
                success_probability: d.f64()?,
                expected_misses: d.f64()?,
                s1_evals: d.u64()?,
                candidates_examined: d.u64()?,
            }),
            op::R_AGGREGATE => Response::Aggregate(AggregateWire {
                epoch: d.u64()?,
                estimate: d.f64()?,
                accessed: d.u64()?,
                ball_size: d.u64()?,
                mu: d.f64()?,
                increment_mass: d.f64()?,
            }),
            op::R_FACT_ADDED => Response::FactAdded {
                added: d.bool()?,
                epoch: d.u64()?,
                token: if version >= 2 { d.u64()? } else { 0 },
            },
            op::R_STATS => Response::Stats(StatsWire {
                epoch: d.u64()?,
                nodes: d.u64()?,
                bytes: d.u64()?,
                splits_performed: d.u64()?,
                nodes_created: d.u64()?,
                elements_accessed: d.u64()?,
                points_examined: d.u64()?,
                s1_distance_evals: d.u64()?,
                accuracy: AccuracyWire::decode(&mut d)?,
                server: ServerCounters {
                    admitted: d.u64()?,
                    answered: d.u64()?,
                    shed: d.u64()?,
                    deadline_expired: d.u64()?,
                    drained: d.u64()?,
                },
                shards: d.seq(SHARD_ROW_BYTES, |d| {
                    Ok(ShardStatsWire {
                        epoch: d.u64()?,
                        admitted: d.u64()?,
                        answered: d.u64()?,
                    })
                })?,
            }),
            op::R_METRICS => Response::Metrics(MetricsWire::decode(&mut d)?),
            op::R_SHUTTING_DOWN => Response::ShuttingDown,
            op::R_ERROR => Response::Error(ServerError {
                code: ErrorCode::from_byte(d.u8()?)?,
                message: d.str()?,
            }),
            other => return Err(WireError::UnknownOpcode(other)),
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request round-trips, and each read maps to the query the
    /// server executes — its k, filter and spec — while writes and
    /// control requests ask none.
    #[test]
    fn request_roundtrip_smoke() {
        let (e, r) = (EntityId(7), RelationId(2));
        let movies = WireFilter::NamePrefix("movie_".into());
        let range = WireFilter::IdRange { lo: 2, hi: 40 };
        let avg = AggregateSpec::of(AggregateKind::Avg, "year", 0.05);
        let top_k = |k, filter| Some(Query::top_k(e, r, Direction::Heads, k, filter));
        let aggregate = |spec| Some(Query::aggregate(e, r, Direction::Tails, spec));
        let filtered = |filter: &WireFilter| RequestOp::TopKFiltered {
            entity: 7,
            relation: 2,
            direction: Direction::Heads,
            k: 2,
            filter: filter.clone(),
        };
        let averaged = |sample_size| RequestOp::Aggregate {
            entity: 7,
            relation: 2,
            direction: Direction::Tails,
            kind: AggregateKind::Avg,
            attribute: Some("year".into()),
            p_tau: 0.05,
            sample_size,
        };
        let cases = [
            (
                RequestOp::TopK {
                    entity: 7,
                    relation: 2,
                    direction: Direction::Heads,
                    k: 5,
                },
                top_k(5, None),
            ),
            (filtered(&movies), top_k(2, Some(movies.clone()))),
            (filtered(&range), top_k(2, Some(range.clone()))),
            (averaged(None), aggregate(avg.clone())),
            (averaged(Some(40)), aggregate(avg.with_sample(40))),
            (
                RequestOp::AddFactDynamic {
                    h: 1,
                    r: 0,
                    t: 2,
                    refine_steps: 4,
                    learning_rate: 0.05,
                    token: 0xDEAD_BEEF,
                },
                None,
            ),
            (RequestOp::Stats, None),
            (RequestOp::Metrics { last_spans: 32 }, None),
            (RequestOp::Shutdown, None),
        ];
        for (deadline_ms, (op, query)) in (0..).step_by(250).zip(cases) {
            let req = Request { deadline_ms, op };
            let payload = req.encode();
            assert_eq!(payload[0], WIRE_VERSION);
            assert_eq!(Request::decode(&payload).unwrap(), req);
            assert_eq!(req.query(), query, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip_smoke() {
        let resps = vec![
            Response::TopK(TopKWire {
                epoch: 4,
                predictions: vec![PredictionWire {
                    id: 11,
                    distance: 0.5,
                    probability: 1.0,
                }],
                success_probability: 0.99,
                expected_misses: 0.01,
                s1_evals: 37,
                candidates_examined: 90,
            }),
            Response::Aggregate(AggregateWire {
                epoch: 0,
                estimate: 12.5,
                accessed: 10,
                ball_size: 20,
                mu: 12.5,
                increment_mass: 3.0,
            }),
            Response::FactAdded {
                added: true,
                epoch: 9,
                token: 41,
            },
            Response::Metrics(MetricsWire {
                epoch: 3,
                snapshot: MetricsSnapshot {
                    counters: vec![("core.queries".into(), 12), ("server.shed".into(), 0)],
                    gauges: vec![("server.queue_depth".into(), 2)],
                    hists: vec![(
                        "server.latency_us".into(),
                        HistSnapshot {
                            total: 3,
                            max_us: 900,
                            buckets: vec![(0, 1), (41, 2)],
                        },
                    )],
                    spans: vec![Span {
                        id: 7,
                        op: 0x01,
                        shard: 1,
                        outcome: SpanOutcome::DeadlineExpired,
                        queue_ns: 10,
                        lock_ns: 20,
                        exec_ns: 30,
                        encode_ns: 40,
                        batch_ns: 15,
                        refine_steps: 5,
                    }],
                    spans_recorded: 9,
                    spans_dropped: 2,
                },
            }),
            Response::Metrics(MetricsWire::default()),
            Response::ShuttingDown,
            Response::Error(ServerError {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            }),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn foreign_version_rejected() {
        let mut payload = Request {
            deadline_ms: 0,
            op: RequestOp::Stats,
        }
        .encode();
        payload[0] = 99;
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::BadVersion(99)
        );
    }

    #[test]
    fn v1_add_fact_decodes_with_token_zero() {
        // A hand-assembled v1 ADD_FACT frame (no trailing token field)
        // must still decode, defaulting the token to 0.
        let mut e = Enc::new();
        e.u8(1); // wire v1
        e.u8(0x04); // ADD_FACT
        e.u32(0); // deadline
        e.u32(1); // h
        e.u32(0); // r
        e.u32(2); // t
        e.u32(4); // refine_steps
        e.f64(0.05); // learning_rate
        let req = Request::decode(&e.finish()).unwrap();
        assert_eq!(
            req.op,
            RequestOp::AddFactDynamic {
                h: 1,
                r: 0,
                t: 2,
                refine_steps: 4,
                learning_rate: 0.05,
                token: 0,
            }
        );

        let mut e = Enc::new();
        e.u8(1); // wire v1
        e.u8(0x83); // R_FACT_ADDED
        e.u8(1); // added
        e.u64(9); // epoch
        assert_eq!(
            Response::decode(&e.finish()).unwrap(),
            Response::FactAdded {
                added: true,
                epoch: 9,
                token: 0,
            }
        );
    }

    #[test]
    fn unknown_opcode_rejected() {
        let payload = vec![WIRE_VERSION, 0x7C, 0, 0, 0, 0];
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::UnknownOpcode(0x7C)
        );
    }

    #[test]
    fn metrics_with_absurd_span_count_rejected() {
        // An empty export ends with the span-count word; declaring
        // u32::MAX spans with no bytes behind it must fail closed
        // before allocation, not panic or allocate 200 GiB.
        let mut payload = Response::Metrics(MetricsWire::default()).encode();
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&payload).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Request {
            deadline_ms: 0,
            op: RequestOp::Stats,
        }
        .encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::Trailing(1)
        );
    }
}
