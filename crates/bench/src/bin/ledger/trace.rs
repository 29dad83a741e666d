//! The traced run: every operation executed in process, on one thread,
//! as the chain of public calls the server makes for it, with a span
//! around each call. The spans are recorded from here, outside the
//! program; nothing inside the program is instrumented for this.
//!
//! A *twin* engine is then fed the same operations in the same order, in
//! a pass of its own. For a plain top-k it replaces the facade call with
//! its public parts
//! (`query_point_s1` → `JlTransform::apply` → `find_top_k` with a
//! closure the benchmark owns), which splits the index search from the
//! S₁ refine; index counters are read around every twin operation.
//!
//! Spans live in a vector reserved up front and are written out once the
//! run is over. A span's self time is its duration minus its children's.

use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use vkg::core::metrics::names as core_names;
use vkg::core::query::topk::find_top_k;
use vkg::core::{IndexStats, VirtualKnowledgeGraph};
use vkg::kg::{EntityId, RelationId};
use vkg_server::wire::{read_frame, write_frame};
use vkg_server::{
    AggregateWire, Request, RequestOp, Response, ServerError, TopKWire, WireFilter, MAX_FRAME,
};

use crate::gen::{self, Op, Tables};
use crate::report::Report;
use crate::serve::{self, ask, Answer, Env, Inputs, Served};
use crate::spec::{Workload, K, LEARNING_RATE, REFINE_STEPS};
use crate::stats;

/// Parent of a span that has none.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one operation share this.
    pub op_id: u32,
}

impl SpanRec {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into a preallocated vector. Switched off, every call
/// is one branch: the untraced pass runs the same code.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn new(on: bool, capacity: usize) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, op_id: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        let end_ns = self.now();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op_id);
        let r = f();
        self.close(id);
        r
    }

    /// A span whose extent was measured elsewhere (the summed time of a
    /// closure called thousands of times per operation).
    fn synthetic(&mut self, name: &'static str, parent: u32, op_id: u32, start_ns: u64, ns: u64) {
        if self.on {
            self.spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent,
                op_id,
            });
        }
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part its children
    /// cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(SpanRec::ns).collect();
        for span in &self.spans {
            if let Some(parent) = own.get_mut(span.parent as usize) {
                *parent = parent.saturating_sub(span.ns());
            }
        }
        own
    }
}

/// What reading the clock costs, so that it can be taken back out of a
/// closure timed once per call.
#[derive(Debug, Clone, Copy)]
struct ClockCost {
    /// Added to the measured interval by one start/stop pair.
    inside_ns: f64,
    /// Added to the enclosing span by one start/stop pair.
    pair_ns: f64,
}

fn clock_cost() -> ClockCost {
    const ROUNDS: u32 = 200_000;
    let started = Instant::now();
    let mut inside = 0u64;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        inside += t.elapsed().as_nanos() as u64;
    }
    let total = started.elapsed().as_nanos() as f64;
    ClockCost {
        inside_ns: inside as f64 / f64::from(ROUNDS),
        pair_ns: total / f64::from(ROUNDS),
    }
}

/// What the server's `execute` does for the four kinds of request the
/// generators emit, through the same public facade entry points. It is a
/// copy of private code, so every traced run checks that its answers
/// equal the real server's (see [`same_answer`]); anything the
/// generators cannot produce is an error here.
pub fn execute(vkg: &VirtualKnowledgeGraph, request: &Request) -> Response {
    let failed = |e: &vkg::core::VkgError| Response::Error(ServerError::query(e));
    match &request.op {
        RequestOp::TopK {
            entity,
            relation,
            direction,
            k,
        } => vkg.with_published_shard(RelationId(*relation), |pin, snap, state| {
            match vkg.top_k_pinned(
                pin,
                snap,
                state,
                EntityId(*entity),
                RelationId(*relation),
                *direction,
                *k as usize,
            ) {
                Ok(r) => Response::TopK(TopKWire::from_result(pin.epoch, &r)),
                Err(e) => failed(&e),
            }
        }),
        RequestOp::TopKFiltered {
            entity,
            relation,
            direction,
            k,
            filter: filter @ WireFilter::IdRange { lo, hi },
        } => vkg.with_published_shard(RelationId(*relation), |pin, snap, state| {
            match vkg.top_k_filtered_pinned(
                pin,
                snap,
                state,
                EntityId(*entity),
                RelationId(*relation),
                *direction,
                *k as usize,
                Some(&filter.fingerprint()),
                &|id: EntityId| *lo <= id.0 && id.0 < *hi,
            ) {
                Ok(r) => Response::TopK(TopKWire::from_result(pin.epoch, &r)),
                Err(e) => failed(&e),
            }
        }),
        RequestOp::Aggregate {
            entity,
            relation,
            direction,
            ..
        } => match request.aggregate_spec() {
            None => not_generated(),
            Some(spec) => vkg.with_published_shard(RelationId(*relation), |pin, snap, state| {
                match vkg.aggregate_pinned(
                    pin,
                    snap,
                    state,
                    EntityId(*entity),
                    RelationId(*relation),
                    *direction,
                    &spec,
                ) {
                    Ok(r) => Response::Aggregate(AggregateWire::from_result(pin.epoch, &r)),
                    Err(e) => failed(&e),
                }
            }),
        },
        RequestOp::AddFactDynamic {
            h,
            r,
            t,
            refine_steps,
            learning_rate,
            token,
        } => match vkg.add_fact_durable(
            *token,
            EntityId(*h),
            RelationId(*r),
            EntityId(*t),
            *refine_steps as usize,
            *learning_rate,
        ) {
            Ok((added, epoch)) => Response::FactAdded {
                added,
                epoch,
                token: *token,
            },
            Err(e) => failed(&e),
        },
        _ => not_generated(),
    }
}

fn not_generated() -> Response {
    Response::Error(ServerError {
        code: vkg_server::ErrorCode::Internal,
        message: "no ledger workload generates this request".to_owned(),
    })
}

/// Whether the in-process chain and the real server gave one operation
/// the same answer, in every field (a write: whether it was applied).
fn same_answer(chain: &Response, wire: &Answer) -> bool {
    match (chain, wire) {
        (Response::TopK(a), Answer::TopK(b)) => a == b,
        (Response::Aggregate(a), Answer::Aggregate(b)) => a == b,
        (Response::FactAdded { added, .. }, Answer::Fact { added: b }) => added == b,
        _ => false,
    }
}

/// One frame through a memory buffer: what `write_frame` and
/// `read_frame` cost without a socket.
fn frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<Vec<u8>, String> {
    buf.clear();
    write_frame(buf, payload).map_err(|e| e.to_string())?;
    read_frame(&mut buf.as_slice(), MAX_FRAME)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "empty frame".to_owned())
}

/// The span around the facade call, by kind of operation.
fn facade_span(op: &Op) -> &'static str {
    match op {
        Op::TopK(_) => "core.vkg.topk",
        Op::Filtered { .. } => "core.query.filtered",
        Op::Aggregate { sampled: false, .. } => "core.query.agg_full",
        Op::Aggregate { sampled: true, .. } => "core.query.agg_sampled",
        Op::AddFact { .. } => "core.vkg.add_fact",
    }
}

/// Runs one operation as the chain client encode → frame → server
/// decode → facade → server encode → frame → client decode. Returns the
/// decoded response and its payload size.
fn chain(
    rec: &mut Recorder,
    vkg: &VirtualKnowledgeGraph,
    buf: &mut Vec<u8>,
    op_id: u32,
    op: &Op,
) -> Result<(Response, usize), String> {
    let request = op.request();
    let root = rec.open("op", ROOT, op_id);
    let payload = rec.timed("server.protocol.encode_req", root, op_id, || {
        request.encode()
    });
    let received = rec.timed("server.wire.frame", root, op_id, || frame(buf, &payload))?;
    let decoded = rec
        .timed("server.protocol.decode_req", root, op_id, || {
            Request::decode(&received)
        })
        .map_err(|e| e.to_string())?;
    let response = rec.timed(facade_span(op), root, op_id, || execute(vkg, &decoded));
    let payload = rec.timed("server.protocol.encode_resp", root, op_id, || {
        response.encode()
    });
    let received = rec.timed("server.wire.frame", root, op_id, || frame(buf, &payload))?;
    let back = rec
        .timed("server.protocol.decode_resp", root, op_id, || {
            Response::decode(&received)
        })
        .map_err(|e| e.to_string())?;
    rec.close(root);
    match &back {
        Response::Error(e) => Err(format!("{op:?}: {e}")),
        Response::FactAdded { added: false, .. } => {
            Err(format!("{op:?}: fresh fact acked added = false"))
        }
        _ => Ok((back, received.len())),
    }
}

/// Index counters one twin operation moved.
#[derive(Debug, Clone, Copy)]
struct OpCounts {
    op_id: u32,
    kind: &'static str,
    delta: IndexStats,
    /// Clock reads made inside the timed closure (plain top-k only).
    timed_evals: u64,
}

fn stats_delta(after: &IndexStats, before: &IndexStats) -> IndexStats {
    IndexStats {
        splits_performed: after.splits_performed - before.splits_performed,
        nodes_created: after.nodes_created.saturating_sub(before.nodes_created),
        elements_accessed: after.elements_accessed - before.elements_accessed,
        points_examined: after.points_examined - before.points_examined,
        s1_distance_evals: after.s1_distance_evals - before.s1_distance_evals,
    }
}

/// Feeds one operation to the twin. A plain top-k is decomposed into its
/// public parts; everything else goes through the facade, cache-free,
/// only to keep the twin's tree in step.
fn twin_op(
    rec: &mut Recorder,
    twin: &VirtualKnowledgeGraph,
    cost: ClockCost,
    op_id: u32,
    op: &Op,
) -> Result<OpCounts, String> {
    let before = twin.index_stats();
    let mut timed_evals = 0u64;
    let root = rec.open("twin", ROOT, op_id);
    let outcome = match *op {
        Op::TopK(q) => {
            let (entity, relation) = gen::ids(&q);
            let direction = q.direction();
            rec.timed("embed.query_point", root, op_id, || {
                twin.query_point_s1(entity, relation, direction)
            })
            .and_then(|q_s1| {
                twin.with_published_shard(relation, |_pin, snap, state| {
                    let q_s2 = rec.timed("transform.project", root, op_id, || {
                        snap.transform().apply(&q_s1)
                    });
                    let known = snap.known_neighbors(entity, relation, direction);
                    let (embeddings, config) = (snap.embeddings(), snap.config());
                    let mut refine_ns = 0u64;
                    let search = rec.open("core.index.find_top_k", root, op_id);
                    let found = find_top_k(
                        state.index_mut(),
                        &q_s2,
                        K,
                        config.epsilon,
                        config.alpha,
                        |_, id| {
                            let t = Instant::now();
                            let d = embeddings.distance_to_entity(&q_s1, EntityId(id));
                            refine_ns += t.elapsed().as_nanos() as u64;
                            timed_evals += 1;
                            d
                        },
                        |id| id == entity.0 || known.contains(&id),
                    );
                    rec.close(search);
                    // The refine share of the search span, with the
                    // clock's own cost taken out of both.
                    let clock_inside = (timed_evals as f64 * cost.inside_ns) as u64;
                    let refine = refine_ns.saturating_sub(clock_inside);
                    let start = rec.spans().get(search as usize).map_or(0, |s| s.start_ns);
                    rec.synthetic("core.query.refine", search, op_id, start, refine);
                    found.map(|_| ())
                })
            })
            .map_err(|e| e.to_string())
        }
        Op::Filtered { q, lo, hi } => {
            let (entity, relation) = gen::ids(&q);
            twin.top_k_filtered(entity, relation, q.direction(), K, |id| {
                lo <= id.0 && id.0 < hi
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
        }
        Op::Aggregate { q, .. } => {
            let (entity, relation) = gen::ids(&q);
            match op.request().aggregate_spec() {
                Some(spec) => twin
                    .aggregate(entity, relation, q.direction(), &spec)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                None => Err("aggregate without a spec".to_owned()),
            }
        }
        Op::AddFact { h, r, t } => twin
            .add_fact_dynamic(
                EntityId(h),
                RelationId(r),
                EntityId(t),
                REFINE_STEPS,
                LEARNING_RATE,
            )
            .map(|_| ())
            .map_err(|e| e.to_string()),
    };
    rec.close(root);
    outcome.map_err(|e| format!("twin {op:?}: {e}"))?;
    Ok(OpCounts {
        op_id,
        kind: facade_span(op),
        delta: stats_delta(&twin.index_stats(), &before),
        timed_evals,
    })
}

/// The engine under trace and the benchmark's own model of which
/// requests its result cache holds.
struct Engine {
    vkg: VirtualKnowledgeGraph,
    caching: bool,
    /// Encoded requests answered since the last write moved the epoch.
    cached: HashSet<Vec<u8>>,
    buf: Vec<u8>,
}

/// What one operation did.
struct Step {
    op_ns: u64,
    /// The benchmark expected the result cache to answer it.
    hit: bool,
    resp_bytes: usize,
    response: Response,
}

impl Step {
    fn ball_size(&self) -> Option<u64> {
        match &self.response {
            Response::Aggregate(a) => Some(a.ball_size),
            _ => None,
        }
    }
}

impl Engine {
    fn step(&mut self, rec: &mut Recorder, op_id: u32, op: &Op) -> Result<Step, String> {
        // An entry answers a repeat until the next write moves the epoch;
        // sampled aggregates are never cached.
        let cacheable =
            self.caching && !matches!(op, Op::AddFact { .. } | Op::Aggregate { sampled: true, .. });
        let key = cacheable.then(|| op.request().encode());
        let hit = key.as_ref().is_some_and(|k| self.cached.contains(k));
        let sent = Instant::now();
        let (response, resp_bytes) = chain(rec, &self.vkg, &mut self.buf, op_id, op)?;
        let op_ns = sent.elapsed().as_nanos() as u64;
        match key {
            Some(k) => {
                self.cached.insert(k);
            }
            None if op.is_write() => self.cached.clear(),
            None => {}
        }
        Ok(Step {
            op_ns,
            hit,
            resp_bytes,
            response,
        })
    }
}

/// One in-process pass on a fresh engine: the warm operations
/// unrecorded, then `ops` with the recorder as given.
struct Pass {
    rec: Recorder,
    warm: Vec<Step>,
    steps: Vec<Step>,
    /// Cache hits the engine's own counters report, warm phase included.
    counted_hits: u64,
}

fn pass(
    inputs: &Inputs,
    workload: Workload,
    env: &Env,
    warm: &[Op],
    ops: &[Op],
    traced: bool,
) -> Result<Pass, String> {
    let mut engine = Engine {
        vkg: serve::assemble(inputs, workload, env.nproc)?,
        caching: workload.cache_capacity() > 0,
        cached: HashSet::new(),
        buf: Vec::with_capacity(4096),
    };
    let mut off = Recorder::new(false, 0);
    let warm = warm
        .iter()
        .map(|op| engine.step(&mut off, ROOT, op))
        .collect::<Result<Vec<_>, _>>()?;
    // Room for the chain's spans and, later, the twin's.
    let mut rec = Recorder::new(traced, ops.len() * 14);
    let mut steps = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        steps.push(engine.step(&mut rec, i as u32, op)?);
    }
    let m = engine.vkg.metrics_snapshot();
    let counted_hits = m.counter(core_names::CACHE_HIT).unwrap_or(0)
        + m.counter(core_names::CACHE_PREFIX_HIT).unwrap_or(0);
    Ok(Pass {
        rec,
        warm,
        steps,
        counted_hits,
    })
}

/// The twin's pass, after the traced one and on its own engine so that
/// neither disturbs the other's processor caches. It never caches — it
/// prices what a miss computes — and it skips what the traced engine's
/// cache answered: there the engine only replayed that query's crack,
/// which the twin made when it first ran the query.
fn twin_pass(
    inputs: &Inputs,
    workload: Workload,
    env: &Env,
    (warm, ops): (&[Op], &[Op]),
    traced: &mut Pass,
    cost: ClockCost,
) -> Result<Vec<Option<OpCounts>>, String> {
    let twin = serve::assemble_uncached(inputs, workload, env.nproc)?;
    let mut off = Recorder::new(false, 0);
    for (op, step) in warm.iter().zip(&traced.warm) {
        if !step.hit {
            twin_op(&mut off, &twin, cost, ROOT, op)?;
        }
    }
    let mut counts = Vec::with_capacity(ops.len());
    for (i, (op, step)) in ops.iter().zip(&traced.steps).enumerate() {
        counts.push(match step.hit {
            true => None,
            false => Some(twin_op(&mut traced.rec, &twin, cost, i as u32, op)?),
        });
    }
    Ok(counts)
}

/// The same operations over the wire, one connection, fresh server:
/// per-operation microseconds, to set against the in-process chain's,
/// and the answers, to compare with it.
fn wire_pass(
    inputs: &Inputs,
    workload: Workload,
    env: &Env,
    warm: &[Op],
    ops: &[Op],
) -> Result<(Vec<f64>, Vec<Answer>), String> {
    let (mut served, _) = Served::start(inputs, workload, env, 1, None)?;
    let client = &mut served.clients[0];
    for op in warm {
        ask(client, op)?;
    }
    let mut us = Vec::with_capacity(ops.len());
    let mut answers = Vec::with_capacity(ops.len());
    for op in ops {
        let sent = Instant::now();
        answers.push(ask(client, op)?);
        us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    served.stop();
    Ok((us, answers))
}

fn mean_ns(spans: &[SpanRec], name: &str) -> Option<f64> {
    let (mut sum, mut n) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        sum += s.ns();
        n += 1;
    }
    (n > 0).then(|| sum as f64 / n as f64)
}

/// Writes the spans and the per-operation counts as JSON lines.
fn write_trace(path: &Path, p: &Pass, counts: &[Option<OpCounts>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let own = p.rec.self_times();
    for (id, (s, own_ns)) in p.rec.spans().iter().zip(own).enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own_ns}, \"parent\": {parent}, \"op_id\": {}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        )?;
    }
    for c in counts.iter().flatten() {
        writeln!(
            out,
            "{{\"op_id\": {}, \"kind\": \"{}\", \"splits\": {}, \"elements_accessed\": {}, \"points_examined\": {}, \"s1_evals\": {}}}",
            c.op_id, c.kind, c.delta.splits_performed, c.delta.elements_accessed, c.delta.points_examined, c.delta.s1_distance_evals
        )?;
    }
    out.flush()
}

/// The traced run of one workload: an untraced pass, the traced pass
/// with the twin, and a single-connection wire pass, each on fresh
/// engines, each warmed (unrecorded) with the first operations of the
/// warm lane and then given the first operations of lane 0.
pub fn run(
    report: &mut Report,
    inputs: &Inputs,
    tables: &Tables<'_>,
    env: &Env,
    warm_count: usize,
    count: usize,
) -> Result<(), String> {
    let workload = report.workload;
    let lanes = env.lanes + 1;
    let warm = gen::warm_ops(tables, env.lanes, lanes, warm_count);
    let mut stream = tables.stream(0, lanes);
    let ops: Vec<Op> = (0..count).map(|_| stream.next_op()).collect();
    if ops.is_empty() {
        return Err("no operations to trace".to_owned());
    }

    let cost = clock_cost();
    let plain = pass(inputs, workload, env, &warm, &ops, false)?;
    let mut traced = pass(inputs, workload, env, &warm, &ops, true)?;
    let twin_counts = twin_pass(inputs, workload, env, (&warm, &ops), &mut traced, cost)?;
    let spans = traced.rec.spans();
    report.info("traced_ops", ops.len() as f64, "count");
    report.info("trace_spans", spans.len() as f64, "count");

    // Health of the trace itself.
    let op_total: u64 = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(SpanRec::ns)
        .sum();
    let is_op_child = |s: &SpanRec| spans.get(s.parent as usize).is_some_and(|p| p.name == "op");
    let child_total: u64 = spans
        .iter()
        .filter(|s| is_op_child(s))
        .map(SpanRec::ns)
        .sum();
    if op_total > 0 {
        report.set("trace.coverage", child_total as f64 / op_total as f64);
    }
    // Operation by operation against the plain pass, and the median of
    // that: the passes run a minute apart on a host whose speed wanders,
    // so their totals differ by more than tracing costs.
    let ops_traced = spans.iter().filter(|s| s.name == "op");
    let slowdown: Vec<f64> = ops_traced
        .zip(&plain.steps)
        .filter(|(_, plain)| plain.op_ns > 0)
        .map(|(t, plain)| (t.ns() as f64 / plain.op_ns as f64 - 1.0) * 100.0)
        .collect();
    report.set("trace.overhead_pct", stats::median(&slowdown));

    // Span means by name, with the clock's own cost taken out: codec and
    // framing in ns, facade calls by kind of operation in us.
    let net = |name: &str| mean_ns(spans, name).map(|ns| (ns - cost.inside_ns).max(0.0));
    for (metric, span, per_unit) in [
        (
            "server.protocol.encode_req_ns",
            "server.protocol.encode_req",
            1.0,
        ),
        (
            "server.protocol.decode_req_ns",
            "server.protocol.decode_req",
            1.0,
        ),
        (
            "server.protocol.encode_resp_ns",
            "server.protocol.encode_resp",
            1.0,
        ),
        (
            "server.protocol.decode_resp_ns",
            "server.protocol.decode_resp",
            1.0,
        ),
        ("server.wire.frame_ns", "server.wire.frame", 1.0),
        ("core.vkg.topk_us", "core.vkg.topk", 1e3),
        ("core.vkg.add_fact_us", "core.vkg.add_fact", 1e3),
        ("core.query.filtered_us", "core.query.filtered", 1e3),
        ("core.query.agg_full_us", "core.query.agg_full", 1e3),
        ("core.query.agg_sampled_us", "core.query.agg_sampled", 1e3),
        ("embed.query_point_us", "embed.query_point", 1e3),
        ("transform.project_us", "transform.project", 1e3),
    ] {
        if let Some(ns) = net(span) {
            report.set(metric, ns / per_unit);
        }
    }
    let resp_bytes: Vec<f64> = traced.steps.iter().map(|s| s.resp_bytes as f64).collect();
    report.set("server.wire.resp_bytes", stats::mean(&resp_bytes));
    let ball_sizes: Vec<f64> = traced
        .steps
        .iter()
        .filter_map(Step::ball_size)
        .map(|b| b as f64)
        .collect();
    if !ball_sizes.is_empty() {
        report.set("core.query.ball_size_per_agg", stats::mean(&ball_sizes));
    }

    // Index work per operation of a kind. An operation the cache answered
    // did none: the twin skipped it, so it adds nothing to the sums and
    // one to the count. Search is the find_top_k span's self time (the
    // refine span is its child), less the clock reads made in the closure.
    let ran: Vec<&OpCounts> = twin_counts.iter().flatten().collect();
    let topk_ops = ops.iter().filter(|op| matches!(op, Op::TopK(_))).count() as f64;
    if topk_ops > 0.0 {
        let own = traced.rec.self_times();
        let searches = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "core.index.find_top_k");
        let search_self: u64 = searches.map(|(_, own)| *own).sum();
        let refine: u64 = spans
            .iter()
            .filter(|s| s.name == "core.query.refine")
            .map(SpanRec::ns)
            .sum();
        let timed: u64 = ran.iter().map(|c| c.timed_evals).sum();
        let clock_outside = timed as f64 * (cost.pair_ns - cost.inside_ns);
        report.set(
            "core.index.search_us",
            (search_self as f64 - clock_outside).max(0.0) / topk_ops / 1e3,
        );
        report.set("core.query.refine_us", refine as f64 / topk_ops / 1e3);
        let computed: Vec<&&OpCounts> = ran.iter().filter(|c| c.kind == "core.vkg.topk").collect();
        let evals: u64 = computed.iter().map(|c| c.delta.s1_distance_evals).sum();
        if evals > 0 {
            report.set(
                "core.query.useful_ratio",
                (K * computed.len()) as f64 / evals as f64,
            );
        }
    }
    let read_ops = ops.iter().filter(|op| !op.is_write()).count() as f64;
    if read_ops > 0.0 {
        let per_read = |f: fn(&IndexStats) -> u64| {
            let reads = ran.iter().filter(|c| c.kind != "core.vkg.add_fact");
            reads.map(|c| f(&c.delta)).sum::<u64>() as f64 / read_ops
        };
        report.set(
            "core.index.points_examined_per_op",
            per_read(|d| d.points_examined),
        );
        report.set(
            "core.index.elements_accessed_per_op",
            per_read(|d| d.elements_accessed),
        );
        report.set("core.index.splits_per_op", per_read(|d| d.splits_performed));
        report.set(
            "core.query.s1_evals_per_op",
            per_read(|d| d.s1_distance_evals),
        );
    }

    // The result cache: the facade's time on the operations it answered.
    if workload.cache_capacity() > 0 {
        let expected = traced
            .warm
            .iter()
            .chain(&traced.steps)
            .filter(|s| s.hit)
            .count() as u64;
        report.check(expected == traced.counted_hits, || {
            format!(
                "trace expected {expected} cache hits, the engine counted {}",
                traced.counted_hits
            )
        });
        let facade = spans
            .iter()
            .filter(|s| is_op_child(s) && s.name.starts_with("core."));
        let hit_ns: Vec<f64> = facade
            .zip(&traced.steps)
            .filter(|(_, step)| step.hit)
            .map(|(f, _)| f.ns() as f64)
            .collect();
        if !hit_ns.is_empty() {
            report.set("core.cache.hit_us", stats::mean(&hit_ns) / 1e3);
        }
    }

    // What the server adds to an operation: wire time minus chain time,
    // operation by operation (same operation, same state of the tree).
    let (wire_us, wire_answers) = wire_pass(inputs, workload, env, &warm, &ops)?;
    let added_us: Vec<f64> = wire_us
        .iter()
        .zip(&plain.steps)
        .map(|(wire, chain)| wire - chain.op_ns as f64 / 1e3)
        .collect();
    report.set("server.overhead_us", stats::median(&added_us));
    // The chain is this file's copy of the server's dispatch: if the two
    // drift apart, the traced numbers describe something nobody runs.
    let differing = plain
        .steps
        .iter()
        .zip(&wire_answers)
        .filter(|(chain, wire)| !same_answer(&chain.response, wire))
        .count();
    report.check(differing == 0, || {
        format!(
            "{differing} of {} traced operations were answered differently by the server",
            ops.len()
        )
    });

    let path = env.scratch.join(format!("{}.trace.jsonl", workload.name()));
    write_trace(&path, &traced, &twin_counts).map_err(|e| format!("{}: {e}", path.display()))?;
    report.note(format!("trace written to {}", path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(true, 8);
        let root = rec.open("op", ROOT, 0);
        let child = rec.open("a", root, 0);
        rec.close(child);
        rec.synthetic("b", root, 0, 0, 5);
        rec.close(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, root);
        let own = rec.self_times();
        assert_eq!(own[0], spans[0].ns().saturating_sub(spans[1].ns() + 5));
        assert_eq!(own[2], 5);
    }

    #[test]
    fn a_recorder_switched_off_records_nothing() {
        let mut rec = Recorder::new(false, 8);
        let id = rec.open("op", ROOT, 0);
        assert_eq!(id, ROOT);
        assert_eq!(rec.timed("x", id, 0, || 7), 7);
        rec.close(id);
        assert!(rec.spans().is_empty());
    }
}
