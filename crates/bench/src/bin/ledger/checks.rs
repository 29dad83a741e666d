//! Output checks, run at quiescence after the measured phase. A failed
//! check makes the run incorrect and the exit code non-zero.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use vkg::baselines::LinearScanEngine;
use vkg::core::{FaultPlane, QueryEngine, VirtualKnowledgeGraph};
use vkg::kg::{EntityId, RelationId};
use vkg_server::Client;

use crate::gen::{self, Op, Tables};
use crate::report::Report;
use crate::serve::{self, ask, Answer, Env, Inputs, Outcome};
use crate::spec::{Scale, Workload, K, MIN_PRECISION};
use crate::stats;

/// Seed of the reads `precision_at_10` is scored on, whatever `--seed`
/// is: a fixed test set, so that two runs differ by what the engine
/// answered and not by which queries were drawn. (Drawn afresh per seed,
/// 200 queries put a quartile spread of 0.014 on a metric whose bound is
/// 0.01.)
const PRECISION_SEED: u64 = 0x5eed;

/// The first `count` distinct reads that `keep` accepts from the check
/// lane of `tables` — beyond the measured lanes and the warm lane, so the
/// checks ask what the run has not asked. The stream is endless, so the
/// scan is bounded.
fn sample_reads(
    tables: &Tables<'_>,
    env: &Env,
    count: usize,
    keep: impl Fn(&Op) -> bool,
) -> Vec<Op> {
    let mut stream = tables.stream(env.lanes + 1, env.lanes + 2);
    let mut seen = HashSet::new();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count * 200 {
        if ops.len() == count {
            break;
        }
        let op = stream.next_op();
        if !op.is_write() && keep(&op) && seen.insert(op.request().encode()) {
            ops.push(op);
        }
    }
    ops
}

/// The `IdRange` a filtered top-k keeps (everything, for a plain one).
fn id_range(op: &Op) -> (u32, u32) {
    match *op {
        Op::Filtered { lo, hi, .. } => (lo, hi),
        _ => (0, u32::MAX),
    }
}

/// Recomputes a read in process, cache-free, under the shard lock, and
/// says how it differs from the wire answer (`None` = bit-identical in
/// every field a client acts on).
fn divergence(vkg: &VirtualKnowledgeGraph, op: &Op, remote: &Answer) -> Option<String> {
    let q = op.query()?;
    let (entity, relation) = gen::ids(&q);
    vkg.with_published_shard(relation, |_pin, snap, state| match (op, remote) {
        (Op::TopK(_) | Op::Filtered { .. }, Answer::TopK(remote)) => {
            let (lo, hi) = id_range(op);
            let local = state
                .top_k_filtered(snap, entity, relation, q.direction(), K, &|id: EntityId| {
                    lo <= id.0 && id.0 < hi
                })
                .map_err(|e| e.to_string());
            match local {
                Err(e) => Some(format!("local top-k failed: {e}")),
                Ok(local) => {
                    let same = remote.predictions.len() == local.predictions.len()
                        && remote
                            .predictions
                            .iter()
                            .zip(&local.predictions)
                            .all(|(r, l)| {
                                r.id == l.id
                                    && r.distance.to_bits() == l.distance.to_bits()
                                    && r.probability.to_bits() == l.probability.to_bits()
                            })
                        && remote.success_probability.to_bits()
                            == local.guarantee.success_probability.to_bits()
                        && remote.expected_misses.to_bits()
                            == local.guarantee.expected_misses.to_bits();
                    (!same).then(|| "top-k differs from recomputation".to_owned())
                }
            }
        }
        (Op::Aggregate { .. }, Answer::Aggregate(remote)) => {
            let Some(spec) = op.request().aggregate_spec() else {
                return Some("aggregate without a spec".to_owned());
            };
            match state.aggregate(snap, entity, relation, q.direction(), &spec) {
                Err(e) => Some(format!("local aggregate failed: {e}")),
                Ok(local) => {
                    let same = remote.estimate.to_bits() == local.estimate.to_bits()
                        && remote.mu.to_bits() == local.bound.mu.to_bits()
                        && remote.increment_mass.to_bits() == local.bound.increment_mass.to_bits()
                        && remote.ball_size as usize == local.ball_size;
                    (!same).then(|| "aggregate differs from recomputation".to_owned())
                }
            }
        }
        _ => Some("answer of the wrong kind".to_owned()),
    })
}

/// Sampled workload reads, re-asked over the wire, equal the in-process
/// recomputation bit for bit. Each read is asked once beforehand so that
/// both sides see the tree as that read's own crack left it.
fn parity(report: &mut Report, client: &mut Client, vkg: &VirtualKnowledgeGraph, ops: &[Op]) {
    for op in ops {
        let answer = ask(client, op).and_then(|_| ask(client, op));
        match answer {
            Err(e) => return report.fail(format!("parity: {e}")),
            Ok(remote) => {
                if let Some(why) = divergence(vkg, op, &remote) {
                    return report.fail(format!("parity: {op:?}: {why}"));
                }
            }
        }
    }
    report.info("parity_queries", ops.len() as f64, "count");
}

/// Wire answers of sampled top-k reads against the exact S₁ linear scan
/// over the snapshot published at quiescence.
fn precision(report: &mut Report, client: &mut Client, vkg: &VirtualKnowledgeGraph, ops: &[Op]) {
    let snap = vkg.snapshot();
    let mut oracle = LinearScanEngine::new();
    let (mut hits, mut wanted) = (0usize, 0usize);
    for op in ops {
        let Some(q) = op.query() else {
            continue;
        };
        let (lo, hi) = id_range(op);
        let (entity, relation) = gen::ids(&q);
        let truth = oracle.top_k_filtered(
            &snap,
            entity,
            relation,
            q.direction(),
            K,
            &|id: EntityId| lo <= id.0 && id.0 < hi,
        );
        match (ask(client, op), truth) {
            (Ok(Answer::TopK(remote)), Ok(truth)) => {
                let truth: HashSet<u32> = truth.predictions.iter().map(|p| p.id).collect();
                hits += remote
                    .predictions
                    .iter()
                    .filter(|p| truth.contains(&p.id))
                    .count();
                wanted += truth.len();
            }
            (Err(e), _) => return report.fail(format!("precision: {e}")),
            (_, Err(e)) => return report.fail(format!("precision oracle: {e}")),
            (Ok(_), _) => return report.fail("precision: answer of the wrong kind".to_owned()),
        }
    }
    if wanted == 0 {
        return report.fail("precision: no top-k reads to score".to_owned());
    }
    let p = hits as f64 / wanted as f64;
    report.set("precision_at_10", p);
    report.info("precision_queries", ops.len() as f64, "count");
    report.check(p >= MIN_PRECISION, || {
        format!("precision_at_10 {p:.4} below {MIN_PRECISION}")
    });
}

/// Median relative error of the sampled estimator against full access,
/// over sampled aggregate reads of the workload.
fn aggregate_error(report: &mut Report, client: &mut Client, ops: &[Op]) {
    let mut errors = Vec::with_capacity(ops.len());
    for op in ops {
        let Op::Aggregate { q, kind, .. } = *op else {
            continue;
        };
        let estimate =
            |client: &mut Client, sampled| match ask(client, &Op::Aggregate { q, kind, sampled }) {
                Ok(Answer::Aggregate(a)) => Ok(a.estimate),
                Ok(_) => Err("answer of the wrong kind".to_owned()),
                Err(e) => Err(e),
            };
        match (estimate(client, false), estimate(client, true)) {
            (Ok(full), Ok(sampled)) if full != 0.0 => {
                errors.push((sampled - full).abs() / full.abs())
            }
            (Ok(_), Ok(_)) => {}
            (Err(e), _) | (_, Err(e)) => return report.fail(format!("agg_rel_err: {e}")),
        }
    }
    report.set("agg_rel_err", stats::median(&errors));
    report.info("aggregate_pairs", errors.len() as f64, "count");
}

/// Round trips that touch neither the queue nor the engine's query path.
fn rtt_floor(report: &mut Report, client: &mut Client, calls: usize) {
    let mut us = Vec::with_capacity(calls);
    for _ in 0..calls {
        let sent = Instant::now();
        if let Err(e) = client.stats() {
            return report.fail(format!("stats round trip: {e}"));
        }
        us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    report.set("server.rtt_floor_us", stats::median(&us));
}

/// The facts the clients saw applied and the facts in the log are the
/// same set: every acked write was logged, and nothing else was.
fn log_holds_acked(report: &mut Report, wal: &Path, acked: &[(u32, u32, u32)]) {
    let logged: HashSet<(u32, u32, u32)> = match vkg::core::wal::replay(wal) {
        Ok((records, _)) => records.iter().map(|r| (r.h, r.r, r.t)).collect(),
        Err(e) => return report.fail(format!("log: {e}")),
    };
    let acked: HashSet<(u32, u32, u32)> = acked.iter().copied().collect();
    report.info("logged_writes", logged.len() as f64, "count");
    report.check(logged == acked, || {
        format!(
            "the log holds {} facts, the clients saw {} applied; {} acked facts are not in it",
            logged.len(),
            acked.len(),
            acked.difference(&logged).count()
        )
    });
}

/// After shutdown: rebuild the engine from the same inputs, replay the
/// log, and require every acked fresh fact to be an edge again.
fn recovery(
    report: &mut Report,
    inputs: &Inputs,
    env: &Env,
    wal: &Path,
    acked: &[(u32, u32, u32)],
) {
    let vkg = match serve::assemble(inputs, report.workload, env.nproc) {
        Ok(vkg) => vkg,
        Err(e) => return report.fail(format!("recovery: {e}")),
    };
    let started = Instant::now();
    let recovered = match vkg.attach_wal(wal, FaultPlane::none()) {
        Ok(r) => r,
        Err(e) => return report.fail(format!("recovery: attach_wal: {e}")),
    };
    let ms = started.elapsed().as_secs_f64() * 1e3;
    report.info("recovered_writes", recovered.replayed as f64, "count");
    report.check(recovered.replayed == acked.len() as u64, || {
        format!(
            "recovery replayed {} records, clients saw {} applied writes",
            recovered.replayed,
            acked.len()
        )
    });
    let graph = vkg.graph();
    let lost = acked
        .iter()
        .filter(|&&(h, r, t)| !graph.has_edge(EntityId(h), RelationId(r), EntityId(t)))
        .count();
    report.check(lost == 0, || {
        format!("{lost} acked facts are missing after recovery")
    });
    if recovered.replayed > 0 {
        report.set("recover_ms_per_write", ms / recovered.replayed as f64);
    }
}

/// The checks at quiescence, then shutdown. An untraced run scores
/// precision, compares sampled reads with their recomputation and, on
/// `write_mix`, the log with the acked writes. A traced run makes the
/// measurements that are too slow for every untraced run under the
/// driver's time cap — the aggregate error (`agg_mix`: 400 aggregates)
/// and recovery from the log (`write_mix`: ~35 ms per logged write).
pub fn run(
    report: &mut Report,
    outcome: Outcome,
    inputs: &Inputs,
    tables: &Tables<'_>,
    scale: &Scale,
    env: &Env,
    traced: bool,
) {
    let Outcome {
        mut served,
        wal,
        acked,
    } = outcome;
    let workload = report.workload;
    let client = &mut served.clients[0];

    if traced {
        rtt_floor(report, client, scale.rtt_calls);
        if workload == Workload::AggMix {
            let is_aggregate = |op: &Op| matches!(op, Op::Aggregate { .. });
            aggregate_error(
                report,
                client,
                &sample_reads(tables, env, scale.aggregate_pairs, is_aggregate),
            );
        }
    } else {
        let is_topk = |op: &Op| matches!(op, Op::TopK(_) | Op::Filtered { .. });
        let test_set = Tables::new(workload, &inputs.graph, PRECISION_SEED);
        precision(
            report,
            client,
            &served.vkg,
            &sample_reads(&test_set, env, scale.precision_queries, is_topk),
        );
        parity(
            report,
            client,
            &served.vkg,
            &sample_reads(tables, env, scale.parity_queries, |_| true),
        );
    }

    match client.stats() {
        Ok(stats) => report.check(stats.server.admitted == stats.server.answered, || {
            format!(
                "at quiescence admitted {} != answered {}",
                stats.server.admitted, stats.server.answered
            )
        }),
        Err(e) => report.fail(format!("stats: {e}")),
    }
    let drained = served.stop();
    report.check(drained, || "after shutdown admitted != answered".to_owned());

    if let Some(wal) = wal {
        if traced {
            recovery(report, inputs, env, &wal, &acked);
        } else {
            log_holds_acked(report, &wal, &acked);
        }
        serve::remove_wal(&wal);
    }
}
