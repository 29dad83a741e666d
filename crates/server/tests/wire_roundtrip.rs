//! Property tests: every protocol message round-trips bit-exactly
//! through encode → decode, and the decoder fails closed (typed error,
//! never a panic) on truncated, trailing, or arbitrary hostile bytes.

use proptest::prelude::*;
use vkg_core::query::aggregate::AggregateKind;
use vkg_core::{Accuracy, Direction};
use vkg_obs::{HistSnapshot, MetricsSnapshot, Span, SpanOutcome};
use vkg_server::protocol::{
    AccuracyWire, AggregateWire, ErrorCode, MetricsWire, PredictionWire, Request, RequestOp,
    Response, ServerCounters, ServerError, ShardStatsWire, StatsWire, TopKWire, WireFilter,
};

fn direction(tag: u8) -> Direction {
    if tag == 0 {
        Direction::Tails
    } else {
        Direction::Heads
    }
}

fn kind(tag: u8) -> AggregateKind {
    match tag % 5 {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum,
        2 => AggregateKind::Avg,
        3 => AggregateKind::Max,
        _ => AggregateKind::Min,
    }
}

fn filter(tag: u8, text: String, lo: u32, hi: u32) -> WireFilter {
    if tag == 0 {
        WireFilter::NamePrefix(text)
    } else {
        WireFilter::IdRange { lo, hi }
    }
}

fn assert_request_roundtrip(req: Request) {
    // Exhaustive on purpose, here and for `Response`: a new variant stops
    // this file compiling until it is named, in the change that adds its
    // round-trip property below (which an undecodable opcode fails).
    match req.op {
        RequestOp::TopK { .. }
        | RequestOp::TopKFiltered { .. }
        | RequestOp::Aggregate { .. }
        | RequestOp::AddFactDynamic { .. }
        | RequestOp::Stats
        | RequestOp::Metrics { .. }
        | RequestOp::Shutdown => {}
    }
    let payload = req.encode();
    prop_assert_eq!(Request::decode(&payload).unwrap(), req.clone());
    assert_prefixes_fail_closed(&payload);
}

fn assert_response_roundtrip(resp: Response) {
    match resp {
        Response::TopK(_)
        | Response::Aggregate(_)
        | Response::FactAdded { .. }
        | Response::Stats(_)
        | Response::Metrics(_)
        | Response::ShuttingDown
        | Response::Error(_) => {}
    }
    let payload = resp.encode();
    prop_assert_eq!(Response::decode(&payload).unwrap(), resp.clone());
    assert_prefixes_fail_closed(&payload);
}

/// Every strict prefix of a valid payload must decode to a typed error
/// (the message grammar has no self-delimiting valid prefixes shorter
/// than the whole payload — requests and responses alike).
fn assert_prefixes_fail_closed(payload: &[u8]) {
    for cut in 0..payload.len() {
        assert!(Request::decode(&payload[..cut]).is_err() || cut == payload.len());
        assert!(Response::decode(&payload[..cut]).is_err() || cut == payload.len());
    }
}

proptest! {
    #[test]
    fn top_k_request_roundtrip(
        (entity, relation, k, deadline_ms, dir) in
            (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u8..2),
    ) {
        assert_request_roundtrip(Request {
            deadline_ms,
            op: RequestOp::TopK { entity, relation, direction: direction(dir), k },
        });
    }

    #[test]
    fn top_k_filtered_request_roundtrip(
        (entity, relation, k, dir) in (0u32..1000, 0u32..50, 0u32..100, 0u8..2),
        (ftag, prefix, lo, hi) in (0u8..2, "[a-z_]{0,24}", 0u32..=u32::MAX, 0u32..=u32::MAX),
    ) {
        assert_request_roundtrip(Request {
            deadline_ms: 0,
            op: RequestOp::TopKFiltered {
                entity,
                relation,
                direction: direction(dir),
                k,
                filter: filter(ftag, prefix, lo, hi),
            },
        });
    }

    #[test]
    fn aggregate_request_roundtrip(
        (entity, relation, dir, ktag) in (0u32..1000, 0u32..50, 0u8..2, 0u8..5),
        (has_attr, attr, p_tau, has_a, a) in
            (0u8..2, "[a-z]{1,16}", 0.0f64..1.0, 0u8..2, 0u32..=u32::MAX),
    ) {
        assert_request_roundtrip(Request {
            deadline_ms: 0,
            op: RequestOp::Aggregate {
                entity,
                relation,
                direction: direction(dir),
                kind: kind(ktag),
                attribute: (has_attr == 1).then_some(attr),
                p_tau,
                sample_size: (has_a == 1).then_some(a),
            },
        });
    }

    #[test]
    fn add_fact_request_roundtrip(
        (h, r, t, refine_steps, learning_rate) in
            (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..1000, -1.0f64..1.0),
        token in 0u64..=u64::MAX,
    ) {
        assert_request_roundtrip(Request {
            deadline_ms: 0,
            op: RequestOp::AddFactDynamic { h, r, t, refine_steps, learning_rate, token },
        });
    }

    #[test]
    fn control_request_roundtrip(deadline_ms in 0u32..=u32::MAX, last_spans in 0u32..=u32::MAX) {
        assert_request_roundtrip(Request { deadline_ms, op: RequestOp::Stats });
        assert_request_roundtrip(Request { deadline_ms, op: RequestOp::Shutdown });
        assert_request_roundtrip(Request { deadline_ms, op: RequestOp::Metrics { last_spans } });
    }

    #[test]
    fn top_k_response_roundtrip(
        (epoch, preds, success_probability) in (
            0u64..=u64::MAX,
            prop::collection::vec((0u32..=u32::MAX, 0.0f64..1e9, 0.0f64..1.0), 0..12),
            0.0f64..1.0,
        ),
        (expected_misses, s1_evals, candidates_examined) in
            (0.0f64..100.0, 0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        assert_response_roundtrip(Response::TopK(TopKWire {
            epoch,
            predictions: preds
                .into_iter()
                .map(|(id, distance, probability)| PredictionWire { id, distance, probability })
                .collect(),
            success_probability,
            expected_misses,
            s1_evals,
            candidates_examined,
        }));
    }

    #[test]
    fn aggregate_response_roundtrip(
        (epoch, estimate, accessed, ball_size) in
            (0u64..=u64::MAX, -1e12f64..1e12, 0u64..=u64::MAX, 0u64..=u64::MAX),
        (mu, increment_mass) in (-1e12f64..1e12, 0.0f64..1e12),
    ) {
        assert_response_roundtrip(Response::Aggregate(AggregateWire {
            epoch, estimate, accessed, ball_size, mu, increment_mass,
        }));
    }

    #[test]
    fn fact_added_response_roundtrip(
        (added, epoch, token) in (0u8..2, 0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        assert_response_roundtrip(Response::FactAdded { added: added == 1, epoch, token });
    }

    #[test]
    fn stats_response_roundtrip(
        (epoch, nodes, bytes, splits_performed, nodes_created) in
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        (elements_accessed, points_examined, s1_distance_evals) in
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        (acc_tag, acc_x) in (0u8..3, 0.0f64..1.0),
        (admitted, answered, shed, deadline_expired, drained) in
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        shards in prop::collection::vec(
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX), 0..8),
    ) {
        let accuracy = AccuracyWire(match acc_tag {
            0 => Accuracy::Exact,
            1 => Accuracy::Approximate { min_overlap: acc_x },
            _ => Accuracy::SelfOracle { min_recall: acc_x },
        });
        let shards = shards
            .into_iter()
            .map(|(epoch, admitted, answered)| ShardStatsWire { epoch, admitted, answered })
            .collect();
        assert_response_roundtrip(Response::Stats(StatsWire {
            epoch,
            nodes,
            bytes,
            splits_performed,
            nodes_created,
            elements_accessed,
            points_examined,
            s1_distance_evals,
            accuracy,
            server: ServerCounters { admitted, answered, shed, deadline_expired, drained },
            shards,
        }));
    }

    #[test]
    fn error_response_roundtrip((tag, message) in (0u8..6, "[ -~]{0,64}")) {
        let code = [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Draining,
            ErrorCode::MalformedRequest,
            ErrorCode::Query,
            ErrorCode::Internal,
        ][tag as usize];
        assert_response_roundtrip(Response::Error(ServerError { code, message }));
    }

    #[test]
    fn shutting_down_response_roundtrip(_x in 0u8..1) {
        assert_response_roundtrip(Response::ShuttingDown);
    }

    #[test]
    fn metrics_response_roundtrip(
        epoch in 0u64..=u64::MAX,
        counters in prop::collection::vec(("[a-z._]{0,24}", 0u64..=u64::MAX), 0..6),
        gauges in prop::collection::vec(("[a-z._]{0,24}", 0u64..=u64::MAX), 0..6),
        hists in prop::collection::vec(
            (
                "[a-z._]{0,24}",
                0u64..=u64::MAX,
                0u64..=u64::MAX,
                prop::collection::vec((0u32..256, 0u64..=u64::MAX), 0..8),
            ),
            0..4,
        ),
        spans in prop::collection::vec(
            (
                0u64..=u64::MAX,
                0u8..=255,
                0u32..=u32::MAX,
                0u8..3,
                (
                    (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
                    (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
                ),
            ),
            0..8,
        ),
        (spans_recorded, spans_dropped) in (0u64..=u64::MAX, 0u64..=u64::MAX),
    ) {
        let snapshot = MetricsSnapshot {
            counters,
            gauges,
            hists: hists
                .into_iter()
                .map(|(name, total, max_us, buckets)| {
                    (name, HistSnapshot { total, max_us, buckets })
                })
                .collect(),
            spans: spans
                .into_iter()
                .map(|(id, op, shard, outcome, ns)| Span {
                    id,
                    op,
                    shard,
                    outcome: SpanOutcome::from_u8(outcome),
                    queue_ns: ns.0 .0,
                    lock_ns: ns.0 .1,
                    exec_ns: ns.0 .2,
                    encode_ns: ns.1 .0,
                    batch_ns: ns.1 .1,
                    refine_steps: ns.1 .2,
                })
                .collect(),
            spans_recorded,
            spans_dropped,
        };
        assert_response_roundtrip(Response::Metrics(MetricsWire { epoch, snapshot }));
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// The layout of the two frames the one-index server fills differently
/// from the sharded one — a `Stats` report whose `shards` sequence has
/// exactly one row, and a 62-byte span record with `shard = 0` — pinned
/// as bytes taken from the encoder before the shards went: what a v2
/// client already decodes must be, byte for byte, what is sent now.
/// (The proptests above round-trip the encoder against itself; they
/// cannot see a layout change made to both sides.)
#[test]
fn one_row_stats_and_routed_span_keep_their_bytes() {
    let stats = Response::Stats(StatsWire {
        epoch: 3,
        nodes: 17,
        bytes: 4096,
        splits_performed: 8,
        nodes_created: 17,
        elements_accessed: 5,
        points_examined: 120,
        s1_distance_evals: 40,
        accuracy: AccuracyWire(Accuracy::Approximate { min_overlap: 0.5 }),
        server: ServerCounters {
            admitted: 9,
            answered: 9,
            shed: 1,
            deadline_expired: 0,
            drained: 0,
        },
        shards: vec![ShardStatsWire {
            epoch: 2,
            admitted: 9,
            answered: 9,
        }],
    });
    let golden = unhex(concat!(
        "0284",
        "0300000000000000",
        "1100000000000000",
        "0010000000000000",
        "0800000000000000",
        "1100000000000000",
        "0500000000000000",
        "7800000000000000",
        "2800000000000000",
        "01000000000000e03f",
        "0900000000000000",
        "0900000000000000",
        "0100000000000000",
        "0000000000000000",
        "0000000000000000",
        "01000000",
        "0200000000000000",
        "0900000000000000",
        "0900000000000000",
    ));
    assert_eq!(stats.encode(), golden);
    assert_eq!(Response::decode(&golden).unwrap(), stats);

    let span = Span {
        id: 119,
        op: 1,
        shard: 0,
        outcome: SpanOutcome::Ok,
        queue_ns: 81_000,
        lock_ns: 2_000,
        exec_ns: 410_000,
        encode_ns: 3_000,
        batch_ns: 0,
        refine_steps: 961,
    };
    let metrics = Response::Metrics(MetricsWire {
        epoch: 3,
        snapshot: MetricsSnapshot {
            spans: vec![span],
            spans_recorded: 1,
            ..MetricsSnapshot::default()
        },
    });
    let golden_span = unhex(concat!(
        "7700000000000000",
        "01",
        "00000000",
        "00",
        "683c010000000000",
        "d007000000000000",
        "9041060000000000",
        "b80b000000000000",
        "0000000000000000",
        "c103000000000000",
    ));
    assert_eq!(golden_span.len(), 62);
    let payload = metrics.encode();
    assert_eq!(payload[payload.len() - 62..], golden_span[..]);
    assert_eq!(Response::decode(&payload).unwrap(), metrics);
}

/// A filtered top-k frame carries its filter as the bytes of
/// [`WireFilter::fingerprint`] — the result cache's key for the filter —
/// after the query fields: the frames are pinned as bytes laid out by
/// the v2 encoder, and their tails are the fingerprints, so the wire and
/// the cache share one encoding.
#[test]
fn filtered_top_k_frames_end_in_the_filter_fingerprint() {
    // Version 2, opcode 2, deadline 250, entity 9, relation 0, heads,
    // k = 2 — then the filter: tag 0, length 6, "movie_"; and tag 1,
    // lo = 7, hi = 300.
    let head = "0202fa00000009000000000000000102000000";
    for (filter, tail) in [
        (
            WireFilter::NamePrefix("movie_".into()),
            "00060000006d6f7669655f",
        ),
        (WireFilter::IdRange { lo: 7, hi: 300 }, "01070000002c010000"),
    ] {
        let golden = unhex(&format!("{head}{tail}"));
        let request = Request {
            deadline_ms: 250,
            op: RequestOp::TopKFiltered {
                entity: 9,
                relation: 0,
                direction: Direction::Heads,
                k: 2,
                filter: filter.clone(),
            },
        };
        assert_eq!(request.encode(), golden);
        assert_eq!(Request::decode(&golden).unwrap(), request);
        assert_eq!(golden[19..], filter.fingerprint()[..]);
    }
}
