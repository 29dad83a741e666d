//! Human-readable text exposition of a [`MetricsSnapshot`].
//!
//! One record per line, whitespace-separated (metric names therefore
//! must not contain whitespace — all workspace names are dotted
//! identifiers like `server.queue.shed`):
//!
//! ```text
//! # vkg-obs exposition v1
//! counter server.queue.shed 3
//! gauge server.queue.depth 0
//! hist server.latency_us total=120 max_us=5333 buckets=14:2,40:118
//! spans recorded=120 dropped=56
//! span id=119 op=1 shard=0 outcome=0 queue_ns=81000 lock_ns=2000 exec_ns=410000 encode_ns=3000 batch_ns=0 refine_steps=961
//! ```
//!
//! Nothing in the workspace reads the text back: [`render`] feeds the
//! `--metrics-out` artifacts, and a golden-text test pins what it
//! writes.

use crate::snapshot::MetricsSnapshot;

/// Version tag on the first line; bump when the format changes shape.
pub const HEADER: &str = "# vkg-obs exposition v1";

/// Renders a snapshot as text.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (name, v) in &snap.counters {
        out.push_str(&format!("counter {name} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        out.push_str(&format!("gauge {name} {v}\n"));
    }
    for (name, h) in &snap.hists {
        let buckets: Vec<String> = h.buckets.iter().map(|(i, c)| format!("{i}:{c}")).collect();
        out.push_str(&format!(
            "hist {name} total={} max_us={} buckets={}\n",
            h.total,
            h.max_us,
            buckets.join(",")
        ));
    }
    out.push_str(&format!(
        "spans recorded={} dropped={}\n",
        snap.spans_recorded, snap.spans_dropped
    ));
    for s in &snap.spans {
        out.push_str(&format!(
            "span id={} op={} shard={} outcome={} queue_ns={} lock_ns={} exec_ns={} encode_ns={} batch_ns={} refine_steps={}\n",
            s.id,
            s.op,
            s.shard,
            s.outcome as u8,
            s.queue_ns,
            s.lock_ns,
            s.exec_ns,
            s.encode_ns,
            s.batch_ns,
            s.refine_steps,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::HistSnapshot;
    use crate::span::{Span, SpanOutcome};

    /// The format of the `--metrics-out` artifacts, byte for byte.
    #[test]
    fn render_writes_the_golden_text() {
        let span = |id, outcome| Span {
            id,
            op: 1,
            shard: 2,
            outcome,
            queue_ns: 10,
            lock_ns: 20,
            exec_ns: 30,
            encode_ns: 40,
            batch_ns: 5,
            refine_steps: 50,
        };
        let snap = MetricsSnapshot {
            counters: vec![("server.queue.shed".to_string(), 3)],
            gauges: vec![("server.queue.depth".to_string(), 0)],
            hists: vec![
                ("server.idle_us".to_string(), HistSnapshot::default()),
                (
                    "server.latency_us".to_string(),
                    HistSnapshot {
                        total: 5,
                        max_us: 900,
                        buckets: vec![(0, 1), (40, 4)],
                    },
                ),
            ],
            spans: vec![span(7, SpanOutcome::Ok), span(8, SpanOutcome::Error)],
            spans_recorded: 9,
            spans_dropped: 1,
        };
        let golden = "\
# vkg-obs exposition v1
counter server.queue.shed 3
gauge server.queue.depth 0
hist server.idle_us total=0 max_us=0 buckets=
hist server.latency_us total=5 max_us=900 buckets=0:1,40:4
spans recorded=9 dropped=1
span id=7 op=1 shard=2 outcome=0 queue_ns=10 lock_ns=20 exec_ns=30 encode_ns=40 batch_ns=5 refine_steps=50
span id=8 op=1 shard=2 outcome=1 queue_ns=10 lock_ns=20 exec_ns=30 encode_ns=40 batch_ns=5 refine_steps=50
";
        let text = render(&snap);
        assert!(text.starts_with(HEADER));
        assert_eq!(text, golden);
    }
}
