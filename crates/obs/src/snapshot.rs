//! Point-in-time, transport-agnostic metric snapshots.
//!
//! A [`MetricsSnapshot`] is what the wire `Metrics` opcode carries, and
//! what the server tests and the ledger reconcile against what their
//! clients observed. It is plain data — no atomics, no locks — so it can
//! be compared, serialized, and shipped freely.

use crate::hist::Histogram;
use crate::span::Span;

/// A histogram reduced to its sparse transportable form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Total recorded samples.
    pub total: u64,
    /// Exact maximum sample in microseconds.
    pub max_us: u64,
    /// Non-empty `(bucket index, count)` pairs in index order.
    pub buckets: Vec<(u32, u64)>,
}

impl HistSnapshot {
    /// Snapshot of a live histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        HistSnapshot {
            total: h.len(),
            max_us: h.max_us(),
            buckets: h.sparse_buckets().collect(),
        }
    }

    /// Rebuilds a queryable histogram (bucket counts are authoritative;
    /// see [`Histogram::from_sparse`]).
    pub fn to_histogram(&self) -> Histogram {
        Histogram::from_sparse(&self.buckets, self.max_us)
    }

    /// Quantile in microseconds, via the rebuilt histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.to_histogram()
            .quantile(q)
            .as_micros()
            .min(u64::MAX as u128) as u64
    }
}

/// A full dump of one registry plus the owner's span ring.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` for every histogram, sorted by name.
    pub hists: Vec<(String, HistSnapshot)>,
    /// The most recent spans, oldest first.
    pub spans: Vec<Span>,
    /// Total spans ever recorded by the ring.
    pub spans_recorded: u64,
    /// Spans dropped by the ring (claim failures + overwrites).
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Histogram `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn hist_snapshot_roundtrips_through_histogram() {
        let mut h = Histogram::new();
        for us in [3, 3, 900, 12_000] {
            h.record(Duration::from_micros(us));
        }
        let snap = HistSnapshot::from_histogram(&h);
        assert_eq!(snap.total, 4);
        assert_eq!(snap.to_histogram(), h);
        assert!(snap.quantile_us(1.0) <= snap.max_us);
    }

    #[test]
    fn lookup_helpers_find_by_name() {
        let snap = MetricsSnapshot {
            counters: vec![("a".into(), 1), ("b".into(), 2)],
            gauges: vec![("g".into(), 3)],
            hists: vec![("h".into(), HistSnapshot::default())],
            ..MetricsSnapshot::default()
        };
        assert_eq!(snap.counter("b"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("g"), Some(3));
        assert!(snap.hist("h").is_some());
    }
}
