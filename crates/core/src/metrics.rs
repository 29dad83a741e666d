//! Facade-level observability: the `vkg-obs` registry owned by each
//! [`crate::VirtualKnowledgeGraph`] and the typed metric handles its
//! query paths record into.
//!
//! The handles are resolved **once** at assembly, so the per-query hot
//! path pays one atomic add per counter and one short mutex hold for
//! the latency histogram — never a name lookup. Engine-side statistics
//! that already exist as plain counters ([`crate::IndexStats`]) are
//! *sampled* into gauges when a snapshot is taken rather than
//! double-counted on the hot path.

use vkg_obs::{Clock, Counter, Gauge, HistogramCell, MetricsSnapshot, Registry, Tick};

use crate::engine::EngineStats;

/// Metric names exported by the facade (`core.*` namespace). Kept as
/// constants so exporters and cross-checks reference one spelling.
pub mod names {
    /// Queries served (top-k, filtered top-k, and aggregates).
    pub const QUERIES: &str = "core.queries";
    /// Queries that returned a typed error.
    pub const QUERY_ERRORS: &str = "core.query_errors";
    /// Refine steps (S₁ distance evaluations) across served queries.
    pub const REFINE_STEPS: &str = "core.refine_steps";
    /// End-to-end facade query latency, microseconds.
    pub const QUERY_LATENCY_US: &str = "core.query_latency_us";
    /// Sampled: binary splits performed.
    pub const INDEX_SPLITS: &str = "core.index.splits";
    /// Sampled: tree nodes.
    pub const INDEX_NODES: &str = "core.index.nodes";
    /// Sampled: approximate index bytes.
    pub const INDEX_BYTES: &str = "core.index.bytes";
    /// Sampled: cumulative S₁ distance evaluations.
    pub const INDEX_S1_EVALS: &str = "core.index.s1_evals";
    /// Read rounds whose late crack was applied: the pre-check found
    /// something to split, so the round went on to the exclusive side.
    pub const CRACKS_APPLIED: &str = "core.index.cracks_applied";
    /// Read rounds that traversed and stayed shared, nothing being left
    /// to split. `applied / (applied + skipped)` went exclusive.
    pub const CRACKS_SKIPPED: &str = "core.index.cracks_skipped";
    /// Held for the benchmark (DESIGN.md §3.5): the ledger reads this
    /// name and takes an absent gauge as 0. Nothing records under it.
    pub const CRACKS_REPLAYED: &str = "core.cracklog.replayed";
    /// Result-cache hits served whole at the pinned epochs.
    pub const CACHE_HIT: &str = "core.cache.hit";
    /// Result-cache probes that found nothing usable (no entry, a stale
    /// one, or one filled for another k).
    pub const CACHE_MISS: &str = "core.cache.miss";
    /// Stale result-cache entries removed on touch (epoch moved on).
    pub const CACHE_INVALIDATE: &str = "core.cache.invalidate";
    /// Held for the benchmark (DESIGN.md §3.5): the ledger adds this
    /// name to its hit count. No counter is behind it — an entry answers
    /// only the k it was filled for — and an absent name reads as 0.
    pub const CACHE_PREFIX_HIT: &str = "core.cache.prefix_hit";
    /// WAL records appended + flushed on the dynamic write path.
    pub const WAL_APPENDED: &str = "core.wal.appended";
    /// WAL records replayed into the engine at recovery.
    pub const WAL_REPLAYED: &str = "core.wal.replayed";
    /// Tokened writes answered from the idempotency map without being
    /// re-applied (retries after an ambiguous failure).
    pub const WAL_DEDUP_HITS: &str = "core.wal.dedup_hits";
    /// Sampled at recovery: torn-tail bytes truncated from the log.
    pub const WAL_TRUNCATED_BYTES: &str = "core.wal.truncated_bytes";
}

/// The registry plus pre-resolved handles a facade records into.
#[derive(Debug)]
pub struct VkgMetrics {
    registry: Registry,
    clock: Clock,
    queries: Counter,
    query_errors: Counter,
    refine_steps: Counter,
    latency: HistogramCell,
    index_splits: Gauge,
    index_nodes: Gauge,
    index_bytes: Gauge,
    index_s1_evals: Gauge,
    cracks_applied: Counter,
    cracks_skipped: Counter,
    cache_hit: Counter,
    cache_miss: Counter,
    cache_invalidate: Counter,
    wal_appended: Counter,
    wal_replayed: Counter,
    wal_dedup_hits: Counter,
    wal_truncated_bytes: Gauge,
}

impl VkgMetrics {
    /// Resolves every handle against `registry`.
    pub fn new(registry: Registry, clock: Clock) -> Self {
        Self {
            queries: registry.counter(names::QUERIES),
            query_errors: registry.counter(names::QUERY_ERRORS),
            refine_steps: registry.counter(names::REFINE_STEPS),
            latency: registry.histogram(names::QUERY_LATENCY_US),
            index_splits: registry.gauge(names::INDEX_SPLITS),
            index_nodes: registry.gauge(names::INDEX_NODES),
            index_bytes: registry.gauge(names::INDEX_BYTES),
            index_s1_evals: registry.gauge(names::INDEX_S1_EVALS),
            cracks_applied: registry.counter(names::CRACKS_APPLIED),
            cracks_skipped: registry.counter(names::CRACKS_SKIPPED),
            cache_hit: registry.counter(names::CACHE_HIT),
            cache_miss: registry.counter(names::CACHE_MISS),
            cache_invalidate: registry.counter(names::CACHE_INVALIDATE),
            wal_appended: registry.counter(names::WAL_APPENDED),
            wal_replayed: registry.counter(names::WAL_REPLAYED),
            wal_dedup_hits: registry.counter(names::WAL_DEDUP_HITS),
            wal_truncated_bytes: registry.gauge(names::WAL_TRUNCATED_BYTES),
            registry,
            clock,
        }
    }

    /// The registry behind the handles (export surfaces snapshot it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The clock query latencies are measured on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Records one served query: latency since `start`, the refine
    /// steps it performed, and whether it returned an error.
    pub fn record_query(&self, start: Tick, refine_steps: u64, ok: bool) {
        self.record_query_timed(self.clock.since(start), refine_steps, ok);
    }

    /// Records one served query whose latency was measured externally —
    /// the server path executes reads inside index-lock closures and times
    /// them on its own clock, so ticks from that clock cannot be
    /// compared against this one.
    pub fn record_query_timed(&self, latency: std::time::Duration, refine_steps: u64, ok: bool) {
        self.queries.incr();
        if !ok {
            self.query_errors.incr();
        }
        self.refine_steps.add(refine_steps);
        self.latency.record(latency);
    }

    /// Records one read round that traversed: its late crack was
    /// `applied`, or skipped because nothing was left to split or there
    /// was no region (an empty k-set).
    pub fn record_crack(&self, applied: bool) {
        if applied {
            self.cracks_applied.incr();
        } else {
            self.cracks_skipped.incr();
        }
    }

    /// Records one whole-result cache hit (served at the pinned epochs).
    pub fn record_cache_hit(&self) {
        self.cache_hit.incr();
    }

    /// Records one cache probe that had to recompute (no entry, or one
    /// for another k).
    pub fn record_cache_miss(&self) {
        self.cache_miss.incr();
    }

    /// Records the lazy removal of one stale cache entry.
    pub fn record_cache_invalidate(&self) {
        self.cache_invalidate.incr();
    }

    /// Records one WAL record appended + flushed before its ack.
    pub fn record_wal_append(&self) {
        self.wal_appended.incr();
    }

    /// Records WAL records replayed at recovery, and the torn-tail
    /// bytes the recovery truncated.
    pub fn record_wal_recovery(&self, replayed: u64, truncated_bytes: u64) {
        self.wal_replayed.add(replayed);
        self.wal_truncated_bytes.set(truncated_bytes);
    }

    /// Records one tokened retry answered from the idempotency map.
    pub fn record_wal_dedup_hit(&self) {
        self.wal_dedup_hits.incr();
    }

    /// Samples the engine-side counters (the index's statistics, read
    /// by the caller under the index lock's shared side) into gauges and
    /// returns a full snapshot.
    pub fn snapshot_with_engine(&self, stats: &EngineStats) -> MetricsSnapshot {
        self.index_splits.set(stats.counters.splits_performed);
        self.index_nodes.set(stats.nodes as u64);
        self.index_bytes.set(stats.bytes as u64);
        self.index_s1_evals.set(stats.counters.s1_distance_evals);
        self.registry.snapshot()
    }
}
