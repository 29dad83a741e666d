//! The paper's primary contribution: an **online cracking R-tree index**
//! over JL-transformed knowledge-graph embeddings, and query processing
//! for predictive top-k entity and aggregate queries.
//!
//! Module map (paper section in parentheses):
//!
//! * [`geometry`] — points in the low-dimensional index space S₂ and
//!   minimum bounding regions.
//! * [`rtree`] — the top-down bulk-loading machinery of Algorithm 1
//!   (BULKLOADCHUNK): multi-sort-order partitions, best-binary-split
//!   selection, and the two-component node-splitting cost model (§IV-B1).
//! * [`index`] — the cracking/uneven R-tree itself (§IV-C): the greedy
//!   INCREMENTALINDEXBUILD, the A*-style TOP-KSPLITSINDEXBUILD
//!   (Algorithm 2), contours (Definition 2), and a full offline bulk-load
//!   path used as the evaluation baseline.
//! * [`query`] — FINDTOP-KENTITIES (Algorithm 3, §V-A) and the
//!   COUNT/SUM/AVG/MAX/MIN estimators with martingale deviation bounds
//!   (§V-B, Theorem 4), plus the [`Query`] value — with its declarative
//!   [`Filter`] — that the facade's one served read takes.
//! * [`snapshot`] — the immutable read side: graph + attributes +
//!   embeddings + JL transform frozen into an `Arc`-shareable
//!   [`VkgSnapshot`] that any number of readers can query lock-free.
//! * [`engine`] — the [`engine::QueryEngine`] trait every query-capable
//!   structure implements (the cracking index, the bulk-loaded R-tree,
//!   and the baselines in `vkg-baselines`), plus [`engine::IndexState`],
//!   the mutable index half.
//! * [`error`] — the workspace [`VkgError`] type threaded through every
//!   fallible engine entry point.
//! * [`metrics`] — the per-facade `vkg-obs` registry and the typed
//!   handles the query paths record into (queries, refine steps,
//!   latency), plus sampling of engine-side counters into gauges.
//! * [`cache`] — the epoch-keyed semantic result cache the facade
//!   consults on its read path when [`VkgConfig::cache_capacity`] > 0:
//!   hits are validated against the exact pinned epochs and an answer
//!   is a function of (snapshot, query), so they are identical to
//!   recomputation.
//! * [`wal`] — the durability layer (§3.9): a length-prefixed,
//!   checksummed, epoch-stamped write-ahead log for dynamic writes,
//!   replayed on startup with torn-tail truncation, plus the
//!   deterministic [`wal::fault::FaultPlane`] injection seam every
//!   durability touchpoint routes through.
//! * [`vkg`] — the `VirtualKnowledgeGraph` facade assembling an
//!   `Arc<VkgSnapshot>` + one locked [`engine::IndexState`] (lock
//!   class `vkg.index`) into one queryable object (Definition 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-free outside written invariants (DESIGN.md §3.7): a site that
// cannot fire says why in `#[expect(clippy::…, reason = "…")]`, which
// clippy reports once it goes stale. `#[cfg(test)]` code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod cache;
pub mod config;
// The request path (the server calls into `engine` and `vkg` per
// request): indexing must carry its bounds argument too.
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod engine;
pub mod error;
pub mod geometry;
pub mod index;
pub mod metrics;
pub mod query;
pub mod rtree;
pub mod snapshot;
pub mod stats;
#[cfg_attr(not(test), deny(clippy::indexing_slicing))]
pub mod vkg;
// The durability path: a discarded IO result is an acked-but-lost write,
// and replay reads untrusted bytes through the codec, indexing none.
#[cfg_attr(
    not(test),
    deny(
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::indexing_slicing
    )
)]
pub mod wal;

pub use cache::ResultCache;
pub use config::{SplitStrategy, VkgConfig};
pub use engine::{Accuracy, EngineStats, IndexState, QueryEngine};
pub use error::{VkgError, VkgResult};
pub use index::CrackingIndex;
pub use metrics::VkgMetrics;
pub use query::aggregate::{AggregateKind, AggregateResult, AggregateSpec};
pub use query::topk::TopKResult;
pub use query::{Answer, Filter, Query, QueryOp};
pub use snapshot::{Direction, VkgSnapshot};
pub use stats::IndexStats;
pub use vkg::{
    check_refine_params, SnapRef, VirtualKnowledgeGraph, WalRecoveryReport, MAX_REFINE_STEPS,
};
pub use wal::fault::{FaultPlane, FaultSpec};
pub use wal::{WalError, WalRecord};
