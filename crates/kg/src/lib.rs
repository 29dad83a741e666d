//! Knowledge-graph substrate for virtual knowledge graphs.
//!
//! This crate provides everything the index and query layers need from a
//! knowledge graph *as data*:
//!
//! * interned entities and relationship types ([`ids`]),
//! * a triple store with adjacency lists ([`graph::KnowledgeGraph`]) used to
//!   implement the paper's "skip edges already in `E`" query semantics,
//! * the chunk-shared vector ([`chunked::ChunkVec`]) the triple log and
//!   the embedding store keep their rows in, and the chunk-shared lists
//!   ([`chunked::ChunkLists`]) the adjacency keeps one flat block per
//!   chunk of entities in, so that a clone shares every chunk and a write
//!   copies one,
//! * per-entity numeric attributes ([`attributes::AttributeStore`]) that the
//!   aggregate queries (SUM/AVG/MAX/MIN over `age`, `year`, `quality`,
//!   `popularity`, ...) read,
//! * synthetic dataset generators ([`datasets`]) standing in for the paper's
//!   Freebase, MovieLens and Amazon datasets, with power-law degree
//!   distributions ([`zipf`]),
//! * TSV import/export ([`io`]) so externally prepared graphs can be loaded,
//! * the little-endian codec ([`codec`]) the wire protocol, the write-ahead
//!   log, the binary embedding format and the filter fingerprint are all
//!   encoded and decoded through.
//!
//! The paper: Li, Ge, Chen. *Online Indices for Predictive Top-k Entity and
//! Aggregate Queries on Knowledge Graphs*, ICDE 2020.

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

pub mod attributes;
pub mod chunked;
// The codec every byte format is written in: decoding reads untrusted
// bytes, so an index carries its bounds argument and a narrowing `as`
// the bound that makes it lossless.
#[cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::cast_possible_truncation)
)]
pub mod codec;
pub mod datasets;
pub mod error;
pub mod graph;
pub mod ids;
pub mod io;
pub mod stats;
pub mod zipf;

pub use attributes::AttributeStore;
pub use chunked::{ChunkLists, ChunkVec, CHUNK_BITS, CHUNK_LEN};
pub use error::{KgError, Result};
pub use graph::KnowledgeGraph;
pub use ids::{EntityId, Interner, RelationId};
pub use stats::GraphStats;
