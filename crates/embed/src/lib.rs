//! Knowledge-graph embedding substrate.
//!
//! The paper's virtual knowledge graph is induced by an embedding
//! algorithm 𝒜 (§III-A): every entity and every relationship type gets a
//! `d`-dimensional vector such that `h + r ≈ t` for true triples
//! (TransE \[6\]); the plausibility of an *unseen* triple is a decreasing
//! function of `‖h + r − t‖`.
//!
//! This crate provides:
//!
//! * [`store::EmbeddingStore`] — the dense entity/relation matrices and the
//!   query-point arithmetic (`h + r` for tail queries, `t − r` for head
//!   queries),
//! * [`transe`] and [`transa`] — from-scratch trainers with margin-based
//!   ranking loss, negative sampling and norm projection,
//! * [`io`] — TSV and compact binary import/export, so embeddings trained
//!   by external code (the paper imports precomputed embeddings) can be
//!   loaded into the store.

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

pub mod io;
pub mod least_squares;
pub mod store;
pub mod transa;
pub mod transe;
pub mod vector;

pub use least_squares::{least_squares_embedding, LsConfig};
pub use store::EmbeddingStore;
pub use transa::{TransA, TransAConfig};
pub use transe::{TransE, TransEConfig};
