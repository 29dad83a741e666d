//! Evaluation baselines (paper §VI).
//!
//! Everything the paper compares the cracking index against, built from
//! scratch:
//!
//! * [`linear_scan`] — the **no-index** baseline: exact top-k by scanning
//!   every entity in the original embedding space S₁. Also the ground
//!   truth oracle for the precision@K figures.
//! * [`phtree`] — the **PH-tree** \[22\]: a space-efficient bit-interleaved
//!   prefix-sharing hypercube tree indexing the raw high-dimensional
//!   embeddings directly (no S₂ transform), with best-first kNN. At
//!   d ≥ 50 its hypercube fan-out degenerates and search approaches a
//!   linear scan — exactly the behaviour Figure 3 reports.
//! * [`h2alsh`] — **H2-ALSH** \[12\]: homocentric-hypersphere norm
//!   partitioning + QNF asymmetric transform + E2LSH hash tables for
//!   maximum-inner-product search. Single relationship type only, as the
//!   paper stresses.
//! * [`engine`] — [`vkg_core::engine::QueryEngine`] adapters for all
//!   three, so the harness dispatches over `&mut dyn QueryEngine`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod h2alsh;
pub mod linear_scan;
pub mod phtree;

pub use engine::{H2AlshEngine, LinearScanEngine, PhTreeEngine};
pub use h2alsh::{H2Alsh, H2AlshConfig};
pub use linear_scan::LinearScan;
pub use phtree::PhTree;
