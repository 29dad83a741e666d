//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The `run_experiments` binary drives [`experiments`]; `serve_load`
//! and `probe_stats` reuse [`setup`] and [`workload`] so every binary
//! runs the same configurations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod latency;
pub mod report;
pub mod setup;
pub mod workload;
