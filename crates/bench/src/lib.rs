//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The `run_experiments` binary drives [`experiments`] over the
//! configurations in [`setup`] and the query streams of [`workload`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod setup;
pub mod workload;
