//! Observability for the vkg workspace: a global-free metrics registry,
//! per-query span tracing, and exportable snapshots.
//!
//! The paper's argument is that an online (cracking) index adapts its
//! cost profile to the workload — this crate makes that adaptation
//! visible from *inside* the system instead of only through bench-side
//! wall clocks. It is hand-rolled and dependency-free (only
//! [`vkg_sync`], so the model checker can sweep every primitive):
//!
//! * [`Registry`] — named atomic counters (striped to keep hot-path
//!   increments cheap), gauges, and geometric-bucket [`Histogram`]s.
//!   There are no globals: a registry is instantiated per
//!   `Vkg` / per `Server` and handed out as cheap cloneable handles
//!   ([`Counter`], [`Gauge`], [`HistogramCell`]).
//! * [`Span`] / [`SpanRing`] — one record per served request, following
//!   it through admission → queue wait → shared index guard → execute →
//!   encode, written into a fixed-size lock-free ring with exact
//!   dropped-span accounting (see [`SpanRing`] for the seqlock slot
//!   protocol).
//! * [`Clock`] / [`Tick`] — the one place the workspace reads time.
//!   Everything outside this crate and the bench binaries goes through
//!   a `Clock` (clippy's `disallowed-methods` enforces it), so tests
//!   can substitute [`Clock::mock`] and advance time deterministically.
//! * [`MetricsSnapshot`] — a point-in-time, wire-encodable dump of the
//!   registry plus the last-N spans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod registry;
pub mod ring;
pub mod snapshot;
pub mod span;

pub use clock::{Clock, Stopwatch, Tick};
pub use hist::Histogram;
pub use registry::{Counter, Gauge, HistogramCell, Registry};
pub use ring::SpanRing;
pub use snapshot::{HistSnapshot, MetricsSnapshot};
pub use span::{Span, SpanOutcome};
