//! `vkg-server` — a hand-rolled TCP query-serving subsystem for the
//! virtual knowledge graph, built on `std::net` only.
//!
//! Layers, bottom-up:
//!
//! * [`wire`] — length-prefixed framing (`u32` LE length + payload),
//!   read by the one [`wire::read_frame`] on both ends of a connection;
//!   a payload is allocated as its bytes arrive. Decoding fails closed:
//!   truncated prefixes, oversized frames, and trailing bytes are typed
//!   [`wire::WireError`]s, never panics.
//! * [`protocol`] — the versioned message set: `TopK`, `TopKFiltered`,
//!   `Aggregate`, `AddFactDynamic`, `Stats`, `Shutdown` requests and
//!   their typed responses, including the [`protocol::ErrorCode`]
//!   vocabulary for admission-control refusals (`Overloaded`,
//!   `DeadlineExceeded`, `Draining`), each written in
//!   [`vkg_kg::codec`]'s `Enc`/`Dec`. A read request is data the core
//!   already has a type for: [`Request::query`] maps it to the
//!   [`vkg_core::Query`] it asks, and its filter is the core's
//!   declarative [`vkg_core::Filter`], re-exported as [`WireFilter`] and
//!   written by its own `encode` — the bytes of its `fingerprint()`,
//!   which key the result cache.
//! * [`queue`] — the bounded admission queue ([`queue::JobQueue`]) and
//!   the monotonic [`queue::Counters`], built on `vkg-sync` primitives
//!   so the model-checking tests explore their interleavings directly.
//! * [`server`] — accept loop + per-connection threads + a bounded
//!   admission queue feeding a fixed worker pool. A full queue sheds
//!   load explicitly; admitted work is always answered (the
//!   `admitted == answered` invariant); a write's refinement parameters
//!   are held to [`vkg_core::check_refine_params`] before admission (at
//!   most [`server::MAX_REFINE_STEPS`] steps, a finite rate in [0, 1]);
//!   and a worker answers a read — the [`Request::query`] it asks, `k`
//!   clamped to the entity count and frame budget — with the facade's
//!   one served read,
//!   [`vkg_core::vkg::VirtualKnowledgeGraph::execute`], which pins one
//!   snapshot epoch end-to-end via the facade's epoch-swap publication.
//! * [`client`] — a synchronous [`client::Client`] speaking the same
//!   protocol, used by the test suite and the `ledger` benchmark. With
//!   a [`client::RetryPolicy`] installed it
//!   self-heals: bounded exponential backoff with deterministic jitter
//!   on `Overloaded`/`Draining`, transparent reconnect on connection
//!   loss, and idempotent write tokens
//!   ([`client::Client::add_fact_idempotent`]) so a retried write
//!   applies at most once even across a server crash + WAL recovery.
//!
//! The server is **observable end-to-end**: every admitted request is
//! traced into a `vkg-obs` span (queue wait → shared index guard →
//! execute → encode), admission counters and a server-side latency histogram live
//! in a per-server metrics registry, and the `Metrics` opcode exports
//! all of it (merged with the engine facade's `core.*` registry) over
//! the wire — see [`server::names`] and [`protocol::MetricsWire`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use vkg_server::{Client, Server, ServerConfig};
//! # fn vkg() -> vkg_core::vkg::VirtualKnowledgeGraph { unimplemented!() }
//!
//! let handle = Server::start(Arc::new(vkg()), "127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let top = client.top_k(vkg_kg::EntityId(0), vkg_kg::RelationId(0), vkg_core::Direction::Tails, 5)?;
//! println!("epoch {}: {} predictions", top.epoch, top.predictions.len());
//! client.shutdown()?;
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic-free outside written invariants (DESIGN.md §3.7), indexing
// included: every line here runs per request. A site that cannot fire
// says why in `#[expect(clippy::…, reason = "…")]`, which clippy reports
// once it goes stale. `#[cfg(test)]` code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

pub mod client;
// The codec: a narrowing `as` states the bound that makes it lossless.
#[cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
pub mod protocol;
pub mod queue;
pub mod server;
#[cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
pub mod wire;

pub use client::{Client, ClientError, ClientResult, RetryPolicy, RetryStats};
pub use protocol::{
    AggregateWire, ErrorCode, MetricsWire, PredictionWire, Request, RequestOp, Response,
    ServerCounters, ServerError, StatsWire, TopKWire, WireFilter,
};
pub use server::{Server, ServerConfig, ServerHandle, MAX_REFINE_STEPS};
pub use wire::{WireError, MAX_FRAME, WIRE_VERSION};
