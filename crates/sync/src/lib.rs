//! Synchronization facade for the vkg workspace.
//!
//! Every crate in the workspace takes its concurrency primitives —
//! [`Mutex`], [`RwLock`], [`Condvar`], [`AtomicU64`], [`AtomicBool`],
//! [`thread::spawn`] — from this crate instead of `std::sync` or
//! `parking_lot` (clippy's `disallowed-types` / `disallowed-methods` in
//! the root `clippy.toml` enforce that). The crate has two
//! personalities selected by the `model` cargo feature:
//!
//! * **Passthrough (default).** Thin `#[inline]` newtypes over
//!   `std::sync` that erase poisoning (a panic while holding a lock is
//!   already a bug the panic reports; subsequent threads continue with
//!   the poisoned value like `parking_lot` would). No bookkeeping, no
//!   atomics beyond the wrapped ones — this is what production and the
//!   tier-1 test suite run.
//!
//! * **Model (`--features model`).** The same API routed through an
//!   instrumented runtime (the `model` module): real OS threads are
//!   serialized onto one logical processor, every primitive operation
//!   is a *yield point* where a seed-deterministic randomized scheduler
//!   (PCT-style bounded preemption) may switch threads, and vector-clock
//!   happens-before tracking flags data races ([`RaceCell`]), lock-order
//!   inversions, deadlocks and lost wakeups at the first conflicting
//!   pair. A failing schedule is replayed exactly by re-running its
//!   seed.
//!
//! Instrumentation is *scoped*: only threads spawned inside
//! `model::check` (via [`thread::spawn`]) are managed. On any other
//! thread the model-mode primitives silently degrade to plain
//! `std::sync` behavior, so an entire test binary can be compiled with
//! `--features model` and only the model tests pay the cost.
//!
//! ```
//! use vkg_sync::{Mutex, Ordering};
//!
//! let m = Mutex::new(0_u64);
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Memory orderings are the std ones in both modes; the model runtime
/// interprets them (Acquire/Release edges join vector clocks, Relaxed
/// transfers nothing).
pub use std::sync::atomic::Ordering;

/// `Arc` is re-exported untouched: reference counting is not a
/// scheduling-visible operation, so the model leaves it alone.
pub use std::sync::Arc;

pub mod pool;
pub mod thread;

#[cfg(not(feature = "model"))]
mod passthrough;
#[cfg(not(feature = "model"))]
pub use passthrough::{
    AtomicBool, AtomicU64, Condvar, Mutex, MutexGuard, RaceCell, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

#[cfg(feature = "model")]
mod instrumented;
#[cfg(feature = "model")]
pub mod model;
#[cfg(feature = "model")]
pub use instrumented::{
    AtomicBool, AtomicU64, Condvar, Mutex, MutexGuard, RaceCell, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
