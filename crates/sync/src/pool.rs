//! A fixed-width, chunk-claiming data-parallel pool.
//!
//! [`Pool::run`] splits a job into `chunks` numbered work items and
//! lets `width` threads race to claim them off a shared atomic
//! counter — the classic "steal the next index" loop, which needs no
//! per-worker deques because every item costs roughly the same. The
//! pool is *scoped*: workers are spawned per call via
//! [`thread::scope`], may borrow the caller's stack (the closure and
//! its captures need only live as long as the call), and are all
//! joined before `run` returns, so the join is a real happens-before
//! barrier for everything the workers wrote.
//!
//! Width 1 (or a single chunk) takes an exact serial path on the
//! calling thread — no spawns, no atomics, no scheduling points — so
//! serial results are bit-identical to the pre-pool code and model
//! tests stay deterministic.
//!
//! A panic inside a worker aborts the remaining work (other workers
//! stop claiming) and is re-thrown on the calling thread after the
//! barrier, mirroring what a plain serial loop would have done.
//!
//! Built entirely on the `vkg-sync` facade, so `--features model`
//! schedule-checks the claim loop, the barrier, and the panic path
//! like any other workspace concurrency (see `tests/model.rs`).

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};

use crate::{thread, Arc, AtomicBool, AtomicU64, Mutex, Ordering};

/// Dispatch statistics for a [`Pool`], shared by `Arc` so observers
/// read while the pool runs. Counts are exact at quiescence (after any
/// `run` returns): each job increments exactly one of the run counters,
/// and `chunks_claimed` advances by the job's chunk count when it is
/// dispatched parallel (each chunk is claimed exactly once unless a
/// worker panic aborts the job early).
#[derive(Debug, Default)]
pub struct PoolStats {
    serial_runs: AtomicU64,
    parallel_runs: AtomicU64,
    chunks_claimed: AtomicU64,
}

impl PoolStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jobs that took the exact serial path (width 1, or ≤ 1 chunk).
    pub fn serial_runs(&self) -> u64 {
        // relaxed: pure statistic; no reader infers other state from it.
        self.serial_runs.load(Ordering::Relaxed)
    }

    /// Jobs dispatched across ≥ 2 worker threads.
    pub fn parallel_runs(&self) -> u64 {
        // relaxed: pure statistic; no reader infers other state from it.
        self.parallel_runs.load(Ordering::Relaxed)
    }

    /// Chunks handed to parallel claim loops across all jobs.
    pub fn chunks_claimed(&self) -> u64 {
        // relaxed: pure statistic; no reader infers other state from it.
        self.chunks_claimed.load(Ordering::Relaxed)
    }
}

/// A fixed-width scoped thread pool. Stateless between calls: the
/// width (and an optional stats sink) is the only configuration,
/// threads exist only inside [`Pool::run`].
#[derive(Debug, Clone)]
pub struct Pool {
    width: usize,
    stats: Option<Arc<PoolStats>>,
}

impl Pool {
    /// Creates a pool that runs jobs on up to `width` threads
    /// (including the caller). Width 0 is clamped to 1.
    pub const fn new(width: usize) -> Self {
        Self {
            width: if width == 0 { 1 } else { width },
            // `None` keeps the constructor const (statics build serial
            // pools); attach a sink with [`Pool::with_stats`].
            stats: None,
        }
    }

    /// Attaches a dispatch-statistics sink: every subsequent job
    /// (including on clones of this pool) counts itself there.
    pub fn with_stats(mut self, stats: Arc<PoolStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The attached statistics sink, if any.
    pub fn stats(&self) -> Option<&Arc<PoolStats>> {
        self.stats.as_ref()
    }

    /// A width-1 pool: every job runs inline on the caller's thread.
    pub const fn serial() -> Self {
        Self::new(1)
    }

    /// The configured width.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Whether jobs run inline on the caller's thread.
    pub const fn is_serial(&self) -> bool {
        self.width == 1
    }

    /// Runs `f(i)` exactly once for every `i in 0..chunks`.
    ///
    /// Serial when `width == 1` or `chunks <= 1` (in-order, on the
    /// calling thread); otherwise `min(width, chunks)` threads claim
    /// chunk indices from a shared counter in an arbitrary order. The
    /// caller participates as one of the workers. Returns after every
    /// chunk has run — a happens-before barrier for the workers'
    /// writes.
    ///
    /// # Panics
    /// Re-throws the first worker panic after all workers have
    /// stopped (remaining chunks may be skipped).
    pub fn run<F>(&self, chunks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if chunks == 0 {
            return;
        }
        let workers = self.width.min(chunks);
        if workers <= 1 {
            if let Some(stats) = &self.stats {
                // relaxed: pure statistic (see `PoolStats`).
                stats.serial_runs.fetch_add(1, Ordering::Relaxed);
            }
            // Exact serial path: in-order, no synchronization.
            for i in 0..chunks {
                f(i);
            }
            return;
        }
        if let Some(stats) = &self.stats {
            // relaxed: pure statistic (see `PoolStats`).
            stats.parallel_runs.fetch_add(1, Ordering::Relaxed);
            stats
                .chunks_claimed
                .fetch_add(chunks as u64, Ordering::Relaxed);
        }
        let next = AtomicU64::new(0);
        let abort = AtomicBool::new(false);
        let caught: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let work = || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                while !abort.load(Ordering::Acquire) {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= chunks {
                        break;
                    }
                    f(i);
                }
            }));
            if let Err(payload) = result {
                #[cfg(feature = "model")]
                if payload.is::<crate::model::runtime::ModelAbort>() {
                    // Scheduler teardown, not a user panic: let it
                    // keep unwinding this thread.
                    panic::resume_unwind(payload);
                }
                abort.store(true, Ordering::Release);
                let mut slot = caught.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        };
        thread::scope(|s| {
            // A `&closure` is Copy, so every worker can share one body.
            let worker = &work;
            for _ in 1..workers {
                s.spawn(worker);
            }
            work();
        });
        // The scope joined every worker, so the slot is settled.
        let payload = caught.lock().take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_in_order() {
        let pool = Pool::serial();
        let seen = Mutex::new(Vec::new());
        pool.run(5, |i| seen.lock().push(i));
        assert_eq!(*seen.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = Pool::new(4);
        let counts: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(64, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Acquire), 1, "chunk {i}");
        }
    }

    #[test]
    fn zero_work_is_a_no_op() {
        let pool = Pool::new(4);
        pool.run(0, |_| panic!("no chunks to run"));
    }

    #[test]
    fn worker_panic_propagates_after_barrier() {
        let pool = Pool::new(4);
        let ran = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i != 7, "chunk 7 exploded");
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("chunk 7 exploded"), "got: {msg}");
        assert!(ran.load(Ordering::Acquire) >= 1);
    }

    #[test]
    fn stats_count_serial_and_parallel_dispatch() {
        let stats = Arc::new(PoolStats::new());
        let pool = Pool::new(4).with_stats(stats.clone());
        // One chunk falls back to the serial path even on a wide pool.
        pool.run(1, |_| {});
        assert_eq!(stats.serial_runs(), 1);
        assert_eq!(stats.parallel_runs(), 0);
        pool.run(16, |_| {});
        assert_eq!(stats.parallel_runs(), 1);
        assert_eq!(stats.chunks_claimed(), 16);
        // Zero work counts nowhere; a pool without a sink is silent.
        pool.run(0, |_| {});
        Pool::new(4).run(16, |_| {});
        assert_eq!(stats.serial_runs(), 1);
        assert_eq!(stats.parallel_runs(), 1);
        assert!(pool.stats().is_some());
        assert!(Pool::serial().stats().is_none());
    }

    #[test]
    fn width_is_clamped_and_reported() {
        assert_eq!(Pool::new(0).width(), 1);
        assert!(Pool::new(0).is_serial());
        assert_eq!(Pool::new(8).width(), 8);
        assert!(!Pool::new(8).is_serial());
        assert!(Pool::default().is_serial());
    }
}
