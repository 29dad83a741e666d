//! The workspace's single source of time.
//!
//! A [`Clock`] hands out monotonic [`Tick`]s (nanoseconds since the
//! clock's origin). The real clock is a thin wrapper over
//! [`std::time::Instant`]; the mock clock is an atomic counter that
//! tests advance by hand, so span timings and deadline logic are
//! deterministic under test. Clippy's `disallowed-methods` (the root
//! `clippy.toml`) keeps `Instant::now()` out of every crate except this
//! one and the bench harness, which forces all timing through this seam.

use std::time::{Duration, Instant};

use vkg_sync::{Arc, AtomicU64, Ordering};

/// A monotonic timestamp: nanoseconds since the owning clock's origin.
///
/// Ticks from different clocks are not comparable; keep one clock per
/// subsystem (one per server, one per bench run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Tick(u64);

impl Tick {
    /// Nanoseconds since the clock origin.
    pub fn as_ns(self) -> u64 {
        self.0
    }

    /// A tick at an explicit nanosecond offset (decoding wire spans,
    /// building fixtures).
    pub fn from_ns(ns: u64) -> Self {
        Tick(ns)
    }

    /// Nanoseconds elapsed from `earlier` to `self` (zero if the clock
    /// appears to have gone backwards, which a monotonic clock never
    /// does but a mock set carelessly could).
    pub fn since(self, earlier: Tick) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

#[derive(Debug, Clone)]
enum Inner {
    Real { origin: Instant },
    Mock { now_ns: Arc<AtomicU64> },
}

/// Monotonic clock, real or mocked. Cloning is cheap and clones share
/// the same origin (and, for mocks, the same hand), so handles can be
/// passed to worker threads freely.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: Inner,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

impl Clock {
    /// A real monotonic clock; its origin is the moment of creation.
    pub fn real() -> Self {
        Clock {
            inner: Inner::Real {
                origin: Instant::now(),
            },
        }
    }

    /// A mock clock starting at tick zero; advance it with
    /// [`Clock::advance`].
    pub fn mock() -> Self {
        Clock {
            inner: Inner::Mock {
                now_ns: Arc::new(AtomicU64::new(0)),
            },
        }
    }

    /// Whether this is a mock clock.
    pub fn is_mock(&self) -> bool {
        matches!(self.inner, Inner::Mock { .. })
    }

    /// The current tick.
    pub fn now(&self) -> Tick {
        match &self.inner {
            Inner::Real { origin } => {
                let ns = origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                Tick(ns)
            }
            // relaxed: the mock hand is a plain value; readers only need
            // monotonicity per handle, which fetch_add in advance gives.
            Inner::Mock { now_ns } => Tick(now_ns.load(Ordering::Relaxed)),
        }
    }

    /// Duration elapsed since `start` (saturating at zero).
    pub fn since(&self, start: Tick) -> Duration {
        Duration::from_nanos(self.now().since(start))
    }

    /// Advances a mock clock by `d`. On a real clock this is a no-op —
    /// real time cannot be steered — so production code paths can hold
    /// either kind without branching.
    pub fn advance(&self, d: Duration) {
        if let Inner::Mock { now_ns } = &self.inner {
            let ns = d.as_nanos().min(u64::MAX as u128) as u64;
            // relaxed: the mock hand is a plain value (see `now`).
            now_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// A started timer: a [`Clock`] plus its start tick — the drop-in
/// replacement for the `let t = Instant::now(); … t.elapsed()` idiom in
/// code where `clippy.toml` disallows `Instant::now`.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    clock: Clock,
    start: Tick,
}

impl Stopwatch {
    /// Starts a stopwatch on `clock` (mockable timing).
    pub fn new(clock: &Clock) -> Self {
        Stopwatch {
            clock: clock.clone(),
            start: clock.now(),
        }
    }

    /// Starts a stopwatch on a fresh real clock.
    pub fn start() -> Self {
        Self::new(&Clock::real())
    }

    /// Time elapsed since the stopwatch started.
    pub fn elapsed(&self) -> Duration {
        self.clock.since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_is_deterministic() {
        let c = Clock::mock();
        assert!(c.is_mock());
        let t0 = c.now();
        assert_eq!(t0.as_ns(), 0);
        c.advance(Duration::from_micros(250));
        assert_eq!(c.now().since(t0), 250_000);
        assert_eq!(c.since(t0), Duration::from_micros(250));
    }

    #[test]
    fn mock_clones_share_the_hand() {
        let c = Clock::mock();
        let c2 = c.clone();
        c.advance(Duration::from_nanos(7));
        assert_eq!(c2.now().as_ns(), 7);
    }

    #[test]
    fn real_clock_is_monotonic() {
        let c = Clock::real();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // advance is a documented no-op on real clocks.
        c.advance(Duration::from_secs(3600));
        assert!(c.since(a) < Duration::from_secs(3600));
    }

    #[test]
    fn stopwatch_tracks_its_clock() {
        let c = Clock::mock();
        let sw = Stopwatch::new(&c);
        c.advance(Duration::from_millis(3));
        assert_eq!(sw.elapsed(), Duration::from_millis(3));
        assert!(Stopwatch::start().elapsed() < Duration::from_secs(60));
    }

    #[test]
    fn tick_since_saturates() {
        assert_eq!(Tick::from_ns(5).since(Tick::from_ns(9)), 0);
        assert_eq!(Tick::from_ns(9).since(Tick::from_ns(5)), 4);
    }
}
