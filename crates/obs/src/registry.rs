//! The global-free metrics registry.
//!
//! A [`Registry`] is a named collection of [`Counter`]s, [`Gauge`]s,
//! and [`HistogramCell`]s. Nothing here is `static`: each `Vkg` and
//! each `Server` owns its own registry, and tests can spin up as many
//! as they like without cross-talk. Handles are cheap `Arc` clones and
//! record lock-free (counters/gauges) or under a short mutex
//! (histograms, which are only touched once per served request).

use std::time::Duration;

use vkg_sync::{Arc, AtomicU64, Mutex, Ordering};

use crate::hist::Histogram;
use crate::snapshot::{HistSnapshot, MetricsSnapshot};

/// Stripe count for counters: hot-path increments from different
/// threads usually land on different cache lines. Must be a power of
/// two (the stripe picker masks).
const STRIPES: usize = 8;

/// Picks a stripe from the address of a stack slot: threads have
/// distinct stacks, so concurrent writers spread across stripes without
/// any thread-local machinery (and without `std::thread` — the model
/// runtime's turnstile threads work too).
fn stripe() -> usize {
    let marker = 0u8;
    // Stacks are at least page-aligned apart; shifting off the low bits
    // of the frame offset keeps the mapping stable within one thread.
    (&marker as *const u8 as usize >> 12) & (STRIPES - 1)
}

#[derive(Debug)]
struct Stripes {
    cells: [AtomicU64; STRIPES],
}

impl Stripes {
    fn new() -> Self {
        Stripes {
            cells: Default::default(),
        }
    }

    fn add(&self, n: u64) {
        // relaxed: pure statistic; no reader infers other state from
        // the count, and the snapshot sums stripes with no ordering
        // requirement beyond each cell's own modification order.
        self.cells[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.cells
            .iter()
            // relaxed: pure statistic (see `add`).
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// A monotonically increasing counter handle. Cloning shares the
/// underlying cells.
#[derive(Debug, Clone)]
pub struct Counter {
    cells: Arc<Stripes>,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells.add(n);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (sum over stripes).
    pub fn get(&self) -> u64 {
        self.cells.sum()
    }
}

/// A last-value-wins gauge handle (queue depth, epoch, pool width).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        // relaxed: pure statistic; last-value-wins with no ordering
        // obligation to other state.
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed: pure statistic (see `set`).
        self.cell.load(Ordering::Relaxed)
    }
}

/// A histogram handle. Recording takes a short mutex — histograms are
/// touched once per served request, not per point, so contention is
/// bounded by request rate.
#[derive(Debug, Clone)]
pub struct HistogramCell {
    inner: Arc<Mutex<Histogram>>,
}

impl HistogramCell {
    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.inner.lock().record(d);
    }

    /// Records one sample in microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        self.inner.lock().record_us(us);
    }

    /// A copy of the current histogram.
    pub fn read(&self) -> Histogram {
        self.inner.lock().clone()
    }
}

#[derive(Debug)]
struct Inner {
    counters: Mutex<Vec<(String, Arc<Stripes>)>>,
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    hists: Mutex<Vec<(String, Arc<Mutex<Histogram>>)>>,
}

/// A named, instance-scoped collection of metrics.
///
/// Registration (`counter` / `gauge` / `histogram`) is get-or-create by
/// name and intended for setup time; the returned handles are what hot
/// paths touch. [`Registry::snapshot`] dumps every metric, sorted by
/// name, into a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A live registry.
    pub fn active() -> Self {
        Registry {
            inner: Arc::new(Inner {
                counters: Mutex::with_name(Vec::new(), "obs.counters"),
                gauges: Mutex::with_name(Vec::new(), "obs.gauges"),
                hists: Mutex::with_name(Vec::new(), "obs.hists"),
            }),
        }
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut list = self.inner.counters.lock();
        let cells = match list.iter().find(|(n, _)| n == name) {
            Some((_, c)) => c.clone(),
            None => {
                let c = Arc::new(Stripes::new());
                list.push((name.to_string(), c.clone()));
                c
            }
        };
        Counter { cells }
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut list = self.inner.gauges.lock();
        let cell = match list.iter().find(|(n, _)| n == name) {
            Some((_, c)) => c.clone(),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                list.push((name.to_string(), c.clone()));
                c
            }
        };
        Gauge { cell }
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramCell {
        let mut list = self.inner.hists.lock();
        let cell = match list.iter().find(|(n, _)| n == name) {
            Some((_, h)) => h.clone(),
            None => {
                let h = Arc::new(Mutex::with_name(Histogram::new(), "obs.hist"));
                list.push((name.to_string(), h.clone()));
                h
            }
        };
        HistogramCell { inner: cell }
    }

    /// A point-in-time dump of every registered metric, sorted by name.
    /// Span fields are left empty — the owner of the span ring fills
    /// them in (see [`MetricsSnapshot`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let inner = &self.inner;
        snap.counters = inner
            .counters
            .lock()
            .iter()
            .map(|(n, c)| (n.clone(), c.sum()))
            .collect();
        snap.gauges = inner
            .gauges
            .lock()
            .iter()
            // relaxed: pure statistic (see `Gauge::set`).
            .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
            .collect();
        snap.hists = inner
            .hists
            .lock()
            .iter()
            .map(|(n, h)| (n.clone(), HistSnapshot::from_histogram(&h.lock())))
            .collect();
        snap.counters.sort();
        snap.gauges.sort();
        snap.hists.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::active();
        let c = r.counter("queries");
        c.incr();
        c.add(4);
        // A second lookup shares the same cells.
        assert_eq!(r.counter("queries").get(), 5);
        let g = r.gauge("depth");
        g.set(17);
        g.set(3);
        assert_eq!(r.gauge("depth").get(), 3);
    }

    #[test]
    fn histogram_handle_records() {
        let r = Registry::active();
        let h = r.histogram("latency_us");
        h.record(Duration::from_micros(500));
        h.record_us(700);
        let read = r.histogram("latency_us").read();
        assert_eq!(read.len(), 2);
        assert_eq!(read.max(), Duration::from_micros(700));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = Registry::active();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.gauge("g").set(7);
        r.histogram("h").record_us(50);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".to_string(), 1), ("b".to_string(), 2)]);
        assert_eq!(s.gauges, vec![("g".to_string(), 7)]);
        assert_eq!(s.hists.len(), 1);
        assert_eq!(s.hists[0].0, "h");
        assert_eq!(s.hists[0].1.total, 1);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let r = Registry::active();
        let c = r.counter("hits");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
