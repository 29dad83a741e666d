//! The bounded admission queue and its monotonic counters, extracted so
//! the model-checking tests (`tests/model.rs`) can drive the exact same
//! types the serving loop uses — not a test-only replica.
//!
//! Both types are built on [`vkg_sync`] primitives: in ordinary builds
//! they compile down to `std::sync` with zero overhead; under
//! `--features model` every lock acquisition, condvar wait, and atomic
//! access becomes a scheduling point of the seeded model runtime, which
//! explores thread interleavings and checks the drain invariant
//! (`admitted == answered` once the queue is closed and drained) against
//! adversarial schedules.

use std::collections::VecDeque;

use vkg_sync::{AtomicU64, Condvar, Mutex, Ordering};

use crate::protocol::ServerCounters;

/// Outcome of [`JobQueue::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The item was queued; a consumer is guaranteed to pop it.
    Admitted,
    /// The queue is at capacity — the caller must shed the work.
    QueueFull,
    /// The queue was closed — the caller must refuse the work.
    Closed,
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`. Push never
/// blocks — a full queue is an explicit shed decision, not a wait.
///
/// The closing protocol preserves admitted work: [`JobQueue::close`]
/// stops new pushes, but [`JobQueue::pop`] keeps returning jobs until
/// the backlog is empty, and only then returns `None`. A consumer loop
/// of the form `while let Some(job) = queue.pop() { answer(job) }`
/// therefore answers every admitted job before exiting.
pub struct JobQueue<T> {
    inner: Mutex<QueueState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue that admits at most `capacity` pending items.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::with_name(
                QueueState {
                    jobs: VecDeque::with_capacity(capacity),
                    closed: false,
                },
                "job-queue",
            ),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Attempts to admit `item` without blocking.
    pub fn try_push(&self, item: T) -> Admission {
        let mut state = self.inner.lock();
        if state.closed {
            return Admission::Closed;
        }
        if state.jobs.len() >= self.capacity {
            return Admission::QueueFull;
        }
        state.jobs.push_back(item);
        drop(state);
        self.ready.notify_one();
        Admission::Admitted
    }

    /// Blocks for the next item; `None` once the queue is closed *and*
    /// drained, so consumers never abandon admitted work.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state);
        }
    }

    /// Closes the queue: subsequent pushes are refused, and consumers
    /// drain the backlog then observe `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.ready.notify_all();
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().jobs.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Monotonic admission-control counters.
///
/// `admitted` and `answered` carry the drain invariant — after a
/// graceful drain the two must be equal — so their increments publish
/// with `Release` and [`Counters::snapshot`] reads them with `Acquire`:
/// a snapshot that observes an `answered` increment is thereby ordered
/// after the work that produced it, even on a path (the inline `Stats`
/// handler) that never touches the queue mutex. The remaining counters
/// are pure statistics and stay `Relaxed`.
#[derive(Default)]
pub struct Counters {
    admitted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    drained: AtomicU64,
}

impl Counters {
    /// Records one admitted job (paired with the successful `try_push`).
    pub fn record_admitted(&self) {
        // Release: pairs with the Acquire load in `snapshot` so the
        // drain-invariant check observes admissions in order.
        self.admitted.fetch_add(1, Ordering::Release);
    }

    /// Records one answered job (every admitted job, exactly once).
    pub fn record_answered(&self) {
        // Release: pairs with the Acquire load in `snapshot` so the
        // drain-invariant check observes answers in order.
        self.answered.fetch_add(1, Ordering::Release);
    }

    /// Records one request shed because the queue was full.
    pub fn record_shed(&self) {
        // relaxed: pure statistic; no reader infers other state from it.
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admitted job whose deadline expired while queued.
    pub fn record_deadline_expired(&self) {
        // relaxed: pure statistic; no reader infers other state from it.
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request refused because the server is draining.
    pub fn record_drained(&self) {
        // relaxed: pure statistic; no reader infers other state from it.
        self.drained.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time view of the counters, wire-ready.
    pub fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            // Acquire: pairs with the Release increments so the
            // admitted/answered pair is never observed out of order
            // relative to the work it counts.
            admitted: self.admitted.load(Ordering::Acquire),
            answered: self.answered.load(Ordering::Acquire),
            // relaxed: pure statistics (see the recording sites).
            shed: self.shed.load(Ordering::Relaxed),
            // relaxed: pure statistics (see the recording sites).
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            // relaxed: pure statistics (see the recording sites).
            drained: self.drained.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(1), Admission::Admitted);
        assert_eq!(q.try_push(2), Admission::Admitted);
        assert_eq!(q.try_push(3), Admission::QueueFull);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.try_push(4), Admission::Closed);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_drains_backlog_before_none() {
        let q = JobQueue::new(8);
        q.try_push(10);
        q.try_push(11);
        q.close();
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q = Arc::new(JobQueue::<u32>::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().expect("consumer"), None);
    }

    #[test]
    fn counters_snapshot_reflects_records() {
        let c = Counters::default();
        c.record_admitted();
        c.record_admitted();
        c.record_answered();
        c.record_shed();
        c.record_deadline_expired();
        c.record_drained();
        let s = c.snapshot();
        assert_eq!(
            (
                s.admitted,
                s.answered,
                s.shed,
                s.deadline_expired,
                s.drained
            ),
            (2, 1, 1, 1, 1)
        );
    }
}
