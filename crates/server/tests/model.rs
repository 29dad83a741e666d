//! Model-checked admission-control scenarios over the real
//! [`JobQueue`]/[`Counters`] types the serving loop uses. The seeded
//! scheduler explores producer/consumer interleavings and checks the
//! drain invariant — every admitted job is answered exactly once — plus
//! freedom from data races, lock inversions, and lost wakeups.
//!
//! Run with `cargo test -p vkg-server --features model --test model`.

#![cfg(feature = "model")]

use std::sync::Arc;

use vkg_server::queue::{Admission, Counters, JobQueue};
use vkg_sync::{model, thread, AtomicBool, Mutex, Ordering};

const SEEDS: u64 = 64;

/// Producers race consumers and a closer: after the drain, the counter
/// invariant `admitted == answered` holds and every admitted item was
/// popped exactly once (no loss, no duplication).
#[test]
fn drain_invariant_admitted_equals_answered() {
    model::sweep(SEEDS, || {
        let queue = Arc::new(JobQueue::new(2));
        let counters = Arc::new(Counters::default());
        let popped = Arc::new(Mutex::with_name(Vec::new(), "popped-items"));

        let producers: Vec<_> = (0..2)
            .map(|p| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                thread::spawn(move || {
                    for i in 0..2_u64 {
                        match queue.try_push(p * 10 + i) {
                            Admission::Admitted => counters.record_admitted(),
                            Admission::QueueFull => counters.record_shed(),
                            Admission::Closed => counters.record_drained(),
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let counters = Arc::clone(&counters);
                let popped = Arc::clone(&popped);
                thread::spawn(move || {
                    while let Some(item) = queue.pop() {
                        counters.record_answered();
                        popped.lock().push(item);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        // All producers are done: closing now lets the consumers drain
        // the backlog and exit — exactly the accept-loop teardown order.
        queue.close();
        for c in consumers {
            c.join().expect("consumer");
        }

        let s = counters.snapshot();
        assert_eq!(
            s.admitted, s.answered,
            "drain invariant: admitted ({}) != answered ({})",
            s.admitted, s.answered
        );
        assert_eq!(s.admitted + s.shed + s.drained, 4, "every push accounted");
        let mut items = popped.lock().clone();
        items.sort_unstable();
        items.dedup();
        assert_eq!(
            items.len() as u64,
            s.answered,
            "each admitted item popped exactly once"
        );
    })
    .unwrap_or_else(|v| panic!("drain-invariant model failed: {v}"));
}

/// A consumer that parks before any producer runs must still be woken:
/// the queue's notify discipline admits no lost wakeup in any schedule.
#[test]
fn parked_consumer_always_woken() {
    model::sweep(SEEDS, || {
        let queue = Arc::new(JobQueue::new(1));
        let consumer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(item) = queue.pop() {
                    seen.push(item);
                }
                seen
            })
        };
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                // Capacity 1: the second push may shed while the first
                // sits unpopped — both outcomes are legal; losing the
                // admitted item is not.
                let first = queue.try_push(7);
                assert_eq!(first, Admission::Admitted, "empty queue admits");
                let _ = queue.try_push(8);
                queue.close();
            })
        };
        producer.join().expect("producer");
        let seen = consumer.join().expect("consumer");
        assert!(!seen.is_empty(), "the admitted item must be consumed");
        assert_eq!(seen[0], 7);
    })
    .unwrap_or_else(|v| panic!("parked-consumer model failed: {v}"));
}

/// The drain flag + closed queue interplay of the serving loop: once a
/// connection observes `draining`, refusals are counted as drained, and
/// no admission slips through after the close — in any interleaving.
#[test]
fn draining_refusals_never_admit() {
    model::sweep(SEEDS, || {
        let queue = Arc::new(JobQueue::new(4));
        let counters = Arc::new(Counters::default());
        let draining = Arc::new(AtomicBool::new(false));

        let conn = {
            let queue = Arc::clone(&queue);
            let counters = Arc::clone(&counters);
            let draining = Arc::clone(&draining);
            thread::spawn(move || {
                for i in 0..3_u64 {
                    if draining.load(Ordering::SeqCst) {
                        counters.record_drained();
                        continue;
                    }
                    match queue.try_push(i) {
                        Admission::Admitted => counters.record_admitted(),
                        Admission::QueueFull => counters.record_shed(),
                        Admission::Closed => counters.record_drained(),
                    }
                }
            })
        };
        let drainer = {
            let queue = Arc::clone(&queue);
            let draining = Arc::clone(&draining);
            thread::spawn(move || {
                draining.store(true, Ordering::SeqCst);
                queue.close();
            })
        };
        conn.join().expect("connection");
        drainer.join().expect("drainer");

        // Drain the backlog the way workers do.
        let mut answered = 0;
        while let Some(_item) = queue.pop() {
            counters.record_answered();
            answered += 1;
        }
        let s = counters.snapshot();
        assert_eq!(s.admitted, s.answered, "drain invariant after close");
        assert_eq!(s.admitted, answered);
        assert_eq!(s.admitted + s.shed + s.drained, 3, "every request counted");
    })
    .unwrap_or_else(|v| panic!("draining model failed: {v}"));
}
