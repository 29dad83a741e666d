//! Per-query span records.
//!
//! One [`Span`] is produced per served request and follows it through
//! the serving pipeline's phases: admission → queue wait → wait for the
//! index lock's shared guard → execution (traversal, refine, and the
//! late crack when one is applied) → response encode. Spans are
//! fixed-size and encode into a constant number of
//! `u64` words ([`SPAN_WORDS`]) so the lock-free [`crate::SpanRing`]
//! can store them in per-slot atomic arrays without allocation.

/// Number of `u64` words a span packs into (the ring's slot width).
pub const SPAN_WORDS: usize = 9;

/// How a traced request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum SpanOutcome {
    /// Answered successfully.
    #[default]
    Ok = 0,
    /// Answered with a typed error.
    Error = 1,
    /// Admitted but expired in the queue before a worker reached it.
    DeadlineExpired = 2,
}

impl SpanOutcome {
    /// Decodes a wire byte, clamping unknown values to `Error`.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => SpanOutcome::Ok,
            2 => SpanOutcome::DeadlineExpired,
            _ => SpanOutcome::Error,
        }
    }
}

/// One request's trip through the serving pipeline.
///
/// Durations are nanoseconds measured on the server's [`crate::Clock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Server-assigned query id, monotonically increasing.
    pub id: u64,
    /// Wire opcode of the request.
    pub op: u8,
    /// A word the record format keeps from the engine's sharded days:
    /// 0 for a request that reached the index, `u32::MAX` for one that
    /// routed nowhere.
    pub shard: u32,
    /// How the request ended.
    pub outcome: SpanOutcome,
    /// Admission (successful `try_push`) → worker pop.
    pub queue_ns: u64,
    /// Worker pop → the index lock's **shared** guard held: what a read
    /// waits behind writers and other queries' late cracks. (A write
    /// takes the lock inside the facade and charges it all to
    /// `exec_ns`.)
    pub lock_ns: u64,
    /// Shared guard held → result ready: traversal and refine work,
    /// plus — when the query's late crack is applied — its wait for the
    /// exclusive side and the crack itself.
    pub exec_ns: u64,
    /// Response encode on the connection thread.
    pub encode_ns: u64,
    /// Always 0: a worker pops one job at a time, so nothing waits
    /// behind a batch sibling. The word stays in the record because
    /// wire v2 carries it and the benchmark reads it.
    pub batch_ns: u64,
    /// Refine steps (S1 distance evaluations) the query performed.
    pub refine_steps: u64,
}

impl Span {
    /// Packs the span into its fixed word form for ring storage.
    pub fn to_words(&self) -> [u64; SPAN_WORDS] {
        let tag = u64::from(self.op) | (u64::from(self.outcome as u8) << 8);
        [
            self.id,
            tag,
            u64::from(self.shard),
            self.queue_ns,
            self.lock_ns,
            self.exec_ns,
            self.encode_ns,
            self.batch_ns,
            self.refine_steps,
        ]
    }

    /// Unpacks a span from its word form.
    pub fn from_words(w: &[u64; SPAN_WORDS]) -> Self {
        Span {
            id: w[0],
            op: (w[1] & 0xFF) as u8,
            outcome: SpanOutcome::from_u8(((w[1] >> 8) & 0xFF) as u8),
            shard: (w[2] & u64::from(u32::MAX)) as u32,
            queue_ns: w[3],
            lock_ns: w[4],
            exec_ns: w[5],
            encode_ns: w[6],
            batch_ns: w[7],
            refine_steps: w[8],
        }
    }

    /// Total server-side time (all phases).
    pub fn total_ns(&self) -> u64 {
        self.queue_ns
            .saturating_add(self.lock_ns)
            .saturating_add(self.exec_ns)
            .saturating_add(self.encode_ns)
            .saturating_add(self.batch_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip_is_lossless() {
        let s = Span {
            id: 42,
            op: 0x03,
            shard: 7,
            outcome: SpanOutcome::DeadlineExpired,
            queue_ns: 1_000,
            lock_ns: 2_000,
            exec_ns: 3_000,
            encode_ns: 4_000,
            batch_ns: 500,
            refine_steps: 99,
        };
        assert_eq!(Span::from_words(&s.to_words()), s);
        assert_eq!(s.total_ns(), 10_500);
    }

    #[test]
    fn unrouted_shard_survives_roundtrip() {
        let s = Span {
            shard: u32::MAX,
            ..Span::default()
        };
        assert_eq!(Span::from_words(&s.to_words()).shard, u32::MAX);
    }

    #[test]
    fn unknown_outcome_byte_clamps_to_error() {
        assert_eq!(SpanOutcome::from_u8(9), SpanOutcome::Error);
        assert_eq!(SpanOutcome::from_u8(0), SpanOutcome::Ok);
        assert_eq!(SpanOutcome::from_u8(2), SpanOutcome::DeadlineExpired);
    }
}
