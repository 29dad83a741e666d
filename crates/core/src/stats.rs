//! Index and query instrumentation.
//!
//! Figures 9–11 of the paper compare node counts and index sizes between
//! the cracking index and a full bulk-loaded index, and Figure 3 counts on
//! the per-query work; these counters make those measurements direct
//! observations rather than estimates.

/// Monotonic counters maintained by the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Binary splits performed (each BESTBINARYSPLIT application).
    pub splits_performed: u64,
    /// Tree nodes currently allocated (internal + leaf + unsplit).
    pub nodes_created: u64,
    /// Contour elements (leaves + unsplit partitions) touched by searches.
    pub elements_accessed: u64,
    /// Data points examined by searches (S₂ filter evaluations).
    pub points_examined: u64,
    /// Full S₁ distance evaluations (the expensive operation the index
    /// exists to avoid).
    pub s1_distance_evals: u64,
}
