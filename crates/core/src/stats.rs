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

impl IndexStats {
    /// Resets the per-query counters (splits/nodes are cumulative
    /// structure counters and are preserved).
    pub fn reset_access_counters(&mut self) {
        self.elements_accessed = 0;
        self.points_examined = 0;
        self.s1_distance_evals = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_preserves_structure_counters() {
        let mut s = IndexStats {
            splits_performed: 10,
            nodes_created: 21,
            elements_accessed: 5,
            points_examined: 100,
            s1_distance_evals: 40,
        };
        s.reset_access_counters();
        assert_eq!(s.splits_performed, 10);
        assert_eq!(s.nodes_created, 21);
        assert_eq!(s.elements_accessed, 0);
        assert_eq!(s.points_examined, 0);
        assert_eq!(s.s1_distance_evals, 0);
    }
}
