//! Configuration of the index and query layers.

/// How node splits are chosen when the index cracks for a query (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// The greedy single-choice INCREMENTALINDEXBUILD: each binary split
    /// takes the locally optimal `(c_Q, c_O)` candidate.
    Greedy,
    /// TOP-KSPLITSINDEXBUILD (Algorithm 2): explore the top-`choices`
    /// split candidates with A*-style pruning over contour change
    /// candidates. The paper evaluates 2–4 choices.
    TopK {
        /// Number of split choices explored at each decision (≥ 1).
        choices: usize,
    },
}

impl SplitStrategy {
    /// The number of alternatives explored per split.
    pub fn choices(self) -> usize {
        match self {
            SplitStrategy::Greedy => 1,
            SplitStrategy::TopK { choices } => choices.max(1),
        }
    }
}

/// Parameters of a [`crate::vkg::VirtualKnowledgeGraph`] and its index.
#[derive(Debug, Clone)]
pub struct VkgConfig {
    /// Dimensionality α of the index space S₂ (paper: 3 or 6).
    pub alpha: usize,
    /// The ε of Algorithm 3's radius inflation `r_q = r*_k(1+ε)`; larger
    /// values trade speed for recall per Theorem 2.
    pub epsilon: f64,
    /// Leaf capacity `N` — max data-point entries per leaf node.
    pub leaf_capacity: usize,
    /// Non-leaf fanout `M` — max children per internal node.
    pub fanout: usize,
    /// The β ≥ 1 of the overlap cost `c_O += βʰ·‖O‖/min(‖L‖,‖H‖)`:
    /// overlaps higher in the tree cost more.
    pub beta: f64,
    /// Split-choice strategy for cracking.
    pub split_strategy: SplitStrategy,
    /// Whether split ranking uses the query-aware `c_Q` major order
    /// (§IV-B1). Disabled only by the `abl_cost` ablation.
    pub query_aware_cost: bool,
    /// Seed for the JL projection matrix.
    pub transform_seed: u64,
    /// Width of the offline build pool: root sort orders and bulk load;
    /// queries, cracks and writes are serial — parallelism on the
    /// serving path comes from concurrent requests. Width 1 (the
    /// default) takes the exact serial code paths, and the tree built is
    /// the same at every width.
    pub threads: usize,
    /// Capacity (entries) of the epoch-keyed result cache on the facade's
    /// read path; `0` (the default) disables caching entirely, taking the
    /// exact pre-cache code paths. A hit is only served when the global
    /// and index epochs still match the entry and it was filled for the
    /// same k, so cached answers stay bit-identical to recomputation.
    pub cache_capacity: usize,
}

impl Default for VkgConfig {
    fn default() -> Self {
        Self {
            alpha: 3,
            epsilon: 3.0,
            leaf_capacity: 32,
            fanout: 8,
            beta: 2.0,
            split_strategy: SplitStrategy::Greedy,
            query_aware_cost: true,
            transform_seed: 0x4a4c_5452, // "JLTR"
            threads: 1,
            cache_capacity: 0,
        }
    }
}

/// Entry capacity the harnesses use when they turn the cache on: enough
/// for the hot set of a Zipf-skewed query stream at their scales without
/// holding a large snapshot's worth of results.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

impl VkgConfig {
    /// Validates invariants the index relies on, reporting violations as
    /// [`VkgError::InvalidParameter`](crate::error::VkgError::InvalidParameter).
    pub fn try_validate(&self) -> Result<(), crate::error::VkgError> {
        let fail = |msg: String| Err(crate::error::VkgError::InvalidParameter(msg));
        if self.alpha < 1 {
            return fail("α must be ≥ 1".into());
        }
        if self.alpha > crate::geometry::MAX_DIM {
            return fail(format!(
                "α = {} exceeds MAX_DIM = {}",
                self.alpha,
                crate::geometry::MAX_DIM
            ));
        }
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return fail("ε must be positive".into());
        }
        if self.leaf_capacity < 2 {
            return fail("leaf capacity N must be ≥ 2".into());
        }
        if self.fanout < 2 {
            return fail("fanout M must be ≥ 2".into());
        }
        if !self.beta.is_finite() || self.beta < 1.0 {
            return fail("β must be ≥ 1 (paper §IV-B1)".into());
        }
        if self.threads < 1 {
            return fail("thread pool width must be ≥ 1".into());
        }
        Ok(())
    }

    /// Panicking form of [`VkgConfig::try_validate`], kept for the
    /// assembly paths that treat a bad configuration as a programming
    /// error.
    ///
    /// # Panics
    /// Panics on invalid parameter combinations.
    pub fn validate(&self) {
        #[expect(
            clippy::panic,
            reason = "documented `# Panics` contract; try_validate is the fallible form"
        )]
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        VkgConfig::default().validate();
    }

    #[test]
    fn choices_accessor() {
        assert_eq!(SplitStrategy::Greedy.choices(), 1);
        assert_eq!(SplitStrategy::TopK { choices: 4 }.choices(), 4);
        assert_eq!(SplitStrategy::TopK { choices: 0 }.choices(), 1);
    }

    #[test]
    #[should_panic(expected = "β must be ≥ 1")]
    fn beta_below_one_rejected() {
        let cfg = VkgConfig {
            beta: 0.5,
            ..VkgConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DIM")]
    fn oversized_alpha_rejected() {
        let cfg = VkgConfig {
            alpha: 99,
            ..VkgConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fanout M must be ≥ 2")]
    fn tiny_fanout_rejected() {
        let cfg = VkgConfig {
            fanout: 1,
            ..VkgConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "pool width must be ≥ 1")]
    fn zero_threads_rejected() {
        let cfg = VkgConfig {
            threads: 0,
            ..VkgConfig::default()
        };
        cfg.validate();
    }
}
