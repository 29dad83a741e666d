//! # vkg — virtual knowledge graphs with online cracking indices
//!
//! A from-scratch Rust implementation of *Online Indices for Predictive
//! Top-k Entity and Aggregate Queries on Knowledge Graphs* (Li, Ge, Chen;
//! ICDE 2020).
//!
//! A **virtual knowledge graph** extends a knowledge graph with predicted
//! edges and their probabilities, induced by a graph-embedding algorithm.
//! This crate answers two query families over it, efficiently and with
//! provable accuracy guarantees:
//!
//! * **Top-k entity queries** — "the top-5 restaurants Amy would rate
//!   high but hasn't been to yet";
//! * **Aggregate queries** — "the average age of everyone who would like
//!   Restaurant 2" (COUNT/SUM/AVG/MAX/MIN).
//!
//! The engine projects the embedding vectors into a low-dimensional space
//! with a Johnson–Lindenstrauss transform, and builds a **cracking
//! R-tree** over them *online*: the tree grows only where queries look,
//! so there is no offline index-building phase and the index stays a
//! small fraction of a fully bulk-loaded tree.
//!
//! ## Quickstart
//!
//! ```
//! use vkg::prelude::*;
//!
//! // A toy knowledge graph.
//! let mut graph = KnowledgeGraph::new();
//! for i in 0..30 {
//!     graph
//!         .add_fact(&format!("user_{}", i % 6), "likes", &format!("item_{i}"))
//!         .unwrap();
//! }
//!
//! // Train TransE embeddings (the algorithm 𝒜 inducing the virtual KG).
//! let (embeddings, _stats) = TransE::new(TransEConfig::fast()).train(&graph);
//!
//! // Assemble and query. Queries take `&self` — the index cracks behind
//! // an internal lock while reads share an immutable snapshot.
//! let vkg = VirtualKnowledgeGraph::assemble(
//!     graph,
//!     AttributeStore::new(),
//!     embeddings,
//!     VkgConfig::default(),
//! );
//! let amy = vkg.graph().entity_id("user_0").unwrap();
//! let likes = vkg.graph().relation_id("likes").unwrap();
//! let top = vkg.top_k(amy, likes, Direction::Tails, 3).unwrap();
//! assert!(top.predictions.len() <= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vkg_baselines as baselines;
pub use vkg_core as core;
pub use vkg_embed as embed;
pub use vkg_kg as kg;
pub use vkg_obs as obs;
pub use vkg_server as server;
pub use vkg_sync as sync;
pub use vkg_transform as transform;

use vkg_core::{VirtualKnowledgeGraph, VkgConfig};
use vkg_embed::{TransE, TransEConfig};
use vkg_kg::datasets::Dataset;

/// The common imports for applications.
pub mod prelude {
    pub use vkg_baselines::{
        H2Alsh, H2AlshConfig, H2AlshEngine, LinearScan, LinearScanEngine, PhTree, PhTreeEngine,
    };
    pub use vkg_core::query::aggregate::{AggregateKind, AggregateResult, AggregateSpec};
    pub use vkg_core::query::topk::{Prediction, TopKResult};
    pub use vkg_core::{
        Accuracy, Answer, CrackingIndex, Direction, EngineStats, Filter, IndexState, IndexStats,
        Query, QueryEngine, QueryOp, SplitStrategy, VirtualKnowledgeGraph, VkgConfig, VkgError,
        VkgResult, VkgSnapshot,
    };
    pub use vkg_embed::{EmbeddingStore, TransA, TransAConfig, TransE, TransEConfig};
    pub use vkg_kg::datasets::{
        amazon_like, freebase_like, movie_like, AmazonConfig, Dataset, FreebaseConfig, MovieConfig,
    };
    pub use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph, RelationId};
    pub use vkg_server::{Client, RetryPolicy, RetryStats, Server, ServerConfig, ServerHandle};
    pub use vkg_transform::JlTransform;
}

/// End-to-end pipeline: train TransE on a dataset's graph and assemble a
/// queryable virtual knowledge graph with an online cracking index.
///
/// This is the path every example and benchmark takes; applications with
/// precomputed embeddings should instead load them via
/// [`vkg_embed::io`] and call [`VirtualKnowledgeGraph::assemble`]
/// directly.
pub fn build_from_dataset(
    dataset: &Dataset,
    embed_cfg: TransEConfig,
    vkg_cfg: VkgConfig,
) -> VirtualKnowledgeGraph {
    let (embeddings, _) = TransE::new(embed_cfg).train(&dataset.graph);
    VirtualKnowledgeGraph::assemble(
        dataset.graph.clone(),
        dataset.attributes.clone(),
        embeddings,
        vkg_cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn build_from_dataset_end_to_end() {
        let ds = movie_like(&MovieConfig::tiny());
        let vkg = build_from_dataset(
            &ds,
            TransEConfig {
                dim: 12,
                epochs: 5,
                ..TransEConfig::default()
            },
            VkgConfig::default(),
        );
        let user = vkg.graph().entity_id("user_0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let r = vkg.top_k(user, likes, Direction::Tails, 5).unwrap();
        assert!(!r.predictions.is_empty());
        vkg.index().check_invariants();
    }
}
