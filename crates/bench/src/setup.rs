//! Dataset/embedding preparation shared by the harness binaries.
//!
//! The experiments run at three scales ([`Scale`]) so CI can exercise the
//! full matrix quickly while a workstation regenerates the figures at a
//! size where the paper's effects are clearly visible.

use vkg::prelude::*;

/// Experiment scale (entity counts; see DESIGN.md §2 on why scaled-down
/// synthetic datasets preserve the figures' shapes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast; used by tests and smoke runs.
    Smoke,
    /// Default for `run_experiments`.
    Standard,
    /// Larger run for scaling comparisons (Fig. 5 vs Fig. 7).
    Large,
}

impl Scale {
    /// Parses `smoke`/`standard`/`large`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "standard" => Some(Scale::Standard),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    fn factor(self) -> f64 {
        match self {
            Scale::Smoke => 0.05,
            Scale::Standard => 0.4,
            Scale::Large => 1.0,
        }
    }
}

/// A prepared dataset: graph + attributes + trained embeddings.
pub struct Prepared {
    /// The dataset (graph + attributes).
    pub dataset: Dataset,
    /// Embeddings over the dataset's graph.
    pub embeddings: EmbeddingStore,
}

/// The harness embeds with the alternating-least-squares trainer rather
/// than quick TransE: it converges to the tight `h + r ≈ t` geometry of
/// the precomputed embeddings the paper imports, at a fraction of the
/// cost (DESIGN.md §2 records this substitution).
fn embed(graph: &vkg::kg::KnowledgeGraph, dim: usize) -> EmbeddingStore {
    vkg::embed::least_squares_embedding(
        graph,
        &vkg::embed::LsConfig {
            dim,
            ..vkg::embed::LsConfig::default()
        },
    )
}

/// Engine configuration used by all experiments: ε = 0.5 keeps the query
/// ball a small fraction of the point cloud at our synthetic scale (the
/// paper's 17M-entity datasets put the top-k radius much deeper into the
/// distance distribution's tail than a ~10⁴-entity stand-in can); the
/// `abl_eps` ablation sweeps the trade-off.
pub fn bench_config() -> VkgConfig {
    VkgConfig {
        epsilon: 0.5,
        ..VkgConfig::default()
    }
}

/// Freebase-like dataset with trained embeddings (Figs. 3, 4, 9, 12, 15).
pub fn freebase(scale: Scale, dim: usize) -> Prepared {
    let mut ds = freebase_like(&FreebaseConfig::scaled(scale.factor()));
    ds.compute_popularity();
    let embeddings = embed(&ds.graph, dim);
    Prepared {
        dataset: ds,
        embeddings,
    }
}

/// Movie-like dataset with trained embeddings (Figs. 5, 6, 10, 13, 16).
pub fn movie(scale: Scale, dim: usize) -> Prepared {
    let ds = movie_like(&MovieConfig::scaled(scale.factor()));
    let embeddings = embed(&ds.graph, dim);
    Prepared {
        dataset: ds,
        embeddings,
    }
}

/// Amazon-like dataset with trained embeddings (Figs. 7, 8, 11, 14).
pub fn amazon(scale: Scale, dim: usize) -> Prepared {
    let ds = amazon_like(&AmazonConfig::scaled(scale.factor()));
    let embeddings = embed(&ds.graph, dim);
    Prepared {
        dataset: ds,
        embeddings,
    }
}

impl Prepared {
    /// Builds the immutable read snapshot every [`QueryEngine`] in a run
    /// shares. Engines are built *per method*, the snapshot once per
    /// configuration.
    pub fn snapshot(&self, cfg: VkgConfig) -> VkgSnapshot {
        match VkgSnapshot::new(
            self.dataset.graph.clone(),
            self.dataset.attributes.clone(),
            self.embeddings.clone(),
            cfg,
        ) {
            Ok(s) => s,
            #[expect(
                clippy::panic,
                reason = "Prepared constructors validate the dataset/embedding pairing"
            )]
            Err(e) => panic!("prepared data is internally consistent: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("standard"), Some(Scale::Standard));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn smoke_preparation_works() {
        let p = movie(Scale::Smoke, 16);
        assert!(p.dataset.graph.num_edges() > 0);
        assert_eq!(p.embeddings.num_entities(), p.dataset.graph.num_entities());
        let snap = p.snapshot(VkgConfig::default());
        let likes = snap.graph().relation_id("likes").unwrap();
        let user = snap.graph().entity_id("user_0").unwrap();
        let mut engine = IndexState::cracking(&snap);
        let r = engine
            .top_k(&snap, user, likes, Direction::Tails, 3)
            .unwrap();
        assert!(r.predictions.len() <= 3);
    }
}
