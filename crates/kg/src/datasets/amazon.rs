//! Amazon-review-like dataset generator.
//!
//! Entities: users and products. Relationship types (paper §VI-A):
//! `likes` / `dislikes` (derived from 1–5 star ratings exactly as for the
//! movie data) plus the product-to-product `also_viewed` and `also_bought`
//! relations. Product co-view/co-buy edges connect products that are close
//! in latent space (substitutes/complements), which is how the real
//! relations arise from browsing sessions.
//!
//! Attributes: `quality` on products — the mean rating the product has
//! received over all generated ratings (paper §VI-B, Fig. 14) — and `age`
//! on users.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{to_star_rating, Dataset};
use crate::attributes::AttributeStore;
use crate::graph::KnowledgeGraph;
use crate::zipf::Zipf;

/// Configuration for [`amazon_like`].
#[derive(Debug, Clone)]
pub struct AmazonConfig {
    /// Number of user entities.
    pub users: usize,
    /// Number of product entities.
    pub products: usize,
    /// Mean ratings authored per user.
    pub ratings_per_user: usize,
    /// `also_viewed`/`also_bought` edges per product (mean).
    pub co_edges_per_product: usize,
    /// Dimensionality of the latent vectors.
    pub latent_dim: usize,
    /// Zipf exponent for product popularity.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AmazonConfig {
    fn default() -> Self {
        Self {
            users: 8_000,
            products: 12_000,
            ratings_per_user: 25,
            co_edges_per_product: 4,
            latent_dim: 8,
            zipf_exponent: 1.05,
            seed: 0x414d5a4e, // "AMZN"
        }
    }
}

impl AmazonConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            users: 80,
            products: 150,
            ratings_per_user: 6,
            co_edges_per_product: 2,
            ..Self::default()
        }
    }

    /// Scales the entity counts by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let d = Self::default();
        Self {
            users: ((d.users as f64) * factor).max(10.0) as usize,
            products: ((d.products as f64) * factor).max(20.0) as usize,
            ..d
        }
    }
}

fn latent<R: Rng>(rng: &mut R, dim: usize) -> Vec<f64> {
    let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
    v.into_iter().map(|x| x / norm).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Generates an Amazon-like dataset.
pub fn amazon_like(cfg: &AmazonConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut graph = KnowledgeGraph::new();
    let mut attrs = AttributeStore::new();

    let likes = graph.add_relation("likes");
    let dislikes = graph.add_relation("dislikes");
    let also_viewed = graph.add_relation("also_viewed");
    let also_bought = graph.add_relation("also_bought");

    let users: Vec<_> = (0..cfg.users)
        .map(|i| graph.add_entity(&format!("user_{i}")))
        .collect();
    let products: Vec<_> = (0..cfg.products)
        .map(|i| graph.add_entity(&format!("product_{i}")))
        .collect();

    for &u in &users {
        attrs.set("age", u, rng.gen_range(18.0f64..80.0).round());
    }

    let user_latent: Vec<Vec<f64>> = users
        .iter()
        .map(|_| latent(&mut rng, cfg.latent_dim))
        .collect();
    let prod_latent: Vec<Vec<f64>> = products
        .iter()
        .map(|_| latent(&mut rng, cfg.latent_dim))
        .collect();

    // Ratings → likes/dislikes edges + per-product rating accumulators.
    let zipf = Zipf::new(cfg.products, cfg.zipf_exponent);
    let mut rating_sum = vec![0.0f64; cfg.products];
    let mut rating_cnt = vec![0usize; cfg.products];
    for (ui, &u) in users.iter().enumerate() {
        let n = rng.gen_range(cfg.ratings_per_user / 2..=cfg.ratings_per_user * 3 / 2);
        for _ in 0..n.max(1) {
            let pi = zipf.sample(&mut rng);
            let score = dot(&user_latent[ui], &prod_latent[pi]) + rng.gen_range(-0.25..0.25);
            // Amazon ratings are whole stars 1..=5.
            let stars = to_star_rating(score).round().clamp(1.0, 5.0);
            rating_sum[pi] += stars;
            rating_cnt[pi] += 1;
            if stars >= 4.0 {
                #[expect(
                    clippy::expect_used,
                    reason = "both endpoints were just added to this graph by the generator"
                )]
                graph
                    .add_triple(u, likes, products[pi])
                    .expect("generated ids are valid");
            } else if stars <= 2.0 {
                #[expect(
                    clippy::expect_used,
                    reason = "both endpoints were just added to this graph by the generator"
                )]
                graph
                    .add_triple(u, dislikes, products[pi])
                    .expect("generated ids are valid");
            }
        }
    }

    // Quality attribute: mean received rating (3.0 if never rated).
    for (pi, &p) in products.iter().enumerate() {
        let quality = if rating_cnt[pi] > 0 {
            rating_sum[pi] / rating_cnt[pi] as f64
        } else {
            3.0
        };
        attrs.set("quality", p, quality);
    }

    // Product-to-product co-view/co-buy edges toward latent-space
    // neighbours: sample candidates, keep the closest.
    let candidates = 12usize.min(cfg.products.saturating_sub(1)).max(1);
    for (pi, &p) in products.iter().enumerate() {
        let n = rng.gen_range(0..=cfg.co_edges_per_product * 2);
        for _ in 0..n {
            let mut best: Option<(usize, f64)> = None;
            for _ in 0..candidates {
                let qi = rng.gen_range(0..cfg.products);
                if qi == pi {
                    continue;
                }
                let sim = dot(&prod_latent[pi], &prod_latent[qi]);
                if best.is_none_or(|(_, s)| sim > s) {
                    best = Some((qi, sim));
                }
            }
            if let Some((qi, _)) = best {
                let rel = if rng.gen_bool(0.5) {
                    also_viewed
                } else {
                    also_bought
                };
                #[expect(
                    clippy::expect_used,
                    reason = "both endpoints were just added to this graph by the generator"
                )]
                graph
                    .add_triple(p, rel, products[qi])
                    .expect("generated ids are valid");
            }
        }
    }

    Dataset {
        name: "amazon-like".to_owned(),
        graph,
        attributes: attrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_four_relation_types() {
        let ds = amazon_like(&AmazonConfig::tiny());
        assert_eq!(ds.graph.num_relations(), 4);
        for r in ["likes", "dislikes", "also_viewed", "also_bought"] {
            assert!(ds.graph.relation_id(r).is_some(), "missing relation {r}");
        }
    }

    #[test]
    fn quality_in_rating_range() {
        let ds = amazon_like(&AmazonConfig::tiny());
        for p in ds.entities_with_prefix("product_") {
            let q = ds.attributes.get("quality", p).unwrap().unwrap();
            assert!((1.0..=5.0).contains(&q), "quality {q} out of range");
        }
    }

    #[test]
    fn co_edges_are_product_to_product() {
        let ds = amazon_like(&AmazonConfig::tiny());
        let av = ds.graph.relation_id("also_viewed").unwrap();
        let ab = ds.graph.relation_id("also_bought").unwrap();
        for t in ds.graph.triples() {
            if t.relation == av || t.relation == ab {
                assert!(ds
                    .graph
                    .entity_name(t.head)
                    .unwrap()
                    .starts_with("product_"));
                assert!(ds
                    .graph
                    .entity_name(t.tail)
                    .unwrap()
                    .starts_with("product_"));
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = amazon_like(&AmazonConfig::tiny());
        let b = amazon_like(&AmazonConfig::tiny());
        assert_eq!(a.graph.triples(), b.graph.triples());
    }

    #[test]
    fn users_have_ages_products_do_not() {
        let ds = amazon_like(&AmazonConfig::tiny());
        let u = ds.graph.entity_id("user_0").unwrap();
        let p = ds.graph.entity_id("product_0").unwrap();
        assert!(ds.attributes.get("age", u).unwrap().is_some());
        assert!(ds.attributes.get("age", p).unwrap().is_none());
    }
}
