//! MovieLens-like dataset generator.
//!
//! Entities: users, movies, genres, tags. Relationship types (paper §VI-A):
//! `likes` (rating ≥ 4.0), `dislikes` (rating ≤ 2.0), `has_genre`,
//! `has_tag`. Ratings come from a latent-factor model — each user and
//! movie draws a latent taste vector, the rating is a noisy rescaled dot
//! product — so the resulting bipartite structure has real low-rank
//! geometry for the embedding to discover. Movie selection per user is
//! Zipfian (blockbusters get most ratings), matching real MovieLens skew.
//!
//! Attributes: `year` on movies (the AVG/MIN experiments, Figs. 13/16),
//! `age` on users.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{to_star_rating, Dataset};
use crate::attributes::AttributeStore;
use crate::graph::{KnowledgeGraph, Triple};
use crate::zipf::Zipf;

/// Configuration for [`movie_like`].
#[derive(Debug, Clone)]
pub struct MovieConfig {
    /// Number of user entities.
    pub users: usize,
    /// Number of movie entities.
    pub movies: usize,
    /// Number of genre entities.
    pub genres: usize,
    /// Number of tag entities.
    pub tags: usize,
    /// Mean ratings authored per user.
    pub ratings_per_user: usize,
    /// Dimensionality of the latent taste vectors.
    pub latent_dim: usize,
    /// Zipf exponent for movie popularity.
    pub zipf_exponent: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for MovieConfig {
    fn default() -> Self {
        Self {
            users: 3_000,
            movies: 5_000,
            genres: 20,
            tags: 200,
            ratings_per_user: 40,
            latent_dim: 8,
            zipf_exponent: 1.1,
            seed: 0x4d4f5649, // "MOVI"
        }
    }
}

impl MovieConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            users: 60,
            movies: 120,
            genres: 6,
            tags: 15,
            ratings_per_user: 8,
            ..Self::default()
        }
    }

    /// Scales the entity counts by `factor` (used by the benchmark sweeps).
    pub fn scaled(factor: f64) -> Self {
        let d = Self::default();
        Self {
            users: ((d.users as f64) * factor).max(10.0) as usize,
            movies: ((d.movies as f64) * factor).max(20.0) as usize,
            tags: ((d.tags as f64) * factor.sqrt()).max(5.0) as usize,
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

/// Generates a MovieLens-like dataset.
pub fn movie_like(cfg: &MovieConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut graph = KnowledgeGraph::new();
    let mut attrs = AttributeStore::new();
    // Facts in generation order; the graph takes them in one bulk load.
    let mut triples = Vec::new();

    let likes = graph.add_relation("likes");
    let dislikes = graph.add_relation("dislikes");
    let has_genre = graph.add_relation("has_genre");
    let has_tag = graph.add_relation("has_tag");

    let users: Vec<_> = (0..cfg.users)
        .map(|i| graph.add_entity(&format!("user_{i}")))
        .collect();
    let movies: Vec<_> = (0..cfg.movies)
        .map(|i| graph.add_entity(&format!("movie_{i}")))
        .collect();
    let genres: Vec<_> = (0..cfg.genres)
        .map(|i| graph.add_entity(&format!("genre_{i}")))
        .collect();
    let tags: Vec<_> = (0..cfg.tags)
        .map(|i| graph.add_entity(&format!("tag_{i}")))
        .collect();

    // Attributes.
    for &u in &users {
        attrs.set("age", u, rng.gen_range(18.0f64..80.0).round());
    }
    for &m in &movies {
        attrs.set("year", m, rng.gen_range(1930.0f64..2024.0).round());
    }

    // Latent taste vectors.
    let user_latent: Vec<Vec<f64>> = users
        .iter()
        .map(|_| latent(&mut rng, cfg.latent_dim))
        .collect();
    let movie_latent: Vec<Vec<f64>> = movies
        .iter()
        .map(|_| latent(&mut rng, cfg.latent_dim))
        .collect();

    // Genres/tags cluster in latent space: assign each movie the genre whose
    // anchor is nearest, plus a couple of Zipf-sampled tags.
    let genre_anchor: Vec<Vec<f64>> = genres
        .iter()
        .map(|_| latent(&mut rng, cfg.latent_dim))
        .collect();
    let tag_zipf = Zipf::new(cfg.tags.max(1), 1.0);
    for (mi, &m) in movies.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "dot products of finite latent vectors are never NaN"
        )]
        let best = genre_anchor
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                dot(a, &movie_latent[mi])
                    .partial_cmp(&dot(b, &movie_latent[mi]))
                    .expect("finite dot products")
            })
            .map(|(gi, _)| gi)
            .unwrap_or(0);
        triples.push(Triple {
            head: m,
            relation: has_genre,
            tail: genres[best],
        });
        if !tags.is_empty() {
            let ntags = rng.gen_range(0..3);
            for _ in 0..ntags {
                let t = tags[tag_zipf.sample(&mut rng)];
                triples.push(Triple {
                    head: m,
                    relation: has_tag,
                    tail: t,
                });
            }
        }
    }

    // Ratings: Zipf-skewed movie selection; latent dot product + noise.
    let movie_zipf = Zipf::new(cfg.movies, cfg.zipf_exponent);
    for (ui, &u) in users.iter().enumerate() {
        let n = rng.gen_range(cfg.ratings_per_user / 2..=cfg.ratings_per_user * 3 / 2);
        for _ in 0..n.max(1) {
            let mi = movie_zipf.sample(&mut rng);
            let score = dot(&user_latent[ui], &movie_latent[mi]) + rng.gen_range(-0.25..0.25);
            let stars = to_star_rating(score);
            if stars >= 4.0 {
                triples.push(Triple {
                    head: u,
                    relation: likes,
                    tail: movies[mi],
                });
            } else if stars <= 2.0 {
                triples.push(Triple {
                    head: u,
                    relation: dislikes,
                    tail: movies[mi],
                });
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "every endpoint was added to this graph by the generator"
    )]
    graph
        .extend_triples(&triples)
        .expect("generated ids are valid");
    Dataset {
        name: "movie-like".to_owned(),
        graph,
        attributes: attrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_four_relation_types() {
        let ds = movie_like(&MovieConfig::tiny());
        assert_eq!(ds.graph.num_relations(), 4);
        for r in ["likes", "dislikes", "has_genre", "has_tag"] {
            assert!(ds.graph.relation_id(r).is_some(), "missing relation {r}");
        }
    }

    #[test]
    fn entity_counts_match_config() {
        let cfg = MovieConfig::tiny();
        let ds = movie_like(&cfg);
        assert_eq!(
            ds.graph.num_entities(),
            cfg.users + cfg.movies + cfg.genres + cfg.tags
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = movie_like(&MovieConfig::tiny());
        let b = movie_like(&MovieConfig::tiny());
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        assert_eq!(a.graph.triples(), b.graph.triples());
    }

    #[test]
    fn different_seed_differs() {
        let a = movie_like(&MovieConfig::tiny());
        let mut cfg = MovieConfig::tiny();
        cfg.seed += 1;
        let b = movie_like(&cfg);
        assert_ne!(a.graph.triples(), b.graph.triples());
    }

    #[test]
    fn attributes_present() {
        let ds = movie_like(&MovieConfig::tiny());
        let u = ds.graph.entity_id("user_0").unwrap();
        let m = ds.graph.entity_id("movie_0").unwrap();
        let age = ds.attributes.get("age", u).unwrap().unwrap();
        assert!((18.0..=80.0).contains(&age));
        let year = ds.attributes.get("year", m).unwrap().unwrap();
        assert!((1930.0..=2024.0).contains(&year));
        // A movie has no age, a user no year.
        assert_eq!(ds.attributes.get("age", m).unwrap(), None);
        assert_eq!(ds.attributes.get("year", u).unwrap(), None);
    }

    #[test]
    fn every_movie_has_a_genre() {
        let ds = movie_like(&MovieConfig::tiny());
        let has_genre = ds.graph.relation_id("has_genre").unwrap();
        for m in ds.entities_with_prefix("movie_") {
            assert_eq!(ds.graph.tails(m, has_genre).count(), 1);
        }
    }

    #[test]
    fn likes_edges_exist_and_are_user_to_movie() {
        let ds = movie_like(&MovieConfig::tiny());
        let likes = ds.graph.relation_id("likes").unwrap();
        let mut count = 0;
        for t in ds.graph.triples() {
            if t.relation == likes {
                count += 1;
                assert!(ds.graph.entity_name(t.head).unwrap().starts_with("user_"));
                assert!(ds.graph.entity_name(t.tail).unwrap().starts_with("movie_"));
            }
        }
        assert!(count > 0, "no likes edges generated");
    }

    #[test]
    fn popularity_is_skewed() {
        // Zipf selection should concentrate ratings on low-index movies.
        let ds = movie_like(&MovieConfig::default());
        let first = ds.graph.degree(ds.graph.entity_id("movie_0").unwrap());
        let deep = ds.graph.degree(
            ds.graph
                .entity_id(&format!("movie_{}", MovieConfig::default().movies - 1))
                .unwrap(),
        );
        assert!(
            first > deep,
            "expected head movie degree ({first}) > tail movie degree ({deep})"
        );
    }
}
