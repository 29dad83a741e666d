//! The mutable index half of the split facade.
//!
//! [`IndexState`] owns the cracking (or bulk-loaded) [`CrackingIndex`]
//! and all query pipelines that reshape it. The immutable inputs —
//! graph, embeddings, transform — arrive per call as a
//! [`VkgSnapshot`], so a facade can guard *only* this state with a lock
//! while readers use the snapshot lock-free.

use vkg_kg::{EntityId, RelationId};
use vkg_sync::pool::Pool;

use crate::error::{VkgError, VkgResult};
use crate::geometry::Mbr;
use crate::index::CrackingIndex;
use crate::query::aggregate::{
    self, AggregateKind, AggregateResult, AggregateSpec, DeviationBound,
};
use crate::query::probability::{inverse_distance_probabilities, radius_for_threshold};
use crate::query::topk::{find_top_k, find_top_k_warm, TopKResult};
use crate::snapshot::{Direction, VkgSnapshot};

use super::{Accuracy, EngineStats, Neighbor, QueryEngine};

/// The cracking/bulk-loaded index plus its query pipelines, behind the
/// [`QueryEngine`] trait.
#[derive(Debug)]
pub struct IndexState {
    index: CrackingIndex,
    name: &'static str,
    accuracy: Accuracy,
}

impl IndexState {
    /// An **online cracking** index over the snapshot's projected points
    /// (starts as a root-only tree; queries shape it). The configured
    /// `threads` width drives the JL projection, the root sort orders
    /// and every later crack/search through one shared [`Pool`].
    pub fn cracking(snap: &VkgSnapshot) -> Self {
        Self::build(snap, Pool::new(snap.config().threads), false)
    }

    /// A fully **bulk-loaded** offline index (the BULKLOADCHUNK baseline
    /// of §VI). Like [`IndexState::cracking`], the configured `threads`
    /// width parallelizes the projection and the offline build.
    pub fn bulk_loaded(snap: &VkgSnapshot) -> Self {
        Self::build(snap, Pool::new(snap.config().threads), true)
    }

    /// Both constructors, on the caller's pool: the facade passes one
    /// that reports into its `PoolStats`.
    pub(crate) fn build(snap: &VkgSnapshot, pool: Pool, bulk: bool) -> Self {
        let cfg = snap.config();
        let points = snap.project_points_pooled(&pool);
        if bulk {
            let index = CrackingIndex::bulk_load_with_pool(
                points,
                cfg.leaf_capacity,
                cfg.fanout,
                cfg.beta,
                pool,
            );
            return Self::from_index(index, "bulk-load R-tree");
        }
        let mut index = CrackingIndex::with_pool(
            points,
            cfg.leaf_capacity,
            cfg.fanout,
            cfg.beta,
            cfg.split_strategy,
            pool,
        );
        index.set_query_aware_cost(cfg.query_aware_cost);
        Self::from_index(index, "cracking")
    }

    /// Wraps an already-built index (ablations that tweak the build).
    pub fn from_index(index: CrackingIndex, name: &'static str) -> Self {
        Self {
            index,
            name,
            accuracy: Accuracy::Approximate { min_overlap: 0.5 },
        }
    }

    /// [`QueryEngine::top_k_filtered`] warm-started from trusted
    /// `(id, s1_distance)` pairs — the result cache's partial-hit path
    /// (a cached top-k′ answer for the *same* query at the *same*
    /// epochs seeds Algorithm 3's shrinking ball). With `warm` empty
    /// this is exactly `top_k_filtered`.
    #[allow(
        clippy::too_many_arguments,
        reason = "the query field by field, plus the warm pairs and the filter"
    )]
    pub fn top_k_warm(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        warm: &[(u32, f64)],
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let q_s2 = snap.project(&q_s1);
        let known = snap.known_neighbors(entity, relation, direction);
        let cfg = snap.config();
        let embeddings = snap.embeddings();
        find_top_k_warm(
            &mut self.index,
            &q_s2,
            k,
            cfg.epsilon,
            cfg.alpha,
            warm,
            |_, id| embeddings.distance_to_entity(&q_s1, EntityId(id)),
            |id| id == entity.0 || known.binary_search(&id).is_ok() || !filter(EntityId(id)),
        )
    }

    /// The underlying index (benchmarks, invariant checks).
    pub fn index(&self) -> &CrackingIndex {
        &self.index
    }

    /// Mutable access to the underlying index (dynamic updates).
    pub fn index_mut(&mut self) -> &mut CrackingIndex {
        &mut self.index
    }
}

impl QueryEngine for IndexState {
    fn name(&self) -> &str {
        self.name
    }

    fn accuracy(&self) -> Accuracy {
        self.accuracy
    }

    fn top_k_filtered(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let q_s2 = snap.project(&q_s1);
        let known = snap.known_neighbors(entity, relation, direction);
        let cfg = snap.config();
        let embeddings = snap.embeddings();
        find_top_k(
            &mut self.index,
            &q_s2,
            k,
            cfg.epsilon,
            cfg.alpha,
            |_, id| embeddings.distance_to_entity(&q_s1, EntityId(id)),
            |id| id == entity.0 || known.binary_search(&id).is_ok() || !filter(EntityId(id)),
        )
    }

    /// Exact S₂ kNN through the index: the S₁ oracle of Algorithm 3 is
    /// replaced by the S₂ distance itself, so the (1+ε) ball certifies
    /// the exact answer.
    fn knn_in_s2(
        &mut self,
        snap: &VkgSnapshot,
        q_s1: &[f64],
        k: usize,
    ) -> VkgResult<Vec<Neighbor>> {
        let q_s2 = snap.project(q_s1);
        let cfg = snap.config();
        let result = find_top_k(
            &mut self.index,
            &q_s2,
            k,
            cfg.epsilon,
            cfg.alpha,
            // The oracle reads the index's own stored S₂ points (handed
            // through by the search), so no per-candidate re-projection.
            |points, id| points.distance_sq(id, &q_s2).sqrt(),
            |_| false,
        )?;
        Ok(result
            .predictions
            .into_iter()
            .map(|p| Neighbor {
                id: p.id,
                distance: p.distance,
            })
            .collect())
    }

    /// Answers an aggregate query over the probability ball around the
    /// query center (§V-B).
    fn aggregate(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
    ) -> VkgResult<AggregateResult> {
        // Validate the attribute and threshold before any work.
        let attr = match spec.kind {
            AggregateKind::Count => None,
            _ => {
                let name = spec
                    .attribute
                    .as_deref()
                    .ok_or(VkgError::MissingAttribute)?;
                if !snap.attributes().has_attribute(name) {
                    return Err(VkgError::UnknownAttribute(name.to_owned()));
                }
                Some(name.to_owned())
            }
        };
        if !spec.p_tau.is_finite() || spec.p_tau <= 0.0 || spec.p_tau > 1.0 {
            return Err(VkgError::InvalidParameter(format!(
                "probability threshold p_τ = {} outside (0, 1]",
                spec.p_tau
            )));
        }

        // Step 1: nearest predicted entity fixes d_min (probability 1).
        let top1 = self.top_k(snap, entity, relation, direction, 1)?;
        let Some(nearest) = top1.predictions.first().cloned() else {
            return Ok(AggregateResult {
                estimate: 0.0,
                accessed: 0,
                ball_size: 0,
                bound: DeviationBound {
                    mu: 0.0,
                    increment_mass: 0.0,
                },
                crack_regions: top1.crack_region.into_iter().collect(),
            });
        };
        let d_min = nearest.distance;
        let r_tau = radius_for_threshold(d_min, spec.p_tau);

        // Step 2: gather the ball members through the index.
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let q_s2 = snap.project(&q_s1);
        let cfg = snap.config();
        let region = Mbr::of_ball(&q_s2, r_tau * (1.0 + cfg.epsilon));
        let known = snap.known_neighbors(entity, relation, direction);
        // Candidates arrive with their contour element's member summary
        // (MBR plus centroid and spread of the in-region members). The
        // summary yields a cheap proxy for each member's S₁ distance: it
        // ranks which points to *access* and feeds the probability
        // estimate for the ones we never access (§V-B: the index knows
        // per-element counts and average distances; only accessed points
        // get exact distances).
        let mut filtered: Vec<(u32, f64)> = Vec::new();
        // The summary population is filtered the same way as the
        // candidates: the query entity itself, its already-known
        // neighbors (E′ semantics) and — for attribute aggregates —
        // entities without the attribute are excluded *before* the
        // element statistics are taken. Attribute presence is catalog
        // metadata, not a record access.
        let attributes = snap.attributes();
        let keep = |id: u32| {
            if id == entity.0 || known.binary_search(&id).is_ok() {
                return false;
            }
            match &attr {
                None => true,
                Some(name) => matches!(attributes.get(name, EntityId(id)), Ok(Some(_))),
            }
        };
        let s2_bias = vkg_transform::bounds::inverse_projected_distance_bias(cfg.alpha);
        self.index.search_region_elements(
            &region,
            |_| true,
            |id, summary| {
                if !keep(id) {
                    return;
                }
                // Two element-level proxies for the S₁ distance of a member.
                // The element-center distance works when the element is small
                // relative to its distance from the query; when the query
                // sits *inside* a coarse element it collapses towards zero,
                // so it is floored by the member cloud's RMS distance
                // √(‖q − centroid‖² + spread²), de-biased by E[√α/χ_α] for
                // the S₂ → S₁ inverse-distance projection bias.
                let center = summary.mbr.center();
                #[expect(
                    clippy::indexing_slicing,
                    reason = "MBR centers have the index dimensionality, which q_s2 never exceeds"
                )]
                let d_center: f64 = center[..q_s2.len()]
                    .iter()
                    .zip(&q_s2)
                    .map(|(c, q)| (c - q) * (c - q))
                    .sum::<f64>()
                    .sqrt();
                let delta_sq: f64 = summary
                    .centroid
                    .iter()
                    .zip(&q_s2)
                    .map(|(c, q)| (c - q) * (c - q))
                    .sum();
                let d_moment = (delta_sq + summary.spread_sq).sqrt() * s2_bias;
                let d_proxy = d_center.max(d_moment);
                // The anchoring nearest entity is always accessed first.
                let key = if id == nearest.id { 0.0 } else { d_proxy };
                filtered.push((id, key));
            },
        );
        filtered.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        // Step 3: access the `a` most-promising points exactly; estimate
        // the rest from their element geometry.
        let budget = spec.sample_size.unwrap_or(usize::MAX);
        let mut accessed: Vec<(f64, f64)> = Vec::new(); // (distance, value)
        let mut unaccessed_dists: Vec<f64> = Vec::new();
        let mut s1_evals = 0u64;
        let embeddings = snap.embeddings();
        for (id, approx) in filtered {
            if accessed.len() < budget {
                let d = embeddings.distance_to_entity(&q_s1, EntityId(id));
                s1_evals += 1;
                if d > r_tau {
                    continue;
                }
                let value = match &attr {
                    None => 1.0,
                    Some(name) => attributes
                        .get(name, EntityId(id))
                        .map_err(VkgError::from)?
                        .ok_or_else(|| VkgError::UnknownAttribute(name.clone()))?,
                };
                accessed.push((d, value));
            } else if approx <= r_tau {
                unaccessed_dists.push(approx);
            }
        }
        self.index.stats_mut().s1_distance_evals += s1_evals;
        accessed.sort_by(|x, y| x.0.total_cmp(&y.0));

        let distances: Vec<f64> = accessed.iter().map(|m| m.0).collect();
        let values: Vec<f64> = accessed.iter().map(|m| m.1).collect();
        // Probabilities are relative to the closest member of the result
        // population (for attribute aggregates the closest *attribute
        // holder*, which may differ from the global anchor).
        let ref_d = distances.first().copied().unwrap_or(d_min).max(1e-12);
        let mut probs = inverse_distance_probabilities(&distances);
        probs.extend(
            unaccessed_dists
                .into_iter()
                .map(|d| (ref_d / d.max(ref_d)).min(1.0)),
        );
        let a = accessed.len();
        let b = probs.len();

        // Step 4: estimate + Theorem 4 bound, then crack for the region.
        #[expect(
            clippy::indexing_slicing,
            reason = "a = accessed.len() <= probs.len(): probs holds accessed then unaccessed"
        )]
        let estimate = match spec.kind {
            AggregateKind::Count => aggregate::estimate_count(&probs),
            AggregateKind::Sum => aggregate::estimate_sum(&values, &probs),
            AggregateKind::Avg => aggregate::estimate_avg(&values, &probs),
            AggregateKind::Max => aggregate::estimate_max(&values, &probs[..a]),
            AggregateKind::Min => aggregate::estimate_min(&values, &probs[..a]),
        };
        // v_m for the unaccessed points, estimated from the sample (the
        // paper's no-domain-knowledge alternative). For AVG the paper
        // divides both μ and the martingale increments by the count, so
        // the increment values are v_i / E[count].
        let v_max = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bound = if spec.kind == AggregateKind::Avg {
            let count = aggregate::estimate_count(&probs).max(1.0);
            let scaled: Vec<f64> = values.iter().map(|v| v / count).collect();
            #[expect(
                clippy::indexing_slicing,
                reason = "a = accessed.len() <= probs.len(): probs holds accessed then unaccessed"
            )]
            aggregate::deviation_bound(estimate, &scaled, &probs[a..], v_max / count)
        } else {
            #[expect(
                clippy::indexing_slicing,
                reason = "a = accessed.len() <= probs.len(): probs holds accessed then unaccessed"
            )]
            aggregate::deviation_bound(estimate, &values, &probs[a..], v_max)
        };

        self.index.crack(&region);

        // Both cracks this query performed, in execution order, so a
        // cache hit can replay them (inner top-1 first, then the ball).
        let mut crack_regions: Vec<Mbr> = top1.crack_region.into_iter().collect();
        crack_regions.push(region);

        Ok(AggregateResult {
            estimate,
            accessed: a,
            ball_size: b,
            bound,
            crack_regions,
        })
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            nodes: self.index.node_count(),
            bytes: self.index.index_bytes(),
            counters: *self.index.stats(),
        }
    }

    fn reset_access_counters(&mut self) {
        self.index.stats_mut().reset_access_counters();
    }
}
