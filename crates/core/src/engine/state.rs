//! The mutable index half of the split facade.
//!
//! [`IndexState`] owns the cracking (or bulk-loaded) [`CrackingIndex`]
//! and all query pipelines over it. The immutable inputs — graph,
//! embeddings, transform — arrive per call as a [`VkgSnapshot`], so a
//! facade can guard *only* this state with a lock while readers use the
//! snapshot lock-free.
//!
//! Every pipeline has a `&self` *read half* that traverses the index and
//! returns the answer with the region Algorithm 3 line 9 cracks for.
//! The facade runs it under the lock's shared side and applies the
//! crack afterwards; the `&mut` [`QueryEngine`] methods are read half,
//! then [`CrackingIndex::crack`].

use vkg_kg::{EntityId, RelationId};
use vkg_sync::pool::Pool;

use crate::error::{VkgError, VkgResult};
use crate::geometry::{Mbr, PointSet};
use crate::index::{CrackingIndex, ElementSummary, S1Counter};
use crate::query::aggregate::{self, AggregateKind, AggregateResult, AggregateSpec};
use crate::query::probability::{inverse_distance_probabilities, radius_for_threshold};
use crate::query::topk::{find_top_k_read, Prediction, TopKResult};
use crate::snapshot::{Direction, VkgSnapshot};

use super::{Accuracy, EngineStats, QueryEngine};

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
    /// `threads` width builds the root sort orders and nothing after
    /// them: every query, crack and write on the index is serial.
    pub fn cracking(snap: &VkgSnapshot) -> Self {
        Self::build(snap, snap.project_points(), false)
    }

    /// A fully **bulk-loaded** offline index (the BULKLOADCHUNK baseline
    /// of §VI). The configured `threads` width is the width of that one
    /// offline build; the index it returns serves serially.
    pub fn bulk_loaded(snap: &VkgSnapshot) -> Self {
        Self::build(snap, snap.project_points(), true)
    }

    /// Both constructors, over the snapshot's already projected `points`
    /// (the facade checks them first). The pool of `threads` workers
    /// lives for this call.
    pub(crate) fn build(snap: &VkgSnapshot, points: PointSet, bulk: bool) -> Self {
        let cfg = snap.config();
        let pool = Pool::new(cfg.threads);
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

    fn from_index(index: CrackingIndex, name: &'static str) -> Self {
        Self {
            index,
            name,
            accuracy: Accuracy::Approximate { min_overlap: 0.5 },
        }
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

/// One contour element's candidates in the flat member vector of a
/// sampled aggregate.
#[derive(Debug)]
struct ElementRun {
    /// The element's proxy for the S₁ distance of any of its members.
    proxy: f64,
    /// Smallest candidate id, ordering elements whose proxies tie.
    first: u32,
    /// Where the element's candidates start in the member vector.
    start: usize,
    /// How many they are.
    len: usize,
}

/// The element-level proxy for the S₁ distance from the query to a
/// member of the summarized element: the larger of two estimates. The
/// element-center distance works when the element is small relative to
/// its distance from the query; when the query sits *inside* a coarse
/// element it collapses towards zero, so it is floored by the member
/// cloud's RMS distance √(‖q − centroid‖² + spread²), de-biased by
/// E[√α/χ_α] (`s2_bias`) for the S₂ → S₁ inverse-distance projection
/// bias.
fn element_proxy(summary: &ElementSummary<'_>, q_s2: &[f64], s2_bias: f64) -> f64 {
    let center = summary.mbr.center();
    let d_center: f64 = center
        .iter()
        .zip(q_s2)
        .map(|(c, q)| (c - q) * (c - q))
        .sum::<f64>()
        .sqrt();
    let delta_sq: f64 = summary
        .centroid
        .iter()
        .zip(q_s2)
        .map(|(c, q)| (c - q) * (c - q))
        .sum();
    let d_moment = (delta_sq + summary.spread_sq).sqrt() * s2_bias;
    d_center.max(d_moment)
}

/// The attribute column an aggregate reads (`None` for COUNT, which
/// reads none).
fn attribute_column<'a>(
    snap: &'a VkgSnapshot,
    spec: &AggregateSpec,
) -> VkgResult<Option<&'a [Option<f64>]>> {
    if spec.kind == AggregateKind::Count {
        return Ok(None);
    }
    let name = spec
        .attribute
        .as_deref()
        .ok_or(VkgError::MissingAttribute)?;
    let column = snap.attributes().column(name);
    Ok(Some(column.ok_or_else(|| {
        VkgError::UnknownAttribute(name.to_owned())
    })?))
}

impl IndexState {
    /// The read half of [`QueryEngine::top_k_filtered`]: the answer, and
    /// the region the query cracks the index for (`None` when nothing
    /// was predictable).
    pub fn top_k_read(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<(TopKResult, Option<Mbr>)> {
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let q_s2 = snap.project(&q_s1);
        let known = snap.known_neighbors(entity, relation, direction);
        let cfg = snap.config();
        let embeddings = snap.embeddings();
        find_top_k_read(
            &self.index,
            &q_s2,
            k,
            cfg.epsilon,
            cfg.alpha,
            |_, ids, out| embeddings.distances_to_entities(&q_s1, ids, out),
            |id| id == entity.0 || known.binary_search(&id).is_ok() || !filter(EntityId(id)),
        )
    }

    /// First read half of [`QueryEngine::aggregate`] (§V-B step 1): the
    /// spec is validated before any work, then the nearest predicted
    /// entity — whose distance fixes `d_min` (probability 1) — is read
    /// with the region that top-1 cracks for. Both `None` when nothing
    /// is predictable: the aggregate is then [`AggregateResult::empty`].
    pub fn aggregate_anchor(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
    ) -> VkgResult<(Option<Prediction>, Option<Mbr>)> {
        attribute_column(snap, spec)?;
        if !spec.p_tau.is_finite() || spec.p_tau <= 0.0 || spec.p_tau > 1.0 {
            return Err(VkgError::InvalidParameter(format!(
                "probability threshold p_τ = {} outside (0, 1]",
                spec.p_tau
            )));
        }
        let (top1, region) = self.top_k_read(snap, entity, relation, direction, 1, &|_| true)?;
        Ok((top1.predictions.into_iter().next(), region))
    }

    /// Second read half of [`QueryEngine::aggregate`] (steps 2–4): reads
    /// the probability ball around the query center, anchored at the
    /// `nearest` entity [`IndexState::aggregate_anchor`] found against
    /// the same snapshot, and estimates over it. Returns the answer and
    /// the ball's box, which the query cracks for. The read and the
    /// estimate are [`IndexState::aggregate_ball_read`] and
    /// [`BallRead::estimate`], which the facade runs on either side of
    /// dropping its index guard.
    pub fn aggregate_ball(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
        nearest: &Prediction,
    ) -> VkgResult<(AggregateResult, Mbr)> {
        let (ball, region) =
            self.aggregate_ball_read(snap, entity, relation, direction, spec, nearest)?;
        Ok((ball.estimate(snap, spec)?, region))
    }

    /// Step 2 of the ball round, the part that reads the tree: the ball's
    /// box through the index. A *candidate* is a point of the box that is
    /// not the query entity itself or an already-known neighbor (E′
    /// semantics) and — for attribute aggregates — has the attribute.
    /// Attribute presence is catalog metadata, not a record access.
    /// Returns what the read gathered and the box, which the query
    /// cracks for.
    pub fn aggregate_ball_read(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
        nearest: &Prediction,
    ) -> VkgResult<(BallRead, Mbr)> {
        // The column is resolved here, once, not by name per candidate.
        let column = attribute_column(snap, spec)?;
        let d_min = nearest.distance;
        let r_tau = radius_for_threshold(d_min, spec.p_tau);
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let q_s2 = snap.project(&q_s1);
        let cfg = snap.config();
        let region = Mbr::of_ball(&q_s2, r_tau * (1.0 + cfg.epsilon));
        let known = snap.known_neighbors(entity, relation, direction);
        let candidates = Candidates {
            entity: entity.0,
            known: &known,
            column,
        };
        let gathered = match spec.sample_size {
            // Full access: the region read sets a bit per point id in the
            // box; read back lowest bit first, the ids come ascending
            // without a sort. Which of them are candidates is left to the
            // access.
            None => {
                let mut in_box = vec![0u64; self.index.points().len().div_ceil(64)];
                self.index.search_region(&region, |id| {
                    if let Some(word) = in_box.get_mut(id as usize / 64) {
                        *word |= 1 << (id % 64);
                    }
                });
                Gathered::Full(in_box)
            }
            // Sampled access. The proxy for an unaccessed point's S₁
            // distance is a property of its contour element (§V-B: the
            // index knows per-element counts and average distances;
            // only accessed points get exact distances), so elements
            // are what gets ranked: candidates sit in one flat vector,
            // one run per element. The summary behind a proxy is taken
            // over *all* of the element's in-region points, the
            // non-candidates among them included (the query entity and
            // its known neighbors sit right next to `q`): the proxies
            // lean near. ROADMAP item 2 has the decision to make.
            Some(budget) => {
                let s2_bias = vkg_transform::bounds::inverse_projected_distance_bias(cfg.alpha);
                let mut members: Vec<u32> = Vec::new();
                let mut runs: Vec<ElementRun> = Vec::new();
                let mut anchored = false;
                self.index.search_region_elements(&region, |ids, summary| {
                    let start = members.len();
                    let mut first = u32::MAX;
                    for &id in ids {
                        if candidates.value(id).is_none() {
                            continue;
                        }
                        // The anchoring nearest entity is accessed first,
                        // at proxy 0, outside its element's run.
                        if id == nearest.id {
                            anchored = true;
                        } else {
                            members.push(id);
                            first = first.min(id);
                        }
                    }
                    let len = members.len() - start;
                    if len > 0 {
                        runs.push(ElementRun {
                            proxy: element_proxy(summary, &q_s2, s2_bias),
                            first,
                            start,
                            len,
                        });
                    }
                });
                Gathered::Sampled {
                    budget,
                    members,
                    runs,
                    anchored,
                }
            }
        };
        let ball = BallRead {
            entity: entity.0,
            nearest: nearest.id,
            d_min,
            r_tau,
            q_s1,
            known,
            gathered,
            s1: self.index.s1_counter(),
        };
        Ok((ball, region))
    }
}

/// Who counts in a ball, and with what value: every point but the query
/// entity and its known neighbors, and — for an attribute aggregate —
/// only those holding the attribute.
struct Candidates<'a> {
    entity: u32,
    known: &'a [u32],
    column: Option<&'a [Option<f64>]>,
}

impl Candidates<'_> {
    /// What `id` contributes, or `None` for a point that is no candidate.
    fn value(&self, id: u32) -> Option<f64> {
        if id == self.entity || self.known.binary_search(&id).is_ok() {
            return None;
        }
        match self.column {
            None => Some(1.0),
            Some(column) => column.get(EntityId(id).index()).copied().flatten(),
        }
    }
}

/// What a ball's box yielded through the tree.
#[derive(Debug)]
enum Gathered {
    /// Full access: one bit per point id in the box.
    Full(Vec<u64>),
    /// Sampled access: the candidates, one run per contour element, and
    /// whether the anchoring entity was among them.
    Sampled {
        budget: usize,
        members: Vec<u32>,
        runs: Vec<ElementRun>,
        anchored: bool,
    },
}

/// An aggregate's ball as [`IndexState::aggregate_ball_read`] read it
/// through the tree. It owns everything it holds — no borrow of the
/// index — so the rest of the aggregate ([`BallRead::estimate`]) runs
/// without the index lock: the S₁ access, the sort and the estimate are
/// a function of the snapshot the read was taken against and of the ids
/// it gathered.
#[derive(Debug)]
pub struct BallRead {
    entity: u32,
    /// The anchoring nearest entity.
    nearest: u32,
    d_min: f64,
    r_tau: f64,
    q_s1: Vec<f64>,
    /// The query entity's known neighbors, sorted.
    known: Vec<u32>,
    gathered: Gathered,
    /// Where the S₁ evaluations of the access are counted.
    s1: S1Counter,
}

impl BallRead {
    /// Steps 3–4 of the ball round: accesses the `a` most-promising
    /// candidates exactly, estimates the rest from their element
    /// geometry, and returns the estimate with its Theorem 4 bound.
    /// `snap` and `spec` must be the ones the read was taken with.
    pub fn estimate(self, snap: &VkgSnapshot, spec: &AggregateSpec) -> VkgResult<AggregateResult> {
        let candidates = Candidates {
            entity: self.entity,
            known: &self.known,
            column: attribute_column(snap, spec)?,
        };
        let (q_s1, r_tau) = (&self.q_s1, self.r_tau);
        let embeddings = snap.embeddings();
        let mut s1_evals = 0u64;
        let mut accessed: Vec<(f64, f64)> = Vec::new(); // (distance, value)
        let mut unaccessed_dists: Vec<f64> = Vec::new();
        match self.gathered {
            // Full access: every candidate is accessed and `accessed` is
            // re-sorted by S₁ distance below, so neither an access order
            // nor an element summary is needed. The ids come ascending,
            // so the embedding rows (four at a time) and the attribute
            // column are read front to back. The candidates go through
            // the kernel in buffers of one block: nothing the size of the
            // ball is allocated but `accessed`.
            Gathered::Full(in_box) => {
                const BLOCK: usize = 64;
                let mut ids = (0u32..)
                    .zip(in_box)
                    .flat_map(|(w, mut word)| {
                        std::iter::from_fn(move || {
                            let bit = (word != 0).then(|| word.trailing_zeros())?;
                            word &= word - 1;
                            Some(w * 64 + bit)
                        })
                    })
                    .filter_map(|id| Some((id, candidates.value(id)?)));
                let mut block: Vec<u32> = Vec::with_capacity(BLOCK);
                let mut values: Vec<f64> = Vec::with_capacity(BLOCK);
                let mut dists: Vec<f64> = Vec::with_capacity(BLOCK);
                loop {
                    block.clear();
                    values.clear();
                    for (id, value) in ids.by_ref().take(BLOCK) {
                        block.push(id);
                        values.push(value);
                    }
                    if block.is_empty() {
                        break;
                    }
                    dists.resize(block.len(), 0.0);
                    embeddings.distances_to_entities(q_s1, &block, &mut dists);
                    s1_evals += block.len() as u64;
                    accessed.extend(
                        dists
                            .iter()
                            .zip(&values)
                            .map(|(&d, &v)| (d, v))
                            .filter(|&(d, _)| d <= r_tau),
                    );
                }
            }
            Gathered::Sampled {
                budget,
                mut members,
                mut runs,
                anchored,
            } => {
                // One exact record access: the (distance, value) of a
                // candidate inside the S₁ ball; `None` for a point that
                // is no candidate or that the box over-covered.
                let mut access = |id: u32| -> Option<(f64, f64)> {
                    let value = candidates.value(id)?;
                    s1_evals += 1;
                    let d = embeddings.distance_to_entity(q_s1, EntityId(id));
                    (d <= r_tau).then_some((d, value))
                };
                // Elements by proxy, ids ascending inside one: the order
                // a sort of all candidates by (proxy, id) would give
                // (short of two elements with bit-equal proxies, whose
                // members it would interleave).
                runs.sort_by(|a, b| a.proxy.total_cmp(&b.proxy).then(a.first.cmp(&b.first)));
                if anchored {
                    if budget > 0 {
                        accessed.extend(access(self.nearest));
                    } else {
                        unaccessed_dists.push(0.0);
                    }
                }
                for run in &runs {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "a run is the range of `members` its element's pushes filled"
                    )]
                    let ids = &mut members[run.start..run.start + run.len];
                    let mut rest = ids.len();
                    if accessed.len() < budget {
                        ids.sort_unstable();
                        for &id in ids.iter() {
                            if accessed.len() >= budget {
                                break;
                            }
                            accessed.extend(access(id));
                            rest -= 1;
                        }
                    }
                    // Past the budget a member contributes its element's
                    // proxy and nothing else, so its place in the run is
                    // moot and the run stays unsorted.
                    if run.proxy <= r_tau {
                        unaccessed_dists.resize(unaccessed_dists.len() + rest, run.proxy);
                    }
                }
            }
        }
        self.s1.add(s1_evals);
        aggregate::sort_by_key_stable(&mut accessed, |m| m.0);

        let distances: Vec<f64> = accessed.iter().map(|m| m.0).collect();
        let values: Vec<f64> = accessed.iter().map(|m| m.1).collect();
        // Probabilities are relative to the closest member of the result
        // population (for attribute aggregates the closest *attribute
        // holder*, which may differ from the global anchor).
        let ref_d = distances.first().copied().unwrap_or(self.d_min).max(1e-12);
        let mut probs = inverse_distance_probabilities(&distances);
        probs.extend(
            unaccessed_dists
                .into_iter()
                .map(|d| (ref_d / d.max(ref_d)).min(1.0)),
        );
        let a = accessed.len();
        let b = probs.len();

        // Step 4: estimate + Theorem 4 bound.
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

        Ok(AggregateResult {
            estimate,
            accessed: a,
            ball_size: b,
            bound,
        })
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
        let (result, region) = self.top_k_read(snap, entity, relation, direction, k, filter)?;
        if let Some(region) = region {
            self.index.crack(&region);
        }
        Ok(result)
    }

    /// Answers an aggregate query over the probability ball around the
    /// query center (§V-B): the two read halves, each followed by its
    /// crack.
    fn aggregate(
        &mut self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
    ) -> VkgResult<AggregateResult> {
        let (nearest, region) = self.aggregate_anchor(snap, entity, relation, direction, spec)?;
        if let Some(region) = region {
            self.index.crack(&region);
        }
        let Some(nearest) = nearest else {
            return Ok(AggregateResult::empty());
        };
        let (result, region) =
            self.aggregate_ball(snap, entity, relation, direction, spec, &nearest)?;
        self.index.crack(&region);
        Ok(result)
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            nodes: self.index.node_count(),
            bytes: self.index.index_bytes(),
            counters: self.index.stats(),
        }
    }

    fn reset_access_counters(&mut self) {
        self.index.reset_access_counters();
    }
}
