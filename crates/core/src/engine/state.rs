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
use crate::query::probability::radius_for_threshold;
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

/// `x`'s place in the [`f64::total_cmp`] order, as an integer.
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
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

/// The attribute column an aggregate reads: its values, and which ids
/// hold one (see [`vkg_kg::AttributeStore::presence`]).
#[derive(Debug, Clone, Copy)]
struct Column<'a> {
    values: &'a [Option<f64>],
    present: &'a [u64],
}

impl Column<'_> {
    /// The value of an id the column holds one for.
    fn value(&self, id: u32) -> Option<f64> {
        self.values.get(EntityId(id).index()).copied().flatten()
    }
}

/// The attribute column an aggregate reads (`None` for COUNT, which
/// reads none).
fn attribute_column<'a>(
    snap: &'a VkgSnapshot,
    spec: &AggregateSpec,
) -> VkgResult<Option<Column<'a>>> {
    if spec.kind == AggregateKind::Count {
        return Ok(None);
    }
    let name = spec
        .attribute
        .as_deref()
        .ok_or(VkgError::MissingAttribute)?;
    let attributes = snap.attributes();
    let column = attributes.column(name).zip(attributes.presence(name));
    let (values, present) = column.ok_or_else(|| VkgError::UnknownAttribute(name.to_owned()))?;
    Ok(Some(Column { values, present }))
}

/// One bit per point id of `words`, cleared for every id that is no
/// candidate of a ball: the query entity itself, its known neighbors (E′
/// semantics) and — for an attribute aggregate — every id without the
/// attribute. Attribute presence is catalog metadata, not a record
/// access.
fn keep_candidates(words: &mut [u64], column: Option<Column<'_>>, entity: u32, known: &[u32]) {
    if let Some(column) = column {
        let present = column.present.iter().chain(std::iter::repeat(&0));
        for (word, &held) in words.iter_mut().zip(present) {
            *word &= held;
        }
    }
    for &id in known.iter().chain([&entity]) {
        if let Some(word) = words.get_mut(id as usize / 64) {
            *word &= !(1 << (id % 64));
        }
    }
}

/// Whether bit `id` of `words` is set.
fn bit(words: &[u64], id: u32) -> bool {
    words
        .get(id as usize / 64)
        .is_some_and(|word| word >> (id % 64) & 1 == 1)
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
    ) -> VkgResult<(AggregateResult, Option<Mbr>)> {
        let (ball, region) =
            self.aggregate_ball_read(snap, entity, relation, direction, spec, nearest)?;
        Ok((ball.estimate(snap, spec)?, region))
    }

    /// Step 2 of the ball round, the part that reads the tree: the ball's
    /// box through the index. A *candidate* is a point of the box that is
    /// not the query entity itself or an already-known neighbor (E′
    /// semantics) and — for attribute aggregates — has the attribute.
    /// Returns what the read gathered, and the box when the query's crack
    /// for it would split anything ([`CrackingIndex::wants_crack`], which
    /// the read answers from the in-box counts it takes anyway).
    pub fn aggregate_ball_read(
        &self,
        snap: &VkgSnapshot,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
        nearest: &Prediction,
    ) -> VkgResult<(BallRead, Option<Mbr>)> {
        // The column is resolved here, once, not by name per candidate.
        let column = attribute_column(snap, spec)?;
        let d_min = nearest.distance;
        let r_tau = radius_for_threshold(d_min, spec.p_tau);
        let q_s1 = snap.query_point_s1(entity, relation, direction)?;
        let q_s2 = snap.project(&q_s1);
        let cfg = snap.config();
        let region = Mbr::of_ball(&q_s2, r_tau * (1.0 + cfg.epsilon));
        let known = snap.known_neighbors(entity, relation, direction);
        let words = self.index.points().len().div_ceil(64);
        let (gathered, wants_crack) = match spec.sample_size {
            // Full access: the region read sets a bit per point id in the
            // box, and the candidate mask clears the rest; read back
            // lowest bit first, the ids come ascending without a sort.
            None => {
                let mut in_box = vec![0u64; words];
                let wants_crack = self.index.search_region(&region, |id| {
                    if let Some(word) = in_box.get_mut(id as usize / 64) {
                        *word |= 1 << (id % 64);
                    }
                });
                keep_candidates(&mut in_box, column, entity.0, &known);
                (Gathered::Full(in_box), wants_crack)
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
            // lean near. ROADMAP item 5 has the decision to make.
            Some(budget) => {
                let mut candidates = vec![u64::MAX; words];
                keep_candidates(&mut candidates, column, entity.0, &known);
                let s2_bias = vkg_transform::bounds::inverse_projected_distance_bias(cfg.alpha);
                let mut members: Vec<u32> = Vec::new();
                let mut runs: Vec<ElementRun> = Vec::new();
                let mut anchored = false;
                let wants_crack = self.index.search_region_elements(&region, |ids, summary| {
                    let start = members.len();
                    let mut first = u32::MAX;
                    for &id in ids {
                        if !bit(&candidates, id) {
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
                let gathered = Gathered::Sampled {
                    budget,
                    members,
                    runs,
                    anchored,
                };
                (gathered, wants_crack)
            }
        };
        let ball = BallRead {
            nearest: nearest.id,
            d_min,
            r_tau,
            q_s1,
            gathered,
            s1: self.index.s1_counter(),
        };
        Ok((ball, wants_crack.then_some(region)))
    }
}

/// What a ball's box yielded through the tree.
#[derive(Debug)]
enum Gathered {
    /// Full access: one bit per candidate id in the box.
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
    /// The anchoring nearest entity.
    nearest: u32,
    d_min: f64,
    r_tau: f64,
    q_s1: Vec<f64>,
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
        let column = attribute_column(snap, spec)?;
        // What a candidate contributes: 1 to a COUNT, its value to the
        // rest. A candidate holds the attribute, so it is never `None`.
        let value = |id: u32| column.map_or(Some(1.0), |c| c.value(id));
        let (q_s1, r_tau) = (&self.q_s1, self.r_tau);
        let embeddings = snap.embeddings();
        let mut s1_evals = 0u64;
        let (accessed, unaccessed) = match self.gathered {
            // Full access: every candidate is accessed, in one sweep over
            // the bitmap's words. The ids come ascending, so the embedding
            // rows (four at a time) and the attribute column are read
            // front to back, and go through the kernel in buffers of
            // about one block; a value is read only for a member of the
            // S₁ ball. The sort by distance counts its histogram as the
            // members arrive.
            Gathered::Full(in_box) => {
                const BLOCK: usize = 64;
                let candidates = in_box.iter().map(|w| w.count_ones() as usize).sum();
                let mut ball = aggregate::DistanceSort::new(self.d_min, r_tau, candidates);
                let mut block: Vec<u32> = Vec::with_capacity(2 * BLOCK);
                let mut dists: Vec<f64> = Vec::with_capacity(2 * BLOCK);
                let mut access = |block: &mut Vec<u32>| {
                    dists.resize(block.len(), 0.0);
                    embeddings.distances_to_entities(q_s1, block, &mut dists);
                    s1_evals += block.len() as u64;
                    for (&id, &d) in block.iter().zip(&dists) {
                        if d <= r_tau {
                            if let Some(v) = value(id) {
                                ball.push(d, v);
                            }
                        }
                    }
                    block.clear();
                };
                for (w, mut word) in (0u32..).zip(in_box) {
                    while word != 0 {
                        block.push(w * 64 + word.trailing_zeros());
                        word &= word - 1;
                    }
                    if block.len() >= BLOCK {
                        access(&mut block);
                    }
                }
                access(&mut block);
                (ball.into_sorted(), Vec::new())
            }
            Gathered::Sampled {
                budget,
                mut members,
                mut runs,
                anchored,
            } => {
                let mut accessed: Vec<(f64, f64)> = Vec::new();
                // Runs of (proxy, members): an element's unaccessed
                // members share its proxy.
                let mut unaccessed: Vec<(f64, usize)> = Vec::new();
                // One exact record access: the (distance, value) of a
                // candidate inside the S₁ ball; `None` for a point that
                // the box over-covered.
                let mut access = |id: u32| -> Option<(f64, f64)> {
                    s1_evals += 1;
                    let d = embeddings.distance_to_entity(q_s1, EntityId(id));
                    (d <= r_tau).then(|| value(id).map(|v| (d, v))).flatten()
                };
                // Elements by proxy, ids ascending inside one: the order
                // a sort of all candidates by (proxy, id) would give
                // (short of two elements with bit-equal proxies, whose
                // members it would interleave). Elements hold disjoint
                // ids, so no two runs tie on (proxy, first id) and an
                // unstable sort gives the stable sort's order.
                runs.sort_unstable_by_key(|run| (total_order_key(run.proxy), run.first));
                if anchored {
                    if budget > 0 {
                        accessed.extend(access(self.nearest));
                    } else {
                        unaccessed.push((0.0, 1));
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
                    if run.proxy <= r_tau && rest > 0 {
                        unaccessed.push((run.proxy, rest));
                    }
                }
                aggregate::sort_by_key_stable(&mut accessed, |m| m.0);
                (accessed, unaccessed)
            }
        };
        self.s1.add(s1_evals);
        // Probabilities are relative to the closest member of the result
        // population (for attribute aggregates the closest *attribute
        // holder*, which may differ from the global anchor).
        Ok(aggregate::estimate_ball(
            spec.kind,
            &accessed,
            &unaccessed,
            self.d_min,
        ))
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
        if let Some(region) = region {
            self.index.crack(&region);
        }
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

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vkg_embed::EmbeddingStore;
    use vkg_kg::{AttributeStore, KnowledgeGraph};

    use super::*;
    use crate::config::{SplitStrategy, VkgConfig};
    use crate::query::probability::inverse_distance_probabilities;
    use crate::vkg::VirtualKnowledgeGraph;

    /// The per-id candidate test the bitmaps replaced.
    struct Candidates<'a> {
        entity: u32,
        known: &'a [u32],
        column: Option<&'a [Option<f64>]>,
    }

    impl Candidates<'_> {
        fn value(&self, id: u32) -> Option<f64> {
            if id == self.entity || self.known.binary_search(&id).is_ok() {
                return None;
            }
            match self.column {
                None => Some(1.0),
                Some(column) => column.get(id as usize).copied().flatten(),
            }
        }
    }

    /// The ball round composed per id, as it was before the sweep: the
    /// region read tests every member against [`Candidates`]; full access
    /// walks the in-box ids one at a time, reading each candidate's value
    /// before its distance; the members are sorted by `sort_by` and the
    /// estimators and the bound each take their own pass. Returns the
    /// answer and the ball's box.
    fn per_id_ball(
        state: &IndexState,
        snap: &VkgSnapshot,
        (entity, relation, direction): (EntityId, RelationId, Direction),
        spec: &AggregateSpec,
        nearest: &Prediction,
    ) -> (AggregateResult, Mbr) {
        let column = match spec.kind {
            AggregateKind::Count => None,
            _ => snap.attributes().column(spec.attribute.as_deref().unwrap()),
        };
        let d_min = nearest.distance;
        let r_tau = radius_for_threshold(d_min, spec.p_tau);
        let q_s1 = snap.query_point_s1(entity, relation, direction).unwrap();
        let q_s2 = snap.project(&q_s1);
        let cfg = snap.config();
        let region = Mbr::of_ball(&q_s2, r_tau * (1.0 + cfg.epsilon));
        let known = snap.known_neighbors(entity, relation, direction);
        let candidates = Candidates {
            entity: entity.0,
            known: &known,
            column,
        };
        let embeddings = snap.embeddings();
        let mut accessed: Vec<(f64, f64)> = Vec::new();
        let mut unaccessed_dists: Vec<f64> = Vec::new();
        match spec.sample_size {
            None => {
                let mut in_box = vec![0u64; state.index().points().len().div_ceil(64)];
                state.index().search_region(&region, |id| {
                    in_box[id as usize / 64] |= 1 << (id % 64);
                });
                let ids = (0u32..).zip(in_box).flat_map(|(w, mut word)| {
                    std::iter::from_fn(move || {
                        let bit = (word != 0).then(|| word.trailing_zeros())?;
                        word &= word - 1;
                        Some(w * 64 + bit)
                    })
                });
                for (id, value) in ids.filter_map(|id| Some((id, candidates.value(id)?))) {
                    let d = embeddings.distance_to_entity(&q_s1, EntityId(id));
                    if d <= r_tau {
                        accessed.push((d, value));
                    }
                }
            }
            Some(budget) => {
                let s2_bias = vkg_transform::bounds::inverse_projected_distance_bias(cfg.alpha);
                let mut runs: Vec<(f64, u32, Vec<u32>)> = Vec::new();
                let mut anchored = false;
                state
                    .index()
                    .search_region_elements(&region, |ids, summary| {
                        let mut run = Vec::new();
                        for &id in ids {
                            if candidates.value(id).is_none() {
                                continue;
                            }
                            if id == nearest.id {
                                anchored = true;
                            } else {
                                run.push(id);
                            }
                        }
                        if let Some(&first) = run.iter().min() {
                            runs.push((element_proxy(summary, &q_s2, s2_bias), first, run));
                        }
                    });
                let access = |id: u32| -> Option<(f64, f64)> {
                    let value = candidates.value(id)?;
                    let d = embeddings.distance_to_entity(&q_s1, EntityId(id));
                    (d <= r_tau).then_some((d, value))
                };
                runs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                if anchored {
                    if budget > 0 {
                        accessed.extend(access(nearest.id));
                    } else {
                        unaccessed_dists.push(0.0);
                    }
                }
                for (proxy, _, mut ids) in runs {
                    ids.sort_unstable();
                    let mut rest = ids.len();
                    for id in ids {
                        if accessed.len() >= budget {
                            break;
                        }
                        accessed.extend(access(id));
                        rest -= 1;
                    }
                    if proxy <= r_tau {
                        unaccessed_dists.extend(std::iter::repeat_n(proxy, rest));
                    }
                }
            }
        }
        accessed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let distances: Vec<f64> = accessed.iter().map(|m| m.0).collect();
        let values: Vec<f64> = accessed.iter().map(|m| m.1).collect();
        let ref_d = distances.first().copied().unwrap_or(d_min).max(1e-12);
        let mut probs = inverse_distance_probabilities(&distances);
        probs.extend(
            unaccessed_dists
                .into_iter()
                .map(|d| (ref_d / d.max(ref_d)).min(1.0)),
        );
        let a = accessed.len();
        let estimate = match spec.kind {
            AggregateKind::Count => aggregate::estimate_count(&probs),
            AggregateKind::Sum => aggregate::estimate_sum(&values, &probs),
            AggregateKind::Avg => aggregate::estimate_avg(&values, &probs),
            AggregateKind::Max => aggregate::estimate_max(&values, &probs[..a]),
            AggregateKind::Min => aggregate::estimate_min(&values, &probs[..a]),
        };
        let v_max = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let bound = if spec.kind == AggregateKind::Avg {
            let count = aggregate::estimate_count(&probs).max(1.0);
            let scaled: Vec<f64> = values.iter().map(|v| v / count).collect();
            aggregate::deviation_bound(estimate, &scaled, &probs[a..], v_max / count)
        } else {
            aggregate::deviation_bound(estimate, &values, &probs[a..], v_max)
        };
        let result = AggregateResult {
            estimate,
            accessed: a,
            ball_size: probs.len(),
            bound,
        };
        (result, region)
    }

    fn bits(r: &AggregateResult) -> (u64, usize, usize, u64, u64) {
        (
            r.estimate.to_bits(),
            r.accessed,
            r.ball_size,
            r.bound.mu.to_bits(),
            r.bound.increment_mass.to_bits(),
        )
    }

    const DIM: usize = 6;
    const N: usize = 700;
    /// The known neighbours of both query entities, at word boundaries.
    const KNOWN: [u32; 3] = [63, 64, 127];

    /// `N` entities in eight clusters, with the rows of [`KNOWN`] and of
    /// entities 65–70 right next to entity 0's query point, and entity
    /// `N − 1` at entity 0: both query entities' known neighbours sit in
    /// every ball. Attribute `a` is on two ids in three (none of 66–70),
    /// `b` on one in seven.
    fn world(strategy: SplitStrategy, bulk: bool) -> VirtualKnowledgeGraph {
        let mut rng = StdRng::seed_from_u64(7);
        let mut graph = KnowledgeGraph::new();
        let r0 = graph.add_relation("r0");
        graph.add_relation("r1");
        let centres: Vec<f64> = (0..8 * DIM).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let relation_rows: Vec<f64> = (0..2 * DIM).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let mut rows: Vec<f64> = Vec::with_capacity(N * DIM);
        for i in 0..N {
            graph.add_entity(&format!("e{i}"));
            let c = rng.gen_range(0..8usize) * DIM;
            rows.extend((0..DIM).map(|j| centres[c + j] + rng.gen_range(-1.0..1.0)));
        }
        let near_q = |rng: &mut StdRng, rows: &mut Vec<f64>, id: usize| {
            for j in 0..DIM {
                rows[id * DIM + j] = rows[j] + relation_rows[j] + rng.gen_range(-0.05..0.05);
            }
        };
        for id in KNOWN.iter().map(|&id| id as usize).chain(65..71) {
            near_q(&mut rng, &mut rows, id);
        }
        rows.copy_within(0..DIM, (N - 1) * DIM);
        for head in [0, N - 1] {
            for &tail in &KNOWN {
                graph
                    .add_triple(EntityId(head as u32), r0, EntityId(tail))
                    .unwrap();
            }
        }
        for _ in 0..2 * N {
            let (h, t) = (rng.gen_range(0..N as u32), rng.gen_range(0..N as u32));
            let r = RelationId(rng.gen_range(0..2));
            let _ = graph.add_triple(EntityId(h), r, EntityId(t));
        }
        let mut attributes = AttributeStore::new();
        for id in 0..N as u32 {
            if id % 3 != 0 && !(66..71).contains(&id) {
                attributes.set("a", EntityId(id), f64::from(id % 17) - 4.5);
            }
            if id % 7 == 0 {
                attributes.set("b", EntityId(id), f64::from(id) * 0.25);
            }
        }
        let store = EmbeddingStore::from_raw(DIM, rows, relation_rows);
        let config = VkgConfig {
            epsilon: 0.5,
            leaf_capacity: 8,
            fanout: 4,
            split_strategy: strategy,
            threads: 1,
            cache_capacity: 0,
            ..VkgConfig::default()
        };
        if bulk {
            VirtualKnowledgeGraph::try_assemble_bulk_loaded(graph, attributes, store, config)
                .expect("a consistent world")
        } else {
            VirtualKnowledgeGraph::assemble(graph, attributes, store, config)
        }
    }

    /// Edits `vkg` the ways a served index sees: entities added through
    /// the facade (one right next to the query), attributes set on
    /// entities that had none and in a new column, points tombstoned.
    fn edit(vkg: &VirtualKnowledgeGraph) {
        let snap = vkg.snapshot();
        let q = snap
            .query_point_s1(EntityId(0), RelationId(0), Direction::Tails)
            .unwrap();
        for i in 0..12 {
            let row: Vec<f64> = q.iter().map(|x| x + 0.01 * f64::from(i)).collect();
            let id = vkg.add_entity_dynamic(&format!("fresh{i}"), &row).unwrap();
            if i % 2 == 0 {
                vkg.set_attribute_dynamic("a", id, f64::from(i)).unwrap();
            }
        }
        for id in [66, 67, 3] {
            vkg.set_attribute_dynamic("a", EntityId(id), 100.0 + f64::from(id))
                .unwrap();
        }
        vkg.set_attribute_dynamic("c", EntityId(68), 1.5).unwrap();
        vkg.set_attribute_dynamic("c", EntityId(N as u32 + 3), -2.0)
            .unwrap();
        let mut index = vkg.index_mut();
        for id in [69, 5, 300] {
            assert!(index.remove_point(id));
        }
    }

    /// Every query entity of the stream: the first and last ids of the
    /// world, the last entity added, and a spread of others.
    fn stream(
        vkg: &VirtualKnowledgeGraph,
    ) -> Vec<((EntityId, RelationId, Direction), AggregateSpec)> {
        let n = vkg.graph().num_entities() as u32;
        let entities = [0, N as u32 - 1, n - 1, 17, 64, 351];
        let kinds = [
            AggregateKind::Count,
            AggregateKind::Sum,
            AggregateKind::Avg,
            AggregateKind::Max,
            AggregateKind::Min,
        ];
        let mut out = Vec::new();
        let mut i = 0usize;
        for (e, &entity) in entities.iter().enumerate() {
            for kind in kinds {
                for sample in [None, Some(0), Some(1), Some(20), Some(10_000)] {
                    i += 1;
                    let attribute = ["a", "b", "c"][i % 3];
                    let p_tau = [0.05, 0.5, 0.2][i % 3];
                    let mut spec = match kind {
                        AggregateKind::Count => AggregateSpec::count(p_tau),
                        _ => AggregateSpec::of(kind, attribute, p_tau),
                    };
                    spec.sample_size = sample;
                    let relation = RelationId((e % 2 == 1 && i % 4 == 0) as u32);
                    let direction = [Direction::Tails, Direction::Heads][i / 5 % 2];
                    out.push(((EntityId(entity), relation, direction), spec));
                }
            }
        }
        out
    }

    /// Runs `vkg`'s stream through the exclusive composition, checking
    /// every ball round: the bitmap sweep and the one-pass estimate
    /// against [`per_id_ball`] bit for bit, and the crack verdict the
    /// region read folds in against [`CrackingIndex::wants_crack`] on the
    /// tree the read saw. Returns how many rounds wanted a crack, how
    /// many full-access balls were long enough for the bucket sort, and
    /// how many boxes held a known neighbour.
    fn check_stream(vkg: &VirtualKnowledgeGraph, label: &str) -> [usize; 3] {
        let (mut cracked, mut bucketed, mut known_in_box) = (0, 0, 0);
        for (q, spec) in stream(vkg) {
            let (entity, relation, direction) = q;
            if spec.kind != AggregateKind::Count
                && !vkg
                    .attributes()
                    .has_attribute(spec.attribute.as_deref().unwrap())
            {
                continue;
            }
            vkg.with_published_shard(relation, |_, snap, state| {
                let (nearest, region) = state
                    .aggregate_anchor(snap, entity, relation, direction, &spec)
                    .unwrap();
                if let Some(region) = region {
                    state.index_mut().crack(&region);
                }
                let Some(nearest) = nearest else { return };
                let (ball, crack) = state
                    .aggregate_ball_read(snap, entity, relation, direction, &spec, &nearest)
                    .unwrap();
                let (oracle, region) = per_id_ball(state, snap, q, &spec, &nearest);
                let case = format!("{label}: {q:?} {spec:?}");
                assert_eq!(
                    crack.is_some(),
                    state.index().wants_crack(&region),
                    "{case}"
                );
                if let Some(crack) = &crack {
                    assert_eq!(crack, &region, "{case}");
                }
                let got = ball.estimate(snap, &spec).unwrap();
                assert_eq!(bits(&got), bits(&oracle), "{case}");
                bucketed += usize::from(spec.sample_size.is_none() && got.ball_size >= 256);
                let known = snap.known_neighbors(entity, relation, direction);
                known_in_box += usize::from(
                    known
                        .iter()
                        .any(|&id| state.index().points().in_region(id, &region)),
                );
                if let Some(crack) = crack {
                    cracked += 1;
                    state.index_mut().crack(&crack);
                }
            });
        }
        [cracked, bucketed, known_in_box]
    }

    /// The bitmap sweep, the candidate bitmaps and the one-pass estimate
    /// give the per-id composition's answer bit for bit — estimate,
    /// accessed, ball size and bound, for all five kinds at full access
    /// and four budgets — and the folded crack verdict is
    /// `wants_crack(region)` on every ball round: on cracking trees of
    /// both strategies and on a bulk-loaded one, before and after
    /// entities are added, attributes set (on entities that had none,
    /// and in a new column) and points tombstoned.
    /// The integer key orders like `total_cmp`.
    #[test]
    fn total_order_key_is_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} {b}"
                );
            }
        }
    }

    #[test]
    fn the_sweep_equals_the_per_id_composition() {
        let cases = [
            ("greedy", SplitStrategy::Greedy, false),
            ("top2", SplitStrategy::TopK { choices: 2 }, false),
            ("bulk", SplitStrategy::Greedy, true),
        ];
        for (label, strategy, bulk) in cases {
            let vkg = world(strategy, bulk);
            let [cracked, bucketed, known_in_box] = check_stream(&vkg, label);
            edit(&vkg);
            let edited = format!("{label} edited");
            let [cracked_after, ..] = check_stream(&vkg, &edited);
            if bulk {
                assert_eq!(
                    cracked + cracked_after,
                    0,
                    "a bulk-loaded tree has nothing to split"
                );
            } else {
                assert!(cracked > 0, "{label}: the stream must crack");
            }
            assert!(bucketed > 0, "{label}: no ball reached the bucket sort");
            assert!(known_in_box > 0, "{label}: no box held a known neighbour");
            vkg.index().check_invariants();
        }
    }
}
