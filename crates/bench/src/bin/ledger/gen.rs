//! Seeded input generation: the PRNG, the Zipf sampler and the
//! per-connection operation streams of the four workloads.
//!
//! Everything the program is asked comes from here, derived from
//! `--seed` alone: the same seed gives byte-identical streams (see the
//! tests). The generators are the benchmark's own so that an edit to the
//! library's samplers or to the harness crate cannot shift its inputs.

use std::collections::HashSet;

use vkg::core::{AggregateKind, Direction};
use vkg::kg::graph::Triple;
use vkg::kg::{EntityId, KnowledgeGraph, RelationId};
use vkg_server::{Request, RequestOp, WireFilter};

use crate::spec::{Workload, ATTRIBUTE, K, LEARNING_RATE, P_TAU, REFINE_STEPS, SAMPLE_SIZE};

/// SplitMix64: one `u64` of state, full period, good enough avalanche to
/// derive independent sub-streams by hashing tags into the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream that depends on `seed` and every tag, in order.
    pub fn derive(seed: u64, tags: &[u64]) -> Self {
        let mut rng = Rng(seed);
        for &tag in tags {
            rng.0 = rng.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// ranges used here). `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Zipf over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cdf = (0..n)
            .map(|r| {
                total += ((r + 1) as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(0.0);
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

/// The (entity, relation, direction) a read is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    pub entity: u32,
    pub relation: u32,
    pub heads: bool,
}

impl Query {
    fn of(t: &Triple, heads: bool) -> Self {
        Query {
            entity: if heads { t.tail.0 } else { t.head.0 },
            relation: t.relation.0,
            heads,
        }
    }

    pub fn direction(&self) -> Direction {
        if self.heads {
            Direction::Heads
        } else {
            Direction::Tails
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    TopK(Query),
    Filtered {
        q: Query,
        lo: u32,
        hi: u32,
    },
    Aggregate {
        q: Query,
        kind: AggregateKind,
        sampled: bool,
    },
    AddFact {
        h: u32,
        r: u32,
        t: u32,
    },
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::AddFact { .. })
    }

    /// The query a read is about (`None` for writes).
    pub fn query(&self) -> Option<Query> {
        match self {
            Op::TopK(q) | Op::Filtered { q, .. } | Op::Aggregate { q, .. } => Some(*q),
            Op::AddFact { .. } => None,
        }
    }

    /// Attribute and access budget of an aggregate of `kind`.
    pub fn aggregate_args(
        kind: AggregateKind,
        sampled: bool,
    ) -> (Option<&'static str>, Option<usize>) {
        let attribute = (kind != AggregateKind::Count).then_some(ATTRIBUTE);
        (attribute, sampled.then_some(SAMPLE_SIZE))
    }

    /// The wire request this operation is sent as (untokened for writes;
    /// the served path stamps tokens through the client instead).
    pub fn request(&self) -> Request {
        let op = match *self {
            Op::TopK(q) => RequestOp::TopK {
                entity: q.entity,
                relation: q.relation,
                direction: q.direction(),
                k: K as u32,
            },
            Op::Filtered { q, lo, hi } => RequestOp::TopKFiltered {
                entity: q.entity,
                relation: q.relation,
                direction: q.direction(),
                k: K as u32,
                filter: WireFilter::IdRange { lo, hi },
            },
            Op::Aggregate { q, kind, sampled } => {
                let (attribute, sample_size) = Op::aggregate_args(kind, sampled);
                RequestOp::Aggregate {
                    entity: q.entity,
                    relation: q.relation,
                    direction: q.direction(),
                    kind,
                    attribute: attribute.map(str::to_owned),
                    p_tau: P_TAU,
                    sample_size: sample_size.map(|a| a as u32),
                }
            }
            Op::AddFact { h, r, t } => RequestOp::AddFactDynamic {
                h,
                r,
                t,
                refine_steps: REFINE_STEPS as u32,
                learning_rate: LEARNING_RATE,
                token: 0,
            },
        };
        Request { deadline_ms: 0, op }
    }
}

const KINDS: [AggregateKind; 5] = [
    AggregateKind::Count,
    AggregateKind::Sum,
    AggregateKind::Avg,
    AggregateKind::Max,
    AggregateKind::Min,
];

/// `IdRange` selectivities of the filtered top-k share of `agg_mix`.
const SELECTIVITIES: [f64; 2] = [0.25, 0.02];

/// Distinct queries in the hot set of `topk_hot`.
pub const HOT_SET: usize = 512;

/// What every stream of one workload shares: the graph it draws from and
/// the samplers built once from `(workload, seed)`.
pub struct Tables<'a> {
    workload: Workload,
    seed: u64,
    graph: &'a KnowledgeGraph,
    /// `topk_hot`: the fixed hot set and its Zipf(1.1) rank sampler.
    hot: Vec<Query>,
    /// `topk_hot`: over the hot set; `write_mix`: over all triples.
    zipf: Option<Zipf>,
}

impl<'a> Tables<'a> {
    pub fn new(workload: Workload, graph: &'a KnowledgeGraph, seed: u64) -> Self {
        let triples = graph.triples();
        let (hot, zipf) = match workload {
            Workload::TopkHot => {
                let mut rng = Rng::derive(seed, &[workload.tag(), 0x407]);
                let want = HOT_SET.min(triples.len());
                let mut seen = HashSet::new();
                let mut hot = Vec::with_capacity(want);
                // Bounded: tiny graphs may hold fewer than `want`
                // distinct queries.
                for _ in 0..want * 64 {
                    if hot.len() == want {
                        break;
                    }
                    let q = Query::of(&triples[rng.below(triples.len())], rng.coin());
                    if seen.insert(q) {
                        hot.push(q);
                    }
                }
                let zipf = Zipf::new(hot.len(), 1.1);
                (hot, Some(zipf))
            }
            Workload::WriteMix => (Vec::new(), Some(Zipf::new(triples.len(), 1.0))),
            Workload::TopkCold | Workload::AggMix => (Vec::new(), None),
        };
        Tables {
            workload,
            seed,
            graph,
            hot,
            zipf,
        }
    }

    /// The hot set of `topk_hot` (empty for the other workloads).
    pub fn hot(&self) -> &[Query] {
        &self.hot
    }

    /// The stream of one lane. Lanes partition the fresh facts (a fact's
    /// tail id is congruent to its lane), so no two lanes ever issue the
    /// same write.
    pub fn stream(&self, lane: usize, lanes: usize) -> OpStream<'_> {
        OpStream {
            tables: self,
            rng: Rng::derive(self.seed, &[self.workload.tag(), lane as u64]),
            lane,
            lanes: lanes.max(1),
            issued: HashSet::new(),
            index: 0,
        }
    }
}

/// An endless, deterministic operation stream.
pub struct OpStream<'a> {
    tables: &'a Tables<'a>,
    rng: Rng,
    lane: usize,
    lanes: usize,
    issued: HashSet<(u32, u32, u32)>,
    index: u64,
}

impl OpStream<'_> {
    fn uniform_query(&mut self) -> Query {
        let triples = self.tables.graph.triples();
        let t = &triples[self.rng.below(triples.len())];
        Query::of(t, self.rng.coin())
    }

    fn zipf_rank(&mut self) -> usize {
        match &self.tables.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => 0,
        }
    }

    /// A fact `(h, r, t)` that is in neither the generated graph nor this
    /// stream's earlier output: head and relation from a random existing
    /// triple, tail uniform over this lane's residue class.
    fn fresh_fact(&mut self) -> Op {
        let graph = self.tables.graph;
        let triples = graph.triples();
        let per_lane = (graph.num_entities() / self.lanes).max(1);
        loop {
            let base = &triples[self.rng.below(triples.len())];
            let t = (self.rng.below(per_lane) * self.lanes + self.lane) as u32;
            if t == base.head.0 || graph.has_edge(base.head, base.relation, EntityId(t)) {
                continue;
            }
            if self.issued.insert((base.head.0, base.relation.0, t)) {
                return Op::AddFact {
                    h: base.head.0,
                    r: base.relation.0,
                    t,
                };
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.index;
        self.index += 1;
        match self.tables.workload {
            Workload::TopkCold => Op::TopK(self.uniform_query()),
            Workload::TopkHot => {
                let rank = self.zipf_rank();
                Op::TopK(self.tables.hot[rank])
            }
            Workload::AggMix => {
                let q = self.uniform_query();
                // Every fifth operation is a filtered top-k; the other
                // four rotate through the five aggregate kinds, each kind
                // alternating full access and a sampled budget.
                let (round, slot) = (i / 5, i % 5);
                if slot == 4 {
                    let n = self.tables.graph.num_entities();
                    let span = ((n as f64 * SELECTIVITIES[(round % 2) as usize]) as usize).max(1);
                    let lo = self.rng.below(n.saturating_sub(span).max(1));
                    Op::Filtered {
                        q,
                        lo: lo as u32,
                        hi: (lo + span) as u32,
                    }
                } else {
                    let a = round * 4 + slot;
                    Op::Aggregate {
                        q,
                        kind: KINDS[(a % 5) as usize],
                        sampled: (a / 5) % 2 == 1,
                    }
                }
            }
            Workload::WriteMix => match self.rng.below(10) {
                0 => self.fresh_fact(),
                1 => Op::Aggregate {
                    q: self.uniform_query(),
                    kind: AggregateKind::Count,
                    sampled: false,
                },
                _ => {
                    let rank = self.zipf_rank();
                    let triples = self.tables.graph.triples();
                    Op::TopK(Query::of(&triples[rank], self.rng.coin()))
                }
            },
        }
    }
}

/// The operations of the warm phase, for lane `lane` of `lanes`.
/// `topk_hot` first asks every hot query once, so the cache holds the
/// whole set before the measured phase starts.
pub fn warm_ops(tables: &Tables<'_>, lane: usize, lanes: usize, count: usize) -> Vec<Op> {
    let mut stream = tables.stream(lane, lanes);
    let mut ops: Vec<Op> = tables.hot().iter().copied().map(Op::TopK).collect();
    ops.truncate(count);
    while ops.len() < count {
        ops.push(stream.next_op());
    }
    ops
}

/// Ids as the typed pair the client helpers take.
pub fn ids(q: &Query) -> (EntityId, RelationId) {
    (EntityId(q.entity), RelationId(q.relation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkg::kg::datasets::{freebase_like, FreebaseConfig};

    fn graph() -> KnowledgeGraph {
        freebase_like(&FreebaseConfig::tiny()).graph
    }

    fn bytes(workload: Workload, graph: &KnowledgeGraph, seed: u64, lane: usize) -> Vec<u8> {
        let tables = Tables::new(workload, graph, seed);
        let mut stream = tables.stream(lane, 3);
        (0..400)
            .flat_map(|_| stream.next_op().request().encode())
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let g = graph();
        for w in Workload::ALL {
            assert_eq!(bytes(w, &g, 7, 0), bytes(w, &g, 7, 0), "{}", w.name());
            assert_ne!(bytes(w, &g, 7, 0), bytes(w, &g, 8, 0), "{}", w.name());
            assert_ne!(bytes(w, &g, 7, 0), bytes(w, &g, 7, 1), "{}", w.name());
        }
    }

    #[test]
    fn fresh_facts_are_new_and_disjoint_across_lanes() {
        let g = graph();
        let tables = Tables::new(Workload::WriteMix, &g, 3);
        let mut all = HashSet::new();
        for lane in 0..3 {
            let mut stream = tables.stream(lane, 3);
            for _ in 0..600 {
                if let Op::AddFact { h, r, t } = stream.next_op() {
                    assert!(!g.has_edge(EntityId(h), RelationId(r), EntityId(t)));
                    assert_eq!(t as usize % 3, lane);
                    assert!(all.insert((h, r, t)), "fact issued twice");
                }
            }
        }
        assert!(all.len() > 100, "about a tenth of write_mix is writes");
    }

    #[test]
    fn agg_mix_rotates_kinds_budgets_and_selectivities() {
        let g = graph();
        let tables = Tables::new(Workload::AggMix, &g, 1);
        let mut stream = tables.stream(0, 1);
        let ops: Vec<Op> = (0..100).map(|_| stream.next_op()).collect();
        let filtered = ops
            .iter()
            .filter(|o| matches!(o, Op::Filtered { .. }))
            .count();
        assert_eq!(filtered, 20);
        let mut combos = HashSet::new();
        for op in &ops {
            if let Op::Aggregate { kind, sampled, .. } = op {
                combos.insert((*kind as u8, *sampled));
            }
        }
        assert_eq!(combos.len(), 10, "five kinds, each full and sampled");
        let spans: HashSet<u32> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Filtered { lo, hi, .. } => Some(hi - lo),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2, "two selectivities");
    }

    #[test]
    fn hot_set_is_distinct_and_skewed() {
        let g = graph();
        let tables = Tables::new(Workload::TopkHot, &g, 5);
        let hot: HashSet<Query> = tables.hot().iter().copied().collect();
        assert_eq!(hot.len(), tables.hot().len());
        let mut stream = tables.stream(0, 1);
        let first = tables.hot()[0];
        let hits = (0..2000)
            .filter(|_| stream.next_op() == Op::TopK(first))
            .count();
        assert!(hits > 2000 / tables.hot().len() * 10, "rank 0 dominates");
        let warm = warm_ops(&tables, 1, 2, tables.hot().len() + 5);
        assert_eq!(warm.len(), tables.hot().len() + 5);
        assert_eq!(warm[0], Op::TopK(first));
    }

    #[test]
    fn zipf_and_rng_stay_in_range() {
        let mut rng = Rng::derive(1, &[2, 3]);
        let z = Zipf::new(10, 1.0);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
            assert!(rng.below(7) < 7);
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
