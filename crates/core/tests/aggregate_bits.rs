//! Gates on `IndexState::aggregate` (§V-B).
//!
//! * **Golden bits.** A fixed stream of aggregates — five kinds × five
//!   access budgets × both directions, plus an attribute some entities
//!   lack — against one cracking engine, compared bit for bit with the
//!   table in `golden/aggregate_bits.txt`. A refactor of the aggregate
//!   pipeline that claims "same answers" has to reproduce it.
//! * **Scan oracle.** With `sample_size = None` the answer is a function
//!   of (snapshot, query) alone, the inner top-1 included: whatever shape
//!   the tree has, it must equal a recomputation that never touches an
//!   index —
//!   including the order of members at equal S₁ distance (ascending id),
//!   which a world with duplicate embedding rows pins.
//!
//! To regenerate the table after a change that is *meant* to move
//! answers, copy the "actual table" block the failing assertion prints.

use vkg_core::engine::{IndexState, QueryEngine};
use vkg_core::geometry::Mbr;
use vkg_core::query::aggregate::{self, AggregateKind, AggregateSpec};
use vkg_core::query::probability::{inverse_distance_probabilities, radius_for_threshold};
use vkg_core::{Direction, VkgConfig, VkgSnapshot};
use vkg_embed::{least_squares_embedding, LsConfig};
use vkg_kg::datasets::{freebase_like, FreebaseConfig};
use vkg_kg::{EntityId, RelationId};

const GOLDEN: &str = include_str!("golden/aggregate_bits.txt");

/// The attribute only some entities carry.
const SPARSE: &str = "score";

const KINDS: [AggregateKind; 5] = [
    AggregateKind::Count,
    AggregateKind::Sum,
    AggregateKind::Avg,
    AggregateKind::Max,
    AggregateKind::Min,
];

struct Query {
    entity: EntityId,
    relation: RelationId,
    direction: Direction,
    spec: AggregateSpec,
}

impl Query {
    fn run(&self, snap: &VkgSnapshot, engine: &mut IndexState) -> aggregate::AggregateResult {
        engine
            .aggregate(snap, self.entity, self.relation, self.direction, &self.spec)
            .unwrap()
    }

    /// The inner top-1 `engine` would anchor this query on.
    fn nearest(&self, snap: &VkgSnapshot, engine: &mut IndexState) -> (u32, f64) {
        let top1 = engine
            .top_k(snap, self.entity, self.relation, self.direction, 1)
            .unwrap();
        let p = top1.predictions.first().expect("a non-empty graph");
        (p.id, p.distance)
    }

    fn label(&self) -> String {
        format!(
            "{:?} {} p_tau={} sample={:?} {:?} e{} r{}",
            self.spec.kind,
            self.spec.attribute.as_deref().unwrap_or("-"),
            self.spec.p_tau,
            self.spec.sample_size,
            self.direction,
            self.entity.0,
            self.relation.0,
        )
    }
}

fn spec(kind: AggregateKind, attribute: &str, p_tau: f64, sample: Option<usize>) -> AggregateSpec {
    let mut spec = match kind {
        AggregateKind::Count => AggregateSpec::count(p_tau),
        _ => AggregateSpec::of(kind, attribute, p_tau),
    };
    spec.sample_size = sample;
    spec
}

/// The first query of the golden stream: the world withholds [`SPARSE`]
/// from exactly its inner top-1 (the same entity on every tree).
const FIRST: (EntityId, RelationId, Direction) = (EntityId(11), RelationId(0), Direction::Tails);

/// `freebase_like` tiny + a least-squares embedding, both at their fixed
/// seeds, with small leaves so a ball spans many contour elements.
fn world() -> VkgSnapshot {
    let ds = freebase_like(&FreebaseConfig::tiny());
    let store = least_squares_embedding(
        &ds.graph,
        &LsConfig {
            dim: 16,
            sweeps: 10,
            ..LsConfig::default()
        },
    );
    let config = VkgConfig {
        epsilon: 0.5,
        leaf_capacity: 8,
        fanout: 4,
        ..VkgConfig::default()
    };
    // Top-k reads no attribute, so the probe may run before SPARSE exists.
    let bare = VkgSnapshot::new(
        ds.graph.clone(),
        ds.attributes.clone(),
        store.clone(),
        config.clone(),
    )
    .unwrap();
    let first = Query {
        entity: FIRST.0,
        relation: FIRST.1,
        direction: FIRST.2,
        spec: AggregateSpec::count(0.5),
    };
    let (nearest, _) = first.nearest(&bare, &mut IndexState::cracking(&bare));

    let mut attributes = ds.attributes;
    for id in 0..ds.graph.num_entities() as u32 {
        if id % 3 != 0 && id != nearest {
            attributes.set(SPARSE, EntityId(id), f64::from(id % 17) - 4.5);
        }
    }
    let snap = VkgSnapshot::new(ds.graph, attributes, store, config).unwrap();
    assert!(matches!(
        snap.attributes().get(SPARSE, EntityId(nearest)),
        Ok(None)
    ));
    snap
}

/// The golden stream, in issue order.
fn golden_stream(snap: &VkgSnapshot) -> Vec<Query> {
    let n = snap.graph().num_entities();
    let m = snap.graph().num_relations();
    let mut stream = Vec::new();
    // An attribute the nearest entity (and a third of the rest) lacks.
    for kind in &KINDS[1..] {
        for sample in [None, Some(1), Some(20)] {
            stream.push(Query {
                entity: FIRST.0,
                relation: FIRST.1,
                direction: FIRST.2,
                spec: spec(*kind, SPARSE, 0.5, sample),
            });
        }
    }
    // Kinds × budgets (full, none, one, a few, more than the ball) × directions.
    for kind in KINDS {
        for sample in [None, Some(0), Some(1), Some(20), Some(100_000)] {
            for direction in [Direction::Tails, Direction::Heads] {
                let i = stream.len();
                stream.push(Query {
                    entity: EntityId(((i * 37 + 11) % n) as u32),
                    relation: RelationId((i % m) as u32),
                    direction,
                    spec: spec(
                        kind,
                        ["age", "popularity", SPARSE][i % 3],
                        [0.3, 0.5, 0.2][i % 3],
                        sample,
                    ),
                });
            }
        }
    }
    stream
}

#[test]
fn aggregate_answers_keep_their_bits() {
    let snap = world();
    let stream = golden_stream(&snap);
    assert!(stream.len() >= 60);
    let mut engine = IndexState::cracking(&snap);
    let actual: Vec<String> = stream
        .iter()
        .map(|q| {
            let r = q.run(&snap, &mut engine);
            format!(
                "{:016x} {:016x} {:016x} {} {} | {}",
                r.estimate.to_bits(),
                r.bound.mu.to_bits(),
                r.bound.increment_mass.to_bits(),
                r.accessed,
                r.ball_size,
                q.label(),
            )
        })
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let first_diff = (0..actual.len().max(golden.len()))
        .find(|&i| actual.get(i).map(String::as_str) != golden.get(i).copied());
    if let Some(i) = first_diff {
        panic!(
            "row {i} differs\n  golden: {:?}\n  actual: {:?}\nactual table:\n{}\n",
            golden.get(i),
            actual.get(i),
            actual.join("\n"),
        );
    }
}

/// The full-access answer recomputed from the snapshot alone: every
/// entity whose S₂ point is in the `r_τ(1+ε)` box, that is not the query
/// entity or a known neighbour and carries the attribute, at S₁ distance
/// ≤ `r_τ`; sorted by distance; Eq. 3/4. Returns (members, estimate bits).
fn scan_oracle(snap: &VkgSnapshot, q: &Query, d_min: f64) -> (usize, u64) {
    scan_oracle_over(snap, q, d_min, 0..snap.graph().num_entities() as u32)
}

/// [`scan_oracle`] walking `ids` in the given order, which is the order
/// members at equal distance keep: ascending is the engine's rule.
fn scan_oracle_over(
    snap: &VkgSnapshot,
    q: &Query,
    d_min: f64,
    ids: impl Iterator<Item = u32>,
) -> (usize, u64) {
    let q_s1 = snap
        .query_point_s1(q.entity, q.relation, q.direction)
        .unwrap();
    let q_s2 = snap.project(&q_s1);
    let r_tau = radius_for_threshold(d_min, q.spec.p_tau);
    let region = Mbr::of_ball(&q_s2, r_tau * (1.0 + snap.config().epsilon));
    let points = snap.project_points();
    let known = snap.known_neighbors(q.entity, q.relation, q.direction);
    let mut members: Vec<(f64, f64)> = Vec::new();
    for id in ids {
        if id == q.entity.0 || known.contains(&id) || !points.in_region(id, &region) {
            continue;
        }
        let value = match q.spec.attribute.as_deref() {
            None => 1.0,
            Some(name) => match snap.attributes().get(name, EntityId(id)).unwrap() {
                Some(v) => v,
                None => continue,
            },
        };
        let d = snap.embeddings().distance_to_entity(&q_s1, EntityId(id));
        if d <= r_tau {
            members.push((d, value));
        }
    }
    members.sort_by(|x, y| x.0.total_cmp(&y.0));
    let distances: Vec<f64> = members.iter().map(|m| m.0).collect();
    let values: Vec<f64> = members.iter().map(|m| m.1).collect();
    let probs = inverse_distance_probabilities(&distances);
    let estimate = match q.spec.kind {
        AggregateKind::Count => aggregate::estimate_count(&probs),
        AggregateKind::Sum => aggregate::estimate_sum(&values, &probs),
        AggregateKind::Avg => aggregate::estimate_avg(&values, &probs),
        AggregateKind::Max => aggregate::estimate_max(&values, &probs),
        AggregateKind::Min => aggregate::estimate_min(&values, &probs),
    };
    (members.len(), estimate.to_bits())
}

type Build = fn(&VkgSnapshot) -> IndexState;

/// The three tree shapes a full-access answer must not depend on.
const SHAPES: [(&str, Build); 3] = [
    ("fresh", IndexState::cracking),
    ("warmed", |snap| {
        let mut engine = IndexState::cracking(snap);
        warm(snap, &mut engine);
        engine
    }),
    ("bulk-loaded", IndexState::bulk_loaded),
];

/// 200 mixed top-k and sampled-aggregate queries that crack the tree.
fn warm(snap: &VkgSnapshot, engine: &mut IndexState) {
    let n = snap.graph().num_entities();
    let m = snap.graph().num_relations();
    for i in 0..200usize {
        let entity = EntityId(((i * 53 + 7) % n) as u32);
        let relation = RelationId((i % m) as u32);
        let direction = [Direction::Tails, Direction::Heads][i / 2 % 2];
        if i % 4 == 3 {
            let spec = AggregateSpec::count(0.4).with_sample(10);
            engine
                .aggregate(snap, entity, relation, direction, &spec)
                .unwrap();
        } else {
            engine
                .top_k(snap, entity, relation, direction, 1 + i % 7)
                .unwrap();
        }
    }
}

#[test]
fn full_access_equals_a_scan_whatever_the_tree() {
    let snap = world();
    let n = snap.graph().num_entities();
    let m = snap.graph().num_relations();
    let mut i = 0usize;
    for kind in KINDS {
        for direction in [Direction::Tails, Direction::Heads] {
            for p_tau in [0.5, 0.25] {
                i += 1;
                let q = Query {
                    entity: EntityId(((i * 41 + 3) % n) as u32),
                    relation: RelationId((i % m) as u32),
                    direction,
                    spec: spec(kind, ["age", SPARSE][i % 2], p_tau, None),
                };
                // One anchor and one scan for every tree: the inner
                // top-1 does not depend on the tree either.
                let anchor = q.nearest(&snap, &mut IndexState::cracking(&snap));
                let (members, estimate) = scan_oracle(&snap, &q, anchor.1);
                for (shape, build) in SHAPES {
                    let mut engine = build(&snap);
                    let got = q.run(&snap, &mut engine);
                    assert_eq!(
                        (got.accessed, got.ball_size, got.estimate.to_bits()),
                        (members, members, estimate),
                        "{shape} tree, {}",
                        q.label()
                    );
                    assert_eq!(q.nearest(&snap, &mut engine), anchor, "{shape} tree");
                }
            }
        }
    }
    assert_eq!(i, 20);
}

/// An attribute every entity carries; see [`tied_world`].
const DENSE: &str = "tie";

/// [`world`] with three candidates of `q` — ranks 4 to 6 of its S₁
/// neighbourhood — moved onto one embedding row, so that they tie at
/// every distance and share one probability `p`. [`DENSE`] is 2⁶⁰, −2⁶⁰
/// and 1 on them in id order and 0 elsewhere: summed in ascending id
/// order the weighted values come to `(2⁶⁰p − 2⁶⁰p) + p = p`, in any
/// order that takes the 1 before the −2⁶⁰ the `p` is absorbed and they
/// come to 0. Returns the group, ascending.
fn tied_world(q: &Query) -> (VkgSnapshot, Vec<u32>) {
    let base = world();
    let q_s1 = base
        .query_point_s1(q.entity, q.relation, q.direction)
        .unwrap();
    let known = base.known_neighbors(q.entity, q.relation, q.direction);
    let mut ranked: Vec<(f64, u32)> = (0..base.graph().num_entities() as u32)
        .filter(|id| *id != q.entity.0 && !known.contains(id))
        .map(|id| {
            (
                base.embeddings().distance_to_entity(&q_s1, EntityId(id)),
                id,
            )
        })
        .collect();
    ranked.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut group: Vec<u32> = ranked[4..7].iter().map(|r| r.1).collect();
    group.sort_unstable();

    let mut store = base.embeddings().clone();
    let row = store.entity(EntityId(group[0])).to_vec();
    for &id in &group[1..] {
        store.entity_mut(EntityId(id)).copy_from_slice(&row);
    }
    let mut attributes = base.attributes().clone();
    for id in 0..base.graph().num_entities() as u32 {
        attributes.set(DENSE, EntityId(id), 0.0);
    }
    let big = 2.0f64.powi(60);
    for (&id, value) in group.iter().zip([big, -big, 1.0]) {
        attributes.set(DENSE, EntityId(id), value);
    }
    let snap = VkgSnapshot::new(
        base.graph().clone(),
        attributes,
        store,
        base.config().clone(),
    )
    .unwrap();
    (snap, group)
}

#[test]
fn equal_distances_keep_id_order() {
    for kind in [AggregateKind::Sum, AggregateKind::Avg] {
        let q = Query {
            entity: FIRST.0,
            relation: FIRST.1,
            direction: FIRST.2,
            spec: spec(kind, DENSE, 0.1, None),
        };
        let (snap, group) = tied_world(&q);
        let n = snap.graph().num_entities() as u32;
        let q_s1 = snap
            .query_point_s1(q.entity, q.relation, q.direction)
            .unwrap();
        let d_group = snap
            .embeddings()
            .distance_to_entity(&q_s1, EntityId(group[0]));
        for (shape, build) in SHAPES {
            let mut engine = build(&snap);
            let (nearest, d_min) = q.nearest(&snap, &mut engine);
            // The tie is between three ball members, none of them the anchor.
            assert!(!group.contains(&nearest), "{shape}: anchor in the group");
            assert!(d_group <= radius_for_threshold(d_min, q.spec.p_tau));
            let got = q.run(&snap, &mut engine);
            let ascending = scan_oracle_over(&snap, &q, d_min, 0..n);
            let descending = scan_oracle_over(&snap, &q, d_min, (0..n).rev());
            // The two tie orders give different answers …
            assert!(f64::from_bits(ascending.1) > 0.0);
            assert_eq!(f64::from_bits(descending.1), 0.0);
            // … and the engine's is ascending id.
            assert_eq!(
                (got.ball_size, got.estimate.to_bits()),
                ascending,
                "{shape} tree, {}",
                q.label()
            );
        }
    }
}
