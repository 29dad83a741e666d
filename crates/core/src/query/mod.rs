//! Query processing over the virtual knowledge graph (paper §V), and the
//! one query value the facade's served read takes
//! ([`crate::vkg::VirtualKnowledgeGraph::execute`]): a [`Query`] names
//! the entity, relation and direction, and either a top-k (Algorithm 3)
//! with an optional declarative [`Filter`] or an aggregate (§V-B).

pub mod aggregate;
pub mod guarantees;
pub mod probability;
pub mod topk;

use vkg_kg::codec::{Dec, DecodeError, Enc};
use vkg_kg::{EntityId, RelationId};

use crate::snapshot::{Direction, VkgSnapshot};
use aggregate::{AggregateResult, AggregateSpec};
use topk::TopKResult;

/// A declarative candidate filter for a top-k query. Unlike a closure it
/// is data: it crosses the wire, and its [`Filter::fingerprint`] keys
/// the result cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Filter {
    /// Keep entities whose interned name starts with the prefix.
    NamePrefix(String),
    /// Keep entities with `lo <= id < hi`.
    IdRange {
        /// Inclusive lower bound.
        lo: u32,
        /// Exclusive upper bound.
        hi: u32,
    },
}

impl Filter {
    /// Whether the filter keeps `id`, whose name is read from `snap`.
    pub fn accepts(&self, snap: &VkgSnapshot, id: EntityId) -> bool {
        match self {
            Filter::NamePrefix(prefix) => snap
                .graph()
                .entity_name(id)
                .is_some_and(|name| name.starts_with(prefix.as_str())),
            Filter::IdRange { lo, hi } => *lo <= id.0 && id.0 < *hi,
        }
    }

    /// The filter's canonical bytes, its [`Filter::encode`]: injective,
    /// so equal fingerprints imply equal predicates, as the result
    /// cache's filtered-top-k key requires.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.finish()
    }

    /// Writes the filter: a tag byte, then the prefix as a string, or
    /// `lo` and `hi` as `u32`s.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            Filter::NamePrefix(prefix) => {
                e.u8(0);
                e.str(prefix);
            }
            Filter::IdRange { lo, hi } => {
                e.u8(1);
                e.u32(*lo);
                e.u32(*hi);
            }
        }
    }

    /// Reads the bytes [`Filter::encode`] writes.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(Filter::NamePrefix(d.str()?)),
            1 => Ok(Filter::IdRange {
                lo: d.u32()?,
                hi: d.u32()?,
            }),
            _ => Err(DecodeError::Malformed("filter tag")),
        }
    }
}

/// What a [`Query`] asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOp {
    /// The `k` most likely entities (Algorithm 3), optionally only those
    /// the filter keeps.
    TopK {
        /// Number of entities requested.
        k: usize,
        /// Candidate filter; `None` keeps every candidate.
        filter: Option<Filter>,
    },
    /// An aggregate over the probability ball (§V-B).
    Aggregate(AggregateSpec),
}

/// One read of the virtual knowledge graph, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The query entity.
    pub entity: EntityId,
    /// The relation whose translation moves the query point.
    pub relation: RelationId,
    /// Tail-ward (`h + r`) or head-ward (`t − r`).
    pub direction: Direction,
    /// The read itself.
    pub op: QueryOp,
}

impl Query {
    /// A top-k query.
    pub fn top_k(
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: Option<Filter>,
    ) -> Self {
        Query {
            entity,
            relation,
            direction,
            op: QueryOp::TopK { k, filter },
        }
    }

    /// An aggregate query.
    pub fn aggregate(
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: AggregateSpec,
    ) -> Self {
        Query {
            entity,
            relation,
            direction,
            op: QueryOp::Aggregate(spec),
        }
    }
}

/// The answer to a [`Query`], of the kind it asked for.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A top-k query's answer.
    TopK(TopKResult),
    /// An aggregate query's answer.
    Aggregate(AggregateResult),
}
