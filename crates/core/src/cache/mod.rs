//! Epoch-keyed semantic result cache for the facade's read path.
//!
//! Repeated queries on a skewed stream (the serving layer's reality)
//! recompute identical answers: the same ⟨entity, relation, direction,
//! k⟩ arrives again and again while nothing was published in between.
//! This cache memoizes complete [`TopKResult`]s and [`AggregateResult`]s
//! keyed by the query's semantic identity, and validates every hit
//! against the **exact** epoch pair the facade pins under the index
//! lock ([`crate::vkg::IndexPin`]): a hit is served only when both the
//! global snapshot epoch and the index epoch equal the values the entry
//! was computed at. Publication bumps those counters under the index
//! lock, so a matching pair proves the snapshot — graph, embeddings,
//! attributes, and the index's point set — is byte-identical to fill
//! time, and an answer is a function of that snapshot and the query
//! alone, which makes a hit identical to recomputation. Stale entries
//! are invalidated lazily, on touch or by the first insert that finds
//! the cache full; no writer ever scans the cache.
//!
//! A fill need not arrive at the current epochs: an aggregate fills
//! after its index guard is dropped, so a write may have published in
//! between. Epochs only grow, so fills are ordered by their
//! `(epoch, index epoch)` pair: an insert older than the newest fill
//! the cache has taken is refused, and an insert into a full cache drops
//! only the entries older than itself.
//!
//! A hit is a clone of the stored value and nothing else:
//!
//! * **Hits do not crack.** Queries reshape the index (Algorithm 3 line
//!   9 cracks for the final ball) without bumping any epoch, and an
//!   answer does not depend on the tree's shape (the k-set is seeded
//!   from the traversal, not from the contour — `query::topk`), so an
//!   entry stays valid across every crack and a served hit owes the
//!   tree nothing: the filling query already cracked for its final
//!   ball, and whatever shape the tree takes next, the answers are the
//!   same.
//! * **An entry answers the k it was filled for.** Any other k is a
//!   miss that recomputes and replaces the entry. The k-prefix of a
//!   top-k′ is the k best of the *larger* final ball — never worse rank
//!   for rank, but not what the k-query itself answers — so cutting or
//!   warm-starting from an entry would make "cache on" a second answer.
//!
//! Locking: entries live in one map behind one mutex (lock class
//! `vkg.cache`). It is taken under the index lock (either side) or with
//! no lock held, and nothing is acquired while it is held — `vkg.cache`
//! sits after `vkg.index` in the lock order and is never held across
//! another acquisition.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use vkg_kg::codec::Fnv1a;
use vkg_sync::Mutex;

use crate::query::aggregate::{AggregateKind, AggregateResult};
use crate::query::topk::TopKResult;
use crate::query::{Filter, Query, QueryOp};
use crate::snapshot::Direction;

/// Semantic identity of a cacheable query.
///
/// The query *point* is deliberately absent: at a pinned epoch it is a
/// pure function of ⟨entity, relation, direction⟩ (embeddings and the JL
/// transform are part of the epoch-validated snapshot), so the id triple
/// is a lossless — and collision-free — stand-in for the quantized
/// point. `k` is also absent: it lives in the entry, so a key holds one
/// answer at a time — the last k asked. Refinement parameters (ε, α)
/// are fixed per facade by [`crate::VkgConfig`] and need no key bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// A top-k entity query (plain or wire-filtered).
    TopK {
        /// Dense query-entity id.
        entity: u32,
        /// Relation id.
        relation: u32,
        /// Tail-ward (`h + r`) or head-ward.
        direction: Direction,
        /// Deterministic fingerprint of the candidate filter
        /// ([`Filter::fingerprint`], the filter's wire encoding); `None`
        /// for unfiltered queries. Closure filters have no fingerprint
        /// and bypass the cache entirely.
        filter: Option<Vec<u8>>,
    },
    /// A full-accuracy aggregate query (sampled aggregates bypass the
    /// cache: their access order depends on tree shape, so their answers
    /// are not reproducible across differently-cracked trees).
    Aggregate {
        /// Dense query-entity id.
        entity: u32,
        /// Relation id.
        relation: u32,
        /// Tail-ward (`h + r`) or head-ward.
        direction: Direction,
        /// The aggregate kind.
        kind: AggregateKind,
        /// Attribute name (`None` for COUNT).
        attribute: Option<String>,
        /// The probability threshold p_τ, as bits (total order ≡ value
        /// equality for the validated range (0, 1]).
        p_tau_bits: u64,
    },
}

impl CacheKey {
    /// The key of `query`, or `None` when its answer is not cacheable:
    /// a sampled aggregate (`sample_size.is_some()`), whose access order
    /// depends on the tree's shape, so its answers are not reproducible
    /// across differently-cracked trees. A top-k is keyed with its
    /// filter's [`Filter::fingerprint`].
    pub fn of(query: &Query) -> Option<Self> {
        let (entity, relation, direction) = (query.entity.0, query.relation.0, query.direction);
        Some(match &query.op {
            QueryOp::TopK { filter, .. } => Self::top_k(
                entity,
                relation,
                direction,
                filter.as_ref().map(Filter::fingerprint),
            ),
            QueryOp::Aggregate(spec) if spec.sample_size.is_none() => CacheKey::Aggregate {
                entity,
                relation,
                direction,
                kind: spec.kind,
                attribute: spec.attribute.clone(),
                p_tau_bits: spec.p_tau.to_bits(),
            },
            QueryOp::Aggregate(_) => return None,
        })
    }

    /// Key for a top-k query; `filter` is the deterministic filter
    /// fingerprint, `None` when unfiltered.
    pub fn top_k(
        entity: u32,
        relation: u32,
        direction: Direction,
        filter: Option<Vec<u8>>,
    ) -> Self {
        CacheKey::TopK {
            entity,
            relation,
            direction,
            filter,
        }
    }
}

/// Outcome of a top-k probe.
#[allow(
    clippy::large_enum_variant,
    reason = "Hit dwarfs Miss/Stale by design; boxing it would put an allocation on the hit path this cache exists to make cheap"
)]
#[derive(Debug)]
pub enum TopKLookup {
    /// The answer stored for exactly this k at exactly these epochs.
    Hit(TopKResult),
    /// An entry existed but its epochs no longer match — it has been
    /// removed (lazy invalidation).
    Stale,
    /// No entry, or one filled for a different k.
    Miss,
}

/// Outcome of an aggregate probe.
#[derive(Debug)]
pub enum AggregateLookup {
    /// The stored answer.
    Hit(AggregateResult),
    /// Removed a stale entry (lazy invalidation).
    Stale,
    /// No entry.
    Miss,
}

#[allow(
    clippy::large_enum_variant,
    reason = "same tradeoff as TopKLookup: values are stored once, read hot"
)]
#[derive(Debug, Clone)]
enum CachedValue {
    TopK(TopKResult),
    Aggregate(AggregateResult),
}

#[derive(Debug)]
struct Entry {
    /// Global snapshot epoch at fill time.
    epoch: u64,
    /// Index epoch at fill time.
    index_epoch: u64,
    /// The k the value was computed for (0 for aggregates).
    k: usize,
    value: CachedValue,
    /// Monotone use stamp (LRU victim selection).
    stamp: u64,
}

/// [`Fnv1a`] for the entry map: the keys are a few admitted ids and
/// flags, where SipHash's DoS resistance buys nothing and costs several
/// times FNV's per-key hash on every lookup and insert.
type FnvBuild = BuildHasherDefault<Fnv1a>;

#[derive(Debug)]
struct Entries {
    map: HashMap<CacheKey, Entry, FnvBuild>,
    /// Monotone counter behind the lock — no atomics needed.
    tick: u64,
    /// The newest `(epoch, index epoch)` any insert has filled at.
    newest: (u64, u64),
}

/// The result cache. See the module docs for the validity and locking
/// story.
#[derive(Debug)]
pub struct ResultCache {
    entries: Mutex<Entries>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding up to `capacity` entries (clamped to ≥ 1; a
    /// facade with `cache_capacity = 0` holds no cache at all).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            entries: Mutex::with_name(
                Entries {
                    // Preallocate up to the working set (clamped so a
                    // huge configured capacity does not reserve memory
                    // up front): filling the cache must never rehash,
                    // which would re-run every stored key's hash on the
                    // miss path.
                    map: HashMap::with_capacity_and_hasher(capacity.min(4096), FnvBuild::default()),
                    tick: 0,
                    newest: (0, 0),
                },
                "vkg.cache",
            ),
            capacity,
        }
    }

    /// Total entries currently held (tests, exposition).
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Probes for the top-k answer at the pinned epochs. `_epsilon` and
    /// `_alpha` are held for the benchmark, which calls this positionally
    /// (DESIGN.md §3.5); nothing reads them.
    pub fn lookup_top_k(
        &self,
        key: &CacheKey,
        k: usize,
        epoch: u64,
        index_epoch: u64,
        _epsilon: f64,
        _alpha: usize,
    ) -> TopKLookup {
        let mut entries = self.entries.lock();
        entries.tick += 1;
        let tick = entries.tick;
        let Some(entry) = entries.map.get_mut(key) else {
            return TopKLookup::Miss;
        };
        if entry.epoch != epoch || entry.index_epoch != index_epoch {
            entries.map.remove(key);
            return TopKLookup::Stale;
        }
        entry.stamp = tick;
        match &entry.value {
            CachedValue::TopK(cached) if entry.k == k => TopKLookup::Hit(cached.clone()),
            // Another k refills the entry; key kinds and value kinds
            // correspond one-to-one, so the aggregate arm is unreachable
            // and answered as a miss rather than asserted on the hot path.
            _ => TopKLookup::Miss,
        }
    }

    /// Records a freshly-computed top-k answer for `k` at the pinned
    /// epochs, replacing any entry under the same key.
    pub fn insert_top_k(
        &self,
        key: CacheKey,
        k: usize,
        epoch: u64,
        index_epoch: u64,
        result: &TopKResult,
    ) {
        self.insert(
            key,
            k,
            epoch,
            index_epoch,
            CachedValue::TopK(result.clone()),
        );
    }

    /// Probes for an aggregate answer at the pinned epochs.
    pub fn lookup_aggregate(
        &self,
        key: &CacheKey,
        epoch: u64,
        index_epoch: u64,
    ) -> AggregateLookup {
        let mut entries = self.entries.lock();
        entries.tick += 1;
        let tick = entries.tick;
        let Some(entry) = entries.map.get_mut(key) else {
            return AggregateLookup::Miss;
        };
        if entry.epoch != epoch || entry.index_epoch != index_epoch {
            entries.map.remove(key);
            return AggregateLookup::Stale;
        }
        entry.stamp = tick;
        match &entry.value {
            CachedValue::Aggregate(a) => AggregateLookup::Hit(a.clone()),
            CachedValue::TopK(_) => AggregateLookup::Miss,
        }
    }

    /// Records a freshly-computed aggregate answer at the pinned epochs.
    pub fn insert_aggregate(
        &self,
        key: CacheKey,
        epoch: u64,
        index_epoch: u64,
        result: &AggregateResult,
    ) {
        self.insert(
            key,
            0,
            epoch,
            index_epoch,
            CachedValue::Aggregate(result.clone()),
        );
    }

    fn insert(&self, key: CacheKey, k: usize, epoch: u64, index_epoch: u64, value: CachedValue) {
        let mut entries = self.entries.lock();
        // A fill computed at epochs a newer fill has superseded answers
        // nothing a later probe pins: refused, so that it can neither
        // replace a newer entry nor evict one.
        if (epoch, index_epoch) < entries.newest {
            return;
        }
        entries.newest = (epoch, index_epoch);
        entries.tick += 1;
        let tick = entries.tick;
        if entries.map.len() >= self.capacity && !entries.map.contains_key(&key) {
            // One pass over a full cache: drop every entry older than this
            // fill — a later probe pins epochs at least as new, so a
            // lookup would only remove such an entry on touch — and note
            // the least-recently-used of the rest (all filled at this
            // fill's epochs: none is newer), which is evicted only if
            // nothing was stale. After a write the whole cache goes at
            // once, so the inserts that refill it scan nothing until it
            // is full again.
            let mut victim: Option<(u64, CacheKey)> = None;
            entries.map.retain(|key, e| {
                let current = (e.epoch, e.index_epoch) >= (epoch, index_epoch);
                if current && victim.as_ref().is_none_or(|&(stamp, _)| e.stamp < stamp) {
                    victim = Some((e.stamp, key.clone()));
                }
                current
            });
            if entries.map.len() >= self.capacity {
                if let Some((_, victim)) = victim {
                    entries.map.remove(&victim);
                }
            }
        }
        entries.map.insert(
            key,
            Entry {
                epoch,
                index_epoch,
                k,
                value,
                stamp: tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::aggregate::{AggregateKind, AggregateSpec};
    use crate::query::guarantees::topk_guarantee;
    use crate::query::probability::inverse_distance_probabilities;
    use crate::query::topk::Prediction;
    use vkg_kg::{EntityId, RelationId};

    fn top_k_result(n: usize) -> TopKResult {
        let distances: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let probabilities = inverse_distance_probabilities(&distances);
        TopKResult {
            predictions: distances
                .iter()
                .zip(probabilities)
                .enumerate()
                .map(|(i, (&distance, probability))| Prediction {
                    id: i as u32,
                    distance,
                    probability,
                })
                .collect(),
            guarantee: topk_guarantee(&distances, 3.0, 3),
            s1_evals: 10,
            candidates_examined: 20,
        }
    }

    fn key() -> CacheKey {
        CacheKey::top_k(1, 2, Direction::Tails, None)
    }

    #[test]
    fn exact_hit_after_insert() {
        let cache = ResultCache::new(16);
        let r = top_k_result(3);
        cache.insert_top_k(key(), 3, 5, 2, &r);
        match cache.lookup_top_k(&key(), 3, 5, 2, 3.0, 3) {
            TopKLookup::Hit(result) => assert_eq!(result.predictions, r.predictions),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn epoch_mismatch_invalidates_lazily() {
        let cache = ResultCache::new(16);
        cache.insert_top_k(key(), 3, 5, 2, &top_k_result(3));
        // Global epoch moved on.
        assert!(matches!(
            cache.lookup_top_k(&key(), 3, 6, 2, 3.0, 3),
            TopKLookup::Stale
        ));
        // The stale entry is gone: the next probe is a plain miss.
        assert!(matches!(
            cache.lookup_top_k(&key(), 3, 6, 2, 3.0, 3),
            TopKLookup::Miss
        ));
        // Index epoch mismatch invalidates too.
        cache.insert_top_k(key(), 3, 5, 2, &top_k_result(3));
        assert!(matches!(
            cache.lookup_top_k(&key(), 3, 5, 3, 3.0, 3),
            TopKLookup::Stale
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn any_other_k_is_a_miss() {
        let cache = ResultCache::new(16);
        cache.insert_top_k(key(), 5, 0, 0, &top_k_result(5));
        for k in [2, 8, 0] {
            assert!(matches!(
                cache.lookup_top_k(&key(), k, 0, 0, 3.0, 3),
                TopKLookup::Miss
            ));
        }
        // An entry with fewer than k predictions is no exception, and a
        // miss leaves the entry in place for the k it was filled for.
        cache.insert_top_k(key(), 8, 0, 0, &top_k_result(3));
        assert!(matches!(
            cache.lookup_top_k(&key(), 20, 0, 0, 3.0, 3),
            TopKLookup::Miss
        ));
        assert!(matches!(
            cache.lookup_top_k(&key(), 8, 0, 0, 3.0, 3),
            TopKLookup::Hit(_)
        ));
    }

    #[test]
    fn aggregate_roundtrip_and_kind_separation() {
        use crate::query::aggregate::DeviationBound;
        let cache = ResultCache::new(16);
        let count = |spec| Query::aggregate(EntityId(1), RelationId(2), Direction::Tails, spec);
        let key = |p_tau| CacheKey::of(&count(AggregateSpec::count(p_tau))).expect("cacheable");
        let akey = key(0.05);
        let a = AggregateResult {
            estimate: 4.25,
            accessed: 5,
            ball_size: 6,
            bound: DeviationBound {
                mu: 4.25,
                increment_mass: 0.5,
            },
        };
        cache.insert_aggregate(akey.clone(), 1, 1, &a);
        match cache.lookup_aggregate(&akey, 1, 1) {
            AggregateLookup::Hit(got) => {
                assert_eq!(got.estimate.to_bits(), a.estimate.to_bits());
                assert_eq!(got.ball_size, a.ball_size);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(
            cache.lookup_aggregate(&akey, 2, 1),
            AggregateLookup::Stale
        ));
        // A different p_τ is a different key; a sampled spec has none.
        assert_ne!(akey, key(0.1));
        let sampled = AggregateSpec::of(AggregateKind::Sum, "year", 0.2).with_sample(4);
        assert_eq!(CacheKey::of(&count(sampled)), None);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = ResultCache::new(1);
        let k1 = CacheKey::top_k(1, 0, Direction::Tails, None);
        let k2 = CacheKey::top_k(2, 0, Direction::Tails, None);
        cache.insert_top_k(k1.clone(), 3, 0, 0, &top_k_result(3));
        cache.insert_top_k(k2.clone(), 3, 0, 0, &top_k_result(3));
        assert_eq!(cache.len(), 1);
        assert!(matches!(
            cache.lookup_top_k(&k1, 3, 0, 0, 3.0, 3),
            TopKLookup::Miss
        ));
        assert!(matches!(
            cache.lookup_top_k(&k2, 3, 0, 0, 3.0, 3),
            TopKLookup::Hit(_)
        ));
    }

    #[test]
    fn capacity_is_exact_and_lru_is_global() {
        let cache = ResultCache::new(9);
        let key = |e| CacheKey::top_k(e, 0, Direction::Tails, None);
        for e in 0..64 {
            cache.insert_top_k(key(e), 3, 0, 0, &top_k_result(3));
        }
        assert_eq!(cache.len(), 9);
        // The nine most recent inserts are the nine held.
        for e in 0..64 {
            let held = matches!(
                cache.lookup_top_k(&key(e), 3, 0, 0, 3.0, 3),
                TopKLookup::Hit(_)
            );
            assert_eq!(held, e >= 55, "entity {e}");
        }
    }

    /// An insert into a full cache drops every entry filled at other
    /// epochs before it would evict anything: the stale entries go all at
    /// once, every current-epoch entry survives, and the inserts after it
    /// find room.
    #[test]
    fn full_cache_drops_stale_entries_before_evicting() {
        let cache = ResultCache::new(8);
        let key = |e| CacheKey::top_k(e, 0, Direction::Tails, None);
        for e in 0..6 {
            cache.insert_top_k(key(e), 3, 0, 0, &top_k_result(3));
        }
        // A write published (epoch 1); two entries are filled at it.
        for e in 6..8 {
            cache.insert_top_k(key(e), 3, 1, 0, &top_k_result(3));
        }
        assert_eq!(cache.len(), 8);
        for e in 8..11 {
            cache.insert_top_k(key(e), 3, 1, 0, &top_k_result(3));
        }
        assert_eq!(cache.len(), 5);
        for e in 6..11 {
            assert!(
                matches!(
                    cache.lookup_top_k(&key(e), 3, 1, 0, 3.0, 3),
                    TopKLookup::Hit(_)
                ),
                "entity {e}"
            );
        }
        // A stale index epoch counts as stale too.
        for e in 11..14 {
            cache.insert_top_k(key(e), 3, 1, 0, &top_k_result(3));
        }
        cache.insert_top_k(key(14), 3, 1, 1, &top_k_result(3));
        assert_eq!(cache.len(), 1);
    }

    /// A fill that arrives after a newer epoch has filled (an aggregate
    /// finishing after a write published) neither evicts the newer
    /// entries nor lands itself.
    #[test]
    fn late_fill_of_an_older_epoch_is_refused_and_evicts_nothing() {
        let cache = ResultCache::new(8);
        let key = |e| CacheKey::top_k(e, 0, Direction::Tails, None);
        for e in 0..8 {
            cache.insert_top_k(key(e), 3, 6, 2, &top_k_result(3));
        }
        assert_eq!(cache.len(), 8);
        // Epoch 5 on both counters and epoch 6 on the global one alone
        // are older than (6, 2).
        cache.insert_top_k(key(8), 3, 5, 2, &top_k_result(3));
        cache.insert_top_k(key(9), 3, 6, 1, &top_k_result(3));
        // Nor does a late refill of a held key replace it.
        cache.insert_top_k(key(0), 3, 5, 2, &top_k_result(3));
        assert_eq!(cache.len(), 8);
        for e in 0..8 {
            assert!(
                matches!(
                    cache.lookup_top_k(&key(e), 3, 6, 2, 3.0, 3),
                    TopKLookup::Hit(_)
                ),
                "entity {e}"
            );
        }
        for e in [8, 9] {
            assert!(matches!(
                cache.lookup_top_k(&key(e), 3, 6, 2, 3.0, 3),
                TopKLookup::Miss
            ));
        }
    }

    #[test]
    fn filter_fingerprint_separates_keys() {
        let cache = ResultCache::new(16);
        let query = |filter| Query::top_k(EntityId(1), RelationId(2), Direction::Tails, 5, filter);
        let plain = CacheKey::of(&query(None)).expect("a top-k is cacheable");
        let abc = Filter::NamePrefix("abc".into());
        let filtered = CacheKey::of(&query(Some(abc.clone()))).expect("cacheable");
        assert_eq!(plain, key());
        assert_eq!(
            filtered,
            CacheKey::top_k(1, 2, Direction::Tails, Some(abc.fingerprint()))
        );
        cache.insert_top_k(plain.clone(), 3, 0, 0, &top_k_result(3));
        assert!(matches!(
            cache.lookup_top_k(&filtered, 3, 0, 0, 3.0, 3),
            TopKLookup::Miss
        ));
        let heads = CacheKey::top_k(1, 2, Direction::Heads, None);
        assert!(matches!(
            cache.lookup_top_k(&heads, 3, 0, 0, 3.0, 3),
            TopKLookup::Miss
        ));
    }
}
