//! Relation-partitioned engine shards.
//!
//! The paper cracks its R-tree *per query relationship*: a top-k query
//! ⟨e, r⟩ only ever probes and reshapes the structure serving r. The
//! [`ShardedEngine`] turns that observation into a concurrency
//! architecture: relation ids are hashed onto a fixed set of shards
//! ([`shard_of_relation`], the router), each shard owning its own
//! [`IndexState`] (a full cracking R-tree over the snapshot's projected
//! points), its own `vkg-sync` lock, and its own epoch counter. A query
//! for ⟨e, r⟩ takes only r's shard lock, so a burst of cracking or
//! `AddFactDynamic` traffic on one hot relation never stalls queries on
//! any other relation; multi-relation aggregates fan out across shards
//! and merge per Theorem 4 (see `VirtualKnowledgeGraph::aggregate_multi`).
//!
//! **Answers are shard-count independent.** Every shard holds the full
//! projected point set, and a shared **crack log** keeps every shard's
//! tree canonical: Algorithm 3 *seeds* from the contour element
//! containing the query (line 2), so tree shape is not purely a
//! performance property — two trees cracked by different query subsets
//! can seed different initial balls and miss different candidates.
//! Every crack a query performs is therefore journaled and appended to
//! an ordered log, and a shard replays the log's pending entries
//! (under its own lock, lazily, just before serving) so its tree has
//! seen exactly the crack sequence the old single-tree engine would
//! have. Cracking is deterministic, so all shard counts produce the
//! same contour at every query — and the same answers. Shard count 1
//! skips journaling entirely and reproduces the old single-lock engine
//! bit for bit.
//!
//! **Lock order.** All code acquires shard locks in ascending index
//! order, and the facade's `published` lock only after shard locks;
//! the crack-log mutex is a leaf — held only for a copy or an append,
//! never while acquiring anything else:
//!
//! ```text
//! shard 0 < shard 1 < … < shard n−1 < {vkg.published, vkg.cracklog}
//! ```
//!
//! Queries hold exactly one shard lock. Dynamic writes hold *all* of
//! them (ascending, via [`ShardedEngine::lock_all`]), because an update
//! must splice the new point into every shard's tree before the
//! snapshot describing it publishes. Publication — and the shard-epoch
//! bump — therefore happens only while every shard lock is held, which
//! is exactly what lets a reader holding any single shard lock treat
//! the global epoch *and* its shard's epoch as pinned for the duration.

use vkg_kg::RelationId;
use vkg_sync::pool::{Pool, PoolStats};
use vkg_sync::{Arc, AtomicU64, Mutex, Ordering, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::config::VkgConfig;
use crate::geometry::{Mbr, PointSet};
use crate::index::CrackingIndex;
use crate::snapshot::VkgSnapshot;
use crate::stats::IndexStats;

use super::{Accuracy, EngineStats, IndexState, QueryEngine};

/// Diagnostic names for the shard locks (the model runtime reports lock
/// names in violations; `RwLock::with_name` needs `&'static str`).
/// Engines wider than the table share the last name — names never
/// affect lock identity or the checker's ordering analysis.
static SHARD_LOCK_NAMES: [&str; 32] = [
    "vkg.shard00",
    "vkg.shard01",
    "vkg.shard02",
    "vkg.shard03",
    "vkg.shard04",
    "vkg.shard05",
    "vkg.shard06",
    "vkg.shard07",
    "vkg.shard08",
    "vkg.shard09",
    "vkg.shard10",
    "vkg.shard11",
    "vkg.shard12",
    "vkg.shard13",
    "vkg.shard14",
    "vkg.shard15",
    "vkg.shard16",
    "vkg.shard17",
    "vkg.shard18",
    "vkg.shard19",
    "vkg.shard20",
    "vkg.shard21",
    "vkg.shard22",
    "vkg.shard23",
    "vkg.shard24",
    "vkg.shard25",
    "vkg.shard26",
    "vkg.shard27",
    "vkg.shard28",
    "vkg.shard29",
    "vkg.shard30",
    "vkg.shard31",
];

fn shard_lock_name(i: usize) -> &'static str {
    #[expect(
        clippy::indexing_slicing,
        reason = "the index is clamped to len() - 1 of a non-empty constant table"
    )]
    SHARD_LOCK_NAMES[i.min(SHARD_LOCK_NAMES.len() - 1)]
}

/// The router: maps a relation id to its shard. A Fibonacci
/// multiplicative hash spreads consecutive relation ids (dense interned
/// ids are the common case) evenly across any shard count.
pub fn shard_of_relation(relation: RelationId, shard_count: usize) -> usize {
    let mixed = (u64::from(relation.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (mixed as usize) % shard_count.max(1)
}

/// One shard: a full cracking index behind its own lock, plus the epoch
/// counter publications bump when they mutate this shard's tree.
#[derive(Debug)]
struct Shard {
    state: RwLock<IndexState>,
    /// Written only under *all* shard locks (see the module docs) and
    /// read either under a shard lock (pinned) or lock-free (server
    /// stats, a monotone snapshot); Acquire/Release keeps the lock-free
    /// reads well-ordered against the index mutations they describe.
    epoch: AtomicU64,
}

/// The shared crack log: every crack region any shard performed, in
/// append order, plus each shard's replay cursor. Compacted whenever
/// every shard has caught up, so it only holds the lag between the
/// most- and least-recently-used shards.
#[derive(Debug, Default)]
struct CrackLog {
    entries: Vec<Mbr>,
    /// Per shard: how many log entries its tree has applied.
    applied: Vec<usize>,
}

impl CrackLog {
    fn compact_if_converged(&mut self) {
        if self.applied.iter().all(|&a| a == self.entries.len()) {
            self.entries.clear();
            for a in &mut self.applied {
                *a = 0;
            }
        }
    }
}

/// A relation-partitioned set of cracking indices with per-shard locks
/// and epochs. See the module docs for the locking discipline.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Shard>,
    crack_log: Mutex<CrackLog>,
    name: &'static str,
    accuracy: Accuracy,
    /// Dispatch statistics shared by every shard's kernel pool (and the
    /// build-time projection pool), so observability can report how
    /// often kernels ran serial vs. parallel.
    pool_stats: Arc<PoolStats>,
    /// Crack regions appended to the shared log (across all shards).
    cracks_published: AtomicU64,
    /// Log entries replayed onto lagging shards' trees.
    cracks_replayed: AtomicU64,
}

impl ShardedEngine {
    /// Online-cracking shards over the snapshot's projected points: the
    /// point set is projected once and cloned per shard, each shard
    /// starting as a root-only tree exactly as `IndexState::cracking`
    /// builds it.
    pub fn cracking(snap: &VkgSnapshot) -> Self {
        Self::build(snap, false)
    }

    /// Bulk-loaded shards (the BULKLOADCHUNK baseline of §VI, sharded).
    pub fn bulk_loaded(snap: &VkgSnapshot) -> Self {
        Self::build(snap, true)
    }

    fn build(snap: &VkgSnapshot, bulk: bool) -> Self {
        let cfg = snap.config();
        let count = cfg.shards.max(1);
        let pool_stats = Arc::new(PoolStats::new());
        let pool = Pool::new(cfg.threads).with_stats(pool_stats.clone());
        let points = snap.project_points_pooled(&pool);
        // Crack-log replication only matters with siblings to keep in
        // step; one shard skips journaling and runs the old exact path.
        let journal = count > 1;
        let mut shards = Vec::with_capacity(count);
        for i in 0..count - 1 {
            shards.push(make_shard(
                points.clone(),
                cfg,
                bulk,
                i,
                journal,
                &pool_stats,
            ));
        }
        shards.push(make_shard(
            points,
            cfg,
            bulk,
            count - 1,
            journal,
            &pool_stats,
        ));
        Self {
            shards,
            crack_log: Mutex::with_name(
                CrackLog {
                    entries: Vec::new(),
                    applied: vec![0; count],
                },
                "vkg.cracklog",
            ),
            name: if bulk { "bulk-load R-tree" } else { "cracking" },
            accuracy: Accuracy::Approximate { min_overlap: 0.5 },
            pool_stats,
            cracks_published: AtomicU64::new(0),
            cracks_replayed: AtomicU64::new(0),
        }
    }

    /// Dispatch statistics for the engine's kernel pools (shared by
    /// every shard): serial vs. parallel runs and chunks claimed.
    pub fn pool_stats(&self) -> &Arc<PoolStats> {
        &self.pool_stats
    }

    /// Crack regions this engine has appended to the shared crack log.
    /// Zero for one-shard engines (nothing journals).
    pub fn cracks_published(&self) -> u64 {
        // relaxed: pure statistic; no reader infers other state from it.
        self.cracks_published.load(Ordering::Relaxed)
    }

    /// Log entries replayed onto lagging shards (each pending entry
    /// counts once per shard that replays it).
    pub fn cracks_replayed(&self) -> u64 {
        // relaxed: pure statistic; no reader infers other state from it.
        self.cracks_replayed.load(Ordering::Relaxed)
    }

    /// Number of shards (the configured `VkgConfig::shards`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard serving `relation`'s queries.
    pub fn shard_of(&self, relation: RelationId) -> usize {
        shard_of_relation(relation, self.shards.len())
    }

    /// Shared read access to one shard's index state.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, IndexState> {
        #[expect(
            clippy::indexing_slicing,
            reason = "i comes from shard_of/the router, bounded by shard count; the # Panics contract is the API"
        )]
        self.shards[i].state.read()
    }

    /// Exclusive access to one shard's index state. Callers holding
    /// several shard guards at once must acquire them in ascending
    /// index order (use [`ShardedEngine::lock_all`]).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, IndexState> {
        #[expect(
            clippy::indexing_slicing,
            reason = "i comes from shard_of/the router, bounded by shard count; the # Panics contract is the API"
        )]
        self.shards[i].state.write()
    }

    /// One shard's epoch: the number of publications that mutated this
    /// shard's index. Exact while the shard's lock is held; otherwise a
    /// monotone snapshot.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard_epoch(&self, i: usize) -> u64 {
        #[expect(
            clippy::indexing_slicing,
            reason = "i comes from shard_of/the router, bounded by shard count; the # Panics contract is the API"
        )]
        self.shards[i].epoch.load(Ordering::Acquire)
    }

    /// Every shard's epoch, in shard order.
    pub fn shard_epochs(&self) -> Vec<u64> {
        (0..self.shards.len())
            .map(|i| self.shard_epoch(i))
            .collect()
    }

    /// Bumps every shard's epoch by one. Callers must hold all shard
    /// locks (a [`ShardSetGuard`]): epochs only advance together with
    /// the publication that mutated the shard trees.
    pub fn bump_all_epochs(&self) {
        for s in &self.shards {
            s.epoch.fetch_add(1, Ordering::Release);
        }
    }

    /// Replays onto shard `i`'s tree every crack sibling shards have
    /// logged since this shard last synced, bringing its contour up to
    /// the canonical crack sequence. The caller must hold shard `i`'s
    /// write lock and pass the guarded state. No-op for a one-shard
    /// engine (nothing journals).
    pub fn sync_shard(&self, i: usize, state: &mut IndexState) {
        if self.shards.len() == 1 {
            return;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "applied has one cursor per shard, i is a valid shard index from the caller, and each cursor is <= entries.len() by construction"
        )]
        let pending: Vec<Mbr> = {
            let mut log = self.crack_log.lock();
            let from = log.applied[i];
            let pending = log.entries[from..].to_vec();
            log.applied[i] = log.entries.len();
            log.compact_if_converged();
            pending
        };
        if !pending.is_empty() {
            // relaxed: pure statistic; no reader infers other state from it.
            self.cracks_replayed
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
        }
        for region in &pending {
            state.index_mut().replay_crack(region);
        }
    }

    /// Drains shard `i`'s crack journal into the shared log so sibling
    /// shards replay the same cracks before they next serve. The caller
    /// must hold shard `i`'s write lock; call after any operation that
    /// may have cracked the tree (every query can).
    #[expect(
        clippy::indexing_slicing,
        reason = "applied has one cursor per shard; i is a valid shard index from the caller"
    )]
    pub fn publish_cracks(&self, i: usize, state: &mut IndexState) {
        if self.shards.len() == 1 {
            return;
        }
        let fresh = state.index_mut().drain_crack_journal();
        if fresh.is_empty() {
            return;
        }
        // relaxed: pure statistic; no reader infers other state from it.
        self.cracks_published
            .fetch_add(fresh.len() as u64, Ordering::Relaxed);
        let mut log = self.crack_log.lock();
        let at_tail = log.applied[i] == log.entries.len();
        log.entries.extend(fresh);
        if at_tail {
            // Nothing foreign arrived since this shard synced, so its
            // own cracks are the log tail and are already applied to
            // its tree — advance past them.
            log.applied[i] = log.entries.len();
            log.compact_if_converged();
        }
        // Otherwise the cursor stays put and this shard later replays
        // its own cracks after the interleaved foreign ones: cracking
        // is deterministic and re-cracking an already-refined region
        // is a cheap pass over elements that no longer straddle it.
    }

    /// Locks every shard in ascending index order — the write-side
    /// entry point for dynamic updates, engine-wide inspection, and
    /// drain quiescing. Every shard is synced to the crack log before
    /// the guard returns, so the holder sees (and mutates) canonical
    /// trees; journals accumulated while the guard is held publish on
    /// drop.
    pub fn lock_all(&self) -> ShardSetGuard<'_> {
        let mut guards: Vec<RwLockWriteGuard<'_, IndexState>> =
            self.shards.iter().map(|s| s.state.write()).collect();
        for (i, g) in guards.iter_mut().enumerate() {
            self.sync_shard(i, &mut *g);
        }
        ShardSetGuard {
            engine: self,
            guards,
        }
    }

    /// Engine-wide statistics, merged across shards (each shard is read
    /// in ascending order; the totals are a consistent-per-shard sum,
    /// not one atomic cross-shard cut).
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for i in 0..self.shards.len() {
            let guard = self.read_shard(i);
            let s = QueryEngine::stats(&*guard);
            total.nodes += s.nodes;
            total.bytes += s.bytes;
            total.counters.absorb(&s.counters);
        }
        total
    }

    /// Merged monotonic + access counters (the [`IndexStats`] half of
    /// [`ShardedEngine::merged_stats`]).
    pub fn merged_index_stats(&self) -> IndexStats {
        self.merged_stats().counters
    }

    /// Total index nodes across shards.
    pub fn node_count(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).index().node_count())
            .sum()
    }

    /// Total approximate index bytes across shards.
    pub fn index_bytes(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.read_shard(i).index().index_bytes())
            .sum()
    }
}

fn make_shard(
    points: PointSet,
    cfg: &VkgConfig,
    bulk: bool,
    i: usize,
    journal: bool,
    stats: &Arc<PoolStats>,
) -> Shard {
    let pool = Pool::new(cfg.threads).with_stats(stats.clone());
    let state = if bulk {
        let mut index = CrackingIndex::bulk_load_with_pool(
            points,
            cfg.leaf_capacity,
            cfg.fanout,
            cfg.beta,
            pool,
        );
        if journal {
            index.enable_crack_journal();
        }
        IndexState::from_index(index, "bulk-load R-tree")
    } else {
        let mut index = CrackingIndex::with_pool(
            points,
            cfg.leaf_capacity,
            cfg.fanout,
            cfg.beta,
            cfg.split_strategy,
            pool,
        );
        index.set_query_aware_cost(cfg.query_aware_cost);
        if journal {
            index.enable_crack_journal();
        }
        IndexState::from_index(index, "cracking")
    };
    Shard {
        state: RwLock::with_name(state, shard_lock_name(i)),
        epoch: AtomicU64::new(0),
    }
}

/// Write guards over **every** shard, acquired in ascending order by
/// [`ShardedEngine::lock_all`]. While it lives, no query can run and no
/// publication can land, so the holder sees (and may mutate) a frozen
/// engine. Dropping the guard publishes any cracks performed while it
/// was held to the shared crack log.
pub struct ShardSetGuard<'a> {
    engine: &'a ShardedEngine,
    guards: Vec<RwLockWriteGuard<'a, IndexState>>,
}

impl Drop for ShardSetGuard<'_> {
    fn drop(&mut self) {
        for (i, g) in self.guards.iter_mut().enumerate() {
            self.engine.publish_cracks(i, &mut *g);
        }
    }
}

impl<'a> ShardSetGuard<'a> {
    /// Number of shards held.
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// Whether the guard set is empty (never, for a live engine).
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// One shard's state.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &IndexState {
        #[expect(
            clippy::indexing_slicing,
            reason = "lock_all holds one guard per shard and i is a shard index from shard_of/the router; the # Panics contract is the API"
        )]
        &self.guards[i]
    }

    /// Exclusive access to one shard's state.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut IndexState {
        #[expect(
            clippy::indexing_slicing,
            reason = "lock_all holds one guard per shard and i is a shard index from shard_of/the router; the # Panics contract is the API"
        )]
        &mut self.guards[i]
    }

    /// Iterates over every shard's state mutably, in shard order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut IndexState> + use<'a, '_> {
        self.guards.iter_mut().map(|g| &mut **g)
    }

    /// Statistics merged across the held shards (an atomic cut — every
    /// lock is held).
    pub fn merged_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for g in &self.guards {
            let s = QueryEngine::stats(&**g);
            total.nodes += s.nodes;
            total.bytes += s.bytes;
            total.counters.absorb(&s.counters);
        }
        total
    }

    /// The engine's accuracy contract (uniform across shards).
    pub fn accuracy(&self) -> Accuracy {
        self.guards
            .first()
            .map(|g| QueryEngine::accuracy(&**g))
            .unwrap_or(Accuracy::Exact)
    }
}

/// The sharded engine is itself a [`QueryEngine`]: calls route to the
/// owning shard by relation, so the experiment harness and benches get
/// a shard-count axis with no special-casing. (`knn_in_s2` has no
/// relation; it routes to shard 0 by convention.) Locks are still taken
/// per call — `&mut self` callers pay only uncontended lock overhead.
impl QueryEngine for ShardedEngine {
    fn name(&self) -> &str {
        self.name
    }

    fn accuracy(&self) -> Accuracy {
        self.accuracy
    }

    fn top_k_filtered(
        &mut self,
        snap: &VkgSnapshot,
        entity: vkg_kg::EntityId,
        relation: RelationId,
        direction: crate::snapshot::Direction,
        k: usize,
        filter: &dyn Fn(vkg_kg::EntityId) -> bool,
    ) -> crate::error::VkgResult<crate::query::topk::TopKResult> {
        let s = self.shard_of(relation);
        let mut guard = self.write_shard(s);
        self.sync_shard(s, &mut guard);
        let r = guard.top_k_filtered(snap, entity, relation, direction, k, filter);
        self.publish_cracks(s, &mut guard);
        r
    }

    fn knn_in_s2(
        &mut self,
        snap: &VkgSnapshot,
        q_s1: &[f64],
        k: usize,
    ) -> crate::error::VkgResult<Vec<super::Neighbor>> {
        let mut guard = self.write_shard(0);
        self.sync_shard(0, &mut guard);
        let r = guard.knn_in_s2(snap, q_s1, k);
        self.publish_cracks(0, &mut guard);
        r
    }

    fn aggregate(
        &mut self,
        snap: &VkgSnapshot,
        entity: vkg_kg::EntityId,
        relation: RelationId,
        direction: crate::snapshot::Direction,
        spec: &crate::query::aggregate::AggregateSpec,
    ) -> crate::error::VkgResult<crate::query::aggregate::AggregateResult> {
        let s = self.shard_of(relation);
        let mut guard = self.write_shard(s);
        self.sync_shard(s, &mut guard);
        let r = guard.aggregate(snap, entity, relation, direction, spec);
        self.publish_cracks(s, &mut guard);
        r
    }

    fn stats(&self) -> EngineStats {
        self.merged_stats()
    }

    fn reset_access_counters(&mut self) {
        for i in 0..self.shards.len() {
            self.write_shard(i).reset_access_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vkg_embed::EmbeddingStore;
    use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph};

    use crate::snapshot::Direction;

    fn snap(shards: usize) -> VkgSnapshot {
        let mut g = KnowledgeGraph::new();
        let likes = g.add_relation("likes");
        let _also = g.add_relation("also");
        let a = g.add_entity("a");
        let b = g.add_entity("b");
        let _c = g.add_entity("c");
        g.add_triple(a, likes, b).unwrap();
        let store = EmbeddingStore::from_raw(
            2,
            vec![0.0, 0.0, 1.0, 0.0, 1.2, 0.0],
            vec![1.0, 0.0, 0.5, 0.5],
        );
        let cfg = VkgConfig {
            alpha: 2,
            shards,
            // Tiny leaves so even this 3-point world actually cracks —
            // the crack-log tests need trees that change shape.
            leaf_capacity: 2,
            ..VkgConfig::default()
        };
        VkgSnapshot::new(g, AttributeStore::new(), store, cfg).unwrap()
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        for count in [1, 2, 3, 7, 32, 33] {
            for r in 0..200 {
                let s = shard_of_relation(RelationId(r), count);
                assert!(s < count);
                assert_eq!(s, shard_of_relation(RelationId(r), count));
            }
        }
        // One shard means everything routes to it.
        assert_eq!(shard_of_relation(RelationId(u32::MAX), 1), 0);
    }

    #[test]
    fn router_spreads_dense_relation_ids() {
        // Interned relation ids are dense from 0; the router must not
        // pile them onto few shards.
        let count = 4;
        let mut hist = vec![0usize; count];
        for r in 0..64 {
            hist[shard_of_relation(RelationId(r), count)] += 1;
        }
        assert!(
            hist.iter().all(|&h| h >= 64 / count / 2),
            "unbalanced router: {hist:?}"
        );
    }

    #[test]
    fn lock_names_clamp_past_the_table() {
        assert_eq!(shard_lock_name(0), "vkg.shard00");
        assert_eq!(shard_lock_name(31), "vkg.shard31");
        assert_eq!(shard_lock_name(500), "vkg.shard31");
    }

    #[test]
    fn every_shard_answers_identically() {
        // Shards differ only in which queries crack them: the same
        // query through each shard returns the same ids.
        let s = snap(3);
        let engine = ShardedEngine::cracking(&s);
        assert_eq!(engine.shard_count(), 3);
        let mut answers = Vec::new();
        for i in 0..engine.shard_count() {
            let r = engine
                .write_shard(i)
                .top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 2)
                .unwrap();
            answers.push(r.predictions.iter().map(|p| p.id).collect::<Vec<_>>());
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[1], answers[2]);
    }

    #[test]
    fn routed_queries_crack_only_their_shard() {
        let s = snap(2);
        let mut engine = ShardedEngine::cracking(&s);
        let likes = RelationId(0);
        let owner = engine.shard_of(likes);
        let before: Vec<u64> = (0..2)
            .map(|i| engine.read_shard(i).index().stats().s1_distance_evals)
            .collect();
        let _ = engine
            .top_k(&s, EntityId(0), likes, Direction::Tails, 2)
            .unwrap();
        for (i, &evals_before) in before.iter().enumerate() {
            let after = engine.read_shard(i).index().stats().s1_distance_evals;
            if i == owner {
                assert!(after > evals_before, "owning shard must do the work");
            } else {
                assert_eq!(after, evals_before, "other shard untouched");
            }
        }
    }

    #[test]
    fn epochs_bump_together_under_all_locks() {
        let s = snap(2);
        let engine = ShardedEngine::cracking(&s);
        assert_eq!(engine.shard_epochs(), vec![0, 0]);
        {
            let _all = engine.lock_all();
            engine.bump_all_epochs();
        }
        assert_eq!(engine.shard_epochs(), vec![1, 1]);
        assert_eq!(engine.shard_epoch(0), 1);
    }

    #[test]
    fn merged_stats_sum_across_shards() {
        let s = snap(2);
        let mut engine = ShardedEngine::cracking(&s);
        let _ = engine
            .top_k(&s, EntityId(0), RelationId(0), Direction::Tails, 2)
            .unwrap();
        let merged = engine.merged_stats();
        // Two root-only trees (possibly cracked by the query).
        assert!(merged.nodes >= 2);
        assert!(merged.bytes > 0);
        assert!(merged.counters.s1_distance_evals > 0);
        assert_eq!(engine.node_count(), merged.nodes);
        assert_eq!(engine.index_bytes(), merged.bytes);
        let mut all = engine.lock_all();
        assert_eq!(all.merged_stats(), merged);
        assert_eq!(all.len(), 2);
        assert!(!all.is_empty());
        assert_eq!(all.accuracy(), Accuracy::Approximate { min_overlap: 0.5 });
        let n0 = all.shard(0).index().node_count();
        assert_eq!(all.shard_mut(0).index_mut().node_count(), n0);
        assert_eq!(all.iter_mut().count(), 2);
    }

    /// A world big enough that queries actually crack: 24 entities on a
    /// spread-out 2-d grid, two relations, tiny leaves.
    fn snap_many(shards: usize) -> VkgSnapshot {
        let mut g = KnowledgeGraph::new();
        let likes = g.add_relation("likes");
        let _also = g.add_relation("also");
        let n = 24;
        for i in 0..n {
            g.add_entity(&format!("e{i}"));
        }
        g.add_triple(EntityId(0), likes, EntityId(1)).unwrap();
        let mut coords = Vec::with_capacity(n as usize * 2);
        for i in 0..n {
            // Deterministic scatter, no two points colinear on an axis.
            coords.push((i as f64 * 1.37).sin() * 10.0);
            coords.push((i as f64 * 2.11).cos() * 10.0);
        }
        let store = EmbeddingStore::from_raw(2, coords, vec![1.0, 0.0, 0.5, 0.5]);
        let cfg = VkgConfig {
            alpha: 2,
            shards,
            leaf_capacity: 2,
            // Tight ball: the default epsilon (3.0) inflates the crack
            // region past the whole 24-point cloud, and the §IV-C stop
            // condition then keeps the root unsplit forever.
            epsilon: 0.1,
            ..VkgConfig::default()
        };
        VkgSnapshot::new(g, AttributeStore::new(), store, cfg).unwrap()
    }

    #[test]
    fn crack_log_keeps_sibling_trees_canonical() {
        let one = snap_many(1);
        let two = snap_many(2);
        let mut e1 = ShardedEngine::cracking(&one);
        let mut e2 = ShardedEngine::cracking(&two);
        // Interleave queries over relations owned by different shards;
        // answers must match the single-tree engine query for query.
        assert_ne!(e2.shard_of(RelationId(0)), e2.shard_of(RelationId(1)));
        for _ in 0..3 {
            for r in [RelationId(0), RelationId(1)] {
                let a = e1.top_k(&one, EntityId(0), r, Direction::Tails, 2).unwrap();
                let b = e2.top_k(&two, EntityId(0), r, Direction::Tails, 2).unwrap();
                assert_eq!(
                    a.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
                    b.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
                );
            }
        }
        // After a full sync (lock_all replays the log on every shard),
        // each sibling tree is structurally identical to the single
        // tree that saw the whole crack sequence directly.
        drop(e2.lock_all());
        // The crack traffic is observable: siblings published and
        // replayed entries, while the one-shard engine journaled nothing.
        assert!(e2.cracks_published() > 0, "siblings must journal cracks");
        assert!(e2.cracks_replayed() > 0, "laggards must replay cracks");
        assert_eq!(e1.cracks_published(), 0);
        assert_eq!(e1.cracks_replayed(), 0);
        let reference = e1.read_shard(0).index().node_count();
        assert!(reference > 1, "fixture must actually crack");
        for i in 0..2 {
            assert_eq!(
                e2.read_shard(i).index().node_count(),
                reference,
                "shard {i} diverged from the canonical tree"
            );
        }
    }

    #[test]
    fn bulk_loaded_shards_match_single_shard_answers() {
        let one = snap(1);
        let many = snap(7);
        let mut e1 = ShardedEngine::bulk_loaded(&one);
        let mut e7 = ShardedEngine::bulk_loaded(&many);
        let a = e1
            .top_k(&one, EntityId(0), RelationId(0), Direction::Tails, 2)
            .unwrap();
        let b = e7
            .top_k(&many, EntityId(0), RelationId(0), Direction::Tails, 2)
            .unwrap();
        assert_eq!(
            a.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            b.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
        );
        assert_eq!(e1.name(), "bulk-load R-tree");
        e7.reset_access_counters();
        assert_eq!(QueryEngine::stats(&e7).counters.s1_distance_evals, 0);
    }
}
