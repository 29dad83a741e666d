//! The virtual knowledge graph facade (Definition 1).
//!
//! Assembles an immutable, `Arc`-shared [`VkgSnapshot`] (graph +
//! attributes + embeddings + JL transform) with **one** lock-guarded
//! [`IndexState`] (the paper's single cracking R-tree over all entity
//! points and its query pipelines) into one queryable object. A
//! relation only moves the query point (§IV, Algorithm 3 line 1), so
//! one index serves every relation. The split means the lock — class
//! `vkg.index` — guards **only** the index: any number of readers
//! resolve entities, embeddings and query points through the snapshot
//! without ever touching a lock.
//!
//! A query traverses under the lock's **shared** side, beside any
//! number of other queries, and holds it only while it reads the tree:
//! what follows — an aggregate's S₁ access and estimate, say — runs on
//! the pinned snapshot after the guard is dropped. The crack a query
//! wants (Algorithm 3 line 9) is applied *late* — after the shared
//! guard is dropped (never upgraded), in a short exclusive section, and
//! only when a read-only pre-check ([`CrackingIndex::wants_crack`])
//! says the region still has something to split, so a warm index rarely
//! sees the exclusive side asked for.
//!
//! Dynamic updates are **epoch-swapped**: every write takes `&self`,
//! acquires the writer mutex (one writer at a time), builds a fresh
//! snapshot and logs it off every reader's way, and only then takes the
//! index lock exclusively to move its points and *publish* — swapping
//! the shared `Arc` and bumping the epoch counters: the global epoch on
//! every publication, the index epoch when the publication mutated the
//! index. Readers holding an older `Arc` clone keep a consistent
//! pre-update view; new readers pick up the new epoch with a single
//! pointer load. Because publication happens only under the exclusive
//! side, a reader holding the shared guard sees both epochs pinned.
//! This is the concurrency contract the serving layer (`vkg-server`)
//! extends across the process boundary. Snapshots share their stores
//! chunk by chunk ([`vkg_kg::ChunkVec`], [`vkg_kg::CHUNK_LEN`] rows to a
//! chunk), so a fact write copies the few chunks its two entities live
//! in — not the graph, not the embedding matrix.
//!
//! Lock order: `vkg.writer < vkg.index < { vkg.published, vkg.cache }`,
//! with `vkg.wal` under `vkg.writer` alone; `vkg.published`, `vkg.cache`
//! and `vkg.wal` are leaves (DESIGN.md §3.5).
//!
//! Queries follow the paper's default E′-only semantics: results never
//! include edges already in `E`, nor the query entity itself.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use vkg_embed::EmbeddingStore;
use vkg_kg::{AttributeStore, EntityId, KnowledgeGraph, RelationId};
use vkg_obs::{Clock, MetricsSnapshot, Registry};
use vkg_sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::cache::{CacheKey, Lookup, ResultCache};
use crate::config::VkgConfig;
use crate::engine::{IndexState, QueryEngine};
use crate::error::{check_finite, VkgError, VkgResult};
use crate::geometry::Mbr;
use crate::index::CrackingIndex;
use crate::metrics::VkgMetrics;
use crate::query::aggregate::{AggregateResult, AggregateSpec};
use crate::query::topk::TopKResult;
use crate::query::{Answer, Query, QueryOp};
use crate::snapshot::VkgSnapshot;
use crate::stats::IndexStats;
use crate::wal::{self, fault::FaultPlane, TokenMap, WalRecord};

pub use crate::snapshot::Direction;

/// Former name of the facade's error type, kept as an alias after query
/// errors became the workspace-wide [`VkgError`].
pub type QueryError = VkgError;

/// Read access to the facade's index, holding the index lock's shared
/// side for the guard's lifetime.
pub struct IndexGuard<'a>(RwLockReadGuard<'a, IndexState>);

impl IndexGuard<'_> {
    /// The index with its engine-level reports
    /// ([`QueryEngine::stats`], [`QueryEngine::accuracy`]).
    pub fn state(&self) -> &IndexState {
        &self.0
    }
}

impl Deref for IndexGuard<'_> {
    type Target = CrackingIndex;

    fn deref(&self) -> &CrackingIndex {
        self.0.index()
    }
}

/// Exclusive access to the facade's index, holding the writer mutex and
/// the index lock for the guard's lifetime. Queries and dynamic updates
/// block behind it.
pub struct IndexGuardMut<'a> {
    index: RwLockWriteGuard<'a, IndexState>,
    _writer: MutexGuard<'a, ()>,
}

impl Deref for IndexGuardMut<'_> {
    type Target = CrackingIndex;

    fn deref(&self) -> &CrackingIndex {
        self.index.index()
    }
}

impl DerefMut for IndexGuardMut<'_> {
    fn deref_mut(&mut self) -> &mut CrackingIndex {
        self.index.index_mut()
    }
}

/// A borrow projected out of the currently-published snapshot.
///
/// The facade's component accessors ([`VirtualKnowledgeGraph::graph`]
/// and friends) hand these out instead of plain references because the
/// published snapshot can be *swapped* by a concurrent dynamic update:
/// the `SnapRef` pins the epoch it was taken at (an `Arc` clone), so the
/// borrow stays valid — and internally consistent — however long it is
/// held, without holding any lock.
pub struct SnapRef<T: ?Sized + 'static> {
    snap: Arc<VkgSnapshot>,
    project: fn(&VkgSnapshot) -> &T,
}

impl<T: ?Sized> Deref for SnapRef<T> {
    type Target = T;

    fn deref(&self) -> &T {
        (self.project)(&self.snap)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SnapRef<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The published read side: the current snapshot plus the two epoch
/// counters. Written only while the writer mutex and the index lock's
/// exclusive side are held.
#[derive(Debug)]
struct Published {
    /// Advances on every publication.
    epoch: u64,
    /// Advances on the publications that mutated the index (a fact or
    /// entity write does, an attribute write does not).
    index_epoch: u64,
    snap: Arc<VkgSnapshot>,
}

impl Published {
    fn pin(&self) -> IndexPin {
        IndexPin {
            epoch: self.epoch,
            index_epoch: self.index_epoch,
        }
    }
}

/// The epochs pinned by [`VirtualKnowledgeGraph::with_published_index`]:
/// exact while either side of the index lock is held, because
/// publication needs the exclusive side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPin {
    /// The global snapshot epoch.
    pub epoch: u64,
    /// The index epoch.
    pub index_epoch: u64,
}

/// What [`VirtualKnowledgeGraph::attach_wal`] reconstructed from the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecoveryReport {
    /// Valid records replayed into the engine, in append order.
    pub replayed: u64,
    /// Torn-tail bytes truncated from the log before appends resumed.
    pub truncated_bytes: u64,
    /// The snapshot epoch after replay finished.
    pub epoch: u64,
}

/// The durability state guarded by the `vkg.wal` lock, which is taken
/// only under the writer mutex: the append handle (absent until
/// [`VirtualKnowledgeGraph::attach_wal`]) and the idempotency map. The
/// map works with the WAL detached too, so a duplicated
/// `AddFactDynamic` frame never double-applies even on a purely
/// in-memory facade.
#[derive(Debug)]
struct Durability {
    writer: Option<wal::Writer>,
    dedup: TokenMap,
}

/// Retry horizon of the idempotency map: how many distinct tokens the
/// facade remembers before FIFO eviction. Far beyond any client's
/// bounded-retry window.
const TOKEN_CAPACITY: usize = 4096;

/// A knowledge graph extended with predicted, probabilistic edges, indexed
/// for predictive top-k and aggregate queries.
///
/// All query **and update** methods take `&self`: reads go through the
/// currently-published snapshot lock-free, queries read the tree under
/// the index lock's shared side and crack it late, and dynamic updates
/// act as a single writer (the writer mutex) that publishes a fresh
/// snapshot epoch under the index lock's exclusive side. The facade is
/// `Send + Sync` and is shared behind an `Arc` by the serving layer with
/// no outer lock.
#[derive(Debug)]
pub struct VirtualKnowledgeGraph {
    published: RwLock<Published>,
    /// Lock class `vkg.writer`, first in the lock order: orders every
    /// publisher (the three dynamic writes and WAL replay) and every
    /// [`VirtualKnowledgeGraph::index_mut`] holder. A writer prepares,
    /// validates and logs under it alone, so between its validation and
    /// its publication no point can move or be tombstoned.
    writer: Mutex<()>,
    /// The one cracking index, lock class `vkg.index`, after the writer
    /// mutex. Shared while a query reads the tree; exclusive for a late
    /// crack and for a writer's point moves and publication.
    index: RwLock<IndexState>,
    metrics: VkgMetrics,
    /// The epoch-keyed result cache ([`crate::cache`]), present when
    /// [`VkgConfig::cache_capacity`] > 0. Probed only under the index
    /// lock — either side pins the epochs — so every hit is provably
    /// identical to recomputation; filled under it by a top-k and after
    /// it by an aggregate, always at the epochs pinned for the answer,
    /// which an entry keeps (DESIGN.md §3.8).
    cache: Option<ResultCache>,
    /// WAL writer + idempotency map (DESIGN.md §3.9), lock class
    /// `vkg.wal`: taken only under the writer mutex, never under the
    /// index lock. The write path appends under it, *before* the
    /// publication the record guards.
    durability: Mutex<Durability>,
}

impl VirtualKnowledgeGraph {
    /// Assembles a virtual knowledge graph with an **online cracking**
    /// index (starts as a root-only tree; queries shape it).
    ///
    /// # Panics
    /// Panics if the embedding store's entity count does not match the
    /// graph's, the configuration is invalid, or an embedding value is
    /// not finite. Use
    /// [`VirtualKnowledgeGraph::try_assemble`] to handle these as errors.
    pub fn assemble(
        graph: KnowledgeGraph,
        attributes: AttributeStore,
        embeddings: EmbeddingStore,
        config: VkgConfig,
    ) -> Self {
        match Self::try_assemble(graph, attributes, embeddings, config) {
            Ok(vkg) => vkg,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract; try_assemble is the fallible form"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`VirtualKnowledgeGraph::assemble`].
    pub fn try_assemble(
        graph: KnowledgeGraph,
        attributes: AttributeStore,
        embeddings: EmbeddingStore,
        config: VkgConfig,
    ) -> VkgResult<Self> {
        let snapshot = VkgSnapshot::new(graph, attributes, embeddings, config)?;
        Self::from_snapshot(snapshot, false)
    }

    /// Builds the index over `snapshot`. Metrics record into a live
    /// per-facade registry on a real clock.
    ///
    /// Non-finite embeddings stop here, before anything sorts by them.
    /// Entity rows are checked on their S₂ projections (α values each,
    /// which the build needs anyway; a NaN or ±∞ row cannot project to a
    /// finite point), so the S₁ matrix is not scanned a second time.
    fn from_snapshot(snapshot: VkgSnapshot, bulk: bool) -> VkgResult<Self> {
        let config = snapshot.config();
        for rows in snapshot.embeddings().relation_rows().chunks() {
            check_finite("relation embedding", rows)?;
        }
        let points = snapshot.project_points();
        points.check_finite()?;
        let index = IndexState::build(&snapshot, points, bulk);
        let cache = match config.cache_capacity {
            0 => None,
            capacity => Some(ResultCache::new(capacity)),
        };
        Ok(Self {
            published: RwLock::with_name(
                Published {
                    epoch: 0,
                    index_epoch: 0,
                    snap: Arc::new(snapshot),
                },
                "vkg.published",
            ),
            writer: Mutex::with_name((), "vkg.writer"),
            index: RwLock::with_name(index, "vkg.index"),
            metrics: VkgMetrics::new(Registry::active(), Clock::real()),
            cache,
            durability: Mutex::with_name(
                Durability {
                    writer: None,
                    dedup: TokenMap::new(TOKEN_CAPACITY),
                },
                "vkg.wal",
            ),
        })
    }

    /// Assembles with a fully **bulk-loaded** offline index (the
    /// BULKLOADCHUNK baseline of §VI).
    ///
    /// # Panics
    /// Panics under the same conditions as
    /// [`VirtualKnowledgeGraph::assemble`].
    pub fn assemble_bulk_loaded(
        graph: KnowledgeGraph,
        attributes: AttributeStore,
        embeddings: EmbeddingStore,
        config: VkgConfig,
    ) -> Self {
        match Self::try_assemble_bulk_loaded(graph, attributes, embeddings, config) {
            Ok(vkg) => vkg,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract; try_assemble_bulk_loaded is the fallible form"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`VirtualKnowledgeGraph::assemble_bulk_loaded`].
    pub fn try_assemble_bulk_loaded(
        graph: KnowledgeGraph,
        attributes: AttributeStore,
        embeddings: EmbeddingStore,
        config: VkgConfig,
    ) -> VkgResult<Self> {
        let snapshot = VkgSnapshot::new(graph, attributes, embeddings, config)?;
        Self::from_snapshot(snapshot, true)
    }

    /// The immutable read side, shareable across threads. Clones of this
    /// `Arc` stay valid (and lock-free) while other threads query — they
    /// observe the snapshot as of the clone, unaffected by later dynamic
    /// updates (which publish a fresh snapshot).
    pub fn snapshot(&self) -> Arc<VkgSnapshot> {
        self.published.read().snap.clone()
    }

    /// The currently-published `(epoch, snapshot)` pair, read atomically.
    /// The epoch starts at 0 and advances by one per dynamic update, so
    /// two reads with equal epochs saw byte-identical snapshots.
    pub fn published(&self) -> (u64, Arc<VkgSnapshot>) {
        let p = self.published.read();
        (p.epoch, p.snap.clone())
    }

    /// The current snapshot epoch (number of published dynamic updates).
    pub fn epoch(&self) -> u64 {
        self.published.read().epoch
    }

    /// The current index epoch: the number of publications that mutated
    /// the index. Exact while either side of the index lock is held;
    /// otherwise a monotone snapshot.
    pub fn index_epoch(&self) -> u64 {
        self.published.read().index_epoch
    }

    /// The materialized knowledge graph (pinned at the current epoch).
    pub fn graph(&self) -> SnapRef<KnowledgeGraph> {
        SnapRef {
            snap: self.snapshot(),
            project: VkgSnapshot::graph,
        }
    }

    /// The attribute store (pinned at the current epoch).
    pub fn attributes(&self) -> SnapRef<AttributeStore> {
        SnapRef {
            snap: self.snapshot(),
            project: VkgSnapshot::attributes,
        }
    }

    /// The embedding store, space S₁ (pinned at the current epoch).
    pub fn embeddings(&self) -> SnapRef<EmbeddingStore> {
        SnapRef {
            snap: self.snapshot(),
            project: VkgSnapshot::embeddings,
        }
    }

    /// The configuration in effect (pinned at the current epoch).
    pub fn config(&self) -> SnapRef<VkgConfig> {
        SnapRef {
            snap: self.snapshot(),
            project: VkgSnapshot::config,
        }
    }

    /// Index statistics (splits, nodes, per-query access counters).
    pub fn index_stats(&self) -> IndexStats {
        self.index.read().index().stats()
    }

    /// The facade's metric handles (registry, clock, typed counters).
    pub fn metrics(&self) -> &VkgMetrics {
        &self.metrics
    }

    /// A full metrics snapshot: the per-query counters and latency
    /// histogram recorded on the hot path, plus engine-side statistics
    /// (index size) sampled into gauges at the moment of the call.
    /// Takes the index lock's shared side for the sample.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let stats = self.index.read().stats();
        self.metrics.snapshot_with_engine(&stats)
    }

    /// Number of index nodes (Fig. 9 metric).
    pub fn index_node_count(&self) -> usize {
        self.index.read().index().node_count()
    }

    /// Approximate index size in bytes (Figs. 10–11 metric).
    pub fn index_bytes(&self) -> usize {
        self.index.read().index().index_bytes()
    }

    /// Waits for every guard on the index lock held at the call —
    /// traversals, late cracks, writes' publications — to be released:
    /// acquires and releases the exclusive side. A query past its tree
    /// read (estimating on its pinned snapshot, or before its late
    /// crack) holds no guard and is not waited for, nor is a writer
    /// still preparing or logging; a caller that needs every *request*
    /// finished joins the threads running them first, as the server's
    /// drain does (workers, then this barrier).
    pub fn quiesce(&self) {
        drop(self.index.write());
    }

    /// The query center in S₁ for an entity/relation/direction.
    pub fn query_point_s1(
        &self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
    ) -> VkgResult<Vec<f64>> {
        self.snapshot().query_point_s1(entity, relation, direction)
    }

    /// The published epochs and snapshot, read together. Exact for as
    /// long as the caller holds either side of the index lock: a writer
    /// publishes only under the exclusive side. Always read after the
    /// index lock, never before — `vkg.published` is a leaf under it.
    fn pinned(&self) -> (IndexPin, Arc<VkgSnapshot>) {
        let p = self.published.read();
        (p.pin(), p.snap.clone())
    }

    /// Runs `f` under the index lock's **shared** side against the
    /// currently-published snapshot: while `f` runs no dynamic update
    /// can publish and no crack can land (both need the exclusive
    /// side), so both epochs in the [`IndexPin`] are exact and the tree
    /// stands still, while any number of other readers run beside it.
    ///
    /// `f` must not call back into this facade (the index lock is not
    /// reentrant, and its exclusive side is never granted to a thread
    /// holding the shared guard).
    pub fn with_published_index<R>(
        &self,
        f: impl FnOnce(IndexPin, &VkgSnapshot, &IndexState) -> R,
    ) -> R {
        let state = self.index.read();
        let (pin, snap) = self.pinned();
        f(pin, &snap, &state)
    }

    /// Held for the benchmark (DESIGN.md §3.5), which drives the `&mut`
    /// [`IndexState`] it hands out: the **exclusive** counterpart of
    /// [`VirtualKnowledgeGraph::with_published_index`]. One index
    /// serves every relation, so `relation` selects nothing.
    pub fn with_published_shard<R>(
        &self,
        _relation: RelationId,
        f: impl FnOnce(IndexPin, &VkgSnapshot, &mut IndexState) -> R,
    ) -> R {
        let mut state = self.index.write();
        let (pin, snap) = self.pinned();
        f(pin, &snap, &mut state)
    }

    /// One round of the read protocol every query goes through: take the
    /// shared guard (`on_guard` fires once it is held, so a caller can
    /// time the wait), pin the epochs, run `half` — whatever reads the
    /// tree: a cache probe, a read half, a top-k's cache fill — which
    /// returns the region to crack, pre-checked under the guard
    /// ([`CrackingIndex::wants_crack`], or the verdict a region read
    /// folds in): `None` when it traversed nothing (a cache hit), and
    /// `Some(None)` when it traversed but has nothing to split, or no
    /// region (an empty k-set), which counts as a skipped crack. Then the
    /// shared guard is dropped and `stage` finishes the answer from what
    /// `half` read, on the snapshot pinned with it — the epochs in the
    /// pin stay the answer's, whatever publishes meanwhile. Last, and
    /// only if the pre-check said so, the crack is applied in a short
    /// exclusive section; it needs no re-validation, since a crack
    /// refines whatever tree it finds and answers do not depend on it.
    fn read_round<T, U>(
        &self,
        on_guard: &mut dyn FnMut(),
        half: impl FnOnce(IndexPin, &VkgSnapshot, &IndexState) -> VkgResult<(T, Option<Option<Mbr>>)>,
        stage: impl FnOnce(IndexPin, &VkgSnapshot, T) -> U,
    ) -> VkgResult<(IndexPin, U)> {
        let state = self.index.read();
        on_guard();
        let (pin, snap) = self.pinned();
        let (value, crack) = half(pin, &snap, &state)?;
        drop(state);
        let value = stage(pin, &snap, value);
        // `None`: nothing traversed (a cache hit). `Some(None)`: nothing
        // left to split.
        if let Some(crack) = crack {
            if let Some(region) = &crack {
                self.index.write().index_mut().crack(region);
            }
            self.metrics.record_crack(crack.is_some());
        }
        Ok((pin, value))
    }

    /// The served read: answers `query` — a top-k, filtered or not, or
    /// an aggregate — through the read protocol (DESIGN.md §3.5), with
    /// the result cache in the path when it is on and [`CacheKey::of`]
    /// keys the query. `on_guard` fires each time a shared guard is held,
    /// so a caller can time the wait. Returns the epochs the answer was
    /// computed at; records no query metrics — callers own that.
    ///
    /// A top-k takes one round. An aggregate takes **two** — the inner
    /// top-1 that anchors the ball, then the ball itself — so the reads
    /// and the cracks keep the sequence of the exclusive composition (a
    /// sampled aggregate's strata are the contour its own top-1 crack
    /// left). The second round re-reads the pin; if a write published in
    /// between, the anchor belongs to a superseded epoch and the query
    /// starts over, so an answer is always computed at one epoch — the
    /// one returned. Of the ball round only the region read holds the
    /// shared guard — it answers the crack pre-check from the in-box
    /// counts it takes; the S₁ access, the estimate and the cache fill
    /// run after it, on the snapshot pinned with the read.
    pub fn execute(
        &self,
        query: &Query,
        on_guard: &mut dyn FnMut(),
    ) -> VkgResult<(IndexPin, Answer)> {
        // With the cache off, no key: a fingerprint is an allocation.
        let key = self.cache.as_ref().and_then(|_| CacheKey::of(query));
        let &Query {
            entity,
            relation,
            direction,
            ref op,
        } = query;
        match op {
            QueryOp::TopK { k, filter } => {
                let accept =
                    |snap: &VkgSnapshot, id| filter.as_ref().is_none_or(|f| f.accepts(snap, id));
                let q = (entity, relation, direction, *k);
                let (pin, r) = self.top_k_round(q, key, accept, on_guard)?;
                Ok((pin, Answer::TopK(r)))
            }
            QueryOp::Aggregate(spec) => {
                let q = (entity, relation, direction);
                let (pin, r) = self.aggregate_rounds(q, spec, key, on_guard)?;
                Ok((pin, Answer::Aggregate(r)))
            }
        }
    }

    /// Answers `query` from the result cache alone, or returns `None`
    /// having changed nothing: with the cache off or an uncacheable query
    /// (`CacheKey::of`) before taking any lock, and otherwise after
    /// peeking at its entry under the index lock's shared side with the
    /// epochs pinned (`on_guard` fires once the guard is held). It reads
    /// the cache as [`VirtualKnowledgeGraph::execute`] does, so a hit
    /// here is the answer `execute` would return at these epochs; a
    /// hit is counted in `core.cache.hit`, and a miss or a stale entry
    /// is left for `execute`'s probe to count and act on. Records no
    /// query metrics — callers own that.
    pub fn cached(&self, query: &Query, on_guard: &mut dyn FnMut()) -> Option<(IndexPin, Answer)> {
        let cache = self.cache.as_ref()?;
        let key = CacheKey::of(query)?;
        let k = match query.op {
            QueryOp::TopK { k, .. } => k,
            QueryOp::Aggregate(_) => 0,
        };
        let _state = self.index.read();
        on_guard();
        let pin = self.published.read().pin();
        let answer = self.probe(cache, &key, k, pin, true)?;
        Some((pin, answer))
    }

    /// Top-k predicted entities for `(entity, relation)` in `direction`
    /// (Q1-style queries; Algorithm 3).
    pub fn top_k(
        &self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
    ) -> VkgResult<TopKResult> {
        let start = self.metrics.clock().now();
        let key = CacheKey::top_k(entity.0, relation.0, direction, None);
        let q = (entity, relation, direction, k);
        let round = self.top_k_round(q, Some(key), |_, _| true, &mut || {});
        let r = round.map(|(_, r)| r);
        self.metrics
            .record_query(start, r.as_ref().map_or(0, |t| t.s1_evals), r.is_ok());
        r
    }

    /// Top-k restricted to entities accepted by `filter` (e.g. only
    /// movies). The E′ semantics (skip known edges, skip self) always
    /// apply on top of the filter.
    ///
    /// Closure filters have no deterministic fingerprint, so this entry
    /// point always bypasses the result cache; a declarative
    /// [`Filter`](crate::query::Filter) is keyed by its fingerprint through
    /// [`VirtualKnowledgeGraph::execute`].
    pub fn top_k_filtered(
        &self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        filter: impl Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        let start = self.metrics.clock().now();
        let q = (entity, relation, direction, k);
        let round = self.top_k_round(q, None, |_, id| filter(id), &mut || {});
        let r = round.map(|(_, r)| r);
        self.metrics
            .record_query(start, r.as_ref().map_or(0, |t| t.s1_evals), r.is_ok());
        r
    }

    /// One round of a top-k: the cache-aware read half
    /// ([`VirtualKnowledgeGraph::top_k_half`]) under the shared guard,
    /// with `filter` run on the snapshot pinned with it, then the late
    /// crack.
    fn top_k_round(
        &self,
        q: (EntityId, RelationId, Direction, usize),
        key: Option<CacheKey>,
        filter: impl Fn(&VkgSnapshot, EntityId) -> bool,
        on_guard: &mut dyn FnMut(),
    ) -> VkgResult<(IndexPin, TopKResult)> {
        self.read_round(
            on_guard,
            |pin, snap, state| {
                let accept = |id| filter(snap, id);
                let (r, region) = self.top_k_half(pin, snap, state, q, key, &accept)?;
                Ok((r, pre_check(state, region)))
            },
            |_, _, r| r,
        )
    }

    /// Held for the benchmark (DESIGN.md §3.5): the cache-aware top-k
    /// under the **exclusive** guard the caller holds
    /// ([`VirtualKnowledgeGraph::with_published_shard`]) — the halves
    /// of the shared path composed in place: probe, read, fill, crack.
    /// Records no query metrics — callers own that.
    #[allow(
        clippy::too_many_arguments,
        reason = "the query field by field, plus the pin, snapshot and state the caller holds"
    )]
    pub fn top_k_pinned(
        &self,
        pin: IndexPin,
        snap: &VkgSnapshot,
        state: &mut IndexState,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
    ) -> VkgResult<TopKResult> {
        let key = CacheKey::top_k(entity.0, relation.0, direction, None);
        let q = (entity, relation, direction, k);
        let (r, region) = self.top_k_half(pin, snap, state, q, Some(key), &|_| true)?;
        if let Some(region) = region.flatten() {
            state.index_mut().crack(&region);
        }
        Ok(r)
    }

    /// [`VirtualKnowledgeGraph::top_k_pinned`] with a candidate filter
    /// (held like it). `fingerprint` is a deterministic byte encoding of
    /// the filter (equal bytes ⇒ equal predicate, as
    /// [`crate::query::Filter::fingerprint`]); with `None` the call
    /// bypasses the cache, because a bare closure cannot be keyed.
    #[allow(
        clippy::too_many_arguments,
        reason = "the query field by field, plus the pin, snapshot and state the caller holds"
    )]
    pub fn top_k_filtered_pinned(
        &self,
        pin: IndexPin,
        snap: &VkgSnapshot,
        state: &mut IndexState,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        k: usize,
        fingerprint: Option<&[u8]>,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<TopKResult> {
        let key = fingerprint
            .map(|bytes| CacheKey::top_k(entity.0, relation.0, direction, Some(bytes.to_vec())));
        let q = (entity, relation, direction, k);
        let (r, region) = self.top_k_half(pin, snap, state, q, key, filter)?;
        if let Some(region) = region.flatten() {
            state.index_mut().crack(&region);
        }
        Ok(r)
    }

    /// The top-k work of one round, under either side of the index lock
    /// (the [`IndexPin`] proves both epochs are exact): serves from the
    /// result cache when `key` names an entry holding this query's
    /// answer for this k — a hit touches no tree and wants no crack —
    /// and otherwise runs the read half and fills the cache. The region
    /// is [`VirtualKnowledgeGraph::read_round`]'s. `key` is `None` for a
    /// query that cannot be keyed; `filter` runs on misses.
    fn top_k_half(
        &self,
        pin: IndexPin,
        snap: &VkgSnapshot,
        state: &IndexState,
        (entity, relation, direction, k): (EntityId, RelationId, Direction, usize),
        key: Option<CacheKey>,
        filter: &dyn Fn(EntityId) -> bool,
    ) -> VkgResult<(TopKResult, Option<Option<Mbr>>)> {
        let slot = self.cache.as_ref().zip(key);
        if let Some((cache, key)) = &slot {
            if let Some(Answer::TopK(result)) = self.probe(cache, key, k, pin, false) {
                return Ok((result, None));
            }
        }
        // Only `Ok` answers are stored: `k = 0` is the engine's typed
        // rejection every time it is asked.
        let (r, region) = state.top_k_read(snap, entity, relation, direction, k, filter)?;
        if let Some((cache, key)) = slot {
            cache.insert_top_k(key, k, pin.epoch, pin.index_epoch, &r);
        }
        Ok((r, Some(region)))
    }

    /// The one cache probe, for the answer filled for `k` (0 for an
    /// aggregate) at the pinned epochs, keeping the cache counters. A
    /// full probe counts a hit, a miss or a stale entry (which it
    /// removes); a peek counts and serves a hit only, and leaves a miss or
    /// a stale entry untouched for the full probe that the query then
    /// runs — so each read is counted once, whoever serves it.
    fn probe(
        &self,
        cache: &ResultCache,
        key: &CacheKey,
        k: usize,
        pin: IndexPin,
        peek: bool,
    ) -> Option<Answer> {
        match cache.lookup(key, k, pin.epoch, pin.index_epoch, !peek) {
            Lookup::Hit(answer) => {
                self.metrics.record_cache_hit();
                return Some(answer);
            }
            _ if peek => {}
            Lookup::Stale => {
                self.metrics.record_cache_invalidate();
                self.metrics.record_cache_miss();
            }
            Lookup::Miss => self.metrics.record_cache_miss(),
        }
        None
    }

    /// Probes an aggregate's slot at the pinned epochs (a full probe).
    fn probe_aggregate(
        &self,
        slot: Option<&(&ResultCache, CacheKey)>,
        pin: IndexPin,
    ) -> Option<AggregateResult> {
        let (cache, key) = slot?;
        match self.probe(cache, key, 0, pin, false)? {
            Answer::Aggregate(r) => Some(r),
            Answer::TopK(_) => None,
        }
    }

    /// Held for the benchmark (DESIGN.md §3.5): the cache-aware
    /// aggregate under the **exclusive** guard the caller holds — the
    /// aggregate counterpart of [`VirtualKnowledgeGraph::top_k_pinned`]:
    /// probe, then [`QueryEngine::aggregate`] (both read halves, each
    /// followed by its crack), then fill.
    #[allow(
        clippy::too_many_arguments,
        reason = "the query field by field, plus the pin, snapshot and state the caller holds"
    )]
    pub fn aggregate_pinned(
        &self,
        pin: IndexPin,
        snap: &VkgSnapshot,
        state: &mut IndexState,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
    ) -> VkgResult<AggregateResult> {
        let query = Query::aggregate(entity, relation, direction, spec.clone());
        let slot = self.cache.as_ref().zip(CacheKey::of(&query));
        if let Some(hit) = self.probe_aggregate(slot.as_ref(), pin) {
            return Ok(hit);
        }
        let r = state.aggregate(snap, entity, relation, direction, spec)?;
        if let Some((cache, key)) = slot {
            cache.insert_aggregate(key, pin.epoch, pin.index_epoch, &r);
        }
        Ok(r)
    }

    /// An aggregate's two rounds of the read protocol (see
    /// [`VirtualKnowledgeGraph::execute`]), cache-aware when `key` is
    /// `Some`.
    fn aggregate_rounds(
        &self,
        (entity, relation, direction): (EntityId, RelationId, Direction),
        spec: &AggregateSpec,
        key: Option<CacheKey>,
        on_guard: &mut dyn FnMut(),
    ) -> VkgResult<(IndexPin, AggregateResult)> {
        let slot = self.cache.as_ref().zip(key);
        let fill = |pin: IndexPin, r: &AggregateResult| {
            if let Some((cache, key)) = &slot {
                cache.insert_aggregate(key.clone(), pin.epoch, pin.index_epoch, r);
            }
        };
        loop {
            // `Err` ends the query in round one: a cache hit, or the
            // empty answer when nothing is predictable around the center.
            let (pin, anchor) = self.read_round(
                on_guard,
                |pin, snap, state| {
                    if let Some(hit) = self.probe_aggregate(slot.as_ref(), pin) {
                        return Ok((Err(hit), None));
                    }
                    let (nearest, region) =
                        state.aggregate_anchor(snap, entity, relation, direction, spec)?;
                    let anchor = nearest.ok_or_else(AggregateResult::empty);
                    if let Err(empty) = &anchor {
                        fill(pin, empty);
                    }
                    Ok((anchor, pre_check(state, Some(region))))
                },
                |_, _, anchor| anchor,
            )?;
            let nearest = match anchor {
                Ok(nearest) => nearest,
                Err(answer) => return Ok((pin, answer)),
            };
            let (_, ball) = self.read_round(
                on_guard,
                |now, snap, state| {
                    if now != pin {
                        return Ok((None, None));
                    }
                    let (ball, crack) = state
                        .aggregate_ball_read(snap, entity, relation, direction, spec, &nearest)?;
                    Ok((Some(ball), Some(crack)))
                },
                |pin, snap, ball| {
                    ball.map(|ball| ball.estimate(snap, spec).inspect(|r| fill(pin, r)))
                },
            )?;
            if let Some(r) = ball {
                return Ok((pin, r?));
            }
        }
    }

    /// Answers an aggregate query over the probability ball around the
    /// query center (§V-B).
    pub fn aggregate(
        &self,
        entity: EntityId,
        relation: RelationId,
        direction: Direction,
        spec: &AggregateSpec,
    ) -> VkgResult<AggregateResult> {
        let start = self.metrics.clock().now();
        let key = self.cache.as_ref().and_then(|_| {
            CacheKey::of(&Query::aggregate(entity, relation, direction, spec.clone()))
        });
        let q = (entity, relation, direction);
        let r = self
            .aggregate_rounds(q, spec, key, &mut || {})
            .map(|(_, r)| r);
        // Aggregates refine by accessing exact S₁ distances; the access
        // count is the refine-step analogue top-k reports as s1_evals.
        let accessed = r.as_ref().map_or(0, |a| a.accessed as u64);
        self.metrics.record_query(start, accessed, r.is_ok());
        r
    }

    // ------------------------------------------------------------------
    // Dynamic knowledge-graph updates (the paper's §VIII future work:
    // "when there are local updates, the embedding changes should be
    // local too, as most (h, r, t) soft constraints still hold. We plan
    // to do incremental updates on our partial index.")
    //
    // Updates take `&self` and act as a single writer: they serialize on
    // the writer mutex, build the next snapshot off to the side (and, for
    // a fact, log it) with no index guard held, then take the index lock
    // exclusively only to move their points and publish with an epoch
    // bump. Building it costs what the write touches: the clone copies
    // chunk spines (one pointer per `vkg_kg::CHUNK_LEN` = 2^`CHUNK_BITS`
    // rows), and a fact then copies at most two embedding-row chunks, one
    // chunk of each adjacency direction and the triple log's tail chunk;
    // every other chunk stays shared with the epochs readers still pin.
    // Index-mutating writes also bump the index epoch. Concurrent readers
    // holding an older snapshot clone keep a consistent (pre-update)
    // view.
    // ------------------------------------------------------------------

    /// Publishes `next` as the new snapshot epoch; `index_changed` says
    /// whether the write also moved a point in the index. Callers must
    /// hold the writer mutex and the index lock exclusively, so the index
    /// and the published snapshot advance together (and so a reader
    /// holding the lock has both epochs pinned).
    fn publish(&self, next: VkgSnapshot, index_changed: bool) -> u64 {
        let mut p = self.published.write();
        p.epoch += 1;
        p.index_epoch += u64::from(index_changed);
        p.snap = Arc::new(next);
        p.epoch
    }

    /// Adds a new entity with a known S₁ embedding (e.g. produced by the
    /// external embedding pipeline for a cold-start item). The entity is
    /// projected into S₂ and spliced into the partial index in place — no
    /// rebuild.
    ///
    /// # Errors
    /// A typed [`VkgError`] if the embedding's dimensionality does not
    /// match the store, a coordinate is not finite, or the dense id
    /// space is exhausted; the failed write publishes nothing.
    pub fn add_entity_dynamic(&self, name: &str, s1_embedding: &[f64]) -> VkgResult<EntityId> {
        // The dimensionality is fixed at assembly, so any snapshot
        // answers; checked before any lock, since a mismatched row would
        // panic in the store.
        let dim = self.snapshot().embeddings().dim();
        if s1_embedding.len() != dim {
            return Err(VkgError::Mismatch {
                what: "entity embedding dimensionality",
                expected: dim,
                found: s1_embedding.len(),
            });
        }
        check_finite("entity embedding", s1_embedding)?;
        let _writer = self.writer.lock();
        let mut next = (*self.snapshot()).clone();
        let id = next.graph_mut().add_entity(name);
        let s2 = next.transform().apply(s1_embedding);
        // An interned name is an embedding update of that entity.
        let known = id.index() < next.embeddings().num_entities();
        if known {
            next.embeddings_mut()
                .entity_mut(id)
                .copy_from_slice(s1_embedding);
        } else {
            let store_id = next.embeddings_mut().push_entity(s1_embedding);
            debug_assert_eq!(store_id, id, "graph and store ids must stay aligned");
        }
        let mut state = self.index.write();
        if known {
            state.index_mut().update_point(id.0, &s2)?;
        } else {
            let point_id = state.index_mut().insert_point(&s2)?;
            debug_assert_eq!(point_id, id.0, "index point ids must stay aligned");
        }
        self.publish(next, true);
        Ok(id)
    }

    /// Adds a fact `(h, r, t)` to `E` and locally refines the embeddings:
    /// `refine_steps` gradient steps pull `h + r` toward `t` (the TransE
    /// positive-pair objective, no negative sampling — a *local* change,
    /// per the paper's intuition that local graph updates should move
    /// embeddings locally). Each endpoint steps at
    /// `learning_rate / (1 + degree)`, its degree taken before the fact:
    /// the new residual is one among the `degree` that already hold the
    /// entity in place, so a fresh entity takes the whole step and a hub
    /// with 300 edges a 301st of it — what one fact says about a hub
    /// does not re-rank every other query through it. Both endpoints' S₂
    /// points are updated in the partial index in place.
    ///
    /// Returns `(added, epoch)`: whether the edge was new, and the exact
    /// epoch this write published (for a duplicate, the epoch current
    /// while the write held the writer mutex — no publication happens).
    pub fn add_fact_dynamic(
        &self,
        h: EntityId,
        r: RelationId,
        t: EntityId,
        refine_steps: usize,
        learning_rate: f64,
    ) -> VkgResult<(bool, u64)> {
        self.add_fact_durable(0, h, r, t, refine_steps, learning_rate)
    }

    /// [`VirtualKnowledgeGraph::add_fact_dynamic`] carrying a client
    /// idempotency token (0 = untokened). Parameters outside
    /// [`check_refine_params`] are refused first — the wire, in-process
    /// callers and WAL replay all enter here. Then the durability
    /// contract, in order, all under the writer mutex:
    ///
    /// 1. a tokened retry of a remembered write is answered from the
    ///    idempotency map without touching the graph; a duplicate fact
    ///    or a write the index would refuse returns before anything is
    ///    logged or moved;
    /// 2. with a WAL attached, the record is appended **and flushed**
    ///    before any reader-visible mutation — a failure here returns
    ///    [`VkgError::Durability`] with the published state untouched;
    /// 3. only then, under the index lock's exclusive side, do the two
    ///    points move and the new snapshot publish. A crash between 2
    ///    and 3 replays an unacked write on recovery, which the token map
    ///    then dedups against retries.
    ///
    /// Readers are held up by step 3 alone: the clone, the refine steps,
    /// the projections and the log append hold no index guard.
    pub fn add_fact_durable(
        &self,
        token: u64,
        h: EntityId,
        r: RelationId,
        t: EntityId,
        refine_steps: usize,
        learning_rate: f64,
    ) -> VkgResult<(bool, u64)> {
        let writer = self.writer.lock();
        self.add_fact_ordered(&writer, token, (h, r, t), refine_steps, learning_rate)
    }

    /// [`VirtualKnowledgeGraph::add_fact_durable`] for a caller that
    /// already holds the writer mutex (`_writer` is its guard): every
    /// write and WAL replay. Holding it makes the published snapshot,
    /// the epoch and the index's point set this write's to change until
    /// it returns.
    fn add_fact_ordered(
        &self,
        _writer: &MutexGuard<'_, ()>,
        token: u64,
        (h, r, t): (EntityId, RelationId, EntityId),
        refine_steps: usize,
        learning_rate: f64,
    ) -> VkgResult<(bool, u64)> {
        check_refine_params(refine_steps, learning_rate).map_err(VkgError::InvalidParameter)?;
        if token != 0 {
            let d = self.durability.lock();
            if let Some(outcome) = d.dedup.get(token) {
                drop(d);
                self.metrics.record_wal_dedup_hit();
                return Ok(outcome);
            }
        }
        let cur = self.snapshot();
        cur.check_ids(h, r)?;
        cur.check_ids(t, r)?;
        if cur.graph().has_edge(h, r, t) {
            // A duplicate copies, logs and publishes nothing. The writer
            // mutex is still held, so no other writer can publish between
            // the duplicate check and this epoch read.
            let epoch = self.epoch();
            if token != 0 {
                self.durability.lock().dedup.insert(token, (false, epoch));
            }
            return Ok((false, epoch));
        }
        // One new residual among the `degree` an endpoint already has:
        // it steps by its share (see `add_fact_dynamic`).
        let lr_h = learning_rate / (1 + cur.graph().degree(h)) as f64;
        let lr_t = learning_rate / (1 + cur.graph().degree(t)) as f64;
        let mut next = (*cur).clone();
        next.graph_mut().add_triple(h, r, t)?;
        let d = next.embeddings().dim();
        for _ in 0..refine_steps {
            let mut grad = vec![0.0; d];
            {
                let embeddings = next.embeddings();
                let (hv, rv, tv) = (
                    embeddings.entity(h),
                    embeddings.relation(r),
                    embeddings.entity(t),
                );
                for ((g, (&hi, &ri)), &ti) in grad.iter_mut().zip(hv.iter().zip(rv)).zip(tv).take(d)
                {
                    *g = 2.0 * (hi + ri - ti);
                }
            }
            let embeddings = next.embeddings_mut();
            for (e, &g) in embeddings.entity_mut(h).iter_mut().zip(&grad).take(d) {
                *e -= lr_h * g;
            }
            for (e, &g) in embeddings.entity_mut(t).iter_mut().zip(&grad).take(d) {
                *e += lr_t * g;
            }
        }
        let h_s2 = next.transform().apply(next.embeddings().entity(h));
        let t_s2 = next.transform().apply(next.embeddings().entity(t));
        // Validate, then log, then mutate: whatever `update_point` could
        // refuse (a tombstoned id, a shape mismatch, a point the steps
        // drove out of the finite range) is refused here, before the
        // record exists and before any point moves. Only a holder of the
        // writer mutex moves or tombstones a point, so the answer stands
        // until the exclusive section below.
        {
            let state = self.index.read();
            state.index().check_update(h.0, &h_s2)?;
            state.index().check_update(t.0, &t_s2)?;
        }
        // Log + flush BEFORE any reader-visible mutation. Everything
        // above only touched `next` (a private clone), so a WAL failure
        // aborts the write with the published state untouched.
        {
            // The epoch this write will publish: exact, since only a
            // holder of the writer mutex publishes.
            let record = WalRecord {
                epoch: self.epoch() + 1,
                token,
                h: h.0,
                r: r.0,
                t: t.0,
                // Lossless: at most MAX_REFINE_STEPS, checked on entry.
                refine_steps: refine_steps as u32,
                learning_rate,
            };
            let mut d = self.durability.lock();
            if let Some(writer) = d.writer.as_mut() {
                writer.append(&record).map_err(VkgError::from)?;
                drop(d);
                self.metrics.record_wal_append();
            }
        }
        let epoch = {
            let mut state = self.index.write();
            state.index_mut().update_point(h.0, &h_s2)?;
            state.index_mut().update_point(t.0, &t_s2)?;
            self.publish(next, true)
        };
        if token != 0 {
            self.durability.lock().dedup.insert(token, (true, epoch));
        }
        Ok((true, epoch))
    }

    /// Opens (creating if absent) the write-ahead log at `path`, replays
    /// its valid prefix through the normal dynamic write path, truncates
    /// any torn tail, and arms the writer: from this call on, every
    /// dynamic fact write is appended + flushed before it publishes.
    /// Replayed records re-seed the idempotency map, so a client
    /// retrying a write that was logged but never acked before a crash
    /// gets the original outcome instead of a duplicate apply. The whole
    /// recovery holds the writer mutex: no other write can land between
    /// the replayed ones or before the log is armed.
    ///
    /// All I/O routes through `fault` — [`FaultPlane::none`] in
    /// production, a seeded injector under test.
    ///
    /// # Errors
    /// [`VkgError::Durability`] if the file is not a WAL or recovery
    /// I/O fails; a replayed record naming unknown ids or carrying
    /// parameters [`check_refine_params`] refuses surfaces its typed
    /// error.
    pub fn attach_wal(
        &self,
        path: &std::path::Path,
        fault: FaultPlane,
    ) -> VkgResult<WalRecoveryReport> {
        let writer = self.writer.lock();
        let recovered = wal::recover(path, fault).map_err(VkgError::from)?;
        for record in &recovered.records {
            let fact = (EntityId(record.h), RelationId(record.r), EntityId(record.t));
            let (added, epoch) = self.add_fact_ordered(
                &writer,
                0,
                fact,
                record.refine_steps as usize,
                record.learning_rate,
            )?;
            if record.token != 0 {
                self.durability
                    .lock()
                    .dedup
                    .insert(record.token, (added, epoch));
            }
        }
        self.metrics
            .record_wal_recovery(recovered.stats.replayed, recovered.stats.truncated_bytes);
        self.durability.lock().writer = Some(recovered.writer);
        Ok(WalRecoveryReport {
            replayed: recovered.stats.replayed,
            truncated_bytes: recovered.stats.truncated_bytes,
            epoch: self.epoch(),
        })
    }

    /// Sets (or updates) an attribute of an entity — aggregate queries
    /// observe the new value from the next epoch on. Bumps the global
    /// epoch but **not** the index epoch: the index does not change.
    ///
    /// # Errors
    /// [`VkgError::UnknownEntity`] for an id the graph does not hold
    /// (the column would otherwise grow to it) and
    /// [`VkgError::InvalidParameter`] for a non-finite value; the failed
    /// write publishes nothing.
    pub fn set_attribute_dynamic(&self, attr: &str, entity: EntityId, value: f64) -> VkgResult<()> {
        // Entities are never removed, so an id known to any snapshot
        // stays known: checked before any lock.
        if entity.index() >= self.snapshot().graph().num_entities() {
            return Err(VkgError::UnknownEntity(entity.0));
        }
        check_finite("attribute value", &[value])?;
        let _writer = self.writer.lock();
        let mut next = (*self.snapshot()).clone();
        next.attributes_mut().set(attr, entity, value);
        // The index does not change, but the epochs a reader holding
        // the shared guard has pinned must not move under it.
        let _state = self.index.write();
        self.publish(next, false);
        Ok(())
    }

    /// Direct read access to the index (benchmarks, invariant checks).
    /// Holds the index lock's shared side while the guard lives.
    pub fn index(&self) -> IndexGuard<'_> {
        IndexGuard(self.index.read())
    }

    /// Exclusive access to the index. Holds the writer mutex and the
    /// index lock's exclusive side while the guard lives — readers of
    /// [`VirtualKnowledgeGraph::graph`] /
    /// [`VirtualKnowledgeGraph::embeddings`] are *not* blocked; queries
    /// and dynamic updates are. The writer mutex is held because through
    /// this guard points can move or be tombstoned, which must not
    /// happen between a writer's validation and its publication.
    pub fn index_mut(&self) -> IndexGuardMut<'_> {
        let writer = self.writer.lock();
        IndexGuardMut {
            index: self.index.write(),
            _writer: writer,
        }
    }
}

/// The crack pre-check of a round whose read did not fold it in: the
/// region `half` read for, kept only while it still has something to
/// split (see [`VirtualKnowledgeGraph::read_round`]).
fn pre_check(state: &IndexState, region: Option<Option<Mbr>>) -> Option<Option<Mbr>> {
    region.map(|region| region.filter(|r| state.index().wants_crack(r)))
}

/// Cap on the `refine_steps` of a dynamic fact write: the refinement
/// loop runs under the writer mutex, so an unbounded count would stall
/// every other writer (and, replayed from a log, every restart).
pub const MAX_REFINE_STEPS: u32 = 1024;

/// The one rule for a fact write's refinement parameters, shared by the
/// wire (`vkg-server` refuses with this text before admission),
/// in-process callers and WAL replay: at most [`MAX_REFINE_STEPS`]
/// steps, and a finite learning rate within [0, 1] — anything else can
/// drive an embedding row non-finite, which the index cannot hold.
///
/// # Errors
/// The refusal text; the facade wraps it in
/// [`VkgError::InvalidParameter`].
pub fn check_refine_params(refine_steps: usize, learning_rate: f64) -> Result<(), String> {
    if refine_steps > MAX_REFINE_STEPS as usize {
        return Err(format!(
            "refine_steps {refine_steps} exceeds the cap of {MAX_REFINE_STEPS}"
        ));
    }
    if !learning_rate.is_finite() || !(0.0..=1.0).contains(&learning_rate) {
        return Err("learning_rate must be finite and within [0, 1]".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitStrategy;
    use crate::query::aggregate::AggregateKind;

    /// A small synthetic world with hand-crafted geometry:
    /// users u0..u3 at distinct positions, items m0..m5 clustered so that
    /// u's "+likes" lands near specific items.
    fn tiny_world(dim: usize) -> (KnowledgeGraph, AttributeStore, EmbeddingStore) {
        let mut g = KnowledgeGraph::new();
        let likes = g.add_relation("likes");
        let users: Vec<_> = (0..4).map(|i| g.add_entity(&format!("u{i}"))).collect();
        let items: Vec<_> = (0..6).map(|i| g.add_entity(&format!("m{i}"))).collect();
        // u0 already likes m0 (edge in E — must be skipped by queries).
        g.add_triple(users[0], likes, items[0]).unwrap();

        // Embeddings: dim-d vectors. Items sit at x = 10 + i, users at
        // x = i, relation "likes" translates by +10, so u_i + likes ≈ m_i.
        let mut ent = vec![0.0; 10 * dim];
        for (i, _) in users.iter().enumerate() {
            ent[i * dim] = i as f64;
        }
        for (j, _) in items.iter().enumerate() {
            ent[(4 + j) * dim] = 10.0 + j as f64;
            ent[(4 + j) * dim + 1] = 0.5; // offset so items aren't colinear
        }
        let mut rel = vec![0.0; dim];
        rel[0] = 10.0;
        rel[1] = 0.5;
        let store = EmbeddingStore::from_raw(dim, ent, rel);

        let mut attrs = AttributeStore::new();
        for (j, &m) in items.iter().enumerate() {
            attrs.set("year", m, 2000.0 + j as f64);
        }
        (g, attrs, store)
    }

    fn config() -> VkgConfig {
        VkgConfig {
            alpha: 3,
            epsilon: 3.0,
            leaf_capacity: 2,
            fanout: 2,
            beta: 2.0,
            split_strategy: SplitStrategy::Greedy,
            query_aware_cost: true,
            transform_seed: 7,
            threads: 1,
            cache_capacity: 0,
        }
    }

    #[test]
    fn top_k_finds_nearest_unknown_item() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let r = vkg.top_k(u0, likes, Direction::Tails, 2).unwrap();
        assert_eq!(r.predictions.len(), 2);
        let graph = vkg.graph();
        let names: Vec<&str> = r
            .predictions
            .iter()
            .map(|p| graph.entity_name(EntityId(p.id)).unwrap())
            .collect();
        // m0 is a known edge → skipped; the nearest predictions are m1
        // then m2 (u0 + likes = (10, 0.5): m1 at distance 1 along x ...
        // actually m0 at 0 is skipped, m1 at 1, m2 at 2).
        assert_eq!(names, vec!["m1", "m2"]);
        assert_eq!(r.predictions[0].probability, 1.0);
    }

    #[test]
    fn heads_query_inverts_translation() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let m2 = vkg.graph().entity_id("m2").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        // m2 − likes = (2, 0, …) → nearest user is u2.
        let r = vkg.top_k(m2, likes, Direction::Heads, 1).unwrap();
        let graph = vkg.graph();
        let name = graph.entity_name(EntityId(r.predictions[0].id)).unwrap();
        assert_eq!(name, "u2");
    }

    #[test]
    fn filter_restricts_candidates() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        // Restrict to even-numbered items.
        let graph = vkg.graph().clone();
        let r = vkg
            .top_k_filtered(u0, likes, Direction::Tails, 2, |e| {
                graph
                    .entity_name(e)
                    .is_some_and(|n| n.starts_with('m') && n[1..].parse::<u32>().unwrap() % 2 == 0)
            })
            .unwrap();
        let names: Vec<&str> = r
            .predictions
            .iter()
            .map(|p| graph.entity_name(EntityId(p.id)).unwrap())
            .collect();
        assert_eq!(names, vec!["m2", "m4"], "m0 is a known edge");
    }

    #[test]
    fn aggregate_count_over_ball() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let r = vkg
            .aggregate(u0, likes, Direction::Tails, &AggregateSpec::count(0.05))
            .unwrap();
        assert!(r.ball_size >= 1);
        assert!(r.estimate >= 1.0, "closest entity alone contributes 1");
        assert!(r.estimate <= r.ball_size as f64);
    }

    #[test]
    fn aggregate_avg_year() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let spec = AggregateSpec::of(AggregateKind::Avg, "year", 0.05);
        let r = vkg.aggregate(u0, likes, Direction::Tails, &spec).unwrap();
        assert!(
            (2000.0..=2005.0).contains(&r.estimate),
            "avg year {} outside item range",
            r.estimate
        );
    }

    #[test]
    fn aggregate_rejects_unknown_attribute() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let spec = AggregateSpec::of(AggregateKind::Avg, "nonexistent", 0.05);
        assert!(matches!(
            vkg.aggregate(u0, likes, Direction::Tails, &spec),
            Err(QueryError::UnknownAttribute(_))
        ));
        let spec = AggregateSpec {
            kind: AggregateKind::Sum,
            attribute: None,
            p_tau: 0.05,
            sample_size: None,
        };
        assert!(matches!(
            vkg.aggregate(u0, likes, Direction::Tails, &spec),
            Err(QueryError::MissingAttribute)
        ));
    }

    #[test]
    fn unknown_ids_rejected() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let likes = vkg.graph().relation_id("likes").unwrap();
        assert!(matches!(
            vkg.top_k(EntityId(999), likes, Direction::Tails, 3),
            Err(QueryError::UnknownEntity(999))
        ));
        let u0 = vkg.graph().entity_id("u0").unwrap();
        assert!(matches!(
            vkg.top_k(u0, RelationId(42), Direction::Tails, 3),
            Err(QueryError::UnknownRelation(42))
        ));
    }

    #[test]
    fn invalid_parameters_rejected() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        assert!(matches!(
            vkg.top_k(u0, likes, Direction::Tails, 0),
            Err(QueryError::InvalidParameter(_))
        ));
        let spec = AggregateSpec::count(1.5);
        assert!(matches!(
            vkg.aggregate(u0, likes, Direction::Tails, &spec),
            Err(QueryError::InvalidParameter(_))
        ));
    }

    #[test]
    fn try_assemble_reports_mismatch() {
        let (g, attrs, _) = tiny_world(8);
        let short = EmbeddingStore::from_raw(8, vec![0.0; 8], vec![0.0; 8]);
        assert!(matches!(
            VirtualKnowledgeGraph::try_assemble(g, attrs, short, config()),
            Err(VkgError::Mismatch { .. })
        ));
    }

    /// A hand-built store with a NaN or ±∞ value — in an entity row or a
    /// relation row — is a typed error from both assembly doors, not a
    /// panic in the root sort.
    #[test]
    fn try_assemble_refuses_non_finite_embeddings() {
        type Door = fn(
            KnowledgeGraph,
            AttributeStore,
            EmbeddingStore,
            VkgConfig,
        ) -> VkgResult<VirtualKnowledgeGraph>;
        let doors: [Door; 2] = [
            VirtualKnowledgeGraph::try_assemble,
            VirtualKnowledgeGraph::try_assemble_bulk_loaded,
        ];
        for door in doors {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let (g, attrs, mut emb) = tiny_world(8);
                emb.entity_mut(EntityId(2))[3] = bad;
                let err = door(g, attrs, emb, config()).unwrap_err();
                assert!(
                    matches!(&err, VkgError::InvalidParameter(m) if m.contains("entity embedding")),
                    "{err}"
                );

                let (g, attrs, mut emb) = tiny_world(8);
                emb.relation_mut(RelationId(0))[0] = bad;
                let err = door(g, attrs, emb, config()).unwrap_err();
                assert!(
                    matches!(&err, VkgError::InvalidParameter(m) if m.contains("relation embedding")),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn bulk_loaded_agrees_with_cracking() {
        let (g, attrs, emb) = tiny_world(8);
        let online =
            VirtualKnowledgeGraph::assemble(g.clone(), attrs.clone(), emb.clone(), config());
        let bulk = VirtualKnowledgeGraph::assemble_bulk_loaded(g, attrs, emb, config());
        let u1 = online.graph().entity_id("u1").unwrap();
        let likes = online.graph().relation_id("likes").unwrap();
        let a = online.top_k(u1, likes, Direction::Tails, 3).unwrap();
        let b = bulk.top_k(u1, likes, Direction::Tails, 3).unwrap();
        assert_eq!(
            a.predictions.iter().map(|p| p.id).collect::<Vec<_>>(),
            b.predictions.iter().map(|p| p.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn queries_crack_the_index() {
        let (g, attrs, emb) = tiny_world(8);
        // A tight ε keeps the query region smaller than the whole space
        // (with the default ε = 3 the tiny world's region covers all ten
        // points and the stop condition correctly leaves the root alone).
        let cfg = VkgConfig {
            epsilon: 0.3,
            ..config()
        };
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, cfg);
        assert_eq!(vkg.index_node_count(), 1);
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let _ = vkg.top_k(u0, likes, Direction::Tails, 2).unwrap();
        assert!(vkg.index_node_count() > 1);
        vkg.index().check_invariants();
    }

    #[test]
    fn snapshot_clone_survives_dynamic_update() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let before = vkg.snapshot();
        let n = before.graph().num_entities();
        let dim = before.embeddings().dim();
        vkg.add_entity_dynamic("m_new", &vec![20.0; dim])
            .expect("well-shaped embedding");
        // The old snapshot is frozen; the facade sees the new entity.
        assert_eq!(before.graph().num_entities(), n);
        assert_eq!(vkg.graph().num_entities(), n + 1);
    }

    #[test]
    fn epoch_advances_once_per_publication() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        assert_eq!(vkg.epoch(), 0);
        let dim = vkg.embeddings().dim();
        vkg.add_entity_dynamic("m_new", &vec![20.0; dim])
            .expect("well-shaped embedding");
        assert_eq!(vkg.epoch(), 1);
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let m_new = vkg.graph().entity_id("m_new").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        // Queries never advance the epoch.
        let _ = vkg.top_k(u0, likes, Direction::Tails, 2).unwrap();
        assert_eq!(vkg.epoch(), 1);
        // The write reports the exact epoch it published.
        assert_eq!(
            vkg.add_fact_dynamic(u0, likes, m_new, 2, 0.01).unwrap(),
            (true, 2)
        );
        assert_eq!(vkg.epoch(), 2);
        // A duplicate fact is a no-op, publishes nothing, and reports
        // the epoch current during the (serialized) write.
        assert_eq!(
            vkg.add_fact_dynamic(u0, likes, m_new, 2, 0.01).unwrap(),
            (false, 2)
        );
        assert_eq!(vkg.epoch(), 2);
        vkg.set_attribute_dynamic("year", m_new, 2020.0).unwrap();
        assert_eq!(vkg.epoch(), 3);
        // `published()` reads the pair atomically.
        let (epoch, snap) = vkg.published();
        assert_eq!(epoch, 3);
        assert_eq!(snap.graph().num_entities(), vkg.graph().num_entities());
    }

    #[test]
    fn dynamic_updates_take_shared_reference_behind_arc() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = std::sync::Arc::new(VirtualKnowledgeGraph::assemble(g, attrs, emb, config()));
        let likes = vkg.graph().relation_id("likes").unwrap();
        let u1 = vkg.graph().entity_id("u1").unwrap();
        let m3 = vkg.graph().entity_id("m3").unwrap();
        // No outer lock: the Arc alone suffices for the single writer.
        let writer = {
            let vkg = std::sync::Arc::clone(&vkg);
            std::thread::spawn(move || vkg.add_fact_dynamic(u1, likes, m3, 2, 0.01).unwrap())
        };
        assert!(writer.join().unwrap().0);
        assert!(vkg.graph().tails(u1, likes).any(|e| e == m3));
    }

    #[test]
    fn with_published_index_pins_both_epochs() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let (pin, ids) = vkg.with_published_index(|pin, snap, state| {
            let (r, _region) = state
                .top_k_read(snap, u0, likes, Direction::Tails, 2, &|_| true)
                .unwrap();
            (pin, r.predictions.iter().map(|p| p.id).collect::<Vec<_>>())
        });
        assert_eq!(
            pin,
            IndexPin {
                epoch: 0,
                index_epoch: 0
            }
        );
        assert_eq!(ids.len(), 2);
        // The name the benchmark calls pins the same epochs, exclusively.
        let held = vkg.with_published_shard(likes, |pin, _, _| pin);
        assert_eq!(held, pin);
    }

    #[test]
    fn index_epoch_tracks_index_mutations_only() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        assert_eq!(vkg.index_epoch(), 0);
        let dim = vkg.embeddings().dim();
        // Index-touching writes bump the global epoch AND the index's.
        vkg.add_entity_dynamic("m_new", &vec![20.0; dim])
            .expect("well-shaped embedding");
        assert_eq!((vkg.epoch(), vkg.index_epoch()), (1, 1));
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let m_new = vkg.graph().entity_id("m_new").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        vkg.add_fact_dynamic(u0, likes, m_new, 2, 0.01).unwrap();
        assert_eq!((vkg.epoch(), vkg.index_epoch()), (2, 2));
        // Attribute writes publish (global bump) but touch no index:
        // the index epoch stays put.
        vkg.set_attribute_dynamic("year", m_new, 2020.0).unwrap();
        assert_eq!((vkg.epoch(), vkg.index_epoch()), (3, 2));
        // Queries bump nothing.
        let _ = vkg.top_k(u0, likes, Direction::Tails, 2).unwrap();
        assert_eq!((vkg.epoch(), vkg.index_epoch()), (3, 2));
        vkg.quiesce();
    }

    #[test]
    fn set_attribute_refuses_unknown_entity_and_non_finite_value() {
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let m0 = vkg.graph().entity_id("m0").unwrap();
        // `Column::set` would resize the column to `id + 1` rows.
        assert_eq!(
            vkg.set_attribute_dynamic("year", EntityId(u32::MAX), 1.0),
            Err(VkgError::UnknownEntity(u32::MAX))
        );
        assert!(matches!(
            vkg.set_attribute_dynamic("year", m0, f64::NAN),
            Err(VkgError::InvalidParameter(_))
        ));
        assert_eq!(vkg.epoch(), 0, "a refused write publishes nothing");
        assert_eq!(vkg.attributes().get("year", m0).unwrap(), Some(2000.0));
    }

    #[test]
    fn metrics_snapshot_reflects_served_queries() {
        use crate::metrics::names;
        let (g, attrs, emb) = tiny_world(8);
        let vkg = VirtualKnowledgeGraph::assemble(g, attrs, emb, config());
        let u0 = vkg.graph().entity_id("u0").unwrap();
        let likes = vkg.graph().relation_id("likes").unwrap();
        let _ = vkg.top_k(u0, likes, Direction::Tails, 2).unwrap();
        let _ = vkg
            .aggregate(u0, likes, Direction::Tails, &AggregateSpec::count(0.05))
            .unwrap();
        // An error still counts as a served query.
        let _ = vkg.top_k(EntityId(999), likes, Direction::Tails, 2);
        let snap = vkg.metrics_snapshot();
        assert_eq!(snap.counter(names::QUERIES), Some(3));
        assert_eq!(snap.counter(names::QUERY_ERRORS), Some(1));
        assert!(snap.counter(names::REFINE_STEPS).unwrap() > 0);
        let hist = snap.hist(names::QUERY_LATENCY_US).unwrap();
        assert_eq!(hist.total, 3);
        // Engine-side gauges are sampled at snapshot time.
        assert!(snap.gauge(names::INDEX_NODES).unwrap() >= 1);
        assert!(snap.gauge(names::INDEX_S1_EVALS).unwrap() > 0);
    }
}
