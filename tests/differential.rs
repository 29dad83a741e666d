//! The differential harness. The cracking index is lossless: an answer
//! is a function of (snapshot, query), not of the tree's cracks, the
//! cache, the threads, the build, a restart from the log or the wire.
//! So one seeded op stream runs in each *cell* (configuration), and each
//! answer is held, bit for bit in wire form but `candidates_examined`,
//! to the *reference* — the seed path: one thread, cache off, cracking,
//! no WAL, pool width 1 — asked the same query at the answer's epoch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use vkg::core::config::DEFAULT_CACHE_CAPACITY;
use vkg::core::wal::fault::splitmix64;
use vkg::core::FaultPlane;
use vkg::prelude::*;
use vkg::server::{AggregateWire, TopKWire};

/// A graph, its embeddings and its facades' ε. Aggregates read `age`.
struct World {
    ds: Dataset,
    embeddings: EmbeddingStore,
    epsilon: f64,
}

fn world(ds: Dataset, dim: usize, epsilon: f64) -> World {
    let cfg = vkg::embed::LsConfig {
        dim,
        ..Default::default()
    };
    let embeddings = vkg::embed::least_squares_embedding(&ds.graph, &cfg);
    World {
        ds,
        embeddings,
        epsilon,
    }
}

/// The tiny movie graph, 201 entities at the default ε.
fn tiny() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    let epsilon = VkgConfig::default().epsilon;
    WORLD.get_or_init(|| world(movie_like(&MovieConfig::tiny()), 16, epsilon))
}

/// 20 000 entities: a ball is a small part of the tree.
fn big() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let ds = freebase_like(&FreebaseConfig::default());
        assert!(ds.graph.num_entities() >= 20_000);
        world(ds, 32, 0.5)
    })
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Build {
    Cracking,
    /// Cracking, its root sort orders built at pool width 4.
    Pooled,
    Bulk,
}

/// How the cell's reads arrive and its writes last.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Memory,
    /// In memory, the readers never waiting for the writer, which
    /// publishes each write as soon as some lane has answered at the
    /// epoch before it, so reads straddle publications at every epoch
    /// however fast a write is; the lanes repeat their reads until the
    /// last write has landed.
    Ungated,
    Wal,
    /// A WAL, and in mid-stream the lanes stop, the facade is dropped, a
    /// fresh one assembled from the same inputs recovers the log, and
    /// the stream resumes.
    Restart,
    /// Lanes and writer are clients of a server with this many workers.
    Served(usize),
}

/// One configuration beside the reader lanes: cache capacity, build, mode.
type Cell = (usize, Build, Mode);

/// A write of the stream; each publishes one epoch.
#[derive(Clone, Debug)]
enum Write {
    Fact((EntityId, RelationId, EntityId)),
    Entity(String, Vec<f64>),
    Age(EntityId, f64),
}

/// Read lanes, and the writes that land between their reads.
struct Stream {
    lanes: Vec<Vec<Query>>,
    writes: Vec<Write>,
}

impl World {
    fn facade(&self, cache_capacity: usize, build: Build) -> VirtualKnowledgeGraph {
        let config = VkgConfig {
            cache_capacity,
            epsilon: self.epsilon,
            threads: if build == Build::Pooled { 4 } else { 1 },
            ..VkgConfig::default()
        };
        let (graph, attributes) = (self.ds.graph.clone(), self.ds.attributes.clone());
        let embeddings = self.embeddings.clone();
        if build != Build::Bulk {
            return VirtualKnowledgeGraph::assemble(graph, attributes, embeddings, config);
        }
        VirtualKnowledgeGraph::try_assemble_bulk_loaded(graph, attributes, embeddings, config)
            .expect("a consistent world")
    }

    /// The seed path every cell is held to.
    fn reference(&self) -> VirtualKnowledgeGraph {
        self.facade(0, Build::Cracking)
    }

    /// The `i`-th query key, from the graph's own triples, and its triple's tail.
    fn key(&self, i: usize) -> (EntityId, RelationId, Direction, EntityId) {
        let triples = self.ds.graph.triples();
        let t = &triples[i * 7_919 % triples.len()];
        match i % 3 {
            0 => (t.tail, t.relation, Direction::Heads, t.tail),
            _ => (t.head, t.relation, Direction::Tails, t.tail),
        }
    }

    /// `lanes` lanes of `per_lane` seeded reads over `per_lane / 4` keys
    /// — plain top-k at k ∈ {1, 5, 10}, `IdRange` top-k, and full-access
    /// aggregates of all five kinds — and `writes` writes: facts only, or
    /// facts, entities and attributes in turn. A key is asked again and at
    /// other k, in a lane and across lanes (which overlap by half).
    fn stream(&self, lanes: usize, per_lane: usize, writes: usize, facts: bool) -> Stream {
        use AggregateKind as Kind;
        let entities = self.ds.graph.num_entities() as u32;
        let mix = |n: usize| splitmix64(&mut (0x5eed ^ n as u64));
        let read = |mut n: usize| {
            // A third of the reads repeat the one before.
            while n > 0 && mix(n) % 3 == 0 {
                n -= 1;
            }
            let r = mix(n);
            let key = (r % (per_lane / 4) as u64) as usize;
            let (entity, relation, direction, _) = self.key(key);
            let k = [1, 5, 10][(r >> 20) as usize % 3];
            let top_k = |filter| Query::top_k(entity, relation, direction, k, filter);
            let kinds = [Kind::Count, Kind::Sum, Kind::Avg, Kind::Max, Kind::Min];
            let spec = AggregateSpec::of(kinds[(r >> 50) as usize % 5], "age", 0.5);
            let lo = (key as u32 * 7_919) % entities;
            match (r >> 40) % 8 {
                0..=3 => top_k(None),
                4 | 5 => top_k(Some(Filter::IdRange {
                    lo,
                    hi: lo + entities / 4,
                })),
                _ => Query::aggregate(entity, relation, direction, spec),
            }
        };
        let lane = |l: usize| (0..per_lane).map(|i| read(l * per_lane / 2 + i)).collect();
        // Fresh facts: no such edge yet, none repeated.
        let (triples, mut seen) = (self.ds.graph.triples(), std::collections::HashSet::new());
        let mut fresh = (0..)
            .map(|i| {
                let a = &triples[i * 131 % triples.len()];
                let b = &triples[(i * 211 + 7) % triples.len()];
                (a.head, a.relation, b.tail)
            })
            .filter(|&(h, r, t)| !self.ds.graph.has_edge(h, r, t) && seen.insert((h, r, t)));
        let write = |j: usize| {
            let (entity, relation, _, tail) = self.key(j);
            // At the key's own query point, so the entity enters its answers.
            let e = &self.embeddings;
            let row = e.entity(entity).iter().zip(e.relation(relation));
            match if facts { 0 } else { j % 3 } {
                0 => Write::Fact(fresh.next().expect("enough fresh facts")),
                1 => Write::Entity(format!("fresh_{j}"), row.map(|(e, r)| e + r).collect()),
                _ => Write::Age(tail, 3_000.0 + j as f64),
            }
        };
        Stream {
            lanes: (0..lanes).map(lane).collect(),
            writes: (0..writes).map(write).collect(),
        }
    }
}

/// The global epoch of an answer and all of its bits but
/// `candidates_examined`, read from its wire form.
type Bits = (u64, Vec<u64>);

/// Each lane's answers.
type Answers = Vec<Vec<Bits>>;
type Shared = Arc<VirtualKnowledgeGraph>;

fn top_k_bits(w: &TopKWire) -> Bits {
    let (p, m) = (w.success_probability.to_bits(), w.expected_misses.to_bits());
    let mut bits = vec![p, m, w.s1_evals];
    for p in &w.predictions {
        bits.push(p.id.into());
        bits.extend([p.distance, p.probability].map(f64::to_bits));
    }
    (w.epoch, bits)
}

fn aggregate_bits(w: &AggregateWire) -> Bits {
    let bits = [w.estimate, w.mu, w.increment_mass].map(f64::to_bits);
    (w.epoch, [&bits[..], &[w.accessed, w.ball_size]].concat())
}

/// Asks `q` through the facade's served read, the cache in the path.
fn ask(vkg: &VirtualKnowledgeGraph, q: &Query) -> Bits {
    match vkg.execute(q, &mut || {}).expect("valid query") {
        (pin, Answer::TopK(r)) => top_k_bits(&TopKWire::from_result(pin.epoch, &r)),
        (pin, Answer::Aggregate(r)) => aggregate_bits(&AggregateWire::from_result(pin.epoch, &r)),
    }
}

/// Asks `q` over the wire.
fn ask_wire(client: &mut Client, q: &Query) -> Bits {
    let (e, r, d) = (q.entity, q.relation, q.direction);
    let answer = match &q.op {
        QueryOp::TopK { k, filter: None } => client.top_k(e, r, d, *k).map(|w| top_k_bits(&w)),
        QueryOp::TopK { k, filter: Some(f) } => {
            let answer = client.top_k_filtered(e, r, d, *k, f.clone());
            answer.map(|w| top_k_bits(&w))
        }
        QueryOp::Aggregate(s) => {
            let attribute = s.attribute.as_deref();
            let answer = client.aggregate(e, r, d, s.kind, attribute, s.p_tau, s.sample_size);
            answer.map(|w| aggregate_bits(&w))
        }
    };
    answer.expect("a served answer")
}

/// Applies `w` in-process; returns the epoch it published.
fn apply(vkg: &VirtualKnowledgeGraph, w: &Write) -> u64 {
    let published = match w {
        &Write::Fact((h, r, t)) => vkg.add_fact_dynamic(h, r, t, 2, 0.05).map(|a| a.1),
        Write::Entity(name, row) => vkg.add_entity_dynamic(name, row).map(|_| vkg.epoch()),
        &Write::Age(e, v) => vkg.set_attribute_dynamic("age", e, v).map(|()| vkg.epoch()),
    };
    published.expect("a valid write")
}

fn counter(vkg: &VirtualKnowledgeGraph, name: &str) -> u64 {
    let counters = vkg.metrics_snapshot().counters;
    counters.iter().find(|(n, _)| n == name).map_or(0, |c| c.1)
}

/// How long `drive` waits on a stalled lane or writer before failing.
const STALL: Duration = Duration::from_secs(60);

/// Runs a thread per slice of `reads`, each asking through its `lane()`,
/// while `write` publishes `writes` (after `epoch`): reads take tickets as
/// they start, and if `gated`, write `j` lands once ticket `due(j)` is
/// taken, before that read starts — with more than one lane, earlier
/// reads may be in flight. Ungated, no read waits: write `j` lands as
/// soon as some lane has answered at epoch `epoch + j`, and each lane
/// repeats its reads, however fast they are, until the last write has
/// landed (its answers are its slice's, cycled). Either way, reads are
/// answered at every epoch before the last write.
fn drive<A: FnMut(&Query) -> Bits>(
    reads: &[&[Query]],
    writes: &[Write],
    lane: &(impl Fn() -> A + Sync),
    write: &mut dyn FnMut(&Write) -> u64,
    epoch: u64,
    gated: bool,
) -> Answers {
    let total: usize = reads.iter().map(|l| l.len()).sum();
    let due = |j: usize| (j + 1) * total / (writes.len() + 1);
    let landed_by = |ticket: usize| (0..writes.len()).filter(|&j| due(j) <= ticket).count();
    let (tickets, landed) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
    // One past the newest epoch any lane has answered at.
    let answered = &AtomicU64::new(0);
    let started = std::time::Instant::now();
    let wait = &|until: &dyn Fn() -> bool| {
        let start = std::time::Instant::now();
        while !until() {
            // A lane that panicked takes no more tickets and lands no writes.
            assert!(start.elapsed() < STALL, "a lane stalled");
            std::thread::yield_now();
        }
    };
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for &reads in reads {
            readers.push(scope.spawn(move || {
                let mut ask = lane();
                // Ungated, a lane stops once the last write has landed,
                // or once the writer has stalled (or panicked).
                let open = |_: &&Query| {
                    gated
                        || landed.load(Ordering::SeqCst) < writes.len() && started.elapsed() < STALL
                };
                let rounds = if gated { reads.len() } else { usize::MAX };
                let answers = reads.iter().cycle().take(rounds).take_while(open).map(|q| {
                    let ticket = tickets.fetch_add(1, Ordering::SeqCst);
                    wait(&|| !gated || landed.load(Ordering::SeqCst) >= landed_by(ticket));
                    let bits = ask(q);
                    answered.fetch_max(bits.0 + 1, Ordering::SeqCst);
                    bits
                });
                answers.collect::<Vec<_>>()
            }));
        }
        for (j, w) in writes.iter().enumerate() {
            let now = epoch + j as u64;
            wait(&|| {
                if gated {
                    tickets.load(Ordering::SeqCst) > due(j)
                } else {
                    answered.load(Ordering::SeqCst) > now
                }
            });
            assert_eq!(write(w), epoch + j as u64 + 1, "write {j}");
            landed.store(j + 1, Ordering::SeqCst);
        }
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    })
}

/// Serves `vkg` on loopback with `workers` workers, and drives the reads
/// and writes through clients; every request is admitted and answered.
fn serve(vkg: &Shared, workers: usize, reads: &[&[Query]], writes: &[Write]) -> Answers {
    let config = ServerConfig {
        workers,
        default_deadline: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::clone(vkg), "127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr();
    let mut writer = Client::connect(addr).expect("writer connects");
    let lane = || {
        let mut client = Client::connect(addr).expect("reader connects");
        move |q: &Query| ask_wire(&mut client, q)
    };
    let mut write = |w: &Write| match *w {
        Write::Fact((h, r, t)) => writer.add_fact(h, r, t, 2, 0.05).expect("a fact").1,
        _ => panic!("only facts travel the wire"),
    };
    let answers = drive(reads, writes, &lane, &mut write, 0, true);
    drop(writer);
    let c = handle.shutdown();
    assert_eq!([c.shed, c.deadline_expired, c.drained], [0; 3]);
    assert_eq!(c.admitted, c.answered);
    answers
}

/// Runs `stream` in `cell`; holds its answers and books to the reference,
/// which `precrack` first cracks with the stream in reverse. A cache that
/// is on must hit and count each read in hits + misses — exactly once if
/// no write lands inside a read (a straddling aggregate probes again).
/// With it off, S₁ evaluations are a function of (snapshot, query) too.
/// Returns the node counts of the cell's index and the reference's.
fn run(world: &World, stream: &Stream, cell: Cell, precrack: bool) -> [usize; 2] {
    let (cache, build, mode) = cell;
    let gated = mode != Mode::Ungated;
    let what = format!("{cell:?} × {} readers", stream.lanes.len());
    let name = what.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    let log = std::env::temp_dir().join(format!("vkg_diff_{}_{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let open = |replayed: usize| {
        let vkg = world.facade(cache, build);
        if matches!(mode, Mode::Wal | Mode::Restart) {
            let report = vkg.attach_wal(&log, FaultPlane::none()).expect("the log");
            assert_eq!(report.replayed, replayed as u64, "{what}");
        }
        Arc::new(vkg)
    };
    let (per_lane, writes) = (stream.lanes[0].len(), stream.writes.len());
    let halves: &[[usize; 2]] = match mode {
        Mode::Restart => &[[0, 1], [1, 2]],
        _ => &[[0, 2]],
    };
    let (mut vkg, mut books) = (open(0), [0; 3]);
    let mut answers = vec![Vec::new(); stream.lanes.len()];
    for &[from, to] in halves {
        let writes = writes * from / 2..writes * to / 2;
        if from > 0 {
            books = add_books(books, &vkg);
            drop(vkg);
            vkg = open(writes.start);
        }
        let reads = per_lane * from / 2..per_lane * to / 2;
        let lanes: Vec<&[Query]> = stream.lanes.iter().map(|l| &l[reads.clone()]).collect();
        let (epoch, writes) = (writes.start as u64, &stream.writes[writes]);
        let (lane, mut write) = (|| |q: &Query| ask(&vkg, q), |w: &Write| apply(&vkg, w));
        let got = match mode {
            Mode::Served(workers) => serve(&vkg, workers, &lanes, writes),
            _ => drive(&lanes, writes, &lane, &mut write, epoch, gated),
        };
        answers.iter_mut().zip(got).for_each(|(a, g)| a.extend(g));
    }
    vkg.index().check_invariants();
    let [hits, misses, s1] = add_books(books, &vkg);
    let _ = std::fs::remove_file(&log);
    let reference = world.reference();
    if precrack {
        for q in stream.lanes.iter().flatten().rev() {
            ask(&reference, q);
        }
    }
    // The reference walks the epochs once, asked at each the reads the
    // cell was answered at it.
    let mut epochs_read = 0;
    for epoch in 0..=writes as u64 {
        let mut any = false;
        for (lane, got) in stream.lanes.iter().zip(&answers) {
            for (i, (q, bits)) in lane.iter().cycle().zip(got).enumerate() {
                if bits.0 == epoch {
                    any = true;
                    assert_eq!(bits, &ask(&reference, q), "{what}: read {i}: {q:?}");
                }
            }
        }
        epochs_read += usize::from(any);
        if let Some(w) = stream.writes.get(epoch as usize) {
            apply(&reference, w);
        }
    }
    assert!(
        epochs_read >= writes,
        "{what}: reads landed at {epochs_read} epochs of {}",
        writes + 1
    );
    let reads = (per_lane * stream.lanes.len()) as u64;
    let exact = stream.lanes.len() == 1 || writes == 0;
    if cache > 0 {
        let (probes, once) = (hits + misses, !exact || hits + misses == reads);
        assert!(
            hits > 0 && probes >= reads && once,
            "{what}: {hits} of {probes}"
        );
    } else if exact {
        assert_eq!(s1, reference.index_stats().s1_distance_evals, "{what}");
    }
    [vkg.index_node_count(), reference.index_node_count()]
}

/// `books` plus `vkg`'s cache hits, cache misses and S₁ evaluations.
fn add_books(books: [u64; 3], vkg: &VirtualKnowledgeGraph) -> [u64; 3] {
    let [hits, misses] = ["core.cache.hit", "core.cache.miss"].map(|n| counter(vkg, n));
    let s1 = vkg.index_stats().s1_distance_evals;
    [books[0] + hits, books[1] + misses, books[2] + s1]
}

/// cache {off, on} × {cracking, cracking at pool width 4, bulk} × {no
/// WAL, WAL, WAL recovered in mid-stream} × {1, 4} reader lanes.
#[test]
fn tiny_world_cells() {
    let world = tiny();
    for readers in [1, 4] {
        for mode in [Mode::Memory, Mode::Wal, Mode::Restart] {
            // The log has no record for an entity or an attribute.
            let stream = world.stream(readers, 40, 6, mode != Mode::Memory);
            for build in [Build::Cracking, Build::Pooled, Build::Bulk] {
                for cache in [0, DEFAULT_CACHE_CAPACITY] {
                    run(world, &stream, (cache, build, mode), false);
                }
            }
        }
    }
}

/// A loopback server with {1, 4} workers × cache {off, on}.
#[test]
fn tiny_world_served() {
    let (world, cracking) = (tiny(), Build::Cracking);
    let stream = world.stream(4, 40, 6, true);
    for workers in [1, 4] {
        for cache in [0, DEFAULT_CACHE_CAPACITY] {
            let served = (cache, cracking, Mode::Served(workers));
            run(world, &stream, served, false);
        }
    }
}

/// Four readers × cache {off, on} × writes {0, 12} at 20 000 entities.
#[test]
fn big_world_four_readers() {
    let world = big();
    for writes in [0, 12] {
        let stream = world.stream(4, 48, writes, true);
        for cache in [0, DEFAULT_CACHE_CAPACITY] {
            let cracking = (cache, Build::Cracking, Mode::Memory);
            run(world, &stream, cracking, false);
        }
    }
}

/// Four readers ask one top-k over and over beside an ungated writer at
/// 20 000 entities, which adds entities at that query's point, each entering
/// its answer: publications land inside reads, and an answer that
/// reported an epoch other than the one it pinned would be held to the
/// reference at the wrong epoch.
#[test]
fn big_world_reads_straddle_writes() {
    let world = big();
    let (entity, relation, direction, _) = world.key(1);
    let e = &world.embeddings;
    let near = |j: usize| {
        let row = e.entity(entity).iter().zip(e.relation(relation));
        let mut row: Vec<f64> = row.map(|(e, r)| e + r).collect();
        row[0] += j as f64 * 1e-3;
        Write::Entity(format!("near_{j}"), row)
    };
    let read = Query::top_k(entity, relation, direction, 10, None);
    let stream = Stream {
        lanes: vec![vec![read]; 4],
        writes: (0..48).map(near).collect(),
    };
    run(world, &stream, (0, Build::Cracking, Mode::Ungated), false);
}

/// Cache on against a reference whose tree the stream cracked first, in
/// reverse; a bulk-loaded index beside a writer — the larger structure —
/// and the served path.
#[test]
fn big_world_other_trees_and_served() {
    let (world, on) = (big(), DEFAULT_CACHE_CAPACITY);
    let (alone, stream) = (world.stream(1, 96, 0, true), world.stream(4, 48, 12, true));
    run(world, &alone, (on, Build::Cracking, Mode::Memory), true);
    let [bulk, cracked] = run(world, &stream, (on, Build::Bulk, Mode::Memory), false);
    assert!(cracked < bulk, "cracking builds the smaller structure");
    let served = (on, Build::Cracking, Mode::Served(4));
    run(world, &stream, served, false);
}

/// The oracle row: the reference's top-1 is the exact scan's, up to
/// transform noise between equally distant entities.
#[test]
fn the_reference_top_1_is_the_linear_scan_s() {
    let world = tiny();
    let reference = world.reference();
    let snap = reference.snapshot();
    for i in 0..40 {
        let (e, r, d, _) = world.key(i);
        let got = reference.top_k(e, r, d, 1).expect("top-1");
        let truth = LinearScanEngine::new().top_k(&snap, e, r, d, 1);
        let truth = truth.expect("scan").predictions;
        if let (Some(p), Some(t)) = (got.predictions.first(), truth.first()) {
            let tie = (p.distance - t.distance).abs() < 1e-9;
            assert!(tie || p.id == t.id, "key {i}");
        }
    }
}

/// An entry answers the k it was filled for: shrinking and growing k
/// are misses that refill, and a write invalidates lazily.
#[test]
fn another_k_is_a_miss_and_a_write_invalidates() {
    let world = tiny();
    let (plain, cached) = (world.reference(), world.facade(1024, Build::Cracking));
    let at = |k| Query::top_k(EntityId(1), RelationId(0), Direction::Tails, k, None);
    // Fill at k=6, shrink to 3, grow to 8, repeat 8, write, re-query.
    let write = Write::Fact((EntityId(0), RelationId(0), EntityId(3)));
    for q in [at(6), at(3), at(8), at(8)] {
        assert_eq!(ask(&cached, &q), ask(&plain, &q), "diverged on {q:?}");
    }
    assert_eq!(apply(&cached, &write), apply(&plain, &write));
    assert_eq!(ask(&cached, &at(8)), ask(&plain, &at(8)));
    assert_eq!(counter(&cached, "core.cache.hit"), 1, "the repeated k=8");
    assert_eq!(counter(&cached, "core.cache.miss"), 4);
    assert_eq!(counter(&cached, "core.cache.prefix_hit"), 0);
    let invalidated = counter(&cached, "core.cache.invalidate");
    assert_eq!(invalidated, 1, "the re-query removes the stale k=8 entry");
}

/// No update of the access counters is lost. Four threads of top-k reads
/// (plain and filtered, cache off) bump the facade's counters
/// concurrently; afterwards `points_examined` and `s1_distance_evals`
/// must equal the sums of what the answers themselves report.
#[test]
fn access_counters_equal_the_sums_of_the_answers() {
    let world = big();
    let vkg = world.reference();
    let top_k = |q: &Query| matches!(q.op, QueryOp::TopK { .. });
    let mut stream = world.stream(4, 48, 0, true);
    for lane in &mut stream.lanes {
        lane.retain(top_k);
    }
    let counts = |q: &Query| match vkg.execute(q, &mut || {}) {
        Ok((_, Answer::TopK(r))) => (0, vec![r.candidates_examined, r.s1_evals]),
        other => panic!("{other:?}"),
    };
    let lanes: Vec<&[Query]> = stream.lanes.iter().map(Vec::as_slice).collect();
    let answers = drive(&lanes, &[], &|| counts, &mut |_| 0, 0, true);
    let sum = |i: usize| answers.iter().flatten().map(|a| a.1[i]).sum::<u64>();
    let stats = vkg.index_stats();
    let counted = [stats.points_examined, stats.s1_distance_evals];
    assert_eq!(counted, [sum(0), sum(1)]);
    assert!(stats.elements_accessed > 0 && stats.elements_accessed <= sum(0));
}

/// The same for all three counters, where every call's share is known:
/// the contour reads take `&self`, so four threads share one index by
/// reference — nothing cracks, the tree stands still — and the totals
/// must be exactly four times what one pass over the calls adds.
#[test]
fn contour_reads_share_an_index_without_losing_counts() {
    use vkg::core::geometry::Mbr;
    let world = big();
    let mut state = IndexState::cracking(&world.reference().snapshot());
    let centers: Vec<Vec<f64>> = (0..40u32)
        .map(|i| state.index().points().point(i * 487).to_vec())
        .collect();
    for c in &centers[..20] {
        state.index_mut().crack(&Mbr::of_ball(c, 0.2));
    }
    let index = state.index();
    let pass = || {
        for c in &centers {
            let ball = Mbr::of_ball(c, 0.3);
            index.search_region(&ball, |_| {});
            index.search_region_elements(&ball, |_, _| {});
            let seen = index.nearest_first(c, 0.09, |_, _| 0.09);
            index.count_s1_evals(seen);
        }
    };
    let counts = || {
        let s = index.stats();
        [s.elements_accessed, s.points_examined, s.s1_distance_evals]
    };
    let before = counts();
    pass();
    let once = counts();
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                start.wait();
                pass();
            });
        }
    });
    let after = counts();
    let names = ["elements_accessed", "points_examined", "s1_distance_evals"];
    for (i, name) in names.iter().enumerate() {
        let share = once[i] - before[i];
        assert!(share > 0, "{name} must move");
        assert_eq!(after[i] - once[i], 4 * share, "{name}");
    }
}
