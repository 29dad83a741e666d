//! Byte fuzz for every reader of outside bytes: the wire's
//! `Request::decode`, `Response::decode` and `read_frame` (the frame
//! reader of the client and of every server connection thread), the
//! WAL's `decode_log`, the embedding readers `from_binary` (`VKGE`) and
//! `read_tsv`, and the graph's `read_tsv`. Arbitrary bytes, and
//! single-byte mutations and truncations of valid inputs, each return
//! `Ok` or a typed error — never a panic — and allocate nothing beyond
//! what the input's length admits, so a hostile shape, count, length or
//! id cannot ask for memory the input does not hold.
//!
//! A binary of its own because it installs a counting global allocator.
//! The largest single allocation is tracked per thread, so the libtest
//! harness's own allocations on other threads cannot leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use vkg::core::wal::{self, WalRecord, WAL_MAGIC};
use vkg::core::{Direction, Filter};
use vkg::embed::io::{from_binary, read_tsv, to_binary, write_tsv};
use vkg::embed::EmbeddingStore;
use vkg::kg::{EntityId, RelationId, CHUNK_LEN};
use vkg::server::wire::{read_frame, write_frame, MAX_FRAME};
use vkg::server::{AggregateWire, PredictionWire, Request, RequestOp, Response, TopKWire};

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator can neither allocate nor run after teardown.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// maximum that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(layout.size())));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|n| n.set(n.get().max(new_size)));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most one allocation may ask for while `input` is read: the TSV
/// readers' 8 KiB line buffer, plus a constant factor of the input (a
/// growing `Vec` may hold twice what it was given, and a parsed row
/// holds 8 bytes per value of at least 2 input bytes).
fn admitted(input: &[u8]) -> usize {
    8 * 1024 + 16 * input.len()
}

/// Whether `read_frame` takes `input` as a run of whole frames.
fn frames(mut input: &[u8]) -> bool {
    std::iter::from_fn(|| read_frame(&mut input, MAX_FRAME).transpose()).all(|f| f.is_ok())
}

/// The graph reader's one fixed cost past the bound: the first chunk of
/// its adjacency lists, `CHUNK_LEN` list headers allocated whole so that
/// clones can share it (`vkg_kg::ChunkVec`), whatever the input.
const ADJACENCY_CHUNK: usize = CHUNK_LEN * std::mem::size_of::<Vec<(RelationId, EntityId)>>();

/// Runs `read` over `input` and holds its largest single allocation to
/// the bound plus `fixed` bytes. A panic inside fails the property as
/// it is.
fn bounded(input: &[u8], fixed: usize, read: impl FnOnce(&[u8]) -> bool) -> bool {
    LARGEST.with(|n| n.set(0));
    let accepted = read(input);
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= fixed + admitted(input),
        "reading {} bytes allocated {largest} at once",
        input.len()
    );
    accepted
}

/// Runs every reader over `input`; says which accepted it: request,
/// response, frames, WAL, `VKGE`, embedding TSV, graph TSV.
fn read_all(input: &[u8]) -> [bool; 7] {
    [
        bounded(input, 0, |i| Request::decode(i).is_ok()),
        bounded(input, 0, |i| Response::decode(i).is_ok()),
        bounded(input, 0, frames),
        bounded(input, 0, |i| wal::decode_log(i).is_ok()),
        bounded(input, 0, |i| from_binary(i).is_ok()),
        bounded(input, 0, |i| read_tsv(i).is_ok()),
        bounded(input, ADJACENCY_CHUNK, |i| vkg::kg::io::read_tsv(i).is_ok()),
    ]
}

/// The two requests that carry strings and options.
fn requests(n: usize) -> [Request; 2] {
    let (entity, relation, direction, k) = (n as u32, 1, Direction::Tails, 5);
    let request = |op| Request { deadline_ms: 9, op };
    [
        request(RequestOp::TopKFiltered {
            entity,
            relation,
            direction,
            k,
            filter: Filter::NamePrefix("movie_".repeat(n)),
        }),
        request(RequestOp::Aggregate {
            entity,
            relation,
            direction,
            kind: vkg::core::AggregateKind::Avg,
            attribute: Some("year".into()),
            p_tau: 0.05,
            sample_size: Some(n as u32),
        }),
    ]
}

fn top_k(predictions: usize) -> Response {
    Response::TopK(TopKWire {
        epoch: 3,
        predictions: (0..predictions as u32)
            .map(|id| PredictionWire {
                id,
                distance: f64::from(id) * 0.5,
                probability: 0.25,
            })
            .collect(),
        success_probability: 0.9,
        expected_misses: 0.1,
        s1_evals: 40,
        candidates_examined: 80,
    })
}

/// Valid inputs of every reader, shaped by `(dim, entities, relations)`:
/// `VKGE` and TSV embeddings, a graph TSV, a WAL, request and response
/// payloads, and the requests as one run of frames.
fn files(dim: usize, entities: usize, relations: usize) -> Vec<Vec<u8>> {
    let value = |i: usize| (i % 17) as f64 * 0.37 - 3.0;
    let relation_rows = (0..relations * dim).map(|i| value(i + 5)).collect();
    let store =
        EmbeddingStore::from_raw(dim, (0..entities * dim).map(value).collect(), relation_rows);
    let mut tsv = Vec::new();
    write_tsv(&store, &mut tsv).unwrap();
    let triple = |i| format!("e{i}\tr{}\te{}\n", i % relations.max(1), i + 1);
    let graph: String = (0..entities).map(triple).collect();
    let mut log = WAL_MAGIC.to_vec();
    for i in 0..entities as u32 {
        let record = WalRecord {
            epoch: u64::from(i) + 1,
            token: 0,
            h: i,
            r: 0,
            t: i + 1,
            refine_steps: 2,
            learning_rate: 0.01,
        };
        log.extend_from_slice(&record.encode());
    }
    let aggregate = Response::Aggregate(AggregateWire {
        epoch: 2,
        estimate: 4.5,
        accessed: entities as u64,
        ball_size: dim as u64,
        mu: 0.5,
        increment_mass: 0.25,
    });
    let mut stream = Vec::new();
    let mut files = vec![to_binary(&store), tsv, graph.into_bytes(), log];
    for request in requests(entities) {
        write_frame(&mut stream, &request.encode()).unwrap();
        files.push(request.encode());
    }
    files.extend([top_k(entities).encode(), aggregate.encode(), stream]);
    files
}

#[test]
fn the_counting_allocator_is_installed() {
    LARGEST.with(|n| n.set(0));
    drop(std::hint::black_box(vec![0u8; 4096]));
    assert!(LARGEST.with(Cell::get) >= 4096);
}

/// Hostile headers that declare far more than the input holds — the
/// embedding shapes, an id and a row count, a response's prediction
/// count, a frame's length — are refused without asking for them.
#[test]
fn hostile_declarations_are_refused_unallocated() {
    let mut shapes = b"VKGE\x01".to_vec();
    shapes.extend_from_slice(&[0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0, 0, 0, 0, 0, 0]);
    assert_eq!(read_all(&shapes)[4..6], [false, false]);
    let id = format!("entity\t{}\t1 2\n", u32::MAX);
    assert_eq!(read_all(id.as_bytes())[4..6], [false, false]);
    // Version, opcode and epoch, then a count of 2²⁰ predictions.
    let mut count = top_k(0).encode();
    count[10..14].copy_from_slice(&(1u32 << 20).to_le_bytes());
    assert!(!read_all(&count)[1]);
    let length = (MAX_FRAME as u32 - 1).to_le_bytes();
    assert!(!read_all(&[&length[..], b"short"].concat())[2]);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        read_all(&bytes);
    }

    /// A valid input with one byte changed: a reader may accept the
    /// result (a value byte of `VKGE` is any `f64`'s), but only as a
    /// typed outcome.
    #[test]
    fn single_byte_mutations_never_panic(
        (dim, entities, relations) in (1usize..5, 0usize..6, 0usize..4),
        (at, flip) in (0usize..10_000, 1u8..=255),
    ) {
        for mut file in files(dim, entities, relations) {
            let at = at % file.len().max(1);
            if let Some(byte) = file.get_mut(at) {
                *byte ^= flip;
            }
            read_all(&file);
        }
    }

    /// Every strict prefix of a `VKGE` file, a request or a response is
    /// refused (its payload no longer matches what it declares); a TSV
    /// or a log may end on a boundary and read.
    #[test]
    fn truncations_never_panic(
        (dim, entities, relations) in (1usize..5, 0usize..6, 0usize..4),
        cut in 0usize..10_000,
    ) {
        for (i, file) in files(dim, entities, relations).iter().enumerate() {
            let prefix = &file[..cut % file.len().max(1)];
            let accepted = read_all(prefix);
            let (binary, request, response) = (i == 0, (4..6).contains(&i), (6..8).contains(&i));
            prop_assert!(!(binary && accepted[4]), "a {}-byte VKGE prefix read", prefix.len());
            prop_assert!(!(request && accepted[0]), "a {}-byte request prefix read", prefix.len());
            prop_assert!(!(response && accepted[1]), "a {}-byte response prefix read", prefix.len());
        }
    }
}
