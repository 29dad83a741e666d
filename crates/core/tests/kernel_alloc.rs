//! The distance kernels — S₂ and S₁ — allocate nothing per call, and a
//! binary split allocates its outputs and O(positions) besides
//! (DESIGN.md §3.4).
//!
//! A binary of its own because it installs a counting global allocator.
//! The counts — calls and bytes — are per thread, so the libtest
//! harness's own allocations on other threads cannot leak into them; and
//! they count what the callees allocate too, which a scan of the source
//! could not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vkg_core::geometry::kernels::{distances_sq, packed_distances_sq, scalar_distances_sq};
use vkg_core::geometry::{Mbr, PointSet};
use vkg_core::rtree::split::SplitContext;
use vkg_core::rtree::{best_splits, SortOrders, SplitCandidate};
use vkg_embed::EmbeddingStore;
use vkg_sync::pool::Pool;

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is two thread-local
// counter bumps that do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The bytes `f` allocates on this thread, and what it returns.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

#[test]
fn kernels_do_not_allocate_per_call() {
    let (dim, n) = (4, 8_192);
    let coords: Vec<f64> = (0..n * dim).map(|i| (i % 97) as f64 * 0.25).collect();
    let points = PointSet::from_rows(dim, coords);
    let ids: Vec<u32> = (0..n as u32).collect();
    let (q, mut out, serial) = (vec![1.5; dim], vec![0.0; n], Pool::serial());

    let probe = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert!(probe > 0, "the counting allocator is not installed");
    let scalar = allocations_during(|| scalar_distances_sq(&points, &ids, &q, &mut out));
    assert_eq!(scalar, 0, "scalar_distances_sq allocated");
    let checked = allocations_during(|| distances_sq(&serial, &points, &ids, &q, &mut out));
    assert_eq!(checked, 0, "distances_sq allocated");
    let packed: Vec<f64> = ids
        .iter()
        .flat_map(|&id| points.point(id))
        .copied()
        .collect();
    let streamed = allocations_during(|| packed_distances_sq(&packed, dim, &q, &mut out));
    assert_eq!(streamed, 0, "packed_distances_sq allocated");

    // The S₁ kernel, load-ahead pass included, over every tail length of
    // its four-row unroll.
    let store = EmbeddingStore::from_raw(32, (0..32 * 64).map(f64::from).collect(), Vec::new());
    let (point, rows) = (vec![0.5; 32], [3u32, 60, 7, 7, 0, 63, 12]);
    for len in 0..=rows.len() {
        let (ids, out) = (&rows[..len], &mut out[..len]);
        let s1 = allocations_during(|| store.distances_to_entities(&point, ids, out));
        assert_eq!(s1, 0, "distances_to_entities allocated at {len} ids");
    }
}

/// A binary split of a 100 000-point partition — ranking the candidates
/// and partitioning the orders — allocates O(positions) for the ranking
/// and its two outputs for the partition: never a buffer the size of the
/// partition or of the id space. The id bitmap the partition reads is the
/// thread's, grown by a first split and reused by every later one.
#[test]
fn a_split_allocates_positions_and_its_outputs() {
    let n = 100_000;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let coords: Vec<f64> = (0..n * 3)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect();
    let points = PointSet::from_rows(3, coords);
    let orders = SortOrders::build(&points, points.all_ids());
    let query = Mbr::of_ball(&[0.5; 3], 0.2);
    let serial = Pool::serial();
    let warm = orders.split_by_prefix(1, n / 3);
    drop(std::hint::black_box(warm));

    let size = std::mem::size_of::<SplitCandidate>();
    for query in [None, Some(&query)] {
        let ctx = SplitContext {
            points: &points,
            query,
            leaf_capacity: 32,
            beta_pow_h: 2.0,
            pool: &serial,
        };
        for fanout in [2, 8] {
            let m = n / fanout;
            let positions = fanout - 1;
            let (bytes, best) = bytes_during(|| best_splits(&ctx, &orders, m, 1));
            // Per axis: the candidates, each position's prefix and each
            // block's MBR; twice over for the candidate list's growth.
            let bound = 4 * (positions + 1) * orders.num_orders() * size;
            assert!(bound < n, "the bound must not admit a buffer of n bytes");
            assert!(
                bytes <= bound,
                "ranking at {positions} positions allocated {bytes} B (bound {bound} B)"
            );

            let (axis, count) = (best[0].axis, best[0].count);
            let (bytes, (low, high)) = bytes_during(|| orders.split_by_prefix(axis, count));
            let outputs = low.bytes()
                + high.bytes()
                + 2 * orders.num_orders() * std::mem::size_of::<Vec<u32>>();
            assert_eq!(
                bytes, outputs,
                "the partition allocated more than its outputs"
            );
        }
    }
}
