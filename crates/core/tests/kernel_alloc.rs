//! The distance kernels — S₂ and S₁ — allocate nothing per call
//! (DESIGN.md §3.4).
//!
//! A binary of its own because it installs a counting global allocator.
//! The count is per thread, so the libtest harness's own allocations on
//! other threads cannot leak into it; and it counts what the kernels'
//! callees allocate too, which a scan of the kernel file could not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vkg_core::geometry::kernels::{distances_sq, scalar_distances_sq};
use vkg_core::geometry::PointSet;
use vkg_embed::EmbeddingStore;
use vkg_sync::pool::Pool;

thread_local! {
    // Const-initialised and without a destructor, so reading it inside
    // the allocator can neither allocate nor run after teardown.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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

    // The S₁ kernel, over every tail length of its four-row unroll.
    let store = EmbeddingStore::from_raw(32, (0..32 * 64).map(f64::from).collect(), Vec::new());
    let (point, rows) = (vec![0.5; 32], [3u32, 60, 7, 7, 0, 63, 12]);
    for len in 0..=rows.len() {
        let (ids, out) = (&rows[..len], &mut out[..len]);
        let s1 = allocations_during(|| store.distances_to_entities(&point, ids, out));
        assert_eq!(s1, 0, "distances_to_entities allocated at {len} ids");
    }
}
