//! Byte fuzz for the two embedding readers, `from_binary` (`VKGE`) and
//! `read_tsv`: arbitrary bytes, and single-byte mutations and
//! truncations of valid files, each return `Ok` or a typed error —
//! never a panic — and allocate nothing beyond what the input's length
//! admits, so a hostile shape, count or id cannot ask for memory the
//! file does not hold.
//!
//! A binary of its own because it installs a counting global allocator.
//! The largest single allocation is tracked per thread, so the libtest
//! harness's own allocations on other threads cannot leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use vkg_embed::io::{from_binary, read_tsv, to_binary, write_tsv};
use vkg_embed::EmbeddingStore;

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
/// reader's 8 KiB line buffer, plus a constant factor of the input (a
/// growing `Vec` may hold twice what it was given, and a parsed row
/// holds 8 bytes per value of at least 2 input bytes).
fn admitted(input: &[u8]) -> usize {
    8 * 1024 + 16 * input.len()
}

/// Runs both readers over `input` and checks the allocation bound. A
/// panic inside either fails the property as it is.
fn read_both(input: &[u8]) -> (bool, bool) {
    LARGEST.with(|n| n.set(0));
    let binary = from_binary(input).is_ok();
    let tsv = read_tsv(input).is_ok();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= admitted(input),
        "reading {} bytes allocated {largest} at once",
        input.len()
    );
    (binary, tsv)
}

fn store(dim: usize, entities: usize, relations: usize) -> EmbeddingStore {
    let value = |i: usize| (i % 17) as f64 * 0.37 - 3.0;
    EmbeddingStore::from_raw(
        dim,
        (0..entities * dim).map(value).collect(),
        (0..relations * dim).map(|i| value(i + 5)).collect(),
    )
}

fn files(dim: usize, entities: usize, relations: usize) -> [Vec<u8>; 2] {
    let store = store(dim, entities, relations);
    let mut tsv = Vec::new();
    write_tsv(&store, &mut tsv).unwrap();
    [to_binary(&store), tsv]
}

#[test]
fn the_counting_allocator_is_installed() {
    LARGEST.with(|n| n.set(0));
    drop(std::hint::black_box(vec![0u8; 4096]));
    assert!(LARGEST.with(Cell::get) >= 4096);
}

/// Hostile headers that declare far more than the file holds: the
/// shapes, an id and a row count are refused without asking for them.
#[test]
fn hostile_declarations_are_refused_unallocated() {
    let mut shapes = b"VKGE\x01".to_vec();
    shapes.extend_from_slice(&[0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0, 0, 0, 0, 0, 0]);
    assert_eq!(read_both(&shapes), (false, false));
    let id = format!("entity\t{}\t1 2\n", u32::MAX);
    assert_eq!(read_both(id.as_bytes()), (false, false));
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..256)) {
        read_both(&bytes);
    }

    /// A valid pair of files with one byte changed: either reader may
    /// accept the result (a value byte of `VKGE` is any `f64`'s), but
    /// only as a typed outcome.
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
            read_both(&file);
        }
    }

    /// Every strict prefix of a binary file is refused (its payload no
    /// longer matches its shapes); a TSV prefix may end on a line
    /// boundary and read.
    #[test]
    fn truncations_never_panic(
        (dim, entities, relations) in (1usize..5, 0usize..6, 0usize..4),
        cut in 0usize..10_000,
    ) {
        let [binary, tsv] = files(dim, entities, relations);
        let cut_binary = &binary[..cut % binary.len()];
        prop_assert!(!read_both(cut_binary).0, "a {}-byte prefix read", cut_binary.len());
        read_both(&tsv[..cut % tsv.len().max(1)]);
    }
}
