//! A vector that is persistent at chunk granularity.
//!
//! [`ChunkVec`] is a flat spine of [`CHUNK_LEN`]-row chunks, each behind
//! its own `Arc`. Cloning copies the spine (one pointer per chunk) and
//! shares every chunk; a mutation copies the one chunk it lands in, and
//! only while another clone still holds it. The snapshot stores are built
//! on it so that successive epochs of a served graph share everything a
//! write did not touch. Chunk length is a power of two, so a lookup is a
//! shift and a mask.
//!
//! A row is `width` consecutive elements (one embedding vector); the
//! default width 1 makes it an ordinary vector of `T`.
//!
//! [`ChunkLists`] is the same idea for one variable-length list per row
//! (the graph's adjacency): each chunk of rows is one `Arc`'d block that
//! holds all its rows' lists back to back, compressed-sparse-row style,
//! so a chunk is two allocations however many lists it holds.

use std::ops::Index;
use std::sync::Arc;

/// log₂ of the rows per chunk.
pub const CHUNK_BITS: u32 = 10;
/// Rows per chunk: what a write to one row copies, at most.
pub const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const MASK: usize = CHUNK_LEN - 1;

/// Iterator over the elements of a [`ChunkVec`], in order.
pub type Iter<'a, T> = std::iter::FlatMap<
    std::slice::Iter<'a, Arc<Vec<T>>>,
    std::slice::Iter<'a, T>,
    fn(&'a Arc<Vec<T>>) -> std::slice::Iter<'a, T>,
>;

fn chunk_iter<T>(chunk: &Arc<Vec<T>>) -> std::slice::Iter<'_, T> {
    chunk.iter()
}

/// A growable vector of fixed-width rows whose clones share chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
    width: usize,
}

impl<T: Clone> Default for ChunkVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> ChunkVec<T> {
    /// An empty vector of single elements.
    pub fn new() -> Self {
        Self {
            chunks: Vec::new(),
            len: 0,
            width: 1,
        }
    }

    /// Rows of `width` elements taken from a row-major matrix.
    ///
    /// # Panics
    /// Panics if `width == 0` or `flat.len()` is not a multiple of it.
    pub fn from_flat(width: usize, flat: &[T]) -> Self {
        assert!(width > 0, "row width must be positive");
        assert_eq!(flat.len() % width, 0, "matrix shape mismatch");
        Self {
            chunks: flat
                .chunks(CHUNK_LEN * width)
                .map(|c| Arc::new(c.to_vec()))
                .collect(),
            len: flat.len() / width,
            width,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let at = (i & MASK) * self.width;
        &self.chunks[i >> CHUNK_BITS][at..at + self.width]
    }

    /// Row `i`, mutably: copies the row's chunk if a clone shares it.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let at = (i & MASK) * self.width;
        &mut Arc::make_mut(&mut self.chunks[i >> CHUNK_BITS])[at..at + self.width]
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if `row.len()` is not the row width.
    pub fn push_row(&mut self, row: &[T]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        self.tail().extend_from_slice(row);
        self.len += 1;
    }

    /// The first element of row `i` — element `i` at width 1.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunks
            .get(i >> CHUNK_BITS)?
            .get((i & MASK) * self.width)
    }

    /// Appends one element (width 1).
    pub fn push(&mut self, value: T) {
        debug_assert_eq!(self.width, 1, "push on a vector of wider rows");
        self.tail().push(value);
        self.len += 1;
    }

    /// The first element.
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// All elements in order (row-major).
    pub fn iter(&self) -> Iter<'_, T> {
        self.chunks.iter().flat_map(chunk_iter)
    }

    /// All elements in order, copied into one `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        let mut all = Vec::with_capacity(self.len * self.width);
        for chunk in &self.chunks {
            all.extend_from_slice(chunk);
        }
        all
    }

    /// The chunks in order, each a row-major run of whole rows.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[T]> {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// How many chunk positions `self` and `other` do not share (a
    /// position only one of them has counts as unshared).
    pub fn unshared_chunks(&self, other: &Self) -> usize {
        unshared(&self.chunks, &other.chunks)
    }

    /// The chunk the next append goes to, opened if the last one is full.
    fn tail(&mut self) -> &mut Vec<T> {
        if self.len & MASK == 0 {
            self.chunks
                .push(Arc::new(Vec::with_capacity(CHUNK_LEN * self.width)));
        }
        let last = self.chunks.len() - 1;
        Arc::make_mut(&mut self.chunks[last])
    }
}

impl<T> Index<usize> for ChunkVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i >> CHUNK_BITS][(i & MASK) * self.width]
    }
}

impl<'a, T: Clone> IntoIterator for &'a ChunkVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// One variable-length list per row, whose clones share chunks.
///
/// The lists of rows `b · CHUNK_LEN .. (b + 1) · CHUNK_LEN` live in block
/// `b`: one `items` vector holding them back to back, and `starts`, one
/// offset per row plus the end, so row `j` of the block is
/// `items[starts[j]..starts[j + 1]]`. Each list keeps the order its items
/// were added in. Cloning copies the spine (one pointer per block); a
/// write copies the one block it lands in, and only while another clone
/// still holds it, and then inserts in place. A block holds fewer than
/// 2³² items (offsets are `u32`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkLists<T> {
    blocks: Vec<Arc<Block<T>>>,
    len: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct Block<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for ChunkLists<T> {
    fn default() -> Self {
        Self {
            blocks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> ChunkLists<T> {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// `rows` lists filled from `(row, item)` entries, each list in the
    /// order its entries come. Exact-size: a counting pass sizes every
    /// block, a second pass fills it, and no block has spare capacity.
    ///
    /// # Panics
    /// Panics if an entry's row is not below `rows`.
    pub fn from_entries<I>(rows: usize, entries: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        I::IntoIter: Clone,
    {
        let entries = entries.into_iter();
        // Each row's length, then (below) its next write offset in its block.
        let mut cursor = vec![0u32; rows];
        let (mut filler, mut total) = (None, 0usize);
        for (row, item) in entries.clone() {
            cursor[row] += 1;
            total += 1;
            if filler.is_none() {
                filler = Some(item);
            }
        }
        assert!(total <= u32::MAX as usize, "offsets are u32");
        let mut blocks: Vec<Block<T>> = cursor
            .chunks_mut(CHUNK_LEN)
            .map(|lens| {
                let mut starts = Vec::with_capacity(lens.len() + 1);
                let mut end = 0;
                starts.push(end);
                for at in lens {
                    let len = *at;
                    *at = end;
                    end += len;
                    starts.push(end);
                }
                // Every slot is overwritten by the filling pass.
                let items = filler
                    .as_ref()
                    .map_or_else(Vec::new, |f| vec![f.clone(); end as usize]);
                Block { starts, items }
            })
            .collect();
        for (row, item) in entries {
            let at = &mut cursor[row];
            blocks[row >> CHUNK_BITS].items[*at as usize] = item;
            *at += 1;
        }
        Self {
            blocks: blocks.into_iter().map(Arc::new).collect(),
            len: rows,
        }
    }

    /// Number of rows (lists).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`'s list, in insertion order.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&[T]> {
        let block = self.blocks.get(i >> CHUNK_BITS)?;
        let j = i & MASK;
        let (start, end) = (*block.starts.get(j)?, *block.starts.get(j + 1)?);
        block.items.get(start as usize..end as usize)
    }

    /// Appends an empty list: copies the last block if a clone shares it.
    pub fn push_list(&mut self) {
        if self.len & MASK == 0 {
            let mut starts = Vec::with_capacity(CHUNK_LEN + 1);
            starts.push(0);
            self.blocks.push(Arc::new(Block {
                starts,
                items: Vec::new(),
            }));
        }
        let block = self.block_mut(self.len >> CHUNK_BITS, 1, 0);
        block.starts.push(block.items.len() as u32);
        self.len += 1;
    }

    /// Appends `item` to row `i`'s list, copying its block if a clone
    /// shares it; `false` (and nothing changed) if there is no row `i`.
    pub fn push_to(&mut self, i: usize, item: T) -> bool {
        if i >= self.len {
            return false;
        }
        let j = i & MASK;
        let block = self.block_mut(i >> CHUNK_BITS, 0, 1);
        assert!(block.items.len() < u32::MAX as usize, "offsets are u32");
        let end = block.starts[j + 1];
        block.items.insert(end as usize, item);
        for s in &mut block.starts[j + 1..] {
            *s += 1;
        }
        true
    }

    /// Removes the first `item` from row `i`'s list, copying its block if
    /// a clone shares it; `false` (and nothing copied) if it is not there.
    pub fn remove(&mut self, i: usize, item: &T) -> bool
    where
        T: PartialEq,
    {
        let Some(at) = self.get(i).and_then(|l| l.iter().position(|x| x == item)) else {
            return false;
        };
        let j = i & MASK;
        let block = self.block_mut(i >> CHUNK_BITS, 0, 0);
        block.items.remove(block.starts[j] as usize + at);
        for s in &mut block.starts[j + 1..] {
            *s -= 1;
        }
        true
    }

    /// How many block positions `self` and `other` do not share (a
    /// position only one of them has counts as unshared).
    pub fn unshared_chunks(&self, other: &Self) -> usize {
        unshared(&self.blocks, &other.blocks)
    }

    /// Block `b`, mutably. A shared block is copied with room for `rows`
    /// more offsets and `items` more items, so the write that follows
    /// does not grow the fresh copy again.
    fn block_mut(&mut self, b: usize, rows: usize, items: usize) -> &mut Block<T> {
        let block = &mut self.blocks[b];
        if Arc::get_mut(block).is_none() {
            *block = Arc::new(Block {
                starts: copy_with_room(&block.starts, rows),
                items: copy_with_room(&block.items, items),
            });
        }
        Arc::make_mut(block)
    }
}

/// How many positions of two spines do not hold the same `Arc`.
fn unshared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
    let shared = a.iter().zip(b).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
    a.len().max(b.len()) - shared
}

fn copy_with_room<T: Clone>(from: &[T], room: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(from.len() + room);
    copy.extend_from_slice(from);
    copy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_elements() {
        let mut v = ChunkVec::from_flat(2, &[1, 2, 3, 4]);
        v.push_row(&[5, 6]);
        assert_eq!((v.len(), v.row(1), v.row(2)), (3, &[3, 4][..], &[5, 6][..]));
        v.row_mut(0)[1] = 9;
        assert_eq!(v.to_vec(), vec![1, 9, 3, 4, 5, 6]);
        assert_eq!(
            v.chunks().collect::<Vec<_>>(),
            vec![&[1, 9, 3, 4, 5, 6][..]]
        );

        let mut e = ChunkVec::new();
        assert!(e.is_empty() && e.first().is_none());
        for i in 0..CHUNK_LEN + 3 {
            e.push(i);
        }
        assert_eq!(
            (e.len(), e[CHUNK_LEN + 2], e.first()),
            (CHUNK_LEN + 3, CHUNK_LEN + 2, Some(&0))
        );
        assert_eq!(e.get(CHUNK_LEN + 3), None);
        assert!((&e).into_iter().copied().eq(0..CHUNK_LEN + 3));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn ragged_matrix_rejected() {
        let _ = ChunkVec::from_flat(3, &[1.0; 7]);
    }
}
