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

    /// [`ChunkVec::get`], mutably: copies the element's chunk if a clone
    /// shares it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        Arc::make_mut(&mut self.chunks[i >> CHUNK_BITS]).get_mut((i & MASK) * self.width)
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
        let shared = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        self.chunks.len().max(other.chunks.len()) - shared
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
        assert!(e.is_empty() && e.first().is_none() && e.get_mut(0).is_none());
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
