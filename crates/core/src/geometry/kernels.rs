//! Batched squared-distance kernels in S₂.
//!
//! The hot loops of the paper — candidate evaluation inside top-k
//! refinement (§V, Algorithm 3) and contour sweeps — reduce to "squared
//! Euclidean distance from many stored points to one query point", the
//! textbook `Σ (aᵢ − bᵢ)²` per point, serially: a served query gets its
//! parallelism from the requests running beside it, not from threads
//! under it. Two kernels compute it with the same bits:
//!
//! - [`packed_distances_sq`] streams rows packed back to back — a
//!   contour element's own copy of its members' coordinates
//!   ([`crate::index::Node::coords`]). Every read of the index uses it.
//! - [`scalar_distances_sq`] gathers each row from a [`PointSet`] by id,
//!   one random load per point.
//!
//! Neither allocates (DESIGN.md §3.4): `tests/kernel_alloc.rs` counts
//! allocations across both, callees included.

use vkg_sync::pool::Pool;

use super::points::PointSet;

/// `out[i] = Σ (rows[i][c] − q[c])²` over the rows of `coords`, each
/// `dim` wide and packed back to back, in the evaluation order of
/// [`PointSet::distance_sq`] — so its bits.
///
/// # Panics
/// Panics if `dim` is zero.
pub fn packed_distances_sq(coords: &[f64], dim: usize, q: &[f64], out: &mut [f64]) {
    debug_assert_eq!(coords.len(), out.len() * dim);
    for (o, row) in out.iter_mut().zip(coords.chunks_exact(dim)) {
        *o = row
            .iter()
            .zip(q)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
    }
}

/// `out[i] = Σ (points[ids[i]][c] − q[c])²`, in the evaluation order of
/// [`PointSet::distance_sq`].
pub fn scalar_distances_sq(points: &PointSet, ids: &[u32], q: &[f64], out: &mut [f64]) {
    debug_assert_eq!(ids.len(), out.len());
    for (o, &id) in out.iter_mut().zip(ids) {
        *o = points.distance_sq(id, q);
    }
}

/// [`scalar_distances_sq`] with the lengths checked. `_pool` is a held
/// name — the benchmark's kernel layer passes a serial pool — and is
/// not used: there is no pooled arm.
pub fn distances_sq(_pool: &Pool, points: &PointSet, ids: &[u32], q: &[f64], out: &mut [f64]) {
    assert_eq!(ids.len(), out.len(), "ids/out length mismatch");
    scalar_distances_sq(points, ids, q, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(dim: usize, n: usize) -> (PointSet, Vec<f64>) {
        // Deterministic pseudo-random coordinates (xorshift).
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 100.0 - 10.0
        };
        let coords: Vec<f64> = (0..n * dim).map(|_| next()).collect();
        let q: Vec<f64> = (0..dim).map(|_| next()).collect();
        (PointSet::from_rows(dim, coords), q)
    }

    #[test]
    fn serial_pool_is_bit_identical_to_scalar() {
        let (ps, q) = sample(6, 100);
        let ids: Vec<u32> = (0..100).collect();
        let mut reference = vec![0.0; 100];
        for (o, &id) in reference.iter_mut().zip(&ids) {
            *o = ps.distance_sq(id, &q);
        }
        let mut out = vec![0.0; 100];
        distances_sq(&Pool::serial(), &ps, &ids, &q, &mut out);
        assert_eq!(out, reference, "width 1 must be the exact serial path");
    }

    #[test]
    fn small_work_skips_pool_dispatch() {
        // The held pool argument changes nothing: a wide pool answers
        // inline with the scalar kernel's bits.
        let n = 256;
        let dim = 4;
        let (ps, q) = sample(dim, n);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut serial = vec![0.0; n];
        scalar_distances_sq(&ps, &ids, &q, &mut serial);
        let mut pooled = vec![0.0; n];
        distances_sq(&Pool::new(4), &ps, &ids, &q, &mut pooled);
        assert_eq!(pooled, serial);
    }

    #[test]
    fn packed_rows_are_bit_identical_to_the_gather() {
        let (ps, q) = sample(3, 300);
        // Scattered and repeated ids, packed in their own order.
        let ids: Vec<u32> = (0..300u32)
            .map(|i| (i * 97) % 300)
            .chain([5, 5, 0])
            .collect();
        let packed: Vec<f64> = ids.iter().flat_map(|&id| ps.point(id)).copied().collect();
        let mut gathered = vec![0.0; ids.len()];
        scalar_distances_sq(&ps, &ids, &q, &mut gathered);
        let mut streamed = vec![0.0; ids.len()];
        packed_distances_sq(&packed, 3, &q, &mut streamed);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&streamed), bits(&gathered));
    }
}
