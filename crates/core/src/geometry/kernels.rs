//! Batched distance kernels over contiguous [`PointSet`] rows.
//!
//! The hot loops of the paper — candidate evaluation inside top-k
//! refinement (§V, Algorithm 3), contour sweeps, and MBR construction —
//! all reduce to "squared Euclidean distance from many stored points to
//! one query point". This module provides two tiers:
//!
//! * the **scalar kernel** ([`scalar_distances_sq`]) that evaluates the
//!   textbook `Σ (aᵢ − bᵢ)²` per point;
//! * **pooled dispatchers** ([`distances_sq`], [`par_mbr_of`]) that
//!   split the id list over a [`Pool`] and run the scalar kernel on
//!   each chunk, so every pool width returns the same bits.
//!
//! Kernels do not allocate per call (DESIGN.md §3.4):
//! `tests/kernel_alloc.rs` counts allocations across the scalar kernel
//! and the serial dispatch, callees included. The one sanctioned cost is
//! the chunk-slot vec a pooled dispatch sets up.

use vkg_sync::pool::Pool;
use vkg_sync::Mutex;

use super::mbr::Mbr;
use super::points::PointSet;

/// Smallest `points × dim` work size worth dispatching a distance batch
/// to the pool. Gating on total floating-point work rather than point
/// count keeps low-dimensional batches — where each point is cheap —
/// from paying thread-coordination overhead that the arithmetic cannot
/// amortise.
pub const DISTANCES_PAR_THRESHOLD: usize = 1 << 13;

/// Smallest `points × dim` work size worth dispatching an MBR sweep to
/// the pool. An MBR visit is two compares per coordinate — cheaper than
/// a distance — but the same work-based gate keeps the dispatch
/// decision honest on small inputs.
pub const MBR_PAR_THRESHOLD: usize = 1 << 13;

/// Minimum points per parallel chunk, so chunk bookkeeping stays noise.
const MIN_CHUNK: usize = 512;

/// `out[i] = Σ (points[ids[i]][c] − q[c])²`, in the evaluation order of
/// [`PointSet::distance_sq`].
pub fn scalar_distances_sq(points: &PointSet, ids: &[u32], q: &[f64], out: &mut [f64]) {
    debug_assert_eq!(ids.len(), out.len());
    for (o, &id) in out.iter_mut().zip(ids) {
        *o = points.distance_sq(id, q);
    }
}

/// Batched squared distances for `ids`, written id-aligned into `out`.
///
/// Large batches on a wide pool are split into chunks that the pool's
/// workers evaluate with [`scalar_distances_sq`]; everything else runs
/// it inline. `ids` and `out` must be the same length.
pub fn distances_sq(pool: &Pool, points: &PointSet, ids: &[u32], q: &[f64], out: &mut [f64]) {
    assert_eq!(ids.len(), out.len(), "ids/out length mismatch");
    let n = ids.len();
    if pool.is_serial() || n * points.dim() < DISTANCES_PAR_THRESHOLD {
        scalar_distances_sq(points, ids, q, out);
        return;
    }
    let chunks = (pool.width() * 4).min(n / MIN_CHUNK).max(1);
    let per = n.div_ceil(chunks);
    // Disjoint output windows, one mutex per chunk so workers get
    // `&mut` access without unsafe; every lock is uncontended. One slot
    // vec per pooled call is the sanctioned setup cost.
    let slots: Vec<Mutex<&mut [f64]>> = out.chunks_mut(per).map(Mutex::new).collect();
    pool.run(slots.len(), |c| {
        let start = c * per;
        let mut window = slots[c].lock();
        let len = window.len();
        scalar_distances_sq(points, &ids[start..start + len], q, &mut window);
    });
}

/// The minimum bounding region of `ids`, computed over the pool.
///
/// Per-chunk partial MBRs are merged at the barrier; min/max merging
/// is order-independent, so the result is identical at every width
/// (and a serial pool runs the exact sequential sweep).
pub fn par_mbr_of(pool: &Pool, points: &PointSet, ids: &[u32]) -> Mbr {
    if pool.is_serial() || ids.len() * points.dim() < MBR_PAR_THRESHOLD {
        return points.mbr_of(ids);
    }
    let merged = Mutex::new(Mbr::empty(points.dim()));
    pool.run_chunked(ids.len(), MIN_CHUNK, |start, end| {
        let mut local = Mbr::empty(points.dim());
        for &id in &ids[start..end] {
            local.include_point(points.point(id));
        }
        merged.lock().include_mbr(&local);
    });
    let out = *merged.lock();
    out
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
    fn pooled_dispatch_covers_large_inputs() {
        let n = 4096 + 17;
        assert!(n * 4 >= DISTANCES_PAR_THRESHOLD, "must exercise dispatch");
        let (ps, q) = sample(4, n);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut serial = vec![0.0; n];
        scalar_distances_sq(&ps, &ids, &q, &mut serial);
        let mut pooled = vec![0.0; n];
        distances_sq(&Pool::new(4), &ps, &ids, &q, &mut pooled);
        assert_eq!(
            pooled, serial,
            "every pooled chunk must use the scalar kernel"
        );
    }

    #[test]
    fn small_work_skips_pool_dispatch() {
        // Below the work threshold a wide pool answers inline.
        let n = 256;
        let dim = 4;
        assert!(n * dim < DISTANCES_PAR_THRESHOLD);
        let (ps, q) = sample(dim, n);
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut serial = vec![0.0; n];
        scalar_distances_sq(&ps, &ids, &q, &mut serial);
        let mut pooled = vec![0.0; n];
        distances_sq(&Pool::new(4), &ps, &ids, &q, &mut pooled);
        assert_eq!(pooled, serial);
    }

    #[test]
    fn par_mbr_matches_serial_sweep() {
        let n = 4096;
        assert!(n * 3 >= MBR_PAR_THRESHOLD, "must exercise dispatch");
        let (ps, _) = sample(3, n);
        let ids: Vec<u32> = (0..n as u32).collect();
        let serial = ps.mbr_of(&ids);
        let pooled = par_mbr_of(&Pool::new(4), &ps, &ids);
        for axis in 0..3 {
            assert_eq!(serial.min(axis), pooled.min(axis));
            assert_eq!(serial.max(axis), pooled.max(axis));
        }
    }
}
