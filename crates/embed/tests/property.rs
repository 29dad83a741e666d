//! Property-based tests for vector algebra, the embedding store and its
//! persistence formats.

use proptest::prelude::*;
use vkg_embed::vector;
use vkg_embed::EmbeddingStore;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len..=len)
}

proptest! {
    /// Triangle inequality and symmetry for the L2 metric.
    #[test]
    fn l2_is_a_metric(a in finite_vec(8), b in finite_vec(8), c in finite_vec(8)) {
        let ab = vector::l2_distance(&a, &b);
        let ba = vector::l2_distance(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        let ac = vector::l2_distance(&a, &c);
        let cb = vector::l2_distance(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-9, "triangle violated: {ab} > {ac} + {cb}");
        prop_assert!(ab >= 0.0);
        prop_assert_eq!(vector::l2_distance(&a, &a), 0.0);
    }

    /// `l2_distance_sq` is consistent with `l2_distance`.
    #[test]
    fn squared_matches_plain(a in finite_vec(6), b in finite_vec(6)) {
        let d = vector::l2_distance(&a, &b);
        let d2 = vector::l2_distance_sq(&a, &b);
        prop_assert!((d * d - d2).abs() < 1e-6 * d2.max(1.0));
    }

    /// L1 dominates L2 and both lower-bound via Cauchy–Schwarz.
    #[test]
    fn norm_inequalities(a in finite_vec(10), b in finite_vec(10)) {
        let l1 = vector::l1_distance(&a, &b);
        let l2 = vector::l2_distance(&a, &b);
        prop_assert!(l1 + 1e-9 >= l2, "L1 {l1} < L2 {l2}");
        prop_assert!(l1 <= l2 * (10f64).sqrt() + 1e-9);
    }

    /// Normalization yields unit vectors (except the zero vector).
    #[test]
    fn normalize_unit(mut v in finite_vec(7)) {
        let n = vector::norm(&v);
        vector::normalize(&mut v);
        if n > 1e-9 {
            prop_assert!((vector::norm(&v) - 1.0).abs() < 1e-9);
        }
    }

    /// add/sub are inverse; dot is bilinear in the first argument.
    #[test]
    fn vector_algebra(a in finite_vec(5), b in finite_vec(5), s in -3.0f64..3.0) {
        let sum = vector::add(&a, &b);
        let back = vector::sub(&sum, &b);
        for (x, y) in back.iter().zip(&a) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        let scaled: Vec<f64> = a.iter().map(|x| x * s).collect();
        let lhs = vector::dot(&scaled, &b);
        let rhs = s * vector::dot(&a, &b);
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0));
    }

    /// Store roundtrips losslessly through the binary format, and within
    /// float-printing precision through TSV.
    #[test]
    fn store_persistence_roundtrips(
        n in 1usize..8,
        m in 1usize..4,
        dim in 1usize..10,
        seed: u64,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ents: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let rels: Vec<f64> = (0..m * dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let store = EmbeddingStore::from_raw(dim, ents, rels);

        let bin = vkg_embed::io::to_binary(&store);
        let back = vkg_embed::io::from_binary(&bin).unwrap();
        prop_assert_eq!(&back, &store);

        let mut tsv = Vec::new();
        vkg_embed::io::write_tsv(&store, &mut tsv).unwrap();
        let back = vkg_embed::io::read_tsv(tsv.as_slice()).unwrap();
        prop_assert_eq!(back, store);
    }

    /// The load-ahead pass and the four-row kernel give
    /// `distance_to_entity`'s bits for runs of up to 40 ids — past the
    /// traversal's 32-point runs — at every tail length of the unroll,
    /// with repeated ids, duplicate rows, rows at distance zero from the
    /// point, and rows spanning several cache lines.
    #[test]
    fn batched_distances_are_bit_identical(
        dim in 1usize..=40,
        kinds in prop::collection::vec(0u8..3, 1..10),
        picks in prop::collection::vec(any::<u32>(), 0..=40),
        seed: u64,
    ) {
        use rand::{Rng, SeedableRng};
        use vkg_kg::EntityId;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let point: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let mut rows: Vec<f64> = Vec::with_capacity(kinds.len() * dim);
        for kind in &kinds {
            match kind {
                0 => rows.extend((0..dim).map(|_| rng.gen_range(-50.0..50.0))),
                1 if !rows.is_empty() => rows.extend_from_within(..dim),
                _ => rows.extend_from_slice(&point),
            }
        }
        let store = EmbeddingStore::from_raw(dim, rows, Vec::new());
        let ids: Vec<u32> = picks.iter().map(|p| p % kinds.len() as u32).collect();
        let mut out = vec![f64::NAN; ids.len()];
        store.distances_to_entities(&point, &ids, &mut out);
        for (&id, d) in ids.iter().zip(&out) {
            let one = store.distance_to_entity(&point, EntityId(id));
            prop_assert_eq!(d.to_bits(), one.to_bits(), "id {}", id);
        }
    }

    /// tail/head query points invert each other: (h + r) − r = h.
    #[test]
    fn query_points_invert(dim in 1usize..12, seed: u64) {
        use rand::{Rng, SeedableRng};
        use vkg_kg::{EntityId, RelationId};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ents: Vec<f64> = (0..3 * dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let rels: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let store = EmbeddingStore::from_raw(dim, ents, rels);
        let h = EntityId(1);
        let r = RelationId(0);
        let fwd = store.tail_query_point(h, r);
        // Pretend the tail sits exactly at h + r; then the head query
        // from there recovers h.
        let back: Vec<f64> = fwd.iter().zip(store.relation(r)).map(|(a, b)| a - b).collect();
        for (x, y) in back.iter().zip(store.entity(h)) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }
}
