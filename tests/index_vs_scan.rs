//! Accuracy of the indexed query path against the exact no-index scan —
//! the precision@K methodology of Figures 4, 6 and 8.
//!
//! The index answers through the lossy JL transform, so exact equality is
//! not required; the paper reports precision@K ≥ 0.945 across datasets,
//! and the same level must hold here.

mod worlds;

use vkg::prelude::*;
use worlds::{precision_at_k, Data, JLTR};

#[test]
fn movie_precision_alpha3() {
    assert_eq!(JLTR.start, VkgConfig::default().transform_seed);
    let p = precision_at_k(Data::Movie, 3, 10, JLTR, 12);
    assert!(p >= 0.9, "precision@10 = {p} below the paper's ballpark");
}

#[test]
fn movie_precision_alpha6_not_worse() {
    // Figure 6: α = 6 preserves distance better than α = 3 — on average.
    // Summed over several transform seeds: a single draw is noisy.
    let p3_total = precision_at_k(Data::Movie, 3, 10, 0..3, 12);
    let p6_total = precision_at_k(Data::Movie, 6, 10, 0..3, 12);
    assert!(
        p6_total >= p3_total - 0.05,
        "α=6 ({p6_total}) markedly worse than α=3 ({p3_total})"
    );
    assert!(p6_total / 3.0 >= 0.9);
}

#[test]
fn amazon_precision() {
    let p = precision_at_k(Data::Amazon, 3, 10, JLTR, 12);
    assert!(p >= 0.9, "precision@10 = {p}");
}

#[test]
fn freebase_precision_many_relations() {
    let p = precision_at_k(Data::Freebase, 3, 10, JLTR, 16);
    assert!(p >= 0.85, "precision@10 = {p}");
}

#[test]
fn varying_k_keeps_precision() {
    // Figure 7's k = 2 vs k = 10 comparison: precision holds across k.
    for k in [2usize, 10] {
        let p = precision_at_k(Data::Amazon, 3, k, JLTR, 8);
        assert!(p >= 0.85, "precision@{k} = {p}");
    }
}
