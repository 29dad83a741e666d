//! H2-ALSH (Huang et al., KDD 2018 — the paper's reference \[12\]):
//! accurate and fast asymmetric LSH for maximum inner product search.
//!
//! The closest prior work to the paper's index. It answers *one*
//! collaborative-filtering-style relationship (find items maximizing
//! `x · q`), which is why the paper can only compare against it on
//! single-relation workloads (§VI: movie / Amazon "likes").
//!
//! Pipeline, as in the original:
//!
//! 1. **Homocentric hypersphere partitioning** — items sorted by norm
//!    descending and greedily grouped so every partition `j` has
//!    `‖x‖ ≥ b·M_j` where `M_j` is the partition's max norm and
//!    `0 < b < 1` the norm ratio.
//! 2. **QNF asymmetric transform** per partition: item
//!    `x ↦ [x; √(M_j² − ‖x‖²)]` (all transformed items share norm `M_j`),
//!    query `q ↦ [q; 0]` — inner-product order becomes (reversed)
//!    Euclidean order among the transformed points.
//! 3. **E2LSH tables** over the transformed points: `L` tables of `K`
//!    concatenated projections `⌊(a·x + u)/w⌋`.
//! 4. **Query** probes partitions in descending `M_j` order and stops
//!    early once `M_j · ‖q‖` (the best inner product the partition could
//!    possibly contain) cannot beat the current k-th best.
//!
//! The flat hash buckets are the structural reason H2-ALSH scales worse
//! than a tree index in Figures 5/7 — buckets grow with the data while a
//! tree's depth grows logarithmically.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tunables for [`H2Alsh::build`].
#[derive(Debug, Clone)]
pub struct H2AlshConfig {
    /// Norm ratio `b` delimiting partitions (0 < b < 1).
    pub norm_ratio: f64,
    /// Hash functions concatenated per table (`K`).
    pub hash_k: usize,
    /// Number of hash tables (`L`).
    pub tables: usize,
    /// Bucket width `w` of the `⌊(a·x + u)/w⌋` projections.
    pub bucket_width: f64,
    /// RNG seed for the projections.
    pub seed: u64,
}

impl Default for H2AlshConfig {
    fn default() -> Self {
        Self {
            norm_ratio: 0.9,
            hash_k: 6,
            tables: 10,
            bucket_width: 16.0,
            seed: 0x4832_4c53, // "H2LS"
        }
    }
}

/// One E2LSH hash table over a partition's transformed points.
#[derive(Debug)]
struct HashTable {
    /// `hash_k` projection vectors, each of `dim + 1` entries.
    projections: Vec<Vec<f64>>,
    offsets: Vec<f64>,
    buckets: HashMap<Vec<i32>, Vec<u32>>,
}

impl HashTable {
    fn signature(&self, point: &[f64], w: f64) -> Vec<i32> {
        self.projections
            .iter()
            .zip(&self.offsets)
            .map(|(a, &u)| {
                let dot: f64 = a.iter().zip(point).map(|(x, y)| x * y).sum();
                ((dot + u) / w).floor() as i32
            })
            .collect()
    }
}

/// One homocentric-hypersphere partition.
#[derive(Debug)]
struct Partition {
    /// Global ids of the members.
    ids: Vec<u32>,
    /// Max norm `M_j` of the partition.
    max_norm: f64,
    /// Transformed `(dim+1)`-dimensional points, row-major. Consumed at
    /// build time to fill the hash tables; retained for invariant checks.
    #[cfg_attr(not(test), allow(dead_code))]
    transformed: Vec<f64>,
    tables: Vec<HashTable>,
}

/// The H2-ALSH index.
#[derive(Debug)]
pub struct H2Alsh {
    dim: usize,
    /// Original row-major data (for exact inner-product verification).
    data: Vec<f64>,
    partitions: Vec<Partition>,
    cfg: H2AlshConfig,
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    // Box–Muller (polar form), as in vkg-transform.
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

impl H2Alsh {
    /// Builds the index over `n × dim` row-major `data` (the offline
    /// index-building phase measured in Figures 5 and 7).
    ///
    /// # Panics
    /// Panics on shape mismatch or invalid configuration.
    pub fn build(data: Vec<f64>, dim: usize, cfg: H2AlshConfig) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert_eq!(data.len() % dim, 0, "matrix shape mismatch");
        assert!(
            cfg.norm_ratio > 0.0 && cfg.norm_ratio < 1.0,
            "norm ratio must be in (0, 1)"
        );
        assert!(cfg.hash_k >= 1 && cfg.tables >= 1, "need hashes and tables");
        assert!(cfg.bucket_width > 0.0, "bucket width must be positive");
        let n = data.len() / dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // 1. Sort ids by norm descending.
        let norms: Vec<f64> = (0..n)
            .map(|i| norm(&data[i * dim..(i + 1) * dim]))
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| norms[b as usize].total_cmp(&norms[a as usize]));

        // 2. Greedy homocentric partitioning.
        let mut partitions: Vec<Partition> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let max_norm = norms[order[start] as usize].max(1e-12);
            let mut end = start + 1;
            while end < n && norms[order[end] as usize] >= cfg.norm_ratio * max_norm {
                end += 1;
            }
            let ids: Vec<u32> = order[start..end].to_vec();

            // 3. QNF transform: x ↦ [x; √(M² − ‖x‖²)].
            let mut transformed = Vec::with_capacity(ids.len() * (dim + 1));
            for &id in &ids {
                let row = &data[id as usize * dim..(id as usize + 1) * dim];
                transformed.extend_from_slice(row);
                let extra = (max_norm * max_norm - norms[id as usize] * norms[id as usize])
                    .max(0.0)
                    .sqrt();
                transformed.push(extra);
            }

            // 4. Hash tables over the transformed points.
            let mut tables = Vec::with_capacity(cfg.tables);
            for _ in 0..cfg.tables {
                let projections: Vec<Vec<f64>> = (0..cfg.hash_k)
                    .map(|_| (0..dim + 1).map(|_| gaussian(&mut rng)).collect())
                    .collect();
                let offsets: Vec<f64> = (0..cfg.hash_k)
                    .map(|_| rng.gen_range(0.0..cfg.bucket_width))
                    .collect();
                let mut table = HashTable {
                    projections,
                    offsets,
                    buckets: HashMap::new(),
                };
                for (local, _) in ids.iter().enumerate() {
                    let p = &transformed[local * (dim + 1)..(local + 1) * (dim + 1)];
                    let sig = table.signature(p, cfg.bucket_width);
                    table.buckets.entry(sig).or_default().push(local as u32);
                }
                tables.push(table);
            }

            partitions.push(Partition {
                ids,
                max_norm,
                transformed,
                tables,
            });
            start = end;
        }

        Self {
            dim,
            data,
            partitions,
            cfg,
        }
    }

    /// Number of norm partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn inner_product(&self, id: u32, q: &[f64]) -> f64 {
        self.data[id as usize * self.dim..(id as usize + 1) * self.dim]
            .iter()
            .zip(q)
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Top-k maximum-inner-product search, excluding ids for which `skip`
    /// returns true. Results descend by inner product.
    ///
    /// Probes partitions in decreasing max-norm order and stops once even
    /// a perfectly aligned item (`ip ≤ M_j·‖q‖`) could not improve the
    /// current k-th best.
    pub fn top_k_mips(
        &self,
        q: &[f64],
        k: usize,
        mut skip: impl FnMut(u32) -> bool,
    ) -> Vec<(u32, f64)> {
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        let q_norm = norm(q);
        let mut tq: Vec<f64> = Vec::with_capacity(self.dim + 1);
        tq.extend_from_slice(q);
        tq.push(0.0);

        let mut best: Vec<(u32, f64)> = Vec::new();
        for part in &self.partitions {
            // Early termination (the H2-ALSH pruning rule).
            if best.len() >= k {
                let kth = best[k - 1].1;
                if part.max_norm * q_norm <= kth {
                    break;
                }
            }
            // Gather bucket candidates from all tables, multi-probing the
            // ±1 neighbours of each signature coordinate (points near a
            // bucket boundary land one slot over about half the time).
            let mut candidates: Vec<u32> = Vec::new();
            let mut seen = vec![false; part.ids.len()];
            let mut absorb = |bucket: Option<&Vec<u32>>, candidates: &mut Vec<u32>| {
                if let Some(bucket) = bucket {
                    for &local in bucket {
                        if !seen[local as usize] {
                            seen[local as usize] = true;
                            candidates.push(local);
                        }
                    }
                }
            };
            for table in &part.tables {
                let sig = table.signature(&tq, self.cfg.bucket_width);
                absorb(table.buckets.get(&sig), &mut candidates);
                for i in 0..sig.len() {
                    for delta in [-1i32, 1] {
                        let mut probe = sig.clone();
                        probe[i] += delta;
                        absorb(table.buckets.get(&probe), &mut candidates);
                    }
                }
            }
            // Small partitions (or empty probes) fall back to scanning the
            // partition — the original implementation verifies candidates
            // exactly, and never returning anything would break recall.
            if candidates.is_empty() {
                candidates = (0..part.ids.len() as u32).collect();
            }
            for local in candidates {
                let id = part.ids[local as usize];
                if skip(id) {
                    continue;
                }
                let ip = self.inner_product(id, q);
                insert_desc(&mut best, k, id, ip);
            }
        }
        best
    }
}

/// Keeps `best` sorted descending by inner product, capped at `k`.
fn insert_desc(best: &mut Vec<(u32, f64)>, k: usize, id: u32, ip: f64) {
    if best.len() >= k {
        if ip <= best[k - 1].1 {
            return;
        }
        best.pop();
    }
    let pos = best
        .binary_search_by(|probe| probe.1.total_cmp(&ip).reverse())
        .unwrap_or_else(|p| p);
    best.insert(pos, (id, ip));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_scan::exact_mips_top_k;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn partitions_respect_norm_ratio() {
        let data = random_data(500, 8, 1);
        let idx = H2Alsh::build(data.clone(), 8, H2AlshConfig::default());
        assert!(idx.num_partitions() >= 1);
        for part in &idx.partitions {
            for &id in &part.ids {
                let n = norm(&data[id as usize * 8..(id as usize + 1) * 8]);
                assert!(n <= part.max_norm + 1e-9);
                assert!(n >= 0.9 * part.max_norm - 1e-9);
            }
        }
        // Every id in exactly one partition.
        let total: usize = idx.partitions.iter().map(|p| p.ids.len()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn transformed_points_share_partition_norm() {
        let data = random_data(200, 6, 2);
        let idx = H2Alsh::build(data, 6, H2AlshConfig::default());
        for part in &idx.partitions {
            for local in 0..part.ids.len() {
                let p = &part.transformed[local * 7..(local + 1) * 7];
                assert!(
                    (norm(p) - part.max_norm).abs() < 1e-6,
                    "QNF must equalize norms"
                );
            }
        }
    }

    #[test]
    fn mips_recall_is_high() {
        let data = random_data(2_000, 16, 3);
        let idx = H2Alsh::build(data.clone(), 16, H2AlshConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let mut hit = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q: Vec<f64> = (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let got = idx.top_k_mips(&q, 10, |_| false);
            let want = exact_mips_top_k(&data, 16, &q, 10);
            let want_ids: Vec<u32> = want.iter().map(|w| w.0).collect();
            hit += got.iter().filter(|g| want_ids.contains(&g.0)).count();
            total += 10;
        }
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.8, "recall {recall} too low");
    }

    #[test]
    fn results_descend_by_inner_product() {
        let data = random_data(500, 8, 5);
        let idx = H2Alsh::build(data, 8, H2AlshConfig::default());
        let q: Vec<f64> = vec![0.3; 8];
        let r = idx.top_k_mips(&q, 8, |_| false);
        for w in r.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn skip_respected() {
        let data = vec![1.0, 0.0, 0.9, 0.0, 0.0, 1.0];
        let idx = H2Alsh::build(data, 2, H2AlshConfig::default());
        let r = idx.top_k_mips(&[1.0, 0.0], 1, |id| id == 0);
        assert_eq!(r[0].0, 1, "best non-skipped item");
    }

    #[test]
    fn early_termination_on_norm_bound() {
        // One giant-norm item and many tiny ones: after the giant is
        // found, tiny partitions cannot contain a better inner product.
        let mut data = vec![100.0, 0.0];
        data.extend(random_data(300, 2, 6).iter().map(|v| v * 0.01));
        let idx = H2Alsh::build(data, 2, H2AlshConfig::default());
        let r = idx.top_k_mips(&[1.0, 0.0], 1, |_| false);
        assert_eq!(r[0].0, 0);
        assert!((r[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index() {
        let idx = H2Alsh::build(vec![], 4, H2AlshConfig::default());
        assert!(idx.is_empty());
        assert!(idx.top_k_mips(&[0.0; 4], 5, |_| false).is_empty());
    }

    #[test]
    #[should_panic(expected = "norm ratio")]
    fn invalid_ratio_rejected() {
        let _ = H2Alsh::build(
            vec![1.0],
            1,
            H2AlshConfig {
                norm_ratio: 1.5,
                ..H2AlshConfig::default()
            },
        );
    }
}
