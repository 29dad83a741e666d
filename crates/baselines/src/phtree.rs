//! The PH-tree (Zäschke et al., SIGMOD 2014 — the paper's reference
//! \[22\]): a space-efficient multi-dimensional index that interleaves the
//! bits of quantized coordinates into a prefix-sharing hypercube trie.
//!
//! Used in the evaluation as the "index the raw embeddings directly"
//! baseline: unlike the cracking R-tree it needs no S₂ transform, but at
//! d ≥ 50 dimensions a node's 2^d hypercube addresses are almost all
//! distinct, the trie degenerates toward a flat list, and kNN pruning
//! loses its bite — the paper's Figure 3 finding ("almost as slow as no
//! index").
//!
//! Implementation notes:
//! * Coordinates are uniformly quantized to 16-bit fixed point with one
//!   global affine map, so quantized geometry is a scaled copy of the
//!   original.
//! * A node discriminates one bit level; its hypercube address is the
//!   d-bit pattern of that level (stored sparsely in a `HashMap<u128, …>`,
//!   so d ≤ 128).
//! * kNN is best-first over dequantized node boxes inflated by one
//!   quantum (an admissible bound on true S₁ distance), with exact
//!   distances at the entries — the result is exact.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Bits per dimension after quantization.
const BITS: u32 = 16;

/// Maximum supported dimensionality (hypercube addresses are `u128`).
pub const MAX_PH_DIM: usize = 128;

#[derive(Debug)]
enum Child {
    Node(Box<Node>),
    /// A point entry: quantized key + the ids of all points sharing it.
    Entry {
        key: Vec<u16>,
        ids: Vec<u32>,
    },
}

#[derive(Debug)]
struct Node {
    /// Bit level this node discriminates (0 = least significant).
    bit: u32,
    /// Common prefix: coordinates with all bits ≤ `bit` zeroed.
    prefix: Vec<u16>,
    children: HashMap<u128, Child>,
}

impl Node {
    fn new(bit: u32, prefix: Vec<u16>) -> Self {
        Self {
            bit,
            prefix,
            children: HashMap::new(),
        }
    }
}

/// Hypercube address of `key` at bit level `bit`.
fn address(key: &[u16], bit: u32) -> u128 {
    let mut hv = 0u128;
    for (i, &c) in key.iter().enumerate() {
        hv |= u128::from((c >> bit) & 1) << i;
    }
    hv
}

/// Zeroes all bits ≤ `bit` of every coordinate.
fn mask_above(key: &[u16], bit: u32) -> Vec<u16> {
    let mask = if bit + 1 >= 16 {
        0u16
    } else {
        !((1u16 << (bit + 1)) - 1)
    };
    key.iter().map(|&c| c & mask).collect()
}

/// Highest bit level strictly below `below` at which `a` and `b` differ in
/// any dimension; `None` if equal on all those levels.
fn highest_diff_bit(a: &[u16], b: &[u16], below: u32) -> Option<u32> {
    (0..below).rev().find(|&bit| {
        a.iter()
            .zip(b)
            .any(|(&x, &y)| ((x >> bit) & 1) != ((y >> bit) & 1))
    })
}

/// The PH-tree index over a row-major point matrix.
#[derive(Debug)]
pub struct PhTree {
    dim: usize,
    data: Vec<f64>,
    min: f64,
    step: f64,
    root: Node,
    len: usize,
}

#[derive(Debug)]
enum QueueItem<'a> {
    Node(&'a Node),
    Entry(&'a [u32]),
}

struct Prioritized<'a> {
    dist_sq: f64,
    item: QueueItem<'a>,
}

impl PartialEq for Prioritized<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.dist_sq == other.dist_sq
    }
}
impl Eq for Prioritized<'_> {}
impl Ord for Prioritized<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via inversion.
        other.dist_sq.total_cmp(&self.dist_sq)
    }
}
impl PartialOrd for Prioritized<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PhTree {
    /// Builds the tree over `n × dim` row-major `data`.
    ///
    /// # Panics
    /// Panics on shape mismatch, `dim` = 0 or > [`MAX_PH_DIM`], or
    /// non-finite coordinates.
    pub fn build(data: Vec<f64>, dim: usize) -> Self {
        assert!(
            dim > 0 && dim <= MAX_PH_DIM,
            "unsupported dimensionality {dim}"
        );
        assert_eq!(data.len() % dim, 0, "matrix shape mismatch");
        let n = data.len() / dim;
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &data {
            assert!(v.is_finite(), "non-finite coordinate {v}");
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if n == 0 {
            lo = 0.0;
            hi = 1.0;
        }
        let span = (hi - lo).max(1e-12);
        let step = span / f64::from(u16::MAX);
        let mut tree = Self {
            dim,
            data,
            min: lo,
            step,
            root: Node::new(BITS - 1, vec![0; dim]),
            len: 0,
        };
        for id in 0..n as u32 {
            let key = tree.quantize_row(id);
            insert(&mut tree.root, key, id);
            tree.len += 1;
        }
        tree
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trie nodes (for the index-size comparisons).
    pub fn node_count(&self) -> usize {
        fn count(n: &Node) -> usize {
            1 + n
                .children
                .values()
                .map(|c| match c {
                    Child::Node(sub) => count(sub),
                    Child::Entry { .. } => 0,
                })
                .sum::<usize>()
        }
        count(&self.root)
    }

    fn row(&self, id: u32) -> &[f64] {
        let i = id as usize * self.dim;
        &self.data[i..i + self.dim]
    }

    fn quantize_row(&self, id: u32) -> Vec<u16> {
        self.row(id)
            .iter()
            .map(|&v| {
                let q = ((v - self.min) / self.step).round();
                q.clamp(0.0, f64::from(u16::MAX)) as u16
            })
            .collect()
    }

    /// Admissible squared-distance lower bound from `q` to everything
    /// under `node`: the dequantized prefix box inflated by one quantum.
    fn node_min_dist_sq(&self, node: &Node, q: &[f64]) -> f64 {
        let free = if node.bit + 1 >= 16 {
            u16::MAX
        } else {
            (1u16 << (node.bit + 1)) - 1
        };
        let mut sum = 0.0;
        for (i, &qi) in q.iter().enumerate().take(self.dim) {
            let lo_q = node.prefix[i];
            let hi_q = node.prefix[i] | free;
            let lo = self.min + f64::from(lo_q) * self.step - self.step;
            let hi = self.min + f64::from(hi_q) * self.step + self.step;
            let d = if qi < lo {
                lo - qi
            } else if qi > hi {
                qi - hi
            } else {
                0.0
            };
            sum += d * d;
        }
        sum
    }

    fn exact_dist_sq(&self, id: u32, q: &[f64]) -> f64 {
        self.row(id)
            .iter()
            .zip(q)
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Exact k-nearest-neighbour search, excluding ids for which `skip`
    /// returns true. Results ascend by distance.
    pub fn top_k(&self, q: &[f64], k: usize, mut skip: impl FnMut(u32) -> bool) -> Vec<(u32, f64)> {
        assert_eq!(q.len(), self.dim, "query dimensionality mismatch");
        let mut heap = BinaryHeap::new();
        heap.push(Prioritized {
            dist_sq: 0.0,
            item: QueueItem::Node(&self.root),
        });
        let mut results: Vec<(u32, f64)> = Vec::with_capacity(k);
        while let Some(Prioritized { dist_sq, item }) = heap.pop() {
            if results.len() >= k {
                break;
            }
            match item {
                QueueItem::Entry(ids) => {
                    // dist_sq here is exact.
                    for &id in ids {
                        if results.len() >= k {
                            break;
                        }
                        if !skip(id) {
                            results.push((id, dist_sq.sqrt()));
                        }
                    }
                }
                QueueItem::Node(node) => {
                    for child in node.children.values() {
                        match child {
                            Child::Node(sub) => {
                                heap.push(Prioritized {
                                    dist_sq: self.node_min_dist_sq(sub, q),
                                    item: QueueItem::Node(sub),
                                });
                            }
                            Child::Entry { ids, .. } => {
                                let d = self.exact_dist_sq(ids[0], q);
                                heap.push(Prioritized {
                                    dist_sq: d,
                                    item: QueueItem::Entry(ids),
                                });
                            }
                        }
                    }
                }
            }
        }
        results
    }
}

fn insert(node: &mut Node, key: Vec<u16>, id: u32) {
    let hv = address(&key, node.bit);
    let node_bit = node.bit;
    match node.children.get_mut(&hv) {
        None => {
            node.children
                .insert(hv, Child::Entry { key, ids: vec![id] });
        }
        Some(Child::Entry { key: existing, ids }) => {
            if *existing == key {
                ids.push(id);
                return;
            }
            let diff = highest_diff_bit(existing, &key, node_bit)
                .expect("distinct keys in the same slot must differ below the node bit");
            let mut sub = Node::new(diff, mask_above(&key, diff));
            let old_key = existing.clone();
            let old_ids = std::mem::take(ids);
            sub.children.insert(
                address(&old_key, diff),
                Child::Entry {
                    key: old_key,
                    ids: old_ids,
                },
            );
            sub.children
                .insert(address(&key, diff), Child::Entry { key, ids: vec![id] });
            node.children.insert(hv, Child::Node(Box::new(sub)));
        }
        Some(Child::Node(sub)) => {
            // Does `key` share `sub`'s prefix on the levels in between?
            if let Some(diff) = highest_diff_bit(&sub.prefix, &key, node_bit) {
                if diff > sub.bit {
                    // Split: an intermediate node at the divergence level.
                    let mut mid = Node::new(diff, mask_above(&key, diff));
                    let sub_hv = address(&sub.prefix, diff);
                    let old = std::mem::replace(sub, Box::new(Node::new(0, Vec::new())));
                    mid.children.insert(sub_hv, Child::Node(old));
                    mid.children
                        .insert(address(&key, diff), Child::Entry { key, ids: vec![id] });
                    **sub = mid;
                    return;
                }
            }
            insert(sub, key, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_top_k(data: &[f64], dim: usize, q: &[f64], k: usize) -> Vec<u32> {
        let n = data.len() / dim;
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_by(|&a, &b| {
            let da: f64 = data[a as usize * dim..(a as usize + 1) * dim]
                .iter()
                .zip(q)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            let db: f64 = data[b as usize * dim..(b as usize + 1) * dim]
                .iter()
                .zip(q)
                .map(|(x, y)| (x - y) * (x - y))
                .sum();
            da.total_cmp(&db).then(a.cmp(&b))
        });
        ids.truncate(k);
        ids
    }

    #[test]
    fn exact_knn_low_dim() {
        let mut rng = StdRng::seed_from_u64(5);
        let dim = 3;
        let data: Vec<f64> = (0..500 * dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let tree = PhTree::build(data.clone(), dim);
        for _ in 0..20 {
            let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let got: Vec<u32> = tree.top_k(&q, 5, |_| false).iter().map(|r| r.0).collect();
            let want = brute_top_k(&data, dim, &q, 5);
            // Quantization can flip near-ties; require high overlap and an
            // exact match on the nearest neighbour.
            assert_eq!(got[0], want[0], "nearest neighbour must be exact");
            let overlap = got.iter().filter(|g| want.contains(g)).count();
            assert!(overlap >= 4, "overlap {overlap}/5 too low");
        }
    }

    #[test]
    fn exact_knn_high_dim() {
        // d = 50 like the paper's embeddings: the tree degenerates but
        // must stay correct.
        let mut rng = StdRng::seed_from_u64(6);
        let dim = 50;
        let data: Vec<f64> = (0..300 * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tree = PhTree::build(data.clone(), dim);
        let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let got: Vec<u32> = tree.top_k(&q, 3, |_| false).iter().map(|r| r.0).collect();
        let want = brute_top_k(&data, dim, &q, 3);
        assert_eq!(got[0], want[0]);
        let overlap = got.iter().filter(|g| want.contains(g)).count();
        assert!(overlap >= 2);
    }

    #[test]
    fn skip_respected() {
        let data = vec![0.0, 0.0, 1.0, 0.0, 2.0, 0.0];
        let tree = PhTree::build(data, 2);
        let got: Vec<u32> = tree
            .top_k(&[0.0, 0.0], 2, |id| id == 0)
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn duplicate_points_share_entry() {
        let data = vec![1.0, 1.0, 1.0, 1.0, 5.0, 5.0];
        let tree = PhTree::build(data, 2);
        let got: Vec<u32> = tree
            .top_k(&[1.0, 1.0], 2, |_| false)
            .iter()
            .map(|r| r.0)
            .collect();
        assert_eq!(got.len(), 2);
        assert!(got.contains(&0) && got.contains(&1));
    }

    #[test]
    fn distances_ascend() {
        let mut rng = StdRng::seed_from_u64(8);
        let data: Vec<f64> = (0..200 * 4).map(|_| rng.gen_range(0.0..1.0)).collect();
        let tree = PhTree::build(data, 4);
        let r = tree.top_k(&[0.5, 0.5, 0.5, 0.5], 10, |_| false);
        for w in r.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-9);
        }
    }

    #[test]
    fn empty_and_tiny_trees() {
        let tree = PhTree::build(vec![], 3);
        assert!(tree.is_empty());
        assert!(tree.top_k(&[0.0, 0.0, 0.0], 5, |_| false).is_empty());

        let tree = PhTree::build(vec![1.0, 2.0, 3.0], 3);
        assert_eq!(tree.len(), 1);
        let r = tree.top_k(&[0.0, 0.0, 0.0], 5, |_| false);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, 0);
    }

    #[test]
    fn k_zero_is_empty() {
        let tree = PhTree::build(vec![1.0, 2.0], 2);
        assert!(tree.top_k(&[0.0, 0.0], 0, |_| false).is_empty());
    }

    #[test]
    fn node_count_reasonable() {
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<f64> = (0..1_000 * 2).map(|_| rng.gen_range(0.0..1.0)).collect();
        let tree = PhTree::build(data, 2);
        let nodes = tree.node_count();
        assert!(nodes >= 1);
        assert!(
            nodes <= 1_000,
            "a trie over 1000 points needs ≤ n inner nodes"
        );
    }

    #[test]
    fn high_dim_root_fanout_degenerates() {
        // The §VI observation: at d = 50 almost every point occupies its
        // own root slot, so the structure is nearly flat.
        let mut rng = StdRng::seed_from_u64(10);
        let dim = 50;
        let n = 200;
        let data: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tree = PhTree::build(data, dim);
        // Flatness: the number of trie nodes stays tiny relative to n
        // because almost no pairs share a root address.
        assert!(tree.node_count() < n / 4, "nodes = {}", tree.node_count());
    }
}
