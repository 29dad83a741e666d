//! TOP-KSPLITSINDEXBUILD (Algorithm 2): A*-style exploration of top-k
//! split choices.
//!
//! A *change candidate* is a (partial) script of split-choice indices: at
//! every decision point of the incremental build, instead of committing
//! to the locally best split, the search may take any of the `k` best
//! candidates. A script shorter than the run's decision count is
//! completed greedily (choice 0), so every state in the priority queue
//! carries an **exact** achievable cost `(c_Q, c_O)` — the weight of
//! Algorithm 2's queue. The head of the queue is popped (line 5); if its
//! script already pins every decision it "exhausts all elements"
//! (lines 11–12) and is adopted; otherwise it is expanded with the top-k
//! choices at its first free decision (lines 13–19).
//!
//! The paper notes the extra search is "affordable when the number of
//! choices is small" thanks to aggressive pruning; we bound the number of
//! queue pops (`MAX_POPS_PER_CHOICE · k + MAX_POPS_BASE`) so worst-case
//! cracking stays near-linear, falling back to the best script found.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::geometry::Mbr;
use crate::rtree::SplitCost;

use super::build::RunCost;
use super::chooser::ScriptChooser;
use super::{CrackingIndex, NodeId};

const MAX_POPS_BASE: usize = 8;
const MAX_POPS_PER_CHOICE: usize = 4;

/// Elements smaller than this multiple of the leaf capacity are cracked
/// greedily without entering the A* search: alternative splits of a
/// near-leaf partition cannot change the contour cost materially, and
/// keeping them out of the dry runs keeps converged-index queries cheap.
const SEARCH_MIN_LEAVES: usize = 8;

/// One contour change candidate: a choice script plus the exact cost of
/// its greedy completion.
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    cost: SplitCost,
    script: Vec<u8>,
    /// Branching factor at each decision point of the completed run.
    available: Vec<u8>,
}

impl Candidate {
    fn is_complete(&self) -> bool {
        self.script.len() >= self.available.len()
    }
}

impl Eq for Candidate {}

// BinaryHeap is a max-heap; invert so the cheapest candidate pops first.
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .cmp(&self.cost)
            // Prefer more-determined scripts on cost ties: they terminate
            // the search sooner at equal quality.
            .then_with(|| self.script.len().cmp(&other.script.len()))
            .then_with(|| other.script.cmp(&self.script))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Algorithm 2 over the unsplit elements a crack for `q` splits and
/// installs the winning change candidate. (An overlapping element the
/// stop condition holds for has no decision point and would add the same
/// `c_Q` to every candidate, so leaving it out ranks them the same.)
pub(crate) fn crack_topk(index: &mut CrackingIndex, q: &Mbr, k: usize) {
    let all: Vec<NodeId> = index.elements_to_split(q);
    if all.is_empty() {
        return;
    }
    // Only large elements enter the search; small ones crack greedily.
    let threshold = SEARCH_MIN_LEAVES * index.leaf_capacity();
    let (elements, small): (Vec<NodeId>, Vec<NodeId>) = all
        .into_iter()
        .partition(|&id| index.element_point_ids(id).len() > threshold);
    for id in small {
        index.crack_element(id, q, &mut super::chooser::GreedyChooser);
    }
    if elements.is_empty() {
        return;
    }

    let dry_run = |index: &CrackingIndex, script: &[u8]| -> Candidate {
        let mut chooser = ScriptChooser::new(script.to_vec(), k);
        let mut total = RunCost::default();
        for &id in &elements {
            let c = index.dry_run_element(id, q, &mut chooser);
            total.cq += c.cq;
            total.co += c.co;
            total.splits += c.splits;
        }
        Candidate {
            cost: SplitCost::new(total.cq, total.co),
            script: script.to_vec(),
            available: chooser.available,
        }
    };

    // Lines 1–3: seed the queue with the initial candidate.
    let mut queue: BinaryHeap<Candidate> = BinaryHeap::new();
    queue.push(dry_run(index, &[]));

    let max_pops = MAX_POPS_BASE + MAX_POPS_PER_CHOICE * k;
    let mut pops = 0usize;
    let mut winner: Option<Candidate> = None;

    // Lines 4–19: best-first expansion.
    while let Some(cand) = queue.pop() {
        pops += 1;
        if cand.is_complete() || pops >= max_pops {
            winner = Some(cand);
            break;
        }
        let pos = cand.script.len();
        let branching = usize::from(cand.available[pos]).min(k).max(1);
        for j in 0..branching {
            let mut script = cand.script.clone();
            script.push(j as u8);
            queue.push(dry_run(index, &script));
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the queue is seeded with one candidate and every non-terminal pop pushes at least one more; the loop can only exit via break with winner set"
    )]
    let winner = winner.expect("queue seeded with one candidate");
    let mut chooser = ScriptChooser::new(winner.script, k);
    for &id in &elements {
        index.crack_element(id, q, &mut chooser);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplitStrategy;
    use crate::geometry::PointSet;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let coords: Vec<f64> = (0..n * 3).map(|_| rng.gen_range(-10.0..10.0)).collect();
        PointSet::from_rows(3, coords)
    }

    #[test]
    fn candidate_ordering_is_min_cost_first() {
        let cheap = Candidate {
            cost: SplitCost::new(1, 0.0),
            script: vec![],
            available: vec![2],
        };
        let pricey = Candidate {
            cost: SplitCost::new(2, 0.0),
            script: vec![],
            available: vec![2],
        };
        let mut heap = BinaryHeap::new();
        heap.push(pricey.clone());
        heap.push(cheap.clone());
        assert_eq!(heap.pop().unwrap().cost, cheap.cost);
    }

    #[test]
    fn ties_prefer_determined_scripts() {
        let longer = Candidate {
            cost: SplitCost::new(1, 1.0),
            script: vec![0, 1],
            available: vec![2, 2],
        };
        let shorter = Candidate {
            cost: SplitCost::new(1, 1.0),
            script: vec![0],
            available: vec![2, 2],
        };
        let mut heap = BinaryHeap::new();
        heap.push(shorter);
        heap.push(longer.clone());
        assert_eq!(heap.pop().unwrap().script, longer.script);
    }

    #[test]
    fn topk_cost_never_worse_than_greedy_for_same_query() {
        // Both methods crack for the same region; the top-k searched
        // contour must reach a (c_Q, c_O) no worse than greedy's, because
        // the greedy completion is always in the candidate set.
        let ps = random_points(4_000, 77);
        let q = Mbr::of_ball(&[1.0, 2.0, 3.0], 2.0);

        let mut greedy_idx = CrackingIndex::new(ps.clone(), 16, 8, 2.0, SplitStrategy::Greedy);
        let g_elems = greedy_idx.elements_to_split(&q);
        let mut g_cost = RunCost::default();
        for &id in &g_elems {
            let c = greedy_idx.crack_element(id, &q, &mut super::super::chooser::GreedyChooser);
            g_cost.cq += c.cq;
            g_cost.co += c.co;
        }

        let topk_idx = CrackingIndex::new(ps, 16, 8, 2.0, SplitStrategy::TopK { choices: 3 });
        let elements = topk_idx.elements_to_split(&q);
        // Reproduce the search's dry-run for the empty script (greedy) and
        // verify the search winner can only improve on it.
        let mut chooser = ScriptChooser::new(vec![], 3);
        let mut base = RunCost::default();
        for &id in &elements {
            let c = topk_idx.dry_run_element(id, &q, &mut chooser);
            base.cq += c.cq;
            base.co += c.co;
        }
        assert_eq!(base.cq, g_cost.cq);
        assert!((base.co - g_cost.co).abs() < 1e-9);
    }

    #[test]
    fn crack_topk_handles_empty_region() {
        let ps = random_points(100, 5);
        let mut idx = CrackingIndex::new(ps, 16, 8, 2.0, SplitStrategy::TopK { choices: 2 });
        let far = Mbr::of_ball(&[500.0, 500.0, 500.0], 1.0);
        idx.crack(&far);
        assert_eq!(idx.node_count(), 1);
        idx.check_invariants();
    }
}
