//! The crack/split driver: query-directed partial builds over contour
//! elements (§IV-C).
//!
//! [`CrackingIndex::crack`] dispatches on the configured strategy —
//! greedy INCREMENTALINDEXBUILD runs the build core directly over each
//! overlapping unsplit element; TOP-KSPLITSINDEXBUILD (Algorithm 2)
//! lives in [`super::topk`] and drives the same per-element primitives
//! exposed here (`CrackingIndex::crack_element` /
//! `CrackingIndex::dry_run_element`, crate-private).
//!
//! A crack touches only the elements it splits: the unsplit elements
//! overlapping the region that fail the §IV-C stop condition. A crack
//! that splits nothing leaves every node as it was, and
//! [`CrackingIndex::wants_crack`] says beforehand whether it would.

use crate::config::SplitStrategy;
use crate::geometry::Mbr;

use super::build::{build_element, stop_condition, RunCost};
use super::chooser::{GreedyChooser, SplitChooser};
use super::{topk, CrackingIndex, NodeId, NodeKind};

impl CrackingIndex {
    /// Cracks the index for query region `q`: the online incremental
    /// partial build of §IV-C (strategy-dependent: greedy or Algorithm 2).
    pub fn crack(&mut self, q: &Mbr) {
        match self.strategy {
            SplitStrategy::Greedy => self.crack_greedy(q),
            SplitStrategy::TopK { choices } => topk::crack_topk(self, q, choices.max(1)),
        }
    }

    /// Whether [`CrackingIndex::crack`] for `q` would split anything,
    /// under either strategy: true iff some unsplit element overlapping
    /// `q` fails the stop condition. A read — a query asks it under the
    /// shared guard and goes exclusive only on `true`.
    pub fn wants_crack(&self, q: &Mbr) -> bool {
        !self.elements_to_split(q).is_empty()
    }

    fn crack_greedy(&mut self, q: &Mbr) {
        for id in self.elements_to_split(q) {
            self.crack_element(id, q, &mut GreedyChooser);
        }
    }

    /// The unsplit contour elements a crack for `q` splits: those whose
    /// MBR overlaps `q` and whose points the stop condition does not
    /// hold for, in DFS order (the order Algorithm 2's lines 6–8 walk).
    /// The build core splits such an element at least once and any
    /// other not at all, whatever the chooser. An element inside `q` is
    /// in it whole (node MBRs cover their members): it is not counted;
    /// one that `q` cuts is counted over its packed rows.
    pub fn elements_to_split(&self, q: &Mbr) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if !node.mbr.intersects(q) {
                continue;
            }
            match &node.kind {
                NodeKind::Internal(children) => stack.extend(children.iter().rev().copied()),
                NodeKind::Unsplit(orders) => {
                    let in_q = if q.contains_mbr(&node.mbr) {
                        orders.len()
                    } else {
                        let rows = node.coords.chunks_exact(self.points.dim());
                        rows.filter(|row| q.contains_point(row)).count()
                    };
                    if !stop_condition(in_q, orders.len(), self.params.leaf_capacity) {
                        out.push(id);
                    }
                }
                NodeKind::Leaf(_) => {}
            }
        }
        out
    }

    /// Runs the build core over one unsplit element and installs the
    /// result. Returns the run cost (no-op zero cost if the element is
    /// not unsplit).
    pub(crate) fn crack_element(
        &mut self,
        id: NodeId,
        q: &Mbr,
        chooser: &mut dyn SplitChooser,
    ) -> RunCost {
        let mut cost = RunCost::default();
        let kind = &mut self.nodes[id as usize].kind;
        let orders = match kind {
            NodeKind::Unsplit(_) => match std::mem::replace(kind, NodeKind::Internal(Vec::new())) {
                NodeKind::Unsplit(orders) => orders,
                #[expect(
                    clippy::unreachable,
                    reason = "replace returns the value matched Unsplit on the previous line"
                )]
                _ => unreachable!("just matched Unsplit"),
            },
            _ => return cost,
        };
        let built = build_element(
            &self.points,
            &self.params,
            orders,
            Some(q),
            chooser,
            &mut cost,
            &vkg_sync::pool::Pool::serial(),
        );
        self.splits_performed += cost.splits;
        self.install(id, built);
        cost
    }

    /// Dry-runs the build core over a *clone* of one unsplit element,
    /// returning only the cost (used by the Algorithm 2 search).
    pub(crate) fn dry_run_element(
        &self,
        id: NodeId,
        q: &Mbr,
        chooser: &mut dyn SplitChooser,
    ) -> RunCost {
        let mut cost = RunCost::default();
        if let NodeKind::Unsplit(orders) = &self.nodes[id as usize].kind {
            let _ = build_element(
                &self.points,
                &self.params,
                orders.clone(),
                Some(q),
                chooser,
                &mut cost,
                &vkg_sync::pool::Pool::serial(),
            );
        }
        cost
    }
}
