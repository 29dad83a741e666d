//! The node arena: flat storage for the (possibly partial) R-tree.
//!
//! Nodes live in one `Vec` and refer to each other by [`NodeId`]; ids are
//! stable for the life of the index (installing a built subtree reuses
//! the replaced node's id so parents stay valid, and children are
//! appended). The arena also owns the size accounting the evaluation
//! figures report (node counts for Fig. 9, byte sizes for Figs. 10–11).

use crate::geometry::points::row_norm_sq;
use crate::geometry::{Mbr, PointSet};
use crate::rtree::SortOrders;

use super::build::{BuiltKind, BuiltNode};
use super::CrackingIndex;

/// Arena id of a node.
pub type NodeId = u32;

/// Payload of an arena node.
#[derive(Debug)]
pub enum NodeKind {
    /// Split node with child node ids.
    Internal(Vec<NodeId>),
    /// Terminal leaf with ≤ N point ids.
    Leaf(Vec<u32>),
    /// A contour partition (Definition 2): has data but no children yet.
    Unsplit(SortOrders),
}

/// One node of the (possibly partial) R-tree.
#[derive(Debug)]
pub struct Node {
    /// Bounding region of every point below this node.
    pub mbr: Mbr,
    /// Height (0 = leaf level).
    pub height: u32,
    /// Children / payload.
    pub kind: NodeKind,
    /// A contour element's members' S₂ coordinates, one row after
    /// another in [`CrackingIndex::element_point_ids`] order: a copy of
    /// their [`PointSet`] rows that the element's reads stream instead of
    /// gathering them by id. Every edit of the ids edits it alike, so it
    /// always equals a fresh gather; empty for an internal node.
    pub coords: Vec<f64>,
    /// A contour element's member sums: each S₂ coordinate, then the
    /// squared norm, added member by member in
    /// [`CrackingIndex::element_point_ids`] order. Set wherever the
    /// element's ids are created (the root, [`CrackingIndex::crack`],
    /// the bulk load); `None` once an insert or a removal has edited
    /// them, and for an internal node.
    pub sums: Option<Box<[f64]>>,
}

impl Node {
    /// A node whose [`Node::coords`] and [`Node::sums`] are taken afresh
    /// from its ids.
    pub(super) fn new(points: &PointSet, mbr: Mbr, height: u32, kind: NodeKind) -> Self {
        let (coords, sums) = pack(points, &kind);
        Node {
            mbr,
            height,
            kind,
            coords,
            sums,
        }
    }

    /// Inserts `row` as member `at` of [`Node::coords`], as
    /// `Vec::insert` inserts an id.
    pub(super) fn insert_row(&mut self, at: usize, row: &[f64]) {
        let start = at * row.len();
        self.coords.splice(start..start, row.iter().copied());
    }

    /// Removes member `at` of [`Node::coords`], `dim` wide, as
    /// `Vec::remove` removes an id.
    pub(super) fn remove_row(&mut self, at: usize, dim: usize) {
        self.coords.drain(at * dim..(at + 1) * dim);
    }

    /// Moves the last row of [`Node::coords`], `dim` wide, over member
    /// `at`, as `Vec::swap_remove` removes an id.
    pub(super) fn swap_remove_row(&mut self, at: usize, dim: usize) {
        let last = self.coords.len() - dim;
        self.coords.copy_within(last.., at * dim);
        self.coords.truncate(last);
    }
}

/// Adds a member whose coordinates are `row` to `row.len() + 1` sums
/// laid out as [`Node::sums`]. The norm² is summed from the same row.
pub(super) fn add_member(row: &[f64], sums: &mut [f64]) {
    for (s, &c) in sums.iter_mut().zip(row) {
        *s += c;
    }
    sums[row.len()] += row_norm_sq(row);
}

/// The [`Node::coords`] and [`Node::sums`] of a node of `kind`: each
/// member's row is gathered once, into a buffer sized up front, and the
/// sums are then added up over that buffer, which streams.
pub(super) fn pack(points: &PointSet, kind: &NodeKind) -> (Vec<f64>, Option<Box<[f64]>>) {
    let ids = match kind {
        NodeKind::Internal(_) => return (Vec::new(), None),
        NodeKind::Leaf(ids) => ids,
        NodeKind::Unsplit(orders) => orders.ids(0),
    };
    let dim = points.dim();
    let mut coords = Vec::with_capacity(ids.len() * dim);
    for &pid in ids {
        coords.extend_from_slice(points.point(pid));
    }
    let mut sums = vec![0.0; dim + 1];
    for row in coords.chunks_exact(dim) {
        add_member(row, &mut sums);
    }
    (coords, Some(sums.into_boxed_slice()))
}

impl CrackingIndex {
    /// Number of nodes currently allocated (Fig. 9's metric).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate index size in bytes (Figs. 10–11's metric): node
    /// envelopes plus leaf/partition payloads and element sums. The point
    /// coordinates are excluded — every method stores those — and so is
    /// each element's packed copy of them ([`Node::coords`]), so the
    /// figures stay comparable with the other methods' sizes; the copy's
    /// memory shows in the process's resident size instead.
    pub fn index_bytes(&self) -> usize {
        let mut bytes = 0usize;
        for node in &self.nodes {
            bytes += std::mem::size_of::<Node>();
            bytes += node.sums.as_deref().map_or(0, std::mem::size_of_val);
            bytes += match &node.kind {
                NodeKind::Internal(children) => children.capacity() * std::mem::size_of::<NodeId>(),
                NodeKind::Leaf(ids) => ids.capacity() * std::mem::size_of::<u32>(),
                NodeKind::Unsplit(orders) => orders.bytes(),
            };
        }
        bytes
    }

    /// Node ids of the current contour (Definition 2): unsplit partitions
    /// and terminal leaves, in DFS order.
    pub fn contour(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id as usize].kind {
                NodeKind::Internal(children) => stack.extend(children.iter().rev().copied()),
                _ => out.push(id),
            }
        }
        out
    }

    /// Node `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// The point ids stored at a contour element (empty for internal
    /// nodes).
    pub fn element_point_ids(&self, id: NodeId) -> &[u32] {
        match &self.nodes[id as usize].kind {
            NodeKind::Internal(_) => &[],
            NodeKind::Leaf(ids) => ids,
            NodeKind::Unsplit(orders) => orders.ids(0),
        }
    }

    /// Replaces node `id` with the built subtree (children freshly
    /// allocated; `id` itself is reused so parents stay valid).
    pub(super) fn install(&mut self, id: NodeId, built: BuiltNode) {
        let BuiltNode { mbr, height, kind } = built;
        let new_kind = match kind {
            BuiltKind::Leaf(ids) => NodeKind::Leaf(ids),
            BuiltKind::Unsplit(orders) => NodeKind::Unsplit(orders),
            BuiltKind::Internal(children) => {
                let child_ids: Vec<NodeId> = children
                    .into_iter()
                    .map(|c| {
                        let cid = self.alloc();
                        self.install(cid, c);
                        cid
                    })
                    .collect();
                NodeKind::Internal(child_ids)
            }
        };
        self.nodes[id as usize] = Node::new(&self.points, mbr, height, new_kind);
    }

    pub(super) fn alloc(&mut self) -> NodeId {
        #[expect(
            clippy::expect_used,
            reason = "node ids are u32 by design; 2^32 nodes would exceed addressable memory long before this fires"
        )]
        let id = NodeId::try_from(self.nodes.len())
            .expect("invariant: node arena holds fewer than u32::MAX nodes");
        let placeholder = NodeKind::Internal(Vec::new());
        let mbr = Mbr::empty(self.points.dim().max(1));
        self.nodes
            .push(Node::new(&self.points, mbr, 0, placeholder));
        self.nodes_created += 1;
        id
    }
}
