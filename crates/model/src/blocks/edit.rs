//! Block edits: the block structure of a schema a change operation just
//! edited, derived from the structure it had before.
//!
//! Each edit reads the edited schema — which control edge a node now sits
//! on, the order of a split's outgoing control edges — and rewrites the
//! blocks and the rows of the nodes the operation touched, nothing else.
//! A branch's position is the id order of the split's outgoing control
//! edge that starts it, so an operation that replaces such an edge
//! re-orders that split's branches ([`Blocks::rename_edges`]) before
//! anything is placed on the new edge.
//!
//! The edits keep every table as an analysis lays it out: node ids
//! ascending, each branch a sorted id list, each row outermost block
//! first. So a derived structure equals a full analysis of the edited
//! schema (`Blocks::assert_derived`).

use super::{BlockInfo, BlockKind, Blocks};
use crate::edge::EdgeKind;
use crate::ids::{EdgeId, NodeId};
use crate::node::NodeKind;
use crate::schema::ProcessSchema;

impl Blocks {
    /// Places `n`, a node just inserted on a control edge, in the blocks
    /// of that edge: the blocks of the edge's source and, when the source
    /// is a split, the branch the edge starts.
    pub fn place_node(&mut self, schema: &ProcessSchema, n: NodeId) {
        let edge = schema.in_edges_kind(n, EdgeKind::Control).next();
        let edge = edge.expect("invariant: a placed node has a control predecessor");
        let branch = self.by_split.contains_key(&edge.from).then(|| {
            let mut out = schema.out_edges_kind(edge.from, EdgeKind::Control);
            let at = out.position(|e| e.id == edge.id);
            (edge.from, at.expect("invariant: an edge leaves its source"))
        });
        self.insert_slot(n, edge.from, branch);
    }

    /// Places the block `split`..`join`, just inserted on a control edge:
    /// split and join go in the blocks of that edge, and every node of a
    /// branch, walked from the split to the join, into the new block — a
    /// new node with the split's row and its branch, a node already placed
    /// (a region the block wraps) with one entry more, at the split's
    /// depth.
    pub fn place_block(&mut self, schema: &ProcessSchema, split: NodeId, join: NodeId) {
        self.place_node(schema, split);
        self.insert_slot(join, split, None);
        let kind = match schema.node(split).map(|n| n.kind) {
            Ok(NodeKind::AndSplit) => BlockKind::Parallel,
            Ok(NodeKind::XorSplit) => BlockKind::Conditional,
            _ => BlockKind::Loop,
        };
        let heads: Vec<NodeId> = schema.control_successors(split).collect();
        let branches = vec![Vec::new(); heads.len()];
        let info = BlockInfo {
            kind,
            split,
            join,
            branches,
        };
        self.by_split.insert(split, info);
        let depth = self.enclosing(split).len();
        for (b, &head) in heads.iter().enumerate() {
            for n in region(schema, head, join) {
                match self.ids.binary_search(&n) {
                    Ok(slot) => {
                        self.enclosing.insert_item(slot, depth, (split, b));
                        self.join_branch(split, b, n);
                    }
                    Err(_) => self.insert_slot(n, split, Some((split, b))),
                }
            }
        }
    }

    /// Removes `n`, a node the operation removed, from its blocks.
    pub fn remove_node(&mut self, n: NodeId) {
        let Ok(slot) = self.ids.binary_search(&n) else {
            return;
        };
        for &(split, b) in self.enclosing.row(slot) {
            let branch = &mut self.by_split.get_mut(&split).expect(ROWS).branches[b];
            if let Ok(at) = branch.binary_search(&n) {
                branch.remove(at);
            }
        }
        self.ids.remove(slot);
        self.enclosing.remove_row(slot);
    }

    /// Re-orders the branches of every split an edge of `renamed` leaves:
    /// `(old, new)` says that the control edge `new` of `schema` stands
    /// where `old` stood, from the same source. The branches follow the id
    /// order of the split's outgoing control edges, and the rows of their
    /// nodes are renumbered to match.
    pub fn rename_edges(&mut self, schema: &ProcessSchema, renamed: &[(EdgeId, EdgeId)]) {
        let source = |new: EdgeId| schema.edge(new).map(|e| e.from).ok();
        for (k, &(_, new)) in renamed.iter().enumerate() {
            let Some(split) = source(new) else {
                continue;
            };
            if renamed[..k]
                .iter()
                .all(|&(_, seen)| source(seen) != Some(split))
            {
                self.reorder(schema, split, renamed);
            }
        }
    }

    /// [`Blocks::rename_edges`] for one split.
    fn reorder(&mut self, schema: &ProcessSchema, split: NodeId, renamed: &[(EdgeId, EdgeId)]) {
        let Some(info) = self.by_split.get_mut(&split) else {
            return;
        };
        let was = |e: EdgeId| {
            let pair = renamed.iter().find(|&&(_, new)| new == e);
            pair.map_or(e, |&(old, _)| old)
        };
        let out = schema.out_edges_kind(split, EdgeKind::Control);
        let now: Vec<EdgeId> = out.map(|e| e.id).collect();
        let mut before: Vec<EdgeId> = now.iter().map(|&e| was(e)).collect();
        before.sort_unstable();
        // Branch `i` after the edit is branch `from[i]` before it.
        let from = now.iter().map(|&e| before.binary_search(&was(e)));
        let from: Vec<usize> = from
            .map(|at| at.expect("invariant: a renamed edge"))
            .collect();
        if from.len() != info.branches.len() || from.iter().enumerate().all(|(i, &j)| i == j) {
            return;
        }
        let mut old = std::mem::take(&mut info.branches);
        info.branches = from.iter().map(|&j| std::mem::take(&mut old[j])).collect();
        for (i, branch) in info.branches.iter().enumerate() {
            for n in branch {
                let slot = self.ids.binary_search(n).expect(ROWS);
                let row = self.enclosing.row_mut(slot);
                let entry = row.iter_mut().find(|(s, _)| *s == split).expect(ROWS);
                entry.1 = i;
            }
        }
    }

    /// Inserts `n`, a new node, with the row of `like` followed by
    /// `branch`, and adds it to the branch of every block in that row.
    fn insert_slot(&mut self, n: NodeId, like: NodeId, branch: Option<(NodeId, usize)>) {
        let of = self.ids.binary_search(&like).expect(ROWS);
        let slot = self.ids.binary_search(&n);
        let slot = slot.expect_err("invariant: an inserted node is new");
        self.ids.reserve_exact(1);
        self.ids.insert(slot, n);
        self.enclosing.insert_copy(slot, of, branch);
        for i in 0..self.enclosing.row(slot).len() {
            let (split, b) = self.enclosing.row(slot)[i];
            self.join_branch(split, b, n);
        }
    }

    /// Adds `n` to branch `b` of the block of `split`, keeping it sorted.
    fn join_branch(&mut self, split: NodeId, b: usize, n: NodeId) {
        let branch = &mut self.by_split.get_mut(&split).expect(ROWS).branches[b];
        if let Err(at) = branch.binary_search(&n) {
            branch.reserve_exact(1);
            branch.insert(at, n);
        }
    }
}

/// What an edit expects of the structure it edits: every node a row or a
/// branch names is placed, and every block a row names is mapped.
const ROWS: &str = "invariant: the rows and the branches name placed nodes and mapped blocks";

/// The nodes reachable from `head` over control edges without passing
/// `join` (empty when `head` is the join), each once.
fn region(schema: &ProcessSchema, head: NodeId, join: NodeId) -> Vec<NodeId> {
    let mut seen = Vec::new();
    let mut stack = vec![head];
    while let Some(n) = stack.pop() {
        if n == join || seen.contains(&n) {
            continue;
        }
        seen.push(n);
        stack.extend(schema.control_successors(n));
    }
    seen
}
