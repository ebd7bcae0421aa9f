//! Block-structure analysis: recovering the nesting of AND/XOR/loop blocks
//! from the control backbone of a schema.
//!
//! The builder guarantees block structure at construction time, but ad-hoc
//! and type changes repeatedly *re-derive* structure (e.g. to validate a new
//! sync edge or to find the minimal block around an insertion point), so the
//! analysis works on any schema whose control backbone is a DAG with
//! matching splits and joins — exactly what `adept-verify` certifies.

use crate::edge::EdgeKind;
use crate::graph::{self, Backbone};
use crate::ids::NodeId;
use crate::index::SchemaIndex;
use crate::node::NodeKind;
use crate::schema::ProcessSchema;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

/// The kind of a structural block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// AND block (parallel branching).
    Parallel,
    /// XOR block (conditional branching).
    Conditional,
    /// Loop block.
    Loop,
}

/// One recovered block: the region between a split and its matching join.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockInfo {
    /// Block kind.
    pub kind: BlockKind,
    /// The opening node (`AndSplit`, `XorSplit` or `LoopStart`).
    pub split: NodeId,
    /// The closing node (`AndJoin`, `XorJoin` or `LoopEnd`).
    pub join: NodeId,
    /// Interior nodes of each branch, in branch order (branch order follows
    /// the id order of the edges leaving the split). Loop blocks have one
    /// "branch": the loop body.
    pub branches: Vec<BTreeSet<NodeId>>,
}

impl BlockInfo {
    /// All interior nodes (union of branches), excluding split and join.
    pub fn interior(&self) -> BTreeSet<NodeId> {
        let mut s = BTreeSet::new();
        for b in &self.branches {
            s.extend(b.iter().copied());
        }
        s
    }

    /// The branch index containing `n`, if any.
    pub fn branch_of(&self, n: NodeId) -> Option<usize> {
        self.branches.iter().position(|b| b.contains(&n))
    }
}

/// Errors from block analysis on malformed schemas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The control backbone contains a cycle.
    CyclicBackbone,
    /// A split has no matching join of the required kind.
    UnmatchedSplit(NodeId),
    /// A loop edge does not connect a `LoopEnd` to a `LoopStart`.
    MalformedLoopEdge(NodeId, NodeId),
    /// The schema has other than exactly one start and one end node, so it
    /// cannot be compiled.
    Terminals {
        /// Number of start nodes.
        starts: usize,
        /// Number of end nodes.
        ends: usize,
    },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::CyclicBackbone => f.write_str("control backbone is cyclic"),
            BlockError::UnmatchedSplit(n) => write!(f, "split {n} has no matching join"),
            BlockError::MalformedLoopEdge(a, b) => {
                write!(
                    f,
                    "loop edge {a} -> {b} does not connect LoopEnd to LoopStart"
                )
            }
            BlockError::Terminals { starts, ends } => write!(
                f,
                "schema must have exactly one start and one end node (has {starts} and {ends})"
            ),
        }
    }
}

impl std::error::Error for BlockError {}

/// The block structure of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blocks {
    /// All blocks, indexed by their split node.
    pub by_split: BTreeMap<NodeId, BlockInfo>,
    /// Enclosing blocks per node, outermost first: `(split, branch_index)`.
    enclosing: BTreeMap<NodeId, Vec<(NodeId, usize)>>,
}

thread_local! {
    static PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Number of block analyses ([`Blocks::analyze`] calls) this thread has
/// performed. Tests use it to pin that a change analyses its overlay once.
/// Thread-local, so concurrent tests never skew each other's counts.
pub fn analysis_passes() -> u64 {
    PASSES.with(Cell::get)
}

impl Blocks {
    /// Analyses the block structure of a schema.
    pub fn analyze(schema: &ProcessSchema) -> Result<Blocks, BlockError> {
        Self::analyze_indexed(&SchemaIndex::of(schema))
    }

    /// [`Blocks::analyze`] over an index of the schema — for a caller that
    /// walks the same index in passes of its own (the verifier).
    pub fn analyze_indexed(index: &SchemaIndex<'_>) -> Result<Blocks, BlockError> {
        PASSES.with(|c| c.set(c.get() + 1));
        let g = Backbone::of(index);
        let order = g.topo().ok_or(BlockError::CyclicBackbone)?;
        let ipdom = match index.first(NodeKind::End) {
            Some(end) => g.immediate_postdominators(&order, Some(end)),
            None => vec![graph::NONE; g.ids.len()],
        };
        let mut walk = Walk::new(&g);

        let mut by_split: BTreeMap<NodeId, BlockInfo> = BTreeMap::new();

        // Loop blocks are matched by their loop edge.
        for e in index.links().iter().filter(|e| e.kind == EdgeKind::Loop) {
            let (le, ls) = (e.edge.from, e.edge.to);
            if index.node(e.to).kind != NodeKind::LoopStart
                || index.node(e.from).kind != NodeKind::LoopEnd
            {
                return Err(BlockError::MalformedLoopEdge(le, ls));
            }
            let body = walk.region_between(e.to, e.from);
            by_split.insert(
                ls,
                BlockInfo {
                    kind: BlockKind::Loop,
                    split: ls,
                    join: le,
                    branches: vec![body],
                },
            );
        }

        // AND/XOR blocks are matched via immediate postdominators.
        for i in 0..index.node_count() as u32 {
            let node = index.node(i);
            let (kind, expect) = match node.kind {
                NodeKind::AndSplit => (BlockKind::Parallel, NodeKind::AndJoin),
                NodeKind::XorSplit => (BlockKind::Conditional, NodeKind::XorJoin),
                _ => continue,
            };
            let join = ipdom[i as usize];
            if join == graph::NONE || index.node(join).kind != expect {
                return Err(BlockError::UnmatchedSplit(node.id));
            }
            let branches = g
                .succ(i)
                .iter()
                .map(|&head| walk.branch_region(head, join))
                .collect();
            by_split.insert(
                node.id,
                BlockInfo {
                    kind,
                    split: node.id,
                    join: g.ids[join as usize],
                    branches,
                },
            );
        }

        // Enclosing-block stacks, outermost first. A block B1 encloses B2
        // iff B2's split lies in B1's interior, so blocks are handed to
        // their members larger interior first (split id breaks ties); a
        // member of several branches (malformed schemas only) belongs to
        // the first.
        let mut claimed = vec![usize::MAX; g.ids.len()];
        let mut members: Vec<(NodeId, Vec<(usize, usize)>)> = Vec::new();
        for (k, (split, info)) in by_split.iter().enumerate() {
            let mut of_block = Vec::new();
            for (bi, branch) in info.branches.iter().enumerate() {
                for n in branch {
                    let i = g.index(*n).expect("regions hold schema nodes") as usize;
                    if claimed[i] != k {
                        claimed[i] = k;
                        of_block.push((i, bi));
                    }
                }
            }
            members.push((*split, of_block));
        }
        members.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let mut stacks: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); g.ids.len()];
        for (split, of_block) in members {
            for (i, bi) in of_block {
                stacks[i].push((split, bi));
            }
        }

        Ok(Blocks {
            by_split,
            enclosing: g.ids.iter().copied().zip(stacks).collect(),
        })
    }

    /// The blocks enclosing `n`, outermost first, as `(split, branch_index)`.
    pub fn enclosing(&self, n: NodeId) -> &[(NodeId, usize)] {
        self.enclosing.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The innermost block enclosing `n`, if any.
    pub fn innermost(&self, n: NodeId) -> Option<&BlockInfo> {
        self.enclosing(n)
            .last()
            .map(|(split, _)| &self.by_split[split])
    }

    /// The innermost *loop* block enclosing `n`, if any.
    pub fn innermost_loop(&self, n: NodeId) -> Option<&BlockInfo> {
        self.enclosing(n)
            .iter()
            .rev()
            .map(|(split, _)| &self.by_split[split])
            .find(|b| b.kind == BlockKind::Loop)
    }

    /// If `a` and `b` lie in *different branches of the same parallel
    /// block*, returns that block's split node. This is the structural
    /// precondition for sync edges: only then are the nodes truly
    /// concurrent and a sync edge meaningful (and deadlock-free by
    /// construction when directed consistently).
    pub fn parallel_separator(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let ea = self.enclosing(a);
        let eb = self.enclosing(b);
        // Walk from innermost to outermost common block.
        for (split_a, branch_a) in ea.iter().rev() {
            if self.by_split[split_a].kind != BlockKind::Parallel {
                continue;
            }
            for (split_b, branch_b) in eb.iter().rev() {
                if split_a == split_b && branch_a != branch_b {
                    return Some(*split_a);
                }
            }
        }
        None
    }

    /// Whether `a` and `b` lie inside the same set of loop blocks (sync
    /// edges must not cross loop boundaries).
    pub fn same_loop_context(&self, a: NodeId, b: NodeId) -> bool {
        let la: Vec<NodeId> = self
            .enclosing(a)
            .iter()
            .filter(|(s, _)| self.by_split[s].kind == BlockKind::Loop)
            .map(|(s, _)| *s)
            .collect();
        let lb: Vec<NodeId> = self
            .enclosing(b)
            .iter()
            .filter(|(s, _)| self.by_split[s].kind == BlockKind::Loop)
            .map(|(s, _)| *s)
            .collect();
        la == lb
    }
}

/// Region walks over the dense backbone: one visited table, re-used by
/// bumping a stamp instead of clearing it.
struct Walk<'g> {
    g: &'g Backbone<'g>,
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

impl<'g> Walk<'g> {
    fn new(g: &'g Backbone<'g>) -> Self {
        Self {
            g,
            seen: vec![0; g.ids.len()],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Marks `i` under the current stamp; whether it was unmarked before.
    fn fresh(&mut self, i: u32) -> bool {
        let slot = &mut self.seen[i as usize];
        let fresh = *slot != self.stamp;
        *slot = self.stamp;
        fresh
    }

    /// Forward reach over control edges from `from` (inclusive), not
    /// expanding through `stop`.
    fn bounded_reach(&mut self, from: u32, stop: u32) -> Vec<u32> {
        self.stamp += 1;
        self.fresh(from);
        self.stack.push(from);
        let mut reached = vec![from];
        while let Some(n) = self.stack.pop() {
            if n == stop {
                continue;
            }
            let g = self.g;
            for &s in g.succ(n) {
                if self.fresh(s) {
                    reached.push(s);
                    self.stack.push(s);
                }
            }
        }
        reached
    }

    /// The node ids of `region`, as the ordered set a [`BlockInfo`] keeps.
    fn ids(&self, mut region: Vec<u32>) -> BTreeSet<NodeId> {
        region.sort_unstable();
        region.into_iter().map(|i| self.g.ids[i as usize]).collect()
    }

    /// Interior nodes strictly between `from` and `to` along control
    /// edges: reachable from `from` without passing through `to`,
    /// intersected with nodes that reach `to`.
    fn region_between(&mut self, from: u32, to: u32) -> BTreeSet<NodeId> {
        let fwd = self.bounded_reach(from, to);
        self.stamp += 1;
        self.fresh(to);
        self.stack.push(to);
        while let Some(n) = self.stack.pop() {
            let g = self.g;
            for &p in g.pred(n) {
                if self.fresh(p) {
                    self.stack.push(p);
                }
            }
        }
        let stamp = self.stamp;
        let between = fwd
            .into_iter()
            .filter(|&n| n != from && n != to && self.seen[n as usize] == stamp)
            .collect();
        self.ids(between)
    }

    /// The branch region rooted at `head` (inclusive) up to but excluding
    /// `join`; empty when the split connects directly to the join.
    fn branch_region(&mut self, head: u32, join: u32) -> BTreeSet<NodeId> {
        if head == join {
            return BTreeSet::new();
        }
        let mut reached = self.bounded_reach(head, join);
        reached.retain(|&n| n != join);
        self.ids(reached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;

    /// start -> a -> AND( b | c -> d ) -> e -> end, plus a XOR inside branch 2.
    fn nested() -> (ProcessSchema, BTreeMap<String, NodeId>) {
        let mut b = SchemaBuilder::new("nested");
        let mut names = BTreeMap::new();
        names.insert("a".to_string(), b.activity("a"));
        b.and_split();
        b.branch();
        names.insert("b".to_string(), b.activity("b"));
        b.branch();
        names.insert("c".to_string(), b.activity("c"));
        b.xor_split();
        b.case();
        names.insert("x1".to_string(), b.activity("x1"));
        b.case();
        names.insert("x2".to_string(), b.activity("x2"));
        b.xor_join();
        names.insert("d".to_string(), b.activity("d"));
        b.and_join();
        names.insert("e".to_string(), b.activity("e"));
        let s = b.build().unwrap();
        (s, names)
    }

    #[test]
    fn recovers_parallel_block() {
        let (s, n) = nested();
        let blocks = Blocks::analyze(&s).unwrap();
        let and_split = s.nodes().find(|x| x.kind == NodeKind::AndSplit).unwrap().id;
        let info = &blocks.by_split[&and_split];
        assert_eq!(info.kind, BlockKind::Parallel);
        assert_eq!(info.branches.len(), 2);
        assert_eq!(info.branch_of(n["b"]), Some(0));
        assert!(info.branch_of(n["c"]).is_some());
        assert_ne!(info.branch_of(n["b"]), info.branch_of(n["c"]));
        assert_eq!(info.branch_of(n["a"]), None);
        assert_eq!(info.branch_of(n["e"]), None);
    }

    #[test]
    fn parallel_separator_identifies_concurrency() {
        let (s, n) = nested();
        let blocks = Blocks::analyze(&s).unwrap();
        assert!(blocks.parallel_separator(n["b"], n["c"]).is_some());
        assert!(blocks.parallel_separator(n["b"], n["x1"]).is_some());
        assert!(blocks.parallel_separator(n["c"], n["d"]).is_none());
        assert!(blocks.parallel_separator(n["a"], n["b"]).is_none());
        assert!(blocks.parallel_separator(n["x1"], n["x2"]).is_none());
    }

    #[test]
    fn nesting_order_is_outermost_first() {
        let (s, n) = nested();
        let blocks = Blocks::analyze(&s).unwrap();
        let stack = blocks.enclosing(n["x1"]);
        assert_eq!(stack.len(), 2);
        let outer = &blocks.by_split[&stack[0].0];
        let inner = &blocks.by_split[&stack[1].0];
        assert_eq!(outer.kind, BlockKind::Parallel);
        assert_eq!(inner.kind, BlockKind::Conditional);
    }

    #[test]
    fn loop_block_membership() {
        let mut b = SchemaBuilder::new("loop");
        let a = b.activity("a");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(crate::edge::LoopCond::Times(2));
        let after = b.activity("after");
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let lb = blocks.innermost_loop(body).expect("body is inside loop");
        assert_eq!(lb.kind, BlockKind::Loop);
        assert!(lb.branches[0].contains(&body));
        assert!(blocks.innermost_loop(a).is_none());
        assert!(blocks.innermost_loop(after).is_none());
        assert!(!blocks.same_loop_context(a, body));
        assert!(blocks.same_loop_context(a, after));
    }
}
