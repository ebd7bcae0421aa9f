//! Block-structure analysis: recovering the nesting of AND/XOR/loop blocks
//! from the control backbone of a schema.
//!
//! The builder guarantees block structure at construction time, and the
//! analysis works on any schema whose control backbone is a DAG with
//! matching splits and joins — exactly what `adept-verify` certifies. It
//! runs where a schema has no analysed base: a deploy, a version decoded
//! from a snapshot. A schema that change operations made from an analysed
//! one inherits its structure instead: the operations keep a schema
//! block-structured, so each one's effect is a local edit of its base's
//! blocks ([`Blocks::place_node`], [`Blocks::place_block`],
//! [`Blocks::remove_node`], [`Blocks::rename_edges`]; `adept-core` maps
//! each operation to its edits).
//!
//! The analysis walks a [`SchemaIndex`] and keeps its answers dense:
//!
//! * `by_split` maps each block's split to its [`BlockInfo`], whose
//!   branches are sorted id lists, cut from the slot regions the walk
//!   produces;
//! * the enclosing stacks are rows over node slots, the way the index and
//!   the arena pool theirs: the node ids ascending (slot `i` is `ids[i]`),
//!   and one pooled table of `(split, branch)` entries cut into one row per
//!   slot, outermost block first.
//!
//! So a query ([`Blocks::enclosing`], [`Blocks::parallel_separator`],
//! [`Blocks::same_loop_context`], …) is a binary search for the slot and a
//! walk of its row, and allocates nothing; an analysis allocates its tables
//! and one list per branch, not a collection per node.

use crate::edge::EdgeKind;
use crate::graph::{self, Backbone};
use crate::ids::NodeId;
use crate::index::{Pool, SchemaIndex};
use crate::node::NodeKind;
use crate::schema::ProcessSchema;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

mod edit;

/// The kind of a structural block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// AND block (parallel branching).
    Parallel,
    /// XOR block (conditional branching).
    Conditional,
    /// Loop block.
    Loop,
}

/// One recovered block: the region between a split and its matching join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block kind.
    pub kind: BlockKind,
    /// The opening node (`AndSplit`, `XorSplit` or `LoopStart`).
    pub split: NodeId,
    /// The closing node (`AndJoin`, `XorJoin` or `LoopEnd`).
    pub join: NodeId,
    /// Interior nodes of each branch, ascending, in branch order (branch
    /// order follows the id order of the edges leaving the split). Loop
    /// blocks have one "branch": the loop body.
    pub branches: Vec<Vec<NodeId>>,
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
        self.branches
            .iter()
            .position(|b| b.binary_search(&n).is_ok())
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

/// The block structure of a schema (see the module docs for its layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocks {
    /// All blocks, indexed by their split node.
    pub by_split: BTreeMap<NodeId, BlockInfo>,
    /// Node ids, ascending: slot `i` is `ids[i]`.
    ids: Vec<NodeId>,
    /// Enclosing blocks per slot, outermost first: `(split, branch_index)`.
    enclosing: Pool<(NodeId, usize)>,
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
    /// walks the same index in passes of its own (the verifier, the arena
    /// compile).
    pub fn analyze_indexed(index: &SchemaIndex<'_>) -> Result<Blocks, BlockError> {
        PASSES.with(|c| c.set(c.get() + 1));
        Self::walk(index)
    }

    /// Panics unless `self` is what a full analysis of `schema` finds.
    /// Debug builds run it on every block structure edits derived, the way
    /// they run the whole verification pass beside a scoped one; it is not
    /// counted in [`analysis_passes`].
    pub fn assert_derived(&self, schema: &ProcessSchema) {
        let full = Self::walk(&SchemaIndex::of(schema));
        assert!(
            full.as_ref() == Ok(self),
            "derived blocks differ from a full analysis\nderived: {self:?}\nfull: {full:?}"
        );
    }

    /// The analysis itself, uncounted.
    fn walk(index: &SchemaIndex<'_>) -> Result<Blocks, BlockError> {
        let g = Backbone::of(index);
        let order = g.topo().ok_or(BlockError::CyclicBackbone)?;
        let ipdom = match index.first(NodeKind::End) {
            Some(end) => g.immediate_postdominators(&order, Some(end)),
            None => vec![graph::NONE; g.ids.len()],
        };
        let mut walk = Walk::new(&g);
        let mut by_split: BTreeMap<NodeId, BlockInfo> = BTreeMap::new();
        let mut stacks = Stacks::new(g.ids.len());

        // Loop blocks are matched by their loop edge.
        for e in index.links().iter().filter(|e| e.kind == EdgeKind::Loop) {
            let (le, ls) = (e.edge.from, e.edge.to);
            if index.node(e.to).kind != NodeKind::LoopStart
                || index.node(e.from).kind != NodeKind::LoopEnd
            {
                return Err(BlockError::MalformedLoopEdge(le, ls));
            }
            walk.region_between(e.to, e.from);
            let info = BlockInfo {
                kind: BlockKind::Loop,
                split: ls,
                join: le,
                branches: walk.take_branches(&mut stacks, ls),
            };
            by_split.insert(ls, info);
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
            for &head in g.succ(i) {
                walk.branch_region(head, join);
            }
            let info = BlockInfo {
                kind,
                split: node.id,
                join: g.ids[join as usize],
                branches: walk.take_branches(&mut stacks, node.id),
            };
            by_split.insert(node.id, info);
        }

        Ok(Blocks {
            by_split,
            ids: g.ids.to_vec(),
            enclosing: stacks.rows(),
        })
    }

    /// The blocks enclosing `n`, outermost first, as `(split, branch_index)`;
    /// empty for a node the schema lacks.
    pub fn enclosing(&self, n: NodeId) -> &[(NodeId, usize)] {
        match self.ids.binary_search(&n) {
            Ok(slot) => self.enclosing.row(slot),
            Err(_) => &[],
        }
    }

    /// The innermost block enclosing `n`, if any.
    pub fn innermost(&self, n: NodeId) -> Option<&BlockInfo> {
        self.enclosing(n)
            .last()
            .map(|(split, _)| &self.by_split[split])
    }

    /// The enclosing blocks of `n` of one kind, innermost first.
    fn enclosing_of(
        &self,
        n: NodeId,
        kind: BlockKind,
    ) -> impl Iterator<Item = &(NodeId, usize)> + '_ {
        let stack = self.enclosing(n).iter().rev();
        stack.filter(move |(split, _)| self.by_split[split].kind == kind)
    }

    /// The innermost *loop* block enclosing `n`, if any.
    pub fn innermost_loop(&self, n: NodeId) -> Option<&BlockInfo> {
        let (split, _) = self.enclosing_of(n, BlockKind::Loop).next()?;
        Some(&self.by_split[split])
    }

    /// If `a` and `b` lie in *different branches of the same parallel
    /// block*, returns that block's split node. This is the structural
    /// precondition for sync edges: only then are the nodes truly
    /// concurrent and a sync edge meaningful (and deadlock-free by
    /// construction when directed consistently).
    pub fn parallel_separator(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let eb = self.enclosing(b);
        // Walk from innermost to outermost common block.
        self.enclosing_of(a, BlockKind::Parallel)
            .find(|(split_a, branch_a)| {
                let mut of_b = eb.iter().rev();
                of_b.any(|(split_b, branch_b)| split_a == split_b && branch_a != branch_b)
            })
            .map(|(split, _)| *split)
    }

    /// Whether `a` and `b` lie inside the same set of loop blocks (sync
    /// edges must not cross loop boundaries).
    pub fn same_loop_context(&self, a: NodeId, b: NodeId) -> bool {
        let splits = |n| {
            self.enclosing_of(n, BlockKind::Loop)
                .map(|(split, _)| split)
        };
        splits(a).eq(splits(b))
    }

    /// Approximate deep size in bytes (for memory accounting): the slot
    /// tables, and per block its entry (with a per-entry B-tree node
    /// guess) and branch lists.
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let block = |b: &BlockInfo| {
            size_of::<NodeId>()
                + size_of::<BlockInfo>()
                + 32
                + b.branches.capacity() * size_of::<Vec<NodeId>>()
                + b.branches
                    .iter()
                    .map(|br| br.capacity() * size_of::<NodeId>())
                    .sum::<usize>()
        };
        size_of::<Self>()
            + self.ids.capacity() * size_of::<NodeId>()
            + self.enclosing.heap_size()
            + self.by_split.values().map(block).sum::<usize>()
    }
}

/// The enclosing stacks while an analysis fills them: every block hands
/// its members their `(split, branch)` entry, and [`Stacks::rows`] orders
/// each node's entries outermost first.
struct Stacks {
    /// The block each slot was last handed by, to keep one entry per block.
    claimed: Vec<u32>,
    /// Per block, its member count, split and first entry.
    blocks: Vec<(usize, NodeId, usize)>,
    /// `(slot, (split, branch))`, block by block.
    entries: Vec<(u32, (NodeId, usize))>,
}

impl Stacks {
    fn new(slots: usize) -> Self {
        Self {
            claimed: vec![u32::MAX; slots],
            blocks: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Hands the block of `split` to the members of its branches; a member
    /// of several branches (malformed schemas only) belongs to the first.
    fn add<'r>(&mut self, split: NodeId, branches: impl Iterator<Item = &'r [u32]>) {
        let k = self.blocks.len() as u32;
        let first = self.entries.len();
        for (bi, branch) in branches.enumerate() {
            for &slot in branch {
                if self.claimed[slot as usize] != k {
                    self.claimed[slot as usize] = k;
                    self.entries.push((slot, (split, bi)));
                }
            }
        }
        self.blocks.push((self.entries.len() - first, split, first));
    }

    /// One row per slot, outermost block first. A block B1 encloses B2 iff
    /// B2's split lies in B1's interior, so blocks are laid out larger
    /// interior first (split id breaks ties) and each slot's row keeps
    /// that order.
    fn rows(mut self) -> Pool<(NodeId, usize)> {
        self.blocks
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let entries = &self.entries;
        let laid_out = self
            .blocks
            .iter()
            .flat_map(|&(len, _, first)| &entries[first..first + len]);
        Pool::grouped(self.claimed.len(), laid_out.copied())
    }
}

/// Region walks over the dense backbone: one visited table, re-used by
/// bumping a stamp instead of clearing it, and one buffer the regions of
/// the block being analysed are appended to, each sorted by slot (which is
/// id order).
struct Walk<'g> {
    g: &'g Backbone<'g>,
    seen: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
    /// The branch regions of the current block, one after another.
    regions: Vec<u32>,
    /// Where each of them ends in `regions`, after a leading 0.
    ends: Vec<usize>,
}

impl<'g> Walk<'g> {
    fn new(g: &'g Backbone<'g>) -> Self {
        Self {
            g,
            seen: vec![0; g.ids.len()],
            stamp: 0,
            stack: Vec::new(),
            regions: Vec::new(),
            ends: vec![0],
        }
    }

    /// Marks `i` under the current stamp; whether it was unmarked before.
    fn fresh(&mut self, i: u32) -> bool {
        let slot = &mut self.seen[i as usize];
        let fresh = *slot != self.stamp;
        *slot = self.stamp;
        fresh
    }

    /// Appends the forward reach over control edges from `from`
    /// (inclusive), not expanding through `stop`, to `regions`.
    fn bounded_reach(&mut self, from: u32, stop: u32) {
        self.stamp += 1;
        self.fresh(from);
        self.stack.push(from);
        self.regions.push(from);
        while let Some(n) = self.stack.pop() {
            if n == stop {
                continue;
            }
            let g = self.g;
            for &s in g.succ(n) {
                if self.fresh(s) {
                    self.regions.push(s);
                    self.stack.push(s);
                }
            }
        }
    }

    /// Closes the region appended since the last one: sorted, minus what
    /// `keep` rejects.
    fn close_region(&mut self, start: usize, keep: impl Fn(&Self, u32) -> bool) {
        let mut at = start;
        for i in start..self.regions.len() {
            let n = self.regions[i];
            if keep(self, n) {
                self.regions[at] = n;
                at += 1;
            }
        }
        self.regions.truncate(at);
        self.regions[start..].sort_unstable();
        self.ends.push(at);
    }

    /// The interior nodes strictly between `from` and `to` along control
    /// edges, as the next region: reachable from `from` without passing
    /// through `to`, intersected with nodes that reach `to`.
    fn region_between(&mut self, from: u32, to: u32) {
        let start = self.regions.len();
        self.bounded_reach(from, to);
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
        self.close_region(start, |w, n| {
            n != from && n != to && w.seen[n as usize] == stamp
        });
    }

    /// The branch region rooted at `head` (inclusive) up to but excluding
    /// `join`, as the next region; empty when the split connects directly
    /// to the join.
    fn branch_region(&mut self, head: u32, join: u32) {
        let start = self.regions.len();
        if head != join {
            self.bounded_reach(head, join);
        }
        self.close_region(start, |_, n| n != join);
    }

    /// The regions walked since the last call, as the branches of the block
    /// of `split` — sorted id lists — after handing the block to their
    /// members' stacks.
    fn take_branches(&mut self, stacks: &mut Stacks, split: NodeId) -> Vec<Vec<NodeId>> {
        let regions = &self.regions;
        let cut = self.ends.windows(2).map(|w| &regions[w[0]..w[1]]);
        stacks.add(split, cut.clone());
        let ids = self.g.ids;
        let branches = cut
            .map(|region| region.iter().map(|&i| ids[i as usize]).collect())
            .collect();
        self.regions.clear();
        self.ends.truncate(1);
        branches
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
    fn a_node_the_schema_lacks_has_no_enclosing_blocks() {
        let (s, _) = nested();
        let blocks = Blocks::analyze(&s).unwrap();
        let absent = NodeId(s.node_ids().last().unwrap().0 + 1);
        assert!(blocks.enclosing(absent).is_empty());
        assert!(blocks.enclosing(NodeId(u32::MAX)).is_empty());
        assert!(blocks.innermost(absent).is_none());
        assert!(blocks.innermost_loop(absent).is_none());
    }

    /// start -> a -> AND( AND( LOOP(l1 -> l2) | m ) | o ) -> e -> end.
    #[test]
    fn a_loop_in_a_branch_of_nested_parallel_blocks() {
        let mut b = SchemaBuilder::new("nested loop");
        let a = b.activity("a");
        b.and_split();
        b.branch();
        b.and_split();
        b.branch();
        b.loop_start();
        let l1 = b.activity("l1");
        let l2 = b.activity("l2");
        b.loop_end(crate::edge::LoopCond::Times(2));
        b.branch();
        let m = b.activity("m");
        b.and_join();
        b.branch();
        let o = b.activity("o");
        b.and_join();
        let e = b.activity("e");
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let split_of = |kind| {
            let mut splits = s.nodes().filter(|n| n.kind == kind).map(|n| n.id);
            (splits.next().unwrap(), splits.next())
        };
        let (outer, inner) = split_of(NodeKind::AndSplit);
        let inner = inner.unwrap();
        // The outer split encloses the inner one, whichever id it got.
        let (outer, inner) = if blocks.enclosing(inner).is_empty() {
            (inner, outer)
        } else {
            (outer, inner)
        };
        let (ls, _) = split_of(NodeKind::LoopStart);

        assert_eq!(blocks.innermost_loop(l1).map(|b| b.split), Some(ls));
        assert_eq!(blocks.innermost_loop(l2).map(|b| b.split), Some(ls));
        for n in [a, m, o, e, inner] {
            assert!(blocks.innermost_loop(n).is_none(), "{n}");
        }
        let stack: Vec<NodeId> = blocks.enclosing(l1).iter().map(|(s, _)| *s).collect();
        assert_eq!(stack, vec![outer, inner, ls], "outermost first");

        assert!(blocks.same_loop_context(l1, l2));
        assert!(!blocks.same_loop_context(l1, m));
        assert!(!blocks.same_loop_context(o, l2));
        assert!(blocks.same_loop_context(m, o));
        assert!(blocks.same_loop_context(a, e));

        assert_eq!(blocks.parallel_separator(l1, m), Some(inner));
        assert_eq!(blocks.parallel_separator(m, l2), Some(inner));
        assert_eq!(blocks.parallel_separator(l1, o), Some(outer));
        assert_eq!(blocks.parallel_separator(o, m), Some(outer));
        assert_eq!(blocks.parallel_separator(l1, l2), None);
        assert_eq!(blocks.parallel_separator(a, l1), None);
        assert_eq!(blocks.parallel_separator(o, e), None);

        let outer_info = &blocks.by_split[&outer];
        let inner_info = &blocks.by_split[&inner];
        let in_loop = outer_info.branch_of(l1);
        assert!(in_loop.is_some());
        assert_eq!(outer_info.branch_of(m), in_loop);
        assert_eq!(outer_info.branch_of(inner), in_loop);
        assert_ne!(outer_info.branch_of(o), in_loop);
        assert_eq!(outer_info.branch_of(e), None);
        assert_ne!(inner_info.branch_of(l2), inner_info.branch_of(m));
        assert_eq!(inner_info.branch_of(o), None);
        assert_eq!(blocks.by_split[&ls].branch_of(l2), Some(0));
        assert_eq!(blocks.by_split[&ls].branch_of(m), None);
    }

    #[test]
    fn every_branch_list_is_sorted() {
        let (s, _) = nested();
        let mut b = SchemaBuilder::new("wide");
        b.and_split();
        for i in 0..4 {
            b.branch();
            b.activity(&format!("p{i}"));
            b.xor_split();
            b.case();
            b.activity(&format!("x{i}"));
            b.case();
            b.activity(&format!("y{i}"));
            b.xor_join();
        }
        b.and_join();
        let wide = b.build().unwrap();
        for s in [s, wide] {
            let blocks = Blocks::analyze(&s).unwrap();
            assert!(!blocks.by_split.is_empty());
            for info in blocks.by_split.values() {
                for branch in &info.branches {
                    assert!(branch.windows(2).all(|w| w[0] < w[1]), "{branch:?}");
                }
            }
        }
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
