//! Fluent, stack-based construction of block-structured schemas.
//!
//! The builder mirrors how ADEPT2's buildtime client composes templates:
//! sequences, AND blocks, XOR blocks with guarded branches, loop blocks,
//! data elements and data edges, plus explicit sync edges. Every schema the
//! builder produces is block-structured by construction; `adept-verify`
//! re-checks the result (and everything later change operations produce).

use crate::data::{DataEdge, ValueType};
use crate::edge::{Guard, LoopCond};
use crate::error::ModelError;
use crate::ids::{DataId, NodeId};
use crate::node::{ActivityAttributes, NodeKind};
use crate::schema::ProcessSchema;

/// How an in-progress branch of a split block currently ends.
#[derive(Debug, Clone)]
enum BranchEnd {
    /// Branch has nodes; this is its current tail.
    Tail(NodeId),
    /// Branch is empty so far; an eventual guard for the split-side edge.
    Empty(Option<Guard>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitKind {
    And,
    Xor,
}

#[derive(Debug)]
enum Frame {
    /// The top-level sequence (or loop body / branch body is handled by the
    /// frames below). `last` is the node new elements attach to.
    Seq {
        last: NodeId,
    },
    Split {
        kind: SplitKind,
        split: NodeId,
        finished: Vec<BranchEnd>,
        current: Option<BranchEnd>,
        pending_guard: Option<Guard>,
    },
    Loop {
        start: NodeId,
        last: NodeId,
    },
}

/// Fluent builder for [`ProcessSchema`]s.
///
/// See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct SchemaBuilder {
    schema: ProcessSchema,
    frames: Vec<Frame>,
    errors: Vec<ModelError>,
}

impl SchemaBuilder {
    /// Starts a new schema with the given process type name. A `Start` node
    /// is created implicitly.
    pub fn new(name: impl Into<String>) -> Self {
        let mut schema = ProcessSchema::empty(name);
        let start = schema.add_node("start", NodeKind::Start);
        Self {
            schema,
            frames: vec![Frame::Seq { last: start }],
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(ModelError::BuilderState(msg.into()));
    }

    /// Appends a node to the current sequence position and returns its id.
    fn append(&mut self, name: &str, kind: NodeKind) -> NodeId {
        let node = self.schema.add_node(name, kind);
        match self.frames.last_mut() {
            Some(Frame::Seq { last }) | Some(Frame::Loop { last, .. }) => {
                let from = *last;
                if let Err(e) = self.schema.add_control_edge(from, node) {
                    self.errors.push(e);
                }
                match self.frames.last_mut() {
                    Some(Frame::Seq { last }) | Some(Frame::Loop { last, .. }) => *last = node,
                    _ => unreachable!(),
                }
            }
            Some(Frame::Split {
                split,
                current,
                pending_guard,
                ..
            }) => match current {
                None => {
                    self.errors.push(ModelError::BuilderState(format!(
                        "node \"{name}\" added inside a split block before branch()/case()"
                    )));
                }
                Some(BranchEnd::Tail(t)) => {
                    let from = *t;
                    *current = Some(BranchEnd::Tail(node));
                    if let Err(e) = self.schema.add_control_edge(from, node) {
                        self.errors.push(e);
                    }
                }
                Some(BranchEnd::Empty(_)) => {
                    let from = *split;
                    let guard = pending_guard.take();
                    *current = Some(BranchEnd::Tail(node));
                    if let Err(e) = self.schema.add_guarded_edge(from, node, guard) {
                        self.errors.push(e);
                    }
                }
            },
            None => self.fail("builder already consumed"),
        }
        node
    }

    /// Sets the sequence position to an existing node without adding edges
    /// (used after closing a block: the join becomes the new tail).
    fn set_tail(&mut self, node: NodeId) {
        match self.frames.last_mut() {
            Some(Frame::Seq { last }) | Some(Frame::Loop { last, .. }) => *last = node,
            Some(Frame::Split { current, .. }) => match current {
                Some(_) => *current = Some(BranchEnd::Tail(node)),
                None => self.fail("block closed inside a split before branch()/case()"),
            },
            None => self.fail("builder already consumed"),
        }
    }

    // ------------------------------------------------------------------
    // Sequence elements
    // ------------------------------------------------------------------

    /// Appends an activity.
    pub fn activity(&mut self, name: &str) -> NodeId {
        self.append(name, NodeKind::Activity)
    }

    /// Appends an activity and configures its attributes.
    pub fn activity_with(
        &mut self,
        name: &str,
        configure: impl FnOnce(&mut ActivityAttributes),
    ) -> NodeId {
        let id = self.append(name, NodeKind::Activity);
        if let Ok(n) = self.schema.node_mut(id) {
            configure(&mut n.attrs);
        }
        id
    }

    // ------------------------------------------------------------------
    // Parallel (AND) blocks
    // ------------------------------------------------------------------

    /// Opens a parallel block. Call [`SchemaBuilder::branch`] before adding
    /// nodes, and close with [`SchemaBuilder::and_join`].
    pub fn and_split(&mut self) -> NodeId {
        let split = self.append("and-split", NodeKind::AndSplit);
        self.frames.push(Frame::Split {
            kind: SplitKind::And,
            split,
            finished: Vec::new(),
            current: None,
            pending_guard: None,
        });
        split
    }

    /// Starts the next branch of the innermost parallel block.
    pub fn branch(&mut self) {
        match self.frames.last_mut() {
            Some(Frame::Split {
                kind: SplitKind::And,
                finished,
                current,
                pending_guard,
                ..
            }) => {
                if let Some(b) = current.take() {
                    finished.push(b);
                }
                *pending_guard = None;
                *current = Some(BranchEnd::Empty(None));
            }
            _ => self.fail("branch() outside a parallel block (use case() in XOR blocks)"),
        }
    }

    /// Closes the innermost parallel block and returns the join node.
    pub fn and_join(&mut self) -> NodeId {
        self.close_split(SplitKind::And, NodeKind::AndJoin, "and-join")
    }

    // ------------------------------------------------------------------
    // Conditional (XOR) blocks
    // ------------------------------------------------------------------

    /// Opens a conditional block. Start branches with
    /// [`SchemaBuilder::case`] / [`SchemaBuilder::case_when`] and close with
    /// [`SchemaBuilder::xor_join`].
    pub fn xor_split(&mut self) -> NodeId {
        let split = self.append("xor-split", NodeKind::XorSplit);
        self.frames.push(Frame::Split {
            kind: SplitKind::Xor,
            split,
            finished: Vec::new(),
            current: None,
            pending_guard: None,
        });
        split
    }

    /// Starts an unguarded (else/default) case of the innermost XOR block.
    pub fn case(&mut self) {
        self.case_inner(None);
    }

    /// Starts a guarded case of the innermost XOR block.
    pub fn case_when(&mut self, guard: Guard) {
        self.case_inner(Some(guard));
    }

    fn case_inner(&mut self, guard: Option<Guard>) {
        match self.frames.last_mut() {
            Some(Frame::Split {
                kind: SplitKind::Xor,
                finished,
                current,
                pending_guard,
                ..
            }) => {
                if let Some(b) = current.take() {
                    finished.push(b);
                }
                *pending_guard = guard.clone();
                *current = Some(BranchEnd::Empty(guard));
            }
            _ => self.fail("case() outside a conditional block (use branch() in AND blocks)"),
        }
    }

    /// Closes the innermost conditional block and returns the join node.
    pub fn xor_join(&mut self) -> NodeId {
        self.close_split(SplitKind::Xor, NodeKind::XorJoin, "xor-join")
    }

    fn close_split(&mut self, kind: SplitKind, join_kind: NodeKind, join_name: &str) -> NodeId {
        let frame = self.frames.pop();
        match frame {
            Some(Frame::Split {
                kind: k,
                split,
                mut finished,
                current,
                ..
            }) if k == kind => {
                if let Some(b) = current {
                    finished.push(b);
                }
                let join = self.schema.add_node(join_name, join_kind);
                if finished.len() < 2 {
                    self.fail(format!(
                        "split block at {split} has {} branch(es); at least 2 required",
                        finished.len()
                    ));
                }
                let mut empty_seen = false;
                for b in finished {
                    let res = match b {
                        BranchEnd::Tail(t) => self.schema.add_control_edge(t, join),
                        BranchEnd::Empty(g) => {
                            if empty_seen {
                                self.fail(format!(
                                    "split block at {split} has more than one empty branch"
                                ));
                            }
                            empty_seen = true;
                            self.schema.add_guarded_edge(split, join, g)
                        }
                    };
                    if let Err(e) = res {
                        self.errors.push(e);
                    }
                }
                self.set_tail(join);
                join
            }
            other => {
                if let Some(f) = other {
                    self.frames.push(f);
                }
                self.fail(format!("{join_name} without matching split"));
                // Return a dangling node so callers can keep chaining; the
                // error surfaces at build().
                self.schema.add_node(join_name, join_kind)
            }
        }
    }

    // ------------------------------------------------------------------
    // Loop blocks
    // ------------------------------------------------------------------

    /// Opens a loop block; close with [`SchemaBuilder::loop_end`].
    pub fn loop_start(&mut self) -> NodeId {
        let start = self.append("loop-start", NodeKind::LoopStart);
        self.frames.push(Frame::Loop { start, last: start });
        start
    }

    /// Closes the innermost loop block with the given continuation
    /// condition and returns the `LoopEnd` node.
    pub fn loop_end(&mut self, cond: LoopCond) -> NodeId {
        match self.frames.pop() {
            Some(Frame::Loop { start, last }) => {
                let le = self.schema.add_node("loop-end", NodeKind::LoopEnd);
                if let Err(e) = self.schema.add_control_edge(last, le) {
                    self.errors.push(e);
                }
                if let Err(e) = self.schema.add_loop_edge(le, start, cond) {
                    self.errors.push(e);
                }
                self.set_tail(le);
                le
            }
            other => {
                if let Some(f) = other {
                    self.frames.push(f);
                }
                self.fail("loop_end() without matching loop_start()");
                self.schema.add_node("loop-end", NodeKind::LoopEnd)
            }
        }
    }

    // ------------------------------------------------------------------
    // Data flow and sync edges
    // ------------------------------------------------------------------

    /// Declares a data element.
    pub fn data(&mut self, name: &str, ty: ValueType) -> DataId {
        self.schema.add_data(name, ty)
    }

    /// Adds a mandatory read data edge.
    pub fn read(&mut self, node: NodeId, data: DataId) {
        if let Err(e) = self.schema.add_data_edge(DataEdge::read(node, data)) {
            self.errors.push(e);
        }
    }

    /// Adds an optional read data edge.
    pub fn optional_read(&mut self, node: NodeId, data: DataId) {
        if let Err(e) = self
            .schema
            .add_data_edge(DataEdge::optional_read(node, data))
        {
            self.errors.push(e);
        }
    }

    /// Adds a write data edge.
    pub fn write(&mut self, node: NodeId, data: DataId) {
        if let Err(e) = self.schema.add_data_edge(DataEdge::write(node, data)) {
            self.errors.push(e);
        }
    }

    /// Adds a sync edge between two nodes (validated by `adept-verify`).
    pub fn sync(&mut self, from: NodeId, to: NodeId) {
        if let Err(e) = self.schema.add_sync_edge(from, to) {
            self.errors.push(e);
        }
    }

    // ------------------------------------------------------------------
    // Finish
    // ------------------------------------------------------------------

    /// Finishes the schema: closes the top-level sequence with an `End`
    /// node and returns the schema, or the first construction error.
    pub fn build(mut self) -> Result<ProcessSchema, ModelError> {
        if self.frames.len() != 1 {
            self.fail(format!(
                "{} unclosed block(s) at build()",
                self.frames.len().saturating_sub(1)
            ));
        }
        if let Some(Frame::Seq { last }) = self.frames.last().copied_seq() {
            let end = self.schema.add_node("end", NodeKind::End);
            if let Err(e) = self.schema.add_control_edge(last, end) {
                self.errors.push(e);
            }
        } else {
            self.fail("top frame is not the root sequence");
        }
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        Ok(self.schema)
    }
}

/// Small helper to read a `Seq` frame without moving the enum (keeps the
/// borrow checker happy in `build`).
trait SeqPeek {
    fn copied_seq(&self) -> Option<Frame>;
}

impl SeqPeek for Option<&Frame> {
    fn copied_seq(&self) -> Option<Frame> {
        match self {
            Some(Frame::Seq { last }) => Some(Frame::Seq { last: *last }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Value;
    use crate::edge::{CmpOp, EdgeKind};

    #[test]
    fn sequence_only() {
        let mut b = SchemaBuilder::new("seq");
        let a = b.activity("a");
        let c = b.activity("c");
        let s = b.build().unwrap();
        assert_eq!(s.sole_control_successor(a), Some(c));
        assert_eq!(s.control_successors(s.start_node()).next(), Some(a));
        assert_eq!(s.sole_control_successor(c), Some(s.end_node()));
    }

    #[test]
    fn parallel_block_shape() {
        let mut b = SchemaBuilder::new("par");
        b.and_split();
        b.branch();
        b.activity("a");
        b.branch();
        b.activity("b");
        let join = b.and_join();
        let s = b.build().unwrap();
        let split = s.nodes().find(|n| n.kind == NodeKind::AndSplit).unwrap().id;
        assert_eq!(s.control_successors(split).count(), 2);
        assert_eq!(s.control_predecessors(join).count(), 2);
    }

    #[test]
    fn xor_with_guards_and_else() {
        let mut b = SchemaBuilder::new("xor");
        let amount = b.data("amount", ValueType::Int);
        let g = Guard::new(amount, CmpOp::Ge, Value::Int(1000));
        b.xor_split();
        b.case_when(g.clone());
        b.activity("manual approval");
        b.case();
        b.activity("auto approval");
        b.xor_join();
        let s = b.build().unwrap();
        let split = s.nodes().find(|n| n.kind == NodeKind::XorSplit).unwrap().id;
        let guards: Vec<Option<Guard>> = s
            .out_edges_kind(split, EdgeKind::Control)
            .map(|e| e.guard.clone())
            .collect();
        assert_eq!(guards.len(), 2);
        assert!(guards.contains(&Some(g)));
        assert!(guards.contains(&None));
    }

    #[test]
    fn empty_branch_connects_split_to_join() {
        let mut b = SchemaBuilder::new("skip");
        b.xor_split();
        b.case();
        b.activity("extra step");
        b.case();
        // empty else branch
        let join = b.xor_join();
        let s = b.build().unwrap();
        let split = s.nodes().find(|n| n.kind == NodeKind::XorSplit).unwrap().id;
        assert!(s.edge_between(split, join, EdgeKind::Control).is_some());
    }

    #[test]
    fn loop_block_wiring() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        b.activity("retry");
        let le = b.loop_end(LoopCond::Times(3));
        let s = b.build().unwrap();
        let ls = s
            .nodes()
            .find(|n| n.kind == NodeKind::LoopStart)
            .unwrap()
            .id;
        let loop_edge = s.edge_between(le, ls, EdgeKind::Loop).unwrap();
        assert_eq!(loop_edge.loop_cond, Some(LoopCond::Times(3)));
    }

    #[test]
    fn unbalanced_blocks_error() {
        let mut b = SchemaBuilder::new("bad");
        b.and_split();
        b.branch();
        b.activity("a");
        assert!(matches!(b.build(), Err(ModelError::BuilderState(_))));
    }

    #[test]
    fn join_without_split_errors() {
        let mut b = SchemaBuilder::new("bad");
        b.and_join();
        assert!(matches!(b.build(), Err(ModelError::BuilderState(_))));
    }

    #[test]
    fn node_outside_branch_errors() {
        let mut b = SchemaBuilder::new("bad");
        b.and_split();
        b.activity("a"); // no branch() yet
        assert!(matches!(b.build(), Err(ModelError::BuilderState(_))));
    }

    #[test]
    fn single_branch_block_errors() {
        let mut b = SchemaBuilder::new("bad");
        b.and_split();
        b.branch();
        b.activity("a");
        b.and_join();
        assert!(matches!(b.build(), Err(ModelError::BuilderState(_))));
    }

    #[test]
    fn nested_blocks() {
        let mut b = SchemaBuilder::new("nested");
        b.and_split();
        b.branch();
        b.xor_split();
        b.case();
        b.activity("x");
        b.case();
        b.activity("y");
        b.xor_join();
        b.branch();
        b.loop_start();
        b.activity("z");
        b.loop_end(LoopCond::External);
        b.and_join();
        let s = b.build().unwrap();
        assert!(s.nodes().any(|n| n.kind == NodeKind::XorSplit));
        assert!(s.nodes().any(|n| n.kind == NodeKind::LoopStart));
    }
}
