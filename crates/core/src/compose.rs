//! Op-composition helpers for recovery synthesizers.
//!
//! The adaptation loop (crate `adept-adapt`) turns deviations into staged
//! change transactions built from the existing [`ChangeOp`] vocabulary.
//! These helpers answer the small structural questions every synthesizer
//! asks — "where does this activity hand off to?", "which loop encloses
//! it?" — and assemble the recurring op shapes (skip, compensation
//! insert, attribute rewrite) without the caller re-deriving graph
//! positions by hand.

use crate::ops::{ChangeOp, NewActivity};
use adept_model::{ActivityAttributes, Blocks, NodeId, ProcessSchema};

/// The unique control-flow successor of a node, if it has exactly one.
/// Splits (several successors) and the end node (none) return `None` —
/// insertion after them would be ambiguous.
pub fn control_successor(schema: &ProcessSchema, n: NodeId) -> Option<NodeId> {
    let mut it = schema.control_successors(n);
    let first = it.next()?;
    it.next().is_none().then_some(first)
}

/// The unique control-flow predecessor of a node, if it has exactly one
/// (the mirror of [`control_successor`] for joins and the start node).
pub fn control_predecessor(schema: &ProcessSchema, n: NodeId) -> Option<NodeId> {
    let mut it = schema.control_predecessors(n);
    let first = it.next()?;
    it.next().is_none().then_some(first)
}

/// The op removing an activity from the flow — compliant while the node
/// is still pending (paper Fig. 1: `deleteActivity`).
pub fn skip_activity(node: NodeId) -> ChangeOp {
    ChangeOp::DeleteActivity { node }
}

/// Inserts `activity` serially right after `node`, between `node` and its
/// unique successor. `None` if the successor is ambiguous or missing.
pub fn insert_after(
    schema: &ProcessSchema,
    node: NodeId,
    activity: NewActivity,
) -> Option<ChangeOp> {
    let succ = control_successor(schema, node)?;
    Some(ChangeOp::SerialInsert {
        activity,
        pred: node,
        succ,
    })
}

/// A compensation activity named `name`, inserted directly after the
/// `failed` activity — the "insert-compensation" recovery shape.
pub fn compensation_for(
    schema: &ProcessSchema,
    failed: NodeId,
    name: impl Into<std::sync::Arc<str>>,
) -> Option<ChangeOp> {
    insert_after(schema, failed, NewActivity::named(name))
}

/// Rewrites an activity's attributes through `f` (on a copy of the
/// current ones) as a `SetActivityAttributes` op — the carrier for
/// retry-bias notes and worklist escalations. `None` for unknown nodes.
pub fn annotate_activity(
    schema: &ProcessSchema,
    node: NodeId,
    f: impl FnOnce(&mut ActivityAttributes),
) -> Option<ChangeOp> {
    let mut attrs = schema.node(node).ok()?.attrs.clone();
    f(&mut attrs);
    Some(ChangeOp::SetActivityAttributes { node, attrs })
}

/// The `(loop_start, loop_end)` pair of the innermost loop block
/// enclosing `node`, if any — the jump-back target of loop-reset
/// recovery.
pub fn enclosing_loop(blocks: &Blocks, node: NodeId) -> Option<(NodeId, NodeId)> {
    blocks.innermost_loop(node).map(|b| (b.split, b.join))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::SchemaBuilder;

    #[test]
    fn successor_and_shapes() {
        let mut b = SchemaBuilder::new("t");
        let a = b.activity("a");
        let c = b.activity("c");
        let s = b.build().unwrap();
        assert_eq!(control_successor(&s, a), Some(c));
        assert_eq!(control_predecessor(&s, c), Some(a));
        let op = compensation_for(&s, a, "undo a").unwrap();
        match &op {
            ChangeOp::SerialInsert {
                activity,
                pred,
                succ,
            } => {
                assert_eq!(&*activity.name, "undo a");
                assert_eq!((*pred, *succ), (a, c));
            }
            other => panic!("unexpected op {other}"),
        }
        let ann = annotate_activity(&s, a, |attrs| attrs.skippable = true).unwrap();
        match &ann {
            ChangeOp::SetActivityAttributes { node, attrs } => {
                assert_eq!(*node, a);
                assert!(attrs.skippable);
            }
            other => panic!("unexpected op {other}"),
        }
        assert!(matches!(skip_activity(a), ChangeOp::DeleteActivity { node } if node == a));
        // End node has no unique successor.
        assert_eq!(control_successor(&s, s.end_node()), None);
    }

    #[test]
    fn finds_enclosing_loop() {
        let mut b = SchemaBuilder::new("l");
        let before = b.activity("before");
        let ls = b.loop_start();
        b.activity("body");
        let le = b.loop_end(adept_model::LoopCond::External);
        let s = b.build().unwrap();
        let body = s.node_by_name("body").unwrap().id;
        let blocks = Blocks::analyze(&s).unwrap();
        assert_eq!(enclosing_loop(&blocks, body), Some((ls, le)));
        assert_eq!(enclosing_loop(&blocks, before), None);
    }
}
