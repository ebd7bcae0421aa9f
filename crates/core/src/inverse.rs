//! Inverse change operations: undoing ad-hoc deviations.
//!
//! ADEPT's change framework is closed under inversion — every applied
//! operation has a well-defined inverse that restores the previous schema
//! (ADEPTflex used this for rollback of temporary deviations; the demo's
//! monitoring component exposes it as "undo"). Undo is itself a change and
//! runs through the same pre-/post-condition machinery — the engine's undo
//! stages the inverse on a [`crate::ChangeTxn`] like any change: undoing
//! an insert whose activity has already started is rejected exactly like
//! deleting a started activity.

use crate::ops::{AppliedOp, ChangeOp};
use adept_model::ProcessSchema;

/// Computes the inverse of an applied operation, or `None` for operations
/// that cannot be inverted from their record alone.
///
/// * inserts invert to `DeleteActivity` of the inserted node (the delete
///   also dismantles the helper split/join pair of branch/parallel inserts
///   via null-replacement when necessary);
/// * `InsertSyncEdge`/`DeleteSyncEdge` invert to each other;
/// * `AddDataEdge`/`RemoveDataEdge` invert to each other;
/// * `DeleteActivity` of a *nullified* node is not invertible from the
///   record (the original data edges are gone) — callers keep the old
///   schema version for that, as ADEPT does;
/// * `MoveActivity` inverts to the move back (pred/succ of the original
///   position are in the record's removed edges, which reference the old
///   schema — invertible only right after application, which is the undo
///   use case).
pub fn inverse_of(schema: &ProcessSchema, rec: &AppliedOp) -> Option<ChangeOp> {
    match &rec.op {
        ChangeOp::SerialInsert { .. }
        | ChangeOp::ParallelInsert { .. }
        | ChangeOp::BranchInsert { .. } => {
            let node = rec.inserted_activity()?;
            Some(ChangeOp::DeleteActivity { node })
        }
        ChangeOp::InsertSyncEdge { from, to } => Some(ChangeOp::DeleteSyncEdge {
            from: *from,
            to: *to,
        }),
        ChangeOp::DeleteSyncEdge { from, to } => Some(ChangeOp::InsertSyncEdge {
            from: *from,
            to: *to,
        }),
        ChangeOp::AddDataEdge {
            node, data, mode, ..
        } => Some(ChangeOp::RemoveDataEdge {
            node: *node,
            data: *data,
            mode: *mode,
        }),
        ChangeOp::RemoveDataEdge { .. } => None, // optionality lost
        ChangeOp::DeleteActivity { .. } => None, // payload lost
        ChangeOp::MoveActivity { node, .. } => {
            // The old position is the bridge edge's endpoints: the record
            // removed [pin, pout, target]; the bridge (added_edges[0])
            // connects old-pred to old-succ on the *changed* schema.
            let bridge = rec.added_edges.first()?;
            let e = schema.edge(*bridge).ok()?;
            Some(ChangeOp::MoveActivity {
                node: *node,
                pred: e.from,
                succ: e.to,
            })
        }
        ChangeOp::AddDataElement { .. } => None, // deletion op not modelled
        ChangeOp::SetActivityAttributes { .. } => None, // old attrs lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NewActivity;
    use crate::{ChangeError, ChangeTxn, Delta};
    use adept_model::{AccessMode, NodeKind, SchemaBuilder, ValueType};
    use adept_verify::is_correct;
    use std::sync::Arc;

    fn base() -> ProcessSchema {
        let mut b = SchemaBuilder::new("undo");
        b.activity("a");
        b.and_split();
        b.branch();
        b.activity("left");
        b.branch();
        b.activity("right");
        b.and_join();
        b.activity("z");
        b.build().unwrap()
    }

    fn node_of(s: &ProcessSchema, kind: NodeKind) -> adept_model::NodeId {
        s.nodes().find(|n| n.kind == kind).unwrap().id
    }

    /// Commits `op` as an ad-hoc change of `s`, then undoes it the way the
    /// engine does: the inverse computed from the committed record, staged
    /// on a transaction over the changed schema and committed (full
    /// verification). Returns the changed schema, the restored schema and
    /// the resulting bias, purged.
    fn commit_then_undo(
        s: ProcessSchema,
        op: &ChangeOp,
    ) -> (Arc<ProcessSchema>, Arc<ProcessSchema>, Delta) {
        let mut txn = ChangeTxn::begin_ad_hoc(s);
        txn.stage(op).unwrap();
        let done = txn.commit_schema().map_err(|(_, e)| e).unwrap();
        let changed = Arc::clone(&done.target.schema);
        let inv = inverse_of(&changed, &done.delta.ops[0]).expect("invertible");
        let mut txn = ChangeTxn::begin_ad_hoc(Arc::clone(&changed));
        txn.stage(&inv).unwrap();
        let undone = txn.commit_schema().map_err(|(_, e)| e).unwrap();
        let mut bias: Delta = done.delta.ops.into_iter().collect();
        bias.push(undone.delta.ops[0].clone());
        bias.purge();
        (changed, Arc::clone(&undone.target.schema), bias)
    }

    #[test]
    fn serial_insert_then_undo_restores_structure() {
        let original = base();
        let a = original.node_by_name("a").unwrap().id;
        let split = node_of(&original, NodeKind::AndSplit);
        let (_, s, bias) = commit_then_undo(
            original.clone(),
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("tmp"),
                pred: a,
                succ: split,
            },
        );
        assert!(bias.is_empty(), "insert+undo purges to the empty bias");
        assert!(is_correct(&s));
        assert_eq!(s.node_count(), original.node_count());
        assert_eq!(s.edge_count(), original.edge_count());
        assert_eq!(s.sole_control_successor(a), Some(split));
    }

    #[test]
    fn sync_edge_roundtrip() {
        let s = base();
        let left = s.node_by_name("left").unwrap().id;
        let right = s.node_by_name("right").unwrap().id;
        let (changed, s, _) = commit_then_undo(
            s,
            &ChangeOp::InsertSyncEdge {
                from: left,
                to: right,
            },
        );
        assert_eq!(changed.sync_edges().count(), 1);
        assert_eq!(s.sync_edges().count(), 0);
        assert!(is_correct(&s));
    }

    #[test]
    fn move_then_undo_restores_position() {
        let s = base();
        let left = s.node_by_name("left").unwrap().id;
        let right = s.node_by_name("right").unwrap().id;
        let join = node_of(&s, NodeKind::AndJoin);
        // Move "left" behind "right" (into the other branch).
        let (changed, s, _) = commit_then_undo(
            s,
            &ChangeOp::MoveActivity {
                node: left,
                pred: right,
                succ: join,
            },
        );
        assert_eq!(changed.sole_control_successor(right), Some(left));
        assert!(is_correct(&s));
        assert_eq!(
            s.sole_control_successor(left),
            Some(join),
            "left is back on its own branch"
        );
        assert_eq!(s.sole_control_successor(right), Some(join));
    }

    /// Nothing staged, nothing to roll back: an empty change refuses to
    /// unstage, and so does one whose only operation was already undone.
    #[test]
    fn empty_bias_cannot_undo() {
        let s = base();
        let left = s.node_by_name("left").unwrap().id;
        let right = s.node_by_name("right").unwrap().id;
        let mut txn = ChangeTxn::begin_ad_hoc(s);
        assert!(matches!(
            txn.unstage_last(),
            Err(ChangeError::Precondition(_))
        ));
        txn.stage(&ChangeOp::InsertSyncEdge {
            from: left,
            to: right,
        })
        .unwrap();
        txn.unstage_last().unwrap();
        assert!(txn.is_empty());
        assert_eq!(txn.working().sync_edges().count(), 0);
        assert!(matches!(
            txn.unstage_last(),
            Err(ChangeError::Precondition(_))
        ));
    }

    #[test]
    fn data_edge_roundtrip() {
        let mut b = SchemaBuilder::new("d");
        let d = b.data("x", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        let r = b.activity("r");
        let (changed, s, _) = commit_then_undo(
            b.build().unwrap(),
            &ChangeOp::AddDataEdge {
                node: r,
                data: d,
                mode: AccessMode::Read,
                optional: false,
            },
        );
        assert_eq!(changed.readers_of(d).count(), 1);
        assert_eq!(s.readers_of(d).count(), 0);
    }
}
