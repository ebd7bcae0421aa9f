//! What a change operation can break: the verification [`Scope`] of the
//! operations that made an overlay from a correct schema.
//!
//! Each operation's structural preconditions are checked when it is
//! applied, and the schema it is applied to passed verification (a
//! deployed version, an instance's verified schema, a new type version).
//! So the verifier need only look where an operation can change a
//! finding: the nodes whose control edges or kind it changed, and the data
//! elements whose flow it changed. Parts of that are read from the schema
//! *before* the operation runs — the data edges of a node being deleted or
//! moved, the neighbours it is cut from — so every application, fresh or
//! replayed (`crate::apply`), widens its scope here before it runs and by
//! the nodes it added after.

use crate::ops::{ChangeOp, NewActivity};
use adept_model::{EdgeKind, NodeId, ProcessSchema};
use adept_verify::Scope;

/// Widens `scope` by what applying `op` to `schema` can change, read
/// before it is applied; the nodes the application adds come on top.
pub(crate) fn widen(scope: &mut Scope, schema: &ProcessSchema, op: &ChangeOp) {
    let data_of_node = |scope: &mut Scope, n: NodeId| {
        scope.data.extend(schema.data_edges_of(n).map(|de| de.data));
    };
    let neighbours = |scope: &mut Scope, n: NodeId| {
        let pred = schema.in_edges_kind(n, EdgeKind::Control).map(|e| e.from);
        let succ = schema.out_edges_kind(n, EdgeKind::Control).map(|e| e.to);
        scope.nodes.extend(pred.chain(succ));
    };
    match op {
        ChangeOp::SerialInsert {
            activity,
            pred,
            succ,
        } => {
            scope.nodes.extend([*pred, *succ]);
            activity_data(scope, activity);
        }
        ChangeOp::ParallelInsert { activity, from, to } => {
            scope.nodes.extend([*from, *to]);
            scope.nodes.extend(schema.sole_control_predecessor(*from));
            scope.nodes.extend(schema.sole_control_successor(*to));
            activity_data(scope, activity);
        }
        ChangeOp::BranchInsert {
            activity,
            pred,
            succ,
            guard,
        } => {
            scope.nodes.extend([*pred, *succ]);
            activity_data(scope, activity);
            scope.data.extend(guard.as_ref().map(|g| g.data));
        }
        ChangeOp::DeleteActivity { node } => {
            scope.nodes.push(*node);
            neighbours(scope, *node);
            data_of_node(scope, *node);
        }
        ChangeOp::MoveActivity { node, pred, succ } => {
            scope.nodes.extend([*node, *pred, *succ]);
            neighbours(scope, *node);
            data_of_node(scope, *node);
        }
        // An added wait only adds guarantees; staging refused a cycle.
        ChangeOp::InsertSyncEdge { from, to } => scope.nodes.extend([*from, *to]),
        ChangeOp::DeleteSyncEdge { from, to } => {
            scope.nodes.extend([*from, *to]);
            scope.all_data = true;
        }
        // A new element has no edges yet.
        ChangeOp::AddDataElement { .. } => {}
        ChangeOp::AddDataEdge { data, .. } | ChangeOp::RemoveDataEdge { data, .. } => {
            scope.data.push(*data);
        }
        // The verifier reads no attribute.
        ChangeOp::SetActivityAttributes { .. } => {}
    }
}

/// The data elements an inserted activity reads or writes.
fn activity_data(scope: &mut Scope, activity: &NewActivity) {
    let NewActivity {
        reads,
        optional_reads,
        writes,
        ..
    } = activity;
    scope
        .data
        .extend(reads.iter().chain(optional_reads).chain(writes));
}
