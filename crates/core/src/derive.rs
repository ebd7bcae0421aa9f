//! What a change operation does to the block structure of the schema it
//! changes. The operations keep a schema block-structured — that is what
//! their preconditions are for — so each one's effect on the structure is
//! a local edit of the structure before it ([`adept_model::Blocks`]'s
//! block edits), read off its application record: a schema made by
//! operations from an analysed one is never analysed again.
//!
//! Debug builds hold every derived structure to a full analysis of the
//! schema it was derived for ([`Blocks::assert_derived`]).

use crate::ops::{AppliedOp, ChangeOp};
use adept_model::{Blocks, EdgeId, ProcessSchema};
use std::sync::Arc;

/// Edits `blocks`, the structure of `schema` before `rec` was applied to
/// it, into the structure after. `rec` is the record of the application
/// that just ran — the ids it really allocated and removed.
pub(crate) fn derive(blocks: &mut Arc<Blocks>, schema: &ProcessSchema, rec: &AppliedOp) {
    let (added, removed) = (&rec.added_edges, &rec.removed_edges);
    match &rec.op {
        // The activity sits on the edge it replaced.
        ChangeOp::SerialInsert { .. } => {
            let b = Arc::make_mut(blocks);
            b.rename_edges(schema, &[(removed[0], added[0])]);
            b.place_node(schema, rec.added_nodes[0]);
        }
        // A new block on the edge into its split: a branch insert's on the
        // edge it replaced, a parallel insert's around the region it wraps.
        ChangeOp::BranchInsert { .. } | ChangeOp::ParallelInsert { .. } => {
            let b = Arc::make_mut(blocks);
            b.rename_edges(schema, &[(removed[0], added[0])]);
            b.place_block(schema, rec.added_nodes[1], rec.added_nodes[2]);
        }
        // A null replacement changes a kind no block reads.
        ChangeOp::DeleteActivity { node } if !rec.removed_nodes.is_empty() => {
            let b = Arc::make_mut(blocks);
            b.rename_edges(schema, &[(removed[0], added[0])]);
            b.remove_node(*node);
        }
        // Bridged where it was, placed where it went.
        ChangeOp::MoveActivity { node, .. } => {
            let b = Arc::make_mut(blocks);
            b.rename_edges(schema, &[(removed[0], added[0]), (removed[2], added[1])]);
            b.remove_node(*node);
            b.place_node(schema, *node);
        }
        // No control edge changes: the structure stays shared.
        ChangeOp::DeleteActivity { .. }
        | ChangeOp::InsertSyncEdge { .. }
        | ChangeOp::DeleteSyncEdge { .. }
        | ChangeOp::AddDataElement { .. }
        | ChangeOp::AddDataEdge { .. }
        | ChangeOp::RemoveDataEdge { .. }
        | ChangeOp::SetActivityAttributes { .. } => return,
    }
    if cfg!(debug_assertions) {
        blocks.assert_derived(schema);
    }
}

/// Edits `blocks` for edges renamed in `schema` (`(old, new)`: `new`
/// stands where `old` stood) — a purged bias's bridges. Only a renamed
/// edge that leaves a split changes the structure; otherwise it stays
/// shared.
pub(crate) fn rename(
    blocks: &mut Arc<Blocks>,
    schema: &ProcessSchema,
    renamed: &[(EdgeId, EdgeId)],
) {
    let leaves_a_split = |&(_, new): &(EdgeId, EdgeId)| {
        let from = schema.edge(new).map(|e| e.from);
        from.is_ok_and(|from| blocks.by_split.contains_key(&from))
    };
    if !renamed.iter().any(leaves_a_split) {
        return;
    }
    Arc::make_mut(blocks).rename_edges(schema, renamed);
    if cfg!(debug_assertions) {
        blocks.assert_derived(schema);
    }
}
