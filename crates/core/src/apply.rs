//! Applying change operations to schemas.
//!
//! Every application starts from a schema whose block structure is known:
//! its preconditions read that structure (a sync edge's branches), and it
//! edits the structure into the changed schema's (`crate::derive`), so a
//! schema made by operations from an analysed one is never analysed
//! again. Each application also widens the verification scope of the
//! change it belongs to by what it touched (`crate::scope`). It comes in
//! two forms: `apply` for a fresh operation and `replay` for a
//! recorded one, with its recorded ids.
//!
//! A replay is how a biased instance's ad-hoc changes are transplanted
//! onto a new schema version during migration ([`replay_bias`]): because
//! instance-level changes allocate ids in the private id space
//! ([`ProcessSchema::PRIVATE_ID_BASE`]), the recorded ids are always free
//! on the evolved type schema and the instance's marking and history
//! remain valid without any re-mapping.
//!
//! [`apply_op`] is the one-operation entry on a bare schema: it analyses
//! its input once, applies the operation to a *copy* over the derived
//! structure, verifies the copy whole as the postcondition, and only then
//! commits — applying a change can therefore never leave a corrupt schema
//! behind, which is the paper's central robustness guarantee for dynamic
//! changes. It is the contract a type evolution's commit runs.

use crate::delta::Delta;
use crate::derive::derive;
use crate::error::ChangeError;
use crate::ops::{AppliedOp, ChangeOp, NewActivity};
use crate::scope::widen;
use adept_model::graph::{self, EdgeFilter};
use adept_model::{
    AccessMode, Blocks, DataEdge, DataId, Edge, EdgeId, EdgeKind, NodeId, NodeKind, ProcessSchema,
    SchemaIndex,
};
use adept_state::Execution;
use adept_verify::{verify_indexed, Scope};
use std::sync::Arc;

/// Applies a change operation with full pre-/post-condition checking.
///
/// On success the schema is updated in place and the application record is
/// returned; on failure the schema is untouched. The schema is analysed
/// once, before the operation; the changed schema's block structure is
/// derived from that analysis and verified whole with it.
pub fn apply_op(schema: &mut ProcessSchema, op: &ChangeOp) -> Result<AppliedOp, ChangeError> {
    let analysed = Blocks::analyze(schema)
        .map_err(|e| ChangeError::Precondition(format!("block analysis failed: {e}")))?;
    let mut blocks = Arc::new(analysed);
    let mut copy = schema.clone();
    let rec = apply(&mut copy, op, &mut blocks, &mut Scope::default())?;
    let report = verify_indexed(&SchemaIndex::of(&copy), Ok(&blocks), &Scope::WHOLE);
    if !report.is_correct() {
        return Err(ChangeError::PostconditionViolated(report.error_summary()));
    }
    *schema = copy;
    Ok(rec)
}

/// The schema a biased instance runs on, its block structure and the
/// verification scope of the bias: a copy of `base`'s schema with the
/// private id space reserved and every op of `bias` replayed onto it with
/// its recorded ids, each deriving the blocks from `base`'s (nothing is
/// analysed) and widening the scope by what it touched. The one way a
/// biased schema is built — a migration hop's target on the new version,
/// verified over that scope, and an instance's context after a restore.
///
/// A replay fails if an op's anchors no longer exist or one of its
/// recorded ids is already taken — which the migration layer reports as a
/// *structural conflict* between the type change and the instance bias.
/// On failure the op that did not replay is named beside its error.
///
/// The id space is reserved again at the end: ids the bias allocated and
/// released again (an inserted sync edge it deleted) are free, so the
/// rebuilt schema allocates exactly as the one the bias was applied to.
pub fn replay_bias<'a>(
    base: &Execution,
    bias: &'a Delta,
) -> Result<(ProcessSchema, Arc<Blocks>, Scope), (&'a ChangeOp, ChangeError)> {
    let mut schema = ProcessSchema::clone(&base.schema);
    let mut blocks = Arc::clone(&base.blocks);
    let mut scope = Scope::default();
    schema.reserve_private_id_space();
    for rec in &bias.ops {
        replay(&mut schema, rec, &mut blocks, &mut scope).map_err(|e| (&rec.op, e))?;
    }
    schema.reserve_private_id_space();
    Ok((schema, blocks, scope))
}

// ----------------------------------------------------------------------
// Application
// ----------------------------------------------------------------------

/// Applies `op` to `schema` in place with its structural preconditions
/// checked against `blocks`, the structure of `schema`, edits `blocks`
/// into the structure of the changed schema, and widens `scope` by what
/// the operation touched. On failure `schema` may hold part of the
/// operation and `scope` may have been widened, so callers rebuild both
/// or drop them; `blocks` are untouched.
pub(crate) fn apply(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    blocks: &mut Arc<Blocks>,
    scope: &mut Scope,
) -> Result<AppliedOp, ChangeError> {
    applied(schema, op, None, blocks, scope)
}

/// `apply` of `rec`'s operation with the ids `rec` recorded, in place,
/// copying nothing. The operations that allocate no recorded ids (a
/// delete's or a move's bridge) allocate afresh, as the original
/// application did. Same failure contract: callers replay onto a schema
/// they discard on failure — a migration hop's private target, an overlay
/// being rebuilt from its base.
pub(crate) fn replay(
    schema: &mut ProcessSchema,
    rec: &AppliedOp,
    blocks: &mut Arc<Blocks>,
    scope: &mut Scope,
) -> Result<(), ChangeError> {
    let mut forced = ForcedIds::new(rec);
    applied(schema, &rec.op, Some(&mut forced), blocks, scope).map(drop)
}

/// The one body of `apply` and `replay`.
fn applied(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    forced: Option<&mut ForcedIds<'_>>,
    blocks: &mut Arc<Blocks>,
    scope: &mut Scope,
) -> Result<AppliedOp, ChangeError> {
    widen(scope, schema, op);
    let rec = match op {
        ChangeOp::SerialInsert {
            activity,
            pred,
            succ,
        } => serial_insert(schema, op, activity, *pred, *succ, forced),
        ChangeOp::ParallelInsert { activity, from, to } => {
            parallel_insert(schema, op, activity, *from, *to, forced)
        }
        ChangeOp::BranchInsert {
            activity,
            pred,
            succ,
            guard,
        } => branch_insert(schema, op, activity, *pred, *succ, guard.clone(), forced),
        ChangeOp::DeleteActivity { node } => delete_activity(schema, op, *node),
        ChangeOp::MoveActivity { node, pred, succ } => {
            move_activity(schema, op, *node, *pred, *succ)
        }
        ChangeOp::InsertSyncEdge { from, to } => {
            insert_sync_edge(schema, op, *from, *to, blocks, forced)
        }
        ChangeOp::DeleteSyncEdge { from, to } => delete_sync_edge(schema, op, *from, *to),
        ChangeOp::AddDataElement { name, ty } => {
            let d = match forced {
                None => schema.add_data(name.as_str(), *ty),
                Some(f) => {
                    let d = f.data.ok_or_else(|| {
                        ChangeError::Precondition("recorded data id missing".into())
                    })?;
                    schema.add_data_at(d, name.as_str(), *ty)?;
                    d
                }
            };
            let mut rec = AppliedOp::plain(op.clone());
            rec.added_data.push(d);
            Ok(rec)
        }
        ChangeOp::AddDataEdge {
            node,
            data,
            mode,
            optional,
        } => {
            require_activity(schema, *node)?;
            schema.data_element(*data)?;
            let de = match (mode, optional) {
                (AccessMode::Read, false) => DataEdge::read(*node, *data),
                (AccessMode::Read, true) => DataEdge::optional_read(*node, *data),
                (AccessMode::Write, _) => DataEdge::write(*node, *data),
            };
            schema.add_data_edge(de)?;
            Ok(AppliedOp::plain(op.clone()))
        }
        ChangeOp::RemoveDataEdge { node, data, mode } => {
            schema.remove_data_edge(*node, *data, *mode)?;
            Ok(AppliedOp::plain(op.clone()))
        }
        ChangeOp::SetActivityAttributes { node, attrs } => {
            require_activity(schema, *node)?;
            schema.node_mut(*node)?.attrs = attrs.clone();
            Ok(AppliedOp::plain(op.clone()))
        }
    }?;
    derive(blocks, schema, &rec);
    scope.nodes.extend(&rec.added_nodes);
    Ok(rec)
}

/// Forced-id application: supplies the node/edge/data ids to use, in the
/// order a fresh application allocated them originally.
struct ForcedIds<'a> {
    nodes: Vec<NodeId>,
    edges: &'a [EdgeId],
    data: Option<DataId>,
    next_node: usize,
    next_edge: usize,
}

impl<'a> ForcedIds<'a> {
    fn new(rec: &'a AppliedOp) -> Self {
        let mut nodes = rec.added_nodes.clone();
        // A block insert records its activity first (`inserted_activity`)
        // but allocates the block's split before it.
        if matches!(
            rec.op,
            ChangeOp::ParallelInsert { .. } | ChangeOp::BranchInsert { .. }
        ) && nodes.len() > 1
        {
            nodes.swap(0, 1);
        }
        Self {
            nodes,
            edges: &rec.added_edges,
            data: rec.added_data.first().copied(),
            next_node: 0,
            next_edge: 0,
        }
    }
}

/// Allocates a node either freshly or at the next recorded id.
fn alloc_node(
    schema: &mut ProcessSchema,
    forced: &mut Option<&mut ForcedIds<'_>>,
    name: impl Into<Arc<str>>,
    kind: NodeKind,
) -> Result<NodeId, ChangeError> {
    match forced {
        None => Ok(schema.add_node(name, kind)),
        Some(f) => {
            let id = *f
                .nodes
                .get(f.next_node)
                .ok_or_else(|| ChangeError::Precondition("recorded node ids exhausted".into()))?;
            f.next_node += 1;
            Ok(schema.add_node_at(id, name, kind)?)
        }
    }
}

/// Adds the activity node of an insert, with the request's name (shared,
/// not copied) and attributes.
fn alloc_activity(
    schema: &mut ProcessSchema,
    forced: &mut Option<&mut ForcedIds<'_>>,
    activity: &NewActivity,
) -> Result<NodeId, ChangeError> {
    let x = alloc_node(schema, forced, activity.name.clone(), NodeKind::Activity)?;
    schema.node_mut(x)?.attrs = activity.attrs.clone();
    Ok(x)
}

/// Adds an edge either freshly or at the next recorded id.
fn alloc_edge(
    schema: &mut ProcessSchema,
    forced: &mut Option<&mut ForcedIds<'_>>,
    e: Edge,
) -> Result<EdgeId, ChangeError> {
    match forced {
        None => match e.kind {
            EdgeKind::Control => Ok(schema.add_guarded_edge(e.from, e.to, e.guard)?),
            EdgeKind::Sync => Ok(schema.add_sync_edge(e.from, e.to)?),
            EdgeKind::Loop => Ok(schema.add_loop_edge(
                e.from,
                e.to,
                e.loop_cond.ok_or_else(|| {
                    ChangeError::Precondition("loop edge without condition".into())
                })?,
            )?),
        },
        Some(f) => {
            let id = *f
                .edges
                .get(f.next_edge)
                .ok_or_else(|| ChangeError::Precondition("recorded edge ids exhausted".into()))?;
            f.next_edge += 1;
            Ok(schema.add_edge_at(id, e)?)
        }
    }
}

// ----------------------------------------------------------------------
// Individual operations
// ----------------------------------------------------------------------

fn require_activity(schema: &ProcessSchema, n: NodeId) -> Result<(), ChangeError> {
    let node = schema.node(n)?;
    if node.kind != NodeKind::Activity {
        return Err(ChangeError::Precondition(format!(
            "{n} is a {} node, not an activity",
            node.kind
        )));
    }
    Ok(())
}

fn attach_data_edges(
    schema: &mut ProcessSchema,
    node: NodeId,
    activity: &NewActivity,
) -> Result<(), ChangeError> {
    for d in &activity.reads {
        schema.data_element(*d)?;
        schema.add_data_edge(DataEdge::read(node, *d))?;
    }
    for d in &activity.optional_reads {
        schema.data_element(*d)?;
        schema.add_data_edge(DataEdge::optional_read(node, *d))?;
    }
    for d in &activity.writes {
        schema.data_element(*d)?;
        schema.add_data_edge(DataEdge::write(node, *d))?;
    }
    Ok(())
}

fn control_edge_between(
    schema: &ProcessSchema,
    pred: NodeId,
    succ: NodeId,
) -> Result<EdgeId, ChangeError> {
    schema
        .edge_between(pred, succ, EdgeKind::Control)
        .map(|e| e.id)
        .ok_or_else(|| {
            ChangeError::Precondition(format!("no control edge between {pred} and {succ}"))
        })
}

fn serial_insert(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    activity: &NewActivity,
    pred: NodeId,
    succ: NodeId,
    mut forced: Option<&mut ForcedIds<'_>>,
) -> Result<AppliedOp, ChangeError> {
    let old_edge_id = control_edge_between(schema, pred, succ)?;
    let old = schema.remove_edge(old_edge_id)?;
    let x = alloc_activity(schema, &mut forced, activity)?;
    let mut e1 = Edge::control(EdgeId(0), pred, x);
    e1.guard = old.guard.clone(); // preserve an XOR branch guard
    let e1 = alloc_edge(schema, &mut forced, e1)?;
    let e2 = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), x, succ))?;
    attach_data_edges(schema, x, activity)?;
    let mut rec = AppliedOp::plain(op.clone());
    rec.added_nodes.push(x);
    rec.added_edges.extend([e1, e2]);
    rec.removed_edges.push(old_edge_id);
    Ok(rec)
}

fn branch_insert(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    activity: &NewActivity,
    pred: NodeId,
    succ: NodeId,
    guard: Option<adept_model::Guard>,
    mut forced: Option<&mut ForcedIds<'_>>,
) -> Result<AppliedOp, ChangeError> {
    let old_edge_id = control_edge_between(schema, pred, succ)?;
    let old = schema.remove_edge(old_edge_id)?;
    let split = alloc_node(schema, &mut forced, "xor-split", NodeKind::XorSplit)?;
    let x = alloc_activity(schema, &mut forced, activity)?;
    let join = alloc_node(schema, &mut forced, "xor-join", NodeKind::XorJoin)?;
    let mut entry = Edge::control(EdgeId(0), pred, split);
    entry.guard = old.guard.clone();
    let entry = alloc_edge(schema, &mut forced, entry)?;
    let mut to_x = Edge::control(EdgeId(0), split, x);
    to_x.guard = guard;
    let to_x = alloc_edge(schema, &mut forced, to_x)?;
    let x_join = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), x, join))?;
    let else_edge = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), split, join))?;
    let exit = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), join, succ))?;
    attach_data_edges(schema, x, activity)?;
    let mut rec = AppliedOp::plain(op.clone());
    rec.added_nodes.extend([x, split, join]);
    rec.added_edges
        .extend([entry, to_x, x_join, else_edge, exit]);
    rec.removed_edges.push(old_edge_id);
    Ok(rec)
}

fn parallel_insert(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    activity: &NewActivity,
    from: NodeId,
    to: NodeId,
    mut forced: Option<&mut ForcedIds<'_>>,
) -> Result<AppliedOp, ChangeError> {
    schema.node(from)?;
    schema.node(to)?;
    let pred = schema.sole_control_predecessor(from).ok_or_else(|| {
        ChangeError::Precondition(format!("{from} must have exactly one control predecessor"))
    })?;
    let succ = schema.sole_control_successor(to).ok_or_else(|| {
        ChangeError::Precondition(format!("{to} must have exactly one control successor"))
    })?;
    // The region from..to must be single-entry/single-exit over control
    // edges: compute it and check its boundary.
    let fwd = graph::reachable_from(schema, from, EdgeFilter::CONTROL);
    let back = graph::reaching_to(schema, to, EdgeFilter::CONTROL);
    let region: std::collections::BTreeSet<NodeId> = fwd.intersection(&back).copied().collect();
    if !region.contains(&from) || !region.contains(&to) {
        return Err(ChangeError::Precondition(format!(
            "{to} is not reachable from {from}"
        )));
    }
    for e in schema.edges().filter(|e| e.kind == EdgeKind::Control) {
        let enters = !region.contains(&e.from) && region.contains(&e.to);
        let leaves = region.contains(&e.from) && !region.contains(&e.to);
        if enters && !(e.from == pred && e.to == from) {
            return Err(ChangeError::Precondition(format!(
                "region {from}..{to} has a second entry edge {e}"
            )));
        }
        if leaves && !(e.from == to && e.to == succ) {
            return Err(ChangeError::Precondition(format!(
                "region {from}..{to} has a second exit edge {e}"
            )));
        }
    }
    // A loop's body is a control chain, so a region can hold one end of a
    // loop without the other: the new block would cross the loop's.
    for e in schema.loop_edges() {
        if region.contains(&e.from) != region.contains(&e.to) {
            return Err(ChangeError::Precondition(format!(
                "region {from}..{to} cuts the loop {}..{}",
                e.to, e.from
            )));
        }
    }

    let entry_id = control_edge_between(schema, pred, from)?;
    let exit_id = control_edge_between(schema, to, succ)?;
    let entry_old = schema.remove_edge(entry_id)?;
    let _exit_old = schema.remove_edge(exit_id)?;

    let split = alloc_node(schema, &mut forced, "and-split", NodeKind::AndSplit)?;
    let x = alloc_activity(schema, &mut forced, activity)?;
    let join = alloc_node(schema, &mut forced, "and-join", NodeKind::AndJoin)?;
    let mut e_p_split = Edge::control(EdgeId(0), pred, split);
    e_p_split.guard = entry_old.guard.clone();
    let e_p_split = alloc_edge(schema, &mut forced, e_p_split)?;
    let e_split_from = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), split, from))?;
    let e_split_x = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), split, x))?;
    let e_x_join = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), x, join))?;
    let e_to_join = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), to, join))?;
    let e_join_succ = alloc_edge(schema, &mut forced, Edge::control(EdgeId(0), join, succ))?;
    attach_data_edges(schema, x, activity)?;

    let mut rec = AppliedOp::plain(op.clone());
    rec.added_nodes.extend([x, split, join]);
    rec.added_edges.extend([
        e_p_split,
        e_split_from,
        e_split_x,
        e_x_join,
        e_to_join,
        e_join_succ,
    ]);
    rec.removed_edges.extend([entry_id, exit_id]);
    Ok(rec)
}

fn delete_activity(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    node: NodeId,
) -> Result<AppliedOp, ChangeError> {
    let kind = schema.node(node)?.kind;
    if !matches!(kind, NodeKind::Activity | NodeKind::Null) {
        return Err(ChangeError::Precondition(format!(
            "{node} is a {kind} node; only activities can be deleted"
        )));
    }
    let cin: Vec<EdgeId> = schema
        .in_edges_kind(node, EdgeKind::Control)
        .map(|e| e.id)
        .collect();
    let cout: Vec<EdgeId> = schema
        .out_edges_kind(node, EdgeKind::Control)
        .map(|e| e.id)
        .collect();
    let has_sync = schema.in_edges_kind(node, EdgeKind::Sync).next().is_some()
        || schema.out_edges_kind(node, EdgeKind::Sync).next().is_some();

    let mut rec = AppliedOp::plain(op.clone());
    if cin.len() == 1 && cout.len() == 1 && !has_sync {
        let pin = schema.edge(cin[0])?.clone();
        let pout = schema.edge(cout[0])?.clone();
        // Physical removal is only possible if the bridge edge does not
        // already exist (e.g. the deleted node sat parallel to an empty
        // XOR branch) — and never for the head of an XOR branch: recorded
        // branch decisions (`XorChosen`) reference the head node, and
        // replacing it by a silent null task (ADEPT's "empty activity")
        // keeps those decisions resolvable during compliance replay.
        let is_xor_branch_head = schema.node(pin.from).map(|n| n.kind) == Ok(NodeKind::XorSplit);
        if schema
            .edge_between(pin.from, pout.to, EdgeKind::Control)
            .is_none()
            && pin.from != pout.to
            && !is_xor_branch_head
        {
            schema.remove_edge(pin.id)?;
            schema.remove_edge(pout.id)?;
            let removed = schema.remove_node(node)?;
            let mut bridge = Edge::control(EdgeId(0), pin.from, pout.to);
            bridge.guard = pin.guard.clone();
            let bridge = schema.add_guarded_edge(pin.from, pout.to, bridge.guard)?;
            let _ = removed;
            rec.removed_nodes.push(node);
            rec.removed_edges.extend([pin.id, pout.id]);
            rec.added_edges.push(bridge);
            return Ok(rec);
        }
    }
    // Null replacement: keep the node and its edges, silence it.
    let data_edges: Vec<DataEdge> = schema.data_edges_of(node).cloned().collect();
    for de in data_edges {
        schema.remove_data_edge(de.node, de.data, de.mode)?;
    }
    let n = schema.node_mut(node)?;
    n.kind = NodeKind::Null;
    rec.nullified_nodes.push(node);
    Ok(rec)
}

fn move_activity(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    node: NodeId,
    pred: NodeId,
    succ: NodeId,
) -> Result<AppliedOp, ChangeError> {
    require_activity(schema, node)?;
    if node == pred || node == succ {
        return Err(ChangeError::Precondition(
            "cannot move an activity next to itself".into(),
        ));
    }
    let cin: Vec<EdgeId> = schema
        .in_edges_kind(node, EdgeKind::Control)
        .map(|e| e.id)
        .collect();
    let cout: Vec<EdgeId> = schema
        .out_edges_kind(node, EdgeKind::Control)
        .map(|e| e.id)
        .collect();
    if cin.len() != 1 || cout.len() != 1 {
        return Err(ChangeError::Precondition(format!(
            "{node} is not serial (1 in / 1 out control edge) and cannot be moved"
        )));
    }
    let has_sync = schema.in_edges_kind(node, EdgeKind::Sync).next().is_some()
        || schema.out_edges_kind(node, EdgeKind::Sync).next().is_some();
    if has_sync {
        return Err(ChangeError::Precondition(format!(
            "{node} has sync edges; delete them before moving"
        )));
    }
    // Moving the head of an XOR branch away would orphan recorded branch
    // decisions that reference it (see delete_activity): refuse.
    if let Some(p) = schema.sole_control_predecessor(node) {
        if schema.node(p)?.kind == NodeKind::XorSplit {
            return Err(ChangeError::Precondition(format!(
                "{node} heads an XOR branch; branch decisions may reference it — delete + insert instead"
            )));
        }
    }
    let target_edge = control_edge_between(schema, pred, succ)?;
    let pin = schema.edge(cin[0])?.clone();
    let pout = schema.edge(cout[0])?.clone();
    if schema
        .edge_between(pin.from, pout.to, EdgeKind::Control)
        .is_some()
        || pin.from == pout.to
    {
        return Err(ChangeError::Precondition(format!(
            "removing {node} from its current position would duplicate an edge"
        )));
    }

    let mut rec = AppliedOp::plain(op.clone());
    // Detach from the old position.
    schema.remove_edge(pin.id)?;
    schema.remove_edge(pout.id)?;
    let bridge = schema.add_guarded_edge(pin.from, pout.to, pin.guard.clone())?;
    // Re-attach between pred and succ.
    let old = schema.remove_edge(target_edge)?;
    let mut e1 = Edge::control(EdgeId(0), pred, node);
    e1.guard = old.guard.clone();
    let e1 = schema.add_guarded_edge(pred, node, e1.guard)?;
    let e2 = schema.add_control_edge(node, succ)?;
    rec.removed_edges.extend([pin.id, pout.id, target_edge]);
    rec.added_edges.extend([bridge, e1, e2]);
    Ok(rec)
}

fn insert_sync_edge(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    from: NodeId,
    to: NodeId,
    blocks: &Blocks,
    mut forced: Option<&mut ForcedIds<'_>>,
) -> Result<AppliedOp, ChangeError> {
    schema.node(from)?;
    schema.node(to)?;
    if from == to {
        return Err(ChangeError::Precondition(
            "sync edge cannot be a self loop".into(),
        ));
    }
    if blocks.parallel_separator(from, to).is_none() {
        return Err(ChangeError::Precondition(format!(
            "{from} and {to} are not in different branches of one parallel block"
        )));
    }
    if !blocks.same_loop_context(from, to) {
        return Err(ChangeError::Precondition(format!(
            "sync edge {from} -> {to} would cross a loop boundary"
        )));
    }
    // A path to -> from over control+sync edges means the new edge closes a
    // deadlock-causing cycle (paper Fig. 1, instance I2).
    if graph::path_exists(schema, to, from, EdgeFilter::CONTROL_SYNC) {
        return Err(ChangeError::Precondition(format!(
            "sync edge {from} -> {to} would create a deadlock-causing cycle"
        )));
    }
    let e = alloc_edge(schema, &mut forced, Edge::sync(EdgeId(0), from, to))?;
    let mut rec = AppliedOp::plain(op.clone());
    rec.added_edges.push(e);
    Ok(rec)
}

fn delete_sync_edge(
    schema: &mut ProcessSchema,
    op: &ChangeOp,
    from: NodeId,
    to: NodeId,
) -> Result<AppliedOp, ChangeError> {
    let e = schema
        .edge_between(from, to, EdgeKind::Sync)
        .map(|e| e.id)
        .ok_or_else(|| {
            ChangeError::Precondition(format!("no sync edge between {from} and {to}"))
        })?;
    schema.remove_edge(e)?;
    let mut rec = AppliedOp::plain(op.clone());
    rec.removed_edges.push(e);
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{SchemaBuilder, ValueType};
    use adept_verify::is_correct;

    /// The paper's order process: get order -> collect data ->
    /// AND(confirm order | compose order -> pack goods) -> deliver goods.
    fn order_process() -> ProcessSchema {
        let mut b = SchemaBuilder::new("order");
        b.activity("get order");
        b.activity("collect data");
        b.and_split();
        b.branch();
        b.activity("confirm order");
        b.branch();
        b.activity("compose order");
        b.activity("pack goods");
        b.and_join();
        b.activity("deliver goods");
        b.build().unwrap()
    }

    fn node(s: &ProcessSchema, name: &str) -> NodeId {
        s.node_by_name(name).unwrap().id
    }

    #[test]
    fn fig1_type_change_applies() {
        // ΔT = addActivity(send questions, compose order, pack goods) +
        //      insertSyncEdge(send questions, confirm order)
        let mut s = order_process();
        let compose = node(&s, "compose order");
        let pack = node(&s, "pack goods");
        let confirm = node(&s, "confirm order");
        let rec1 = apply_op(
            &mut s,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            },
        )
        .unwrap();
        let sq = rec1.inserted_activity().unwrap();
        apply_op(
            &mut s,
            &ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            },
        )
        .unwrap();
        assert!(is_correct(&s));
        assert_eq!(s.sync_edges().count(), 1);
        assert_eq!(s.sole_control_successor(compose), Some(sq));
    }

    #[test]
    fn opposing_sync_edge_rejected_as_deadlock() {
        // The I2 conflict: an instance-level sync edge confirm -> compose
        // plus the type-level sync send questions -> confirm would form a
        // wait-for cycle confirm -> compose -> send questions -> confirm.
        let mut s = order_process();
        let confirm = node(&s, "confirm order");
        let pack = node(&s, "pack goods");
        let compose = node(&s, "compose order");
        apply_op(
            &mut s,
            &ChangeOp::InsertSyncEdge {
                from: confirm,
                to: compose,
            },
        )
        .unwrap();
        let rec = apply_op(
            &mut s,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            },
        )
        .unwrap();
        let sq = rec.inserted_activity().unwrap();
        let err = apply_op(
            &mut s,
            &ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ChangeError::Precondition(_)), "{err}");
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn serial_insert_requires_adjacent_nodes() {
        let mut s = order_process();
        let get = node(&s, "get order");
        let deliver = node(&s, "deliver goods");
        let err = apply_op(
            &mut s,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("x"),
                pred: get,
                succ: deliver,
            },
        )
        .unwrap_err();
        assert!(matches!(err, ChangeError::Precondition(_)));
    }

    #[test]
    fn delete_serial_activity_removes_node() {
        let mut s = order_process();
        let pack = node(&s, "pack goods");
        let compose = node(&s, "compose order");
        let rec = apply_op(&mut s, &ChangeOp::DeleteActivity { node: pack }).unwrap();
        assert!(rec.removed_nodes.contains(&pack));
        assert!(!s.has_node(pack));
        assert!(is_correct(&s));
        // compose order now connects to the and-join directly.
        assert_eq!(s.control_successors(compose).count(), 1);
    }

    #[test]
    fn delete_with_sync_edge_nullifies() {
        let mut s = order_process();
        let confirm = node(&s, "confirm order");
        let pack = node(&s, "pack goods");
        apply_op(
            &mut s,
            &ChangeOp::InsertSyncEdge {
                from: confirm,
                to: pack,
            },
        )
        .unwrap();
        let rec = apply_op(&mut s, &ChangeOp::DeleteActivity { node: confirm }).unwrap();
        assert!(rec.nullified_nodes.contains(&confirm));
        assert!(s.has_node(confirm));
        assert_eq!(s.node(confirm).unwrap().kind, NodeKind::Null);
        assert!(is_correct(&s));
    }

    #[test]
    fn delete_rejects_non_activity() {
        let mut s = order_process();
        let split = s.nodes().find(|n| n.kind == NodeKind::AndSplit).unwrap().id;
        assert!(apply_op(&mut s, &ChangeOp::DeleteActivity { node: split }).is_err());
    }

    #[test]
    fn move_activity_relocates() {
        let mut s = order_process();
        let confirm = node(&s, "confirm order");
        let compose = node(&s, "compose order");
        let pack = node(&s, "pack goods");
        // Move "confirm order" between compose and pack: its old branch
        // becomes empty (split -> join edge).
        apply_op(
            &mut s,
            &ChangeOp::MoveActivity {
                node: confirm,
                pred: compose,
                succ: pack,
            },
        )
        .unwrap();
        assert!(is_correct(&s));
        assert_eq!(s.sole_control_successor(compose), Some(confirm));
        assert_eq!(s.sole_control_successor(confirm), Some(pack));
    }

    /// A loop's body is a chain of control edges, so a region holding one
    /// end of a loop has one entry and one exit like any other; wrapping it
    /// would put the new block's split inside the loop and its join
    /// outside (or the reverse).
    #[test]
    fn parallel_insert_refuses_a_region_that_cuts_a_loop() {
        let mut b = SchemaBuilder::new("loop");
        let a = b.activity("a");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(adept_model::LoopCond::Times(2));
        let after = b.activity("after");
        let s = b.build().unwrap();
        let of_kind = |kind| s.nodes().find(|n| n.kind == kind).unwrap().id;
        let (ls, le) = (of_kind(NodeKind::LoopStart), of_kind(NodeKind::LoopEnd));
        for (from, to) in [(le, le), (ls, ls), (a, ls), (body, after), (le, after)] {
            let op = ChangeOp::ParallelInsert {
                activity: NewActivity::named("x"),
                from,
                to,
            };
            let err = apply_op(&mut s.clone(), &op).unwrap_err();
            assert!(
                err.to_string().contains("cuts the loop"),
                "{from}..{to}: {err}"
            );
        }
        let whole = ChangeOp::ParallelInsert {
            activity: NewActivity::named("x"),
            from: ls,
            to: le,
        };
        apply_op(&mut s.clone(), &whole).unwrap();
    }

    #[test]
    fn parallel_insert_wraps_region() {
        let mut s = order_process();
        let compose = node(&s, "compose order");
        let pack = node(&s, "pack goods");
        let rec = apply_op(
            &mut s,
            &ChangeOp::ParallelInsert {
                activity: NewActivity::named("print label"),
                from: compose,
                to: pack,
            },
        )
        .unwrap();
        assert!(is_correct(&s));
        let x = rec.inserted_activity().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        assert!(blocks.parallel_separator(x, compose).is_some());
        assert!(blocks.parallel_separator(x, pack).is_some());
    }

    #[test]
    fn branch_insert_creates_conditional() {
        let mut b = SchemaBuilder::new("g");
        let d = b.data("amount", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        let r = b.activity("r");
        let mut s = b.build().unwrap();
        let rec = apply_op(
            &mut s,
            &ChangeOp::BranchInsert {
                activity: NewActivity::named("extra check"),
                pred: w,
                succ: r,
                guard: Some(adept_model::Guard::new(
                    d,
                    adept_model::CmpOp::Ge,
                    adept_model::Value::Int(1000),
                )),
            },
        )
        .unwrap();
        assert!(is_correct(&s));
        assert_eq!(rec.added_nodes.len(), 3);
        let x = rec.inserted_activity().unwrap();
        assert_eq!(&*s.node(x).unwrap().name, "extra check");
    }

    #[test]
    fn postcondition_rejects_missing_input() {
        let mut b = SchemaBuilder::new("g");
        let d = b.data("late", ValueType::Int);
        let a = b.activity("a");
        let c = b.activity("c");
        b.write(c, d); // only written AFTER a
        let mut s = b.build().unwrap();
        // Inserting an activity reading `late` between a and c must fail:
        // the value is not yet written there.
        let err = apply_op(
            &mut s,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("x").reading(d),
                pred: a,
                succ: c,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, ChangeError::PostconditionViolated(_)),
            "{err}"
        );
        // Schema unchanged on failure.
        assert!(s.node_by_name("x").is_none());
    }

    #[test]
    fn recorded_reapplication_reuses_ids() {
        let mut s = order_process();
        let get = node(&s, "get order");
        let collect = node(&s, "collect data");
        let and_split = s.nodes().find(|n| n.kind == NodeKind::AndSplit).unwrap().id;
        let mut instance_schema = s.clone();
        instance_schema.reserve_private_id_space();
        let rec = apply_op(
            &mut instance_schema,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("ad-hoc step"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();
        let x = rec.inserted_activity().unwrap();
        assert!(x.raw() >= ProcessSchema::PRIVATE_ID_BASE);

        // Evolve the type (allocates low ids), then transplant the bias.
        apply_op(
            &mut s,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("type step"),
                pred: collect,
                succ: and_split,
            },
        )
        .unwrap();
        let bias: Delta = std::iter::once(rec).collect();
        let (target, _, _) = replay_bias(&Execution::new(s).unwrap(), &bias).unwrap();
        assert!(target.has_node(x));
        assert_eq!(&*target.node(x).unwrap().name, "ad-hoc step");
        assert!(is_correct(&target));
    }

    #[test]
    fn data_ops_roundtrip() {
        let mut s = order_process();
        let rec = apply_op(
            &mut s,
            &ChangeOp::AddDataElement {
                name: "priority".into(),
                ty: ValueType::Int,
            },
        )
        .unwrap();
        let d = rec.added_data[0];
        let get = node(&s, "get order");
        let deliver = node(&s, "deliver goods");
        apply_op(
            &mut s,
            &ChangeOp::AddDataEdge {
                node: get,
                data: d,
                mode: AccessMode::Write,
                optional: false,
            },
        )
        .unwrap();
        apply_op(
            &mut s,
            &ChangeOp::AddDataEdge {
                node: deliver,
                data: d,
                mode: AccessMode::Read,
                optional: false,
            },
        )
        .unwrap();
        assert!(is_correct(&s));
        apply_op(
            &mut s,
            &ChangeOp::RemoveDataEdge {
                node: deliver,
                data: d,
                mode: AccessMode::Read,
            },
        )
        .unwrap();
        assert_eq!(s.readers_of(d).count(), 0);
    }

    #[test]
    fn attribute_change() {
        let mut s = order_process();
        let get = node(&s, "get order");
        let attrs = adept_model::ActivityAttributes {
            role: Some("sales".into()),
            ..Default::default()
        };
        apply_op(
            &mut s,
            &ChangeOp::SetActivityAttributes { node: get, attrs },
        )
        .unwrap();
        assert_eq!(s.node(get).unwrap().attrs.role.as_deref(), Some("sales"));
    }
}
