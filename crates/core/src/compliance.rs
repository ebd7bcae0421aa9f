//! Compliance checking: may a running instance migrate to a changed schema?
//!
//! The paper (Sec. 2): *"We provide a comprehensive correctness criterion
//! for deciding on the compliance of process instances with a modified type
//! schema. ... It is based on a relaxed notion of trace equivalence ... and
//! it works correctly in connection with loop backs. In order to enable
//! efficient compliance checks, for each change operation we provide
//! precise and easy to implement compliance conditions."*
//!
//! Two implementations live here:
//!
//! * [`check_trace`] — the *criterion itself*: replay the instance's
//!   reduced execution history on the changed schema ([`adept_state`]'s
//!   replay). Precise but costs O(history).
//! * [`check_fast`] — the *per-operation conditions* (the table in the
//!   paper's Fig. 1): pure marking/history predicates evaluated per change
//!   operation, no replay required. `prop_compliance_equivalence` in the
//!   integration suite checks that both agree.

use crate::delta::Delta;
use crate::ops::{AppliedOp, ChangeOp};
use adept_model::{AccessMode, Blocks, EdgeKind, NodeId, ProcessSchema};
use adept_state::{Event, Execution, ExecutionHistory, InstanceState, NodeState, RuntimeError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an instance cannot migrate (paper Sec. 2: *"state-related,
/// structural, and semantical conflicts"*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConflictKind {
    /// The instance has progressed too far (e.g. inserting before an
    /// already-completed activity) — Fig. 1, instance I3.
    State,
    /// The combination of type change and instance bias yields an incorrect
    /// schema (e.g. a deadlock-causing cycle) — Fig. 1, instance I2.
    Structural,
    /// The correspondence between the trace and the changed schema is
    /// ambiguous (removed branches, changed activity signatures).
    Semantic,
    /// The instance disappeared while the migration was in flight
    /// (cancelled or archived concurrently). Not part of the paper's
    /// conflict taxonomy: nothing is wrong with the instance or the
    /// change — there is simply no instance left to migrate, so reports
    /// must not count it as a structural failure.
    Vanished,
    /// The migration machinery itself failed (a worker thread panicked)
    /// or gave up after bounded retries against concurrent traffic. Not
    /// part of the paper's taxonomy either; it marks outcomes fabricated
    /// so one poisoned or contested instance cannot sink (or hang) a
    /// whole batch migration.
    Internal,
}

impl fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConflictKind::State => "state-related conflict",
            ConflictKind::Structural => "structural conflict",
            ConflictKind::Semantic => "semantical conflict",
            ConflictKind::Vanished => "instance vanished",
            ConflictKind::Internal => "internal failure",
        })
    }
}

/// A concrete conflict, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conflict {
    /// Conflict classification.
    pub kind: ConflictKind,
    /// Explanation (names the operation and the offending nodes).
    pub reason: String,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.reason)
    }
}

/// The result of a compliance check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The instance may migrate; its state can be adapted on the new schema.
    Compliant,
    /// The instance must remain on its current schema version.
    NotCompliant(Conflict),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Compliant`].
    pub fn is_compliant(&self) -> bool {
        matches!(self, Verdict::Compliant)
    }

    /// Constructs a non-compliant verdict.
    pub fn conflict(kind: ConflictKind, reason: impl Into<String>) -> Self {
        Verdict::NotCompliant(Conflict {
            kind,
            reason: reason.into(),
        })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Compliant => f.write_str("compliant"),
            Verdict::NotCompliant(c) => write!(f, "not compliant ({c})"),
        }
    }
}

// ----------------------------------------------------------------------
// Trace-based criterion (the oracle)
// ----------------------------------------------------------------------

/// Decides compliance by replaying the instance's *reduced* history on the
/// changed schema. `old_schema`/`old_blocks` describe the schema the
/// history was recorded on (needed for loop-body reduction); `new_ex` is
/// the handle on the changed schema.
pub fn check_trace(
    old_schema: &ProcessSchema,
    old_blocks: &Blocks,
    new_ex: &Execution,
    st: &InstanceState,
) -> Verdict {
    let reduced = st.history.reduced(old_schema, old_blocks);
    match new_ex.replay(&reduced) {
        Ok(_) => Verdict::Compliant,
        Err(e) => Verdict::NotCompliant(classify_replay_error(e)),
    }
}

/// Maps a replay failure onto the paper's conflict taxonomy.
fn classify_replay_error(e: RuntimeError) -> Conflict {
    let kind = match &e {
        RuntimeError::BranchNotFound { .. } | RuntimeError::SignatureMismatch { .. } => {
            ConflictKind::Semantic
        }
        RuntimeError::Model(_) => ConflictKind::Structural,
        _ => ConflictKind::State,
    };
    Conflict {
        kind,
        reason: format!("history cannot be reproduced: {e}"),
    }
}

// ----------------------------------------------------------------------
// Fast per-operation conditions (paper Fig. 1)
// ----------------------------------------------------------------------

/// Decides compliance of one instance with a delta by evaluating the
/// per-operation compliance conditions against the instance's current
/// marking and (for sync edges) its reduced history. `schema` is the
/// schema the instance currently runs on; `blocks` its block structure.
pub fn check_fast(
    schema: &ProcessSchema,
    blocks: &Blocks,
    st: &InstanceState,
    delta: &Delta,
) -> Verdict {
    for rec in &delta.ops {
        let v = check_fast_op(schema, blocks, st, rec);
        if !v.is_compliant() {
            return v;
        }
    }
    Verdict::Compliant
}

/// The per-operation compliance condition for a single change operation.
pub fn check_fast_op(
    schema: &ProcessSchema,
    blocks: &Blocks,
    st: &InstanceState,
    rec: &AppliedOp,
) -> Verdict {
    let m = &st.marking;
    match &rec.op {
        // addActivity (Fig. 1): the inserted activity must still be
        // executable before anything it now precedes. The replaced edge's
        // signal state decides: an unsignalled or dead edge can absorb the
        // insertion for free; a fired (TrueSignaled) edge requires that no
        // event-bearing node behind it has produced history entries yet.
        ChangeOp::SerialInsert { succ, .. } | ChangeOp::BranchInsert { succ, .. } => {
            insert_on_edge_condition(schema, st, rec.removed_edges.first(), &[*succ], rec)
        }
        ChangeOp::ParallelInsert { to, .. } => {
            // The new AND branch joins right after `to`: only the exit edge
            // matters — once it fired, the region behind the (new) join may
            // contain events the inserted activity could never precede.
            let succs: Vec<NodeId> = schema.control_successors(*to).collect();
            insert_on_edge_condition(schema, st, rec.removed_edges.get(1), &succs, rec)
        }
        ChangeOp::DeleteActivity { node } => {
            let s = m.node(*node);
            if s.pending() || s == NodeState::Skipped {
                Verdict::Compliant
            } else {
                Verdict::conflict(
                    ConflictKind::State,
                    format!("deleteActivity: {node} is already {s}"),
                )
            }
        }
        ChangeOp::MoveActivity { node, succ, .. } => {
            let s = m.node(*node);
            if !(s.pending() || s == NodeState::Skipped) {
                return Verdict::conflict(
                    ConflictKind::State,
                    format!("moveActivity: {node} is already {s}"),
                );
            }
            // removed_edges = [old in-edge, old out-edge, target edge].
            insert_on_edge_condition(schema, st, rec.removed_edges.get(2), &[*succ], rec)
        }
        ChangeOp::InsertSyncEdge { from, to } => {
            sync_edge_condition(schema, blocks, st, *from, *to)
        }
        // Removing a constraint can never invalidate a produced trace.
        ChangeOp::DeleteSyncEdge { .. } => Verdict::Compliant,
        ChangeOp::AddDataElement { .. } => Verdict::Compliant,
        ChangeOp::AddDataEdge {
            node,
            mode,
            optional,
            ..
        } => data_edge_condition(st, *node, *mode, *optional, "addDataEdge"),
        ChangeOp::RemoveDataEdge { node, data, mode } => {
            let optional = !schema
                .data_edges_of(*node)
                .any(|de| de.data == *data && de.mode == *mode && !de.optional);
            data_edge_condition(st, *node, *mode, optional, "deleteDataEdge")
        }
        ChangeOp::SetActivityAttributes { .. } => Verdict::Compliant,
    }
}

/// The `addActivity` condition, refining the table of paper Fig. 1:
///
/// ```text
/// ES(pred -> succ) ∈ {NotSignaled, FalseSignaled}
/// ∨ [ no event-bearing node reachable behind succ has entered ]
/// ```
///
/// The paper states the condition over node states (`∀ n ∈ Succs: NS(n) ∈
/// {NotActivated, Activated}` with a `Disabled` special case), because its
/// histories record entries for every node. Our histories — like the
/// underlying theory's *relevant* traces — record entries only for
/// activities and branching/loop decisions, so the precise condition walks
/// *through* completed event-free silent nodes (AND/XOR joins, null tasks,
/// the end node): re-completing those during replay is always possible.
/// `Skipped` is the paper's `Disabled`; a dead edge (`FalseSignaled`)
/// absorbs any insertion because the new activity is immediately skipped
/// and nothing downstream changes.
fn insert_on_edge_condition(
    schema: &ProcessSchema,
    st: &InstanceState,
    replaced_edge: Option<&adept_model::EdgeId>,
    succs: &[NodeId],
    rec: &AppliedOp,
) -> Verdict {
    let m = &st.marking;
    let edge_state = replaced_edge
        .map(|e| m.edge(*e))
        .unwrap_or(adept_state::EdgeState::NotSignaled);
    if edge_state != adept_state::EdgeState::TrueSignaled {
        // Not yet reached, or dead region: the insertion cannot invalidate
        // any produced event.
        return Verdict::Compliant;
    }
    match first_entered_event_node(schema, m, succs) {
        None => Verdict::Compliant,
        Some((n, s)) => Verdict::conflict(
            ConflictKind::State,
            format!(
                "{}: {n} behind the insertion point is already {s}",
                rec.op.name()
            ),
        ),
    }
}

/// Walks forward from `roots` over control edges, looking for the first
/// node that (a) carries history events — activities, XOR splits, loop
/// ends — and (b) has entered execution. Completed event-free silent nodes
/// are walked through; pending or skipped nodes stop the walk.
fn first_entered_event_node(
    schema: &ProcessSchema,
    m: &adept_state::Marking,
    roots: &[NodeId],
) -> Option<(NodeId, NodeState)> {
    use adept_model::NodeKind;
    let mut seen: std::collections::BTreeSet<NodeId> = roots.iter().copied().collect();
    let mut stack: Vec<NodeId> = roots.to_vec();
    while let Some(n) = stack.pop() {
        let Ok(node) = schema.node(n) else { continue };
        let s = m.node(n);
        match node.kind {
            NodeKind::Activity => {
                if matches!(s, NodeState::Running | NodeState::Completed) {
                    return Some((n, s));
                }
                // pending or skipped: no events behind it either (it gates
                // its successors), stop this path.
            }
            NodeKind::XorSplit | NodeKind::LoopEnd => {
                if s == NodeState::Completed
                    || (node.kind == NodeKind::LoopEnd && m.loop_count(n) > 0)
                {
                    return Some((n, s));
                }
            }
            // Event-free silent nodes: re-derivable during replay. Walk
            // through them when they completed; stop at pending/skipped.
            _ => {
                if s == NodeState::Completed {
                    for e in schema.out_edges_kind(n, EdgeKind::Control) {
                        if seen.insert(e.to) {
                            stack.push(e.to);
                        }
                    }
                }
            }
        }
    }
    None
}

/// Compliance condition for `insertSyncEdge(from, to)`: the target must not
/// yet have started — or, if it has, the source must demonstrably have
/// completed (or been skipped) *before* the target started, which the
/// reduced history can witness.
fn sync_edge_condition(
    schema: &ProcessSchema,
    blocks: &Blocks,
    st: &InstanceState,
    from: NodeId,
    to: NodeId,
) -> Verdict {
    let m = &st.marking;
    match m.node(to) {
        NodeState::NotActivated | NodeState::Activated | NodeState::Skipped => Verdict::Compliant,
        NodeState::Running | NodeState::Completed => {
            if completed_before_started(schema, blocks, &st.history, from, to) {
                Verdict::Compliant
            } else {
                Verdict::conflict(
                    ConflictKind::State,
                    format!(
                        "insertSyncEdge: target {to} already started and the history cannot witness {from} finishing first"
                    ),
                )
            }
        }
    }
}

/// Whether the history witnesses that `from`'s fate (completion or skip)
/// was sealed before `to` started. A skip is witnessed by the `XorChosen`
/// event that disabled `from`'s branch.
fn completed_before_started(
    schema: &ProcessSchema,
    blocks: &Blocks,
    history: &ExecutionHistory,
    from: NodeId,
    to: NodeId,
) -> bool {
    let reduced = history.reduced(schema, blocks);
    let mut from_sealed = false;
    for e in &reduced.events {
        match e {
            Event::Completed { node, .. } if *node == from => from_sealed = true,
            Event::XorChosen {
                split,
                branch_target,
            } => {
                // The decision seals `from` if `from` lies in a different
                // branch of this split than the chosen one.
                if let Some(info) = blocks.by_split.get(split) {
                    let from_branch = info.branch_of(from);
                    let chosen_branch = info.branch_of(*branch_target).or_else(|| {
                        // Branch target may be the head node itself.
                        schema
                            .out_edges_kind(*split, EdgeKind::Control)
                            .position(|e| e.to == *branch_target)
                    });
                    if let (Some(fb), Some(cb)) = (from_branch, chosen_branch) {
                        if fb != cb {
                            from_sealed = true;
                        }
                    }
                }
            }
            Event::Started { node, .. } if *node == to => return from_sealed,
            _ => {}
        }
    }
    // `to` has no Started event in the reduced history (e.g. running in an
    // earlier loop iteration that was cut): conservatively accept only if
    // the source is already sealed.
    from_sealed
}

/// Compliance condition for data-edge changes: changing the mandatory read
/// signature requires the activity not to have started; changing the write
/// set requires it not to have completed. Optional reads never conflict.
fn data_edge_condition(
    st: &InstanceState,
    node: NodeId,
    mode: AccessMode,
    optional: bool,
    opname: &str,
) -> Verdict {
    let s = st.marking.node(node);
    let ok = match mode {
        AccessMode::Read if optional => true,
        AccessMode::Read => s.pending() || s == NodeState::Skipped,
        AccessMode::Write => s != NodeState::Completed,
    };
    if ok {
        Verdict::Compliant
    } else {
        Verdict::conflict(
            ConflictKind::State,
            format!("{opname}: {node} is already {s}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_op;
    use crate::ops::NewActivity;
    use adept_model::SchemaBuilder;
    use adept_state::DefaultDriver;

    /// Build the Fig. 1 order process, run an instance `k` activities
    /// forward, and try the Fig. 1 type change on it.
    fn fig1_check(completed_activities: usize) -> (Verdict, Verdict) {
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
        let s_old = b.build().unwrap();

        let ex_old = Execution::new(&s_old).unwrap();
        let mut st = ex_old.init().unwrap();
        ex_old
            .run(&mut st, &mut DefaultDriver, Some(completed_activities))
            .unwrap();

        // ΔT: addActivity(send questions, compose order, pack goods) +
        //     insertSyncEdge(send questions, confirm order)
        let mut s_new = s_old.clone();
        let compose = s_new.node_by_name("compose order").unwrap().id;
        let pack = s_new.node_by_name("pack goods").unwrap().id;
        let rec1 = apply_op(
            &mut s_new,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            },
        )
        .unwrap();
        let sq = rec1.inserted_activity().unwrap();
        let confirm = s_new.node_by_name("confirm order").unwrap().id;
        let rec2 = apply_op(
            &mut s_new,
            &ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            },
        )
        .unwrap();
        let delta: Delta = vec![rec1, rec2].into_iter().collect();

        let ex_new = Execution::new(&s_new).unwrap();
        let fast = check_fast(&s_old, &ex_old.blocks, &st, &delta);
        let trace = check_trace(&s_old, &ex_old.blocks, &ex_new, &st);
        (fast, trace)
    }

    #[test]
    fn fig1_instance_i1_is_compliant() {
        // I1 has completed "get order" and "collect data" only (the
        // parallel block not yet entered deeply): compliant.
        let (fast, trace) = fig1_check(2);
        assert!(fast.is_compliant(), "fast: {fast}");
        assert!(trace.is_compliant(), "trace: {trace}");
    }

    #[test]
    fn fig1_instance_i3_has_state_conflict() {
        // Drive the instance to completion: pack goods (the insertion
        // successor) is completed -> state-related conflict.
        let (fast, trace) = fig1_check(6);
        assert!(!fast.is_compliant());
        assert!(!trace.is_compliant());
        if let Verdict::NotCompliant(c) = fast {
            assert_eq!(c.kind, ConflictKind::State);
        }
    }

    #[test]
    fn fast_matches_trace_at_every_progress_point() {
        for k in 0..=6 {
            let (fast, trace) = fig1_check(k);
            assert_eq!(
                fast.is_compliant(),
                trace.is_compliant(),
                "fast/trace disagree after {k} activities: fast={fast}, trace={trace}"
            );
        }
    }

    #[test]
    fn delete_condition_depends_on_state() {
        let mut b = SchemaBuilder::new("seq");
        let a = b.activity("a");
        b.activity("b");
        let s_old = b.build().unwrap();
        let ex = Execution::new(&s_old).unwrap();
        let mut st = ex.init().unwrap();

        let mut s_new = s_old.clone();
        let rec = apply_op(&mut s_new, &ChangeOp::DeleteActivity { node: a }).unwrap();
        let delta: Delta = vec![rec].into_iter().collect();

        // Before a runs: compliant.
        assert!(check_fast(&s_old, &ex.blocks, &st, &delta).is_compliant());
        // After a completed: conflict.
        ex.run(&mut st, &mut DefaultDriver, Some(1)).unwrap();
        let v = check_fast(&s_old, &ex.blocks, &st, &delta);
        assert!(!v.is_compliant());

        let ex_new = Execution::new(&s_new).unwrap();
        let t = check_trace(&s_old, &ex.blocks, &ex_new, &st);
        assert!(!t.is_compliant(), "trace must agree: {t}");
    }

    #[test]
    fn sync_edge_witnessed_by_history_is_compliant() {
        // Parallel branches; both executed, but the history shows the
        // source completing before the target started (because the driver
        // executes in id order): inserting the sync edge afterwards is
        // compliant.
        let mut b = SchemaBuilder::new("par");
        b.and_split();
        b.branch();
        let first = b.activity("first");
        b.branch();
        let second = b.activity("second");
        b.and_join();
        let s_old = b.build().unwrap();
        let ex = Execution::new(&s_old).unwrap();
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();

        let mut s_new = s_old.clone();
        let rec = apply_op(
            &mut s_new,
            &ChangeOp::InsertSyncEdge {
                from: first,
                to: second,
            },
        )
        .unwrap();
        let delta: Delta = vec![rec].into_iter().collect();
        let fast = check_fast(&s_old, &ex.blocks, &st, &delta);
        assert!(fast.is_compliant(), "{fast}");
        let ex_new = Execution::new(&s_new).unwrap();
        let trace = check_trace(&s_old, &ex.blocks, &ex_new, &st);
        assert!(trace.is_compliant(), "{trace}");

        // The opposite direction is NOT compliant: second started before
        // first completed... actually with the default driver first runs
        // first, so build the conflicting case explicitly by syncing from
        // `second` to `first`.
        let mut s_new2 = s_old.clone();
        let rec2 = apply_op(
            &mut s_new2,
            &ChangeOp::InsertSyncEdge {
                from: second,
                to: first,
            },
        )
        .unwrap();
        let delta2: Delta = vec![rec2].into_iter().collect();
        let fast2 = check_fast(&s_old, &ex.blocks, &st, &delta2);
        assert!(!fast2.is_compliant());
        let ex_new2 = Execution::new(&s_new2).unwrap();
        let trace2 = check_trace(&s_old, &ex.blocks, &ex_new2, &st);
        assert!(!trace2.is_compliant());
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Compliant.to_string(), "compliant");
        let v = Verdict::conflict(ConflictKind::Structural, "cycle");
        assert!(v.to_string().contains("structural conflict"));
    }
}
