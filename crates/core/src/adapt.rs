//! State adaptation: updating an instance's marking when its schema
//! changes.
//!
//! The paper (Sec. 2): *"efficient procedures exist for adapting the states
//! of instances when migrating them to the new schema (cf. Instance I1 in
//! Fig. 1)."* This module is those procedures: instead of re-deriving the
//! marking by replaying the (arbitrarily long) execution history on the new
//! schema, each change operation locally transfers edge/node states onto
//! the structures it created, and a single propagation sweep then settles
//! activations, silent-node auto-completions and dead paths.
//!
//! `prop_adaptation_matches_replay` in the integration suite verifies that
//! the incremental procedure produces exactly the marking that full replay
//! would.

use crate::delta::Delta;
use crate::error::ChangeError;
use crate::ops::{AppliedOp, ChangeOp};
use adept_model::{Blocks, ProcessSchema};
use adept_state::{EdgeState, Execution, InstanceState, NodeState};

/// Adapts `st`'s marking for all operations of `delta`, then lets the
/// regular execution semantics settle via one propagation sweep on the new
/// schema. The instance must already have been found *compliant* with the
/// delta; adaptation of non-compliant instances is meaningless.
///
/// `old_schema`/`old_blocks` describe the schema the instance's history was
/// recorded on. Almost all operations adapt *locally* (the efficient path
/// the paper claims); the exception is `moveActivity`, which can relocate
/// an activity upstream across an already-traversed silent region — there
/// the marking is re-derived by reduced-history replay, preserving loop
/// counters.
pub fn adapt_instance_state(
    old_schema: &ProcessSchema,
    old_blocks: &Blocks,
    new_ex: &Execution,
    delta: &Delta,
    st: &mut InstanceState,
) -> Result<(), ChangeError> {
    if delta
        .ops
        .iter()
        .any(|r| matches!(r.op, ChangeOp::MoveActivity { .. }))
    {
        let reduced = st.history.reduced(old_schema, old_blocks);
        let replayed = new_ex.replay(&reduced)?;
        let mut marking = replayed.marking;
        marking.copy_loop_counts_from(&st.marking);
        st.marking = marking;
        return Ok(());
    }
    transfer_marking(&new_ex.schema, delta, st);
    new_ex.refresh(st)?;
    Ok(())
}

/// The local half of state adaptation: every operation of `delta` moves
/// the edge and node states it displaced onto the structures it created on
/// `new_schema`. Nothing is settled — activations, auto-completions and
/// dead paths are the fixpoint's job ([`Execution::refresh`]), which
/// [`adapt_instance_state`] runs next. Public so the suites can hold the
/// intermediate marking to account: it must name only ids `new_schema`
/// has, because the fixpoint leaves any other entry standing.
pub fn transfer_marking(new_schema: &ProcessSchema, delta: &Delta, st: &mut InstanceState) {
    for rec in &delta.ops {
        adapt_op(new_schema, rec, st);
    }
}

/// Rewinds the region behind an insertion point: compliance guarantees
/// that no *event-bearing* node behind it has entered execution, but
/// silent nodes (splits, joins, null tasks) may have auto-completed and
/// must return to `NotActivated` so the propagation sweep can re-derive
/// their state once the inserted activity completes. Exactly inverts what
/// the auto-completion sweep did: follows the signalled edges of rewound
/// nodes, demotes `Activated` frontier nodes, and stops at pending or
/// skipped nodes.
fn rewind_region(
    new_schema: &ProcessSchema,
    m: &mut adept_state::Marking,
    roots: &[adept_model::NodeId],
) {
    let mut stack: Vec<adept_model::NodeId> = roots.to_vec();
    let mut seen: std::collections::BTreeSet<adept_model::NodeId> = roots.iter().copied().collect();
    while let Some(n) = stack.pop() {
        match m.node(n) {
            NodeState::Activated => m.set_node(n, NodeState::NotActivated),
            NodeState::Completed => {
                m.set_node(n, NodeState::NotActivated);
                let out: Vec<(adept_model::EdgeId, adept_model::NodeId)> = new_schema
                    .out_edges(n)
                    .filter(|e| e.kind != adept_model::EdgeKind::Loop)
                    .map(|e| (e.id, e.to))
                    .collect();
                for (e, to) in out {
                    if m.edge(e).signaled() {
                        m.set_edge(e, EdgeState::NotSignaled);
                        if seen.insert(to) {
                            stack.push(to);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Local marking transfer for one applied operation (no propagation).
fn adapt_op(new_schema: &ProcessSchema, rec: &AppliedOp, st: &mut InstanceState) {
    let m = &mut st.marking;
    match &rec.op {
        ChangeOp::SerialInsert { succ, .. } | ChangeOp::BranchInsert { succ, .. } => {
            // The state of the replaced edge moves onto the entry edge of
            // the inserted structure. Only if that edge had already fired
            // (TrueSignaled) can silent nodes behind it have auto-completed
            // *because of it* — those are rewound so the new activity
            // re-gates them. Dead or unsignalled edges leave downstream
            // state untouched (it derives from other paths, if at all).
            let mut fired = false;
            if let (Some(old), Some(entry)) = (rec.removed_edges.first(), rec.added_edges.first()) {
                let s = m.edge(*old);
                fired = s == EdgeState::TrueSignaled;
                m.forget_edge(*old);
                m.set_edge(*entry, s);
            }
            if fired {
                rewind_region(new_schema, m, &[*succ]);
            }
        }
        ChangeOp::ParallelInsert { .. } => {
            // removed: [entry, exit]; added: [p->split, split->from,
            // split->x, x->join, to->join, join->succ].
            if let (Some(old_entry), Some(new_entry)) =
                (rec.removed_edges.first(), rec.added_edges.first())
            {
                let s = m.edge(*old_entry);
                m.forget_edge(*old_entry);
                m.set_edge(*new_entry, s);
            }
            let mut exit_fired = false;
            if let (Some(old_exit), Some(new_exit)) =
                (rec.removed_edges.get(1), rec.added_edges.get(4))
            {
                let s = m.edge(*old_exit);
                exit_fired = s == EdgeState::TrueSignaled;
                m.forget_edge(*old_exit);
                m.set_edge(*new_exit, s);
            }
            if exit_fired {
                if let Some(join_succ) = rec.added_edges.get(5) {
                    if let Ok(e) = new_schema.edge(*join_succ) {
                        rewind_region(new_schema, m, &[e.to]);
                    }
                }
            }
        }
        ChangeOp::DeleteActivity { node } => {
            if rec.removed_nodes.contains(node) {
                // Physical removal: bridge inherits the incoming state.
                if let (Some(pin), Some(bridge)) =
                    (rec.removed_edges.first(), rec.added_edges.first())
                {
                    let s = m.edge(*pin);
                    m.set_edge(*bridge, s);
                }
                for e in &rec.removed_edges {
                    m.forget_edge(*e);
                }
                m.forget_node(*node);
            } else {
                // Null replacement: the node stays; if it was activated the
                // propagation sweep will auto-complete the silent node.
            }
        }
        ChangeOp::MoveActivity { node, .. } => {
            // removed: [pin, pout, target]; added: [bridge, pred->node,
            // node->succ].
            let s_pin = rec
                .removed_edges
                .first()
                .map(|e| m.edge(*e))
                .unwrap_or(EdgeState::NotSignaled);
            let s_target = rec
                .removed_edges
                .get(2)
                .map(|e| m.edge(*e))
                .unwrap_or(EdgeState::NotSignaled);
            for e in &rec.removed_edges {
                m.forget_edge(*e);
            }
            if let Some(bridge) = rec.added_edges.first() {
                m.set_edge(*bridge, s_pin);
            }
            if let Some(e1) = rec.added_edges.get(1) {
                m.set_edge(*e1, s_target);
            }
            // The moved node starts over at its new position: whatever
            // state its *old* location had (activated, or skipped inside a
            // dead region) is meaningless there — compliance guarantees it
            // never ran, so reset and let propagation re-derive the state
            // from the new incoming edges.
            if m.node(*node).pending() || m.node(*node) == NodeState::Skipped {
                m.set_node(*node, NodeState::NotActivated);
            }
            if let Some(e2) = rec.added_edges.get(2) {
                if let Ok(e) = new_schema.edge(*e2) {
                    if m.node(e.to) == NodeState::Activated {
                        m.set_node(e.to, NodeState::NotActivated);
                    }
                }
            }
        }
        ChangeOp::InsertSyncEdge { from, to } => {
            if let Some(sync) = rec.added_edges.first() {
                let s = match m.node(*from) {
                    NodeState::Completed => EdgeState::TrueSignaled,
                    NodeState::Skipped => EdgeState::FalseSignaled,
                    _ => EdgeState::NotSignaled,
                };
                m.set_edge(*sync, s);
                if s == EdgeState::NotSignaled && m.node(*to) == NodeState::Activated {
                    // The target must now wait for the new constraint.
                    m.set_node(*to, NodeState::NotActivated);
                }
            }
        }
        ChangeOp::DeleteSyncEdge { .. } => {
            for e in &rec.removed_edges {
                m.forget_edge(*e);
            }
        }
        ChangeOp::AddDataElement { .. }
        | ChangeOp::AddDataEdge { .. }
        | ChangeOp::RemoveDataEdge { .. }
        | ChangeOp::SetActivityAttributes { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_op;
    use crate::ops::NewActivity;
    use adept_model::{NodeId, ProcessSchema, SchemaBuilder};
    use adept_state::DefaultDriver;

    fn order() -> ProcessSchema {
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

    /// Adaptation must equal replay-derived marking (spot check; the
    /// integration suite property-tests this broadly).
    #[test]
    fn adaptation_matches_replay_for_fig1_migration() {
        let s_old = order();
        let ex_old = Execution::new(&s_old).unwrap();

        for progress in 0..=2 {
            let mut st = ex_old.init().unwrap();
            ex_old
                .run(&mut st, &mut DefaultDriver, Some(progress))
                .unwrap();

            let mut s_new = s_old.clone();
            let compose = node(&s_new, "compose order");
            let pack = node(&s_new, "pack goods");
            let confirm = node(&s_new, "confirm order");
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
            let mut adapted = st.clone();
            adapt_instance_state(&s_old, &ex_old.blocks, &ex_new, &delta, &mut adapted).unwrap();

            let reduced = st.history.reduced(&s_old, &ex_old.blocks);
            let replayed = ex_new.replay(&reduced).unwrap();
            assert!(
                adapted.marking.same_states(&replayed.marking),
                "progress={progress}:\n  adapted : {}\n  replayed: {}",
                adapted.marking,
                replayed.marking
            );
        }
    }

    #[test]
    fn inserted_activity_becomes_activated_when_region_is_live() {
        // Instance sits between "compose order" (done) and "pack goods"
        // (activated): inserting between them must activate the new
        // activity and demote pack goods.
        let s_old = order();
        let ex_old = Execution::new(&s_old).unwrap();
        let mut st = ex_old.init().unwrap();
        // run: get order, collect data, confirm order?, compose order...
        // DefaultDriver picks by id order: get order, collect data, then
        // the two parallel heads in id order.
        ex_old.run(&mut st, &mut DefaultDriver, Some(4)).unwrap();
        let pack = node(&s_old, "pack goods");
        assert_eq!(st.marking.node(pack), NodeState::Activated);

        let mut s_new = s_old.clone();
        let compose = node(&s_new, "compose order");
        let rec = apply_op(
            &mut s_new,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            },
        )
        .unwrap();
        let sq = rec.inserted_activity().unwrap();
        let delta: Delta = vec![rec].into_iter().collect();
        let ex_new = Execution::new(&s_new).unwrap();
        let mut adapted = st.clone();
        adapt_instance_state(&s_old, &ex_old.blocks, &ex_new, &delta, &mut adapted).unwrap();
        assert_eq!(adapted.marking.node(sq), NodeState::Activated);
        assert_eq!(adapted.marking.node(pack), NodeState::NotActivated);
    }

    #[test]
    fn delete_bridges_state_forward() {
        let mut b = SchemaBuilder::new("seq");
        let a = b.activity("a");
        let c = b.activity("c");
        let d = b.activity("d");
        let s_old = b.build().unwrap();
        let ex_old = Execution::new(&s_old).unwrap();
        let mut st = ex_old.init().unwrap();
        ex_old.run(&mut st, &mut DefaultDriver, Some(1)).unwrap(); // a done
        assert_eq!(st.marking.node(c), NodeState::Activated);

        let mut s_new = s_old.clone();
        let rec = apply_op(&mut s_new, &ChangeOp::DeleteActivity { node: c }).unwrap();
        let delta: Delta = vec![rec].into_iter().collect();
        let ex_new = Execution::new(&s_new).unwrap();
        let mut adapted = st.clone();
        adapt_instance_state(&s_old, &ex_old.blocks, &ex_new, &delta, &mut adapted).unwrap();
        // After deleting the activated c, d must be activated instead.
        assert_eq!(adapted.marking.node(d), NodeState::Activated);
        let _ = a;
    }

    #[test]
    fn sync_edge_from_completed_source_is_true_signaled() {
        let mut b = SchemaBuilder::new("par");
        b.and_split();
        b.branch();
        let first = b.activity("first");
        b.branch();
        let second = b.activity("second");
        b.and_join();
        let s_old = b.build().unwrap();
        let ex_old = Execution::new(&s_old).unwrap();
        let mut st = ex_old.init().unwrap();
        // Complete `first` only.
        ex_old.start_activity(&mut st, first).unwrap();
        ex_old.complete_activity(&mut st, first, vec![]).unwrap();

        let mut s_new = s_old.clone();
        let rec = apply_op(
            &mut s_new,
            &ChangeOp::InsertSyncEdge {
                from: first,
                to: second,
            },
        )
        .unwrap();
        let sync_edge = rec.added_edges[0];
        let delta: Delta = vec![rec].into_iter().collect();
        let ex_new = Execution::new(&s_new).unwrap();
        let mut adapted = st.clone();
        adapt_instance_state(&s_old, &ex_old.blocks, &ex_new, &delta, &mut adapted).unwrap();
        assert_eq!(adapted.marking.edge(sync_edge), EdgeState::TrueSignaled);
        assert_eq!(adapted.marking.node(second), NodeState::Activated);
    }
}
