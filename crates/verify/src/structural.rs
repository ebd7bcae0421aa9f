//! Structural soundness checks: start/end uniqueness, reachability, node
//! degrees, block structure, guard well-formedness and sync-edge rules.

use crate::report::{Issue, IssueKind, VerificationReport};
use crate::scope::InScope;
use adept_model::blocks::BlockError;
use adept_model::graph::EdgeFilter;
use adept_model::{BlockKind, Blocks, EdgeKind, NodeKind, SchemaIndex};

/// Runs the structural checks in `scope` and returns the findings.
/// `blocks` is the outcome of analysing exactly the indexed schema.
pub(crate) fn check_structure(
    index: &SchemaIndex<'_>,
    blocks: Result<&Blocks, &BlockError>,
    scope: &InScope,
) -> VerificationReport {
    let mut rep = VerificationReport::default();
    if scope.whole() {
        check_start_end(index, &mut rep);
    }
    check_degrees(index, scope, &mut rep);
    if scope.whole() {
        check_reachability(index, &mut rep);
    }
    check_blocks_and_syncs(index, blocks, scope, &mut rep);
    rep
}

fn check_start_end(index: &SchemaIndex<'_>, rep: &mut VerificationReport) {
    let nodes = (0..index.node_count() as u32).map(|n| index.node(n));
    let of_kind = |kind| nodes.clone().filter(move |n| n.kind == kind).map(|n| n.id);
    let starts: Vec<_> = of_kind(NodeKind::Start).collect();
    let ends: Vec<_> = of_kind(NodeKind::End).collect();
    if starts.len() != 1 {
        rep.push(
            Issue::error(
                IssueKind::StartEndStructure,
                format!(
                    "schema must have exactly one start node, found {}",
                    starts.len()
                ),
            )
            .with_nodes(starts),
        );
    }
    if ends.len() != 1 {
        rep.push(
            Issue::error(
                IssueKind::StartEndStructure,
                format!(
                    "schema must have exactly one end node, found {}",
                    ends.len()
                ),
            )
            .with_nodes(ends),
        );
    }
}

/// How many of the edges in `slots` are control edges and how many loop
/// edges.
fn control_and_loop(index: &SchemaIndex<'_>, slots: &[u32]) -> (usize, usize) {
    slots
        .iter()
        .fold((0, 0), |(control, loops), &e| match index.link(e).kind {
            EdgeKind::Control => (control + 1, loops),
            EdgeKind::Loop => (control, loops + 1),
            EdgeKind::Sync => (control, loops),
        })
}

fn check_degrees(index: &SchemaIndex<'_>, scope: &InScope, rep: &mut VerificationReport) {
    for slot in scope.slots(index) {
        let n = index.node(slot);
        let (cin, lin) = control_and_loop(index, index.inc(slot));
        let (cout, lout) = control_and_loop(index, index.out(slot));
        let bad = |msg: String, rep: &mut VerificationReport| {
            rep.push(Issue::error(IssueKind::Degree, msg).with_nodes([n.id]));
        };
        match n.kind {
            NodeKind::Start => {
                if cin != 0 || cout != 1 {
                    bad(format!("start node {n} must have 0 in / 1 out control edges (has {cin}/{cout})"), rep);
                }
            }
            NodeKind::End => {
                if cin != 1 || cout != 0 {
                    bad(
                        format!(
                            "end node {n} must have 1 in / 0 out control edges (has {cin}/{cout})"
                        ),
                        rep,
                    );
                }
            }
            NodeKind::Activity | NodeKind::Null => {
                if cin != 1 || cout != 1 {
                    bad(format!("node {n} must have exactly 1 in / 1 out control edge (has {cin}/{cout})"), rep);
                }
            }
            NodeKind::AndSplit | NodeKind::XorSplit => {
                if cin != 1 || cout < 2 {
                    bad(
                        format!(
                            "split {n} must have 1 in / >=2 out control edges (has {cin}/{cout})"
                        ),
                        rep,
                    );
                }
            }
            NodeKind::AndJoin | NodeKind::XorJoin => {
                if cin < 2 || cout != 1 {
                    bad(
                        format!(
                            "join {n} must have >=2 in / 1 out control edges (has {cin}/{cout})"
                        ),
                        rep,
                    );
                }
            }
            NodeKind::LoopStart => {
                if cin != 1 || cout != 1 || lin != 1 {
                    bad(format!("loop start {n} must have 1 in / 1 out control and 1 incoming loop edge (has {cin}/{cout}, {lin} loop-in)"), rep);
                }
            }
            NodeKind::LoopEnd => {
                if cin != 1 || cout != 1 || lout != 1 {
                    bad(format!("loop end {n} must have 1 in / 1 out control and 1 outgoing loop edge (has {cin}/{cout}, {lout} loop-out)"), rep);
                }
            }
        }
        if (lin > 0 && n.kind != NodeKind::LoopStart) || (lout > 0 && n.kind != NodeKind::LoopEnd) {
            rep.push(
                Issue::error(
                    IssueKind::LoopStructure,
                    format!("node {n} has loop edges but is not a loop start/end"),
                )
                .with_nodes([n.id]),
            );
        }
    }
}

fn check_reachability(index: &SchemaIndex<'_>, rep: &mut VerificationReport) {
    let mut unreached = |from: Option<u32>, forwards: bool, what: &str| {
        let Some(from) = from else {
            return;
        };
        let seen = index.reach(from, EdgeFilter::CONTROL, forwards);
        for (slot, _) in seen.iter().enumerate().filter(|(_, seen)| !**seen) {
            let n = index.node(slot as u32);
            rep.push(
                Issue::error(IssueKind::Unreachable, format!("node {n} {what}")).with_nodes([n.id]),
            );
        }
    };
    unreached(
        index.first(NodeKind::Start),
        true,
        "is unreachable from the start node",
    );
    unreached(
        index.first(NodeKind::End),
        false,
        "cannot reach the end node",
    );
}

fn check_blocks_and_syncs(
    index: &SchemaIndex<'_>,
    blocks: Result<&Blocks, &BlockError>,
    scope: &InScope,
    rep: &mut VerificationReport,
) {
    let schema = index.schema();
    // Guard structure on XOR splits: at most one unguarded (else) branch and
    // guards must reference declared data elements.
    for slot in scope.slots(index) {
        let n = index.node(slot);
        if n.kind != NodeKind::XorSplit {
            continue;
        }
        let mut unguarded = 0usize;
        let mut total = 0usize;
        let out = index.out(slot).iter().map(|&e| index.link(e).edge);
        for e in out.filter(|e| e.kind == EdgeKind::Control) {
            total += 1;
            match &e.guard {
                None => unguarded += 1,
                Some(g) => {
                    if schema.data_element(g.data).is_err() {
                        rep.push(
                            Issue::error(
                                IssueKind::GuardStructure,
                                format!("guard on {e} references unknown data {}", g.data),
                            )
                            .with_nodes([n.id]),
                        );
                    } else if let Some(vt) = g.value.value_type() {
                        let declared = schema.data_element(g.data).expect("checked").ty;
                        if vt != declared {
                            rep.push(
                                Issue::error(
                                    IssueKind::GuardTypeMismatch,
                                    format!(
                                        "guard on {e} compares {} ({declared}) against a {vt} literal",
                                        g.data
                                    ),
                                )
                                .with_nodes([n.id])
                                .with_data([g.data]),
                            );
                        }
                    }
                }
            }
        }
        // A fully unguarded XOR block delegates the branching decision to
        // the runtime (user or simulation driver) and is legal. Mixing
        // guarded branches with more than one unguarded branch makes the
        // else-branch ambiguous.
        if unguarded > 1 && unguarded != total {
            rep.push(
                Issue::error(
                    IssueKind::GuardStructure,
                    format!("XOR split {n} mixes guards with {unguarded} unguarded branches; at most one (else) allowed"),
                )
                .with_nodes([n.id]),
            );
        }
    }

    // Guards on non-XOR edges are meaningless.
    for link in index.links().iter().filter(|l| scope.has_slot(l.from)) {
        let e = link.edge;
        if e.guard.is_some() && index.node(link.from).kind != NodeKind::XorSplit {
            rep.push(Issue::warning(
                IssueKind::GuardStructure,
                format!("guard on {e} is ignored: source is not an XOR split"),
            ));
        }
    }

    // Block analysis must succeed; sync edges must connect concurrent nodes.
    match blocks {
        Err(e) => {
            rep.push(Issue::error(
                IssueKind::BlockStructure,
                format!("block analysis failed: {e}"),
            ));
        }
        Ok(blocks) => {
            if scope.whole() {
                check_nesting(blocks, rep);
            }
            let syncs = index.links().iter().filter(|l| l.kind == EdgeKind::Sync);
            for e in syncs.map(|l| l.edge) {
                if e.from == e.to {
                    rep.push(
                        Issue::error(IssueKind::SyncEdge, format!("sync edge {e} is a self loop"))
                            .with_nodes([e.from]),
                    );
                    continue;
                }
                if blocks.parallel_separator(e.from, e.to).is_none() {
                    rep.push(
                        Issue::error(
                            IssueKind::SyncEdge,
                            format!(
                                "sync edge {e} does not connect different branches of one parallel block"
                            ),
                        )
                        .with_nodes([e.from, e.to]),
                    );
                }
                if !blocks.same_loop_context(e.from, e.to) {
                    rep.push(
                        Issue::error(
                            IssueKind::SyncEdge,
                            format!("sync edge {e} crosses a loop boundary"),
                        )
                        .with_nodes([e.from, e.to]),
                    );
                }
            }
        }
    }
}

/// Blocks nest: a loop's start and end lie in the same branch of the same
/// blocks, and an AND or XOR split's join in its split's loop context. The
/// analysis matches a loop by its loop edge and a split by its
/// postdominator, each on its own, so a schema built by hand can pair them
/// into blocks that cross; a change cannot (a parallel insert refuses a
/// region that cuts a loop), so only the whole pass looks.
fn check_nesting(blocks: &Blocks, rep: &mut VerificationReport) {
    for b in blocks.by_split.values() {
        let (split, join) = (b.split, b.join);
        let (crosses, what) = match b.kind {
            BlockKind::Loop => (
                blocks.enclosing(split) != blocks.enclosing(join),
                "its start and end lie in different blocks",
            ),
            _ => (
                !blocks.same_loop_context(split, join),
                "its split and join lie in different loops",
            ),
        };
        if crosses {
            rep.push(
                Issue::error(
                    IssueKind::BlockStructure,
                    format!("block {split}..{join} crosses another: {what}"),
                )
                .with_nodes([split, join]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{LoopCond, NodeId, ProcessSchema, SchemaBuilder};

    fn check_structure(schema: &ProcessSchema) -> VerificationReport {
        let index = SchemaIndex::of(schema);
        let scope = InScope::resolve(&crate::Scope::WHOLE, &index);
        super::check_structure(&index, Blocks::analyze(schema).as_ref(), &scope)
    }

    /// What a parallel insert around `from..to` makes, built by hand
    /// without its preconditions: an AND split before `from`, its join
    /// after `to`, and a new activity as the second branch.
    fn wrapped_in_and(s: &ProcessSchema, from: NodeId, to: NodeId) -> ProcessSchema {
        let mut s = s.clone();
        let pred = s.sole_control_predecessor(from).unwrap();
        let succ = s.sole_control_successor(to).unwrap();
        for (a, b) in [(pred, from), (to, succ)] {
            let e = s.edge_between(a, b, EdgeKind::Control).unwrap().id;
            s.remove_edge(e).unwrap();
        }
        let split = s.add_node("and-split", NodeKind::AndSplit);
        let x = s.add_node("x", NodeKind::Activity);
        let join = s.add_node("and-join", NodeKind::AndJoin);
        let edges = [
            (pred, split),
            (split, from),
            (split, x),
            (x, join),
            (to, join),
            (join, succ),
        ];
        for (a, b) in edges {
            s.add_control_edge(a, b).unwrap();
        }
        s
    }

    /// The block analysis matches a loop by its loop edge and an AND split
    /// by its postdominator, so a schema built by hand can pair them into
    /// blocks that cross: each region a parallel insert refuses for cutting
    /// the loop is a block structure error here, and wrapping the whole
    /// loop verifies.
    #[test]
    fn a_block_that_crosses_a_loop_is_refused() {
        let mut b = SchemaBuilder::new("loop");
        let a = b.activity("a");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(2));
        let after = b.activity("after");
        let s = b.build().unwrap();
        let of_kind = |kind| s.nodes().find(|n| n.kind == kind).unwrap().id;
        let (ls, le) = (of_kind(NodeKind::LoopStart), of_kind(NodeKind::LoopEnd));
        for (from, to) in [(le, le), (ls, ls), (a, ls), (body, after), (le, after)] {
            let rep = crate::verify_schema(&wrapped_in_and(&s, from, to));
            assert!(rep.has(IssueKind::BlockStructure), "{from}..{to}: {rep}");
            assert!(!rep.is_correct(), "{from}..{to}: {rep}");
        }
        let rep = crate::verify_schema(&wrapped_in_and(&s, ls, le));
        assert!(rep.is_correct(), "{rep}");
    }

    #[test]
    fn builder_output_is_structurally_sound() {
        let mut b = SchemaBuilder::new("good");
        b.activity("a");
        b.and_split();
        b.branch();
        b.activity("b");
        b.branch();
        b.activity("c");
        b.and_join();
        let s = b.build().unwrap();
        let rep = check_structure(&s);
        assert!(rep.is_correct(), "{rep}");
    }

    #[test]
    fn dangling_node_is_unreachable() {
        let mut b = SchemaBuilder::new("g");
        b.activity("a");
        let mut s = b.build().unwrap();
        s.add_node("orphan", NodeKind::Activity);
        let rep = check_structure(&s);
        assert!(!rep.is_correct());
        assert!(rep.has(IssueKind::Unreachable));
        assert!(rep.has(IssueKind::Degree));
    }

    #[test]
    fn sync_within_sequence_is_rejected() {
        let mut b = SchemaBuilder::new("g");
        let a = b.activity("a");
        let c = b.activity("c");
        b.sync(a, c);
        let s = b.build().unwrap();
        let rep = check_structure(&s);
        assert!(rep.has(IssueKind::SyncEdge));
        assert!(!rep.is_correct());
    }

    #[test]
    fn sync_between_parallel_branches_is_accepted() {
        let mut b = SchemaBuilder::new("g");
        b.and_split();
        b.branch();
        let a = b.activity("a");
        b.branch();
        let c = b.activity("c");
        b.and_join();
        b.sync(a, c);
        let s = b.build().unwrap();
        let rep = check_structure(&s);
        assert!(rep.is_correct(), "{rep}");
    }

    #[test]
    fn sync_crossing_loop_boundary_is_rejected() {
        let mut b = SchemaBuilder::new("g");
        b.and_split();
        b.branch();
        let a = b.activity("a");
        b.branch();
        b.loop_start();
        let inner = b.activity("inner");
        b.loop_end(adept_model::LoopCond::Times(2));
        b.and_join();
        b.sync(a, inner);
        let s = b.build().unwrap();
        let rep = check_structure(&s);
        assert!(rep.has(IssueKind::SyncEdge));
    }

    #[test]
    fn fully_unguarded_xor_is_external_choice_and_legal() {
        let mut b = SchemaBuilder::new("g");
        b.xor_split();
        b.case();
        b.activity("x");
        b.case();
        b.activity("y");
        b.xor_join();
        let s = b.build().unwrap();
        let rep = check_structure(&s);
        assert!(rep.is_correct(), "{rep}");
    }

    #[test]
    fn mixed_guards_with_two_else_branches_rejected() {
        use adept_model::{CmpOp, Guard, Value, ValueType};
        let mut b = SchemaBuilder::new("g");
        let d = b.data("amount", ValueType::Int);
        b.xor_split();
        b.case_when(Guard::new(d, CmpOp::Ge, Value::Int(10)));
        b.activity("x");
        b.case();
        b.activity("y");
        b.case();
        b.activity("z");
        b.xor_join();
        let s = b.build().unwrap();
        let rep = check_structure(&s);
        assert!(rep.has(IssueKind::GuardStructure));
    }
}
