//! The linear analysis equals the set-valued one it replaced
//! (`adept_tests::reference::analysis`, the old bodies verbatim): the same
//! `Blocks` or the same `BlockError`, the same immediate postdominators,
//! and the same verification report — on generated schemas, on overlays of
//! every change kind (verified or not), and on graphs damaged on purpose,
//! where the analysis has to fail, and fail the same way.

use adept_core::ChangeTxn;
use adept_model::{graph, Blocks, EdgeKind, LoopCond, NodeId, NodeKind, ProcessSchema};
use adept_simgen::changegen::propose;
use adept_simgen::{generate_schema, GenParams, ALL_OP_KINDS};
use adept_state::Execution;
use adept_tests::reference::analysis as oracle;
use adept_verify::{verify_schema, VerificationReport};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A report as a multiset: the findings, order aside.
fn findings(rep: &VerificationReport) -> Vec<String> {
    let mut all: Vec<String> = rep
        .issues
        .iter()
        .map(|i| {
            format!(
                "{:?} {:?} {:?} {:?} {}",
                i.kind, i.severity, i.nodes, i.data, i.message
            )
        })
        .collect();
    all.sort();
    all
}

fn assert_same_analysis(s: &ProcessSchema) -> Result<(), TestCaseError> {
    match (Blocks::analyze(s), oracle::Blocks::analyze(s)) {
        (Ok(new), Ok(old)) => {
            prop_assert_eq!(&new.by_split, &old.by_split);
            for n in s.node_ids() {
                prop_assert_eq!(new.enclosing(n), old.enclosing(n), "enclosing({})", n);
            }
        }
        (Err(new), Err(old)) => prop_assert_eq!(new, old),
        (new, old) => prop_assert!(false, "analysis disagrees: {:?} vs {:?}", new, old),
    }
    if let Some(end) = s.nodes().find(|n| n.kind == NodeKind::End) {
        prop_assert_eq!(
            graph::immediate_postdominators(s, end.id),
            oracle::immediate_postdominators(s, end.id)
        );
    }
    prop_assert_eq!(
        findings(&verify_schema(s)),
        findings(&oracle::verify_schema(s))
    );
    Ok(())
}

fn pick<T: Copy>(rng: &mut SmallRng, of: &[T]) -> Option<T> {
    (!of.is_empty()).then(|| of[rng.gen_range(0..of.len())])
}

fn control_edges(s: &ProcessSchema) -> Vec<(adept_model::EdgeId, NodeId, NodeId)> {
    let control = s.edges().filter(|e| e.kind == EdgeKind::Control);
    control.map(|e| (e.id, e.from, e.to)).collect()
}

/// Breaks `s` in one of eight ways; `false` if this schema offers no place
/// for the chosen damage.
fn damage(s: &mut ProcessSchema, how: usize, rng: &mut SmallRng) -> bool {
    let nodes: Vec<NodeId> = s.node_ids().collect();
    let edges = control_edges(s);
    let done = match how {
        // A control edge removed.
        0 => pick(rng, &edges).map(|(e, ..)| s.remove_edge(e).is_ok()),
        // An orphan node.
        1 => {
            s.add_node("orphan", NodeKind::Activity);
            Some(true)
        }
        // A join of the wrong kind.
        2 => {
            let joins: Vec<(NodeId, NodeKind)> = s
                .nodes()
                .filter_map(|n| match n.kind {
                    NodeKind::AndJoin => Some((n.id, NodeKind::XorJoin)),
                    NodeKind::XorJoin => Some((n.id, NodeKind::AndJoin)),
                    _ => None,
                })
                .collect();
            pick(rng, &joins).map(|(n, kind)| s.node_mut(n).map(|n| n.kind = kind).is_ok())
        }
        // A cyclic backbone.
        3 => pick(rng, &edges).map(|(_, from, to)| s.add_control_edge(to, from).is_ok()),
        // A misdirected loop edge.
        4 => pick(rng, &nodes)
            .zip(pick(rng, &nodes))
            .map(|(a, b)| s.add_loop_edge(a, b, LoopCond::Times(2)).is_ok()),
        // A node that cannot reach `End`.
        5 => pick(rng, &nodes).map(|from| {
            let dead = s.add_node("dead end", NodeKind::Activity);
            s.add_control_edge(from, dead).is_ok()
        }),
        // A shortcut across the block structure (branches may now overlap).
        6 => graph::topo_order(s, graph::EdgeFilter::CONTROL)
            .ok()
            .and_then(|order| {
                let a = rng.gen_range(0..order.len());
                let b = rng.gen_range(0..order.len());
                (a != b).then(|| (order[a.min(b)], order[a.max(b)]))
            })
            .map(|(from, to)| s.add_control_edge(from, to).is_ok()),
        // An edge leaving `End`.
        _ => {
            let end = s.nodes().find(|n| n.kind == NodeKind::End).map(|n| n.id);
            end.map(|end| {
                let after = s.add_node("after the end", NodeKind::Activity);
                s.add_control_edge(end, after).is_ok()
            })
        }
    };
    done == Some(true)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn generated_schemas_analyse_alike(seed in 0u64..100_000, size in 4usize..129) {
        assert_same_analysis(&generate_schema(&GenParams::sized(size), seed))?;
    }

    /// Overlays the way a change transaction stages them: structural
    /// preconditions only, so some of them do not verify.
    #[test]
    fn overlays_of_every_op_kind_analyse_alike(seed in 0u64..100_000, size in 4usize..65) {
        let deployed = Execution::new(generate_schema(&GenParams::sized(size), seed)).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0e71a7);
        for kind in ALL_OP_KINDS {
            let mut txn = ChangeTxn::begin(&deployed);
            for step in 0..3 {
                let Some(op) = propose(txn.working(), kind, &mut rng, &format!("o{step}")) else {
                    break;
                };
                if txn.stage(&op).is_ok() {
                    assert_same_analysis(txn.working())?;
                }
            }
        }
    }

    #[test]
    fn damaged_graphs_fail_alike(
        seed in 0u64..100_000,
        size in 4usize..49,
        first in 0usize..8,
        second in 0usize..16,
    ) {
        let mut s = generate_schema(&GenParams::sized(size), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xda4a6e);
        if damage(&mut s, first, &mut rng) {
            assert_same_analysis(&s)?;
        }
        // Half the cases carry a second, independent damage.
        if second < 8 && damage(&mut s, second, &mut rng) {
            assert_same_analysis(&s)?;
        }
    }
}
