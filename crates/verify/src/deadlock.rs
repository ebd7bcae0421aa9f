//! Deadlock analysis: the control+sync graph must stay acyclic.
//!
//! This is the check behind the paper's Fig. 1 structural conflict: applying
//! the type change `insertSyncEdge(send questions, confirm order)` to the
//! ad-hoc modified instance I2 would create a cycle over control and sync
//! edges, i.e. two activities transitively waiting for each other. ADEPT2
//! refuses such schemas at buildtime and refuses such migrations at change
//! time.

use crate::report::{Issue, IssueKind, VerificationReport};
use adept_model::graph::Cycle;

/// Checks for deadlock-causing cycles over control + sync edges: `cycle`
/// is what sorting that graph topologically found, if anything
/// (`SchemaIndex::topo(EdgeFilter::CONTROL_SYNC)`).
pub fn check_deadlock_freedom(cycle: Option<&Cycle>) -> VerificationReport {
    let mut rep = VerificationReport::default();
    if let Some(cycle) = cycle {
        let list = cycle
            .nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        rep.push(
            Issue::error(
                IssueKind::DeadlockCycle,
                format!("control/sync cycle involving nodes {{{list}}}"),
            )
            .with_nodes(cycle.nodes.iter().copied()),
        );
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::graph::{topo_order, EdgeFilter};
    use adept_model::{ProcessSchema, SchemaBuilder};

    fn check_deadlock_freedom(schema: &ProcessSchema) -> VerificationReport {
        super::check_deadlock_freedom(topo_order(schema, EdgeFilter::CONTROL_SYNC).err().as_ref())
    }

    #[test]
    fn acyclic_schema_passes() {
        let mut b = SchemaBuilder::new("ok");
        b.and_split();
        b.branch();
        let a = b.activity("a");
        b.branch();
        let c = b.activity("c");
        b.and_join();
        b.sync(a, c);
        let s = b.build().unwrap();
        assert!(check_deadlock_freedom(&s).is_correct());
    }

    #[test]
    fn opposing_sync_edges_deadlock() {
        let mut b = SchemaBuilder::new("dead");
        b.and_split();
        b.branch();
        let a1 = b.activity("a1");
        let a2 = b.activity("a2");
        b.branch();
        let b1 = b.activity("b1");
        let b2 = b.activity("b2");
        b.and_join();
        // a2 waits for b2, but b1 (before b2) waits for... a wait cycle:
        // a1 -> a2, b1 -> b2 (control); sync a2 -> b1 and sync b2 -> a1
        // yields a1 < a2 <= b1 < b2 <= a1: deadlock.
        b.sync(a2, b1);
        b.sync(b2, a1);
        let s = b.build().unwrap();
        let rep = check_deadlock_freedom(&s);
        assert!(!rep.is_correct());
        assert!(rep.has(IssueKind::DeadlockCycle));
        let issue = rep.errors().next().unwrap();
        for n in [a1, a2, b1, b2] {
            assert!(issue.nodes.contains(&n), "cycle should include {n}");
        }
    }

    #[test]
    fn consistent_sync_edges_do_not_deadlock() {
        let mut b = SchemaBuilder::new("ok2");
        b.and_split();
        b.branch();
        let a1 = b.activity("a1");
        let a2 = b.activity("a2");
        b.branch();
        let b1 = b.activity("b1");
        let b2 = b.activity("b2");
        b.and_join();
        b.sync(a1, b1);
        b.sync(a2, b2);
        let s = b.build().unwrap();
        assert!(check_deadlock_freedom(&s).is_correct());
    }
}
