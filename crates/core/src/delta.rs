//! Deltas (change logs) and the bias algebra.
//!
//! A [`Delta`] is an ordered list of applied change operations. Two kinds
//! of deltas exist at runtime (paper Fig. 2):
//!
//! * **ΔT** — a process *type* change, transforming schema version `S`
//!   into `S'`;
//! * **bias ΔI** — the ad-hoc changes of one *instance*, kept as the
//!   instance's substitution block relative to its schema version
//!   (replayed onto it by [`crate::replay_bias`]).
//!
//! The interplay of the two (Sec. 2 of the paper) requires reasoning about
//! *overlap*: disjoint deltas commute and can be combined freely, while
//! overlapping deltas may exhibit structural or semantical conflicts that
//! the migration layer must detect.

use crate::ops::{AppliedOp, ChangeOp};
use adept_model::{DataId, EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// An ordered list of applied change operations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Delta {
    /// The applied operations, in application order.
    pub ops: Vec<AppliedOp>,
}

impl Delta {
    /// An empty delta (an *unbiased* instance has an empty bias).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an applied operation.
    pub fn push(&mut self, rec: AppliedOp) {
        self.ops.push(rec);
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All nodes the delta *anchors on* (pre-change nodes it references).
    pub fn anchor_nodes(&self) -> BTreeSet<NodeId> {
        self.ops.iter().flat_map(|r| r.anchor_nodes()).collect()
    }

    /// All nodes the delta added.
    pub fn added_nodes(&self) -> BTreeSet<NodeId> {
        self.ops
            .iter()
            .flat_map(|r| r.added_nodes.iter().copied())
            .collect()
    }

    /// All nodes the delta removed or nullified.
    pub fn deleted_nodes(&self) -> BTreeSet<NodeId> {
        self.ops
            .iter()
            .flat_map(|r| {
                r.removed_nodes
                    .iter()
                    .copied()
                    .chain(r.nullified_nodes.iter().copied())
            })
            .collect()
    }

    /// All data elements the delta added.
    pub fn added_data(&self) -> BTreeSet<DataId> {
        self.ops
            .iter()
            .flat_map(|r| r.added_data.iter().copied())
            .collect()
    }

    /// Whether the two deltas are *disjoint*: they touch no common node.
    /// Disjoint deltas commute — applying them in either order yields the
    /// same schema — so a type change can always be combined with a
    /// disjoint instance bias (only state conditions remain to check).
    pub fn disjoint_from(&self, other: &Delta) -> bool {
        let mine: BTreeSet<NodeId> = self
            .anchor_nodes()
            .into_iter()
            .chain(self.deleted_nodes())
            .collect();
        let theirs: BTreeSet<NodeId> = other
            .anchor_nodes()
            .into_iter()
            .chain(other.deleted_nodes())
            .collect();
        mine.intersection(&theirs).next().is_none()
    }

    /// Purges no-op pairs: a serial insert whose activity a later
    /// operation of the same delta physically deletes again cancels out
    /// (both operations disappear). This keeps biases — the substitution
    /// blocks — *minimal*, as the paper requires ("for each
    /// biased instance we maintain a **minimal** substitution block").
    ///
    /// A pair cancels only when the schema really returns to its base: the
    /// delete removes exactly the node and edges the insert added, nothing
    /// in between anchors on the inserted node, and nothing after removes
    /// the delete's bridge. The bridge joins the endpoints of the edge the
    /// insert removed, but under a fresh id; each cancelled pair is
    /// returned as `(bridge, restored)`, and a schema or marking that
    /// names the bridge must name the restored edge instead
    /// ([`crate::adapt::purge_bias`] does both).
    pub fn purge(&mut self) -> Vec<(EdgeId, EdgeId)> {
        let mut restored = Vec::new();
        while let Some((i, j, pair)) = self.cancelling_pair() {
            self.ops.remove(j);
            self.ops.remove(i);
            restored.push(pair);
        }
        restored
    }

    /// The first insert/delete pair [`Delta::purge`] cancels, with the
    /// delete's bridge and the edge it stands for.
    fn cancelling_pair(&self) -> Option<(usize, usize, (EdgeId, EdgeId))> {
        for (i, ins) in self.ops.iter().enumerate() {
            let (ChangeOp::SerialInsert { .. }, &[x], &[removed]) =
                (&ins.op, &ins.added_nodes[..], &ins.removed_edges[..])
            else {
                continue;
            };
            // The first later operation that anchors on `x` decides. Only
            // a *physical* removal of exactly what the insert added
            // cancels it; a null-replacement leaves a node behind that the
            // delta must keep describing.
            let mut later = self.ops.iter().enumerate().skip(i + 1);
            let Some((j, del)) = later.find(|(_, r)| r.anchor_nodes().contains(&x)) else {
                continue;
            };
            let undone = matches!(del.op, ChangeOp::DeleteActivity { .. })
                && del.removed_nodes == [x]
                && del.removed_edges == ins.added_edges;
            let (true, &[bridge]) = (undone, &del.added_edges[..]) else {
                continue;
            };
            if self.ops[j + 1..]
                .iter()
                .all(|r| !r.removed_edges.contains(&bridge))
            {
                return Some((i, j, (bridge, removed)));
            }
        }
        None
    }

    /// A one-line summary for reports.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "unbiased".to_string();
        }
        self.ops
            .iter()
            .map(|r| r.op.name())
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Approximate deep size in bytes of the delta representation (for the
    /// Fig. 2 storage experiments: a bias *is* its instance's substitution
    /// block).
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let mut s = size_of::<Self>() + self.ops.capacity() * size_of::<AppliedOp>();
        for r in &self.ops {
            s += r.added_nodes.capacity() * size_of::<NodeId>();
            s += r.added_edges.capacity() * size_of::<adept_model::EdgeId>();
            s += r.removed_nodes.capacity() * size_of::<NodeId>();
            s += r.removed_edges.capacity() * size_of::<adept_model::EdgeId>();
            s += r.added_data.capacity() * size_of::<DataId>();
            s += r.nullified_nodes.capacity() * size_of::<NodeId>();
            if let ChangeOp::SerialInsert { activity, .. }
            | ChangeOp::ParallelInsert { activity, .. }
            | ChangeOp::BranchInsert { activity, .. } = &r.op
            {
                s += activity.name.len()
                    + activity.reads.capacity() * size_of::<DataId>()
                    + activity.optional_reads.capacity() * size_of::<DataId>()
                    + activity.writes.capacity() * size_of::<DataId>();
            }
        }
        s
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ[")?;
        for (i, r) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<AppliedOp> for Delta {
    fn from_iter<T: IntoIterator<Item = AppliedOp>>(iter: T) -> Self {
        Delta {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::apply_op;
    use crate::ops::NewActivity;
    use adept_model::SchemaBuilder;

    fn base() -> adept_model::ProcessSchema {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.activity("c");
        b.build().unwrap()
    }

    #[test]
    fn disjointness() {
        let mut s1 = base();
        let a = s1.node_by_name("a").unwrap().id;
        let b = s1.node_by_name("b").unwrap().id;
        let c = s1.node_by_name("c").unwrap().id;
        let mut s2 = s1.clone();

        let d1: Delta = vec![apply_op(
            &mut s1,
            &crate::ops::ChangeOp::SerialInsert {
                activity: NewActivity::named("x"),
                pred: a,
                succ: b,
            },
        )
        .unwrap()]
        .into_iter()
        .collect();
        let d2: Delta = vec![apply_op(
            &mut s2,
            &crate::ops::ChangeOp::SerialInsert {
                activity: NewActivity::named("y"),
                pred: b,
                succ: c,
            },
        )
        .unwrap()]
        .into_iter()
        .collect();
        assert!(!d1.disjoint_from(&d2), "both anchor on b");

        let mut s3 = base();
        let start = s3.start_node();
        let a3 = s3.node_by_name("a").unwrap().id;
        let d3: Delta = vec![apply_op(
            &mut s3,
            &crate::ops::ChangeOp::SerialInsert {
                activity: NewActivity::named("z"),
                pred: start,
                succ: a3,
            },
        )
        .unwrap()]
        .into_iter()
        .collect();
        assert!(d2.disjoint_from(&d3));
    }

    #[test]
    fn purge_cancels_insert_delete_pairs() {
        let mut s = base();
        let a = s.node_by_name("a").unwrap().id;
        let b = s.node_by_name("b").unwrap().id;
        let mut delta = Delta::new();
        let rec = apply_op(
            &mut s,
            &crate::ops::ChangeOp::SerialInsert {
                activity: NewActivity::named("temp"),
                pred: a,
                succ: b,
            },
        )
        .unwrap();
        let x = rec.inserted_activity().unwrap();
        delta.push(rec);
        delta.push(apply_op(&mut s, &crate::ops::ChangeOp::DeleteActivity { node: x }).unwrap());
        assert_eq!(delta.len(), 2);
        delta.purge();
        assert!(delta.is_empty(), "insert+delete of same node is a no-op");
    }

    #[test]
    fn purge_keeps_a_pair_the_schema_does_not_return_from() {
        let mut s = base();
        let a = s.node_by_name("a").unwrap().id;
        let b = s.node_by_name("b").unwrap().id;
        let insert = |s: &mut adept_model::ProcessSchema, pred, succ| {
            let op = crate::ops::ChangeOp::SerialInsert {
                activity: NewActivity::named("temp"),
                pred,
                succ,
            };
            apply_op(s, &op).unwrap()
        };
        let x = insert(&mut s, a, b);
        let inserted = x.inserted_activity().unwrap();
        // A second insert anchors on the first: deleting `temp` then
        // bridges `a` to the second insert, not back to `b`.
        let y = insert(&mut s, inserted, b);
        let del = crate::ops::ChangeOp::DeleteActivity { node: inserted };
        let mut delta: Delta = [x, y, apply_op(&mut s, &del).unwrap()]
            .into_iter()
            .collect();
        assert!(delta.purge().is_empty());
        assert_eq!(delta.len(), 3);
    }

    #[test]
    fn summary_and_display() {
        let d = Delta::new();
        assert_eq!(d.summary(), "unbiased");
        assert_eq!(d.to_string(), "Δ[]");
    }
}
