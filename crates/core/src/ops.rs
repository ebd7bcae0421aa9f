//! The change operations of ADEPT2.
//!
//! The paper: *"ADEPT2 offers a complete set of operations for defining
//! changes at a high semantic level and ensures correctness by introducing
//! pre-/post-conditions for these operations."*
//!
//! A [`ChangeOp`] is the *request* — it references existing nodes and
//! describes what to change. Applying it (see [`crate::apply`]) yields an
//! [`AppliedOp`] — the *record* — which additionally carries the concrete
//! node/edge ids the application allocated. Records are what deltas — a
//! biased instance's substitution block among them — and conflict analysis
//! operate on.

use adept_model::{AccessMode, ActivityAttributes, DataId, EdgeId, Guard, NodeId, ValueType};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Description of an activity to be inserted, including its data edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NewActivity {
    /// Display name. Shared: the node an insert creates, and every replay
    /// of the insert on a new base, hold this string.
    pub name: Arc<str>,
    /// Operational attributes.
    pub attrs: ActivityAttributes,
    /// Mandatory read parameters.
    pub reads: Vec<DataId>,
    /// Optional read parameters.
    pub optional_reads: Vec<DataId>,
    /// Written data elements.
    pub writes: Vec<DataId>,
}

impl NewActivity {
    /// A new activity with the given name and no data edges.
    pub fn named(name: impl Into<Arc<str>>) -> Self {
        Self {
            name: name.into(),
            attrs: ActivityAttributes::default(),
            reads: Vec::new(),
            optional_reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Adds a mandatory read parameter.
    pub fn reading(mut self, d: DataId) -> Self {
        self.reads.push(d);
        self
    }

    /// Adds an optional read parameter.
    pub fn optionally_reading(mut self, d: DataId) -> Self {
        self.optional_reads.push(d);
        self
    }

    /// Adds a written data element.
    pub fn writing(mut self, d: DataId) -> Self {
        self.writes.push(d);
        self
    }

    /// Sets the staff assignment role.
    pub fn with_role(mut self, role: impl Into<Arc<str>>) -> Self {
        self.attrs.role = Some(role.into());
        self
    }
}

/// A high-level change operation (the request form).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ChangeOp {
    /// `serialInsert(S, X, pred, succ)` — insert activity `X` between two
    /// directly connected nodes (paper Fig. 1: `addActivity(S, send
    /// questions, compose order, pack goods)`).
    SerialInsert {
        /// The activity to insert.
        activity: NewActivity,
        /// Predecessor (must have a control edge to `succ`).
        pred: NodeId,
        /// Successor.
        succ: NodeId,
    },
    /// `parallelInsert(S, X, from, to)` — wrap the single-entry/single-exit
    /// region `from..to` into a new AND block and put `X` on a fresh
    /// parallel branch.
    ParallelInsert {
        /// The activity to insert.
        activity: NewActivity,
        /// First node of the region to parallelise.
        from: NodeId,
        /// Last node of the region to parallelise.
        to: NodeId,
    },
    /// `branchInsert(S, X, pred, succ, guard)` — insert `X` conditionally
    /// between two directly connected nodes: a new XOR block whose guarded
    /// branch contains `X` and whose else branch is empty.
    BranchInsert {
        /// The activity to insert.
        activity: NewActivity,
        /// Predecessor.
        pred: NodeId,
        /// Successor.
        succ: NodeId,
        /// Guard of the branch executing `X` (`None` = externally decided).
        guard: Option<Guard>,
    },
    /// `deleteActivity(S, X)` — remove an activity. Serial activities
    /// without sync edges are removed physically; otherwise the node is
    /// replaced by a silent `Null` node to preserve the block structure.
    DeleteActivity {
        /// The activity to delete.
        node: NodeId,
    },
    /// `moveActivity(S, X, pred, succ)` — shift a serial activity to a new
    /// position (delete + serial insert as one atomic operation).
    MoveActivity {
        /// The activity to move.
        node: NodeId,
        /// New predecessor.
        pred: NodeId,
        /// New successor.
        succ: NodeId,
    },
    /// `insertSyncEdge(S, from, to)` — order two activities from different
    /// branches of a parallel block (paper Fig. 1).
    InsertSyncEdge {
        /// Source (must complete or be skipped first).
        from: NodeId,
        /// Target (waits).
        to: NodeId,
    },
    /// Remove a sync edge.
    DeleteSyncEdge {
        /// Source of the existing sync edge.
        from: NodeId,
        /// Target of the existing sync edge.
        to: NodeId,
    },
    /// `addDataElement(S, name, type)` — declare a new data element.
    AddDataElement {
        /// Name of the new element.
        name: String,
        /// Declared type.
        ty: ValueType,
    },
    /// `addDataEdge(S, n, d, mode)` — connect a node to a data element.
    AddDataEdge {
        /// The accessing node.
        node: NodeId,
        /// The data element.
        data: DataId,
        /// Read or write.
        mode: AccessMode,
        /// For reads: whether `Null` is tolerated.
        optional: bool,
    },
    /// `deleteDataEdge(S, n, d, mode)` — remove a data edge.
    RemoveDataEdge {
        /// The accessing node.
        node: NodeId,
        /// The data element.
        data: DataId,
        /// Read or write.
        mode: AccessMode,
    },
    /// `changeActivityAttributes(S, n, attrs)` — update operational
    /// attributes (role, duration, application binding).
    SetActivityAttributes {
        /// The activity.
        node: NodeId,
        /// The new attributes.
        attrs: ActivityAttributes,
    },
}

impl ChangeOp {
    /// A short operation name for logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ChangeOp::SerialInsert { .. } => "serialInsert",
            ChangeOp::ParallelInsert { .. } => "parallelInsert",
            ChangeOp::BranchInsert { .. } => "branchInsert",
            ChangeOp::DeleteActivity { .. } => "deleteActivity",
            ChangeOp::MoveActivity { .. } => "moveActivity",
            ChangeOp::InsertSyncEdge { .. } => "insertSyncEdge",
            ChangeOp::DeleteSyncEdge { .. } => "deleteSyncEdge",
            ChangeOp::AddDataElement { .. } => "addDataElement",
            ChangeOp::AddDataEdge { .. } => "addDataEdge",
            ChangeOp::RemoveDataEdge { .. } => "deleteDataEdge",
            ChangeOp::SetActivityAttributes { .. } => "changeActivityAttributes",
        }
    }
}

impl fmt::Display for ChangeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeOp::SerialInsert {
                activity,
                pred,
                succ,
            } => write!(f, "serialInsert(\"{}\", {pred}, {succ})", activity.name),
            ChangeOp::ParallelInsert { activity, from, to } => {
                write!(f, "parallelInsert(\"{}\", {from}..{to})", activity.name)
            }
            ChangeOp::BranchInsert {
                activity,
                pred,
                succ,
                guard,
            } => {
                write!(f, "branchInsert(\"{}\", {pred}, {succ}", activity.name)?;
                if let Some(g) = guard {
                    write!(f, ", if {g}")?;
                }
                f.write_str(")")
            }
            ChangeOp::DeleteActivity { node } => write!(f, "deleteActivity({node})"),
            ChangeOp::MoveActivity { node, pred, succ } => {
                write!(f, "moveActivity({node}, {pred}, {succ})")
            }
            ChangeOp::InsertSyncEdge { from, to } => write!(f, "insertSyncEdge({from}, {to})"),
            ChangeOp::DeleteSyncEdge { from, to } => write!(f, "deleteSyncEdge({from}, {to})"),
            ChangeOp::AddDataElement { name, ty } => write!(f, "addDataElement(\"{name}\", {ty})"),
            ChangeOp::AddDataEdge {
                node, data, mode, ..
            } => write!(f, "addDataEdge({node}, {data}, {mode})"),
            ChangeOp::RemoveDataEdge { node, data, mode } => {
                write!(f, "deleteDataEdge({node}, {data}, {mode})")
            }
            ChangeOp::SetActivityAttributes { node, .. } => {
                write!(f, "changeActivityAttributes({node})")
            }
        }
    }
}

/// The record of one applied change operation: the request plus every id
/// that applying it allocated or removed. This is what a bias replay
/// (paper Fig. 2's substitution block), bias composition and conflict
/// analysis consume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppliedOp {
    /// The operation as requested.
    pub op: ChangeOp,
    /// Nodes created by this application (inserted activity, new splits /
    /// joins / null replacements), in creation order.
    pub added_nodes: Vec<NodeId>,
    /// Edges created by this application.
    pub added_edges: Vec<EdgeId>,
    /// Nodes physically removed.
    pub removed_nodes: Vec<NodeId>,
    /// Edges physically removed.
    pub removed_edges: Vec<EdgeId>,
    /// Data elements created.
    pub added_data: Vec<DataId>,
    /// Nodes replaced by silent `Null` nodes instead of physical removal
    /// (deletions that must preserve the block structure).
    pub nullified_nodes: Vec<NodeId>,
}

impl AppliedOp {
    /// A record with no allocations (attribute/data-edge changes).
    pub fn plain(op: ChangeOp) -> Self {
        Self {
            op,
            added_nodes: Vec::new(),
            added_edges: Vec::new(),
            removed_nodes: Vec::new(),
            removed_edges: Vec::new(),
            added_data: Vec::new(),
            nullified_nodes: Vec::new(),
        }
    }

    /// The primary inserted node, if this operation inserted an activity.
    pub fn inserted_activity(&self) -> Option<NodeId> {
        match &self.op {
            ChangeOp::SerialInsert { .. }
            | ChangeOp::ParallelInsert { .. }
            | ChangeOp::BranchInsert { .. } => self.added_nodes.first().copied(),
            _ => None,
        }
    }

    /// All nodes this operation touches on the *pre-change* schema: used by
    /// overlap/conflict analysis between concurrent deltas.
    pub fn anchor_nodes(&self) -> Vec<NodeId> {
        match &self.op {
            ChangeOp::SerialInsert { pred, succ, .. } => vec![*pred, *succ],
            ChangeOp::ParallelInsert { from, to, .. } => vec![*from, *to],
            ChangeOp::BranchInsert { pred, succ, .. } => vec![*pred, *succ],
            ChangeOp::DeleteActivity { node } => vec![*node],
            ChangeOp::MoveActivity { node, pred, succ } => vec![*node, *pred, *succ],
            ChangeOp::InsertSyncEdge { from, to } | ChangeOp::DeleteSyncEdge { from, to } => {
                vec![*from, *to]
            }
            ChangeOp::AddDataElement { .. } => vec![],
            ChangeOp::AddDataEdge { node, .. }
            | ChangeOp::RemoveDataEdge { node, .. }
            | ChangeOp::SetActivityAttributes { node, .. } => vec![*node],
        }
    }
}

impl fmt::Display for AppliedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        if let Some(n) = self.inserted_activity() {
            write!(f, " => {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_activity_builder() {
        let a = NewActivity::named("send questions")
            .reading(DataId(0))
            .optionally_reading(DataId(1))
            .writing(DataId(2))
            .with_role("clerk");
        assert_eq!(&*a.name, "send questions");
        assert_eq!(a.reads, vec![DataId(0)]);
        assert_eq!(a.optional_reads, vec![DataId(1)]);
        assert_eq!(a.writes, vec![DataId(2)]);
        assert_eq!(a.attrs.role.as_deref(), Some("clerk"));
    }

    #[test]
    fn display_names_match_paper_vocabulary() {
        let op = ChangeOp::SerialInsert {
            activity: NewActivity::named("send questions"),
            pred: NodeId(4),
            succ: NodeId(5),
        };
        assert_eq!(op.name(), "serialInsert");
        assert!(op.to_string().contains("send questions"));
        let sync = ChangeOp::InsertSyncEdge {
            from: NodeId(9),
            to: NodeId(2),
        };
        assert_eq!(sync.to_string(), "insertSyncEdge(n9, n2)");
    }

    #[test]
    fn anchor_nodes_cover_endpoints() {
        let op = ChangeOp::MoveActivity {
            node: NodeId(1),
            pred: NodeId(2),
            succ: NodeId(3),
        };
        let rec = AppliedOp::plain(op);
        assert_eq!(rec.anchor_nodes(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(rec.inserted_activity(), None);
    }
}
