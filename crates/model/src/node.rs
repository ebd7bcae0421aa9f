//! Node types of the ADEPT2 process meta model.

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The structural role a node plays in the block-structured schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// Unique source of the schema; completed implicitly on instance start.
    Start,
    /// Unique sink of the schema; completing it terminates the instance.
    End,
    /// A work item that is offered to users/applications for execution.
    Activity,
    /// Opens a parallel (AND) block; all outgoing branches execute.
    AndSplit,
    /// Closes a parallel block; waits for all incoming branches.
    AndJoin,
    /// Opens a conditional (XOR) block; exactly one branch executes.
    XorSplit,
    /// Closes a conditional block; fires when the chosen branch arrives.
    XorJoin,
    /// Opens a loop block.
    LoopStart,
    /// Closes a loop block and decides whether to iterate again.
    LoopEnd,
    /// A silent no-op node. Deleting an activity that cannot be removed
    /// without breaking the block structure replaces it with a `Null` node
    /// (the ADEPT "empty" activity); `Null` nodes complete automatically.
    Null,
}

impl NodeKind {
    /// Whether this node represents actual work (offered to a worklist).
    pub fn is_work(self) -> bool {
        matches!(self, NodeKind::Activity)
    }

    /// Whether the node executes silently (no user interaction): everything
    /// except [`NodeKind::Activity`].
    pub fn is_silent(self) -> bool {
        !self.is_work()
    }

    /// The join kind that must close a block opened by this split kind.
    pub fn matching_join(self) -> Option<NodeKind> {
        match self {
            NodeKind::AndSplit => Some(NodeKind::AndJoin),
            NodeKind::XorSplit => Some(NodeKind::XorJoin),
            NodeKind::LoopStart => Some(NodeKind::LoopEnd),
            _ => None,
        }
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Start => "Start",
            NodeKind::End => "End",
            NodeKind::Activity => "Activity",
            NodeKind::AndSplit => "AndSplit",
            NodeKind::AndJoin => "AndJoin",
            NodeKind::XorSplit => "XorSplit",
            NodeKind::XorJoin => "XorJoin",
            NodeKind::LoopStart => "LoopStart",
            NodeKind::LoopEnd => "LoopEnd",
            NodeKind::Null => "Null",
        };
        f.write_str(s)
    }
}

/// Organisational and operational attributes of an activity.
///
/// ADEPT2 templates carry staff assignment rules, expected durations and the
/// application component bound to the activity. These attributes do not
/// influence control flow, but ad-hoc changes may update them
/// (`changeActivityAttributes`), so they are part of the model.
///
/// The strings are shared like a node's name: a schema copy clones their
/// reference counts, not their bytes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActivityAttributes {
    /// Staff assignment rule, e.g. a role name ("physician", "clerk").
    pub role: Option<Arc<str>>,
    /// Expected duration in minutes, used for monitoring/escalation.
    pub expected_duration_min: Option<u32>,
    /// Identifier of the application component executing the activity.
    pub application: Option<Arc<str>>,
    /// Human-readable description.
    pub description: Option<Arc<str>>,
    /// Whether the activity may be skipped by an authorised user.
    pub skippable: bool,
}

/// A node of a process schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Identifier, unique within the owning schema.
    pub id: NodeId,
    /// Display name; activities should have meaningful names. Shared: every
    /// copy of the schema (an overlay, a migration target, a worklist
    /// label) holds the same string, so cloning it is a reference count.
    pub name: Arc<str>,
    /// Structural role.
    pub kind: NodeKind,
    /// Operational attributes (meaningful for activities).
    pub attrs: ActivityAttributes,
}

impl Node {
    /// Creates a node with default attributes.
    pub fn new(id: NodeId, name: impl Into<Arc<str>>, kind: NodeKind) -> Self {
        Self {
            id,
            name: name.into(),
            kind,
            attrs: ActivityAttributes::default(),
        }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} \"{}\"]", self.id, self.kind, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_matching() {
        assert_eq!(NodeKind::AndSplit.matching_join(), Some(NodeKind::AndJoin));
        assert_eq!(NodeKind::XorSplit.matching_join(), Some(NodeKind::XorJoin));
        assert_eq!(NodeKind::LoopStart.matching_join(), Some(NodeKind::LoopEnd));
        assert_eq!(NodeKind::Activity.matching_join(), None);
    }

    #[test]
    fn work_and_silent() {
        assert!(NodeKind::Activity.is_work());
        assert!(!NodeKind::Activity.is_silent());
        for k in [
            NodeKind::Start,
            NodeKind::End,
            NodeKind::AndSplit,
            NodeKind::AndJoin,
            NodeKind::XorSplit,
            NodeKind::XorJoin,
            NodeKind::LoopStart,
            NodeKind::LoopEnd,
            NodeKind::Null,
        ] {
            assert!(k.is_silent(), "{k} should be silent");
        }
    }

    #[test]
    fn node_display() {
        let n = Node::new(NodeId(4), "pack goods", NodeKind::Activity);
        assert_eq!(n.to_string(), "n4[Activity \"pack goods\"]");
    }
}
