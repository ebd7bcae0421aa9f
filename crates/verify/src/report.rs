//! Verification report types.

use adept_model::{DataId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Severity of a verification issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational finding; never blocks deployment.
    Info,
    /// Suspicious but tolerated construct (e.g. potentially lost update).
    Warning,
    /// Correctness violation; the schema must not be deployed or the change
    /// must not be applied.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Classification of verification issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IssueKind {
    /// Missing or duplicated start/end node.
    StartEndStructure,
    /// A node is unreachable from the start or cannot reach the end.
    Unreachable,
    /// A node has an illegal in/out degree for its kind.
    Degree,
    /// The block structure is broken (unmatched split/join, bad nesting).
    BlockStructure,
    /// An XOR split's branch guards are malformed.
    GuardStructure,
    /// A sync edge violates its structural rules.
    SyncEdge,
    /// The control+sync graph contains a deadlock-causing cycle
    /// (paper Fig. 1: structural conflict of instance I2).
    DeadlockCycle,
    /// A mandatory input parameter may be unsupplied at runtime.
    MissingInputData,
    /// Concurrent writers may race on a data element.
    ParallelWriteConflict,
    /// A data element is written but never read.
    UnreadData,
    /// A guard compares a data element against a value of the wrong type.
    GuardTypeMismatch,
    /// A loop block is malformed.
    LoopStructure,
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IssueKind::StartEndStructure => "start/end structure",
            IssueKind::Unreachable => "unreachable node",
            IssueKind::Degree => "illegal degree",
            IssueKind::BlockStructure => "block structure",
            IssueKind::GuardStructure => "guard structure",
            IssueKind::SyncEdge => "sync edge",
            IssueKind::DeadlockCycle => "deadlock-causing cycle",
            IssueKind::MissingInputData => "missing input data",
            IssueKind::ParallelWriteConflict => "parallel write conflict",
            IssueKind::UnreadData => "unread data",
            IssueKind::GuardTypeMismatch => "guard type mismatch",
            IssueKind::LoopStructure => "loop structure",
        };
        f.write_str(s)
    }
}

/// One verification finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Issue {
    /// Severity of the finding.
    pub severity: Severity,
    /// Classification.
    pub kind: IssueKind,
    /// Human-readable description.
    pub message: String,
    /// Nodes involved (may be empty).
    pub nodes: Vec<NodeId>,
    /// Data elements involved (may be empty).
    pub data: Vec<DataId>,
}

impl Issue {
    /// Creates an error-severity issue.
    pub fn error(kind: IssueKind, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Error,
            kind,
            message: message.into(),
            nodes: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Creates a warning-severity issue.
    pub fn warning(kind: IssueKind, message: impl Into<String>) -> Self {
        Self {
            severity: Severity::Warning,
            kind,
            message: message.into(),
            nodes: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Attaches involved nodes.
    pub fn with_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.nodes.extend(nodes);
        self
    }

    /// Attaches involved data elements.
    pub fn with_data(mut self, data: impl IntoIterator<Item = DataId>) -> Self {
        self.data.extend(data);
        self
    }
}

impl fmt::Display for Issue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.kind, self.message)
    }
}

/// The result of verifying one schema.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VerificationReport {
    /// All findings, in detection order (deterministic).
    pub issues: Vec<Issue>,
}

impl VerificationReport {
    /// Whether the schema may be deployed (no error-severity issues).
    pub fn is_correct(&self) -> bool {
        !self.issues.iter().any(|i| i.severity == Severity::Error)
    }

    /// All error-severity issues.
    pub fn errors(&self) -> impl Iterator<Item = &Issue> {
        self.issues.iter().filter(|i| i.severity == Severity::Error)
    }

    /// The error-severity issues rendered into one line, `; `-separated —
    /// what a rejected change reports as its violated postcondition.
    pub fn error_summary(&self) -> String {
        let msgs: Vec<String> = self.errors().map(|i| i.to_string()).collect();
        msgs.join("; ")
    }

    /// All warning-severity issues.
    pub fn warnings(&self) -> impl Iterator<Item = &Issue> {
        self.issues
            .iter()
            .filter(|i| i.severity == Severity::Warning)
    }

    /// Appends an issue.
    pub fn push(&mut self, issue: Issue) {
        self.issues.push(issue);
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: VerificationReport) {
        self.issues.extend(other.issues);
    }

    /// Whether any issue of the given kind was found.
    pub fn has(&self, kind: IssueKind) -> bool {
        self.issues.iter().any(|i| i.kind == kind)
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.issues.is_empty() {
            return f.write_str("verification: OK\n");
        }
        for i in &self.issues {
            writeln!(f, "{i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correctness_requires_no_errors() {
        let mut r = VerificationReport::default();
        assert!(r.is_correct());
        r.push(Issue::warning(IssueKind::UnreadData, "w"));
        assert!(r.is_correct());
        r.push(Issue::error(IssueKind::DeadlockCycle, "e"));
        assert!(!r.is_correct());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        assert!(r.has(IssueKind::DeadlockCycle));
        assert!(!r.has(IssueKind::Degree));
    }

    #[test]
    fn display_formats() {
        let i = Issue::error(IssueKind::SyncEdge, "bad sync").with_nodes([NodeId(1)]);
        assert_eq!(i.to_string(), "[error] sync edge: bad sync");
        let mut r = VerificationReport::default();
        assert_eq!(r.to_string(), "verification: OK\n");
        r.push(i);
        assert!(r.to_string().contains("bad sync"));
    }
}
