//! Change-transaction records — the audit trail of the write-ahead log.
//!
//! Every committed change transaction — ad-hoc instance deviation or type
//! evolution — leaves one [`TxnRecord`]: what was changed, in which
//! order, and the recorded inverse of each operation (the rollback
//! material). The trail is what the engine's monitoring component
//! summarises, and it rides along in persistence snapshots so a restored
//! system keeps its change history.
//!
//! The records live in the [`crate::WriteAheadLog`]: a commit appends one
//! WAL record that carries both the post-image and the embedded
//! `TxnRecord` ([`crate::WriteAheadLog::append_change`]), and the log keeps
//! their projection in commit order
//! ([`crate::WriteAheadLog::txn_records`]).

use adept_core::ChangeOp;
use adept_model::InstanceId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a transaction changed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TxnTarget {
    /// An ad-hoc change of one instance.
    Instance(InstanceId),
    /// A type evolution producing a new schema version.
    Type {
        /// Process type name.
        name: String,
        /// The version the evolution produced.
        new_version: u32,
    },
}

impl fmt::Display for TxnTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnTarget::Instance(id) => write!(f, "{id}"),
            TxnTarget::Type { name, new_version } => write!(f, "\"{name}\" -> V{new_version}"),
        }
    }
}

/// One committed change transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnRecord {
    /// Monotonic commit sequence number (1-based).
    pub seq: u64,
    /// What was changed.
    pub target: TxnTarget,
    /// The requested operations, in staging order.
    pub ops: Vec<ChangeOp>,
    /// Per operation: the inverse that would undo it, when invertible.
    pub inverses: Vec<Option<ChangeOp>>,
}

impl fmt::Display for TxnRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn #{} {}: ", self.seq, self.target)?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WriteAheadLog;
    use adept_core::NewActivity;
    use adept_model::NodeId;

    fn sample_ops() -> (Vec<ChangeOp>, Vec<Option<ChangeOp>>) {
        let op = ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: NodeId(1),
            succ: NodeId(2),
        };
        let inv = ChangeOp::DeleteActivity { node: NodeId(90) };
        (vec![op], vec![Some(inv)])
    }

    /// Commits one transaction the way an evolution commit does: the
    /// record rides in an `Evolved` line.
    fn append(
        wal: &WriteAheadLog,
        target: TxnTarget,
        ops: Vec<ChangeOp>,
        inverses: Vec<Option<ChangeOp>>,
    ) -> u64 {
        wal.append_evolution("order", 1, |seq| TxnRecord {
            seq,
            target,
            ops,
            inverses,
        })
        .unwrap()
    }

    #[test]
    fn append_assigns_monotonic_sequence() {
        let wal = WriteAheadLog::disabled();
        assert_eq!(wal.txn_len(), 0);
        let (ops, invs) = sample_ops();
        let s1 = append(
            &wal,
            TxnTarget::Instance(InstanceId(1)),
            ops.clone(),
            invs.clone(),
        );
        let s2 = append(
            &wal,
            TxnTarget::Type {
                name: "order".into(),
                new_version: 2,
            },
            ops,
            invs,
        );
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.txn_len(), 2);
        let recs = wal.txn_records();
        assert!(recs[0].to_string().contains("txn #1 I1"));
        assert!(recs[1].to_string().contains("\"order\" -> V2"));
    }

    /// A restored engine's log continues the numbering of the records
    /// it was seeded with, in sequence order whatever order they came in.
    #[test]
    fn seeded_records_continue_the_sequence() {
        let wal = WriteAheadLog::disabled();
        let (ops, invs) = sample_ops();
        let record = |seq| TxnRecord {
            seq,
            target: TxnTarget::Instance(InstanceId(seq)),
            ops: ops.clone(),
            inverses: invs.clone(),
        };
        wal.seed_txns(vec![record(2), record(1)]);
        let next = append(
            &wal,
            TxnTarget::Instance(InstanceId(3)),
            ops.clone(),
            invs.clone(),
        );
        assert_eq!(next, 3);
        let seqs: Vec<u64> = wal.txn_records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
    }
}
