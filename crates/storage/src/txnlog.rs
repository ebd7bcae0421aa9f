//! Change-transaction records — the audit trail of the write-ahead log.
//!
//! Every committed change transaction — ad-hoc instance deviation or type
//! evolution — leaves one [`TxnRecord`]: its number, what was changed and
//! the operations, in staging order. A commit appends one WAL record that
//! carries both the post-image and the embedded `TxnRecord`
//! ([`crate::WriteAheadLog::append_change`] /
//! [`crate::WriteAheadLog::append_evolution`]), so the journal is the
//! change history. Nothing keeps the records beside it: the log counts
//! them ([`crate::WriteAheadLog::txns`]), and a snapshot records that
//! count, so a restored system continues the numbering.

use adept_core::ChangeOp;
use adept_model::InstanceId;
use serde::{Deserialize, Serialize};

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

/// One committed change transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnRecord {
    /// Monotonic commit sequence number (1-based).
    pub seq: u64,
    /// What was changed.
    pub target: TxnTarget,
    /// The requested operations, in staging order.
    pub ops: Vec<ChangeOp>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemoryBackend, StorageBackend};
    use crate::wal::{decode_entry, WalRecord, WriteAheadLog};
    use adept_model::NodeId;

    const OP: ChangeOp = ChangeOp::DeleteActivity { node: NodeId(1) };

    /// Commits one transaction the way an evolution commit does: the
    /// record rides in an `Evolved` line.
    fn append(wal: &WriteAheadLog, target: TxnTarget) -> u64 {
        wal.append_evolution("order", 1, |seq| TxnRecord {
            seq,
            target,
            ops: vec![OP],
        })
        .unwrap()
    }

    /// The records the journal on `medium` carries, in journal order.
    fn journaled(medium: &MemoryBackend) -> Vec<TxnRecord> {
        let lines = medium.read_log().unwrap().lines;
        let entries = lines.iter().map(|line| decode_entry(line).unwrap());
        entries
            .filter_map(|e| match e.record {
                WalRecord::Evolved { txn, .. } => Some(txn),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn append_assigns_monotonic_sequence() {
        let medium = MemoryBackend::new();
        let wal = WriteAheadLog::create_segmented(vec![Box::new(medium.clone())]).unwrap();
        assert_eq!(wal.txns(), 0);
        let s1 = append(&wal, TxnTarget::Instance(InstanceId(1)));
        let type_target = TxnTarget::Type {
            name: "order".into(),
            new_version: 2,
        };
        let s2 = append(&wal, type_target.clone());
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(wal.txns(), 2);
        let recs = journaled(&medium);
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[1].seq), (1, 2));
        assert_eq!(recs[0].target, TxnTarget::Instance(InstanceId(1)));
        assert_eq!(recs[1].target, type_target);
        assert_eq!(recs[1].ops, [OP]);
    }

    /// A restored engine's log continues the numbering of the count it was
    /// seeded with.
    #[test]
    fn seeded_records_continue_the_sequence() {
        let medium = MemoryBackend::new();
        let wal = WriteAheadLog::create_segmented(vec![Box::new(medium.clone())]).unwrap();
        wal.advance_txns(2);
        assert_eq!(wal.txns(), 2);
        let next = append(&wal, TxnTarget::Instance(InstanceId(3)));
        assert_eq!(next, 3);
        let seqs: Vec<u64> = journaled(&medium).iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [3]);
    }
}
