//! Crash recovery: rebuilding an engine from a snapshot plus the
//! write-ahead-log tail.
//!
//! A durable engine ([`ProcessEngine::with_segmented_wal`]) journals
//! every committed mutation *before* it becomes visible, under the guard
//! that makes it visible: a command as a state delta on the instance's
//! revision, a creation, change or migration hop as the instance it leaves
//! behind. Recovery inverts that: [`recover_from_segmented`] restores the
//! latest snapshot (or starts from an empty world), then replays every WAL
//! entry past the snapshot's watermark through the same storage substrate
//! the live engine writes through. Replay is **idempotent by revision**: a
//! post-image upserts the instance at the revision it records, and a delta
//! applies iff its `base_rev` is the instance's revision. One below it is
//! a change the snapshot already holds — [`ProcessEngine::snapshot`] reads
//! the watermark before the store, with no barrier, so a snapshot can run
//! ahead of its watermark — and is skipped; one above it, or one that does
//! not fit the state it lands on, proves a record missing and is
//! [`StorageError::Corrupt`]. So is a state record whose instance is not
//! there, unless the tail removes the instance later (the snapshot raced
//! that removal): then it is counted as orphaned.
//!
//! Failure handling follows the crash semantics of the backends: a torn
//! final record (the crash hit mid-append) is truncated and reported; a
//! complete-but-undecodable record in the middle of the log is a hard
//! [`StorageError::Corrupt`] — silently skipping it would resurrect a
//! world that never existed. A **gap** in the merged sequence is
//! classified before replay: a bounded gap near the global tail is the
//! normal residue of a crash under concurrent segmented appends (an
//! earlier-allocated record torn or unwritten while a later sequence is
//! already durable in a sibling segment) and is repaired by truncating
//! every segment back to the last contiguous sequence — safe because a
//! record journals *before* its effect becomes visible, so a sequence
//! that never finished appending was never acknowledged to any caller.
//! A gap wider than [`TAIL_REPAIR_WINDOW`], or a gap at the very start
//! of a snapshot-less log, cannot be a crash tail (whole records that
//! once existed are missing, e.g. a lost segment or a truncated log
//! opened without its snapshot) and is refused as corruption. After
//! replay every instance's history is re-run through
//! [`adept_state::CompiledExecution::audit`] — on the arena and block
//! structure of its context (a restored biased instance builds its own
//! here, once, and keeps it for its commands); divergence is reported (not
//! fatal — the journal is authoritative, the audit is a consistency check
//! on the history substrate).
//!
//! The audit reads each instance's **own execution history** (carried in
//! its recovered state), never the monitor's event log — the monitor is
//! a bounded ring with eviction ([`crate::Monitor::set_retention`]), so
//! recovery correctness must not (and does not) depend on events it may
//! have evicted.

use crate::engine::{EngineError, ProcessEngine};
use crate::monitor::EngineEvent;
use adept_model::InstanceId;
use adept_storage::{
    restore_with_txns, ContextError, InstanceStore, Representation, SchemaRepository, Snapshot,
    StorageBackend, StorageError, StoredInstance, WalEntry, WalRecord, WriteAheadLog,
};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The widest sequence gap recovery will repair as a crash tail, i.e.
/// the most trailing records it will truncate away to restore
/// contiguity. In-flight appends are bounded by the number of appender
/// threads, so a genuine crash tail spans at most a handful of
/// sequences; a gap wider than this means records that were once
/// durable are gone (a lost segment leaves periodic holes across the
/// whole stream) and recovery refuses rather than silently drop them.
pub const TAIL_REPAIR_WINDOW: u64 = 64;

/// What a recovery did: replay counts, repair evidence, and the audit
/// verdict. Returned next to the recovered engine so callers (and the
/// kill-and-restart tests) can assert on the exact recovery path taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// WAL entries replayed on top of the snapshot.
    pub replayed: usize,
    /// Entries skipped because the snapshot watermark already covers them.
    pub skipped: usize,
    /// State records whose instance is not there because the log removes
    /// it later (a snapshot that raced the removal no longer holds it) —
    /// harmless, counted for visibility. Any other missing instance is
    /// corruption.
    pub orphaned: usize,
    /// Bytes of a torn final record dropped by the crash repair.
    pub torn_tail_bytes: usize,
    /// Complete entries truncated away by the crash-tail repair: records
    /// past the last contiguous sequence, stranded in sibling segments
    /// when an earlier in-flight append died with the process. Their
    /// sequences were never acknowledged, so dropping them loses nothing
    /// a caller was promised.
    pub tail_dropped: usize,
    /// The highest WAL sequence number the recovered engine covers.
    pub last_seq: u64,
    /// Instances whose replayed history audit passed.
    pub audited: usize,
    /// Instances whose recorded history does not reproduce their
    /// recovered marking. The journal wins; this flags the divergence.
    pub divergent: Vec<InstanceId>,
}

/// Recovers an engine from an optional snapshot plus the WAL tail on
/// `backends` — the segments a [`ProcessEngine::with_segmented_wal`]
/// engine wrote, in the same order (`vec![backend]` for a single log).
/// Without a snapshot the world is rebuilt purely by replaying the log
/// from its first record.
///
/// The snapshot (if any) is restored first; the entries of all segments
/// are merged back into one globally ordered stream by sequence number,
/// and every entry with `seq > snapshot.wal_seq` is replayed in that
/// order. A gap in the sequence is classified before replay. With
/// concurrent appenders on different segment mediums, a crash can leave
/// an earlier-allocated sequence torn or unwritten while a later one is
/// already durable in a sibling — a bounded gap at the tail
/// (≤ [`TAIL_REPAIR_WINDOW`] sequences), repaired by truncating all
/// segments back to the last contiguous entry
/// ([`RecoveryReport::tail_dropped`] counts the stranded records
/// removed). A wider gap (a whole segment lost — its file gone or empty
/// while its siblings carry later sequences — leaves periodic holes), or
/// a log that starts after sequence 1 with no snapshot to cover the
/// start, means records were lost and recovery refuses with
/// [`StorageError::Corrupt`] rather than rebuild a world with a hole in
/// it. The recovered engine keeps writing to the same segments: its WAL
/// continues at `last_seq + 1`.
pub fn recover_from_segmented(
    snapshot: Option<&Snapshot>,
    backends: Vec<Box<dyn StorageBackend>>,
) -> Result<(ProcessEngine, RecoveryReport), EngineError> {
    let (wal, entries, torn_tail_bytes) = WriteAheadLog::open_segmented(backends)?;
    let (repo, store, txns) = match snapshot {
        Some(s) => restore_with_txns(s)?,
        None => (
            SchemaRepository::new(),
            InstanceStore::new(Representation::Hybrid),
            Vec::new(),
        ),
    };
    let base_seq = snapshot.map(|s| s.wal_seq).unwrap_or(0);
    wal.seed_txns(txns);

    let mut report = RecoveryReport {
        replayed: 0,
        skipped: 0,
        orphaned: 0,
        torn_tail_bytes,
        tail_dropped: 0,
        last_seq: base_seq,
        audited: 0,
        divergent: Vec::new(),
    };
    // Classify the merged stream BEFORE replaying anything: contiguity is
    // checked everywhere, not just at the first replayed record — with
    // segments, a missing segment leaves periodic holes that can start
    // anywhere in the merged stream.
    let mut live: Vec<WalEntry> = Vec::with_capacity(entries.len());
    for entry in entries {
        if entry.seq <= base_seq {
            report.skipped += 1;
        } else {
            live.push(entry);
        }
    }
    // `contiguous`: the highest sequence reachable from the base without
    // a hole; `gap_at`: index of the first entry past a hole, if any.
    let mut contiguous = base_seq;
    let mut gap_at = live.len();
    for (i, entry) in live.iter().enumerate() {
        if entry.seq == contiguous + 1 {
            contiguous = entry.seq;
        } else {
            gap_at = i;
            break;
        }
    }
    if gap_at < live.len() {
        let resumes_at = live[gap_at].seq;
        let max_seq = live.last().map(|e| e.seq).unwrap_or(contiguous);
        if contiguous == base_seq && snapshot.is_none() {
            // Nothing covers the start of the sequence: this is not a
            // crash tail but a log whose beginning is gone (e.g. a
            // checkpoint-truncated log opened without its snapshot).
            return Err(StorageError::corrupt(format!(
                "wal gap: log starts at seq {resumes_at} with no snapshot covering \
                 1..={} (truncated log recovered without its snapshot?)",
                resumes_at - 1
            ))
            .into());
        }
        if max_seq - contiguous > TAIL_REPAIR_WINDOW {
            return Err(StorageError::corrupt(format!(
                "wal gap: expected seq {} but the log continues at {resumes_at} and \
                 runs to {max_seq} — {} sequences past the last contiguous record \
                 exceed the crash-tail window of {TAIL_REPAIR_WINDOW} (records lost, \
                 e.g. a missing segment)",
                contiguous + 1,
                max_seq - contiguous
            ))
            .into());
        }
        // A bounded tail gap: the crash residue of concurrent segmented
        // appends. Records past the hole were never acknowledged (their
        // predecessor never committed), so truncate them — physically,
        // so the siblings cannot resurrect them on the next recovery.
        live.truncate(gap_at);
        report.tail_dropped = wal.retain_up_to(contiguous)?;
    }
    // Where the tail removes each instance (the last removal wins): what
    // explains a state record whose instance is not there.
    let removed: BTreeMap<InstanceId, u64> = live
        .iter()
        .filter_map(|e| match e.record {
            WalRecord::Removed { id } => Some((id, e.seq)),
            _ => None,
        })
        .collect();
    for entry in live {
        replay_entry(&repo, &store, &wal, entry, &removed, &mut report)?;
        report.replayed += 1;
    }
    // The WAL continues where the log ended — also when the whole log was
    // skipped (the snapshot may cover entries the backend no longer has
    // after a checkpoint truncation).
    wal.advance_position(report.last_seq);

    let engine = ProcessEngine::from_parts(repo, store, Arc::new(wal));
    audit_instances(&engine, &mut report);
    engine.monitor.record(EngineEvent::Recovered {
        replayed: report.replayed,
        skipped: report.skipped,
        torn_tail_bytes: report.torn_tail_bytes,
    });
    Ok((engine, report))
}

/// Applies one WAL entry to the world being rebuilt. Every arm is an
/// upsert (post-image), a delta applied by revision, or tolerant of the
/// record's effect already being present — the idempotency that makes the
/// snapshot watermark race benign. `removed` says where the tail removes
/// an instance.
fn replay_entry(
    repo: &SchemaRepository,
    store: &InstanceStore,
    wal: &WriteAheadLog,
    entry: WalEntry,
    removed: &BTreeMap<InstanceId, u64>,
    report: &mut RecoveryReport,
) -> Result<(), EngineError> {
    let seq = entry.seq;
    // A state record for an instance that is not there.
    let mut orphan = |id: InstanceId| {
        if removed.get(&id).is_some_and(|&at| at > seq) {
            report.orphaned += 1;
            Ok(())
        } else {
            Err(StorageError::corrupt(format!(
                "wal #{seq}: state of {id}, which was never created or is already removed"
            )))
        }
    };
    match entry.record {
        WalRecord::Deployed { schema } => {
            // Re-deploying an already-known name mirrors the live path
            // (deploy overwrites); the recorded schema id is kept.
            repo.deploy_recorded(schema)
                .map_err(|e| StorageError::corrupt(format!("wal #{seq}: deploy replay: {e}")))?;
        }
        WalRecord::Evolved {
            name,
            base_version,
            txn,
        } => {
            let cur = repo.latest_version(&name).ok_or_else(|| {
                StorageError::corrupt(format!("wal #{seq}: evolution of unknown type {name:?}"))
            })?;
            if cur == base_version {
                repo.evolve(&name, &txn.ops).map_err(|e| {
                    StorageError::corrupt(format!("wal #{seq}: evolution replay: {e}"))
                })?;
            } else if cur < base_version {
                return Err(StorageError::corrupt(format!(
                    "wal #{seq}: evolution of {name:?} expects V{base_version}, world is at V{cur}"
                ))
                .into());
            }
            // cur > base_version: the snapshot already contains the new
            // version (watermark race) — only the txn view needs the record.
            wal.note_replayed_txn(txn);
        }
        WalRecord::Created {
            id,
            type_name,
            version,
            state,
        } => {
            store.insert_restored(StoredInstance::new(id, type_name, version, state));
        }
        WalRecord::StateChanged { id, state } => {
            if store.update(id, |inst| inst.state = state).is_none() {
                orphan(id)?;
            }
        }
        WalRecord::StateDelta {
            id,
            base_rev,
            delta,
        } => {
            let applied = store.update_with_context(repo, id, |inst, ctx| {
                match inst.rev.cmp(&base_rev) {
                    // The snapshot ran ahead of its watermark: it holds the
                    // change already.
                    Ordering::Greater => (Ok(()), false),
                    Ordering::Equal => {
                        let applied = delta.apply(&ctx.schema, &mut inst.state);
                        let changed = applied.is_ok();
                        (applied, changed)
                    }
                    Ordering::Less => (
                        Err(format!("the instance is at revision {}", inst.rev)),
                        false,
                    ),
                }
            });
            let misfit = match applied {
                Ok(Ok(())) => None,
                Err(ContextError::Gone(_)) => {
                    orphan(id)?;
                    None
                }
                Ok(Err(misfit)) => Some(misfit),
                Err(unresolvable) => Some(unresolvable.to_string()),
            };
            if let Some(misfit) = misfit {
                return Err(StorageError::corrupt(format!(
                    "wal #{seq}: delta on revision {base_rev} of {id}: {misfit}"
                ))
                .into());
            }
        }
        WalRecord::ChangeCommitted { record, txn } => {
            store.insert_restored(record.into_stored());
            wal.note_replayed_txn(txn);
        }
        WalRecord::Migrated { record } => {
            store.insert_restored(record.into_stored());
        }
        WalRecord::Removed { id } => {
            // Lenient: the journaled removal may have crashed between the
            // WAL append and the store removal, or replay twice.
            let _ = store.remove(id);
        }
        // A plugged sequence hole from a failed append — durable filler
        // with no state effect; it only keeps the sequence contiguous.
        WalRecord::Abandoned => {}
    }
    report.last_seq = seq;
    Ok(())
}

/// Re-runs every recovered instance's execution history and compares the
/// produced marking against the recovered one. Post-images are
/// authoritative, so divergence is reported, not fatal — but a divergent
/// instance means history and state disagree, which the caller should
/// treat as a corruption signal.
fn audit_instances(engine: &ProcessEngine, report: &mut RecoveryReport) {
    for id in engine.store.ids() {
        let ok = engine
            .store
            .with_context(&engine.repo, id, |inst, ctx| ctx.audit(&inst.state))
            .is_ok_and(|verdict| verdict.unwrap_or(false));
        if ok {
            report.audited += 1;
        } else {
            report.divergent.push(id);
        }
    }
}
