//! The ADEPT2 process engine: deployment, command-based execution, ad-hoc
//! change, schema evolution and batch migration.

use crate::command::EngineCommand;
use crate::monitor::{EngineEvent, Monitor};
use crate::worklist::{items_for, Offered, WorkItem, WorklistDelta};
use adept_core::{
    adapt_instance_state, check_fast, compliance::check_fast_op, migrate_instance, ChangeError,
    ChangeOp, ChangeTxn, CommittedTxn, ConflictKind, Delta, InstanceOutcome, MigrationOptions,
    MigrationReport, Verdict,
};
use adept_model::{Blocks, InstanceId, NodeId, ProcessSchema};
use adept_state::{Decision, RuntimeError, StateDiff};
use adept_storage::{
    ContextError, InstanceRecord, InstanceStore, MemoryBreakdown, Representation, SchemaRepository,
    Snapshot, StorageBackend, StorageError, StoredInstance, TxnRecord, TxnTarget, Unresolvable,
    WalRecord, WriteAheadLog,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Engine-level error.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A change operation failed.
    Change(ChangeError),
    /// A runtime operation failed.
    Runtime(RuntimeError),
    /// A named entity does not exist.
    NotFound(String),
    /// The durability subsystem failed (journaling, snapshot codec,
    /// recovery). A commit that reports this was **not** applied.
    Storage(StorageError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Change(e) => write!(f, "change error: {e}"),
            EngineError::Runtime(e) => write!(f, "runtime error: {e}"),
            EngineError::NotFound(what) => write!(f, "not found: {what}"),
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl EngineError {
    /// Classifies the error for typed failure-path monitor events.
    pub fn failure_kind(&self) -> crate::monitor::FailureKind {
        use crate::monitor::FailureKind;
        match self {
            EngineError::Change(e) => FailureKind::of_change(e),
            EngineError::Runtime(_) => FailureKind::State,
            EngineError::NotFound(_) => FailureKind::Unresolvable,
            EngineError::Storage(_) => FailureKind::Internal,
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ChangeError> for EngineError {
    fn from(e: ChangeError) -> Self {
        EngineError::Change(e)
    }
}

impl From<RuntimeError> for EngineError {
    fn from(e: RuntimeError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<ContextError> for EngineError {
    fn from(e: ContextError) -> Self {
        EngineError::NotFound(e.to_string())
    }
}

/// What an instance-level change records: the audit pair of its
/// transaction record plus one `AdHocChanged` monitor label per operation.
pub(crate) struct TxnOps {
    pub ops: Vec<ChangeOp>,
    pub inverses: Vec<Option<ChangeOp>>,
    pub labels: Vec<String>,
}

/// The process-aware information system runtime. All state lives behind
/// interior locks, so `&ProcessEngine` is freely shared across threads
/// (parallel batch migration and concurrent command submission use this).
/// The instance store is sharded by `InstanceId::hash64`, so commands on
/// different instances contend on nothing but atomics — and the engine
/// keeps no per-instance table beside it. An instance's execution context
/// is resolved with the instance, by the store
/// ([`InstanceStore::with_context`]); its work items are read off the
/// store by every worklist read ([`InstanceStore::scan`]).
#[derive(Debug)]
pub struct ProcessEngine {
    /// Deployed process types.
    pub repo: SchemaRepository,
    /// Running and finished instances (sharded; see [`InstanceStore`]).
    pub store: InstanceStore,
    /// The monitoring component.
    pub monitor: Monitor,
    /// The write-ahead log, which also keeps the committed change
    /// transactions ([`ProcessEngine::wal`]).
    wal: Arc<WriteAheadLog>,
}

impl ProcessEngine {
    /// Creates a non-durable engine with the ADEPT2 hybrid storage
    /// strategy. (The Fig. 2 experiments compare strategies through
    /// [`ProcessEngine::from_parts`] over an explicit [`InstanceStore`].)
    pub fn new() -> Self {
        Self::from_parts(
            SchemaRepository::new(),
            InstanceStore::new(Representation::Hybrid),
            Arc::default(),
        )
    }

    /// Creates a **durable** engine (hybrid strategy): every committed
    /// mutation is journaled before it becomes visible, and
    /// [`crate::recovery::recover_from_segmented`] can rebuild the exact
    /// engine from the log (plus an optional snapshot) after a crash.
    ///
    /// The write-ahead log is segmented across `backends` (a power-of-two
    /// count — `vec![backend]` for a single log — each empty; recovering
    /// an existing log is recovery's job): sequence `s` lands in segment
    /// `(s − 1) mod N`, so concurrent journal appends from different store
    /// shards spread across independent backend locks instead of
    /// serializing on one. Global order is kept by the atomic sequence
    /// allocator; recovery merges the segments back by sequence.
    pub fn with_segmented_wal(backends: Vec<Box<dyn StorageBackend>>) -> Result<Self, EngineError> {
        let wal = WriteAheadLog::create_segmented(backends)?;
        Ok(Self::from_parts(
            SchemaRepository::new(),
            InstanceStore::new(Representation::Hybrid),
            Arc::new(wal),
        ))
    }

    /// The engine's write-ahead log (disabled unless constructed with
    /// [`ProcessEngine::with_segmented_wal`] or recovered onto backends).
    /// Durable or not, it keeps the committed change transactions:
    /// [`WriteAheadLog::txn_records`] is the engine's audit trail.
    pub fn wal(&self) -> &Arc<WriteAheadLog> {
        &self.wal
    }

    /// Appends one record to the write-ahead log; a cheap no-op when the
    /// engine is not durable (the record is only *built* when a backend
    /// is attached).
    pub(crate) fn journal(&self, build: impl FnOnce() -> WalRecord) -> Result<(), StorageError> {
        if self.wal.enabled() {
            self.wal.append(build()).map(|_| ())
        } else {
            Ok(())
        }
    }

    /// Appends what a command changed on instance `id` at revision
    /// `base_rev` ([`WalRecord::StateDelta`]); a no-op when the engine is
    /// not durable.
    pub(crate) fn journal_delta(
        &self,
        id: InstanceId,
        base_rev: u64,
        delta: &StateDiff<'_>,
    ) -> Result<(), StorageError> {
        self.wal.append_delta(id, base_rev, delta).map(drop)
    }

    /// Assembles an engine around an existing repository, store and
    /// write-ahead log — the general constructor the others delegate to
    /// (recovery passes the reopened WAL). With a fresh disabled WAL
    /// (`Arc::default()`) the engine is not durable, its change history
    /// starts empty and its sequence numbers restart at 1. Worklist epochs
    /// restart at 0 with every engine: whatever put the instances into
    /// `store` — a restore, a journal replay — is this engine's epoch 0.
    pub fn from_parts(
        repo: SchemaRepository,
        mut store: InstanceStore,
        wal: Arc<WriteAheadLog>,
    ) -> Self {
        store.restart_epochs();
        Self {
            repo,
            store,
            monitor: Monitor::new(),
            wal,
        }
    }

    /// Captures a persistence snapshot of the whole engine: repository,
    /// instance store, the committed change-transaction log, and the WAL
    /// watermark the snapshot covers.
    ///
    /// The watermark is the WAL's **durable** position — the highest
    /// sequence every predecessor of which was successfully appended —
    /// read **before** the store state is composed, with no barrier: a
    /// mutation landing between the two reads is in the snapshot *and* in
    /// the replayed tail, and replay tells the two apart by revision (a
    /// state delta the snapshot already holds is skipped; every record of
    /// an instance is journaled under the shard guard that makes it
    /// visible, so one at or below the watermark is in the snapshot) —
    /// covered once, never lost, never applied twice. Reading the raw
    /// allocator position instead could claim coverage of sequences still
    /// in flight (or about to fail). As with the store scan itself, a
    /// point-in-time snapshot of a live engine requires quiescence;
    /// snapshot-under-traffic is best-effort, and a checkpoint that
    /// *truncates* the WAL ([`ProcessEngine::checkpoint_with`]) must be
    /// externally quiesced with respect to appends.
    pub fn snapshot(&self) -> Snapshot {
        let pos = self.wal.durable_position();
        let mut s = adept_storage::snapshot_with_txns(&self.repo, &self.store, &[]);
        s.txns = self.wal.txn_records();
        s.wal_seq = pos;
        s
    }

    /// Checkpoints a durable engine: captures a snapshot, hands it to
    /// `persist` (write it somewhere durable), and truncates the WAL only
    /// if persisting succeeded — the log is never dropped before its
    /// replacement is safe. Returns the snapshot. On a non-durable engine
    /// this is just [`ProcessEngine::snapshot`] + `persist`.
    pub fn checkpoint_with(
        &self,
        persist: impl FnOnce(&Snapshot) -> Result<(), StorageError>,
    ) -> Result<Snapshot, EngineError> {
        let snap = self.snapshot();
        persist(&snap)?;
        self.wal.truncate()?;
        self.monitor.record(EngineEvent::CheckpointTaken {
            wal_seq: snap.wal_seq,
        });
        Ok(snap)
    }

    /// Restores an engine from a snapshot, including the transaction log
    /// (so the audit trail and its sequence numbering survive a
    /// save/restore round-trip).
    pub fn from_snapshot(s: &Snapshot) -> Result<Self, EngineError> {
        let (repo, store, txns) = adept_storage::restore_with_txns(s)?;
        let engine = Self::from_parts(repo, store, Arc::default());
        engine.wal.seed_txns(txns);
        Ok(engine)
    }

    // ------------------------------------------------------------------
    // Deployment and instance creation
    // ------------------------------------------------------------------

    /// Deploys a process template as a new type (version 1). On a durable
    /// engine the deployment is journaled after it verifies and before it
    /// becomes visible; a journaling failure installs nothing.
    pub fn deploy(&self, schema: ProcessSchema) -> Result<String, EngineError> {
        let name = self.repo.deploy_journaled(schema, |s| {
            self.journal(|| WalRecord::Deployed { schema: s.clone() })
                .map_err(EngineError::from)
        })?;
        self.monitor.record(EngineEvent::Deployed {
            type_name: name.clone(),
        });
        Ok(name)
    }

    /// Creates an instance on the newest version of a type (thin wrapper
    /// over [`EngineCommand::CreateInstance`]).
    pub fn create_instance(&self, type_name: &str) -> Result<InstanceId, EngineError> {
        self.submit(EngineCommand::CreateInstance {
            type_name: type_name.to_string(),
        })
        .map(|o| o.instance)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// The materialised `(schema, blocks)` context of an instance — the
    /// shared `Arc`s the command path executes against (bias already
    /// overlaid). A reader that pairs them with the instance's state reads
    /// both under one guard instead:
    /// `engine.store.with_context(&engine.repo, id, ..)`.
    pub fn materialized(
        &self,
        id: InstanceId,
    ) -> Result<(Arc<ProcessSchema>, Arc<Blocks>), EngineError> {
        Ok(self.store.with_context(&self.repo, id, |_, ctx| {
            (ctx.schema.clone(), ctx.blocks.clone())
        })?)
    }

    /// The global worklist: every activated activity of every instance, in
    /// instance-id order, computed from the store — the one place that says
    /// which instances exist, on which schema and in which state. The store
    /// is walked one shard guard at a time, each instance's items computed
    /// from its `(context, state)` pair under the guard that holds the two
    /// together, so the result is per-instance current rather than one
    /// frozen instant — a racing command shows either its old or its new
    /// item set, never a mix.
    ///
    /// Instances whose schema context cannot be resolved are skipped, but
    /// not silently: each failure is recorded as an
    /// [`EngineEvent::WorklistResolutionFailed`] monitor event — once per
    /// ongoing failure, by whichever worklist read finds it first, not once
    /// per read, so a permanently dangling instance cannot grow the monitor
    /// log without bound (the next write of the instance re-arms the
    /// report). Use [`ProcessEngine::try_worklist`] to fail as well.
    pub fn worklist(&self) -> Vec<WorkItem> {
        self.worklist_where(false, None)
            .expect("invariant: the lenient worklist pass records failures instead of erroring")
    }

    /// [`ProcessEngine::worklist`], failing if any instance's schema
    /// context cannot be resolved (with the error of the lowest such id) —
    /// the strict variant monitoring components use to surface store
    /// corruption.
    pub fn try_worklist(&self) -> Result<Vec<WorkItem>, EngineError> {
        self.worklist_where(true, None)
    }

    /// The worklist filtered by actor role (items without a role are
    /// claimable by anyone). Filtered while the store is walked, so only
    /// claimable items are ever built.
    pub fn worklist_for(&self, role: &str) -> Vec<WorkItem> {
        self.worklist_where(false, Some(role))
            .expect("invariant: the lenient worklist pass records failures instead of erroring")
    }

    fn worklist_where(
        &self,
        strict: bool,
        role: Option<&str>,
    ) -> Result<Vec<WorkItem>, EngineError> {
        let mut items = Vec::new();
        let scan = self.store.scan(&self.repo, 0, |id, offer| {
            items_for(id, offer, role, &mut items)
        });
        // The strict read reports too: the scan has marked what it found,
        // so no later read would.
        self.report_unresolvable(&scan.unresolvable);
        match scan.unresolvable.into_iter().next() {
            Some(failed) if strict => return Err(failed.error.into()),
            _ => {}
        }
        // The shards came one after the other, each in id order.
        items.sort_by_key(|w| w.instance);
        Ok(items)
    }

    /// Records an [`EngineEvent::WorklistResolutionFailed`] for every
    /// instance a worklist read is the first to find unresolvable.
    fn report_unresolvable(&self, found: &[Unresolvable]) {
        for Unresolvable { id, error, .. } in found.iter().filter(|u| u.first) {
            let e = EngineError::from(error.clone());
            self.monitor.record(EngineEvent::WorklistResolutionFailed {
                instance: *id,
                kind: e.failure_kind(),
                reason: e.to_string(),
            });
        }
    }

    /// The worklist as a **delta** since a previous poll: what changed
    /// after epoch `since`, instead of a full clone of every item.
    ///
    /// Consumers keep the returned `epoch` and pass it as the next
    /// `since`; `since == 0` bootstraps (everything currently offered is
    /// reported as added, nothing as invalidated). Apply a delta by
    /// dropping every id in `invalidated`, then **replacing** the item set
    /// of every id in `added` — each added entry carries the instance's
    /// full current set, so application is idempotent. `added` is a set:
    /// each instance once, in the order the scan met them, which is no
    /// order a consumer may rely on. Replaying deltas from 0 reconstructs
    /// exactly what every instance offers (property-checked in the test
    /// suite).
    ///
    /// An incremental poll (`since > 0`) costs what changed, not what
    /// exists: the store stamps every change of an instance — through the
    /// engine or directly through the public `store` field — with a change
    /// epoch and keeps its ids in that order, so the poll is a range read
    /// past `since`, one shard guard at a time. The stamp of every command
    /// kind — a create, a segment of discrete commands, a drive — says what
    /// the instance offers since, as ids into the names table of the
    /// schema it ran on, so the poll copies that stamp — a table handle and
    /// a few slots, an [`Offered`] — off the change order and renders no
    /// item; where a stamp does not say (a change, a migration, a direct
    /// write), the slots are read from the instance as
    /// [`ProcessEngine::worklist`] reads them — through the same table, so
    /// either way an item's strings, once rendered, are shared. The
    /// delta is complete through the returned `epoch`, the counter as read
    /// before the first guard (see [`InstanceStore::scan`]); a change
    /// racing with the poll lands in this delta, the next, or harmlessly
    /// both. A resident instance whose schema cannot be resolved is
    /// reported as offering nothing (and to the monitor, as by
    /// [`ProcessEngine::worklist`]); a removed one as invalidated.
    ///
    /// A cursor is valid only for the engine that issued it: epochs
    /// restart at 0 with every engine, recovered ones included. A `since`
    /// ahead of this engine's epoch can only come from another engine and
    /// is served as a bootstrap.
    pub fn worklist_delta(&self, since: u64) -> WorklistDelta {
        // Every changed instance drew at least one epoch past the cursor
        // (a bootstrap's is 0: capped, and grown from there).
        let changed = self.store.epoch().saturating_sub(since).min(1024);
        let mut added = Vec::with_capacity(changed as usize);
        let scan = self.store.scan(&self.repo, since, |id, offer| {
            added.push((id, Offered::of(id, offer)));
        });
        added.extend(
            scan.unresolvable
                .iter()
                .map(|u| (u.id, Offered::nothing(u.id))),
        );
        self.report_unresolvable(&scan.unresolvable);
        WorklistDelta {
            added,
            invalidated: scan.gone,
            epoch: scan.epoch,
        }
    }

    /// Pending XOR/loop decisions of an instance.
    pub fn pending_decisions(&self, id: InstanceId) -> Result<Vec<Decision>, EngineError> {
        Ok(self.store.with_context(&self.repo, id, |inst, ctx| {
            ctx.exec().pending_decisions(&inst.state)
        })?)
    }

    /// Whether an instance has reached its end node.
    pub fn is_finished(&self, id: InstanceId) -> Result<bool, EngineError> {
        Ok(self.store.with_context(&self.repo, id, |inst, ctx| {
            ctx.exec().is_finished(&inst.state)
        })?)
    }

    /// Removes an instance from the engine (cancellation / archival),
    /// returning its final stored form. An in-flight migration that loses
    /// the instance to this call reports it as [`ConflictKind::Vanished`],
    /// not as a conflict.
    pub fn remove_instance(&self, id: InstanceId) -> Result<StoredInstance, EngineError> {
        // Write-ahead, under the guard that removes the instance: nothing
        // of it can be journaled after its removal, and a racing second
        // removal journals nothing — it gets NotFound.
        let inst = self
            .store
            .remove_journaled(id, || self.journal(|| WalRecord::Removed { id }))?
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
        self.monitor
            .record(EngineEvent::InstanceRemoved { instance: id });
        Ok(inst)
    }

    // ------------------------------------------------------------------
    // Ad-hoc change (instance level)
    // ------------------------------------------------------------------

    /// Undoes the most recent ad-hoc change of an instance (inverse
    /// operation with full pre-/post-condition and state checking). The
    /// bias shrinks; if it becomes empty the instance is unbiased again
    /// and shares the deployed schema.
    ///
    /// The inverse is staged on a change transaction over the instance's
    /// current schema, like any change: one verification pass, whose
    /// blocks the adapted state and the new context are compiled over, and
    /// the install a session commit runs.
    pub fn undo_ad_hoc_change(&self, id: InstanceId) -> Result<(), EngineError> {
        // One read: the schema the inverse is computed on and the
        // (version, bias, state) the install compares against.
        let (ctx, inst) = self
            .store
            .with_context(&self.repo, id, |inst, ctx| (ctx.clone(), inst.clone()))?;
        let (current, blocks) = (&ctx.schema, &ctx.blocks);
        let last = inst.bias.ops.last().cloned().ok_or_else(|| {
            EngineError::Change(ChangeError::Precondition(
                "instance is unbiased; nothing to undo".into(),
            ))
        })?;
        let inv = adept_core::inverse_of(current, &last).ok_or_else(|| {
            EngineError::Change(ChangeError::Precondition(format!(
                "{} is not invertible",
                last.op.name()
            )))
        })?;
        let mut txn = ChangeTxn::begin_ad_hoc(Arc::clone(current));
        txn.stage(&inv)?;
        let committed = txn
            .commit_schema()
            .map_err(|(_, e)| EngineError::Change(e))?;
        // State precondition of the inverse (e.g. cannot undo an insert
        // whose activity already ran).
        let rec = &committed.delta.ops[0];
        let verdict = check_fast_op(current, blocks, &inst.state, rec);
        if let Verdict::NotCompliant(c) = verdict {
            return Err(EngineError::Change(ChangeError::StatePrecondition {
                node: rec.anchor_nodes().first().copied().unwrap_or(NodeId(0)),
                reason: c.to_string(),
            }));
        }
        // The undo is a committed change like any other: it gets its own
        // transaction record (applied inverse + the op that would redo it)
        // so the audit trail can reconstruct the bias exactly.
        let txn = TxnOps {
            ops: vec![rec.op.clone()],
            inverses: vec![Some(last.op.clone())],
            labels: vec![format!("undo {}", last.op.name())],
        };
        self.install_change(inst, blocks, committed, txn, "undo")?;
        Ok(())
    }

    /// The one install of an instance-level change that passed every gate
    /// (a session commit or an undo): `seen` is the snapshot the gates
    /// validated against, `blocks` the block structure of the schema it runs
    /// on, `change.base`. The state is adapted onto `change.target` — the
    /// analysed schema the change was judged on, which becomes the
    /// instance's context as it is — and the bias extended by the change
    /// and purged. The CAS install re-checks `seen`'s revision under the
    /// store's write lock, so a commit, migration or execution step racing
    /// in after the caller's read is refused (`what` names the loser in the
    /// error), not clobbered. Write-ahead: the candidate post-image and the
    /// transaction record go to the WAL in one line while the shard lock is
    /// held, *before* the candidate replaces the visible instance — a
    /// change the journal could not record never becomes visible. Returns
    /// the transaction sequence number and the change's delta.
    pub(crate) fn install_change(
        &self,
        seen: StoredInstance,
        blocks: &Blocks,
        change: CommittedTxn,
        txn: TxnOps,
        what: &str,
    ) -> Result<(u64, Delta), EngineError> {
        let CommittedTxn {
            base,
            target,
            delta,
            ..
        } = change;
        let StoredInstance {
            id,
            rev,
            mut bias,
            mut state,
            ..
        } = seen;
        adapt_instance_state(&base, blocks, &target, &delta, &mut state)?;
        for rec in &delta.ops {
            bias.push(rec.clone());
        }
        bias.purge();
        let n = txn.ops.len();
        let wal = &self.wal;
        let mut seq = 0u64;
        let installed = self
            .store
            .install(id, Some(rev), bias, target, state, |candidate| {
                wal.append_txn(|txn_seq| {
                    let txn = TxnRecord {
                        seq: txn_seq,
                        target: TxnTarget::Instance(id),
                        ops: txn.ops,
                        inverses: txn.inverses,
                    };
                    (
                        WalRecord::ChangeCommitted {
                            record: InstanceRecord::of(candidate),
                            txn: txn.clone(),
                        },
                        txn,
                    )
                })
                .map(|s| seq = s)
            })?;
        if !installed {
            return Err(EngineError::Change(ChangeError::Precondition(format!(
                "concurrent change: {id} was modified while the {what} committed"
            ))));
        }
        for op in txn.labels {
            self.monitor
                .record(EngineEvent::AdHocChanged { instance: id, op });
        }
        self.monitor.record(EngineEvent::TxnCommitted {
            target: id.to_string(),
            ops: n,
            seq,
        });
        Ok((seq, delta))
    }

    // ------------------------------------------------------------------
    // Schema evolution and migration
    // ------------------------------------------------------------------

    /// Migrates all instances of a type to its newest version (hop by hop
    /// through intermediate versions). With `threads > 1` the per-instance
    /// checks and adaptations run in parallel worker threads — migrating
    /// thousands of instances on the fly is exactly the workload the paper
    /// targets.
    pub fn migrate_all(
        &self,
        type_name: &str,
        options: &MigrationOptions,
        threads: usize,
    ) -> Result<MigrationReport, EngineError> {
        let to_version = self
            .repo
            .latest_version(type_name)
            .ok_or_else(|| EngineError::NotFound(format!("process type {type_name:?}")))?;
        let ids = self.store.instances_of(type_name);
        let from_version = ids
            .iter()
            .filter_map(|id| self.store.with_instance(*id, |i| i.version))
            .min()
            .unwrap_or(to_version);

        let outcomes: Vec<InstanceOutcome> = if threads <= 1 || ids.len() < 2 {
            ids.iter()
                .map(|id| self.migrate_one_isolated(type_name, *id, to_version, options))
                .collect()
        } else {
            let chunk = ids.len().div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = ids
                    .chunks(chunk)
                    .map(|part| {
                        let h = scope.spawn(move || {
                            part.iter()
                                .map(|id| {
                                    self.migrate_one_isolated(type_name, *id, to_version, options)
                                })
                                .collect::<Vec<_>>()
                        });
                        (part, h)
                    })
                    .collect();
                // Per-instance panics are already caught inside the worker;
                // a panic that still reaches the join (e.g. in the collection
                // machinery itself) downgrades the chunk to per-instance
                // failure outcomes instead of aborting the whole batch — one
                // poisoned instance must not sink a 10k-instance migration.
                handles
                    .into_iter()
                    .flat_map(|(part, h)| {
                        h.join()
                            .unwrap_or_else(|payload| panic_outcomes(part, &payload))
                    })
                    .collect()
            })
        };

        let report = MigrationReport {
            type_name: type_name.to_string(),
            from_version,
            to_version,
            outcomes,
        };
        Ok(report)
    }

    /// [`ProcessEngine::migrate_one`] behind a panic boundary: a panic in
    /// the migration of one instance (a poisoned state, a bug in a check)
    /// becomes that instance's failure outcome instead of unwinding into
    /// the batch. The store's locks recover from poisoning, so the rest
    /// of the population stays migratable.
    fn migrate_one_isolated(
        &self,
        type_name: &str,
        id: InstanceId,
        to_version: u32,
        options: &MigrationOptions,
    ) -> InstanceOutcome {
        catch_unwind(AssertUnwindSafe(|| {
            self.migrate_one(type_name, id, to_version, options)
        }))
        .unwrap_or_else(|payload| panic_outcome(id, &payload))
    }

    /// Migrates one instance hop by hop up to `to_version`. Returns its
    /// final outcome (the first conflict stops the chain).
    fn migrate_one(
        &self,
        type_name: &str,
        id: InstanceId,
        to_version: u32,
        options: &MigrationOptions,
    ) -> InstanceOutcome {
        // Bounded contention retries, mirroring the command path's
        // MAX_GROUP_RETRIES: a hot instance whose commands keep beating
        // the migration's read-check-install window must not spin a
        // migration worker forever. Successful hops reset the budget.
        const MAX_MIGRATE_RETRIES: usize = 8;
        let mut contested = 0usize;
        let outcome = |biased: bool, verdict: Verdict| InstanceOutcome {
            instance: id,
            biased,
            verdict,
        };
        let structural = |biased: bool, reason: String| {
            outcome(biased, Verdict::conflict(ConflictKind::Structural, reason))
        };
        loop {
            // One guard: the header says whether a hop is left; what the
            // hop is judged on and what its install compares against is
            // cloned only when one is.
            let read = self.store.with_context(&self.repo, id, |inst, ctx| {
                if inst.version >= to_version {
                    return Err(inst.is_biased());
                }
                Ok((
                    ctx.clone(),
                    inst.version,
                    inst.rev,
                    inst.bias.clone(),
                    inst.state.clone(),
                ))
            });
            let (ctx, version, rev, bias, state) = match read {
                Ok(Ok(hop)) => hop,
                Ok(Err(biased)) => return outcome(biased, Verdict::Compliant),
                // The instance was removed (cancelled/archived) while the
                // migration was in flight. That is not a structural
                // failure of the change — there is nothing left to
                // migrate — so it gets its own outcome kind and reports
                // stop counting it against the migration.
                Err(ContextError::Gone(_)) => {
                    return outcome(
                        false,
                        Verdict::conflict(
                            ConflictKind::Vanished,
                            "instance disappeared during migration",
                        ),
                    )
                }
                Err(e) => {
                    let biased = self.store.with_instance(id, |i| i.is_biased());
                    return structural(
                        biased.unwrap_or(false),
                        format!("cannot materialise current schema ({e})"),
                    );
                }
            };
            let biased = !bias.is_empty();
            let next = version + 1;
            let Some(delta) = self.repo.delta_between(type_name, version) else {
                return structural(
                    biased,
                    format!("no recorded delta from V{version} to V{next}"),
                );
            };
            let Some(new_dep) = self.repo.deployed(type_name, next) else {
                return structural(biased, format!("V{next} not deployed"));
            };
            let res = migrate_instance(
                &ctx.schema,
                &ctx.blocks,
                &new_dep,
                &delta,
                &bias,
                &state,
                options,
            );
            match res.verdict {
                Verdict::Compliant => {
                    let Some(adapted) = res.adapted else {
                        // A compliant verdict without adapted state is a
                        // checker bug; surface it as a per-instance
                        // failure instead of sinking the whole batch.
                        return outcome(
                            biased,
                            Verdict::conflict(
                                ConflictKind::Internal,
                                "compliant migration result carried no adapted state".to_string(),
                            ),
                        );
                    };
                    // CAS install: a command or change committing between
                    // this hop's read and its install must not be
                    // overwritten by state adapted from the stale snapshot
                    // — on a lost race the loop re-reads and re-checks the
                    // hop. It installs the schema it was judged on: a
                    // biased hop's analysed target, which becomes the
                    // instance's context, or the new version's deployment.
                    // On a durable engine the hop's post-image is
                    // journaled inside the CAS (before visibility); a
                    // journaling failure aborts the hop.
                    let target = res.materialized.unwrap_or(new_dep);
                    let installed =
                        self.store
                            .install(id, Some(rev), bias, target, adapted, |candidate| {
                                self.journal(|| WalRecord::Migrated {
                                    record: InstanceRecord::of(candidate),
                                })
                            });
                    match installed {
                        Err(e) => {
                            return outcome(
                                biased,
                                Verdict::conflict(
                                    ConflictKind::Internal,
                                    format!("migration hop could not be journaled: {e}"),
                                ),
                            );
                        }
                        Ok(false) => {
                            contested += 1;
                            if contested >= MAX_MIGRATE_RETRIES {
                                return contested_outcome(id, contested);
                            }
                            continue;
                        }
                        Ok(true) => {}
                    }
                    contested = 0;
                    self.monitor.record(EngineEvent::Migrated {
                        instance: id,
                        to_version: next,
                    });
                }
                Verdict::NotCompliant(c) => {
                    self.monitor.record(EngineEvent::MigrationRejected {
                        instance: id,
                        node: None,
                        kind: crate::monitor::FailureKind::from(&c.kind),
                        reason: c.to_string(),
                    });
                    return outcome(biased, Verdict::NotCompliant(c));
                }
            }
        }
    }

    /// Re-checks compliance of an instance against a delta without applying
    /// anything (used by what-if tooling and tests).
    pub fn check_compliance(&self, id: InstanceId, delta: &Delta) -> Result<Verdict, EngineError> {
        Ok(self.store.with_context(&self.repo, id, |inst, ctx| {
            check_fast(&ctx.schema, &ctx.blocks, &inst.state, delta)
        })?)
    }

    /// Byte-level memory accounting (paper Fig. 2).
    pub fn memory(&self) -> MemoryBreakdown {
        self.store.memory(&self.repo)
    }

    /// Renders an instance for the monitoring component.
    pub fn render_instance(&self, id: InstanceId) -> Result<String, EngineError> {
        Ok(self.store.with_context(&self.repo, id, |inst, ctx| {
            crate::monitor::render_instance_summary(&ctx.schema, &inst.state)
        })?)
    }
}

impl Default for ProcessEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Best-effort rendering of a panic payload (`panic!` with a literal or a
/// formatted string covers practically every real panic).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// One [`ConflictKind::Internal`] failure outcome for an instance whose
/// migration panicked.
fn panic_outcome(id: InstanceId, payload: &(dyn std::any::Any + Send)) -> InstanceOutcome {
    InstanceOutcome {
        instance: id,
        biased: false,
        verdict: Verdict::conflict(
            ConflictKind::Internal,
            format!("migration worker panicked: {}", panic_message(payload)),
        ),
    }
}

/// The outcome of a migration that lost the read-check-install race to
/// concurrent commands on every attempt: the instance is fine, the
/// migration just could not be committed — the caller re-runs
/// `migrate_all` once traffic allows.
fn contested_outcome(id: InstanceId, attempts: usize) -> InstanceOutcome {
    InstanceOutcome {
        instance: id,
        biased: false,
        verdict: Verdict::conflict(
            ConflictKind::Internal,
            format!(
                "concurrent commands outpaced the migration ({attempts} contested attempts); re-run migrate_all"
            ),
        ),
    }
}

/// Failure outcomes for a whole chunk whose worker died before reporting —
/// the join-side backstop behind the per-instance `catch_unwind`.
fn panic_outcomes(
    ids: &[InstanceId],
    payload: &(dyn std::any::Any + Send),
) -> Vec<InstanceOutcome> {
    ids.iter().map(|id| panic_outcome(*id, payload)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::{ChangeOp, NewActivity};
    use adept_model::{AccessMode, SchemaBuilder, ValueType};

    /// Drives an instance through the command path.
    fn drive(engine: &ProcessEngine, id: InstanceId, max: Option<usize>) {
        engine
            .submit(EngineCommand::Drive { instance: id, max })
            .unwrap();
    }

    /// One-op ad-hoc change through a change session.
    fn adhoc(engine: &ProcessEngine, id: InstanceId, op: &ChangeOp) -> Result<(), EngineError> {
        let mut session = engine.begin_change(id)?;
        session.stage(op)?;
        session.commit().map(|_| ())
    }

    /// One-batch type evolution through a change session.
    fn evolve(engine: &ProcessEngine, name: &str, ops: &[ChangeOp]) -> u32 {
        let mut session = engine.begin_evolution(name).unwrap();
        for op in ops {
            session.stage(op).unwrap();
        }
        session
            .commit()
            .unwrap()
            .new_version
            .expect("evolution commits produce a version")
    }

    fn order_schema() -> ProcessSchema {
        let mut b = SchemaBuilder::new("online order");
        b.activity_with("get order", |a| a.role = Some("sales".into()));
        b.activity("collect data");
        b.and_split();
        b.branch();
        b.activity("confirm order");
        b.branch();
        b.activity("compose order");
        b.activity("pack goods");
        b.and_join();
        b.activity("deliver goods");
        b.build().unwrap()
    }

    #[test]
    fn full_lifecycle() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();

        let wl = engine.worklist();
        assert_eq!(wl.len(), 1);
        assert_eq!(&*wl[0].activity, "get order");
        assert_eq!(engine.worklist_for("sales").len(), 1);
        assert_eq!(engine.worklist_for("warehouse").len(), 0);

        engine
            .submit(EngineCommand::Start {
                instance: id,
                node: wl[0].node,
            })
            .unwrap();
        let outcome = engine
            .submit(EngineCommand::Complete {
                instance: id,
                node: wl[0].node,
                writes: vec![],
            })
            .unwrap();
        assert!(!outcome.finished);
        assert!(!engine.is_finished(id).unwrap());

        drive(&engine, id, None);
        assert!(engine.is_finished(id).unwrap());
        assert!(engine
            .monitor
            .events()
            .iter()
            .any(|(_, e)| matches!(e, EngineEvent::InstanceFinished { .. })));
    }

    #[test]
    fn ad_hoc_change_biases_single_instance() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let i1 = engine.create_instance(&name).unwrap();
        let i2 = engine.create_instance(&name).unwrap();

        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        adhoc(
            &engine,
            i1,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("check customer"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();

        let s1 = engine.store.schema_of(&engine.repo, i1).unwrap();
        let s2 = engine.store.schema_of(&engine.repo, i2).unwrap();
        assert!(s1.node_by_name("check customer").is_some());
        assert!(s2.node_by_name("check customer").is_none());
        assert!(engine.store.get(i1).unwrap().is_biased());
        assert!(!engine.store.get(i2).unwrap().is_biased());

        // The biased instance executes the inserted step.
        drive(&engine, i1, None);
        assert!(engine.is_finished(i1).unwrap());
    }

    #[test]
    fn ad_hoc_change_rejected_by_state() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        drive(&engine, id, None);

        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        let err = adhoc(
            &engine,
            id,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("too late"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Change(ChangeError::StatePrecondition { .. })
        ));
    }

    #[test]
    fn evolution_and_migration_report() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();

        // Three instances at different progress points (paper Fig. 3).
        let i1 = engine.create_instance(&name).unwrap(); // fresh: compliant
        let i2 = engine.create_instance(&name).unwrap(); // will be biased w/ conflict
        let i3 = engine.create_instance(&name).unwrap(); // runs to completion: state conflict
        drive(&engine, i1, Some(2));
        drive(&engine, i3, None);

        // I2's ad-hoc bias: sync(confirm order -> compose order).
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let confirm = v1.schema.node_by_name("confirm order").unwrap().id;
        let compose = v1.schema.node_by_name("compose order").unwrap().id;
        let pack = v1.schema.node_by_name("pack goods").unwrap().id;
        adhoc(
            &engine,
            i2,
            &ChangeOp::InsertSyncEdge {
                from: confirm,
                to: compose,
            },
        )
        .unwrap();

        // ΔT: insert "send questions" + sync to confirm order (Fig. 1).
        let v2 = evolve(
            &engine,
            &name,
            &[ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            }],
        );
        assert_eq!(v2, 2);
        let sq = engine
            .repo
            .deployed(&name, 2)
            .unwrap()
            .schema
            .node_by_name("send questions")
            .unwrap()
            .id;
        let v3 = evolve(
            &engine,
            &name,
            &[ChangeOp::InsertSyncEdge {
                from: sq,
                to: confirm,
            }],
        );
        assert_eq!(v3, 3);

        let report = engine
            .migrate_all(&name, &MigrationOptions::default(), 1)
            .unwrap();
        assert_eq!(report.total(), 3);
        assert_eq!(report.migrated(), 1, "{report}");
        assert_eq!(report.conflicts(adept_core::ConflictKind::Structural), 1);
        assert_eq!(report.conflicts(adept_core::ConflictKind::State), 1);

        // The migrated instance continues and executes the new activity.
        drive(&engine, i1, None);
        assert!(engine.is_finished(i1).unwrap());
        let inst1 = engine.store.get(i1).unwrap();
        assert_eq!(inst1.version, 3);
        assert!(inst1.state.history.started_activities().contains(&sq));
    }

    #[test]
    fn parallel_migration_matches_sequential() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        for _ in 0..64 {
            let id = engine.create_instance(&name).unwrap();
            drive(&engine, id, Some(2));
        }
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let compose = v1.schema.node_by_name("compose order").unwrap().id;
        let pack = v1.schema.node_by_name("pack goods").unwrap().id;
        evolve(
            &engine,
            &name,
            &[ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            }],
        );
        let report = engine
            .migrate_all(&name, &MigrationOptions::default(), 4)
            .unwrap();
        assert_eq!(report.total(), 64);
        assert_eq!(report.migrated(), 64, "{report}");
    }

    #[test]
    fn undo_ad_hoc_change_restores_unbiased_state() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        adhoc(
            &engine,
            id,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("temp step"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();
        assert!(engine.store.get(id).unwrap().is_biased());
        engine.undo_ad_hoc_change(id).unwrap();
        assert!(!engine.store.get(id).unwrap().is_biased());
        // Undoing again fails: nothing left.
        assert!(engine.undo_ad_hoc_change(id).is_err());
        // The instance runs to completion on the restored schema.
        drive(&engine, id, None);
        assert!(engine.is_finished(id).unwrap());
    }

    #[test]
    fn undo_rejected_when_inserted_activity_already_ran() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        adhoc(
            &engine,
            id,
            &ChangeOp::SerialInsert {
                activity: NewActivity::named("ran already"),
                pred: get,
                succ: collect,
            },
        )
        .unwrap();
        // Execute past the inserted activity.
        drive(&engine, id, Some(2));
        let err = engine.undo_ad_hoc_change(id).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Change(ChangeError::StatePrecondition { .. })
        ));
    }

    /// A sync edge, a move and a data edge, each committed and undone —
    /// on the live engine, and on one restored between commit and undo,
    /// whose context is rebuilt from the substitution block: the op leaves
    /// no trace in the schema the instance runs on, which still finishes.
    #[test]
    fn undo_round_trips_a_sync_edge_a_move_and_a_data_edge() {
        let mut b = SchemaBuilder::new("undo");
        let x = b.data("x", ValueType::Int);
        let a = b.activity("a");
        b.write(a, x);
        b.and_split();
        b.branch();
        let left = b.activity("left");
        b.branch();
        let right = b.activity("right");
        let join = b.and_join();
        let z = b.activity("z");
        let schema = b.build().unwrap();
        let ops = [
            ChangeOp::InsertSyncEdge {
                from: left,
                to: right,
            },
            ChangeOp::MoveActivity {
                node: left,
                pred: right,
                succ: join,
            },
            ChangeOp::AddDataEdge {
                node: z,
                data: x,
                mode: AccessMode::Read,
                optional: false,
            },
        ];
        for op in &ops {
            for restore in [false, true] {
                let engine = ProcessEngine::new();
                let name = engine.deploy(schema.clone()).unwrap();
                let id = engine.create_instance(&name).unwrap();
                adhoc(&engine, id, op).unwrap();
                let engine = match restore {
                    true => ProcessEngine::from_snapshot(&engine.snapshot()).unwrap(),
                    false => engine,
                };
                engine.undo_ad_hoc_change(id).unwrap();
                let s = engine.store.schema_of(&engine.repo, id).unwrap();
                let what = format!("{op} (restored: {restore})");
                assert_eq!(s.sync_edges().count(), 0, "{what}");
                assert_eq!(s.sole_control_successor(left), Some(join), "{what}");
                assert_eq!(s.sole_control_successor(right), Some(join), "{what}");
                assert_eq!(s.readers_of(x).count(), 0, "{what}");
                drive(&engine, id, None);
                assert!(engine.is_finished(id).unwrap(), "{what}");
            }
        }
    }

    /// An op whose record does not say how to undo it is refused, and the
    /// instance keeps its bias.
    #[test]
    fn undo_refuses_a_non_invertible_op() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let confirm = v1.schema.node_by_name("confirm order").unwrap().id;
        adhoc(&engine, id, &ChangeOp::DeleteActivity { node: confirm }).unwrap();
        let bias = engine.store.get(id).unwrap().bias;
        let err = engine.undo_ad_hoc_change(id).unwrap_err();
        assert!(
            matches!(err, EngineError::Change(ChangeError::Precondition(_))),
            "{err}"
        );
        assert_eq!(engine.store.get(id).unwrap().bias, bias);
    }

    /// A context is built where the change is judged and handed to the
    /// install: under the default (hybrid) strategy the store never builds
    /// one as long as the engine has seen every change — and builds exactly
    /// one per biased instance after a restore, on its first touch.
    #[test]
    fn contexts_are_built_once_and_only_a_restore_leaves_one_to_fill() {
        use adept_storage::MemoryBackend;
        let medium = MemoryBackend::new();
        let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
        let name = engine.deploy(order_schema()).unwrap();
        let ids: Vec<InstanceId> = (0..4)
            .map(|_| engine.create_instance(&name).unwrap())
            .collect();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let node = |n: &str| v1.schema.node_by_name(n).unwrap().id;
        let insert = |label: &str, pred: &str, succ: &str| ChangeOp::SerialInsert {
            activity: NewActivity::named(label),
            pred: node(pred),
            succ: node(succ),
        };
        // Ad-hoc commits (ids[3] twice, so its undo leaves it biased), an
        // undo each for two of them, commands on the resulting schemas.
        for id in &ids[1..] {
            adhoc(
                &engine,
                *id,
                &insert("check customer", "get order", "collect data"),
            )
            .unwrap();
        }
        let second = insert("check credit", "compose order", "pack goods");
        adhoc(&engine, ids[3], &second).unwrap();
        engine.undo_ad_hoc_change(ids[2]).unwrap();
        engine.undo_ad_hoc_change(ids[3]).unwrap();
        for id in &ids {
            drive(&engine, *id, Some(1));
        }
        // A type change the biased instances migrate across, then commands.
        evolve(
            &engine,
            &name,
            &[insert("send questions", "compose order", "pack goods")],
        );
        let report = engine
            .migrate_all(&name, &MigrationOptions::default(), 1)
            .unwrap();
        assert_eq!(report.migrated(), 4, "{report}");
        for id in &ids {
            drive(&engine, *id, Some(1));
            engine.worklist();
            engine.render_instance(*id).unwrap();
        }
        let biased = ids
            .iter()
            .filter(|id| engine.store.get(**id).unwrap().is_biased())
            .count() as u64;
        assert_eq!(biased, 2);
        assert_eq!(engine.store.stats().materializations, 0);

        // Restored instances carry no context: one build each, on the
        // first touch, none on the second.
        let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
        assert_eq!(restored.store.stats().materializations, 0);
        // A replayed log touches as the commands did: a command's delta
        // lands on the schema of the instance it names, so each biased
        // image a post-image record restores is built once, where the
        // first delta after it lands (the audit builds the rest) — here
        // each biased instance's change and its migration hop.
        let (recovered, _) =
            crate::recovery::recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
        for (engine, builds) in [(&restored, biased), (&recovered, 2 * biased)] {
            for _ in 0..2 {
                for id in &ids {
                    engine.is_finished(*id).unwrap();
                }
                assert_eq!(engine.store.stats().materializations, builds);
            }
        }
    }

    #[test]
    fn instance_rendering_via_engine() {
        let engine = ProcessEngine::new();
        let name = engine.deploy(order_schema()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let text = engine.render_instance(id).unwrap();
        assert!(text.contains("get order"));
    }
}
