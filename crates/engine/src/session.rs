//! Change sessions: the engine's transactional change surface.
//!
//! A [`ChangeSession`] wraps an [`adept_core::ChangeTxn`] with the
//! engine-side bookkeeping for one target — a running instance
//! ([`ProcessEngine::begin_change`]) or a process type
//! ([`ProcessEngine::begin_evolution`]) — and drives the
//! stage → preview → commit lifecycle:
//!
//! * [`ChangeSession::stage`] applies one operation to the session's
//!   private working overlay (structural preconditions only — the
//!   expensive checks are deferred);
//! * [`ChangeSession::preview`] is a **pure dry run**: per-op diagnostics,
//!   the verification report of the overlay, and the Fig.-1
//!   fast-compliance verdict against the instance's *current* marking,
//!   without mutating engine state;
//! * [`ChangeSession::commit`] re-runs what depends on the world — the
//!   (version, bias) guard and the compliance gate against the current
//!   marking — takes the verification verdict on the overlay, and
//!   atomically installs the outcome — schema swap or bias update, local
//!   state adaptation, monitor events, and a transaction number — on a
//!   durable engine with its [`adept_storage::TxnRecord`] journaled in the
//!   line of the change. A failed commit leaves instance and repository
//!   bit-identical;
//! * [`ChangeSession::abort`] drops everything (staging never touched the
//!   engine, so abort is free).
//!
//! Committing `N` staged operations costs **one** verification pass and
//! one compile of the overlay, whether or not it was previewed first, and
//! no block analysis. The session opens its transaction on the analysed
//! schema it changes (the instance's context, the type's newest
//! deployment), so each staged operation derives the overlay's blocks from
//! the ones before it. The transaction remembers the verdict on the
//! overlay it owns (see `adept_core::txn`), and its commit compiles over
//! the blocks that verdict was reached on. The compiled overlay is what the
//! state is adapted on and what is installed, as it is: an instance's new
//! context, or the type's new deployment. An evolution's pass is whole; an
//! instance session's pass is restricted to what its staged operations
//! touched on the instance's already verified schema, and its preview
//! reports the warnings on those, not the schema's own.

use crate::engine::{EngineError, ProcessEngine};
use crate::monitor::{EngineEvent, FailureKind};
use adept_core::{ChangeError, ChangeOp, ChangeTxn, Delta, StagedOp, TxnPreview, Verdict};
use adept_model::{Blocks, InstanceId, NodeId};
use adept_storage::{TxnRecord, TxnTarget};
use std::sync::Arc;

/// What a session changes.
#[derive(Debug, Clone)]
enum SessionTarget {
    /// An ad-hoc change of one instance. The bias and version observed at
    /// `begin_change` guard against concurrent modification at commit.
    Instance {
        id: InstanceId,
        bias_at_begin: Delta,
        version_at_begin: u32,
    },
    /// A type evolution based on `base_version`.
    Type { name: String, base_version: u32 },
}

/// A staged multi-operation change against one instance or process type.
///
/// Obtained from [`ProcessEngine::begin_change`] /
/// [`ProcessEngine::begin_evolution`]; consumed by
/// [`ChangeSession::commit`] or [`ChangeSession::abort`]. Dropping the
/// session without committing is equivalent to aborting.
#[derive(Debug)]
pub struct ChangeSession<'e> {
    engine: &'e ProcessEngine,
    target: SessionTarget,
    txn: ChangeTxn,
    /// The block structure of the schema the session was opened on.
    blocks: Arc<Blocks>,
}

/// The receipt of a committed change transaction.
#[derive(Debug, Clone)]
pub struct TxnReceipt {
    /// Sequence number in the engine's transaction log.
    pub seq: u64,
    /// Number of committed operations.
    pub ops: usize,
    /// For type evolutions: the version the commit produced.
    pub new_version: Option<u32>,
    /// The composed change log, in staging order.
    pub delta: Delta,
}

impl ProcessEngine {
    /// Opens a change session for an ad-hoc modification of one running
    /// instance. The session stages against a private overlay of the
    /// instance's *current* (possibly already biased) schema; the engine
    /// is not touched until [`ChangeSession::commit`].
    pub fn begin_change(&self, id: InstanceId) -> Result<ChangeSession<'_>, EngineError> {
        // The schema the session stages on and the (version, bias) its
        // commit guard compares against come from one read: a change
        // landing between two would pass the guard on a schema that lacks
        // it.
        let (base, bias_at_begin, version_at_begin) =
            self.store.with_context(&self.repo, id, |inst, ctx| {
                (ctx.clone(), inst.bias.clone(), inst.version)
            })?;
        Ok(ChangeSession {
            engine: self,
            target: SessionTarget::Instance {
                id,
                bias_at_begin,
                version_at_begin,
            },
            txn: ChangeTxn::begin_ad_hoc(&base),
            blocks: base.blocks,
        })
    }

    /// Opens a change session evolving a process type. Staging happens on
    /// a private overlay of the newest version; committing installs the
    /// result as the next version (rejecting the commit if another
    /// evolution won the race in between).
    pub fn begin_evolution(&self, type_name: &str) -> Result<ChangeSession<'_>, EngineError> {
        let version = self
            .repo
            .latest_version(type_name)
            .ok_or_else(|| EngineError::NotFound(format!("process type {type_name:?}")))?;
        let dep = self
            .repo
            .deployed(type_name, version)
            .ok_or_else(|| EngineError::NotFound(format!("version {version}")))?;
        Ok(ChangeSession {
            engine: self,
            target: SessionTarget::Type {
                name: type_name.to_string(),
                base_version: version,
            },
            txn: ChangeTxn::begin(&dep),
            blocks: dep.blocks,
        })
    }
}

impl ChangeSession<'_> {
    /// Stages one operation on the session's working overlay. Structural
    /// preconditions are checked immediately; the full verification and
    /// compliance gates run once, at preview/commit. On failure nothing is
    /// staged and the session remains usable.
    pub fn stage(&mut self, op: &ChangeOp) -> Result<adept_core::AppliedOp, EngineError> {
        match self.txn.stage(op) {
            Ok(rec) => Ok(rec.clone()),
            Err(e) => {
                if let SessionTarget::Instance { id, .. } = &self.target {
                    self.engine.monitor.record(EngineEvent::AdHocRejected {
                        instance: *id,
                        op: op.to_string(),
                        node: e.failing_node(),
                        kind: FailureKind::of_change(&e),
                        reason: e.to_string(),
                    });
                }
                Err(e.into())
            }
        }
    }

    /// Rolls back the most recently staged operation. The remaining
    /// records are replayed from the session's base overlay — deliberately
    /// *not* undone via the recorded inverse, which would renumber
    /// overlay-created nodes and break the id correspondence of the
    /// records that stay staged (see `ChangeTxn::unstage_last`).
    pub fn unstage_last(&mut self) -> Result<adept_core::AppliedOp, EngineError> {
        self.txn.unstage_last().map_err(EngineError::from)
    }

    /// The staged operations, in staging order.
    pub fn staged(&self) -> &[StagedOp] {
        self.txn.staged()
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.txn.len()
    }

    /// Whether nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.txn.is_empty()
    }

    /// The composed delta of all staged operations.
    pub fn delta(&self) -> Delta {
        self.txn.delta()
    }

    /// A pure dry run of the commit gates: per-op diagnostics, the
    /// verification report of the final overlay and — for instance
    /// sessions — the fast-compliance verdict against the instance's
    /// *current* marking. No engine state is mutated; previewing and then
    /// aborting leaves the world bit-identical.
    ///
    /// The verification pass runs before the instance is looked at: the
    /// instance's shard guard is held for the (version, bias) comparison
    /// and the compliance verdicts only, so a preview never makes the
    /// writers of that shard wait out a verification.
    ///
    /// Like [`ChangeSession::commit`], the dry run fails with a
    /// concurrent-change error if the instance was modified since the
    /// session began — its verdicts would otherwise mix the session's
    /// schema with a marking that belongs to a different one.
    pub fn preview(&self) -> Result<TxnPreview, EngineError> {
        match &self.target {
            SessionTarget::Instance {
                id,
                bias_at_begin,
                version_at_begin,
            } => {
                // Before the guard: the pass, remembered by the transaction.
                self.txn.verify();
                let verdicts = self
                    .engine
                    .store
                    .with_instance(*id, |inst| {
                        if inst.version != *version_at_begin || inst.bias != *bias_at_begin {
                            return Err(EngineError::Change(ChangeError::Precondition(format!(
                                "concurrent change: {id} was modified since the session began"
                            ))));
                        }
                        Ok(self.txn.compliance_per_op(&self.blocks, &inst.state))
                    })
                    .ok_or_else(|| EngineError::NotFound(format!("{id}")))??;
                Ok(self.txn.preview_with(Some(verdicts)))
            }
            SessionTarget::Type { name, base_version } => {
                if self.engine.repo.latest_version(name) != Some(*base_version) {
                    return Err(EngineError::Change(ChangeError::Precondition(format!(
                        "concurrent evolution: \"{name}\" is no longer at V{base_version}"
                    ))));
                }
                Ok(self.txn.preview())
            }
        }
    }

    /// Commits all staged operations atomically: the verification verdict
    /// on the final overlay (one full pass, unless a preview of this
    /// overlay already ran it), one Fig.-1 compliance pass against the
    /// current instance marking (instance sessions), then the installation
    /// — bias + adapted state, or the new type version — a `TxnCommitted`
    /// monitor event and a transaction-log record.
    ///
    /// Any gate failure returns the error with **no observable effect**:
    /// instance, repository, bias and state are untouched.
    pub fn commit(self) -> Result<TxnReceipt, EngineError> {
        match self.target {
            SessionTarget::Instance {
                id,
                bias_at_begin,
                version_at_begin,
            } => Self::commit_instance(
                self.engine,
                self.txn,
                self.blocks,
                id,
                bias_at_begin,
                version_at_begin,
            ),
            SessionTarget::Type { name, base_version } => {
                Self::commit_evolution(self.engine, self.txn, name, base_version)
            }
        }
    }

    /// Abandons the session. Staging never touched the engine, so this
    /// only records the abort for the monitoring component.
    pub fn abort(self) {
        let target = match &self.target {
            SessionTarget::Instance { id, .. } => id.to_string(),
            SessionTarget::Type { name, .. } => format!("\"{name}\""),
        };
        self.engine.monitor.record(EngineEvent::TxnAborted {
            target,
            staged: self.txn.len(),
        });
    }

    fn commit_instance(
        engine: &ProcessEngine,
        txn: ChangeTxn,
        blocks: Arc<Blocks>,
        id: InstanceId,
        bias_at_begin: Delta,
        version_at_begin: u32,
    ) -> Result<TxnReceipt, EngineError> {
        let inst = engine
            .store
            .get(id)
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
        // Concurrency guard: the session staged against the schema
        // observed at begin; if another change or a migration rebased the
        // instance since, the overlay no longer applies.
        if inst.version != version_at_begin || inst.bias != bias_at_begin {
            return Err(EngineError::Change(ChangeError::Precondition(format!(
                "concurrent change: {id} was modified since the session began"
            ))));
        }

        // Gate 1 — state compliance: one pass of the per-operation Fig. 1
        // conditions over the staged records, against the *current*
        // marking.
        if let Err((idx, verdict)) = txn.check_compliance(&blocks, &inst.state) {
            let rec = &txn.staged()[idx].rec;
            let (kind, reason) = match &verdict {
                Verdict::NotCompliant(c) => (FailureKind::from(&c.kind), c.to_string()),
                Verdict::Compliant => unreachable!("conflict verdicts only"),
            };
            let anchor = rec.anchor_nodes().first().copied();
            engine.monitor.record(EngineEvent::AdHocRejected {
                instance: id,
                op: rec.op.to_string(),
                node: anchor,
                kind,
                reason: reason.clone(),
            });
            return Err(EngineError::Change(ChangeError::StatePrecondition {
                node: anchor.unwrap_or(NodeId(0)),
                reason,
            }));
        }

        // Gate 2 — the verification verdict on the overlay, compiled.
        let committed = match txn.commit_schema() {
            Ok(c) => c,
            Err((txn, e)) => {
                engine.monitor.record(EngineEvent::AdHocRejected {
                    instance: id,
                    op: txn.delta().summary(),
                    node: e.failing_node(),
                    kind: FailureKind::of_change(&e),
                    reason: e.to_string(),
                });
                return Err(e.into());
            }
        };

        // Installation: the state adapted on the compiled overlay, which
        // the instance executes on afterwards; one store mutation makes the
        // whole batch visible.
        let labels = committed
            .delta
            .ops
            .iter()
            .map(|r| r.op.to_string())
            .collect();
        let (seq, delta) =
            engine.install_change(inst, &blocks, committed, labels, "transaction")?;
        Ok(TxnReceipt {
            seq,
            ops: delta.len(),
            new_version: None,
            delta,
        })
    }

    fn commit_evolution(
        engine: &ProcessEngine,
        txn: ChangeTxn,
        name: String,
        base_version: u32,
    ) -> Result<TxnReceipt, EngineError> {
        // The verification verdict on the evolved overlay.
        let committed = match txn.commit_schema() {
            Ok(c) => c,
            Err((_txn, e)) => {
                engine.monitor.record(EngineEvent::EvolutionRejected {
                    type_name: name,
                    kind: FailureKind::of_change(&e),
                    reason: e.to_string(),
                });
                return Err(e.into());
            }
        };
        let n = committed.delta.len();
        // Atomic install: the repository re-checks the base version under
        // its types lock, so a racing evolution cannot interleave — and
        // the WAL record plus transaction record are journaled inside that
        // critical section, *before* the new version becomes visible (a
        // non-durable engine only numbers the transaction there).
        let wal = engine.wal();
        let mut seq = 0u64;
        let v = match engine.repo.install_evolution_journaled(
            &name,
            base_version,
            committed.target,
            committed.delta.clone(),
            |v| {
                wal.append_evolution(&name, base_version, |txn_seq| TxnRecord {
                    seq: txn_seq,
                    target: TxnTarget::Type {
                        name: name.clone(),
                        new_version: v,
                    },
                    ops: committed.delta.ops.iter().map(|r| r.op.clone()).collect(),
                })
                .map(|s| seq = s)
                .map_err(EngineError::from)
            },
        ) {
            Ok(v) => v,
            Err(e) => {
                let reason = match &e {
                    EngineError::Change(c) => c.to_string(),
                    EngineError::Storage(s) => s.to_string(),
                    other => other.to_string(),
                };
                engine.monitor.record(EngineEvent::EvolutionRejected {
                    type_name: name,
                    kind: e.failure_kind(),
                    reason,
                });
                return Err(e);
            }
        };
        engine.monitor.record(EngineEvent::TypeEvolved {
            type_name: name,
            version: v,
        });
        engine.monitor.record(EngineEvent::TxnCommitted {
            target: format!("V{v}"),
            ops: n,
            seq,
        });
        Ok(TxnReceipt {
            seq,
            ops: n,
            new_version: Some(v),
            delta: committed.delta,
        })
    }
}
