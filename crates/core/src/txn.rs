//! Change transactions: staging multiple change operations as one guarded,
//! atomic unit.
//!
//! ADEPT2's promise is that dynamic changes — ad-hoc instance deviations
//! and type evolutions alike — can never corrupt a schema or an instance
//! state. The one-op-at-a-time entry points ([`crate::apply::apply_op`])
//! buy that promise expensively: every operation pays a **full buildtime
//! verification pass** as its postcondition, so a change of N operations
//! verifies N times. A [`ChangeTxn`] restores the amortised cost model the
//! paper intends:
//!
//! 1. **stage** — each operation is applied to a private *working overlay*
//!    of the base schema with its structural preconditions checked, its
//!    application record ([`AppliedOp`]) captured, and its inverse
//!    ([`crate::inverse::inverse_of`]) recorded for rollback. The overlay
//!    is edited in place — staging copies no schema; an operation that
//!    fails part-way leaves a partial edit, so a failed stage rebuilds the
//!    overlay from the base and the staged records, as an unstage does.
//!    Staging also records what the operation touched on the base — the
//!    verification scope of an ad-hoc change (see below) — and keeps the
//!    overlay's block structure current: a transaction opens on an
//!    analysed base ([`ChangeTxn::begin`], [`ChangeTxn::begin_ad_hoc`]),
//!    and each operation edits the structure the overlay had before it,
//!    so the overlay is never analysed — the preconditions of later
//!    operations (a sync edge's branches) and the verification read the
//!    derived structure;
//! 2. **preview** — a pure dry run: per-op diagnostics, the one
//!    verification pass over the final overlay, and one Fig.-1
//!    fast-compliance pass of the composed delta against an instance
//!    marking — nothing observable is mutated;
//! 3. **commit** — the same verification + compliance gate, after which
//!    the caller installs the overlay with the block structure and arena
//!    it was verified and compiled on, and the composed [`Delta`]
//!    atomically. A failing
//!    gate consumes nothing: the base schema, the staged record and every
//!    observable structure are untouched.
//!
//! What that pass checks depends on the base. A type evolution's overlay
//! is verified whole ([`Execution::verify`]): its result is a new version
//! every later instance runs on. An ad-hoc change's base is the schema a
//! running instance already runs on, verified when it was deployed,
//! changed or migrated to; the overlay is verified only where the staged
//! operations touched it ([`Execution::verify_scoped`] over the scope
//! staging recorded — `adept_verify::scope`). Its report carries the
//! errors the whole pass would find, in the same order, and the warnings
//! on what the operations touched; the base's own warnings are not
//! rendered again.
//!
//! Verification runs **once per overlay**, not once per gate: the verdict
//! (the report and, when it is correct, the overlay compiled)
//! is a pure function of the working overlay and its staged records,
//! the transaction owns that overlay, and only [`ChangeTxn::stage`] and
//! [`ChangeTxn::unstage_last`] mutate it — both drop the remembered
//! verdict. A commit after a preview of the same overlay therefore re-runs
//! what depends on the world (the caller's version / bias guard, the
//! compliance check against the *current* marking) but not the
//! verification. Nothing outside the transaction is keyed, hashed or
//! cached. A correct verdict carries its arena, so a preview that is then
//! aborted has paid the compile as well.
//!
//! The transaction owns all intermediate state, so *abort is free*:
//! dropping a `ChangeTxn` leaves the world bit-identical to before
//! `begin`. The base is shared, and copied once, when the transaction
//! opens its overlay.

use crate::apply::{apply, replay};
use crate::compliance::{check_fast_op, Verdict};
use crate::delta::Delta;
use crate::error::ChangeError;
use crate::inverse::inverse_of;
use crate::ops::{AppliedOp, ChangeOp};
use adept_model::{Blocks, ProcessSchema};
use adept_state::{Execution, InstanceState};
use adept_verify::{Scope, VerificationReport};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One staged operation: its application record on the working overlay and
/// the inverse operation that would undo it (when the operation is
/// invertible from its record).
#[derive(Debug, Clone, PartialEq)]
pub struct StagedOp {
    /// The application record (requested op + allocated/removed ids).
    pub rec: AppliedOp,
    /// The inverse operation, computed against the post-application
    /// overlay. `None` for operations that are not invertible from their
    /// record (e.g. deleting a nullified activity).
    pub inverse: Option<ChangeOp>,
}

/// A change transaction: a sequence of operations staged against a working
/// overlay of a base schema, committed (or dropped) as one unit.
#[derive(Debug, Clone)]
pub struct ChangeTxn {
    base: Arc<ProcessSchema>,
    /// The base's block structure.
    base_blocks: Arc<Blocks>,
    /// Whether the overlay allocates in the private id space (an ad-hoc
    /// instance change) rather than the type's own.
    private_ids: bool,
    /// Shared with the verdict's `Execution` while there is one, so
    /// whatever mutates it drops the verdict first.
    working: Arc<ProcessSchema>,
    /// The overlay's block structure: the base's, edited by each staged
    /// operation. Shared with the base until an operation changes it, and
    /// with the verdict like `working`.
    blocks: Arc<Blocks>,
    staged: Vec<StagedOp>,
    /// What the staged operations touched on the base: what an ad-hoc
    /// overlay's verification pass is restricted to.
    scope: Scope,
    /// The verdict on `working` — its verification report and, when it is
    /// correct, `working` compiled over its blocks. Dropped by whatever
    /// mutates `working`.
    verified: OnceLock<(VerificationReport, Option<Execution>)>,
}

/// Per-operation diagnostics of a [`TxnPreview`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpDiagnostic {
    /// Position in staging order.
    pub index: usize,
    /// Rendered operation.
    pub op: String,
    /// Whether the recorded inverse can undo this operation.
    pub invertible: bool,
    /// The per-operation fast-compliance verdict, when the preview was
    /// taken against an instance state.
    pub compliance: Option<Verdict>,
}

/// The result of a pure dry run over a transaction.
#[derive(Debug, Clone)]
pub struct TxnPreview {
    /// Per staged operation: rendering, invertibility, compliance.
    pub per_op: Vec<OpDiagnostic>,
    /// The verification report of the final overlay (the one verification
    /// pass a commit would perform): a type evolution's whole report; for
    /// an ad-hoc change, the errors of the whole pass and the warnings on
    /// what the staged operations touched — the base's own warnings are
    /// not repeated.
    pub verification: VerificationReport,
    /// The overall fast-compliance verdict of the composed delta against
    /// the supplied instance state; `None` for schema-only previews (type
    /// evolutions).
    pub compliance: Option<Verdict>,
}

impl TxnPreview {
    /// Whether a commit taken now would pass both gates.
    pub fn is_committable(&self) -> bool {
        self.verification.is_correct() && self.compliance.as_ref().is_none_or(Verdict::is_compliant)
    }
}

impl fmt::Display for TxnPreview {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "transaction preview: {} op(s), {}",
            self.per_op.len(),
            if self.is_committable() {
                "committable"
            } else {
                "NOT committable"
            }
        )?;
        for d in &self.per_op {
            write!(f, "  [{}] {}", d.index, d.op)?;
            if !d.invertible {
                write!(f, " (not invertible)")?;
            }
            if let Some(v) = &d.compliance {
                write!(f, " — {v}")?;
            }
            writeln!(f)?;
        }
        if !self.verification.is_correct() {
            writeln!(f, "  verification: {}", self.verification)?;
        }
        Ok(())
    }
}

impl ChangeTxn {
    /// Opens a transaction against `base`, a type's deployment (a type
    /// evolution). The base is kept untouched — shared, not copied; all
    /// staging happens on a private working overlay, whose block structure
    /// the staged operations derive from the base's: nothing is analysed.
    pub fn begin(base: &Execution) -> Self {
        Self::over(base, false)
    }

    /// Opens a transaction for an ad-hoc change of one instance running on
    /// `base`, the instance's context: like [`ChangeTxn::begin`], but the
    /// overlay allocates its ids in the private id space
    /// ([`ProcessSchema::reserve_private_id_space`]).
    pub fn begin_ad_hoc(base: &Execution) -> Self {
        Self::over(base, true)
    }

    fn over(base: &Execution, private_ids: bool) -> Self {
        Self {
            working: Arc::new(Self::overlay_of(&base.schema, private_ids)),
            base: Arc::clone(&base.schema),
            blocks: Arc::clone(&base.blocks),
            base_blocks: Arc::clone(&base.blocks),
            private_ids,
            staged: Vec::new(),
            scope: Scope::default(),
            verified: OnceLock::new(),
        }
    }

    /// A fresh overlay of `base`: a copy, moved into the private id space
    /// for an ad-hoc change.
    fn overlay_of(base: &ProcessSchema, private_ids: bool) -> ProcessSchema {
        let mut working = base.clone();
        if private_ids {
            working.reserve_private_id_space();
        }
        working
    }

    /// The overlay rebuilt from the base by replaying the staged records
    /// with their **recorded ids** (as [`crate::replay_bias`] does) — applying
    /// inverses instead would yield a semantically equal overlay with
    /// *different* edge ids, silently breaking the `working = base + delta`
    /// id correspondence that replaying a bias relies on — with what the
    /// records touched and the block structure they derive.
    fn replayed(&self) -> Result<Replayed, ChangeError> {
        let mut working = Self::overlay_of(&self.base, self.private_ids);
        let mut scope = Scope::default();
        let mut blocks = Arc::clone(&self.base_blocks);
        for s in &self.staged {
            replay(&mut working, &s.rec, &mut blocks, &mut scope)?;
        }
        Ok((working, scope, blocks))
    }

    /// Puts a rebuilt overlay in place.
    fn restore(&mut self, (working, scope, blocks): Replayed) {
        self.working = Arc::new(working);
        self.scope = scope;
        self.blocks = blocks;
    }

    /// The schema the transaction was opened on.
    pub fn base(&self) -> &ProcessSchema {
        &self.base
    }

    /// The working overlay with all staged operations applied.
    pub fn working(&self) -> &ProcessSchema {
        &self.working
    }

    /// The block structure of the working overlay, derived from the base's
    /// by the staged operations.
    pub fn blocks(&self) -> &Blocks {
        &self.blocks
    }

    /// The staged operations in staging order.
    pub fn staged(&self) -> &[StagedOp] {
        &self.staged
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing has been staged yet.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Stages one operation: checks its structural preconditions against
    /// the current overlay, applies it there in place, and records the
    /// application and its inverse. **No** full verification runs here —
    /// that cost is paid once, at preview/commit time.
    ///
    /// On failure the overlay is as before — rebuilt from the base and the
    /// staged records when the operation got part-way — with the same id
    /// allocation, and the transaction remains usable (the failed
    /// operation is simply not part of it).
    pub fn stage(&mut self, op: &ChangeOp) -> Result<&AppliedOp, ChangeError> {
        self.verified = OnceLock::new();
        let working = Arc::make_mut(&mut self.working);
        let rec = match apply(working, op, &mut self.blocks, &mut self.scope) {
            Ok(rec) => rec,
            Err(e) => {
                let replayed = self.replayed();
                self.restore(
                    replayed.expect("invariant: the staged records applied to this base before"),
                );
                return Err(e);
            }
        };
        let inverse = inverse_of(&self.working, &rec);
        self.staged.push(StagedOp { rec, inverse });
        Ok(&self.staged.last().expect("just pushed").rec)
    }

    /// Rolls back the most recently staged operation: the overlay is
    /// rebuilt from the base by replaying the remaining records with
    /// their recorded ids. Works for every operation, invertible or not.
    pub fn unstage_last(&mut self) -> Result<AppliedOp, ChangeError> {
        let popped = self.staged.pop().ok_or_else(|| {
            ChangeError::Precondition("transaction has no staged operations".into())
        })?;
        match self.replayed() {
            Ok(replayed) => self.restore(replayed),
            Err(e) => {
                // Cannot happen: the same prefix applied before. Restore
                // the popped op so the transaction stays consistent.
                self.staged.push(popped);
                return Err(e);
            }
        }
        self.verified = OnceLock::new();
        Ok(popped.rec)
    }

    /// The composed delta of all staged operations, in staging order.
    pub fn delta(&self) -> Delta {
        self.staged.iter().map(|s| s.rec.clone()).collect()
    }

    /// The verification report of the current overlay — the postcondition
    /// a commit enforces. A type evolution's overlay is verified whole. An
    /// ad-hoc change's is verified where its staged operations touched the
    /// base, which was verified before: the report holds the errors the
    /// whole pass would and the warnings on what the operations touched,
    /// not the base's own. The pass runs on the first call after the
    /// overlay last changed; later calls read the remembered verdict.
    pub fn verify(&self) -> &VerificationReport {
        &self.verified().0
    }

    fn verified(&self) -> &(VerificationReport, Option<Execution>) {
        self.verified.get_or_init(|| {
            let scope = if self.private_ids {
                &self.scope
            } else {
                &Scope::WHOLE
            };
            Execution::verify_scoped(Arc::clone(&self.working), Arc::clone(&self.blocks), scope)
        })
    }

    /// Runs the Fig.-1 fast-compliance conditions of every staged
    /// operation against an instance marking (one pass over the staged
    /// records, no replay, no re-verification). Returns the first
    /// conflict, with the index of the offending operation.
    pub fn check_compliance(
        &self,
        blocks: &Blocks,
        st: &InstanceState,
    ) -> Result<(), (usize, Verdict)> {
        for (i, s) in self.staged.iter().enumerate() {
            let v = check_fast_op(&self.base, blocks, st, &s.rec);
            if !v.is_compliant() {
                return Err((i, v));
            }
        }
        Ok(())
    }

    /// The Fig.-1 fast-compliance verdict of every staged operation against
    /// an instance marking, in staging order — the part of a preview that
    /// reads the instance.
    pub fn compliance_per_op(&self, blocks: &Blocks, st: &InstanceState) -> Vec<Verdict> {
        let per_op = self.staged.iter();
        per_op
            .map(|s| check_fast_op(&self.base, blocks, st, &s.rec))
            .collect()
    }

    /// A pure dry run of the schema side: per-op diagnostics and the
    /// verification report (a type evolution's preview). Nothing
    /// observable is mutated.
    pub fn preview(&self) -> TxnPreview {
        self.preview_with(None)
    }

    /// [`ChangeTxn::preview`] with the compliance verdicts of an instance
    /// taken earlier ([`ChangeTxn::compliance_per_op`]) and their composed
    /// verdict, so a caller that reads the instance under a lock holds it
    /// for those alone.
    pub fn preview_with(&self, compliance: Option<Vec<Verdict>>) -> TxnPreview {
        let overall = compliance.as_ref().map(|per_op| {
            let conflict = per_op.iter().find(|v| !v.is_compliant());
            conflict.cloned().unwrap_or(Verdict::Compliant)
        });
        let mut verdicts = compliance.into_iter().flatten();
        let per_op = self
            .staged
            .iter()
            .enumerate()
            .map(|(i, s)| OpDiagnostic {
                index: i,
                op: s.rec.to_string(),
                invertible: s.inverse.is_some(),
                compliance: verdicts.next(),
            })
            .collect();
        TxnPreview {
            per_op,
            verification: self.verify().clone(),
            compliance: overall,
        }
    }

    /// Commits the transaction's *schema side*: takes the verification
    /// verdict on the overlay (running the pass unless a preview of this
    /// overlay already has) and, on success, consumes the transaction into
    /// its outcome — the verified overlay as the verdict analysed and
    /// compiled it, and the composed delta. Callers
    /// adapt on and install the compiled overlay as it is (a repository
    /// version, an instance's context with its bias).
    ///
    /// The overlay is made to read as what it is installed as first: an
    /// ad-hoc change's releases the private ids the transaction allocated
    /// and freed again, as a replay of its bias ([`crate::replay_bias`])
    /// will read; a type evolution's is the type's next version.
    ///
    /// On failure the transaction is handed back unchanged together with
    /// the error, so the caller can keep staging or abort — and since
    /// nothing outside the transaction was touched, a failed commit is
    /// observably side-effect free.
    pub fn commit_schema(self) -> Result<CommittedTxn, (Box<ChangeTxn>, ChangeError)> {
        let report = self.verify();
        if !report.is_correct() {
            let err = ChangeError::PostconditionViolated(report.error_summary());
            return Err((Box::new(self), err));
        }
        let delta = self.delta();
        let verdict = self.verified.into_inner().and_then(|(_, target)| target);
        let mut target = verdict.expect("a correct report comes with its analysed schema");
        // The verdict's share of the overlay is the last one (unless the
        // transaction was cloned), so this edits it in place.
        drop((self.working, self.blocks));
        let schema = Arc::make_mut(&mut target.schema);
        if self.private_ids {
            schema.reserve_private_id_space();
        } else {
            schema.version = self.base.version + 1;
        }
        Ok(CommittedTxn {
            base: self.base,
            target,
            delta,
        })
    }
}

/// An overlay rebuilt from the base: schema, scope and block structure.
type Replayed = (ProcessSchema, Scope, Arc<Blocks>);

/// The outcome of a successfully committed transaction.
#[derive(Debug, Clone)]
pub struct CommittedTxn {
    /// The schema the transaction was opened on.
    pub base: Arc<ProcessSchema>,
    /// The verified final schema (base + all staged operations), with the
    /// block structure and arena it was verified and compiled on.
    pub target: Execution,
    /// The composed change log, in staging order.
    pub delta: Delta,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NewActivity;
    use adept_model::{NodeId, SchemaBuilder};
    use adept_verify::{is_correct, verification_passes};

    fn order() -> ProcessSchema {
        let mut b = SchemaBuilder::new("order");
        b.activity("get order");
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

    fn node(s: &ProcessSchema, name: &str) -> NodeId {
        s.node_by_name(name).unwrap().id
    }

    #[test]
    fn stage_commit_applies_all_ops_with_one_verification() {
        let base = order();
        let compose = node(&base, "compose order");
        let pack = node(&base, "pack goods");
        let confirm = node(&base, "confirm order");
        let mut txn = ChangeTxn::begin(&Execution::new(&base).unwrap());

        let before = verification_passes();
        let sq = txn
            .stage(&ChangeOp::SerialInsert {
                activity: NewActivity::named("send questions"),
                pred: compose,
                succ: pack,
            })
            .unwrap()
            .inserted_activity()
            .unwrap();
        txn.stage(&ChangeOp::InsertSyncEdge {
            from: sq,
            to: confirm,
        })
        .unwrap();
        assert_eq!(
            verification_passes(),
            before,
            "staging must not run full verification"
        );

        let committed = txn.commit_schema().unwrap();
        assert_eq!(
            verification_passes(),
            before + 1,
            "commit runs exactly one verification pass"
        );
        assert!(is_correct(&committed.target.schema));
        assert_eq!(committed.delta.len(), 2);
        assert!(committed
            .target
            .schema
            .node_by_name("send questions")
            .is_some());
        assert_eq!(*committed.base, base, "base is preserved untouched");
    }

    #[test]
    fn failed_stage_leaves_overlay_untouched() {
        let base = order();
        let get = node(&base, "get order");
        let deliver = node(&base, "deliver goods");
        let mut txn = ChangeTxn::begin(&Execution::new(base).unwrap());
        let snapshot = txn.working().clone();
        // Not adjacent: structural precondition fails.
        let err = txn
            .stage(&ChangeOp::SerialInsert {
                activity: NewActivity::named("x"),
                pred: get,
                succ: deliver,
            })
            .unwrap_err();
        assert!(matches!(err, ChangeError::Precondition(_)));
        assert_eq!(txn.working(), &snapshot);
        assert!(txn.is_empty());
    }

    #[test]
    fn failed_commit_returns_txn_and_keeps_base_identical() {
        // A staged op that only the *full* verification rejects: insert an
        // activity reading a data element that is written later.
        let mut b = SchemaBuilder::new("g");
        let d = b.data("late", adept_model::ValueType::Int);
        let a = b.activity("a");
        let c = b.activity("c");
        b.write(c, d);
        let base = b.build().unwrap();

        let mut txn = ChangeTxn::begin(&Execution::new(&base).unwrap());
        txn.stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("x").reading(d),
            pred: a,
            succ: c,
        })
        .unwrap();
        let (txn, err) = txn.commit_schema().unwrap_err();
        assert!(
            matches!(err, ChangeError::PostconditionViolated(_)),
            "{err}"
        );
        assert_eq!(txn.base(), &base, "failed commit is side-effect free");
        assert_eq!(txn.len(), 1, "staged record survives for inspection");
    }

    #[test]
    fn unstage_last_restores_the_exact_overlay() {
        let base = order();
        let get = node(&base, "get order");
        let collect = node(&base, "collect data");
        let mut txn = ChangeTxn::begin(&Execution::new(&base).unwrap());
        txn.stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("tmp"),
            pred: get,
            succ: collect,
        })
        .unwrap();
        assert_eq!(txn.len(), 1);
        txn.unstage_last().unwrap();
        assert!(txn.is_empty());
        assert_eq!(txn.working(), &base, "overlay is id-identical to base");
        // Nothing staged: further unstaging errors cleanly.
        assert!(txn.unstage_last().is_err());
    }

    #[test]
    fn unstage_keeps_recorded_ids_of_remaining_ops() {
        // Regression for the id-correspondence bug: undoing op 2 must not
        // shift the edge ids recorded for op 1 (a bias delta must replay
        // exactly onto the base).
        let base = order();
        let get = node(&base, "get order");
        let collect = node(&base, "collect data");
        let deployed = Execution::new(&base).unwrap();
        let mut txn = ChangeTxn::begin(&deployed);
        let keep = txn
            .stage(&ChangeOp::SerialInsert {
                activity: NewActivity::named("keep"),
                pred: get,
                succ: collect,
            })
            .unwrap()
            .inserted_activity()
            .unwrap();
        txn.stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("discard"),
            pred: keep,
            succ: collect,
        })
        .unwrap();
        txn.unstage_last().unwrap();
        // Replaying the remaining delta on the base reproduces the overlay
        // exactly (ids included).
        let mut replayed = base.clone();
        let (mut blocks, mut scope) = (Arc::clone(&deployed.blocks), Scope::default());
        for s in txn.staged() {
            crate::apply::replay(&mut replayed, &s.rec, &mut blocks, &mut scope).unwrap();
        }
        assert_eq!(&replayed, txn.working());
        // A non-invertible op (delete with null-replacement) unstages too.
        let confirm = node(txn.working(), "confirm order");
        let pack = node(txn.working(), "pack goods");
        txn.stage(&ChangeOp::InsertSyncEdge {
            from: confirm,
            to: pack,
        })
        .unwrap();
        txn.stage(&ChangeOp::DeleteActivity { node: confirm })
            .unwrap();
        assert!(txn.staged().last().unwrap().inverse.is_none());
        txn.unstage_last().unwrap();
        assert!(txn.working().has_node(confirm));
    }

    #[test]
    fn preview_is_pure_and_reports_per_op() {
        let base = order();
        let compose = node(&base, "compose order");
        let pack = node(&base, "pack goods");
        let mut txn = ChangeTxn::begin(&Execution::new(base).unwrap());
        txn.stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("extra"),
            pred: compose,
            succ: pack,
        })
        .unwrap();
        let snapshot = txn.clone();
        let p = txn.preview();
        assert!(p.is_committable(), "{p}");
        assert_eq!(p.per_op.len(), 1);
        assert!(p.per_op[0].invertible);
        assert!(p.compliance.is_none(), "schema-only preview");
        // Purity: the transaction is unchanged by previewing.
        assert_eq!(txn.working(), snapshot.working());
        assert_eq!(txn.staged(), snapshot.staged());
    }
}
