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
//!    overlay from the base and the staged records, as an unstage does;
//! 2. **preview** — a pure dry run: per-op diagnostics, the full
//!    verification pass over the final overlay, and one Fig.-1
//!    fast-compliance pass of the composed delta against an instance
//!    marking — nothing observable is mutated;
//! 3. **commit** — the same verification + compliance gate, after which
//!    the caller installs the overlay, compiled over the block structure it
//!    was verified on, and the composed [`Delta`] atomically. A failing
//!    gate consumes nothing: the base schema, the staged record and every
//!    observable structure are untouched.
//!
//! Verification runs **once per overlay**, not once per gate: the verdict
//! (report and analysed blocks) is a pure function of the working overlay,
//! the transaction owns that overlay, and only [`ChangeTxn::stage`] and
//! [`ChangeTxn::unstage_last`] mutate it — both drop the remembered
//! verdict. A commit after a preview of the same overlay therefore re-runs
//! what depends on the world (the caller's version / bias guard, the
//! compliance check against the *current* marking) but not the
//! verification. Nothing outside the transaction is keyed, hashed or
//! cached.
//!
//! The transaction owns all intermediate state, so *abort is free*:
//! dropping a `ChangeTxn` leaves the world bit-identical to before
//! `begin`. The base is shared, and copied once, when the transaction
//! opens its overlay.

use crate::apply::{apply_raw, apply_recorded};
use crate::compliance::{check_fast_op, Verdict};
use crate::delta::Delta;
use crate::error::ChangeError;
use crate::inverse::inverse_of;
use crate::ops::{AppliedOp, ChangeOp};
use adept_model::{Blocks, ProcessSchema};
use adept_state::{Execution, InstanceState};
use adept_verify::{verify_analysed, VerificationReport};
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
    /// Whether the overlay allocates in the private id space (an ad-hoc
    /// instance change) rather than the type's own.
    private_ids: bool,
    working: ProcessSchema,
    staged: Vec<StagedOp>,
    /// The verdict on `working` — its verification report and, when it has
    /// one, its block structure. Dropped by whatever mutates `working`.
    verified: OnceLock<(VerificationReport, Option<Blocks>)>,
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
    /// The full buildtime verification report of the final overlay (the
    /// one verification pass a commit would perform).
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
    /// Opens a transaction against `base` (a type evolution). The base is
    /// kept untouched — shared, not copied; all staging happens on a
    /// private working overlay.
    pub fn begin(base: impl Into<Arc<ProcessSchema>>) -> Self {
        Self::over(base.into(), false)
    }

    /// Opens a transaction for an ad-hoc change of one instance running on
    /// `base`: like [`ChangeTxn::begin`], but the overlay allocates its
    /// ids in the private id space
    /// ([`ProcessSchema::reserve_private_id_space`]).
    pub fn begin_ad_hoc(base: impl Into<Arc<ProcessSchema>>) -> Self {
        Self::over(base.into(), true)
    }

    fn over(base: Arc<ProcessSchema>, private_ids: bool) -> Self {
        Self {
            working: Self::overlay_of(&base, private_ids),
            base,
            private_ids,
            staged: Vec::new(),
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
    /// with their **recorded ids** ([`apply_recorded`]) — applying inverses
    /// instead would yield a semantically equal overlay with *different*
    /// edge ids, silently breaking the `working = base + delta` id
    /// correspondence that substitution blocks rely on.
    fn replayed(&self) -> Result<ProcessSchema, ChangeError> {
        let mut working = Self::overlay_of(&self.base, self.private_ids);
        for s in &self.staged {
            apply_recorded(&mut working, &s.rec)?;
        }
        Ok(working)
    }

    /// The schema the transaction was opened on.
    pub fn base(&self) -> &ProcessSchema {
        &self.base
    }

    /// The working overlay with all staged operations applied.
    pub fn working(&self) -> &ProcessSchema {
        &self.working
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
        let rec = match apply_raw(&mut self.working, op) {
            Ok(rec) => rec,
            Err(e) => {
                self.working = self
                    .replayed()
                    .expect("invariant: the staged records applied to this base before");
                return Err(e);
            }
        };
        self.verified = OnceLock::new();
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
            Ok(working) => self.working = working,
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

    /// The recorded inverses, aligned with [`ChangeTxn::staged`].
    pub fn inverses(&self) -> Vec<Option<ChangeOp>> {
        self.staged.iter().map(|s| s.inverse.clone()).collect()
    }

    /// The full buildtime verification report of the current overlay — the
    /// postcondition a commit enforces. The pass runs on the first call
    /// after the overlay last changed; later calls read the remembered
    /// verdict.
    pub fn verify(&self) -> &VerificationReport {
        &self.verified().0
    }

    fn verified(&self) -> &(VerificationReport, Option<Blocks>) {
        self.verified.get_or_init(|| verify_analysed(&self.working))
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

    /// A pure dry run: per-op diagnostics, the verification report, and —
    /// when an instance state is supplied — the composed compliance
    /// verdict. Nothing observable is mutated.
    pub fn preview(&self, instance: Option<(&Blocks, &InstanceState)>) -> TxnPreview {
        self.preview_with(instance.map(|(blocks, st)| self.compliance_per_op(blocks, st)))
    }

    /// [`ChangeTxn::preview`] over compliance verdicts taken earlier
    /// ([`ChangeTxn::compliance_per_op`]), so a caller that reads the
    /// instance under a lock holds it for those alone.
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
    /// its outcome — the verified overlay compiled over the blocks it was
    /// verified on, the composed delta and the recorded inverses. Callers
    /// adapt on and install the compiled overlay as it is (a repository
    /// version, an instance's context with its bias).
    ///
    /// The overlay is made to read as what it is installed as first: an
    /// ad-hoc change's releases the private ids the transaction allocated
    /// and freed again, as its substitution block will overlay it; a type
    /// evolution's is the type's next version.
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
        let inverses = self.inverses();
        let blocks = self.verified.into_inner().and_then(|(_, blocks)| blocks);
        let mut schema = self.working;
        if self.private_ids {
            schema.reserve_private_id_space();
        } else {
            schema.version = self.base.version + 1;
        }
        Ok(CommittedTxn {
            base: self.base,
            target: Execution::with_blocks(
                schema,
                blocks.expect("a correct report comes with blocks"),
            ),
            delta,
            inverses,
        })
    }
}

/// The outcome of a successfully committed transaction.
#[derive(Debug, Clone)]
pub struct CommittedTxn {
    /// The schema the transaction was opened on.
    pub base: Arc<ProcessSchema>,
    /// The verified final schema (base + all staged operations), compiled
    /// over the block structure it was verified on.
    pub target: Execution,
    /// The composed change log, in staging order.
    pub delta: Delta,
    /// The recorded inverse per operation (rollback material).
    pub inverses: Vec<Option<ChangeOp>>,
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
        let mut txn = ChangeTxn::begin(base.clone());

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
        let mut txn = ChangeTxn::begin(base);
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

        let mut txn = ChangeTxn::begin(base.clone());
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
        let mut txn = ChangeTxn::begin(base.clone());
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
        let mut txn = ChangeTxn::begin(base.clone());
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
        for s in txn.staged() {
            crate::apply::apply_recorded(&mut replayed, &s.rec).unwrap();
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
        let mut txn = ChangeTxn::begin(base);
        txn.stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("extra"),
            pred: compose,
            succ: pack,
        })
        .unwrap();
        let snapshot = txn.clone();
        let p = txn.preview(None);
        assert!(p.is_committable(), "{p}");
        assert_eq!(p.per_op.len(), 1);
        assert!(p.per_op[0].invertible);
        assert!(p.compliance.is_none(), "schema-only preview");
        // Purity: the transaction is unchanged by previewing.
        assert_eq!(txn.working(), snapshot.working());
        assert_eq!(txn.staged(), snapshot.staged());
    }
}
