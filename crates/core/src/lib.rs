//! # adept-core — the ADEPT2 change framework
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*Adaptive Process Management with ADEPT2*, ICDE 2005):
//!
//! * [`ops`] / [`apply`] — the complete set of high-level change operations
//!   (serial/parallel/conditional insert, delete, move, sync edges, data
//!   flow changes) with structural pre-conditions and full verification as
//!   post-condition: a dynamic change can never corrupt a schema.
//! * [`txn`] — **change transactions**, the primary change surface: stage
//!   any number of operations against a working overlay, dry-run them with
//!   [`ChangeTxn::preview`], then commit atomically. An overlay pays
//!   exactly **one** verification pass however often it is previewed
//!   before it commits, and one Fig.-1 compliance pass per gate for the
//!   whole batch — instead of one per operation — and a failed commit is
//!   observably side-effect free. It opens on an analysed base and pays
//!   no block analysis: each operation edits the base's block structure
//!   into the overlay's.
//!   Each staged operation records its inverse ([`inverse`]), which a
//!   preview reports as the operation's invertibility.
//! * [`delta`] — change logs (ΔT for type changes, the *bias* ΔI for
//!   ad-hoc modified instances) and their algebra (disjointness, purging).
//! * [`compliance`] — the correctness criterion for migrating running
//!   instances: the trace-replay oracle over *reduced* execution histories
//!   and the fast per-operation compliance conditions of the paper's
//!   Fig. 1, including conflict classification (state-related, structural,
//!   semantical).
//! * [`adapt`] — efficient state adaptation: markings are transferred
//!   locally per operation instead of replaying whole histories.
//! * [`migration`] — per-instance migration onto a new type version
//!   (including biased instances whose ad-hoc changes are transplanted
//!   onto the new version), and the migration report of the paper's
//!   Fig. 3.
//!
//! The transactional flow — stage, preview, commit:
//!
//! ```
//! use adept_core::{ChangeOp, ChangeTxn, NewActivity};
//! use adept_model::SchemaBuilder;
//! use adept_state::Execution;
//!
//! let mut b = SchemaBuilder::new("online order");
//! b.activity("get order");
//! b.activity("pack goods");
//! let base = b.build().unwrap();
//! let get = base.node_by_name("get order").unwrap().id;
//! let pack = base.node_by_name("pack goods").unwrap().id;
//!
//! // Deploy (analyse once), then stage two operations; no verification
//! // runs yet.
//! let deployed = Execution::new(base).unwrap();
//! let mut txn = ChangeTxn::begin(&deployed);
//! let invoice = txn.stage(&ChangeOp::SerialInsert {
//!     activity: NewActivity::named("send invoice"),
//!     pred: get,
//!     succ: pack,
//! }).unwrap().inserted_activity().unwrap();
//! txn.stage(&ChangeOp::SetActivityAttributes {
//!     node: invoice,
//!     attrs: adept_model::ActivityAttributes { role: Some("clerk".into()), ..Default::default() },
//! }).unwrap();
//!
//! // Pure dry run: per-op diagnostics + the verification pass.
//! let preview = txn.preview();
//! assert!(preview.is_committable());
//!
//! // Atomic commit: the overlay is unchanged, so its verdict stands.
//! let committed = txn.commit_schema().unwrap();
//! assert_eq!(committed.delta.len(), 2);
//! assert!(committed.target.schema.node_by_name("send invoice").is_some());
//! ```
//!
//! The classic per-operation entry point ([`apply_op`]) remains for
//! callers that genuinely change one thing; `adept-engine` builds its
//! session API (`begin_change` / `begin_evolution`) on [`ChangeTxn`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adapt;
pub mod apply;
pub mod compliance;
pub mod compose;
pub mod delta;
mod derive;
pub mod error;
pub mod inverse;
pub mod migration;
pub mod ops;
mod scope;
pub mod txn;

pub use adapt::adapt_instance_state;
pub use apply::{apply_op, replay_bias};
pub use compliance::{check_fast, check_trace, Conflict, ConflictKind, Verdict};
pub use compose::{
    annotate_activity, compensation_for, control_predecessor, control_successor, enclosing_loop,
    insert_after, skip_activity,
};
pub use delta::Delta;
pub use error::ChangeError;
pub use inverse::inverse_of;
pub use migration::{
    migrate_instance, InstanceOutcome, MigrationOptions, MigrationReport, MigrationResult,
};
pub use ops::{AppliedOp, ChangeOp, NewActivity};
pub use txn::{ChangeTxn, CommittedTxn, OpDiagnostic, StagedOp, TxnPreview};
