//! # adept-engine — the ADEPT2 process engine
//!
//! The runtime facade tying the reproduction together (the paper's
//! "number of buildtime and runtime components"):
//!
//! * [`command`] — the **unified command/event execution API**: every
//!   state transition is a typed [`EngineCommand`] submitted through
//!   [`ProcessEngine::submit`] or, batched, through
//!   [`ProcessEngine::submit_batch`], returning a [`CommandOutcome`] with
//!   the emitted events, the enabled-set delta and a finished flag;
//! * [`session`] — the transactional change surface: every dynamic change
//!   — ad-hoc instance deviation or type evolution — is a **change
//!   session** driving the stage → preview → commit lifecycle;
//! * [`worklist`] — work items and role-based claiming; the worklist is
//!   the instance store's change order, where every write stamps what the
//!   instance offers — the engine keeps no table of its own for it;
//! * [`monitor`] — the monitoring component: an event log with logical
//!   timestamps plus DOT/text visualisation of instance states (the demo's
//!   Fig. 3 views). Decisions, starts, completions — driven or manual —
//!   all land here, gap-free.
//!
//! ## The hot path: one executor over compiled schema arenas
//!
//! Command execution runs on `adept_state::CompiledExecution` over an
//! `Arc<adept_model::CompiledSchema>` arena — for every instance. The
//! arena is part of the instance's **execution context**, an
//! [`adept_state::Execution`] (`schema`, `blocks`, `arena`, `names`), and
//! the context is resolved *with* the instance, by the store, under the
//! instance's own shard guard
//! ([`adept_storage::InstanceStore::with_context`]): an unbiased instance
//! shares the one its version was deployed with (one compile per version);
//! an ad-hoc-biased instance carries its own, built where the change was
//! judged — the change transaction's commit for a session commit or an
//! undo, the hop itself for a biased migration hop — and installed as it
//! is, together with the bias, so it is built once and is never stale. The
//! engine keeps no context table, validates nothing and retries nothing on
//! its account; every reader that pairs a schema with a state — commands,
//! the worklist, change sessions, the adaptation loop's views — takes both
//! from that one call. The same executor judges what it runs:
//! `adept_core`'s compliance replay and state adaptation and the recovery
//! audit are `CompiledExecution::replay` / `refresh` / `audit`, on the
//! blocks and arena of that context — see `docs/EXECUTION_CORE.md`.
//!
//! ## Executing instances: submit / submit_batch
//!
//! ```
//! use adept_engine::{EngineCommand, ProcessEngine};
//! use adept_model::SchemaBuilder;
//!
//! let engine = ProcessEngine::new();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! b.activity("payout");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//!
//! // Every transition is a typed command; outcomes report what changed.
//! let created = engine.submit(EngineCommand::CreateInstance {
//!     type_name: name.clone(),
//! }).unwrap();
//! let id = created.instance;
//! let submit = created.newly_enabled[0];
//!
//! // Batched submission: the instance and its context are resolved ONCE
//! // and the whole group commits under a single atomic store update —
//! // the per-verb get → clone → update round-trips (and their
//! // lost-update race) are gone.
//! let outcomes = engine.submit_batch(vec![
//!     EngineCommand::Start { instance: id, node: submit },
//!     EngineCommand::Complete { instance: id, node: submit, writes: vec![] },
//!     EngineCommand::Drive { instance: id, max: None },
//! ]);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! assert!(outcomes[2].as_ref().unwrap().finished);
//!
//! // The worklist is read off the store: what every instance's last write
//! // stamped it as offering (this one is finished).
//! assert!(engine.worklist().is_empty());
//! ```
//!
//! Use [`ProcessEngine::try_worklist`] to surface instances whose store
//! entry or schema no longer resolves instead of skipping them.
//!
//! ## Streaming consumers: event and worklist cursors
//!
//! Pollers shouldn't clone the world. The monitor's event log is a
//! bounded, sequence-ordered ring: [`Monitor::subscribe`] returns an
//! [`EventCursor`] that drains only the events recorded since the last
//! poll, and a cursor that falls behind the retention window gets an
//! explicit [`EventLag`] error — never a silent gap. The worklist has
//! the same shape: [`ProcessEngine::worklist_delta`] returns what
//! changed since an epoch instead of every item.
//!
//! The instance store stamps every change of an instance — an insert, a
//! state written, a bias or migration installed, a removal — with a
//! **change epoch**, inside the critical section that makes the change
//! visible, and keeps its ids in that order
//! (`adept_storage::InstanceStore::scan`); a write that holds the
//! instance's context stamps what it offers since, an [`Offer`], which is
//! what every worklist read hands on. An incremental poll is a range read
//! past the cursor: it costs what changed, not what exists. Shards
//! are read one guard at a time; the delta is complete through a
//! **bound** — the epoch counter as read before the first guard, with
//! nothing to hold it back, since no stamp is ever drawn in one critical
//! section and landed in another — which comes back as the next cursor.
//! Two consequences for consumers: a cursor is valid only for the engine
//! that issued it (epochs restart at 0 with every engine, recovered ones
//! included; a cursor ahead of the engine is served as a bootstrap), and
//! whatever is written through the public `store` field directly reaches
//! the next poll like any command's effect.
//!
//! ```
//! use adept_engine::{EngineCommand, ProcessEngine};
//! use adept_model::SchemaBuilder;
//!
//! let engine = ProcessEngine::new();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//!
//! // Tail the event stream: only events recorded after subscribing.
//! let mut events = engine.monitor.subscribe();
//! // Follow the worklist incrementally: epoch 0 bootstraps everything.
//! let mut delta = engine.worklist_delta(0);
//! assert!(delta.added.is_empty());
//!
//! let id = engine.create_instance(&name).unwrap();
//! assert!(!events.poll(&engine.monitor).unwrap().is_empty());
//!
//! // Only the change since the last poll comes back: apply it by
//! // dropping `invalidated` ids and replacing `added` item sets (`added`
//! // is a set — one entry per changed instance, in no set order).
//! delta = engine.worklist_delta(delta.epoch);
//! assert_eq!(delta.added.len(), 1);
//! let (changed, offered) = &delta.added[0];
//! assert_eq!((*changed, offered.len()), (id, 1)); // its first activity,
//! let item = offered.items().next().unwrap(); // rendered when asked for
//! assert_eq!(&*item.activity, "submit");
//!
//! engine.submit(EngineCommand::Drive { instance: id, max: None }).unwrap();
//! delta = engine.worklist_delta(delta.epoch);
//! assert!(delta.added[0].1.is_empty()); // finished: offers nothing
//! ```
//!
//! ## Changing a running instance: stage → preview → commit
//!
//! ```
//! use adept_core::{ChangeOp, NewActivity};
//! use adept_engine::ProcessEngine;
//! use adept_model::SchemaBuilder;
//!
//! let engine = ProcessEngine::new();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! b.activity("payout");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//! let id = engine.create_instance(&name).unwrap();
//! let v1 = engine.repo.deployed(&name, 1).unwrap();
//! let submit = v1.schema.node_by_name("submit").unwrap().id;
//! let payout = v1.schema.node_by_name("payout").unwrap().id;
//!
//! // Stage any number of operations against a private overlay.
//! let mut session = engine.begin_change(id).unwrap();
//! let audit = session.stage(&ChangeOp::SerialInsert {
//!     activity: NewActivity::named("audit"),
//!     pred: submit,
//!     succ: payout,
//! }).unwrap().inserted_activity().unwrap();
//! session.stage(&ChangeOp::SetActivityAttributes {
//!     node: audit,
//!     attrs: adept_model::ActivityAttributes { role: Some("auditor".into()), ..Default::default() },
//! }).unwrap();
//!
//! // Pure dry run: nothing in the engine changes.
//! let preview = session.preview().unwrap();
//! assert!(preview.is_committable());
//!
//! // Atomic commit: ONE verification pass + ONE compliance pass for the
//! // whole batch; a failure would leave the instance bit-identical.
//! let receipt = session.commit().unwrap();
//! assert_eq!(receipt.ops, 2);
//! assert_eq!(receipt.seq, 1);
//! ```
//!
//! Type evolutions use the same lifecycle via
//! [`ProcessEngine::begin_evolution`]. Every committed transaction gets
//! the next transaction number (the receipt's `seq`, the monitor's
//! [`EngineEvent::TxnCommitted`]); a durable engine journals it as an
//! [`adept_storage::TxnRecord`] in the line of the change it made, so the
//! journal is the change history and nothing keeps a copy in memory. An
//! instance commit installs the instance's new execution context with its
//! bias, under the guard every worklist read of the instance takes.
//!
//! ## Durability: write-ahead log + crash recovery
//!
//! A durable engine ([`ProcessEngine::with_segmented_wal`]) journals
//! every committed mutation to a list of
//! [`adept_storage::StorageBackend`] segments *before* it becomes
//! visible — a command as the executor steps it took at the instance's
//! revision, not as the state they left;
//! [`recovery::recover_from_segmented`] rebuilds the exact engine from the
//! latest snapshot (optional) plus the log tail after a crash, applying
//! each command's steps, through the same executor, at the revision it
//! names. [`ProcessEngine::checkpoint_with`] persists a snapshot and
//! truncates the log only once the snapshot is safe. A non-durable
//! engine ([`ProcessEngine::new`]) runs the very same commit paths with a
//! journal that records nothing.
//!
//! The segment list is a power-of-two count — `vec![backend]` is a plain
//! single log. With more, sequence `s` lands on backend `(s − 1) mod N`,
//! so under concurrent load appends from different store shards hit
//! different backend locks while the atomic allocator keeps one global
//! order. Recovery merges the segments back by sequence and classifies
//! any gap: the bounded tail gap a crash under concurrent appends leaves
//! (an earlier-allocated record dead while a later one is durable in a
//! sibling) is repaired by truncating back to the last contiguous
//! record, while a lost segment — periodic holes wider than
//! [`recovery::TAIL_REPAIR_WINDOW`] — is a refused gap, not a silently
//! thinner history. Every lock on these paths carries a declared
//! `adept_storage::ordered::LockClass` (store shard → wal segment,
//! machine-checked in debug builds); `docs/LOCK_ORDER.md` has the
//! authoritative acquisition DAG.
//!
//! ```
//! use adept_engine::{recovery, EngineCommand, ProcessEngine};
//! use adept_model::SchemaBuilder;
//! use adept_storage::MemoryBackend;
//!
//! // `MemoryBackend` clones share one medium — the in-memory stand-in
//! // for a log file that survives the process. Production code uses
//! // `FileBackend::new(path)` (or `FileBackend::segments`).
//! let medium = MemoryBackend::new();
//! let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
//! let mut b = SchemaBuilder::new("expense");
//! b.activity("submit");
//! let name = engine.deploy(b.build().unwrap()).unwrap();
//! let id = engine.create_instance(&name).unwrap();
//! let v1 = engine.repo.deployed(&name, 1).unwrap();
//! let submit = v1.schema.node_by_name("submit").unwrap().id;
//! engine.submit(EngineCommand::Start { instance: id, node: submit }).unwrap();
//! let journaled = engine.store.get(id).unwrap();
//! drop(engine); // crash: only the journaled log survives
//!
//! // Restart: replay the log (no snapshot here) into a fresh engine.
//! let (engine, report) =
//!     recovery::recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
//! assert_eq!(report.replayed, 3); // deploy + create + the start's step
//! assert!(report.divergent.is_empty());
//! let recovered = engine.store.get(id).unwrap();
//! assert_eq!((recovered.rev, &recovered.state), (1, &journaled.state));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod command;
pub mod engine;
pub mod monitor;
pub mod recovery;
pub mod session;
pub mod worklist;

pub use command::{CommandOutcome, EngineCommand};
pub use engine::{EngineError, ProcessEngine};
pub use monitor::{
    render_instance_dot, render_instance_summary, EngineEvent, EventBatch, EventCursor, EventLag,
    FailureKind, Monitor, DEFAULT_EVENT_RETENTION,
};
pub use recovery::{recover_from_segmented, RecoveryReport};
pub use session::{ChangeSession, TxnReceipt};
pub use worklist::{Offer, WorkItem, WorklistDelta};
