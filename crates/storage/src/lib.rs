//! # adept-storage — hybrid schema/instance storage (paper Fig. 2)
//!
//! *"The implementation of ADEPT2 has raised many challenges, e.g., with
//! respect to storage representation of schema and instance data: Unchanged
//! instances are stored in a redundant-free manner by referencing their
//! original schema and by capturing instance-specific data (e.g., activity
//! states). ... For each biased instance we maintain a minimal substitution
//! block that captures all changes applied to it so far. This block is then
//! used to overlay parts of the original schema when accessing the
//! instance."*
//!
//! Here a biased instance's block is its bias ([`StoredInstance::bias`]):
//! the ops applied to it, each with the ids it allocated — all it keeps
//! beside the reference to its schema version, and all it persists. Its
//! schema is that bias replayed onto the original one
//! ([`adept_core::replay_bias`]), the same way a migration hop builds it on
//! a new version.
//!
//! * [`SchemaRepository`] — deployed process types and version chains;
//!   every version's schema + block structure is stored exactly once. One
//!   table under one lock: a type and its deployments are one entry.
//! * [`InstanceStore`] — instances in the hybrid layout the paper adopts,
//!   with access statistics and byte-level memory accounting for the
//!   Fig. 2 experiments; its one choice is whether a biased instance's
//!   context is retained ([`Representation`]). "Accessing the instance"
//!   means [`InstanceStore::with_context`] /
//!   [`InstanceStore::update_with_context`]: the instance *and* the
//!   analysed schema it runs on (an [`adept_state::Execution`]: schema,
//!   block structure, compiled arena, names table), resolved under one
//!   shard guard — the shared deployment for an unbiased instance, the
//!   context slot beside a biased one in its shard, installed
//!   with the bias by [`InstanceStore::install`] as the change or migration
//!   hop judged it, and rebuilt by replaying the bias only after a
//!   restore (or, in a `RedundantFree` store, which tests hold the
//!   retained context against, on every access).
//! * [`TxnRecord`] — one committed change transaction (target + ops),
//!   journaled in the line of its change: the journal is the change
//!   history. The [`WriteAheadLog`] only counts them
//!   ([`WriteAheadLog::txns`]), and so do persistence snapshots.
//!
//! # Concurrency: the sharded instance store
//!
//! The paper's core promise is executing and migrating **thousands of
//! concurrent instances** on the fly, so the instance store is built for
//! multi-threaded traffic rather than wrapped in one global lock (the
//! store and its change order are the only sharded tables — [`Shards`] is
//! theirs; the repository holds a handful of types and is read-mostly):
//!
//! * **N-way sharding** — instances are spread over
//!   [`instances::DEFAULT_SHARD_COUNT`] independent `RwLock`-protected
//!   maps, keyed by `InstanceId::hash64()`. Per-instance operations
//!   (get, update, the journaled compare-and-set installs
//!   [`InstanceStore::commit_state`] / [`InstanceStore::install`]) touch
//!   exactly one shard; commands on different instances proceed
//!   in parallel.
//! * **Lock-free id allocation** — a single `AtomicU64`. The old
//!   allocator was a `RwLock<u32>` that silently wrapped at `u32::MAX`;
//!   the 64-bit space cannot realistically be exhausted.
//! * **Atomic access stats** — [`AccessStats`] is a snapshot of relaxed
//!   atomic counters. A context read that builds nothing takes no write
//!   lock at all.
//! * **Per-shard type index** — [`InstanceStore::instances_of`] is served
//!   from a per-shard `type name → ids` index instead of scanning every
//!   instance in the store.
//! * **Cross-shard composition** — `ids()`, `len()`, `memory()`, `all()`,
//!   `scan()` and snapshotting visit shards one at a time (release before
//!   next acquire), so whole-store reads never block the write hot path
//!   behind a global barrier.
//! * **Change epochs** — every critical section that replaces an
//!   instance's state, version or bias (the two inserts, the two updates,
//!   the journaled state and image installs, the removal) *stamps* the
//!   instance before it releases the shard: one atomic counter, one
//!   `(epoch, id)` key per id in a sharded change order (a removed id's
//!   apart, where only an incremental scan reads it). A lost
//!   compare-and-set and a read — also one that fills a context slot —
//!   stamp nothing; a redeploy restamps the type's instances
//!   ([`InstanceStore::restamp_type`]); the epoch is not persisted. [`InstanceStore::scan`] answers "what changed since epoch
//!   *e*" with a range read of that order, complete through the counter as
//!   read before the first guard; nothing holds that bound back, because a
//!   stamp is drawn and keyed inside one critical section. The stamp of
//!   every write that holds a context — a create, a command, a drive, the
//!   install of a change, an undo or a migration hop — is what the
//!   instance offers as of it, an [`adept_state::Offer`]: a handle to the
//!   [`adept_state::Names`] table of that context and the slots of the
//!   enabled activities. The scan is the engine's one worklist read —
//!   full, bootstrap or incremental alike — and reads an instance only
//!   where its last writer held no context (a restore, a direct write).
//!
//! Lock order: **machine-checked**. Every lock in this crate (and in
//! `adept-engine`) is an [`ordered::OrderedRwLock`] /
//! [`ordered::OrderedMutex`] carrying a declared [`ordered::LockClass`];
//! debug and `--features lock-order-check` builds validate every
//! acquisition against the class DAG and panic (with both acquisition
//! sites) on a rank inversion or a second same-class shard. The single
//! authoritative class table and its rationale live in
//! `docs/LOCK_ORDER.md`.
//! `InstanceStore::with_shards(_, 1)` reproduces the old single-map
//! behaviour, the contention baseline.
//!
//! # Durability & recovery
//!
//! ADEPT2 is a *production-grade* engine: instance state, change
//! transactions and migration outcomes must survive an engine crash, not
//! just a polite shutdown. The durability subsystem provides exactly
//! that, in three layers:
//!
//! * **[`StorageBackend`]** ([`backend`]) — the pluggable medium: an
//!   append-only line store with `append_line` / `sync` / `read_log` /
//!   `reset`. Two implementations ship: [`MemoryBackend`] (shared
//!   in-memory buffer with fault-injection hooks, for tests and benches)
//!   and [`FileBackend`] (an embedded durable file with a configurable
//!   [`SyncPolicy`] — fsync every append, every N appends, or never).
//!   Under `SyncPolicy::Always` the file backend **group-commits**:
//!   concurrent appenders write under the state lock but fsync outside
//!   it, and an appender whose write is already covered by a later
//!   fsync skips its own — N concurrent durable appends cost far fewer
//!   than N fsyncs, with no durability loss (an append returns only
//!   once a sync covering its record has completed).
//! * **[`WriteAheadLog`]** ([`wal`]) — every committed change transaction
//!   and every state-mutating command outcome is appended as one compact
//!   JSON line ([`WalEntry`]) **before** it becomes visible engine state.
//!   The line is written by the record's derived `Serialize` impl straight
//!   into its buffer and read back field by field off the text (the
//!   `serde` shim's `Writer` / `Reader`; no value tree in between) — the
//!   same codec, and the same bytes, as the snapshot's.
//!   Records carry effects on a revision: a command's record is a
//!   [`WalRecord::StateDelta`] — the executor steps it took at the
//!   instance's revision ([`StoredInstance::rev`]), which replay applies
//!   again on the same schema — a migration hop's is a [`WalRecord::Migrated`] — the
//!   revision it was judged at, the version it landed on and the criterion
//!   it was judged by, which replay runs again — and a creation or change
//!   transaction records the instance it leaves behind. Every record is
//!   appended under the shard guard that makes it visible. Replay is
//!   idempotent by revision: a post-image upserts, a command's steps apply
//!   and a hop runs at the revision it names, are skipped below it and are
//!   corruption above it. The WAL *is*
//!   the transaction log: the [`TxnRecord`]s its records embed are the
//!   change history, and nothing keeps them beside it. The log can be
//!   **segmented** over several backends
//!   ([`WriteAheadLog::create_segmented`], a power-of-two count):
//!   sequence `s` lands on segment `(s − 1) mod N`, allocation is one
//!   atomic `fetch_add`, and an append locks only its own segment —
//!   concurrent journaling from different store shards stops
//!   serializing on a single backend lock. One segment is a plain
//!   single log; [`WriteAheadLog::open_segmented`] merges segments back
//!   into one globally ordered stream and refuses duplicate sequences.
//! * **Snapshots + replay** ([`persist`]) — snapshots record the WAL
//!   watermark (`wal_seq`) they cover, every instance's revision, the
//!   highest instance id ever held and the transaction count — counters,
//!   so a snapshot grows with the residents, not with the history. A
//!   snapshot shares each instance with the store (copy-on-write), and
//!   records a type as its version-1 schema, shared with the deployment,
//!   and its deltas, so taking one and restoring from one copy no instance
//!   and no schema. Recovery loads the latest snapshot, replays the WAL tail
//!   (`seq > wal_seq`) onto it, and ends at the exact pre-crash engine —
//!   byte-for-byte equal to an uninterrupted run's snapshot. A snapshot
//!   taken under traffic may hold changes journaled past its watermark:
//!   their records name revisions it is already beyond, and are skipped.
//!   Only the current format is readable; any other `format` value, a
//!   missing field or a recorded delta that does not stage again with the
//!   ids it records is [`StorageError::Corrupt`].
//!
//! Crash semantics: a record is appended with a single write of
//! `line + '\n'`, so a crash mid-append leaves a *torn tail* — bytes
//! after the last newline. [`StorageBackend::read_log`] truncates the
//! torn tail (on the medium) and recovery proceeds from the last complete
//! record. With segments the same rule applies per segment, and the
//! replay layer then classifies any gap left in the *merged* stream: a
//! bounded gap near the global tail is the normal crash residue of
//! concurrent segmented appends (an earlier-allocated record torn or
//! unwritten while a later sequence is already durable in a sibling) and
//! is repaired by truncating every segment back to the last contiguous
//! sequence; a wide gap (a lost segment leaves periodic holes across the
//! whole stream) or a leading gap with no snapshot covering the start is
//! refused as corruption. A failed append whose sequence cannot be
//! returned to the allocator is plugged with a durable no-op tombstone
//! ([`WalRecord::Abandoned`]), so transient backend errors never leave
//! permanent holes; snapshots record the WAL's **durable position** (the
//! highest contiguous successfully-appended sequence,
//! [`WriteAheadLog::durable_position`]) rather than the raw allocator, so
//! a watermark never claims coverage of an in-flight append. A *complete*
//! line that does not decode cannot be produced by a crash; it means the
//! medium was damaged, and recovery refuses to start
//! ([`StorageError::Corrupt`]). All failures on the persistence path are
//! typed ([`error`]): backend I/O, corrupt streams, and encode failures
//! are distinguishable, and a journaling failure during a commit aborts
//! the commit instead of silently diverging from the log.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod error;
pub mod instances;
pub mod ordered;
pub mod persist;
pub mod repo;
pub mod shards;
pub mod txnlog;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, RawLog, StorageBackend, SyncPolicy};
pub use error::StorageError;
pub use instances::{
    AccessStats, ContextError, InstanceStore, MemoryBreakdown, Representation, Scan,
    StoredInstance, Unresolvable, DEFAULT_SHARD_COUNT,
};
pub use ordered::{LockClass, OrderedMutex, OrderedRwLock};
pub use persist::{
    from_json, restore_with_txns, snapshot_with_txns, to_json, InstanceRecord, Snapshot, TypeRecord,
};
pub use repo::SchemaRepository;
pub use shards::Shards;
pub use txnlog::{TxnRecord, TxnTarget};
pub use wal::{WalEntry, WalRecord, WriteAheadLog};
