//! The sharded instance store and the three representation strategies of
//! paper Fig. 2.
//!
//! * [`Representation::RedundantFree`] — unbiased instances reference their
//!   schema; biased instances re-materialise their schema **on every
//!   access** ("another \[alternative\] to materialize instance-specific
//!   schemes on the fly").
//! * [`Representation::FullCopy`] — every biased instance keeps a
//!   **complete schema copy** ("one alternative would be to maintain a
//!   complete schema for each biased instance").
//! * [`Representation::Hybrid`] — ADEPT2's approach: biased instances keep
//!   a *minimal substitution block* which overlays the original schema on
//!   access, with the materialisation cached until the next change.
//!
//! What an access resolves is the instance's **execution context** — the
//! analysed schema, an [`Execution`] — and it is resolved together with
//! the instance, under the instance's own shard guard
//! ([`InstanceStore::with_context`] /
//! [`InstanceStore::update_with_context`]): the deployment for an unbiased
//! instance, the instance's own [`StoredInstance::context`] slot for a
//! biased one. A change or migration installs the context it was judged
//! on together with the bias, so the slot is never stale; it is empty only
//! where the strategy says so and after a restore, and is then filled on
//! the first access.
//!
//! # Revisions
//!
//! Every instance carries a revision ([`StoredInstance::rev`]), persisted
//! with it: 0 when it is created, one more with every change of its
//! persisted form — [`InstanceStore::update`],
//! [`InstanceStore::update_with_context`] where its closure says it
//! changed the state, [`InstanceStore::commit_state`],
//! [`InstanceStore::install`] — inside the critical section that makes
//! the change visible; a restored instance comes with its own. So a
//! compare-and-set install names the revision it was computed from, one
//! integer compare, and a durable
//! engine journals a state change as a delta on the revision it applies
//! to: a replay can tell a record the state already holds from one that is
//! due and from one that proves another missing.
//!
//! # Change epochs
//!
//! The store is the only place that says which instances exist, on which
//! schema and in which state, so it also answers "what changed since I
//! last looked" — the question a worklist client polls with. Every
//! critical section that replaces an instance's `state`, `version` or
//! `bias` — [`InstanceStore::insert_new`],
//! [`InstanceStore::insert_restored`], [`InstanceStore::update`],
//! [`InstanceStore::update_with_context`], [`InstanceStore::commit_state`],
//! [`InstanceStore::install`], [`InstanceStore::remove`] — **stamps** the
//! instance before it releases the shard guard (a closure of
//! `update_with_context` that changed nothing stamps nothing): it draws a
//! *change epoch* from one atomic counter and moves the id's key there in
//! the **change order**, a sharded `(epoch, id)` map beside the instances
//! holding exactly one key per resident instance and one per removed id,
//! marked gone. A compare-and-set that lost installs nothing and stamps
//! nothing. A read stamps nothing either, also one that fills an empty
//! context slot on the way. The epoch is not persisted.
//!
//! [`InstanceStore::scan`] reads the counter, then walks the shards one
//! guard at a time — range-reading each change order past the caller's
//! cursor — and is complete through the counter as read. There is no set
//! of pending stamps to hold that bound back: a stamp is drawn and keyed
//! inside *one* critical section of its change-order shard, itself inside
//! the critical section that makes the change visible, so none is ever in
//! flight between two.
//!
//! The change order has its own lock class (`store.changes-shard`, taken
//! inside `store.shard` for the length of one keyed insert) because of who
//! reads it: a command holds its instance's shard guard across the journal
//! append, most of its duration, and a poller that had to wait for that
//! guard would wait on a lock whose holder may not even be running. For
//! the same reason a stamp written by a mutator that holds the context of
//! the state it wrote — every command kind: a create
//! ([`InstanceStore::insert_on`]), a segment of discrete commands
//! ([`InstanceStore::update_with_context`]), a drive
//! ([`InstanceStore::commit_state`]) — says what the instance offers as of
//! it, **as ids**: a handle to the names table of that context
//! ([`Names`]: type name, and per activity its name and role) and the
//! table slots of the enabled activities, inline in the change order's own
//! entry. An incremental scan reads that and the table — shared,
//! read-only, the same few lines for every instance of a version — and
//! touches neither the instance, nor its schema, nor the repository, nor
//! any heap block a command's core has just written. A stamp that does not
//! say (a change, a migration, a direct write, more enabled activities
//! than a stamp holds) sends the scan to the instance, which is where every
//! bootstrap reads anyway; either way an [`Offer`] is slots of a names
//! table, and a work item's strings are that table's.
//!
//! # Sharding
//!
//! The store is split into `N` shards (a power of two, default
//! [`DEFAULT_SHARD_COUNT`]), each holding an independent
//! `RwLock<BTreeMap<InstanceId, StoredInstance>>` plus a per-shard
//! secondary index from type name to the instance ids living on that
//! shard. An instance's shard is `InstanceId::hash64() & (N - 1)` —
//! sequentially allocated ids spread uniformly, so concurrent commands on
//! different instances almost never contend on the same lock. Id
//! allocation is a single `AtomicU64` (no lock at all), and the
//! [`AccessStats`] counters are atomics, so **a context read that builds
//! nothing takes no write lock anywhere** — one shard read lock plus one
//! relaxed atomic increment.
//!
//! ## Lock order
//!
//! Machine-checked: shard locks are [`crate::ordered::OrderedRwLock`]s of
//! class `store.shard` — the root of every mutation path in the global
//! acquisition order (see `docs/LOCK_ORDER.md` for the authoritative
//! class DAG) — and, for the change order, `store.changes-shard`.
//! Cross-shard operations ([`InstanceStore::ids`],
//! [`InstanceStore::len`], [`InstanceStore::memory`],
//! [`InstanceStore::all`], [`InstanceStore::instances_of`],
//! [`InstanceStore::scan`]) visit shards
//! sequentially, releasing each lock before taking the next — they
//! compose per-shard snapshots instead of stopping the world, so they
//! are cheap but not linearisable against concurrent writers (the same
//! was true of the old single-lock store across *calls*). The stats
//! counters, the id allocator and the epoch counter are atomics and
//! participate in no lock order.

use crate::error::StorageError;
use crate::ordered::{classes, OrderedRwLock};
use crate::repo::SchemaRepository;
use crate::shards::Shards;
use crate::subst::SubstitutionBlock;
use adept_core::Delta;
use adept_model::{InstanceId, ProcessSchema};
use adept_state::{Execution, InstanceState, Label, Names};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound::{self, Unbounded};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Storage strategy for instance-specific schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Representation {
    /// Reference + on-the-fly materialisation for biased instances.
    RedundantFree,
    /// Complete schema copy per biased instance.
    FullCopy,
    /// Reference + substitution block + cached overlay (ADEPT2).
    Hybrid,
}

/// One stored process instance.
#[derive(Debug, Clone)]
pub struct StoredInstance {
    /// Instance id.
    pub id: InstanceId,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance runs on.
    pub version: u32,
    /// The instance's ad-hoc changes (empty = unbiased).
    pub bias: Delta,
    /// Substitution block derived from the bias (Hybrid strategy).
    pub subst: SubstitutionBlock,
    /// Runtime state (marking + history + data).
    pub state: InstanceState,
    /// The instance's revision: 0 when it is created, one more with every
    /// change of its persisted form — state, version, bias — and persisted
    /// with it. A compare-and-set install names the revision it was computed
    /// from, and a journaled state delta the revision it applies to.
    pub rev: u64,
    /// The analysed instance-specific schema a **biased** instance runs
    /// on, retained as the store's [`Representation`] says: never
    /// (`RedundantFree`), always (`FullCopy`), until the next change
    /// (`Hybrid`). [`InstanceStore::install`] installs it with the bias it
    /// describes; where it is empty (after a restore, or by strategy) the
    /// next access builds it from `subst`. Always `None` for an unbiased
    /// instance, whose context is its deployment (boxed, so that the
    /// unbiased majority pays one word for it). Not persisted.
    pub context: Option<Box<Execution>>,
}

impl StoredInstance {
    /// A fresh unbiased instance.
    pub fn new(id: InstanceId, type_name: String, version: u32, state: InstanceState) -> Self {
        Self {
            id,
            type_name,
            version,
            bias: Delta::new(),
            subst: SubstitutionBlock::default(),
            state,
            rev: 0,
            context: None,
        }
    }

    /// Whether the instance deviates from its type schema.
    pub fn is_biased(&self) -> bool {
        !self.bias.is_empty()
    }

    /// Whether the instance still is at the revision a compare-and-set
    /// install was computed from.
    fn is_at(&self, rev: u64) -> bool {
        self.rev == rev
    }
}

/// Why [`InstanceStore::with_context`] could not hand out an instance
/// with its context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextError {
    /// No instance is stored under this id (never created, or removed).
    Gone(InstanceId),
    /// The instance exists but no schema resolves for it: its type or
    /// version is not deployed, or its substitution block does not overlay
    /// and analyse. The store is corrupt for this instance.
    Unresolvable {
        /// The instance.
        id: InstanceId,
        /// What failed.
        reason: String,
    },
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::Gone(id) => write!(f, "{id}"),
            ContextError::Unresolvable { id, reason } => write!(f, "schema of {id}: {reason}"),
        }
    }
}

impl std::error::Error for ContextError {}

/// What an instance offers: its enabled activities, in node-id order, as
/// slots of the [`Names`] table of the schema it runs on. The one answer
/// every [`InstanceStore::scan`] hands its visitor, and the one way a work
/// item gets its strings — whether the slots come off a stamp or were just
/// read from the instance's marking.
#[derive(Debug, Clone, Copy)]
pub struct Offer<'a> {
    /// The instance's process type.
    pub type_name: &'a Arc<str>,
    /// The schema version it runs on.
    pub version: u32,
    /// Its enabled activities.
    pub activities: Activities<'a>,
}

/// The enabled activities of an [`Offer`].
#[derive(Debug, Clone, Copy)]
pub struct Activities<'a> {
    names: &'a Arc<Names>,
    slots: &'a [u32],
}

impl<'a> Activities<'a> {
    /// How many there are.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there is none.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Each one's node, name and role, in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Label> + 'a {
        let names: &'a Names = self.names;
        self.slots.iter().filter_map(|slot| names.label(*slot))
    }

    /// The names table, shared: what a copy of the offer that outlives the
    /// scan keeps, with [`Activities::slots`].
    pub fn names(&self) -> &'a Arc<Names> {
        self.names
    }

    /// The activities as slots of [`Activities::names`], in node-id order.
    pub fn slots(&self) -> &'a [u32] {
        self.slots
    }
}

/// How many enabled activities a stamp holds: a handful of parallel
/// branches, few enough that key and stamp share a cache line. An instance
/// offering more is read from its marking.
const STAMP_SLOTS: usize = 6;

/// What an instance offers as of a stamp: a handle to the names table of
/// the context it was written on and the slots of its enabled activities,
/// **inline** — the stamp owns no heap block of its own, so a poll that
/// reads it touches the change order and the (shared, read-only) table,
/// nothing a command's core has just written beside them. It keeps the
/// table alive, not the schema: under `RedundantFree` a biased instance's
/// per-access schema is dropped with the access that built it.
#[derive(Debug)]
struct Enabled {
    names: Arc<Names>,
    version: u32,
    len: u8,
    slots: [u32; STAMP_SLOTS],
}

impl Enabled {
    /// What `state` enables on `ctx`; `None` if that is more than a stamp
    /// holds (the scan then reads the instance).
    fn of(ctx: &Execution, version: u32, state: &InstanceState) -> Option<Self> {
        let mut slots = [0; STAMP_SLOTS];
        let mut len = 0u8;
        for slot in ctx.names.enabled(state) {
            *slots.get_mut(usize::from(len))? = slot;
            len += 1;
        }
        Some(Enabled {
            names: ctx.names.clone(),
            version,
            len,
            slots,
        })
    }

    fn offer(&self) -> Offer<'_> {
        Offer {
            type_name: self.names.type_name(),
            version: self.version,
            activities: Activities {
                names: &self.names,
                slots: self.slots.get(..usize::from(self.len)).unwrap_or_default(),
            },
        }
    }
}

/// What an [`InstanceStore::scan`] found beside the instances it visited.
#[derive(Debug, Default)]
pub struct Scan {
    /// The change epoch the scan is complete through: the next `since`.
    pub epoch: u64,
    /// Ids removed after `since`, in id order (empty for a bootstrap).
    pub gone: Vec<InstanceId>,
    /// Resident instances in range that no schema resolves for, in id
    /// order.
    pub unresolvable: Vec<Unresolvable>,
}

/// An instance an [`InstanceStore::scan`] could not resolve a schema for.
#[derive(Debug)]
pub struct Unresolvable {
    /// The instance.
    pub id: InstanceId,
    /// Why ([`ContextError::Unresolvable`]).
    pub error: ContextError,
    /// Whether this is the first scan to find it so since the instance was
    /// last stamped (nothing but a write of the instance can turn one that
    /// resolved into one that does not): its key in the change order
    /// remembers, so that a consumer can report an ongoing failure once,
    /// not per read — and forgets with the instance.
    pub first: bool,
}

/// Access statistics of the store (cache behaviour of the Fig. 2 bench).
/// A point-in-time snapshot of the store's atomic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Schema accesses answered from a shared deployed schema.
    pub shared_hits: u64,
    /// Schema accesses answered from the per-instance overlay cache.
    pub cache_hits: u64,
    /// Schema accesses that had to materialise (overlay or replay).
    pub materializations: u64,
}

/// The live counters behind [`AccessStats`]: plain atomics, so the schema
/// **read** path (shared hits, cache hits) increments without taking any
/// lock — the old store took `stats.write()` on every cache-hit read,
/// *while holding the instances read lock*, which both serialised readers
/// and created a nested lock order. Relaxed ordering is sufficient:
/// the counters are monotonic tallies, not synchronisation.
#[derive(Debug, Default)]
struct StatCounters {
    shared_hits: AtomicU64,
    cache_hits: AtomicU64,
    materializations: AtomicU64,
}

impl StatCounters {
    fn snapshot(&self) -> AccessStats {
        AccessStats {
            shared_hits: self.shared_hits.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
        }
    }
}

/// Byte-level breakdown of the store's memory usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Shared deployed schemas (stored once per version).
    pub schema_bytes: usize,
    /// Markings, histories and data contexts.
    pub state_bytes: usize,
    /// Bias deltas + substitution blocks.
    pub bias_bytes: usize,
    /// Per-instance full copies (FullCopy strategy).
    pub full_copy_bytes: usize,
    /// Cached overlays (Hybrid strategy).
    pub cache_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.schema_bytes
            + self.state_bytes
            + self.bias_bytes
            + self.full_copy_bytes
            + self.cache_bytes
    }
}

/// Default shard count: enough to make contention between a handful of
/// worker threads statistically rare, small enough that cross-shard
/// operations stay cheap.
pub const DEFAULT_SHARD_COUNT: usize = 16;

/// One shard: the instance map plus the per-type secondary index over the
/// ids living on this shard. Both live under **one** lock so they can
/// never be observed out of sync.
#[derive(Debug, Default)]
struct ShardState {
    instances: BTreeMap<InstanceId, StoredInstance>,
    by_type: BTreeMap<String, BTreeSet<InstanceId>>,
}

impl ShardState {
    fn insert(&mut self, inst: StoredInstance) {
        self.by_type
            .entry(inst.type_name.clone())
            .or_default()
            .insert(inst.id);
        self.instances.insert(inst.id, inst);
    }

    fn remove(&mut self, id: InstanceId) -> Option<StoredInstance> {
        let inst = self.instances.remove(&id)?;
        if let Some(set) = self.by_type.get_mut(&inst.type_name) {
            set.remove(&id);
            if set.is_empty() {
                self.by_type.remove(&inst.type_name);
            }
        }
        Some(inst)
    }
}

/// What the change order holds under an id's key.
#[derive(Debug)]
enum Change {
    /// The instance was removed.
    Gone,
    /// The instance was inserted or replaced, or its state written; with
    /// what it offers since, where the mutator had its context at hand and
    /// that fits a stamp (`None`: ask the instance).
    Resident(Option<Enabled>),
    /// As `Resident(None)`, and a [`InstanceStore::scan`] has found (and
    /// reported) that no schema resolves for the instance as stamped.
    Unresolvable,
}

/// One shard's ids in change order: exactly one `(epoch, id)` key per id
/// the shard holds or has held, moved by every stamp of the id.
#[derive(Debug, Default)]
struct ChangeOrder {
    /// The epoch each id is keyed at.
    stamps: BTreeMap<InstanceId, u64>,
    order: BTreeMap<(u64, InstanceId), Change>,
    /// The highest key's epoch, where a scan sees without a seek that the
    /// shard holds nothing past its cursor.
    latest: u64,
}

impl ChangeOrder {
    fn put(&mut self, id: InstanceId, epoch: u64, change: Change) {
        if let Some(old) = self.stamps.insert(id, epoch) {
            self.order.remove(&(old, id));
        }
        self.order.insert((epoch, id), change);
        self.latest = epoch;
    }

    /// Marks a resident id as found unresolvable, where its key is;
    /// whether that is news.
    fn flag_unresolvable(&mut self, id: InstanceId) -> bool {
        let key = self.stamps.get(&id).map(|epoch| (*epoch, id));
        match key.and_then(|key| self.order.get_mut(&key)) {
            Some(change @ Change::Resident(_)) => {
                *change = Change::Unresolvable;
                true
            }
            _ => false,
        }
    }
}

/// The sharded instance store. All methods take `&self`; sharing across
/// threads is the point.
#[derive(Debug)]
pub struct InstanceStore {
    strategy: Representation,
    shards: Shards<ShardState>,
    /// The change order (see the module docs), sharded like the instances
    /// and written only under the instance's shard guard.
    changes: Shards<ChangeOrder>,
    /// Lock-free id allocator: the **raw value of the most recently
    /// allocated id** (0 = nothing allocated yet). 64-bit, so the id
    /// space outlives any realistic deployment instead of silently
    /// wrapping like the old `RwLock<u32>` did at `u32::MAX`.
    next_id: AtomicU64,
    /// The change-epoch counter: the most recently drawn stamp. Drawn
    /// only by [`InstanceStore::stamp`].
    epoch: AtomicU64,
    /// The counter's value at the last [`InstanceStore::restart_epochs`];
    /// scans take and report epochs relative to it.
    epoch_base: u64,
    stats: StatCounters,
}

impl InstanceStore {
    /// Creates a store with the given representation strategy and
    /// [`DEFAULT_SHARD_COUNT`] shards.
    pub fn new(strategy: Representation) -> Self {
        Self::with_shards(strategy, DEFAULT_SHARD_COUNT)
    }

    /// Creates a store with an explicit shard count (rounded up to the
    /// next power of two, minimum 1). `with_shards(strategy, 1)` is the
    /// old single-map store — benchmarks use it as the contention
    /// baseline.
    pub fn with_shards(strategy: Representation, shards: usize) -> Self {
        Self {
            strategy,
            shards: Shards::new(&classes::STORE_SHARD, shards),
            changes: Shards::new(&classes::STORE_CHANGES, shards),
            next_id: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            epoch_base: 0,
            stats: StatCounters::default(),
        }
    }

    /// The store's strategy.
    pub fn strategy(&self) -> Representation {
        self.strategy
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    #[inline]
    fn shard(&self, id: InstanceId) -> &OrderedRwLock<ShardState> {
        self.shards.for_id(id)
    }

    /// Stamps a change of `id`: draws the next change epoch and keys the id
    /// there, both inside one critical section of the id's change-order
    /// shard — which is what lets a scan trust the counter it read before
    /// its first guard. Called with the instance's shard write guard held,
    /// by the critical section that makes the change visible, so stamps
    /// order like the changes they stamp.
    fn stamp(&self, id: InstanceId, change: Change) {
        let mut changes = self.changes.for_id(id).write();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        changes.put(id, epoch, change);
    }

    /// Starts a new cursor lifetime: epochs count from here, and every
    /// change stamped so far reads as epoch 0 — bootstrap material. A
    /// restore and a journal replay write through the stamping mutators;
    /// the engine assembled around the result calls this, so that its
    /// epochs start at 0 like every engine's and a cursor that outlived a
    /// restart is ahead of them (and served as a bootstrap) instead of
    /// somewhere inside the replay.
    pub fn restart_epochs(&mut self) {
        self.epoch_base = *self.epoch.get_mut();
    }

    /// The change epoch the store is at: what a scan started now would
    /// report as [`Scan::epoch`] — and, less a cursor, a bound on how many
    /// instances a scan past that cursor visits.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed) - self.epoch_base
    }

    /// Creates a new (unbiased) instance of a type version.
    pub fn create(&self, type_name: &str, version: u32, state: InstanceState) -> InstanceId {
        let id = self.allocate_id();
        self.insert_new(id, type_name, version, state);
        id
    }

    /// Allocates the next instance id without inserting anything — the
    /// journaled creation path reserves the id first so the WAL record
    /// can carry it *before* the instance becomes visible.
    pub fn allocate_id(&self) -> InstanceId {
        let prev = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(
            prev < u64::MAX,
            "instance id space exhausted (u64::MAX allocations)"
        );
        InstanceId(prev + 1)
    }

    /// Inserts a fresh unbiased instance under a previously
    /// [allocated](InstanceStore::allocate_id) id.
    pub fn insert_new(&self, id: InstanceId, type_name: &str, version: u32, state: InstanceState) {
        self.insert(
            StoredInstance::new(id, type_name.to_string(), version, state),
            None,
        );
    }

    /// [`InstanceStore::insert_new`] by the creating command, which holds
    /// the deployment the instance starts on — the stamp says what it
    /// offers, so no poll comes back to the instance for it — and hands the
    /// new state to `journal` under the shard write lock, before the
    /// instance becomes visible (as every journaled mutator does: a reader
    /// that took the journal's position before the guard finds the journaled
    /// creation in the store). If journaling fails nothing is inserted.
    pub fn insert_on(
        &self,
        id: InstanceId,
        dep: &Execution,
        state: InstanceState,
        journal: impl FnOnce(&InstanceState) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let version = dep.schema.version;
        let enabled = Enabled::of(dep, version, &state);
        let inst = StoredInstance::new(id, dep.schema.name.clone(), version, state);
        let mut shard = self.shard(id).write();
        journal(&inst.state)?;
        shard.insert(inst);
        self.stamp(id, Change::Resident(enabled));
        Ok(())
    }

    /// Inserts a fully-specified instance, its revision included
    /// (persistence restore path). The id allocator is advanced past the
    /// restored id so future instances never collide.
    pub fn insert_restored(&self, inst: StoredInstance) {
        self.next_id.fetch_max(inst.id.raw(), Ordering::Relaxed);
        self.insert(inst, None);
    }

    /// The one insert body: the instance becomes visible and is stamped
    /// under one shard guard.
    fn insert(&self, inst: StoredInstance, enabled: Option<Enabled>) {
        let id = inst.id;
        let mut shard = self.shard(id).write();
        shard.insert(inst);
        self.stamp(id, Change::Resident(enabled));
    }

    /// Removes an instance (cancellation / archival), returning it. The
    /// id is **not** reused. Migration treats an instance that disappears
    /// mid-flight as [`adept_core::ConflictKind::Vanished`], not as a
    /// structural failure.
    pub fn remove(&self, id: InstanceId) -> Option<StoredInstance> {
        self.remove_journaled(id, || Ok(())).unwrap_or_default()
    }

    /// [`InstanceStore::remove`] that calls `journal` under the shard write
    /// lock once the instance is found, before it goes: no record of the
    /// instance can land in the journal after its removal's. If journaling
    /// fails nothing is removed. `Ok(None)`: no such instance, nothing
    /// journaled.
    pub fn remove_journaled(
        &self,
        id: InstanceId,
        journal: impl FnOnce() -> Result<(), StorageError>,
    ) -> Result<Option<StoredInstance>, StorageError> {
        let mut shard = self.shard(id).write();
        if !shard.instances.contains_key(&id) {
            return Ok(None);
        }
        journal()?;
        let inst = shard.remove(id);
        // The id keeps its key, marked gone: what tells a cursor that held
        // the instance to drop it.
        self.stamp(id, Change::Gone);
        Ok(inst)
    }

    /// Reads an instance (cloned snapshot).
    pub fn get(&self, id: InstanceId) -> Option<StoredInstance> {
        self.shard(id).read().instances.get(&id).cloned()
    }

    /// Reads an instance through a closure **without cloning it** — the
    /// hot-path accessor for worklist computation and command outcomes,
    /// where cloning the full state (marking + history + data) per access
    /// would dominate. The shard read lock is held only for the closure.
    pub fn with_instance<R>(
        &self,
        id: InstanceId,
        f: impl FnOnce(&StoredInstance) -> R,
    ) -> Option<R> {
        self.shard(id).read().instances.get(&id).map(f)
    }

    /// All stored instance ids, in id order — including instances whose
    /// type is unknown to the repository (the worklist surfaces those as
    /// corruption instead of hiding them). Composed from per-shard
    /// snapshots (one shard lock at a time, no global barrier).
    pub fn ids(&self) -> Vec<InstanceId> {
        // No len() pre-sizing: that would sweep every shard lock a second
        // time on the hottest read path (and the count is stale under
        // concurrent writers anyway).
        let mut ids = Vec::new();
        for shard in self.shards.iter() {
            ids.extend(shard.read().instances.keys().copied());
        }
        ids.sort_unstable();
        ids
    }

    /// All instance ids of a type, in id order. Served from the per-shard
    /// secondary indexes — O(matching instances), not O(all instances)
    /// like the old full-map filter scan.
    pub fn instances_of(&self, type_name: &str) -> Vec<InstanceId> {
        let mut ids = Vec::new();
        for shard in self.shards.iter() {
            if let Some(set) = shard.read().by_type.get(type_name) {
                ids.extend(set.iter().copied());
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Number of stored instances.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().instances.len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().instances.is_empty())
    }

    /// Cloned snapshots of all instances, in id order — the persistence
    /// path. Composed per shard; each shard's lock is released before the
    /// next is taken.
    pub fn all(&self) -> Vec<StoredInstance> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            out.extend(shard.read().instances.values().cloned());
        }
        out.sort_unstable_by_key(|i| i.id);
        out
    }

    /// Mutates an instance in place via the supplied closure, advances its
    /// revision and stamps it (the closure is opaque: a call that changed
    /// nothing costs its readers one repeated report).
    pub fn update<R>(&self, id: InstanceId, f: impl FnOnce(&mut StoredInstance) -> R) -> Option<R> {
        let mut shard = self.shard(id).write();
        let inst = shard.instances.get_mut(&id)?;
        let out = f(inst);
        inst.rev += 1;
        self.stamp(id, Change::Resident(None));
        Some(out)
    }

    /// Reads an instance **together with the analysed schema it runs on**,
    /// both under one shard guard — what every reader that pairs schema
    /// and state must use, since two separate reads can straddle a change
    /// and describe a pair that never existed.
    ///
    /// An unbiased instance is handed its deployment (`repo`'s shared
    /// triple), a biased one its own [`StoredInstance::context`]. Neither
    /// builds anything and both hold only the shard **read** lock. A
    /// biased instance whose slot is empty — the strategy retains none, or
    /// the instance was restored — is overlaid, analysed and compiled under
    /// the shard write lock first ([`AccessStats::materializations`]
    /// counts these), and the result retained as the strategy says. Filling
    /// the slot is no change: it stamps nothing.
    pub fn with_context<R>(
        &self,
        repo: &SchemaRepository,
        id: InstanceId,
        f: impl FnOnce(&StoredInstance, &Execution) -> R,
    ) -> Result<R, ContextError> {
        {
            let shard = self.shard(id).read();
            let inst = shard.instances.get(&id).ok_or(ContextError::Gone(id))?;
            if let Some(ctx) = self.resident_context(repo, inst)? {
                return Ok(f(inst, &ctx));
            }
        }
        let mut shard = self.shard(id).write();
        let inst = shard.instances.get_mut(&id).ok_or(ContextError::Gone(id))?;
        let ctx = self.context_or_build(repo, inst)?;
        Ok(f(inst, &ctx))
    }

    /// [`InstanceStore::with_context`] under the shard **write** lock, for
    /// closures that advance `inst.state` on the context they are handed
    /// and say whether they did: `f` returns its result and `true` if it
    /// changed the state — which then advances the revision and is stamped
    /// — or `false` if it left it as it was (then nothing is).
    /// Bias and version belong to [`InstanceStore::install`], which
    /// replaces the context with them; a closure that changed either here
    /// would leave the slot describing another schema.
    pub fn update_with_context<R>(
        &self,
        repo: &SchemaRepository,
        id: InstanceId,
        f: impl FnOnce(&mut StoredInstance, &Execution) -> (R, bool),
    ) -> Result<R, ContextError> {
        let mut shard = self.shard(id).write();
        let inst = shard.instances.get_mut(&id).ok_or(ContextError::Gone(id))?;
        let ctx = self.context_or_build(repo, inst)?;
        let (out, changed) = f(inst, &ctx);
        if changed {
            inst.rev += 1;
            // The context of what was written is at hand: the stamp carries
            // what the instance offers now, so that a poll reads it off the
            // change order instead of coming back for it.
            let enabled = Enabled::of(&ctx, inst.version, &inst.state);
            self.stamp(id, Change::Resident(enabled));
        }
        Ok(out)
    }

    /// Replaces an instance's state with one computed **outside** the
    /// store (a drive: user driver code ran on a copy) — a compare-and-set
    /// with the contract of [`InstanceStore::install`]: only if the
    /// instance still is at revision `expected`, the one the new state was
    /// computed from (`Ok(false)` otherwise, as for an unknown id: nothing
    /// is journaled, installed or stamped). `journal` is handed the state
    /// the instance is at — the revision matching, the very state the copy
    /// was taken of — and the new one, under the shard write lock, before
    /// anything becomes visible; it says whether the two differ. Where they
    /// do not, nothing is installed, advanced or stamped (`Ok(true)`: the
    /// instance is at `state`). `ctx` is the context read with the copy —
    /// the revision still matching, it is the instance's context still, so
    /// the stamp says what the new state offers on it and nothing is
    /// resolved again.
    pub fn commit_state(
        &self,
        id: InstanceId,
        expected: u64,
        ctx: &Execution,
        state: InstanceState,
        journal: impl FnOnce(&InstanceState, &InstanceState) -> Result<bool, StorageError>,
    ) -> Result<bool, StorageError> {
        let mut shard = self.shard(id).write();
        let Some(inst) = shard.instances.get_mut(&id) else {
            return Ok(false);
        };
        if !inst.is_at(expected) {
            return Ok(false);
        }
        if !journal(&inst.state, &state)? {
            return Ok(true);
        }
        let enabled = Enabled::of(ctx, inst.version, &state);
        inst.state = state;
        inst.rev += 1;
        self.stamp(id, Change::Resident(enabled));
        Ok(true)
    }

    /// Hands `visit` what every resident instance changed after change
    /// epoch `since` offers, and lists the ids removed after it — **one
    /// shard guard at a time**, so what it reports is per-instance current
    /// rather than one frozen instant, and complete through
    /// [`Scan::epoch`], the counter as read before the first guard. Every
    /// stamp at or below that was drawn and keyed, and the change it stamps
    /// made visible, inside critical sections that this scan's guards can
    /// only follow — `Relaxed` suffices: a scan that observed a drawn value
    /// before taking a guard cannot have taken the guard before the drawing
    /// writer did (the draw would then be ordered after the load), so the
    /// lock hand-over publishes the change. Later stamps may or may not be
    /// reported; the next scan past `Scan::epoch` reads them again (a
    /// report replaces, so repeats are harmless).
    ///
    /// `since == 0` is the bootstrap: every resident, nothing removed. So
    /// is a `since` ahead of the counter, which no scan of this store since
    /// [`InstanceStore::restart_epochs`] can have returned. A bootstrap
    /// walks the instances; an incremental scan range-reads the change
    /// order past `since` — it costs what changed, not what exists — and
    /// goes to an instance only where the stamp does not say what it
    /// offers. Where it does, the visitor is handed the stamp's slots and
    /// names table in place, under the change-order guard: no lock,
    /// allocation or reference count is touched per entry.
    ///
    /// An instance is read under its shard's read guard, where its context
    /// is only *looked up*: the retained slot of a biased instance, the
    /// deployment of an unbiased one, resolved once per run of
    /// `(type, version)`. One whose slot is empty is read after that guard
    /// is released, under the write guard that fills it; so is one no
    /// schema resolves for, which lands in [`Scan::unresolvable`] instead
    /// of being visited. Nothing a scan does stamps anything.
    pub fn scan(
        &self,
        repo: &SchemaRepository,
        since: u64,
        visit: impl FnMut(InstanceId, Offer<'_>),
    ) -> Scan {
        let now = self.epoch.load(Ordering::Relaxed);
        let past = since
            .checked_add(self.epoch_base)
            .filter(|past| since > 0 && *past <= now);
        let mut gone = Vec::new();
        let mut walk = Walk {
            store: self,
            repo,
            visit,
            run: None,
            slots: Vec::new(),
            hits: (0, 0),
            unresolvable: Vec::new(),
        };
        let mut later = Vec::new();
        match past {
            None => {
                for shard in self.shards.iter() {
                    for inst in shard.read().instances.values() {
                        if !walk.look_up(inst) {
                            later.push(inst.id);
                        }
                    }
                    for id in later.drain(..) {
                        walk.fill_or_flag(id);
                    }
                }
            }
            Some(past) => {
                let newer = (Bound::Excluded((past, InstanceId(u64::MAX))), Unbounded);
                for changes in self.changes.iter() {
                    let changes = changes.read();
                    if changes.latest <= past {
                        continue;
                    }
                    for (&(_, id), change) in changes.order.range(newer) {
                        match change {
                            Change::Gone => gone.push(id),
                            Change::Resident(None) | Change::Unresolvable => later.push(id),
                            Change::Resident(Some(enabled)) => (walk.visit)(id, enabled.offer()),
                        }
                    }
                }
                for id in later {
                    let shard = self.shard(id).read();
                    let inst = shard.instances.get(&id);
                    let found = inst.is_some_and(|inst| walk.look_up(inst));
                    drop(shard);
                    if !found {
                        walk.fill_or_flag(id);
                    }
                }
            }
        }
        let (shared, retained) = walk.hits;
        self.stats.shared_hits.fetch_add(shared, Ordering::Relaxed);
        self.retained_hits().fetch_add(retained, Ordering::Relaxed);
        let mut unresolvable = walk.unresolvable;
        gone.sort_unstable();
        unresolvable.sort_unstable_by_key(|u| u.id);
        Scan {
            epoch: now - self.epoch_base,
            gone,
            unresolvable,
        }
    }

    /// The context of an instance where nothing has to be built for it:
    /// the deployment of an unbiased instance, the retained slot of a
    /// biased one (`None` = the slot is empty).
    fn resident_context(
        &self,
        repo: &SchemaRepository,
        inst: &StoredInstance,
    ) -> Result<Option<Execution>, ContextError> {
        let (ctx, counter) = if !inst.is_biased() {
            (deployment_of(repo, inst)?, &self.stats.shared_hits)
        } else {
            let Some(ctx) = &inst.context else {
                return Ok(None);
            };
            (Execution::clone(ctx), self.retained_hits())
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(Some(ctx))
    }

    /// The counter an access answered from a biased instance's retained
    /// slot goes to: a full copy is to its instance what the deployment is
    /// to an unbiased one; only Hybrid's slot is a cache.
    fn retained_hits(&self) -> &AtomicU64 {
        match self.strategy {
            Representation::FullCopy => &self.stats.shared_hits,
            _ => &self.stats.cache_hits,
        }
    }

    /// The context of an instance under its shard's write guard: the
    /// resident one, or the one built to fill the empty slot.
    fn context_or_build(
        &self,
        repo: &SchemaRepository,
        inst: &mut StoredInstance,
    ) -> Result<Execution, ContextError> {
        match self.resident_context(repo, inst)? {
            Some(ctx) => Ok(ctx),
            None => self.materialize(repo, inst),
        }
    }

    /// Builds the context of a biased instance whose slot is empty — its
    /// substitution block overlaid on its deployment, analysed and
    /// compiled — and retains it where the strategy does.
    fn materialize(
        &self,
        repo: &SchemaRepository,
        inst: &mut StoredInstance,
    ) -> Result<Execution, ContextError> {
        let unresolvable = |reason: String| ContextError::Unresolvable {
            id: inst.id,
            reason,
        };
        let overlay = inst
            .subst
            .overlay(&deployment_of(repo, inst)?.schema)
            .map_err(|e| unresolvable(e.to_string()))?;
        let ctx = Execution::new(overlay).map_err(|e| unresolvable(e.to_string()))?;
        self.stats.materializations.fetch_add(1, Ordering::Relaxed);
        if self.strategy != Representation::RedundantFree {
            inst.context = Some(Box::new(ctx.clone()));
        }
        Ok(ctx)
    }

    /// The schema an instance currently executes on — the schema of its
    /// [context](InstanceStore::with_context).
    pub fn schema_of(&self, repo: &SchemaRepository, id: InstanceId) -> Option<Arc<ProcessSchema>> {
        self.with_context(repo, id, |_, ctx| ctx.schema.clone())
            .ok()
    }

    /// The one install of an instance's **image** — bias, the analysed
    /// schema it runs on and the runtime state on it — that an ad-hoc
    /// change, its undo and a migration hop share. `target` is the schema
    /// the caller judged the change or hop on and adapted `state` on: the
    /// instance's version becomes its version, its substitution block is
    /// derived against it, and it becomes the instance's
    /// [context](StoredInstance::context) as it is, where the strategy
    /// retains one (an instance whose bias is empty shares its deployment).
    ///
    /// With `expected = Some(rev)` the install is a compare-and-set: it
    /// happens only if the instance still is at the revision of the
    /// snapshot the caller validated against. Check and install share one
    /// shard write lock, so a change committed from a stale snapshot
    /// (racing commit, migration or execution step in between) is rejected
    /// instead of clobbering the concurrent update — `Ok(false)`, as for
    /// an unknown id, and `journal` is not invoked. The candidate `journal`
    /// sees and that is installed is the next revision.
    ///
    /// Once the check passes, the fully-built candidate is handed to
    /// `journal` **before** it is installed — still under the shard write
    /// lock, so a write-ahead log records installs in their visibility
    /// order. If journaling fails nothing is installed and the error
    /// surfaces. Callers with nothing to journal pass `|_| Ok(())`.
    pub fn install(
        &self,
        id: InstanceId,
        expected: Option<u64>,
        bias: Delta,
        target: Execution,
        state: InstanceState,
        journal: impl FnOnce(&StoredInstance) -> Result<(), StorageError>,
    ) -> Result<bool, StorageError> {
        let mut shard = self.shard(id).write();
        let Some(inst) = shard.instances.get_mut(&id) else {
            return Ok(false);
        };
        if expected.is_some_and(|expected| !inst.is_at(expected)) {
            return Ok(false);
        }
        let retains = !bias.is_empty() && self.strategy != Representation::RedundantFree;
        let candidate = StoredInstance {
            id,
            type_name: inst.type_name.clone(),
            version: target.schema.version,
            subst: SubstitutionBlock::from_delta(&bias, &target.schema),
            context: retains.then(|| Box::new(target)),
            bias,
            state,
            rev: inst.rev + 1,
        };
        journal(&candidate)?;
        *inst = candidate;
        self.stamp(id, Change::Resident(None));
        Ok(true)
    }

    /// Current access statistics (a relaxed snapshot of the atomic
    /// counters).
    pub fn stats(&self) -> AccessStats {
        self.stats.snapshot()
    }

    /// Byte-level memory accounting across all instances (Fig. 2),
    /// composed shard by shard. The change order — a key per id, a command's
    /// stamp a table handle and a few slots beside it — is the same under
    /// every strategy and no part of the comparison.
    pub fn memory(&self, repo: &SchemaRepository) -> MemoryBreakdown {
        let mut mb = MemoryBreakdown {
            schema_bytes: repo.schema_bytes(),
            ..Default::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.read();
            for inst in shard.instances.values() {
                mb.state_bytes += inst.state.approx_size();
                mb.bias_bytes += inst.bias.approx_size() + inst.subst.approx_size();
                if let Some(ctx) = &inst.context {
                    let bytes = ctx.schema.approx_size();
                    match self.strategy {
                        Representation::FullCopy => mb.full_copy_bytes += bytes,
                        _ => mb.cache_bytes += bytes,
                    }
                }
            }
        }
        mb
    }
}

/// One [`InstanceStore::scan`] reading instances.
struct Walk<'a, V> {
    store: &'a InstanceStore,
    repo: &'a SchemaRepository,
    visit: V,
    /// The deployment of the current run of unbiased instances, and the
    /// version it is deployed as.
    run: Option<(u32, Execution)>,
    /// The slots of the instance being visited (one buffer per scan).
    slots: Vec<u32>,
    /// Contexts looked up: deployments, retained slots.
    hits: (u64, u64),
    unresolvable: Vec<Unresolvable>,
}

impl<V: FnMut(InstanceId, Offer<'_>)> Walk<'_, V> {
    /// Visits an instance under its shard's read guard, if its context is
    /// there to be looked up. `false`: come back with the write guard.
    fn look_up(&mut self, inst: &StoredInstance) -> bool {
        let ctx = if inst.is_biased() {
            self.hits.1 += u64::from(inst.context.is_some());
            inst.context.as_deref()
        } else {
            // A deployment is keyed by its schema's name and a version.
            let of_run = |(v, dep): &(u32, Execution)| {
                *v == inst.version && **dep.names.type_name() == *inst.type_name
            };
            if !self.run.as_ref().is_some_and(of_run) {
                let dep = self.repo.deployed(&inst.type_name, inst.version);
                self.run = dep.map(|dep| (inst.version, dep));
            }
            self.hits.0 += u64::from(self.run.is_some());
            self.run.as_ref().map(|(_, dep)| dep)
        };
        let Some(ctx) = ctx else {
            return false;
        };
        Self::visit(&mut self.visit, &mut self.slots, inst, ctx);
        true
    }

    /// Hands the visitor what `inst` offers in its current state on `ctx`,
    /// the context it runs on.
    fn visit(visit: &mut V, slots: &mut Vec<u32>, inst: &StoredInstance, ctx: &Execution) {
        slots.clear();
        slots.extend(ctx.names.enabled(&inst.state));
        let offer = Offer {
            type_name: ctx.names.type_name(),
            version: inst.version,
            activities: Activities {
                names: &ctx.names,
                slots,
            },
        };
        visit(inst.id, offer)
    }

    /// Visits an instance under its shard's write guard, filling its
    /// context slot if that is empty; one no schema resolves for is listed
    /// instead, and flagged where it is keyed.
    fn fill_or_flag(&mut self, id: InstanceId) {
        let mut shard = self.store.shard(id).write();
        // Removed in between: stamped past the scan's bound, the next one's.
        let Some(inst) = shard.instances.get_mut(&id) else {
            return;
        };
        match self.store.context_or_build(self.repo, inst) {
            Ok(ctx) => Self::visit(&mut self.visit, &mut self.slots, inst, &ctx),
            Err(error) => {
                let first = self.store.changes.for_id(id).write().flag_unresolvable(id);
                self.unresolvable.push(Unresolvable { id, error, first });
            }
        }
    }
}

/// The deployment an instance's `(type, version)` names.
fn deployment_of(
    repo: &SchemaRepository,
    inst: &StoredInstance,
) -> Result<Execution, ContextError> {
    repo.deployed(&inst.type_name, inst.version)
        .ok_or_else(|| ContextError::Unresolvable {
            id: inst.id,
            reason: format!(
                "version {} of {:?} is not deployed",
                inst.version, inst.type_name
            ),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::{apply_op, ChangeOp, NewActivity};
    use adept_model::SchemaBuilder;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup(strategy: Representation) -> (SchemaRepository, InstanceStore, String) {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.activity("c");
        let schema = b.build().unwrap();
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(strategy);
        (repo, store, name)
    }

    fn make_biased(
        repo: &SchemaRepository,
        store: &InstanceStore,
        name: &str,
    ) -> (InstanceId, ProcessSchema) {
        let dep = repo.deployed(name, 1).unwrap();
        let ex = dep.exec();
        let st = ex.init().unwrap();
        let id = store.create(name, 1, st.clone());
        let mut materialized = (*dep.schema).clone();
        materialized.reserve_private_id_space();
        let a = materialized.node_by_name("a").unwrap().id;
        let b = materialized.node_by_name("b").unwrap().id;
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("ad-hoc"),
                    pred: a,
                    succ: b,
                },
            )
            .unwrap(),
        );
        let target = Execution::new(materialized.clone()).unwrap();
        let installed = store.install(id, None, bias, target, st, |_| Ok(()));
        assert_eq!(installed, Ok(true));
        (id, materialized)
    }

    /// [`make_biased`], then the instance as a restore leaves it: same
    /// bias and substitution block, context slot empty.
    fn make_biased_restored(
        repo: &SchemaRepository,
        store: &InstanceStore,
        name: &str,
    ) -> (InstanceId, ProcessSchema) {
        let (id, materialized) = make_biased(repo, store, name);
        let inst = store.get(id).unwrap();
        store.insert_restored(StoredInstance {
            context: None,
            ..inst
        });
        (id, materialized)
    }

    #[test]
    fn cas_mismatch_installs_nothing_and_never_journals() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let (id, materialized) = make_biased(&repo, &store, &name);
        let before = store.get(id).unwrap();
        let mut moved_on = before.state.clone();
        let a = materialized.node_by_name("a").unwrap().id;
        let target = Execution::new(materialized).unwrap();
        target.exec().start_activity(&mut moved_on, a).unwrap();
        // The same schema as version 2: what a migration hop installs.
        let mut next = ProcessSchema::clone(&target.schema);
        next.version = 2;
        let moved = Execution::new(next).unwrap();
        let never = |_: &StoredInstance| -> Result<(), StorageError> {
            panic!("the journal must not see a candidate that lost the compare-and-set")
        };
        // A revision behind (a change landed since the read) or ahead loses.
        for stale in [before.rev - 1, before.rev + 1] {
            let installed = store.install(
                id,
                Some(stale),
                Delta::new(),
                target.clone(),
                moved_on.clone(),
                never,
            );
            assert_eq!(installed, Ok(false));
            let installed = store.install(
                id,
                Some(stale),
                before.bias.clone(),
                moved.clone(),
                moved_on.clone(),
                never,
            );
            assert_eq!(installed, Ok(false));
            let installed = store.commit_state(id, stale, &target, moved_on.clone(), |_, _| {
                panic!("a drive that lost the compare-and-set is not journaled")
            });
            assert_eq!(installed, Ok(false));
        }
        let unknown = store.install(
            InstanceId(999),
            None,
            Delta::new(),
            moved.clone(),
            moved_on.clone(),
            never,
        );
        assert_eq!(unknown, Ok(false));
        let after = store.get(id).unwrap();
        assert_eq!(
            (after.version, &after.bias, &after.state, after.rev),
            (before.version, &before.bias, &before.state, before.rev)
        );

        // The matching revision wins, and a failing journal installs nothing.
        let expected = Some(before.rev);
        let bias = before.bias.clone();
        let failed = store.install(id, expected, bias, moved.clone(), moved_on.clone(), |_| {
            Err(StorageError::corrupt("injected"))
        });
        assert!(failed.is_err());
        assert_eq!(store.get(id).unwrap().version, before.version);
        let mut journaled = None;
        let bias = before.bias.clone();
        let installed = store.install(id, expected, bias, moved, moved_on.clone(), |c| {
            journaled = Some((c.version, c.state.clone(), c.rev));
            Ok(())
        });
        assert_eq!(installed, Ok(true));
        assert_eq!(journaled, Some((2, moved_on, before.rev + 1)));
        let after = store.get(id).unwrap();
        assert_eq!((after.version, after.rev), (2, before.rev + 1));

        // A state install is judged against the state it would replace: one
        // the journal finds unchanged installs, advances and stamps nothing.
        let epoch = store.epoch();
        let same = after.state.clone();
        let installed = store.commit_state(id, after.rev, &target, same, |old, new| {
            assert_eq!(old, &after.state);
            Ok(old != new)
        });
        assert_eq!(installed, Ok(true));
        assert_eq!(
            (store.get(id).unwrap().rev, store.epoch()),
            (after.rev, epoch)
        );
    }

    /// Built once, never stale: an install keeps the analysed target it is
    /// handed — the very `Arc`s — where the strategy retains one, and an
    /// instance whose bias emptied runs on its deployment's again.
    #[test]
    fn installs_keep_the_context_they_are_handed() {
        fn same(a: &Execution, b: &Execution) -> bool {
            Arc::ptr_eq(&a.schema, &b.schema)
                && Arc::ptr_eq(&a.blocks, &b.blocks)
                && Arc::ptr_eq(&a.arena, &b.arena)
        }
        for strategy in [
            Representation::Hybrid,
            Representation::FullCopy,
            Representation::RedundantFree,
        ] {
            let (repo, store, name) = setup(strategy);
            let dep = repo.deployed(&name, 1).unwrap();
            let (id, materialized) = make_biased(&repo, &store, &name);
            let StoredInstance { state, bias, .. } = store.get(id).unwrap();
            let target = Execution::new(materialized).unwrap();
            let retains = strategy != Representation::RedundantFree;

            let handed = target.clone();
            let installed = store.install(id, None, bias, handed, state.clone(), |_| Ok(()));
            assert_eq!(installed, Ok(true));
            let kept = store.with_context(&repo, id, |_, ctx| same(ctx, &target));
            assert_eq!(kept, Ok(retains), "{strategy:?}");
            assert_eq!(store.stats().materializations, u64::from(!retains));

            let installed = store.install(id, None, Delta::new(), target, state, |_| Ok(()));
            assert_eq!(installed, Ok(true));
            assert!(store.get(id).unwrap().context.is_none());
            let shared = store.with_context(&repo, id, |_, ctx| same(ctx, &dep));
            assert_eq!(shared, Ok(true), "{strategy:?}");
        }
    }

    #[test]
    fn unbiased_instances_share_schema() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        let i1 = store.create(&name, 1, st.clone());
        let i2 = store.create(&name, 1, st);
        let s1 = store.schema_of(&repo, i1).unwrap();
        let s2 = store.schema_of(&repo, i2).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2), "redundant-free: same Arc");
        assert_eq!(store.stats().shared_hits, 2);
        assert_eq!(store.stats().materializations, 0);
    }

    #[test]
    fn hybrid_caches_overlay() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let (id, materialized) = make_biased_restored(&repo, &store, &name);
        let s1 = store.schema_of(&repo, id).unwrap();
        assert_eq!(*s1, materialized);
        assert_eq!(store.stats().materializations, 1);
        let s2 = store.schema_of(&repo, id).unwrap();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(store.stats().cache_hits, 1);
        assert_eq!(store.stats().materializations, 1, "no re-materialisation");
    }

    #[test]
    fn redundant_free_rematerializes_every_access() {
        let (repo, store, name) = setup(Representation::RedundantFree);
        let (id, _) = make_biased(&repo, &store, &name);
        store.schema_of(&repo, id).unwrap();
        store.schema_of(&repo, id).unwrap();
        assert_eq!(store.stats().materializations, 2);
        // ... and keeps none of them, a write included: its stamp says what
        // the instance offers by name, without the schema that named it.
        let built =
            store.update_with_context(&repo, id, |_, ctx| (Arc::downgrade(&ctx.schema), true));
        assert_eq!(store.stats().materializations, 3);
        assert!(built.unwrap().upgrade().is_none(), "schema retained");
        let mut names = Vec::new();
        store.scan(&repo, 1, |_, offer| {
            names.extend(offer.activities.iter().map(|a| a.name.to_string()))
        });
        assert_eq!(names, ["a"]);
        assert_eq!(store.stats().materializations, 3, "served off the stamp");
    }

    #[test]
    fn full_copy_stores_per_instance_schema() {
        let (repo, store, name) = setup(Representation::FullCopy);
        let (id, _) = make_biased(&repo, &store, &name);
        let mem = store.memory(&repo);
        assert!(mem.full_copy_bytes > 0, "{mem:?}");
        let _ = store.schema_of(&repo, id).unwrap();
        assert_eq!(store.stats().shared_hits, 1, "full copy needs no overlay");
    }

    #[test]
    fn memory_breakdown_orders_strategies() {
        // Hybrid bias bytes should be far below a full schema copy. The
        // advantage appears for realistically sized schemas (the fixed
        // overhead of a block can exceed a 5-node toy schema), so build a
        // 40-activity process.
        fn setup_large(strategy: Representation) -> (SchemaRepository, InstanceStore, String) {
            let mut b = SchemaBuilder::new("large");
            b.activity("a");
            b.activity("b");
            for i in 0..40 {
                b.activity(&format!("step {i}"));
            }
            let schema = b.build().unwrap();
            let repo = SchemaRepository::new();
            let name = repo.deploy(schema).unwrap();
            (repo, InstanceStore::new(strategy), name)
        }
        let (repo_h, store_h, name_h) = setup_large(Representation::Hybrid);
        make_biased(&repo_h, &store_h, &name_h);
        let (repo_f, store_f, name_f) = setup_large(Representation::FullCopy);
        make_biased(&repo_f, &store_f, &name_f);
        let mem_h = store_h.memory(&repo_h);
        let mem_f = store_f.memory(&repo_f);
        assert!(
            mem_h.bias_bytes < mem_f.full_copy_bytes / 2,
            "substitution block ({}) must be far smaller than a schema copy ({})",
            mem_h.bias_bytes,
            mem_f.full_copy_bytes
        );
    }

    #[test]
    fn instance_queries() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        assert!(store.is_empty());
        let id = store.create(&name, 1, st);
        assert_eq!(store.len(), 1);
        assert_eq!(store.instances_of(&name), vec![id]);
        assert!(store.get(id).is_some());
        assert!(store.get(InstanceId(999)).is_none());
    }

    #[test]
    fn ids_and_instances_of_are_sorted_across_shards() {
        let (repo, store, name) = setup(Representation::Hybrid);
        assert_eq!(store.shard_count(), DEFAULT_SHARD_COUNT);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        let created: Vec<InstanceId> = (0..100)
            .map(|_| store.create(&name, 1, st.clone()))
            .collect();
        assert_eq!(store.len(), 100);
        assert_eq!(store.ids(), created, "ids() must be in id order");
        assert_eq!(store.instances_of(&name), created);
        let all = store.all();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn per_type_index_partitions_types() {
        let repo = SchemaRepository::new();
        let mut names = Vec::new();
        for t in ["alpha", "beta"] {
            let mut b = SchemaBuilder::new(t);
            b.activity("a");
            names.push(repo.deploy(b.build().unwrap()).unwrap());
        }
        let store = InstanceStore::new(Representation::Hybrid);
        let mut per_type: BTreeMap<String, Vec<InstanceId>> = BTreeMap::new();
        for k in 0..40 {
            let name = &names[k % 2];
            let dep = repo.deployed(name, 1).unwrap();
            let id = store.create(name, 1, dep.exec().init().unwrap());
            per_type.entry(name.clone()).or_default().push(id);
        }
        for (name, expected) in per_type {
            assert_eq!(store.instances_of(&name), expected);
        }
        assert!(store.instances_of("no such type").is_empty());
    }

    #[test]
    fn remove_drops_instance_and_index_entry() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        let i1 = store.create(&name, 1, st.clone());
        let i2 = store.create(&name, 1, st);
        let removed = store.remove(i1).expect("instance existed");
        assert_eq!(removed.id, i1);
        assert!(store.get(i1).is_none());
        assert!(store.remove(i1).is_none(), "double remove is None");
        assert_eq!(store.instances_of(&name), vec![i2]);
        assert_eq!(store.ids(), vec![i2]);
        // The id is not reused.
        let dep = repo.deployed(&name, 1).unwrap();
        let i3 = store.create(&name, 1, dep.exec().init().unwrap());
        assert!(i3.raw() > i2.raw());
    }

    #[test]
    fn allocator_is_atomic_and_monotonic_across_threads() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        let ids: Vec<Vec<InstanceId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let st = st.clone();
                    let store = &store;
                    let name = &name;
                    scope.spawn(move || {
                        (0..100)
                            .map(|_| store.create(name, 1, st.clone()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut flat: Vec<u64> = ids.into_iter().flatten().map(|i| i.raw()).collect();
        flat.sort_unstable();
        flat.dedup();
        assert_eq!(flat.len(), 400, "no id handed out twice");
        assert_eq!(store.len(), 400);
        assert_eq!(store.ids().len(), 400);
    }

    #[test]
    fn restored_ids_advance_the_atomic_allocator() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        store.insert_restored(StoredInstance::new(
            InstanceId(u32::MAX as u64 + 5),
            name.clone(),
            1,
            st.clone(),
        ));
        let fresh = store.create(&name, 1, st);
        assert!(
            fresh.raw() > u32::MAX as u64 + 5,
            "allocator must jump past restored 64-bit ids, got {fresh}"
        );
    }

    #[test]
    fn single_shard_store_behaves_identically() {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.activity("c");
        let repo = SchemaRepository::new();
        let name = repo.deploy(b.build().unwrap()).unwrap();
        let store = InstanceStore::with_shards(Representation::Hybrid, 1);
        assert_eq!(store.shard_count(), 1);
        let (id, _) = make_biased_restored(&repo, &store, &name);
        assert!(store.schema_of(&repo, id).is_some());
        assert_eq!(store.stats().materializations, 1);
        assert_eq!(store.ids(), vec![id]);
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        for (requested, expected) in [(0, 1), (1, 1), (3, 4), (16, 16), (17, 32)] {
            let store = InstanceStore::with_shards(Representation::Hybrid, requested);
            assert_eq!(store.shard_count(), expected, "requested {requested}");
        }
    }

    /// What a scan past `since` must visit and list as gone: every key of
    /// every shard filtered by its stamp — the scan the range read
    /// replaced, kept as its oracle.
    fn scan_by_full_filter(store: &InstanceStore, since: u64) -> [Vec<InstanceId>; 2] {
        let bootstrap = since == 0 || since > store.epoch.load(Ordering::Relaxed);
        let [mut changed, mut gone] = [Vec::new(), Vec::new()];
        for changes in store.changes.iter() {
            let changes = changes.read();
            for (id, epoch) in &changes.stamps {
                match changes.order[&(*epoch, *id)] {
                    Change::Gone if bootstrap => {}
                    Change::Gone if *epoch > since => gone.push(*id),
                    Change::Gone => {}
                    _ if bootstrap || *epoch > since => changed.push(*id),
                    _ => {}
                }
            }
        }
        changed.sort_unstable();
        gone.sort_unstable();
        [changed, gone]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random interleavings of every mutator — inserts of fresh, resident
        /// and removed ids, updates with and without context, bias and
        /// migration installs that win and that lose their compare-and-set,
        /// removals — and of reads, against random cursors: the scan agrees
        /// with the full filter, what it says an instance offers is what its
        /// state says, only a change draws an epoch and advances the
        /// revision of what it changed in place, and the change order
        /// holds exactly one key per id, where the id lives or lived.
        #[test]
        fn range_read_matches_full_scan(seed in 0u64..1_000_000, steps in 1usize..80) {
            let (repo, store, name) = setup(Representation::Hybrid);
            let dep = repo.deployed(&name, 1).unwrap();
            let ex = dep.exec();
            let fresh = ex.init().unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..steps {
                let id = InstanceId(rng.gen_range(1..24u64));
                let drawn = store.epoch.load(Ordering::Relaxed);
                let state = store.with_instance(id, |inst| inst.state.clone());
                let rev = store.with_instance(id, |inst| inst.rev);
                let lost = Some(u64::MAX);
                let kind = rng.gen_range(0u8..10);
                let stamps = match (kind, state) {
                    (0, _) => {
                        store.create(&name, 1, fresh.clone());
                        true
                    }
                    (1, _) => {
                        store.insert_restored(StoredInstance::new(id, name.clone(), 1, fresh.clone()));
                        true
                    }
                    (2, _) => store.update(id, |inst| inst.state = fresh.clone()).is_some(),
                    (3, _) => {
                        let a = dep.schema.node_by_name("a").unwrap().id;
                        let started = store.update_with_context(&repo, id, |inst, ctx| {
                            let started = ctx.exec().start_activity(&mut inst.state, a).is_ok();
                            (started, started)
                        });
                        started == Ok(true)
                    }
                    (4, Some(state)) => {
                        let (bias, target) = (Delta::new(), dep.clone());
                        store.install(id, None, bias, target, state, |_| Ok(())).unwrap()
                    }
                    (5, Some(state)) => {
                        let (bias, target) = (Delta::new(), dep.clone());
                        store.install(id, None, bias, target, state, |_| Ok(())).unwrap()
                    }
                    (6, Some(state)) => {
                        let (bias, target) = (Delta::new(), dep.clone());
                        store.install(id, lost, bias, target, state, |_| Ok(())).unwrap()
                    }
                    (7, Some(state)) => {
                        let (bias, target) = (Delta::new(), dep.clone());
                        store.install(id, lost, bias, target, state, |_| Ok(())).unwrap()
                    }
                    (8, _) => store.remove(id).is_some(),
                    _ => {
                        let _ = store.with_context(&repo, id, |_, _| ());
                        false
                    }
                };
                let now = store.epoch.load(Ordering::Relaxed);
                prop_assert_eq!(now, drawn + u64::from(stamps));
                // What stamps an instance in place advances its revision.
                if let (2..=7 | 9, Some(rev)) = (kind, rev) {
                    let advanced = rev + u64::from(stamps);
                    prop_assert_eq!(store.with_instance(id, |inst| inst.rev), Some(advanced));
                }

                let since = rng.gen_range(0..now + 3);
                let mut offers = Vec::new();
                let scan = store.scan(&repo, since, |id, o| {
                    offers.push((id, o.activities.iter().map(|a| a.node).collect::<Vec<_>>()))
                });
                offers.sort_unstable();
                for (id, enabled) in &offers {
                    let state = store.with_instance(*id, |inst| inst.state.clone());
                    prop_assert_eq!(enabled, &ex.enabled(&state.unwrap()));
                }
                let visited: Vec<_> = offers.into_iter().map(|(id, _)| id).collect();
                prop_assert_eq!(scan.epoch, now);
                prop_assert!(scan.unresolvable.is_empty());
                prop_assert_eq!([visited, scan.gone], scan_by_full_filter(&store, since));

                for (shard, changes) in store.shards.iter().zip(store.changes.iter()) {
                    let held: Vec<_> = shard.read().instances.keys().copied().collect();
                    let changes = changes.read();
                    let keyed: Vec<_> = changes.stamps.iter().map(|(id, epoch)| (*epoch, *id)).collect();
                    let mut keys: Vec<_> = changes.order.keys().copied().collect();
                    keys.sort_unstable_by_key(|(_, id)| *id);
                    prop_assert_eq!(keys, keyed);
                    let resident = changes.order.iter().filter(|(_, c)| !matches!(c, Change::Gone));
                    let mut resident: Vec<_> = resident.map(|((_, id), _)| *id).collect();
                    resident.sort_unstable();
                    prop_assert_eq!(resident, held);
                }
            }
        }
    }
}
