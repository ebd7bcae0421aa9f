//! The sharded instance store and its one layout (paper Fig. 2).
//!
//! An unbiased instance references its deployed schema. A biased one keeps
//! a *minimal substitution block* — its bias, replayed onto the original
//! schema on access — with the analysed result retained beside it until the
//! next change ([`Representation::Hybrid`], ADEPT2's approach, what every
//! engine runs). The store's one decision is whether that context is
//! retained: [`Representation::RedundantFree`] retains none and
//! re-materialises it **on every access** ("another \[alternative\] to
//! materialize instance-specific schemes on the fly"), the reference the
//! tests hold a retained context against. The paper's other alternative, a
//! complete schema per biased instance, is what a retained context already
//! is; its bytes are the sum of the contexts' sizes.
//!
//! What an access resolves is the instance's **execution context** — the
//! analysed schema, an [`Execution`] — and it is resolved together with
//! the instance, under the instance's own shard guard
//! ([`InstanceStore::with_context`] /
//! [`InstanceStore::update_with_context`]): the deployment for an unbiased
//! instance, the context slot a biased one keeps beside it. A change or
//! migration installs the context it was judged on together with the
//! bias, so the slot is never stale; it is empty under `RedundantFree` and
//! after a restore, and is then filled on the first access.
//!
//! # Shared instances
//!
//! A shard slot holds its instance behind an `Arc` and the context slot
//! beside it. A snapshot ([`crate::snapshot_with_txns`]) shares the `Arc`s
//! instead of copying the instances, and a restore inserts a snapshot's
//! `Arc`s as they are. A writer writes in place where nothing else holds
//! the instance and into a copy where a snapshot still does
//! (copy-on-write), so a snapshot holds exactly one revision of each
//! instance, whatever is written after it. The context slot is a cache of
//! the store's own: never shared, never persisted, and filling it copies
//! no instance.
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
//! engine journals a command as the steps it took at the revision it
//! found: a replay can tell a record the state already holds from one that is
//! due and from one that proves another missing.
//!
//! # Change epochs
//!
//! Every critical section that makes a change of an instance visible
//! stamps it in the store's **change order** — with what the instance
//! offers since, where the writer holds its context — and
//! [`InstanceStore::scan`] reads that order past a cursor: the worklist
//! (`instances/changes.rs`).
//!
//! # Sharding
//!
//! The store is split into `N` shards (a power of two, default
//! [`DEFAULT_SHARD_COUNT`]), each holding an independent
//! `RwLock<BTreeMap<InstanceId, Slot>>` plus a per-shard
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
//! class DAG) — and, for the change order, `store.changes-shard`
//! (`instances/changes.rs`).
//! Cross-shard operations ([`InstanceStore::ids`],
//! [`InstanceStore::len`], [`InstanceStore::memory`],
//! [`InstanceStore::instances_of`], [`InstanceStore::scan`], the snapshot
//! read) visit shards
//! sequentially, releasing each lock before taking the next — they
//! compose per-shard snapshots instead of stopping the world, so they
//! are cheap but not linearisable against concurrent writers (the same
//! was true of the old single-lock store across *calls*). The stats
//! counters, the id allocator and the epoch counter are atomics and
//! participate in no lock order.

mod changes;

pub use changes::{Scan, Unresolvable};

use crate::error::StorageError;
use crate::ordered::{classes, OrderedRwLock};
use crate::repo::SchemaRepository;
use crate::shards::Shards;
use adept_core::{replay_bias, Delta};
use adept_model::{InstanceId, ProcessSchema};
use adept_state::{Execution, InstanceState, Offer};
use changes::{Change, ChangeOrder};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether the store retains a biased instance's analysed context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Reference + on-the-fly materialisation for biased instances.
    RedundantFree,
    /// Reference + bias + cached materialisation (ADEPT2).
    Hybrid,
}

/// One stored process instance: what a snapshot records and a journal
/// image writes, in this order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredInstance {
    /// Instance id.
    pub id: InstanceId,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance runs on.
    pub version: u32,
    /// The instance's revision: 0 when it is created, one more with every
    /// change of its persisted form — state, version, bias — and persisted
    /// with it. A compare-and-set install names the revision it was computed
    /// from, and a command's journaled steps the revision they were taken at.
    pub rev: u64,
    /// The instance's ad-hoc changes (empty = unbiased): the paper's
    /// substitution block, each op with the ids it allocated.
    pub bias: Delta,
    /// Runtime state (marking + history + data).
    pub state: InstanceState,
}

impl StoredInstance {
    /// A fresh unbiased instance.
    pub fn new(id: InstanceId, type_name: String, version: u32, state: InstanceState) -> Self {
        Self {
            id,
            type_name,
            version,
            rev: 0,
            bias: Delta::new(),
            state,
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

/// One resident instance: the instance, shared with every snapshot that
/// holds it, and the context slot beside it.
#[derive(Debug)]
struct Slot {
    inst: Arc<StoredInstance>,
    /// The analysed instance-specific schema a **biased** instance runs
    /// on, retained until the next change (`Hybrid`) or never
    /// (`RedundantFree`). [`InstanceStore::install`] installs it with the
    /// bias it describes; where it is empty (after a restore, or under
    /// `RedundantFree`) the next access replays the bias onto the deployment
    /// ([`adept_core::replay_bias`]). Always `None` for an unbiased
    /// instance, whose context is its deployment (boxed, so that the
    /// unbiased majority pays one word for it). A cache: never shared,
    /// never persisted.
    context: Option<Box<Execution>>,
}

impl Slot {
    /// Replaces the instance: in place where nothing else holds it, else
    /// beside the snapshots that do.
    fn put(&mut self, inst: StoredInstance) {
        match Arc::get_mut(&mut self.inst) {
            Some(held) => *held = inst,
            None => self.inst = Arc::new(inst),
        }
    }

    /// Replaces the instance's state and advances its revision, copying
    /// none of the state it replaces.
    fn commit(&mut self, state: InstanceState) {
        let rev = self.inst.rev + 1;
        match Arc::get_mut(&mut self.inst) {
            Some(held) => (held.state, held.rev) = (state, rev),
            None => {
                let inst = &self.inst;
                self.inst = Arc::new(StoredInstance {
                    id: inst.id,
                    type_name: inst.type_name.clone(),
                    version: inst.version,
                    rev,
                    bias: inst.bias.clone(),
                    state,
                });
            }
        }
    }
}

/// Why [`InstanceStore::with_context`] could not hand out an instance
/// with its context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContextError {
    /// No instance is stored under this id (never created, or removed).
    Gone(InstanceId),
    /// The instance exists but no schema resolves for it: its type or
    /// version is not deployed, or its bias does not replay onto it and
    /// analyse. The store is corrupt for this instance.
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

/// Access statistics of the store (cache behaviour of the Fig. 2 bench).
/// A point-in-time snapshot of the store's atomic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Schema accesses answered from a shared deployed schema.
    pub shared_hits: u64,
    /// Schema accesses answered from the per-instance overlay cache.
    pub cache_hits: u64,
    /// Schema accesses that had to materialise (replay the bias).
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
    /// Bias deltas: the substitution blocks.
    pub bias_bytes: usize,
    /// Retained contexts of biased instances (`Hybrid`).
    pub cache_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.schema_bytes + self.state_bytes + self.bias_bytes + self.cache_bytes
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
    instances: BTreeMap<InstanceId, Slot>,
    by_type: BTreeMap<String, BTreeSet<InstanceId>>,
}

impl ShardState {
    /// Inserts or replaces `inst`, its context slot empty; whether its id
    /// was new.
    fn insert(&mut self, inst: Arc<StoredInstance>) -> bool {
        let id = inst.id;
        // The type's name is copied for its first id only.
        if let Some(ids) = self.by_type.get_mut(&inst.type_name) {
            ids.insert(id);
        } else {
            let ids = BTreeSet::from([id]);
            self.by_type.insert(inst.type_name.clone(), ids);
        }
        let slot = Slot {
            inst,
            context: None,
        };
        self.instances.insert(id, slot).is_none()
    }

    fn remove(&mut self, id: InstanceId) -> Option<Arc<StoredInstance>> {
        let inst = self.instances.remove(&id)?.inst;
        if let Some(set) = self.by_type.get_mut(&inst.type_name) {
            set.remove(&id);
            if set.is_empty() {
                self.by_type.remove(&inst.type_name);
            }
        }
        Some(inst)
    }
}

/// The sharded instance store. All methods take `&self`; sharing across
/// threads is the point.
#[derive(Debug)]
pub struct InstanceStore {
    /// Whether a biased instance's context is retained (`Hybrid`).
    retains: bool,
    shards: Shards<ShardState>,
    /// The change order (see the module docs), sharded like the instances
    /// and written only under the instance's shard guard.
    changes: Shards<ChangeOrder>,
    /// Lock-free id allocator: the **raw value of the most recently
    /// allocated id** (0 = nothing allocated yet). 64-bit, so the id
    /// space outlives any realistic deployment instead of silently
    /// wrapping like the old `RwLock<u32>` did at `u32::MAX`.
    next_id: AtomicU64,
    /// The raw value of the highest id ever inserted (0 = none): unlike
    /// `next_id`, not an id a create abandoned when its journal failed.
    max_inserted: AtomicU64,
    /// The change-epoch counter: the most recently drawn stamp. Drawn
    /// only by [`InstanceStore::stamp`].
    epoch: AtomicU64,
    /// The counter's value at the last [`InstanceStore::restart_epochs`];
    /// scans take and report epochs relative to it.
    epoch_base: u64,
    stats: StatCounters,
}

impl InstanceStore {
    /// Creates a store with the given representation and
    /// [`DEFAULT_SHARD_COUNT`] shards.
    pub fn new(representation: Representation) -> Self {
        Self::with_shards(representation, DEFAULT_SHARD_COUNT)
    }

    /// Creates a store with an explicit shard count (rounded up to the
    /// next power of two, minimum 1). `with_shards(representation, 1)` is
    /// the old single-map store — benchmarks use it as the contention
    /// baseline.
    pub fn with_shards(representation: Representation, shards: usize) -> Self {
        Self {
            retains: representation == Representation::Hybrid,
            shards: Shards::new(&classes::STORE_SHARD, shards),
            changes: Shards::new(&classes::STORE_CHANGES, shards),
            next_id: AtomicU64::new(0),
            max_inserted: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            epoch_base: 0,
            stats: StatCounters::default(),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    #[inline]
    fn shard(&self, id: InstanceId) -> &OrderedRwLock<ShardState> {
        self.shards.for_id(id)
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
        let inst = StoredInstance::new(id, type_name.to_string(), version, state);
        self.insert(Arc::new(inst));
    }

    /// [`InstanceStore::insert_new`] by the creating command, which holds
    /// the deployment the instance starts on — the stamp says what it
    /// offers, so no poll comes back to the instance for it — and hands the
    /// new instance to `journal` under the shard write lock, before the
    /// instance becomes visible (as every journaled mutator does: a reader
    /// that took the journal's position before the guard finds the journaled
    /// creation in the store). If journaling fails nothing is inserted.
    pub fn insert_on(
        &self,
        id: InstanceId,
        dep: &Execution,
        state: InstanceState,
        journal: impl FnOnce(&StoredInstance) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let version = dep.schema.version;
        let offer = Offer::of(id, dep, &state);
        let inst = StoredInstance::new(id, dep.schema.name.clone(), version, state);
        let mut shard = self.shard(id).write();
        journal(&inst)?;
        shard.insert(Arc::new(inst));
        self.max_inserted.fetch_max(id.raw(), Ordering::Relaxed);
        self.stamp(id, Change::Resident(Some(offer)));
        Ok(())
    }

    /// Inserts a fully-specified instance, its revision included
    /// (persistence restore path), replacing one of the same id (a journal
    /// replay upserts). A restore hands in the instances its snapshot
    /// shares, and the store shares them in turn. The id allocator is
    /// advanced past the restored id so future instances never collide.
    /// Returns whether the id was new.
    pub fn insert_restored(&self, inst: impl Into<Arc<StoredInstance>>) -> bool {
        let inst = inst.into();
        self.next_id.fetch_max(inst.id.raw(), Ordering::Relaxed);
        self.insert(inst)
    }

    /// The insert body of the two inserts without a context: the instance
    /// becomes visible and is stamped under one shard guard; whether its
    /// id was new.
    fn insert(&self, inst: Arc<StoredInstance>) -> bool {
        let id = inst.id;
        let mut shard = self.shard(id).write();
        let new = shard.insert(inst);
        self.max_inserted.fetch_max(id.raw(), Ordering::Relaxed);
        self.stamp(id, Change::Resident(None));
        new
    }

    /// The raw value of the highest id ever inserted, removed instances
    /// included (0 = none).
    pub(crate) fn max_inserted_id(&self) -> u64 {
        self.max_inserted.load(Ordering::Relaxed)
    }

    /// Counts every id up to `raw` as inserted (a restore: the highest id
    /// its snapshot records), so none of them is allocated again.
    pub(crate) fn reserve_ids_through(&self, raw: u64) {
        self.next_id.fetch_max(raw, Ordering::Relaxed);
        self.max_inserted.fetch_max(raw, Ordering::Relaxed);
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
        // The id keeps a key, among the removed: what tells a cursor that
        // held the instance to drop it.
        self.stamp_gone(id);
        drop(shard);
        Ok(inst.map(Arc::unwrap_or_clone))
    }

    /// Reads an instance (cloned snapshot).
    pub fn get(&self, id: InstanceId) -> Option<StoredInstance> {
        let shard = self.shard(id).read();
        shard
            .instances
            .get(&id)
            .map(|s| StoredInstance::clone(&s.inst))
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
        self.shard(id).read().instances.get(&id).map(|s| f(&s.inst))
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

    /// Every instance `keep` accepts, in id order, shared — what a snapshot
    /// holds: nothing is copied, and a writer copies an instance only while
    /// a snapshot still holds it. `keep` runs under the instance's shard
    /// read guard; each shard's lock is released before the next is taken.
    pub(crate) fn shared(
        &self,
        mut keep: impl FnMut(&StoredInstance) -> bool,
    ) -> Vec<Arc<StoredInstance>> {
        let mut held = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read();
            let kept = shard.instances.iter().filter(|(_, s)| keep(&s.inst));
            held.extend(kept.map(|(id, s)| (*id, Arc::clone(&s.inst))));
        }
        held.sort_unstable_by_key(|(id, _)| *id);
        held.into_iter().map(|(_, inst)| inst).collect()
    }

    /// Mutates an instance in place via the supplied closure (copied first
    /// if a snapshot still holds it), advances its revision and stamps it
    /// (the closure is opaque: a call that changed nothing costs its
    /// readers one repeated report).
    pub fn update<R>(&self, id: InstanceId, f: impl FnOnce(&mut StoredInstance) -> R) -> Option<R> {
        let mut shard = self.shard(id).write();
        let inst = Arc::make_mut(&mut shard.instances.get_mut(&id)?.inst);
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
    /// triple), a biased one the context its slot retains. Neither
    /// builds anything and both hold only the shard **read** lock. A
    /// biased instance whose slot is empty — the store retains none, or
    /// the instance was restored — is overlaid, analysed and compiled under
    /// the shard write lock first ([`AccessStats::materializations`]
    /// counts these), and the result retained where the store retains one.
    /// Filling the slot is no change: it stamps nothing.
    pub fn with_context<R>(
        &self,
        repo: &SchemaRepository,
        id: InstanceId,
        f: impl FnOnce(&StoredInstance, &Execution) -> R,
    ) -> Result<R, ContextError> {
        {
            let shard = self.shard(id).read();
            let slot = shard.instances.get(&id).ok_or(ContextError::Gone(id))?;
            if let Some(ctx) = self.resident_context(repo, slot)? {
                return Ok(f(&slot.inst, &ctx));
            }
        }
        let mut shard = self.shard(id).write();
        let slot = shard.instances.get_mut(&id).ok_or(ContextError::Gone(id))?;
        let ctx = self.context_or_build(repo, slot)?;
        Ok(f(&slot.inst, &ctx))
    }

    /// [`InstanceStore::with_context`] under the shard **write** lock, for
    /// closures that advance `inst.state` on the context they are handed
    /// and say whether they did: `f` returns its result and `true` if it
    /// changed the state — which then advances the revision and is stamped
    /// — or `false` if it left it as it was (then nothing is). An instance
    /// a snapshot still holds is copied before `f` sees it.
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
        let slot = shard.instances.get_mut(&id).ok_or(ContextError::Gone(id))?;
        let ctx = self.context_or_build(repo, slot)?;
        let inst = Arc::make_mut(&mut slot.inst);
        let (out, changed) = f(inst, &ctx);
        if changed {
            inst.rev += 1;
            // The context of what was written is at hand: the stamp carries
            // what the instance offers now, so that a read takes it off the
            // change order instead of coming back for it.
            let offer = Offer::of(id, &ctx, &inst.state);
            self.stamp(id, Change::Resident(Some(offer)));
        }
        Ok(out)
    }

    /// Replaces an instance's state with one computed **outside** the
    /// store (a drive: user driver code ran on a copy) — a compare-and-set
    /// with the contract of [`InstanceStore::install`]: only if the
    /// instance still is at revision `expected`, the one the new state was
    /// computed from (`Ok(false)` otherwise, as for an unknown id: nothing
    /// is journaled, installed or stamped). `journal` is handed the new
    /// state under the shard write lock, the revision matching, before
    /// anything becomes visible; if it fails, nothing is installed. `ctx`
    /// is the context read with the copy — the revision still matching, it
    /// is the instance's context still, so the stamp says what the new
    /// state offers on it and nothing is resolved again.
    pub fn commit_state(
        &self,
        id: InstanceId,
        expected: u64,
        ctx: &Execution,
        state: InstanceState,
        journal: impl FnOnce(&InstanceState) -> Result<(), StorageError>,
    ) -> Result<bool, StorageError> {
        let mut shard = self.shard(id).write();
        let Some(slot) = shard.instances.get_mut(&id) else {
            return Ok(false);
        };
        if !slot.inst.is_at(expected) {
            return Ok(false);
        }
        journal(&state)?;
        let offer = Offer::of(id, ctx, &state);
        slot.commit(state);
        self.stamp(id, Change::Resident(Some(offer)));
        Ok(true)
    }

    /// The context of an instance where nothing has to be built for it:
    /// the deployment of an unbiased instance, the retained slot of a
    /// biased one (`None` = the slot is empty).
    fn resident_context(
        &self,
        repo: &SchemaRepository,
        slot: &Slot,
    ) -> Result<Option<Execution>, ContextError> {
        let (ctx, counter) = if !slot.inst.is_biased() {
            (deployment_of(repo, &slot.inst)?, &self.stats.shared_hits)
        } else {
            let Some(ctx) = &slot.context else {
                return Ok(None);
            };
            (Execution::clone(ctx), &self.stats.cache_hits)
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(Some(ctx))
    }

    /// The context of an instance under its shard's write guard: the
    /// resident one, or the one built to fill the empty slot.
    fn context_or_build(
        &self,
        repo: &SchemaRepository,
        slot: &mut Slot,
    ) -> Result<Execution, ContextError> {
        match self.resident_context(repo, slot)? {
            Some(ctx) => Ok(ctx),
            None => self.materialize(repo, slot),
        }
    }

    /// Builds the context of a biased instance whose slot is empty — its
    /// bias replayed onto its deployment, with the blocks the replay
    /// derived from the deployment's, and compiled — and retains it where
    /// the store does. The instance is only read.
    fn materialize(
        &self,
        repo: &SchemaRepository,
        slot: &mut Slot,
    ) -> Result<Execution, ContextError> {
        let inst = &slot.inst;
        let unresolvable = |reason: String| ContextError::Unresolvable {
            id: inst.id,
            reason,
        };
        let (schema, blocks, _) = replay_bias(&deployment_of(repo, inst)?, &inst.bias)
            .map_err(|(op, e)| unresolvable(format!("bias {op} does not replay: {e}")))?;
        let ctx = Execution::with_blocks(schema, blocks);
        self.stats.materializations.fetch_add(1, Ordering::Relaxed);
        if self.retains {
            slot.context = Some(Box::new(ctx.clone()));
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
    /// instance's version becomes its version, and it becomes the context
    /// the instance's slot retains as it is, where the store retains one
    /// (an instance whose bias is empty shares its deployment).
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
    /// surfaces. Callers with nothing to journal pass `|_| Ok(())`. The
    /// stamp says what `state` offers on `target`; it is built before the
    /// guard is taken, from what the caller hands in.
    pub fn install(
        &self,
        id: InstanceId,
        expected: Option<u64>,
        bias: Delta,
        target: Execution,
        state: InstanceState,
        journal: impl FnOnce(&StoredInstance) -> Result<(), StorageError>,
    ) -> Result<bool, StorageError> {
        let retains = self.retains && !bias.is_empty();
        let version = target.schema.version;
        let offer = Offer::of(id, &target, &state);
        let mut shard = self.shard(id).write();
        let Some(slot) = shard.instances.get_mut(&id) else {
            return Ok(false);
        };
        let inst = &slot.inst;
        if expected.is_some_and(|expected| !inst.is_at(expected)) {
            return Ok(false);
        }
        let candidate = StoredInstance {
            id,
            type_name: inst.type_name.clone(),
            version,
            rev: inst.rev + 1,
            bias,
            state,
        };
        journal(&candidate)?;
        slot.put(candidate);
        slot.context = retains.then(|| Box::new(target));
        self.stamp(id, Change::Resident(Some(offer)));
        Ok(true)
    }

    /// Current access statistics (a relaxed snapshot of the atomic
    /// counters).
    pub fn stats(&self) -> AccessStats {
        self.stats.snapshot()
    }

    /// Byte-level memory accounting across all instances (Fig. 2),
    /// composed shard by shard. The change order — a key per id, a stamp a
    /// table handle and a few slots beside it — is the same under either
    /// representation and no part of the comparison.
    pub fn memory(&self, repo: &SchemaRepository) -> MemoryBreakdown {
        let mut mb = MemoryBreakdown {
            schema_bytes: repo.schema_bytes(),
            ..Default::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.read();
            for slot in shard.instances.values() {
                mb.state_bytes += slot.inst.state.approx_size();
                mb.bias_bytes += slot.inst.bias.approx_size();
                if let Some(ctx) = &slot.context {
                    mb.cache_bytes += ctx.approx_size();
                }
            }
        }
        mb
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

    fn setup(representation: Representation) -> (SchemaRepository, InstanceStore, String) {
        let mut b = SchemaBuilder::new("t");
        b.activity("a");
        b.activity("b");
        b.activity("c");
        let schema = b.build().unwrap();
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(representation);
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
    /// bias, context slot empty.
    fn make_biased_restored(
        repo: &SchemaRepository,
        store: &InstanceStore,
        name: &str,
    ) -> (InstanceId, ProcessSchema) {
        let (id, materialized) = make_biased(repo, store, name);
        store.insert_restored(store.get(id).unwrap());
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
            let installed = store.commit_state(id, stale, &target, moved_on.clone(), |_| {
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

        // A state install whose journal fails installs, advances and stamps
        // nothing; one it journals is handed the new state and does all three.
        let epoch = store.epoch();
        let next = after.state.clone();
        let failed = store.commit_state(id, after.rev, &target, next.clone(), |_| {
            Err(StorageError::corrupt("injected"))
        });
        assert!(failed.is_err());
        assert_eq!(
            (store.get(id).unwrap().rev, store.epoch()),
            (after.rev, epoch)
        );
        let installed = store.commit_state(id, after.rev, &target, next, |new| {
            assert_eq!(new, &after.state);
            Ok(())
        });
        assert_eq!(installed, Ok(true));
        assert_eq!(store.get(id).unwrap().rev, after.rev + 1);
        assert!(store.epoch() > epoch);
    }

    /// Built once, never stale: an install keeps the analysed target it is
    /// handed — the very `Arc`s — where the store retains one, and an
    /// instance whose bias emptied runs on its deployment's again.
    #[test]
    fn installs_keep_the_context_they_are_handed() {
        fn same(a: &Execution, b: &Execution) -> bool {
            Arc::ptr_eq(&a.schema, &b.schema)
                && Arc::ptr_eq(&a.blocks, &b.blocks)
                && Arc::ptr_eq(&a.arena, &b.arena)
        }
        for representation in [Representation::Hybrid, Representation::RedundantFree] {
            let (repo, store, name) = setup(representation);
            let dep = repo.deployed(&name, 1).unwrap();
            let (id, materialized) = make_biased(&repo, &store, &name);
            let StoredInstance { state, bias, .. } = store.get(id).unwrap();
            let target = Execution::new(materialized).unwrap();
            let retains = representation == Representation::Hybrid;

            let handed = target.clone();
            let installed = store.install(id, None, bias, handed, state.clone(), |_| Ok(()));
            assert_eq!(installed, Ok(true));
            let kept = store.with_context(&repo, id, |_, ctx| same(ctx, &target));
            assert_eq!(kept, Ok(retains), "{representation:?}");
            assert_eq!(store.stats().materializations, u64::from(!retains));

            let installed = store.install(id, None, Delta::new(), target, state, |_| Ok(()));
            assert_eq!(installed, Ok(true));
            let mem = store.memory(&repo);
            assert_eq!(mem.cache_bytes, 0, "{representation:?}");
            let shared = store.with_context(&repo, id, |_, ctx| same(ctx, &dep));
            assert_eq!(shared, Ok(true), "{representation:?}");
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
        store.scan(&repo, 1, |offer| {
            names.extend(offer.items().map(|w| w.activity.to_string()))
        });
        assert_eq!(names, ["a"]);
        assert_eq!(store.stats().materializations, 3, "served off the stamp");
    }

    #[test]
    fn a_retained_context_is_charged_as_the_whole_analysed_schema() {
        let (repo, store, name) = setup(Representation::Hybrid);
        let (id, materialized) = make_biased(&repo, &store, &name);
        let analysed = Execution::new(materialized.clone()).unwrap();
        let mem = store.memory(&repo);
        let parts = analysed.schema.approx_size() + analysed.arena.approx_size();
        assert!(mem.cache_bytes >= parts, "{} < {parts}", mem.cache_bytes);
        assert_eq!(
            mem.cache_bytes,
            store
                .with_context(&repo, id, |_, ctx| ctx.approx_size())
                .unwrap()
        );
        let dep = repo.deployed(&name, 1).unwrap();
        assert_eq!(mem.schema_bytes, dep.approx_size());
        assert!(mem.schema_bytes >= dep.schema.approx_size() + dep.arena.approx_size());
    }

    #[test]
    fn a_bias_is_far_smaller_than_its_retained_context() {
        // A bias is far below the analysed schema it replays to. The
        // advantage appears for realistically sized schemas (the fixed
        // overhead of a block can exceed a 5-node toy schema), so build a
        // 40-activity process.
        let mut b = SchemaBuilder::new("large");
        b.activity("a");
        b.activity("b");
        for i in 0..40 {
            b.activity(&format!("step {i}"));
        }
        let repo = SchemaRepository::new();
        let name = repo.deploy(b.build().unwrap()).unwrap();
        let store = InstanceStore::new(Representation::Hybrid);
        make_biased(&repo, &store, &name);
        let mem = store.memory(&repo);
        assert!(
            mem.bias_bytes < mem.cache_bytes / 2,
            "a bias ({}) must be far smaller than its context ({})",
            mem.bias_bytes,
            mem.cache_bytes
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
        let ids = |held: Vec<Arc<StoredInstance>>| held.iter().map(|i| i.id).collect::<Vec<_>>();
        assert_eq!(ids(store.shared(|_| true)), created);
        let odd = ids(store.shared(|i| i.id.0 % 2 == 1));
        assert_eq!(odd.len(), 50);
        assert!(odd.windows(2).all(|w| w[0] < w[1]));
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

    /// Every writer that holds a context stamps what the instance offers —
    /// a change's install included, under either representation — so that
    /// every read of them, a bootstrap included, is served off the change
    /// order: no context is looked up, let alone built.
    #[test]
    fn a_scan_of_stamped_writes_reads_no_instance() {
        for representation in [Representation::Hybrid, Representation::RedundantFree] {
            let (repo, store, name) = setup(representation);
            let dep = repo.deployed(&name, 1).unwrap();
            let (biased, _) = make_biased(&repo, &store, &name);
            let plain = store.create(&name, 1, dep.init().unwrap());
            let a = dep.schema.node_by_name("a").unwrap().id;
            store
                .update_with_context(&repo, plain, |inst, ctx| {
                    ctx.start_activity(&mut inst.state, a).unwrap();
                    ((), true)
                })
                .unwrap();
            // `plain` was created without a context: its stamp was moved on
            // by the command, which had one.
            let before = store.stats();
            let mut offers = Vec::new();
            store.scan(&repo, 0, |offer| {
                offers.push((offer.instance(), offer.items().map(|w| w.node).collect()))
            });
            offers.sort_unstable();
            assert_eq!(store.stats(), before, "{representation:?}");
            let state = |id| store.get(id).unwrap().state;
            let on_bias = store.with_context(&repo, biased, |i, ctx| ctx.enabled(&i.state));
            let expected = vec![
                (biased, on_bias.unwrap()),
                (plain, dep.enabled(&state(plain))),
            ];
            assert_eq!(offers, expected, "{representation:?}");
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
                let removed = changes.gone.contains(&(*epoch, *id));
                match removed {
                    true if bootstrap => {}
                    true if *epoch > since => gone.push(*id),
                    true => {}
                    false if bootstrap || *epoch > since => changed.push(*id),
                    false => {}
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
                let scan = store.scan(&repo, since, |o| {
                    offers.push((o.instance(), o.items().map(|w| w.node).collect::<Vec<_>>()))
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
                    let mut keys: Vec<_> = changes.order.keys().chain(&changes.gone).copied().collect();
                    keys.sort_unstable_by_key(|(_, id)| *id);
                    prop_assert_eq!(keys, keyed);
                    // What a bootstrap reads is the residents, however many
                    // ids were removed.
                    let mut resident: Vec<_> = changes.order.keys().map(|(_, id)| *id).collect();
                    resident.sort_unstable();
                    prop_assert_eq!(resident, held);
                }
            }
        }
    }
}
