//! The change order and the one read of it: what the instances offer, and
//! what changed since a cursor.
//!
//! Every critical section that replaces an instance's `state`, `version`
//! or `bias` — [`InstanceStore::insert_on`], [`InstanceStore::insert_new`],
//! [`InstanceStore::insert_restored`], [`InstanceStore::update`],
//! [`InstanceStore::update_with_context`], [`InstanceStore::commit_state`],
//! [`InstanceStore::install`], [`InstanceStore::remove`] — **stamps** the
//! instance before it releases the shard guard (a closure of
//! `update_with_context` that changed nothing stamps nothing): it draws a
//! *change epoch* from one atomic counter and moves the id's key there in
//! the **change order**, a sharded `(epoch, id)` map beside the instances
//! holding exactly one key per resident instance — and, in a set of its
//! own that only an incremental read looks at, one per removed id, so a
//! bootstrap costs the residents however many ids came and went. A
//! compare-and-set that lost installs nothing and stamps nothing. A read
//! stamps nothing either, also one that fills an empty context slot on the
//! way. A redeploy, which replaces a type's chain under its instances,
//! restamps them ([`InstanceStore::restamp_type`]). The epoch is not
//! persisted.
//!
//! # The stamp is the worklist
//!
//! A writer that holds the context of the state it wrote — a create, a
//! segment of discrete commands, a drive, the install of a change, an undo
//! or a migration hop — stamps the [`Offer`] of that state on it: a handle
//! to the names table of the context ([`adept_state::Names`]) and the table
//! slots of the enabled activities. So the change order holds, per resident
//! instance, what it offers as of its last write. A writer without a
//! context (a restore, a direct [`InstanceStore::update`] or
//! [`InstanceStore::insert_new`]) stamps that it changed, not what it
//! offers, and a read goes to the instance for those.
//!
//! [`InstanceStore::scan`] is the one read: it range-reads each shard's
//! change order past the caller's cursor — from the first key for a
//! bootstrap, which is every resident instance — one guard at a time, and
//! is complete through the counter as read before the first guard. There
//! is no set of pending stamps to hold that bound back: a stamp is drawn
//! and keyed inside *one* critical section of its change-order shard,
//! itself inside the critical section that makes the change visible, so
//! none is ever in flight between two.
//!
//! The change order has its own lock class (`store.changes-shard`, taken
//! inside `store.shard` for the length of one keyed insert) because of who
//! reads it: a command holds its instance's shard guard across the journal
//! append, most of its duration, and a reader that had to wait for that
//! guard would wait on a lock whose holder may not even be running. A read
//! of stamped offers touches neither the instance, nor its schema, nor the
//! repository, nor any heap block a command's core has just written.

use super::{ContextError, InstanceStore, Slot};
use crate::repo::SchemaRepository;
use adept_model::InstanceId;
use adept_state::{Execution, Offer};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::{self, Unbounded};
use std::sync::atomic::Ordering;

/// What the change order holds under a resident id's key.
#[derive(Debug)]
pub(super) enum Change {
    /// The instance was inserted or replaced, or its state written; with
    /// what it offers since, where the writer had its context at hand
    /// (`None`: ask the instance).
    Resident(Option<Offer>),
    /// As `Resident(None)`, and a [`InstanceStore::scan`] has found (and
    /// reported) that no schema resolves for the instance as stamped.
    Unresolvable,
}

/// One shard's ids in change order: exactly one `(epoch, id)` key per id
/// the shard holds or has held, moved by every stamp of the id — in
/// `order` while the id is resident, in `gone` once it is removed.
#[derive(Debug, Default)]
pub(super) struct ChangeOrder {
    /// The epoch each id is keyed at.
    pub(super) stamps: BTreeMap<InstanceId, u64>,
    /// The resident ids: what a bootstrap reads, so that it costs the
    /// residents, not every id the shard ever held.
    pub(super) order: BTreeMap<(u64, InstanceId), Change>,
    /// The removed ids, read by incremental scans only. Never pruned: a
    /// cursor of any age must learn of a removal past it.
    pub(super) gone: BTreeSet<(u64, InstanceId)>,
    /// The highest key's epoch, where a scan sees without a seek that the
    /// shard holds nothing past its cursor.
    latest: u64,
}

impl ChangeOrder {
    /// Keys a resident id at `epoch`.
    fn put(&mut self, id: InstanceId, epoch: u64, change: Change) {
        self.rekey(id, epoch);
        self.order.insert((epoch, id), change);
    }

    /// Keys a removed id at `epoch`.
    fn put_gone(&mut self, id: InstanceId, epoch: u64) {
        self.rekey(id, epoch);
        self.gone.insert((epoch, id));
    }

    /// Drops the id's old key, wherever it is, and records `epoch` as its
    /// new one.
    fn rekey(&mut self, id: InstanceId, epoch: u64) {
        if let Some(old) = self.stamps.insert(id, epoch) {
            if self.order.remove(&(old, id)).is_none() {
                self.gone.remove(&(old, id));
            }
        }
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

impl InstanceStore {
    /// Stamps a change of `id`: draws the next change epoch and keys the id
    /// there, both inside one critical section of the id's change-order
    /// shard — which is what lets a scan trust the counter it read before
    /// its first guard. Called with the instance's shard write guard held,
    /// by the critical section that makes the change visible, so stamps
    /// order like the changes they stamp.
    pub(super) fn stamp(&self, id: InstanceId, change: Change) {
        let mut changes = self.changes.for_id(id).write();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        changes.put(id, epoch, change);
    }

    /// [`InstanceStore::stamp`] for the removal of `id`.
    pub(super) fn stamp_gone(&self, id: InstanceId) {
        let mut changes = self.changes.for_id(id).write();
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        changes.put_gone(id, epoch);
    }

    /// Stamps every resident instance of `type_name` as changed, without
    /// saying what it offers — for a redeploy, which replaces the type's
    /// chain under instances it writes none of: their stamps named what
    /// they offered on the replaced chain, so a read goes back to each
    /// (and finds one whose version the new chain lacks unresolvable).
    /// Advances no revision: no instance changed. A shard's residents are
    /// stamped under its guard, so a write that resolves its context under
    /// that guard stamps wholly before or after them.
    pub fn restamp_type(&self, type_name: &str) {
        for shard in self.shards.iter() {
            let shard = shard.read();
            for &id in shard.by_type.get(type_name).into_iter().flatten() {
                self.stamp(id, Change::Resident(None));
            }
        }
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
    /// [`InstanceStore::restart_epochs`] can have returned. Either way the
    /// scan range-reads the change order past its cursor (a bootstrap's is
    /// the first key; an incremental scan costs what changed, not what
    /// exists) and hands the visitor the offer a stamp holds in place, under
    /// the change-order guard: no lock, allocation or reference count is
    /// touched per entry.
    ///
    /// Where a stamp does not say what the instance offers, the instance is
    /// read after that guard is released, under its shard's read guard
    /// (taken once for all such instances of the shard),
    /// where its context is only *looked up*: the retained slot of a biased
    /// instance, the deployment of an unbiased one, resolved once per run
    /// of `(type, version)`. One whose slot is empty is read under the write
    /// guard that fills it; so is one no schema resolves for, which is
    /// visited as offering nothing ([`Offer::nothing`]) and lands in
    /// [`Scan::unresolvable`]. Nothing a scan does stamps anything.
    pub fn scan(&self, repo: &SchemaRepository, since: u64, visit: impl FnMut(&Offer)) -> Scan {
        let now = self.epoch.load(Ordering::Relaxed);
        let past = since
            .checked_add(self.epoch_base)
            .filter(|past| since > 0 && *past <= now);
        let bootstrap = past.is_none();
        let past = past.unwrap_or(0);
        let newer = (Bound::Excluded((past, InstanceId(u64::MAX))), Unbounded);
        let mut walk = Walk {
            store: self,
            repo,
            visit,
            run: None,
            hits: (0, 0),
            unresolvable: Vec::new(),
        };
        let mut gone = Vec::new();
        let mut later = Vec::new();
        // A change-order shard keys the ids of the instance shard of the
        // same index.
        for (changes, shard) in self.changes.iter().zip(self.shards.iter()) {
            {
                let changes = changes.read();
                if changes.latest <= past {
                    continue;
                }
                for (&(_, id), change) in changes.order.range(newer) {
                    match change {
                        Change::Resident(Some(offer)) => (walk.visit)(offer),
                        Change::Resident(None) | Change::Unresolvable => later.push(id),
                    }
                }
                if !bootstrap {
                    gone.extend(changes.gone.range(newer).map(|&(_, id)| id));
                }
            }
            if later.is_empty() {
                continue;
            }
            // In id order, as the shard keeps them.
            later.sort_unstable();
            {
                let shard = shard.read();
                later.retain(|id| {
                    let slot = shard.instances.get(id);
                    !slot.is_some_and(|slot| walk.look_up(slot))
                });
            }
            for id in later.drain(..) {
                walk.fill_or_flag(id);
            }
        }
        let (shared, retained) = walk.hits;
        self.stats.shared_hits.fetch_add(shared, Ordering::Relaxed);
        self.stats.cache_hits.fetch_add(retained, Ordering::Relaxed);
        let mut unresolvable = walk.unresolvable;
        gone.sort_unstable();
        unresolvable.sort_unstable_by_key(|u| u.id);
        Scan {
            epoch: now - self.epoch_base,
            gone,
            unresolvable,
        }
    }
}

/// One [`InstanceStore::scan`] reading the instances whose stamps do not
/// say what they offer.
struct Walk<'a, V> {
    store: &'a InstanceStore,
    repo: &'a SchemaRepository,
    visit: V,
    /// The deployment of the current run of unbiased instances, and the
    /// version it is deployed as.
    run: Option<(u32, Execution)>,
    /// Contexts looked up: deployments, retained slots.
    hits: (u64, u64),
    unresolvable: Vec<Unresolvable>,
}

impl<V: FnMut(&Offer)> Walk<'_, V> {
    /// Visits an instance under its shard's read guard, if its context is
    /// there to be looked up. `false`: come back with the write guard.
    fn look_up(&mut self, slot: &Slot) -> bool {
        let inst = &slot.inst;
        let ctx = if inst.is_biased() {
            self.hits.1 += u64::from(slot.context.is_some());
            slot.context.as_deref()
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
        (self.visit)(&Offer::of(inst.id, ctx, &inst.state));
        true
    }

    /// Visits an instance under its shard's write guard, filling its
    /// context slot if that is empty; one no schema resolves for offers
    /// nothing, and is listed and flagged where it is keyed.
    fn fill_or_flag(&mut self, id: InstanceId) {
        let mut shard = self.store.shard(id).write();
        // Removed in between: stamped past the scan's bound, the next one's.
        let Some(slot) = shard.instances.get_mut(&id) else {
            return;
        };
        match self.store.context_or_build(self.repo, slot) {
            Ok(ctx) => (self.visit)(&Offer::of(id, &ctx, &slot.inst.state)),
            Err(error) => {
                (self.visit)(&Offer::nothing(id));
                let first = self.store.changes.for_id(id).write().flag_unresolvable(id);
                self.unresolvable.push(Unresolvable { id, error, first });
            }
        }
    }
}
