//! Work items and the incremental worklist index: the user-facing side of
//! the engine.
//!
//! Activated activities are offered as work items; actors claim them by
//! role. This is the minimal faithful model of ADEPT2's worklist
//! management (the demo system distributed these via client components).
//!
//! The `WorklistIndex` keeps a per-instance snapshot of offered items,
//! maintained by command outcomes and invalidated by change-transaction
//! commits, migrations and undos — so serving the global worklist is an
//! index walk instead of an O(instances × nodes) recompute — and keeps
//! those snapshots in epoch order, so serving a [`WorklistDelta`] is a
//! range read past the consumer's cursor instead of a scan of the
//! population.

use adept_model::{InstanceId, NodeId, ProcessSchema};
use adept_storage::ordered::{classes, OrderedRwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// One offered unit of work: an activated activity of some instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// The instance the work belongs to.
    pub instance: InstanceId,
    /// The activity node.
    pub node: NodeId,
    /// Activity name.
    pub activity: String,
    /// Staff assignment rule (role), if any.
    pub role: Option<String>,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance currently runs on.
    pub version: u32,
}

impl WorkItem {
    /// Whether an actor with the given role may claim this item. Items
    /// without a role are claimable by anyone.
    pub fn claimable_by(&self, role: &str) -> bool {
        self.role.as_deref().is_none_or(|r| r == role)
    }
}

impl fmt::Display for WorkItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} v{}] {} \"{}\"",
            self.instance, self.version, self.node, self.activity
        )?;
        if let Some(r) = &self.role {
            write!(f, " (role: {r})")?;
        }
        Ok(())
    }
}

/// The work items an instance currently offers: its enabled activities
/// (as computed by whichever execution path the caller ran — compiled or
/// interpreted, both produce the same id-ordered set), annotated with
/// name, role and version for claiming.
pub(crate) fn items_for(
    schema: &ProcessSchema,
    enabled: &[NodeId],
    instance: InstanceId,
    type_name: &str,
    version: u32,
) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for &node in enabled {
        let Ok(n) = schema.node(node) else {
            continue;
        };
        items.push(WorkItem {
            instance,
            node,
            activity: n.name.clone(),
            role: n.attrs.role.clone(),
            type_name: type_name.to_string(),
            version,
        });
    }
    items
}

/// The incrementally maintained enabled-set index.
///
/// One **slot** per instance the index has seen: either a live entry —
/// the instance's current work items and the **epoch** of the install —
/// or the **tombstone watermark** an invalidation left (the epoch at
/// invalidation time). Epochs for command installs are drawn while the
/// instance's store shard lock is held, so they order exactly like store
/// commits; lazy recomputes (worklist reads that miss the index) use the
/// epoch observed *before* reading, which makes a racing command's newer
/// install always win. A tombstone means "recompute on next read" — that
/// is the invalidation signal change commits, migrations and undos send —
/// and an install stamped strictly below a slot's epoch is dropped, so an
/// in-flight recompute or command that read the *pre-change* state cannot
/// resurrect stale items afterwards.
///
/// **Epoch order.** Every slot has exactly one current epoch, so each
/// shard also keeps its slots as an ordered set of `(epoch, id)` keys,
/// moved by the same two writers that move the slot. An incremental
/// delta ([`WorklistIndex::delta`] with `since > 0`) is a range read of
/// that set — it costs what changed, not what exists — and needs no
/// capacity, eviction or resync: the set is exact by construction.
///
/// **The bound.** Readers walk the shards **one guard at a time** (the
/// one-shard-per-table rule of `docs/LOCK_ORDER.md` has no exception), so
/// a delta is not a frozen snapshot. It is instead complete *through* a
/// bound: the epoch counter is read before the first guard, and lowered
/// to `lowest pending − 1` for every install still in flight under a
/// visited shard. Every epoch at or below the bound was drawn — under its
/// shard's write lock — before the walk began, so by the time the walk
/// holds that shard's guard the draw is visible as a pending
/// registration, as the slot it installed, or as a newer slot that beat
/// it. Slots above the bound may or may not be reported; the next poll
/// reads them again (a delta entry replaces, so repeats are harmless).
///
/// Like the store, the index is sharded by [`InstanceId::hash64`]: every
/// command installs into the index, so one global slot lock would
/// re-serialise the sharded store's write path. The epoch counter is a
/// single atomic (cheap, contention-free); only the slot maps are
/// sharded, and no thread — reader or writer — ever holds two of them.
#[derive(Debug)]
pub(crate) struct WorklistIndex {
    epoch: AtomicU64,
    shards: adept_storage::Shards<IndexState>,
}

impl Default for WorklistIndex {
    fn default() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            shards: adept_storage::Shards::new(
                &classes::WORKLIST_INDEX,
                adept_storage::DEFAULT_SHARD_COUNT,
            ),
        }
    }
}

/// An epoch-stamped delta of the worklist since a consumer's last poll —
/// what [`crate::ProcessEngine::worklist_delta`] returns.
///
/// Replaying deltas from epoch 0 reconstructs exactly the full worklist:
/// each `added` entry is the instance's complete current item set
/// (replace, don't merge), and each `invalidated` id has no offered items
/// any more (drop it). Pass `epoch` as the next poll's `since` — to the
/// engine that issued it: epochs restart with the engine, so a cursor is
/// meaningless to any other (a recovered one included).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorklistDelta {
    /// Instances whose item set changed since `since`, with their full
    /// current item sets (empty set = instance offers nothing right
    /// now). Sorted by instance id.
    pub added: Vec<(InstanceId, Vec<WorkItem>)>,
    /// Instances invalidated (removed, or changed with no live entry)
    /// since `since`. Sorted by instance id.
    pub invalidated: Vec<InstanceId>,
    /// The epoch this delta is current through — the next `since`.
    pub epoch: u64,
}

/// Raw index-side delta: the slots past `since`. Tombstoned ids still
/// need resolving against the store (resident → recompute, gone →
/// invalidated) before the delta is complete — after the index guards
/// are released, since the store ranks below the index.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct IndexDelta {
    /// Epoch the walk is complete through (see [`WorklistIndex`], "The
    /// bound").
    pub epoch: u64,
    /// Live entries installed after `since` (full item sets), by id.
    pub updated: Vec<(InstanceId, Vec<WorkItem>)>,
    /// Ids invalidated after `since` with no install since, by id.
    pub tombstoned: Vec<InstanceId>,
}

#[derive(Debug, Default)]
struct IndexState {
    slots: BTreeMap<InstanceId, Slot>,
    /// The slots in epoch order: exactly one `(slot.epoch, id)` key per
    /// slot, kept in step by [`IndexState::put`].
    order: BTreeSet<(u64, InstanceId)>,
    /// Epochs drawn by [`WorklistIndex::begin_install`] whose install
    /// has not landed yet. A delta must not report completeness past the
    /// lowest pending epoch, or the in-flight install would be lost to
    /// every cursor forever.
    pending: BTreeSet<u64>,
}

#[derive(Debug)]
struct Slot {
    /// Install epoch of a live entry, watermark of a tombstone.
    epoch: u64,
    /// `None` = tombstone: invalidated, recompute on the next read.
    items: Option<Vec<WorkItem>>,
}

impl IndexState {
    /// Replaces the slot of `id` and moves its key in the epoch order.
    fn put(&mut self, id: InstanceId, epoch: u64, items: Option<Vec<WorkItem>>) {
        if let Some(old) = self.slots.insert(id, Slot { epoch, items }) {
            self.order.remove(&(old.epoch, id));
        }
        self.order.insert((epoch, id));
    }

    /// The live items of `id`, if its slot is an entry.
    fn live(&self, id: InstanceId) -> Option<&Vec<WorkItem>> {
        self.slots.get(&id).and_then(|s| s.items.as_ref())
    }
}

impl WorklistIndex {
    #[inline]
    fn shard(&self, id: InstanceId) -> &OrderedRwLock<IndexState> {
        self.shards.for_id(id)
    }

    /// Draws the next epoch (no pending registration — internal; see
    /// [`WorklistIndex::begin_install`]).
    fn bump(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The epoch a lazy (read-side) recompute must stamp its install with
    /// — observed **before** reading the instance state.
    ///
    /// `Relaxed` suffices, also for the delta bound: every draw happens
    /// under a shard write lock, and a reader that observed the drawn
    /// value before taking that shard's guard cannot have taken the guard
    /// before the writer did (the draw would then be ordered after the
    /// load), so the lock hand-over publishes whatever the draw guards.
    pub fn current(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Draws the next install epoch *and registers it pending* so a delta
    /// can't declare completeness past it before the matching
    /// [`WorklistIndex::finish_install`] lands. Call while holding the
    /// instance's store shard write lock so epoch order equals commit
    /// order; the epoch is drawn under the *index* shard write lock, so a
    /// delta whose bound covers it finds the registration (or the landed
    /// install) when it reaches this shard.
    pub fn begin_install(&self, id: InstanceId) -> u64 {
        let mut state = self.shard(id).write();
        let epoch = self.bump();
        state.pending.insert(epoch);
        epoch
    }

    /// Lands an install begun with [`WorklistIndex::begin_install`]:
    /// clears the pending registration and installs the items unless a
    /// newer install already landed or an invalidation watermark says
    /// the items were computed from pre-invalidation state.
    pub fn finish_install(&self, id: InstanceId, epoch: u64, items: Vec<WorkItem>) {
        let mut state = self.shard(id).write();
        state.pending.remove(&epoch);
        Self::install_locked(&mut state, id, epoch, items);
    }

    /// Installs items from a **lazy** (read-side) recompute, stamped
    /// with a previously observed [`WorklistIndex::current`]. Unlike
    /// [`WorklistIndex::finish_install`] this never touches the pending
    /// set: a lazy stamp can numerically equal a command's in-flight
    /// epoch, and must not deregister it.
    pub fn install_lazy(&self, id: InstanceId, epoch: u64, items: Vec<WorkItem>) {
        let mut state = self.shard(id).write();
        Self::install_locked(&mut state, id, epoch, items);
    }

    fn install_locked(state: &mut IndexState, id: InstanceId, epoch: u64, items: Vec<WorkItem>) {
        // Strictly below the slot's epoch = older than the entry that
        // landed, or computed from pre-invalidation state. An epoch equal
        // to a watermark is fine: it was observed after the invalidation
        // bump, hence after the change installed.
        if state.slots.get(&id).is_some_and(|s| s.epoch > epoch) {
            return;
        }
        state.put(id, epoch, Some(items));
    }

    /// Replaces an instance's slot with a tombstone so concurrent
    /// installs computed from the pre-invalidation state are rejected.
    /// The entry is recomputed on the next worklist read. The watermark
    /// is drawn *inside* the shard write lock, together with the slot
    /// change — an invalidation is never pending, so it can never fall
    /// into a cursor gap.
    ///
    /// This is also the **removal** path: a removed instance's watermark
    /// must stay behind, or an in-flight recompute that read the instance
    /// before the removal could re-install an entry that nothing would
    /// ever clear again (the id no longer appears in `store.ids()`, so no
    /// later invalidation fires). The watermark is a few bytes per
    /// removed id; a resurrected entry would hold a whole item vector.
    pub fn invalidate(&self, id: InstanceId) {
        let mut state = self.shard(id).write();
        let watermark = self.bump();
        state.put(id, watermark, None);
    }

    /// The indexed items of an instance, if the entry is live.
    #[cfg(test)]
    pub fn get(&self, id: InstanceId) -> Option<Vec<WorkItem>> {
        self.shard(id).read().live(id).cloned()
    }

    /// Appends to `out`, in `ids` order (ascending, as the store lists
    /// them), the indexed items of every id that `keep` accepts, and to
    /// `misses` the ids without a live entry — one lock acquisition **per
    /// shard** for the whole population instead of one per instance, and
    /// one guard at a time: each id is answered from its own shard's
    /// state at the time that shard was visited, which is all a worklist
    /// read promises.
    pub fn collect(
        &self,
        ids: &[InstanceId],
        keep: impl Fn(&WorkItem) -> bool,
        out: &mut Vec<WorkItem>,
        misses: &mut Vec<InstanceId>,
    ) {
        debug_assert!(ids.windows(2).all(|pair| pair[0] < pair[1]));
        // Per shard, under its guard: the kept items of every live entry,
        // flat and in id order, and how many each entry contributed.
        let mut staged = Vec::with_capacity(self.shards.count());
        for shard in self.shards.iter() {
            let state = shard.read();
            let mut runs = Vec::with_capacity(state.slots.len());
            let mut items = Vec::with_capacity(state.slots.len());
            for (id, slot) in &state.slots {
                if let Some(live) = &slot.items {
                    let before = items.len();
                    items.extend(live.iter().filter(|w| keep(w)).cloned());
                    runs.push((*id, items.len() - before));
                }
            }
            staged.push((runs.into_iter().peekable(), items.into_iter()));
        }
        // Both sides ascend, so each shard's runs are consumed front to
        // back; entries of ids the store does not list are passed over.
        out.reserve(staged.iter().map(|(_, items)| items.len()).sum());
        for id in ids {
            let (runs, items) = &mut staged[self.shards.index_of(*id)];
            while let Some((_, n)) = runs.next_if(|(run, _)| run < id) {
                items.by_ref().take(n).for_each(drop);
            }
            match runs.next_if(|(run, _)| run == id) {
                Some((_, n)) => out.extend(items.by_ref().take(n)),
                None => misses.push(*id),
            }
        }
    }

    /// Every slot that changed after `since`, read off the epoch order
    /// one shard guard at a time and complete through the returned
    /// epoch (see [`WorklistIndex`], "The bound").
    ///
    /// `since == 0` is the bootstrap: *every* slot is reported, including
    /// the epoch-0 entries lazy installs stamp before the first draw.
    pub fn delta(&self, since: u64) -> IndexDelta {
        let mut out = IndexDelta {
            epoch: self.current(),
            ..IndexDelta::default()
        };
        let from = match since {
            0 => Bound::Unbounded,
            _ => Bound::Excluded((since, InstanceId(u64::MAX))),
        };
        for shard in self.shards.iter() {
            let state = shard.read();
            if let Some(pending) = state.pending.first() {
                out.epoch = out.epoch.min(pending - 1);
            }
            for &(_, id) in state.order.range((from, Bound::Unbounded)) {
                match state.live(id) {
                    Some(items) => out.updated.push((id, items.clone())),
                    None => out.tombstoned.push(id),
                }
            }
        }
        out.updated.sort_by_key(|(id, _)| *id);
        out.tombstoned.sort();
        out
    }

    /// Number of live entries (diagnostics).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .slots
                    .values()
                    .filter(|s| s.items.is_some())
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn item(role: Option<&str>) -> WorkItem {
        WorkItem {
            instance: InstanceId(1),
            node: NodeId(2),
            activity: "confirm order".into(),
            role: role.map(str::to_string),
            type_name: "order".into(),
            version: 1,
        }
    }

    #[test]
    fn role_claims() {
        assert!(item(None).claimable_by("anyone"));
        assert!(item(Some("clerk")).claimable_by("clerk"));
        assert!(!item(Some("clerk")).claimable_by("physician"));
    }

    #[test]
    fn display() {
        let s = item(Some("clerk")).to_string();
        assert!(s.contains("confirm order"));
        assert!(s.contains("clerk"));
    }

    #[test]
    fn index_orders_installs_by_epoch() {
        let idx = WorklistIndex::default();
        let e1 = idx.begin_install(InstanceId(1));
        let e2 = idx.begin_install(InstanceId(1));
        idx.finish_install(InstanceId(1), e2, vec![item(None)]);
        // A stale install (older epoch) must not clobber the newer entry.
        idx.finish_install(InstanceId(1), e1, vec![]);
        assert_eq!(idx.get(InstanceId(1)).unwrap().len(), 1);
        idx.invalidate(InstanceId(1));
        assert!(idx.get(InstanceId(1)).is_none());
        assert_eq!(idx.len(), 0);
        // Lazy installs stamped with the pre-read epoch are accepted when
        // nothing newer landed.
        idx.install_lazy(InstanceId(2), idx.current(), vec![item(Some("clerk"))]);
        assert_eq!(idx.get(InstanceId(2)).unwrap().len(), 1);
    }

    #[test]
    fn invalidation_tombstones_reject_stale_installs() {
        let idx = WorklistIndex::default();
        // A reader observes the epoch, then a change invalidates.
        let stale_epoch = idx.current();
        idx.invalidate(InstanceId(1));
        // The reader's install was computed from pre-change state: dropped.
        idx.install_lazy(InstanceId(1), stale_epoch, vec![item(None)]);
        assert!(idx.get(InstanceId(1)).is_none());
        // A reader that starts after the invalidation is accepted (and
        // clears the tombstone for later, even older-epoch re-installs).
        idx.install_lazy(InstanceId(1), idx.current(), vec![item(Some("clerk"))]);
        assert_eq!(idx.get(InstanceId(1)).unwrap().len(), 1);
    }

    #[test]
    fn collect_serves_listed_ids_in_order_and_filters_while_walking() {
        let idx = WorklistIndex::default();
        let tagged = |n: u64, role| WorkItem {
            instance: InstanceId(n),
            ..item(role)
        };
        for n in [1, 2, 3, 5, 40, 41] {
            let items = vec![tagged(n, Some("clerk")), tagged(n, None)];
            idx.install_lazy(InstanceId(n), idx.current(), items);
        }
        idx.invalidate(InstanceId(40));
        // 1 and 3 are indexed but not listed (passed over), 4 was never
        // indexed and 40 is tombstoned (both misses).
        let ids = [2, 4, 5, 40, 41].map(InstanceId);
        let (mut out, mut misses) = (Vec::new(), Vec::new());
        idx.collect(&ids, |_| true, &mut out, &mut misses);
        let served: Vec<u64> = out.iter().map(|w| w.instance.0).collect();
        assert_eq!(served, [2, 2, 5, 5, 41, 41]);
        assert_eq!(misses, [4, 40].map(InstanceId));
        // The filter narrows what is cloned, not which ids count as found.
        let (mut out, mut misses) = (Vec::new(), Vec::new());
        idx.collect(&ids, |w| w.role.is_none(), &mut out, &mut misses);
        assert_eq!(out, [2, 5, 41].map(|n| tagged(n, None)));
        assert_eq!(misses, [4, 40].map(InstanceId));
    }

    #[test]
    fn delta_reports_updates_invalidations_and_misses() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let e = idx.begin_install(a);
        idx.finish_install(a, e, vec![item(None)]);
        // Bootstrap (since 0) returns every slot.
        let d0 = idx.delta(0);
        assert_eq!(d0.updated.len(), 1);
        assert_eq!(d0.updated[0].0, a);
        assert!(d0.tombstoned.is_empty());
        assert_eq!(d0.epoch, e);
        // Nothing since d0.epoch.
        let d1 = idx.delta(d0.epoch);
        assert!(d1.updated.is_empty() && d1.tombstoned.is_empty());
        // An invalidation moves the slot past the cursor as a tombstone:
        // the caller resolves it against the store (a miss to recompute,
        // or a removal to report).
        idx.invalidate(a);
        let d2 = idx.delta(d1.epoch);
        assert_eq!(d2.tombstoned, vec![a]);
        assert!(d2.updated.is_empty());
        // The recompute's install replaces the tombstone; a cursor that
        // has not passed it reads the entry, one that has reads nothing.
        idx.install_lazy(a, idx.current(), vec![item(Some("clerk"))]);
        let d3 = idx.delta(d1.epoch);
        assert_eq!(d3.updated.len(), 1);
        assert!(d3.tombstoned.is_empty());
        assert_eq!(
            idx.delta(d3.epoch),
            IndexDelta {
                epoch: d3.epoch,
                ..IndexDelta::default()
            }
        );
    }

    #[test]
    fn pending_installs_hold_back_the_delta_epoch() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let e1 = idx.begin_install(a);
        let e2 = idx.begin_install(a);
        idx.finish_install(a, e2, vec![item(None)]);
        // e1 is still in flight: completeness stops just below it, so the
        // install that *did* land (e2 > e1) will be re-read next poll
        // rather than lost behind a premature cursor.
        let d = idx.delta(0);
        assert_eq!(d.epoch, e1 - 1);
        // The late landing clears the pending epoch; its older items lose
        // to the newer install.
        idx.finish_install(a, e1, Vec::new());
        let d = idx.delta(0);
        assert_eq!(d.epoch, e2);
        // A lazy install stamped with current() must not deregister a
        // numerically equal pending command epoch.
        let e3 = idx.begin_install(a);
        assert_eq!(e3, idx.current());
        idx.install_lazy(a, idx.current(), vec![item(None)]);
        assert_eq!(idx.delta(0).epoch, e3 - 1);
        idx.finish_install(a, e3, vec![item(None)]);
        assert_eq!(idx.delta(0).epoch, e3);
    }

    /// The scan the epoch order replaced, kept as its oracle: filter every
    /// slot of every shard for `epoch > since`.
    fn delta_by_full_scan(idx: &WorklistIndex, since: u64) -> IndexDelta {
        let mut out = IndexDelta {
            epoch: idx.current(),
            ..IndexDelta::default()
        };
        for shard in idx.shards.iter() {
            let state = shard.read();
            if let Some(pending) = state.pending.first() {
                out.epoch = out.epoch.min(pending - 1);
            }
            for (id, slot) in &state.slots {
                if since == 0 || slot.epoch > since {
                    match &slot.items {
                        Some(items) => out.updated.push((*id, items.clone())),
                        None => out.tombstoned.push(*id),
                    }
                }
            }
        }
        out.updated.sort_by_key(|(id, _)| *id);
        out.tombstoned.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random interleavings of the four writers — command installs
        /// begun and landed in and out of order, lazy installs with fresh
        /// and stale stamps, invalidations — against random cursors: the
        /// range read agrees with the full scan, and the epoch order holds
        /// exactly one key per slot.
        #[test]
        fn range_read_matches_full_scan(seed in 0u64..1_000_000, steps in 1usize..80) {
            let idx = WorklistIndex::default();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut in_flight: Vec<(InstanceId, u64)> = Vec::new();
            let mut observed = vec![0u64];
            for step in 0..steps {
                let id = InstanceId(rng.gen_range(1..24u64));
                let items = vec![WorkItem { activity: format!("step {step}"), ..item(None) }];
                match rng.gen_range(0u8..6) {
                    0 | 1 => in_flight.push((id, idx.begin_install(id))),
                    2 if !in_flight.is_empty() => {
                        let (id, epoch) = in_flight.swap_remove(rng.gen_range(0..in_flight.len()));
                        idx.finish_install(id, epoch, items);
                    }
                    3 => {
                        let stamp = observed[rng.gen_range(0..observed.len())];
                        idx.install_lazy(id, stamp, items);
                    }
                    4 => idx.invalidate(id),
                    _ => observed.push(idx.current()),
                }
                let since = rng.gen_range(0..idx.current() + 3);
                prop_assert_eq!(idx.delta(since), delta_by_full_scan(&idx, since));
                for shard in idx.shards.iter() {
                    let state = shard.read();
                    let keys: BTreeSet<_> =
                        state.slots.iter().map(|(id, slot)| (slot.epoch, *id)).collect();
                    prop_assert_eq!(&state.order, &keys);
                }
            }
        }
    }
}
