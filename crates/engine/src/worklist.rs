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
//! index walk instead of an O(instances × nodes) recompute.

use adept_model::{InstanceId, NodeId, ProcessSchema};
use adept_storage::ordered::{classes, OrderedRwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
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
/// One entry per instance, carrying the instance's current work items and
/// the **epoch** of the install. Epochs for command installs are drawn
/// while the instance's store shard lock is held, so they order exactly
/// like store commits; lazy recomputes (worklist reads that miss the
/// index) use the epoch observed *before* reading, which makes a racing
/// command's newer install always win. An absent entry means "recompute
/// on next read" — that is the invalidation signal change commits,
/// migrations and undos send. Invalidation leaves a **tombstone
/// watermark** (the epoch at invalidation time), so an in-flight
/// recompute or command that read the *pre-change* state — its epoch
/// predates the watermark — cannot resurrect stale items afterwards.
///
/// Like the store, the index is sharded by [`InstanceId::hash64`]: every
/// command installs into the index, so one global entry lock would
/// re-serialise the sharded store's write path. The epoch counter is a
/// single atomic (cheap, contention-free); only the entry/tombstone maps
/// are sharded. [`WorklistIndex::collect`] briefly holds **all** shard
/// read locks at once to serve one coherent pass over the population —
/// readers don't block each other, and writers (one shard write each)
/// never hold a second index shard, so the order is acyclic.
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
/// any more (drop it). Pass `epoch` as the next poll's `since`.
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

/// Raw index-side delta: entries/tombstones past `since`, plus the ids
/// that need a read-side recompute before the delta is complete.
#[derive(Debug, Default)]
pub(crate) struct IndexDelta {
    /// Epoch the scan is complete through (min pending install − 1).
    pub epoch: u64,
    /// Live entries installed after `since` (full item sets).
    pub updated: Vec<(InstanceId, Vec<WorkItem>)>,
    /// Ids tombstoned after `since` that are no longer in the store.
    pub invalidated: Vec<InstanceId>,
    /// Store ids with no live entry — recompute these.
    pub misses: Vec<InstanceId>,
}

#[derive(Debug, Default)]
struct IndexState {
    entries: BTreeMap<InstanceId, IndexEntry>,
    /// Invalidation watermarks: installs stamped with an epoch at or
    /// below the watermark are rejected (their items predate the change
    /// that invalidated the entry). Cleared by the next accepted install.
    tombstones: BTreeMap<InstanceId, u64>,
    /// Epochs drawn by [`WorklistIndex::begin_install`] whose install
    /// has not landed yet. A delta scan must not report completeness
    /// past the lowest pending epoch, or the in-flight install would be
    /// lost to every cursor forever.
    pending: BTreeSet<u64>,
}

#[derive(Debug)]
struct IndexEntry {
    epoch: u64,
    items: Vec<WorkItem>,
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
    pub fn current(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Draws the next install epoch *and registers it pending* so a delta
    /// scan can't declare completeness past it before the matching
    /// [`WorklistIndex::finish_install`] lands. Call while holding the
    /// instance's store shard write lock so epoch order equals commit
    /// order; the epoch is drawn under the *index* shard write lock,
    /// which [`WorklistIndex::delta`] holds for reading — so a scan
    /// either sees the pending epoch or completes before it exists.
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
        // Strictly below the watermark = computed from pre-invalidation
        // state. An epoch equal to the watermark is fine: it was observed
        // after the invalidation bump, hence after the change installed.
        if state.tombstones.get(&id).is_some_and(|w| *w > epoch) {
            return;
        }
        match state.entries.get(&id) {
            Some(e) if e.epoch > epoch => {}
            _ => {
                state.tombstones.remove(&id);
                state.entries.insert(id, IndexEntry { epoch, items });
            }
        }
    }

    /// Drops an instance's entry and leaves a watermark so concurrent
    /// installs computed from the pre-invalidation state are rejected.
    /// The entry is recomputed on the next worklist read. The watermark
    /// is drawn *inside* the shard write lock, so a delta scan (which
    /// holds every shard read lock) either sees the tombstone or
    /// completes at an epoch below it — an invalidation can never fall
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
        state.entries.remove(&id);
        state.tombstones.insert(id, watermark);
    }

    /// The indexed items of an instance, if the entry is live.
    #[cfg(test)]
    pub fn get(&self, id: InstanceId) -> Option<Vec<WorkItem>> {
        self.shard(id)
            .read()
            .entries
            .get(&id)
            .map(|e| e.items.clone())
    }

    /// Collects the items of every indexed id into `out` and the ids
    /// without a live entry into `misses` — one lock acquisition **per
    /// shard** for the whole population instead of one per instance. All
    /// shard read guards are held together so the pass is coherent.
    pub fn collect(
        &self,
        ids: &[InstanceId],
        out: &mut Vec<WorkItem>,
        misses: &mut Vec<InstanceId>,
    ) {
        let guards = self.shards.read_all();
        for id in ids {
            match guards[self.shards.index_of(*id)].entries.get(id) {
                Some(e) => out.extend(e.items.iter().cloned()),
                None => misses.push(*id),
            }
        }
    }

    /// One coherent delta scan: everything that changed after `since`,
    /// plus the store ids (`ids`) that currently have no live entry and
    /// therefore need a read-side recompute before the delta is served.
    ///
    /// All shard read guards are held together, which blocks every
    /// epoch draw ([`WorklistIndex::begin_install`] and
    /// [`WorklistIndex::invalidate`] draw under a shard *write* lock) —
    /// so the set of epochs is frozen for the pass. The reported epoch
    /// is `min(pending) − 1` when installs are in flight (their results
    /// aren't visible yet; the next poll picks them up), otherwise the
    /// frozen counter value.
    ///
    /// `since == 0` is the bootstrap scan: *every* live entry is
    /// reported, including epoch-0 entries a restored engine stamps.
    pub fn delta(&self, since: u64, ids: &[InstanceId]) -> IndexDelta {
        let guards = self.shards.read_all();
        let epoch_now = self.current();
        let min_pending = guards
            .iter()
            .filter_map(|g| g.pending.iter().next().copied())
            .min();
        let epoch = match min_pending {
            Some(p) => p - 1,
            None => epoch_now,
        };
        let mut out = IndexDelta {
            epoch,
            ..IndexDelta::default()
        };
        let live: BTreeSet<InstanceId> = ids.iter().copied().collect();
        for g in &guards {
            for (id, e) in &g.entries {
                if since == 0 || e.epoch > since {
                    out.updated.push((*id, e.items.clone()));
                }
            }
            for (id, w) in &g.tombstones {
                if *w > since && !live.contains(id) {
                    out.invalidated.push(*id);
                }
            }
        }
        for id in ids {
            if !guards[self.shards.index_of(*id)].entries.contains_key(id) {
                out.misses.push(*id);
            }
        }
        drop(guards);
        out.updated.sort_by_key(|(id, _)| *id);
        out.invalidated.sort();
        out
    }

    /// Number of live entries (diagnostics).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn delta_reports_updates_invalidations_and_misses() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let b = InstanceId(2);
        let e = idx.begin_install(a);
        idx.finish_install(a, e, vec![item(None)]);
        // Bootstrap scan (since 0) returns all entries; b has no entry.
        let d0 = idx.delta(0, &[a, b]);
        assert_eq!(d0.updated.len(), 1);
        assert_eq!(d0.updated[0].0, a);
        assert_eq!(d0.misses, vec![b]);
        assert!(d0.invalidated.is_empty());
        assert_eq!(d0.epoch, e);
        // Nothing since d0.epoch.
        let d1 = idx.delta(d0.epoch, &[a, b]);
        assert!(d1.updated.is_empty());
        // Invalidate a (instance removed: not in ids any more).
        idx.invalidate(a);
        let d2 = idx.delta(d1.epoch, &[b]);
        assert_eq!(d2.invalidated, vec![a]);
        assert!(d2.updated.is_empty());
        // A tombstoned id still in the store is reported as a miss
        // (recompute), not as invalidated.
        idx.invalidate(b);
        let d3 = idx.delta(d2.epoch, &[b]);
        assert!(d3.invalidated.is_empty());
        assert_eq!(d3.misses, vec![b]);
    }

    #[test]
    fn pending_installs_hold_back_the_delta_epoch() {
        let idx = WorklistIndex::default();
        let a = InstanceId(1);
        let e1 = idx.begin_install(a);
        let e2 = idx.begin_install(a);
        idx.finish_install(a, e2, vec![item(None)]);
        // e1 is still in flight: completeness stops just below it, so the
        // install that *did* land (e2 > e1) will be re-scanned next poll
        // rather than lost behind a premature cursor.
        let d = idx.delta(0, &[a]);
        assert_eq!(d.epoch, e1 - 1);
        // The late landing clears the pending epoch; its older items lose
        // to the newer install.
        idx.finish_install(a, e1, Vec::new());
        let d = idx.delta(0, &[a]);
        assert_eq!(d.epoch, e2);
        // A lazy install stamped with current() must not deregister a
        // numerically equal pending command epoch.
        let e3 = idx.begin_install(a);
        assert_eq!(e3, idx.current());
        idx.install_lazy(a, idx.current(), vec![item(None)]);
        assert_eq!(idx.delta(0, &[a]).epoch, e3 - 1);
        idx.finish_install(a, e3, vec![item(None)]);
        assert_eq!(idx.delta(0, &[a]).epoch, e3);
    }
}
