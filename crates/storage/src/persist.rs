//! Persistence: snapshotting the repository and instance store to a
//! self-describing JSON document and restoring them.
//!
//! The original system keeps schemas and instance data in a relational
//! store so the PAIS survives restarts. This module is the
//! dependency-light equivalent: a [`Snapshot`] captures every process
//! type (its version-1 schema and the delta `ΔT` that made each later
//! version, paper Fig. 2), every instance (version, revision, bias,
//! runtime state) and two counters, the highest instance id ever held and
//! the number of committed change transactions — not the transactions,
//! which are in the journal; [`restore_with_txns`] rebuilds a working
//! repository + store. Snapshot format 10 records a type as a
//! [`TypeRecord`], no version after the first as a schema; a document of
//! any other format is refused by its number. The caches — every version
//! after the first, which its deltas replay to, block structures, a biased
//! instance's schema, which its bias replays to, and an instance's data
//! values, which its history's writes fold to — are re-derived, not
//! persisted.
//!
//! A snapshot copies no instance and no schema: each [`InstanceRecord`] is
//! a handle to the [`StoredInstance`] the store holds, shared with it, and
//! a writer of the store copies an instance only while a snapshot still
//! holds it — so a record is exactly the one revision of its instance that
//! was resident when the snapshot read it; each [`TypeRecord`] shares its
//! version-1 schema with the deployment. A restore inserts the snapshot's
//! handles as they are and deploys its version-1 schemas as they are. The
//! context a biased instance's store slot retains beside its handle is
//! never shared and never persisted.

use crate::error::StorageError;
use crate::instances::{InstanceStore, Representation, StoredInstance};
use crate::repo::SchemaRepository;
use adept_core::{ChangeOp, Delta};
use adept_model::ProcessSchema;
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::collections::BTreeSet;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Serialised form of one stored instance — also the post-image payload
/// of a change transaction's write-ahead-log record
/// ([`crate::WalRecord::ChangeCommitted`]; a migration hop journals the hop,
/// [`crate::WalRecord::Migrated`], not an image). A handle to the stored
/// instance, shared with the store a snapshot was taken of: it reads as the
/// instance (`rec.id`, `rec.state`), and writing through it copies the
/// instance first if anything else still holds it. Encoded and decoded as
/// the [`StoredInstance`] it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceRecord(Arc<StoredInstance>);

impl InstanceRecord {
    /// The stored instance (its context slot is empty, to be re-derived
    /// on first access): unwrapped where the record is its only holder,
    /// copied where a store or another record shares it.
    pub fn into_stored(self) -> StoredInstance {
        Arc::unwrap_or_clone(self.0)
    }
}

impl From<InstanceRecord> for Arc<StoredInstance> {
    /// The shared instance itself: what a restore inserts into a store.
    fn from(rec: InstanceRecord) -> Self {
        rec.0
    }
}

impl Deref for InstanceRecord {
    type Target = StoredInstance;

    fn deref(&self) -> &StoredInstance {
        &self.0
    }
}

impl DerefMut for InstanceRecord {
    fn deref_mut(&mut self) -> &mut StoredInstance {
        Arc::make_mut(&mut self.0)
    }
}

impl Serialize for InstanceRecord {
    fn serialize(&self, out: &mut Writer) {
        self.0.serialize(out)
    }
}

impl Deserialize for InstanceRecord {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        StoredInstance::deserialize(r).map(|inst| InstanceRecord(Arc::new(inst)))
    }
}

/// Serialised form of one process type: its version-1 schema, shared with
/// the deployment a snapshot was taken of, and the type changes `ΔT` that
/// made each later version, in order — each with the ids its operations
/// allocated and removed. The type's name is its schema's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TypeRecord {
    /// Version 1.
    pub base: Arc<ProcessSchema>,
    /// `deltas[v - 1]` transforms version `v` into version `v + 1`.
    pub deltas: Vec<Delta>,
}

/// A complete engine snapshot. Every field is mandatory when reading: a
/// document missing one is a truncated write, not an older format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot format version; only [`SNAPSHOT_FORMAT`] is readable.
    pub format: u32,
    /// All process types, in name order.
    pub types: Vec<TypeRecord>,
    /// All instances.
    pub instances: Vec<InstanceRecord>,
    /// The highest instance id the store ever held (0 = none), removed
    /// instances included: a restored store allocates past it, so a
    /// removed instance's id is never handed out again.
    pub max_id: u64,
    /// The number of change transactions committed so far: the last one's
    /// sequence number (0 = none).
    pub txns: u64,
    /// The write-ahead-log watermark this snapshot covers: recovery
    /// replays WAL entries with `seq > wal_seq` on top of it. 0 for
    /// snapshots taken without a durable WAL (nothing to replay).
    pub wal_seq: u64,
}

/// The one snapshot format this build writes and reads. Format 10 records
/// a type as its version-1 schema and its deltas ([`TypeRecord`]); a
/// format-9 document, which wrote every version as a whole schema beside
/// the delta that made it, is refused by its number. A marking is one id
/// list per state and an event its fields in order (`adept_state`'s
/// marking and history codecs, since format 9). No store layout is
/// recorded: a restore builds the one every engine runs. An instance state
/// is its marking and history; its data values are derived, like the
/// caches.
pub const SNAPSHOT_FORMAT: u32 = 10;

/// Captures a snapshot of a repository + store pair and the number of
/// committed change transactions `txns`, taken without a durable WAL
/// (`wal_seq` 0; the engine stamps its own watermark).
///
/// Types are recorded under one read of the repository, each version-1
/// schema shared with its deployment. Instances are recorded per shard —
/// one shard lock at a time, no global barrier, each record a handle to
/// the resident instance, shared, not a copy of it — and in id order.
/// Instances whose type the snapshot does not record are skipped (they
/// could not be restored; the worklist surfaces them as corruption at run
/// time).
pub fn snapshot_with_txns(repo: &SchemaRepository, store: &InstanceStore, txns: &u64) -> Snapshot {
    let types = repo.records();
    let known: BTreeSet<&str> = types.iter().map(|t| t.base.name.as_str()).collect();
    let held = store.shared(|inst| known.contains(inst.type_name.as_str()));
    Snapshot {
        format: SNAPSHOT_FORMAT,
        types,
        instances: held.into_iter().map(InstanceRecord).collect(),
        max_id: store.max_inserted_id(),
        txns: *txns,
        wal_seq: 0,
    }
}

/// Serialises a snapshot to compact JSON — the same codec the WAL uses,
/// so every persisted artefact of the engine reads identically.
pub fn to_json(s: &Snapshot) -> Result<String, StorageError> {
    serde_json::to_string(s).map_err(|e| StorageError::Encode {
        detail: format!("snapshot: {e}"),
    })
}

/// The format member alone, every other member skipped: what a document
/// that did not decode says about its format.
#[derive(Deserialize)]
struct FormatOnly {
    format: u32,
}

/// Deserialises a snapshot from JSON. A document of another format is
/// refused by its number, whether or not its body reads as this format's.
pub fn from_json(json: &str) -> Result<Snapshot, StorageError> {
    let unsupported = |format| {
        StorageError::corrupt(format!(
            "unsupported snapshot format {format} (expected {SNAPSHOT_FORMAT})"
        ))
    };
    let s: Snapshot =
        serde_json::from_str(json).map_err(|e| match serde_json::from_str::<FormatOnly>(json) {
            Ok(FormatOnly { format }) if format != SNAPSHOT_FORMAT => unsupported(format),
            _ => StorageError::corrupt(format!("snapshot parse failed: {e}")),
        })?;
    if s.format != SNAPSHOT_FORMAT {
        return Err(unsupported(s.format));
    }
    Ok(s)
}

/// Restores a repository, store and the number of committed change
/// transactions from a snapshot, into the `Hybrid` store every engine runs.
/// Each type's version 1 is deployed as the snapshot shares it, and every
/// later version is re-derived from its recorded delta through
/// [`SchemaRepository::evolve`], the path the journal's evolution replay
/// runs; caches (deployed block structures, biased instances' schemas) are
/// re-derived; instances are shared with the snapshot, not copied;
/// instance ids are preserved, and the store allocates past the snapshot's
/// highest id. Every failure — a type or an instance id recorded twice, a
/// delta whose operations no longer stage, one whose replay allocates or
/// removes other ids than it records — surfaces as a
/// [`StorageError::Corrupt`]; nothing on this path unwraps or swallows.
pub fn restore_with_txns(
    s: &Snapshot,
) -> Result<(SchemaRepository, InstanceStore, u64), StorageError> {
    let repo = SchemaRepository::new();
    let mut names = BTreeSet::new();
    for t in &s.types {
        if !names.insert(t.base.name.as_str()) {
            return Err(StorageError::corrupt(format!(
                "type {:?} recorded twice",
                t.base.name
            )));
        }
        // Version 1 keeps its recorded schema id; each later version is
        // its recorded operations staged again on the one before, and must
        // allocate and remove exactly the ids its delta records — the ids
        // the instances on it and their biases name.
        let name = repo.deploy_recorded(Arc::clone(&t.base))?;
        for recorded in &t.deltas {
            let ops: Vec<ChangeOp> = recorded.ops.iter().map(|r| r.op.clone()).collect();
            let (v, replayed) = repo.evolve(&name, &ops).map_err(|e| {
                StorageError::corrupt(format!("snapshot replay of a delta of {name}: {e}"))
            })?;
            if replayed != *recorded {
                return Err(StorageError::corrupt(format!(
                    "snapshot replay of {name} V{v} differs from its recorded delta"
                )));
            }
        }
    }
    let store = InstanceStore::new(Representation::Hybrid);
    for rec in &s.instances {
        if !store.insert_restored(rec.clone()) {
            return Err(StorageError::corrupt(format!(
                "instance {} recorded twice",
                rec.id
            )));
        }
    }
    store.reserve_ids_through(s.max_id);
    Ok((repo, store, s.txns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::apply_op;
    use adept_core::{ChangeOp, Delta, NewActivity};
    use adept_model::SchemaBuilder;
    use adept_state::Execution;

    fn world() -> (SchemaRepository, InstanceStore, String) {
        let mut b = SchemaBuilder::new("p");
        b.activity("a");
        b.activity("b");
        let repo = SchemaRepository::new();
        let name = repo.deploy(b.build().unwrap()).unwrap();
        let store = InstanceStore::new(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        let id = store.create(&name, 1, st.clone());
        // Bias the instance.
        let mut materialized = (*dep.schema).clone();
        materialized.reserve_private_id_space();
        let a = materialized.node_by_name("a").unwrap().id;
        let bb = materialized.node_by_name("b").unwrap().id;
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("x"),
                    pred: a,
                    succ: bb,
                },
            )
            .unwrap(),
        );
        let target = Execution::new(materialized).unwrap();
        store
            .install(id, None, bias, target, st, |_| Ok(()))
            .unwrap();
        (repo, store, name)
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let (repo, store, _name) = world();
        let snap = snapshot_with_txns(&repo, &store, &0);
        let json = to_json(&snap).unwrap();
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn restore_rebuilds_repo_and_store() {
        let (repo, store, name) = world();
        let snap = snapshot_with_txns(&repo, &store, &0);
        let (repo2, store2, _) = restore_with_txns(&snap).unwrap();
        assert_eq!(repo2.latest_version(&name), Some(1));
        assert_eq!(store2.len(), 1);
        let id = store2.instances_of(&name)[0];
        assert!(store2.get(id).unwrap().is_biased());
        let overlay = store2.schema_of(&repo2, id).unwrap();
        assert!(overlay.node_by_name("x").is_some());
    }

    #[test]
    fn restored_store_allocates_fresh_ids() {
        let (repo, store, name) = world();
        let snap = snapshot_with_txns(&repo, &store, &0);
        let (repo2, store2, _) = restore_with_txns(&snap).unwrap();
        let old_id = store2.instances_of(&name)[0];
        let dep = repo2.deployed(&name, 1).unwrap();
        let new_id = store2.create(&name, 1, dep.exec().init().unwrap());
        assert!(new_id.raw() > old_id.raw(), "ids must not collide");
    }

    #[test]
    fn unsupported_format_rejected() {
        let (repo, store, _) = world();
        // Complete documents, so the format number alone decides: newer
        // formats, the retired 1 to 9, and 0 are all refused.
        for format in [99, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0] {
            let mut snap = snapshot_with_txns(&repo, &store, &0);
            snap.format = format;
            let json = serde_json::to_string(&snap).unwrap();
            let err = from_json(&json).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        }
        // A format-9 document as it was written, its type a name and a
        // list of whole versions, a format-8 one, its marking in the pair
        // form, and a format-7 one, its layout member included, are
        // refused by their number, not read as damaged or truncated writes.
        let snap = snapshot_with_txns(&repo, &store, &0);
        let current = to_json(&snap).unwrap();
        let record = serde_json::to_string(&snap.types[0]).unwrap();
        let base = serde_json::to_string(&snap.types[0].base).unwrap();
        let chain = format!(r#"{{"name":"p","versions":[{base}],"deltas":[]}}"#);
        let nine = current
            .replacen("{\"format\":10,", "{\"format\":9,", 1)
            .replace(&record, &chain);
        assert!(nine.contains(r#""types":[{"name":"p","versions":[{"id":"#));
        let as_ten = nine.replacen("{\"format\":9,", "{\"format\":10,", 1);
        assert!(from_json(&as_ten).is_err(), "the version list is not read");
        let marking = &snap.instances[0].state.marking;
        let pairs = |entries: Vec<String>| format!("[{}]", entries.join(","));
        let nodes = marking
            .marked_nodes()
            .map(|(n, s)| format!("[{},\"{s}\"]", n.0));
        let edges = marking
            .signaled_edges()
            .map(|(e, s)| format!("[{},\"{s}\"]", e.0));
        let pair_form = format!(
            r#"{{"nodes":{},"edges":{},"loop_counts":[]}}"#,
            pairs(nodes.collect()),
            pairs(edges.collect())
        );
        let ids_form = serde_json::to_string(marking).unwrap();
        let eight = current
            .replacen("{\"format\":10,", "{\"format\":8,", 1)
            .replace(&ids_form, &pair_form);
        assert!(eight.contains(r#""nodes":[[0,"Completed"]"#), "{eight}");
        let as_ten = eight.replacen("{\"format\":8,", "{\"format\":10,", 1);
        assert!(from_json(&as_ten).is_err(), "the pair form is not read");
        let seven = current.replacen(
            "{\"format\":10,",
            "{\"format\":7,\"strategy\":\"Hybrid\",",
            1,
        );
        for (old, format) in [(nine, 9), (eight, 8), (seven, 7)] {
            assert_ne!(old, current);
            let err = from_json(&old).unwrap_err();
            let refused = format!("unsupported snapshot format {format}");
            assert!(err.to_string().contains(&refused), "{err}");
        }
    }

    #[test]
    fn format_2_snapshot_missing_txns_is_corrupt() {
        let (repo, store, _) = world();
        // A document without the audit log must be rejected rather than
        // restored with a silently empty one — whether it is a format-2
        // document that also predates `wal_seq`, or a truncated current one.
        let mut snap = snapshot_with_txns(&repo, &store, &0);
        snap.format = 2;
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"txns\":0", "")
            .replace(",\"wal_seq\":0", "");
        assert!(from_json(&json).is_err());

        let current = serde_json::to_string(&snapshot_with_txns(&repo, &store, &0)).unwrap();
        let truncated = current.replace(",\"txns\":0", "");
        assert!(!truncated.contains("txns"), "field must be absent");
        let err = from_json(&truncated).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_missing_wal_seq_is_corrupt() {
        let (repo, store, _) = world();
        let snap = snapshot_with_txns(&repo, &store, &0);
        assert_eq!(snap.format, SNAPSHOT_FORMAT);
        // A document without the watermark is a truncated write:
        // restoring it with wal_seq = 0 would re-replay the whole WAL on
        // top of a newer snapshot. Refuse instead.
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"wal_seq\":0", "");
        let err = from_json(&json).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_json_is_compact() {
        let (repo, store, _) = world();
        let snap = snapshot_with_txns(&repo, &store, &0);
        let json = to_json(&snap).unwrap();
        assert_eq!(json.lines().count(), 1, "compact: one document, one line");
    }

    #[test]
    fn evolved_world_replays_deltas() {
        let (repo, store, name) = world();
        let dep = repo.deployed(&name, 1).unwrap();
        let a = dep.schema.node_by_name("a").unwrap().id;
        let bb = dep.schema.node_by_name("b").unwrap().id;
        repo.evolve(
            &name,
            &[ChangeOp::SerialInsert {
                activity: NewActivity::named("typestep"),
                pred: a,
                succ: bb,
            }],
        )
        .unwrap();
        let snap = snapshot_with_txns(&repo, &store, &0);
        let (repo2, _, _) = restore_with_txns(&snap).unwrap();
        assert_eq!(repo2.latest_version(&name), Some(2));
        let v2 = repo2.deployed(&name, 2).unwrap().schema;
        assert!(v2.node_by_name("typestep").is_some());
        assert_eq!(*v2, *repo.deployed(&name, 2).unwrap().schema);
        // Version 1 is one schema, shared by the deployment, the snapshot
        // and the deployment restored from it.
        let base = &snap.types[0].base;
        assert!(Arc::ptr_eq(base, &repo.deployed(&name, 1).unwrap().schema));
        assert!(Arc::ptr_eq(base, &repo2.deployed(&name, 1).unwrap().schema));
    }
}
