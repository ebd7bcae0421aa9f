//! Persistence: snapshotting the repository and instance store to a
//! self-describing JSON document and restoring them.
//!
//! The original system keeps schemas and instance data in a relational
//! store so the PAIS survives restarts. This module is the
//! dependency-light equivalent: a [`Snapshot`] captures every process
//! type (all versions + deltas) and every instance (version, revision,
//! bias, substitution block, runtime state) and the change-transaction
//! records; [`restore_with_txns`] rebuilds a working repository + store,
//! re-deriving the caches (block structures, overlays) that are
//! deliberately not persisted.

use crate::error::StorageError;
use crate::instances::{InstanceStore, Representation, StoredInstance};
use crate::repo::SchemaRepository;
use crate::subst::SubstitutionBlock;
use crate::txnlog::TxnRecord;
use adept_core::{Delta, ProcessType};
use adept_model::InstanceId;
use adept_state::InstanceState;
use serde::{Deserialize, Serialize};

/// Serialised form of one stored instance — also the post-image payload
/// of write-ahead-log records ([`crate::WalRecord::ChangeCommitted`],
/// [`crate::WalRecord::Migrated`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// Instance id.
    pub id: InstanceId,
    /// Process type name.
    pub type_name: String,
    /// Schema version the instance runs on.
    pub version: u32,
    /// The instance's revision ([`StoredInstance::rev`]).
    pub rev: u64,
    /// Ad-hoc changes.
    pub bias: Delta,
    /// Substitution block (persisted so restore needs no re-application).
    pub subst: SubstitutionBlock,
    /// Runtime state.
    pub state: InstanceState,
}

impl InstanceRecord {
    /// The serialised form of a stored instance (caches dropped — they
    /// are re-derived on restore).
    pub fn of(inst: &StoredInstance) -> Self {
        InstanceRecord {
            id: inst.id,
            type_name: inst.type_name.clone(),
            version: inst.version,
            rev: inst.rev,
            bias: inst.bias.clone(),
            subst: inst.subst.clone(),
            state: inst.state.clone(),
        }
    }

    /// Rebuilds the stored instance (context empty, to be re-derived on
    /// first access).
    pub fn into_stored(self) -> StoredInstance {
        StoredInstance {
            bias: self.bias,
            subst: self.subst,
            rev: self.rev,
            ..StoredInstance::new(self.id, self.type_name, self.version, self.state)
        }
    }
}

/// A complete engine snapshot. Every field is mandatory when reading: a
/// document missing one is a truncated write, not an older format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot format version; only [`SNAPSHOT_FORMAT`] is readable.
    pub format: u32,
    /// Storage strategy of the instance store.
    pub strategy: Representation,
    /// All process types with their version chains and deltas.
    pub types: Vec<ProcessType>,
    /// All instances.
    pub instances: Vec<InstanceRecord>,
    /// The committed change-transaction log.
    pub txns: Vec<TxnRecord>,
    /// The write-ahead-log watermark this snapshot covers: recovery
    /// replays WAL entries with `seq > wal_seq` on top of it. 0 for
    /// snapshots taken without a durable WAL (nothing to replay).
    pub wal_seq: u64,
}

/// The one snapshot format this build writes and reads.
pub const SNAPSHOT_FORMAT: u32 = 4;

/// Captures a snapshot of a repository + store pair and the committed
/// change-transaction records `txns`, taken without a durable WAL
/// (`wal_seq` 0; the engine stamps its own watermark).
///
/// Instances are collected per shard via [`InstanceStore::all`] — one
/// shard lock at a time, no global barrier — and recorded in id order.
/// Instances whose type is unknown to the repository are skipped (they
/// could not be restored; the worklist surfaces them as corruption at
/// run time).
pub fn snapshot_with_txns(
    repo: &SchemaRepository,
    store: &InstanceStore,
    txns: &[TxnRecord],
) -> Snapshot {
    let mut types = Vec::new();
    for name in repo.type_names() {
        if let Some(pt) = repo.process_type(&name) {
            types.push(pt);
        }
    }
    let known: std::collections::BTreeSet<String> = repo.type_names().into_iter().collect();
    let instances = store
        .all()
        .into_iter()
        .filter(|inst| known.contains(&inst.type_name))
        .map(|inst| InstanceRecord::of(&inst))
        .collect();
    Snapshot {
        format: SNAPSHOT_FORMAT,
        strategy: store.strategy(),
        types,
        instances,
        txns: txns.to_vec(),
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

/// Deserialises a snapshot from JSON.
pub fn from_json(json: &str) -> Result<Snapshot, StorageError> {
    let s: Snapshot = serde_json::from_str(json)
        .map_err(|e| StorageError::corrupt(format!("snapshot parse failed: {e}")))?;
    if s.format != SNAPSHOT_FORMAT {
        return Err(StorageError::corrupt(format!(
            "unsupported snapshot format {} (expected {SNAPSHOT_FORMAT})",
            s.format
        )));
    }
    Ok(s)
}

/// Restores a repository, store and the change-transaction records from
/// a snapshot. Caches (deployed block structures, overlay
/// materialisations) are re-derived; instance ids are preserved. Every
/// failure — an empty version chain, a delta that no longer applies, a
/// replay that differs from the recorded schema in anything at all —
/// surfaces as a [`StorageError::Corrupt`]; nothing on this path unwraps
/// or swallows.
pub fn restore_with_txns(
    s: &Snapshot,
) -> Result<(SchemaRepository, InstanceStore, Vec<TxnRecord>), StorageError> {
    let repo = SchemaRepository::new();
    for pt in &s.types {
        // Re-deploy version 1 (keeping the recorded schema id), then
        // re-play the recorded deltas so the repository rebuilds its
        // deployment caches and keeps the exact version chain (ids
        // included, since application is id-stable relative to the same
        // base schema).
        let base = pt
            .versions
            .first()
            .ok_or_else(|| StorageError::corrupt("type without versions"))?;
        if pt.deltas.len() + 1 != pt.versions.len() {
            return Err(StorageError::corrupt(format!(
                "{:?} records {} versions and {} deltas",
                pt.name,
                pt.versions.len(),
                pt.deltas.len()
            )));
        }
        let name = repo.deploy_recorded(base.clone())?;
        for (delta, recorded) in pt.deltas.iter().zip(pt.versions.iter().skip(1)) {
            // Each later version is re-derived from its recorded operations
            // and must come out as recorded, to the last name, attribute and
            // id — the schema id included, which an evolution keeps from the
            // version it starts on, so nothing needs aligning first.
            let ops: Vec<adept_core::ChangeOp> = delta.ops.iter().map(|r| r.op.clone()).collect();
            let (v, _) = repo.evolve(&name, &ops)?;
            let rebuilt = repo
                .deployed(&name, v)
                .ok_or_else(|| StorageError::corrupt("evolve lost version"))?;
            if *rebuilt.schema != *recorded {
                return Err(StorageError::corrupt(format!(
                    "snapshot replay of {name} V{v} differs from the recorded schema"
                )));
            }
        }
    }
    let store = InstanceStore::new(s.strategy);
    for rec in &s.instances {
        store.insert_restored(rec.clone().into_stored());
    }
    Ok((repo, store, s.txns.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::apply_op;
    use adept_core::{ChangeOp, NewActivity};
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
        let snap = snapshot_with_txns(&repo, &store, &[]);
        let json = to_json(&snap).unwrap();
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn restore_rebuilds_repo_and_store() {
        let (repo, store, name) = world();
        let snap = snapshot_with_txns(&repo, &store, &[]);
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
        let snap = snapshot_with_txns(&repo, &store, &[]);
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
        // formats, the retired 1, 2 and 3, and 0 are all refused.
        for format in [99, 3, 2, 1, 0] {
            let mut snap = snapshot_with_txns(&repo, &store, &[]);
            snap.format = format;
            let json = serde_json::to_string(&snap).unwrap();
            let err = from_json(&json).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn format_2_snapshot_missing_txns_is_corrupt() {
        let (repo, store, _) = world();
        // A document without the audit log must be rejected rather than
        // restored with a silently empty one — whether it is a format-2
        // document that also predates `wal_seq`, or a truncated current one.
        let mut snap = snapshot_with_txns(&repo, &store, &[]);
        snap.format = 2;
        let json = serde_json::to_string(&snap)
            .unwrap()
            .replace(",\"txns\":[]", "")
            .replace(",\"wal_seq\":0", "");
        assert!(from_json(&json).is_err());

        let current = serde_json::to_string(&snapshot_with_txns(&repo, &store, &[])).unwrap();
        let truncated = current.replace(",\"txns\":[]", "");
        assert!(!truncated.contains("txns"), "field must be absent");
        let err = from_json(&truncated).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn snapshot_missing_wal_seq_is_corrupt() {
        let (repo, store, _) = world();
        let snap = snapshot_with_txns(&repo, &store, &[]);
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
        let snap = snapshot_with_txns(&repo, &store, &[]);
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
        let snap = snapshot_with_txns(&repo, &store, &[]);
        let (repo2, _, _) = restore_with_txns(&snap).unwrap();
        assert_eq!(repo2.latest_version(&name), Some(2));
        assert!(repo2
            .deployed(&name, 2)
            .unwrap()
            .schema
            .node_by_name("typestep")
            .is_some());
    }

    /// A recorded version is restored as recorded or not at all: one whose
    /// replay comes out different — here in one activity's name, which
    /// leaves every count alone — is refused, not replaced by the replay.
    #[test]
    fn a_recorded_version_the_replay_does_not_reproduce_is_corrupt() {
        let (repo, store, name) = world();
        let v1 = repo.deployed(&name, 1).unwrap().schema;
        let (a, b) = (
            v1.node_by_name("a").unwrap().id,
            v1.node_by_name("b").unwrap().id,
        );
        let step = ChangeOp::SerialInsert {
            activity: NewActivity::named("typestep"),
            pred: a,
            succ: b,
        };
        repo.evolve(&name, &[step]).unwrap();
        let snap = snapshot_with_txns(&repo, &store, &[]);
        assert!(restore_with_txns(&snap).is_ok());

        let mut renamed = snap.clone();
        let v2 = &mut renamed.types[0].versions[1];
        let typestep = v2.node_by_name("typestep").unwrap().id;
        v2.node_mut(typestep).unwrap().name = "renamed".into();
        let err = restore_with_txns(&renamed).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

        let mut short = snap;
        short.types[0].versions.pop();
        assert!(matches!(
            restore_with_txns(&short),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
