//! Instance images are journaled straight from the stored instance a
//! creation, a change or an undo installs, not from an owned copy, and a
//! migration hop journals the hop. Whatever a seeded population goes
//! through — creation, execution, ad-hoc changes and their undo,
//! evolution, `migrate_all`, removal and a checkpoint — every line the
//! engine journaled is exactly what the owned record it decodes to encodes
//! to, and the checkpoint's snapshot is exactly what it decodes to encodes
//! to.

use adept_core::MigrationOptions;
use adept_engine::ProcessEngine;
use adept_model::InstanceId;
use adept_simgen::{generate_schema, random_change, scenarios, GenParams, RandomDriver};
use adept_storage::persist::{from_json, to_json};
use adept_storage::wal::{decode_entry, encode_entry};
use adept_storage::{MemoryBackend, StorageBackend, WalRecord};
use adept_tests::{adhoc, drive_with, evolve};
use std::collections::BTreeSet;

/// Runs a population of `type_name` through every journaled kind of
/// change, seeded by `seed`.
fn exercise(engine: &ProcessEngine, type_name: &str, seed: u64) {
    let ids: Vec<InstanceId> = (0..24)
        .map(|_| engine.create_instance(type_name).unwrap())
        .collect();
    for (k, id) in ids.iter().enumerate() {
        let mut driver = RandomDriver::new(seed + k as u64);
        let _ = drive_with(engine, *id, &mut driver, Some(k % 5));
    }
    for (k, id) in ids.iter().enumerate().filter(|(k, _)| k % 3 == 0) {
        let schema = engine.store.schema_of(&engine.repo, *id).unwrap();
        if let Some((_, delta)) = random_change(&schema, seed * 31 + k as u64, "adhoc") {
            let _ = adhoc(engine, *id, &delta.ops[0].op);
        }
        if k % 2 == 0 {
            let _ = engine.undo_ad_hoc_change(*id);
        }
    }
    for round in 0..2 {
        let latest = engine.repo.latest_version(type_name).unwrap();
        let schema = engine.repo.deployed(type_name, latest).unwrap().schema;
        if let Some((_, delta)) = random_change(&schema, seed * 7 + round, "evolved") {
            let ops: Vec<_> = delta.ops.iter().map(|r| r.op.clone()).collect();
            let _ = evolve(engine, type_name, &ops);
        }
        engine
            .migrate_all(type_name, &MigrationOptions::default(), 1)
            .unwrap();
    }
    for (k, id) in ids.iter().enumerate() {
        let mut driver = RandomDriver::new(seed ^ k as u64);
        let _ = drive_with(engine, *id, &mut driver, Some(2));
        if k % 4 == 1 {
            engine.remove_instance(*id).unwrap();
        }
    }
}

#[test]
fn every_journaled_line_and_the_snapshot_reencode_to_the_byte() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let mut types = vec![engine.deploy(scenarios::order_process()).unwrap()];
    for seed in [3, 11] {
        types.push(
            engine
                .deploy(generate_schema(&GenParams::sized(16), seed))
                .unwrap(),
        );
    }
    for (k, name) in types.iter().enumerate() {
        exercise(&engine, name, 100 + k as u64);
    }

    let lines = medium.read_log().unwrap().lines;
    let mut kinds = BTreeSet::new();
    for line in &lines {
        let entry = decode_entry(line).unwrap();
        assert_eq!(&encode_entry(&entry).unwrap(), line);
        kinds.insert(match entry.record {
            WalRecord::Deployed { .. } => "Deployed",
            WalRecord::Evolved { .. } => "Evolved",
            WalRecord::Created { .. } => "Created",
            WalRecord::StateChanged { .. } => "StateChanged",
            WalRecord::StateDelta { .. } => "StateDelta",
            WalRecord::ChangeCommitted { record, .. } => {
                if record.bias.is_empty() {
                    "ChangeCommitted (undone)"
                } else {
                    "ChangeCommitted"
                }
            }
            WalRecord::Migrated { .. } => "Migrated",
            WalRecord::Removed { .. } => "Removed",
            WalRecord::Abandoned => "Abandoned",
        });
    }
    let written: BTreeSet<&str> = [
        "Deployed",
        "Evolved",
        "Created",
        "StateDelta",
        "ChangeCommitted",
        "ChangeCommitted (undone)",
        "Migrated",
        "Removed",
    ]
    .into();
    assert_eq!(kinds, written, "every record form the engine writes");
    // One terminator per line on the medium, nothing doubled.
    let raw = medium.raw();
    assert_eq!(raw.iter().filter(|b| **b == b'\n').count(), lines.len());
    assert!(!raw.windows(2).any(|w| w == b"\n\n"));

    let mut json = String::new();
    let snapshot = engine
        .checkpoint_with(|snap| {
            json = to_json(snap)?;
            Ok(())
        })
        .unwrap();
    assert!(medium.read_log().unwrap().lines.is_empty());
    assert!(snapshot.instances.iter().any(|i| !i.bias.is_empty()));
    let decoded = from_json(&json).unwrap();
    assert_eq!(decoded, snapshot);
    assert_eq!(to_json(&decoded).unwrap(), json);
}
