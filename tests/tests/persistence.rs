//! Persistence integration: snapshot a live engine (multiple versions,
//! biased and finished instances), restore, and keep working — including a
//! full migration round in the restored world.

use adept_core::MigrationOptions;
use adept_engine::ProcessEngine;
use adept_simgen::scenarios;
use adept_storage::persist::{from_json, restore, snapshot, to_json};
use adept_storage::TxnLog;
use adept_tests::{adhoc, drive, drive_with, evolve};

#[test]
fn snapshot_roundtrip_preserves_a_whole_world() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let i1 = engine.create_instance(&name).unwrap();
    drive(&engine, i1, Some(2)).unwrap();
    let i2 = engine.create_instance(&name).unwrap();
    adhoc(&engine, i2, &scenarios::fig1_i2_bias_op(&v1.schema)).unwrap();
    let i3 = engine.create_instance(&name).unwrap();
    drive(&engine, i3, None).unwrap();
    evolve(&engine, &name, &scenarios::fig1_delta_ops(&v1.schema)).unwrap();

    let snap = engine.snapshot();
    let json = to_json(&snap).unwrap();
    assert!(json.contains("online order"));
    let parsed = from_json(&json).unwrap();
    assert_eq!(parsed, snap);

    let engine2 = ProcessEngine::from_snapshot(&parsed).unwrap();
    assert_eq!(engine2.repo.latest_version(&name), Some(2));
    assert_eq!(engine2.store.len(), 3);
    let inst2 = engine2.store.get(i2).unwrap();
    assert!(inst2.is_biased());
    assert_eq!(inst2.state, engine.store.get(i2).unwrap().state);

    // The change history survives the round-trip: the ad-hoc change and
    // the evolution are still in the log, and new commits continue the
    // sequence instead of reusing numbers.
    assert_eq!(engine2.txn_log.records(), engine.txn_log.records());
    let last_seq = engine2.txn_log.records().last().unwrap().seq;
    assert!(last_seq >= 2);

    // The restored biased instance materialises correctly and the restored
    // world supports a full migration round with the Fig. 1 verdicts.
    let overlay = engine2.store.schema_of(&engine2.repo, i2).unwrap();
    assert_eq!(overlay.sync_edges().count(), 1);
    let report = engine2
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.total(), 3);
    assert_eq!(report.migrated(), 1, "{report}");
    drive(&engine2, i1, None).unwrap();
    assert!(engine2.is_finished(i1).unwrap());
}

#[test]
fn restored_engine_accepts_new_work() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::clinical_pathway()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, Some(1)).unwrap();

    let snap = snapshot(&engine.repo, &engine.store);
    let (repo2, store2) = restore(&snap).unwrap();
    let engine2 = ProcessEngine::from_parts(repo2, store2, TxnLog::new());

    // New instances, new ad-hoc changes, full execution.
    let fresh = engine2.create_instance(&name).unwrap();
    assert!(fresh.raw() > id.raw());
    let mut driver = adept_simgen::RandomDriver::new(5);
    drive_with(&engine2, id, &mut driver, Some(200)).unwrap();
    drive_with(&engine2, fresh, &mut driver, Some(200)).unwrap();
    assert!(engine2.is_finished(id).unwrap());
    assert!(engine2.is_finished(fresh).unwrap());
}
