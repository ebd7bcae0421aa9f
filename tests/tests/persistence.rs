//! Persistence integration: snapshot a live engine (multiple versions,
//! biased and finished instances), restore, and keep working — including a
//! full migration round in the restored world — and the decoders fed
//! damaged bytes.

use adept_core::{ChangeOp, MigrationOptions};
use adept_engine::ProcessEngine;
use adept_model::{AccessMode, SchemaBuilder, ValueType};
use adept_simgen::scenarios;
use adept_storage::persist::{from_json, restore_with_txns, snapshot_with_txns, to_json};
use adept_storage::{
    wal, InstanceStore, MemoryBackend, Representation, SchemaRepository, StorageBackend,
};
use adept_tests::{adhoc, drive, drive_with, evolve};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
    assert_eq!(engine2.wal().txn_records(), engine.wal().txn_records());
    let last_seq = engine2.wal().txn_records().last().unwrap().seq;
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

/// A committed ad-hoc data edge on an original activity — a mandatory read
/// of what an earlier activity writes — is part of the schema the instance
/// runs on: right after the commit under a strategy that keeps no context,
/// and after a snapshot and restore under one that does.
#[test]
fn an_ad_hoc_data_edge_survives_a_restore() {
    for strategy in [Representation::Hybrid, Representation::RedundantFree] {
        let mut b = SchemaBuilder::new("data");
        let x = b.data("x", ValueType::Int);
        let w = b.activity("w");
        b.write(w, x);
        let r = b.activity("r");
        let store = InstanceStore::new(strategy);
        let engine = ProcessEngine::from_parts(SchemaRepository::new(), store, Arc::default());
        let name = engine.deploy(b.build().unwrap()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        let read = ChangeOp::AddDataEdge {
            node: r,
            data: x,
            mode: AccessMode::Read,
            optional: false,
        };
        adhoc(&engine, id, &read).unwrap();

        let live = engine.store.schema_of(&engine.repo, id).unwrap();
        assert_eq!(live.readers_of(x).count(), 1, "{strategy:?}: read lost");
        let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
        let schema = restored.store.schema_of(&restored.repo, id).unwrap();
        assert_eq!(*schema, *live, "{strategy:?}");
    }
}

#[test]
fn restored_engine_accepts_new_work() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::clinical_pathway()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, Some(1)).unwrap();

    let snap = snapshot_with_txns(&engine.repo, &engine.store, &[]);
    let (repo2, store2, _) = restore_with_txns(&snap).unwrap();
    let engine2 = ProcessEngine::from_parts(repo2, store2, Arc::default());

    // New instances, new ad-hoc changes, full execution.
    let fresh = engine2.create_instance(&name).unwrap();
    assert!(fresh.raw() > id.raw());
    let mut driver = adept_simgen::RandomDriver::new(5);
    drive_with(&engine2, id, &mut driver, Some(200)).unwrap();
    drive_with(&engine2, fresh, &mut driver, Some(200)).unwrap();
    assert!(engine2.is_finished(id).unwrap());
    assert!(engine2.is_finished(fresh).unwrap());
}

/// Decoders never panic (ROADMAP 5(d)): every truncation prefix and seeded
/// 1–3-byte mutations of the journal lines and the snapshot JSON of a small
/// create / drive / bias / evolve / migrate run decode to a value or to a
/// `StorageError` — whatever codec reads these bytes next lands under this.
#[test]
fn decoders_never_panic_on_damaged_bytes() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let ids: Vec<_> = (0..3)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    drive(&engine, ids[0], Some(2)).unwrap();
    adhoc(&engine, ids[1], &scenarios::fig1_i2_bias_op(&v1.schema)).unwrap();
    evolve(&engine, &name, &scenarios::fig1_delta_ops(&v1.schema)).unwrap();
    engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    engine.remove_instance(ids[2]).unwrap();
    let lines = medium.read_log().unwrap().lines;
    let snapshot = to_json(&engine.snapshot()).unwrap();
    assert!(lines.iter().all(|line| wal::decode_entry(line).is_ok()));
    assert!(from_json(&snapshot).is_ok());

    // xorshift64: seeded, no dependency.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut cases = 0usize;
    let mut check = |decode: &dyn Fn(&str) -> bool, text: &str, mutations: usize| {
        let mut feed = |damaged: &[u8]| {
            let damaged = String::from_utf8_lossy(damaged);
            let outcome = catch_unwind(AssertUnwindSafe(|| decode(&damaged)));
            assert!(outcome.is_ok(), "decoder panicked on {damaged:?}");
            cases += 1;
        };
        let bytes = text.as_bytes();
        (0..bytes.len()).for_each(|n| feed(&bytes[..n]));
        for _ in 0..mutations {
            let mut bytes = bytes.to_vec();
            for _ in 0..1 + next() % 3 {
                let at = next() as usize % bytes.len();
                bytes[at] ^= 1 + (next() % 255) as u8;
            }
            feed(&bytes);
        }
    };
    for line in &lines {
        check(&|s| wal::decode_entry(s).is_ok(), line, 200);
    }
    check(&|s| from_json(s).is_ok(), &snapshot, 2_000);
    assert!(cases > 10_000, "{cases} cases");
}
