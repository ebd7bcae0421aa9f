//! Persistence integration: snapshot a live engine (multiple versions,
//! biased and finished instances), restore, and keep working — including a
//! full migration round in the restored world — and the decoders fed
//! damaged bytes.

use adept_core::{ChangeOp, MigrationOptions, NewActivity};
use adept_engine::{recover_from_segmented, ProcessEngine};
use adept_model::{AccessMode, ActivityAttributes, NodeId, SchemaBuilder, ValueType};
use adept_simgen::scenarios;
use adept_storage::persist::{from_json, restore_with_txns, snapshot_with_txns, to_json};
use adept_storage::{
    wal, InstanceStore, MemoryBackend, Representation, SchemaRepository, StorageBackend,
    StorageError,
};
use adept_tests::{adhoc, drive, drive_with, every_data_is_its_history, evolve};
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
    assert!(every_data_is_its_history(&engine2));
    assert_eq!(engine2.repo.latest_version(&name), Some(2));
    assert_eq!(engine2.store.len(), 3);
    let inst2 = engine2.store.get(i2).unwrap();
    assert!(inst2.is_biased());
    assert_eq!(inst2.state, engine.store.get(i2).unwrap().state);

    // The transaction count survives the round-trip: the ad-hoc change and
    // the evolution are counted, and new commits continue the sequence
    // instead of reusing numbers.
    assert_eq!(parsed.txns, 2);
    assert_eq!(engine2.wal().txns(), engine.wal().txns());

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
        assert!(every_data_is_its_history(&restored), "{strategy:?}");
        let schema = restored.store.schema_of(&restored.repo, id).unwrap();
        assert_eq!(*schema, *live, "{strategy:?}");
    }
}

/// An ad-hoc insert whose activity a later ad-hoc change deletes again
/// purges to an unbiased instance, which then runs on its deployment: its
/// state must name the deployment's edges, not the bridge the delete
/// built — live and after a snapshot and restore.
#[test]
fn an_inserted_then_deleted_activity_leaves_a_runnable_instance() {
    let mut b = SchemaBuilder::new("purge");
    let a = b.activity("a");
    let c = b.activity("c");
    b.activity("d");
    let engine = ProcessEngine::new();
    let name = engine.deploy(b.build().unwrap()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, Some(1)).unwrap();

    let insert = ChangeOp::SerialInsert {
        activity: NewActivity::named("x"),
        pred: a,
        succ: c,
    };
    let x = adhoc(&engine, id, &insert).unwrap().delta.ops[0]
        .inserted_activity()
        .unwrap();
    adhoc(&engine, id, &ChangeOp::DeleteActivity { node: x }).unwrap();
    let inst = engine.store.get(id).unwrap();
    assert!(!inst.is_biased(), "the pair purges");
    let deployed = engine.repo.deployed(&name, inst.version).unwrap();
    for (e, _) in inst.state.marking.signaled_edges() {
        assert!(
            deployed.schema.edge(e).is_ok(),
            "{e} is not the deployment's"
        );
    }

    let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
    assert!(every_data_is_its_history(&restored));
    for engine in [&engine, &restored] {
        drive(engine, id, None).unwrap();
        assert!(engine.is_finished(id).unwrap());
    }
}

#[test]
fn restored_engine_accepts_new_work() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::clinical_pathway()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, Some(1)).unwrap();

    let snap = snapshot_with_txns(&engine.repo, &engine.store, &0);
    let (repo2, store2, _) = restore_with_txns(&snap).unwrap();
    let engine2 = ProcessEngine::from_parts(repo2, store2, Arc::default());
    assert!(every_data_is_its_history(&engine2));

    // New instances, new ad-hoc changes, full execution.
    let fresh = engine2.create_instance(&name).unwrap();
    assert!(fresh.raw() > id.raw());
    let mut driver = adept_simgen::RandomDriver::new(5);
    drive_with(&engine2, id, &mut driver, Some(200)).unwrap();
    drive_with(&engine2, fresh, &mut driver, Some(200)).unwrap();
    assert!(engine2.is_finished(id).unwrap());
    assert!(engine2.is_finished(fresh).unwrap());
    assert!(every_data_is_its_history(&engine2));
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

/// Which of the [`OP_KINDS`] kinds `op` is. Exhaustive, so a new kind does
/// not compile until it has a number, and fails the test below until it
/// has a case.
fn op_kind(op: &ChangeOp) -> usize {
    match op {
        ChangeOp::SerialInsert { .. } => 0,
        ChangeOp::ParallelInsert { .. } => 1,
        ChangeOp::BranchInsert { .. } => 2,
        ChangeOp::DeleteActivity { .. } => 3,
        ChangeOp::MoveActivity { .. } => 4,
        ChangeOp::InsertSyncEdge { .. } => 5,
        ChangeOp::DeleteSyncEdge { .. } => 6,
        ChangeOp::AddDataElement { .. } => 7,
        ChangeOp::AddDataEdge { .. } => 8,
        ChangeOp::RemoveDataEdge { .. } => 9,
        ChangeOp::SetActivityAttributes { .. } => 10,
    }
}

const OP_KINDS: usize = 11;

/// A biased instance's context is its bias replayed on its deployment, for
/// every op kind: one committed ad-hoc op of each kind leaves the same
/// schema, id allocators included, as the live context after a snapshot
/// and restore, after a recovery from the journal alone, and under every
/// representation right after the commit. The `RemoveDataEdge` case is the
/// read `r` loses of what `w` writes.
#[test]
fn every_op_kinds_context_is_rebuilt_from_its_bias() {
    let mut b = SchemaBuilder::new("kinds");
    let x = b.data("x", ValueType::Int);
    let w = b.activity("w");
    b.write(w, x);
    let split = b.and_split();
    b.branch();
    let l = b.activity("l");
    b.branch();
    let m = b.activity("m");
    let n = b.activity("n");
    b.and_join();
    let r = b.activity("r");
    b.read(r, x);
    let z = b.activity("z");
    b.sync(l, n);
    let base = b.build().unwrap();

    let ops = [
        ChangeOp::SerialInsert {
            activity: NewActivity::named("s"),
            pred: r,
            succ: z,
        },
        ChangeOp::ParallelInsert {
            activity: NewActivity::named("p"),
            from: r,
            to: z,
        },
        ChangeOp::BranchInsert {
            activity: NewActivity::named("b"),
            pred: r,
            succ: z,
            guard: None,
        },
        ChangeOp::DeleteActivity { node: m },
        ChangeOp::MoveActivity {
            node: z,
            pred: w,
            succ: split,
        },
        ChangeOp::InsertSyncEdge { from: m, to: l },
        ChangeOp::DeleteSyncEdge { from: l, to: n },
        ChangeOp::AddDataElement {
            name: "y".into(),
            ty: ValueType::Int,
        },
        ChangeOp::AddDataEdge {
            node: z,
            data: x,
            mode: AccessMode::Read,
            optional: false,
        },
        ChangeOp::RemoveDataEdge {
            node: r,
            data: x,
            mode: AccessMode::Read,
        },
        ChangeOp::SetActivityAttributes {
            node: l,
            attrs: ActivityAttributes {
                role: Some("lead".into()),
                skippable: true,
                ..ActivityAttributes::default()
            },
        },
    ];
    let mut kinds: Vec<usize> = ops.iter().map(op_kind).collect();
    kinds.sort_unstable();
    assert_eq!(
        kinds,
        (0..OP_KINDS).collect::<Vec<_>>(),
        "one case per kind"
    );

    // Deploys `base`, creates an instance and commits `op` on it.
    let commit = |engine: &ProcessEngine, op: &ChangeOp| {
        let name = engine.deploy(base.clone()).unwrap();
        let id = engine.create_instance(&name).unwrap();
        adhoc(engine, id, op).unwrap_or_else(|e| panic!("{op}: {e}"));
        id
    };
    for op in &ops {
        let medium = MemoryBackend::new();
        let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
        let id = commit(&engine, op);
        assert!(engine.store.get(id).unwrap().is_biased(), "{op}");
        let live = engine.store.schema_of(&engine.repo, id).unwrap();

        let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
        let (recovered, _) = recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
        for (how, other) in [("snapshot", &restored), ("journal", &recovered)] {
            assert!(every_data_is_its_history(other), "{op} ({how})");
            let schema = other.store.schema_of(&other.repo, id).unwrap();
            assert_eq!(*schema, *live, "{op} after a restore from the {how}");
        }
        for strategy in [Representation::RedundantFree, Representation::Hybrid] {
            let store = InstanceStore::new(strategy);
            let engine = ProcessEngine::from_parts(SchemaRepository::new(), store, Arc::default());
            let id = commit(&engine, op);
            let schema = engine.store.schema_of(&engine.repo, id).unwrap();
            assert_eq!(*schema, *live, "{op} under {strategy:?}");
        }
    }
}

/// With no instance resident, a snapshot after 8 000 create → ad-hoc
/// change → remove cycles is no larger than after 1 000: it keeps counters
/// (whose digits 1 000 and 8 000 share), not the history of the changes.
#[test]
fn a_snapshot_does_not_grow_with_history() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let op = scenarios::fig1_i2_bias_op(&v1);
    let cycles = |n: usize| {
        for _ in 0..n {
            let id = engine.create_instance(&name).unwrap();
            adhoc(&engine, id, &op).unwrap();
            engine.remove_instance(id).unwrap();
        }
        let snap = engine.snapshot();
        assert!(snap.instances.is_empty());
        to_json(&snap).unwrap().len()
    };
    let after_1000 = cycles(1000);
    let after_8000 = cycles(7000);
    assert!(
        after_8000 <= after_1000,
        "{after_1000} B after 1 000 cycles, {after_8000} B after 8 000"
    );
}

/// A snapshot recording an instance id twice is refused: three records,
/// two sharing an id, are not two instances.
#[test]
fn a_snapshot_recording_an_instance_id_twice_is_corrupt() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    for _ in 0..3 {
        engine.create_instance(&name).unwrap();
    }
    let mut snap = engine.snapshot();
    snap.instances[2].id = snap.instances[1].id;
    let snap = from_json(&to_json(&snap).unwrap()).unwrap();
    let err = restore_with_txns(&snap).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    assert!(ProcessEngine::from_snapshot(&snap).is_err());
}

/// A snapshot recording a process type twice is refused, not restored as
/// one type.
#[test]
fn a_snapshot_recording_a_type_twice_is_corrupt() {
    let engine = ProcessEngine::new();
    engine.deploy(scenarios::order_process()).unwrap();
    let mut snap = engine.snapshot();
    snap.types.push(snap.types[0].clone());
    let snap = from_json(&to_json(&snap).unwrap()).unwrap();
    let err = restore_with_txns(&snap).unwrap_err();
    assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    assert!(ProcessEngine::from_snapshot(&snap).is_err());
}

/// A snapshot records a later version as the delta that made it, not as
/// a second schema: after eight one-op evolutions, each adding a data
/// element, a type's record has grown
/// by less than its version-1 schema encodes to, and a restore derives all
/// nine versions as they were.
#[test]
fn a_snapshot_records_a_later_version_as_its_delta() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let types_bytes = || {
        serde_json::to_string(&engine.snapshot().types)
            .unwrap()
            .len()
    };
    let (before, schema_bytes) = (types_bytes(), serde_json::to_string(&*v1).unwrap().len());
    for k in 1..=8 {
        let element = ChangeOp::AddDataElement {
            name: format!("d{k}"),
            ty: ValueType::Int,
        };
        assert_eq!(evolve(&engine, &name, &[element]).unwrap(), k + 1);
    }
    let grown = types_bytes() - before;
    assert!(
        grown < schema_bytes,
        "8 evolutions grew the type record by {grown} B; version 1 is {schema_bytes} B"
    );

    let snap = from_json(&to_json(&engine.snapshot()).unwrap()).unwrap();
    assert_eq!(snap.types[0].deltas.len(), 8);
    let restored = ProcessEngine::from_snapshot(&snap).unwrap();
    assert_eq!(restored.repo.latest_version(&name), Some(9));
    for v in 1..=9 {
        let live = engine.repo.deployed(&name, v).unwrap().schema;
        assert_eq!(
            *restored.repo.deployed(&name, v).unwrap().schema,
            *live,
            "V{v}"
        );
    }
}

/// A recorded delta is the only record of the version it made, so a
/// restore refuses one its replay does not reproduce: a delta naming an
/// id its operation did not allocate, and one whose operation anchors a
/// node the version before does not have.
#[test]
fn a_snapshot_recording_a_delta_its_replay_does_not_reproduce_is_corrupt() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    engine.create_instance(&name).unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1)]).unwrap();
    let snap = engine.snapshot();
    assert!(restore_with_txns(&snap).is_ok());

    let mut renumbered = snap.clone();
    renumbered.types[0].deltas[0].ops[0].added_nodes[0].0 += 100;
    let mut unanchored = snap;
    match &mut unanchored.types[0].deltas[0].ops[0].op {
        ChangeOp::SerialInsert { pred, .. } => *pred = NodeId(4242),
        op => panic!("{op}"),
    }
    assert!(!v1.has_node(NodeId(4242)));
    for (case, snap) in [("renumbered", renumbered), ("unanchored", unanchored)] {
        let snap = from_json(&to_json(&snap).unwrap()).unwrap();
        let err = restore_with_txns(&snap).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{case}: {err}");
        assert!(ProcessEngine::from_snapshot(&snap).is_err(), "{case}");
    }
}

/// A removed instance's id is not handed out again — not by the live
/// engine, not after a restore from its snapshot and not after a recovery
/// from a checkpoint whose journal no longer holds the removed instance.
#[test]
fn a_restored_engine_does_not_reuse_a_removed_id() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();
    let removed = engine.create_instance(&name).unwrap();
    engine.remove_instance(removed).unwrap();
    let snap = engine.checkpoint_with(|_| Ok(())).unwrap();
    let snap = from_json(&to_json(&snap).unwrap()).unwrap();

    let restored = ProcessEngine::from_snapshot(&snap).unwrap();
    let (recovered, _) = recover_from_segmented(Some(&snap), vec![Box::new(medium)]).unwrap();
    let live = engine.create_instance(&name).unwrap();
    assert!(live.raw() > removed.raw());
    for (how, other) in [("snapshot", &restored), ("checkpoint", &recovered)] {
        assert!(every_data_is_its_history(other), "{how}");
        let id = other.create_instance(&name).unwrap();
        assert_eq!(id, live, "after a restore from the {how}");
    }
}

/// A snapshot shares each instance with the store it was taken of, and is
/// exactly one revision of each: a drive, discrete commands, an ad-hoc
/// change, a migration hop and a removal after it change the live engine
/// and not the snapshot, which still encodes to the bytes it encoded to
/// when it was taken. A second engine restored from it while the first
/// keeps running shares the instances with both, and neither engine's
/// commands show on the other.
#[test]
fn a_snapshot_is_isolated_from_the_engines_that_share_it() {
    use adept_engine::EngineCommand;
    use adept_storage::{InstanceRecord, Snapshot};
    use adept_tests::worklist_full;
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(MemoryBackend::new())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let ids: Vec<_> = (0..8)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    for id in &ids {
        drive(&engine, *id, Some(1)).unwrap();
    }
    // A biased instance: its context sits in the store beside it.
    adhoc(&engine, ids[2], &scenarios::fig1_i2_bias_op(&v1)).unwrap();
    let collect = v1.node_by_name("collect data").unwrap().id;
    let start_complete = |engine: &ProcessEngine, id| {
        let start = EngineCommand::Start {
            instance: id,
            node: collect,
        };
        engine.submit(start).unwrap();
        let complete = EngineCommand::Complete {
            instance: id,
            node: collect,
            writes: vec![],
        };
        engine.submit(complete).unwrap();
    };
    let record = |snap: &Snapshot, id| -> Option<InstanceRecord> {
        snap.instances.iter().find(|r| r.id == id).cloned()
    };

    let snap = engine.snapshot();
    let taken = to_json(&snap).unwrap();
    let restored = ProcessEngine::from_snapshot(&snap).unwrap();
    assert!(every_data_is_its_history(&restored));

    // The first engine keeps running on the instances the snapshot holds.
    drive(&engine, ids[0], Some(1)).unwrap();
    start_complete(&engine, ids[1]);
    drive(&engine, ids[2], Some(1)).unwrap();
    adhoc(&engine, ids[3], &scenarios::fig1_i2_bias_op(&v1)).unwrap();
    engine.remove_instance(ids[4]).unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1)]).unwrap();
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 7, "{report}");
    assert_eq!(to_json(&snap).unwrap(), taken);
    assert_eq!(from_json(&taken).unwrap(), snap);
    assert_eq!(restored.snapshot().instances, snap.instances);

    // The live engine's next snapshot shows every change.
    let live = engine.snapshot();
    assert_eq!(record(&live, ids[4]), None);
    for id in ids.iter().filter(|id| **id != ids[4]) {
        let (now, then) = (record(&live, *id).unwrap(), record(&snap, *id).unwrap());
        assert_eq!(*now, engine.store.get(*id).unwrap());
        assert_eq!((then.version, now.version), (1, 2), "{id}");
        let writes = [2, 3, 2, 2, 0, 1, 1, 1][usize::try_from(id.raw() - 1).unwrap()];
        assert_eq!(now.rev, then.rev + writes, "{id}");
    }
    assert_ne!(
        record(&live, ids[0]).unwrap().state,
        record(&snap, ids[0]).unwrap().state
    );
    assert!(
        record(&live, ids[3]).unwrap().is_biased() && !record(&snap, ids[3]).unwrap().is_biased()
    );

    // The restored engine's commands stay on the restored engine.
    let live_json = to_json(&live).unwrap();
    let items = worklist_full(&engine);
    drive(&restored, ids[5], Some(2)).unwrap();
    start_complete(&restored, ids[6]);
    drive(&restored, ids[2], Some(1)).unwrap();
    adhoc(&restored, ids[7], &scenarios::fig1_i2_bias_op(&v1)).unwrap();
    restored.remove_instance(ids[0]).unwrap();
    assert_eq!(to_json(&engine.snapshot()).unwrap(), live_json);
    assert_eq!(worklist_full(&engine), items);
    assert_eq!(to_json(&snap).unwrap(), taken);
    let other = restored.snapshot();
    assert_eq!(record(&other, ids[0]), None);
    for (id, writes) in [
        (ids[5], 1),
        (ids[6], 2),
        (ids[2], 1),
        (ids[7], 1),
        (ids[4], 0),
    ] {
        let (now, then) = (record(&other, id).unwrap(), record(&snap, id).unwrap());
        assert_eq!((now.version, now.rev), (1, then.rev + writes), "{id}");
    }

    // And the first engine's later commands stay on the first.
    drive(&engine, ids[5], None).unwrap();
    assert_eq!(restored.snapshot(), other);
    assert!(every_data_is_its_history(&restored));
    assert!(engine.is_finished(ids[5]).unwrap());
    assert!(!restored.is_finished(ids[5]).unwrap());
}

/// The phases of a restart from a checkpoint and a journal tail, timed:
/// decoding the snapshot (`from_json`), restoring a repository and store
/// from it (`restore_with_txns`), and the audit a recovery runs after (a
/// recovery from the snapshot with an empty journal, less its restore) —
/// over the instances as the decoder left them on the heap, and over deep
/// copies of them made one after another — then decoding the journal the
/// residents wrote after the snapshot (drives and single verbs: starts,
/// failures, starts again), and replaying it (a recovery from the snapshot
/// and that tail, less the one with an empty journal and less the tail's
/// decode). Prints the medians of seven runs of each, and the codec's
/// throughput in MB/s: encoding the snapshot (`to_json`), decoding it and
/// decoding the journal tail; asserts only that every recovery audits
/// every instance and that the one with the tail is the live engine.
#[test]
#[ignore = "timing probe: run in release mode with --nocapture"]
fn restart_phase_split() {
    use adept_engine::EngineCommand;
    use std::time::Instant;
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let order = engine.deploy(scenarios::order_process()).unwrap();
    let clinical = engine.deploy(scenarios::clinical_pathway()).unwrap();
    let v1 = engine.repo.deployed(&order, 1).unwrap().schema;
    let bias = scenarios::fig1_i2_bias_op(&v1);
    let mut driver = adept_simgen::RandomDriver::new(1);
    let residents = 4_000;
    let mut ids = Vec::with_capacity(residents);
    for k in 0..residents {
        let id = engine
            .create_instance(if k % 4 == 0 { &clinical } else { &order })
            .unwrap();
        if k % 10 == 1 {
            adhoc(&engine, id, &bias).unwrap();
        }
        drive_with(&engine, id, &mut driver, Some(k % 7)).unwrap();
        ids.push(id);
    }
    let snapshot = engine.snapshot();
    let json = to_json(&snapshot).unwrap();
    // The tail: every resident starts an enabled activity by a verb (every
    // third one fails it and starts it again), and drives one more.
    for (k, id) in ids.iter().enumerate() {
        let peek = EngineCommand::Drive {
            instance: *id,
            max: Some(0),
        };
        if let Some(&node) = engine.submit(peek).unwrap().enabled.first() {
            let start = EngineCommand::Start {
                instance: *id,
                node,
            };
            engine.submit(start.clone()).unwrap();
            if k % 3 == 0 {
                let fail = EngineCommand::FailActivity {
                    instance: *id,
                    node,
                    reason: "retry".into(),
                };
                engine.submit(fail).unwrap();
                engine.submit(start).unwrap();
            }
        }
        drive_with(&engine, *id, &mut driver, Some(1)).unwrap();
    }
    let live = to_json(&engine.snapshot()).unwrap();
    let tail: Vec<String> = medium
        .read_log()
        .unwrap()
        .lines
        .into_iter()
        .filter(|line| wal::decode_entry(line).unwrap().seq > snapshot.wal_seq)
        .collect();
    let tail_bytes: usize = tail.iter().map(|l| l.len() + 1).sum();
    drop(engine);

    /// The median of seven runs of `f` on what `setup` made for it, in ms.
    fn ms<T>(mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
        let mut runs: Vec<f64> = (0..7)
            .map(|_| {
                let input = setup();
                let started = Instant::now();
                f(input);
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[3]
    }
    let journal = |lines: &[String]| {
        let medium = MemoryBackend::new();
        for line in lines {
            medium.append_line(line).unwrap();
        }
        vec![Box::new(medium) as Box<dyn StorageBackend>]
    };
    let encode = ms(|| (), |()| drop(to_json(&snapshot).unwrap()));
    let decode = ms(|| (), |()| drop(from_json(&json).unwrap()));
    let decoded = from_json(&json).unwrap();
    let mut copied = decoded.clone();
    for rec in &mut copied.instances {
        // Writing through a shared record copies the instance.
        let _ = &mut **rec;
    }
    for snap in [&decoded, &copied] {
        let (recovered, report) = recover_from_segmented(Some(snap), journal(&[])).unwrap();
        assert_eq!(report.audited, residents);
        assert!(report.divergent.is_empty());
        assert!(every_data_is_its_history(&recovered));
    }
    let (recovered, report) = recover_from_segmented(Some(&decoded), journal(&tail)).unwrap();
    assert_eq!(report.replayed, tail.len());
    assert!(report.divergent.is_empty());
    assert_eq!(to_json(&recovered.snapshot()).unwrap(), live);
    drop(recovered);
    let [as_decoded, deep_copied] = [&decoded, &copied].map(|snap| {
        let restore = ms(|| (), |()| drop(restore_with_txns(snap).unwrap()));
        let recover = ms(
            || journal(&[]),
            |empty| drop(recover_from_segmented(Some(snap), empty).unwrap()),
        );
        (restore, recover)
    });
    let tail_decode = ms(
        || (),
        |()| {
            for line in &tail {
                drop(wal::decode_entry(line).unwrap());
            }
        },
    );
    let with_tail = ms(
        || journal(&tail),
        |tail| drop(recover_from_segmented(Some(&decoded), tail).unwrap()),
    );
    let split = |(restore, recover): (f64, f64)| {
        format!("restore {restore:.1}, audit {:.1}", recover - restore)
    };
    println!(
        "{residents} residents, {} B of snapshot, ms: decode {decode:.1}; \
         as decoded: {}; deep-copied: {}",
        json.len(),
        split(as_decoded),
        split(deep_copied),
    );
    println!(
        "tail of {} records, {tail_bytes} B, ms: decode {tail_decode:.1}, replay {:.1} \
         (recovery with the tail {with_tail:.1})",
        tail.len(),
        with_tail - as_decoded.1 - tail_decode,
    );
    // Bytes per millisecond are thousands of bytes per second.
    let rate = |bytes: usize, ms: f64| bytes as f64 / ms / 1e3;
    println!(
        "MB/s: snapshot encode {:.0}, snapshot decode {:.0}, journal-tail decode {:.0}",
        rate(json.len(), encode),
        rate(json.len(), decode),
        rate(tail_bytes, tail_decode),
    );
}
