//! Change-transaction semantics, end to end:
//!
//! * **amortisation** — committing N staged operations performs exactly
//!   ONE full verification pass (asserted via the thread-local pass
//!   counter in `adept-verify`), versus one per op when each op is its
//!   own transaction;
//! * **atomicity** — a commit whose staged batch fails verification or
//!   compliance leaves instance, repository, bias, state and txn log
//!   bit-identical;
//! * **preview purity** — a dry run mutates nothing observable;
//! * **durability** — committed transactions land in the journal, each in
//!   the line of its change, and their numbering survives
//!   snapshot/restore.

use adept_core::{ChangeError, ChangeOp, NewActivity};
use adept_engine::{EngineError, EngineEvent, ProcessEngine};
use adept_model::AccessMode;
use adept_simgen::scenarios;
use adept_storage::wal::decode_entry;
use adept_storage::{
    restore_with_txns, snapshot_with_txns, MemoryBackend, StorageBackend, TxnRecord, TxnTarget,
    WalRecord,
};
use adept_tests::{adhoc, drive, evolve};
use adept_verify::verification_passes;
use std::sync::Arc;

/// The Fig. 1 order process with a freshly created instance.
fn world() -> (ProcessEngine, String, adept_model::InstanceId) {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    (engine, name, id)
}

/// [`world`] on a durable engine journaling to the returned medium.
fn durable_world() -> (
    ProcessEngine,
    MemoryBackend,
    String,
    adept_model::InstanceId,
) {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    (engine, medium, name, id)
}

/// The journal's records of its `ChangeCommitted` and `Evolved` lines, in
/// journal order.
fn journaled_txns(medium: &MemoryBackend) -> Vec<(WalRecord, TxnRecord)> {
    let lines = medium.read_log().unwrap().lines;
    let entries = lines.iter().map(|line| decode_entry(line).unwrap().record);
    entries
        .filter_map(|record| match &record {
            WalRecord::ChangeCommitted { txn, .. } | WalRecord::Evolved { txn, .. } => {
                let txn = txn.clone();
                Some((record, txn))
            }
            _ => None,
        })
        .collect()
}

/// The `TxnCommitted` events the monitor holds.
fn committed(engine: &ProcessEngine) -> usize {
    let events = engine.monitor.events();
    let commits = events
        .iter()
        .filter(|(_, e)| matches!(e, EngineEvent::TxnCommitted { .. }));
    commits.count()
}

/// Four independent serial inserts along the order process spine.
fn four_ops(schema: &adept_model::ProcessSchema) -> Vec<ChangeOp> {
    let pairs: [(&str, Option<&str>); 4] = [
        ("get order", Some("collect data")),
        ("compose order", Some("pack goods")),
        ("pack goods", None),
        ("deliver goods", None),
    ];
    let mut ops = Vec::new();
    let mut k = 0;
    for (pred, succ) in pairs.iter().map(|(p, s)| (*p, *s)) {
        let p = schema.node_by_name(pred).unwrap().id;
        let s = match succ {
            Some(n) => schema.node_by_name(n).unwrap().id,
            None => match schema.sole_control_successor(p) {
                Some(s) => s,
                None => continue,
            },
        };
        k += 1;
        ops.push(ChangeOp::SerialInsert {
            activity: NewActivity::named(format!("staged{k}")),
            pred: p,
            succ: s,
        });
    }
    ops
}

#[test]
fn committing_n_ops_runs_exactly_one_verification_pass() {
    let (engine, _name, id) = world();
    let v1 = engine.repo.deployed(&_name, 1).unwrap();
    let ops = four_ops(&v1.schema);
    assert!(ops.len() >= 3, "need a real batch");

    let mut session = engine.begin_change(id).unwrap();
    let before = verification_passes();
    for op in &ops {
        session.stage(op).unwrap();
    }
    assert_eq!(verification_passes(), before, "staging never verifies");
    let receipt = session.commit().unwrap();
    assert_eq!(
        verification_passes(),
        before + 1,
        "a commit of {} ops pays exactly one verification pass",
        receipt.ops
    );
    assert_eq!(receipt.ops, ops.len());

    // One transaction per op pays one pass per op for the same batch.
    let (engine2, name2, id2) = world();
    let v1b = engine2.repo.deployed(&name2, 1).unwrap();
    let before = verification_passes();
    for op in four_ops(&v1b.schema) {
        adhoc(&engine2, id2, &op).unwrap();
    }
    assert_eq!(
        verification_passes(),
        before + ops.len() as u64,
        "per-op application verifies once per op"
    );
}

#[test]
fn evolution_commit_runs_exactly_one_verification_pass() {
    let (engine, name, _id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let mut evolution = engine.begin_evolution(&name).unwrap();
    let before = verification_passes();
    for op in four_ops(&v1.schema) {
        evolution.stage(&op).unwrap();
    }
    assert_eq!(verification_passes(), before);
    let receipt = evolution.commit().unwrap();
    assert_eq!(verification_passes(), before + 1);
    assert_eq!(receipt.new_version, Some(2));
    assert_eq!(engine.repo.latest_version(&name), Some(2));
    // The recorded delta replays on migration like an evolve() delta.
    let report = engine.migrate_all(&name, &Default::default(), 1).unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
}

/// Builds a schema where a staged batch passes every per-op structural
/// precondition but the composed overlay fails full verification: the
/// inserted activity mandatorily reads a data element that is only
/// written downstream.
fn deferred_failure_world() -> (ProcessEngine, String, adept_model::InstanceId) {
    let mut b = adept_model::SchemaBuilder::new("deferred");
    let d = b.data("late", adept_model::ValueType::Int);
    b.activity("a");
    let c = b.activity("c");
    b.write(c, d);
    let engine = ProcessEngine::new();
    let name = engine.deploy(b.build().unwrap()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    (engine, name, id)
}

#[test]
fn failed_commit_is_observably_side_effect_free() {
    let (engine, name, id) = deferred_failure_world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let a = v1.schema.node_by_name("a").unwrap().id;
    let c = v1.schema.node_by_name("c").unwrap().id;
    let d = v1.schema.data_by_name("late").unwrap().id;

    let inst_before = engine.store.get(id).unwrap();
    let schema_before = engine.store.schema_of(&engine.repo, id).unwrap();

    let mut session = engine.begin_change(id).unwrap();
    // Op 1 is fine on its own; op 2 makes the batch fail the (single,
    // commit-time) verification pass.
    let x = session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: a,
            succ: c,
        })
        .unwrap()
        .inserted_activity()
        .unwrap();
    session
        .stage(&ChangeOp::AddDataEdge {
            node: x,
            data: d,
            mode: AccessMode::Read,
            optional: false,
        })
        .unwrap();
    let err = session.commit().unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Change(ChangeError::PostconditionViolated(_))
        ),
        "{err}"
    );

    // Bit-identical world: bias, state, version, resolved schema, log.
    let inst_after = engine.store.get(id).unwrap();
    assert_eq!(inst_after.bias, inst_before.bias);
    assert_eq!(inst_after.state, inst_before.state);
    assert_eq!(inst_after.version, inst_before.version);
    let schema_after = engine.store.schema_of(&engine.repo, id).unwrap();
    assert_eq!(*schema_after, *schema_before);
    assert_eq!(committed(&engine), 0, "failed commits are not logged");
    assert_eq!(engine.repo.latest_version(&name), Some(1));

    // The instance still executes to completion.
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
}

#[test]
fn failed_evolution_commit_leaves_repository_bit_identical() {
    let (engine, name, _id) = deferred_failure_world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let a = v1.schema.node_by_name("a").unwrap().id;
    let c = v1.schema.node_by_name("c").unwrap().id;
    let d = v1.schema.data_by_name("late").unwrap().id;

    let types_before = engine.snapshot().types;
    let mut evolution = engine.begin_evolution(&name).unwrap();
    let x = evolution
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: a,
            succ: c,
        })
        .unwrap()
        .inserted_activity()
        .unwrap();
    evolution
        .stage(&ChangeOp::AddDataEdge {
            node: x,
            data: d,
            mode: AccessMode::Read,
            optional: false,
        })
        .unwrap();
    assert!(evolution.commit().is_err());
    assert_eq!(
        engine.repo.latest_version(&name),
        Some(1),
        "no partial version"
    );
    assert_eq!(engine.snapshot().types, types_before);
    assert!(engine.repo.delta_between(&name, 1).is_none());
    let still = engine.repo.deployed(&name, 1).unwrap();
    assert!(Arc::ptr_eq(&still.schema, &v1.schema));
    assert_eq!(committed(&engine), 0);
}

#[test]
fn preview_mutates_nothing_observable() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    drive(&engine, id, Some(1)).unwrap();

    let inst_before = engine.store.get(id).unwrap();
    let events_before = engine.monitor.len();

    let mut session = engine.begin_change(id).unwrap();
    for op in four_ops(&v1.schema) {
        session.stage(&op).unwrap();
    }
    let p1 = session.preview().unwrap();
    let p2 = session.preview().unwrap();
    assert!(p1.is_committable(), "{p1}");
    assert_eq!(p1.per_op.len(), p2.per_op.len(), "previewing is repeatable");

    // Nothing observable moved: instance, repository, monitor, txn log.
    let inst_after = engine.store.get(id).unwrap();
    assert_eq!(inst_after.bias, inst_before.bias);
    assert_eq!(inst_after.state, inst_before.state);
    assert_eq!(engine.repo.latest_version(&name), Some(1));
    assert_eq!(
        engine.monitor.len(),
        events_before,
        "preview records no events"
    );
    assert_eq!(committed(&engine), 0);

    // Aborting after previewing is equally free (only the abort event).
    session.abort();
    assert_eq!(engine.monitor.len(), events_before + 1);
    assert!(matches!(
        engine.monitor.events().last().unwrap().1,
        EngineEvent::TxnAborted { .. }
    ));
    let inst_final = engine.store.get(id).unwrap();
    assert_eq!(inst_final.bias, inst_before.bias);
    assert_eq!(inst_final.state, inst_before.state);
}

#[test]
fn preview_reports_compliance_conflicts_per_op() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    drive(&engine, id, None).unwrap(); // finished
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;

    let mut session = engine.begin_change(id).unwrap();
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("too late"),
            pred: get,
            succ: collect,
        })
        .unwrap();
    let p = session.preview().unwrap();
    assert!(!p.is_committable());
    assert!(p.verification.is_correct(), "structurally fine");
    assert!(!p.compliance.as_ref().unwrap().is_compliant());
    assert_eq!(p.per_op.len(), 1);
    assert!(!p.per_op[0].compliance.as_ref().unwrap().is_compliant());

    // And the commit is rejected with the same conflict, side-effect free.
    let err = session.commit().unwrap_err();
    assert!(matches!(
        err,
        EngineError::Change(ChangeError::StatePrecondition { .. })
    ));
    assert!(!engine.store.get(id).unwrap().is_biased());
}

#[test]
fn concurrent_instance_change_is_rejected_at_commit() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;

    let mut session = engine.begin_change(id).unwrap();
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("mine"),
            pred: get,
            succ: collect,
        })
        .unwrap();

    // Another actor commits first.
    adhoc(
        &engine,
        id,
        &ChangeOp::InsertSyncEdge {
            from: v1.schema.node_by_name("confirm order").unwrap().id,
            to: v1.schema.node_by_name("compose order").unwrap().id,
        },
    )
    .unwrap();

    let err = session.commit().unwrap_err();
    assert!(
        matches!(&err, EngineError::Change(ChangeError::Precondition(m)) if m.contains("concurrent")),
        "{err}"
    );
    // Only the winner's change is visible.
    let inst = engine.store.get(id).unwrap();
    assert_eq!(inst.bias.len(), 1);
    assert_eq!(committed(&engine), 1);
}

#[test]
fn concurrent_evolution_is_rejected_at_commit() {
    let (engine, name, _id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();

    let mut loser = engine.begin_evolution(&name).unwrap();
    loser.stage(&scenarios::fig1_insert_op(&v1.schema)).unwrap();

    // The winner commits a different evolution in between.
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();

    let err = loser.commit().unwrap_err();
    assert!(
        matches!(&err, EngineError::Change(ChangeError::Precondition(m)) if m.contains("concurrent")),
        "{err}"
    );
    assert_eq!(
        engine.repo.latest_version(&name),
        Some(2),
        "only the winner landed"
    );
}

#[test]
fn unstage_last_rolls_back_staged_work() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;

    let mut session = engine.begin_change(id).unwrap();
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("keep"),
            pred: get,
            succ: collect,
        })
        .unwrap();
    let keep = session.staged()[0].rec.inserted_activity().unwrap();
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("discard"),
            pred: keep,
            succ: collect,
        })
        .unwrap();
    assert_eq!(session.len(), 2);
    session.unstage_last().unwrap();
    assert_eq!(session.len(), 1);

    let receipt = session.commit().unwrap();
    assert_eq!(receipt.ops, 1);
    let schema = engine.store.schema_of(&engine.repo, id).unwrap();
    assert!(schema.node_by_name("keep").is_some());
    assert!(schema.node_by_name("discard").is_none());
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
}

#[test]
fn txn_log_records_commits_and_survives_persistence() {
    let (engine, medium, name, id) = durable_world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;

    let mut session = engine.begin_change(id).unwrap();
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("audit"),
            pred: get,
            succ: collect,
        })
        .unwrap();
    session.commit().unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();

    let records: Vec<TxnRecord> = journaled_txns(&medium)
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].seq, 1);
    assert!(matches!(records[0].target, TxnTarget::Instance(i) if i == id));
    assert_eq!(records[0].ops.len(), 1);
    assert!(
        matches!(&records[1].target, TxnTarget::Type { new_version: 2, .. }),
        "{:?}",
        records[1].target
    );
    assert_eq!(engine.wal().txns(), 2);

    // Snapshot + restore keeps the numbering (and everything else).
    let snap = snapshot_with_txns(&engine.repo, &engine.store, &engine.wal().txns());
    let json = adept_storage::to_json(&snap).unwrap();
    let parsed = adept_storage::from_json(&json).unwrap();
    assert_eq!(parsed, snap);
    let (repo2, store2, txns2) = restore_with_txns(&parsed).unwrap();
    assert_eq!(txns2, 2);
    let engine2 = ProcessEngine::from_parts(repo2, store2, Arc::default());
    engine2.wal().advance_txns(txns2);
    // The restored engine keeps transacting with continuing sequence.
    let id2 = engine2.create_instance(&name).unwrap();
    let mut s = engine2.begin_change(id2).unwrap();
    let v2 = engine2.repo.deployed(&name, 2).unwrap();
    s.stage(&ChangeOp::SerialInsert {
        activity: NewActivity::named("again"),
        pred: v2.schema.node_by_name("get order").unwrap().id,
        succ: v2.schema.node_by_name("collect data").unwrap().id,
    })
    .unwrap();
    let receipt = s.commit().unwrap();
    assert_eq!(receipt.seq, 3, "sequence continues after restore");
}

#[test]
fn committed_txn_events_reach_the_monitor() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let mut session = engine.begin_change(id).unwrap();
    for op in four_ops(&v1.schema) {
        session.stage(&op).unwrap();
    }
    session.commit().unwrap();
    let events = engine.monitor.events();
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, EngineEvent::TxnCommitted { ops, .. } if *ops >= 3)));
    // The committed instance still runs to completion with all staged
    // activities executed.
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
    let schema = engine.store.schema_of(&engine.repo, id).unwrap();
    assert!(schema.node_by_name("staged1").is_some());
}

#[test]
fn undo_writes_its_own_txn_record() {
    let (engine, medium, name, id) = durable_world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let op = four_ops(&v1.schema).remove(0);
    let mut session = engine.begin_change(id).unwrap();
    session.stage(&op).unwrap();
    session.commit().unwrap();
    assert_eq!(journaled_txns(&medium).len(), 1);

    engine.undo_ad_hoc_change(id).unwrap();
    let records = journaled_txns(&medium);
    assert_eq!(records.len(), 2, "the undo is a logged transaction");
    let (line, undo) = &records[1];
    assert_eq!(undo.seq, 2);
    assert_eq!(undo.target, TxnTarget::Instance(id));
    assert_eq!(undo.ops.len(), 1);
    // The undo's journaled image carries the real bias: op then its
    // inverse => empty.
    let WalRecord::ChangeCommitted { record, .. } = line else {
        panic!("an undo journals a change: {line:?}");
    };
    assert!(record.bias.is_empty());
    assert!(!engine.store.get(id).unwrap().is_biased());
}

#[test]
fn preview_reports_concurrent_modification() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let op = four_ops(&v1.schema).remove(0);

    let stale = engine.begin_change(id).unwrap();
    // A second session commits while the first is still open.
    let mut racer = engine.begin_change(id).unwrap();
    racer.stage(&op).unwrap();
    racer.commit().unwrap();

    // The stale session's dry run must surface the conflict, exactly as
    // its commit would — not return verdicts mixing old schema with the
    // new marking.
    let err = stale.preview().unwrap_err();
    assert!(
        err.to_string().contains("concurrent change"),
        "unexpected error: {err}"
    );
}

#[test]
fn evolution_preview_reports_lost_base_version_race() {
    let (engine, name, _id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let op = four_ops(&v1.schema).remove(0);

    let stale = engine.begin_evolution(&name).unwrap();
    let mut racer = engine.begin_evolution(&name).unwrap();
    racer.stage(&op).unwrap();
    racer.commit().unwrap();

    let err = stale.preview().unwrap_err();
    assert!(
        err.to_string().contains("concurrent evolution"),
        "unexpected error: {err}"
    );
}

// ---------------------------------------------------------------------
// One verification per overlay, no analysis of a schema made by ops from an
// analysed one, and a remembered verdict that cannot go stale
// ---------------------------------------------------------------------

/// `(verification passes, block analyses)` this thread has performed.
fn passes() -> (u64, u64) {
    (verification_passes(), adept_verify::analysis_passes())
}

/// What `work` cost, in `(verification passes, block analyses)`.
fn cost_of<T>(work: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = passes();
    let out = work();
    let after = passes();
    ((after.0 - before.0, after.1 - before.1), out)
}

#[test]
fn a_previewed_commit_verifies_its_overlay_once_and_analyses_nothing() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let mut session = engine.begin_change(id).unwrap();
    let (cost, receipt) = cost_of(|| {
        for op in four_ops(&v1.schema) {
            session.stage(&op).unwrap();
        }
        assert!(session.preview().unwrap().is_committable());
        assert!(session.preview().unwrap().is_committable());
        session.commit().unwrap()
    });
    assert_eq!(cost, (1, 0), "stage x N -> preview x 2 -> commit");
    assert!(receipt.ops >= 3);
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
}

#[test]
fn a_deploy_analyses_once_and_an_evolution_commit_analyses_nothing() {
    let (cost, (engine, name, _id)) = cost_of(world);
    assert_eq!(
        cost,
        (1, 1),
        "a deploy verifies and analyses version 1 once"
    );

    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let mut evolution = engine.begin_evolution(&name).unwrap();
    let (cost, receipt) = cost_of(|| {
        for op in four_ops(&v1.schema) {
            evolution.stage(&op).unwrap();
        }
        assert!(evolution.preview().unwrap().is_committable());
        evolution.commit().unwrap()
    });
    assert_eq!(
        cost,
        (1, 0),
        "stage x N -> preview -> commit of an evolution"
    );
    assert_eq!(receipt.new_version, Some(2));
}

#[test]
fn a_biased_migration_hop_verifies_its_target_once_and_analyses_nothing() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let ops = four_ops(&v1.schema);
    adhoc(&engine, id, &ops[0]).unwrap();
    evolve(&engine, &name, &[ops[1].clone()]).unwrap();
    let (cost, report) = cost_of(|| engine.migrate_all(&name, &Default::default(), 1).unwrap());
    assert_eq!(report.migrated(), 1, "{report}");
    assert_eq!(cost, (1, 0), "one biased instance, one hop");
    assert!(engine.store.get(id).unwrap().is_biased());
}

#[test]
fn an_adaptation_repair_verifies_once_and_analyses_nothing() {
    use adept_adapt::{AdaptationConfig, AdaptationLoop, RetryThenSkip};
    use adept_engine::EngineCommand;
    let engine = ProcessEngine::new();
    let name = engine.deploy(adept_simgen::exception_scenario()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let schema = engine.repo.deployed(&name, 1).unwrap().schema;
    let node = |name: &str| schema.node_by_name(name).unwrap().id;
    let mut looper =
        AdaptationLoop::new(&engine, AdaptationConfig::default()).with_policy(RetryThenSkip {
            max_retries: 0,
            base_delay: 1,
        });
    let (instance, intake, process) = (id, node("intake"), node("process"));
    let commands = [
        EngineCommand::Start {
            instance,
            node: intake,
        },
        EngineCommand::Complete {
            instance,
            node: intake,
            writes: vec![],
        },
        EngineCommand::Start {
            instance,
            node: process,
        },
        EngineCommand::FailActivity {
            instance,
            node: process,
            reason: "broken".into(),
        },
    ];
    for command in commands {
        engine.submit(command).unwrap();
    }

    let (cost, report) = cost_of(|| looper.run_until_quiescent(8));
    assert_eq!(report.committed, 1, "the skip committed");
    assert_eq!(cost, (1, 0), "one repair is one stage -> preview -> commit");
}

#[test]
fn an_undo_verifies_once_and_analyses_nothing() {
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let ops = four_ops(&v1.schema);
    adhoc(&engine, id, &ops[0]).unwrap();
    adhoc(&engine, id, &ops[1]).unwrap();
    for left in [1, 0] {
        let (cost, undone) = cost_of(|| engine.undo_ad_hoc_change(id));
        undone.unwrap();
        assert_eq!(cost, (1, 0), "stage the inverse -> verify -> compile");
        assert_eq!(engine.store.get(id).unwrap().bias.len(), left);
    }
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
}

/// A stage that fails part-way — an insert whose activity reads a data
/// element the schema does not declare fails after its node and edges went
/// in — leaves the overlay as it was, ids and id allocation included, also
/// behind staged block inserts, whose recorded ids the rebuild replays.
#[test]
fn a_failed_stage_leaves_the_overlay_and_its_ids_untouched() {
    use adept_core::ChangeTxn;
    use adept_model::{DataId, EdgeId, NodeId};
    let base = scenarios::order_process();
    let node = |name: &str| base.node_by_name(name).unwrap().id;
    let deployed = adept_state::Execution::new(&base).unwrap();
    let mut txn = ChangeTxn::begin_ad_hoc(&deployed);
    txn.stage(&ChangeOp::ParallelInsert {
        activity: NewActivity::named("print label"),
        from: node("compose order"),
        to: node("pack goods"),
    })
    .unwrap();
    txn.stage(&ChangeOp::BranchInsert {
        activity: NewActivity::named("vet customer"),
        pred: node("get order"),
        succ: node("collect data"),
        guard: None,
    })
    .unwrap();
    let before = txn.working().clone();
    let staged = txn.staged().to_vec();

    let unknown = || NewActivity::named("unsupplied").reading(DataId(999));
    let deliver = node("deliver goods");
    let end = before.sole_control_successor(deliver).unwrap();
    let confirm = node("confirm order");
    let failing = [
        ChangeOp::SerialInsert {
            activity: unknown(),
            pred: deliver,
            succ: end,
        },
        ChangeOp::BranchInsert {
            activity: unknown(),
            pred: deliver,
            succ: end,
            guard: None,
        },
        ChangeOp::ParallelInsert {
            activity: unknown(),
            from: confirm,
            to: confirm,
        },
    ];
    for op in &failing {
        let err = txn.stage(op).unwrap_err();
        assert!(err.to_string().contains("unknown data"), "{op}: {err}");
        assert_eq!(txn.working(), &before, "{op}");
        assert_eq!(txn.staged(), &staged[..], "{op}");
    }

    // The next stage allocates what it would have without the failures.
    let rec = txn
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("notify"),
            pred: deliver,
            succ: end,
        })
        .unwrap();
    assert_eq!(rec.added_nodes, vec![NodeId(16_777_222)]);
    assert_eq!(
        rec.added_edges,
        vec![EdgeId(16_777_227), EdgeId(16_777_228)]
    );
    txn.unstage_last().unwrap();
    assert_eq!(
        txn.working(),
        &before,
        "unstaging replays the block inserts' ids"
    );
}

#[test]
fn a_biased_hop_whose_bias_cannot_reapply_is_structural_and_untouched() {
    use adept_core::ConflictKind;
    let (engine, name, id) = world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let op = four_ops(&v1.schema).remove(0);
    adhoc(&engine, id, &op).unwrap();
    // The type takes the edge the bias was inserted on.
    evolve(&engine, &name, &[op]).unwrap();
    let before = engine.store.get(id).unwrap();

    let report = engine.migrate_all(&name, &Default::default(), 1).unwrap();
    assert_eq!(report.conflicts(ConflictKind::Structural), 1, "{report}");
    let reason = report.outcomes[0].verdict.to_string();
    assert!(reason.contains("cannot be re-applied"), "{reason}");
    assert_eq!(engine.store.get(id).unwrap(), before);
}

#[test]
fn a_verdict_does_not_outlive_the_overlay_it_judged() {
    let (engine, name, id) = deferred_failure_world();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let a = v1.schema.node_by_name("a").unwrap().id;
    let c = v1.schema.node_by_name("c").unwrap().id;
    let late = v1.schema.data_by_name("late").unwrap().id;
    let harmless = ChangeOp::SerialInsert {
        activity: NewActivity::named("harmless"),
        pred: a,
        succ: c,
    };
    // Only the full verification rejects this one: a mandatory read of a
    // data element written downstream.
    let unsupplied = |pred| ChangeOp::SerialInsert {
        activity: NewActivity::named("x").reading(late),
        pred,
        succ: c,
    };

    // Preview passes, then the overlay changes: the commit judges the new
    // overlay, not the remembered one.
    let mut session = engine.begin_change(id).unwrap();
    let staged = session.stage(&harmless).unwrap();
    assert!(session.preview().unwrap().is_committable());
    let inserted = staged.inserted_activity().unwrap();
    session.stage(&unsupplied(inserted)).unwrap();
    let err = session.commit().unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Change(ChangeError::PostconditionViolated(_))
        ),
        "{err}"
    );
    assert!(!engine.store.get(id).unwrap().is_biased());

    // Preview fails, then the offending op is unstaged: the commit succeeds.
    let mut session = engine.begin_change(id).unwrap();
    let staged = session.stage(&harmless).unwrap();
    let inserted = staged.inserted_activity().unwrap();
    session.stage(&unsupplied(inserted)).unwrap();
    let preview = session.preview().unwrap();
    assert!(!preview.verification.is_correct(), "{preview}");
    session.unstage_last().unwrap();
    assert_eq!(session.commit().unwrap().ops, 1);
    assert!(engine.store.get(id).unwrap().is_biased());
}

#[test]
fn a_cloned_transaction_keeps_its_verdict() {
    let base = scenarios::order_process();
    let ops = four_ops(&base);
    let deployed = adept_state::Execution::new(base).unwrap();
    let mut txn = adept_core::ChangeTxn::begin(&deployed);
    for op in &ops {
        txn.stage(op).unwrap();
    }
    let (cost, ()) = cost_of(|| assert!(txn.verify().is_correct()));
    assert_eq!(cost, (1, 0));
    let (cost, committed) = cost_of(|| {
        let copy = txn.clone();
        assert!(copy.preview().is_committable());
        copy.commit_schema().unwrap()
    });
    assert_eq!(cost, (0, 0), "the copy owns a copy of the same overlay");
    assert_eq!(committed.delta.len(), ops.len());
    // The original is still whole, and staging on it drops only its own.
    txn.stage(&ChangeOp::SerialInsert {
        activity: NewActivity::named("one more"),
        pred: committed.base.start_node(),
        succ: committed.base.node_by_name("get order").unwrap().id,
    })
    .unwrap();
    let (cost, _) = cost_of(|| txn.commit_schema().unwrap());
    assert_eq!(cost, (1, 0));
}
