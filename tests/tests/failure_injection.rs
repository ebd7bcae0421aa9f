//! Failure injection: every illegal API sequence must produce a clean
//! error — never a panic, never silent corruption. After each rejected
//! operation the world must still verify and execute.

use adept_core::{ChangeError, ChangeOp, ConflictKind, MigrationOptions, NewActivity};
use adept_engine::{recovery, EngineCommand, EngineError, ProcessEngine};
use adept_model::{DataId, InstanceId, NodeId, Value};
use adept_simgen::scenarios;
use adept_state::{DefaultDriver, Execution, RuntimeError};
use adept_storage::to_json;
use adept_tests::{adhoc, drive, evolve, ArmableBackend};
use adept_verify::is_correct;

#[test]
fn lifecycle_misuse_is_rejected_cleanly() {
    let schema = scenarios::order_process();
    let ex = Execution::new(&schema).unwrap();
    let mut st = ex.init().unwrap();
    let get = schema.node_by_name("get order").unwrap().id;
    let collect = schema.node_by_name("collect data").unwrap().id;

    // Complete before start.
    assert!(matches!(
        ex.complete_activity(&mut st, get, vec![]),
        Err(RuntimeError::NotRunning(_))
    ));
    // Start a not-yet-activated activity.
    assert!(matches!(
        ex.start_activity(&mut st, collect),
        Err(RuntimeError::NotActivatable(_))
    ));
    // Start a silent node.
    let split = schema
        .nodes()
        .find(|n| n.kind == adept_model::NodeKind::AndSplit)
        .unwrap()
        .id;
    assert!(matches!(
        ex.start_activity(&mut st, split),
        Err(RuntimeError::NotAnActivity(_))
    ));
    // Double start.
    ex.start_activity(&mut st, get).unwrap();
    assert!(matches!(
        ex.start_activity(&mut st, get),
        Err(RuntimeError::NotActivatable(_))
    ));
    // Decide where nothing is pending.
    assert!(matches!(
        ex.decide_xor(&mut st, split, collect),
        Err(RuntimeError::NoDecisionPending(_))
    ));
    // Unknown data element in completion writes.
    let err = ex
        .complete_activity(&mut st, get, vec![(DataId(999), Value::Int(1))])
        .unwrap_err();
    assert!(matches!(err, RuntimeError::UndeclaredWrite { .. }));
    // The instance is still usable after all the rejections.
    let amount = schema.data_by_name("amount").unwrap().id;
    ex.complete_activity(&mut st, get, vec![(amount, Value::Int(7))])
        .unwrap();
    ex.run(&mut st, &mut DefaultDriver, None).unwrap();
    assert!(ex.is_finished(&st));
}

#[test]
fn engine_rejects_unknown_entities() {
    let engine = ProcessEngine::new();
    assert!(matches!(
        engine.create_instance("no such type"),
        Err(EngineError::NotFound(_))
    ));
    let name = engine.deploy(scenarios::order_process()).unwrap();
    assert!(matches!(
        engine.submit(EngineCommand::Start {
            instance: InstanceId(999),
            node: NodeId(0),
        }),
        Err(EngineError::NotFound(_))
    ));
    assert!(evolve(&engine, "ghost", &[]).is_err());
    let id = engine.create_instance(&name).unwrap();
    // Ad-hoc change referencing nodes that do not exist.
    let err = adhoc(
        &engine,
        id,
        &ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: NodeId(400),
            succ: NodeId(401),
        },
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::Change(_)));
    // The instance still runs.
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
}

#[test]
fn rejected_changes_leave_no_trace() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let deliver = v1.schema.node_by_name("deliver goods").unwrap().id;

    // Non-adjacent serial insert: precondition failure.
    let err = adhoc(
        &engine,
        id,
        &ChangeOp::SerialInsert {
            activity: NewActivity::named("bad"),
            pred: get,
            succ: deliver,
        },
    )
    .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Change(ChangeError::Precondition(_))
    ));
    let inst = engine.store.get(id).unwrap();
    assert!(
        !inst.is_biased(),
        "failed change must not bias the instance"
    );
    let schema = engine.store.schema_of(&engine.repo, id).unwrap();
    assert!(schema.node_by_name("bad").is_none());
    assert!(is_correct(&schema));
}

#[test]
fn migration_of_type_without_new_version_is_noop() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    for _ in 0..5 {
        engine.create_instance(&name).unwrap();
    }
    let report = engine.migrate_all(&name, &Default::default(), 2).unwrap();
    assert_eq!(report.total(), 5);
    assert_eq!(
        report.migrated(),
        5,
        "already on latest: trivially compliant"
    );
    assert_eq!(report.from_version, 1);
    assert_eq!(report.to_version, 1);
}

#[test]
fn evolution_with_conflicting_ops_rolls_back() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let confirm = v1.schema.node_by_name("confirm order").unwrap().id;
    let compose = v1.schema.node_by_name("compose order").unwrap().id;
    // Second op of the batch fails (opposing sync edges): no new version
    // may be created.
    let err = evolve(
        &engine,
        &name,
        &[
            ChangeOp::InsertSyncEdge {
                from: confirm,
                to: compose,
            },
            ChangeOp::InsertSyncEdge {
                from: compose,
                to: confirm,
            },
        ],
    );
    assert!(err.is_err());
    assert_eq!(
        engine.repo.latest_version(&name),
        Some(1),
        "no partial version"
    );
}

#[test]
fn completed_instances_reject_all_structural_changes() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, None).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let pack = v1.schema.node_by_name("pack goods").unwrap().id;
    let deliver = v1.schema.node_by_name("deliver goods").unwrap().id;
    let end = v1.schema.end_node();
    // Deleting or moving executed activities is a state-precondition error.
    for op in [
        ChangeOp::DeleteActivity { node: deliver },
        ChangeOp::MoveActivity {
            node: pack,
            pred: deliver,
            succ: end,
        },
    ] {
        let err = adhoc(&engine, id, &op).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Change(ChangeError::StatePrecondition { .. })
            ),
            "{op}: got unexpected {err}"
        );
    }
    // Inserting before the *end node* of a completed instance, however, is
    // trace-compliant (the end node carries no history events): it
    // re-opens the instance, which must then execute the late activity.
    adhoc(
        &engine,
        id,
        &ChangeOp::SerialInsert {
            activity: NewActivity::named("late addendum"),
            pred: deliver,
            succ: end,
        },
    )
    .unwrap();
    assert!(!engine.is_finished(id).unwrap(), "instance re-opened");
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
    let schema = engine.store.schema_of(&engine.repo, id).unwrap();
    let late = schema.node_by_name("late addendum").unwrap().id;
    assert!(engine
        .store
        .get(id)
        .unwrap()
        .state
        .history
        .started_activities()
        .contains(&late));
}

/// Journal failure is atomic for **every** mutation kind: while the
/// backend refuses appends each operation fails, and snapshot bytes,
/// transaction log and worklist stay exactly what they were — checked,
/// recorded and visible, or no trace.
#[test]
fn journal_failure_leaves_no_trace_for_any_mutation_kind() {
    let backend = ArmableBackend::default();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(backend.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let node = |label: &str| v1.schema.node_by_name(label).unwrap().id;
    let insert = |label: &str, pred: &str, succ: &str| ChangeOp::SerialInsert {
        activity: NewActivity::named(label),
        pred: node(pred),
        succ: node(succ),
    };
    let plain = engine.create_instance(&name).unwrap();
    let biased = engine.create_instance(&name).unwrap();
    adhoc(
        &engine,
        biased,
        &insert("check customer", "get order", "collect data"),
    )
    .unwrap();
    // A pending version, so migrating has a hop to journal per instance.
    evolve(
        &engine,
        &name,
        &[insert("send questions", "compose order", "pack goods")],
    )
    .unwrap();

    let refused = |r: Result<(), EngineError>| matches!(r, Err(EngineError::Storage(_)));
    type Attempt<'a> = Box<dyn Fn() -> bool + 'a>;
    let attempts: Vec<(&str, Attempt<'_>)> = vec![
        (
            "create",
            Box::new(|| refused(engine.create_instance(&name).map(drop))),
        ),
        (
            "discrete command",
            Box::new(|| {
                let start = EngineCommand::Start {
                    instance: plain,
                    node: node("get order"),
                };
                refused(engine.submit(start).map(drop))
            }),
        ),
        (
            "drive",
            Box::new(|| refused(drive(&engine, plain, Some(1)).map(drop))),
        ),
        (
            "ad-hoc commit",
            Box::new(|| {
                let op = insert("late check", "get order", "collect data");
                refused(adhoc(&engine, plain, &op).map(drop))
            }),
        ),
        (
            "undo",
            Box::new(|| refused(engine.undo_ad_hoc_change(biased))),
        ),
        (
            "migration hop",
            Box::new(|| {
                let report = engine
                    .migrate_all(&name, &MigrationOptions::default(), 1)
                    .unwrap();
                report.total() == 2 && report.conflicts(ConflictKind::Internal) == 2
            }),
        ),
        (
            "evolution commit",
            Box::new(|| {
                let op = insert("audit", "get order", "collect data");
                refused(evolve(&engine, &name, &[op]).map(drop))
            }),
        ),
        (
            "deploy",
            Box::new(|| refused(engine.deploy(scenarios::clinical_pathway()).map(drop))),
        ),
        (
            "removal",
            Box::new(|| refused(engine.remove_instance(plain).map(drop))),
        ),
    ];
    let observe = || (to_json(&engine.snapshot()).unwrap(), engine.worklist());
    for (what, attempt) in &attempts {
        let before = observe();
        backend.arm(true);
        assert!(
            attempt(),
            "{what}: must fail while the journal refuses appends"
        );
        backend.arm(false);
        assert_eq!(
            observe(),
            before,
            "{what}: a refused append must leave no trace"
        );
    }

    // The log holds no trace either: replaying it rebuilds exactly this
    // engine, which then accepts every one of the refused operations.
    let (recovered, report) =
        recovery::recover_from_segmented(None, vec![Box::new(backend.clone())]).unwrap();
    assert!(report.divergent.is_empty());
    assert_eq!(
        to_json(&recovered.snapshot()).unwrap(),
        to_json(&engine.snapshot()).unwrap()
    );
    drop(recovered);
    for (what, attempt) in &attempts {
        let before = observe();
        assert!(!attempt(), "{what}: must succeed once the journal is back");
        assert_ne!(
            observe(),
            before,
            "{what}: a journaled operation is visible"
        );
    }
}
