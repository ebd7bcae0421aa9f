//! Worklist semantics and the worklist's one source:
//!
//! * role claiming (`claimable_by`, empty role = anyone) and
//!   `worklist_for` filtering;
//! * consistency — the worklist the engine reads off the store equals the
//!   per-instance recompute after every lifecycle event (commands, ad-hoc
//!   change commits, migration, completion), property-checked over
//!   generated simgen scenarios (the helpers keep their names from when
//!   the engine served it from an index);
//! * corruption surfacing — unresolvable instances produce monitor
//!   diagnostics from `worklist()` and an error from `try_worklist()`.

use adept_core::ChangeOp;
use adept_engine::{EngineError, EngineEvent, ProcessEngine, WorkItem};
use adept_simgen::{scenarios, RandomDriver};
use adept_tests::{adhoc, drive, drive_with, evolve, worklist_full};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Canonical, order-independent rendering of a worklist for comparison.
fn canon(mut items: Vec<WorkItem>) -> Vec<String> {
    items.sort_by_key(|w| (w.instance.raw(), w.node.raw()));
    items
        .into_iter()
        .map(|w| {
            format!(
                "{}:{}:{}:{}:{}:{}",
                w.instance,
                w.node,
                w.activity,
                w.role.as_deref().unwrap_or("<anyone>"),
                w.type_name,
                w.version
            )
        })
        .collect()
}

/// Asserts the engine serves exactly what the per-instance recompute
/// produces.
fn assert_index_consistent(engine: &ProcessEngine, context: &str) {
    assert_eq!(
        canon(engine.worklist()),
        canon(worklist_full(engine)),
        "index diverged from full recompute {context}"
    );
}

#[test]
fn role_claiming_and_filtering() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();

    // "get order" carries the sales role.
    assert_eq!(engine.worklist_for("sales").len(), 1);
    assert_eq!(engine.worklist_for("warehouse").len(), 0);

    // One step later, "collect data" has no role: claimable by anyone.
    drive(&engine, id, Some(1)).unwrap();
    let wl = engine.worklist();
    assert_eq!(wl.len(), 1);
    assert!(wl[0].role.is_none());
    assert!(wl[0].claimable_by("sales"));
    assert!(wl[0].claimable_by("anyone else"));
    assert_eq!(engine.worklist_for("sales").len(), 1);
    assert_eq!(engine.worklist_for("intern").len(), 1);

    // Two steps later the AND block offers role-split parallel work.
    drive(&engine, id, Some(1)).unwrap();
    assert_eq!(engine.worklist_for("sales").len(), 1, "confirm order");
    assert_eq!(engine.worklist_for("warehouse").len(), 1, "compose order");
    assert_index_consistent(&engine, "mid-execution");
}

#[test]
fn index_consistent_through_change_migration_and_completion() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let ids: Vec<_> = (0..8)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    assert_index_consistent(&engine, "after creation");

    // Commands at different progress points.
    for (k, id) in ids.iter().enumerate() {
        drive(&engine, *id, Some(k % 4)).unwrap();
    }
    assert_index_consistent(&engine, "after partial drives");

    // Ad-hoc change commit: the inserted activity appears on the worklist
    // of the biased instance only.
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;
    adhoc(
        &engine,
        ids[0],
        &ChangeOp::SerialInsert {
            activity: adept_core::NewActivity::named("vet customer").with_role("compliance"),
            pred: get,
            succ: collect,
        },
    )
    .unwrap();
    assert_index_consistent(&engine, "after ad-hoc commit");

    // Undo: back to the deployed shape.
    engine.undo_ad_hoc_change(ids[0]).unwrap();
    assert_index_consistent(&engine, "after undo");

    // Evolution + migration rebase compliant instances.
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    engine.migrate_all(&name, &Default::default(), 2).unwrap();
    assert_index_consistent(&engine, "after migration");

    // Completion empties the affected entries.
    for id in &ids {
        drive(&engine, *id, None).unwrap();
    }
    assert_index_consistent(&engine, "after completion");
    assert!(engine.worklist().is_empty());
}

#[test]
fn unresolvable_instances_are_surfaced_not_hidden() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();

    // Corrupt entry: an instance of a type the repository does not know.
    let dep = engine.repo.deployed(&name, 1).unwrap();
    let ghost_state = dep.exec().init().unwrap();
    let ghost = engine.store.create("ghost type", 1, ghost_state);

    // Lenient worklist still serves the healthy instance, but records a
    // diagnostic instead of silently skipping.
    let before = engine.monitor.len();
    let wl = engine.worklist();
    assert_eq!(wl.len(), 1, "healthy instance still offered");
    let logged = engine.monitor.events()[before..]
        .iter()
        .any(|(_, e)| matches!(e, EngineEvent::WorklistResolutionFailed { instance, .. } if *instance == ghost));
    assert!(logged, "corruption must reach the monitor");

    // The strict variant fails fast.
    let err = engine.try_worklist().unwrap_err();
    assert!(matches!(err, EngineError::NotFound(_)), "{err}");
}

/// A decodable snapshot whose bias no longer replays on its deployment
/// (the I2 sync edge re-pointed from the start to the end node) is
/// unresolvable: the healthy instance is still offered and the failure
/// reaches the monitor, where it used to panic on the first worklist read.
#[test]
fn a_bias_that_does_not_replay_is_unresolvable_not_a_panic() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let healthy = engine.create_instance(&name).unwrap();
    let broken = engine.create_instance(&name).unwrap();
    adhoc(&engine, broken, &scenarios::fig1_i2_bias_op(&v1.schema)).unwrap();

    let mut snap = engine.snapshot();
    let record = snap.instances.iter_mut().find(|r| r.id == broken).unwrap();
    record.bias.ops[0].op = ChangeOp::InsertSyncEdge {
        from: v1.schema.start_node(),
        to: v1.schema.end_node(),
    };
    let restored = ProcessEngine::from_snapshot(&snap).unwrap();

    let err = restored.try_worklist().unwrap_err();
    assert!(err.to_string().contains("does not replay"), "{err}");
    let items = restored.worklist();
    assert!(items.iter().all(|w| w.instance == healthy));
    assert!(!items.is_empty(), "the healthy instance is still offered");
    let reported = restored.monitor.events().iter().any(|(_, e)| {
        matches!(e, EngineEvent::WorklistResolutionFailed { instance, .. } if *instance == broken)
    });
    assert!(reported, "the failure reaches the monitor");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Index == full recompute across randomized lifecycles on generated
    /// schemas: random drives through the command path, random staged
    /// ad-hoc changes, an evolution + migration round, and completion.
    #[test]
    fn index_matches_recompute_on_generated_scenarios(seed in 0u64..10_000) {
        let schema = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(12), seed);
        let engine = ProcessEngine::new();
        let name = engine.deploy(schema).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_1157);

        let ids: Vec<_> = (0..6).map(|_| engine.create_instance(&name).unwrap()).collect();
        prop_assert_eq!(canon(engine.worklist()), canon(worklist_full(&engine)));

        // Random partial drives.
        for id in &ids {
            let mut driver = RandomDriver::new(seed ^ id.raw());
            let steps = rng.gen_range(0..6);
            drive_with(&engine, *id, &mut driver, Some(steps)).unwrap();
        }
        prop_assert_eq!(canon(engine.worklist()), canon(worklist_full(&engine)));

        // A random staged change on one instance.
        let target = ids[rng.gen_range(0..ids.len())];
        let current = engine.store.schema_of(&engine.repo, target).unwrap();
        for kind in adept_simgen::ALL_OP_KINDS {
            if let Some(op) = adept_simgen::changegen::propose(&current, kind, &mut rng, "p") {
                let _ = adhoc(&engine, target, &op); // state conflicts are fine
                break;
            }
        }
        prop_assert_eq!(canon(engine.worklist()), canon(worklist_full(&engine)));

        // Evolution + migration.
        let latest = engine.repo.deployed(&name, 1).unwrap();
        let mut erng = SmallRng::seed_from_u64(seed ^ 0xeee);
        if let Some(op) = adept_simgen::changegen::propose(
            &latest.schema,
            adept_simgen::OpKind::SerialInsert,
            &mut erng,
            "evo",
        ) {
            if evolve(&engine, &name, &[op]).is_ok() {
                engine.migrate_all(&name, &Default::default(), 1).unwrap();
            }
        }
        prop_assert_eq!(canon(engine.worklist()), canon(worklist_full(&engine)));

        // Drive everything home; finished instances offer nothing.
        for id in &ids {
            let mut driver = RandomDriver::new(seed ^ (id.raw() << 8));
            let _ = drive_with(&engine, *id, &mut driver, Some(400));
        }
        prop_assert_eq!(canon(engine.worklist()), canon(worklist_full(&engine)));
    }
}
