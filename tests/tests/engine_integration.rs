//! Cross-crate integration: engine lifecycle across storage strategies,
//! biased-instance migration at population scale, and execution invariants
//! on the domain scenarios.

use adept_core::MigrationOptions;
use adept_engine::{EngineEvent, ProcessEngine};
use adept_simgen::{scenarios, RandomDriver};
use adept_state::NodeState;
use adept_storage::{InstanceStore, Representation, SchemaRepository};
use adept_tests::{adhoc, drive, drive_with, evolve};
use std::sync::Arc;

#[test]
fn clinical_pathway_with_ad_hoc_deviation() {
    // E-health scenario: during treatment, an extra "specialist consult" is
    // inserted ad hoc for one patient, and an unnecessary lab activity is
    // (attempted to be) deleted.
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::clinical_pathway()).unwrap();
    let patient = engine.create_instance(&name).unwrap();

    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let anam = v1.schema.node_by_name("anamnesis").unwrap().id;
    let admit = v1.schema.node_by_name("admit patient").unwrap().id;

    // Insert consult between admission and anamnesis before running.
    adhoc(
        &engine,
        patient,
        &adept_core::ChangeOp::SerialInsert {
            activity: adept_core::NewActivity::named("specialist consult").with_role("physician"),
            pred: admit,
            succ: anam,
        },
    )
    .unwrap();
    assert!(engine.store.get(patient).unwrap().is_biased());

    // The consult shows up on the physician's worklist once admission is
    // done.
    let mut driver = RandomDriver::new(1);
    drive_with(&engine, patient, &mut driver, Some(1)).unwrap();
    let wl = engine.worklist_for("physician");
    assert!(
        wl.iter().any(|w| &*w.activity == "specialist consult"),
        "worklist: {wl:?}"
    );

    // Run to completion (guards + loop terminate with random lab results).
    drive_with(&engine, patient, &mut driver, Some(200)).unwrap();
    assert!(engine.is_finished(patient).unwrap());
}

#[test]
fn container_logistics_sync_edge_orders_work() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::container_logistics()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let clear = v1.schema.node_by_name("customs clearance").unwrap().id;
    let load = v1.schema.node_by_name("load on vessel").unwrap().id;

    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
    let hist = engine
        .store
        .get(id)
        .unwrap()
        .state
        .history
        .started_activities();
    let pos_clear = hist.iter().position(|n| *n == clear).unwrap();
    let pos_load = hist.iter().position(|n| *n == load).unwrap();
    assert!(
        pos_clear < pos_load,
        "sync edge must force clearance before loading"
    );
}

#[test]
fn migration_works_under_all_storage_strategies() {
    for strategy in [Representation::RedundantFree, Representation::Hybrid] {
        let engine = ProcessEngine::from_parts(
            SchemaRepository::new(),
            InstanceStore::new(strategy),
            Arc::default(),
        );
        let name = engine.deploy(scenarios::order_process()).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();

        // 20 instances, 5 of them biased (disjoint from ΔT).
        let get = v1.schema.node_by_name("get order").unwrap().id;
        let collect = v1.schema.node_by_name("collect data").unwrap().id;
        for k in 0..20u64 {
            let id = engine.create_instance(&name).unwrap();
            if k % 4 == 0 {
                adhoc(
                    &engine,
                    id,
                    &adept_core::ChangeOp::SerialInsert {
                        activity: adept_core::NewActivity::named("check customer"),
                        pred: get,
                        succ: collect,
                    },
                )
                .unwrap();
            }
            let mut driver = RandomDriver::new(k);
            drive_with(&engine, id, &mut driver, Some(1)).unwrap();
        }

        evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
        let report = engine
            .migrate_all(&name, &MigrationOptions::default(), 2)
            .unwrap();
        assert_eq!(report.total(), 20, "{strategy:?}");
        assert_eq!(
            report.migrated(),
            20,
            "{strategy:?}: early instances with disjoint bias all migrate\n{report}"
        );

        // All instances still finish after migration.
        for id in engine.store.instances_of(&name) {
            let mut driver = RandomDriver::new(id.raw());
            drive_with(&engine, id, &mut driver, Some(200)).unwrap();
            assert!(engine.is_finished(id).unwrap(), "{strategy:?} {id}");
        }
    }
}

#[test]
fn multi_hop_migration_through_versions() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();

    // Three successive evolutions.
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    let s2 = engine.repo.deployed(&name, 2).unwrap();
    let sq = s2.schema.node_by_name("send questions").unwrap().id;
    evolve(&engine, &name, &[scenarios::fig1_sync_op(&s2.schema, sq)]).unwrap();
    let s3 = engine.repo.deployed(&name, 3).unwrap();
    let deliver = s3.schema.node_by_name("deliver goods").unwrap().id;
    let end_pred = deliver;
    let end = s3.schema.end_node();
    evolve(
        &engine,
        &name,
        &[adept_core::ChangeOp::SerialInsert {
            activity: adept_core::NewActivity::named("archive order"),
            pred: end_pred,
            succ: end,
        }],
    )
    .unwrap();

    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
    assert_eq!(engine.store.get(id).unwrap().version, 4);

    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
    let hist = engine.store.get(id).unwrap();
    let names: Vec<String> = {
        let schema = engine.store.schema_of(&engine.repo, id).unwrap();
        hist.state
            .history
            .started_activities()
            .iter()
            .filter_map(|n| schema.node(*n).ok().map(|x| x.name.to_string()))
            .collect()
    };
    assert!(names.contains(&"send questions".to_string()), "{names:?}");
    assert!(names.contains(&"archive order".to_string()), "{names:?}");
}

/// A migration stops reading an instance once its hop has landed on the
/// newest version: one context resolution per unbiased instance, not a
/// second one only to be declined.
#[test]
fn a_landed_hop_is_the_last_read_of_its_instance() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let population = 12u64;
    for _ in 0..population {
        engine.create_instance(&name).unwrap();
    }
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    let before = engine.store.stats().shared_hits;
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), population as usize, "{report}");
    assert!(report.outcomes.iter().all(|o| !o.biased));
    assert_eq!(engine.store.stats().shared_hits - before, population);
}

#[test]
fn monitor_captures_the_full_story() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    adhoc(&engine, id, &scenarios::fig1_i2_bias_op(&v1.schema)).unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    let events = engine.monitor.events();
    let kinds: Vec<&'static str> = events
        .iter()
        .map(|(_, e)| match e {
            EngineEvent::Deployed { .. } => "deploy",
            EngineEvent::InstanceCreated { .. } => "create",
            EngineEvent::AdHocChanged { .. } => "adhoc",
            EngineEvent::TypeEvolved { .. } => "evolve",
            EngineEvent::Migrated { .. } => "migrate",
            EngineEvent::MigrationRejected { .. } => "reject",
            _ => "other",
        })
        .collect();
    assert!(kinds.contains(&"deploy"));
    assert!(kinds.contains(&"create"));
    assert!(kinds.contains(&"adhoc"));
    assert!(kinds.contains(&"evolve"));
    // The biased instance migrates here: its bias (sync confirm->compose)
    // does not conflict with the insert alone.
    assert!(kinds.contains(&"migrate") || kinds.contains(&"reject"));
    let log = engine.monitor.render_log();
    assert!(log.contains("ad-hoc change"));
}

#[test]
fn execution_invariants_on_population() {
    // Executed instances never leave activities Running/Activated once
    // finished, and XOR blocks execute exactly one branch.
    let schema = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(18), 4242);
    let ex = adept_state::Execution::new(&schema).unwrap();
    for st in adept_simgen::generate_finished_population(&ex, 25, 9) {
        assert!(ex.is_finished(&st));
        for (n, s) in st.marking.marked_nodes() {
            assert!(
                matches!(s, NodeState::Completed | NodeState::Skipped),
                "finished instance has {n} in state {s}"
            );
        }
    }
}
