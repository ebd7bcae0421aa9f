//! Threaded stress tests: migration racing live command traffic on the
//! sharded store.
//!
//! The paper's scenario — migrating a population "on the fly" while users
//! keep executing — is exactly the race the store's compare-and-set
//! installs (`install` for a hop or a change, `commit_state` for a drive)
//! must win. These tests run `migrate_all(threads = 4)` against concurrent `submit_batch`
//! traffic and assert that every instance lands on a consistent
//! `(version, state)` pair with no lost updates, and that instances
//! removed mid-migration are reported as vanished rather than as
//! structural conflicts.

use adept_core::{replay_bias, ChangeOp, ConflictKind, MigrationOptions, NewActivity};
use adept_engine::{EngineCommand, FailureKind, ProcessEngine};
use adept_model::{InstanceId, NodeKind, SchemaBuilder};
use adept_simgen::scenarios;
use adept_state::Event;
use adept_tests::{evolve, worklist_full};
use std::collections::BTreeSet;

const POPULATION: usize = 192;
const SUBMITTERS: usize = 4;
const ROUNDS: usize = 6;

fn populated_engine() -> (ProcessEngine, String, Vec<InstanceId>) {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<InstanceId> = (0..POPULATION)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    (engine, name, ids)
}

fn stage_evolution(engine: &ProcessEngine, name: &str) {
    let schema = engine.repo.deployed(name, 1).unwrap().schema.clone();
    evolve(engine, name, &scenarios::fig1_delta_ops(&schema)).unwrap();
}

/// Completed events recorded in an instance's history.
fn completions_in_history(engine: &ProcessEngine, id: InstanceId) -> usize {
    engine
        .store
        .with_instance(id, |inst| {
            inst.state
                .history
                .events
                .iter()
                .filter(|e| matches!(e, Event::Completed { .. }))
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn migrate_all_races_live_submit_batch_traffic() {
    let (engine, name, ids) = populated_engine();
    stage_evolution(&engine, &name);

    let chunk = ids.len().div_ceil(SUBMITTERS);
    let mut acked: Vec<usize> = Vec::new();
    let mut reports = Vec::new();
    std::thread::scope(|scope| {
        // Live traffic: each submitter drives its own partition forward,
        // one activity per round, through batched commands.
        let submitters: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut completed = vec![0usize; part.len()];
                    for _ in 0..ROUNDS {
                        let cmds: Vec<EngineCommand> = part
                            .iter()
                            .map(|id| EngineCommand::Drive {
                                instance: *id,
                                max: Some(1),
                            })
                            .collect();
                        for (k, r) in engine.submit_batch(cmds).into_iter().enumerate() {
                            completed[k] += r.expect("drive on live instance").completed;
                        }
                    }
                    completed
                })
            })
            .collect();
        // The migration sweep, itself parallel, against that traffic.
        let migrator = scope.spawn(|| {
            engine
                .migrate_all(&name, &MigrationOptions::default(), 4)
                .unwrap()
        });
        reports.push(migrator.join().unwrap());
        for h in submitters {
            acked.extend(h.join().unwrap());
        }
    });

    let report = &reports[0];
    assert_eq!(report.total(), POPULATION);
    assert_eq!(report.vanished(), 0, "nothing was removed: {report}");
    assert_eq!(
        report.conflicts(ConflictKind::Internal),
        0,
        "no worker may panic: {report}"
    );

    let latest = engine.repo.latest_version(&name).unwrap();
    for (k, id) in ids.iter().enumerate() {
        let inst = engine.store.get(*id).expect("instance survived");
        // Consistent (version, state): the version is a deployed one and
        // the instance's schema context resolves and matches its state —
        // a torn migrate/command interleaving would leave a bias or state
        // belonging to a different version.
        assert!(
            inst.version == 1 || inst.version == latest,
            "{id} on unexpected version {}",
            inst.version
        );
        assert!(
            engine.store.schema_of(&engine.repo, *id).is_some(),
            "{id} schema must resolve"
        );
        // No lost updates: every acknowledged completion is in the
        // history (migration adapts markings but never drops history).
        let in_history = completions_in_history(&engine, *id);
        assert!(
            in_history >= acked[k],
            "{id} lost updates: {} acked but {} in history",
            acked[k],
            in_history
        );
    }

    // The worklist read off the store survived the race coherently.
    let mut indexed: Vec<String> = engine.worklist().iter().map(|w| w.to_string()).collect();
    let mut full: Vec<String> = worklist_full(&engine)
        .iter()
        .map(|w| w.to_string())
        .collect();
    indexed.sort();
    full.sort();
    assert_eq!(indexed, full, "index diverged from full recompute");
    engine
        .try_worklist()
        .expect("no instance may be unresolvable");
}

#[test]
fn instances_removed_mid_migration_are_vanished_not_structural() {
    let (engine, name, ids) = populated_engine();
    stage_evolution(&engine, &name);

    let to_remove: Vec<InstanceId> = ids.iter().copied().step_by(3).collect();
    let mut reports = Vec::new();
    std::thread::scope(|scope| {
        let remover = {
            let engine = &engine;
            let to_remove = &to_remove;
            scope.spawn(move || {
                let mut removed = 0usize;
                for id in to_remove {
                    if engine.remove_instance(*id).is_ok() {
                        removed += 1;
                    }
                    std::thread::yield_now();
                }
                removed
            })
        };
        let migrator = scope.spawn(|| {
            engine
                .migrate_all(&name, &MigrationOptions::default(), 4)
                .unwrap()
        });
        reports.push(migrator.join().unwrap());
        assert_eq!(remover.join().unwrap(), to_remove.len());
    });

    let report = &reports[0];
    // A fresh unbiased population has no real conflicts with the Fig. 1
    // delta: every outcome is either a migration or a vanished instance.
    assert_eq!(
        report.conflicts(ConflictKind::Structural),
        0,
        "removals must not masquerade as structural conflicts: {report}"
    );
    assert_eq!(report.conflicts(ConflictKind::State), 0, "{report}");
    assert_eq!(
        report.migrated() + report.vanished(),
        report.total(),
        "{report}"
    );
    assert_eq!(report.failed(), 0, "vanished instances are not failures");

    // Removed instances are gone everywhere; survivors all migrated.
    assert_eq!(engine.store.len(), POPULATION - to_remove.len());
    for id in &to_remove {
        assert!(engine.store.get(*id).is_none());
    }
    let latest = engine.repo.latest_version(&name).unwrap();
    for id in engine.store.ids() {
        assert_eq!(engine.store.get(id).unwrap().version, latest);
    }
    engine
        .try_worklist()
        .expect("worklist resolves after removals");
}

#[test]
fn remove_instance_clears_every_engine_trace() {
    let (engine, name, ids) = populated_engine();
    let victim = ids[0];
    assert!(!engine.worklist().is_empty());
    let removed = engine.remove_instance(victim).unwrap();
    assert_eq!(removed.id, victim);
    assert!(engine.store.get(victim).is_none());
    assert!(
        engine.worklist().iter().all(|w| w.instance != victim),
        "no work item may survive the instance"
    );
    assert!(!engine.store.instances_of(&name).contains(&victim));
    assert!(matches!(
        engine.remove_instance(victim),
        Err(adept_engine::EngineError::NotFound(_))
    ));
    assert!(engine.monitor.events().iter().any(|(_, e)| matches!(
        e,
        adept_engine::EngineEvent::InstanceRemoved { instance } if *instance == victim
    )));
}

/// Several writers change **one** instance concurrently, each inserting
/// into its own region. A session's schema and the `(version, bias)` its
/// commit guard compares are one read, so a change landing in between is
/// refused — it can never pass the guard on a schema that lacks it and be
/// installed with a substitution block missing another writer's nodes.
#[test]
fn concurrent_change_sessions_on_one_instance_never_tear() {
    const WRITERS: usize = 4;
    const COMMITS_EACH: usize = 12;
    let engine = ProcessEngine::new();
    // A schema that is slow to *copy* and quick to verify: a session
    // begins by copying the schema it stages on, so a megabyte of
    // description keeps every begin open long enough for another writer's
    // install to land inside it (more writers than cores do the rest).
    let mut b = SchemaBuilder::new("regions");
    for w in 0..WRITERS {
        b.activity_with(&format!("head {w}"), |attrs| {
            attrs.description = Some("·".repeat(1 << 18).into());
        });
        b.activity(&format!("tail {w}"));
    }
    let name = engine.deploy(b.build().unwrap()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let deployed = engine.repo.deployed(&name, 1).unwrap();
    let base = &deployed.schema;
    let node = |n: String| base.node_by_name(&n).unwrap().id;

    // Each writer keeps inserting right behind its region's head, i.e.
    // before the node it inserted last: the edge it splits is its own.
    let writer = |w: usize| {
        let engine = &engine;
        let pred = node(format!("head {w}"));
        let mut succ = node(format!("tail {w}"));
        move || {
            let (mut acked, mut attempt) = (Vec::new(), 0usize);
            while acked.len() < COMMITS_EACH {
                attempt += 1;
                assert!(attempt < 1000 * COMMITS_EACH, "writer {w} starved");
                let label = format!("region {w} #{}", acked.len());
                let mut session = engine.begin_change(id).unwrap();
                session
                    .stage(&ChangeOp::SerialInsert {
                        activity: NewActivity::named(label.as_str()),
                        pred,
                        succ,
                    })
                    .unwrap();
                match session.commit() {
                    Ok(receipt) => {
                        succ = receipt.delta.ops[0].inserted_activity().unwrap();
                        acked.push(label);
                    }
                    Err(e) => assert_eq!(
                        e.failure_kind(),
                        FailureKind::ConcurrentChange,
                        "a refused commit lost a race, nothing else: {e}"
                    ),
                }
            }
            acked
        }
    };
    let acked: BTreeSet<String> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS).map(|w| s.spawn(writer(w))).collect();
        writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let inst = engine.store.get(id).unwrap();
    let schema = engine.store.schema_of(&engine.repo, id).unwrap();
    assert!(adept_verify::verify_schema(&schema).is_correct());
    // What the instance runs on is its bias replayed on the deployed base.
    let (replayed, _, _) = replay_bias(&deployed, &inst.bias).unwrap();
    assert_eq!(*schema, replayed);
    // Exactly the acknowledged insertions are in it.
    let inserted: BTreeSet<String> = schema
        .nodes()
        .filter(|n| n.kind == NodeKind::Activity && base.node(n.id).is_err())
        .map(|n| n.name.to_string())
        .collect();
    assert_eq!(inserted, acked);
    assert_eq!(acked.len(), WRITERS * COMMITS_EACH);
}
