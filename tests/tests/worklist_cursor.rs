//! The epoch-stamped worklist cursor API (`worklist_delta`):
//!
//! * replay — applying deltas from epoch 0 (drop `invalidated`, replace
//!   `added` item sets) reconstructs exactly `worklist_full` after
//!   arbitrary command/change-txn/migrate/remove interleavings,
//!   property-checked over generated simgen lifecycles;
//! * threaded stress — 4 writers mutating instances while 2 cursor
//!   readers stream deltas: the final reconstruction loses no item and
//!   resurrects none (removed instances stay gone);
//! * cursor lifetime — a cursor that outlived its engine is served as a
//!   bootstrap, not an empty delta;
//! * one source — the store stamps its own writes, so what is put into,
//!   written in or taken out of the public `store` field reaches every
//!   read; a read stamps nothing; the once-per-failure report of an
//!   unresolvable instance is gone with the instance;
//! * cost — an incremental poll costs what changed, not what exists (the
//!   monitor's event cursor likewise: what is new, not what is retained),
//!   and a change preview — another reader of the shard — verifies before
//!   it takes the shard guard (release-mode timing tests, `--ignored`).

use adept_engine::{recover_from_segmented, EngineCommand, EngineEvent, ProcessEngine, WorkItem};
use adept_model::{InstanceId, Value};
use adept_simgen::{scenarios, RandomDriver};
use adept_storage::{
    InstanceStore, MemoryBackend, Representation, SchemaRepository, StoredInstance,
};
use adept_tests::{adhoc, drive_with, evolve, worklist_full};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// A consumer's materialized view: applies deltas the documented way —
/// drop every invalidated id, then replace every added id's item set.
#[derive(Default)]
struct View {
    items: BTreeMap<InstanceId, Vec<WorkItem>>,
    epoch: u64,
}

impl View {
    fn poll(&mut self, engine: &ProcessEngine) {
        let d = engine.worklist_delta(self.epoch);
        for id in &d.invalidated {
            self.items.remove(id);
        }
        for (id, offered) in d.added {
            self.items.insert(id, offered.items().collect());
        }
        self.epoch = d.epoch;
    }

    fn flat(&self) -> Vec<WorkItem> {
        self.items.values().flatten().cloned().collect()
    }
}

#[test]
fn delta_streams_changes_and_removals() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let mut view = View::default();
    view.poll(&engine);
    assert!(view.items.is_empty());

    let a = engine.create_instance(&name).unwrap();
    let b = engine.create_instance(&name).unwrap();
    view.poll(&engine);
    assert_eq!(view.items.len(), 2);
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));

    // An unchanged world yields an empty delta — the point of the API.
    let d = engine.worklist_delta(view.epoch);
    assert!(d.added.is_empty() && d.invalidated.is_empty());

    // Progress on one instance surfaces only that instance.
    let mut driver = RandomDriver::new(1);
    drive_with(&engine, a, &mut driver, Some(1)).unwrap();
    let d = engine.worklist_delta(view.epoch);
    assert_eq!(d.added.len(), 1);
    assert_eq!(d.added[0].0, a);
    assert!(d.invalidated.is_empty());
    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));

    // Removal streams as an invalidation.
    engine.remove_instance(b).unwrap();
    let d = engine.worklist_delta(view.epoch);
    assert_eq!(d.invalidated, vec![b]);
    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));
}

/// The store stamps its own writes: an instance created in the public
/// `store` field, or a state written there, without any engine command,
/// reaches the next incremental poll and every full read.
#[test]
fn writes_through_the_store_field_reach_every_read() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let dep = engine.repo.deployed(&name, 1).unwrap();
    engine.create_instance(&name).unwrap();
    let mut view = View::default();
    view.poll(&engine);
    assert!(view.epoch > 0, "the next poll is an incremental one");

    let id = engine.store.create(&name, 1, dep.exec().init().unwrap());
    let d = engine.worklist_delta(view.epoch);
    assert_eq!(d.added.len(), 1);
    assert_eq!(d.added[0].0, id);
    assert_eq!(d.added[0].1.len(), 1, "it offers its first activity");
    view.poll(&engine);

    let get_order = dep.schema.node_by_name("get order").unwrap().id;
    engine
        .store
        .update(id, |inst| {
            dep.exec().start_activity(&mut inst.state, get_order)
        })
        .unwrap()
        .unwrap();
    assert!(
        engine.worklist().iter().all(|w| w.instance != id),
        "a running activity is not offered"
    );
    let d = engine.worklist_delta(view.epoch);
    assert_eq!(d.added.len(), 1);
    assert_eq!(d.added[0].0, id);
    assert!(d.added[0].1.is_empty());
    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));
}

/// A delta entry copies what the store's stamp holds — a handful of slots
/// inline, or more spilled to the heap — and an instance created through
/// the store is read from its marking: either way it renders the items a
/// full read lists, and deltas of two engines compare by those items.
#[test]
fn a_wide_offer_renders_like_a_full_read() {
    let wide = || {
        let mut b = adept_model::SchemaBuilder::new("wide");
        b.and_split();
        for k in 0..9 {
            b.branch();
            b.activity(&format!("step {k}"));
        }
        b.and_join();
        b.build().unwrap()
    };
    let engines = [ProcessEngine::new(), ProcessEngine::new()];
    for engine in &engines {
        let name = engine.deploy(wide()).unwrap();
        engine.create_instance(&name).unwrap();
        let dep = engine.repo.deployed(&name, 1).unwrap();
        engine.store.create(&name, 1, dep.exec().init().unwrap());
    }
    let deltas = engines.each_ref().map(|engine| engine.worklist_delta(0));
    assert_eq!(deltas[0], deltas[1]);
    for (id, offered) in &deltas[0].added {
        assert_eq!(offered.len(), 9);
        let full = engines[0]
            .worklist()
            .into_iter()
            .filter(|w| w.instance == *id);
        assert_eq!(canon(offered.items().collect()), canon(full.collect()));
    }
}

/// A bootstrap lists residents only — its consumer holds nothing to drop —
/// while a cursor that was handed an instance is told of its removal.
#[test]
fn a_bootstrap_lists_residents_only() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<_> = (0..4)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    let before = engine.worklist_delta(0).epoch;
    engine.remove_instance(ids[1]).unwrap();
    engine.remove_instance(ids[3]).unwrap();

    let boot = engine.worklist_delta(0);
    assert!(boot.invalidated.is_empty(), "{:?}", boot.invalidated);
    let mut listed: Vec<_> = boot.added.iter().map(|(id, _)| *id).collect();
    listed.sort_unstable();
    assert_eq!(listed, [ids[0], ids[2]]);
    assert_eq!(engine.worklist_delta(before).invalidated, [ids[1], ids[3]]);
}

/// A read stamps nothing: on a restored engine every biased instance fills
/// its context slot on first touch, under its shard's write guard — and no
/// cursor hears of it.
#[test]
fn a_read_stamps_nothing() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let schema = engine.repo.deployed(&name, 1).unwrap().schema;
    let ids: Vec<_> = (0..4)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    for id in &ids[..2] {
        adhoc(&engine, *id, &scenarios::fig1_i2_bias_op(&schema)).unwrap();
    }
    let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
    // Epochs restart with the engine; one change makes the next poll an
    // incremental one.
    drive_with(&restored, ids[3], &mut RandomDriver::new(3), Some(1)).unwrap();
    let boot = restored.worklist_delta(0);
    assert_eq!(boot.epoch, 1);

    for id in &ids {
        restored.is_finished(*id).unwrap();
        restored.render_instance(*id).unwrap();
    }
    assert_eq!(canon(restored.worklist()), canon(worklist_full(&restored)));
    assert_eq!(restored.worklist_for("sales").len(), ids.len());
    assert_eq!(
        restored.store.stats().materializations,
        2,
        "contexts filled"
    );
    let d = restored.worklist_delta(boot.epoch);
    assert!(d.added.is_empty() && d.invalidated.is_empty(), "{d:?}");
    assert_eq!(d.epoch, boot.epoch);
}

/// Polls incrementally, expecting exactly `ids` with the item sets the
/// oracle computes for them; whether the poll looked up (or built) any
/// instance's context on the way.
fn poll_like_full(engine: &ProcessEngine, view: &mut View, ids: &[InstanceId]) -> bool {
    let before = engine.store.stats();
    let d = engine.worklist_delta(view.epoch);
    let touched = engine.store.stats() != before;
    let mut polled: Vec<_> = d.added.iter().map(|(id, _)| *id).collect();
    polled.sort_unstable();
    assert_eq!(polled, ids, "exactly what changed");
    let full = worklist_full(engine);
    for (id, offered) in &d.added {
        let expected = full.iter().filter(|w| w.instance == *id).cloned();
        assert_eq!(
            canon(offered.items().collect()),
            canon(expected.collect()),
            "{id}"
        );
    }
    view.poll(engine);
    touched
}

/// Every write that holds a context says what it enabled with the stamp it
/// writes — a create, a discrete `Start` / `Complete`, a `Drive`, an ad-hoc
/// change, its undo, a migration hop — so the poll that picks the change up
/// reads the change order and the names table, and neither the instance
/// nor the repository: no context is looked up, let alone built. A stamp
/// that does not say (a direct write through the store) sends the poll to
/// the instance, with the same answer.
#[test]
fn a_poll_of_stamped_changes_touches_no_instance() {
    for strategy in [Representation::Hybrid, Representation::RedundantFree] {
        let engine = ProcessEngine::from_parts(
            SchemaRepository::new(),
            InstanceStore::new(strategy),
            Arc::default(),
        );
        let name = engine.deploy(scenarios::order_process()).unwrap();
        let schema = engine.repo.deployed(&name, 1).unwrap().schema;
        let get_order = schema.node_by_name("get order").unwrap().id;
        let amount = schema.data_by_name("amount").unwrap().id;
        let ids: Vec<_> = (0..3)
            .map(|_| engine.create_instance(&name).unwrap())
            .collect();
        let mut view = View::default();
        view.poll(&engine);

        let created = engine.create_instance(&name).unwrap();
        let start = EngineCommand::Start {
            instance: ids[0],
            node: get_order,
        };
        engine.submit(start).unwrap();
        drive_with(&engine, ids[1], &mut RandomDriver::new(1), Some(2)).unwrap();
        let touched = poll_like_full(&engine, &mut view, &[ids[0], ids[1], created]);
        assert!(!touched, "{strategy:?}");
        let complete = EngineCommand::Complete {
            instance: ids[0],
            node: get_order,
            writes: vec![(amount, Value::Int(3))],
        };
        engine.submit(complete).unwrap();
        assert!(
            !poll_like_full(&engine, &mut view, &[ids[0]]),
            "{strategy:?}"
        );

        // An ad-hoc change says too: its install holds the schema the change
        // was judged on (which `RedundantFree` then keeps no copy of).
        adhoc(&engine, ids[2], &scenarios::fig1_i2_bias_op(&schema)).unwrap();
        assert!(
            !poll_like_full(&engine, &mut view, &[ids[2]]),
            "{strategy:?}"
        );
        // A write through the store without a context stamps without
        // saying: the poll asks the instance.
        engine.store.update(ids[1], |_| ()).unwrap();
        assert!(
            poll_like_full(&engine, &mut view, &[ids[1]]),
            "{strategy:?}"
        );
        // A command on the biased instance says again — by names, not by
        // the schema a `RedundantFree` access builds and drops.
        drive_with(&engine, ids[2], &mut RandomDriver::new(2), Some(1)).unwrap();
        assert!(
            !poll_like_full(&engine, &mut view, &[ids[2]]),
            "{strategy:?}"
        );
        assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));
    }
}

/// An undo and a migration hop install an image the way a change does, and
/// say what the instance offers on the schema they installed — the undone
/// instance on its deployment, the migrated ones on the new version — so a
/// bootstrap after them, like a poll, touches no instance.
#[test]
fn an_undo_and_a_migration_hop_stamp_what_they_offer() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let schema = engine.repo.deployed(&name, 1).unwrap().schema;
    let ids: Vec<_> = (0..3)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    adhoc(&engine, ids[0], &scenarios::fig1_i2_bias_op(&schema)).unwrap();
    adhoc(&engine, ids[1], &scenarios::fig1_i2_bias_op(&schema)).unwrap();
    let mut view = View::default();
    view.poll(&engine);

    engine.undo_ad_hoc_change(ids[0]).unwrap();
    assert!(!poll_like_full(&engine, &mut view, &[ids[0]]));
    let op = adept_simgen::changegen::propose(
        &schema,
        adept_simgen::OpKind::SerialInsert,
        &mut SmallRng::seed_from_u64(5),
        "evo",
    )
    .unwrap();
    evolve(&engine, &name, &[op]).unwrap();
    let report = engine.migrate_all(&name, &Default::default(), 1).unwrap();
    let compliant = report.outcomes.iter().filter(|o| o.verdict.is_compliant());
    let moved: Vec<_> = compliant.map(|o| o.instance).collect();
    assert!(moved.len() > 1, "{report:?}");
    assert!(!poll_like_full(&engine, &mut view, &moved));

    let before = engine.store.stats();
    let boot = engine.worklist_delta(0);
    assert_eq!(engine.store.stats(), before, "a bootstrap reads the stamps");
    assert_eq!(boot.added.len(), ids.len());
    assert_eq!(canon(engine.worklist()), canon(worklist_full(&engine)));
}

/// An unresolvable index miss (an instance whose type the repository
/// does not know) is recomputed ONCE, not on every poll: the delta scan
/// installs the recomputed (empty) item set stamped with the pre-scan
/// epoch, and reports the resolution failure to the monitor exactly
/// once — a permanently dangling instance must not churn every delta
/// consumer and grow the event log without bound.
#[test]
fn unresolvable_miss_is_recomputed_once_not_every_poll() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();

    // Corrupt entry: an instance of a type the repository does not know.
    let dep = engine.repo.deployed(&name, 1).unwrap();
    let ghost_state = dep.exec().init().unwrap();
    let ghost = engine.store.create("ghost type", 1, ghost_state);

    let before = engine.monitor.len();
    let d1 = engine.worklist_delta(0);
    assert!(
        d1.added
            .iter()
            .any(|(id, items)| *id == ghost && items.is_empty()),
        "the unresolvable instance is reported once, offering nothing"
    );

    // Nothing changed: the ghost must not be re-missed and re-reported.
    let d2 = engine.worklist_delta(d1.epoch);
    assert!(
        d2.added.iter().all(|(id, _)| *id != ghost),
        "unresolvable miss re-reported on every poll"
    );
    let d3 = engine.worklist_delta(d2.epoch);
    assert!(d3.added.iter().all(|(id, _)| *id != ghost));

    let failures = engine.monitor.events()[before..]
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                adept_engine::EngineEvent::WorklistResolutionFailed { instance, .. }
                    if *instance == ghost
            )
        })
        .count();
    assert_eq!(failures, 1, "the failure reaches the monitor exactly once");
}

/// The report of an unresolvable instance is a mark on the instance's own
/// key: removed with the instance, and not inherited by what is later
/// stored under its id.
#[test]
fn an_unresolvable_report_goes_with_its_instance() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();
    let state = engine
        .repo
        .deployed(&name, 1)
        .unwrap()
        .exec()
        .init()
        .unwrap();
    let ghost = engine.store.create("ghost type", 1, state.clone());
    let reports = || {
        let events = engine.monitor.events();
        let failed = events.iter().filter(|(_, e)| {
            matches!(e, EngineEvent::WorklistResolutionFailed { instance, .. } if *instance == ghost)
        });
        failed.count()
    };
    let mut view = View::default();
    for _ in 0..2 {
        assert_eq!(engine.worklist().len(), 1);
        view.poll(&engine);
    }
    assert_eq!(reports(), 1);

    // Removed, and a healthy instance restored under its id: offered like
    // any other, and nothing is reported again.
    engine.remove_instance(ghost).unwrap();
    let healthy = StoredInstance::new(ghost, name.clone(), 1, state.clone());
    engine.store.insert_restored(healthy);
    assert_eq!(engine.worklist().len(), 2);
    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));
    assert_eq!(reports(), 1);

    // Nothing was left behind either: dangling again, it is news again.
    let dangling = StoredInstance::new(ghost, "ghost type".into(), 1, state);
    engine.store.insert_restored(dangling);
    for _ in 0..2 {
        assert_eq!(engine.worklist().len(), 1);
        view.poll(&engine);
    }
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));
    assert_eq!(reports(), 2);
}

/// Whichever read is first to find an instance unresolvable reports it —
/// the strict one too: its scan marks what it found like any other, so a
/// report it kept to itself would never be made.
#[test]
fn a_strict_read_reports_what_it_is_first_to_find() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let dep = engine.repo.deployed(&name, 1).unwrap();
    let ghost = engine
        .store
        .create("ghost type", 1, dep.exec().init().unwrap());

    assert!(engine.try_worklist().is_err());
    assert!(engine.worklist().is_empty());
    let boot = engine.worklist_delta(0);
    assert_eq!(boot.added.len(), 1);
    assert_eq!(boot.added[0].0, ghost);
    assert!(boot.added[0].1.is_empty());
    assert!(
        engine.try_worklist().is_err(),
        "still failing, still an error"
    );
    let reports = engine.monitor.events().into_iter().filter(|(_, e)| {
        matches!(e, EngineEvent::WorklistResolutionFailed { instance, .. } if *instance == ghost)
    });
    assert_eq!(reports.count(), 1);
}

/// A redeploy replaces a type's chain whole and writes none of its
/// instances, so it restamps them: no read keeps offering what the
/// replaced chain named. One whose version the new chain lacks is
/// unresolvable from then on — the strict read fails on it, the lenient
/// reads offer nothing for it — and one whose version stays offers what
/// the new chain names; a replay of the journal agrees.
#[test]
fn a_redeploy_restamps_the_instances_of_its_type() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let on_v1 = engine.create_instance(&name).unwrap();
    // A command stamps what the instance offers, live and in the replay.
    drive_with(&engine, on_v1, &mut RandomDriver::new(1), Some(1)).unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    let on_v2 = engine.create_instance(&name).unwrap();
    let mut view = View::default();
    view.poll(&engine);
    assert!(engine.try_worklist().is_ok());
    let offered = |items: &[WorkItem], id| {
        let of_id = items.iter().filter(|w| w.instance == id);
        of_id.map(|w| w.activity.to_string()).collect::<Vec<_>>()
    };
    assert_eq!(offered(&engine.worklist(), on_v1), ["collect data"]);

    let mut renamed = scenarios::order_process();
    let collect = renamed.node_by_name("collect data").unwrap().id;
    renamed.node_mut(collect).unwrap().name = "gather data".into();
    engine.deploy(renamed).unwrap();

    let err = engine.try_worklist().unwrap_err();
    assert!(err.to_string().contains("version 2"), "{err}");
    let items = engine.worklist();
    assert!(items.iter().all(|w| w.instance == on_v1), "{items:?}");
    assert_eq!(offered(&items, on_v1), ["gather data"]);
    view.poll(&engine);
    assert_eq!(view.items.get(&on_v2).map(Vec::len), Some(0));
    assert_eq!(canon(view.flat()), canon(items.clone()));
    drop(engine);

    let (recovered, _) = recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
    assert_eq!(canon(recovered.worklist()), canon(items));
    assert!(recovered.try_worklist().is_err());
}

/// A cursor is valid only for the engine that issued it: epochs restart
/// at 0 with every engine, so a consumer that outlives a restart holds a
/// cursor *ahead* of the recovered engine. Serving it as an incremental
/// poll would return nothing and hand back a smaller epoch — every change
/// the new engine stamped at or below the old cursor lost for good. It is
/// served as a bootstrap instead.
#[test]
fn cursor_from_before_a_restart_is_served_as_a_bootstrap() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<_> = (0..6)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    for (k, id) in ids.iter().enumerate() {
        let mut driver = RandomDriver::new(k as u64);
        drive_with(&engine, *id, &mut driver, Some(1)).unwrap();
    }
    let mut view = View::default();
    view.poll(&engine);
    let before_crash = view.epoch;
    drop(engine); // crash: only the journal survives

    let (engine, _) = recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
    // The recovered engine's index is warm and has drawn fewer epochs
    // than the consumer has seen; one instance moved on since.
    let _ = engine.worklist();
    let mut driver = RandomDriver::new(7);
    drive_with(&engine, ids[0], &mut driver, Some(1)).unwrap();
    assert!(engine.worklist_delta(0).epoch < before_crash);

    view.poll(&engine);
    assert_eq!(canon(view.flat()), canon(worklist_full(&engine)));
    // The cursor is now the recovered engine's own.
    assert!(view.epoch < before_crash);
    let d = engine.worklist_delta(view.epoch);
    assert!(d.added.is_empty() && d.invalidated.is_empty());
}

/// Median latency of 200 incremental polls, one changed instance each,
/// on a population of `residents`.
fn median_poll_ns(residents: usize) -> u128 {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<_> = (0..residents)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    let mut epoch = engine.worklist_delta(0).epoch;
    let mut samples: Vec<u128> = (0..200)
        .map(|k| {
            let mut driver = RandomDriver::new(k as u64);
            drive_with(&engine, ids[k * residents / 200], &mut driver, Some(1)).unwrap();
            let started = std::time::Instant::now();
            let d = engine.worklist_delta(epoch);
            let took = started.elapsed().as_nanos();
            assert_eq!(d.added.len(), 1, "one change per poll");
            epoch = d.epoch;
            took
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// An incremental poll reads the epoch order past its cursor: what it
/// costs follows what changed, not how many instances are resident.
#[test]
#[ignore = "timing: run in release mode (CI's release step does)"]
fn delta_poll_cost_is_flat_in_population() {
    let small = median_poll_ns(2_500);
    let large = median_poll_ns(10_000);
    assert!(
        large <= 2 * small,
        "median poll {large} ns at 10 000 residents, {small} ns at 2 500"
    );
}

/// Median latency of 200 event-cursor polls, three new events each, on a
/// monitor retaining `retained` events.
fn median_event_poll_ns(retained: u64) -> u128 {
    let finished = |i| EngineEvent::InstanceFinished {
        instance: InstanceId(i),
    };
    let monitor = adept_engine::Monitor::new();
    monitor.record_all((0..retained).map(finished));
    let mut cursor = monitor.subscribe();
    let mut samples: Vec<u128> = (0..200)
        .map(|_| {
            monitor.record_all((0..3).map(finished));
            let started = std::time::Instant::now();
            let polled = cursor.poll(&monitor).unwrap();
            let took = started.elapsed().as_nanos();
            assert_eq!(polled.len(), 3);
            took
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The event cursor is the same kind of read: a poll is the log's tail
/// from the cursor on, so it costs what is new, not what is retained —
/// the adaptation loop polls every tick, mostly with the ring full.
#[test]
#[ignore = "timing: run in release mode (CI's release step does)"]
fn event_poll_cost_is_flat_in_retention() {
    let small = median_event_poll_ns(1_000);
    let full = median_event_poll_ns(adept_engine::DEFAULT_EVENT_RETENTION as u64);
    assert!(
        full <= 2 * small,
        "median event poll {full} ns with the ring full, {small} ns at 1 000 retained"
    );
}

/// Cost **per changed instance**, in nanoseconds, of incremental polls
/// that each find `changed` of 4 000 resident `clinical_pathway` instances
/// moved one activity on since the last poll, each offering the next: the
/// lower quartile over the polls (what a poll costs when nothing else on
/// the host disturbs it — the suite's other timing test runs beside this
/// one).
fn ns_per_changed_instance(changed: usize) -> f64 {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::clinical_pathway()).unwrap();
    let ids: Vec<_> = (0..4_000)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    let mut epoch = engine.worklist_delta(0).epoch;
    let mut fresh = ids.iter();
    let mut samples: Vec<u128> = (0..4_000 / changed)
        .map(|_| {
            for id in fresh.by_ref().take(changed) {
                drive_with(&engine, *id, &mut RandomDriver::new(1), Some(1)).unwrap();
            }
            let started = std::time::Instant::now();
            let d = engine.worklist_delta(epoch);
            let took = started.elapsed().as_nanos();
            assert_eq!(d.added.len(), changed);
            assert!(d.added.iter().all(|(_, items)| items.len() == 1));
            epoch = d.epoch;
            took
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 4] as f64 / changed as f64
}

/// A poll costs its ids: what an incremental poll pays per changed
/// instance does not grow with how many changed, and stays under a ceiling
/// that a poll going back to the instances, or rendering work items per
/// entry, does not meet. This host reads 25–30 ns at 200 changed with an
/// entry a copy of the stamp, 95–135 ns where entries rendered their items
/// (300–340 ns before stamps kept slots). At 10 changed the part a poll
/// pays per change-order shard it reads — a guard and a seek — is no
/// longer small beside that: 90–120 ns per changed instance.
#[test]
#[ignore = "timing: run in release mode (CI's release step does)"]
fn delta_poll_cost_per_changed_instance_is_flat_and_small() {
    let few = ns_per_changed_instance(10);
    let many = ns_per_changed_instance(200);
    println!("per changed instance: {few:.0} ns at 10 changed, {many:.0} ns at 200");
    assert!(
        many <= 1.5 * few,
        "{few:.0} ns per changed instance at 10 changed, {many:.0} ns at 200"
    );
    assert!(
        few <= 200.0,
        "{few:.0} ns per changed instance at 10 changed"
    );
    assert!(
        many <= 60.0,
        "{many:.0} ns per changed instance at 200 changed"
    );
}

/// A preview is a reader of its instance's shard, and a reader must not
/// stall that shard's writers: the verification pass — most of what a
/// preview costs — runs before the shard guard is taken, which is held for
/// the (version, bias) comparison and the compliance verdicts only.
///
/// One shard, a 128-activity schema; the main thread previews a fresh
/// one-op overlay 200 times while a second thread drives sibling instances
/// one activity per command. Verifying under the guard lets that thread
/// get one command in per preview, and it waits out a pass for most of
/// them (this host, at the commit before the fix: 170–230 commands, their
/// 90th percentile 6–11 ms beside a 4–5 ms pass; after it: 5 000–7 000
/// commands, 41–57 µs beside a 0.6–0.8 ms pass). The bound — nine in ten
/// commands take less than half a pass — leaves the rest to whatever else
/// the host runs.
#[test]
#[ignore = "timing: run in release mode (CI's release step does)"]
fn a_preview_verifies_outside_the_shard_guard() {
    use adept_core::{ChangeOp, NewActivity};
    use std::time::Instant;
    let schema = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(128), 1);
    let mut passes: Vec<u128> = (0..21)
        .map(|_| {
            let started = Instant::now();
            assert!(adept_verify::verify_schema(std::hint::black_box(&schema)).is_correct());
            started.elapsed().as_nanos()
        })
        .collect();
    passes.sort_unstable();
    let pass_ns = passes[passes.len() / 2];

    let engine = ProcessEngine::from_parts(
        SchemaRepository::new(),
        InstanceStore::with_shards(Representation::Hybrid, 1),
        Arc::default(),
    );
    let name = engine.deploy(schema.clone()).unwrap();
    let previewed = engine.create_instance(&name).unwrap();
    let pred = schema.start_node();
    let succ = schema.sole_control_successor(pred).unwrap();
    let done = AtomicBool::new(false);
    let mut waits = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut waits: Vec<u128> = Vec::new();
            let mut driver = RandomDriver::new(1);
            while !done.load(Ordering::SeqCst) {
                let sibling = engine.create_instance(&name).unwrap();
                while !done.load(Ordering::SeqCst) {
                    let started = Instant::now();
                    let step = drive_with(&engine, sibling, &mut driver, Some(1)).unwrap();
                    waits.push(started.elapsed().as_nanos());
                    if step.finished {
                        break;
                    }
                }
            }
            waits
        });
        let mut session = engine.begin_change(previewed).unwrap();
        for k in 0..200 {
            let activity = NewActivity::named(format!("p{k}"));
            let op = ChangeOp::SerialInsert {
                activity,
                pred,
                succ,
            };
            session.stage(&op).unwrap();
            assert!(session.preview().unwrap().is_committable());
            session.unstage_last().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        writer.join().unwrap()
    });
    waits.sort_unstable();
    let (p90, worst) = (waits[waits.len() * 9 / 10], waits[waits.len() - 1]);
    println!(
        "{} commands beside 200 previews: p90 {p90} ns, worst {worst} ns; a pass {pass_ns} ns",
        waits.len()
    );
    assert!(
        2 * p90 < pass_ns,
        "p90 of a sibling's commands {p90} ns, a verification pass {pass_ns} ns"
    );
}

/// 4 writers (create/drive/remove on disjoint instance pools) + 2 cursor
/// readers polling concurrently. After the writers join, one final poll
/// per reader must reconstruct exactly the full recompute: no lost
/// items, no resurrected (removed) instances.
#[test]
fn threaded_writers_and_cursor_readers_converge() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let done = AtomicBool::new(false);

    let views: Vec<View> = std::thread::scope(|s| {
        let writers: Vec<_> = (0..4u64)
            .map(|w| {
                let engine = &engine;
                let name = &name;
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(w ^ 0xbeef);
                    let mut mine: Vec<InstanceId> = Vec::new();
                    let mut removed = Vec::new();
                    for round in 0..30u64 {
                        let id = engine.create_instance(name).unwrap();
                        mine.push(id);
                        let steps = rng.gen_range(0..4);
                        let mut driver = RandomDriver::new(w << 32 | round);
                        let _ = drive_with(engine, id, &mut driver, Some(steps));
                        // Periodically remove an older instance: readers
                        // must never resurrect it.
                        if round % 5 == 4 {
                            let victim = mine.remove(rng.gen_range(0..mine.len()));
                            engine.remove_instance(victim).unwrap();
                            removed.push(victim);
                        }
                    }
                    removed
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                let done = &done;
                s.spawn(move || {
                    let mut view = View::default();
                    while !done.load(Ordering::Acquire) {
                        view.poll(engine);
                    }
                    view.poll(engine); // final, post-quiescence poll
                    view
                })
            })
            .collect();
        let removed: Vec<InstanceId> = writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        done.store(true, Ordering::Release);
        let views: Vec<View> = readers.into_iter().map(|h| h.join().unwrap()).collect();
        for view in &views {
            for id in &removed {
                assert!(
                    !view.items.contains_key(id),
                    "removed {id} resurrected in a reader's view"
                );
            }
        }
        views
    });

    let reference = canon(worklist_full(&engine));
    for (k, view) in views.iter().enumerate() {
        assert_eq!(
            canon(view.flat()),
            reference.clone(),
            "reader {k} diverged from the full recompute"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20,
        ..ProptestConfig::default()
    })]

    /// Replaying `worklist_delta` from epoch 0 reconstructs exactly
    /// `worklist_full` after arbitrary interleavings of commands,
    /// change-transaction commits, evolution + migration, and removals —
    /// polled at random points, so partial replays must compose too.
    #[test]
    fn delta_replay_reconstructs_full_worklist(seed in 0u64..10_000, steps in 8usize..24) {
        let schema = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(12), seed);
        let engine = ProcessEngine::new();
        let name = engine.deploy(schema).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xde17a);
        let mut view = View::default();
        let mut ids: Vec<InstanceId> = Vec::new();

        for step in 0..steps {
            match rng.gen_range(0u8..8) {
                0 | 1 => ids.push(engine.create_instance(&name).unwrap()),
                2..=4 => {
                    if let Some(id) = ids.get(rng.gen_range(0..ids.len().max(1))).copied() {
                        let mut driver = RandomDriver::new(seed ^ (step as u64));
                        let _ = drive_with(&engine, id, &mut driver, Some(rng.gen_range(1..4)));
                    }
                }
                5 => {
                    if let Some(id) = ids.get(rng.gen_range(0..ids.len().max(1))).copied() {
                        let current = engine.store.schema_of(&engine.repo, id).unwrap();
                        for kind in adept_simgen::ALL_OP_KINDS {
                            if let Some(op) =
                                adept_simgen::changegen::propose(&current, kind, &mut rng, "p")
                            {
                                let _ = adhoc(&engine, id, &op);
                                break;
                            }
                        }
                    }
                }
                6 => {
                    let latest = engine.repo.latest_version(&name).unwrap();
                    let schema = engine.repo.deployed(&name, latest).unwrap().schema.clone();
                    let mut erng = SmallRng::seed_from_u64(seed ^ (step as u64) << 8);
                    if let Some(op) = adept_simgen::changegen::propose(
                        &schema,
                        adept_simgen::OpKind::SerialInsert,
                        &mut erng,
                        &format!("evo{step}"),
                    ) {
                        if evolve(&engine, &name, &[op]).is_ok() {
                            let _ = engine.migrate_all(&name, &Default::default(), 1);
                        }
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let victim = ids.remove(rng.gen_range(0..ids.len()));
                        let _ = engine.remove_instance(victim);
                    }
                }
            }
            if rng.gen_bool(0.4) {
                view.poll(&engine);
            }
        }
        view.poll(&engine);
        prop_assert_eq!(
            canon(view.flat()),
            canon(worklist_full(&engine)),
            "delta replay diverged (seed {})", seed
        );
        // A fresh bootstrap (since 0) agrees too.
        let mut fresh = View::default();
        fresh.poll(&engine);
        prop_assert_eq!(
            canon(fresh.flat()),
            canon(worklist_full(&engine)),
            "bootstrap delta diverged (seed {})", seed
        );
    }
}
