//! Lock-discipline checks: the `adept_storage::ordered` layer must
//! reject illegal acquisitions at run time (debug / `lock-order-check`
//! builds), and every legal workload must leave the observed
//! acquisition graph acyclic.
//!
//! The violation tests are compiled only when the checker is live —
//! `cargo test` (debug) or `cargo test --release --features
//! lock-order-check`. The acyclicity tests run everywhere (the
//! no-checker build's `check()` trivially passes, which is itself the
//! contract: release builds pay nothing).

use adept_engine::{EngineCommand, ProcessEngine};
use adept_simgen::{scenarios, RandomDriver};
use adept_storage::ordered::{self, classes};
use adept_storage::MemoryBackend;
use adept_tests::{adhoc, drive_with, evolve};

#[cfg(any(debug_assertions, feature = "lock-order-check"))]
mod violations {
    use super::*;
    use adept_storage::ordered::{OrderedMutex, OrderedRwLock};
    use adept_storage::Shards;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic>".to_string())
    }

    /// Acquiring a store-shard lock while holding a WAL-segment lock
    /// inverts the declared order (store.shard=20 < wal.file-state=72)
    /// and must panic with both acquisition sites.
    #[test]
    fn inverted_acquisition_panics() {
        let wal_side = OrderedMutex::new(&classes::WAL_FILE_STATE, ());
        let store_side = OrderedRwLock::new(&classes::STORE_SHARD, ());
        let _held = wal_side.lock();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _bad = store_side.read();
        }));
        let msg = panic_message(result.expect_err("inverted acquisition must panic"));
        assert!(
            msg.contains("lock-order violation"),
            "unexpected panic message: {msg}"
        );
        assert!(msg.contains("store.shard") && msg.contains("wal.file-state"));
    }

    /// Holding two shards of the same table is the one-shard-per-table
    /// violation — unconditionally: no acquisition order makes it legal.
    #[test]
    fn two_shards_of_one_table_panics() {
        let table: Shards<u32> = Shards::new(&classes::TEST_SUPPORT, 4);
        let mut shards = table.iter();
        let _first = shards.next().unwrap().read();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _second = shards.next().unwrap().read();
        }));
        let msg = panic_message(result.expect_err("second same-class lock must panic"));
        assert!(
            msg.contains("one-shard-per-table violation"),
            "unexpected panic message: {msg}"
        );
    }
}

use proptest::prelude::*;

proptest! {
    /// Random legal acquisition subsets keep the observed graph acyclic:
    /// each case acquires an arbitrary subset of the declared classes in
    /// ascending rank order — exactly the discipline the ranks encode —
    /// and the accumulated edge graph must never close a cycle.
    #[test]
    fn random_legal_interleavings_stay_acyclic(subset in 0u64..(1 << classes::all().len())) {
        use adept_storage::ordered::OrderedRwLock;
        let locks: Vec<OrderedRwLock<u32>> = classes::all()
            .into_iter()
            .map(|class| OrderedRwLock::new(class, 0))
            .collect();
        let mut guards = Vec::new();
        for (i, lock) in locks.iter().enumerate() {
            if (subset >> i) & 1 == 1 {
                guards.push(lock.read());
            }
        }
        drop(guards);
        prop_assert!(
            ordered::check().is_ok(),
            "legal ascending interleavings must stay acyclic"
        );
    }
}

/// A full durable-engine workload — deploy, create, drive, evolve,
/// migrate, worklist, events — recorded by the checker must yield an
/// acyclic acquisition graph, and `dump()` must describe it.
#[test]
fn engine_workload_graph_is_acyclic() {
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(MemoryBackend::new())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<_> = (0..24)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let mut driver = RandomDriver::new(i as u64);
        let _ = drive_with(&engine, *id, &mut driver, Some(1 + i % 3));
    }
    let schema = engine.repo.deployed(&name, 1).unwrap().schema.clone();
    let ops = scenarios::fig1_delta_ops(&schema);
    evolve(&engine, &name, &ops).unwrap();
    let _ = engine
        .migrate_all(&name, &adept_core::MigrationOptions::default(), 4)
        .unwrap();
    let _ = engine.worklist();
    let _ = engine.worklist_delta(0);
    let _ = engine.monitor.events();

    ordered::check().expect("engine workload must respect the declared lock order");
    let dump = ordered::dump();
    assert!(!dump.is_empty());
    #[cfg(any(debug_assertions, feature = "lock-order-check"))]
    assert!(
        dump.contains("store.shard"),
        "workload should have recorded store-shard acquisitions:\n{dump}"
    );
}

/// Every worklist read path — full, role-filtered, bootstrap delta and
/// incremental delta — takes the store's shards one guard at a time: run
/// beside a writer that keeps instances changing, rebiased and
/// disappearing, none of them may ever hold two `store.shard` or two
/// `store.changes-shard` guards (the checker panics on the second, and the
/// panic fails the reader's join), and the only nestings a read takes are
/// `store.shard → repo.types` (an unbiased instance's context is
/// its deployment) and `store.shard → store.changes-shard` (flagging an
/// instance no schema resolves for — the ghost below).
#[test]
fn worklist_reads_hold_one_store_shard_at_a_time() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let dep = engine.repo.deployed(&name, 1).unwrap();
    let schema = dep.schema.clone();
    engine
        .store
        .create("ghost type", 1, dep.exec().init().unwrap());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut ids = Vec::new();
            for round in 0..120u64 {
                let id = engine.create_instance(&name).unwrap();
                ids.push(id);
                let mut driver = RandomDriver::new(round);
                let _ = drive_with(&engine, id, &mut driver, Some(1 + (round % 3) as usize));
                match round % 6 {
                    // A committed ad-hoc change says what the instance
                    // offers; a direct write through the store does not,
                    // and the next read asks the instance.
                    2 => {
                        let _ = adhoc(&engine, id, &scenarios::fig1_insert_op(&schema));
                        let _ = engine.store.update(id, |_| ());
                    }
                    5 => {
                        engine.remove_instance(ids.swap_remove(0)).unwrap();
                    }
                    _ => {}
                }
            }
        });
        let reader = s.spawn(|| {
            let mut epoch = engine.worklist_delta(0).epoch;
            let mut polls = 0u32;
            while !done.load(Ordering::Acquire) || polls < 4 {
                let _ = engine.worklist();
                let _ = engine.worklist_for("sales");
                let _ = engine.worklist_delta(0);
                epoch = engine.worklist_delta(epoch).epoch;
                polls += 1;
            }
        });
        writer.join().expect("writer");
        done.store(true, Ordering::Release);
        reader
            .join()
            .expect("a worklist read held two shards of one table");
    });
    ordered::check().expect("worklist reads must respect the declared lock order");
}

/// A panic inside a store critical section poisons the shard's lock; the
/// ordered wrapper recovers it, so the instance the closure panicked on
/// keeps serving commands, worklist polls and migration.
#[test]
fn a_panic_under_a_store_guard_leaves_the_shard_serving() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let epoch = engine.worklist_delta(0).epoch;
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        engine
            .store
            .update(id, |_| panic!("dies holding the store shard"))
    }));
    assert!(panicked.is_err());

    let item = engine
        .worklist()
        .into_iter()
        .find(|w| w.instance == id)
        .expect("the instance still offers its first activity");
    engine
        .submit(EngineCommand::Start {
            instance: id,
            node: item.node,
        })
        .expect("a command on the poisoned shard");
    let delta = engine.worklist_delta(epoch);
    assert!(delta.epoch > epoch);
    assert!(
        delta.added.iter().any(|(changed, _)| *changed == id),
        "the poll sees the command"
    );

    let schema = engine.repo.deployed(&name, 1).unwrap().schema.clone();
    evolve(&engine, &name, &scenarios::fig1_delta_ops(&schema)).unwrap();
    let report = engine
        .migrate_all(&name, &adept_core::MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!((report.total(), report.failed()), (1, 0), "{report}");
    ordered::check().expect("recovery from poisoning takes no new lock order");
}
