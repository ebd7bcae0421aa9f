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

use adept_engine::ProcessEngine;
use adept_simgen::{scenarios, RandomDriver};
use adept_storage::ordered::{self, classes};
use adept_storage::MemoryBackend;
use adept_tests::{drive_with, evolve};

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

    /// Holding two shards of the same table without the sweep API is the
    /// one-shard-per-table violation.
    #[test]
    fn two_shards_of_one_table_panics() {
        let table: Shards<u32> = Shards::new(&classes::TEST_SUPPORT, 4);
        let _first = table.for_raw(0).read();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _second = table.for_raw(1).read();
        }));
        let msg = panic_message(result.expect_err("second same-class lock must panic"));
        assert!(
            msg.contains("one-shard-per-table violation"),
            "unexpected panic message: {msg}"
        );
    }

    /// The sweep API itself enforces ascending shard order: a descending
    /// sweep is refused rather than allowed to deadlock against an
    /// ascending one.
    #[test]
    fn descending_sweep_panics() {
        let table: Shards<u32> = Shards::new(&classes::TEST_SUPPORT, 4);
        let _high = table.for_raw(3).read_sweep();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _low = table.for_raw(1).read_sweep();
        }));
        let msg = panic_message(result.expect_err("descending sweep must panic"));
        assert!(msg.contains("violation"), "unexpected panic message: {msg}");
    }
}

use proptest::prelude::*;

proptest! {
    /// Random legal acquisition subsets keep the observed graph acyclic:
    /// each case acquires an arbitrary subset of the declared classes in
    /// ascending rank order — exactly the discipline the ranks encode —
    /// and the accumulated edge graph must never close a cycle.
    #[test]
    fn random_legal_interleavings_stay_acyclic(subset in 0u64..(1 << 13)) {
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
