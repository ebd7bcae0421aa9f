//! Observational equivalence of the sharded instance store.
//!
//! Two engines run the **identical** generated lifecycle — creations,
//! driven execution, ad-hoc change attempts, evolutions + full-population
//! migrations, removals — one on the default 16-way sharded store, one on
//! `InstanceStore::with_shards(_, 1)` (the old single-map layout). Every
//! observable of the store must agree afterwards: ids, per-instance
//! content, the per-type secondary index, access-stats totals, the memory
//! breakdown, and the persistence snapshot (byte-identical JSON) plus its
//! restore round-trip.

use adept_engine::ProcessEngine;
use adept_model::InstanceId;
use adept_simgen::{scenarios, RandomDriver};
use adept_storage::{to_json, InstanceStore, Representation, SchemaRepository, TxnLog};
use adept_tests::{adhoc, drive_with, evolve};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn engine_with_shards(shards: usize) -> (ProcessEngine, String) {
    let engine = ProcessEngine::from_parts(
        SchemaRepository::new(),
        InstanceStore::with_shards(Representation::Hybrid, shards),
        TxnLog::new(),
    );
    let name = engine.deploy(scenarios::order_process()).unwrap();
    (engine, name)
}

/// Applies one lifecycle step, deterministically derived from `rng`, to
/// one engine. Returns a short result tag so the caller can assert both
/// engines reacted identically.
fn apply_step(
    engine: &ProcessEngine,
    name: &str,
    ids: &mut Vec<InstanceId>,
    action: u8,
    pick: usize,
    step_seed: u64,
) -> String {
    match action {
        // Create.
        0 | 1 => {
            let id = engine.create_instance(name).unwrap();
            ids.push(id);
            format!("created {id}")
        }
        // Drive a random instance a couple of steps.
        2..=4 => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return "noop".into();
            };
            let mut driver = RandomDriver::new(step_seed);
            match drive_with(engine, id, &mut driver, Some(1 + (step_seed % 3) as usize)) {
                Ok(o) => format!(
                    "drove {id}: {} completed, finished={}",
                    o.completed, o.finished
                ),
                Err(e) => format!("drive {id} failed: {e}"),
            }
        }
        // Attempt an ad-hoc bias (the Fig. 1 I2 sync edge). May be
        // rejected by state — both engines must reject identically.
        5 => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return "noop".into();
            };
            let version = engine.store.get(id).unwrap().version;
            let schema = &engine.repo.deployed(name, version).unwrap().schema;
            let op = scenarios::fig1_i2_bias_op(schema);
            match adhoc(engine, id, &op) {
                Ok(r) => format!("biased {id} ({} ops)", r.ops),
                Err(e) => format!("bias {id} rejected: {e}"),
            }
        }
        // Evolve the type and migrate the whole population. Repeated
        // evolutions may fail (the Fig. 1 delta only applies once to a
        // given shape) — both engines must fail identically.
        6 => {
            let latest = engine.repo.latest_version(name).unwrap();
            let schema = engine.repo.deployed(name, latest).unwrap().schema.clone();
            if schema.node_by_name("send questions").is_some() {
                // The Fig. 1 delta only applies to the original shape
                // (its dry run would panic on a re-application).
                return "evolve skipped (already evolved)".into();
            }
            let ops = scenarios::fig1_delta_ops(&schema);
            match evolve(engine, name, &ops) {
                Err(e) => format!("evolve failed: {e}"),
                Ok(v) => {
                    let report = engine
                        .migrate_all(name, &adept_core::MigrationOptions::default(), 1)
                        .unwrap();
                    format!(
                        "evolved to V{v}; migrated {} of {} ({} failed)",
                        report.migrated(),
                        report.total(),
                        report.failed()
                    )
                }
            }
        }
        // Remove an instance.
        _ => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return "noop".into();
            };
            ids.retain(|i| *i != id);
            match engine.remove_instance(id) {
                Ok(inst) => format!(
                    "removed {id} (V{}, biased={})",
                    inst.version,
                    inst.is_biased()
                ),
                Err(e) => format!("remove {id} failed: {e}"),
            }
        }
    }
}

/// Compares every observable of the two stores.
fn assert_equivalent(a: &ProcessEngine, b: &ProcessEngine, name: &str, context: &str) {
    assert_eq!(a.store.len(), b.store.len(), "len {context}");
    assert_eq!(a.store.ids(), b.store.ids(), "ids {context}");
    assert_eq!(
        a.store.instances_of(name),
        b.store.instances_of(name),
        "type index {context}"
    );
    for id in a.store.ids() {
        let ia = a.store.get(id).unwrap();
        let ib = b.store.get(id).unwrap();
        assert_eq!(ia.type_name, ib.type_name, "{id} type {context}");
        assert_eq!(ia.version, ib.version, "{id} version {context}");
        assert_eq!(ia.bias, ib.bias, "{id} bias {context}");
        assert_eq!(ia.state, ib.state, "{id} state {context}");
        assert_eq!(
            a.store.schema_of(&a.repo, id).as_deref(),
            b.store.schema_of(&b.repo, id).as_deref(),
            "{id} schema {context}"
        );
    }
    assert_eq!(a.store.stats(), b.store.stats(), "stats totals {context}");
    assert_eq!(
        a.store.memory(&a.repo),
        b.store.memory(&b.repo),
        "memory breakdown {context}"
    );
    // Snapshots must be byte-identical, and the sharded snapshot must
    // restore into an equivalent engine.
    let snap_a = a.snapshot();
    let snap_b = b.snapshot();
    assert_eq!(
        to_json(&snap_a).unwrap(),
        to_json(&snap_b).unwrap(),
        "snapshot {context}"
    );
    let restored = ProcessEngine::from_snapshot(&snap_a).unwrap();
    assert_eq!(restored.store.ids(), a.store.ids(), "restore ids {context}");
    for id in a.store.ids() {
        let ia = a.store.get(id).unwrap();
        let ir = restored.store.get(id).unwrap();
        assert_eq!(ia.version, ir.version, "restore {id} version {context}");
        assert_eq!(ia.bias, ir.bias, "restore {id} bias {context}");
        assert_eq!(ia.state, ir.state, "restore {id} state {context}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The sharded store is observationally equivalent to the single-map
    /// store under generated lifecycles.
    #[test]
    fn sharded_store_equivalent_to_single_map(
        seed in 0u64..10_000,
        steps in 8usize..32,
    ) {
        let (sharded, name_a) = engine_with_shards(16);
        let (single, name_b) = engine_with_shards(1);
        prop_assert_eq!(&name_a, &name_b, "deployment must name identically");
        let name = name_a;
        prop_assert_eq!(sharded.store.shard_count(), 16);
        prop_assert_eq!(single.store.shard_count(), 1);

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids_a: Vec<InstanceId> = Vec::new();
        let mut ids_b: Vec<InstanceId> = Vec::new();
        for step in 0..steps {
            let action = rng.gen_range(0u8..8);
            let pick = rng.gen_range(0usize..1_000);
            let step_seed = rng.gen::<u64>();
            let ra = apply_step(&sharded, &name, &mut ids_a, action, pick, step_seed);
            let rb = apply_step(&single, &name, &mut ids_b, action, pick, step_seed);
            prop_assert_eq!(
                &ra, &rb,
                "step {} (action {}, seed {}) diverged", step, action, seed
            );
            prop_assert_eq!(&ids_a, &ids_b, "allocated ids diverged at step {}", step);
        }
        assert_equivalent(&sharded, &single, &name, &format!("(seed {seed}, {steps} steps)"));
    }
}

/// The worklist served over the sharded store equals the full recompute
/// after a lifecycle touching every mutation path (spot check outside the
/// property harness).
#[test]
fn worklist_consistent_over_sharded_population() {
    let (engine, name) = engine_with_shards(16);
    for k in 0..50u64 {
        let id = engine.create_instance(&name).unwrap();
        let mut driver = RandomDriver::new(k);
        drive_with(&engine, id, &mut driver, Some((k % 4) as usize)).unwrap();
    }
    let mut full: Vec<String> = engine
        .worklist_full()
        .into_iter()
        .map(|w| format!("{w}"))
        .collect();
    let mut indexed: Vec<String> = engine
        .worklist()
        .into_iter()
        .map(|w| format!("{w}"))
        .collect();
    full.sort();
    indexed.sort();
    assert_eq!(indexed, full);
}
