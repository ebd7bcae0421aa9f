//! Observational equivalence of the instance store's layouts.
//!
//! Engines run the **identical** generated lifecycle — creations, driven
//! execution, ad-hoc change attempts, undos, evolutions + full-population
//! migrations, removals — over differently laid out stores:
//!
//! * **shards** — the default 16-way sharded store against
//!   `InstanceStore::with_shards(_, 1)` (the old single-map layout). Every
//!   observable of the store must agree afterwards: ids, per-instance
//!   content, the per-type secondary index, access-stats totals, the
//!   memory breakdown, and the persistence snapshot (byte-identical JSON)
//!   plus its restore round-trip — and, step by step, the worklist and the
//!   delta a cursor is served.
//! * **representation** (paper Fig. 2) — `Hybrid` against `RedundantFree`.
//!   What an instance *is* must agree (ids, content, the schema it runs
//!   on, the byte-identical snapshot, the worklist and every delta); what
//!   an access *costs* must not: the engine resolves every context through
//!   the store, so the access statistics tell the two apart.

use adept_core::{ChangeOp, NewActivity};
use adept_engine::ProcessEngine;
use adept_model::{InstanceId, ProcessSchema};
use adept_simgen::{scenarios, RandomDriver};
use adept_storage::{to_json, InstanceStore, Representation, SchemaRepository};
use adept_tests::{adhoc, drive_with, evolve, worklist_full};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn engine_with(representation: Representation, shards: usize) -> (ProcessEngine, String) {
    let engine = ProcessEngine::from_parts(
        SchemaRepository::new(),
        InstanceStore::with_shards(representation, shards),
        Arc::default(),
    );
    let name = engine.deploy(scenarios::order_process()).unwrap();
    (engine, name)
}

fn engine_with_shards(shards: usize) -> (ProcessEngine, String) {
    engine_with(Representation::Hybrid, shards)
}

/// An ad-hoc sync edge `confirm order -> pack goods` — compatible with the
/// Fig. 1 type change (unlike I2's), so an instance carrying it migrates
/// as a *biased* instance.
fn compatible_bias_op(schema: &ProcessSchema) -> ChangeOp {
    ChangeOp::InsertSyncEdge {
        from: schema.node_by_name("confirm order").unwrap().id,
        to: schema.node_by_name("pack goods").unwrap().id,
    }
}

/// An ad-hoc insertion right behind `get order`.
fn check_customer_op(schema: &ProcessSchema) -> ChangeOp {
    ChangeOp::SerialInsert {
        activity: NewActivity::named("check customer"),
        pred: schema.node_by_name("get order").unwrap().id,
        succ: schema.node_by_name("collect data").unwrap().id,
    }
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
        // Attempt an ad-hoc bias: the Fig. 1 I2 sync edge (conflicts with
        // the type change) or one compatible with it. May be rejected by
        // state or structure — every engine must reject identically.
        5 => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return "noop".into();
            };
            let version = engine.store.get(id).unwrap().version;
            let schema = &engine.repo.deployed(name, version).unwrap().schema;
            let op = if step_seed.is_multiple_of(2) {
                scenarios::fig1_i2_bias_op(schema)
            } else {
                compatible_bias_op(schema)
            };
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
        // Undo an instance's latest ad-hoc change (refused when it has
        // none, or when the inserted activity already ran).
        7 => {
            let Some(id) = ids.get(pick % ids.len().max(1)).copied() else {
                return "noop".into();
            };
            match engine.undo_ad_hoc_change(id) {
                Ok(()) => format!("undid {id}"),
                Err(e) => format!("undo {id} refused: {e}"),
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

/// After every step: the engines serve the same worklist, and cursors that
/// have followed them from the start the same delta — stamp for stamp, so
/// the epochs agree too. A delta's `added` is a set, met in each layout's
/// own scan order: compared sorted.
fn assert_same_worklist(engines: &[&ProcessEngine], cursors: &mut [u64], context: &str) {
    let sorted_delta = |engine: &ProcessEngine, since: u64| {
        let mut delta = engine.worklist_delta(since);
        delta.added.sort_unstable_by_key(|(id, _)| *id);
        delta
    };
    let worklist = engines[0].worklist();
    let delta = sorted_delta(engines[0], cursors[0]);
    for (engine, cursor) in engines.iter().zip(&mut *cursors).skip(1) {
        assert_eq!(engine.worklist(), worklist, "worklist {context}");
        assert_eq!(sorted_delta(engine, *cursor), delta, "delta {context}");
    }
    cursors.fill(delta.epoch);
}

/// What the instances *are* — ids, type index, per-instance content, the
/// schema each runs on, the snapshot — agrees between two layouts.
fn assert_same_content(a: &ProcessEngine, b: &ProcessEngine, name: &str, context: &str) {
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
    assert_eq!(
        to_json(&a.snapshot()).unwrap(),
        to_json(&b.snapshot()).unwrap(),
        "snapshot {context}"
    );
}

/// Compares every observable of two stores that differ in shard count
/// only.
fn assert_equivalent(a: &ProcessEngine, b: &ProcessEngine, name: &str, context: &str) {
    assert_same_content(a, b, name, context);
    assert_eq!(a.store.stats(), b.store.stats(), "stats totals {context}");
    assert_eq!(
        a.store.memory(&a.repo),
        b.store.memory(&b.repo),
        "memory breakdown {context}"
    );
    // The sharded snapshot must restore into an equivalent engine.
    let snap_a = a.snapshot();
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
        let mut cursors = [0; 2];
        for step in 0..steps {
            let action = rng.gen_range(0u8..9);
            let pick = rng.gen_range(0usize..1_000);
            let step_seed = rng.gen::<u64>();
            let ra = apply_step(&sharded, &name, &mut ids_a, action, pick, step_seed);
            let rb = apply_step(&single, &name, &mut ids_b, action, pick, step_seed);
            prop_assert_eq!(
                &ra, &rb,
                "step {} (action {}, seed {}) diverged", step, action, seed
            );
            prop_assert_eq!(&ids_a, &ids_b, "allocated ids diverged at step {}", step);
            assert_same_worklist(&[&sharded, &single], &mut cursors, &format!("at step {step}"));
        }
        assert_equivalent(&sharded, &single, &name, &format!("(seed {seed}, {steps} steps)"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// The two representations hold the same instances and differ in what
    /// an access costs — through the engine, not only through `schema_of`.
    #[test]
    fn representations_agree_on_content_and_differ_in_access_cost(
        seed in 0u64..10_000,
        steps in 8usize..32,
    ) {
        let (hybrid, name) = engine_with(Representation::Hybrid, 16);
        let (redundant_free, _) = engine_with(Representation::RedundantFree, 16);
        let engines = [&hybrid, &redundant_free];

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ids: [Vec<InstanceId>; 2] = Default::default();
        let mut cursors = [0; 2];
        // One instance is biased from the start, so that whenever the
        // lifecycle evolves the type there is a biased hop to take.
        for (e, ids) in engines.iter().zip(&mut ids) {
            let id = e.create_instance(&name).unwrap();
            let schema = e.repo.deployed(&name, 1).unwrap().schema;
            adhoc(e, id, &compatible_bias_op(&schema)).unwrap();
            ids.push(id);
        }
        for step in 0..steps {
            let action = rng.gen_range(0u8..9);
            let pick = rng.gen_range(0usize..1_000);
            let step_seed = rng.gen::<u64>();
            let tags: Vec<String> = engines
                .iter()
                .zip(&mut ids)
                .map(|(e, ids)| apply_step(e, &name, ids, action, pick, step_seed))
                .collect();
            prop_assert_eq!(&tags[0], &tags[1], "step {} (action {})", step, action);
            assert_same_worklist(&engines, &mut cursors, &format!("at step {step}"));
        }
        // So that no generated lifecycle leaves the comparison without a
        // biased instance: one more, changed while nothing of it ran.
        for e in engines {
            let id = e.create_instance(&name).unwrap();
            let version = e.store.get(id).unwrap().version;
            let schema = e.repo.deployed(&name, version).unwrap().schema;
            adhoc(e, id, &check_customer_op(&schema)).unwrap();
        }
        let biased: Vec<InstanceId> = hybrid
            .store
            .ids()
            .into_iter()
            .filter(|id| hybrid.store.get(*id).unwrap().is_biased())
            .collect();
        let n = biased.len() as u64;

        // The engine saw every change, so a store that retains a context
        // was handed each one: nothing was ever rebuilt.
        prop_assert_eq!(hybrid.store.stats().materializations, 0);
        // One more command on every biased instance: `RedundantFree`
        // rebuilds for each, `Hybrid` hits its cache.
        let before = engines.map(|e| e.store.stats());
        for id in &biased {
            let outcomes: Vec<String> = engines
                .iter()
                .map(|e| format!("{:?}", drive_with(e, *id, &mut RandomDriver::new(seed), Some(1))))
                .collect();
            prop_assert_eq!(&outcomes[0], &outcomes[1]);
        }
        let after = engines.map(|e| e.store.stats());
        prop_assert_eq!(after[0].cache_hits - before[0].cache_hits, n);
        prop_assert_eq!(after[1].materializations - before[1].materializations, n);
        prop_assert_eq!(after[0].materializations, 0);
        prop_assert_eq!(after[1].cache_hits, 0);

        let context = format!("(seed {seed}, {steps} steps)");
        assert_same_content(&hybrid, &redundant_free, &name, &context);
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
    let mut full: Vec<String> = worklist_full(&engine)
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
