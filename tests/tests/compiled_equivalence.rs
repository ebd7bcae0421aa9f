//! Observational equivalence of the engine's executor and its reference:
//! the arena core (`CompiledExecution` over a `CompiledSchema`) must be
//! indistinguishable from the interpreter (`Execution`) on every schema an
//! instance can run on — deployed versions and the materialized schemas of
//! biased instances alike: identical enabled sets, identical observed
//! event streams, byte-identical serialized state (see
//! `docs/EXECUTION_CORE.md`).

use adept_core::{adapt_instance_state, check_fast};
use adept_engine::ProcessEngine;
use adept_model::{CompiledSchema, InstanceId};
use adept_simgen::{generate_population, random_change, scenarios, GenParams, RandomDriver};
use adept_state::{CompactMarking, CompiledExecution, Execution};
use adept_tests::{adhoc, drive_with, evolve};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// A full driven run over a random schema produces the same result,
    /// the same observed event stream and a byte-identical serialized
    /// state on both tiers, when advanced in one-activity lockstep.
    #[test]
    fn random_runs_are_observationally_identical(
        schema_seed in 0u64..5000,
        drive_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let arena = CompiledSchema::compile(&schema, &ex.blocks);
        let cex = CompiledExecution::new(&schema, &arena);

        let mut di = RandomDriver::new(drive_seed);
        let mut dc = RandomDriver::new(drive_seed);
        let mut si = ex.init().unwrap();
        let mut sc = cex.init().unwrap();
        prop_assert_eq!(&si, &sc, "init diverges on schema seed {}", schema_seed);

        // One completed activity per round, events captured on both
        // sides; bounded far above any sized(14) schema's step count.
        for round in 0..256 {
            let mut evi = Vec::new();
            let mut evc = Vec::new();
            let ri = ex.run_observed(&mut si, &mut di, Some(1), &mut |e| evi.push(e));
            let rc = cex.run_observed(&mut sc, &mut dc, Some(1), &mut |e| evc.push(e));
            prop_assert_eq!(
                format!("{ri:?}"), format!("{rc:?}"),
                "run result diverges at round {} (schema {} / drive {})",
                round, schema_seed, drive_seed
            );
            prop_assert_eq!(
                &evi, &evc,
                "observed events diverge at round {} (schema {} / drive {})",
                round, schema_seed, drive_seed
            );
            prop_assert_eq!(&si, &sc);
            prop_assert_eq!(
                serde_json::to_string(&si).unwrap(),
                serde_json::to_string(&sc).unwrap(),
                "serialized state must be byte-identical"
            );
            prop_assert_eq!(ex.enabled(&si), cex.enabled(&sc));
            prop_assert_eq!(ex.is_finished(&si), cex.is_finished(&sc));
            if ri.is_err() || (matches!(ri, Ok(0)) && ex.is_finished(&si)) {
                break;
            }
        }
    }

    /// Every marking a random population reaches on the interpreted path
    /// round-trips losslessly through the compact representation, and a
    /// marking from an ad-hoc-*changed* (biased) schema is rejected by
    /// the arena rather than silently misread.
    #[test]
    fn populations_round_trip_and_bias_is_rejected(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(12), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let arena = CompiledSchema::compile(&schema, &ex.blocks);
        for st in generate_population(&ex, 4, pop_seed) {
            let compact = CompactMarking::from_marking(&arena, &st.marking).unwrap();
            prop_assert_eq!(compact.to_marking(&arena), st.marking.clone());
        }
        // A structural change introduces nodes the base arena has never
        // interned — exactly the biased-instance shape. If the change
        // added a node, driving the evolved schema far enough to mark it
        // must make the base arena refuse the conversion.
        let Some((evolved, delta)) = random_change(&schema, change_seed, "bias") else {
            return Ok(());
        };
        let added: Vec<_> = delta.added_nodes().into_iter().collect();
        if added.is_empty() {
            return Ok(());
        }
        let ex2 = Execution::new(&evolved).unwrap();
        for st in generate_population(&ex2, 6, pop_seed) {
            if added.iter().any(|n| st.marking.marked_nodes().any(|(m, _)| m == *n)) {
                prop_assert!(
                    CompactMarking::from_marking(&arena, &st.marking).is_err(),
                    "foreign marking accepted (schema {} / change {})",
                    schema_seed, change_seed
                );
                break;
            }
        }
    }

    /// The shape every biased instance has: a schema *materialized* from
    /// a base plus a change, and a state adapted onto it from mid-run.
    /// The arena compiled from the changed schema runs such states in
    /// one-activity lockstep with the interpreter.
    #[test]
    fn materialized_biased_schemas_run_in_lockstep(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let Some((biased, delta)) = random_change(&schema, change_seed, "bias") else {
            return Ok(());
        };
        let bex = Execution::new(&biased).unwrap();
        let arena = CompiledSchema::compile(&biased, &bex.blocks);
        let cex = CompiledExecution::new(&biased, &arena);

        for (k, st) in generate_population(&ex, 4, pop_seed).into_iter().enumerate() {
            // Only compliant instances can carry the bias.
            if !check_fast(&schema, &ex.blocks, &st, &delta).is_compliant() {
                continue;
            }
            let mut si = st;
            adapt_instance_state(&schema, &ex.blocks, &bex, &delta, &mut si).unwrap();
            let mut sc = si.clone();
            prop_assert_eq!(bex.enabled(&si), cex.enabled(&sc));
            prop_assert_eq!(bex.pending_decisions(&si), cex.pending_decisions(&sc));

            let drive_seed = pop_seed ^ ((k as u64) << 9);
            let mut di = RandomDriver::new(drive_seed);
            let mut dc = RandomDriver::new(drive_seed);
            for round in 0..256 {
                let mut evi = Vec::new();
                let mut evc = Vec::new();
                let ri = bex.run_observed(&mut si, &mut di, Some(1), &mut |e| evi.push(e));
                let rc = cex.run_observed(&mut sc, &mut dc, Some(1), &mut |e| evc.push(e));
                prop_assert_eq!(
                    format!("{ri:?}"), format!("{rc:?}"),
                    "run result diverges at round {} (schema {} / pop {} / change {})",
                    round, schema_seed, pop_seed, change_seed
                );
                prop_assert_eq!(
                    &evi, &evc,
                    "observed events diverge at round {} (schema {} / pop {} / change {})",
                    round, schema_seed, pop_seed, change_seed
                );
                prop_assert_eq!(
                    serde_json::to_string(&si).unwrap(),
                    serde_json::to_string(&sc).unwrap(),
                    "serialized state must be byte-identical"
                );
                prop_assert_eq!(bex.enabled(&si), cex.enabled(&sc));
                prop_assert_eq!(bex.is_finished(&si), cex.is_finished(&sc));
                if ri.is_err() || (matches!(ri, Ok(0)) && bex.is_finished(&si)) {
                    break;
                }
            }
        }
    }
}

/// Drives `id` through the engine and, from a clone of the stored state,
/// through the reference interpreter over the instance's materialized
/// schema with the same seeded driver: both must complete the same number
/// of activities and leave byte-identical state.
fn drive_against_reference(engine: &ProcessEngine, id: InstanceId, seed: u64, max: usize) {
    let mut reference = engine.store.get(id).unwrap().state;
    let (schema, blocks) = engine.materialized(id).unwrap();
    let ex = Execution::with_blocks_ref(&schema, &blocks);
    let expected = ex
        .run(&mut reference, &mut RandomDriver::new(seed), Some(max))
        .unwrap();

    let out = drive_with(engine, id, &mut RandomDriver::new(seed), Some(max)).unwrap();
    assert_eq!(out.completed, expected, "{id}: driven activity count");
    assert_eq!(out.enabled, ex.enabled(&reference), "{id}: enabled set");
    assert_eq!(out.finished, ex.is_finished(&reference), "{id}: finished");
    assert_eq!(
        serde_json::to_string(&engine.store.get(id).unwrap().state).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "{id}: stored state must be byte-identical to the reference run"
    );
}

/// One end-to-end lifecycle — deploy, create, ad-hoc bias on every 4th
/// instance, drive, evolve, migrate, drive to the end, remove — with every
/// drive of every instance (unbiased and biased, before and after the
/// migration) checked against the reference interpreter.
#[test]
fn engine_lifecycle_matches_reference_interpreter() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = v1.schema.node_by_name("get order").unwrap().id;
    let collect = v1.schema.node_by_name("collect data").unwrap().id;

    let ids: Vec<_> = (0..12)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    for (k, id) in ids.iter().enumerate() {
        if k % 4 == 0 {
            // Bias disjoint from the evolution delta: stays biased,
            // still migrates.
            adhoc(
                &engine,
                *id,
                &adept_core::ChangeOp::SerialInsert {
                    activity: adept_core::NewActivity::named("check customer"),
                    pred: get,
                    succ: collect,
                },
            )
            .unwrap();
        }
        drive_against_reference(&engine, *id, k as u64, 1 + k % 3);
    }

    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    let report = engine
        .migrate_all(&name, &adept_core::MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), ids.len(), "{report}");
    for (k, id) in ids.iter().enumerate() {
        let inst = engine.store.get(*id).unwrap();
        assert_eq!(
            inst.is_biased(),
            k % 4 == 0,
            "{id}: bias survives migration"
        );
        drive_against_reference(&engine, *id, 1000 + k as u64, 200);
        assert!(engine.is_finished(*id).unwrap(), "{id} did not finish");
    }
    engine.remove_instance(ids[5]).unwrap();
    assert!(engine.worklist_full().is_empty());
}
