//! Observational equivalence of the executor and its reference: the arena
//! core (`CompiledExecution` over a `CompiledSchema`, reached through the
//! `Execution` handle) must be indistinguishable from the reference
//! interpreter (`adept_tests::reference::Interpreter`) on every schema an
//! instance can run on — deployed versions and the materialized schemas of
//! biased instances alike: identical enabled sets, identical observed
//! event streams, byte-identical serialized state — and identical replays,
//! refreshes and audits, down to the fields of every error (see
//! `docs/EXECUTION_CORE.md`).

use adept_core::adapt::transfer_marking;
use adept_core::{adapt_instance_state, apply_op, check_fast, ChangeOp, NewActivity};
use adept_engine::{recover_from_segmented, ProcessEngine};
use adept_model::{
    DataId, EdgeId, InstanceId, LoopCond, NodeId, NodeKind, ProcessSchema, SchemaBuilder, Value,
    ValueType,
};
use adept_simgen::changegen::propose;
use adept_simgen::{
    generate_population, random_change, scenarios, GenParams, RandomDriver, ALL_OP_KINDS,
};
use adept_state::{
    CompactMarking, DefaultDriver, EdgeState, Event, Execution, ExecutionHistory, InstanceState,
    NodeState, RuntimeError,
};
use adept_storage::MemoryBackend;
use adept_tests::reference::Interpreter;
use adept_tests::{adhoc, drive_with, evolve, worklist_full};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Replayed = Result<InstanceState, RuntimeError>;

/// Same `Ok` state byte for byte, or the same error variant *and fields*.
fn assert_same_replay(reference: &Replayed, arena: &Replayed, what: &str) {
    assert_eq!(reference, arena, "{what}");
    if let (Ok(r), Ok(a)) = (reference, arena) {
        assert_eq!(
            serde_json::to_string(r).unwrap(),
            serde_json::to_string(a).unwrap(),
            "{what}: serialized state must be byte-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// A full driven run over a random schema produces the same result,
    /// the same observed event stream and a byte-identical serialized
    /// state on both implementations, when advanced in one-activity
    /// lockstep.
    #[test]
    fn random_runs_are_observationally_identical(
        schema_seed in 0u64..5000,
        drive_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Interpreter::new(&schema).unwrap();
        let handle = Execution::new(&schema).unwrap();
        let cex = handle.exec();

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

    /// Every marking a random population reaches round-trips losslessly
    /// through the compact representation, and a marking from an
    /// ad-hoc-*changed* (biased) schema is rejected by the arena rather
    /// than silently misread.
    #[test]
    fn populations_round_trip_and_bias_is_rejected(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(12), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        for st in generate_population(&ex, 4, pop_seed) {
            let compact = CompactMarking::from_marking(&ex.arena, &st.marking).unwrap();
            prop_assert_eq!(compact.to_marking(&ex.arena), st.marking.clone());
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
                    CompactMarking::from_marking(&ex.arena, &st.marking).is_err(),
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
        let bex = Interpreter::new(&biased).unwrap();
        let handle = Execution::new(&biased).unwrap();
        let cex = handle.exec();

        for (k, st) in generate_population(&ex, 4, pop_seed).into_iter().enumerate() {
            // Only compliant instances can carry the bias.
            if !check_fast(&schema, &ex.blocks, &st, &delta).is_compliant() {
                continue;
            }
            let mut si = st;
            adapt_instance_state(&schema, &ex.blocks, &handle, &delta, &mut si).unwrap();
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

    /// What judges a change: a population driven to random depths on a
    /// schema, a random change applied to it, and on the changed schema
    /// the replay of each reduced history (the compliance criterion), the
    /// audit of each state (its full history), and the fixpoint over each
    /// adapted-but-unsettled marking — reference and arena agree on every
    /// `Ok` byte for byte and on every `Err` by variant and fields.
    #[test]
    fn replay_audit_and_refresh_match_the_reference(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let own = Interpreter::new(&schema).unwrap();
        let Some((evolved, delta)) = random_change(&schema, change_seed, "judged") else {
            return Ok(());
        };
        let oracle = Interpreter::new(&evolved).unwrap();
        let arena = Execution::new(&evolved).unwrap();
        let seeds = format!("schema {schema_seed} / pop {pop_seed} / change {change_seed}");

        for st in generate_population(&ex, 5, pop_seed) {
            let reduced = st.history.reduced(&schema, &ex.blocks);
            assert_same_replay(&oracle.replay(&reduced), &arena.replay(&reduced), &seeds);
            assert_same_replay(&own.replay(&st.history), &ex.replay(&st.history), &seeds);

            prop_assert_eq!(own.audit(&st), Ok(true), "{}", &seeds);
            prop_assert_eq!(ex.audit(&st), Ok(true), "{}", &seeds);
            prop_assert_eq!(oracle.audit(&st), arena.audit(&st), "{}", &seeds);

            if !check_fast(&schema, &ex.blocks, &st, &delta).is_compliant() {
                continue;
            }
            let mut unsettled = st;
            transfer_marking(&evolved, &delta, &mut unsettled);
            let (mut si, mut sc) = (unsettled.clone(), unsettled);
            prop_assert_eq!(oracle.refresh(&mut si), arena.refresh(&mut sc), "{}", &seeds);
            assert_same_replay(&Ok(si), &Ok(sc), &seeds);
        }
    }
}

fn history(events: impl IntoIterator<Item = Event>) -> ExecutionHistory {
    let mut h = ExecutionHistory::new();
    for e in events {
        h.record(e);
    }
    h
}

fn started(node: NodeId, reads: &[DataId]) -> Event {
    Event::Started {
        node,
        reads: reads.to_vec(),
    }
}

fn completed(node: NodeId, writes: Vec<(DataId, Value)>) -> Event {
    Event::Completed { node, writes }
}

fn xor_split_of(schema: &ProcessSchema) -> NodeId {
    let mut splits = schema.nodes().filter(|n| n.kind == NodeKind::XorSplit);
    splits.next().expect("the schema has an XOR split").id
}

/// Every way a history can fail to replay, once each by construction:
/// both implementations report the same variant with the same fields.
#[test]
fn replay_errors_match_reference_variant_and_fields() {
    // `w` then `r`; `r` reads `d`, which `w` writes only in `written`.
    let (written, unwritten, w, r, d) = {
        let build = |w_writes: bool| {
            let mut b = SchemaBuilder::new("seq");
            let d = b.data("d", ValueType::Int);
            let w = b.activity("w");
            if w_writes {
                b.write(w, d);
            }
            let r = b.activity("r");
            b.read(r, d);
            (b.build().unwrap(), w, r, d)
        };
        let (written, w, r, d) = build(true);
        let (unwritten, ..) = build(false);
        (written, unwritten, w, r, d)
    };
    // An externally decided XOR: `x` or `y`.
    let (xor, split, y) = {
        let mut b = SchemaBuilder::new("xor");
        b.xor_split();
        b.case();
        b.activity("x");
        b.case();
        let y = b.activity("y");
        b.xor_join();
        let s = b.build().unwrap();
        let split = xor_split_of(&s);
        (s, split, y)
    };
    let ghost = NodeId(999);
    let chose = |split, branch_target| Event::XorChosen {
        split,
        branch_target,
    };

    let cases: Vec<(&str, &ProcessSchema, ExecutionHistory, RuntimeError)> = vec![
        (
            "a recorded read signature the schema no longer declares",
            &written,
            history([started(w, &[d])]),
            RuntimeError::SignatureMismatch { node: w },
        ),
        (
            "a start before the predecessor completed",
            &written,
            history([started(r, &[d])]),
            RuntimeError::NotActivatable(r),
        ),
        (
            "a mandatory input nobody wrote",
            &unwritten,
            history([started(w, &[]), completed(w, vec![]), started(r, &[d])]),
            RuntimeError::MissingInput { node: r, data: d },
        ),
        (
            "a recorded branch that is neither a target nor inside a region",
            &xor,
            history([chose(split, ghost)]),
            RuntimeError::BranchNotFound {
                split,
                target: ghost,
            },
        ),
        (
            "a recorded decision of a node that never fires",
            &xor,
            history([chose(split, y), chose(ghost, y)]),
            RuntimeError::DecisionNotReproducible(ghost),
        ),
    ];
    for (what, schema, h, expected) in cases {
        let reference = Interpreter::new(schema).unwrap().replay(&h);
        let arena = Execution::new(schema).unwrap().replay(&h);
        assert_eq!(reference.as_ref().err(), Some(&expected), "{what}");
        assert_same_replay(&reference, &arena, what);
    }
}

/// A change inserts an activity at the head of an already chosen branch:
/// the recorded target is no longer a target of the split, and both
/// implementations find its branch by region containment.
#[test]
fn branch_head_insertion_replays_by_region_containment() {
    let mut b = SchemaBuilder::new("xor");
    b.xor_split();
    b.case();
    b.activity("x");
    b.case();
    let y = b.activity("y");
    b.xor_join();
    let old = b.build().unwrap();
    let old_ex = Execution::new(&old).unwrap();
    let mut st = old_ex.init().unwrap();
    let split = xor_split_of(&old);
    old_ex.decide_xor(&mut st, split, y).unwrap();

    let mut new = old.clone();
    let rec = apply_op(
        &mut new,
        &ChangeOp::SerialInsert {
            activity: NewActivity::named("head"),
            pred: split,
            succ: y,
        },
    )
    .unwrap();
    let head = rec.inserted_activity().unwrap();
    assert!(
        new.control_successors(split).all(|n| n != y),
        "y is no longer a direct target of the split"
    );

    let reduced = st.history.reduced(&old, &old_ex.blocks);
    let reference = Interpreter::new(&new).unwrap().replay(&reduced);
    let arena = Execution::new(&new).unwrap().replay(&reduced);
    assert_same_replay(&reference, &arena, "branch-head insertion");
    let replayed = arena.unwrap();
    assert_eq!(replayed.marking.node(head), NodeState::Activated);
    assert_eq!(replayed.marking.node(y), NodeState::NotActivated);
    assert_eq!(
        replayed.history.events,
        vec![Event::XorChosen {
            split,
            branch_target: head
        }],
        "the replayed decision names the branch's new head"
    );
}

/// A reduced history keeps only the last iteration of a counted loop; its
/// recorded final `iterate = false` must win over `Times(3)`, which on the
/// replay's own counter would iterate again.
#[test]
fn reduced_history_exit_overrides_a_counted_loop() {
    let mut b = SchemaBuilder::new("loop");
    b.loop_start();
    let body = b.activity("body");
    b.loop_end(LoopCond::Times(3));
    let after = b.activity("after");
    let s = b.build().unwrap();
    let ex = Execution::new(&s).unwrap();
    let mut st = ex.init().unwrap();
    ex.run(&mut st, &mut DefaultDriver, Some(3)).unwrap();
    assert_eq!(st.marking.node(after), NodeState::Activated);

    let reduced = st.history.reduced(&s, &ex.blocks);
    assert!(
        reduced.len() < st.history.len(),
        "earlier iterations are cut"
    );
    let reference = Interpreter::new(&s).unwrap().replay(&reduced);
    let arena = ex.replay(&reduced);
    assert_same_replay(&reference, &arena, "reduced counted loop");
    let replayed = arena.unwrap();
    assert_eq!(replayed.marking.node(body), NodeState::Completed);
    assert_eq!(replayed.marking.node(after), NodeState::Activated);
}

/// A marking that is not of the schema — here a biased instance's, naming
/// a node, an edge and a loop counter of the private id space — is settled
/// the same way by both: the foreign entries take no part in the fixpoint
/// and survive untouched (the benchmark's layer replay hands `refresh`
/// such states; every other entry point of the executor refuses them).
#[test]
fn refresh_leaves_foreign_entries_alone_like_the_reference() {
    let s = scenarios::order_process();
    let ex = Execution::new(&s).unwrap();
    let mut st = ex.init().unwrap();
    ex.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();
    let settled = st.marking.clone();
    // Unsettle it, and add the foreign entries.
    let activated: Vec<_> = st.marking.nodes_in(NodeState::Activated).collect();
    assert!(!activated.is_empty());
    for n in activated {
        st.marking.set_node(n, NodeState::NotActivated);
    }
    let (ghost, ghost_edge) = (NodeId(1 << 24), EdgeId(1 << 24));
    st.marking.set_node(ghost, NodeState::Activated);
    st.marking.set_edge(ghost_edge, EdgeState::TrueSignaled);
    st.marking.set_loop_count(ghost, 2);
    assert!(CompactMarking::from_marking(&ex.arena, &st.marking).is_err());

    let (mut si, mut sc) = (st.clone(), st);
    assert_eq!(Interpreter::new(&s).unwrap().refresh(&mut si), Ok(()));
    assert_eq!(ex.refresh(&mut sc), Ok(()));
    assert_same_replay(&Ok(si), &Ok(sc.clone()), "foreign entries");
    assert_eq!(sc.marking.node(ghost), NodeState::Activated);
    assert_eq!(sc.marking.edge(ghost_edge), EdgeState::TrueSignaled);
    assert_eq!(sc.marking.loop_count(ghost), 2);
    sc.marking.forget_node(ghost);
    sc.marking.forget_edge(ghost_edge);
    assert_eq!(
        sc.marking, settled,
        "the schema's own part settles as usual"
    );
}

/// Drives `id` through the engine and, from a clone of the stored state,
/// through the reference interpreter over the instance's materialized
/// schema with the same seeded driver: both must complete the same number
/// of activities and leave byte-identical state.
fn drive_against_reference(engine: &ProcessEngine, id: InstanceId, seed: u64, max: usize) {
    let mut reference = engine.store.get(id).unwrap().state;
    let (schema, _) = engine.materialized(id).unwrap();
    let ex = Interpreter::new(&schema).unwrap();
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
    assert!(worklist_full(&engine).is_empty());
}

/// The recovery audit's verdicts are the reference interpreter's. A
/// `change_heavy`-shaped lifecycle on generated schemas — drive to random
/// depths, ad-hoc bias, evolve, migrate biased and unbiased alike, drive
/// on — then a crash and a recovery from the journal alone: the instances
/// `RecoveryReport.divergent` flags are exactly the ones whose full
/// history the reference cannot audit on their current schema (histories
/// that predate a change inside a loop body or an inserted branch; ROADMAP
/// item 5 keeps that finding open), instance by instance.
#[test]
fn recovery_audit_verdicts_match_the_reference_per_instance() {
    let (mut flagged, mut passed) = (0, 0);
    for seed in 100..106u64 {
        let medium = MemoryBackend::new();
        let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
        let schema = adept_simgen::generate_schema(&GenParams::sized(24), seed);
        let name = engine.deploy(schema.clone()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);

        let ids: Vec<_> = (0..12)
            .map(|_| engine.create_instance(&name).unwrap())
            .collect();
        for (k, id) in ids.iter().enumerate() {
            let depth = rng.gen_range(0..24);
            let mut driver = RandomDriver::new(seed ^ (k as u64) << 8);
            drive_with(&engine, *id, &mut driver, Some(depth)).unwrap();
            if k % 2 == 0 {
                let (current, _) = engine.materialized(*id).unwrap();
                let kind = ALL_OP_KINDS[rng.gen_range(0..ALL_OP_KINDS.len())];
                if let Some(op) = propose(&current, kind, &mut rng, "ad-hoc") {
                    let _ = adhoc(&engine, *id, &op);
                }
            }
        }
        let end = schema.end_node();
        let last = schema.sole_control_predecessor(end).unwrap();
        let evolution = ChangeOp::SerialInsert {
            activity: NewActivity::named("evolved step"),
            pred: last,
            succ: end,
        };
        evolve(&engine, &name, &[evolution]).unwrap();
        engine
            .migrate_all(&name, &adept_core::MigrationOptions::default(), 1)
            .unwrap();
        for (k, id) in ids.iter().enumerate() {
            let mut driver = RandomDriver::new(seed ^ (k as u64) << 16);
            drive_with(&engine, *id, &mut driver, Some(k % 5)).unwrap();
        }
        drop(engine);

        let (recovered, report) = recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
        let mut expected = Vec::new();
        for id in recovered.store.ids() {
            let (schema, _) = recovered.materialized(id).unwrap();
            let state = recovered.store.get(id).unwrap().state;
            let ok = Interpreter::new(&schema).unwrap().audit(&state);
            if !ok.unwrap_or(false) {
                expected.push(id);
            }
        }
        assert_eq!(report.divergent, expected, "schema seed {seed}");
        assert_eq!(report.audited, ids.len() - expected.len());
        flagged += expected.len();
        passed += report.audited;
    }
    assert!(
        flagged > 0 && passed > 0,
        "the lifecycles must produce both verdicts: {flagged} flagged, {passed} passed"
    );
}

/// Drives a fresh instance of `schema` to its end in one-activity lockstep
/// on both implementations with the same seeded driver, checking after
/// every round the run result, the observed events, the serialized state,
/// the replay of the history so far and the audit of the state. Returns
/// the final state.
fn lockstep_against_reference(schema: &ProcessSchema, seed: u64, what: &str) -> InstanceState {
    let reference = Interpreter::new(schema).unwrap();
    let ex = Execution::new(schema).unwrap();
    let (mut di, mut dc) = (RandomDriver::new(seed), RandomDriver::new(seed));
    let mut si = reference.init().unwrap();
    let mut sc = ex.init().unwrap();
    let what = format!("{what} / seed {seed}");
    for round in 0..64 {
        let (mut evi, mut evc) = (Vec::new(), Vec::new());
        let ri = reference.run_observed(&mut si, &mut di, Some(1), &mut |e| evi.push(e));
        let rc = ex
            .exec()
            .run_observed(&mut sc, &mut dc, Some(1), &mut |e| evc.push(e));
        assert_eq!(ri, rc, "{what}: run result at round {round}");
        assert_eq!(evi, evc, "{what}: observed events at round {round}");
        assert_same_replay(&Ok(si.clone()), &Ok(sc.clone()), &what);
        assert_same_replay(
            &reference.replay(&si.history),
            &ex.replay(&sc.history),
            &format!("{what}: replay at round {round}"),
        );
        assert_eq!(reference.audit(&si), Ok(true), "{what}");
        assert_eq!(ex.audit(&sc), Ok(true), "{what}: audit at round {round}");
        if ex.is_finished(&sc) {
            return sc;
        }
    }
    panic!("{what}: the instance did not finish");
}

/// A node whose control input is signaled early and whose only later
/// change is its incoming sync edge: `y` (the lower slot) waits on a sync
/// edge from `x`, which either completes or is skipped on a dead XOR
/// branch. Either way the sync edge is the one write that makes `y` ready.
#[test]
fn a_sync_edge_alone_readies_its_target() {
    let mut b = SchemaBuilder::new("sync");
    b.and_split();
    b.branch();
    let y = b.activity("y");
    b.branch();
    b.xor_split();
    b.case();
    let x = b.activity("x");
    b.case();
    b.activity("z");
    b.xor_join();
    b.and_join();
    b.sync(x, y);
    let s = b.build().unwrap();
    let ex = Execution::new(&s).unwrap();
    assert!(ex.arena.node_slot(y) < ex.arena.node_slot(x));

    let (mut after_x, mut x_skipped) = (false, false);
    for seed in 0..16 {
        let st = lockstep_against_reference(&s, seed, "sync edge");
        let position = |n: NodeId| {
            let mut events = st.history.events.iter();
            events.position(|e| matches!(e, Event::Started { node, .. } if *node == n))
        };
        match (position(x), position(y)) {
            (Some(px), Some(py)) => after_x |= px < py,
            (None, Some(_)) => x_skipped |= st.marking.node(x) == NodeState::Skipped,
            other => panic!("seed {seed}: y must run ({other:?})"),
        }
    }
    assert!(after_x && x_skipped, "both ways of signaling the sync edge");
}

/// Dead-path elimination whose `FalseSignaled` edge reaches a *lower* slot
/// than the node that skipped it: `x` is inserted between `b` and `c`, so
/// its id (and slot) is above its successor's. When the other branch is
/// chosen, `b` and `x` are skipped in one round and `c` only in the next.
#[test]
fn a_dead_path_reaching_a_lower_slot_is_skipped() {
    let mut b = SchemaBuilder::new("dead");
    b.xor_split();
    b.case();
    let first = b.activity("b");
    let c = b.activity("c");
    b.case();
    b.activity("d");
    b.xor_join();
    let mut s = b.build().unwrap();
    let rec = apply_op(
        &mut s,
        &ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: first,
            succ: c,
        },
    )
    .unwrap();
    let x = rec.inserted_activity().unwrap();
    let ex = Execution::new(&s).unwrap();
    assert!(ex.arena.node_slot(c) < ex.arena.node_slot(x));

    let mut skipped = 0;
    for seed in 0..16 {
        let st = lockstep_against_reference(&s, seed, "dead path");
        if st.marking.node(x) == NodeState::Skipped {
            assert_eq!(st.marking.node(c), NodeState::Skipped, "seed {seed}");
            skipped += 1;
        }
    }
    assert!(skipped > 0, "some seed chooses the other branch");
}

/// A loop nested in a loop: every reset of the outer body returns the
/// inner loop start, the inner body and the inner loop end to
/// `NotActivated`, and the edge into the outer loop start re-activates
/// them all on the next round of the fixpoint.
#[test]
fn a_nested_loop_reset_reactivates_its_body() {
    let mut b = SchemaBuilder::new("nested");
    let outer = b.loop_start();
    let inner = b.loop_start();
    let body = b.activity("body");
    b.loop_end(LoopCond::Times(2));
    b.activity("between");
    b.loop_end(LoopCond::Times(3));
    b.activity("after");
    let s = b.build().unwrap();

    for seed in 0..4 {
        let st = lockstep_against_reference(&s, seed, "nested loop");
        let count = |f: &dyn Fn(&Event) -> bool| st.history.events.iter().filter(|e| f(e)).count();
        let resets_of = |n: NodeId| {
            count(&|e| matches!(e, Event::LoopReset { loop_start } if *loop_start == n))
        };
        assert_eq!(resets_of(outer), 2, "seed {seed}");
        assert_eq!(resets_of(inner), 3, "seed {seed}");
        let runs = count(&|e| matches!(e, Event::Completed { node, .. } if *node == body));
        assert_eq!(runs, 6, "seed {seed}");
    }
}
