//! Adaptation-loop stress: an exception-heavy population (>2k instances
//! over 8 generated types) is repaired by a multi-threaded
//! [`AdaptationLoop`] while concurrent `submit_batch` traffic and a
//! `migrate_all` sweep run against the same engine.
//!
//! Invariants checked at the end:
//! * every committed recovery passed preview (by construction — the
//!   trail is cross-checked against the loop's report);
//! * no instance was adapted twice for one deviation (committed
//!   `(instance, deviation)` pairs are unique);
//! * unrecoverable instances were escalated onto the supervisor's
//!   worklist;
//! * every instance finishes (escalated ones once the "supervisor" —
//!   here: the driver — takes over) and passes the reference interpreter's audit.

use adept_adapt::{
    AdaptationConfig, AdaptationLoop, CompensateOnFailure, EscalateToWorklist, RetryThenSkip,
};
use adept_core::MigrationOptions;
use adept_engine::{EngineCommand, EngineEvent, FailureKind, ProcessEngine};
use adept_model::{InstanceId, NodeId};
use adept_simgen::{
    exception_scenario, exception_schema, flaky_nodes, ExceptionParams, GenParams, RandomDriver,
};
use adept_state::NodeState;
use adept_tests::reference::Interpreter;
use adept_tests::{drive_with, evolve};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One population entry: an instance plus its type's flaky-node budgets.
type FlakyInstance = (InstanceId, Vec<(NodeId, u32)>);

const TYPES: usize = 8;
const PER_TYPE: usize = 256;
const HARD: usize = 16;
const ROUNDS: usize = 8;

fn finished(engine: &ProcessEngine, id: InstanceId) -> bool {
    engine.is_finished(id).unwrap_or(false)
}

/// One injector pass over one instance: fail flaky activities while
/// their budget lasts, otherwise push the instance forward.
fn inject(
    engine: &ProcessEngine,
    id: InstanceId,
    flaky: &[(NodeId, u32)],
    budgets: &mut BTreeMap<NodeId, u32>,
    seed: u64,
) {
    let Some(inst) = engine.store.get(id) else {
        return;
    };
    for (node, _) in flaky {
        let left = budgets.get(node).copied().unwrap_or(0);
        if left == 0 {
            continue;
        }
        match inst.state.marking.node(*node) {
            NodeState::Activated => {
                // Start it so it can fail; errors (concurrent adaptation,
                // node deleted) are tolerated.
                let _ = engine.submit(EngineCommand::Start {
                    instance: id,
                    node: *node,
                });
            }
            NodeState::Running
                if engine
                    .submit(EngineCommand::FailActivity {
                        instance: id,
                        node: *node,
                        reason: "injected exception".into(),
                    })
                    .is_ok() =>
            {
                budgets.insert(*node, left - 1);
            }
            _ => {}
        }
    }
    let mut driver = RandomDriver::new(seed ^ id.raw());
    let _ = drive_with(engine, id, &mut driver, Some(2));
}

#[test]
fn exception_heavy_population_is_repaired_under_concurrent_churn() {
    let engine = ProcessEngine::new();
    engine.monitor.set_retention(1_000_000);

    // 8 exception-heavy generated types, 256 instances each.
    let params = ExceptionParams {
        base: GenParams::sized(6),
        ..ExceptionParams::default()
    };
    let mut type_names = Vec::new();
    let mut population: Vec<FlakyInstance> = Vec::new();
    for t in 0..TYPES {
        let schema = exception_schema(&params, 1000 + t as u64);
        let flaky = flaky_nodes(&schema);
        let name = engine.deploy(schema).unwrap();
        for _ in 0..PER_TYPE {
            let id = engine.create_instance(&name).unwrap();
            population.push((id, flaky.clone()));
        }
        type_names.push(name);
    }
    // Plus a deterministic unrecoverable cohort: unskippable flaky step,
    // failure budget beyond the retry budget.
    let mut hard_schema = exception_scenario();
    hard_schema.name = "hard order".into();
    let hp = hard_schema.node_by_name("process").unwrap().id;
    hard_schema.node_mut(hp).unwrap().attrs.skippable = false;
    let hard_name = engine.deploy(hard_schema).unwrap();
    let hard_ids: Vec<InstanceId> = (0..HARD)
        .map(|_| engine.create_instance(&hard_name).unwrap())
        .collect();
    assert!(population.len() + hard_ids.len() >= 2000);

    let mut looper = AdaptationLoop::new(
        &engine,
        AdaptationConfig {
            threads: 4,
            max_in_flight: 128,
            decision_deadline: 30,
            ..AdaptationConfig::default()
        },
    )
    .with_policy(RetryThenSkip::default())
    .with_policy(CompensateOnFailure)
    .with_policy(EscalateToWorklist::new("supervisor"));

    let workers_done = AtomicUsize::new(0);
    let halves: Vec<&[FlakyInstance]> = population.chunks(population.len().div_ceil(2)).collect();
    let workers = halves.len() + 1;
    std::thread::scope(|scope| {
        // Injector threads: fail flaky work, push everything forward.
        let injectors: Vec<_> = halves
            .iter()
            .enumerate()
            .map(|(w, part)| {
                let engine = &engine;
                let workers_done = &workers_done;
                scope.spawn(move || {
                    let mut budgets: Vec<BTreeMap<NodeId, u32>> = part
                        .iter()
                        .map(|(_, flaky)| flaky.iter().copied().collect())
                        .collect();
                    for round in 0..ROUNDS {
                        for (k, (id, flaky)) in part.iter().enumerate() {
                            inject(
                                engine,
                                *id,
                                flaky,
                                &mut budgets[k],
                                ((w as u64) << 32) | round as u64,
                            );
                        }
                    }
                    workers_done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // Churn thread: evolve + migrate one type mid-flight, create and
        // drive extra traffic in batches, and synthesize worklist
        // starvation for two fresh instances.
        let churn = {
            let engine = &engine;
            let name = type_names[0].clone();
            let workers_done = &workers_done;
            scope.spawn(move || {
                let extra: Vec<InstanceId> = engine
                    .submit_batch(vec![
                        EngineCommand::CreateInstance {
                            type_name: name.clone()
                        };
                        32
                    ])
                    .into_iter()
                    .map(|r| r.unwrap().instance)
                    .collect();
                // Starve two of them: repeated resolution failures are
                // the loop's starvation signal (the engine itself
                // reports each real failure only once).
                for id in extra.iter().take(2) {
                    for _ in 0..2 {
                        engine
                            .monitor
                            .record(EngineEvent::WorklistResolutionFailed {
                                instance: *id,
                                kind: FailureKind::Other,
                                reason: "no eligible actor".into(),
                            });
                    }
                }
                let base = engine.repo.deployed(&name, 1).unwrap().schema.clone();
                let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(7);
                if let Some(op) = adept_simgen::changegen::propose(
                    &base,
                    adept_simgen::OpKind::SerialInsert,
                    &mut rng,
                    "evo",
                ) {
                    if evolve(engine, &name, &[op]).is_ok() {
                        engine
                            .migrate_all(&name, &MigrationOptions::default(), 2)
                            .unwrap();
                    }
                }
                let _ = engine.submit_batch(
                    extra
                        .iter()
                        .map(|id| EngineCommand::Drive {
                            instance: *id,
                            max: Some(3),
                        })
                        .collect(),
                );
                workers_done.fetch_add(1, Ordering::SeqCst);
            })
        };
        // Main thread: the adaptation loop runs against the live churn.
        while workers_done.load(Ordering::SeqCst) < workers {
            looper.tick();
        }
        for h in injectors {
            h.join().unwrap();
        }
        churn.join().unwrap();
    });

    // Deterministic give-up phase: keep failing the unrecoverable cohort
    // until the loop escalates every one of them.
    for _ in 0..80 {
        let escalated: Vec<InstanceId> = looper.escalated_instances().collect();
        if hard_ids.iter().all(|id| escalated.contains(id)) {
            break;
        }
        for id in &hard_ids {
            if escalated.contains(id) {
                continue;
            }
            let Some(inst) = engine.store.get(*id) else {
                continue;
            };
            match inst.state.marking.node(hp) {
                NodeState::Activated => {
                    let _ = engine.submit(EngineCommand::Start {
                        instance: *id,
                        node: hp,
                    });
                }
                NodeState::Running => {
                    let _ = engine.submit(EngineCommand::FailActivity {
                        instance: *id,
                        node: hp,
                        reason: "injected exception".into(),
                    });
                }
                NodeState::NotActivated => {
                    let mut driver = RandomDriver::new(id.raw());
                    let _ = drive_with(&engine, *id, &mut driver, Some(1));
                }
                _ => {}
            }
        }
        looper.tick();
    }
    let report = looper.run_until_quiescent(200);

    // Unrecoverables: escalated, and claimable by the supervisor (and
    // only by the supervisor) on the worklist.
    let escalated: Vec<InstanceId> = looper.escalated_instances().collect();
    for id in &hard_ids {
        assert!(escalated.contains(id), "{id} must have been given up on");
    }
    let supervisor_items = engine.worklist_for("supervisor");
    for id in &hard_ids {
        assert!(
            supervisor_items
                .iter()
                .any(|w| w.instance == *id && w.node == hp),
            "{id} must be on the supervisor worklist"
        );
    }
    assert!(engine
        .worklist_for("clerk")
        .iter()
        .all(|w| !(hard_ids.contains(&w.instance) && w.node == hp)));

    // Single-flight: no (instance, deviation) pair committed twice, and
    // the trail agrees with the report.
    let mut pairs: Vec<(InstanceId, String)> = engine
        .monitor
        .events()
        .into_iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::AdaptationCommitted {
                instance,
                deviation,
                ..
            } => Some((instance, deviation)),
            _ => None,
        })
        .collect();
    let total_committed = pairs.len() as u64;
    pairs.sort();
    let before = pairs.len();
    pairs.dedup();
    assert_eq!(before, pairs.len(), "an instance was adapted twice");
    assert_eq!(
        report.committed, total_committed,
        "report must agree with the monitor trail"
    );
    assert!(
        report.committed > 0,
        "the workload must actually exercise repair: {report:?}"
    );

    // Convergence + audit: every instance (including churn extras and
    // escalated ones, once the supervisor-as-driver takes over) finishes
    // and replays cleanly.
    let all_ids = engine.store.ids();
    for pass in 0..4 {
        let mut open = 0usize;
        for id in &all_ids {
            if finished(&engine, *id) {
                continue;
            }
            open += 1;
            let mut driver = RandomDriver::new(0xd1ce ^ id.raw() ^ pass as u64);
            let _ = drive_with(&engine, *id, &mut driver, None);
        }
        if open == 0 {
            break;
        }
    }
    for id in &all_ids {
        assert!(finished(&engine, *id), "{id} did not converge");
        let (schema, _) = engine.materialized(*id).unwrap();
        let inst = engine.store.get(*id).unwrap();
        let ok = Interpreter::new(&schema)
            .unwrap()
            .audit(&inst.state)
            .unwrap();
        assert!(ok, "{id}: history replay must reproduce the marking");
    }
}
