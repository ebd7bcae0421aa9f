//! The automatic adaptation loop (`adept-adapt`): detect → synthesize →
//! preview → commit over the monitor event stream.
//!
//! * repair — failed activities are retried with backoff, then skipped
//!   once the budget is spent; compensations are inserted in front of
//!   skips; stuck external loop decisions are exited;
//! * give-up — unrecoverable instances are escalated onto a human role's
//!   worklist and never adapted again;
//! * resilience — a cursor that falls behind retention resyncs
//!   explicitly, rebuilds its running-activity table from the store, and
//!   keeps repairing;
//! * single-flight — no instance is ever adapted twice for the same
//!   deviation, under arbitrary interleavings of injector and loop.

use adept_adapt::{
    AdaptationConfig, AdaptationLoop, AdaptationPolicy, CompensateOnFailure, Deviation,
    EscalateToWorklist, RecoveryPlan, RetryThenSkip, SchemaView,
};
use adept_engine::{EngineCommand, EngineEvent, ProcessEngine};
use adept_model::{InstanceId, LoopCond, NodeId, SchemaBuilder};
use adept_simgen::exception_scenario;
use adept_state::NodeState;
use adept_tests::drive;
use adept_tests::reference::Interpreter;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

fn start(engine: &ProcessEngine, id: InstanceId, node: NodeId) {
    engine
        .submit(EngineCommand::Start { instance: id, node })
        .unwrap();
}

fn complete(engine: &ProcessEngine, id: InstanceId, node: NodeId) {
    engine
        .submit(EngineCommand::Complete {
            instance: id,
            node,
            writes: vec![],
        })
        .unwrap();
}

fn fail(engine: &ProcessEngine, id: InstanceId, node: NodeId, reason: &str) {
    engine
        .submit(EngineCommand::FailActivity {
            instance: id,
            node,
            reason: reason.into(),
        })
        .unwrap();
}

/// Node id of a named activity in the instance's *materialized* schema.
fn node_named(engine: &ProcessEngine, id: InstanceId, name: &str) -> Option<NodeId> {
    let (schema, _) = engine.materialized(id).ok()?;
    schema.node_by_name(name).map(|n| n.id)
}

fn finished(engine: &ProcessEngine, id: InstanceId) -> bool {
    engine.is_finished(id).unwrap()
}

fn assert_audited(engine: &ProcessEngine, id: InstanceId) {
    let (schema, _) = engine.materialized(id).unwrap();
    let inst = engine.store.get(id).unwrap();
    let ok = Interpreter::new(&schema)
        .unwrap()
        .audit(&inst.state)
        .unwrap();
    assert!(ok, "{id}: replayed history must reproduce the marking");
}

/// Committed `(instance, deviation)` pairs from the adaptation trail.
fn committed_pairs(engine: &ProcessEngine) -> Vec<(InstanceId, String)> {
    engine
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
        .collect()
}

/// A loop created *after* the failure happened still repairs it when
/// constructed with `from_backlog` (restart adoption), whereas `new`
/// starts at the tail and only sees what comes next.
#[test]
fn from_backlog_adopts_failures_that_predate_the_loop() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(exception_scenario()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let intake = node_named(&engine, id, "intake").unwrap();
    let process = node_named(&engine, id, "process").unwrap();
    start(&engine, id, intake);
    complete(&engine, id, intake);
    start(&engine, id, process);
    fail(&engine, id, process, "crashed before the loop existed");

    let mut tail =
        AdaptationLoop::new(&engine, AdaptationConfig::default()).with_policy(RetryThenSkip {
            max_retries: 0,
            base_delay: 1,
        });
    tail.run_until_quiescent(8);
    assert_eq!(
        tail.report().committed,
        0,
        "a tail cursor must miss the backlog"
    );

    let mut adopted = AdaptationLoop::from_backlog(&engine, AdaptationConfig::default())
        .with_policy(RetryThenSkip {
            max_retries: 0,
            base_delay: 1,
        });
    adopted.run_until_quiescent(8);
    assert_eq!(adopted.report().committed, 1);
    drive(&engine, id, None).unwrap();
    assert!(finished(&engine, id));
    assert_audited(&engine, id);
}

/// A failure is first retried (with a backoff re-start fired by the
/// loop), and once the retry budget is spent the skippable activity is
/// deleted — the instance then runs to completion.
#[test]
fn retry_then_skip_repairs_a_flaky_activity() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(exception_scenario()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut looper = AdaptationLoop::new(
        &engine,
        AdaptationConfig {
            max_in_flight: 8,
            ..AdaptationConfig::default()
        },
    )
    .with_policy(RetryThenSkip {
        max_retries: 1,
        base_delay: 1,
    })
    .with_policy(EscalateToWorklist::new("supervisor"));

    let intake = node_named(&engine, id, "intake").unwrap();
    let process = node_named(&engine, id, "process").unwrap();
    start(&engine, id, intake);
    complete(&engine, id, intake);
    start(&engine, id, process);
    fail(&engine, id, process, "flaky: attempt 1");

    looper.tick(); // detects attempt 1, commits the retry plan
    looper.tick(); // fires the backoff re-start
    assert_eq!(looper.report().retries_fired, 1);
    assert_eq!(
        engine.store.get(id).unwrap().state.marking.node(process),
        NodeState::Running,
        "the loop must have re-started the activity"
    );

    fail(&engine, id, process, "flaky: attempt 2");
    looper.tick(); // budget spent -> skip commits

    assert!(
        node_named(&engine, id, "process").is_none(),
        "the flaky activity must have been deleted"
    );
    drive(&engine, id, None).unwrap();
    assert!(finished(&engine, id));
    assert_audited(&engine, id);

    let report = looper.report();
    assert_eq!(report.committed, 2, "one retry + one skip");
    assert_eq!(report.escalated, 0);
    let plans: Vec<String> = engine
        .monitor
        .events()
        .into_iter()
        .filter_map(|(_, e)| match e {
            EngineEvent::AdaptationCommitted { plan, .. } => Some(plan),
            _ => None,
        })
        .collect();
    assert!(plans[0].starts_with("retry("), "trail: {plans:?}");
    assert!(plans[1].starts_with("skip("), "trail: {plans:?}");
}

/// The compensation policy inserts a `compensate <name>` activity after
/// the failure and skips the failed step; the instance completes through
/// the compensation.
#[test]
fn compensation_is_inserted_in_front_of_the_skip() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(exception_scenario()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut looper = AdaptationLoop::new(&engine, AdaptationConfig::default())
        .with_policy(CompensateOnFailure)
        .with_policy(EscalateToWorklist::new("supervisor"));

    let intake = node_named(&engine, id, "intake").unwrap();
    let process = node_named(&engine, id, "process").unwrap();
    start(&engine, id, intake);
    complete(&engine, id, intake);
    start(&engine, id, process);
    fail(&engine, id, process, "unrepairable input");
    looper.tick();

    assert!(node_named(&engine, id, "process").is_none());
    let comp =
        node_named(&engine, id, "compensate process").expect("compensation must be inserted");
    drive(&engine, id, None).unwrap();
    let inst = engine.store.get(id).unwrap();
    assert_eq!(inst.state.marking.node(comp), NodeState::Completed);
    assert!(finished(&engine, id));
    assert_audited(&engine, id);
    assert_eq!(looper.report().committed, 1);
}

/// An unskippable failure exhausts the policy chain down to the give-up
/// policy: the activity's role is rewritten so the instance lands on the
/// supervisor's worklist, and the loop stops adapting it.
#[test]
fn unrecoverable_failure_escalates_to_the_role_worklist() {
    let engine = ProcessEngine::new();
    let mut schema = exception_scenario();
    let process = schema.node_by_name("process").unwrap().id;
    schema.node_mut(process).unwrap().attrs.skippable = false;
    let name = engine.deploy(schema).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut looper = AdaptationLoop::new(&engine, AdaptationConfig::default())
        .with_policy(RetryThenSkip {
            max_retries: 0,
            base_delay: 1,
        })
        .with_policy(CompensateOnFailure)
        .with_policy(EscalateToWorklist::new("supervisor"));

    let intake = node_named(&engine, id, "intake").unwrap();
    start(&engine, id, intake);
    complete(&engine, id, intake);
    start(&engine, id, process);
    fail(&engine, id, process, "no retry, no skip");
    looper.tick();

    let report = looper.report();
    assert_eq!(report.escalated, 1);
    assert_eq!(
        looper.escalated_instances().collect::<Vec<_>>(),
        vec![id],
        "the instance must be marked given-up"
    );
    // The role rewrite landed: the failed activity is claimable by the
    // supervisor and by nobody else.
    let items = engine.worklist_for("supervisor");
    assert!(
        items.iter().any(|w| w.instance == id && w.node == process),
        "escalated work must appear on the supervisor worklist: {items:?}"
    );
    assert!(engine
        .worklist_for("clerk")
        .iter()
        .all(|w| !(w.instance == id && w.node == process)));

    // Further failures of the same instance are ignored — single-flight
    // plus the escalation mark.
    start(&engine, id, process);
    fail(&engine, id, process, "still failing");
    looper.tick();
    assert_eq!(looper.report().escalated, 1);
    assert_eq!(committed_pairs(&engine).len(), 1, "only the role rewrite");
}

/// An instance silently parked on a pending *external* loop decision is
/// detected by the silence clock and jumped out of the loop.
#[test]
fn stuck_external_loop_decision_is_exited() {
    let mut b = SchemaBuilder::new("stuck loop");
    let before = b.activity("before");
    b.loop_start();
    let body = b.activity("body");
    b.loop_end(LoopCond::External);
    let engine = ProcessEngine::new();
    let name = engine.deploy(b.build().unwrap()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut looper = AdaptationLoop::new(
        &engine,
        AdaptationConfig {
            decision_deadline: 2,
            ..AdaptationConfig::default()
        },
    )
    .with_policy(RetryThenSkip::default())
    .with_policy(EscalateToWorklist::new("supervisor"));

    start(&engine, id, before);
    complete(&engine, id, before);
    start(&engine, id, body);
    complete(&engine, id, body);
    // The loop-end now waits for an external decision nobody will make.
    for _ in 0..6 {
        looper.tick();
    }

    let report = looper.report();
    assert!(report.committed >= 1, "the jump-back must have committed");
    assert_eq!(report.escalated, 0);
    assert!(engine
        .monitor
        .events()
        .iter()
        .any(|(_, e)| matches!(e, EngineEvent::DecisionMade { instance, .. } if *instance == id)));
    drive(&engine, id, None).unwrap();
    assert!(finished(&engine, id), "exiting the loop unblocks the end");
    assert_audited(&engine, id);
}

/// Satellite: the loop survives retention eviction while live. The
/// cursor resyncs explicitly (counted, never silent), the
/// running-activity table is rebuilt from the store, and repair
/// continues to converge.
#[test]
fn cursor_resyncs_under_retention_eviction_and_keeps_repairing() {
    let engine = ProcessEngine::new();
    engine.monitor.set_retention(8);
    let name = engine.deploy(exception_scenario()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut looper = AdaptationLoop::new(&engine, AdaptationConfig::default())
        .with_policy(RetryThenSkip {
            max_retries: 0,
            base_delay: 1,
        })
        .with_policy(EscalateToWorklist::new("supervisor"));

    let intake = node_named(&engine, id, "intake").unwrap();
    let process = node_named(&engine, id, "process").unwrap();
    start(&engine, id, intake);
    complete(&engine, id, intake);
    start(&engine, id, process);
    // Evict everything the cursor has not read yet.
    for k in 0..200u64 {
        engine
            .monitor
            .record(EngineEvent::CheckpointTaken { wal_seq: k });
    }
    looper.tick();
    let report = looper.report();
    assert!(report.resyncs >= 1, "the gap must be resynced explicitly");
    assert!(report.events_skipped > 0, "the gap size must be counted");

    // The rescan rebuilt the running table from the store, so the
    // failure injected *after* the gap is still classified and repaired.
    fail(&engine, id, process, "failing after the gap");
    looper.tick();
    assert!(
        node_named(&engine, id, "process").is_none(),
        "repair must continue after the resync"
    );
    drive(&engine, id, None).unwrap();
    assert!(finished(&engine, id));
    assert_audited(&engine, id);
    assert_eq!(looper.report().committed, 1);
}

/// A deadline-breached activity is cancelled (failed back) by the loop
/// and then repaired through the ordinary failure path.
#[test]
fn deadline_breach_is_cancelled_then_repaired() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(exception_scenario()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let mut looper = AdaptationLoop::new(
        &engine,
        AdaptationConfig {
            default_deadline: 3,
            ..AdaptationConfig::default()
        },
    )
    .with_policy(RetryThenSkip {
        max_retries: 0,
        base_delay: 1,
    })
    .with_policy(EscalateToWorklist::new("supervisor"));

    let intake = node_named(&engine, id, "intake").unwrap();
    let process = node_named(&engine, id, "process").unwrap();
    start(&engine, id, intake);
    complete(&engine, id, intake);
    start(&engine, id, process);
    // `process` has no expected_duration_min, so the configured default
    // (3 ticks) applies. Idle past it.
    for _ in 0..12 {
        looper.tick();
    }
    assert!(
        engine.monitor.events().iter().any(
            |(_, e)| matches!(e, EngineEvent::ActivityFailed { node, .. } if *node == process)
        ),
        "the overrun must have been cancelled into a failure"
    );
    // The cancellation became an ActivityFailed the loop then repaired
    // (retry budget 0, skippable -> deleted).
    assert!(node_named(&engine, id, "process").is_none());
    drive(&engine, id, None).unwrap();
    assert!(finished(&engine, id));
    assert_audited(&engine, id);
}

/// Skips a failed activity, except that its first plan for one instance
/// panics.
struct PanicsOnceFor {
    instance: InstanceId,
    armed: AtomicBool,
}

impl AdaptationPolicy for PanicsOnceFor {
    fn name(&self) -> &str {
        "panics-once"
    }

    fn plan(&self, deviation: &Deviation, view: &SchemaView) -> Option<RecoveryPlan> {
        if deviation.instance() == self.instance && self.armed.swap(false, Ordering::SeqCst) {
            panic!("planner bug on {}", self.instance);
        }
        RetryThenSkip {
            max_retries: 0,
            base_delay: 1,
        }
        .plan(deviation, view)
    }
}

/// A recovery worker that panics has its own deviations requeued, and
/// every other worker's outcomes stay with their deviations: the panicked
/// instance is repaired on a later tick, and the other one is not
/// requeued after it committed.
#[test]
fn a_panicking_recovery_worker_requeues_only_its_own_chunk() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(exception_scenario()).unwrap();
    let ids: Vec<InstanceId> = (0..2)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    let mut looper = AdaptationLoop::new(
        &engine,
        AdaptationConfig {
            threads: 2,
            ..AdaptationConfig::default()
        },
    )
    .with_policy(PanicsOnceFor {
        instance: ids[0],
        armed: AtomicBool::new(true),
    });
    // Failed in id order, so the first instance is the first chunk.
    for &id in &ids {
        let intake = node_named(&engine, id, "intake").unwrap();
        let process = node_named(&engine, id, "process").unwrap();
        start(&engine, id, intake);
        complete(&engine, id, intake);
        start(&engine, id, process);
        fail(&engine, id, process, "fails once");
    }
    looper.run_until_quiescent(16);

    let mut repaired: Vec<InstanceId> = committed_pairs(&engine)
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    repaired.sort();
    assert_eq!(repaired, ids, "each instance is repaired exactly once");
    for &id in &ids {
        assert!(node_named(&engine, id, "process").is_none());
        drive(&engine, id, None).unwrap();
        assert!(finished(&engine, id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Single-flight under arbitrary interleavings: however injector
    /// actions and loop ticks interleave, no `(instance, deviation)`
    /// pair ever commits twice, and every instance converges (finishes,
    /// or is escalated and finishes once driven).
    #[test]
    fn no_deviation_is_ever_adapted_twice(seed in 0u64..10_000) {
        let engine = ProcessEngine::new();
        let name = engine.deploy(exception_scenario()).unwrap();
        let ids: Vec<InstanceId> = (0..4)
            .map(|_| engine.create_instance(&name).unwrap())
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut looper = AdaptationLoop::new(
            &engine,
            AdaptationConfig {
                threads: 2,
                ..AdaptationConfig::default()
            },
        )
        .with_policy(RetryThenSkip { max_retries: 1, base_delay: 1 })
        .with_policy(EscalateToWorklist::new("supervisor"));

        // Per-instance injected-failure budgets.
        let mut budgets: Vec<u32> = ids.iter().map(|_| rng.gen_range(0..4)).collect();
        for _ in 0..40 {
            for (k, id) in ids.iter().enumerate() {
                if !rng.gen_bool(0.6) {
                    continue;
                }
                let Some(process) = node_named(&engine, *id, "process") else {
                    let _ = drive(&engine, *id, Some(1));
                    continue;
                };
                let st = engine.store.get(*id).unwrap().state.marking.node(process);
                match st {
                    NodeState::Activated => {
                        let _ = engine.submit(EngineCommand::Start { instance: *id, node: process });
                    }
                    NodeState::Running => {
                        if budgets[k] > 0 {
                            budgets[k] -= 1;
                            let _ = engine.submit(EngineCommand::FailActivity {
                                instance: *id,
                                node: process,
                                reason: "injected".into(),
                            });
                        } else {
                            let _ = engine.submit(EngineCommand::Complete {
                                instance: *id,
                                node: process,
                                writes: vec![],
                            });
                        }
                    }
                    _ => {
                        let _ = drive(&engine, *id, Some(1));
                    }
                }
            }
            if rng.gen_bool(0.7) {
                looper.tick();
            }
        }
        looper.run_until_quiescent(64);

        // Single-flight: committed (instance, deviation) pairs unique.
        let pairs = committed_pairs(&engine);
        let mut unique = pairs.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(pairs.len(), unique.len(), "duplicate adaptation (seed {})", seed);

        // Convergence: every instance finishes (escalated ones once a
        // human — here: the driver — takes over), and audits cleanly.
        for id in &ids {
            let _ = drive(&engine, *id, None);
            prop_assert!(finished(&engine, *id), "{} must converge (seed {})", id, seed);
            assert_audited(&engine, *id);
        }
    }
}
