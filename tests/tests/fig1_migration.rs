//! Integration test reproducing paper Fig. 1 end to end: the type change
//! ΔT = addActivity(send questions, compose order, pack goods) +
//! insertSyncEdge(send questions, confirm order) against three instances:
//!
//! * I1 — early progress, unbiased: **compliant**, migrates with adapted
//!   marking and later executes "send questions";
//! * I2 — ad-hoc modified (sync confirm order -> compose order):
//!   **structural conflict** (deadlock-causing cycle);
//! * I3 — too far progressed: **state-related conflict**.

use adept_core::{ConflictKind, MigrationOptions, Verdict};
use adept_engine::ProcessEngine;
use adept_simgen::scenarios;
use adept_tests::{adhoc, drive, evolve};

fn setup_engine() -> (ProcessEngine, String) {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    (engine, name)
}

#[test]
fn fig1_full_reproduction() {
    let (engine, name) = setup_engine();
    let v1 = engine.repo.deployed(&name, 1).unwrap();

    // I1: completed "get order" and "collect data".
    let i1 = engine.create_instance(&name).unwrap();
    drive(&engine, i1, Some(2)).unwrap();

    // I2: ad-hoc modified with the conflicting sync edge.
    let i2 = engine.create_instance(&name).unwrap();
    adhoc(&engine, i2, &scenarios::fig1_i2_bias_op(&v1.schema)).unwrap();

    // I3: runs to completion (pack goods already done).
    let i3 = engine.create_instance(&name).unwrap();
    drive(&engine, i3, None).unwrap();

    // ΔT as one composite type change (insert + sync edge), as in Fig. 1.
    let v2 = evolve(&engine, &name, &scenarios::fig1_delta_ops(&v1.schema)).unwrap();
    assert_eq!(v2, 2);
    let s2 = engine.repo.deployed(&name, 2).unwrap();
    let sq = s2.schema.node_by_name("send questions").unwrap().id;

    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();

    assert_eq!(report.total(), 3);
    assert_eq!(report.migrated(), 1, "{report}");
    assert_eq!(report.conflicts(ConflictKind::Structural), 1, "{report}");
    assert_eq!(report.conflicts(ConflictKind::State), 1, "{report}");

    // Per-instance verdicts match the figure.
    for o in &report.outcomes {
        if o.instance == i1 {
            assert!(o.verdict.is_compliant(), "I1 must migrate");
            assert!(!o.biased);
        }
        if o.instance == i2 {
            assert!(o.biased, "I2 is ad-hoc modified");
            match &o.verdict {
                Verdict::NotCompliant(c) => assert_eq!(c.kind, ConflictKind::Structural),
                v => panic!("I2 expected structural conflict, got {v}"),
            }
        }
        if o.instance == i3 {
            match &o.verdict {
                Verdict::NotCompliant(c) => assert_eq!(c.kind, ConflictKind::State),
                v => panic!("I3 expected state conflict, got {v}"),
            }
        }
    }

    // I1 now runs on V2 and executes the inserted activity; the sync edge
    // forces "send questions" before "confirm order".
    drive(&engine, i1, None).unwrap();
    assert!(engine.is_finished(i1).unwrap());
    let inst1 = engine.store.get(i1).unwrap();
    assert_eq!(inst1.version, 2);
    let started = inst1.state.history.started_activities();
    let pos_sq = started.iter().position(|n| *n == sq).expect("sq executed");
    let confirm = s2.schema.node_by_name("confirm order").unwrap().id;
    let pos_confirm = started
        .iter()
        .position(|n| *n == confirm)
        .expect("confirm executed");
    assert!(
        pos_sq < pos_confirm,
        "sync edge must order send questions before confirm order"
    );

    // I2 and I3 remain on V1 and still finish on their old schema.
    assert_eq!(engine.store.get(i2).unwrap().version, 1);
    assert_eq!(engine.store.get(i3).unwrap().version, 1);
    drive(&engine, i2, None).unwrap();
    assert!(engine.is_finished(i2).unwrap());
}

#[test]
fn fig1_trace_criterion_agrees() {
    // The same scenario decided by the trace-replay criterion instead of
    // the fast conditions.
    let (engine, name) = setup_engine();
    let v1 = engine.repo.deployed(&name, 1).unwrap();

    let i1 = engine.create_instance(&name).unwrap();
    drive(&engine, i1, Some(2)).unwrap();
    let i3 = engine.create_instance(&name).unwrap();
    drive(&engine, i3, None).unwrap();

    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();

    let options = MigrationOptions {
        use_trace_criterion: true,
    };
    let report = engine.migrate_all(&name, &options, 1).unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
    assert_eq!(report.conflicts(ConflictKind::State), 1, "{report}");
}

#[test]
fn migration_is_idempotent() {
    let (engine, name) = setup_engine();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let i1 = engine.create_instance(&name).unwrap();
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    let r1 = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(r1.migrated(), 1);
    // Migrating again is a no-op: everything already on the latest version.
    let r2 = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(
        r2.migrated(),
        1,
        "already-migrated instances stay compliant"
    );
    assert_eq!(engine.store.get(i1).unwrap().version, 2);
}

/// A finished instance stays finished: deploy `a -> d`, run it to its end
/// node, insert `x` between `d` and the end node, migrate. No trace on V2
/// completes the end node before `x`, so under either criterion the
/// instance is not compliant and stays on V1, finished, offering nothing.
#[test]
fn migration_never_reopens_a_finished_instance() {
    use adept_core::{ChangeOp, NewActivity};
    use adept_model::{NodeKind, SchemaBuilder};
    for use_trace_criterion in [false, true] {
        let engine = ProcessEngine::new();
        let mut b = SchemaBuilder::new("a then d");
        b.activity("a");
        let d = b.activity("d");
        let name = engine.deploy(b.build().unwrap()).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap();
        let end = v1
            .schema
            .nodes()
            .find(|n| n.kind == NodeKind::End)
            .unwrap()
            .id;
        let id = engine.create_instance(&name).unwrap();
        drive(&engine, id, None).unwrap();
        assert!(engine.is_finished(id).unwrap());
        let insert = ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: d,
            succ: end,
        };
        evolve(&engine, &name, &[insert]).unwrap();
        let options = MigrationOptions {
            use_trace_criterion,
        };
        let report = engine.migrate_all(&name, &options, 1).unwrap();
        assert_eq!(
            report.migrated(),
            0,
            "trace criterion: {use_trace_criterion}"
        );
        assert_eq!(report.conflicts(ConflictKind::State), 1);
        assert!(engine.is_finished(id).unwrap());
        assert_eq!(engine.store.get(id).unwrap().version, 1);
        assert!(engine.worklist().is_empty());
    }
}
