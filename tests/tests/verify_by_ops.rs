//! An ad-hoc overlay and a biased migration target are verified where
//! their operations touched a correct schema, not whole
//! (`adept_verify::scope`). These tests hold the scoped verdict to the
//! whole-schema verdict: the same errors, in the same order, with the same
//! messages, nodes and data, on overlays that commit and on overlays that
//! are refused — and the scoped warnings are the whole pass's warnings on
//! what the operations touched, in the whole pass's order.
//!
//! The seeded part stages all eleven operation kinds on generated schemas:
//! the five `simgen` proposes, with random data edges and guards added to
//! its inserts, and the six it does not (parallel inserts, sync-edge
//! deletes, data elements, data-edge inserts and removals, attribute
//! changes) drawn here. A hand table names the refusals a scope must not
//! miss. Debug builds also run the verifier's own cross-check on every
//! scoped pass; these comparisons make the test meaningful in release.

use adept_core::{
    migrate_instance, replay_bias, ChangeOp, ChangeTxn, ConflictKind, MigrationOptions,
    NewActivity, Verdict,
};
use adept_engine::ProcessEngine;
use adept_model::{
    AccessMode, ActivityAttributes, CmpOp, DataId, Guard, ProcessSchema, SchemaBuilder, Value,
    ValueType,
};
use adept_simgen::changegen::{propose, ALL_OP_KINDS};
use adept_simgen::{generate_schema, GenParams};
use adept_state::Execution;
use adept_tests::{adhoc, evolve};
use adept_verify::{scoped_passes, verification_passes, verify_schema, Issue, VerificationReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn errors(rep: &VerificationReport) -> Vec<&Issue> {
    rep.errors().collect()
}

/// Asserts that `scoped` reports the errors of `whole` in the same order,
/// and a subsequence of its warnings.
fn assert_same_verdict(scoped: &VerificationReport, whole: &VerificationReport, what: &str) {
    assert_eq!(errors(scoped), errors(whole), "{what}");
    let mut whole_warnings = whole.warnings();
    for w in scoped.warnings() {
        assert!(
            whole_warnings.any(|v| v == w),
            "{what}: scoped warning {w} is not the whole pass's, in its order"
        );
    }
}

/// Stages `ops` as one ad-hoc change of an instance running on `base`
/// and holds its verdict to the whole pass over the same overlay,
/// through the commit. `None` when an operation does not stage.
fn ad_hoc(base: &ProcessSchema, ops: &[ChangeOp]) -> Option<VerificationReport> {
    let mut txn = ChangeTxn::begin_ad_hoc(&Execution::new(base).unwrap());
    for op in ops {
        txn.stage(op).ok()?;
    }
    let scoped = txn.verify().clone();
    let whole = verify_schema(txn.working());
    let what = format!("ops {ops:?}");
    assert_same_verdict(&scoped, &whole, &what);
    match txn.commit_schema() {
        Ok(_) => assert!(whole.is_correct(), "{what}"),
        Err((_, e)) => assert_eq!(
            e.to_string(),
            adept_core::ChangeError::PostconditionViolated(whole.error_summary()).to_string(),
            "{what}"
        ),
    }
    Some(scoped)
}

/// An activity reading and writing random elements of `s` (sometimes
/// none), named `name`.
fn activity(s: &ProcessSchema, rng: &mut SmallRng, name: &str) -> NewActivity {
    let data: Vec<DataId> = s.data_elements().map(|d| d.id).collect();
    let mut a = NewActivity::named(name);
    if data.is_empty() {
        return a;
    }
    if rng.gen_bool(0.4) {
        a = a.reading(data[rng.gen_range(0..data.len())]);
    }
    if rng.gen_bool(0.2) {
        a = a.optionally_reading(data[rng.gen_range(0..data.len())]);
    }
    if rng.gen_bool(0.3) {
        a = a.writing(data[rng.gen_range(0..data.len())]);
    }
    a
}

/// A literal of type `ty`.
fn literal(ty: ValueType) -> Value {
    match ty {
        ValueType::Bool => Value::Bool(true),
        ValueType::Int => Value::Int(3),
        ValueType::Float => Value::Float(0.5),
        ValueType::Str => Value::Str("x".into()),
    }
}

/// A branch guard: none, on a declared element with a literal of its type
/// or of another, or on an element the schema does not declare.
fn guard(s: &ProcessSchema, rng: &mut SmallRng) -> Option<Guard> {
    let data: Vec<_> = s.data_elements().collect();
    match rng.gen_range(0..4u32) {
        0 => None,
        3 => Some(Guard::new(DataId(9_999), CmpOp::Eq, Value::Int(1))),
        _ if data.is_empty() => None,
        k => {
            let d = data[rng.gen_range(0..data.len())];
            let ty = if k == 1 {
                d.ty
            } else {
                [ValueType::Bool, ValueType::Int, ValueType::Str][rng.gen_range(0..3usize)]
            };
            Some(Guard::new(d.id, CmpOp::Ne, literal(ty)))
        }
    }
}

fn pick<T: Copy>(rng: &mut SmallRng, v: &[T]) -> Option<T> {
    (!v.is_empty()).then(|| v[rng.gen_range(0..v.len())])
}

/// A random operation of kind `k` (0..11) against `s`; kinds 0..5 come
/// from `simgen::propose`, the other six are drawn here.
fn random_op(s: &ProcessSchema, k: usize, rng: &mut SmallRng) -> Option<ChangeOp> {
    let activities: Vec<_> = s.activities().map(|n| n.id).collect();
    let data: Vec<_> = s.data_elements().map(|d| d.id).collect();
    let op = match k {
        0..=4 => match propose(s, ALL_OP_KINDS[k], rng, "t")? {
            ChangeOp::SerialInsert { pred, succ, .. } => ChangeOp::SerialInsert {
                activity: activity(s, rng, "t-ins"),
                pred,
                succ,
            },
            ChangeOp::BranchInsert { pred, succ, .. } => ChangeOp::BranchInsert {
                activity: activity(s, rng, "t-cond"),
                pred,
                succ,
                guard: guard(s, rng),
            },
            other => other,
        },
        5 => {
            let node = pick(rng, &activities)?;
            ChangeOp::ParallelInsert {
                activity: activity(s, rng, "t-par"),
                from: node,
                to: node,
            }
        }
        6 => {
            let syncs: Vec<_> = s.sync_edges().map(|e| (e.from, e.to)).collect();
            let (from, to) = pick(rng, &syncs)?;
            ChangeOp::DeleteSyncEdge { from, to }
        }
        7 => ChangeOp::AddDataElement {
            name: format!("t-data-{}", rng.gen_range(0..1000u32)),
            ty: ValueType::Int,
        },
        8 => ChangeOp::AddDataEdge {
            node: pick(rng, &activities)?,
            data: pick(rng, &data)?,
            mode: if rng.gen_bool(0.5) {
                AccessMode::Read
            } else {
                AccessMode::Write
            },
            optional: rng.gen_bool(0.2),
        },
        9 => {
            let edges: Vec<_> = s
                .data_edges()
                .iter()
                .map(|de| (de.node, de.data, de.mode))
                .collect();
            let (node, data, mode) = pick(rng, &edges)?;
            ChangeOp::RemoveDataEdge { node, data, mode }
        }
        _ => ChangeOp::SetActivityAttributes {
            node: pick(rng, &activities)?,
            attrs: ActivityAttributes {
                role: Some("clerk".into()),
                ..Default::default()
            },
        },
    };
    Some(op)
}

#[test]
fn every_op_kind_on_generated_schemas_gets_the_whole_pass_errors() {
    let (mut staged, mut refused) = ([0usize; 11], [0usize; 11]);
    for seed in 0..48u64 {
        let base = generate_schema(&GenParams::sized(12 + (seed as usize % 3) * 10), seed);
        assert!(verify_schema(&base).is_correct());
        let deployed = Execution::new(&base).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        for k in 0..11 {
            for _ in 0..4 {
                let Some(op) = random_op(&base, k, &mut rng) else {
                    continue;
                };
                let Some(rep) = ad_hoc(&base, std::slice::from_ref(&op)) else {
                    continue;
                };
                staged[k] += 1;
                refused[k] += usize::from(!rep.is_correct());
                // A second operation on the overlay the first one left.
                let mut txn = ChangeTxn::begin_ad_hoc(&deployed);
                txn.stage(&op).unwrap();
                let k2 = rng.gen_range(0..11usize);
                if let Some(second) = random_op(txn.working(), k2, &mut rng) {
                    ad_hoc(&base, &[op, second]);
                }
            }
        }
    }
    assert!(staged.iter().all(|&n| n > 0), "staged per kind: {staged:?}");
    let refused_total: usize = refused.iter().sum();
    assert!(refused_total >= 20, "refused per kind: {refused:?}");
}

/// `w` writes `d` → `a` → `r` reads `d` → `b`, beside a parallel block
/// whose branch `p` writes `e` and is ordered by a sync edge before `q`,
/// which reads it.
fn world() -> ProcessSchema {
    let mut b = SchemaBuilder::new("scoped");
    let d = b.data("d", ValueType::Int);
    let e = b.data("e", ValueType::Int);
    let w = b.activity("w");
    b.write(w, d);
    b.activity("a");
    let r = b.activity("r");
    b.read(r, d);
    b.activity("b");
    b.and_split();
    b.branch();
    let p = b.activity("p");
    b.write(p, e);
    b.branch();
    let q = b.activity("q");
    b.read(q, e);
    b.and_join();
    b.sync(p, q);
    b.activity("z");
    let s = b.build().unwrap();
    assert!(verify_schema(&s).is_correct(), "{}", verify_schema(&s));
    s
}

#[test]
fn the_refusals_a_scope_must_not_miss() {
    let s = world();
    let n = |name: &str| s.node_by_name(name).unwrap().id;
    let (d, e) = (
        s.data_by_name("d").unwrap().id,
        s.data_by_name("e").unwrap().id,
    );
    let (w, a, r, b, p, q) = (n("w"), n("a"), n("r"), n("b"), n("p"), n("q"));
    let branch = |guard| ChangeOp::BranchInsert {
        activity: NewActivity::named("c"),
        pred: a,
        succ: r,
        guard: Some(guard),
    };
    let mut refused: Vec<(&str, Vec<ChangeOp>)> = vec![
        (
            "deleting the only writer of a mandatory input",
            vec![ChangeOp::DeleteActivity { node: w }],
        ),
        (
            "moving a reader ahead of its writer",
            vec![ChangeOp::MoveActivity {
                node: r,
                pred: s.start_node(),
                succ: w,
            }],
        ),
        (
            "a branch guard on an unknown element",
            vec![branch(Guard::new(DataId(77), CmpOp::Eq, Value::Int(1)))],
        ),
        (
            "a branch guard with a mistyped literal",
            vec![branch(Guard::new(d, CmpOp::Eq, Value::Str("x".into())))],
        ),
        (
            "a branch guard on an unwritten element",
            vec![ChangeOp::BranchInsert {
                activity: NewActivity::named("c"),
                pred: w,
                succ: a,
                guard: Some(Guard::new(e, CmpOp::Eq, Value::Int(1))),
            }],
        ),
        (
            "removing a write edge a read relied on",
            vec![ChangeOp::RemoveDataEdge {
                node: w,
                data: d,
                mode: AccessMode::Write,
            }],
        ),
        (
            "deleting a sync edge a read relied on",
            vec![ChangeOp::DeleteSyncEdge { from: p, to: q }],
        ),
        (
            "an inserted reader ahead of the only writer",
            vec![ChangeOp::SerialInsert {
                activity: NewActivity::named("early").reading(d),
                pred: s.start_node(),
                succ: w,
            }],
        ),
        (
            "a parallel branch reading what its region writes",
            vec![ChangeOp::ParallelInsert {
                activity: NewActivity::named("side").reading(d),
                from: w,
                to: w,
            }],
        ),
    ];
    // A read of an element the same change declares: nothing writes it.
    let declare = ChangeOp::AddDataElement {
        name: "fresh".into(),
        ty: ValueType::Int,
    };
    let mut txn = ChangeTxn::begin_ad_hoc(&Execution::new(&s).unwrap());
    let fresh = txn.stage(&declare).unwrap().added_data[0];
    let read_fresh = ChangeOp::AddDataEdge {
        node: b,
        data: fresh,
        mode: AccessMode::Read,
        optional: false,
    };
    refused.push((
        "a new read of an element nothing writes",
        vec![declare, read_fresh],
    ));
    for (what, ops) in refused {
        let rep = ad_hoc(&s, &ops).unwrap_or_else(|| panic!("{what}: did not stage"));
        assert!(!rep.is_correct(), "{what}: committed");
    }
    let committed: Vec<(&str, Vec<ChangeOp>)> = vec![
        (
            "a named insert",
            vec![ChangeOp::SerialInsert {
                activity: NewActivity::named("x"),
                pred: a,
                succ: r,
            }],
        ),
        (
            "an attribute change",
            vec![ChangeOp::SetActivityAttributes {
                node: a,
                attrs: ActivityAttributes::default(),
            }],
        ),
        (
            "a second writer in a parallel branch",
            vec![ChangeOp::ParallelInsert {
                activity: NewActivity::named("side").writing(d),
                from: a,
                to: a,
            }],
        ),
    ];
    for (what, ops) in committed {
        let rep = ad_hoc(&s, &ops).unwrap_or_else(|| panic!("{what}: did not stage"));
        assert!(rep.is_correct(), "{what}: {rep}");
    }
}

#[test]
fn an_overlay_reports_the_warnings_its_operations_touched_not_the_bases() {
    // `d` is written and never read: the base's own warning.
    let mut b = SchemaBuilder::new("unread");
    let d = b.data("d", ValueType::Int);
    let w = b.activity("w");
    b.write(w, d);
    let a = b.activity("a");
    let s = b.build().unwrap();
    assert_eq!(verify_schema(&s).warnings().count(), 1);
    let insert = |activity| ChangeOp::SerialInsert {
        activity,
        pred: w,
        succ: a,
    };
    let quiet = ad_hoc(&s, &[insert(NewActivity::named("x"))]).unwrap();
    assert!(quiet.issues.is_empty(), "{quiet}");
    let touched = ad_hoc(&s, &[insert(NewActivity::named("x").writing(d))]).unwrap();
    assert_eq!(touched.warnings().count(), 1, "{touched}");
}

/// A biased hop onto `v1 + delta_ops`, biased by `bias_ops` (both staged
/// on `v1`), of a fresh instance: its verdict, and the whole pass over the
/// target when the bias re-applies.
fn hop(
    v1: &ProcessSchema,
    delta_ops: &[ChangeOp],
    bias_ops: &[ChangeOp],
) -> Option<(Verdict, VerificationReport)> {
    let deployed = Execution::new(v1).unwrap();
    let mut evolution = ChangeTxn::begin(&deployed);
    for op in delta_ops {
        evolution.stage(op).ok()?;
    }
    let evolved = evolution.commit_schema().ok()?;
    let mut change = ChangeTxn::begin_ad_hoc(&deployed);
    for op in bias_ops {
        change.stage(op).ok()?;
    }
    let biased = change.commit_schema().ok()?;
    let st = biased.target.init().unwrap();
    let result = migrate_instance(
        &biased.target.schema,
        &biased.target.blocks,
        &evolved.target,
        &evolved.delta,
        &biased.delta,
        st,
        &MigrationOptions::default(),
    );
    let (target, _, _) = replay_bias(&evolved.target, &biased.delta).ok()?;
    let whole = verify_schema(&target);
    let conflict = format!(
        "type change and instance bias conflict: {}",
        whole.error_summary()
    );
    match &result.verdict {
        Verdict::NotCompliant(c) if c.kind == ConflictKind::Structural => {
            assert_eq!(c.reason, conflict)
        }
        _ => assert!(whole.is_correct(), "{whole}"),
    }
    if let Some(materialized) = &result.materialized {
        assert_eq!(*materialized.schema, target);
    }
    Some((result.verdict, whole))
}

#[test]
fn a_biased_hop_is_refused_exactly_when_the_whole_pass_refuses_its_target() {
    let s = world();
    let n = |name: &str| s.node_by_name(name).unwrap().id;
    let d = s.data_by_name("d").unwrap().id;
    // ΔT deletes the writer the bias's activity reads (and its own reader).
    let reads_d = ChangeOp::SerialInsert {
        activity: NewActivity::named("x").reading(d),
        pred: n("b"),
        succ: s.sole_control_successor(n("b")).unwrap(),
    };
    let deletes = [n("r"), n("w")].map(|node| ChangeOp::DeleteActivity { node });
    let (verdict, whole) = hop(&s, &deletes, std::slice::from_ref(&reads_d)).unwrap();
    assert!(!whole.is_correct());
    assert!(matches!(verdict, Verdict::NotCompliant(c) if c.kind == ConflictKind::Structural));
    // ΔT leaves the writer: the same bias migrates.
    let tail = ChangeOp::SerialInsert {
        activity: NewActivity::named("y"),
        pred: n("z"),
        succ: s.end_node(),
    };
    let (verdict, whole) = hop(&s, &[tail], &[reads_d]).unwrap();
    assert!(whole.is_correct() && verdict.is_compliant(), "{verdict}");

    // Seeded hops: a random ΔT and a random bias on generated schemas.
    let mut hops = 0;
    for seed in 0..40u64 {
        let v1 = generate_schema(&GenParams::sized(16), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb1a5);
        for _ in 0..4 {
            let (k1, k2) = (rng.gen_range(0..11usize), rng.gen_range(0..11usize));
            let (Some(delta), Some(bias)) =
                (random_op(&v1, k1, &mut rng), random_op(&v1, k2, &mut rng))
            else {
                continue;
            };
            hops += usize::from(hop(&v1, &[delta], &[bias]).is_some());
        }
    }
    assert!(hops >= 40, "{hops} hops");
}

#[test]
fn deploys_and_evolutions_verify_whole_and_changes_by_scope() {
    let engine = ProcessEngine::new();
    let passes = || (verification_passes(), scoped_passes());
    let delta = |before: (u64, u64)| {
        let after = passes();
        (after.0 - before.0, after.1 - before.1)
    };
    let schema = world();
    let before = passes();
    let name = engine.deploy(schema).unwrap();
    assert_eq!(delta(before), (1, 0), "a deploy verifies whole, once");
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let n = |label: &str| v1.schema.node_by_name(label).unwrap().id;
    let id = engine.create_instance(&name).unwrap();
    let insert = |label: &str, pred, succ| ChangeOp::SerialInsert {
        activity: NewActivity::named(label),
        pred,
        succ,
    };
    let before = passes();
    adhoc(&engine, id, &insert("x", n("a"), n("r"))).unwrap();
    assert_eq!(
        delta(before),
        (1, 1),
        "an ad-hoc change verifies its scope, once"
    );
    let before = passes();
    evolve(&engine, &name, &[insert("y", n("z"), v1.schema.end_node())]).unwrap();
    assert_eq!(delta(before), (1, 0), "an evolution verifies whole, once");
    let before = passes();
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
    assert_eq!(
        delta(before),
        (1, 1),
        "a biased hop verifies its scope, once"
    );
}
