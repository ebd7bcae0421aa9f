//! A schema that change operations made from an analysed schema inherits
//! its block structure: each operation edits the structure the schema had
//! before it, and nothing is analysed again (`adept_core`'s derivation
//! over `Blocks`' block edits). These tests hold every derived structure to
//! a full analysis (`Blocks::analyze`) of the schema it was derived for, in
//! release builds as in debug ones, which also check each derivation as it
//! is made:
//!
//! * after one to three operations staged on a generated schema, ad hoc
//!   and as a type evolution, after a stage that failed, and on the
//!   committed verdict;
//! * after `unstage_last`;
//! * after a bias replay onto its deployment and onto an evolved version;
//! * after a purge, whose renamed edge re-orders a split's branches, on the
//!   live context and on the contexts a restore and a recovery rebuild.
//!
//! `apply_op`, the one-operation entry on a bare schema, is held to the
//! same path: it analyses its input once, verifies the result once, and
//! its record and schema are those of staging the op on the analysed input.
//!
//! All eleven operation kinds are staged: the five `simgen` proposes and
//! the six it does not, drawn here. [`kind`] names them in one exhaustive
//! match, so a new kind does not compile without a case.

use adept_core::{apply_op, replay_bias, ChangeError, ChangeOp, ChangeTxn, NewActivity};
use adept_engine::{recover_from_segmented, ProcessEngine};
use adept_model::{
    AccessMode, ActivityAttributes, Blocks, EdgeKind, InstanceId, NodeId, NodeKind, ProcessSchema,
    ValueType,
};
use adept_simgen::changegen::{propose, ALL_OP_KINDS};
use adept_simgen::{generate_schema, scenarios, GenParams};
use adept_state::Execution;
use adept_storage::MemoryBackend;
use adept_tests::adhoc;
use adept_verify::{analysis_passes, verification_passes};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Number of operation kinds.
const KINDS: usize = 11;

/// Which kind `op` is: the first five in `simgen`'s `ALL_OP_KINDS` order.
fn kind(op: &ChangeOp) -> usize {
    match op {
        ChangeOp::SerialInsert { .. } => 0,
        ChangeOp::BranchInsert { .. } => 1,
        ChangeOp::DeleteActivity { .. } => 2,
        ChangeOp::MoveActivity { .. } => 3,
        ChangeOp::InsertSyncEdge { .. } => 4,
        ChangeOp::ParallelInsert { .. } => 5,
        ChangeOp::DeleteSyncEdge { .. } => 6,
        ChangeOp::AddDataElement { .. } => 7,
        ChangeOp::AddDataEdge { .. } => 8,
        ChangeOp::RemoveDataEdge { .. } => 9,
        ChangeOp::SetActivityAttributes { .. } => 10,
    }
}

/// Asserts that `derived` is what a full analysis of `schema` finds.
fn assert_analysed(derived: &Blocks, schema: &ProcessSchema, what: &str) {
    assert_eq!(Ok(derived), Blocks::analyze(schema).as_ref(), "{what}");
}

fn pick<T: Copy>(rng: &mut SmallRng, v: &[T]) -> Option<T> {
    (!v.is_empty()).then(|| v[rng.gen_range(0..v.len())])
}

/// The last node of a random region starting at `from`: up to three steps
/// along its level, a split's whole block at a time, stopping before an
/// AND or XOR join and the end. A step onto a loop end cuts its loop.
fn region_end(s: &ProcessSchema, blocks: &Blocks, from: NodeId, rng: &mut SmallRng) -> NodeId {
    let mut to = from;
    for _ in 0..rng.gen_range(0..4) {
        let last = blocks.by_split.get(&to).map_or(to, |b| b.join);
        let Some(next) = s.sole_control_successor(last) else {
            break;
        };
        let kind = s.node(next).unwrap().kind;
        if matches!(kind, NodeKind::AndJoin | NodeKind::XorJoin | NodeKind::End) {
            break;
        }
        to = next;
    }
    to
}

/// A random operation of kind `k` against `s`; kinds 0..5 come from
/// `simgen::propose`, the other six are drawn here. Parallel inserts wrap
/// regions of any node kind, so some cut a block and are refused.
fn random_op(s: &ProcessSchema, k: usize, rng: &mut SmallRng) -> Option<ChangeOp> {
    let activities: Vec<_> = s.activities().map(|n| n.id).collect();
    let data: Vec<_> = s.data_elements().map(|d| d.id).collect();
    let op = match k {
        0..=4 => propose(s, ALL_OP_KINDS[k], rng, "d")?,
        5 => {
            let inner: Vec<_> = s
                .nodes()
                .filter(|n| !matches!(n.kind, NodeKind::Start | NodeKind::End))
                .map(|n| n.id)
                .collect();
            let from = pick(rng, &inner)?;
            let blocks = Blocks::analyze(s).ok()?;
            ChangeOp::ParallelInsert {
                activity: NewActivity::named("d-par"),
                from,
                to: region_end(s, &blocks, from, rng),
            }
        }
        6 => {
            let syncs: Vec<_> = s.sync_edges().map(|e| (e.from, e.to)).collect();
            let (from, to) = pick(rng, &syncs)?;
            ChangeOp::DeleteSyncEdge { from, to }
        }
        7 => ChangeOp::AddDataElement {
            name: format!("d-data-{}", rng.gen_range(0..1000u32)),
            ty: ValueType::Int,
        },
        8 => ChangeOp::AddDataEdge {
            node: pick(rng, &activities)?,
            data: pick(rng, &data)?,
            mode: AccessMode::Write,
            optional: false,
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
    assert_eq!(kind(&op), k, "{op}");
    Some(op)
}

/// Whether applying `op` replaced an outgoing control edge of an AND or
/// XOR split of `before` — an edit that re-orders the split's branches.
fn replaced_a_branch_edge(before: &ProcessSchema, removed: &[adept_model::EdgeId]) -> bool {
    removed.iter().any(|&e| {
        let from = before.edge(e).map(|e| e.from).unwrap();
        matches!(
            before.node(from).unwrap().kind,
            NodeKind::AndSplit | NodeKind::XorSplit
        )
    })
}

/// A generated schema, deployed: analysed once, the base every derivation
/// below starts from.
fn deployed(seed: u64) -> Execution {
    let base = generate_schema(&GenParams::sized(12 + (seed as usize % 3) * 10), seed);
    Execution::new(base).unwrap()
}

/// Stages up to `ops` random operations on `txn`, checking the overlay's
/// derived blocks after each stage, failed ones included. Counts staged
/// kinds and branch-edge replacements.
fn stage_random(
    txn: &mut ChangeTxn,
    ops: usize,
    rng: &mut SmallRng,
    staged: &mut [usize; KINDS],
    branch_edges: &mut usize,
    what: &str,
) {
    for _ in 0..ops {
        let k = rng.gen_range(0..KINDS);
        let Some(op) = random_op(txn.working(), k, rng) else {
            continue;
        };
        let before = txn.working().clone();
        if let Ok(rec) = txn.stage(&op) {
            staged[k] += 1;
            *branch_edges += usize::from(replaced_a_branch_edge(&before, &rec.removed_edges));
        }
        let what = format!("{what}: {} staged, then {op}", txn.len());
        assert_analysed(txn.blocks(), txn.working(), &what);
    }
}

#[test]
fn staged_and_unstaged_ops_derive_what_a_full_analysis_finds() {
    let (mut staged, mut branch_edges, mut committed) = ([0usize; KINDS], 0, 0);
    for seed in 0..40u64 {
        let deployed = deployed(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb10c);
        for ad_hoc in [true, false] {
            for _ in 0..6 {
                let mut txn = if ad_hoc {
                    ChangeTxn::begin_ad_hoc(&deployed)
                } else {
                    ChangeTxn::begin(&deployed)
                };
                let what = format!("seed {seed}, ad hoc {ad_hoc}");
                let ops = rng.gen_range(1..=3);
                stage_random(
                    &mut txn,
                    ops,
                    &mut rng,
                    &mut staged,
                    &mut branch_edges,
                    &what,
                );
                if rng.gen_bool(0.3) && txn.unstage_last().is_ok() {
                    let what = format!("{what}: unstaged to {}", txn.len());
                    assert_analysed(txn.blocks(), txn.working(), &what);
                }
                if let Ok(done) = txn.commit_schema() {
                    committed += 1;
                    let target = &done.target;
                    assert_analysed(&target.blocks, &target.schema, &what);
                }
            }
        }
    }
    assert!(
        staged.iter().all(|&n| n >= 5),
        "staged per kind: {staged:?}"
    );
    assert!(branch_edges >= 20, "branch edges replaced: {branch_edges}");
    assert!(committed >= 100, "committed: {committed}");
}

/// `apply_op` of every kind on a bare copy of a generated schema: one
/// block analysis and one verification pass (none when the op is refused
/// before it is verified), and the outcome — record and schema, or the
/// error and the schema untouched — of staging the op with
/// `ChangeTxn::begin` on the analysed input and verifying the overlay
/// whole.
#[test]
fn apply_op_analyses_its_input_once_and_applies_as_a_staged_op() {
    let (mut applied, mut refused) = ([0usize; KINDS], 0);
    for seed in 0..40u64 {
        let deployed = deployed(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xa991);
        for (k, applied_k) in applied.iter_mut().enumerate() {
            for _ in 0..3 {
                let Some(op) = random_op(&deployed.schema, k, &mut rng) else {
                    continue;
                };
                let what = format!("seed {seed}: {op}");
                let mut schema = ProcessSchema::clone(&deployed.schema);
                let before = (analysis_passes(), verification_passes());
                let result = apply_op(&mut schema, &op);
                let cost = (
                    analysis_passes() - before.0,
                    verification_passes() - before.1,
                );
                let verified = matches!(result, Ok(_) | Err(ChangeError::PostconditionViolated(_)));
                assert_eq!(cost, (1, u64::from(verified)), "{what}");

                let mut txn = ChangeTxn::begin(&deployed);
                let staged = txn.stage(&op).cloned().and_then(|rec| {
                    let report = txn.verify();
                    if report.is_correct() {
                        Ok(rec)
                    } else {
                        Err(ChangeError::PostconditionViolated(report.error_summary()))
                    }
                });
                assert_eq!(result, staged, "{what}");
                match result {
                    Ok(_) => {
                        assert_eq!(&schema, txn.working(), "{what}");
                        *applied_k += 1;
                    }
                    Err(_) => {
                        assert_eq!(schema, *deployed.schema, "{what}");
                        refused += 1;
                    }
                }
            }
        }
    }
    assert!(
        applied.iter().all(|&n| n >= 30),
        "applied per kind: {applied:?}"
    );
    assert!(refused >= 50, "refused: {refused}");
}

#[test]
fn a_replayed_bias_derives_its_blocks_on_its_deployment_and_on_an_evolved_version() {
    let (mut staged, mut branch_edges) = ([0usize; KINDS], 0);
    let (mut on_deployment, mut on_evolved) = (0, 0);
    for seed in 0..40u64 {
        let deployed = deployed(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb1a5);
        let mut txn = ChangeTxn::begin_ad_hoc(&deployed);
        let what = format!("seed {seed}");
        stage_random(&mut txn, 4, &mut rng, &mut staged, &mut branch_edges, &what);
        let Ok(done) = txn.commit_schema() else {
            continue;
        };
        let bias = done.delta;
        if bias.is_empty() {
            continue;
        }
        let (schema, blocks, _) = replay_bias(&deployed, &bias).unwrap();
        assert_eq!(schema, *done.target.schema, "{what}: {bias:?}");
        assert_analysed(&blocks, &schema, &format!("{what}: {bias:?} replayed"));
        on_deployment += 1;

        let mut evolution = ChangeTxn::begin(&deployed);
        stage_random(
            &mut evolution,
            2,
            &mut rng,
            &mut staged,
            &mut branch_edges,
            &what,
        );
        let Ok(evolved) = evolution.commit_schema() else {
            continue;
        };
        let v2 = evolved.target;
        if let Ok((schema, blocks, _)) = replay_bias(&v2, &bias) {
            let what = format!("{what}: {bias:?} replayed after {:?}", evolved.delta);
            assert_analysed(&blocks, &schema, &what);
            on_evolved += 1;
        }
    }
    assert!(
        on_deployment >= 30,
        "replayed on the deployment: {on_deployment}"
    );
    assert!(
        on_evolved >= 15,
        "replayed on an evolved version: {on_evolved}"
    );
}

/// The blocks of `id`'s context in `engine`.
fn context_blocks(engine: &ProcessEngine, id: InstanceId) -> (Arc<ProcessSchema>, Arc<Blocks>) {
    let ctx = engine
        .store
        .with_context(&engine.repo, id, |_, ctx| ctx.clone());
    let ctx = ctx.unwrap();
    (ctx.schema, ctx.blocks)
}

/// Commits an insert on `edge` (which leaves a split) and the delete of
/// the inserted activity after an insert before the end: the second pair
/// purges, and its bridge is renamed back to `edge`, whose position among
/// the split's edges is the branch order again.
fn insert_and_delete_on(engine: &ProcessEngine, id: InstanceId, pred: NodeId, succ: NodeId) {
    let schema = engine.store.schema_of(&engine.repo, id).unwrap();
    let end = schema.nodes().find(|n| n.kind == NodeKind::End).unwrap().id;
    let last = schema.sole_control_predecessor(end).unwrap();
    let tail = ChangeOp::SerialInsert {
        activity: NewActivity::named("Y"),
        pred: last,
        succ: end,
    };
    adhoc(engine, id, &tail).unwrap();
    let insert = ChangeOp::SerialInsert {
        activity: NewActivity::named("X"),
        pred,
        succ,
    };
    let x = adhoc(engine, id, &insert).unwrap().delta.ops[0].added_nodes[0];
    adhoc(engine, id, &ChangeOp::DeleteActivity { node: x }).unwrap();
    assert_eq!(
        engine.store.get(id).unwrap().bias.len(),
        1,
        "the pair purged"
    );
}

/// The purge's regression: deploy `order_process`, commit "Y" before the
/// end, commit "X" on the edge from the AND split to "confirm order", then
/// delete "X". The live context, a restored engine's and a recovered
/// engine's all keep the branch order a full analysis finds — "confirm
/// order" first, as its edge has the lower id.
#[test]
fn a_purged_bias_keeps_the_branch_order_a_full_analysis_finds() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let split = v1
        .nodes()
        .find(|n| n.kind == NodeKind::AndSplit)
        .unwrap()
        .id;
    let confirm = v1.node_by_name("confirm order").unwrap().id;
    insert_and_delete_on(&engine, id, split, confirm);

    let (schema, live) = context_blocks(&engine, id);
    assert_analysed(&live, &schema, "the live context");
    assert_eq!(live.by_split[&split].branches[0], vec![confirm]);
    let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
    let (recovered, _) = recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
    for (how, other) in [("restored", &restored), ("recovered", &recovered)] {
        let (other_schema, blocks) = context_blocks(other, id);
        assert_eq!(other_schema, schema, "{how}");
        assert_eq!(blocks, live, "{how}");
    }
}

/// The same purge on generated schemas, at every outgoing edge of an AND
/// split whose head is an activity: the live context's blocks are what a
/// full analysis finds, and what a restore rebuilds.
#[test]
fn a_purge_on_every_branch_edge_keeps_the_blocks_a_full_analysis_finds() {
    let mut purged = 0;
    for seed in 0..12u64 {
        let base = generate_schema(&GenParams::sized(16), seed);
        let edges: Vec<_> = base
            .edges()
            .filter(|e| e.kind == EdgeKind::Control)
            .filter(|e| base.node(e.from).unwrap().kind == NodeKind::AndSplit)
            .filter(|e| base.node(e.to).unwrap().kind == NodeKind::Activity)
            .map(|e| (e.from, e.to))
            .collect();
        for (split, head) in edges {
            let engine = ProcessEngine::new();
            let name = engine.deploy(base.clone()).unwrap();
            let id = engine.create_instance(&name).unwrap();
            insert_and_delete_on(&engine, id, split, head);
            let (schema, live) = context_blocks(&engine, id);
            let what = format!("seed {seed}, {split} -> {head}");
            assert_analysed(&live, &schema, &what);
            let restored = ProcessEngine::from_snapshot(&engine.snapshot()).unwrap();
            assert_eq!(context_blocks(&restored, id).1, live, "{what}");
            purged += 1;
        }
    }
    assert!(purged >= 10, "purged: {purged}");
}
