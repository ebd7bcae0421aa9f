//! The pooled arena equals the per-node compile it replaced
//! (`adept_tests::reference::compile_reference`, the old body verbatim),
//! row for row and slot by slot: on the scenario schemas, on generated
//! schemas of every size from 8 to 64 activities (loops, sync edges and
//! guarded XOR branches included), on overlays of every change kind staged
//! in the private id space, and on the targets biased migration hops build
//! and adapt on.

use adept_core::{migrate_instance, ChangeOp, ChangeTxn, MigrationOptions, NewActivity};
use adept_model::{Blocks, CmpOp, CompiledSchema, EdgeKind, Guard, ProcessSchema, Value};
use adept_simgen::changegen::propose;
use adept_simgen::{generate_schema, random_change, scenarios, GenParams, ALL_OP_KINDS};
use adept_state::Execution;
use adept_tests::reference::{compile_reference, ReferenceNode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Slot `slot` of `arena`, its pooled rows copied out in the reference's
/// shape.
fn pooled(arena: &CompiledSchema, slot: u32) -> ReferenceNode {
    let node = &arena.nodes[slot as usize];
    ReferenceNode {
        id: node.id,
        kind: node.kind,
        silent: node.silent,
        in_control: arena.in_control(slot).into(),
        in_sync: arena.in_sync(slot).into(),
        out_nonloop: arena.out_nonloop(slot).into(),
        out_control: arena.out_control(slot).into(),
        has_guards: node.has_guards,
        mandatory_reads: arena.mandatory_reads(slot).into(),
        read_signature: arena.read_signature(slot).into(),
        declared_writes: arena.declared_writes(slot).into(),
        loop_cond: node.loop_cond.clone(),
        loop_start: node.loop_start,
        loop_body_nodes: arena.loop_body_nodes(slot).into(),
        loop_body_edges: arena.loop_body_edges(slot).into(),
    }
}

/// `arena` is what `compile_reference` makes of `schema` and `blocks`.
fn assert_same_arena(arena: &CompiledSchema, schema: &ProcessSchema, blocks: &Blocks, what: &str) {
    let reference = compile_reference(schema, blocks);
    assert_eq!(arena.node_ids, reference.node_ids, "{what}: node ids");
    assert_eq!(arena.edge_ids, reference.edge_ids, "{what}: edge ids");
    assert_eq!(arena.edges, reference.edges, "{what}: edges");
    assert_eq!(
        (arena.start, arena.end),
        (reference.start, reference.end),
        "{what}: start and end"
    );
    assert_eq!(arena.node_count(), reference.nodes.len(), "{what}: nodes");
    for (slot, expected) in reference.nodes.iter().enumerate() {
        assert_eq!(&pooled(arena, slot as u32), expected, "{what}: slot {slot}");
    }
}

/// Compiles `schema` over its own analysis and holds it to the reference;
/// `false` when the schema has no block structure to compile over.
fn check(schema: &ProcessSchema, what: &str) -> bool {
    let Ok(blocks) = Blocks::analyze(schema) else {
        return false;
    };
    let arena = CompiledSchema::compile(schema, &blocks);
    assert_same_arena(&arena, schema, &blocks, what);
    true
}

/// Generator settings that open loops, conditionals and sync edges more
/// often than the default mix.
fn dense(size: usize) -> GenParams {
    GenParams {
        p_loop: 0.25,
        p_xor: 0.25,
        p_sync: 0.7,
        ..GenParams::sized(size)
    }
}

/// A branch insert on a random control edge, its branch guarded on a data
/// element of the schema.
fn guarded_branch(schema: &ProcessSchema, rng: &mut SmallRng, hint: &str) -> Option<ChangeOp> {
    let data = schema.data_elements().next()?.id;
    let control: Vec<_> = schema
        .edges()
        .filter(|e| e.kind == EdgeKind::Control)
        .map(|e| (e.from, e.to))
        .collect();
    let (pred, succ) = *control.get(rng.gen_range(0..control.len().max(1)))?;
    Some(ChangeOp::BranchInsert {
        activity: NewActivity::named(format!("{hint}-guarded")).writing(data),
        pred,
        succ,
        guard: Some(Guard::new(data, CmpOp::Ne, Value::Null)),
    })
}

#[test]
fn scenario_schemas_compile_alike() {
    for schema in [
        scenarios::order_process(),
        scenarios::clinical_pathway(),
        scenarios::container_logistics(),
        adept_simgen::exception_scenario(),
    ] {
        assert!(check(&schema, &schema.name));
    }
}

#[test]
fn generated_schemas_of_every_size_compile_alike() {
    for size in 8..=64 {
        for seed in 0..3u64 {
            let seed = seed * 1_000 + size as u64;
            for (params, mix) in [(GenParams::sized(size), "default"), (dense(size), "dense")] {
                let schema = generate_schema(&params, seed);
                assert!(check(&schema, &format!("size {size} seed {seed} {mix}")));
            }
        }
    }
}

#[test]
fn overlays_of_every_op_kind_compile_alike() {
    let mut compiled = 0usize;
    for seed in 0..48u64 {
        let size = 8 + (seed as usize * 7) % 57;
        let base = generate_schema(&dense(size), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xa7e4a);
        for kind in 0..=ALL_OP_KINDS.len() {
            let mut txn = ChangeTxn::begin_ad_hoc(base.clone());
            for step in 0..3 {
                let hint = format!("o{step}");
                let op = match ALL_OP_KINDS.get(kind) {
                    Some(&kind) => propose(txn.working(), kind, &mut rng, &hint),
                    None => guarded_branch(txn.working(), &mut rng, &hint),
                };
                let Some(op) = op else { break };
                if txn.stage(&op).is_ok() {
                    let what = format!("seed {seed}, {} staged, last {op}", txn.len());
                    compiled += usize::from(check(txn.working(), &what));
                }
            }
        }
    }
    assert!(compiled > 400, "only {compiled} overlays compiled");
}

#[test]
fn migration_targets_compile_alike() {
    let mut targets = 0usize;
    for seed in 0..64u64 {
        let base = generate_schema(&dense(8 + (seed as usize * 5) % 57), seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x319);
        // The instance's bias: one or two verified ad-hoc operations.
        let mut txn = ChangeTxn::begin_ad_hoc(base.clone());
        for step in 0..2 {
            let kind = ALL_OP_KINDS[rng.gen_range(0..ALL_OP_KINDS.len())];
            if let Some(op) = propose(txn.working(), kind, &mut rng, &format!("b{step}")) {
                if txn.stage(&op).is_ok() && !txn.verify().is_correct() {
                    txn.unstage_last().unwrap();
                }
            }
        }
        if txn.is_empty() {
            continue;
        }
        let Ok(committed) = txn.commit_schema() else {
            continue;
        };
        let current = committed.target;
        let st = current.init().unwrap();
        let Some((evolved, delta_t)) = random_change(&base, seed, "t") else {
            continue;
        };
        let new_base = Execution::new(&evolved).unwrap();
        let res = migrate_instance(
            &current.schema,
            &current.blocks,
            &new_base,
            &delta_t,
            &committed.delta,
            &st,
            &MigrationOptions::default(),
        );
        if let Some(target) = res.materialized {
            let what = format!(
                "seed {seed}: {} over {}",
                committed.delta.summary(),
                delta_t.summary()
            );
            assert_same_arena(&target.arena, &target.schema, &target.blocks, &what);
            targets += 1;
        }
    }
    assert!(targets > 20, "only {targets} migration targets compiled");
}
