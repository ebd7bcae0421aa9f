//! Fig. 2 — storage representation of schema and instance data: the hybrid
//! substitution-block approach vs. the two alternatives the paper
//! dismisses (full per-instance copies; re-materialising on every access).
//! Measures per-access schema resolution latency; the byte-level memory
//! comparison is printed once at the end.

use adept_bench::time;
use adept_core::{apply_op, ChangeOp, Delta, NewActivity};
use adept_model::EdgeKind;
use adept_simgen::{generate_schema, GenParams};
use adept_state::Execution;
use adept_storage::{InstanceStore, Representation, SchemaRepository};

fn setup(
    strategy: Representation,
    schema_size: usize,
    biased: bool,
) -> (SchemaRepository, InstanceStore, adept_model::InstanceId) {
    let schema = generate_schema(&GenParams::sized(schema_size), 42);
    let repo = SchemaRepository::new();
    let name = repo.deploy(schema).unwrap();
    let store = InstanceStore::new(strategy);
    let dep = repo.deployed(&name, 1).unwrap();
    let st = dep.exec().init().unwrap();
    let id = store.create(&name, 1, st.clone());
    if biased {
        let mut materialized = (*dep.schema).clone();
        materialized.reserve_private_id_space();
        let edge = materialized
            .edges()
            .find(|e| e.kind == EdgeKind::Control)
            .map(|e| (e.from, e.to))
            .unwrap();
        let mut bias = Delta::new();
        bias.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("ad-hoc"),
                    pred: edge.0,
                    succ: edge.1,
                },
            )
            .unwrap(),
        );
        let target = Execution::new(materialized).unwrap();
        store
            .install(id, None, bias, target, st, |_| Ok(()))
            .unwrap();
    }
    (repo, store, id)
}

fn main() {
    for schema_size in [20usize, 80] {
        for (label, strategy, biased) in [
            ("unbiased_shared", Representation::Hybrid, false),
            ("hybrid_overlay_cached", Representation::Hybrid, true),
            (
                "rematerialize_each_access",
                Representation::RedundantFree,
                true,
            ),
            ("full_copy", Representation::FullCopy, true),
        ] {
            let (repo, store, id) = setup(strategy, schema_size, biased);
            store.schema_of(&repo, id); // warm the cache/copy
            let label = format!("fig2_storage/{label}/{schema_size}");
            time(&label, 40, || (), |()| store.schema_of(&repo, id).unwrap());
        }
    }

    // Memory comparison (printed once; shapes the Fig. 2 argument).
    println!("\n=== Fig. 2 memory breakdown (100 instances, 25% biased, 80-activity schema) ===");
    for strategy in [
        Representation::RedundantFree,
        Representation::FullCopy,
        Representation::Hybrid,
    ] {
        let schema = generate_schema(&GenParams::sized(80), 42);
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(strategy);
        let dep = repo.deployed(&name, 1).unwrap();
        for k in 0..100u64 {
            let st = dep.exec().init().unwrap();
            let id = store.create(&name, 1, st.clone());
            if k % 4 == 0 {
                let mut materialized = (*dep.schema).clone();
                materialized.reserve_private_id_space();
                let edge = materialized
                    .edges()
                    .find(|e| e.kind == EdgeKind::Control)
                    .map(|e| (e.from, e.to))
                    .unwrap();
                let mut bias = Delta::new();
                bias.push(
                    apply_op(
                        &mut materialized,
                        &ChangeOp::SerialInsert {
                            activity: NewActivity::named("ad-hoc"),
                            pred: edge.0,
                            succ: edge.1,
                        },
                    )
                    .unwrap(),
                );
                let target = Execution::new(materialized).unwrap();
                store
                    .install(id, None, bias, target, st, |_| Ok(()))
                    .unwrap();
                store.schema_of(&repo, id); // materialise caches/copies
            }
        }
        let mem = store.memory(&repo);
        println!(
            "{strategy:?}: total={} KiB (schemas={}, states={}, bias+blocks={}, full copies={}, overlay cache={})",
            mem.total() / 1024,
            mem.schema_bytes,
            mem.state_bytes,
            mem.bias_bytes,
            mem.full_copy_bytes,
            mem.cache_bytes,
        );
    }
}
