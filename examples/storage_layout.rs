//! Walk-through of paper Fig. 2: how unchanged instances share their
//! schema redundant-free while biased instances carry a minimal
//! substitution block that overlays the original schema on access —
//! compared against the two alternatives the paper dismisses.
//!
//! Run with: `cargo run -p adept-examples --bin storage_layout`

use adept_core::{apply_op, ChangeOp, Delta, NewActivity};
use adept_model::EdgeKind;
use adept_simgen::{generate_schema, GenParams};
use adept_state::Execution;
use adept_storage::{InstanceStore, Representation, SchemaRepository, SubstitutionBlock};

fn main() {
    for strategy in [
        Representation::RedundantFree,
        Representation::FullCopy,
        Representation::Hybrid,
    ] {
        let schema = generate_schema(&GenParams::sized(60), 11);
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(strategy);
        let dep = repo.deployed(&name, 1).unwrap();

        // 40 instances; every fourth is biased with one ad-hoc insert.
        for k in 0..40u64 {
            let st = dep.exec().init().unwrap();
            let id = store.create(&name, 1, st.clone());
            if k % 4 == 0 {
                let mut materialized = (*dep.schema).clone();
                materialized.reserve_private_id_space();
                let (pred, succ) = materialized
                    .edges()
                    .find(|e| e.kind == EdgeKind::Control)
                    .map(|e| (e.from, e.to))
                    .unwrap();
                let mut bias = Delta::new();
                bias.push(
                    apply_op(
                        &mut materialized,
                        &ChangeOp::SerialInsert {
                            activity: NewActivity::named("ad-hoc step"),
                            pred,
                            succ,
                        },
                    )
                    .unwrap(),
                );
                let block = SubstitutionBlock::from_delta(&bias, &materialized);
                println!(
                    "{strategy:?} {id}: substitution block = {} nodes / {} edges / {} bytes",
                    block.added_nodes.len(),
                    block.added_edges.len(),
                    block.approx_size()
                );
                let target = Execution::new(materialized).unwrap();
                store
                    .install(id, None, bias, target, st, |_| Ok(()))
                    .unwrap();
            }
            // Touch the schema (exercises sharing / overlay / copies).
            store.schema_of(&repo, id);
            store.schema_of(&repo, id);
        }

        let mem = store.memory(&repo);
        let stats = store.stats();
        println!(
            "\n{strategy:?}: total {} KiB (schemas once: {} B, states: {} B, bias+blocks: {} B, \
             full copies: {} B, overlay cache: {} B)",
            mem.total() / 1024,
            mem.schema_bytes,
            mem.state_bytes,
            mem.bias_bytes,
            mem.full_copy_bytes,
            mem.cache_bytes
        );
        println!(
            "accesses: {} shared hits, {} cache hits, {} materialisations\n",
            stats.shared_hits, stats.cache_hits, stats.materializations
        );
    }
    println!(
        "-> the Hybrid strategy keeps biased instances cheap (minimal block + cached overlay),"
    );
    println!("   RedundantFree pays a materialisation per access, FullCopy pays a schema copy per instance.");

    sharded_layout();
}

/// The concurrency side of the store: instances spread over independent
/// shard locks, ids from a lock-free allocator, stats from atomics —
/// worker threads creating and reading instances never serialise on one
/// global lock.
fn sharded_layout() {
    let schema = generate_schema(&GenParams::sized(20), 7);
    let repo = SchemaRepository::new();
    let name = repo.deploy(schema).unwrap();
    let store = InstanceStore::new(Representation::Hybrid);
    let dep = repo.deployed(&name, 1).unwrap();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let (store, repo, name) = (&store, &repo, &name);
            let st = dep.exec().init().unwrap();
            scope.spawn(move || {
                for _ in 0..250 {
                    let id = store.create(name, 1, st.clone());
                    store.schema_of(repo, id); // lock-free stats tally
                }
            });
        }
    });

    println!(
        "\nsharded store: {} instances over {} shards, ids dense and unique \
         (highest {}), {} shared hits counted without a stats lock",
        store.len(),
        store.shard_count(),
        store.ids().last().unwrap(),
        store.stats().shared_hits
    );
}
