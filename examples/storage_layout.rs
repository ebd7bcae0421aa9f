//! Walk-through of paper Fig. 2: how unchanged instances share their
//! schema redundant-free while biased instances carry a minimal
//! substitution block — their bias, replayed onto the original schema on
//! access — compared against the two alternatives the paper dismisses:
//! re-materialising on every access (a `RedundantFree` store) and a full
//! schema copy per biased instance (computed: the sum of each biased
//! instance's analysed context).
//!
//! Run with: `cargo run -p adept-examples --bin storage_layout`

use adept_core::{apply_op, ChangeOp, Delta, NewActivity};
use adept_model::{EdgeKind, InstanceId};
use adept_simgen::{generate_schema, GenParams};
use adept_state::{Execution, InstanceState};
use adept_storage::{InstanceStore, Representation, SchemaRepository};

fn main() {
    let (mut shared, mut full_copies) = (0, 0);
    for representation in [Representation::RedundantFree, Representation::Hybrid] {
        let schema = generate_schema(&GenParams::sized(60), 11);
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(representation);
        let dep = repo.deployed(&name, 1).unwrap();

        // 40 instances; every fourth is biased with one ad-hoc insert.
        let mut contexts = 0;
        for k in 0..40u64 {
            let st = dep.exec().init().unwrap();
            let id = store.create(&name, 1, st.clone());
            if k % 4 == 0 {
                let (ops, bias_bytes, context) = bias_one(&store, &dep, id, st);
                println!("{representation:?} {id}: bias = {ops} op(s) / {bias_bytes} bytes");
                contexts += context;
            }
            // Touch the schema (exercises sharing / replay / retention).
            store.schema_of(&repo, id);
            store.schema_of(&repo, id);
        }

        let mem = store.memory(&repo);
        let stats = store.stats();
        println!(
            "\n{representation:?}: total {} KiB (schemas once: {} B, states: {} B, biases: {} B, \
             materialisation cache: {} B)",
            mem.total() / 1024,
            mem.schema_bytes,
            mem.state_bytes,
            mem.bias_bytes,
            mem.cache_bytes
        );
        println!(
            "accesses: {} shared hits, {} cache hits, {} materialisations\n",
            stats.shared_hits, stats.cache_hits, stats.materializations
        );
        (shared, full_copies) = (mem.schema_bytes + mem.state_bytes, contexts);
    }
    println!(
        "full copy (computed, no store keeps it): total {} KiB (schemas once and states as above: \
         {shared} B, full copies: {full_copies} B, each biased instance's analysed context)\n",
        (shared + full_copies) / 1024
    );
    println!(
        "-> the Hybrid store keeps biased instances cheap to access (minimal bias + cached \
         materialisation),"
    );
    println!(
        "   RedundantFree pays a materialisation per access, a full copy a schema per instance."
    );

    retained_ratio();
    sharded_layout();
}

/// Biases instance `id` with one serial insert on the first control edge
/// of its deployment and installs it: the bias's op count and bytes, and
/// the bytes of the analysed context it runs on — its full copy.
fn bias_one(
    store: &InstanceStore,
    dep: &Execution,
    id: InstanceId,
    st: InstanceState,
) -> (usize, usize, usize) {
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
    let sizes = (bias.len(), bias.approx_size());
    let target = Execution::new(materialized).unwrap();
    let context = target.approx_size();
    store
        .install(id, None, bias, target, st, |_| Ok(()))
        .unwrap();
    (sizes.0, sizes.1, context)
}

/// What a one-op biased instance keeps beside the shared deployment in
/// the Hybrid store (its bias and retained context), over its full copy.
fn retained_ratio() {
    println!("\nretained bytes / full copy, one biased instance with one op:");
    for activities in [20, 80] {
        let repo = SchemaRepository::new();
        let name = repo
            .deploy(generate_schema(&GenParams::sized(activities), 42))
            .unwrap();
        let store = InstanceStore::new(Representation::Hybrid);
        let dep = repo.deployed(&name, 1).unwrap();
        let st = dep.exec().init().unwrap();
        let id = store.create(&name, 1, st.clone());
        let (_, _, full_copy) = bias_one(&store, &dep, id, st);
        let mem = store.memory(&repo);
        let retained = mem.bias_bytes + mem.cache_bytes;
        println!(
            "  {activities} activities: {retained} B / {full_copy} B = {:.3}",
            retained as f64 / full_copy as f64
        );
    }
    println!(
        "  -> about 1.0: a retained context is still a whole analysed schema; it falls only \
         once the context keeps just what its bias changed."
    );
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
