//! Fig. 2 — storage representation of schema and instance data: the hybrid
//! substitution-block approach (a biased instance keeps its bias, replayed
//! onto the original schema when its cached materialisation is gone) vs.
//! the two alternatives the paper dismisses (re-materialising on every
//! access; a full copy per biased instance, computed as the sum of each
//! biased instance's analysed context).
//! Measures per-access schema resolution latency; the byte-level memory
//! comparison and the retained bytes of a one-op biased instance over its
//! full copy are printed at the end.

use adept_bench::time;
use adept_core::{apply_op, ChangeOp, Delta, NewActivity};
use adept_model::EdgeKind;
use adept_model::InstanceId;
use adept_simgen::{generate_schema, GenParams};
use adept_state::{Execution, InstanceState};
use adept_storage::{InstanceStore, Representation, SchemaRepository};

fn setup(
    representation: Representation,
    schema_size: usize,
    biased: bool,
) -> (SchemaRepository, InstanceStore, InstanceId, usize) {
    let schema = generate_schema(&GenParams::sized(schema_size), 42);
    let repo = SchemaRepository::new();
    let name = repo.deploy(schema).unwrap();
    let store = InstanceStore::new(representation);
    let dep = repo.deployed(&name, 1).unwrap();
    let st = dep.exec().init().unwrap();
    let id = store.create(&name, 1, st.clone());
    let full_copy = if biased {
        bias_one(&store, &dep, id, st)
    } else {
        0
    };
    (repo, store, id, full_copy)
}

/// Biases instance `id` with one serial insert on the first control edge
/// of its deployment and installs it; the bytes of the analysed context it
/// runs on — its full copy.
fn bias_one(store: &InstanceStore, dep: &Execution, id: InstanceId, st: InstanceState) -> usize {
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
    let full_copy = target.approx_size();
    store
        .install(id, None, bias, target, st, |_| Ok(()))
        .unwrap();
    full_copy
}

fn main() {
    for schema_size in [20usize, 80] {
        for (label, representation, biased) in [
            ("unbiased_shared", Representation::Hybrid, false),
            ("hybrid_overlay_cached", Representation::Hybrid, true),
            (
                "rematerialize_each_access",
                Representation::RedundantFree,
                true,
            ),
        ] {
            let (repo, store, id, _) = setup(representation, schema_size, biased);
            store.schema_of(&repo, id); // warm the cache
            let label = format!("fig2_storage/{label}/{schema_size}");
            time(&label, 40, || (), |()| store.schema_of(&repo, id).unwrap());
        }
    }

    // Memory comparison (printed once; shapes the Fig. 2 argument).
    println!("\n=== Fig. 2 memory breakdown (100 instances, 25% biased, 80-activity schema) ===");
    let (mut shared, mut full_copies) = (0, 0);
    for representation in [Representation::RedundantFree, Representation::Hybrid] {
        let schema = generate_schema(&GenParams::sized(80), 42);
        let repo = SchemaRepository::new();
        let name = repo.deploy(schema).unwrap();
        let store = InstanceStore::new(representation);
        let dep = repo.deployed(&name, 1).unwrap();
        let mut contexts = 0;
        for k in 0..100u64 {
            let st = dep.exec().init().unwrap();
            let id = store.create(&name, 1, st.clone());
            if k % 4 == 0 {
                contexts += bias_one(&store, &dep, id, st);
                store.schema_of(&repo, id); // materialise where nothing is retained
            }
        }
        let mem = store.memory(&repo);
        println!(
            "{representation:?}: total={} KiB (schemas={}, states={}, biases={}, materialisation cache={})",
            mem.total() / 1024,
            mem.schema_bytes,
            mem.state_bytes,
            mem.bias_bytes,
            mem.cache_bytes,
        );
        (shared, full_copies) = (mem.schema_bytes + mem.state_bytes, contexts);
    }
    println!(
        "full copy (computed): total={} KiB (schemas and states as above={shared}, full copies={full_copies})",
        (shared + full_copies) / 1024
    );

    // The Fig. 2 argument per instance: what a one-op biased instance keeps
    // beside the shared deployment, over its full copy.
    println!("\n=== retained bytes / full copy, one biased instance with one op ===");
    for schema_size in [20usize, 80] {
        let (repo, store, _, full_copy) = setup(Representation::Hybrid, schema_size, true);
        let mem = store.memory(&repo);
        let retained = mem.bias_bytes + mem.cache_bytes;
        println!(
            "{schema_size} activities: {retained} B / {full_copy} B = {:.3}",
            retained as f64 / full_copy as f64
        );
    }
    println!(
        "(about 1.0 while a retained context is a whole analysed schema; it falls only once \
         the context keeps just what its bias changed)"
    );
}
