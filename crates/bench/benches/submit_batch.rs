//! The unified command API under load:
//!
//! * `submit_batch` — batched command submission versus the reconstructed
//!   pre-command verbs and versus one `submit` per command. A batch resolves the
//!   instance context once and commits the whole group under a single
//!   store update, so the gap widens with batch size — this is the
//!   heavy-traffic execution hot path.
//! * `worklist` — the worklist read off the store at population scale,
//!   alone and after a command.

use adept_engine::{EngineCommand, ProcessEngine};
use adept_model::{InstanceId, NodeId, SchemaBuilder};
use adept_simgen::{scenarios, RandomDriver};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// A linear chain of `n` activities — every completion enables exactly the
/// next step, so a batch of start/complete pairs drains it deterministically.
fn chain_engine(n: usize) -> (ProcessEngine, InstanceId, Vec<NodeId>) {
    let mut b = SchemaBuilder::new("chain");
    for k in 0..n {
        b.activity(&format!("step {k}"));
    }
    let engine = ProcessEngine::new();
    let name = engine.deploy(b.build().unwrap()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let schema = engine.repo.deployed(&name, 1).unwrap();
    let nodes = (0..n)
        .map(|k| schema.schema.node_by_name(&format!("step {k}")).unwrap().id)
        .collect();
    (engine, id, nodes)
}

/// The pre-redesign verb implementation, reconstructed for comparison:
/// every verb resolved the schema context from scratch, read a **full
/// clone** of the instance (state, history, data), mutated the clone and
/// wrote it back with another clone — and the get → update round-trip was
/// not atomic. This is the exact code shape `submit` replaced.
fn legacy_verb_pair(engine: &ProcessEngine, id: InstanceId, node: NodeId) {
    use adept_state::Execution;
    for phase in 0..2u8 {
        let inst = engine.store.get(id).unwrap();
        let schema = engine.store.schema_of(&engine.repo, id).unwrap();
        let dep = engine.repo.deployed(&inst.type_name, inst.version).unwrap();
        let ex = Execution::over(&schema, &dep.blocks, &dep.compiled);
        let mut inst = engine.store.get(id).unwrap();
        if phase == 0 {
            ex.start_activity(&mut inst.state, node).unwrap();
        } else {
            ex.complete_activity(&mut inst.state, node, vec![]).unwrap();
        }
        engine.store.update(id, |i| i.state = inst.state.clone());
    }
}

fn bench_submit_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("submit_batch");
    group.sample_size(30);

    for n in [1usize, 8, 32] {
        group.throughput(Throughput::Elements(n as u64));

        // The old get → clone → update verbs (see `legacy_verb_pair`).
        group.bench_with_input(BenchmarkId::new("legacy_verbs", n), &n, |b, &n| {
            b.iter_batched(
                || chain_engine(n),
                |(engine, id, nodes)| {
                    for node in nodes {
                        legacy_verb_pair(&engine, id, node);
                    }
                    black_box(engine.is_finished(id).unwrap())
                },
                criterion::BatchSize::PerIteration,
            )
        });

        // One submit per command: the command path without batching.
        group.bench_with_input(BenchmarkId::new("submit_single", n), &n, |b, &n| {
            b.iter_batched(
                || chain_engine(n),
                |(engine, id, nodes)| {
                    for node in nodes {
                        engine
                            .submit(EngineCommand::Start { instance: id, node })
                            .unwrap();
                        engine
                            .submit(EngineCommand::Complete {
                                instance: id,
                                node,
                                writes: vec![],
                            })
                            .unwrap();
                    }
                    black_box(engine.is_finished(id).unwrap())
                },
                criterion::BatchSize::PerIteration,
            )
        });

        // The whole chain as ONE batch: one context resolution, one store
        // update, one monitor append.
        group.bench_with_input(BenchmarkId::new("batched", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let (engine, id, nodes) = chain_engine(n);
                    let batch: Vec<EngineCommand> = nodes
                        .into_iter()
                        .flat_map(|node| {
                            [
                                EngineCommand::Start { instance: id, node },
                                EngineCommand::Complete {
                                    instance: id,
                                    node,
                                    writes: vec![],
                                },
                            ]
                        })
                        .collect();
                    (engine, id, batch)
                },
                |(engine, id, batch)| {
                    for r in engine.submit_batch(batch) {
                        r.unwrap();
                    }
                    black_box(engine.is_finished(id).unwrap())
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

/// 1k instances of the order process at mixed progress points.
fn population(n: usize) -> ProcessEngine {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    for k in 0..n {
        let id = engine.create_instance(&name).unwrap();
        let mut driver = RandomDriver::new(k as u64);
        engine
            .submit_with_driver(
                EngineCommand::Drive {
                    instance: id,
                    max: Some(k % 3),
                },
                &mut driver,
            )
            .unwrap();
    }
    engine
}

fn bench_worklist(c: &mut Criterion) {
    let mut group = c.benchmark_group("worklist");
    group.sample_size(20);
    const N: usize = 1_000;
    group.throughput(Throughput::Elements(N as u64));

    // Serving the global worklist is one walk of the store. (The row keeps
    // the name it had when an index served it.)
    group.bench_function(BenchmarkId::new("indexed", N), |b| {
        let engine = population(N);
        assert!(!engine.worklist().is_empty());
        b.iter(|| black_box(engine.worklist().len()))
    });

    // One command + one worklist read, the steady-state mix of a live
    // worklist server.
    group.bench_function(BenchmarkId::new("command_then_read", N), |b| {
        let engine = population(N);
        let item = engine
            .worklist()
            .into_iter()
            .next()
            .expect("population offers work");
        b.iter(|| {
            engine
                .submit(EngineCommand::Drive {
                    instance: item.instance,
                    max: Some(1),
                })
                .unwrap();
            black_box(engine.worklist().len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_submit_batch, bench_worklist);
criterion_main!(benches);
