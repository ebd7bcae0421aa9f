//! Multi-threaded mixed-workload throughput of the sharded instance store.
//!
//! The workload is the concurrent regime the paper promises ("thousands of
//! instances", migrated and executed on the fly): worker threads drive a
//! 1k-instance population forward through `submit_batch`, poll the global
//! worklist, and a migration sweeps the whole population to a new version
//! — all at the same time, at 1/4/16 threads.
//!
//! Two store configurations run the identical workload:
//!
//! * `sharded` — the default [`DEFAULT_SHARD_COUNT`]-way sharded store;
//! * `single_lock` — `InstanceStore::with_shards(_, 1)`, the old
//!   one-global-`RwLock` layout.
//!
//! The total work per iteration is constant, so the wall-clock time should
//! *fall* as threads are added — for the sharded store it does; the
//! single-lock store plateaus because every command serialises on one
//! write lock. (Acceptance: ≥1.5× sharded over single-lock at 4 threads.)
//!
//! The `durable_throughput` group runs the same workload on a *journaled*
//! engine (every mutation appends to the WAL before it becomes visible):
//!
//! * `wal_global` — one single-backend log, every append behind one lock;
//! * `wal_segmented_16` — a 16-segment log, appends spread over one
//!   segment lock each (both on in-memory media, isolating lock spread
//!   from fsync cost).
//!
//! **Caveat:** thread scaling is only observable with real cores. On a
//! single-CPU host (e.g. a 1-vCPU CI container — check `nproc`) all
//! configurations time-slice onto one core and the thread variants should
//! read as *parity* (sharding must not cost anything); run on a
//! multi-core machine to see the spread. The `instances_of` group below
//! measures the store's algorithmic win — the per-type secondary index
//! versus the old O(all instances) filter scan — which shows regardless
//! of core count.

use adept_core::MigrationOptions;
use adept_engine::{EngineCommand, ProcessEngine};
use adept_model::InstanceId;
use adept_simgen::scenarios;
use adept_storage::{
    InstanceStore, MemoryBackend, Representation, SchemaRepository, StorageBackend, TxnLog,
    DEFAULT_SHARD_COUNT,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const POPULATION: usize = 1_000;

/// A populated engine on a store with the given shard count, with a
/// pending evolution so the in-flight migration has real work.
fn populated(shards: usize) -> (ProcessEngine, String, Vec<InstanceId>) {
    let engine = ProcessEngine::from_parts(
        SchemaRepository::new(),
        InstanceStore::with_shards(Representation::Hybrid, shards),
        TxnLog::new(),
    );
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<InstanceId> = (0..POPULATION)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    let mut evolution = engine.begin_evolution(&name).unwrap();
    for op in scenarios::fig1_delta_ops(&engine.repo.deployed(&name, 1).unwrap().schema) {
        evolution.stage(&op).unwrap();
    }
    evolution.commit().unwrap();
    (engine, name, ids)
}

/// The fixed mixed workload: every instance is driven two steps in small
/// batches, the worklist is polled periodically, and one migration sweep
/// runs concurrently. Total work is identical for every thread count.
fn mixed_workload(engine: &ProcessEngine, name: &str, ids: &[InstanceId], threads: usize) -> usize {
    let chunk = ids.len().div_ceil(threads);
    let mut done = 0usize;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move |_| {
                    let mut completed = 0usize;
                    for (k, group) in part.chunks(8).enumerate() {
                        let cmds: Vec<EngineCommand> = group
                            .iter()
                            .map(|id| EngineCommand::Drive {
                                instance: *id,
                                max: Some(2),
                            })
                            .collect();
                        for r in engine.submit_batch(cmds) {
                            completed += r.map(|o| o.completed).unwrap_or(0);
                        }
                        if k % 4 == 0 {
                            completed += engine.worklist().len();
                        }
                    }
                    completed
                })
            })
            .collect();
        // The concurrent migration sweep (worker threads above are the
        // live traffic it races against).
        let report = engine
            .migrate_all(name, &MigrationOptions::default(), 1)
            .unwrap();
        done += report.migrated();
        for h in handles {
            done += h.join().expect("workload worker");
        }
    })
    .expect("crossbeam scope");
    done
}

fn bench_store_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(POPULATION as u64));

    for threads in [1usize, 4, 16] {
        for (label, shards) in [("sharded", DEFAULT_SHARD_COUNT), ("single_lock", 1)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/threads{threads}"), POPULATION),
                &threads,
                |b, &threads| {
                    b.iter_batched(
                        || populated(shards),
                        |(engine, name, ids)| {
                            black_box(mixed_workload(&engine, &name, &ids, threads))
                        },
                        criterion::BatchSize::PerIteration,
                    )
                },
            );
        }
    }
    group.finish();
}

/// A populated *durable* engine journaling into an `n`-segment in-memory
/// WAL (n = 1 reproduces the old single-backend global log), with the
/// same pending evolution as [`populated`].
fn populated_durable(segments: usize) -> (ProcessEngine, String, Vec<InstanceId>) {
    let backends: Vec<Box<dyn StorageBackend>> = (0..segments)
        .map(|_| Box::new(MemoryBackend::new()) as Box<dyn StorageBackend>)
        .collect();
    let engine = ProcessEngine::with_segmented_wal(backends).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let ids: Vec<InstanceId> = (0..POPULATION)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    let mut evolution = engine.begin_evolution(&name).unwrap();
    for op in scenarios::fig1_delta_ops(&engine.repo.deployed(&name, 1).unwrap().schema) {
        evolution.stage(&op).unwrap();
    }
    evolution.commit().unwrap();
    (engine, name, ids)
}

/// The identical mixed workload on a journaled engine: global
/// single-backend WAL vs. a 16-segment WAL, at 1/4/16 threads.
fn bench_durable_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(POPULATION as u64));

    for threads in [1usize, 4, 16] {
        for (label, segments) in [("wal_global", 1usize), ("wal_segmented_16", 16)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/threads{threads}"), POPULATION),
                &threads,
                |b, &threads| {
                    b.iter_batched(
                        || populated_durable(segments),
                        |(engine, name, ids)| {
                            black_box(mixed_workload(&engine, &name, &ids, threads))
                        },
                        criterion::BatchSize::PerIteration,
                    )
                },
            );
        }
    }
    group.finish();
}

/// The old `instances_of` was a filter scan over **every** instance in
/// the store; the sharded store serves it from per-shard `type → ids`
/// indexes. Reconstruct the scan as the baseline and measure both over a
/// population where the queried type owns 1/8 of the instances.
fn bench_type_index(c: &mut Criterion) {
    use adept_model::SchemaBuilder;

    const TYPES: usize = 8;
    const TOTAL: usize = 8_000;

    let engine = ProcessEngine::new();
    let names: Vec<String> = (0..TYPES)
        .map(|k| {
            let mut b = SchemaBuilder::new(format!("type {k}"));
            b.activity("a");
            b.activity("b");
            engine.deploy(b.build().unwrap()).unwrap()
        })
        .collect();
    for k in 0..TOTAL {
        engine.create_instance(&names[k % TYPES]).unwrap();
    }
    let queried = names[3].clone();

    let mut group = c.benchmark_group("instances_of");
    group.sample_size(30);
    group.throughput(Throughput::Elements((TOTAL / TYPES) as u64));
    group.bench_function(BenchmarkId::new("indexed", TOTAL), |b| {
        b.iter(|| black_box(engine.store.instances_of(&queried).len()))
    });
    // The pre-sharding implementation: walk every stored instance and
    // compare its type name.
    group.bench_function(BenchmarkId::new("full_scan", TOTAL), |b| {
        b.iter(|| {
            let mut n = 0usize;
            for id in engine.store.ids() {
                if engine
                    .store
                    .with_instance(id, |inst| inst.type_name == queried)
                    .unwrap_or(false)
                {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_store_throughput,
    bench_durable_throughput,
    bench_type_index
);
criterion_main!(benches);
