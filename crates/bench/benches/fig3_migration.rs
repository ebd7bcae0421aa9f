//! Fig. 3 / Claim C1 — on-the-fly migration of whole instance populations:
//! end-to-end throughput of `migrate_all` (compliance check + state
//! adaptation + re-homing) for N instances, sequential vs. parallel
//! workers. The paper: "the concomitant migration of thousands of
//! instances ... on-the-fly ... avoid performance penalties".

use adept_bench::time;
use adept_core::MigrationOptions;
use adept_engine::{EngineCommand, ProcessEngine};
use adept_simgen::{scenarios, RandomDriver};

fn populate(n: usize) -> (ProcessEngine, String) {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    for k in 0..n {
        let id = engine.create_instance(&name).unwrap();
        let mut driver = RandomDriver::new(k as u64);
        // Random progress: 0..=2 completed activities keeps most instances
        // compliant (the interesting hot path).
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
    (engine, name)
}

fn main() {
    for n in [100usize, 1_000, 10_000] {
        for threads in [1usize, 4] {
            let label = format!("fig3_migration/migrate_all/threads{threads}/{n}");
            let setup = || {
                let (engine, name) = populate(n);
                let mut evolution = engine.begin_evolution(&name).unwrap();
                let v1 = engine.repo.deployed(&name, 1).unwrap();
                for op in scenarios::fig1_delta_ops(&v1.schema) {
                    evolution.stage(&op).unwrap();
                }
                evolution.commit().unwrap();
                (engine, name)
            };
            let mean = time(&label, 10, setup, |(engine, name)| {
                let options = MigrationOptions::default();
                let report = engine.migrate_all(&name, &options, threads).unwrap();
                report.migrated()
            });
            println!(
                "{:>56} {:.0} instances/s",
                "",
                n as f64 / mean.as_secs_f64()
            );
        }
    }
}
