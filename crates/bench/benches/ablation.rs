//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **History reduction** — the compliance criterion replays *reduced*
//!    histories (last loop iteration only). Ablating the reduction shows
//!    why: replay cost over full histories grows with total iterations,
//!    reduced replay stays proportional to one iteration.
//! 2. **Substitution block vs. recorded-op re-application** — a biased
//!    instance's schema can be rebuilt either by overlaying its block
//!    (pure graph patch) or by re-applying its recorded operations
//!    (preconditions included); the block is the faster access path.

use adept_core::{apply_op, apply_recorded, ChangeOp, Delta, NewActivity};
use adept_model::{EdgeKind, LoopCond, SchemaBuilder};
use adept_state::{DefaultDriver, Execution};
use adept_storage::SubstitutionBlock;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_history_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_history_reduction");
    group.sample_size(30);
    for iterations in [8u32, 64] {
        let mut b = SchemaBuilder::new("loopy");
        b.loop_start();
        b.activity("work");
        b.loop_end(LoopCond::Times(iterations));
        let schema = b.build().unwrap();
        let ex = Execution::new(&schema).unwrap();
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();

        group.bench_with_input(
            BenchmarkId::new("replay_reduced", iterations),
            &iterations,
            |b, _| {
                b.iter(|| {
                    let reduced = st.history.reduced(&schema, &ex.blocks);
                    black_box(ex.replay(&reduced).unwrap())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("replay_full", iterations),
            &iterations,
            |b, _| b.iter(|| black_box(ex.replay(&st.history).unwrap())),
        );
    }
    group.finish();
}

fn bench_block_vs_replay_materialisation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_materialisation");
    group.sample_size(30);
    let base = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(60), 3);
    let mut materialized = base.clone();
    materialized.reserve_private_id_space();
    let mut bias = Delta::new();
    for k in 0..3 {
        let (pred, succ) = materialized
            .edges()
            .find(|e| e.kind == EdgeKind::Control)
            .map(|e| (e.from, e.to))
            .unwrap();
        bias.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named(format!("b{k}")),
                    pred,
                    succ,
                },
            )
            .unwrap(),
        );
    }
    let block = SubstitutionBlock::from_delta(&bias, &materialized);

    group.bench_function("overlay_substitution_block", |b| {
        b.iter(|| black_box(block.overlay(&base).unwrap()))
    });
    group.bench_function("reapply_recorded_ops", |b| {
        b.iter(|| {
            let mut s = base.clone();
            s.reserve_private_id_space();
            for rec in &bias.ops {
                apply_recorded(&mut s, rec).unwrap();
            }
            black_box(s)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_history_reduction,
    bench_block_vs_replay_materialisation
);
criterion_main!(benches);
