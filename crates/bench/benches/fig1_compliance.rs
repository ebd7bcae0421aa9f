//! Fig. 1 / Claim C2 — efficient compliance checks: the per-operation
//! conditions (`check_fast`) vs. the trace-replay criterion
//! (`check_trace`), sweeping the history length (loop iterations). The
//! paper's point: the fast conditions stay O(ops) while replay grows with
//! the history.

use adept_core::{check_fast, check_trace};
use adept_model::{LoopCond, SchemaBuilder};
use adept_simgen::scenarios;
use adept_state::{DefaultDriver, Execution};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_compliance");
    group.sample_size(40);

    // The literal Fig. 1 scenario.
    let s_old = scenarios::order_process();
    let ex = Execution::new(&s_old).unwrap();
    let mut st = ex.init().unwrap();
    ex.run(&mut st, &mut DefaultDriver, Some(2)).unwrap();
    let mut s_new = s_old.clone();
    let mut delta = adept_core::Delta::new();
    for op in scenarios::fig1_delta_ops(&s_old) {
        delta.push(adept_core::apply_op(&mut s_new, &op).unwrap());
    }
    let ex_new = Execution::new(&s_new).unwrap();

    group.bench_function("order_process/fast", |b| {
        b.iter(|| black_box(check_fast(&s_old, &ex.blocks, &st, &delta)))
    });
    group.bench_function("order_process/trace", |b| {
        b.iter(|| black_box(check_trace(&s_old, &ex.blocks, &ex_new, &st)))
    });

    // History-length sweep: a loop process executed n times.
    for iterations in [1u32, 8, 32, 128] {
        let mut b = SchemaBuilder::new("loopy");
        let before = b.activity("before");
        b.loop_start();
        b.activity("work a");
        b.activity("work b");
        b.loop_end(LoopCond::Times(iterations));
        let after = b.activity("after");
        let schema = b.build().unwrap();
        let ex = Execution::new(&schema).unwrap();
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();
        let _ = (before, after);

        let mut evolved = schema.clone();
        let end = evolved.end_node();
        let rec = adept_core::apply_op(
            &mut evolved,
            &adept_core::ChangeOp::SerialInsert {
                activity: adept_core::NewActivity::named("audit"),
                pred: after,
                succ: end,
            },
        )
        .unwrap();
        let delta: adept_core::Delta = std::iter::once(rec).collect();
        let ex_new = Execution::new(&evolved).unwrap();

        group.bench_with_input(
            BenchmarkId::new("fast_by_history", st_events(&st, iterations)),
            &iterations,
            |b, _| b.iter(|| black_box(check_fast(&schema, &ex.blocks, &st, &delta))),
        );
        group.bench_with_input(
            BenchmarkId::new("trace_by_history", st_events(&st, iterations)),
            &iterations,
            |b, _| b.iter(|| black_box(check_trace(&schema, &ex.blocks, &ex_new, &st))),
        );
    }
    group.finish();
}

fn st_events(st: &adept_state::InstanceState, _i: u32) -> usize {
    st.history.len()
}

criterion_group!(benches, bench_fig1);
criterion_main!(benches);
