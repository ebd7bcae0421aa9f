//! Fig. 1 / Claim C2 — efficient compliance checks: the per-operation
//! conditions (`check_fast`) vs. the trace-replay criterion
//! (`check_trace`), sweeping the history length (loop iterations). The
//! paper's point: the fast conditions stay O(ops) while replay grows with
//! the history.

use adept_bench::time;
use adept_core::{check_fast, check_trace};
use adept_model::{LoopCond, SchemaBuilder};
use adept_simgen::scenarios;
use adept_state::{DefaultDriver, Execution};

fn main() {
    let group = "fig1_compliance";

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

    time(
        &format!("{group}/order_process/fast"),
        40,
        || (),
        |()| check_fast(&s_old, &ex.blocks, &st, &delta),
    );
    time(
        &format!("{group}/order_process/trace"),
        40,
        || (),
        |()| check_trace(&s_old, &ex.blocks, &ex_new, &st),
    );

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

        let events = st.history.len();
        time(
            &format!("{group}/fast_by_history/{events}"),
            40,
            || (),
            |()| check_fast(&schema, &ex.blocks, &st, &delta),
        );
        time(
            &format!("{group}/trace_by_history/{events}"),
            40,
            || (),
            |()| check_trace(&schema, &ex.blocks, &ex_new, &st),
        );
    }
}
