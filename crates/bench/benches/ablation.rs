//! Ablation of **history reduction**, a design choice DESIGN.md calls
//! out: the compliance criterion replays *reduced* histories (last loop
//! iteration only). Ablating the reduction shows why: replay cost over
//! full histories grows with total iterations, reduced replay stays
//! proportional to one iteration.

use adept_bench::time;
use adept_model::{LoopCond, SchemaBuilder};
use adept_state::{DefaultDriver, Execution};

fn bench_history_reduction() {
    let group = "ablation_history_reduction";
    for iterations in [8u32, 64] {
        let mut b = SchemaBuilder::new("loopy");
        b.loop_start();
        b.activity("work");
        b.loop_end(LoopCond::Times(iterations));
        let schema = b.build().unwrap();
        let ex = Execution::new(&schema).unwrap();
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();

        let label = format!("{group}/replay_reduced/{iterations}");
        time(
            &label,
            30,
            || (),
            |()| {
                let reduced = st.history.reduced(&schema, &ex.blocks);
                ex.replay(&reduced).unwrap()
            },
        );
        let label = format!("{group}/replay_full/{iterations}");
        time(&label, 30, || (), |()| ex.replay(&st.history).unwrap());
    }
}

fn main() {
    bench_history_reduction();
}
