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

use adept_bench::time;
use adept_core::{apply_op, apply_recorded, ChangeOp, Delta, NewActivity};
use adept_model::{EdgeKind, LoopCond, SchemaBuilder};
use adept_state::{DefaultDriver, Execution};
use adept_storage::SubstitutionBlock;

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

fn bench_block_vs_replay_materialisation() {
    let group = "ablation_materialisation";
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

    let label = format!("{group}/overlay_substitution_block");
    time(&label, 30, || (), |()| block.overlay(&base).unwrap());
    let label = format!("{group}/reapply_recorded_ops");
    time(
        &label,
        30,
        || (),
        |()| {
            let mut s = base.clone();
            s.reserve_private_id_space();
            for rec in &bias.ops {
                apply_recorded(&mut s, rec).unwrap();
            }
            s
        },
    );
}

fn main() {
    bench_history_reduction();
    bench_block_vs_replay_materialisation();
}
