//! Property tests for the workload generator (generated schemas are
//! always correct; changes preserve correctness — claim C3/C4) and for the
//! bias replay a biased instance's schema is rebuilt by (Fig. 2
//! faithfulness: `replay(S, Δ) == apply(Δ, S)`).

use adept_core::{apply_op, replay_bias, ChangeOp, Delta, NewActivity};
use adept_model::{AccessMode, Blocks, EdgeKind};
use adept_simgen::{random_change, GenParams};
use adept_state::Execution;
use adept_verify::is_correct;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        ..ProptestConfig::default()
    })]

    /// C4: every generated schema passes the full verification suite.
    #[test]
    fn generated_schemas_are_correct(seed in 0u64..100_000, size in 4usize..40) {
        let s = adept_simgen::generate_schema(&GenParams::sized(size), seed);
        prop_assert!(is_correct(&s));
        prop_assert!(s.activities().count() >= 1);
    }

    /// C3: applying any generated valid change preserves correctness.
    #[test]
    fn changes_preserve_correctness(seed in 0u64..100_000) {
        let s = adept_simgen::generate_schema(&GenParams::sized(15), seed);
        if let Some((evolved, _)) = random_change(&s, seed ^ 0xabcdef, "p") {
            prop_assert!(is_correct(&evolved));
        }
    }

    /// Fig. 2 faithfulness: rebuilding the instance-specific schema by
    /// replaying the recorded ops on the base equals direct change
    /// application, id allocators included, and the blocks the replay
    /// derives equal a full analysis of it.
    #[test]
    fn overlay_equals_direct_application(seed in 0u64..100_000, ops in 1usize..4) {
        let base = adept_simgen::generate_schema(&GenParams::sized(12), seed);
        let mut materialized = base.clone();
        materialized.reserve_private_id_space();
        let mut delta = Delta::new();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let originals: Vec<_> = base.activities().map(|n| n.id).collect();
        let data: Vec<_> = base.data_elements().map(|d| d.id).collect();
        for k in 0..ops {
            // Random serial inserts, and data edges attached to original
            // activities, as bias (the common ad-hoc operations).
            let op = if !data.is_empty() && rng.gen_bool(0.5) {
                ChangeOp::AddDataEdge {
                    node: originals[rng.gen_range(0..originals.len())],
                    data: data[rng.gen_range(0..data.len())],
                    mode: if rng.gen_bool(0.5) { AccessMode::Read } else { AccessMode::Write },
                    optional: rng.gen_bool(0.5),
                }
            } else {
                let edges: Vec<_> = materialized
                    .edges()
                    .filter(|e| e.kind == EdgeKind::Control)
                    .map(|e| (e.from, e.to))
                    .collect();
                if edges.is_empty() { break; }
                let (pred, succ) = edges[rng.gen_range(0..edges.len())];
                ChangeOp::SerialInsert {
                    activity: NewActivity::named(format!("bias{k}")),
                    pred,
                    succ,
                }
            };
            if let Ok(rec) = apply_op(&mut materialized, &op) {
                delta.push(rec);
            }
        }
        if delta.is_empty() {
            return Ok(());
        }
        let deployed = Execution::new(&base).unwrap();
        let (rebuilt, blocks, _) = replay_bias(&deployed, &delta).unwrap();
        prop_assert_eq!(&rebuilt, &materialized);
        prop_assert_eq!(Ok(Blocks::clone(&blocks)), Blocks::analyze(&materialized));
    }

    /// Bias algebra: a delta composed with the physical deletion of its own
    /// insertion purges to the empty delta.
    #[test]
    fn insert_delete_purges_to_noop(seed in 0u64..100_000) {
        let base = adept_simgen::generate_schema(&GenParams::sized(10), seed);
        let mut s = base.clone();
        let edges: Vec<_> = s
            .edges()
            .filter(|e| e.kind == EdgeKind::Control)
            .map(|e| (e.from, e.to))
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (pred, succ) = edges[rng.gen_range(0..edges.len())];
        let Ok(rec) = apply_op(&mut s, &ChangeOp::SerialInsert {
            activity: NewActivity::named("temp"),
            pred,
            succ,
        }) else { return Ok(()); };
        let x = rec.inserted_activity().unwrap();
        let mut delta: Delta = std::iter::once(rec).collect();
        let Ok(del) = apply_op(&mut s, &ChangeOp::DeleteActivity { node: x }) else {
            return Ok(());
        };
        let physically_removed = del.removed_nodes.contains(&x);
        delta.push(del);
        delta.purge();
        if physically_removed {
            prop_assert!(delta.is_empty(), "insert+physical delete must purge: {}", &delta);
        } else {
            prop_assert_eq!(delta.len(), 2, "nullified deletes must be kept");
        }
    }
}

/// Deterministic regression: the generator's id spaces stay separated
/// between type level and instance level.
#[test]
fn private_id_space_separation() {
    let base = adept_simgen::generate_schema(&GenParams::sized(20), 77);
    assert!(base.ids_below_private_space());
    let mut inst = base.clone();
    inst.reserve_private_id_space();
    let edges: Vec<_> = inst
        .edges()
        .filter(|e| e.kind == EdgeKind::Control)
        .map(|e| (e.from, e.to))
        .take(1)
        .collect();
    let (pred, succ) = edges[0];
    let rec = apply_op(
        &mut inst,
        &ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred,
            succ,
        },
    )
    .unwrap();
    let x = rec.inserted_activity().unwrap();
    assert!(x.raw() >= adept_model::ProcessSchema::PRIVATE_ID_BASE);
    assert!(!inst.ids_below_private_space());
}
