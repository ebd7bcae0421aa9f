//! Property C5: the *efficient* incremental state adaptation produces the
//! same marking as re-deriving the state by replaying the reduced history
//! on the changed schema.

use adept_core::adapt::transfer_marking;
use adept_core::{adapt_instance_state, check_fast};
use adept_simgen::{generate_population, random_change, GenParams};
use adept_state::{CompactMarking, Execution};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn adaptation_matches_replay(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let Some((evolved, delta)) = random_change(&schema, change_seed, "adapt") else {
            return Ok(());
        };
        let ex_new = Execution::new(&evolved).unwrap();

        for st in generate_population(&ex, 4, pop_seed) {
            // Only compliant instances are adapted.
            if !check_fast(&schema, &ex.blocks, &st, &delta).is_compliant() {
                continue;
            }
            let mut adapted = st.clone();
            adapt_instance_state(&schema, &ex.blocks, &ex_new, &delta, &mut adapted).unwrap();

            let reduced = st.history.reduced(&schema, &ex.blocks);
            let replayed = ex_new.replay(&reduced).unwrap();
            prop_assert!(
                adapted.marking.same_states(&replayed.marking),
                "adaptation != replay (schema {}, pop {}, change {}):\n  delta:    {}\n  adapted:  {}\n  replayed: {}\n  history:  {}",
                schema_seed, pop_seed, change_seed,
                &delta, adapted.marking, replayed.marking, &st.history
            );
        }
    }

    /// Adapted instances remain executable: they can always run to
    /// completion on the new schema (no stuck markings).
    #[test]
    fn adapted_instances_can_finish(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(12), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let Some((evolved, delta)) = random_change(&schema, change_seed, "finish") else {
            return Ok(());
        };
        let ex_new = Execution::new(&evolved).unwrap();
        for (k, st) in generate_population(&ex, 3, pop_seed).into_iter().enumerate() {
            if !check_fast(&schema, &ex.blocks, &st, &delta).is_compliant() {
                continue;
            }
            let mut adapted = st.clone();
            adapt_instance_state(&schema, &ex.blocks, &ex_new, &delta, &mut adapted).unwrap();
            let mut driver = adept_simgen::RandomDriver::new(pop_seed ^ (k as u64) << 7);
            ex_new.run(&mut adapted, &mut driver, Some(500)).unwrap();
            prop_assert!(
                ex_new.is_finished(&adapted),
                "adapted instance stuck (schema {}, change {}): {}",
                schema_seed, change_seed, adapted.marking
            );
        }
    }

    /// Between the local marking transfer and the fixpoint, an adapted
    /// marking names only nodes and edges the target schema has: every
    /// entry converts to an arena slot and takes part in the fixpoint.
    /// (`refresh` would leave any other entry standing, untouched — a
    /// stale mark the next command on the instance would then refuse.)
    #[test]
    fn transferred_markings_name_only_ids_the_target_arena_interns(
        schema_seed in 0u64..5000,
        pop_seed in 0u64..5000,
        change_seed in 0u64..5000,
    ) {
        let schema = adept_simgen::generate_schema(&GenParams::sized(14), schema_seed);
        let ex = Execution::new(&schema).unwrap();
        let Some((evolved, delta)) = random_change(&schema, change_seed, "interned") else {
            return Ok(());
        };
        let ex_new = Execution::new(&evolved).unwrap();
        for st in generate_population(&ex, 4, pop_seed) {
            if !check_fast(&schema, &ex.blocks, &st, &delta).is_compliant() {
                continue;
            }
            let mut unsettled = st;
            transfer_marking(&evolved, &delta, &mut unsettled);
            let interned = CompactMarking::from_marking(&ex_new.arena, &unsettled.marking);
            prop_assert!(
                interned.is_ok(),
                "un-interned id after the transfer (schema {}, pop {}, change {}): {:?}\n  delta:   {}\n  marking: {}",
                schema_seed, pop_seed, change_seed, interned.err(), &delta, unsettled.marking
            );
        }
    }
}
