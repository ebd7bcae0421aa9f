//! Instance population generation: random drivers and partial executions.

use adept_model::{DataId, NodeId, ProcessSchema, Value, ValueType};
use adept_state::{Driver, Execution, InstanceState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A randomised [`Driver`]: random XOR branches, bounded random loop
/// iterations, random activity interleavings and random typed output
/// values. Deterministic per seed.
#[derive(Debug)]
pub struct RandomDriver {
    rng: SmallRng,
    /// Probability of another loop iteration at an external loop end.
    pub p_iterate: f64,
    /// Hard cap on iterations of externally decided loops.
    pub max_iterations: u32,
}

impl RandomDriver {
    /// Creates a driver from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            p_iterate: 0.4,
            max_iterations: 3,
        }
    }
}

impl Driver for RandomDriver {
    fn choose_branch(&mut self, _: &ProcessSchema, _: NodeId, targets: &[NodeId]) -> usize {
        self.rng.gen_range(0..targets.len().max(1))
    }

    fn decide_loop(&mut self, _: &ProcessSchema, _: NodeId, completed: u32) -> bool {
        completed < self.max_iterations && self.rng.gen_bool(self.p_iterate)
    }

    fn choose_activity(&mut self, _: &ProcessSchema, enabled: &[NodeId]) -> usize {
        self.rng.gen_range(0..enabled.len().max(1))
    }

    fn output_value(&mut self, schema: &ProcessSchema, _: NodeId, data: DataId) -> Value {
        match schema.data_element(data).map(|d| d.ty) {
            Ok(ValueType::Bool) => Value::Bool(self.rng.gen_bool(0.5)),
            Ok(ValueType::Int) => Value::Int(self.rng.gen_range(0..1000)),
            Ok(ValueType::Float) => Value::Float(self.rng.gen_range(0.0..100.0)),
            Ok(ValueType::Str) => Value::Str(format!("v{}", self.rng.gen_range(0..100))),
            Err(_) => Value::Null,
        }
    }
}

/// Generates `n` instances of a schema at random progress points: instance
/// `k` executes a random number of activities between 0 and roughly the
/// schema's activity count. Deterministic per seed.
pub fn generate_population(ex: &Execution, n: usize, seed: u64) -> Vec<InstanceState> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let activities = ex.schema.activities().count();
    (0..n)
        .map(|k| {
            let mut driver = RandomDriver::new(seed.wrapping_add(k as u64));
            let mut st = ex.init().expect("init");
            let steps = rng.gen_range(0..=activities.saturating_mul(2));
            ex.run(&mut st, &mut driver, Some(steps)).expect("run");
            st
        })
        .collect()
}

/// Generates `n` *finished* instances (ran to completion).
pub fn generate_finished_population(ex: &Execution, n: usize, seed: u64) -> Vec<InstanceState> {
    (0..n)
        .map(|k| {
            let mut driver = RandomDriver::new(seed.wrapping_add(k as u64));
            let mut st = ex.init().expect("init");
            ex.run(&mut st, &mut driver, None).expect("run");
            st
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemagen::{generate_schema, GenParams};

    #[test]
    fn population_is_deterministic_and_varied() {
        let s = generate_schema(&GenParams::default(), 3);
        let ex = Execution::new(&s).unwrap();
        let p1 = generate_population(&ex, 20, 99);
        let p2 = generate_population(&ex, 20, 99);
        assert_eq!(p1, p2, "same seed, same population");
        let progressed: usize = p1.iter().filter(|st| !st.history.is_empty()).count();
        assert!(progressed > 5, "population should show progress variety");
    }

    #[test]
    fn finished_population_finishes() {
        let s = generate_schema(&GenParams::sized(10), 5);
        let ex = Execution::new(&s).unwrap();
        for st in generate_finished_population(&ex, 10, 7) {
            assert!(ex.is_finished(&st));
        }
    }

    #[test]
    fn random_driver_handles_all_scenarios() {
        // Drive the clinical pathway (loops + guards) to completion with
        // many seeds; the while-loop is guard-driven and must terminate
        // because lab results are random booleans.
        let s = crate::scenarios::clinical_pathway();
        let ex = Execution::new(&s).unwrap();
        let mut finished = 0;
        for seed in 0..20 {
            let mut driver = RandomDriver::new(seed);
            let mut st = ex.init().unwrap();
            // Bound the run to avoid pathological 1e6-iteration flukes.
            ex.run(&mut st, &mut driver, Some(500)).unwrap();
            if ex.is_finished(&st) {
                finished += 1;
            }
        }
        assert!(
            finished >= 15,
            "most random runs should finish: {finished}/20"
        );
    }
}
