//! Exception-heavy workload generation for adaptation-loop stress tests.
//!
//! [`exception_schema`] wraps [`generate_schema`]
//! and post-marks a fraction of the activities as *flaky*: their
//! `application` attribute carries a failure budget
//! (`"flaky:<budget>"`), which a test injector reads to decide how often
//! to fail the activity before letting it complete. Deadline-sensitive
//! activities get an `expected_duration_min`, so the adaptation loop's
//! logical-clock deadline scan has breaches to find. The generator stays
//! engine-free — it only annotates schemas; injecting the failures is
//! the harness's job.

use crate::schemagen::{generate_schema, GenParams};
use adept_model::{Node, NodeId, ProcessSchema};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `application` attribute prefix marking a flaky activity; the suffix is
/// the failure budget.
pub const FLAKY_PREFIX: &str = "flaky:";

/// Parameters of the exception-heavy generator.
#[derive(Debug, Clone)]
pub struct ExceptionParams {
    /// The underlying structural generator parameters.
    pub base: GenParams,
    /// Probability that an activity is marked flaky.
    pub p_flaky: f64,
    /// Maximum failure budget of a flaky activity (uniform in
    /// `1..=max_failures`).
    pub max_failures: u32,
    /// Probability that a flaky activity is additionally *unskippable* —
    /// the give-up path (escalation) exists because of these.
    pub p_unskippable: f64,
    /// Probability that an activity carries a deadline.
    pub p_deadline: f64,
    /// The deadline value, in logical-clock ticks.
    pub deadline_ticks: u32,
}

impl Default for ExceptionParams {
    fn default() -> Self {
        Self {
            base: GenParams::sized(8),
            p_flaky: 0.35,
            max_failures: 3,
            p_unskippable: 0.15,
            p_deadline: 0.2,
            deadline_ticks: 6,
        }
    }
}

/// Generates a verification-clean schema and marks a fraction of its
/// activities flaky / deadline-bound. Deterministic in `seed`.
pub fn exception_schema(params: &ExceptionParams, seed: u64) -> ProcessSchema {
    let mut schema = generate_schema(&params.base, seed);
    // A distinct stream from the structural generator's, so annotation
    // rolls don't depend on how many rolls the builder consumed.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_f1a6);
    let ids: Vec<NodeId> = schema.activities().map(|n| n.id).collect();
    for id in ids {
        let flaky = rng.gen_bool(params.p_flaky);
        let unskippable = flaky && rng.gen_bool(params.p_unskippable);
        let deadline = rng.gen_bool(params.p_deadline);
        let budget = rng.gen_range(1..=params.max_failures.max(1));
        if let Ok(node) = schema.node_mut(id) {
            if flaky {
                node.attrs.application = Some(format!("{FLAKY_PREFIX}{budget}").into());
                node.attrs.skippable = !unskippable;
            }
            if deadline {
                node.attrs.expected_duration_min = Some(params.deadline_ticks);
            }
        }
    }
    schema
}

/// The failure budget of a flaky activity, parsed from its `application`
/// attribute; `None` for reliable activities.
pub fn flaky_budget(node: &Node) -> Option<u32> {
    node.attrs
        .application
        .as_deref()
        .and_then(|a| a.strip_prefix(FLAKY_PREFIX))
        .and_then(|b| b.parse().ok())
}

/// All flaky activities of a schema with their failure budgets.
pub fn flaky_nodes(schema: &ProcessSchema) -> Vec<(NodeId, u32)> {
    schema
        .activities()
        .filter_map(|n| flaky_budget(n).map(|b| (n.id, b)))
        .collect()
}

/// A small deterministic exception scenario for tests and the
/// `adaptation` example: `intake → process → ship`, where `process` is
/// flaky (budget 2) but skippable and `ship` carries a deadline.
pub fn exception_scenario() -> ProcessSchema {
    let mut b = adept_model::SchemaBuilder::new("flaky order");
    let _intake = b.activity("intake");
    let process = b.activity("process");
    let ship = b.activity("ship");
    let mut schema = b.build().expect("scenario is a plain sequence");
    let p = schema.node_mut(process).expect("process exists");
    p.attrs.application = Some(format!("{FLAKY_PREFIX}2").into());
    p.attrs.skippable = true;
    let s = schema.node_mut(ship).expect("ship exists");
    s.attrs.expected_duration_min = Some(4);
    schema
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_annotated() {
        let params = ExceptionParams::default();
        let a = exception_schema(&params, 7);
        let b = exception_schema(&params, 7);
        assert_eq!(a, b, "same seed, same schema");
        assert!(adept_verify::is_correct(&a));
        // Over a few seeds the generator must produce at least one flaky
        // activity (p_flaky = 0.35 over dozens of activities).
        let any_flaky = (0..8).any(|s| !flaky_nodes(&exception_schema(&params, s)).is_empty());
        assert!(any_flaky);
    }

    #[test]
    fn scenario_shape() {
        let s = exception_scenario();
        assert!(adept_verify::is_correct(&s));
        let process = s.node_by_name("process").unwrap();
        assert_eq!(flaky_budget(process), Some(2));
        assert!(process.attrs.skippable);
        let ship = s.node_by_name("ship").unwrap();
        assert_eq!(ship.attrs.expected_duration_min, Some(4));
        assert_eq!(flaky_nodes(&s).len(), 1);
    }
}
