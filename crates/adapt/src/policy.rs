//! Adaptation policies: pluggable deviation detectors and recovery
//! synthesizers.

use crate::{Deviation, RecoveryPlan, SchemaView};
use adept_engine::EngineEvent;
use adept_state::NodeState;

/// A pluggable adaptation strategy.
///
/// The [`AdaptationLoop`](crate::AdaptationLoop) drives policies in two
/// places:
///
/// - [`observe`](AdaptationPolicy::observe) sees every engine event as the
///   loop consumes the monitor stream and may classify additional,
///   policy-specific deviations (the loop's built-in detector already
///   covers failures, deadlines, stuck decisions and starvation — most
///   policies leave this defaulted).
/// - [`plan`](AdaptationPolicy::plan) is asked to synthesize a recovery
///   for a detected deviation given a fresh [`SchemaView`]. Policies are
///   consulted in registration order; the first plan that passes preview
///   wins, and a rejected plan falls through to the next policy.
///
/// Policies must be `Send + Sync`: with `threads > 1` the loop plans and
/// commits different instances' recoveries concurrently.
pub trait AdaptationPolicy: Send + Sync {
    /// The policy's name (for reports and monitor events).
    fn name(&self) -> &str;

    /// Inspects an engine event and may report a policy-specific
    /// deviation. Called for every event the loop consumes; defaults to
    /// no-op.
    fn observe(&self, _event: &EngineEvent) -> Option<Deviation> {
        None
    }

    /// Synthesizes a recovery plan for `deviation`, or `None` to pass.
    fn plan(&self, deviation: &Deviation, view: &SchemaView) -> Option<RecoveryPlan>;
}

/// Retry a failed activity with exponential backoff; once the retry
/// budget is exhausted, skip it if the schema allows. Also cancels
/// deadline-breached activities (turning the overrun into a failure the
/// retry path then handles) and exits stuck loops.
#[derive(Debug, Clone)]
pub struct RetryThenSkip {
    /// Failures tolerated before skipping (retries fired = `max_retries`).
    pub max_retries: u32,
    /// Backoff base: retry `k` waits `base_delay << (k-1)` ticks.
    pub base_delay: u64,
}

impl Default for RetryThenSkip {
    fn default() -> Self {
        Self {
            max_retries: 2,
            base_delay: 1,
        }
    }
}

impl AdaptationPolicy for RetryThenSkip {
    fn name(&self) -> &str {
        "retry-then-skip"
    }

    fn plan(&self, deviation: &Deviation, view: &SchemaView) -> Option<RecoveryPlan> {
        match deviation {
            Deviation::ActivityFailed { node, attempts, .. } => {
                if *attempts <= self.max_retries {
                    // Exponential backoff, capped so the shift can't
                    // overflow on adversarial attempt counts.
                    let exp = attempts.saturating_sub(1).min(6);
                    Some(RecoveryPlan::RetryWithBackoff {
                        node: *node,
                        delay_ticks: self.base_delay << exp,
                        attempt: *attempts,
                    })
                } else if view.is_skippable(*node) {
                    Some(RecoveryPlan::SkipActivity { node: *node })
                } else {
                    None
                }
            }
            Deviation::DeadlineBreached { node, .. } => {
                // Only a still-running activity can be cancelled; if it
                // completed or was adapted away in the meantime, pass.
                if view.node_state(*node) == NodeState::Running {
                    Some(RecoveryPlan::Cancel { node: *node })
                } else {
                    None
                }
            }
            Deviation::DecisionStuck { loop_end, .. } => Some(RecoveryPlan::JumpBack {
                loop_end: *loop_end,
                iterate: false,
            }),
            Deviation::WorklistStarvation { .. } => None,
        }
    }
}

/// Insert a compensation activity after a failed one and skip the
/// failure — the classic forward-recovery shape. Requires the failed
/// activity to be skippable (the compensation replaces it).
#[derive(Debug, Clone, Default)]
pub struct CompensateOnFailure;

impl AdaptationPolicy for CompensateOnFailure {
    fn name(&self) -> &str {
        "compensate-on-failure"
    }

    fn plan(&self, deviation: &Deviation, view: &SchemaView) -> Option<RecoveryPlan> {
        match deviation {
            Deviation::ActivityFailed { node, .. } if view.is_skippable(*node) => {
                let name = view
                    .schema
                    .node(*node)
                    .ok()
                    .map(|x| x.name.clone())
                    .unwrap_or_else(|| format!("{node}").into());
                Some(RecoveryPlan::InsertCompensation {
                    failed: *node,
                    compensation: format!("compensate {name}"),
                    skip_failed: true,
                })
            }
            _ => None,
        }
    }
}

/// The give-up policy: escalate any deviation to a human worklist role.
/// Register it *last* — it plans for everything, so policies after it are
/// never consulted.
#[derive(Debug, Clone)]
pub struct EscalateToWorklist {
    /// The role whose worklist receives escalations.
    pub role: String,
}

impl EscalateToWorklist {
    /// An escalation policy targeting `role`.
    pub fn new(role: impl Into<String>) -> Self {
        Self { role: role.into() }
    }
}

impl AdaptationPolicy for EscalateToWorklist {
    fn name(&self) -> &str {
        "escalate-to-worklist"
    }

    fn plan(&self, deviation: &Deviation, view: &SchemaView) -> Option<RecoveryPlan> {
        // Anchor the escalation to the deviating node only while it still
        // exists in the (possibly adapted) schema.
        let node = deviation.node().filter(|n| view.schema.node(*n).is_ok());
        Some(RecoveryPlan::Escalate {
            node,
            role: self.role.clone(),
        })
    }
}
