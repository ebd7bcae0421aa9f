//! `adept-adapt` — automatic run-time adaptation for ADEPT2 process
//! instances: **detect → synthesize → preview → commit** over the
//! engine's monitor event stream.
//!
//! ADEPT2's change framework makes ad-hoc instance modifications safe;
//! this crate makes them *automatic*. An [`AdaptationLoop`] watches the
//! engine's monitor stream and repairs deviating instances with the same
//! staged change transactions a human process engineer would use — every
//! recovery passes the engine's preview gate (structural verification +
//! state compliance) before it commits, so the loop can never push an
//! instance into a state the change framework would have refused a user.
//!
//! # Lifecycle
//!
//! Each [`AdaptationLoop::tick`] advances a logical clock and runs four
//! stages:
//!
//! 1. **Detect.** The loop drains its [`EventCursor`] and classifies
//!    [`Deviation`]s: activity failures ([`EngineEvent::ActivityFailed`]),
//!    deadline breaches (an activity running longer than its
//!    `expected_duration_min`, in ticks), stuck external loop decisions
//!    (a silent instance waiting on a [`Decision::Loop`]), and worklist
//!    starvation (repeated `WorklistResolutionFailed`). When the cursor
//!    falls behind the monitor's retention window it **resyncs
//!    explicitly** — the gap is counted in
//!    [`AdaptationReport::events_skipped`] and the running-activity
//!    table is rebuilt from the store, never silently skipped.
//! 2. **Synthesize.** For each deviation (one per instance per tick —
//!    the single-flight guard), the registered [`AdaptationPolicy`]
//!    chain is consulted in order; the first policy that returns a
//!    [`RecoveryPlan`] for the deviation's fresh [`SchemaView`] wins.
//! 3. **Preview.** Structural plans are staged as a change transaction
//!    and [`preview`](adept_engine::ChangeSession::preview)ed; a failing
//!    verdict aborts the session and falls through to the next policy.
//! 4. **Commit.** Passing plans commit; the trail lands on the monitor
//!    stream as [`EngineEvent::DeviationDetected`] →
//!    [`EngineEvent::AdaptationCommitted`] /
//!    [`EngineEvent::AdaptationRejected`], so downstream consumers (and
//!    the tests) can audit every decision the loop made.
//!
//! Recoveries that lose a concurrent-change race are *contested*: they
//! are requeued and retried with a fresh view, up to 16 times; a worker
//! that panics has its deviations requeued the same way. A tick's batch
//! is bounded by [`AdaptationConfig::max_in_flight`] and can be executed
//! on [`AdaptationConfig::threads`] worker threads — the batch holds at
//! most one deviation per instance, so workers never race on an
//! instance.
//!
//! # Built-in policies
//!
//! - [`RetryThenSkip`] — retry failed activities with exponential
//!   backoff, then skip them if the schema marks them skippable; cancels
//!   deadline breaches and exits stuck loops.
//! - [`CompensateOnFailure`] — insert a compensation activity after a
//!   failure and skip the failed step (forward recovery).
//! - [`EscalateToWorklist`] — the give-up policy: rewrite the deviating
//!   activity's role so it lands on a human's worklist, and stop
//!   adapting the instance. Register it last.
//!
//! # Writing a policy
//!
//! Implement [`AdaptationPolicy`]:
//!
//! - `plan` receives the [`Deviation`] and a [`SchemaView`] — the
//!   instance's materialised schema, block structure and a state
//!   snapshot. Compose ops with the `adept_core` helpers
//!   (`skip_activity`, `compensation_for`, `annotate_activity`) via the
//!   [`RecoveryPlan`] vocabulary; return `None` to pass to the next
//!   policy. Don't pre-validate compliance — that's the preview gate's
//!   job; a rejected plan simply falls through.
//! - `observe` (optional) sees every engine event and may classify
//!   policy-specific deviations the built-in detector doesn't know.
//! - Policies must be `Send + Sync`; `plan` may run on a worker thread.
//!
//! ```
//! use adept_adapt::{AdaptationConfig, AdaptationLoop, EscalateToWorklist, RetryThenSkip};
//! use adept_engine::ProcessEngine;
//! use adept_simgen::exception_scenario;
//!
//! let engine = ProcessEngine::new();
//! engine.deploy(exception_scenario()).unwrap();
//! let mut looper = AdaptationLoop::new(&engine, AdaptationConfig::default())
//!     .with_policy(RetryThenSkip::default())
//!     .with_policy(EscalateToWorklist::new("supervisor"));
//! // ... drive instances, then:
//! let report = looper.run_until_quiescent(64);
//! assert_eq!(report.committed, 0); // nothing deviated yet
//! ```
//!
//! [`EventCursor`]: adept_engine::EventCursor
//! [`EngineEvent::ActivityFailed`]: adept_engine::EngineEvent::ActivityFailed
//! [`EngineEvent::DeviationDetected`]: adept_engine::EngineEvent::DeviationDetected
//! [`EngineEvent::AdaptationCommitted`]: adept_engine::EngineEvent::AdaptationCommitted
//! [`EngineEvent::AdaptationRejected`]: adept_engine::EngineEvent::AdaptationRejected
//! [`Decision::Loop`]: adept_state::Decision::Loop

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod deviation;
mod plan;
mod policy;
mod runner;
mod view;

pub use deviation::Deviation;
pub use plan::RecoveryPlan;
pub use policy::{AdaptationPolicy, CompensateOnFailure, EscalateToWorklist, RetryThenSkip};
pub use runner::{AdaptationConfig, AdaptationLoop, AdaptationReport};
pub use view::SchemaView;
