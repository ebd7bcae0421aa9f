//! # adept-state — runtime semantics of ADEPT2 process instances
//!
//! This crate implements everything about a *running* instance of a schema
//! from `adept-model`:
//!
//! * [`Marking`] — node states (`NotActivated`, `Activated`, `Running`,
//!   `Completed`, `Skipped`) and edge states (`NotSignaled`,
//!   `TrueSignaled`, `FalseSignaled`), stored minimally (defaults omitted)
//!   to support ADEPT2's redundant-free instance representation;
//! * [`CompiledExecution`] — the executor: activation rules, automatic
//!   firing of silent nodes, XOR guard evaluation, external decisions,
//!   dead-path elimination and loop-back body resets;
//! * [`ExecutionHistory`] — the recorded trace, and its *reduction* (only
//!   the last iteration of every loop survives) that the compliance
//!   criterion of the paper is defined over;
//! * [`CompiledExecution::replay`] — reproducing a history on a (possibly
//!   changed) schema, the semantic oracle for compliance checking;
//! * [`DataContext`] — instance data values with full write logs;
//! * [`StateDiff`] / [`StateDelta`] — what one command changed in a state,
//!   the record a durable engine journals instead of the whole state.
//!
//! ## One rule set
//!
//! [`CompiledExecution`] runs the semantics over a flat
//! `adept_model::CompiledSchema` arena — slot-indexed node/edge arrays
//! and precomputed adjacency — carrying state in a [`CompactMarking`]
//! (dense vectors indexed by arena slot) for the duration of a command, a
//! multi-step run or a whole replay; the sparse [`Marking`] converts in
//! and is written back, so the serialized [`InstanceState`] never shows
//! the compact form. Everything runs on it: the engine's commands (biased
//! instances on an arena compiled from their materialized schema),
//! `adept-core`'s compliance replay and state adaptation, and the recovery
//! audit. [`Execution`] is the one analysed schema: it owns a schema, its
//! block structure, its arena and the [`Names`] table of its work items,
//! forwards to the executor, and is the execution context every layer above
//! hands on as it is — from the verdict that judged a change to the
//! instance that runs on it. [`Execution::new`] is the one place the parts
//! are built. See `docs/EXECUTION_CORE.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compact;
pub mod datactx;
pub mod delta;
pub mod error;
pub mod execution;
pub mod history;
pub mod marking;
pub mod replay;

pub use compact::{CompactMarking, CompiledExecution};
pub use datactx::{DataContext, WriteRecord};
pub use delta::{StateDelta, StateDiff};
pub use error::RuntimeError;
pub use execution::{
    enabled_diff, Decision, DefaultDriver, Driver, Execution, InstanceState, Label, Names, RunEvent,
};
pub use history::{Event, ExecutionHistory};
pub use marking::{EdgeState, Marking, NodeState};
pub use replay::ReplayScript;
