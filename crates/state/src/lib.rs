//! # adept-state — runtime semantics of ADEPT2 process instances
//!
//! This crate implements everything about a *running* instance of a schema
//! from `adept-model`:
//!
//! * [`Marking`] — node states (`NotActivated`, `Activated`, `Running`,
//!   `Completed`, `Skipped`) and edge states (`NotSignaled`,
//!   `TrueSignaled`, `FalseSignaled`), stored minimally (defaults omitted)
//!   to support ADEPT2's redundant-free instance representation;
//! * [`Execution`] — the interpreter: activation rules, automatic firing
//!   of silent nodes, XOR guard evaluation, external decisions, dead-path
//!   elimination and loop-back body resets;
//! * [`ExecutionHistory`] — the recorded trace, and its *reduction* (only
//!   the last iteration of every loop survives) that the compliance
//!   criterion of the paper is defined over;
//! * [`Execution::replay`] — reproducing a history on a (possibly changed)
//!   schema, the semantic oracle for compliance checking;
//! * [`DataContext`] — instance data values with full write logs.
//!
//! ## The engine's executor and its reference
//!
//! [`Execution`] is the reference semantics; [`CompiledExecution`] is
//! the same semantics run over a flat `adept_model::CompiledSchema`
//! arena — slot-indexed node/edge arrays and precomputed adjacency
//! instead of per-query `BTreeMap` walks — carrying state in a
//! [`CompactMarking`] (dense vectors indexed by arena slot) for the
//! duration of a multi-step run. The contract is observational
//! equivalence: identical enabled sets, events and errors, and
//! byte-identical serialized [`InstanceState`] (the compact form
//! converts in and writes back, so snapshots and audit never see it).
//! The engine runs every instance — biased ones on an arena compiled
//! from their materialized schema — on [`CompiledExecution`];
//! [`Execution`] remains what the equivalence suite compares against,
//! what the recovery audit replays with and what `adept-core` adapts
//! states with. See `docs/EXECUTION_CORE.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod compact;
pub mod datactx;
pub mod error;
pub mod execution;
pub mod history;
pub mod marking;
pub mod replay;

pub use compact::{CompactMarking, CompiledExecution};
pub use datactx::{DataContext, WriteRecord};
pub use error::RuntimeError;
pub use execution::{
    enabled_diff, Decision, DefaultDriver, Driver, Execution, InstanceState, RunEvent,
};
pub use history::{Event, ExecutionHistory};
pub use marking::{EdgeState, Marking, NodeState};
pub use replay::ReplayScript;
