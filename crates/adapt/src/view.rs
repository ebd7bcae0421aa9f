//! A read-only snapshot of one instance for recovery planning.

use adept_engine::{EngineError, ProcessEngine};
use adept_model::{ActivityAttributes, Blocks, InstanceId, NodeId, ProcessSchema};
use adept_state::{InstanceState, NodeState};
use std::sync::Arc;

/// What a policy sees when planning recovery: the instance's materialised
/// schema (bias already overlaid), block structure, and a state snapshot —
/// everything [`AdaptationPolicy::plan`](crate::AdaptationPolicy::plan)
/// needs without touching the engine again. The schema/blocks `Arc`s are
/// the instance's own execution context, so capturing a view clones no
/// graph; schema and state are read under one store guard, so the pair is
/// one the instance was actually in.
#[derive(Debug, Clone)]
pub struct SchemaView {
    /// The instance.
    pub instance: InstanceId,
    /// Schema version the instance runs on.
    pub version: u32,
    /// The materialised (possibly biased) schema.
    pub schema: Arc<ProcessSchema>,
    /// Its block structure.
    pub blocks: Arc<Blocks>,
    /// Snapshot of the runtime state at capture time.
    pub state: InstanceState,
}

impl SchemaView {
    /// Captures the current view of an instance.
    pub fn capture(engine: &ProcessEngine, id: InstanceId) -> Result<Self, EngineError> {
        Ok(engine
            .store
            .with_context(&engine.repo, id, |inst, ctx| Self {
                instance: id,
                version: inst.version,
                schema: ctx.schema.clone(),
                blocks: ctx.blocks.clone(),
                state: inst.state.clone(),
            })?)
    }

    /// The captured node state.
    pub fn node_state(&self, n: NodeId) -> NodeState {
        self.state.marking.node(n)
    }

    /// The activity's operational attributes, if the node exists.
    pub fn attributes(&self, n: NodeId) -> Option<&ActivityAttributes> {
        self.schema.node(n).ok().map(|x| &x.attrs)
    }

    /// The node's unique control successor (see
    /// [`adept_core::control_successor`]).
    pub fn successor(&self, n: NodeId) -> Option<NodeId> {
        adept_core::control_successor(&self.schema, n)
    }

    /// Whether the activity may be skipped: its attributes allow it *and*
    /// the flow has an unambiguous continuation to hand off to.
    pub fn is_skippable(&self, n: NodeId) -> bool {
        self.attributes(n).is_some_and(|a| a.skippable) && self.successor(n).is_some()
    }

    /// The `(loop_start, loop_end)` of the innermost loop enclosing `n`.
    pub fn enclosing_loop(&self, n: NodeId) -> Option<(NodeId, NodeId)> {
        adept_core::enclosing_loop(&self.blocks, n)
    }
}
