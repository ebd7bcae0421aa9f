//! The reference interpreter: ADEPT2's execution rules written the slow,
//! obvious way — `BTreeMap` lookups per node and edge over the sparse
//! [`Marking`](adept_state::Marking), no arena, no slots.
//!
//! Production code runs every rule on `adept_state::CompiledExecution`
//! (`crates/state/src/compact.rs`); nothing under `crates/` depends on
//! this module. It exists so the suites can hold the arena executor to an
//! independent second implementation: `compiled_equivalence.rs` drives
//! both in lockstep — runs, replays, refreshes and audits — and demands
//! identical enabled sets, events, errors and byte-identical serialized
//! state.
//!
//! All control logic lives in `Interpreter::propagate_with`, a fixpoint
//! sweep that:
//!
//! 1. activates nodes whose incoming control edges are `TrueSignaled`
//!    (XOR joins need one, everything else needs all) and whose incoming
//!    sync edges are signaled either way;
//! 2. skips nodes on dead paths (`FalseSignaled` inputs), signalling
//!    `FalseSignaled` onwards — the classic dead-path elimination that
//!    makes sync edges from skippable sources deadlock-free;
//! 3. auto-completes silent nodes (splits, joins, null tasks), evaluating
//!    XOR guards and loop conditions, resetting loop bodies on iteration.
//!
//! Recorded decisions in a [`ReplayScript`] take precedence over guards
//! and loop conditions, which is what makes reduced-history replay
//! faithful.
//!
//! Three more oracles sit beside it: [`analysis`], the set-valued block
//! analysis and verifier, [`compile_reference`], the per-node arena
//! compile the pooled one is held to (`arena_oracle.rs`), and [`json`], the
//! codec's general-path reader that `serde::Reader` is held to
//! (`codec_reference.rs`).

pub mod analysis;
pub mod compile;
pub mod json;

pub use compile::{compile_reference, ReferenceArena, ReferenceNode};

use adept_model::blocks::BlockError;
use adept_model::{Blocks, DataId, EdgeKind, LoopCond, NodeId, NodeKind, ProcessSchema, Value};
use adept_state::{
    DataContext, Decision, Driver, EdgeState, Event, ExecutionHistory, InstanceState, NodeState,
    ReplayScript, RunEvent, RuntimeError,
};

/// The reference interpreter for one schema.
#[derive(Debug, Clone)]
pub struct Interpreter<'s> {
    /// The schema being executed.
    pub schema: &'s ProcessSchema,
    /// Its block structure.
    pub blocks: Blocks,
}

impl<'s> Interpreter<'s> {
    /// Creates an interpreter, analysing the block structure.
    pub fn new(schema: &'s ProcessSchema) -> Result<Self, BlockError> {
        Ok(Self {
            schema,
            blocks: Blocks::analyze(schema)?,
        })
    }

    /// Creates a fresh instance state: the start node completes
    /// immediately and activation propagates into the schema.
    pub fn init(&self) -> Result<InstanceState, RuntimeError> {
        let mut st = InstanceState::default();
        let start = self.schema.start_node();
        st.marking.set_node(start, NodeState::Completed);
        self.signal_outgoing(&mut st, start, EdgeState::TrueSignaled)?;
        self.propagate(&mut st)?;
        Ok(st)
    }

    /// Currently enabled (activated) activities, in id order.
    pub fn enabled(&self, st: &InstanceState) -> Vec<NodeId> {
        st.marking
            .nodes_in(NodeState::Activated)
            .filter(|n| {
                self.schema
                    .node(*n)
                    .map(|x| x.kind == NodeKind::Activity)
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Decisions the runtime is currently waiting for.
    pub fn pending_decisions(&self, st: &InstanceState) -> Vec<Decision> {
        let mut out = Vec::new();
        for n in st.marking.nodes_in(NodeState::Activated) {
            let Ok(node) = self.schema.node(n) else {
                continue;
            };
            match node.kind {
                NodeKind::XorSplit if !self.has_guards(n) => {
                    let targets = self
                        .schema
                        .out_edges_kind(n, EdgeKind::Control)
                        .map(|e| e.to)
                        .collect();
                    out.push(Decision::Xor { split: n, targets });
                }
                NodeKind::LoopEnd if self.loop_cond(n) == Some(&LoopCond::External) => {
                    out.push(Decision::Loop {
                        loop_end: n,
                        completed: st.marking.loop_count(n),
                    });
                }
                _ => {}
            }
        }
        out
    }

    /// Whether the instance has reached its end node.
    pub fn is_finished(&self, st: &InstanceState) -> bool {
        st.marking.node(self.schema.end_node()) == NodeState::Completed
    }

    /// Starts an activated activity: checks mandatory inputs, marks it
    /// `Running` and records the event.
    pub fn start_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        let node = self.schema.node(n)?;
        if node.kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if st.marking.node(n) != NodeState::Activated {
            return Err(RuntimeError::NotActivatable(n));
        }
        for de in self.schema.reads_of(n) {
            if !de.optional && !st.data.is_written(de.data) {
                return Err(RuntimeError::MissingInput {
                    node: n,
                    data: de.data,
                });
            }
        }
        st.marking.set_node(n, NodeState::Running);
        let reads = self.read_signature(n);
        st.history.record(Event::Started { node: n, reads });
        Ok(())
    }

    /// Fails a running activity: the node drops back to `Activated` and its
    /// `Started` record is withdrawn, as if the start never happened.
    ///
    /// Starting an activity signals no edges and writes no data, so undoing
    /// it is exactly the inverse pair of [`Interpreter::start_activity`]'s two
    /// mutations — [`Interpreter::replay`] and [`Interpreter::audit`] see a
    /// history with the failed attempt erased and stay consistent.
    pub fn fail_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        let node = self.schema.node(n)?;
        if node.kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if st.marking.node(n) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        st.marking.set_node(n, NodeState::Activated);
        if let Some(i) = st
            .history
            .events
            .iter()
            .rposition(|e| matches!(e, Event::Started { node, .. } if *node == n))
        {
            st.history.events.remove(i);
        }
        Ok(())
    }

    /// Completes a running activity with the given output writes. Every
    /// declared write edge must be supplied exactly once and no undeclared
    /// writes are accepted.
    pub fn complete_activity(
        &self,
        st: &mut InstanceState,
        n: NodeId,
        writes: Vec<(DataId, Value)>,
    ) -> Result<(), RuntimeError> {
        self.complete_activity_scripted(st, n, writes, &mut ReplayScript::empty())
    }

    /// [`Interpreter::complete_activity`] with a replay script supplying
    /// recorded decisions (used by [`Interpreter::replay`]).
    fn complete_activity_scripted(
        &self,
        st: &mut InstanceState,
        n: NodeId,
        writes: Vec<(DataId, Value)>,
        script: &mut ReplayScript,
    ) -> Result<(), RuntimeError> {
        if st.marking.node(n) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        let declared: Vec<DataId> = self.schema.writes_of(n).map(|de| de.data).collect();
        for (d, _) in &writes {
            if !declared.contains(d) {
                return Err(RuntimeError::UndeclaredWrite { node: n, data: *d });
            }
        }
        for d in &declared {
            if !writes.iter().any(|(x, _)| x == d) {
                return Err(RuntimeError::MissingOutput { node: n, data: *d });
            }
        }
        // Validate every write before applying any: callers mutate instance
        // state in place, so a mid-loop type error must not leave a
        // half-written data context behind. Shares DataContext::write's
        // own check, so the two cannot drift apart.
        for (d, v) in &writes {
            DataContext::validate_write(self.schema, *d, v)?;
        }
        for (d, v) in &writes {
            st.data.write(self.schema, *d, v.clone())?;
        }
        st.marking.set_node(n, NodeState::Completed);
        st.history.record(Event::Completed { node: n, writes });
        self.signal_outgoing(st, n, EdgeState::TrueSignaled)?;
        self.propagate_with(st, script)
    }

    /// Resolves a pending XOR decision by branch target.
    pub fn decide_xor(
        &self,
        st: &mut InstanceState,
        split: NodeId,
        branch_target: NodeId,
    ) -> Result<(), RuntimeError> {
        let node = self.schema.node(split)?;
        if node.kind != NodeKind::XorSplit || st.marking.node(split) != NodeState::Activated {
            return Err(RuntimeError::NoDecisionPending(split));
        }
        let chosen = self
            .schema
            .out_edges_kind(split, EdgeKind::Control)
            .find(|e| e.to == branch_target)
            .map(|e| e.id)
            .ok_or(RuntimeError::BranchNotFound {
                split,
                target: branch_target,
            })?;
        self.fire_xor(st, split, chosen)?;
        self.propagate(st)
    }

    /// Resolves a pending loop decision.
    pub fn decide_loop(
        &self,
        st: &mut InstanceState,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let node = self.schema.node(loop_end)?;
        if node.kind != NodeKind::LoopEnd || st.marking.node(loop_end) != NodeState::Activated {
            return Err(RuntimeError::NoDecisionPending(loop_end));
        }
        self.fire_loop_end(st, loop_end, iterate)?;
        self.propagate(st)
    }

    /// Drives the instance forward with `driver`, completing at most
    /// `max_activities` activities (`None` = until the instance finishes).
    /// Returns the number of activities completed.
    pub fn run(
        &self,
        st: &mut InstanceState,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
    ) -> Result<usize, RuntimeError> {
        self.run_observed(st, driver, max_activities, &mut |_| {})
    }

    /// [`Interpreter::run`] reporting every state transition it performs —
    /// activity starts/completions and externally resolved decisions — to
    /// `observe`, in execution order. Automatic transitions (guard-driven
    /// XOR splits, counted/guarded loops, silent nodes) stay silent; they
    /// are schema semantics, not driver actions.
    pub fn run_observed(
        &self,
        st: &mut InstanceState,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
        observe: &mut dyn FnMut(RunEvent),
    ) -> Result<usize, RuntimeError> {
        let mut completed = 0usize;
        let mut stall_guard = 0usize;
        loop {
            if let Some(max) = max_activities {
                if completed >= max {
                    return Ok(completed);
                }
            }
            if self.is_finished(st) {
                return Ok(completed);
            }
            let decisions = self.pending_decisions(st);
            if !decisions.is_empty() {
                for d in decisions {
                    match d {
                        Decision::Xor { split, targets } => {
                            let idx = driver.choose_branch(self.schema, split, &targets);
                            let target = *targets.get(idx).ok_or(RuntimeError::BranchNotFound {
                                split,
                                target: split,
                            })?;
                            self.decide_xor(st, split, target)?;
                            observe(RunEvent::XorDecided { split, target });
                        }
                        Decision::Loop {
                            loop_end,
                            completed: iters,
                        } => {
                            let it = driver.decide_loop(self.schema, loop_end, iters);
                            self.decide_loop(st, loop_end, it)?;
                            observe(RunEvent::LoopDecided {
                                loop_end,
                                iterate: it,
                            });
                        }
                    }
                }
                continue;
            }
            let enabled = self.enabled(st);
            if enabled.is_empty() {
                // Neither enabled work, nor decisions, nor completion:
                // an activity may be mid-flight (Running) — complete it —
                // otherwise the instance is stuck (which the verifier rules
                // out for correct schemas).
                let running: Vec<NodeId> = st.marking.nodes_in(NodeState::Running).collect();
                if running.is_empty() {
                    return Err(RuntimeError::Stuck);
                }
                for n in running {
                    let writes = self.collect_outputs(st, n, driver);
                    self.complete_activity(st, n, writes)?;
                    observe(RunEvent::Completed(n));
                    completed += 1;
                }
                continue;
            }
            let idx = driver.choose_activity(self.schema, &enabled);
            let n = enabled[idx.min(enabled.len() - 1)];
            self.start_activity(st, n)?;
            observe(RunEvent::Started(n));
            let writes = self.collect_outputs(st, n, driver);
            self.complete_activity(st, n, writes)?;
            observe(RunEvent::Completed(n));
            completed += 1;
            stall_guard += 1;
            if stall_guard > 1_000_000 {
                return Err(RuntimeError::StepLimitExceeded);
            }
        }
    }

    fn collect_outputs(
        &self,
        _st: &InstanceState,
        n: NodeId,
        driver: &mut dyn Driver,
    ) -> Vec<(DataId, Value)> {
        self.schema
            .writes_of(n)
            .map(|de| de.data)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|d| (d, driver.output_value(self.schema, n, d)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Core semantics
    // ------------------------------------------------------------------

    /// The sorted mandatory read parameters of an activity (its read
    /// signature, recorded in `Started` events).
    pub fn read_signature(&self, n: NodeId) -> Vec<DataId> {
        let mut reads: Vec<DataId> = self
            .schema
            .reads_of(n)
            .filter(|de| !de.optional)
            .map(|de| de.data)
            .collect();
        reads.sort_unstable();
        reads
    }

    /// Re-runs the activation fixpoint over an externally adapted marking.
    /// Entries naming ids the schema does not have take no part in it and
    /// stay as they are.
    pub fn refresh(&self, st: &mut InstanceState) -> Result<(), RuntimeError> {
        self.propagate(st)
    }

    /// Matches a recorded branch target against the current schema's
    /// branches of `split`: directly by edge target, or — when a change
    /// inserted nodes at the branch head — by branch-region containment.
    fn match_branch(
        &self,
        split: NodeId,
        target: NodeId,
    ) -> Result<adept_model::EdgeId, RuntimeError> {
        let edges: Vec<&adept_model::Edge> = self
            .schema
            .out_edges_kind(split, EdgeKind::Control)
            .collect();
        if let Some(e) = edges.iter().find(|e| e.to == target) {
            return Ok(e.id);
        }
        if let Some(info) = self.blocks.by_split.get(&split) {
            for (i, e) in edges.iter().enumerate() {
                if info
                    .branches
                    .get(i)
                    .is_some_and(|region| region.contains(&target))
                {
                    return Ok(e.id);
                }
            }
        }
        Err(RuntimeError::BranchNotFound { split, target })
    }

    fn has_guards(&self, split: NodeId) -> bool {
        self.schema
            .out_edges_kind(split, EdgeKind::Control)
            .any(|e| e.guard.is_some())
    }

    fn loop_cond(&self, loop_end: NodeId) -> Option<&LoopCond> {
        self.schema
            .out_edges_kind(loop_end, EdgeKind::Loop)
            .next()
            .and_then(|e| e.loop_cond.as_ref())
    }

    /// Signals all outgoing control and sync edges of `n` with `state`.
    fn signal_outgoing(
        &self,
        st: &mut InstanceState,
        n: NodeId,
        state: EdgeState,
    ) -> Result<(), RuntimeError> {
        let ids: Vec<_> = self
            .schema
            .out_edges(n)
            .filter(|e| e.kind != EdgeKind::Loop)
            .map(|e| e.id)
            .collect();
        for e in ids {
            st.marking.set_edge(e, state);
        }
        Ok(())
    }

    /// The activation fixpoint with an empty replay script.
    fn propagate(&self, st: &mut InstanceState) -> Result<(), RuntimeError> {
        self.propagate_with(st, &mut ReplayScript::empty())
    }

    /// The activation fixpoint described in the module docs. Recorded
    /// decisions in `script` take precedence over guard/loop-condition
    /// evaluation, which is what makes reduced-history replay faithful.
    fn propagate_with(
        &self,
        st: &mut InstanceState,
        script: &mut ReplayScript,
    ) -> Result<(), RuntimeError> {
        loop {
            let mut progressed = false;

            // Phase 1: activate / skip nodes.
            let candidates: Vec<NodeId> = self
                .schema
                .node_ids()
                .filter(|n| st.marking.node(*n) == NodeState::NotActivated)
                .collect();
            for n in candidates {
                match self.evaluate_incoming(st, n) {
                    Readiness::Ready => {
                        st.marking.set_node(n, NodeState::Activated);
                        progressed = true;
                    }
                    Readiness::Dead => {
                        st.marking.set_node(n, NodeState::Skipped);
                        self.signal_outgoing(st, n, EdgeState::FalseSignaled)?;
                        progressed = true;
                    }
                    Readiness::Wait => {}
                }
            }

            // Phase 2: auto-complete silent activated nodes.
            let silent: Vec<NodeId> = st
                .marking
                .nodes_in(NodeState::Activated)
                .filter(|n| {
                    self.schema
                        .node(*n)
                        .map(|x| x.kind.is_silent())
                        .unwrap_or(false)
                })
                .collect();
            for n in silent {
                if st.marking.node(n) != NodeState::Activated {
                    continue; // a loop reset in this sweep may have cleared it
                }
                let kind = self.schema.node(n)?.kind;
                match kind {
                    NodeKind::XorSplit => {
                        if let Some(target) = script.pop_xor(n) {
                            let chosen = self.match_branch(n, target)?;
                            self.fire_xor(st, n, chosen)?;
                            progressed = true;
                        } else if self.has_guards(n) {
                            let chosen = self.evaluate_guards(st, n)?;
                            self.fire_xor(st, n, chosen)?;
                            progressed = true;
                        }
                        // else: external decision pending
                    }
                    NodeKind::LoopEnd => {
                        if let Some(iterate) = script.pop_loop(n) {
                            self.fire_loop_end(st, n, iterate)?;
                            progressed = true;
                        } else {
                            match self.loop_cond(n).cloned() {
                                Some(LoopCond::Times(total)) => {
                                    let iterate = st.marking.loop_count(n) + 1 < total;
                                    self.fire_loop_end(st, n, iterate)?;
                                    progressed = true;
                                }
                                Some(LoopCond::While(g)) => {
                                    let iterate = g.eval(st.data.value(g.data));
                                    self.fire_loop_end(st, n, iterate)?;
                                    progressed = true;
                                }
                                Some(LoopCond::External) => {} // pending
                                None => return Err(RuntimeError::LoopNotDecidable(n)),
                            }
                        }
                    }
                    NodeKind::Activity => unreachable!("activities are not silent"),
                    _ => {
                        st.marking.set_node(n, NodeState::Completed);
                        self.signal_outgoing(st, n, EdgeState::TrueSignaled)?;
                        progressed = true;
                    }
                }
            }

            if !progressed {
                return Ok(());
            }
        }
    }

    fn evaluate_guards(
        &self,
        st: &InstanceState,
        split: NodeId,
    ) -> Result<adept_model::EdgeId, RuntimeError> {
        let mut else_edge = None;
        for e in self.schema.out_edges_kind(split, EdgeKind::Control) {
            match &e.guard {
                Some(g) => {
                    if g.eval(st.data.value(g.data)) {
                        return Ok(e.id);
                    }
                }
                None => else_edge = Some(e.id),
            }
        }
        else_edge.ok_or(RuntimeError::NoBranchMatches(split))
    }

    fn fire_xor(
        &self,
        st: &mut InstanceState,
        split: NodeId,
        chosen: adept_model::EdgeId,
    ) -> Result<(), RuntimeError> {
        let target = self.schema.edge(chosen)?.to;
        st.history.record(Event::XorChosen {
            split,
            branch_target: target,
        });
        st.marking.set_node(split, NodeState::Completed);
        let ids: Vec<(adept_model::EdgeId, EdgeState)> = self
            .schema
            .out_edges(split)
            .filter(|e| e.kind != EdgeKind::Loop)
            .map(|e| {
                // Sync edges signal true regardless: the split itself completed.
                let s = if (e.id == chosen && e.kind == EdgeKind::Control)
                    || e.kind == EdgeKind::Sync
                {
                    EdgeState::TrueSignaled
                } else {
                    EdgeState::FalseSignaled
                };
                (e.id, s)
            })
            .collect();
        for (e, s) in ids {
            st.marking.set_edge(e, s);
        }
        Ok(())
    }

    fn fire_loop_end(
        &self,
        st: &mut InstanceState,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        st.history.record(Event::LoopDecided { loop_end, iterate });
        st.marking.bump_loop(loop_end);
        if iterate {
            let loop_start = self
                .schema
                .out_edges_kind(loop_end, EdgeKind::Loop)
                .next()
                .map(|e| e.to)
                .ok_or(RuntimeError::LoopNotDecidable(loop_end))?;
            st.history.record(Event::LoopReset { loop_start });
            self.reset_loop_body(st, loop_start, loop_end);
        } else {
            st.marking.set_node(loop_end, NodeState::Completed);
            self.signal_outgoing(st, loop_end, EdgeState::TrueSignaled)?;
        }
        Ok(())
    }

    /// Resets the loop body for the next iteration: body nodes (including
    /// the loop start/end) return to `NotActivated`, intra-body edges to
    /// `NotSignaled`, and nested loop counters are cleared. The control
    /// edge entering the loop start stays `TrueSignaled`, so the next
    /// propagation sweep re-activates the body.
    fn reset_loop_body(&self, st: &mut InstanceState, loop_start: NodeId, loop_end: NodeId) {
        let Some(info) = self.blocks.by_split.get(&loop_start) else {
            return;
        };
        let mut body = info.interior();
        body.insert(loop_start);
        body.insert(loop_end);
        for &n in &body {
            st.marking.set_node(n, NodeState::NotActivated);
            if n != loop_end {
                st.marking.clear_loop(n); // nested loop counters restart
            }
        }
        let edge_ids: Vec<adept_model::EdgeId> = self
            .schema
            .edges()
            .filter(|e| body.contains(&e.from) && body.contains(&e.to))
            .map(|e| e.id)
            .collect();
        for e in edge_ids {
            st.marking.set_edge(e, EdgeState::NotSignaled);
        }
    }

    fn evaluate_incoming(&self, st: &InstanceState, n: NodeId) -> Readiness {
        let Ok(node) = self.schema.node(n) else {
            return Readiness::Wait;
        };
        let mut control_total = 0usize;
        let mut control_true = 0usize;
        let mut control_false = 0usize;
        let mut sync_unsignaled = false;
        for e in self.schema.in_edges(n) {
            match e.kind {
                EdgeKind::Control => {
                    control_total += 1;
                    match st.marking.edge(e.id) {
                        EdgeState::TrueSignaled => control_true += 1,
                        EdgeState::FalseSignaled => control_false += 1,
                        EdgeState::NotSignaled => {}
                    }
                }
                EdgeKind::Sync => {
                    if !st.marking.edge(e.id).signaled() {
                        sync_unsignaled = true;
                    }
                }
                EdgeKind::Loop => {} // handled by explicit body resets
            }
        }
        if control_total == 0 {
            // Only the start node has no incoming control edges; it is
            // completed explicitly by `init` and never (re-)activated here.
            return Readiness::Wait;
        }
        let control_ready = if node.kind == NodeKind::XorJoin {
            if control_true >= 1 {
                ControlStatus::Ready
            } else if control_false == control_total {
                ControlStatus::Dead
            } else {
                ControlStatus::Wait
            }
        } else if control_false > 0 {
            ControlStatus::Dead
        } else if control_true == control_total {
            ControlStatus::Ready
        } else {
            ControlStatus::Wait
        };
        match control_ready {
            ControlStatus::Dead => Readiness::Dead,
            ControlStatus::Wait => Readiness::Wait,
            ControlStatus::Ready => {
                if sync_unsignaled {
                    Readiness::Wait
                } else {
                    Readiness::Ready
                }
            }
        }
    }
}

enum ControlStatus {
    Ready,
    Dead,
    Wait,
}

enum Readiness {
    Ready,
    Dead,
    Wait,
}

impl Interpreter<'_> {
    /// Replays a history on this interpreter's schema, returning the
    /// resulting instance state, or the error that shows why the history
    /// cannot be produced on this schema.
    pub fn replay(&self, history: &ExecutionHistory) -> Result<InstanceState, RuntimeError> {
        let mut script = ReplayScript::from_history(history);
        let mut st = InstanceState::default();
        let start = self.schema.start_node();
        st.marking.set_node(start, NodeState::Completed);
        self.signal_outgoing(&mut st, start, EdgeState::TrueSignaled)?;
        self.propagate_with(&mut st, &mut script)?;

        for ev in &history.events {
            match ev {
                Event::Started { node, reads } => {
                    if *reads != self.read_signature(*node) {
                        return Err(RuntimeError::SignatureMismatch { node: *node });
                    }
                    self.start_activity(&mut st, *node)?;
                }
                Event::Completed { node, writes } => {
                    self.complete_activity_scripted(&mut st, *node, writes.clone(), &mut script)?;
                }
                // Decisions were preloaded into the script; resets are
                // regenerated by the loop semantics during replay.
                Event::XorChosen { .. } | Event::LoopDecided { .. } | Event::LoopReset { .. } => {}
            }
        }
        // Every recorded decision must have been consumed.
        if let Some(n) = script.undrained_node() {
            return Err(RuntimeError::DecisionNotReproducible(n));
        }
        Ok(st)
    }

    /// Replays `state`'s own history and reports whether the replayed
    /// marking reaches the same node/edge states as the stored one.
    pub fn audit(&self, state: &InstanceState) -> Result<bool, RuntimeError> {
        let replayed = self.replay(&state.history)?;
        Ok(replayed.marking.same_states(&state.marking))
    }
}

/// The scripted lockstep cases: the arena executor against this
/// interpreter on hand-built schemas, step by step (the generated-schema
/// versions are `tests/compiled_equivalence.rs`).
#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{CmpOp, Guard, SchemaBuilder, ValueType};
    use adept_state::{DefaultDriver, Execution};

    /// Drives both paths through the same scripted steps and asserts the
    /// full instance states stay equal after every step.
    fn assert_lockstep(schema: &ProcessSchema) {
        let ex = Interpreter::new(schema).unwrap();
        let handle = Execution::new(schema).unwrap();
        let cx = handle.exec();
        let mut si = ex.init().unwrap();
        let mut sc = cx.init().unwrap();
        assert_eq!(si, sc, "init diverged");
        let mut guard = 0;
        while !ex.is_finished(&si) {
            assert_eq!(ex.pending_decisions(&si), cx.pending_decisions(&sc));
            for d in ex.pending_decisions(&si) {
                match d {
                    Decision::Xor { split, targets } => {
                        ex.decide_xor(&mut si, split, targets[0]).unwrap();
                        cx.decide_xor(&mut sc, split, targets[0]).unwrap();
                    }
                    Decision::Loop { loop_end, .. } => {
                        ex.decide_loop(&mut si, loop_end, false).unwrap();
                        cx.decide_loop(&mut sc, loop_end, false).unwrap();
                    }
                }
            }
            assert_eq!(ex.enabled(&si), cx.enabled(&sc));
            let Some(&n) = ex.enabled(&si).first() else {
                break;
            };
            ex.start_activity(&mut si, n).unwrap();
            cx.start_activity(&mut sc, n).unwrap();
            let writes: Vec<_> = schema
                .writes_of(n)
                .map(|de| de.data)
                .map(|d| (d, Value::Int(7)))
                .collect();
            ex.complete_activity(&mut si, n, writes.clone()).unwrap();
            cx.complete_activity(&mut sc, n, writes).unwrap();
            assert_eq!(si, sc, "state diverged after {n}");
            guard += 1;
            assert!(guard < 100, "runaway test loop");
        }
        assert_eq!(ex.is_finished(&si), cx.is_finished(&sc));
    }

    #[test]
    fn sequence_lockstep() {
        let mut b = SchemaBuilder::new("seq");
        let d = b.data("x", ValueType::Int);
        let a = b.activity("a");
        b.write(a, d);
        let r = b.activity("r");
        b.read(r, d);
        assert_lockstep(&b.build().unwrap());
    }

    #[test]
    fn parallel_and_sync_lockstep() {
        let mut b = SchemaBuilder::new("par");
        b.and_split();
        b.branch();
        let p = b.activity("p");
        b.branch();
        let c = b.activity("c");
        b.and_join();
        b.activity("z");
        b.sync(p, c);
        assert_lockstep(&b.build().unwrap());
    }

    #[test]
    fn guarded_xor_lockstep() {
        let mut b = SchemaBuilder::new("xor");
        let d = b.data("amount", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        b.xor_split();
        b.case_when(Guard::new(d, CmpOp::Ge, Value::Int(100)));
        b.activity("big");
        b.case();
        b.activity("small");
        b.xor_join();
        assert_lockstep(&b.build().unwrap());
    }

    #[test]
    fn counted_loop_runs_identically() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        b.activity("body");
        b.loop_end(LoopCond::Times(3));
        let s = b.build().unwrap();
        let ex = Interpreter::new(&s).unwrap();
        let handle = Execution::new(&s).unwrap();
        let cx = handle.exec();
        let mut si = ex.init().unwrap();
        let mut sc = cx.init().unwrap();
        let ni = ex.run(&mut si, &mut DefaultDriver, None).unwrap();
        let nc = cx.run(&mut sc, &mut DefaultDriver, None).unwrap();
        assert_eq!(ni, nc);
        assert_eq!(si, sc);
        assert!(cx.is_finished(&sc));
    }

    #[test]
    fn errors_match_interpreter() {
        let mut b = SchemaBuilder::new("err");
        let d = b.data("x", ValueType::Int);
        let a = b.activity("a");
        let c = b.activity("c");
        let _ = d;
        let s = b.build().unwrap();
        let ex = Interpreter::new(&s).unwrap();
        let handle = Execution::new(&s).unwrap();
        let cx = handle.exec();
        let mut si = ex.init().unwrap();
        let mut sc = cx.init().unwrap();
        // Not activated yet.
        assert_eq!(
            ex.start_activity(&mut si, c).unwrap_err(),
            cx.start_activity(&mut sc, c).unwrap_err()
        );
        // Complete before start.
        assert_eq!(
            ex.complete_activity(&mut si, a, vec![]).unwrap_err(),
            cx.complete_activity(&mut sc, a, vec![]).unwrap_err()
        );
        ex.start_activity(&mut si, a).unwrap();
        cx.start_activity(&mut sc, a).unwrap();
        // Undeclared write.
        assert_eq!(
            ex.complete_activity(&mut si, a, vec![(d, Value::Int(1))])
                .unwrap_err(),
            cx.complete_activity(&mut sc, a, vec![(d, Value::Int(1))])
                .unwrap_err()
        );
        // Fail drops back and erases the Started record.
        ex.fail_activity(&mut si, a).unwrap();
        cx.fail_activity(&mut sc, a).unwrap();
        assert_eq!(si, sc);
    }
}
