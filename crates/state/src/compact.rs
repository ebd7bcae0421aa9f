//! The execution semantics of ADEPT2, over compiled schema arenas.
//!
//! [`CompiledExecution`] is the one implementation of the rules under
//! `crates/`: the activation fixpoint, dead-path elimination, silent
//! auto-completion, XOR guards, loop resets — and, on the same fixpoint,
//! history replay ([`CompiledExecution::replay`]), the settling of an
//! externally adapted marking ([`CompiledExecution::refresh`]), the
//! recovery audit ([`CompiledExecution::audit`]) and the replay of a
//! journaled command's steps ([`CompiledExecution::apply_steps`]).
//! Commands, compliance verdicts, adapted markings, audits and recovered
//! states therefore all come from the rules that execute the instance
//! afterwards.
//!
//! The fixpoint (`CompiledExecution::propagate`) repeats rounds that:
//!
//! 1. activate nodes whose incoming control edges are `TrueSignaled`
//!    (XOR joins need one, everything else needs all) and whose incoming
//!    sync edges are signaled either way;
//! 2. skip nodes on dead paths (`FalseSignaled` inputs), signalling
//!    `FalseSignaled` onwards — the classic dead-path elimination that
//!    makes sync edges from skippable sources deadlock-free;
//! 3. auto-complete silent nodes (splits, joins, null tasks), evaluating
//!    XOR guards and loop conditions, resetting loop bodies on iteration.
//!
//! A round costs what the last step changed, not what the schema holds.
//! Whether a `NotActivated` node is ready depends only on the edges into
//! it, so the marking keeps a **dirty frontier**: every edge write adds
//! its target, every loop reset the nodes it clears, and a node leaves the
//! frontier when a round evaluates it. A node outside the frontier would
//! evaluate to "wait" again. Steps 1–2 visit the frontier in ascending
//! slot order, the order a sweep of every slot takes: a node a skip
//! dirties above the cursor is taken in the same round, one below it in
//! the next — where the sweep would reach each of them. Step 3, the
//! enabled activities and the pending decisions read the **live set**
//! (the `Activated` and `Running` nodes), likewise in slot order; step 3
//! activates nothing, so that set only shrinks under its cursor. Both sets
//! start full where a marking enters the executor — a fresh or started
//! marking, [`CompactMarking::from_marking`], and the split `refresh`
//! settles — so each conversion adds one buffer and no step allocates.
//!
//! It runs over a [`CompiledSchema`] arena and a [`CompactMarking`]
//! (small-int state vectors indexed by arena slot). The conversion happens
//! at the boundary — public methods accept and mutate the ordinary
//! [`InstanceState`], converting the marking to compact form once per
//! command (once per *run* for [`CompiledExecution::run`], once per
//! *history* for a replay, once per *record* for applied steps) and
//! re-assembling a minimal marking on the way out, so snapshots and
//! journal records never see the compact form.
//!
//! An arena describes exactly the schema it was compiled from: a biased
//! (ad-hoc-changed) instance runs on an arena compiled from its
//! materialised schema, never on its version's shared one (see
//! `adept-engine`'s crate docs).
//!
//! The tests crate (`tests/src/reference.rs`) keeps an independent second
//! implementation of these rules — the `BTreeMap` interpreter — for the
//! equivalence suites only; nothing under `crates/` depends on it.

use crate::datactx::DataContext;
use crate::error::RuntimeError;
use crate::execution::{Decision, Driver, InstanceState, RunEvent};
use crate::history::{Event, ExecutionHistory};
use crate::marking::{EdgeState, Marking, NodeState};
use crate::replay::ReplayScript;
use crate::step::Step;
use adept_model::{
    Blocks, CompiledSchema, DataId, EdgeId, EdgeKind, LoopCond, ModelError, NodeId, NodeKind,
    ProcessSchema, Value,
};

/// The marking of one instance as dense per-slot vectors, indexed by
/// arena position. Conversion to and from the sparse [`Marking`] is
/// lossless: defaults are dropped on the way out, so a round trip yields
/// an identical (and identically serialised) marking.
///
/// Beside the states it keeps two sets of node slots, as bitsets in one
/// buffer: the **dirty frontier** — the slots whose activation must be
/// evaluated again, because an edge into them was written or a loop reset
/// cleared them since they last evaluated — and the **live set**, the
/// slots that are `Activated` or `Running`. The private setters keep both;
/// equality compares only node states, edge states and loop counters.
#[derive(Debug, Clone)]
pub struct CompactMarking {
    nodes: Vec<NodeState>,
    edges: Vec<EdgeState>,
    loops: Vec<u32>,
    /// The dirty frontier in the first half, the live set in the second.
    sets: Vec<u64>,
}

/// One of a [`CompactMarking`]'s two slot sets.
#[derive(Clone, Copy)]
enum Set {
    Dirty,
    Live,
}

impl PartialEq for CompactMarking {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.edges == other.edges && self.loops == other.loops
    }
}

impl Eq for CompactMarking {}

impl CompactMarking {
    /// A fresh marking for an arena: every node `NotActivated`, every
    /// edge `NotSignaled`, every loop counter zero; every slot dirty.
    pub fn fresh(arena: &CompiledSchema) -> Self {
        let n = arena.node_count();
        let words = n.div_ceil(64);
        let mut sets = vec![0; 2 * words];
        sets[..words].fill(!0);
        if !n.is_multiple_of(64) {
            sets[words - 1] = (1 << (n % 64)) - 1;
        }
        Self {
            nodes: vec![NodeState::default(); n],
            edges: vec![EdgeState::default(); arena.edge_count()],
            loops: vec![0; n],
            sets,
        }
    }

    /// Slots every entry of a sparse marking that names a node or edge the
    /// arena interns; the entries that do not come back as they were, in a
    /// sparse marking of their own.
    fn split(arena: &CompiledSchema, m: &Marking) -> (Self, Marking) {
        let mut cm = Self::fresh(arena);
        let mut foreign = Marking::new();
        for (n, s) in m.marked_nodes() {
            match arena.node_slot(n) {
                Some(slot) => cm.set_node(slot, s),
                None => foreign.set_node(n, s),
            }
        }
        for (e, s) in m.signaled_edges() {
            match arena.edge_slot(e) {
                Some(slot) => cm.edges[slot as usize] = s,
                None => foreign.set_edge(e, s),
            }
        }
        for (n, c) in m.loop_counters() {
            match arena.node_slot(n) {
                Some(slot) => cm.loops[slot as usize] = c,
                None => foreign.set_loop_count(n, c),
            }
        }
        (cm, foreign)
    }

    /// Converts a sparse marking. Fails with the offending id when the
    /// marking references a node or edge the arena does not intern — the
    /// signal that this state belongs to a different (e.g. overlaid)
    /// schema than the arena was compiled from.
    pub fn from_marking(arena: &CompiledSchema, m: &Marking) -> Result<Self, RuntimeError> {
        let (cm, foreign) = Self::split(arena, m);
        let unknown = if let Some((n, _)) = foreign.marked_nodes().next() {
            ModelError::UnknownNode(n)
        } else if let Some((e, _)) = foreign.signaled_edges().next() {
            ModelError::UnknownEdge(e)
        } else if let Some((n, _)) = foreign.loop_counters().next() {
            ModelError::UnknownNode(n)
        } else {
            return Ok(cm);
        };
        Err(RuntimeError::Model(unknown))
    }

    /// Re-assembles the minimal sparse marking (defaults omitted), so the
    /// serialised form is the same whichever way a marking was produced.
    pub fn to_marking(&self, arena: &CompiledSchema) -> Marking {
        let mut m = Marking::new();
        self.write_into(arena, &mut m);
        m
    }

    /// Sets every non-default slot in `m`, which must hold no entry of an
    /// id the arena interns. Slots are in id order, so into a marking that
    /// holds nothing else every entry is a push into a buffer reserved to
    /// its exact size.
    fn write_into(&self, arena: &CompiledSchema, m: &mut Marking) {
        m.reserve(
            self.nodes
                .iter()
                .filter(|&&s| s != NodeState::NotActivated)
                .count(),
            self.edges
                .iter()
                .filter(|&&s| s != EdgeState::NotSignaled)
                .count(),
            self.loops.iter().filter(|&&c| c > 0).count(),
        );
        for (slot, &s) in self.nodes.iter().enumerate() {
            if s != NodeState::NotActivated {
                m.set_node(arena.node_id(slot as u32), s);
            }
        }
        for (slot, &s) in self.edges.iter().enumerate() {
            if s != EdgeState::NotSignaled {
                m.set_edge(arena.edge_id(slot as u32), s);
            }
        }
        for (slot, &c) in self.loops.iter().enumerate() {
            if c > 0 {
                m.set_loop_count(arena.node_id(slot as u32), c);
            }
        }
    }

    /// Whether `m` holds exactly this marking's node and edge states (loop
    /// counters aside): [`Marking::same_states`] against this marking's
    /// sparse form, without building it. `m` matches only if every entry
    /// names a slot of the arena with the same, non-default state, and
    /// there are as many entries as non-default slots.
    fn same_states(&self, arena: &CompiledSchema, m: &Marking) -> bool {
        let nodes = self.nodes.iter().filter(|&&s| s != NodeState::NotActivated);
        let edges = self.edges.iter().filter(|&&s| s != EdgeState::NotSignaled);
        let node_matches = |(n, s): (NodeId, NodeState)| {
            s != NodeState::NotActivated && arena.node_slot(n).is_some_and(|at| self.node(at) == s)
        };
        let edge_matches = |(e, s): (EdgeId, EdgeState)| {
            s != EdgeState::NotSignaled && arena.edge_slot(e).is_some_and(|at| self.edge(at) == s)
        };
        m.marked_nodes().all(node_matches)
            && m.signaled_edges().all(edge_matches)
            && m.marked_nodes().count() == nodes.count()
            && m.signaled_edges().count() == edges.count()
    }

    /// State of a node slot.
    #[inline]
    pub fn node(&self, slot: u32) -> NodeState {
        self.nodes[slot as usize]
    }

    /// Sets a node slot and keeps the sets: a slot that returns to
    /// `NotActivated` joins the dirty frontier, and the live set holds a
    /// slot exactly while it is `Activated` or `Running`.
    #[inline]
    fn set_node(&mut self, slot: u32, s: NodeState) {
        self.nodes[slot as usize] = s;
        match s {
            NodeState::NotActivated => {
                self.insert(Set::Dirty, slot);
                self.remove(Set::Live, slot);
            }
            NodeState::Activated | NodeState::Running => self.insert(Set::Live, slot),
            NodeState::Completed | NodeState::Skipped => self.remove(Set::Live, slot),
        }
    }

    /// State of an edge slot.
    #[inline]
    pub fn edge(&self, slot: u32) -> EdgeState {
        self.edges[slot as usize]
    }

    /// Sets an edge slot; the edge's target joins the dirty frontier.
    #[inline]
    fn set_edge(&mut self, arena: &CompiledSchema, slot: u32, s: EdgeState) {
        self.edges[slot as usize] = s;
        self.insert(Set::Dirty, arena.edges[slot as usize].to);
    }

    /// Completed iterations of the loop closed by `slot`.
    #[inline]
    pub fn loop_count(&self, slot: u32) -> u32 {
        self.loops[slot as usize]
    }

    /// Where `set`'s words start in the buffer.
    #[inline]
    fn base(&self, set: Set) -> usize {
        match set {
            Set::Dirty => 0,
            Set::Live => self.sets.len() / 2,
        }
    }

    #[inline]
    fn insert(&mut self, set: Set, slot: u32) {
        let w = self.base(set) + slot as usize / 64;
        self.sets[w] |= 1 << (slot % 64);
    }

    #[inline]
    fn remove(&mut self, set: Set, slot: u32) {
        let w = self.base(set) + slot as usize / 64;
        self.sets[w] &= !(1 << (slot % 64));
    }

    /// The lowest member of `set` at or above slot `from`.
    #[inline]
    fn next(&self, set: Set, from: u32) -> Option<u32> {
        let words = &self.sets[self.base(set)..][..self.sets.len() / 2];
        let mut w = from as usize / 64;
        let mut bits = words.get(w)? & (!0 << (from % 64));
        loop {
            if bits != 0 {
                return Some((w * 64) as u32 + bits.trailing_zeros());
            }
            w += 1;
            bits = *words.get(w)?;
        }
    }

    /// The members of `set`, ascending.
    fn members(&self, set: Set) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(self.next(set, 0), move |&s| self.next(set, s + 1))
    }
}

/// The executor: ADEPT2's execution rules over an arena.
///
/// Carries the arena for slot-indexed control flow plus the schema it was
/// compiled from — data writes are validated against the schema's declared
/// element types, and [`Driver`] callbacks receive the schema.
#[derive(Debug, Clone, Copy)]
pub struct CompiledExecution<'a> {
    /// The schema the arena was compiled from.
    pub schema: &'a ProcessSchema,
    /// The compiled arena.
    pub arena: &'a CompiledSchema,
}

enum Readiness {
    Ready,
    Dead,
    Wait,
}

/// The recorded decisions a replay follows, with the block structure of
/// the schema being replayed on: a recorded branch target that a change
/// moved away from its split is matched by the branch region containing it.
struct Trace<'b> {
    script: ReplayScript,
    blocks: &'b Blocks,
}

/// Withdraws the last `Started` event of `n` from `hist`: a failed start
/// is erased as if it never happened.
fn withdraw_start(hist: &mut ExecutionHistory, n: NodeId) {
    let started = |e: &Event| matches!(e, Event::Started { node, .. } if *node == n);
    if let Some(i) = hist.events.iter().rposition(started) {
        hist.events.remove(i);
    }
}

impl<'a> CompiledExecution<'a> {
    /// Creates an executor over a schema/arena pair. The arena must have
    /// been compiled from exactly this schema.
    pub fn new(schema: &'a ProcessSchema, arena: &'a CompiledSchema) -> Self {
        Self { schema, arena }
    }

    /// Creates a fresh instance state: the start node completes
    /// immediately and activation propagates into the schema.
    pub fn init(&self) -> Result<InstanceState, RuntimeError> {
        let mut st = InstanceState::default();
        let mut cm = self.started();
        let res = self.propagate(&mut cm, &mut st.history, &st.data, None);
        st.marking = cm.to_marking(self.arena);
        res?;
        Ok(st)
    }

    /// A fresh marking with the start node completed and its outgoing
    /// edges signaled — where both a new instance and a replay begin.
    fn started(&self) -> CompactMarking {
        let mut cm = CompactMarking::fresh(self.arena);
        cm.set_node(self.arena.start, NodeState::Completed);
        self.signal_outgoing(&mut cm, self.arena.start, EdgeState::TrueSignaled);
        cm
    }

    /// Currently enabled (activated) activities, in id order.
    pub fn enabled(&self, st: &InstanceState) -> Vec<NodeId> {
        st.marking
            .nodes_in(NodeState::Activated)
            .filter(|&n| {
                self.arena
                    .node_slot(n)
                    .is_some_and(|s| self.arena.nodes[s as usize].kind == NodeKind::Activity)
            })
            .collect()
    }

    /// Decisions the runtime is currently waiting for.
    pub fn pending_decisions(&self, st: &InstanceState) -> Vec<Decision> {
        let mut out = Vec::new();
        for n in st.marking.nodes_in(NodeState::Activated) {
            let Some(slot) = self.arena.node_slot(n) else {
                continue;
            };
            let node = &self.arena.nodes[slot as usize];
            match node.kind {
                NodeKind::XorSplit if !node.has_guards => {
                    let targets = self
                        .arena
                        .out_control(slot)
                        .iter()
                        .map(|&e| self.arena.node_id(self.arena.edges[e as usize].to))
                        .collect();
                    out.push(Decision::Xor { split: n, targets });
                }
                NodeKind::LoopEnd if node.loop_cond == Some(LoopCond::External) => {
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
        st.marking.node(self.arena.node_id(self.arena.end)) == NodeState::Completed
    }

    /// The sorted mandatory read signature of an activity (precomputed).
    pub fn read_signature(&self, n: NodeId) -> Vec<DataId> {
        self.arena
            .node_slot(n)
            .map(|s| self.arena.read_signature(s).to_vec())
            .unwrap_or_default()
    }

    /// Starts an activated activity: checks mandatory inputs, marks it
    /// `Running` and records the event.
    pub fn start_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if st.marking.node(n) != NodeState::Activated {
            return Err(RuntimeError::NotActivatable(n));
        }
        for &d in self.arena.mandatory_reads(slot) {
            if !st.data.is_written(d) {
                return Err(RuntimeError::MissingInput { node: n, data: d });
            }
        }
        st.marking.set_node(n, NodeState::Running);
        st.history.record(Event::Started {
            node: n,
            reads: self.arena.read_signature(slot).to_vec(),
        });
        Ok(())
    }

    /// Fails a running activity: the node drops back to `Activated` and its
    /// `Started` record is withdrawn, as if the start never happened.
    ///
    /// Starting an activity signals no edges and writes no data, so undoing
    /// it is exactly the inverse pair of [`CompiledExecution::start_activity`]'s
    /// two mutations — [`CompiledExecution::replay`] and
    /// [`CompiledExecution::audit`] see a history with the failed attempt
    /// erased and stay consistent.
    pub fn fail_activity(&self, st: &mut InstanceState, n: NodeId) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if st.marking.node(n) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        st.marking.set_node(n, NodeState::Activated);
        withdraw_start(&mut st.history, n);
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
        if st.marking.node(n) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let res = self.complete_on(&mut cm, &mut st.history, &mut st.data, n, writes, None);
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Resolves a pending XOR decision by branch target.
    pub fn decide_xor(
        &self,
        st: &mut InstanceState,
        split: NodeId,
        branch_target: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(split)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(split)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::XorSplit || st.marking.node(split) != NodeState::Activated {
            return Err(RuntimeError::NoDecisionPending(split));
        }
        let chosen = self
            .branch_to(slot, branch_target)
            .ok_or(RuntimeError::BranchNotFound {
                split,
                target: branch_target,
            })?;
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        self.fire_xor(&mut cm, &mut st.history, slot, chosen);
        let res = self.propagate(&mut cm, &mut st.history, &st.data, None);
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Resolves a pending loop decision.
    pub fn decide_loop(
        &self,
        st: &mut InstanceState,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(loop_end)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(loop_end)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::LoopEnd
            || st.marking.node(loop_end) != NodeState::Activated
        {
            return Err(RuntimeError::NoDecisionPending(loop_end));
        }
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let res = self
            .fire_loop_end(&mut cm, &mut st.history, slot, iterate)
            .and_then(|()| self.propagate(&mut cm, &mut st.history, &st.data, None));
        st.marking = cm.to_marking(self.arena);
        res
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

    /// [`CompiledExecution::run`] reporting every state transition it
    /// performs — activity starts/completions and externally resolved
    /// decisions — to `observe`, in execution order. Automatic transitions
    /// (guard-driven XOR splits, counted/guarded loops, silent nodes) stay
    /// silent; they are schema semantics, not driver actions. The marking
    /// converts to compact form **once** for the whole run — the payoff
    /// case of the arena representation.
    pub fn run_observed(
        &self,
        st: &mut InstanceState,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
        observe: &mut dyn FnMut(RunEvent),
    ) -> Result<usize, RuntimeError> {
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let res = self.run_inner(
            &mut cm,
            &mut st.history,
            &mut st.data,
            driver,
            max_activities,
            observe,
        );
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Applies the steps a command took on this schema ([`Step`]) to
    /// `st`, the instance's state as the command found it, through the
    /// executor's own checks, on one compact marking converted once: what
    /// the executor decided on its own while the command ran it decides
    /// again here. The first step it refuses ends the application with its
    /// error, the state part-way.
    pub fn apply_steps(
        &self,
        st: &mut InstanceState,
        steps: Vec<Step>,
    ) -> Result<(), RuntimeError> {
        let mut cm = CompactMarking::from_marking(self.arena, &st.marking)?;
        let (hist, data) = (&mut st.history, &mut st.data);
        let res = steps.into_iter().try_for_each(|step| match step {
            Step::Start(n) => self.start_on(&mut cm, hist, data, n),
            Step::Complete(n, writes) => self.complete_on(&mut cm, hist, data, n, writes, None),
            Step::Fail(n) => self.fail_on(&mut cm, hist, n),
            Step::Xor(split, target) => self.decide_xor_on(&mut cm, hist, data, split, target),
            Step::Loop(end, iterate) => self.decide_loop_on(&mut cm, hist, data, end, iterate),
        });
        st.marking = cm.to_marking(self.arena);
        res
    }

    /// Re-runs the activation fixpoint over a marking that was adapted
    /// from outside (state adaptation transfers edge and node states onto
    /// the structures a change created, then lets the regular semantics
    /// settle activations, auto-completions and dead paths).
    ///
    /// Entries naming a node or edge this arena does not intern take no
    /// part in the fixpoint and are left exactly as they are. State
    /// adaptation never produces one (`tests/tests/prop_adaptation.rs`),
    /// but callers outside the engine hand this states that are not of
    /// this schema — the benchmark's layer replay settles recorded states
    /// of *biased* instances on their type's unbiased schema — and every
    /// other entry point refuses those ([`CompactMarking::from_marking`]).
    pub fn refresh(&self, st: &mut InstanceState) -> Result<(), RuntimeError> {
        let (mut cm, mut marking) = CompactMarking::split(self.arena, &st.marking);
        let res = self.propagate(&mut cm, &mut st.history, &st.data, None);
        cm.write_into(self.arena, &mut marking);
        st.marking = marking;
        res
    }

    /// Replays a history on this schema, returning the resulting instance
    /// state, or the error that shows why the history cannot be produced
    /// here. `blocks` is the block structure of this executor's schema.
    ///
    /// Replay is the semantic foundation of the compliance criterion: an
    /// instance is compliant with a changed schema iff its (reduced)
    /// history *could have been produced* on it. Recorded XOR and loop
    /// decisions take precedence over re-evaluating guards and loop
    /// conditions so that the replay follows the *trace*, not the data:
    /// this is what makes the criterion work with loop backs when the
    /// history has been reduced to the last iteration (the recorded final
    /// `iterate = false` overrides a `Times(n)` condition that would
    /// otherwise loop again). The whole history runs on one compact
    /// marking, converted once at the end.
    pub fn replay(
        &self,
        blocks: &Blocks,
        history: &ExecutionHistory,
    ) -> Result<InstanceState, RuntimeError> {
        let (cm, mut st) = self.replay_on(blocks, history)?;
        st.marking = cm.to_marking(self.arena);
        Ok(st)
    }

    /// [`CompiledExecution::replay`] up to the conversion: the replayed
    /// marking in compact form, beside the state it leaves unmarked.
    fn replay_on(
        &self,
        blocks: &Blocks,
        history: &ExecutionHistory,
    ) -> Result<(CompactMarking, InstanceState), RuntimeError> {
        let mut trace = Trace {
            script: ReplayScript::from_history(history),
            blocks,
        };
        let mut st = InstanceState::default();
        let mut cm = self.started();
        self.propagate(&mut cm, &mut st.history, &st.data, Some(&mut trace))?;
        for ev in &history.events {
            match ev {
                Event::Started { node, reads } => {
                    let signature = self
                        .arena
                        .node_slot(*node)
                        .map_or(&[][..], |s| self.arena.read_signature(s));
                    if reads[..] != *signature {
                        return Err(RuntimeError::SignatureMismatch { node: *node });
                    }
                    self.start_on(&mut cm, &mut st.history, &st.data, *node)?;
                }
                Event::Completed { node, writes } => self.complete_on(
                    &mut cm,
                    &mut st.history,
                    &mut st.data,
                    *node,
                    writes.clone(),
                    Some(&mut trace),
                )?,
                // Decisions were preloaded into the script; resets are
                // regenerated by the loop semantics during replay.
                Event::XorChosen { .. } | Event::LoopDecided { .. } | Event::LoopReset { .. } => {}
            }
        }
        // Every recorded decision must have been consumed: an XorChosen or
        // LoopDecided entry whose node never fired during replay means the
        // decision — itself part of the trace — cannot be reproduced on
        // this schema (e.g. an activity was inserted before an already
        // fired XOR split).
        if let Some(n) = trace.script.undrained_node() {
            return Err(RuntimeError::DecisionNotReproducible(n));
        }
        Ok((cm, st))
    }

    /// Audits a recovered instance state: replays its own history on this
    /// schema and reports whether the replayed marking reaches the same
    /// node/edge states as the stored one. Crash recovery runs this over
    /// every restored instance — replay by revision already guarantees the
    /// stored bytes, and the audit independently confirms those bytes are
    /// *producible* (history and marking agree), catching log corruption
    /// that decodes cleanly.
    ///
    /// `Ok(false)` = history replays but lands on a different marking
    /// (divergent state); `Err` = the history cannot be produced on this
    /// schema at all.
    pub fn audit(&self, blocks: &Blocks, state: &InstanceState) -> Result<bool, RuntimeError> {
        let (replayed, _) = self.replay_on(blocks, &state.history)?;
        Ok(replayed.same_states(self.arena, &state.marking))
    }

    // ------------------------------------------------------------------
    // Compact core: every operation below runs on arena slots only.
    // ------------------------------------------------------------------

    fn run_inner(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &mut DataContext,
        driver: &mut dyn Driver,
        max_activities: Option<usize>,
        observe: &mut dyn FnMut(RunEvent),
    ) -> Result<usize, RuntimeError> {
        let a = self.arena;
        let mut completed = 0usize;
        let mut stall_guard = 0usize;
        loop {
            if let Some(max) = max_activities {
                if completed >= max {
                    return Ok(completed);
                }
            }
            if cm.node(a.end) == NodeState::Completed {
                return Ok(completed);
            }
            let decisions = self.pending_on(cm);
            if !decisions.is_empty() {
                for d in decisions {
                    match d {
                        Decision::Xor { split, targets } => {
                            let idx = driver.choose_branch(self.schema, split, &targets);
                            let target = *targets.get(idx).ok_or(RuntimeError::BranchNotFound {
                                split,
                                target: split,
                            })?;
                            self.decide_xor_on(cm, hist, data, split, target)?;
                            observe(RunEvent::XorDecided { split, target });
                        }
                        Decision::Loop {
                            loop_end,
                            completed: iters,
                        } => {
                            let it = driver.decide_loop(self.schema, loop_end, iters);
                            self.decide_loop_on(cm, hist, data, loop_end, it)?;
                            observe(RunEvent::LoopDecided {
                                loop_end,
                                iterate: it,
                            });
                        }
                    }
                }
                continue;
            }
            let enabled = self.enabled_on(cm);
            if enabled.is_empty() {
                let running: Vec<NodeId> = cm
                    .members(Set::Live)
                    .filter(|&s| cm.node(s) == NodeState::Running)
                    .map(|s| a.node_id(s))
                    .collect();
                if running.is_empty() {
                    return Err(RuntimeError::Stuck);
                }
                for n in running {
                    let writes = self.collect_outputs(n, driver);
                    self.complete_on(cm, hist, data, n, writes, None)?;
                    observe(RunEvent::Completed(n));
                    completed += 1;
                }
                continue;
            }
            let idx = driver.choose_activity(self.schema, &enabled);
            let n = enabled[idx.min(enabled.len() - 1)];
            self.start_on(cm, hist, data, n)?;
            observe(RunEvent::Started(n));
            let writes = self.collect_outputs(n, driver);
            self.complete_on(cm, hist, data, n, writes, None)?;
            observe(RunEvent::Completed(n));
            completed += 1;
            stall_guard += 1;
            if stall_guard > 1_000_000 {
                return Err(RuntimeError::StepLimitExceeded);
            }
        }
    }

    fn collect_outputs(&self, n: NodeId, driver: &mut dyn Driver) -> Vec<(DataId, Value)> {
        let Some(slot) = self.arena.node_slot(n) else {
            return Vec::new();
        };
        self.arena
            .declared_writes(slot)
            .iter()
            .map(|&d| (d, driver.output_value(self.schema, n, d)))
            .collect()
    }

    /// Enabled activities from the compact marking's live set, ascending
    /// id order (slot order *is* id order).
    fn enabled_on(&self, cm: &CompactMarking) -> Vec<NodeId> {
        let a = self.arena;
        cm.members(Set::Live)
            .filter(|&s| {
                cm.node(s) == NodeState::Activated && a.nodes[s as usize].kind == NodeKind::Activity
            })
            .map(|s| a.node_id(s))
            .collect()
    }

    /// Pending decisions from the compact marking's live set, ascending
    /// id order.
    fn pending_on(&self, cm: &CompactMarking) -> Vec<Decision> {
        let a = self.arena;
        let mut out = Vec::new();
        for slot in cm.members(Set::Live) {
            if cm.node(slot) != NodeState::Activated {
                continue;
            }
            let node = &a.nodes[slot as usize];
            match node.kind {
                NodeKind::XorSplit if !node.has_guards => {
                    let targets = a
                        .out_control(slot)
                        .iter()
                        .map(|&e| a.node_id(a.edges[e as usize].to))
                        .collect();
                    out.push(Decision::Xor {
                        split: a.node_id(slot),
                        targets,
                    });
                }
                NodeKind::LoopEnd if node.loop_cond == Some(LoopCond::External) => {
                    out.push(Decision::Loop {
                        loop_end: a.node_id(slot),
                        completed: cm.loop_count(slot),
                    });
                }
                _ => {}
            }
        }
        out
    }

    fn start_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        n: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if cm.node(slot) != NodeState::Activated {
            return Err(RuntimeError::NotActivatable(n));
        }
        for &d in self.arena.mandatory_reads(slot) {
            if !data.is_written(d) {
                return Err(RuntimeError::MissingInput { node: n, data: d });
            }
        }
        cm.set_node(slot, NodeState::Running);
        hist.record(Event::Started {
            node: n,
            reads: self.arena.read_signature(slot).to_vec(),
        });
        Ok(())
    }

    /// [`CompiledExecution::fail_activity`] on the compact marking.
    fn fail_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        n: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(n)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(n)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::Activity {
            return Err(RuntimeError::NotAnActivity(n));
        }
        if cm.node(slot) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        cm.set_node(slot, NodeState::Activated);
        withdraw_start(hist, n);
        Ok(())
    }

    fn complete_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &mut DataContext,
        n: NodeId,
        writes: Vec<(DataId, Value)>,
        trace: Option<&mut Trace<'_>>,
    ) -> Result<(), RuntimeError> {
        // The running state is checked before anything else — an unknown
        // node is simply not running.
        let Some(slot) = self.arena.node_slot(n) else {
            return Err(RuntimeError::NotRunning(n));
        };
        if cm.node(slot) != NodeState::Running {
            return Err(RuntimeError::NotRunning(n));
        }
        let declared = self.arena.declared_writes(slot);
        for (d, _) in &writes {
            if !declared.contains(d) {
                return Err(RuntimeError::UndeclaredWrite { node: n, data: *d });
            }
        }
        for d in declared.iter() {
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
        // The event keeps the writes; the context folds them as a decoder
        // folds a history, one copy of each value.
        let completed = Event::Completed { node: n, writes };
        data.fold(std::slice::from_ref(&completed));
        cm.set_node(slot, NodeState::Completed);
        hist.record(completed);
        self.signal_outgoing(cm, slot, EdgeState::TrueSignaled);
        self.propagate(cm, hist, data, trace)
    }

    fn decide_xor_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        split: NodeId,
        branch_target: NodeId,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(split)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(split)))?;
        let node = &self.arena.nodes[slot as usize];
        if node.kind != NodeKind::XorSplit || cm.node(slot) != NodeState::Activated {
            return Err(RuntimeError::NoDecisionPending(split));
        }
        let chosen = self
            .branch_to(slot, branch_target)
            .ok_or(RuntimeError::BranchNotFound {
                split,
                target: branch_target,
            })?;
        self.fire_xor(cm, hist, slot, chosen);
        self.propagate(cm, hist, data, None)
    }

    fn decide_loop_on(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        loop_end: NodeId,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let slot = self
            .arena
            .node_slot(loop_end)
            .ok_or(RuntimeError::Model(ModelError::UnknownNode(loop_end)))?;
        if self.arena.nodes[slot as usize].kind != NodeKind::LoopEnd
            || cm.node(slot) != NodeState::Activated
        {
            return Err(RuntimeError::NoDecisionPending(loop_end));
        }
        self.fire_loop_end(cm, hist, slot, iterate)?;
        self.propagate(cm, hist, data, None)
    }

    /// Signals all outgoing non-loop edges of a node slot.
    fn signal_outgoing(&self, cm: &mut CompactMarking, slot: u32, state: EdgeState) {
        for &e in self.arena.out_nonloop(slot) {
            cm.set_edge(self.arena, e, state);
        }
    }

    /// The activation fixpoint described in the module docs. Phase 1 walks
    /// the dirty frontier in ascending slot order (= ascending node id);
    /// phase 2 auto-completes the silent slots of the live set, likewise in
    /// id order. While a history is replayed, `trace` supplies its recorded
    /// decisions, which take precedence over guards and loop conditions.
    fn propagate(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        data: &DataContext,
        mut trace: Option<&mut Trace<'_>>,
    ) -> Result<(), RuntimeError> {
        let a = self.arena;
        loop {
            let mut progressed = false;

            // Phase 1: activate / skip dirty nodes. A slot a skip dirties
            // above the cursor is taken in this round, one below it in the
            // next — where a sweep of every slot would take each of them.
            let mut from = 0;
            while let Some(slot) = cm.next(Set::Dirty, from) {
                from = slot + 1;
                cm.remove(Set::Dirty, slot);
                if cm.node(slot) != NodeState::NotActivated {
                    continue;
                }
                match self.evaluate_incoming(cm, slot) {
                    Readiness::Ready => {
                        cm.set_node(slot, NodeState::Activated);
                        progressed = true;
                    }
                    Readiness::Dead => {
                        cm.set_node(slot, NodeState::Skipped);
                        self.signal_outgoing(cm, slot, EdgeState::FalseSignaled);
                        progressed = true;
                    }
                    Readiness::Wait => {}
                }
            }

            // Phase 2: auto-complete silent activated nodes. Nothing here
            // activates a node, so the live set only shrinks under the
            // cursor: a loop reset may clear a slot before it is reached.
            let mut from = 0;
            while let Some(slot) = cm.next(Set::Live, from) {
                from = slot + 1;
                let node = &a.nodes[slot as usize];
                if !node.silent || cm.node(slot) != NodeState::Activated {
                    continue;
                }
                match node.kind {
                    NodeKind::XorSplit => {
                        let recorded = trace.as_deref_mut().and_then(|t| {
                            let target = t.script.pop_xor(a.node_id(slot))?;
                            Some((t.blocks, target))
                        });
                        let chosen = match recorded {
                            Some((blocks, target)) => self.match_branch(blocks, slot, target)?,
                            None if node.has_guards => self.evaluate_guards(data, slot)?,
                            None => continue, // external decision pending
                        };
                        self.fire_xor(cm, hist, slot, chosen);
                        progressed = true;
                    }
                    NodeKind::LoopEnd => {
                        let recorded = trace
                            .as_deref_mut()
                            .and_then(|t| t.script.pop_loop(a.node_id(slot)));
                        let iterate = match (recorded, &node.loop_cond) {
                            (Some(iterate), _) => iterate,
                            (None, Some(LoopCond::Times(total))) => {
                                cm.loop_count(slot) + 1 < *total
                            }
                            (None, Some(LoopCond::While(g))) => g.eval(data.value(g.data)),
                            (None, Some(LoopCond::External)) => continue, // pending
                            (None, None) => {
                                return Err(RuntimeError::LoopNotDecidable(a.node_id(slot)))
                            }
                        };
                        self.fire_loop_end(cm, hist, slot, iterate)?;
                        progressed = true;
                    }
                    _ => {
                        cm.set_node(slot, NodeState::Completed);
                        self.signal_outgoing(cm, slot, EdgeState::TrueSignaled);
                        progressed = true;
                    }
                }
            }

            if !progressed {
                return Ok(());
            }
        }
    }

    /// Matches a recorded branch target against this schema's branches of
    /// the split at `slot`: directly by edge target, or — when a change
    /// inserted nodes at the branch head — by branch-region containment
    /// (`blocks` lists the regions in outgoing-control-edge order).
    fn match_branch(
        &self,
        blocks: &Blocks,
        slot: u32,
        target: NodeId,
    ) -> Result<u32, RuntimeError> {
        if let Some(e) = self.branch_to(slot, target) {
            return Ok(e);
        }
        let split = self.arena.node_id(slot);
        blocks
            .by_split
            .get(&split)
            .and_then(|info| {
                let branch = info.branch_of(target)?;
                self.arena.out_control(slot).get(branch).copied()
            })
            .ok_or(RuntimeError::BranchNotFound { split, target })
    }

    /// The outgoing control edge of the split at `slot` that leads
    /// straight to `target`.
    fn branch_to(&self, slot: u32, target: NodeId) -> Option<u32> {
        let a = self.arena;
        let mut out = a.out_control(slot).iter().copied();
        out.find(|&e| a.node_id(a.edges[e as usize].to) == target)
    }

    /// First-match guard evaluation over the outgoing control edges in
    /// adjacency order; the (last) unguarded edge is the else branch.
    fn evaluate_guards(&self, data: &DataContext, slot: u32) -> Result<u32, RuntimeError> {
        let a = self.arena;
        let mut else_edge = None;
        for &e in a.out_control(slot) {
            match &a.edges[e as usize].guard {
                Some(g) => {
                    if g.eval(data.value(g.data)) {
                        return Ok(e);
                    }
                }
                None => else_edge = Some(e),
            }
        }
        else_edge.ok_or(RuntimeError::NoBranchMatches(a.node_id(slot)))
    }

    fn fire_xor(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        slot: u32,
        chosen: u32,
    ) {
        let a = self.arena;
        let target = a.node_id(a.edges[chosen as usize].to);
        hist.record(Event::XorChosen {
            split: a.node_id(slot),
            branch_target: target,
        });
        cm.set_node(slot, NodeState::Completed);
        for &e in a.out_nonloop(slot) {
            let kind = a.edges[e as usize].kind;
            // Sync edges signal true regardless: the split itself completed.
            let s = if (e == chosen && kind == EdgeKind::Control) || kind == EdgeKind::Sync {
                EdgeState::TrueSignaled
            } else {
                EdgeState::FalseSignaled
            };
            cm.set_edge(a, e, s);
        }
    }

    fn fire_loop_end(
        &self,
        cm: &mut CompactMarking,
        hist: &mut ExecutionHistory,
        slot: u32,
        iterate: bool,
    ) -> Result<(), RuntimeError> {
        let a = self.arena;
        let loop_end = a.node_id(slot);
        hist.record(Event::LoopDecided { loop_end, iterate });
        cm.loops[slot as usize] += 1;
        if iterate {
            let ls = a.nodes[slot as usize]
                .loop_start
                .ok_or(RuntimeError::LoopNotDecidable(loop_end))?;
            hist.record(Event::LoopReset {
                loop_start: a.node_id(ls),
            });
            self.reset_loop_body(cm, slot);
        } else {
            cm.set_node(slot, NodeState::Completed);
            self.signal_outgoing(cm, slot, EdgeState::TrueSignaled);
        }
        Ok(())
    }

    /// Resets the loop body for the next iteration: body nodes (including
    /// the loop start/end) return to `NotActivated`, intra-body edges to
    /// `NotSignaled`, and nested loop counters are cleared (all from the
    /// arena's precomputed body tables). The control edge entering the
    /// loop start stays `TrueSignaled`, so the next propagation sweep
    /// re-activates the body.
    fn reset_loop_body(&self, cm: &mut CompactMarking, loop_end_slot: u32) {
        for &ns in self.arena.loop_body_nodes(loop_end_slot) {
            cm.set_node(ns, NodeState::NotActivated);
            if ns != loop_end_slot {
                cm.loops[ns as usize] = 0; // nested loop counters restart
            }
        }
        for &es in self.arena.loop_body_edges(loop_end_slot) {
            cm.set_edge(self.arena, es, EdgeState::NotSignaled);
        }
    }

    fn evaluate_incoming(&self, cm: &CompactMarking, slot: u32) -> Readiness {
        let in_control = self.arena.in_control(slot);
        let control_total = in_control.len();
        if control_total == 0 {
            // Only the start node has no incoming control edges; it is
            // completed explicitly by `init` and never (re-)activated here.
            return Readiness::Wait;
        }
        let mut control_true = 0usize;
        let mut control_false = 0usize;
        for &e in in_control {
            match cm.edge(e) {
                EdgeState::TrueSignaled => control_true += 1,
                EdgeState::FalseSignaled => control_false += 1,
                EdgeState::NotSignaled => {}
            }
        }
        let dead;
        let ready;
        if self.arena.nodes[slot as usize].kind == NodeKind::XorJoin {
            ready = control_true >= 1;
            dead = !ready && control_false == control_total;
        } else {
            dead = control_false > 0;
            ready = !dead && control_true == control_total;
        }
        if dead {
            return Readiness::Dead;
        }
        if !ready {
            return Readiness::Wait;
        }
        for &e in self.arena.in_sync(slot) {
            if !cm.edge(e).signaled() {
                return Readiness::Wait;
            }
        }
        Readiness::Ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::DefaultDriver;
    use adept_model::SchemaBuilder;

    #[test]
    fn compact_marking_round_trips() {
        let mut b = SchemaBuilder::new("rt");
        b.loop_start();
        b.activity("body");
        b.loop_end(LoopCond::Times(2));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let arena = CompiledSchema::compile(&s, &blocks);
        let ex = CompiledExecution::new(&s, &arena);
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();
        let cm = CompactMarking::from_marking(&arena, &st.marking).unwrap();
        let back = cm.to_marking(&arena);
        assert_eq!(back, st.marking);
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&st.marking).unwrap()
        );
    }

    /// The audit compares the replayed compact marking with the stored
    /// sparse one entry for entry: a changed state, a missing entry and an
    /// entry of an id the arena does not intern all diverge.
    #[test]
    fn audit_compares_every_entry() {
        let mut b = SchemaBuilder::new("audit");
        let a = b.activity("a");
        let c = b.activity("c");
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let arena = CompiledSchema::compile(&s, &blocks);
        let ex = CompiledExecution::new(&s, &arena);
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, Some(1)).unwrap();
        assert_eq!(ex.audit(&blocks, &st), Ok(true));

        let diverged = |change: &dyn Fn(&mut Marking)| {
            let mut other = st.clone();
            change(&mut other.marking);
            ex.audit(&blocks, &other)
        };
        assert_eq!(diverged(&|m| m.set_node(c, NodeState::Running)), Ok(false));
        assert_eq!(
            diverged(&|m| m.set_node(a, NodeState::NotActivated)),
            Ok(false)
        );
        let ghost = |m: &mut Marking| m.set_edge(EdgeId(999), EdgeState::TrueSignaled);
        assert_eq!(diverged(&ghost), Ok(false));
        assert_eq!(diverged(&|m| m.set_loop_count(c, 3)), Ok(true));
    }

    #[test]
    fn foreign_marking_is_rejected() {
        let mut b = SchemaBuilder::new("f1");
        b.activity("a");
        let s1 = b.build().unwrap();
        let blocks = Blocks::analyze(&s1).unwrap();
        let arena = CompiledSchema::compile(&s1, &blocks);
        let mut m = Marking::new();
        m.set_node(NodeId(999), NodeState::Completed);
        assert!(CompactMarking::from_marking(&arena, &m).is_err());
    }
}
