//! Node and edge markings of process instances.
//!
//! ADEPT2 instances are stored *redundant-free*: an unbiased instance is
//! just a reference to its schema plus instance-specific data — essentially
//! this marking (paper Fig. 2). The marking therefore stores only
//! non-default states: nodes absent from the map are `NotActivated`, edges
//! absent from the map are `NotSignaled`.
//!
//! Each of its three maps is an [`IdMap`], one vector sorted by id: a
//! marking copies, compares and drops as three flat buffers. It stays
//! sparse and independent of any compiled arena; the executor converts it
//! to the dense [`crate::CompactMarking`] once per command and back.
//!
//! # Encoding (snapshot format 9)
//!
//! A marking's nodes and edges are written as one id list per state:
//! `{"nodes":{"Activated":[4,5],"Completed":[0,1,2,3]},"edges":{…},
//! "loop_counts":[[id,count],…]}` — states in declaration order, ids
//! ascending, an empty group left out. Only a marking is written this way:
//! the journal records a command as its steps ([`crate::Step`]), not as
//! the entries they changed. The decoder keeps the derive's rules for the
//! marking's members (an unknown one skipped, a missing or repeated one
//! refused) and refuses, as errors, an unknown state, a state or an id
//! listed twice and a group of the default state, which a marking does
//! not store. The pair form of format 8 (`[[id,"Completed"],…]`)
//! is refused, not read.

use adept_model::{EdgeId, IdMap, NodeId};
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::fmt;

/// Execution state of a node ("NS" in the paper's compliance conditions).
///
/// The paper's `Disabled` state is called [`NodeState::Skipped`] here: a
/// node on a not-taken XOR branch (dead path) that can no longer execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeState {
    /// Not yet reached (default).
    #[default]
    NotActivated,
    /// All preconditions fulfilled; the work item is offered.
    Activated,
    /// Execution has started.
    Running,
    /// Execution finished.
    Completed,
    /// On a dead path; can no longer execute (paper: `Disabled`).
    Skipped,
}

impl NodeState {
    /// Whether the node has been entered (running, completed or skipped).
    pub fn entered(self) -> bool {
        matches!(
            self,
            NodeState::Running | NodeState::Completed | NodeState::Skipped
        )
    }

    /// Whether the node still lies ahead (may yet be started).
    pub fn pending(self) -> bool {
        matches!(self, NodeState::NotActivated | NodeState::Activated)
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NodeState::NotActivated => "NotActivated",
            NodeState::Activated => "Activated",
            NodeState::Running => "Running",
            NodeState::Completed => "Completed",
            NodeState::Skipped => "Skipped",
        })
    }
}

/// Signal state of an edge ("ES" in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeState {
    /// Not yet signaled (default).
    #[default]
    NotSignaled,
    /// The source completed; the edge fires (paper: `TRUE_Signaled`).
    TrueSignaled,
    /// The source was skipped; dead-path elimination (paper: `FALSE_Signaled`).
    FalseSignaled,
}

impl EdgeState {
    /// Whether the edge has been signaled either way.
    pub fn signaled(self) -> bool {
        self != EdgeState::NotSignaled
    }
}

impl fmt::Display for EdgeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeState::NotSignaled => "NotSignaled",
            EdgeState::TrueSignaled => "TrueSignaled",
            EdgeState::FalseSignaled => "FalseSignaled",
        })
    }
}

/// The complete runtime marking of one process instance, encoded as its
/// ids by state (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Marking {
    nodes: IdMap<NodeId, NodeState>,
    edges: IdMap<EdgeId, EdgeState>,
    /// Completed iteration count per `LoopEnd` node for the current loop
    /// entry (cleared when an enclosing loop resets the body).
    loop_counts: IdMap<NodeId, u32>,
}

impl Marking {
    /// A fresh marking: every node `NotActivated`, every edge `NotSignaled`.
    pub fn new() -> Self {
        Self::default()
    }

    /// State of a node (default `NotActivated`).
    pub fn node(&self, n: NodeId) -> NodeState {
        self.nodes.get(&n).copied().unwrap_or_default()
    }

    /// State of an edge (default `NotSignaled`).
    pub fn edge(&self, e: EdgeId) -> EdgeState {
        self.edges.get(&e).copied().unwrap_or_default()
    }

    /// Sets a node state (removing default states keeps the map minimal).
    pub fn set_node(&mut self, n: NodeId, s: NodeState) {
        if s == NodeState::NotActivated {
            self.nodes.remove(&n);
        } else {
            self.nodes.insert(n, s);
        }
    }

    /// Sets an edge state (removing default states keeps the map minimal).
    pub fn set_edge(&mut self, e: EdgeId, s: EdgeState) {
        if s == EdgeState::NotSignaled {
            self.edges.remove(&e);
        } else {
            self.edges.insert(e, s);
        }
    }

    /// Completed iterations of the loop closed by `loop_end`.
    pub fn loop_count(&self, loop_end: NodeId) -> u32 {
        self.loop_counts.get(&loop_end).copied().unwrap_or(0)
    }

    /// Increments the loop counter and returns the new value.
    pub fn bump_loop(&mut self, loop_end: NodeId) -> u32 {
        let c = self.loop_count(loop_end) + 1;
        self.loop_counts.insert(loop_end, c);
        c
    }

    /// Clears the loop counter (when an enclosing loop resets the body).
    pub fn clear_loop(&mut self, loop_end: NodeId) {
        self.loop_counts.remove(&loop_end);
    }

    /// Sets a loop counter to an absolute value (`0` clears the entry, so
    /// the stored map stays minimal). Used when a marking is re-assembled
    /// from a compact per-slot representation.
    pub fn set_loop_count(&mut self, loop_end: NodeId, count: u32) {
        if count == 0 {
            self.loop_counts.remove(&loop_end);
        } else {
            self.loop_counts.insert(loop_end, count);
        }
    }

    /// All non-zero loop counters, in id order.
    pub fn loop_counters(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.loop_counts.iter().map(|(n, c)| (*n, *c))
    }

    /// All explicitly marked nodes (non-`NotActivated`), in id order.
    pub fn marked_nodes(&self) -> impl Iterator<Item = (NodeId, NodeState)> + '_ {
        self.nodes.iter().map(|(n, s)| (*n, *s))
    }

    /// All explicitly signaled edges, in id order.
    pub fn signaled_edges(&self) -> impl Iterator<Item = (EdgeId, EdgeState)> + '_ {
        self.edges.iter().map(|(e, s)| (*e, *s))
    }

    /// Nodes currently in the given state.
    pub fn nodes_in(&self, s: NodeState) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |(_, st)| **st == s)
            .map(|(n, _)| *n)
    }

    /// Removes all markings of the given node (used by state adaptation
    /// when a node is deleted).
    pub fn forget_node(&mut self, n: NodeId) {
        self.nodes.remove(&n);
        self.loop_counts.remove(&n);
    }

    /// Removes the marking of the given edge.
    pub fn forget_edge(&mut self, e: EdgeId) {
        self.edges.remove(&e);
    }

    /// Adopts the loop iteration counters of another marking (used when a
    /// marking is re-derived by reduced-history replay, which flattens
    /// earlier iterations and would otherwise reset `Times(n)` progress).
    pub fn copy_loop_counts_from(&mut self, other: &Marking) {
        self.loop_counts = other.loop_counts.clone();
    }

    /// Compares only node and edge states (ignoring loop counters), which
    /// is the equivalence that matters for compliance/adaptation oracles:
    /// reduced-history replay intentionally flattens earlier iterations.
    pub fn same_states(&self, other: &Marking) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }

    /// Makes room for `nodes`, `edges` and `loops` more entries, so a
    /// marking assembled in id order allocates each buffer once.
    pub(crate) fn reserve(&mut self, nodes: usize, edges: usize, loops: usize) {
        self.nodes.reserve(nodes);
        self.edges.reserve(edges);
        self.loop_counts.reserve(loops);
    }

    /// Approximate deep size in bytes (for the Fig. 2 storage experiments):
    /// the marking and its three entry buffers.
    pub fn approx_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.heap_size()
            + self.edges.heap_size()
            + self.loop_counts.heap_size()
    }
}

/// One group of the ids-by-state encoding: a state, its name and its
/// member text as the first member of an object and as a later one.
struct Group<S> {
    state: S,
    name: &'static str,
    first: &'static str,
    later: &'static str,
}

macro_rules! grouped {
    ($ty:ty: $($state:path => $name:literal),* $(,)?) => {
        impl Grouped for $ty {
            const GROUPS: &'static [Group<Self>] = &[$(Group {
                state: $state,
                name: $name,
                first: concat!("\"", $name, "\":"),
                later: concat!(",\"", $name, "\":"),
            }),*];
            const NAMES: &'static [&'static str] = &[$($name),*];
        }
    };
}

/// A state the marking encoding groups ids under: every state of the type,
/// in declaration order. Its default is the one a marking does not store.
trait Grouped: Copy + PartialEq + Default + 'static {
    /// Every state, in declaration order.
    const GROUPS: &'static [Group<Self>];
    /// Their names, in the same order.
    const NAMES: &'static [&'static str];
}

grouped! { NodeState:
    NodeState::NotActivated => "NotActivated",
    NodeState::Activated => "Activated",
    NodeState::Running => "Running",
    NodeState::Completed => "Completed",
    NodeState::Skipped => "Skipped",
}

grouped! { EdgeState:
    EdgeState::NotSignaled => "NotSignaled",
    EdgeState::TrueSignaled => "TrueSignaled",
    EdgeState::FalseSignaled => "FalseSignaled",
}

/// Writes `entries`, in id order, as one id list per state: states in
/// declaration order, ids ascending, an empty group left out.
fn write_ids_by_state<K: Serialize, S: Grouped>(out: &mut Writer, entries: &[(K, S)]) {
    out.begin_map();
    let mut empty = true;
    for group in S::GROUPS {
        let mut ids = entries.iter().filter(|(_, s)| *s == group.state);
        let Some((id, _)) = ids.next() else { continue };
        out.member(if empty { group.first } else { group.later });
        empty = false;
        out.begin_seq();
        out.elem(true);
        id.serialize(out);
        for (id, _) in ids {
            out.elem(false);
            id.serialize(out);
        }
        out.end_seq(false);
    }
    out.end_map(empty);
}

/// The entries [`write_ids_by_state`] wrote, in id order. An unknown
/// state, a state or an id listed twice and a group of the default state
/// are errors.
struct IdsByState<K, S>(Vec<(K, S)>);

impl<K, S> Deserialize for IdsByState<K, S>
where
    K: Deserialize + Ord + fmt::Debug,
    S: Grouped,
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_map()?;
        let mut entries = Vec::new();
        let (mut first, mut seen) = (true, 0u32);
        while let Some(key) = r.key(first, S::NAMES)? {
            first = false;
            let at = match key {
                Ok(at) => at,
                Err(key) => return Err(Error::new(format!("unknown state {key:?}"))),
            };
            let Group {
                name: key, state, ..
            } = S::GROUPS[at];
            if seen & 1 << at != 0 {
                return Err(Error::new(format!("state {key:?} listed twice")));
            }
            if state == S::default() {
                return Err(Error::new(format!("a marking lists its default {key:?}")));
            }
            seen |= 1 << at;
            r.begin_seq()?;
            let mut first_id = true;
            while r.seq_next(std::mem::take(&mut first_id))? {
                entries.push((K::deserialize(r)?, state));
            }
        }
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(Error::new(format!("id {:?} listed twice", w[0].0)));
            }
        }
        Ok(IdsByState(entries))
    }
}

/// What a marking decodes from.
#[derive(Deserialize)]
struct DecodedMarking {
    nodes: IdsByState<NodeId, NodeState>,
    edges: IdsByState<EdgeId, EdgeState>,
    loop_counts: IdMap<NodeId, u32>,
}

impl Serialize for Marking {
    fn serialize(&self, out: &mut Writer) {
        out.begin_map();
        out.member("\"nodes\":");
        write_ids_by_state(out, self.nodes.as_slice());
        out.member(",\"edges\":");
        write_ids_by_state(out, self.edges.as_slice());
        out.member(",\"loop_counts\":");
        self.loop_counts.serialize(out);
        out.end_map(false);
    }
}

impl Deserialize for Marking {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let DecodedMarking {
            nodes,
            edges,
            loop_counts,
        } = DecodedMarking::deserialize(r)?;
        // The decoder hands its entries over sorted and without a repeat.
        let ascending = |what| Error::new(format!("{what} out of order"));
        Ok(Marking {
            nodes: IdMap::from_ascending(nodes.0).ok_or_else(|| ascending("nodes"))?,
            edges: IdMap::from_ascending(edges.0).ok_or_else(|| ascending("edges"))?,
            loop_counts,
        })
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nodes{{")?;
        for (i, (n, s)) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={s}")?;
        }
        write!(f, "}} edges{{")?;
        for (i, (e, s)) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}={s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_not_stored() {
        let mut m = Marking::new();
        assert_eq!(m.node(NodeId(5)), NodeState::NotActivated);
        m.set_node(NodeId(5), NodeState::Running);
        assert_eq!(m.node(NodeId(5)), NodeState::Running);
        m.set_node(NodeId(5), NodeState::NotActivated);
        assert_eq!(m.marked_nodes().count(), 0);
        m.set_edge(EdgeId(1), EdgeState::TrueSignaled);
        m.set_edge(EdgeId(1), EdgeState::NotSignaled);
        assert_eq!(m.signaled_edges().count(), 0);
    }

    #[test]
    fn loop_counters() {
        let mut m = Marking::new();
        let le = NodeId(9);
        assert_eq!(m.loop_count(le), 0);
        assert_eq!(m.bump_loop(le), 1);
        assert_eq!(m.bump_loop(le), 2);
        m.clear_loop(le);
        assert_eq!(m.loop_count(le), 0);
    }

    #[test]
    fn same_states_ignores_loop_counts() {
        let mut a = Marking::new();
        let mut b = Marking::new();
        a.set_node(NodeId(1), NodeState::Completed);
        b.set_node(NodeId(1), NodeState::Completed);
        a.bump_loop(NodeId(2));
        assert!(a.same_states(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn approx_size_is_the_marking_and_its_three_buffers() {
        use std::mem::size_of;
        let mut m = Marking::new();
        assert_eq!(m.approx_size(), size_of::<Marking>());
        for i in 0..5 {
            m.set_node(NodeId(i), NodeState::Completed);
        }
        m.set_edge(EdgeId(3), EdgeState::TrueSignaled);
        m.bump_loop(NodeId(4));
        let buffers = m.nodes.heap_size() + m.edges.heap_size() + m.loop_counts.heap_size();
        assert!(m.nodes.heap_size() >= 5 * size_of::<(NodeId, NodeState)>());
        assert!(m.edges.heap_size() >= size_of::<(EdgeId, EdgeState)>());
        assert!(m.loop_counts.heap_size() >= size_of::<(NodeId, u32)>());
        assert_eq!(m.approx_size(), size_of::<Marking>() + buffers);
    }

    #[test]
    fn a_marking_encodes_its_ids_by_state() {
        let mut m = Marking::new();
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            r#"{"nodes":{},"edges":{},"loop_counts":[]}"#
        );
        for n in [5, 0, 3, 1, 2, 4] {
            let s = if n < 4 {
                NodeState::Completed
            } else {
                NodeState::Activated
            };
            m.set_node(NodeId(n), s);
        }
        m.set_edge(EdgeId(2), EdgeState::FalseSignaled);
        m.set_edge(EdgeId(0), EdgeState::TrueSignaled);
        m.bump_loop(NodeId(3));
        let text = serde_json::to_string(&m).unwrap();
        assert_eq!(
            text,
            r#"{"nodes":{"Activated":[4,5],"Completed":[0,1,2,3]},"edges":{"TrueSignaled":[0],"FalseSignaled":[2]},"loop_counts":[[3,1]]}"#
        );
        assert_eq!(serde_json::from_str::<Marking>(&text).unwrap(), m);
        // Groups and ids in another order read the same.
        let shuffled = r#"{"loop_counts":[[3,1]],"edges":{"FalseSignaled":[2],"TrueSignaled":[0]},"nodes":{"Completed":[3,1,0,2],"Activated":[5,4]}}"#;
        assert_eq!(serde_json::from_str::<Marking>(shuffled).unwrap(), m);
    }

    #[test]
    fn a_damaged_marking_is_an_error() {
        let marking = |nodes: &str| format!(r#"{{"nodes":{nodes},"edges":{{}},"loop_counts":[]}}"#);
        for (what, text) in [
            (
                "an id under two states",
                marking(r#"{"Activated":[1],"Completed":[1]}"#),
            ),
            ("an id twice in a group", marking(r#"{"Completed":[1,1]}"#)),
            (
                "a state twice",
                marking(r#"{"Completed":[1],"Completed":[2]}"#),
            ),
            ("an unknown state", marking(r#"{"Done":[1]}"#)),
            (
                "an edge state for a node",
                marking(r#"{"TrueSignaled":[1]}"#),
            ),
            ("the default state", marking(r#"{"NotActivated":[1]}"#)),
            ("the pair form", marking(r#"[[1,"Completed"]]"#)),
            ("a group that is no list", marking(r#"{"Completed":1}"#)),
            (
                "a missing member",
                r#"{"nodes":{},"loop_counts":[]}"#.into(),
            ),
            (
                "a repeated member",
                r#"{"nodes":{},"nodes":{},"edges":{},"loop_counts":[]}"#.into(),
            ),
        ] {
            assert!(serde_json::from_str::<Marking>(&text).is_err(), "{what}");
        }
        let default_edge = r#"{"nodes":{},"edges":{"NotSignaled":[0]},"loop_counts":[]}"#;
        assert!(serde_json::from_str::<Marking>(default_edge).is_err());
    }

    #[test]
    fn state_predicates() {
        assert!(NodeState::Running.entered());
        assert!(NodeState::Skipped.entered());
        assert!(!NodeState::Activated.entered());
        assert!(NodeState::Activated.pending());
        assert!(!NodeState::Completed.pending());
        assert!(EdgeState::FalseSignaled.signaled());
        assert!(!EdgeState::NotSignaled.signaled());
    }
}
