//! Compiled schema arenas: the flat, immutable execution core.
//!
//! A committed `(type, version)` never changes — thousands of instances
//! share it, and only *biased* (ad-hoc-changed) instances deviate through
//! an overlay. [`CompiledSchema`] exploits that: it compiles a
//! [`ProcessSchema`] + [`Blocks`] pair into index-based node/edge arrays
//! with every per-command lookup the execution rules perform precomputed:
//!
//! * **id interning** — node and edge ids are mapped to dense *slots*
//!   (`u32` indices into sorted id tables); a slot lookup is one binary
//!   search, a reverse lookup one array read;
//! * **activation tables** — per node: incoming control/sync edge slots
//!   (the inputs of the activation rule), outgoing non-loop edge slots
//!   (what completion signals), outgoing control edges in adjacency order
//!   (guard evaluation and branch choice are order-sensitive);
//! * **fixpoint metadata** — silent-node flags, XOR guard presence, loop
//!   conditions, and the full loop-body reset set (body node slots +
//!   intra-body edge slots) per loop end;
//! * **data signatures** — mandatory read parameters (schema declaration
//!   order, for error parity), the sorted read signature recorded in
//!   `Started` events, and declared writes in declaration order.
//!
//! The arena is plain data: build it once per schema, wrap it in an
//! `Arc`, and share it — across every unbiased instance of a committed
//! version, or across the commands of one biased instance, whose
//! materialised (overlaid) schema gets an arena of its own. The compact
//! execution layer in `adept-state` runs the ADEPT2 semantics directly on
//! these slots.

use crate::blocks::Blocks;
use crate::edge::{EdgeKind, Guard, LoopCond};
use crate::ids::{DataId, EdgeId, NodeId};
use crate::node::NodeKind;
use crate::schema::ProcessSchema;

/// One node of a compiled schema, with every adjacency and data lookup
/// the execution semantics need resolved to dense slots.
#[derive(Debug, Clone)]
pub struct CNode {
    /// The schema-level node id this slot interns.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Whether the node auto-completes (splits, joins, null tasks).
    pub silent: bool,
    /// Incoming control-edge slots.
    pub in_control: Box<[u32]>,
    /// Incoming sync-edge slots.
    pub in_sync: Box<[u32]>,
    /// Outgoing non-loop edge slots (control + sync), adjacency order —
    /// exactly what completing or skipping this node signals.
    pub out_nonloop: Box<[u32]>,
    /// Outgoing control-edge slots in adjacency order (first-match guard
    /// evaluation and XOR branch targets depend on this order).
    pub out_control: Box<[u32]>,
    /// Whether any outgoing control edge carries a guard (XOR splits with
    /// guards decide automatically; unguarded ones await a decision).
    pub has_guards: bool,
    /// Mandatory (non-optional) read parameters, in schema declaration
    /// order — the order `MissingInput` errors surface in.
    pub mandatory_reads: Box<[DataId]>,
    /// The sorted mandatory read signature recorded in `Started` events.
    pub read_signature: Box<[DataId]>,
    /// Declared write parameters, in schema declaration order.
    pub declared_writes: Box<[DataId]>,
    /// Loop continuation condition (loop ends only).
    pub loop_cond: Option<LoopCond>,
    /// Slot of the loop start this loop end jumps back to.
    pub loop_start: Option<u32>,
    /// Loop-body node slots (including loop start and end) reset on
    /// iteration. Empty when the node is no loop end or the block
    /// structure carries no body for it.
    pub loop_body_nodes: Box<[u32]>,
    /// Intra-body edge slots (all kinds) reset on iteration.
    pub loop_body_edges: Box<[u32]>,
}

/// One edge of a compiled schema.
#[derive(Debug, Clone)]
pub struct CEdge {
    /// The schema-level edge id this slot interns.
    pub id: EdgeId,
    /// Source node slot.
    pub from: u32,
    /// Target node slot.
    pub to: u32,
    /// Edge kind.
    pub kind: EdgeKind,
    /// Branch guard (control edges leaving a guarded XOR split).
    pub guard: Option<Guard>,
}

/// A committed schema version compiled to flat arrays — the immutable
/// execution core shared (`Arc`-wrapped) by every unbiased instance of
/// that version. See the module docs for what is precomputed.
#[derive(Debug, Clone)]
pub struct CompiledSchema {
    /// Interned node ids, ascending — slot `i` is `node_ids[i]`.
    pub node_ids: Vec<NodeId>,
    /// Interned edge ids, ascending — slot `i` is `edge_ids[i]`.
    pub edge_ids: Vec<EdgeId>,
    /// Per-slot node tables, parallel to `node_ids`.
    pub nodes: Vec<CNode>,
    /// Per-slot edge tables, parallel to `edge_ids`.
    pub edges: Vec<CEdge>,
    /// Slot of the unique start node.
    pub start: u32,
    /// Slot of the unique end node.
    pub end: u32,
}

impl CompiledSchema {
    /// Compiles a schema and its block structure into an arena.
    ///
    /// The schema must be structurally sound (builder-produced /
    /// verifier-approved) — in particular it must have start and end
    /// nodes and no dangling edge endpoints.
    pub fn compile(schema: &ProcessSchema, blocks: &Blocks) -> Self {
        let node_ids: Vec<NodeId> = schema.node_ids().collect();
        let edge_ids: Vec<EdgeId> = schema.edges().map(|e| e.id).collect();
        let nslot = |n: NodeId| -> u32 {
            node_ids
                .binary_search(&n)
                .map(|i| i as u32)
                .expect("invariant: edge endpoints and block members exist in the schema")
        };
        let eslot = |e: EdgeId| -> u32 {
            edge_ids
                .binary_search(&e)
                .map(|i| i as u32)
                .expect("invariant: adjacency lists only reference existing edges")
        };

        let edges: Vec<CEdge> = schema
            .edges()
            .map(|e| CEdge {
                id: e.id,
                from: nslot(e.from),
                to: nslot(e.to),
                kind: e.kind,
                guard: e.guard.clone(),
            })
            .collect();

        let nodes: Vec<CNode> = node_ids
            .iter()
            .map(|&id| {
                let node = schema
                    .node(id)
                    .expect("invariant: node table iterates existing ids");
                let in_control: Vec<u32> = schema
                    .in_edges_kind(id, EdgeKind::Control)
                    .map(|e| eslot(e.id))
                    .collect();
                let in_sync: Vec<u32> = schema
                    .in_edges_kind(id, EdgeKind::Sync)
                    .map(|e| eslot(e.id))
                    .collect();
                let out_nonloop: Vec<u32> = schema
                    .out_edges(id)
                    .filter(|e| e.kind != EdgeKind::Loop)
                    .map(|e| eslot(e.id))
                    .collect();
                let out_control: Vec<u32> = schema
                    .out_edges_kind(id, EdgeKind::Control)
                    .map(|e| eslot(e.id))
                    .collect();
                let has_guards = schema
                    .out_edges_kind(id, EdgeKind::Control)
                    .any(|e| e.guard.is_some());
                let mandatory_reads: Vec<DataId> = schema
                    .reads_of(id)
                    .filter(|de| !de.optional)
                    .map(|de| de.data)
                    .collect();
                let mut read_signature = mandatory_reads.clone();
                read_signature.sort_unstable();
                let declared_writes: Vec<DataId> = schema.writes_of(id).map(|de| de.data).collect();

                // Loop-end metadata: the back edge names the loop start,
                // the block structure names the body to reset.
                let back_edge = schema.out_edges_kind(id, EdgeKind::Loop).next();
                let loop_cond = back_edge.and_then(|e| e.loop_cond.clone());
                let loop_start_id = back_edge.map(|e| e.to);
                let loop_start = loop_start_id.map(nslot);
                let (loop_body_nodes, loop_body_edges) =
                    match loop_start_id.and_then(|ls| blocks.by_split.get(&ls)) {
                        Some(info) => {
                            let ls = loop_start_id
                                .expect("invariant: block info was looked up by the loop start id");
                            let mut body = info.interior();
                            body.insert(ls);
                            body.insert(id);
                            let body_nodes: Vec<u32> = body.iter().map(|&n| nslot(n)).collect();
                            let body_edges: Vec<u32> = schema
                                .edges()
                                .filter(|e| body.contains(&e.from) && body.contains(&e.to))
                                .map(|e| eslot(e.id))
                                .collect();
                            (body_nodes, body_edges)
                        }
                        None => (Vec::new(), Vec::new()),
                    };

                CNode {
                    id,
                    kind: node.kind,
                    silent: node.kind.is_silent(),
                    in_control: in_control.into(),
                    in_sync: in_sync.into(),
                    out_nonloop: out_nonloop.into(),
                    out_control: out_control.into(),
                    has_guards,
                    mandatory_reads: mandatory_reads.into(),
                    read_signature: read_signature.into(),
                    declared_writes: declared_writes.into(),
                    loop_cond,
                    loop_start,
                    loop_body_nodes: loop_body_nodes.into(),
                    loop_body_edges: loop_body_edges.into(),
                }
            })
            .collect();

        let start = nslot(schema.start_node());
        let end = nslot(schema.end_node());
        Self {
            node_ids,
            edge_ids,
            nodes,
            edges,
            start,
            end,
        }
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edge slots.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Interns a node id (binary search over the sorted id table).
    #[inline]
    pub fn node_slot(&self, n: NodeId) -> Option<u32> {
        self.node_ids.binary_search(&n).ok().map(|i| i as u32)
    }

    /// Interns an edge id.
    #[inline]
    pub fn edge_slot(&self, e: EdgeId) -> Option<u32> {
        self.edge_ids.binary_search(&e).ok().map(|i| i as u32)
    }

    /// The schema-level node id of a slot.
    #[inline]
    pub fn node_id(&self, slot: u32) -> NodeId {
        self.node_ids[slot as usize]
    }

    /// The schema-level edge id of a slot.
    #[inline]
    pub fn edge_id(&self, slot: u32) -> EdgeId {
        self.edge_ids[slot as usize]
    }

    /// Approximate deep size in bytes (for memory accounting).
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let mut s = size_of::<Self>();
        s += self.node_ids.capacity() * size_of::<NodeId>();
        s += self.edge_ids.capacity() * size_of::<EdgeId>();
        s += self.edges.capacity() * size_of::<CEdge>();
        s += self.nodes.capacity() * size_of::<CNode>();
        for n in &self.nodes {
            s += (n.in_control.len() + n.in_sync.len() + n.out_nonloop.len() + n.out_control.len())
                * size_of::<u32>();
            s += (n.mandatory_reads.len() + n.read_signature.len() + n.declared_writes.len())
                * size_of::<DataId>();
            s += (n.loop_body_nodes.len() + n.loop_body_edges.len()) * size_of::<u32>();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;

    #[test]
    fn slots_round_trip_and_tables_match() {
        let mut b = SchemaBuilder::new("arena");
        let d = b.data("x", crate::data::ValueType::Int);
        let a = b.activity("a");
        b.write(a, d);
        b.and_split();
        b.branch();
        let p = b.activity("p");
        b.read(p, d);
        b.branch();
        b.activity("q");
        b.and_join();
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let c = CompiledSchema::compile(&s, &blocks);

        assert_eq!(c.node_count(), s.node_count());
        assert_eq!(c.edge_count(), s.edge_count());
        for (slot, &id) in c.node_ids.iter().enumerate() {
            assert_eq!(c.node_slot(id), Some(slot as u32));
            assert_eq!(c.node_id(slot as u32), id);
            assert_eq!(c.nodes[slot].kind, s.node(id).unwrap().kind);
        }
        let a_slot = c.node_slot(a).unwrap() as usize;
        assert_eq!(&*c.nodes[a_slot].declared_writes, &[d]);
        let p_slot = c.node_slot(p).unwrap() as usize;
        assert_eq!(&*c.nodes[p_slot].mandatory_reads, &[d]);
        assert_eq!(c.node_id(c.start), s.start_node());
        assert_eq!(c.node_id(c.end), s.end_node());
    }

    #[test]
    fn adjacency_order_is_preserved() {
        let mut b = SchemaBuilder::new("xor");
        b.xor_split();
        b.case();
        b.activity("first");
        b.case();
        b.activity("second");
        b.xor_join();
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let c = CompiledSchema::compile(&s, &blocks);
        let split = s.nodes().find(|n| n.kind == NodeKind::XorSplit).unwrap().id;
        let slot = c.node_slot(split).unwrap() as usize;
        let compiled_targets: Vec<NodeId> = c.nodes[slot]
            .out_control
            .iter()
            .map(|&e| c.node_id(c.edges[e as usize].to))
            .collect();
        let schema_targets: Vec<NodeId> = s
            .out_edges_kind(split, EdgeKind::Control)
            .map(|e| e.to)
            .collect();
        assert_eq!(compiled_targets, schema_targets);
    }

    #[test]
    fn loop_body_reset_tables() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(2));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let c = CompiledSchema::compile(&s, &blocks);
        let le = s.nodes().find(|n| n.kind == NodeKind::LoopEnd).unwrap().id;
        let slot = c.node_slot(le).unwrap() as usize;
        let n = &c.nodes[slot];
        assert_eq!(n.loop_cond, Some(LoopCond::Times(2)));
        assert!(n.loop_start.is_some());
        let body_ids: Vec<NodeId> = n.loop_body_nodes.iter().map(|&s| c.node_id(s)).collect();
        assert!(body_ids.contains(&body));
        assert!(body_ids.contains(&le));
        assert!(!n.loop_body_edges.is_empty());
    }
}
