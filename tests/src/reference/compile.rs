//! The arena compile the way it was first written — per node, four
//! id-keyed adjacency walks, three scans of the schema's data edges, a
//! boxed slice per table, and per loop end a scan of every edge against
//! the body's `BTreeSet`. Nothing under `crates/` depends on this module;
//! it is the oracle `arena_oracle.rs` holds
//! `adept_model::CompiledSchema::compile` to, slot by slot.
//!
//! The body is the one `crates/model/src/compiled.rs` carried before the
//! arena moved to pooled rows, moved here verbatim; only the node type is
//! local ([`ReferenceNode`]: the production `CNode` keeps its rows in the
//! arena's pools).

use adept_model::{
    Blocks, CEdge, DataId, EdgeId, EdgeKind, LoopCond, NodeId, NodeKind, ProcessSchema,
};

/// One node of a [`ReferenceArena`], every table inline.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceNode {
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
    /// Outgoing non-loop edge slots (control + sync), adjacency order.
    pub out_nonloop: Box<[u32]>,
    /// Outgoing control-edge slots in adjacency order.
    pub out_control: Box<[u32]>,
    /// Whether any outgoing control edge carries a guard.
    pub has_guards: bool,
    /// Mandatory read parameters, in schema declaration order.
    pub mandatory_reads: Box<[DataId]>,
    /// The sorted mandatory read signature.
    pub read_signature: Box<[DataId]>,
    /// Declared write parameters, in schema declaration order.
    pub declared_writes: Box<[DataId]>,
    /// Loop continuation condition (loop ends only).
    pub loop_cond: Option<LoopCond>,
    /// Slot of the loop start this loop end jumps back to.
    pub loop_start: Option<u32>,
    /// Loop-body node slots reset on iteration.
    pub loop_body_nodes: Box<[u32]>,
    /// Intra-body edge slots reset on iteration.
    pub loop_body_edges: Box<[u32]>,
}

/// What [`compile_reference`] builds: the arena with per-node tables.
#[derive(Debug, Clone)]
pub struct ReferenceArena {
    /// Interned node ids, ascending.
    pub node_ids: Vec<NodeId>,
    /// Interned edge ids, ascending.
    pub edge_ids: Vec<EdgeId>,
    /// Per-slot node tables.
    pub nodes: Vec<ReferenceNode>,
    /// Per-slot edge tables.
    pub edges: Vec<CEdge>,
    /// Slot of the unique start node.
    pub start: u32,
    /// Slot of the unique end node.
    pub end: u32,
}

/// Compiles a schema and its block structure, one node at a time.
pub fn compile_reference(schema: &ProcessSchema, blocks: &Blocks) -> ReferenceArena {
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

    let nodes: Vec<ReferenceNode> = node_ids
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

            ReferenceNode {
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
    ReferenceArena {
        node_ids,
        edge_ids,
        nodes,
        edges,
        start,
        end,
    }
}
