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
//! The tables are *pooled*: one vector per row kind — edge slots, data
//! ids, loop-body slots — cut into rows by an offset table, several rows
//! per node, read through accessors such as [`CompiledSchema::in_control`].
//! A compile is one pass over the schema's [`SchemaIndex`] — the one its
//! block analysis walked, when `adept_state::Execution` builds both: per
//! node it copies its adjacency and data rows out of the index, and per
//! loop end it marks the body in a membership bitmap and collects the
//! edges among the marked nodes — O(N + E + D) in all, plus the loop
//! bodies.
//!
//! The arena is plain data: build it once per schema, wrap it in an
//! `Arc`, and share it — across every unbiased instance of a committed
//! version, or across the commands of one biased instance, whose
//! materialised (overlaid) schema gets an arena of its own. The compact
//! execution layer in `adept-state` runs the ADEPT2 semantics directly on
//! these slots.

use crate::blocks::Blocks;
use crate::data::AccessMode;
use crate::edge::{EdgeKind, Guard, LoopCond};
use crate::ids::{DataId, EdgeId, NodeId};
use crate::index::{Pool, SchemaIndex};
use crate::node::NodeKind;
use crate::schema::ProcessSchema;

/// The per-node scalars of a compiled schema; the node's rows are read
/// through the arena's accessors ([`CompiledSchema::in_control`] and the
/// rest).
#[derive(Debug, Clone, PartialEq)]
pub struct CNode {
    /// The schema-level node id this slot interns.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Whether the node auto-completes (splits, joins, null tasks).
    pub silent: bool,
    /// Whether any outgoing control edge carries a guard (XOR splits with
    /// guards decide automatically; unguarded ones await a decision).
    pub has_guards: bool,
    /// Loop continuation condition (loop ends only).
    pub loop_cond: Option<LoopCond>,
    /// Slot of the loop start this loop end jumps back to.
    pub loop_start: Option<u32>,
}

/// One edge of a compiled schema.
#[derive(Debug, Clone, PartialEq)]
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

/// Rows per node in the edge-slot table: incoming control, incoming sync,
/// outgoing non-loop, outgoing control.
const EDGE_ROWS: usize = 4;
/// Rows per node in the data table: mandatory reads, read signature,
/// declared writes.
const DATA_ROWS: usize = 3;
/// Rows per node in the loop-body table: body nodes, body edges.
const BODY_ROWS: usize = 2;

/// A committed schema version compiled to flat arrays — the immutable
/// execution core shared (`Arc`-wrapped) by every unbiased instance of
/// that version. See the module docs for what is precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSchema {
    /// Interned node ids, ascending — slot `i` is `node_ids[i]`.
    pub node_ids: Vec<NodeId>,
    /// Interned edge ids, ascending — slot `i` is `edge_ids[i]`.
    pub edge_ids: Vec<EdgeId>,
    /// Per-slot node scalars, parallel to `node_ids`.
    pub nodes: Vec<CNode>,
    /// Per-slot edge tables, parallel to `edge_ids`.
    pub edges: Vec<CEdge>,
    /// Slot of the unique start node.
    pub start: u32,
    /// Slot of the unique end node.
    pub end: u32,
    /// Edge slots, [`EDGE_ROWS`] rows per node.
    edge_rows: Pool<u32>,
    /// Data ids, [`DATA_ROWS`] rows per node.
    data_rows: Pool<DataId>,
    /// Loop-body slots, [`BODY_ROWS`] rows per node (empty but for loop
    /// ends with a body).
    body_rows: Pool<u32>,
}

impl CompiledSchema {
    /// Compiles a schema and its block structure into an arena.
    ///
    /// The schema must be structurally sound (builder-produced /
    /// verifier-approved) — in particular it must have exactly one start
    /// and one end node (`adept_state::Execution::new` refuses a schema
    /// that does not before compiling it), and `blocks` must be its block
    /// structure.
    pub fn compile(schema: &ProcessSchema, blocks: &Blocks) -> Self {
        Self::compile_indexed(&SchemaIndex::of(schema), blocks)
    }

    /// [`CompiledSchema::compile`] over an index of the schema — for the
    /// builder of an analysed schema, whose block analysis (and
    /// verification) walked the same index.
    pub fn compile_indexed(index: &SchemaIndex<'_>, blocks: &Blocks) -> Self {
        let links = index.links();
        let n = index.node_count();
        let mut nodes = Vec::with_capacity(n);
        let mut edge_rows = Pool::with_capacity(EDGE_ROWS * n, 3 * links.len());
        let data_edges = index.schema().data_edges().len();
        let mut data_rows = Pool::with_capacity(DATA_ROWS * n, 2 * data_edges);
        let mut body_rows = Pool::with_capacity(BODY_ROWS * n, 0);
        let mut in_body = vec![false; n];
        let mut body = Vec::new();
        for slot in 0..n as u32 {
            let node = index.node(slot);
            let kind_of = |e: u32| index.link(e).kind;
            let (inc, out) = (index.inc(slot), index.out(slot));
            edge_rows.extend(
                inc.iter()
                    .copied()
                    .filter(|&e| kind_of(e) == EdgeKind::Control),
            );
            edge_rows.close();
            edge_rows.extend(
                inc.iter()
                    .copied()
                    .filter(|&e| kind_of(e) == EdgeKind::Sync),
            );
            edge_rows.close();
            edge_rows.extend(
                out.iter()
                    .copied()
                    .filter(|&e| kind_of(e) != EdgeKind::Loop),
            );
            edge_rows.close();
            edge_rows.extend(
                out.iter()
                    .copied()
                    .filter(|&e| kind_of(e) == EdgeKind::Control),
            );
            edge_rows.close();
            let has_guards = out
                .iter()
                .map(|&e| index.link(e))
                .any(|l| l.kind == EdgeKind::Control && l.edge.guard.is_some());

            let mandatory = || {
                let reads = index
                    .data_edges(slot)
                    .filter(|de| de.mode == AccessMode::Read);
                reads.filter(|de| !de.optional).map(|de| de.data)
            };
            data_rows.extend(mandatory());
            data_rows.close();
            data_rows.extend(mandatory());
            data_rows.open_row().sort_unstable();
            data_rows.close();
            let writes = index
                .data_edges(slot)
                .filter(|de| de.mode == AccessMode::Write);
            data_rows.extend(writes.map(|de| de.data));
            data_rows.close();

            // Loop-end metadata: the back edge names the loop start, the
            // block structure names the body to reset.
            let back = out
                .iter()
                .map(|&e| index.link(e))
                .find(|l| l.kind == EdgeKind::Loop);
            let info = back.and_then(|l| blocks.by_split.get(&l.edge.to));
            if let (Some(back), Some(info)) = (back, info) {
                let member = |n: &NodeId| {
                    let at = index.slot(*n);
                    at.expect("invariant: the blocks are the analysis of this schema")
                };
                body.clear();
                body.extend([back.to, slot]);
                body.extend(info.branches.iter().flatten().map(member));
                body.sort_unstable();
                body.dedup();
                body.iter().for_each(|&m| in_body[m as usize] = true);
                body_rows.extend(body.iter().copied());
                body_rows.close();
                for &m in &body {
                    let inside = index.out(m).iter().copied();
                    body_rows.extend(inside.filter(|&e| in_body[index.link(e).to as usize]));
                }
                body_rows.open_row().sort_unstable();
                body_rows.close();
                body.iter().for_each(|&m| in_body[m as usize] = false);
            } else {
                body_rows.close();
                body_rows.close();
            }

            nodes.push(CNode {
                id: node.id,
                kind: node.kind,
                silent: node.kind.is_silent(),
                has_guards,
                loop_cond: back.and_then(|l| l.edge.loop_cond.clone()),
                loop_start: back.map(|l| l.to),
            });
        }

        let edges = links.iter().map(|l| CEdge {
            id: l.edge.id,
            from: l.from,
            to: l.to,
            kind: l.kind,
            guard: l.edge.guard.clone(),
        });
        let terminal = |kind| {
            let at = index.first(kind);
            at.expect("invariant: Execution::new refuses a schema without a start and an end")
        };
        Self {
            node_ids: index.ids().to_vec(),
            edge_ids: links.iter().map(|l| l.edge.id).collect(),
            nodes,
            edges: edges.collect(),
            start: terminal(NodeKind::Start),
            end: terminal(NodeKind::End),
            edge_rows,
            data_rows,
            body_rows,
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

    /// Incoming control-edge slots of a node.
    #[inline]
    pub fn in_control(&self, slot: u32) -> &[u32] {
        self.edge_rows.row(slot as usize * EDGE_ROWS)
    }

    /// Incoming sync-edge slots of a node.
    #[inline]
    pub fn in_sync(&self, slot: u32) -> &[u32] {
        self.edge_rows.row(slot as usize * EDGE_ROWS + 1)
    }

    /// Outgoing non-loop edge slots (control + sync) of a node, adjacency
    /// order — exactly what completing or skipping it signals.
    #[inline]
    pub fn out_nonloop(&self, slot: u32) -> &[u32] {
        self.edge_rows.row(slot as usize * EDGE_ROWS + 2)
    }

    /// Outgoing control-edge slots of a node in adjacency order
    /// (first-match guard evaluation and XOR branch targets depend on this
    /// order).
    #[inline]
    pub fn out_control(&self, slot: u32) -> &[u32] {
        self.edge_rows.row(slot as usize * EDGE_ROWS + 3)
    }

    /// Mandatory (non-optional) read parameters of a node, in schema
    /// declaration order — the order `MissingInput` errors surface in.
    #[inline]
    pub fn mandatory_reads(&self, slot: u32) -> &[DataId] {
        self.data_rows.row(slot as usize * DATA_ROWS)
    }

    /// The sorted mandatory read signature recorded in `Started` events.
    #[inline]
    pub fn read_signature(&self, slot: u32) -> &[DataId] {
        self.data_rows.row(slot as usize * DATA_ROWS + 1)
    }

    /// Declared write parameters of a node, in schema declaration order.
    #[inline]
    pub fn declared_writes(&self, slot: u32) -> &[DataId] {
        self.data_rows.row(slot as usize * DATA_ROWS + 2)
    }

    /// Loop-body node slots (including loop start and end, ascending) a
    /// loop end resets on iteration. Empty when the node is no loop end or
    /// the block structure carries no body for it.
    #[inline]
    pub fn loop_body_nodes(&self, slot: u32) -> &[u32] {
        self.body_rows.row(slot as usize * BODY_ROWS)
    }

    /// Intra-body edge slots (all kinds, ascending) a loop end resets on
    /// iteration.
    #[inline]
    pub fn loop_body_edges(&self, slot: u32) -> &[u32] {
        self.body_rows.row(slot as usize * BODY_ROWS + 1)
    }

    /// Approximate deep size in bytes (for memory accounting).
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.node_ids.capacity() * size_of::<NodeId>()
            + self.edge_ids.capacity() * size_of::<EdgeId>()
            + self.edges.capacity() * size_of::<CEdge>()
            + self.nodes.capacity() * size_of::<CNode>()
            + self.edge_rows.heap_size()
            + self.data_rows.heap_size()
            + self.body_rows.heap_size()
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
        assert_eq!(c.declared_writes(a_slot as u32), &[d]);
        let p_slot = c.node_slot(p).unwrap() as usize;
        assert_eq!(c.mandatory_reads(p_slot as u32), &[d]);
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
        let slot = c.node_slot(split).unwrap();
        let compiled_targets: Vec<NodeId> = c
            .out_control(slot)
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
        let slot = c.node_slot(le).unwrap();
        let n = &c.nodes[slot as usize];
        assert_eq!(n.loop_cond, Some(LoopCond::Times(2)));
        assert!(n.loop_start.is_some());
        let body_ids: Vec<NodeId> = c
            .loop_body_nodes(slot)
            .iter()
            .map(|&s| c.node_id(s))
            .collect();
        assert!(body_ids.contains(&body));
        assert!(body_ids.contains(&le));
        assert!(!c.loop_body_edges(slot).is_empty());
    }
}
