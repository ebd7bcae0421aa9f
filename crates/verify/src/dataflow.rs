//! Data-flow analysis: missing input data, parallel write conflicts and
//! unread data elements.
//!
//! ADEPT2's buildtime checks prove that every mandatory input parameter of
//! every activity is *definitely written* before the activity can start —
//! on every path, across XOR branches, and without relying on concurrent
//! (unordered) writes. Deleting an activity at runtime re-runs this
//! analysis, which is how the system detects the "missing data" problem the
//! paper mentions for activity deletions.

use crate::report::{Issue, IssueKind, VerificationReport};
use adept_model::{
    AccessMode, BlockKind, Blocks, DataId, EdgeKind, LoopCond, NodeId, NodeKind, ProcessSchema,
};
use std::collections::{BTreeMap, BTreeSet};

/// Runs all data-flow checks. `blocks` is the block structure of exactly
/// `schema` and `topo` a topological order of its control + sync graph (a
/// schema without either is reported by the structural and deadlock
/// checkers and has no data flow to analyse).
pub fn check_dataflow(
    schema: &ProcessSchema,
    blocks: &Blocks,
    topo: &[NodeId],
) -> VerificationReport {
    let mut rep = VerificationReport::default();
    let definitely_written = DefinitelyWritten::compute(schema, topo, blocks);

    check_mandatory_reads(schema, &definitely_written, &mut rep);
    check_guard_reads(schema, &definitely_written, &mut rep);
    check_parallel_writes(schema, blocks, topo, &mut rep);
    check_unread_data(schema, &mut rep);
    rep
}

/// A table of bits with one row per node of a schema.
struct NodeRows {
    /// Node ids, ascending; a node's position is its row.
    nodes: Vec<NodeId>,
    /// `u64` words per row.
    words: usize,
    bits: Vec<u64>,
}

impl NodeRows {
    fn new(schema: &ProcessSchema, columns: usize) -> Self {
        let nodes: Vec<NodeId> = schema.node_ids().collect();
        let words = columns.div_ceil(64);
        let bits = vec![0; nodes.len() * words];
        Self { nodes, words, bits }
    }

    /// The row of a node of the schema.
    fn row(&self, n: NodeId) -> usize {
        self.nodes.binary_search(&n).expect("edge endpoints exist")
    }

    fn words(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    fn words_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.bits[row * self.words..(row + 1) * self.words]
    }

    fn set(&mut self, row: usize, column: usize) {
        self.words_mut(row)[column / 64] |= 1 << (column % 64);
    }

    /// Whether `column` is set in the row of `n` (`false` for a stranger).
    fn get(&self, n: NodeId, column: usize) -> bool {
        let row = self.nodes.binary_search(&n);
        row.is_ok_and(|row| self.words(row)[column / 64] & (1 << (column % 64)) != 0)
    }
}

/// For every node, the set of data elements that are guaranteed to have
/// been written before the node starts (first loop iteration semantics:
/// loop edges are excluded, so a loop body cannot rely on writes of later
/// body nodes) — one bit per data element.
///
/// Sync edges contribute their source's writes only when the source cannot
/// be skipped (it is not nested inside any conditional block): a skipped
/// sync source signals `FalseSignaled` and the target proceeds *without*
/// the write.
struct DefinitelyWritten {
    /// Data ids, ascending; an element's position is its column.
    data: Vec<DataId>,
    before: NodeRows,
}

impl DefinitelyWritten {
    /// Whether `data` is definitely written before `node` starts.
    fn contains(&self, node: NodeId, data: DataId) -> bool {
        let column = self.data.binary_search(&data);
        column.is_ok_and(|column| self.before.get(node, column))
    }

    /// One pass over `topo`, a topological order of the control + sync
    /// graph.
    fn compute(schema: &ProcessSchema, topo: &[NodeId], blocks: &Blocks) -> Self {
        let data: Vec<DataId> = schema.data_elements().map(|d| d.id).collect();
        // What each node writes itself.
        let mut own = NodeRows::new(schema, data.len());
        for de in schema.data_edges() {
            if de.mode == AccessMode::Write {
                let column = data.binary_search(&de.data);
                own.set(own.row(de.node), column.expect("data edges name elements"));
            }
        }
        let skippable = |n: NodeId| -> bool {
            blocks
                .enclosing(n)
                .iter()
                .any(|(s, _)| blocks.by_split[s].kind == BlockKind::Conditional)
        };
        let mut before = NodeRows::new(schema, data.len());
        let (mut control, mut sync) = (vec![0u64; own.words], vec![0u64; own.words]);
        for &n in topo {
            // Incoming control edges of an XOR join are *alternatives*: only
            // one path is taken, so guarantees are intersected. Everywhere
            // else (sequences, AND joins) every incoming control edge has
            // fired before the node starts, so guarantees accumulate
            // (union). Sync edges are mandatory waits and always accumulate
            // — unless their source is skippable, in which case they
            // guarantee nothing.
            let alternatives = schema.node(n).map(|x| x.kind) == Ok(NodeKind::XorJoin);
            let mut first_control = true;
            control.fill(0);
            sync.fill(0);
            for e in schema.in_edges(n) {
                let from = own.row(e.from);
                // What holds once `e.from` has completed.
                let after = before.words(from).iter().zip(own.words(from));
                let after = after.map(|(before, own)| before | own);
                match e.kind {
                    EdgeKind::Control if first_control => {
                        first_control = false;
                        control.iter_mut().zip(after).for_each(|(c, a)| *c = a);
                    }
                    EdgeKind::Control if alternatives => {
                        control.iter_mut().zip(after).for_each(|(c, a)| *c &= a);
                    }
                    EdgeKind::Control => control.iter_mut().zip(after).for_each(|(c, a)| *c |= a),
                    // A source that may be skipped guarantees nothing.
                    EdgeKind::Sync if skippable(e.from) => {}
                    EdgeKind::Sync => sync.iter_mut().zip(after).for_each(|(s, a)| *s |= a),
                    EdgeKind::Loop => {} // first-iteration semantics
                }
            }
            let at = before.row(n);
            let both = control.iter().zip(&sync).map(|(c, s)| c | s);
            before
                .words_mut(at)
                .iter_mut()
                .zip(both)
                .for_each(|(b, w)| *b = w);
        }
        Self { data, before }
    }
}

fn check_mandatory_reads(
    schema: &ProcessSchema,
    dw: &DefinitelyWritten,
    rep: &mut VerificationReport,
) {
    for de in schema.data_edges() {
        if de.mode != AccessMode::Read || de.optional {
            continue;
        }
        if !dw.contains(de.node, de.data) {
            let node = schema
                .node(de.node)
                .map(|n| n.name.clone())
                .unwrap_or_default();
            let data = schema
                .data_element(de.data)
                .map(|d| d.name.clone())
                .unwrap_or_default();
            let detail = if schema.writers_of(de.data).next().is_none() {
                "no activity writes it at all"
            } else {
                "not written on every path before the read"
            };
            rep.push(
                Issue::error(
                    IssueKind::MissingInputData,
                    format!(
                        "mandatory input \"{data}\" of activity \"{node}\" may be unsupplied: {detail}"
                    ),
                )
                .with_nodes([de.node])
                .with_data([de.data]),
            );
        }
    }
}

fn check_guard_reads(schema: &ProcessSchema, dw: &DefinitelyWritten, rep: &mut VerificationReport) {
    let check = |decider: NodeId, data: DataId, what: &str, rep: &mut VerificationReport| {
        let available =
            dw.contains(decider, data) || schema.writes_of(decider).any(|w| w.data == data);
        if !available {
            rep.push(
                Issue::error(
                    IssueKind::MissingInputData,
                    format!("{what} at {decider} reads {data}, which may be unwritten"),
                )
                .with_nodes([decider])
                .with_data([data]),
            );
        }
    };
    for e in schema.edges() {
        if let Some(g) = &e.guard {
            check(e.from, g.data, "branch guard", rep);
        }
        if let Some(LoopCond::While(g)) = &e.loop_cond {
            check(e.from, g.data, "loop condition", rep);
        }
    }
}

/// Which nodes lead to which over control + sync edges — column `i` of a
/// row is the node of row `i` — filled in one reverse pass over a
/// topological order: every writer pair of [`check_parallel_writes`] then
/// costs two bit tests, not two walks.
fn reach(schema: &ProcessSchema, topo: &[NodeId]) -> NodeRows {
    let mut reach = NodeRows::new(schema, schema.node_count());
    for &n in topo.iter().rev() {
        let at = reach.row(n);
        reach.set(at, at);
        for e in schema.out_edges(n).filter(|e| e.kind != EdgeKind::Loop) {
            let to = reach.row(e.to);
            for w in 0..reach.words {
                reach.bits[at * reach.words + w] |= reach.bits[to * reach.words + w];
            }
        }
    }
    reach
}

fn check_parallel_writes(
    schema: &ProcessSchema,
    blocks: &Blocks,
    topo: &[NodeId],
    rep: &mut VerificationReport,
) {
    let mut by_data: BTreeMap<DataId, Vec<NodeId>> = BTreeMap::new();
    for de in schema.data_edges() {
        if de.mode == AccessMode::Write {
            by_data.entry(de.data).or_default().push(de.node);
        }
    }
    // Built for the first pair that needs it: most schemas have none.
    let mut reach_of: Option<NodeRows> = None;
    for (d, writers) in by_data {
        for i in 0..writers.len() {
            for j in (i + 1)..writers.len() {
                let (a, b) = (writers[i], writers[j]);
                if blocks.parallel_separator(a, b).is_none() {
                    continue;
                }
                let reach = reach_of.get_or_insert_with(|| reach(schema, topo));
                if !reach.get(a, reach.row(b)) && !reach.get(b, reach.row(a)) {
                    rep.push(
                        Issue::warning(
                            IssueKind::ParallelWriteConflict,
                            format!(
                                "nodes {a} and {b} write {d} concurrently; the final value is non-deterministic (add a sync edge to order them)"
                            ),
                        )
                        .with_nodes([a, b])
                        .with_data([d]),
                    );
                }
            }
        }
    }
}

fn check_unread_data(schema: &ProcessSchema, rep: &mut VerificationReport) {
    let mut guard_used: BTreeSet<DataId> = BTreeSet::new();
    for e in schema.edges() {
        if let Some(g) = &e.guard {
            guard_used.insert(g.data);
        }
        if let Some(LoopCond::While(g)) = &e.loop_cond {
            guard_used.insert(g.data);
        }
    }
    for d in schema.data_elements() {
        let has_writer = schema.writers_of(d.id).next().is_some();
        let has_reader = schema.readers_of(d.id).next().is_some() || guard_used.contains(&d.id);
        if has_writer && !has_reader {
            rep.push(
                Issue::warning(
                    IssueKind::UnreadData,
                    format!("data element \"{}\" is written but never read", d.name),
                )
                .with_data([d.id]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::graph::{self, EdgeFilter};
    use adept_model::{SchemaBuilder, ValueType};

    fn check_dataflow(schema: &ProcessSchema) -> VerificationReport {
        let topo = graph::topo_order(schema, EdgeFilter::CONTROL_SYNC).unwrap();
        super::check_dataflow(schema, &Blocks::analyze(schema).unwrap(), &topo)
    }

    #[test]
    fn straight_line_write_then_read_ok() {
        let mut b = SchemaBuilder::new("ok");
        let d = b.data("x", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        let r = b.activity("r");
        b.read(r, d);
        let s = b.build().unwrap();
        let rep = check_dataflow(&s);
        assert!(rep.is_correct(), "{rep}");
    }

    #[test]
    fn read_before_any_write_is_missing_input() {
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", ValueType::Int);
        let r = b.activity("r");
        b.read(r, d);
        let w = b.activity("w");
        b.write(w, d);
        let s = b.build().unwrap();
        let rep = check_dataflow(&s);
        assert!(rep.has(IssueKind::MissingInputData));
    }

    #[test]
    fn write_on_one_xor_branch_only_is_missing_input() {
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", ValueType::Int);
        b.xor_split();
        b.case();
        let w = b.activity("w");
        b.write(w, d);
        b.case();
        b.activity("other");
        b.xor_join();
        let r = b.activity("r");
        b.read(r, d);
        let s = b.build().unwrap();
        let rep = check_dataflow(&s);
        assert!(rep.has(IssueKind::MissingInputData));
    }

    #[test]
    fn write_on_both_xor_branches_is_ok() {
        let mut b = SchemaBuilder::new("ok");
        let d = b.data("x", ValueType::Int);
        b.xor_split();
        b.case();
        let w1 = b.activity("w1");
        b.write(w1, d);
        b.case();
        let w2 = b.activity("w2");
        b.write(w2, d);
        b.xor_join();
        let r = b.activity("r");
        b.read(r, d);
        let s = b.build().unwrap();
        assert!(check_dataflow(&s).is_correct());
    }

    #[test]
    fn concurrent_write_does_not_satisfy_read() {
        // Writer in one parallel branch, reader in the sibling branch:
        // without a sync edge the write is not guaranteed to precede.
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", ValueType::Int);
        b.and_split();
        b.branch();
        let w = b.activity("w");
        b.write(w, d);
        b.branch();
        let r = b.activity("r");
        b.read(r, d);
        b.and_join();
        let s = b.build().unwrap();
        assert!(check_dataflow(&s).has(IssueKind::MissingInputData));
    }

    #[test]
    fn sync_edge_makes_concurrent_write_safe() {
        let mut b = SchemaBuilder::new("ok");
        let d = b.data("x", ValueType::Int);
        b.and_split();
        b.branch();
        let w = b.activity("w");
        b.write(w, d);
        b.branch();
        let r = b.activity("r");
        b.read(r, d);
        b.and_join();
        b.sync(w, r);
        let s = b.build().unwrap();
        let rep = check_dataflow(&s);
        assert!(rep.is_correct(), "{rep}");
    }

    #[test]
    fn sync_from_skippable_source_is_no_guarantee() {
        // The writer sits inside an XOR branch of a nested conditional in a
        // parallel branch; if the other case is taken it is skipped and the
        // sync edge fires FalseSignaled — the reader would see Null.
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", ValueType::Int);
        b.and_split();
        b.branch();
        b.xor_split();
        b.case();
        let w = b.activity("w");
        b.write(w, d);
        b.case();
        b.activity("skip");
        b.xor_join();
        b.branch();
        let r = b.activity("r");
        b.read(r, d);
        b.and_join();
        b.sync(w, r);
        let s = b.build().unwrap();
        assert!(check_dataflow(&s).has(IssueKind::MissingInputData));
    }

    #[test]
    fn parallel_writers_warn() {
        let mut b = SchemaBuilder::new("warn");
        let d = b.data("x", ValueType::Int);
        b.and_split();
        b.branch();
        let w1 = b.activity("w1");
        b.write(w1, d);
        b.branch();
        let w2 = b.activity("w2");
        b.write(w2, d);
        b.and_join();
        let r = b.activity("r");
        b.read(r, d);
        let s = b.build().unwrap();
        let rep = check_dataflow(&s);
        assert!(rep.has(IssueKind::ParallelWriteConflict));
        assert!(rep.is_correct(), "conflict is a warning, not an error");
    }

    #[test]
    fn unread_data_warns() {
        let mut b = SchemaBuilder::new("warn");
        let d = b.data("x", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        let s = b.build().unwrap();
        assert!(check_dataflow(&s).has(IssueKind::UnreadData));
    }

    #[test]
    fn loop_body_cannot_rely_on_its_own_later_writes() {
        let mut b = SchemaBuilder::new("bad");
        let d = b.data("x", ValueType::Int);
        b.loop_start();
        let r = b.activity("r");
        b.read(r, d);
        let w = b.activity("w");
        b.write(w, d);
        b.loop_end(adept_model::LoopCond::Times(2));
        let s = b.build().unwrap();
        assert!(check_dataflow(&s).has(IssueKind::MissingInputData));
    }
}
