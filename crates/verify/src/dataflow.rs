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
use crate::scope::InScope;
use adept_model::{
    AccessMode, BlockKind, Blocks, DataId, EdgeKind, LoopCond, NodeId, NodeKind, SchemaIndex,
};
use std::collections::BTreeMap;

/// Runs the data-flow checks of the elements in `scope`. `blocks` is the
/// block structure of exactly the indexed schema and `topo` a topological
/// order of its control + sync graph, by node slot (a schema without
/// either is reported by the structural and deadlock checkers and has no
/// data flow to analyse).
pub(crate) fn check_dataflow(
    index: &SchemaIndex<'_>,
    blocks: &Blocks,
    topo: &[u32],
    scope: &InScope,
) -> VerificationReport {
    let mut rep = VerificationReport::default();
    let definitely_written = DefinitelyWritten::compute(index, topo, blocks, scope);

    check_mandatory_reads(index, &definitely_written, scope, &mut rep);
    check_guard_reads(index, &definitely_written, scope, &mut rep);
    check_parallel_writes(index, blocks, topo, scope, &mut rep);
    check_unread_data(index, &definitely_written.data, &mut rep);
    rep
}

/// A table of bits with one row per node slot of an index.
struct NodeRows {
    /// `u64` words per row.
    words: usize,
    bits: Vec<u64>,
}

impl NodeRows {
    fn new(index: &SchemaIndex<'_>, columns: usize) -> Self {
        let words = columns.div_ceil(64);
        let bits = vec![0; index.node_count() * words];
        Self { words, bits }
    }

    fn words(&self, row: u32) -> &[u64] {
        let row = row as usize;
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    fn words_mut(&mut self, row: u32) -> &mut [u64] {
        let row = row as usize;
        &mut self.bits[row * self.words..(row + 1) * self.words]
    }

    fn set(&mut self, row: u32, column: usize) {
        self.words_mut(row)[column / 64] |= 1 << (column % 64);
    }

    fn get(&self, row: u32, column: usize) -> bool {
        self.words(row)[column / 64] & (1 << (column % 64)) != 0
    }
}

/// For every node, the set of data elements in scope that are guaranteed
/// to have been written before the node starts (first loop iteration
/// semantics: loop edges are excluded, so a loop body cannot rely on writes
/// of later body nodes) — one bit per data element.
///
/// Sync edges contribute their source's writes only when the source cannot
/// be skipped (it is not nested inside any conditional block): a skipped
/// sync source signals `FalseSignaled` and the target proceeds *without*
/// the write.
struct DefinitelyWritten {
    /// The declared data ids in scope, ascending; an element's position is
    /// its column.
    data: Vec<DataId>,
    before: NodeRows,
}

impl DefinitelyWritten {
    /// Whether `data` is definitely written before the node in slot `node`
    /// starts (`false` for an element the schema does not declare or the
    /// scope leaves out).
    fn contains(&self, node: u32, data: DataId) -> bool {
        let column = self.data.binary_search(&data);
        column.is_ok_and(|column| self.before.get(node, column))
    }

    /// One pass over `topo`, a topological order of the control + sync
    /// graph.
    fn compute(index: &SchemaIndex<'_>, topo: &[u32], blocks: &Blocks, scope: &InScope) -> Self {
        let declared = index.schema().data_elements().map(|d| d.id);
        let data: Vec<DataId> = declared.filter(|&d| scope.has_data(d)).collect();
        // What each node writes itself.
        let mut own = NodeRows::new(index, data.len());
        for n in 0..index.node_count() as u32 {
            for de in index
                .data_edges(n)
                .filter(|de| de.mode == AccessMode::Write)
            {
                if let Ok(column) = data.binary_search(&de.data) {
                    own.set(n, column);
                }
            }
        }
        let skippable = |n: NodeId| -> bool {
            blocks
                .enclosing(n)
                .iter()
                .any(|(s, _)| blocks.by_split[s].kind == BlockKind::Conditional)
        };
        let mut before = NodeRows::new(index, data.len());
        let (mut control, mut sync) = (vec![0u64; own.words], vec![0u64; own.words]);
        for &n in topo {
            // Incoming control edges of an XOR join are *alternatives*: only
            // one path is taken, so guarantees are intersected. Everywhere
            // else (sequences, AND joins) every incoming control edge has
            // fired before the node starts, so guarantees accumulate
            // (union). Sync edges are mandatory waits and always accumulate
            // — unless their source is skippable, in which case they
            // guarantee nothing.
            let alternatives = index.node(n).kind == NodeKind::XorJoin;
            let mut first_control = true;
            control.fill(0);
            sync.fill(0);
            for &e in index.inc(n) {
                let e = index.link(e);
                // What holds once `e.from` has completed.
                let after = before.words(e.from).iter().zip(own.words(e.from));
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
                    EdgeKind::Sync if skippable(e.edge.from) => {}
                    EdgeKind::Sync => sync.iter_mut().zip(after).for_each(|(s, a)| *s |= a),
                    EdgeKind::Loop => {} // first-iteration semantics
                }
            }
            let both = control.iter().zip(&sync).map(|(c, s)| c | s);
            before
                .words_mut(n)
                .iter_mut()
                .zip(both)
                .for_each(|(b, w)| *b = w);
        }
        Self { data, before }
    }
}

fn check_mandatory_reads(
    index: &SchemaIndex<'_>,
    dw: &DefinitelyWritten,
    scope: &InScope,
    rep: &mut VerificationReport,
) {
    let schema = index.schema();
    for de in schema.data_edges() {
        if de.mode != AccessMode::Read || de.optional || !scope.has_data(de.data) {
            continue;
        }
        let slot = index.slot(de.node);
        if !slot.is_some_and(|slot| dw.contains(slot, de.data)) {
            let node = slot.map(|slot| index.node(slot).name.clone());
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
                        "mandatory input \"{data}\" of activity \"{}\" may be unsupplied: {detail}",
                        node.unwrap_or_default()
                    ),
                )
                .with_nodes([de.node])
                .with_data([de.data]),
            );
        }
    }
}

fn check_guard_reads(
    index: &SchemaIndex<'_>,
    dw: &DefinitelyWritten,
    scope: &InScope,
    rep: &mut VerificationReport,
) {
    let check = |decider: u32, data: DataId, what: &str, rep: &mut VerificationReport| {
        if !scope.has_data(data) {
            return;
        }
        let available = dw.contains(decider, data)
            || index
                .data_edges(decider)
                .any(|w| w.mode == AccessMode::Write && w.data == data);
        if !available {
            let decider = index.node(decider).id;
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
    for l in index.links() {
        if let Some(g) = &l.edge.guard {
            check(l.from, g.data, "branch guard", rep);
        }
        if let Some(LoopCond::While(g)) = &l.edge.loop_cond {
            check(l.from, g.data, "loop condition", rep);
        }
    }
}

/// Which nodes lead to which over control + sync edges — column `i` of a
/// row is the node in slot `i` — filled in one reverse pass over a
/// topological order: every writer pair of [`check_parallel_writes`] then
/// costs two bit tests, not two walks.
fn reach(index: &SchemaIndex<'_>, topo: &[u32]) -> NodeRows {
    let mut reach = NodeRows::new(index, index.node_count());
    let words = reach.words;
    for &n in topo.iter().rev() {
        reach.set(n, n as usize);
        for &e in index.out(n) {
            let e = index.link(e);
            if e.kind == EdgeKind::Loop {
                continue;
            }
            let (at, to) = (n as usize * words, e.to as usize * words);
            for w in 0..words {
                reach.bits[at + w] |= reach.bits[to + w];
            }
        }
    }
    reach
}

fn check_parallel_writes(
    index: &SchemaIndex<'_>,
    blocks: &Blocks,
    topo: &[u32],
    scope: &InScope,
    rep: &mut VerificationReport,
) {
    let mut by_data: BTreeMap<DataId, Vec<NodeId>> = BTreeMap::new();
    for de in index.schema().data_edges() {
        if de.mode == AccessMode::Write && scope.has_data(de.data) {
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
                let (Some(sa), Some(sb)) = (index.slot(a), index.slot(b)) else {
                    continue;
                };
                let reach = reach_of.get_or_insert_with(|| reach(index, topo));
                if !reach.get(sa, sb as usize) && !reach.get(sb, sa as usize) {
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

/// `data` is the declared data ids in scope, ascending.
fn check_unread_data(index: &SchemaIndex<'_>, data: &[DataId], rep: &mut VerificationReport) {
    let schema = index.schema();
    // Per column: written, read (by an activity or a guard).
    let mut written = vec![false; data.len()];
    let mut read = vec![false; data.len()];
    let mark = |flags: &mut [bool], d: DataId| {
        if let Ok(column) = data.binary_search(&d) {
            flags[column] = true;
        }
    };
    for de in schema.data_edges() {
        match de.mode {
            AccessMode::Write => mark(&mut written, de.data),
            AccessMode::Read => mark(&mut read, de.data),
        }
    }
    for l in index.links() {
        if let Some(g) = &l.edge.guard {
            mark(&mut read, g.data);
        }
        if let Some(LoopCond::While(g)) = &l.edge.loop_cond {
            mark(&mut read, g.data);
        }
    }
    for (column, d) in data.iter().enumerate() {
        if written[column] && !read[column] {
            let d = schema
                .data_element(*d)
                .expect("data holds declared elements");
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
    use adept_model::graph::EdgeFilter;
    use adept_model::{ProcessSchema, SchemaBuilder, ValueType};

    fn check_dataflow(schema: &ProcessSchema) -> VerificationReport {
        let index = SchemaIndex::of(schema);
        let topo = index.topo(EdgeFilter::CONTROL_SYNC).unwrap();
        let scope = InScope::resolve(&crate::Scope::WHOLE, &index);
        super::check_dataflow(&index, &Blocks::analyze(schema).unwrap(), &topo, &scope)
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
