//! The analysis the way it was first written — set-valued, quadratic, easy
//! to audit: `BTreeSet` postdominator sets intersected to a fixpoint, every
//! block's interior re-derived per node, one breadth-first walk per
//! reachability question — and the verifier's checks over it. Nothing under
//! `crates/` depends on this module; it is the oracle `analysis_oracle.rs`
//! holds `adept_model::Blocks::analyze`,
//! `adept_model::graph::immediate_postdominators` and
//! `adept_verify::verify_schema` to, on well-formed and on deliberately
//! damaged schemas alike.
//!
//! The bodies are the ones `crates/model/src/{graph,blocks}.rs` and
//! `crates/verify/src/{structural,deadlock,dataflow}.rs` carried before
//! they went linear, moved here verbatim; only [`Blocks`] is a local type
//! (the production one keeps its `enclosing` table private).

use adept_model::blocks::{BlockError, BlockInfo, BlockKind};
use adept_model::graph::{Cycle, EdgeFilter};
use adept_model::{AccessMode, DataId, EdgeKind, LoopCond, NodeId, NodeKind, ProcessSchema};
use adept_verify::{Issue, IssueKind, VerificationReport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ----------------------------------------------------------------------
// Graph algorithms
// ----------------------------------------------------------------------

/// Topologically sorts the nodes of the schema over the admitted edges
/// (Kahn's algorithm). Deterministic: ready nodes are processed in id order.
pub fn topo_order(schema: &ProcessSchema, filter: EdgeFilter) -> Result<Vec<NodeId>, Cycle> {
    let mut indeg: BTreeMap<NodeId, usize> = schema.node_ids().map(|n| (n, 0)).collect();
    for e in schema.edges().filter(|e| filter.admits(e.kind)) {
        *indeg.get_mut(&e.to).expect("edge target exists") += 1;
    }
    // BTreeSet keeps the frontier sorted -> deterministic order.
    let mut ready: BTreeSet<NodeId> = indeg
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(n, _)| *n)
        .collect();
    let mut order = Vec::with_capacity(indeg.len());
    while let Some(&n) = ready.iter().next() {
        ready.remove(&n);
        order.push(n);
        for e in schema.out_edges(n).filter(|e| filter.admits(e.kind)) {
            let d = indeg.get_mut(&e.to).expect("edge target exists");
            *d -= 1;
            if *d == 0 {
                ready.insert(e.to);
            }
        }
    }
    if order.len() == indeg.len() {
        Ok(order)
    } else {
        let placed: BTreeSet<NodeId> = order.iter().copied().collect();
        Err(Cycle {
            nodes: schema.node_ids().filter(|n| !placed.contains(n)).collect(),
        })
    }
}

/// Whether the schema is acyclic over the admitted edges.
pub fn is_acyclic(schema: &ProcessSchema, filter: EdgeFilter) -> bool {
    topo_order(schema, filter).is_ok()
}

/// Forward-reachable set from `from` (inclusive) over the admitted edges.
pub fn reachable_from(
    schema: &ProcessSchema,
    from: NodeId,
    filter: EdgeFilter,
) -> BTreeSet<NodeId> {
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::new();
    if schema.has_node(from) {
        seen.insert(from);
        queue.push_back(from);
    }
    while let Some(n) = queue.pop_front() {
        for e in schema.out_edges(n).filter(|e| filter.admits(e.kind)) {
            if seen.insert(e.to) {
                queue.push_back(e.to);
            }
        }
    }
    seen
}

/// Backward-reachable set from `from` (inclusive) over the admitted edges.
pub fn reaching_to(schema: &ProcessSchema, to: NodeId, filter: EdgeFilter) -> BTreeSet<NodeId> {
    let mut seen = BTreeSet::new();
    let mut queue = VecDeque::new();
    if schema.has_node(to) {
        seen.insert(to);
        queue.push_back(to);
    }
    while let Some(n) = queue.pop_front() {
        for e in schema.in_edges(n).filter(|e| filter.admits(e.kind)) {
            if seen.insert(e.from) {
                queue.push_back(e.from);
            }
        }
    }
    seen
}

/// Whether a path from `a` to `b` exists over the admitted edges.
pub fn path_exists(schema: &ProcessSchema, a: NodeId, b: NodeId, filter: EdgeFilter) -> bool {
    if a == b {
        return true;
    }
    reachable_from(schema, a, filter).contains(&b)
}

/// Computes the immediate postdominator of every node over the control
/// backbone, with `exit` as the sink (normally the `End` node).
///
/// In a block-structured schema the immediate postdominator of a split node
/// is exactly its matching join, which is how [`Blocks`] recovers the
/// block structure of arbitrarily changed schemas.
///
/// Uses the classic iterative set-intersection formulation; schemas are
/// small (tens to a few hundred nodes), so the simple O(N²) data-flow
/// iteration is more than fast enough and easy to audit.
pub fn immediate_postdominators(schema: &ProcessSchema, exit: NodeId) -> BTreeMap<NodeId, NodeId> {
    let order = match topo_order(schema, EdgeFilter::CONTROL) {
        Ok(o) => o,
        Err(_) => return BTreeMap::new(), // cyclic control backbone: malformed
    };
    let all: BTreeSet<NodeId> = schema.node_ids().collect();
    let mut pdom: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for &n in &all {
        if n == exit {
            pdom.insert(n, std::iter::once(n).collect());
        } else {
            pdom.insert(n, all.clone());
        }
    }
    // Process in reverse topological order; one extra sweep confirms the
    // fixpoint (on a DAG a single reverse-topo pass suffices, but the loop
    // is cheap and robust).
    let mut changed = true;
    while changed {
        changed = false;
        for &n in order.iter().rev() {
            if n == exit {
                continue;
            }
            let mut acc: Option<BTreeSet<NodeId>> = None;
            for succ in schema.control_successors(n) {
                let s = &pdom[&succ];
                acc = Some(match acc {
                    None => s.clone(),
                    Some(a) => a.intersection(s).copied().collect(),
                });
            }
            let mut new = acc.unwrap_or_default();
            new.insert(n);
            if new != pdom[&n] {
                pdom.insert(n, new);
                changed = true;
            }
        }
    }
    // The immediate postdominator of n is the unique m in pdom(n)\{n} that is
    // postdominated by every other member of pdom(n)\{n}.
    let mut ipdom = BTreeMap::new();
    for &n in &all {
        if n == exit {
            continue;
        }
        let cands: Vec<NodeId> = pdom[&n].iter().copied().filter(|m| *m != n).collect();
        for &m in &cands {
            if cands.iter().all(|&p| p == m || pdom[&m].contains(&p)) {
                ipdom.insert(n, m);
                break;
            }
        }
    }
    ipdom
}

// ----------------------------------------------------------------------
// Block analysis
// ----------------------------------------------------------------------

/// The block structure of a schema, as the reference analysis derives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocks {
    /// All blocks, indexed by their split node.
    pub by_split: BTreeMap<NodeId, BlockInfo>,
    /// Enclosing blocks per node, outermost first: `(split, branch_index)`.
    pub enclosing: BTreeMap<NodeId, Vec<(NodeId, usize)>>,
}

impl Blocks {
    /// Analyses the block structure of a schema.
    pub fn analyze(schema: &ProcessSchema) -> Result<Blocks, BlockError> {
        if !is_acyclic(schema, EdgeFilter::CONTROL) {
            return Err(BlockError::CyclicBackbone);
        }
        let end = schema
            .nodes()
            .find(|n| n.kind == NodeKind::End)
            .map(|n| n.id);
        let ipdom = match end {
            Some(e) => immediate_postdominators(schema, e),
            None => BTreeMap::new(),
        };

        let mut by_split: BTreeMap<NodeId, BlockInfo> = BTreeMap::new();

        // Loop blocks are matched by their loop edge.
        for e in schema.loop_edges() {
            let (le, ls) = (e.from, e.to);
            let ok = schema.node(ls).map(|n| n.kind) == Ok(NodeKind::LoopStart)
                && schema.node(le).map(|n| n.kind) == Ok(NodeKind::LoopEnd);
            if !ok {
                return Err(BlockError::MalformedLoopEdge(le, ls));
            }
            let body = region_between(schema, ls, le);
            by_split.insert(
                ls,
                BlockInfo {
                    kind: BlockKind::Loop,
                    split: ls,
                    join: le,
                    branches: vec![body.into_iter().collect()],
                },
            );
        }

        // AND/XOR blocks are matched via immediate postdominators.
        for node in schema.nodes() {
            let kind = match node.kind {
                NodeKind::AndSplit => BlockKind::Parallel,
                NodeKind::XorSplit => BlockKind::Conditional,
                _ => continue,
            };
            let join = *ipdom
                .get(&node.id)
                .ok_or(BlockError::UnmatchedSplit(node.id))?;
            let expect = match kind {
                BlockKind::Parallel => NodeKind::AndJoin,
                BlockKind::Conditional => NodeKind::XorJoin,
                BlockKind::Loop => unreachable!(),
            };
            if schema.node(join).map(|n| n.kind) != Ok(expect) {
                return Err(BlockError::UnmatchedSplit(node.id));
            }
            let mut branches = Vec::new();
            for e in schema.out_edges_kind(node.id, EdgeKind::Control) {
                // A `BlockInfo` keeps a branch as a sorted list: the
                // set's order.
                branches.push(branch_region(schema, e.to, join).into_iter().collect());
            }
            by_split.insert(
                node.id,
                BlockInfo {
                    kind,
                    split: node.id,
                    join,
                    branches,
                },
            );
        }

        // Enclosing-block stacks, outermost first. A block B1 encloses B2
        // iff B2's split lies in B1's interior. Sort by interior size
        // (larger = outer).
        let mut enclosing: BTreeMap<NodeId, Vec<(NodeId, usize)>> = BTreeMap::new();
        for n in schema.node_ids() {
            let mut stack: Vec<(usize, NodeId, usize)> = Vec::new();
            for (split, info) in &by_split {
                if let Some(bi) = info.branch_of(n) {
                    stack.push((info.interior().len(), *split, bi));
                }
            }
            stack.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            enclosing.insert(n, stack.into_iter().map(|(_, s, b)| (s, b)).collect());
        }

        Ok(Blocks {
            by_split,
            enclosing,
        })
    }

    /// The blocks enclosing `n`, outermost first, as `(split, branch_index)`.
    pub fn enclosing(&self, n: NodeId) -> &[(NodeId, usize)] {
        self.enclosing.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// If `a` and `b` lie in *different branches of the same parallel
    /// block*, returns that block's split node. This is the structural
    /// precondition for sync edges: only then are the nodes truly
    /// concurrent and a sync edge meaningful (and deadlock-free by
    /// construction when directed consistently).
    pub fn parallel_separator(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let ea = self.enclosing(a);
        let eb = self.enclosing(b);
        // Walk from innermost to outermost common block.
        for (split_a, branch_a) in ea.iter().rev() {
            if self.by_split[split_a].kind != BlockKind::Parallel {
                continue;
            }
            for (split_b, branch_b) in eb.iter().rev() {
                if split_a == split_b && branch_a != branch_b {
                    return Some(*split_a);
                }
            }
        }
        None
    }

    /// Whether `a` and `b` lie inside the same set of loop blocks (sync
    /// edges must not cross loop boundaries).
    pub fn same_loop_context(&self, a: NodeId, b: NodeId) -> bool {
        let la: Vec<NodeId> = self
            .enclosing(a)
            .iter()
            .filter(|(s, _)| self.by_split[s].kind == BlockKind::Loop)
            .map(|(s, _)| *s)
            .collect();
        let lb: Vec<NodeId> = self
            .enclosing(b)
            .iter()
            .filter(|(s, _)| self.by_split[s].kind == BlockKind::Loop)
            .map(|(s, _)| *s)
            .collect();
        la == lb
    }
}

/// Interior nodes strictly between `from` and `to` along control edges:
/// reachable from `from` without passing through `to`, intersected with
/// nodes that reach `to`.
fn region_between(schema: &ProcessSchema, from: NodeId, to: NodeId) -> BTreeSet<NodeId> {
    let fwd = bounded_reach(schema, from, to);
    let back = reaching_to(schema, to, EdgeFilter::CONTROL);
    fwd.intersection(&back)
        .copied()
        .filter(|n| *n != from && *n != to)
        .collect()
}

/// The branch region rooted at `head` (inclusive) up to but excluding `join`.
fn branch_region(schema: &ProcessSchema, head: NodeId, join: NodeId) -> BTreeSet<NodeId> {
    if head == join {
        return BTreeSet::new(); // empty branch: split connects directly to join
    }
    let mut r = bounded_reach(schema, head, join);
    r.remove(&join);
    r
}

/// Forward reach over control edges from `from` (inclusive), not expanding
/// through `stop`.
fn bounded_reach(schema: &ProcessSchema, from: NodeId, stop: NodeId) -> BTreeSet<NodeId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    seen.insert(from);
    while let Some(n) = stack.pop() {
        if n == stop {
            continue;
        }
        for e in schema.out_edges_kind(n, EdgeKind::Control) {
            if seen.insert(e.to) {
                stack.push(e.to);
            }
        }
    }
    seen
}

// ----------------------------------------------------------------------
// Verification
// ----------------------------------------------------------------------

/// Runs the complete buildtime verification suite the reference way.
pub fn verify_schema(schema: &ProcessSchema) -> VerificationReport {
    let mut rep = check_structure(schema);
    rep.merge(check_deadlock_freedom(schema));
    rep.merge(check_dataflow(schema));
    rep
}

/// Runs all structural checks and returns the findings.
pub fn check_structure(schema: &ProcessSchema) -> VerificationReport {
    let mut rep = VerificationReport::default();
    check_start_end(schema, &mut rep);
    check_degrees(schema, &mut rep);
    check_reachability(schema, &mut rep);
    check_blocks_and_syncs(schema, &mut rep);
    rep
}

fn check_start_end(schema: &ProcessSchema, rep: &mut VerificationReport) {
    let starts: Vec<_> = schema
        .nodes()
        .filter(|n| n.kind == NodeKind::Start)
        .map(|n| n.id)
        .collect();
    let ends: Vec<_> = schema
        .nodes()
        .filter(|n| n.kind == NodeKind::End)
        .map(|n| n.id)
        .collect();
    if starts.len() != 1 {
        rep.push(
            Issue::error(
                IssueKind::StartEndStructure,
                format!(
                    "schema must have exactly one start node, found {}",
                    starts.len()
                ),
            )
            .with_nodes(starts),
        );
    }
    if ends.len() != 1 {
        rep.push(
            Issue::error(
                IssueKind::StartEndStructure,
                format!(
                    "schema must have exactly one end node, found {}",
                    ends.len()
                ),
            )
            .with_nodes(ends),
        );
    }
}

fn check_degrees(schema: &ProcessSchema, rep: &mut VerificationReport) {
    for n in schema.nodes() {
        let cin = schema.in_edges_kind(n.id, EdgeKind::Control).count();
        let cout = schema.out_edges_kind(n.id, EdgeKind::Control).count();
        let lin = schema.in_edges_kind(n.id, EdgeKind::Loop).count();
        let lout = schema.out_edges_kind(n.id, EdgeKind::Loop).count();
        let bad = |msg: String, rep: &mut VerificationReport| {
            rep.push(Issue::error(IssueKind::Degree, msg).with_nodes([n.id]));
        };
        match n.kind {
            NodeKind::Start => {
                if cin != 0 || cout != 1 {
                    bad(format!("start node {n} must have 0 in / 1 out control edges (has {cin}/{cout})"), rep);
                }
            }
            NodeKind::End => {
                if cin != 1 || cout != 0 {
                    bad(
                        format!(
                            "end node {n} must have 1 in / 0 out control edges (has {cin}/{cout})"
                        ),
                        rep,
                    );
                }
            }
            NodeKind::Activity | NodeKind::Null => {
                if cin != 1 || cout != 1 {
                    bad(format!("node {n} must have exactly 1 in / 1 out control edge (has {cin}/{cout})"), rep);
                }
            }
            NodeKind::AndSplit | NodeKind::XorSplit => {
                if cin != 1 || cout < 2 {
                    bad(
                        format!(
                            "split {n} must have 1 in / >=2 out control edges (has {cin}/{cout})"
                        ),
                        rep,
                    );
                }
            }
            NodeKind::AndJoin | NodeKind::XorJoin => {
                if cin < 2 || cout != 1 {
                    bad(
                        format!(
                            "join {n} must have >=2 in / 1 out control edges (has {cin}/{cout})"
                        ),
                        rep,
                    );
                }
            }
            NodeKind::LoopStart => {
                if cin != 1 || cout != 1 || lin != 1 {
                    bad(format!("loop start {n} must have 1 in / 1 out control and 1 incoming loop edge (has {cin}/{cout}, {lin} loop-in)"), rep);
                }
            }
            NodeKind::LoopEnd => {
                if cin != 1 || cout != 1 || lout != 1 {
                    bad(format!("loop end {n} must have 1 in / 1 out control and 1 outgoing loop edge (has {cin}/{cout}, {lout} loop-out)"), rep);
                }
            }
        }
        if (lin > 0 && n.kind != NodeKind::LoopStart) || (lout > 0 && n.kind != NodeKind::LoopEnd) {
            rep.push(
                Issue::error(
                    IssueKind::LoopStructure,
                    format!("node {n} has loop edges but is not a loop start/end"),
                )
                .with_nodes([n.id]),
            );
        }
    }
}

fn check_reachability(schema: &ProcessSchema, rep: &mut VerificationReport) {
    let start = schema.nodes().find(|n| n.kind == NodeKind::Start);
    let end = schema.nodes().find(|n| n.kind == NodeKind::End);
    if let Some(start) = start {
        let fwd = reachable_from(schema, start.id, EdgeFilter::CONTROL);
        for n in schema.nodes() {
            if !fwd.contains(&n.id) {
                rep.push(
                    Issue::error(
                        IssueKind::Unreachable,
                        format!("node {n} is unreachable from the start node"),
                    )
                    .with_nodes([n.id]),
                );
            }
        }
    }
    if let Some(end) = end {
        let back = reaching_to(schema, end.id, EdgeFilter::CONTROL);
        for n in schema.nodes() {
            if !back.contains(&n.id) {
                rep.push(
                    Issue::error(
                        IssueKind::Unreachable,
                        format!("node {n} cannot reach the end node"),
                    )
                    .with_nodes([n.id]),
                );
            }
        }
    }
}

fn check_blocks_and_syncs(schema: &ProcessSchema, rep: &mut VerificationReport) {
    // Guard structure on XOR splits: at most one unguarded (else) branch and
    // guards must reference declared data elements.
    for n in schema.nodes().filter(|n| n.kind == NodeKind::XorSplit) {
        let mut unguarded = 0usize;
        let mut total = 0usize;
        for e in schema.out_edges_kind(n.id, EdgeKind::Control) {
            total += 1;
            match &e.guard {
                None => unguarded += 1,
                Some(g) => {
                    if schema.data_element(g.data).is_err() {
                        rep.push(
                            Issue::error(
                                IssueKind::GuardStructure,
                                format!("guard on {e} references unknown data {}", g.data),
                            )
                            .with_nodes([n.id]),
                        );
                    } else if let Some(vt) = g.value.value_type() {
                        let declared = schema.data_element(g.data).expect("checked").ty;
                        if vt != declared {
                            rep.push(
                                Issue::error(
                                    IssueKind::GuardTypeMismatch,
                                    format!(
                                        "guard on {e} compares {} ({declared}) against a {vt} literal",
                                        g.data
                                    ),
                                )
                                .with_nodes([n.id])
                                .with_data([g.data]),
                            );
                        }
                    }
                }
            }
        }
        // A fully unguarded XOR block delegates the branching decision to
        // the runtime (user or simulation driver) and is legal. Mixing
        // guarded branches with more than one unguarded branch makes the
        // else-branch ambiguous.
        if unguarded > 1 && unguarded != total {
            rep.push(
                Issue::error(
                    IssueKind::GuardStructure,
                    format!("XOR split {n} mixes guards with {unguarded} unguarded branches; at most one (else) allowed"),
                )
                .with_nodes([n.id]),
            );
        }
    }

    // Guards on non-XOR edges are meaningless.
    for e in schema.edges() {
        if e.guard.is_some() {
            let from_kind = schema.node(e.from).map(|n| n.kind);
            if from_kind != Ok(NodeKind::XorSplit) {
                rep.push(Issue::warning(
                    IssueKind::GuardStructure,
                    format!("guard on {e} is ignored: source is not an XOR split"),
                ));
            }
        }
    }

    // Block analysis must succeed; sync edges must connect concurrent nodes.
    match Blocks::analyze(schema) {
        Err(e) => {
            rep.push(Issue::error(
                IssueKind::BlockStructure,
                format!("block analysis failed: {e}"),
            ));
        }
        Ok(blocks) => {
            for e in schema.sync_edges() {
                if e.from == e.to {
                    rep.push(
                        Issue::error(IssueKind::SyncEdge, format!("sync edge {e} is a self loop"))
                            .with_nodes([e.from]),
                    );
                    continue;
                }
                if blocks.parallel_separator(e.from, e.to).is_none() {
                    rep.push(
                        Issue::error(
                            IssueKind::SyncEdge,
                            format!(
                                "sync edge {e} does not connect different branches of one parallel block"
                            ),
                        )
                        .with_nodes([e.from, e.to]),
                    );
                }
                if !blocks.same_loop_context(e.from, e.to) {
                    rep.push(
                        Issue::error(
                            IssueKind::SyncEdge,
                            format!("sync edge {e} crosses a loop boundary"),
                        )
                        .with_nodes([e.from, e.to]),
                    );
                }
            }
        }
    }
}

/// Checks the schema for deadlock-causing cycles over control + sync edges.
pub fn check_deadlock_freedom(schema: &ProcessSchema) -> VerificationReport {
    let mut rep = VerificationReport::default();
    if let Err(cycle) = topo_order(schema, EdgeFilter::CONTROL_SYNC) {
        let list = cycle
            .nodes
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        rep.push(
            Issue::error(
                IssueKind::DeadlockCycle,
                format!("control/sync cycle involving nodes {{{list}}}"),
            )
            .with_nodes(cycle.nodes),
        );
    }
    rep
}

/// Runs all data-flow checks.
pub fn check_dataflow(schema: &ProcessSchema) -> VerificationReport {
    let mut rep = VerificationReport::default();
    let Ok(order) = topo_order(schema, EdgeFilter::CONTROL_SYNC) else {
        // A cyclic graph is reported by the deadlock checker; data flow
        // cannot be analysed meaningfully.
        return rep;
    };
    let blocks = match Blocks::analyze(schema) {
        Ok(b) => b,
        Err(_) => return rep, // reported by the structural checker
    };

    let definitely_written = compute_definitely_written(schema, &order, &blocks);

    check_mandatory_reads(schema, &definitely_written, &mut rep);
    check_guard_reads(schema, &definitely_written, &mut rep);
    check_parallel_writes(schema, &blocks, &mut rep);
    check_unread_data(schema, &mut rep);
    rep
}

/// Computes, for every node, the set of data elements that are guaranteed
/// to have been written before the node starts (first loop iteration
/// semantics: loop edges are excluded, so a loop body cannot rely on writes
/// of later body nodes).
///
/// Sync edges contribute their source's writes only when the source cannot
/// be skipped (it is not nested inside any conditional block): a skipped
/// sync source signals `FalseSignaled` and the target proceeds *without*
/// the write.
pub fn compute_definitely_written(
    schema: &ProcessSchema,
    topo: &[NodeId],
    blocks: &Blocks,
) -> BTreeMap<NodeId, BTreeSet<DataId>> {
    let mut dw: BTreeMap<NodeId, BTreeSet<DataId>> = BTreeMap::new();
    let writes_of =
        |n: NodeId| -> BTreeSet<DataId> { schema.writes_of(n).map(|de| de.data).collect() };
    let skippable = |n: NodeId| -> bool {
        blocks
            .enclosing(n)
            .iter()
            .any(|(s, _)| blocks.by_split[s].kind == BlockKind::Conditional)
    };
    let is_xor_join = |n: NodeId| schema.node(n).map(|x| x.kind) == Ok(NodeKind::XorJoin);
    for &n in topo {
        // Incoming control edges of an XOR join are *alternatives*: only one
        // path is taken, so guarantees are intersected. Everywhere else
        // (sequences, AND joins) every incoming control edge has fired
        // before the node starts, so guarantees accumulate (union). Sync
        // edges are mandatory waits and always accumulate — unless their
        // source is skippable, in which case they guarantee nothing.
        let mut acc: Option<BTreeSet<DataId>> = None;
        let mut sync_acc: BTreeSet<DataId> = BTreeSet::new();
        for e in schema.in_edges(n) {
            match e.kind {
                EdgeKind::Control => {
                    let mut c = dw.get(&e.from).cloned().unwrap_or_default();
                    c.extend(writes_of(e.from));
                    acc = Some(match acc {
                        None => c,
                        Some(a) => {
                            if is_xor_join(n) {
                                a.intersection(&c).copied().collect()
                            } else {
                                a.union(&c).copied().collect()
                            }
                        }
                    });
                }
                EdgeKind::Sync => {
                    if skippable(e.from) {
                        continue; // source may be skipped: no guarantee
                    }
                    sync_acc.extend(dw.get(&e.from).cloned().unwrap_or_default());
                    sync_acc.extend(writes_of(e.from));
                }
                EdgeKind::Loop => {} // first-iteration semantics
            }
        }
        let mut result = acc.unwrap_or_default();
        result.extend(sync_acc);
        dw.insert(n, result);
    }
    dw
}

fn check_mandatory_reads(
    schema: &ProcessSchema,
    dw: &BTreeMap<NodeId, BTreeSet<DataId>>,
    rep: &mut VerificationReport,
) {
    for de in schema.data_edges() {
        if de.mode != AccessMode::Read || de.optional {
            continue;
        }
        let written = dw.get(&de.node).is_some_and(|s| s.contains(&de.data));
        if !written {
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

fn check_guard_reads(
    schema: &ProcessSchema,
    dw: &BTreeMap<NodeId, BTreeSet<DataId>>,
    rep: &mut VerificationReport,
) {
    let check = |decider: NodeId, data: DataId, what: &str, rep: &mut VerificationReport| {
        let available = dw.get(&decider).is_some_and(|s| s.contains(&data))
            || schema.writes_of(decider).any(|w| w.data == data);
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

fn check_parallel_writes(schema: &ProcessSchema, blocks: &Blocks, rep: &mut VerificationReport) {
    let mut by_data: BTreeMap<DataId, Vec<NodeId>> = BTreeMap::new();
    for de in schema.data_edges() {
        if de.mode == AccessMode::Write {
            by_data.entry(de.data).or_default().push(de.node);
        }
    }
    for (d, writers) in by_data {
        for i in 0..writers.len() {
            for j in (i + 1)..writers.len() {
                let (a, b) = (writers[i], writers[j]);
                if blocks.parallel_separator(a, b).is_some()
                    && !path_exists(schema, a, b, EdgeFilter::CONTROL_SYNC)
                    && !path_exists(schema, b, a, EdgeFilter::CONTROL_SYNC)
                {
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
