//! Graph algorithms over process schemas: topological order, reachability,
//! cycle detection and postdominators.
//!
//! All algorithms operate on a caller-selected subset of edge kinds. The
//! *control backbone* (control edges only, loop edges excluded) of a correct
//! ADEPT2 schema is a DAG; sync edges must keep the combined
//! control+sync graph acyclic — a cycle there is exactly the
//! "deadlock-causing cycle" the paper's verifier rejects (Fig. 1, instance
//! I2).

use crate::edge::EdgeKind;
use crate::ids::NodeId;
use crate::index::{Pool, SchemaIndex};
use crate::schema::ProcessSchema;
use std::collections::{BTreeMap, BTreeSet};

/// Which edge kinds an algorithm should traverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeFilter {
    /// Traverse control edges.
    pub control: bool,
    /// Traverse sync edges.
    pub sync: bool,
    /// Traverse loop edges.
    pub loops: bool,
}

impl EdgeFilter {
    /// Control edges only — the block-structured backbone.
    pub const CONTROL: EdgeFilter = EdgeFilter {
        control: true,
        sync: false,
        loops: false,
    };
    /// Control + sync edges — the graph that must stay acyclic.
    pub const CONTROL_SYNC: EdgeFilter = EdgeFilter {
        control: true,
        sync: true,
        loops: false,
    };
    /// Everything including loop edges.
    pub const ALL: EdgeFilter = EdgeFilter {
        control: true,
        sync: true,
        loops: true,
    };

    /// Whether this filter admits the given edge kind.
    pub fn admits(self, kind: EdgeKind) -> bool {
        match kind {
            EdgeKind::Control => self.control,
            EdgeKind::Sync => self.sync,
            EdgeKind::Loop => self.loops,
        }
    }
}

/// Result of a failed topological sort: the nodes involved in (or reachable
/// only through) a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cycle {
    /// Nodes that could not be ordered (the union of all cycles and their
    /// downstream-only dependents).
    pub nodes: Vec<NodeId>,
}

/// Topologically sorts the nodes of the schema over the admitted edges
/// (Kahn's algorithm). Deterministic: ready nodes are processed in id order.
pub fn topo_order(schema: &ProcessSchema, filter: EdgeFilter) -> Result<Vec<NodeId>, Cycle> {
    let index = SchemaIndex::of(schema);
    let order = index.topo(filter)?;
    Ok(order.into_iter().map(|i| index.ids()[i as usize]).collect())
}

/// The nodes a walk over the admitted edges reaches from `from`
/// (inclusive), following them forwards or backwards.
fn reach(
    schema: &ProcessSchema,
    from: NodeId,
    filter: EdgeFilter,
    forwards: bool,
) -> BTreeSet<NodeId> {
    let index = SchemaIndex::of(schema);
    let Some(from) = index.slot(from) else {
        return BTreeSet::new();
    };
    let seen = index.reach(from, filter, forwards);
    let reached = index.ids().iter().zip(seen).filter(|(_, seen)| *seen);
    reached.map(|(n, _)| *n).collect()
}

/// Forward-reachable set from `from` (inclusive) over the admitted edges.
pub fn reachable_from(
    schema: &ProcessSchema,
    from: NodeId,
    filter: EdgeFilter,
) -> BTreeSet<NodeId> {
    reach(schema, from, filter, true)
}

/// Backward-reachable set from `from` (inclusive) over the admitted edges.
pub fn reaching_to(schema: &ProcessSchema, to: NodeId, filter: EdgeFilter) -> BTreeSet<NodeId> {
    reach(schema, to, filter, false)
}

/// Whether a path from `a` to `b` exists over the admitted edges.
pub fn path_exists(schema: &ProcessSchema, a: NodeId, b: NodeId, filter: EdgeFilter) -> bool {
    if a == b {
        return true;
    }
    reachable_from(schema, a, filter).contains(&b)
}

/// The control backbone of a [`SchemaIndex`]: control successors and
/// predecessors per node slot. The block analysis and the postdominator
/// pass walk this instead of the schema's id-keyed maps.
pub(crate) struct Backbone<'i> {
    /// Node ids, ascending: slot `i` is `ids[i]`.
    pub ids: &'i [NodeId],
    succ: Pool<u32>,
    pred: Pool<u32>,
}

/// "No node" among dense indices.
pub(crate) const NONE: u32 = u32::MAX;

impl<'i> Backbone<'i> {
    /// The control edges of `index`; successors keep edge-id order.
    pub fn of(index: &'i SchemaIndex<'_>) -> Self {
        let n = index.node_count();
        let edges = index.links().len();
        let (mut succ, mut pred) = (Pool::with_capacity(n, edges), Pool::with_capacity(n, edges));
        let control = |edges: &'i [u32]| {
            let links = edges.iter().map(|&e| index.link(e));
            links.filter(|l| l.kind == EdgeKind::Control)
        };
        for i in 0..n as u32 {
            succ.extend(control(index.out(i)).map(|l| l.to));
            succ.close();
            pred.extend(control(index.inc(i)).map(|l| l.from));
            pred.close();
        }
        Self {
            ids: index.ids(),
            succ,
            pred,
        }
    }

    /// The dense index of a node.
    pub fn index(&self, n: NodeId) -> Option<u32> {
        self.ids.binary_search(&n).ok().map(|i| i as u32)
    }

    /// Control successors of `i`, in edge-id order.
    pub fn succ(&self, i: u32) -> &[u32] {
        self.succ.row(i as usize)
    }

    /// Control predecessors of `i`.
    pub fn pred(&self, i: u32) -> &[u32] {
        self.pred.row(i as usize)
    }

    /// A topological order of the backbone, or `None` if it is cyclic.
    pub fn topo(&self) -> Option<Vec<u32>> {
        let n = self.ids.len();
        let mut indeg: Vec<u32> = (0..n as u32).map(|i| self.pred(i).len() as u32).collect();
        let mut order: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut next = 0;
        while let Some(&i) = order.get(next) {
            next += 1;
            for &s in self.succ(i) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    order.push(s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// The immediate postdominator of every node ([`NONE`] where there is
    /// none), given a topological order: one reverse pass in which a node's
    /// postdominator is the nearest common ancestor of its successors in
    /// the postdominator tree built so far. `exit` and every node without
    /// successors hang off a virtual root, so the pass is total on
    /// malformed backbones too (several sinks, edges leaving `exit`).
    pub fn immediate_postdominators(&self, order: &[u32], exit: Option<u32>) -> Vec<u32> {
        let root = self.ids.len() as u32;
        let mut parent = vec![root; self.ids.len() + 1];
        let mut depth = vec![0u32; self.ids.len() + 1];
        for &i in order.iter().rev() {
            let mut succs = self.succ(i).iter().copied();
            let mut anc = match succs.next() {
                Some(first) if Some(i) != exit => first,
                _ => root,
            };
            for mut other in succs {
                if anc == root {
                    break;
                }
                while anc != other {
                    if depth[anc as usize] < depth[other as usize] {
                        other = parent[other as usize];
                    } else {
                        anc = parent[anc as usize];
                    }
                }
            }
            parent[i as usize] = anc;
            depth[i as usize] = depth[anc as usize] + 1;
        }
        parent.pop();
        for p in &mut parent {
            if *p == root {
                *p = NONE;
            }
        }
        parent
    }
}

/// Computes the immediate postdominator of every node over the control
/// backbone, with `exit` as the sink (normally the `End` node).
///
/// In a block-structured schema the immediate postdominator of a split node
/// is exactly its matching join, which is how [`crate::Blocks`] recovers the
/// block structure of arbitrarily changed schemas.
pub fn immediate_postdominators(schema: &ProcessSchema, exit: NodeId) -> BTreeMap<NodeId, NodeId> {
    let index = SchemaIndex::of(schema);
    let g = Backbone::of(&index);
    let Some(order) = g.topo() else {
        return BTreeMap::new(); // cyclic control backbone: malformed
    };
    let ipdom = g.immediate_postdominators(&order, g.index(exit));
    let ids = &g.ids;
    ids.iter()
        .zip(&ipdom)
        .filter(|(_, &p)| p != NONE)
        .map(|(&n, &p)| (n, ids[p as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    /// start -> split -> (a | b) -> join -> end
    fn diamond() -> (ProcessSchema, [NodeId; 6]) {
        let mut s = ProcessSchema::empty("d");
        let start = s.add_node("start", NodeKind::Start);
        let split = s.add_node("split", NodeKind::AndSplit);
        let a = s.add_node("a", NodeKind::Activity);
        let b = s.add_node("b", NodeKind::Activity);
        let join = s.add_node("join", NodeKind::AndJoin);
        let end = s.add_node("end", NodeKind::End);
        s.add_control_edge(start, split).unwrap();
        s.add_control_edge(split, a).unwrap();
        s.add_control_edge(split, b).unwrap();
        s.add_control_edge(a, join).unwrap();
        s.add_control_edge(b, join).unwrap();
        s.add_control_edge(join, end).unwrap();
        (s, [start, split, a, b, join, end])
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let (s, [start, split, a, b, join, end]) = diamond();
        let order = topo_order(&s, EdgeFilter::CONTROL).unwrap();
        let pos = |n: NodeId| order.iter().position(|x| *x == n).unwrap();
        assert!(pos(start) < pos(split));
        assert!(pos(split) < pos(a));
        assert!(pos(split) < pos(b));
        assert!(pos(a) < pos(join));
        assert!(pos(b) < pos(join));
        assert!(pos(join) < pos(end));
        assert_eq!(order, topo_order(&s, EdgeFilter::CONTROL).unwrap());
    }

    #[test]
    fn sync_cycle_is_detected() {
        let (mut s, [_, _, a, b, _, _]) = diamond();
        s.add_sync_edge(a, b).unwrap();
        assert!(topo_order(&s, EdgeFilter::CONTROL_SYNC).is_ok());
        s.add_sync_edge(b, a).unwrap();
        assert!(topo_order(&s, EdgeFilter::CONTROL_SYNC).is_err());
        let cyc = topo_order(&s, EdgeFilter::CONTROL_SYNC).unwrap_err();
        assert!(cyc.nodes.contains(&a) && cyc.nodes.contains(&b));
    }

    #[test]
    fn reachability() {
        let (s, [start, _, a, b, _, end]) = diamond();
        assert!(path_exists(&s, start, end, EdgeFilter::CONTROL));
        assert!(!path_exists(&s, a, b, EdgeFilter::CONTROL));
        assert!(!path_exists(&s, end, start, EdgeFilter::CONTROL));
        let back = reaching_to(&s, a, EdgeFilter::CONTROL);
        assert!(back.contains(&start) && !back.contains(&b));
    }

    #[test]
    fn ipdom_of_split_is_join() {
        let (s, [start, split, a, b, join, end]) = diamond();
        let ipdom = immediate_postdominators(&s, end);
        assert_eq!(ipdom[&split], join);
        assert_eq!(ipdom[&a], join);
        assert_eq!(ipdom[&b], join);
        assert_eq!(ipdom[&start], split);
        assert_eq!(ipdom[&join], end);
        assert!(!ipdom.contains_key(&end));
    }

    #[test]
    fn loop_edges_ignored_by_control_filter() {
        let mut s = ProcessSchema::empty("l");
        let start = s.add_node("start", NodeKind::Start);
        let ls = s.add_node("ls", NodeKind::LoopStart);
        let a = s.add_node("a", NodeKind::Activity);
        let le = s.add_node("le", NodeKind::LoopEnd);
        let end = s.add_node("end", NodeKind::End);
        s.add_control_edge(start, ls).unwrap();
        s.add_control_edge(ls, a).unwrap();
        s.add_control_edge(a, le).unwrap();
        s.add_control_edge(le, end).unwrap();
        s.add_loop_edge(le, ls, crate::edge::LoopCond::Times(3))
            .unwrap();
        assert!(topo_order(&s, EdgeFilter::CONTROL_SYNC).is_ok());
        assert!(topo_order(&s, EdgeFilter::ALL).is_err());
    }
}
