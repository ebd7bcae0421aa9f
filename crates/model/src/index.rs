//! The dense index of a schema: its nodes and edges interned into slots,
//! and its adjacency and data edges as compressed rows over those slots.
//!
//! A [`ProcessSchema`] keys its nodes, edges and adjacency by id, so a
//! pass that walks the graph through it pays a map lookup per neighbour.
//! Block analysis, the verifier's checks and the arena compile walk a
//! [`SchemaIndex`] instead:
//!
//! * node and edge *slots* are positions in id order, so slot order is id
//!   order and a slot lookup is one binary search;
//! * per edge slot, its endpoints as node slots and its kind ([`Link`]);
//! * per node slot, its incoming and outgoing edge slots over all kinds,
//!   in id order — the adjacency order of the schema;
//! * per node slot, its data edges in declaration order.
//!
//! Building it is one pass over each of the schema's tables, O(N + E + D)
//! plus a binary search per edge endpoint and data edge. It borrows the
//! schema, is built by the pass that needs it, and dropped with it:
//! nothing retains an index.

use crate::data::DataEdge;
use crate::edge::{Edge, EdgeKind};
use crate::graph::{Cycle, EdgeFilter};
use crate::ids::NodeId;
use crate::node::{Node, NodeKind};
use crate::schema::ProcessSchema;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Rows of `T` pooled in one vector: row `i` is `items[off[i]..off[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pool<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Pool<T> {
    /// An empty pool with room for `rows` rows of `items` items in all.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Self {
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0);
        Self {
            off,
            items: Vec::with_capacity(items),
        }
    }

    /// `(row, item)` pairs grouped into `rows` rows, each row keeping the
    /// order its items come in (a stable counting sort). The pairs are
    /// walked twice: once to size the rows, once to place the items.
    pub(crate) fn grouped<I>(rows: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (u32, T)> + Clone,
    {
        let mut off = vec![0u32; rows + 1];
        for (row, _) in pairs.clone() {
            off[row as usize + 1] += 1;
        }
        for r in 0..rows {
            off[r + 1] += off[r];
        }
        let mut items = match pairs.clone().next() {
            // Every position is written below; the first item only fills
            // the vector until then.
            Some((_, first)) => vec![first; off[rows] as usize],
            None => Vec::new(),
        };
        // `off[r]` is the fill cursor of row `r`; once filled it stands at
        // the start of row `r + 1`, so shifting the table restores it.
        for (row, item) in pairs {
            let at = &mut off[row as usize];
            items[*at as usize] = item;
            *at += 1;
        }
        off.copy_within(0..rows, 1);
        off[0] = 0;
        // `row` reads through an unchecked slice: a `pairs` whose second
        // walk differs from its first would break the prefix sums.
        assert!(
            off.windows(2).all(|w| w[0] <= w[1]) && off[rows] as usize == items.len(),
            "invariant: both walks of `pairs` yield the same rows"
        );
        Self { off, items }
    }

    /// Appends `items` to the row being filled.
    pub(crate) fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        self.items.extend(items);
    }

    /// The row being filled.
    pub(crate) fn open_row(&mut self) -> &mut [T] {
        let start = self.off[self.off.len() - 1] as usize;
        &mut self.items[start..]
    }

    /// Ends the row being filled; what is appended next opens the next row.
    pub(crate) fn close(&mut self) {
        self.off.push(self.items.len() as u32);
    }

    /// Inserts as row `i` a copy of row `of` (numbered before the insert)
    /// followed by `extra`; the rows from `i` on move up by one. The copy
    /// is appended and rotated into place, so nothing is allocated beyond
    /// the room the new row needs. (Each edit grows the pool by exactly
    /// what it adds: an edited pool is a context a biased instance keeps.)
    pub(crate) fn insert_copy(&mut self, i: usize, of: usize, extra: Option<T>) {
        let (start, end) = (self.off[of] as usize, self.off[of + 1] as usize);
        let len = end - start + usize::from(extra.is_some());
        self.items.reserve_exact(len);
        self.items.extend_from_within(start..end);
        self.items.extend(extra);
        let at = self.off[i] as usize;
        self.items[at..].rotate_right(len);
        self.off.reserve_exact(1);
        self.off.insert(i + 1, at as u32);
        for o in &mut self.off[i + 1..] {
            *o += len as u32;
        }
    }

    /// Removes row `i`; the rows after it move down by one.
    pub(crate) fn remove_row(&mut self, i: usize) {
        let (start, end) = (self.off[i] as usize, self.off[i + 1] as usize);
        self.items.drain(start..end);
        self.off.remove(i + 1);
        for o in &mut self.off[i + 1..] {
            *o -= (end - start) as u32;
        }
    }

    /// Inserts `item` into row `i` at position `at` of that row.
    pub(crate) fn insert_item(&mut self, i: usize, at: usize, item: T) {
        self.items.reserve_exact(1);
        self.items.insert(self.off[i] as usize + at, item);
        for o in &mut self.off[i + 1..] {
            *o += 1;
        }
    }

    /// Row `i`, to rewrite its items in place.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Row `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[T] {
        let ends = &self.off[i..i + 2];
        // SAFETY: `off` never decreases and never exceeds `items.len()`:
        // `with_capacity` starts it at 0, `close` pushes `items.len()`,
        // `grouped` fills it with the prefix sums of the row sizes it
        // counted, sizes `items` to the last of them and asserts both
        // before it returns. The row edits (`insert_copy`, `remove_row`,
        // `insert_item`) add or remove exactly as many items as they
        // shift the offsets after the row by, and nothing else writes
        // `off` or shortens `items`. So `ends[0] <= ends[1] <=
        // items.len()`. (The executor reads a row per node and sweep;
        // checking the range again costs it 4–8 % of a driven run.)
        unsafe { self.items.get_unchecked(ends[0] as usize..ends[1] as usize) }
    }

    /// Heap bytes held.
    pub(crate) fn heap_size(&self) -> usize {
        self.off.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }
}

/// One edge of a [`SchemaIndex`].
#[derive(Debug, Clone, Copy)]
pub struct Link<'s> {
    /// Slot of the source node.
    pub from: u32,
    /// Slot of the target node.
    pub to: u32,
    /// Edge kind.
    pub kind: EdgeKind,
    /// The schema's edge (id, guard, loop condition).
    pub edge: &'s Edge,
}

/// The dense index of one schema (see the module docs).
#[derive(Debug)]
pub struct SchemaIndex<'s> {
    schema: &'s ProcessSchema,
    /// Node ids, ascending: slot `i` is `ids[i]`.
    ids: Vec<NodeId>,
    nodes: Vec<&'s Node>,
    /// Edges in id order: edge slot `i` is `links[i]`.
    links: Vec<Link<'s>>,
    out: Pool<u32>,
    inc: Pool<u32>,
    /// Positions in `schema.data_edges()`, per node.
    data: Pool<u32>,
}

impl<'s> SchemaIndex<'s> {
    /// Indexes `schema`.
    pub fn of(schema: &'s ProcessSchema) -> Self {
        let nodes: Vec<&Node> = schema.nodes().collect();
        let ids: Vec<NodeId> = nodes.iter().map(|n| n.id).collect();
        let slot = |n: NodeId| {
            let at = ids.binary_search(&n);
            at.expect("invariant: the schema's edges join nodes it has") as u32
        };
        let links: Vec<Link<'_>> = schema
            .edges()
            .map(|edge| Link {
                from: slot(edge.from),
                to: slot(edge.to),
                kind: edge.kind,
                edge,
            })
            .collect();
        let slots = (0..links.len() as u32).zip(&links);
        let out = Pool::grouped(ids.len(), slots.clone().map(|(e, l)| (l.from, e)));
        let inc = Pool::grouped(ids.len(), slots.map(|(e, l)| (l.to, e)));
        let data_edges = (0..).zip(schema.data_edges());
        let data = Pool::grouped(
            ids.len(),
            data_edges.filter_map(|(k, de)| {
                let at = ids.binary_search(&de.node).ok()?;
                Some((at as u32, k))
            }),
        );
        Self {
            schema,
            ids,
            nodes,
            links,
            out,
            inc,
            data,
        }
    }

    /// The indexed schema.
    pub fn schema(&self) -> &'s ProcessSchema {
        self.schema
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Node ids by slot, ascending.
    pub(crate) fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The slot of a node, if the schema has it.
    pub fn slot(&self, n: NodeId) -> Option<u32> {
        self.ids.binary_search(&n).ok().map(|i| i as u32)
    }

    /// The node in slot `n`.
    #[inline]
    pub fn node(&self, n: u32) -> &'s Node {
        self.nodes[n as usize]
    }

    /// The slot of the first node of `kind`, in id order.
    pub fn first(&self, kind: NodeKind) -> Option<u32> {
        self.nodes
            .iter()
            .position(|n| n.kind == kind)
            .map(|i| i as u32)
    }

    /// Every edge, by slot.
    pub fn links(&self) -> &[Link<'s>] {
        &self.links
    }

    /// The edge in slot `e`.
    #[inline]
    pub fn link(&self, e: u32) -> &Link<'s> {
        &self.links[e as usize]
    }

    /// The slots of the edges leaving node `n` (all kinds), in id order.
    #[inline]
    pub fn out(&self, n: u32) -> &[u32] {
        self.out.row(n as usize)
    }

    /// The slots of the edges entering node `n` (all kinds), in id order.
    #[inline]
    pub fn inc(&self, n: u32) -> &[u32] {
        self.inc.row(n as usize)
    }

    /// The data edges of node `n`, in declaration order.
    pub fn data_edges(&self, n: u32) -> impl Iterator<Item = &'s DataEdge> + '_ {
        let all = self.schema.data_edges();
        self.data
            .row(n as usize)
            .iter()
            .map(move |&k| &all[k as usize])
    }

    /// Sorts the nodes topologically over the admitted edges (Kahn's
    /// algorithm, ready nodes taken in id order), or names the nodes on or
    /// behind a cycle, in id order.
    pub fn topo(&self, filter: EdgeFilter) -> Result<Vec<u32>, Cycle> {
        let n = self.ids.len();
        let mut indeg = vec![0u32; n];
        for l in self.links.iter().filter(|l| filter.admits(l.kind)) {
            indeg[l.to as usize] += 1;
        }
        let mut ready: BinaryHeap<Reverse<u32>> = (0..n as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            indeg[i as usize] = u32::MAX; // placed
            for &e in self.out(i) {
                let l = &self.links[e as usize];
                if filter.admits(l.kind) {
                    indeg[l.to as usize] -= 1;
                    if indeg[l.to as usize] == 0 {
                        ready.push(Reverse(l.to));
                    }
                }
            }
        }
        if order.len() == n {
            return Ok(order);
        }
        let unplaced = self.ids.iter().zip(&indeg).filter(|(_, d)| **d != u32::MAX);
        Err(Cycle {
            nodes: unplaced.map(|(id, _)| *id).collect(),
        })
    }

    /// Which nodes a walk over the admitted edges reaches from `from`
    /// (inclusive), forwards or backwards, by slot.
    pub fn reach(&self, from: u32, filter: EdgeFilter, forwards: bool) -> Vec<bool> {
        let mut seen = vec![false; self.ids.len()];
        seen[from as usize] = true;
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            let edges = if forwards { self.out(n) } else { self.inc(n) };
            for &e in edges {
                let l = &self.links[e as usize];
                let next = if forwards { l.to } else { l.from };
                if filter.admits(l.kind) && !seen[next as usize] {
                    seen[next as usize] = true;
                    stack.push(next);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataEdge, ValueType};

    /// The row edits keep every row and the offsets' bounds, so the
    /// unchecked `row` reads stay in range.
    #[test]
    fn row_edits_keep_every_row() {
        let rows = |p: &Pool<u8>| {
            (0..p.off.len() - 1)
                .map(|i| p.row(i).to_vec())
                .collect::<Vec<_>>()
        };
        let mut p = Pool::grouped(3, [(0, 1u8), (2, 5), (2, 6)].into_iter());
        assert_eq!(rows(&p), [vec![1], vec![], vec![5, 6]]);
        p.insert_copy(1, 2, Some(7));
        assert_eq!(rows(&p), [vec![1], vec![5, 6, 7], vec![], vec![5, 6]]);
        p.insert_copy(4, 0, None);
        assert_eq!(
            rows(&p),
            [vec![1], vec![5, 6, 7], vec![], vec![5, 6], vec![1]]
        );
        p.insert_item(2, 0, 9);
        p.insert_item(1, 3, 8);
        assert_eq!(
            rows(&p),
            [vec![1], vec![5, 6, 7, 8], vec![9], vec![5, 6], vec![1]]
        );
        p.row_mut(3)[1] = 4;
        p.remove_row(1);
        p.remove_row(0);
        assert_eq!(rows(&p), [vec![9], vec![5, 4], vec![1]]);
        assert_eq!(*p.off.last().unwrap() as usize, p.items.len());
    }

    #[test]
    fn rows_follow_id_and_declaration_order() {
        let mut s = ProcessSchema::empty("i");
        let start = s.add_node("start", NodeKind::Start);
        let split = s.add_node("split", NodeKind::AndSplit);
        let a = s.add_node("a", NodeKind::Activity);
        let b = s.add_node("b", NodeKind::Activity);
        let join = s.add_node("join", NodeKind::AndJoin);
        let end = s.add_node("end", NodeKind::End);
        let d = s.add_data("d", ValueType::Int);
        let e = s.add_data("e", ValueType::Int);
        for (from, to) in [(start, split), (split, b), (split, a), (a, join), (b, join)] {
            s.add_control_edge(from, to).unwrap();
        }
        s.add_control_edge(join, end).unwrap();
        s.add_sync_edge(a, b).unwrap();
        s.add_data_edge(DataEdge::write(a, e)).unwrap();
        s.add_data_edge(DataEdge::read(b, d)).unwrap();
        s.add_data_edge(DataEdge::write(a, d)).unwrap();

        let index = SchemaIndex::of(&s);
        let slot = |n| index.slot(n).unwrap();
        let targets = |n| -> Vec<NodeId> {
            let out = index.out(slot(n)).iter();
            out.map(|&e| index.ids()[index.link(e).to as usize])
                .collect()
        };
        assert_eq!(targets(split), vec![b, a], "edge-id order");
        assert_eq!(targets(a), vec![join, b]);
        let sources: Vec<u32> = index
            .inc(slot(b))
            .iter()
            .map(|&e| index.link(e).from)
            .collect();
        assert_eq!(sources, vec![slot(split), slot(a)]);
        let written: Vec<_> = index.data_edges(slot(a)).map(|de| de.data).collect();
        assert_eq!(written, vec![e, d], "declaration order");
        assert_eq!(index.first(NodeKind::End), Some(slot(end)));
        assert!(index.data_edges(slot(start)).next().is_none());
        let fwd = index.reach(slot(a), EdgeFilter::CONTROL, true);
        assert!(fwd[slot(end) as usize] && !fwd[slot(b) as usize]);
    }
}
