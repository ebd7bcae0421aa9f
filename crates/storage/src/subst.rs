//! Substitution blocks: the minimal overlay a biased instance keeps
//! (paper Fig. 2).
//!
//! *"For each biased instance we maintain a minimal substitution block that
//! captures all changes applied to it so far. This block is then used to
//! overlay parts of the original schema when accessing the instance."*
//!
//! A [`SubstitutionBlock`] is the *materialised graph payload* of a bias
//! delta: the concrete nodes, edges and data elements the delta added, the
//! nodes it nullified, and the edges/nodes it removed. Overlaying the block
//! onto the original schema ([`SubstitutionBlock::overlay`]) reconstructs
//! the instance-specific schema without replaying change operations — a
//! pure graph patch, which is what makes instance access cheap.

use adept_core::{ChangeOp, Delta};
use adept_model::{
    ActivityAttributes, DataEdge, DataElement, Edge, EdgeId, ModelError, Node, NodeId, NodeKind,
    ProcessSchema,
};
use serde::{Deserialize, Serialize};

/// The materialised overlay of one biased instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubstitutionBlock {
    /// Nodes the bias added (full payload, including attributes).
    pub added_nodes: Vec<Node>,
    /// Edges the bias added.
    pub added_edges: Vec<Edge>,
    /// Data elements the bias added.
    pub added_data: Vec<DataElement>,
    /// Data edges of added nodes and the data edges the bias attached to
    /// original ones.
    pub added_data_edges: Vec<DataEdge>,
    /// Edges the bias removed from the original schema.
    pub removed_edges: Vec<EdgeId>,
    /// Nodes the bias removed.
    pub removed_nodes: Vec<NodeId>,
    /// Nodes the bias replaced by silent null tasks.
    pub nullified_nodes: Vec<NodeId>,
    /// Attribute rewrites of *original-schema* nodes (added nodes carry
    /// their attributes in `added_nodes` already). Without this, an
    /// attribute-only bias — a retry note, a worklist escalation — would
    /// leave no trace in the block and silently vanish from the
    /// materialised schema.
    pub patched_attrs: Vec<(NodeId, ActivityAttributes)>,
}

impl SubstitutionBlock {
    /// Whether the block is empty (unbiased instance).
    pub fn is_empty(&self) -> bool {
        self.added_nodes.is_empty()
            && self.added_edges.is_empty()
            && self.added_data.is_empty()
            && self.added_data_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.removed_nodes.is_empty()
            && self.nullified_nodes.is_empty()
            && self.patched_attrs.is_empty()
    }

    /// Derives the substitution block of a bias: `materialized` must be the
    /// instance-specific schema (base + bias applied), from which the block
    /// copies the payload of everything the delta created.
    pub fn from_delta(delta: &Delta, materialized: &ProcessSchema) -> SubstitutionBlock {
        let mut block = SubstitutionBlock::default();
        for (at, rec) in delta.ops.iter().enumerate() {
            for n in &rec.added_nodes {
                if let Ok(node) = materialized.node(*n) {
                    block.added_nodes.push(node.clone());
                    block
                        .added_data_edges
                        .extend(materialized.data_edges_of(*n).cloned());
                }
            }
            // An edge a later op removed again is not in `materialized`
            // and stays out; one whose id a yet later op was handed again
            // (an undo of the undo) is there once.
            for e in &rec.added_edges {
                if let Ok(edge) = materialized.edge(*e) {
                    if block.added_edges.iter().all(|known| known.id != *e) {
                        block.added_edges.push(edge.clone());
                    }
                }
            }
            for d in &rec.added_data {
                if let Ok(de) = materialized.data_element(*d) {
                    block.added_data.push(de.clone());
                }
            }
            // A data edge attached to an original node: once, and only if
            // it is live — a later op of the delta may have removed it. One
            // an earlier op removed was the base's, and the block cannot
            // say so: the base's edge stands for it.
            if let ChangeOp::AddDataEdge {
                node, data, mode, ..
            } = &rec.op
            {
                let key = (*node, *data, *mode);
                let removed_before = delta.ops[..at].iter().any(|r| {
                    matches!(r.op, ChangeOp::RemoveDataEdge { node, data, mode }
                        if (node, data, mode) == key)
                });
                let live = materialized
                    .data_edges_of(*node)
                    .find(|de| (de.node, de.data, de.mode) == key);
                if let Some(de) =
                    live.filter(|de| !removed_before && !block.added_data_edges.contains(de))
                {
                    block.added_data_edges.push(de.clone());
                }
            }
            block
                .removed_edges
                .extend(rec.removed_edges.iter().copied());
            block
                .removed_nodes
                .extend(rec.removed_nodes.iter().copied());
            block
                .nullified_nodes
                .extend(rec.nullified_nodes.iter().copied());
        }
        block.removed_edges.retain(|id| {
            // Only original-schema edges need explicit removal markers.
            !delta.ops.iter().any(|r| r.added_edges.contains(id))
        });
        let removed_nodes = block.removed_nodes.clone();
        block.added_nodes.retain(|n| !removed_nodes.contains(&n.id));
        // Attribute rewrites: record the *final* attributes from the
        // materialised schema (last write wins; nodes the bias itself
        // added or later removed need no patch entry).
        let added: Vec<NodeId> = block.added_nodes.iter().map(|n| n.id).collect();
        for rec in &delta.ops {
            if let ChangeOp::SetActivityAttributes { node, .. } = &rec.op {
                if added.contains(node)
                    || removed_nodes.contains(node)
                    || block.patched_attrs.iter().any(|(n, _)| n == node)
                {
                    continue;
                }
                if let Ok(n) = materialized.node(*node) {
                    block.patched_attrs.push((*node, n.attrs.clone()));
                }
            }
        }
        block
    }

    /// Overlays the block onto the original schema, producing the
    /// instance-specific schema as a pure graph patch.
    pub fn overlay(&self, base: &ProcessSchema) -> Result<ProcessSchema, ModelError> {
        let mut s = base.clone();
        s.reserve_private_id_space();
        for id in &self.removed_edges {
            s.remove_edge(*id)?;
        }
        for n in &self.added_nodes {
            s.add_node_at(n.id, n.name.clone(), n.kind)?;
            s.node_mut(n.id)?.attrs = n.attrs.clone();
        }
        for d in &self.added_data {
            s.add_data_at(d.id, d.name.clone(), d.ty)?;
        }
        // Removing nodes requires their incident edges gone first; in a
        // well-formed block the removed_edges above already detached them.
        for id in &self.removed_nodes {
            s.remove_node(*id)?;
        }
        for n in &self.nullified_nodes {
            s.node_mut(*n)?.kind = NodeKind::Null;
        }
        // Nullified nodes lose their data edges.
        for n in &self.nullified_nodes {
            let edges: Vec<DataEdge> = s.data_edges_of(*n).cloned().collect();
            for de in edges {
                s.remove_data_edge(de.node, de.data, de.mode)?;
            }
        }
        for e in &self.added_edges {
            s.add_edge_at(e.id, e.clone())?;
        }
        for de in &self.added_data_edges {
            s.add_data_edge(de.clone())?;
        }
        for (n, attrs) in &self.patched_attrs {
            s.node_mut(*n)?.attrs = attrs.clone();
        }
        Ok(s)
    }

    /// Approximate deep size in bytes (for the Fig. 2 experiments). A name
    /// is shared with the schema the block overlays, but counted here by
    /// its length, as in [`ProcessSchema::approx_size`].
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let mut s = size_of::<Self>();
        for n in &self.added_nodes {
            s += size_of::<Node>() + n.name.len();
        }
        s += self.added_edges.capacity() * size_of::<Edge>();
        for d in &self.added_data {
            s += size_of::<DataElement>() + d.name.len();
        }
        s += self.added_data_edges.capacity() * size_of::<DataEdge>();
        s += self.removed_edges.capacity() * size_of::<EdgeId>();
        s += self.removed_nodes.capacity() * size_of::<NodeId>();
        s += self.nullified_nodes.capacity() * size_of::<NodeId>();
        s +=
            self.patched_attrs.capacity() * (size_of::<NodeId>() + size_of::<ActivityAttributes>());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::{apply_op, ChangeOp, NewActivity};
    use adept_model::SchemaBuilder;

    fn base() -> ProcessSchema {
        let mut b = SchemaBuilder::new("order");
        b.activity("get order");
        b.activity("collect data");
        b.and_split();
        b.branch();
        b.activity("confirm order");
        b.branch();
        b.activity("compose order");
        b.activity("pack goods");
        b.and_join();
        b.activity("deliver goods");
        b.build().unwrap()
    }

    #[test]
    fn overlay_equals_direct_application_for_insert() {
        let base = base();
        let mut materialized = base.clone();
        materialized.reserve_private_id_space();
        let compose = materialized.node_by_name("compose order").unwrap().id;
        let pack = materialized.node_by_name("pack goods").unwrap().id;
        let mut delta = Delta::new();
        delta.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("extra"),
                    pred: compose,
                    succ: pack,
                },
            )
            .unwrap(),
        );

        let block = SubstitutionBlock::from_delta(&delta, &materialized);
        assert!(!block.is_empty());
        assert_eq!(block.added_nodes.len(), 1);
        let rebuilt = block.overlay(&base).unwrap();
        assert_eq!(rebuilt, materialized);
    }

    #[test]
    fn overlay_equals_direct_application_for_delete() {
        let base = base();
        let mut materialized = base.clone();
        materialized.reserve_private_id_space();
        let confirm = materialized.node_by_name("confirm order").unwrap().id;
        let mut delta = Delta::new();
        delta.push(
            apply_op(
                &mut materialized,
                &ChangeOp::DeleteActivity { node: confirm },
            )
            .unwrap(),
        );
        let block = SubstitutionBlock::from_delta(&delta, &materialized);
        let rebuilt = block.overlay(&base).unwrap();
        assert_eq!(rebuilt, materialized);
    }

    #[test]
    fn overlay_equals_direct_application_for_sync_and_move() {
        let base = base();
        let mut materialized = base.clone();
        materialized.reserve_private_id_space();
        let confirm = materialized.node_by_name("confirm order").unwrap().id;
        let compose = materialized.node_by_name("compose order").unwrap().id;
        let pack = materialized.node_by_name("pack goods").unwrap().id;
        let mut delta = Delta::new();
        delta.push(
            apply_op(
                &mut materialized,
                &ChangeOp::InsertSyncEdge {
                    from: confirm,
                    to: pack,
                },
            )
            .unwrap(),
        );
        delta.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SerialInsert {
                    activity: NewActivity::named("label"),
                    pred: compose,
                    succ: pack,
                },
            )
            .unwrap(),
        );
        let block = SubstitutionBlock::from_delta(&delta, &materialized);
        let rebuilt = block.overlay(&base).unwrap();
        // Edge insertion order may differ between overlay and direct
        // application, so compare structure via counts.
        assert_eq!(rebuilt.edge_count(), materialized.edge_count());
        assert_eq!(rebuilt.node_count(), materialized.node_count());
        assert_eq!(
            rebuilt.sync_edges().count(),
            materialized.sync_edges().count()
        );
    }

    #[test]
    fn overlay_preserves_attribute_only_changes() {
        let base = base();
        let mut materialized = base.clone();
        materialized.reserve_private_id_space();
        let confirm = materialized.node_by_name("confirm order").unwrap().id;
        let mut attrs = materialized.node(confirm).unwrap().attrs.clone();
        attrs.role = Some("supervisor".into());
        attrs.skippable = true;
        let mut delta = Delta::new();
        delta.push(
            apply_op(
                &mut materialized,
                &ChangeOp::SetActivityAttributes {
                    node: confirm,
                    attrs,
                },
            )
            .unwrap(),
        );
        let block = SubstitutionBlock::from_delta(&delta, &materialized);
        assert!(!block.is_empty(), "attr patches must leave a trace");
        let rebuilt = block.overlay(&base).unwrap();
        let n = rebuilt.node(confirm).unwrap();
        assert_eq!(n.attrs.role.as_deref(), Some("supervisor"));
        assert!(n.attrs.skippable);
        assert_eq!(rebuilt, materialized);
    }

    #[test]
    fn empty_block_for_empty_delta() {
        let base = base();
        let block = SubstitutionBlock::from_delta(&Delta::new(), &base);
        assert!(block.is_empty());
        let rebuilt = block.overlay(&base).unwrap();
        assert_eq!(rebuilt.node_count(), base.node_count());
    }
}
