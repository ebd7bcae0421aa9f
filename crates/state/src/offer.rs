//! What an instance offers its actors: the [`Names`] table of the schema it
//! runs on, its enabled activities as an [`Offer`] — slots of that table —
//! and the [`WorkItem`]s an offer renders.
//!
//! One offer type from where it is taken to where it is read: the instance
//! store stamps a change with the offer of the state it wrote, a worklist
//! read hands that stamp on, and a delta entry is a copy of it. An offer
//! holds a handle to the table and a few integers; the strings are the
//! table's, shared by every item of every instance on the schema.

use crate::execution::{Execution, InstanceState};
use crate::marking::NodeState;
use adept_model::{InstanceId, NodeId, ProcessSchema};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The **names table** of an analysed schema: its process type and, per
/// activity, the name and role to offer it under — the strings of every
/// work item of every instance running on it, shared (`Arc<str>`) rather
/// than copied per item. Built once with the [`crate::Execution`], it
/// outlives the schema wherever an [`Offer`] keeps a handle to it: a change
/// stamp of the instance store says what an instance offers as slots of
/// this table, and so holds on to no schema.
///
/// Aligned so that the payload starts on a cache line of its own, off the
/// one the handle's reference counts live on: commands clone and drop
/// handles on their cores while a poller reads labels on its own.
#[derive(Debug, PartialEq)]
#[repr(align(128))]
pub struct Names {
    type_name: Arc<str>,
    /// One label per activity, in node-id order; a label's index is its
    /// **slot**.
    labels: Box<[Label]>,
}

/// One activity of a [`Names`] table.
#[derive(Debug, PartialEq)]
pub struct Label {
    /// The activity node.
    pub node: NodeId,
    /// Its name.
    pub name: Arc<str>,
    /// Its staff assignment rule (role), if any.
    pub role: Option<Arc<str>>,
}

impl Names {
    /// The table of `schema`, sharing its names and roles: a label holds
    /// the schema's own strings, not copies of them.
    pub(crate) fn of(schema: &ProcessSchema) -> Self {
        let labels = schema.activities().map(|n| Label {
            node: n.id,
            name: n.name.clone(),
            role: n.attrs.role.clone(),
        });
        Names {
            type_name: schema.name.as_str().into(),
            labels: labels.collect(),
        }
    }

    /// The process type.
    pub fn type_name(&self) -> &Arc<str> {
        &self.type_name
    }

    /// The label in `slot`.
    pub fn label(&self, slot: u32) -> Option<&Label> {
        self.labels.get(slot as usize)
    }

    /// Approximate deep size in bytes (for memory accounting). A name or
    /// role is shared with the schema (and a role with other labels), but
    /// counted once per label.
    pub(crate) fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let label =
            |l: &Label| size_of::<Label>() + l.name.len() + l.role.as_ref().map_or(0, |r| r.len());
        size_of::<Self>() + self.type_name.len() + self.labels.iter().map(label).sum::<usize>()
    }

    /// The slot of an activity of this schema.
    pub fn slot_of(&self, node: NodeId) -> Option<u32> {
        let at = self.labels.binary_search_by_key(&node, |l| l.node).ok()?;
        u32::try_from(at).ok()
    }

    /// The slots of the activities `state` enables, in node-id order.
    pub fn enabled<'a>(&'a self, state: &'a InstanceState) -> impl Iterator<Item = u32> + 'a {
        let activated = state.marking.nodes_in(NodeState::Activated);
        activated.filter_map(|n| self.slot_of(n))
    }
}

/// Slots an [`Offer`] holds inline: a handful of parallel branches. An
/// instance offering more spills them to one heap block.
const INLINE: usize = 6;

/// What an instance offers: its enabled activities, in node-id order, as
/// slots of the [`Names`] table of the schema it runs on, rendered into
/// [`WorkItem`]s only when they are asked for ([`Offer::items`]). Copying
/// one costs a reference count and a few integers.
#[derive(Debug, Clone)]
pub struct Offer {
    instance: InstanceId,
    version: u32,
    /// `None`: no schema resolves for the instance; it offers nothing.
    names: Option<Arc<Names>>,
    slots: Slots,
}

#[derive(Debug, Clone)]
enum Slots {
    Inline(u8, [u32; INLINE]),
    Spilled(Box<[u32]>),
}

impl Offer {
    /// What `state` of instance `instance` offers on `ctx`, the analysed
    /// schema it runs on.
    pub fn of(instance: InstanceId, ctx: &Execution, state: &InstanceState) -> Self {
        let names = &ctx.names;
        let mut inline = [0; INLINE];
        let mut len = 0;
        let mut enabled = names.enabled(state);
        for (to, slot) in inline.iter_mut().zip(enabled.by_ref()) {
            *to = slot;
            len += 1;
        }
        let slots = match enabled.next() {
            None => Slots::Inline(len, inline),
            Some(next) => {
                let spilled = inline.into_iter().chain([next]).chain(enabled);
                Slots::Spilled(spilled.collect())
            }
        };
        Offer {
            instance,
            version: ctx.schema.version,
            names: Some(names.clone()),
            slots,
        }
    }

    /// Nothing: instance `instance`, whose schema does not resolve.
    pub fn nothing(instance: InstanceId) -> Self {
        Offer {
            instance,
            version: 0,
            names: None,
            slots: Slots::Inline(0, [0; INLINE]),
        }
    }

    /// The instance.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    fn slots(&self) -> &[u32] {
        match &self.slots {
            Slots::Inline(len, slots) => slots.get(..usize::from(*len)).unwrap_or_default(),
            Slots::Spilled(slots) => slots,
        }
    }

    /// How many work items the instance offers.
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    /// Whether it offers none.
    pub fn is_empty(&self) -> bool {
        self.slots().is_empty()
    }

    /// The work items, in node-id order.
    pub fn items(&self) -> impl Iterator<Item = WorkItem> + '_ {
        self.items_for(None)
    }

    /// The work items an actor with `role` may claim (all of them without
    /// one), in node-id order: filtered before they are rendered.
    pub fn items_for<'a>(&'a self, role: Option<&'a str>) -> impl Iterator<Item = WorkItem> + 'a {
        let names = self.names.as_deref();
        let labels = self
            .slots()
            .iter()
            .filter_map(move |slot| names?.label(*slot));
        let claimable = labels.filter(move |l| role.is_none_or(|r| admits(l.role.as_deref(), r)));
        claimable.map(move |activity| WorkItem {
            instance: self.instance,
            node: activity.node,
            activity: activity.name.clone(),
            role: activity.role.clone(),
            // Only an offer with a table has slots to render.
            type_name: names.map(|n| n.type_name.clone()).unwrap_or_default(),
            version: self.version,
        })
    }
}

/// Two offers are equal when they render the same work items.
impl PartialEq for Offer {
    fn eq(&self, other: &Self) -> bool {
        self.instance == other.instance && self.items().eq(other.items())
    }
}

/// One offered unit of work: an activated activity of some instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// The instance the work belongs to.
    pub instance: InstanceId,
    /// The activity node.
    pub node: NodeId,
    /// Activity name (shared with every item of the same activity).
    pub activity: Arc<str>,
    /// Staff assignment rule (role), if any.
    pub role: Option<Arc<str>>,
    /// Process type name.
    pub type_name: Arc<str>,
    /// Schema version the instance currently runs on.
    pub version: u32,
}

impl WorkItem {
    /// Whether an actor with the given role may claim this item. Items
    /// without a role are claimable by anyone.
    pub fn claimable_by(&self, role: &str) -> bool {
        admits(self.role.as_deref(), role)
    }
}

/// The claiming rule: an activity without a staff assignment is anyone's.
fn admits(assigned: Option<&str>, role: &str) -> bool {
    assigned.is_none_or(|r| r == role)
}

impl fmt::Display for WorkItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} v{}] {} \"{}\"",
            self.instance, self.version, self.node, self.activity
        )?;
        if let Some(r) = &self.role {
            write!(f, " (role: {r})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::SchemaBuilder;

    /// An offer holds a handful of slots inline and spills the rest: either
    /// way it renders every enabled activity, in node-id order, and filters
    /// by role before it renders.
    #[test]
    fn an_offer_renders_every_enabled_activity_inline_or_spilled() {
        for width in [2, INLINE, INLINE + 3] {
            let mut b = SchemaBuilder::new("wide");
            b.and_split();
            for k in 0..width {
                b.branch();
                b.activity_with(&format!("step {k}"), |attrs| {
                    attrs.role = (k % 2 == 1).then(|| "clerk".into());
                });
            }
            b.and_join();
            let ex = Execution::new(b.build().unwrap()).unwrap();
            let state = ex.init().unwrap();
            let offer = Offer::of(InstanceId(7), &ex, &state);
            assert_eq!(offer.len(), width);
            let nodes: Vec<_> = offer.items().map(|w| w.node).collect();
            assert_eq!(nodes, ex.enabled(&state));
            assert!(offer.items().all(|w| w.instance == InstanceId(7)));
            let claimable = offer.items_for(Some("physician")).count();
            assert_eq!(claimable, width - width / 2);
        }
        assert!(Offer::nothing(InstanceId(7)).items().next().is_none());
    }
}
