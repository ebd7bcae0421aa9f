//! Work items: the user-facing side of the engine.
//!
//! Activated activities are offered as work items; actors claim them by
//! role. This is the minimal faithful model of ADEPT2's worklist
//! management (the demo system distributed these via client components).
//!
//! The marking is the one source of truth and the worklist its projection:
//! every read takes an instance's items from what the store says it
//! offers ([`adept_storage::InstanceStore::scan`]) — its enabled
//! activities on the schema it runs on, named by that schema's names table
//! ([`adept_storage::Names`]), whose strings the items share. A full read
//! renders them; a [`WorklistDelta`] hands on the offer itself, an
//! [`Offered`], rendered when its consumer asks. The engine keeps nothing
//! per instance, so there is nothing to install, invalidate or fall out of
//! step with the store; what makes a delta cost what changed rather than
//! what exists is the store's own change order.

use adept_model::{InstanceId, NodeId};
use adept_storage::{Label, Names, Offer};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

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

/// The work item of `activity` of instance `id`, strings shared with the
/// names table.
fn item(id: InstanceId, activity: &Label, type_name: &Arc<str>, version: u32) -> WorkItem {
    WorkItem {
        instance: id,
        node: activity.node,
        activity: activity.name.clone(),
        role: activity.role.clone(),
        type_name: type_name.clone(),
        version,
    }
}

/// Appends the work items of what instance `id` offers — one per enabled
/// activity, in node-id order, annotated with name, role and version for
/// claiming — to `out`; with a `role`, only those it may claim.
pub(crate) fn items_for(
    id: InstanceId,
    offer: Offer<'_>,
    role: Option<&str>,
    out: &mut Vec<WorkItem>,
) {
    for activity in offer.activities.iter() {
        if role.is_some_and(|role| !admits(activity.role.as_deref(), role)) {
            continue;
        }
        out.push(item(id, activity, offer.type_name, offer.version));
    }
}

/// Slots an [`Offered`] holds inline: what a change stamp holds, so that a
/// delta entry copied off one allocates nothing.
const INLINE: usize = 6;

/// What an instance offers, as a [`WorklistDelta`] carries it: a handle to
/// the names table of the schema it runs on and the table slots of its
/// enabled activities — the store's change stamp, copied — rendered into
/// [`WorkItem`]s only when they are asked for ([`Offered::items`]). A poll
/// costs its ids: one reference count and a few integers per changed
/// instance, not an allocation and a string handle per item.
#[derive(Debug, Clone)]
pub struct Offered {
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

impl Offered {
    /// What `offer` says instance `id` offers.
    pub(crate) fn of(id: InstanceId, offer: Offer<'_>) -> Self {
        let from = offer.activities.slots();
        let slots = if from.len() <= INLINE {
            let mut inline = [0; INLINE];
            inline
                .iter_mut()
                .zip(from)
                .for_each(|(to, slot)| *to = *slot);
            Slots::Inline(from.len() as u8, inline)
        } else {
            Slots::Spilled(from.into())
        };
        Offered {
            instance: id,
            version: offer.version,
            names: Some(offer.activities.names().clone()),
            slots,
        }
    }

    /// Nothing: instance `id`, whose schema does not resolve.
    pub(crate) fn nothing(id: InstanceId) -> Self {
        Offered {
            instance: id,
            version: 0,
            names: None,
            slots: Slots::Inline(0, [0; INLINE]),
        }
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
        let names = self.names.as_deref();
        self.slots().iter().filter_map(move |slot| {
            let names = names?;
            let activity = names.label(*slot)?;
            Some(item(
                self.instance,
                activity,
                names.type_name(),
                self.version,
            ))
        })
    }
}

/// Two offers are equal when they render the same work items.
impl PartialEq for Offered {
    fn eq(&self, other: &Self) -> bool {
        self.instance == other.instance && self.items().eq(other.items())
    }
}

/// An epoch-stamped delta of the worklist since a consumer's last poll —
/// what [`crate::ProcessEngine::worklist_delta`] returns.
///
/// Replaying deltas from epoch 0 reconstructs exactly the full worklist:
/// each `added` entry is the instance's complete current item set
/// ([`Offered::items`]; replace, don't merge), and each `invalidated` id
/// has no offered items any more (drop it). Pass `epoch` as the next
/// poll's `since` — to the engine that issued it: epochs restart with the
/// engine, so a cursor is meaningless to any other (a recovered one
/// included).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorklistDelta {
    /// Instances whose item set changed since `since`, with their full
    /// current item sets (empty set = instance offers nothing right
    /// now). A set: each instance once, in the order the store's scan met
    /// it — no order to rely on (sort it if you need one; the engine does
    /// not pay for that on every poll).
    pub added: Vec<(InstanceId, Offered)>,
    /// Instances removed since `since` (none on a bootstrap, whose
    /// consumer holds nothing to drop). Sorted by instance id.
    pub invalidated: Vec<InstanceId>,
    /// The epoch this delta is current through — the next `since`.
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(role: Option<&str>) -> WorkItem {
        WorkItem {
            instance: InstanceId(1),
            node: NodeId(2),
            activity: "confirm order".into(),
            role: role.map(Arc::from),
            type_name: "order".into(),
            version: 1,
        }
    }

    #[test]
    fn role_claims() {
        assert!(item(None).claimable_by("anyone"));
        assert!(item(Some("clerk")).claimable_by("clerk"));
        assert!(!item(Some("clerk")).claimable_by("physician"));
    }

    #[test]
    fn display() {
        let s = item(Some("clerk")).to_string();
        assert!(s.contains("confirm order"));
        assert!(s.contains("clerk"));
    }
}
