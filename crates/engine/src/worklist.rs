//! Work items: the user-facing side of the engine.
//!
//! Activated activities are offered as work items; actors claim them by
//! role. This is the minimal faithful model of ADEPT2's worklist
//! management (the demo system distributed these via client components).
//!
//! The marking is the one source of truth and the worklist its projection:
//! every read renders an instance's items from what the store says it
//! offers ([`adept_storage::InstanceStore::scan`]) — its enabled
//! activities on the schema it runs on, named by that schema's names table
//! ([`adept_storage::Names`]), whose strings the items share. The engine
//! keeps nothing per instance, so there is nothing to install, invalidate
//! or fall out of step with the store; what makes a [`WorklistDelta`] cost
//! what changed rather than what exists is the store's own change order.

use adept_model::{InstanceId, NodeId};
use adept_storage::Offer;
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
        out.push(WorkItem {
            instance: id,
            node: activity.node,
            activity: activity.name.clone(),
            role: activity.role.clone(),
            type_name: offer.type_name.clone(),
            version: offer.version,
        });
    }
}

/// An epoch-stamped delta of the worklist since a consumer's last poll —
/// what [`crate::ProcessEngine::worklist_delta`] returns.
///
/// Replaying deltas from epoch 0 reconstructs exactly the full worklist:
/// each `added` entry is the instance's complete current item set
/// (replace, don't merge), and each `invalidated` id has no offered items
/// any more (drop it). Pass `epoch` as the next poll's `since` — to the
/// engine that issued it: epochs restart with the engine, so a cursor is
/// meaningless to any other (a recovered one included).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorklistDelta {
    /// Instances whose item set changed since `since`, with their full
    /// current item sets (empty set = instance offers nothing right
    /// now). Sorted by instance id.
    pub added: Vec<(InstanceId, Vec<WorkItem>)>,
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
