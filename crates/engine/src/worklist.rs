//! Work items: the user-facing side of the engine.
//!
//! Activated activities are offered as work items; actors claim them by
//! role. This is the minimal faithful model of ADEPT2's worklist
//! management (the demo system distributed these via client components).
//!
//! The worklist is the store's change order: every write of an instance
//! that holds the context of the state it wrote stamps what the instance
//! offers since — an [`Offer`], its enabled activities as slots of that
//! schema's names table ([`adept_state::Names`]), whose strings the items
//! share — and every read is one scan of those stamps
//! ([`adept_storage::InstanceStore::scan`]), going to an instance only
//! where its last writer had no context. A full read renders the offers;
//! a [`WorklistDelta`] hands them on, rendered when their consumer asks.
//! The engine keeps nothing per instance, so there is nothing to install,
//! invalidate or fall out of step with the store.

use adept_model::InstanceId;
pub use adept_state::{Offer, WorkItem};

/// An epoch-stamped delta of the worklist since a consumer's last poll —
/// what [`crate::ProcessEngine::worklist_delta`] returns.
///
/// Replaying deltas from epoch 0 reconstructs exactly the full worklist:
/// each `added` entry is the instance's complete current item set
/// ([`Offer::items`]; replace, don't merge), and each `invalidated` id
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
    pub added: Vec<(InstanceId, Offer)>,
    /// Instances removed since `since` (none on a bootstrap, whose
    /// consumer holds nothing to drop). Sorted by instance id.
    pub invalidated: Vec<InstanceId>,
    /// The epoch this delta is current through — the next `since`.
    pub epoch: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::NodeId;
    use std::sync::Arc;

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
