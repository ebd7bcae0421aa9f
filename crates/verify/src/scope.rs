//! What one verification pass checks: the whole schema, or what a change's
//! operations touched.
//!
//! A deploy or a type evolution is verified whole ([`Scope::WHOLE`]). An
//! ad-hoc overlay or a biased migration target differs from a schema that
//! already passed the whole pass by a few operations, each applied with
//! its structural preconditions checked; every check whose findings those
//! operations cannot change is guaranteed by the earlier pass. Its scope
//! names what they can change — the change layer (`adept-core`) derives it
//! from the staged operations — and the pass runs the same checks, in the
//! same order, restricted to it:
//!
//! * **structure** — the degree, kind and XOR guard rules of the nodes in
//!   [`Scope::nodes`] and the guards on their outgoing edges; every sync
//!   edge's rules; the block analysis's own verdict. Start/end
//!   uniqueness, reachability and the nesting of blocks run in the whole
//!   pass only: no operation adds a terminal, disconnects a node or makes
//!   two blocks cross;
//! * **data flow** — definitely-written inputs, guard and loop-condition
//!   reads, parallel writes and unread elements, for the elements in
//!   [`Scope::data`] (every element under [`Scope::all_data`]). A scope
//!   without data skips the data flow and the topological order it walks;
//! * **deadlock** — reported when the data flow's topological order finds
//!   a cycle. A change cannot close one: staging a sync edge refuses a
//!   cycle.
//!
//! Debug builds check every scoped verdict against the whole pass (see
//! [`crate::verify_indexed`]).

use adept_model::{DataId, NodeId, SchemaIndex};

/// The part of a schema one verification pass checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scope {
    /// Every check on every node, edge and data element; the other fields
    /// are ignored.
    pub whole: bool,
    /// The nodes the operations added, removed or re-wired (removed ones
    /// are skipped), in any order, repeats allowed.
    pub nodes: Vec<NodeId>,
    /// The data elements whose flow the operations may have changed, in
    /// any order, repeats allowed.
    pub data: Vec<DataId>,
    /// The flow of every data element may have changed (a removed sync
    /// edge's guarantee can reach any of them).
    pub all_data: bool,
}

impl Scope {
    /// The whole schema: what a deploy and a type evolution verify.
    pub const WHOLE: Scope = Scope {
        whole: true,
        nodes: Vec::new(),
        data: Vec::new(),
        all_data: true,
    };
}

/// A [`Scope`] resolved against one index: node slots and data ids
/// ascending, without repeats.
pub(crate) struct InScope {
    whole: bool,
    /// Slots in scope, ascending (empty when whole).
    slots: Vec<u32>,
    /// Data ids in scope, ascending; `None` is every element.
    data: Option<Vec<DataId>>,
}

impl InScope {
    pub(crate) fn resolve(scope: &Scope, index: &SchemaIndex<'_>) -> Self {
        if scope.whole {
            return Self {
                whole: true,
                slots: Vec::new(),
                data: None,
            };
        }
        let mut slots: Vec<u32> = scope.nodes.iter().filter_map(|&n| index.slot(n)).collect();
        slots.sort_unstable();
        slots.dedup();
        let data = (!scope.all_data).then(|| {
            let mut data = scope.data.clone();
            data.sort_unstable();
            data.dedup();
            data
        });
        Self {
            whole: false,
            slots,
            data,
        }
    }

    /// Whether every check runs everywhere.
    pub(crate) fn whole(&self) -> bool {
        self.whole
    }

    /// The node slots the per-node rules run on, ascending.
    pub(crate) fn slots(&self, index: &SchemaIndex<'_>) -> impl Iterator<Item = u32> + '_ {
        let all = if self.whole { index.node_count() } else { 0 };
        (0..all as u32).chain(self.slots.iter().copied())
    }

    /// Whether the node in slot `n` is in scope.
    pub(crate) fn has_slot(&self, n: u32) -> bool {
        self.whole || self.slots.binary_search(&n).is_ok()
    }

    /// Whether the flow of `d` is in scope.
    pub(crate) fn has_data(&self, d: DataId) -> bool {
        self.data
            .as_ref()
            .is_none_or(|data| data.binary_search(&d).is_ok())
    }

    /// Whether the flow of any element is in scope (always, when whole).
    pub(crate) fn any_data(&self) -> bool {
        self.data.as_ref().is_none_or(|data| !data.is_empty())
    }
}
