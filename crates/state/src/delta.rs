//! What one command changed in an instance's state: the record a durable
//! engine journals for it, instead of the whole state.
//!
//! A command touches a few marking entries and the end of the history.
//! [`StateDiff::between`] finds exactly that from the state before and
//! after it:
//!
//! * the marking entries that differ — nodes, edges, loop counters — each
//!   at its new value, the default where the entry went away;
//! * how much of the history the two share, `keep`, and the events after
//!   it (a failed activity withdraws its `Started` record from the middle,
//!   so a history does not only grow).
//!
//! The data context is not part of it: every write is in the `Completed`
//! event that made it, and [`StateDelta::apply`] folds the writes of the
//! events it appends, in order, over the values it finds. That is exact
//! even where `keep` rewinds past earlier completions, after a withdrawn
//! `Started`: the events after `keep` are a contiguous tail of the new
//! history that repeats the completions it rewinds past, and writing a
//! tail of writes again leaves a last-write-wins map as it was.
//!
//! The diff borrows its history part from the later state, so it is
//! encoded without copying it; [`StateDelta`], the same fields owned
//! and encoded alike, is what a reader decodes and [`StateDelta::apply`]s.
//! A delta describes a change *of one state*: the journal says which, by
//! revision.
//!
//! [`StateDelta::apply`] works on decoded bytes, so it trusts none of them:
//! every id must name a node, edge or data element of the schema the state
//! runs on and `keep` must lie inside the history, or nothing is applied.
//!
//! Encoding (snapshot format 9): `{"nodes":{…},"edges":{…},"loops":[[id,
//! count],…],"keep":n,"history":[…]}`, the changed nodes and edges written
//! as one id list per state by the marking's encoder (the default state a
//! group of its own: the entries that went away), the events as their
//! fields in order ([`crate::history`]). A line in the pair form of
//! format 8 (`"nodes":[[id,"Completed"],…]`) is refused, not read.

use crate::datactx::DataContext;
use crate::execution::InstanceState;
use crate::history::Event;
use crate::marking::{write_ids_by_state, EdgeState, IdsByState, NodeState};
use adept_model::{EdgeId, ModelError, NodeId, ProcessSchema};
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::cmp::Ordering;

/// The change from one state of an instance to a later one, borrowing the
/// later state's new history events.
#[derive(Debug)]
pub struct StateDiff<'a> {
    nodes: Vec<(NodeId, NodeState)>,
    edges: Vec<(EdgeId, EdgeState)>,
    loops: Vec<(NodeId, u32)>,
    keep: usize,
    history: &'a [Event],
    unchanged: bool,
}

impl<'a> StateDiff<'a> {
    /// What turned `pre` into `post`.
    pub fn between(pre: &InstanceState, post: &'a InstanceState) -> Self {
        let (before, after) = (&pre.history.events, &post.history.events);
        let keep = before.iter().zip(after).take_while(|(a, b)| a == b).count();
        let history = after.get(keep..).unwrap_or_default();
        let nodes = changed(pre.marking.marked_nodes(), post.marking.marked_nodes());
        let edges = changed(pre.marking.signaled_edges(), post.marking.signaled_edges());
        let loops = changed(pre.marking.loop_counters(), post.marking.loop_counters());
        let unchanged = nodes.is_empty()
            && edges.is_empty()
            && loops.is_empty()
            && keep == before.len()
            && history.is_empty();
        StateDiff {
            nodes,
            edges,
            loops,
            keep,
            history,
            unchanged,
        }
    }

    /// Whether the two states are the same (applying the delta would
    /// change nothing).
    pub fn is_empty(&self) -> bool {
        self.unchanged
    }

    /// The delta, owned.
    pub fn to_delta(&self) -> StateDelta {
        StateDelta {
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            loops: self.loops.clone(),
            keep: self.keep,
            history: self.history.to_vec(),
        }
    }
}

impl Serialize for StateDiff<'_> {
    fn serialize(&self, out: &mut Writer) {
        let (nodes, edges, loops) = (&self.nodes, &self.edges, &self.loops);
        write_delta(out, nodes, edges, loops, self.keep, self.history);
    }
}

/// The changed entries of two sparse maps, both iterated in key order: a
/// key whose value differs or is new at its new value, a key that went
/// away at the default (which a sparse marking does not store).
fn changed<K: Ord + Copy, V: Copy + PartialEq + Default>(
    pre: impl Iterator<Item = (K, V)>,
    post: impl Iterator<Item = (K, V)>,
) -> Vec<(K, V)> {
    let (mut pre, mut post) = (pre.peekable(), post.peekable());
    let mut out = Vec::new();
    loop {
        let order = match (pre.peek(), post.peek()) {
            (None, None) => return out,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((k, _)), Some((j, _))) => k.cmp(j),
        };
        match order {
            Ordering::Less => out.extend(pre.next().map(|(k, _)| (k, V::default()))),
            Ordering::Greater => out.extend(post.next()),
            Ordering::Equal => {
                if let (Some((_, old)), Some(new)) = (pre.next(), post.next()) {
                    if old != new.1 {
                        out.push(new);
                    }
                }
            }
        }
    }
}

/// The one encoding of a delta, borrowed ([`StateDiff`]) or owned
/// ([`StateDelta`]): an object of its five fields.
fn write_delta(
    out: &mut Writer,
    nodes: &[(NodeId, NodeState)],
    edges: &[(EdgeId, EdgeState)],
    loops: &[(NodeId, u32)],
    keep: usize,
    history: &[Event],
) {
    out.begin_map();
    out.member("\"nodes\":");
    write_ids_by_state(out, nodes);
    out.member(",\"edges\":");
    write_ids_by_state(out, edges);
    out.member(",\"loops\":");
    loops.serialize(out);
    out.member(",\"keep\":");
    keep.serialize(out);
    out.member(",\"history\":");
    history.serialize(out);
    out.end_map(false);
}

/// A decoded state delta (see the module docs), encoded as the
/// [`StateDiff`] it was written from. A line written while deltas carried
/// their data writes beside the history decodes all the same: its `data`
/// member is skipped, and the history's writes are applied.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDelta {
    /// Node states that changed, in id order (`NotActivated`: the node is
    /// back at its default).
    pub nodes: Vec<(NodeId, NodeState)>,
    /// Edge states that changed, in id order (`NotSignaled`: back at the
    /// default).
    pub edges: Vec<(EdgeId, EdgeState)>,
    /// Loop counters that changed, in id order (0: cleared).
    pub loops: Vec<(NodeId, u32)>,
    /// How many history events of the state it applies to survive.
    pub keep: usize,
    /// The history events after those.
    pub history: Vec<Event>,
}

impl Serialize for StateDelta {
    fn serialize(&self, out: &mut Writer) {
        let (nodes, edges, loops) = (&self.nodes, &self.edges, &self.loops);
        write_delta(out, nodes, edges, loops, self.keep, &self.history);
    }
}

/// What a delta decodes from: its changed nodes and edges by state, a
/// group of the default state among them.
#[derive(Deserialize)]
struct DecodedDelta {
    nodes: IdsByState<NodeId, NodeState, true>,
    edges: IdsByState<EdgeId, EdgeState, true>,
    loops: Vec<(NodeId, u32)>,
    keep: usize,
    history: Vec<Event>,
}

impl Deserialize for StateDelta {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let DecodedDelta {
            nodes,
            edges,
            loops,
            keep,
            history,
        } = DecodedDelta::deserialize(r)?;
        Ok(StateDelta {
            nodes: nodes.0,
            edges: edges.0,
            loops,
            keep,
            history,
        })
    }
}

impl StateDelta {
    /// Applies the delta to `state`, an instance's state on `schema`, and
    /// folds the writes of the events it appends into the data context.
    /// Fails — changing nothing — where the delta does not fit: `keep` past
    /// the end of the history, an id `schema` does not have, or a write
    /// its data element's type refuses.
    pub fn apply(self, schema: &ProcessSchema, state: &mut InstanceState) -> Result<(), String> {
        let len = state.history.len();
        if self.keep > len {
            return Err(format!("keeps {} history events of {len}", self.keep));
        }
        self.check(schema).map_err(|e| e.to_string())?;
        // Everything is known to fit: nothing below fails.
        for &(n, s) in &self.nodes {
            state.marking.set_node(n, s);
        }
        for &(e, s) in &self.edges {
            state.marking.set_edge(e, s);
        }
        for &(n, c) in &self.loops {
            state.marking.set_loop_count(n, c);
        }
        state.data.fold(&self.history);
        state.history.events.truncate(self.keep);
        state.history.events.extend(self.history);
        Ok(())
    }

    /// Every id the delta names is one `schema` has, and every write fits
    /// its data element.
    fn check(&self, schema: &ProcessSchema) -> Result<(), ModelError> {
        let loop_ends = self.loops.iter().map(|&(n, _)| n);
        for n in self.nodes.iter().map(|&(n, _)| n).chain(loop_ends) {
            schema.node(n)?;
        }
        for &(e, _) in &self.edges {
            schema.edge(e)?;
        }
        for event in &self.history {
            match event {
                Event::Started { node, reads } => {
                    schema.node(*node)?;
                    for d in reads {
                        schema.data_element(*d)?;
                    }
                }
                Event::Completed { node, writes } => {
                    schema.node(*node)?;
                    for (d, v) in writes {
                        DataContext::validate_write(schema, *d, v)?;
                    }
                }
                Event::XorChosen {
                    split,
                    branch_target,
                } => {
                    schema.node(*split)?;
                    schema.node(*branch_target)?;
                }
                Event::LoopDecided { loop_end: n, .. } | Event::LoopReset { loop_start: n } => {
                    schema.node(*n)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{DefaultDriver, Execution};
    use adept_model::{DataId, LoopCond, SchemaBuilder, Value, ValueType};

    /// Data, parallel branches and a loop: `w` writes `d`, then `x ∥ y`,
    /// then a body run twice.
    fn schema() -> (ProcessSchema, [NodeId; 3], DataId) {
        let mut b = SchemaBuilder::new("delta");
        let d = b.data("amount", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        b.and_split();
        b.branch();
        let x = b.activity("x");
        b.branch();
        let y = b.activity("y");
        b.and_join();
        b.loop_start();
        b.activity("body");
        b.loop_end(LoopCond::Times(2));
        (b.build().unwrap(), [w, x, y], d)
    }

    /// Runs `f` on `st`, diffs the step, sends the delta through its
    /// encoding and applies what decodes to the state before: the state
    /// after comes back.
    fn step(schema: &ProcessSchema, st: &mut InstanceState, f: impl FnOnce(&mut InstanceState)) {
        let pre = st.clone();
        f(st);
        let diff = StateDiff::between(&pre, st);
        assert_eq!(diff.is_empty(), pre == *st);
        let json = serde_json::to_string(&diff).unwrap();
        let decoded: StateDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, diff.to_delta());
        assert_eq!(serde_json::to_string(&decoded).unwrap(), json);
        let mut replayed = pre;
        decoded.apply(schema, &mut replayed).unwrap();
        assert_eq!(replayed, *st);
    }

    #[test]
    fn every_step_round_trips_through_its_delta() {
        let (s, [w, x, y], d) = schema();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        step(&s, &mut st, |st| ex.start_activity(st, w).unwrap());
        let wrote = vec![(d, Value::Int(7))];
        step(&s, &mut st, |st| {
            ex.complete_activity(st, w, wrote).unwrap()
        });
        step(&s, &mut st, |st| ex.start_activity(st, x).unwrap());
        step(&s, &mut st, |st| ex.start_activity(st, y).unwrap());
        // `x`'s `Started` is withdrawn from the middle of the history.
        let before_fail = st.history.len();
        step(&s, &mut st, |st| ex.exec().fail_activity(st, x).unwrap());
        assert_eq!(st.history.len(), before_fail - 1);
        step(&s, &mut st, |_| {});
        step(&s, &mut st, |st| ex.start_activity(st, x).unwrap());
        step(&s, &mut st, |st| {
            ex.complete_activity(st, x, vec![]).unwrap()
        });
        // The loop: counters, a reset body back at its defaults.
        step(&s, &mut st, |st| {
            ex.run(st, &mut DefaultDriver, None).unwrap();
        });
        assert!(ex.is_finished(&st));
    }

    /// A failure withdraws `x`'s `Started`, which precedes `y`'s and `z`'s
    /// completions, so the delta's `keep` rewinds past both and its
    /// history repeats them: `y` writes `d`, `z` writes it again, and the
    /// applied delta leaves `z`'s value — as a later `z` writing it once
    /// more does.
    #[test]
    fn a_delta_that_rewinds_past_completions_reproduces_the_data() {
        let mut b = SchemaBuilder::new("rewind");
        let d = b.data("amount", ValueType::Int);
        b.and_split();
        b.branch();
        let x = b.activity("x");
        b.branch();
        let y = b.activity("y");
        b.write(y, d);
        let z = b.activity("z");
        b.write(z, d);
        b.and_join();
        let s = b.build().unwrap();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        step(&s, &mut st, |st| ex.start_activity(st, x).unwrap());
        for (n, v) in [(y, 1), (z, 2)] {
            step(&s, &mut st, |st| ex.start_activity(st, n).unwrap());
            step(&s, &mut st, |st| {
                ex.complete_activity(st, n, vec![(d, Value::Int(v))])
                    .unwrap()
            });
        }
        let pre = st.clone();
        step(&s, &mut st, |st| ex.exec().fail_activity(st, x).unwrap());
        let delta = StateDiff::between(&pre, &st).to_delta();
        let completed = |e: &Event| matches!(e, Event::Completed { .. });
        assert!(pre.history.events[delta.keep..].iter().any(completed));
        assert_eq!(delta.history.iter().filter(|e| completed(e)).count(), 2);
        assert_eq!(st.data.value(d), &Value::Int(2));
        step(&s, &mut st, |st| ex.start_activity(st, x).unwrap());
        step(&s, &mut st, |st| {
            ex.complete_activity(st, x, vec![]).unwrap()
        });
        assert_eq!(st.data.value(d), &Value::Int(2));
    }

    #[test]
    fn the_diff_of_a_completion_names_what_moved() {
        let (s, [w, ..], d) = schema();
        let ex = Execution::new(&s).unwrap();
        let mut pre = ex.init().unwrap();
        ex.start_activity(&mut pre, w).unwrap();
        let mut post = pre.clone();
        ex.complete_activity(&mut post, w, vec![(d, Value::Int(1))])
            .unwrap();
        let delta = StateDiff::between(&pre, &post).to_delta();
        assert!(delta.nodes.contains(&(w, NodeState::Completed)));
        assert_eq!(delta.keep, pre.history.len());
        let completed = Event::Completed {
            node: w,
            writes: vec![(d, Value::Int(1))],
        };
        assert_eq!(delta.history, [completed]);
        assert!(StateDiff::between(&post, &post).is_empty());
    }

    /// A line written while a delta carried its data writes beside its
    /// history decodes to its new-form twin and applies to the same state:
    /// the stale member is skipped, whatever it says, and the history's
    /// writes win.
    #[test]
    fn a_delta_line_with_a_data_member_applies_as_its_twin() {
        let (s, [w, ..], d) = schema();
        let ex = Execution::new(&s).unwrap();
        let mut pre = ex.init().unwrap();
        ex.start_activity(&mut pre, w).unwrap();
        let mut post = pre.clone();
        ex.complete_activity(&mut post, w, vec![(d, Value::Int(7))])
            .unwrap();
        let json = serde_json::to_string(&StateDiff::between(&pre, &post)).unwrap();
        let old = |value: i64| {
            let record = format!(
                r#"{{"node":{},"data":{},"value":{{"Int":[{value}]}}}}"#,
                w.0, d.0
            );
            format!(r#"{},"data":[{record}]}}"#, &json[..json.len() - 1])
        };
        let twin: StateDelta = serde_json::from_str(&json).unwrap();
        for line in [old(7), old(8)] {
            let decoded: StateDelta = serde_json::from_str(&line).unwrap();
            assert_eq!(decoded, twin);
            let mut applied = pre.clone();
            decoded.apply(&s, &mut applied).unwrap();
            assert_eq!(applied, post);
        }
    }

    #[test]
    fn a_delta_that_does_not_fit_changes_nothing() {
        let (s, [w, ..], d) = schema();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, w).unwrap();
        let completed = |data: DataId, value: Value| {
            vec![Event::Completed {
                node: w,
                writes: vec![(data, value)],
            }]
        };
        let fits = StateDelta {
            nodes: vec![(w, NodeState::Completed)],
            keep: st.history.len(),
            history: completed(d, Value::Int(1)),
            ..StateDelta::default()
        };
        let ghost = NodeId(9_999);
        let misfits = [
            StateDelta {
                keep: st.history.len() + 1,
                ..fits.clone()
            },
            StateDelta {
                nodes: vec![(ghost, NodeState::Activated)],
                ..fits.clone()
            },
            StateDelta {
                edges: vec![(EdgeId(9_999), EdgeState::TrueSignaled)],
                ..fits.clone()
            },
            StateDelta {
                loops: vec![(ghost, 2)],
                ..fits.clone()
            },
            StateDelta {
                history: vec![Event::LoopReset { loop_start: ghost }],
                ..fits.clone()
            },
            StateDelta {
                history: completed(DataId(77), Value::Int(1)),
                ..fits.clone()
            },
            StateDelta {
                history: completed(d, Value::Str("seven".into())),
                ..fits.clone()
            },
        ];
        for misfit in misfits {
            let mut target = st.clone();
            assert!(misfit.clone().apply(&s, &mut target).is_err(), "{misfit:?}");
            assert_eq!(target, st, "{misfit:?} changed the state");
        }
        let mut target = st.clone();
        fits.apply(&s, &mut target).unwrap();
        assert_eq!(target.data.value(d), &Value::Int(1));
    }
}
