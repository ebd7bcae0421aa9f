//! The recorded decisions of a history, as a replay consumes them.
//!
//! Replay — re-deriving an instance state by running a recorded history
//! against a (possibly different) schema — is
//! [`CompiledExecution::replay`](crate::CompiledExecution::replay); any
//! failure (an activity that is not activatable, a missing branch, an
//! unsatisfiable input) means the history cannot be produced on that
//! schema and the instance is **not** compliant with it. [`ReplayScript`]
//! is what lets the replay follow the *trace*, not the data: the XOR and
//! loop decisions of the history, queued per node in recorded order.

use crate::history::{Event, ExecutionHistory};
use adept_model::NodeId;
use std::collections::{BTreeMap, VecDeque};

/// Pre-extracted decision queues of a history, consumed during replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayScript {
    xor: BTreeMap<NodeId, VecDeque<NodeId>>,
    loops: BTreeMap<NodeId, VecDeque<bool>>,
}

impl ReplayScript {
    /// An empty script (normal, non-replay execution).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Extracts all decisions of a history, in order, into FIFO queues.
    pub fn from_history(history: &ExecutionHistory) -> Self {
        let mut s = Self::default();
        for e in &history.events {
            match e {
                Event::XorChosen {
                    split,
                    branch_target,
                } => s.xor.entry(*split).or_default().push_back(*branch_target),
                Event::LoopDecided { loop_end, iterate } => {
                    s.loops.entry(*loop_end).or_default().push_back(*iterate)
                }
                _ => {}
            }
        }
        s
    }

    /// Pops the next recorded branch target for `split`, if any.
    pub fn pop_xor(&mut self, split: NodeId) -> Option<NodeId> {
        self.xor.get_mut(&split).and_then(VecDeque::pop_front)
    }

    /// Pops the next recorded loop decision for `loop_end`, if any.
    pub fn pop_loop(&mut self, loop_end: NodeId) -> Option<bool> {
        self.loops.get_mut(&loop_end).and_then(VecDeque::pop_front)
    }

    /// Whether no decisions remain.
    pub fn is_drained(&self) -> bool {
        self.xor.values().all(VecDeque::is_empty) && self.loops.values().all(VecDeque::is_empty)
    }

    /// A node with unconsumed decisions, if any.
    pub fn undrained_node(&self) -> Option<NodeId> {
        self.xor
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(n, _)| *n)
            .or_else(|| {
                self.loops
                    .iter()
                    .find(|(_, q)| !q.is_empty())
                    .map(|(n, _)| *n)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{DefaultDriver, Driver, Execution};
    use crate::marking::NodeState;
    use adept_model::{
        CmpOp, DataId, Guard, LoopCond, ProcessSchema, SchemaBuilder, Value, ValueType,
    };

    fn exec(schema: &ProcessSchema) -> Execution<'_> {
        Execution::new(schema).unwrap()
    }

    #[test]
    fn replay_reproduces_sequence_state() {
        let mut b = SchemaBuilder::new("seq");
        let a = b.activity("a");
        let c = b.activity("c");
        let s = b.build().unwrap();
        let ex = exec(&s);
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, a).unwrap();
        ex.complete_activity(&mut st, a, vec![]).unwrap();
        ex.start_activity(&mut st, c).unwrap();

        let replayed = ex.replay(&st.history).unwrap();
        assert!(replayed.marking.same_states(&st.marking));
        assert_eq!(replayed.marking.node(c), NodeState::Running);
    }

    #[test]
    fn replay_reproduces_xor_choice() {
        let mut b = SchemaBuilder::new("xor");
        b.xor_split();
        b.case();
        let x = b.activity("x");
        b.case();
        let y = b.activity("y");
        b.xor_join();
        let s = b.build().unwrap();
        let ex = exec(&s);
        let mut st = ex.init().unwrap();
        let split = match &ex.pending_decisions(&st)[0] {
            crate::execution::Decision::Xor { split, .. } => *split,
            _ => panic!(),
        };
        ex.decide_xor(&mut st, split, y).unwrap();
        ex.start_activity(&mut st, y).unwrap();
        ex.complete_activity(&mut st, y, vec![]).unwrap();

        let replayed = ex.replay(&st.history).unwrap();
        assert!(replayed.marking.same_states(&st.marking));
        assert_eq!(replayed.marking.node(x), NodeState::Skipped);
        assert!(ex.is_finished(&replayed));
    }

    #[test]
    fn replay_reduced_history_exits_loop_despite_times_condition() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(3));
        let after = b.activity("after");
        let s = b.build().unwrap();
        let ex = exec(&s);
        let mut st = ex.init().unwrap();
        ex.run(&mut st, &mut DefaultDriver, None).unwrap();
        assert!(ex.is_finished(&st));

        // Reduced history: only the last iteration survives; the final
        // recorded decision (iterate = false) must override Times(3).
        let reduced = st.history.reduced(&s, &ex.blocks);
        let replayed = ex.replay(&reduced).unwrap();
        assert!(ex.is_finished(&replayed));
        assert_eq!(replayed.marking.node(body), NodeState::Completed);
        assert_eq!(replayed.marking.node(after), NodeState::Completed);
    }

    #[test]
    fn replay_fails_when_branch_removed() {
        // Record a history choosing branch y, then replay it on a schema
        // where the XOR block was (illegitimately) rebuilt without y.
        let mut b = SchemaBuilder::new("xor");
        b.xor_split();
        b.case();
        b.activity("x");
        b.case();
        let y = b.activity("y");
        b.xor_join();
        let s = b.build().unwrap();
        let ex = exec(&s);
        let mut st = ex.init().unwrap();
        let split = match &ex.pending_decisions(&st)[0] {
            crate::execution::Decision::Xor { split, .. } => *split,
            _ => panic!(),
        };
        ex.decide_xor(&mut st, split, y).unwrap();
        ex.start_activity(&mut st, y).unwrap();

        // A structurally different schema: the recorded node ids land on
        // nodes that are not activatable in the recorded order.
        let mut b2 = SchemaBuilder::new("xor2");
        b2.xor_split();
        b2.case();
        b2.activity("x");
        b2.activity("x2");
        b2.case();
        b2.activity("z");
        b2.xor_join();
        let s2 = b2.build().unwrap();
        let ex2 = exec(&s2);
        let err = ex2.replay(&st.history);
        assert!(err.is_err(), "history must not replay on foreign schema");
    }

    #[test]
    fn replay_applies_data_writes_and_guard_decisions() {
        let mut b = SchemaBuilder::new("guarded");
        let d = b.data("amount", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        b.xor_split();
        b.case_when(Guard::new(d, CmpOp::Ge, Value::Int(100)));
        let big = b.activity("big");
        b.case();
        b.activity("small");
        b.xor_join();
        let s = b.build().unwrap();
        let ex = exec(&s);
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, w).unwrap();
        ex.complete_activity(&mut st, w, vec![(d, Value::Int(250))])
            .unwrap();
        ex.start_activity(&mut st, big).unwrap();
        ex.complete_activity(&mut st, big, vec![]).unwrap();

        let replayed = ex.replay(&st.history).unwrap();
        assert!(replayed.marking.same_states(&st.marking));
        assert_eq!(replayed.data.value(d), &Value::Int(250));
    }

    #[test]
    fn script_extraction_and_draining() {
        let mut h = ExecutionHistory::new();
        h.record(Event::XorChosen {
            split: NodeId(1),
            branch_target: NodeId(2),
        });
        h.record(Event::LoopDecided {
            loop_end: NodeId(3),
            iterate: true,
        });
        let mut script = ReplayScript::from_history(&h);
        assert!(!script.is_drained());
        assert_eq!(script.pop_xor(NodeId(1)), Some(NodeId(2)));
        assert_eq!(script.pop_xor(NodeId(1)), None);
        assert_eq!(script.pop_loop(NodeId(3)), Some(true));
        assert!(script.is_drained());
    }

    /// Replay must also work when an activity writes values read later:
    /// exercised with a driver writing increasing ints.
    #[test]
    fn replay_long_running_instance_with_loops_and_guards() {
        let mut b = SchemaBuilder::new("mix");
        let d = b.data("n", ValueType::Int);
        let seed = b.activity("seed");
        b.write(seed, d);
        b.loop_start();
        let work = b.activity("work");
        b.write(work, d);
        b.loop_end(LoopCond::Times(4));
        b.xor_split();
        b.case_when(Guard::new(d, CmpOp::Ge, Value::Int(3)));
        b.activity("high");
        b.case();
        b.activity("low");
        b.xor_join();
        let s = b.build().unwrap();
        let ex = exec(&s);
        let mut st = ex.init().unwrap();

        struct Inc(i64);
        impl Driver for Inc {
            fn choose_branch(&mut self, _: &ProcessSchema, _: NodeId, _: &[NodeId]) -> usize {
                0
            }
            fn decide_loop(&mut self, _: &ProcessSchema, _: NodeId, _: u32) -> bool {
                false
            }
            fn output_value(&mut self, _: &ProcessSchema, _: NodeId, _: DataId) -> Value {
                self.0 += 1;
                Value::Int(self.0)
            }
        }
        ex.run(&mut st, &mut Inc(0), None).unwrap();
        assert!(ex.is_finished(&st));

        let replayed = ex.replay(&st.history).unwrap();
        assert!(replayed.marking.same_states(&st.marking));

        let reduced = st.history.reduced(&s, &ex.blocks);
        let replayed2 = ex.replay(&reduced).unwrap();
        assert!(ex.is_finished(&replayed2));
    }
}
