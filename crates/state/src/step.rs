//! What one command did to an instance: the steps the executor took for it,
//! the record a durable engine journals instead of the state they left.
//!
//! A [`Step`] is one transition a caller asked the executor for — start an
//! activity, complete it with its writes, fail it, resolve an external XOR
//! or loop decision. A command segment journals the commands of it that
//! succeeded; a drive journals the steps its driver chose
//! ([`crate::RunEvent`]s), each completion with the writes of the history
//! event it appended. What the executor decides on its own — guarded XOR
//! splits, counted and guarded loops, silent nodes, loop resets — is not a
//! step: [`CompiledExecution::apply_steps`] derives it again, from the same
//! marking, data and rules, when it applies the steps on the schema they
//! were taken on.
//!
//! Applying steps is applying a command: every step goes through the
//! executor's own checks, so a step that names a node the schema does not
//! have, completes a node that is not running, writes what the node does
//! not declare or decides what is not pending is refused, whatever bytes it
//! was decoded from.
//!
//! A step is generic over how it holds a completion's writes: owned (the
//! default, what a reader decodes) or borrowed (`Step<&[(DataId, Value)]>`,
//! what the engine journals from the command or the history it describes).
//! Both write the same bytes: the variant and its fields in order,
//! `{"Start":[4]}`, `{"Complete":[4,[[0,{"Int":[7]}]]]}`, `{"Fail":[4]}`,
//! `{"Xor":[3,5]}`, `{"Loop":[9,true]}`.
//!
//! [`CompiledExecution::apply_steps`]: crate::CompiledExecution::apply_steps

use adept_model::{DataId, NodeId, Value};
use serde::{Deserialize, Error, Reader, Serialize, Writer};

/// One step the executor took on a command's behalf (see the module docs).
/// `W` holds a completion's writes: a `Vec` when decoded, a slice when
/// journaled from where the writes live.
#[derive(Debug, Clone, PartialEq)]
pub enum Step<W = Vec<(DataId, Value)>> {
    /// Start an activated activity.
    Start(NodeId),
    /// Complete a running activity with its writes.
    Complete(NodeId, W),
    /// Fail a running activity: it is offered again and its `Started`
    /// event is withdrawn.
    Fail(NodeId),
    /// Resolve the pending decision of an XOR split to a branch target.
    Xor(NodeId, NodeId),
    /// Resolve the pending decision of a loop end: iterate again or exit.
    Loop(NodeId, bool),
}

/// How a step is written: its fields in order, borrowed.
#[derive(Serialize)]
enum StepView<'a> {
    Start(NodeId),
    Complete(NodeId, &'a [(DataId, Value)]),
    Fail(NodeId),
    Xor(NodeId, NodeId),
    Loop(NodeId, bool),
}

impl<W: AsRef<[(DataId, Value)]>> Serialize for Step<W> {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Step::Start(n) => StepView::Start(*n),
            Step::Complete(n, writes) => StepView::Complete(*n, writes.as_ref()),
            Step::Fail(n) => StepView::Fail(*n),
            Step::Xor(split, target) => StepView::Xor(*split, *target),
            Step::Loop(end, iterate) => StepView::Loop(*end, *iterate),
        }
        .serialize(out)
    }
}

/// The variants a step is read under, in declaration order.
const STEPS: &[&str] = &["Start", "Complete", "Fail", "Xor", "Loop"];

/// Read as `StepView` writes it, into the step itself. Errors name the
/// type as they always have, `StepFields`.
impl Deserialize for Step {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (at, payload) = r.variant(STEPS, "StepFields")?;
        if !payload {
            let name = STEPS.get(at).copied().unwrap_or_default();
            return Err(serde::unknown_variant(name, "StepFields"));
        }
        r.begin_seq()?;
        let step = match at {
            0 => Step::Start(r.elem(true)?),
            1 => Step::Complete(r.elem(true)?, r.elem(false)?),
            2 => Step::Fail(r.elem(true)?),
            3 => Step::Xor(r.elem(true)?, r.elem(false)?),
            _ => Step::Loop(r.elem(true)?, r.elem(false)?),
        };
        r.close_seq(false)?;
        r.end_enum()?;
        Ok(step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::{DefaultDriver, Execution, InstanceState, RunEvent};
    use crate::history::Event;
    use adept_model::{LoopCond, ProcessSchema, SchemaBuilder, ValueType};

    /// Data, parallel branches, an external XOR and an external loop: `w`
    /// writes `d`, then `x ∥ y`, then a decided branch, then a body the
    /// loop end decides to repeat.
    fn schema() -> (ProcessSchema, [NodeId; 3], DataId) {
        let mut b = SchemaBuilder::new("steps");
        let d = b.data("amount", ValueType::Int);
        let w = b.activity("w");
        b.write(w, d);
        b.and_split();
        b.branch();
        let x = b.activity("x");
        b.branch();
        let y = b.activity("y");
        b.and_join();
        b.xor_split();
        b.case();
        b.activity("left");
        b.case();
        b.activity("right");
        b.xor_join();
        b.loop_start();
        b.activity("body");
        b.loop_end(LoopCond::External);
        (b.build().unwrap(), [w, x, y], d)
    }

    /// Sends `steps` through their encoding and applies what decodes to
    /// `st`; `expected` comes back.
    fn replays(ex: &Execution, st: &InstanceState, steps: &[Step], expected: &InstanceState) {
        let json = serde_json::to_string(steps).unwrap();
        let decoded: Vec<Step> = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, steps);
        let mut replayed = st.clone();
        ex.exec().apply_steps(&mut replayed, decoded).unwrap();
        assert_eq!(&replayed, expected, "{json}");
    }

    /// Every kind of step, one command at a time and all at once, replays
    /// through its encoding to the state the commands left — the `Started`
    /// a failure withdraws from the middle of the history included.
    #[test]
    fn every_step_round_trips_through_its_record() {
        let (s, [w, x, y], d) = schema();
        let ex = Execution::new(&s).unwrap();
        let start = ex.init().unwrap();
        let mut st = start.clone();
        let mut all = Vec::new();
        let mut step = |st: &mut InstanceState, step: Step| {
            let pre = st.clone();
            ex.exec().apply_steps(st, vec![step.clone()]).unwrap();
            replays(&ex, &pre, std::slice::from_ref(&step), st);
            all.push(step);
        };
        step(&mut st, Step::Start(w));
        step(&mut st, Step::Complete(w, vec![(d, Value::Int(7))]));
        step(&mut st, Step::Start(x));
        step(&mut st, Step::Start(y));
        let before_fail = st.history.len();
        step(&mut st, Step::Fail(x));
        assert_eq!(st.history.len(), before_fail - 1);
        for n in [x, y] {
            if st.marking.node(n) != crate::NodeState::Running {
                step(&mut st, Step::Start(n));
            }
            step(&mut st, Step::Complete(n, vec![]));
        }
        let left = s.node_by_name("left").unwrap().id;
        let xor = ex.pending_decisions(&st);
        let [crate::Decision::Xor { split, .. }] = xor[..] else {
            panic!("{xor:?}")
        };
        step(&mut st, Step::Xor(split, left));
        step(&mut st, Step::Start(left));
        step(&mut st, Step::Complete(left, vec![]));
        let body = s.node_by_name("body").unwrap().id;
        let end = s.nodes().find(|n| n.kind == adept_model::NodeKind::LoopEnd);
        let end = end.unwrap().id;
        for iterate in [true, false] {
            step(&mut st, Step::Start(body));
            step(&mut st, Step::Complete(body, vec![]));
            step(&mut st, Step::Loop(end, iterate));
        }
        assert!(ex.is_finished(&st));
        assert_eq!(st.data.value(d), &Value::Int(7));
        replays(&ex, &start, &all, &st);
    }

    /// A failure withdraws `x`'s `Started`, which precedes `y`'s and `z`'s
    /// completions: the history loses an event from its middle, the data
    /// they wrote stays, and so it does when the steps are applied again.
    #[test]
    fn a_failure_past_completions_keeps_the_data() {
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
        let start = ex.init().unwrap();
        let mut steps = vec![Step::Start(x)];
        for (n, v) in [(y, 1), (z, 2)] {
            steps.push(Step::Start(n));
            steps.push(Step::Complete(n, vec![(d, Value::Int(v))]));
        }
        let mut st = start.clone();
        ex.exec().apply_steps(&mut st, steps.clone()).unwrap();
        let before = st.clone();
        ex.exec().fail_activity(&mut st, x).unwrap();
        assert_eq!(st.history.events[..], before.history.events[1..]);
        assert_eq!(st.data.value(d), &Value::Int(2));
        steps.push(Step::Fail(x));
        replays(&ex, &start, &steps, &st);
        replays(&ex, &before, &[Step::Fail(x)], &st);
    }

    /// A drive's steps are what it reported, each completion with the
    /// writes of the event it appended: applied to the state it started
    /// from, they reproduce the state it left.
    #[test]
    fn a_runs_steps_reproduce_the_run() {
        let (s, ..) = schema();
        let ex = Execution::new(&s).unwrap();
        let start = ex.init().unwrap();
        let mut st = start.clone();
        let mut runs = Vec::new();
        ex.exec()
            .run_observed(&mut st, &mut DefaultDriver, None, &mut |r| runs.push(r))
            .unwrap();
        let mut writes = st.history.events.iter().filter_map(|e| match e {
            Event::Completed { writes, .. } => Some(writes.clone()),
            _ => None,
        });
        let steps: Vec<Step> = runs
            .iter()
            .map(|r| match *r {
                RunEvent::Started(n) => Step::Start(n),
                RunEvent::Completed(n) => Step::Complete(n, writes.next().unwrap()),
                RunEvent::XorDecided { split, target } => Step::Xor(split, target),
                RunEvent::LoopDecided { loop_end, iterate } => Step::Loop(loop_end, iterate),
            })
            .collect();
        assert!(steps.iter().any(|s| matches!(s, Step::Xor(..))));
        assert!(steps.iter().any(|s| matches!(s, Step::Loop(..))));
        replays(&ex, &start, &steps, &st);
    }

    /// A borrowed step writes the bytes of its owned twin, and decodes to
    /// it.
    #[test]
    fn a_borrowed_step_writes_its_owned_twins_bytes() {
        let writes = vec![(DataId(0), Value::Int(7))];
        let borrowed: [Step<&[(DataId, Value)]>; 5] = [
            Step::Start(NodeId(4)),
            Step::Complete(NodeId(4), &writes),
            Step::Fail(NodeId(4)),
            Step::Xor(NodeId(3), NodeId(5)),
            Step::Loop(NodeId(9), true),
        ];
        let json = serde_json::to_string(&borrowed[..]).unwrap();
        assert_eq!(
            json,
            r#"[{"Start":[4]},{"Complete":[4,[[0,{"Int":[7]}]]]},{"Fail":[4]},{"Xor":[3,5]},{"Loop":[9,true]}]"#
        );
        let owned: Vec<Step> = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&owned).unwrap(), json);
        assert_eq!(owned[1], Step::Complete(NodeId(4), writes.clone()));
    }

    /// A step the executor refuses fails the whole application: an unknown
    /// node, a completion of a node that is not running, an undeclared or
    /// mistyped write, a failure of a node that is not running, a decision
    /// that is not pending.
    #[test]
    fn a_step_that_does_not_fit_is_refused() {
        let (s, [w, x, _], d) = schema();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, w).unwrap();
        let ghost = NodeId(9_999);
        let misfits = [
            Step::Start(ghost),
            Step::Complete(ghost, vec![]),
            Step::Complete(x, vec![]),
            Step::Complete(w, vec![]),
            Step::Complete(w, vec![(d, Value::Int(1)), (DataId(77), Value::Int(1))]),
            Step::Complete(w, vec![(d, Value::Str("seven".into()))]),
            Step::Fail(x),
            Step::Fail(ghost),
            Step::Xor(w, x),
            Step::Loop(w, true),
            Step::Start(w),
        ];
        for misfit in misfits {
            let mut target = st.clone();
            let applied = ex.exec().apply_steps(&mut target, vec![misfit.clone()]);
            assert!(applied.is_err(), "{misfit:?}");
        }
        let mut target = st.clone();
        let fits = vec![Step::Complete(w, vec![(d, Value::Int(1))])];
        ex.exec().apply_steps(&mut target, fits).unwrap();
        assert_eq!(target.data.value(d), &Value::Int(1));
    }
}
