//! Execution histories and their *reduction* for loop-tolerant compliance.
//!
//! The compliance criterion of the paper is based on a *relaxed notion of
//! trace equivalence* that "works correctly in connection with loop backs"
//! [Rinderle et al. 2004]: instead of the full execution history, only the
//! events of the **last** iteration of each loop are considered when
//! deciding whether an instance could have produced its trace on a changed
//! schema. [`ExecutionHistory::reduced`] implements exactly that projection.
//!
//! An [`Event`] is encoded as its fields in order (snapshot format 9):
//! `{"Started":[1,[]]}`, `{"Completed":[1,[[0,{"Int":[0]}]]]}`,
//! `{"XorChosen":[7,8]}`, `{"LoopDecided":[9,true]}`, `{"LoopReset":[5]}`.
//! A field array one short or one long, or a payload that is not an
//! array — the object of format 8, `{"Started":{"node":1,"reads":[]}}` —
//! is an error, not read.

use adept_model::{Blocks, DataId, NodeId, ProcessSchema, Value};
use serde::{Deserialize, Error, Reader, Serialize, Writer};
use std::collections::BTreeSet;
use std::fmt;

/// One entry of an execution history, encoded as its fields in order (see
/// the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A (user-visible) activity was started.
    Started {
        /// The activity node.
        node: NodeId,
        /// The mandatory input parameters of the activity at start time
        /// (its read signature). Compliance replay compares this against
        /// the changed schema: a changed signature for an already-started
        /// activity means the trace is not reproducible.
        reads: Vec<DataId>,
    },
    /// An activity completed, writing the given data values.
    Completed {
        /// The activity node.
        node: NodeId,
        /// Data written on completion, in write order.
        writes: Vec<(DataId, Value)>,
    },
    /// An XOR split chose a branch (either by guard evaluation or by an
    /// external decision). `branch_target` is the first node of the chosen
    /// branch (the matching join for an empty branch).
    XorChosen {
        /// The deciding split node.
        split: NodeId,
        /// First node of the chosen branch.
        branch_target: NodeId,
    },
    /// A loop end decided whether to iterate again.
    LoopDecided {
        /// The deciding loop end node.
        loop_end: NodeId,
        /// `true` to run the body again, `false` to exit the loop.
        iterate: bool,
    },
    /// The body of a loop was reset for another iteration (marks the
    /// boundary that history reduction cuts at).
    LoopReset {
        /// The loop start whose body was reset.
        loop_start: NodeId,
    },
}

impl Event {
    /// The node this event is attributed to.
    pub fn node(&self) -> NodeId {
        match self {
            Event::Started { node, .. } | Event::Completed { node, .. } => *node,
            Event::XorChosen { split, .. } => *split,
            Event::LoopDecided { loop_end, .. } => *loop_end,
            Event::LoopReset { loop_start } => *loop_start,
        }
    }
}

/// How an event is written: its fields in order, borrowed.
#[derive(Serialize)]
enum EventView<'a> {
    Started(NodeId, &'a [DataId]),
    Completed(NodeId, &'a [(DataId, Value)]),
    XorChosen(NodeId, NodeId),
    LoopDecided(NodeId, bool),
    LoopReset(NodeId),
}

impl Serialize for Event {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Event::Started { node, reads } => EventView::Started(*node, reads),
            Event::Completed { node, writes } => EventView::Completed(*node, writes),
            Event::XorChosen {
                split,
                branch_target,
            } => EventView::XorChosen(*split, *branch_target),
            Event::LoopDecided { loop_end, iterate } => EventView::LoopDecided(*loop_end, *iterate),
            Event::LoopReset { loop_start } => EventView::LoopReset(*loop_start),
        }
        .serialize(out)
    }
}

/// The variants an event is read under, in declaration order.
const EVENTS: &[&str] = &[
    "Started",
    "Completed",
    "XorChosen",
    "LoopDecided",
    "LoopReset",
];

/// Read as `EventView` writes it, into the event itself. Errors name
/// the type as they always have, `EventFields`.
impl Deserialize for Event {
    #[inline]
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let (at, payload) = r.variant(EVENTS, "EventFields")?;
        if !payload {
            let name = EVENTS.get(at).copied().unwrap_or_default();
            return Err(serde::unknown_variant(name, "EventFields"));
        }
        r.begin_seq()?;
        let event = match at {
            0 => Event::Started {
                node: r.elem(true)?,
                reads: r.elem(false)?,
            },
            1 => Event::Completed {
                node: r.elem(true)?,
                writes: r.elem(false)?,
            },
            2 => Event::XorChosen {
                split: r.elem(true)?,
                branch_target: r.elem(false)?,
            },
            3 => Event::LoopDecided {
                loop_end: r.elem(true)?,
                iterate: r.elem(false)?,
            },
            _ => Event::LoopReset {
                loop_start: r.elem(true)?,
            },
        };
        r.close_seq(false)?;
        r.end_enum()?;
        Ok(event)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Started { node, .. } => write!(f, "start({node})"),
            Event::Completed { node, writes } => {
                write!(f, "complete({node}")?;
                for (d, v) in writes {
                    write!(f, ", {d}:={v}")?;
                }
                f.write_str(")")
            }
            Event::XorChosen {
                split,
                branch_target,
            } => write!(f, "xor({split} -> {branch_target})"),
            Event::LoopDecided { loop_end, iterate } => {
                write!(f, "loop({loop_end}, iterate={iterate})")
            }
            Event::LoopReset { loop_start } => write!(f, "reset({loop_start})"),
        }
    }
}

/// The ordered execution history of one instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionHistory {
    /// Events in execution order.
    pub events: Vec<Event>,
}

impl ExecutionHistory {
    /// An empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Activities that have a `Started` event, in first-start order.
    pub fn started_activities(&self) -> Vec<NodeId> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for e in &self.events {
            if let Event::Started { node, .. } = e {
                if seen.insert(*node) {
                    out.push(*node);
                }
            }
        }
        out
    }

    /// The *reduced* execution history: for every loop, only the events of
    /// its last (current) iteration survive. `blocks` must describe the
    /// schema the history was recorded on.
    ///
    /// A [`Event::LoopReset`] for loop start `ls` discards every earlier
    /// event attributed to a node of the loop body (including the loop
    /// start/end themselves and any nested blocks), exactly implementing
    /// the loop-purged trace of the underlying compliance theory.
    pub fn reduced(&self, schema: &ProcessSchema, blocks: &Blocks) -> ExecutionHistory {
        let mut events: Vec<Event> = Vec::with_capacity(self.events.len());
        for e in &self.events {
            if let Event::LoopReset { loop_start } = e {
                if let Some(info) = blocks.by_split.get(loop_start) {
                    let in_body = |n: NodeId| {
                        n == info.split || n == info.join || info.branch_of(n).is_some()
                    };
                    events.retain(|old| !in_body(old.node()));
                    // The reset itself is also an earlier-iteration artefact.
                    continue;
                }
                // Loop no longer known (should not happen on the recording
                // schema); keep the event so nothing is silently lost.
                let _ = schema;
            }
            events.push(e.clone());
        }
        ExecutionHistory { events }
    }

    /// Approximate deep size in bytes (for storage accounting).
    pub fn approx_size(&self) -> usize {
        use std::mem::size_of;
        let mut s = size_of::<Self>() + self.events.capacity() * size_of::<Event>();
        for e in &self.events {
            if let Event::Completed { writes, .. } = e {
                s += writes.capacity() * size_of::<(DataId, Value)>();
                for (_, v) in writes {
                    if let Value::Str(st) = v {
                        s += st.capacity();
                    }
                }
            }
        }
        s
    }
}

impl fmt::Display for ExecutionHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::{LoopCond, SchemaBuilder};

    #[test]
    fn reduction_drops_earlier_iterations() {
        let mut b = SchemaBuilder::new("loop");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(3));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let ls = s
            .nodes()
            .find(|n| n.kind == adept_model::NodeKind::LoopStart)
            .unwrap()
            .id;
        let le = s
            .nodes()
            .find(|n| n.kind == adept_model::NodeKind::LoopEnd)
            .unwrap()
            .id;

        let mut h = ExecutionHistory::new();
        // Iteration 1.
        h.record(Event::Started {
            node: body,
            reads: vec![],
        });
        h.record(Event::Completed {
            node: body,
            writes: vec![],
        });
        h.record(Event::LoopDecided {
            loop_end: le,
            iterate: true,
        });
        h.record(Event::LoopReset { loop_start: ls });
        // Iteration 2 (final).
        h.record(Event::Started {
            node: body,
            reads: vec![],
        });
        h.record(Event::Completed {
            node: body,
            writes: vec![],
        });
        h.record(Event::LoopDecided {
            loop_end: le,
            iterate: false,
        });

        let r = h.reduced(&s, &blocks);
        // Only the final iteration remains: start, complete, final decision.
        assert_eq!(r.events.len(), 3);
        assert!(matches!(r.events[0], Event::Started { node, .. } if node == body));
        assert!(
            matches!(r.events[2], Event::LoopDecided { iterate: false, .. }),
            "final decision must survive"
        );
    }

    #[test]
    fn reduction_keeps_events_outside_loop() {
        let mut b = SchemaBuilder::new("loop");
        let before = b.activity("before");
        b.loop_start();
        let body = b.activity("body");
        b.loop_end(LoopCond::Times(2));
        let s = b.build().unwrap();
        let blocks = Blocks::analyze(&s).unwrap();
        let ls = s
            .nodes()
            .find(|n| n.kind == adept_model::NodeKind::LoopStart)
            .unwrap()
            .id;

        let mut h = ExecutionHistory::new();
        h.record(Event::Started {
            node: before,
            reads: vec![],
        });
        h.record(Event::Completed {
            node: before,
            writes: vec![],
        });
        h.record(Event::Started {
            node: body,
            reads: vec![],
        });
        h.record(Event::LoopReset { loop_start: ls });
        let r = h.reduced(&s, &blocks);
        assert_eq!(
            r.started_activities(),
            vec![before],
            "outside-loop events survive, body iteration was cut"
        );
    }

    #[test]
    fn an_event_is_its_fields_in_order() {
        let (n, d) = (NodeId(1), DataId(0));
        for (event, text) in [
            (
                Event::Started {
                    node: n,
                    reads: vec![d],
                },
                r#"{"Started":[1,[0]]}"#,
            ),
            (
                Event::Completed {
                    node: n,
                    writes: vec![(d, Value::Int(0))],
                },
                r#"{"Completed":[1,[[0,{"Int":[0]}]]]}"#,
            ),
            (
                Event::XorChosen {
                    split: NodeId(7),
                    branch_target: NodeId(8),
                },
                r#"{"XorChosen":[7,8]}"#,
            ),
            (
                Event::LoopDecided {
                    loop_end: NodeId(9),
                    iterate: true,
                },
                r#"{"LoopDecided":[9,true]}"#,
            ),
            (
                Event::LoopReset {
                    loop_start: NodeId(5),
                },
                r#"{"LoopReset":[5]}"#,
            ),
        ] {
            assert_eq!(serde_json::to_string(&event).unwrap(), text);
            assert_eq!(serde_json::from_str::<Event>(text).unwrap(), event);
        }
        for damaged in [
            r#"{"Started":[1]}"#,
            r#"{"Started":[1,[],2]}"#,
            r#"{"XorChosen":[7]}"#,
            r#"{"LoopReset":[5,6]}"#,
            r#"{"LoopReset":5}"#,
            r#"{"Started":{"node":1,"reads":[]}}"#,
            r#"{"Finished":[1]}"#,
            r#""Started""#,
        ] {
            assert!(serde_json::from_str::<Event>(damaged).is_err(), "{damaged}");
        }
    }

    #[test]
    fn started_activities_dedups() {
        let mut h = ExecutionHistory::new();
        h.record(Event::Started {
            node: NodeId(1),
            reads: vec![],
        });
        h.record(Event::Started {
            node: NodeId(2),
            reads: vec![],
        });
        h.record(Event::Started {
            node: NodeId(1),
            reads: vec![],
        });
        assert_eq!(h.started_activities(), vec![NodeId(1), NodeId(2)]);
    }
}
