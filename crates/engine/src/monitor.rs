//! The monitoring component: engine event log and instance visualisation.
//!
//! The paper's demo (Sec. 3): *"the effects of ad-hoc instance
//! modifications can be visualized by a special monitoring component. The
//! same applies for process type changes."* This module records every
//! engine-level event with a logical timestamp and renders instances as
//! annotated DOT graphs / textual state summaries.

use adept_core::{ChangeError, ConflictKind};
use adept_model::{render, InstanceId, NodeId, ProcessSchema};
use adept_state::{InstanceState, NodeState};
use adept_storage::ordered::{classes, OrderedRwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A typed classification of why a failure-path event fired, carried by
/// the rejection/failure events so consumers (the adaptation loop above
/// all) can classify deviations without parsing a message string or
/// re-reading instance history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// A state precondition failed (paper: state-related conflict).
    State,
    /// The change or lookup was structurally impossible.
    Structural,
    /// A semantic (data-flow) conflict.
    Semantic,
    /// The target instance vanished under a concurrent removal.
    Vanished,
    /// Post-change verification of the resulting schema failed.
    Verification,
    /// A concurrent change won the race (stale base version / bias).
    ConcurrentChange,
    /// The target could not be resolved at all.
    Unresolvable,
    /// An activity's execution itself failed.
    ActivityError,
    /// An internal invariant broke (storage, journaling).
    Internal,
    /// Unclassified.
    Other,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FailureKind::State => "state",
            FailureKind::Structural => "structural",
            FailureKind::Semantic => "semantic",
            FailureKind::Vanished => "vanished",
            FailureKind::Verification => "verification",
            FailureKind::ConcurrentChange => "concurrent-change",
            FailureKind::Unresolvable => "unresolvable",
            FailureKind::ActivityError => "activity-error",
            FailureKind::Internal => "internal",
            FailureKind::Other => "other",
        };
        f.write_str(s)
    }
}

impl From<&ConflictKind> for FailureKind {
    fn from(k: &ConflictKind) -> Self {
        match k {
            ConflictKind::State => FailureKind::State,
            ConflictKind::Structural => FailureKind::Structural,
            ConflictKind::Semantic => FailureKind::Semantic,
            ConflictKind::Vanished => FailureKind::Vanished,
            ConflictKind::Internal => FailureKind::Internal,
        }
    }
}

impl FailureKind {
    /// Classifies a change-layer error.
    pub fn of_change(e: &ChangeError) -> Self {
        match e {
            ChangeError::StatePrecondition { .. } | ChangeError::Runtime(_) => FailureKind::State,
            ChangeError::PostconditionViolated(_) => FailureKind::Verification,
            ChangeError::Precondition(msg) => {
                if msg.contains("concurrent") || msg.contains("base version") {
                    FailureKind::ConcurrentChange
                } else {
                    FailureKind::Structural
                }
            }
            ChangeError::Model(_) | ChangeError::UnknownNode(_) | ChangeError::UnknownData(_) => {
                FailureKind::Structural
            }
        }
    }
}

/// An engine-level event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EngineEvent {
    /// A process type was deployed.
    Deployed {
        /// Type name.
        type_name: String,
    },
    /// An instance was created.
    InstanceCreated {
        /// The new instance.
        instance: InstanceId,
        /// Version it was created on.
        version: u32,
    },
    /// An activity was started.
    ActivityStarted {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
    },
    /// An activity completed.
    ActivityCompleted {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
    },
    /// An XOR or loop decision was resolved (by an actor or a driver).
    DecisionMade {
        /// The instance.
        instance: InstanceId,
        /// The deciding node (XOR split or loop end).
        node: NodeId,
        /// The chosen outcome (`"branch N7"`, `"iterate"`, `"exit"`).
        choice: String,
    },
    /// The worklist could not resolve an instance's store entry or schema
    /// context — a corruption signal that would otherwise stay silent.
    WorklistResolutionFailed {
        /// The unresolvable instance.
        instance: InstanceId,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why resolution failed.
        reason: String,
    },
    /// An ad-hoc change was applied to an instance.
    AdHocChanged {
        /// The instance.
        instance: InstanceId,
        /// Rendered change operation.
        op: String,
    },
    /// An ad-hoc change was rejected.
    AdHocRejected {
        /// The instance.
        instance: InstanceId,
        /// Rendered change operation.
        op: String,
        /// The node the rejection anchors to, when one is known (the
        /// conflicting or unknown node).
        node: Option<NodeId>,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why it was rejected.
        reason: String,
    },
    /// A process type evolved to a new version.
    TypeEvolved {
        /// Type name.
        type_name: String,
        /// The new version.
        version: u32,
    },
    /// A type-evolution commit was rejected (verification failure or a
    /// lost base-version race).
    EvolutionRejected {
        /// Type name.
        type_name: String,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why the commit failed.
        reason: String,
    },
    /// An instance migrated to a new version.
    Migrated {
        /// The instance.
        instance: InstanceId,
        /// Target version.
        to_version: u32,
    },
    /// An instance could not migrate and stays on its version.
    MigrationRejected {
        /// The instance.
        instance: InstanceId,
        /// The conflicting node, when the compliance check names one.
        node: Option<NodeId>,
        /// Typed failure classification.
        kind: FailureKind,
        /// Why it stays.
        reason: String,
    },
    /// An instance reached its end node.
    InstanceFinished {
        /// The instance.
        instance: InstanceId,
    },
    /// An instance was removed from the store (cancelled or archived). A
    /// migration that loses its instance to a concurrent removal reports
    /// it as vanished, not as a conflict.
    InstanceRemoved {
        /// The removed instance.
        instance: InstanceId,
    },
    /// A change transaction committed atomically.
    TxnCommitted {
        /// Rendered target (instance id or new type version).
        target: String,
        /// Number of operations the transaction carried.
        ops: usize,
        /// Sequence number in the persisted transaction log.
        seq: u64,
    },
    /// A change session was abandoned without committing.
    TxnAborted {
        /// Rendered target.
        target: String,
        /// Number of operations that were staged when aborted.
        staged: usize,
    },
    /// The engine was rebuilt from snapshot + write-ahead-log replay.
    Recovered {
        /// WAL entries replayed on top of the snapshot.
        replayed: usize,
        /// Entries skipped as already covered by the snapshot.
        skipped: usize,
        /// Bytes of a torn final record dropped by the crash repair.
        torn_tail_bytes: usize,
    },
    /// A checkpoint persisted a snapshot and truncated the WAL.
    CheckpointTaken {
        /// The WAL watermark the snapshot covers.
        wal_seq: u64,
    },
    /// A running activity failed and dropped back to `Activated`.
    ActivityFailed {
        /// The instance.
        instance: InstanceId,
        /// The activity node that failed.
        node: NodeId,
        /// Why it failed (application-level reason).
        reason: String,
    },
    /// The adaptation loop classified a deviation on an instance.
    DeviationDetected {
        /// The deviating instance.
        instance: InstanceId,
        /// The node the deviation anchors to, when one is known.
        node: Option<NodeId>,
        /// Rendered deviation key (e.g. `"fail:N5#2"`).
        kind: String,
    },
    /// The adaptation loop committed a recovery change that passed
    /// preview compliance.
    AdaptationCommitted {
        /// The repaired instance.
        instance: InstanceId,
        /// Rendered recovery plan.
        plan: String,
        /// The deviation key this plan recovered from.
        deviation: String,
        /// Transaction-log sequence of the committed change (0 for
        /// command-level repairs that commit no change transaction).
        seq: u64,
    },
    /// The adaptation loop rejected (or gave up on) a recovery plan.
    AdaptationRejected {
        /// The instance.
        instance: InstanceId,
        /// Rendered recovery plan (or `"-"` when no plan was found).
        plan: String,
        /// The deviation key the plan targeted.
        deviation: String,
        /// Why the plan was rejected.
        reason: String,
    },
}

impl fmt::Display for EngineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineEvent::Deployed { type_name } => write!(f, "deployed \"{type_name}\""),
            EngineEvent::InstanceCreated { instance, version } => {
                write!(f, "{instance} created on V{version}")
            }
            EngineEvent::ActivityStarted { instance, node } => {
                write!(f, "{instance}: started {node}")
            }
            EngineEvent::ActivityCompleted { instance, node } => {
                write!(f, "{instance}: completed {node}")
            }
            EngineEvent::DecisionMade {
                instance,
                node,
                choice,
            } => write!(f, "{instance}: decided {node} ({choice})"),
            EngineEvent::WorklistResolutionFailed {
                instance,
                kind,
                reason,
            } => {
                write!(f, "{instance}: worklist cannot resolve ({kind}): {reason}")
            }
            EngineEvent::AdHocChanged { instance, op } => {
                write!(f, "{instance}: ad-hoc change {op}")
            }
            EngineEvent::AdHocRejected {
                instance,
                op,
                node,
                kind,
                reason,
            } => {
                write!(f, "{instance}: ad-hoc change {op} rejected ({kind}")?;
                if let Some(n) = node {
                    write!(f, " at {n}")?;
                }
                write!(f, "): {reason}")
            }
            EngineEvent::TypeEvolved { type_name, version } => {
                write!(f, "\"{type_name}\" evolved to V{version}")
            }
            EngineEvent::EvolutionRejected {
                type_name,
                kind,
                reason,
            } => {
                write!(f, "\"{type_name}\" evolution rejected ({kind}): {reason}")
            }
            EngineEvent::Migrated {
                instance,
                to_version,
            } => write!(f, "{instance} migrated to V{to_version}"),
            EngineEvent::MigrationRejected {
                instance,
                node,
                kind,
                reason,
            } => {
                write!(f, "{instance} stays ({kind}")?;
                if let Some(n) = node {
                    write!(f, " at {n}")?;
                }
                write!(f, "): {reason}")
            }
            EngineEvent::InstanceFinished { instance } => write!(f, "{instance} finished"),
            EngineEvent::InstanceRemoved { instance } => write!(f, "{instance} removed"),
            EngineEvent::TxnCommitted { target, ops, seq } => {
                write!(f, "txn #{seq} committed on {target} ({ops} ops)")
            }
            EngineEvent::TxnAborted { target, staged } => {
                write!(f, "txn on {target} aborted ({staged} ops staged)")
            }
            EngineEvent::Recovered {
                replayed,
                skipped,
                torn_tail_bytes,
            } => write!(
                f,
                "recovered: {replayed} wal record(s) replayed, {skipped} skipped, \
                 {torn_tail_bytes} torn byte(s) dropped"
            ),
            EngineEvent::CheckpointTaken { wal_seq } => {
                write!(f, "checkpoint at wal #{wal_seq}")
            }
            EngineEvent::ActivityFailed {
                instance,
                node,
                reason,
            } => write!(f, "{instance}: {node} failed: {reason}"),
            EngineEvent::DeviationDetected {
                instance,
                node,
                kind,
            } => {
                write!(f, "{instance}: deviation {kind}")?;
                if let Some(n) = node {
                    write!(f, " at {n}")?;
                }
                Ok(())
            }
            EngineEvent::AdaptationCommitted {
                instance,
                plan,
                deviation,
                seq,
            } => write!(
                f,
                "{instance}: adaptation {plan} committed for {deviation} (txn #{seq})"
            ),
            EngineEvent::AdaptationRejected {
                instance,
                plan,
                deviation,
                reason,
            } => write!(
                f,
                "{instance}: adaptation {plan} rejected for {deviation}: {reason}"
            ),
        }
    }
}

/// How many events the monitor retains by default before evicting the
/// oldest (see [`Monitor::set_retention`]).
pub const DEFAULT_EVENT_RETENTION: usize = 65_536;

/// A batch of events returned by [`Monitor::events_since`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    /// The events, in logical-time order, starting at the requested
    /// cursor. Contiguous — no sequence gaps.
    pub events: Vec<(u64, EngineEvent)>,
    /// The cursor to pass to the next `events_since` call (one past the
    /// last returned sequence; equal to the request if nothing was
    /// returned).
    pub next: u64,
}

/// A cursor fell behind the retention window: events it had not yet
/// observed were evicted, so the stream has an unrecoverable gap. The
/// consumer must resynchronise (e.g. re-read full state and
/// [`EventCursor::resync`]) rather than silently skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLag {
    /// The oldest sequence still guaranteed retained — resync at or
    /// after this point.
    pub oldest: u64,
}

impl fmt::Display for EventLag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event cursor lagged behind retention (oldest retained seq {})",
            self.oldest
        )
    }
}

impl std::error::Error for EventLag {}

/// A consumer-side position in the monitor's event stream. Obtain one
/// with [`Monitor::subscribe`] (tail — new events only) or
/// [`Monitor::subscribe_from`] (historical replay), then drain with
/// [`EventCursor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCursor {
    next: u64,
}

impl EventCursor {
    /// The next sequence this cursor will read.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Drains all events recorded since the last poll. On
    /// `Err(EventLag)` the cursor is *not* advanced; call
    /// [`EventCursor::resync`] to jump past the gap.
    pub fn poll(&mut self, monitor: &Monitor) -> Result<Vec<(u64, EngineEvent)>, EventLag> {
        let batch = monitor.events_since(self.next)?;
        self.next = batch.next;
        Ok(batch.events)
    }

    /// Jumps the cursor to the oldest retained event, discarding the
    /// gap. Returns how many sequences were skipped.
    pub fn resync(&mut self, monitor: &Monitor) -> u64 {
        let oldest = monitor.oldest_retained();
        let skipped = oldest.saturating_sub(self.next);
        self.next = self.next.max(oldest);
        skipped
    }
}

/// The monitoring component: a logical-clock-stamped, bounded event log.
///
/// One sequence-ordered ring under one lock. An event's sequence is its
/// position — drawn under the lock that lands it — so the log never has a
/// hole: a poll is the ring's tail from the cursor on and costs what is
/// new, whatever is retained.
///
/// Retention is bounded (default [`DEFAULT_EVENT_RETENTION`]): an append
/// over the cap evicts the oldest events. A cursor that falls behind the
/// oldest retained one gets an explicit [`EventLag`] error — never a
/// silent gap. Recovery's history audit reads per-instance execution
/// histories, not this log, so eviction never weakens recovery (see
/// [`crate::recovery::recover_from_segmented`]).
#[derive(Debug)]
pub struct Monitor {
    retention: AtomicUsize,
    log: OrderedRwLock<Log>,
}

#[derive(Debug, Default)]
struct Log {
    /// Sequence of `events[0]`; everything below it has been evicted.
    oldest: u64,
    events: VecDeque<EngineEvent>,
}

impl Log {
    /// The sequence the next event gets (total ever recorded).
    fn next(&self) -> u64 {
        self.oldest + self.events.len() as u64
    }

    fn evict_over(&mut self, cap: usize) {
        while self.events.len() > cap {
            self.events.pop_front();
            self.oldest += 1;
        }
    }

    /// The retained events from `cursor` (≥ `oldest`) on — none if it is
    /// past the tail.
    fn since(&self, cursor: u64) -> Vec<(u64, EngineEvent)> {
        let start = (cursor - self.oldest).min(self.events.len() as u64) as usize;
        let tail = self.events.range(start..).cloned();
        (cursor..).zip(tail).collect()
    }
}

impl Default for Monitor {
    fn default() -> Self {
        Self::new()
    }
}

impl Monitor {
    /// A fresh monitor with the default retention cap.
    pub fn new() -> Self {
        Self {
            retention: AtomicUsize::new(DEFAULT_EVENT_RETENTION),
            log: OrderedRwLock::new(&classes::MONITOR_LOG, Log::default()),
        }
    }

    /// Sets the retention cap: the number of events kept, exactly. A
    /// lowered cap takes effect at the next append.
    pub fn set_retention(&self, cap: usize) {
        self.retention.store(cap, Ordering::Relaxed);
    }

    /// Records an event, stamping it with the next logical time.
    pub fn record(&self, e: EngineEvent) -> u64 {
        let cap = self.retention.load(Ordering::Relaxed);
        let mut log = self.log.write();
        let t = log.next();
        log.events.push_back(e);
        log.evict_over(cap);
        t
    }

    /// Records a sequence of events under one contiguous block of
    /// logical times — the batched append the command path uses. The
    /// batch lands under one guard, so no reader sees part of it and no
    /// concurrent recorder's sequences interleave with it.
    pub fn record_all<I: IntoIterator<Item = EngineEvent>>(&self, events: I) -> usize {
        let cap = self.retention.load(Ordering::Relaxed);
        let mut log = self.log.write();
        let before = log.next();
        log.events.extend(events);
        let n = (log.next() - before) as usize;
        log.evict_over(cap);
        n
    }

    /// A snapshot of all *retained* events, in logical-time order.
    pub fn events(&self) -> Vec<(u64, EngineEvent)> {
        let log = self.log.read();
        log.since(log.oldest)
    }

    /// Events with sequence ≥ `cursor`, as a contiguous batch.
    ///
    /// Returns [`EventLag`] if `cursor` is behind the oldest retained
    /// event — the consumer missed events that are gone.
    pub fn events_since(&self, cursor: u64) -> Result<EventBatch, EventLag> {
        let log = self.log.read();
        if cursor < log.oldest {
            return Err(EventLag { oldest: log.oldest });
        }
        let events = log.since(cursor);
        let next = cursor + events.len() as u64;
        Ok(EventBatch { events, next })
    }

    /// A cursor positioned at the tail: it sees only events recorded
    /// after this call.
    pub fn subscribe(&self) -> EventCursor {
        EventCursor {
            next: self.recorded(),
        }
    }

    /// A cursor positioned at `seq` — replays retained history from
    /// there. The first [`EventCursor::poll`] errs with [`EventLag`] if
    /// `seq` is already evicted.
    pub fn subscribe_from(&self, seq: u64) -> EventCursor {
        EventCursor { next: seq }
    }

    /// Number of *retained* events (≤ [`Monitor::recorded`]).
    pub fn len(&self) -> usize {
        self.log.read().events.len()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.log.read().next()
    }

    /// The oldest sequence still retained. `0` until the first eviction.
    pub fn oldest_retained(&self) -> u64 {
        self.log.read().oldest
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded() == 0
    }

    /// Renders the retained log as text.
    pub fn render_log(&self) -> String {
        let mut out = String::new();
        for (t, e) in self.events() {
            out.push_str(&format!("[{t:>6}] {e}\n"));
        }
        out
    }
}

/// Renders an instance as a DOT graph annotated with node states (the
/// monitoring component's visualisation).
pub fn render_instance_dot(schema: &ProcessSchema, state: &InstanceState) -> String {
    let mut ann: BTreeMap<NodeId, String> = BTreeMap::new();
    for (n, s) in state.marking.marked_nodes() {
        ann.insert(n, s.to_string());
    }
    render::to_dot(schema, &ann)
}

/// Renders a compact one-line-per-activity state summary of an instance.
pub fn render_instance_summary(schema: &ProcessSchema, state: &InstanceState) -> String {
    let mut out = String::new();
    for n in schema.activities() {
        let s = state.marking.node(n.id);
        let mark = match s {
            NodeState::NotActivated => " ",
            NodeState::Activated => "◦",
            NodeState::Running => "▶",
            NodeState::Completed => "✔",
            NodeState::Skipped => "✘",
        };
        out.push_str(&format!("  {mark} {:<24} {}\n", n.name, s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_model::SchemaBuilder;
    use adept_state::Execution;

    #[test]
    fn monitor_records_in_order() {
        let m = Monitor::new();
        assert!(m.is_empty());
        m.record(EngineEvent::Deployed {
            type_name: "x".into(),
        });
        m.record(EngineEvent::InstanceCreated {
            instance: InstanceId(1),
            version: 1,
        });
        assert_eq!(m.len(), 2);
        let ev = m.events();
        assert!(ev[0].0 < ev[1].0);
        let log = m.render_log();
        assert!(log.contains("deployed \"x\""));
        assert!(log.contains("I1 created on V1"));
    }

    fn ev(i: u64) -> EngineEvent {
        EngineEvent::InstanceFinished {
            instance: InstanceId(i),
        }
    }

    #[test]
    fn retention_evicts_oldest_and_lags_stale_cursors() {
        let m = Monitor::new();
        m.set_retention(16);
        for i in 0..48u64 {
            m.record(ev(i));
        }
        assert_eq!(m.recorded(), 48);
        assert_eq!(m.len(), 16, "ring bounded at the cap");
        assert_eq!(m.oldest_retained(), 32);
        // Retained view is the contiguous newest window.
        let seqs: Vec<u64> = m.events().iter().map(|(t, _)| *t).collect();
        assert_eq!(seqs, (32..48).collect::<Vec<u64>>());
        // A cursor behind the watermark gets an explicit error.
        let err = m.events_since(10).unwrap_err();
        assert_eq!(err.oldest, 32);
        // At the watermark it reads cleanly.
        let batch = m.events_since(32).unwrap();
        assert_eq!(batch.events.len(), 16);
        assert_eq!(batch.next, 48);
        // The cap is exact, whatever its size.
        let m = Monitor::new();
        m.set_retention(8);
        for i in 0..100u64 {
            m.record(ev(i));
        }
        assert_eq!(m.len(), 8);
        assert_eq!(m.oldest_retained(), 92);
    }

    #[test]
    fn cursor_polls_deltas_and_resyncs_after_lag() {
        let m = Monitor::new();
        m.record(ev(1));
        let mut c = m.subscribe();
        assert_eq!(c.poll(&m).unwrap(), vec![], "tail cursor skips history");
        m.record_all((2..5).map(ev));
        let got = c.poll(&m).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, 1);
        assert_eq!(c.position(), 4);
        // Replay-from-zero sees everything still retained.
        let mut z = m.subscribe_from(0);
        assert_eq!(z.poll(&m).unwrap().len(), 4);
        // Force eviction past the cursor, then resync.
        m.set_retention(16);
        for i in 0..64u64 {
            m.record(ev(i));
        }
        let mut stale = m.subscribe_from(0);
        assert!(stale.poll(&m).is_err());
        let skipped = stale.resync(&m);
        assert!(skipped > 0);
        let batch = stale.poll(&m).unwrap();
        assert_eq!(batch.len(), 16);
    }

    #[test]
    fn reader_stays_contiguous_under_concurrent_recorders() {
        // Recorders keep landing events between polls; the poller must
        // still get a gap-free, duplicate-free stream.
        let m = std::sync::Arc::new(Monitor::new());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        m.record(ev(w * 1000 + i));
                    }
                })
            })
            .collect();
        let mut cursor = m.subscribe_from(0);
        let mut seen = 0u64;
        while seen < 800 {
            let batch = cursor.poll(&m).expect("retention never exceeded");
            for (t, _) in &batch {
                assert_eq!(*t, seen, "stream must be gap- and duplicate-free");
                seen += 1;
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(m.recorded(), 800);
        assert_eq!(m.events().len(), 800);
    }

    #[test]
    fn a_batch_lands_whole_under_concurrent_recorders() {
        // A batch's sequences are drawn under the guard that lands it, so
        // a poll never sees part of one: every polled run is whole
        // batches (slots 0, 1, 2 of one tag), one after the other.
        const BATCHES: u64 = 5_000;
        let m = Monitor::new();
        let tag_and_slot = |e: &EngineEvent| match e {
            EngineEvent::InstanceFinished { instance } => (instance.0 / 3, instance.0 % 3),
            other => panic!("unexpected event {other}"),
        };
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let m = &m;
                s.spawn(move || {
                    for b in 0..BATCHES {
                        let tag = w * BATCHES + b;
                        m.record_all((0..3).map(|slot| ev(tag * 3 + slot)));
                    }
                });
            }
            let mut cursor = m.subscribe_from(0);
            let mut seen = 0;
            while seen < 2 * BATCHES * 3 {
                let polled = cursor.poll(&m).expect("retention never exceeded");
                assert_eq!(polled.len() % 3, 0, "a poll showed part of a batch");
                for batch in polled.chunks(3) {
                    let (tag, _) = tag_and_slot(&batch[0].1);
                    for (slot, (_, e)) in batch.iter().enumerate() {
                        assert_eq!(tag_and_slot(e), (tag, slot as u64));
                    }
                }
                seen += polled.len() as u64;
            }
        });
    }

    #[test]
    fn instance_rendering() {
        let mut b = SchemaBuilder::new("r");
        let a = b.activity("approve");
        let s = b.build().unwrap();
        let ex = Execution::new(&s).unwrap();
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, a).unwrap();
        let dot = render_instance_dot(&s, &st);
        assert!(dot.contains("Running"));
        let summary = render_instance_summary(&s, &st);
        assert!(summary.contains("approve"));
        assert!(summary.contains("Running"));
    }
}
