//! The unified command/event execution API.
//!
//! Every state transition of a running instance — creation, activity
//! starts/completions, XOR and loop decisions, automatic drives — is a
//! typed [`EngineCommand`] submitted through **one code path**
//! ([`ProcessEngine::submit`] / [`ProcessEngine::submit_batch`]). The
//! command path
//!
//! * resolves the instance **and** the analysed schema it runs on under
//!   one store guard ([`adept_storage::InstanceStore::update_with_context`])
//!   — the context is a field of the instance, so there is nothing to
//!   validate and nothing that can be stale,
//! * applies discrete transitions **in place under that guard** — which
//!   closes the lost-update race of the old get → clone → update verbs
//!   (drives run on a cloned state outside the lock, since drivers are
//!   user code, and install with a compare-and-set on the revision they
//!   read),
//! * on a durable engine journals what the command changed — a state
//!   delta on the instance's revision, encoded from the state itself —
//!   under that guard, before the change is visible, and
//! * records a complete monitor event stream (decisions included).
//!
//! The worklist needs no maintenance here: it is a read of the store, and
//! the store stamps the change inside the critical section that makes it.
//!
//! [`ProcessEngine::submit_batch`] groups commands per instance and applies
//! each group under a **single** store update with one context resolution
//! — the batching surface that makes heavy-traffic workloads cheap.

use crate::engine::{EngineError, ProcessEngine};
use crate::monitor::EngineEvent;
use adept_core::ChangeError;
use adept_model::{DataId, InstanceId, NodeId, Value};
use adept_state::{enabled_diff, CompiledExecution, DefaultDriver, Driver, RunEvent, StateDiff};
use adept_storage::{StoredInstance, WalRecord};
use std::fmt;

/// A typed execution command, the single vocabulary every execution path
/// (interactive verbs, batch submission, simulation drivers) speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineCommand {
    /// Create an instance on the newest version of a process type.
    CreateInstance {
        /// The process type to instantiate.
        type_name: String,
    },
    /// Start an activated activity.
    Start {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
    },
    /// Complete a running activity with its output writes.
    Complete {
        /// The instance.
        instance: InstanceId,
        /// The activity node.
        node: NodeId,
        /// Output values, one per declared write edge.
        writes: Vec<(DataId, Value)>,
    },
    /// Fail a running activity: the node drops back to `Activated` (its
    /// `Started` history record withdrawn) and an
    /// [`EngineEvent::ActivityFailed`] is emitted — the signal the
    /// adaptation loop classifies deviations from.
    FailActivity {
        /// The instance.
        instance: InstanceId,
        /// The running activity node.
        node: NodeId,
        /// Application-level failure reason.
        reason: String,
    },
    /// Resolve a pending XOR decision.
    DecideXor {
        /// The instance.
        instance: InstanceId,
        /// The split node awaiting the decision.
        split: NodeId,
        /// The chosen branch target.
        branch_target: NodeId,
    },
    /// Resolve a pending loop decision.
    DecideLoop {
        /// The instance.
        instance: InstanceId,
        /// The loop end node awaiting the decision.
        loop_end: NodeId,
        /// Whether the loop iterates again.
        iterate: bool,
    },
    /// Drive the instance forward automatically, completing at most `max`
    /// activities (`None` = until the instance finishes). [`ProcessEngine::submit`]
    /// drives with the [`DefaultDriver`]; use
    /// [`ProcessEngine::submit_with_driver`] for custom drivers.
    Drive {
        /// The instance.
        instance: InstanceId,
        /// Maximum number of activities to complete.
        max: Option<usize>,
    },
}

impl EngineCommand {
    /// The instance the command targets (`None` for
    /// [`EngineCommand::CreateInstance`], whose instance does not exist
    /// yet).
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            EngineCommand::CreateInstance { .. } => None,
            EngineCommand::Start { instance, .. }
            | EngineCommand::Complete { instance, .. }
            | EngineCommand::FailActivity { instance, .. }
            | EngineCommand::DecideXor { instance, .. }
            | EngineCommand::DecideLoop { instance, .. }
            | EngineCommand::Drive { instance, .. } => Some(*instance),
        }
    }
}

impl fmt::Display for EngineCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineCommand::CreateInstance { type_name } => write!(f, "create {type_name:?}"),
            EngineCommand::Start { instance, node } => write!(f, "{instance}: start {node}"),
            EngineCommand::Complete {
                instance,
                node,
                writes,
            } => write!(f, "{instance}: complete {node} ({} writes)", writes.len()),
            EngineCommand::FailActivity {
                instance,
                node,
                reason,
            } => write!(f, "{instance}: fail {node} ({reason})"),
            EngineCommand::DecideXor {
                instance,
                split,
                branch_target,
            } => write!(f, "{instance}: decide {split} -> {branch_target}"),
            EngineCommand::DecideLoop {
                instance,
                loop_end,
                iterate,
            } => write!(
                f,
                "{instance}: decide {loop_end} {}",
                if *iterate { "iterate" } else { "exit" }
            ),
            EngineCommand::Drive { instance, max } => match max {
                Some(n) => write!(f, "{instance}: drive (max {n})"),
                None => write!(f, "{instance}: drive to completion"),
            },
        }
    }
}

/// What a submitted command did: the emitted monitor events, the
/// enabled-set delta, and the instance's liveness.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandOutcome {
    /// The affected instance (for [`EngineCommand::CreateInstance`], the
    /// newly created one).
    pub instance: InstanceId,
    /// The monitor events this command emitted, in order. They are also
    /// recorded in [`ProcessEngine::monitor`](crate::Monitor).
    pub events: Vec<EngineEvent>,
    /// Activities that became enabled through this command.
    pub newly_enabled: Vec<NodeId>,
    /// All activities enabled after this command, in node-id order.
    pub enabled: Vec<NodeId>,
    /// Number of activities this command completed (`1` for a
    /// [`EngineCommand::Complete`], the driven count for a
    /// [`EngineCommand::Drive`]).
    pub completed: usize,
    /// Whether the instance has reached its end node.
    pub finished: bool,
}

/// Bounded retries of a drive whose pre-state compare-and-set lost to a
/// concurrent command, change or migration. Each retry re-reads the
/// instance, so starvation needs a competing writer inside every drive.
const MAX_GROUP_RETRIES: usize = 8;

/// The same error for every command of a segment that never ran.
fn all_failed(cmds: &[EngineCommand], e: EngineError) -> Vec<Result<CommandOutcome, EngineError>> {
    cmds.iter().map(|_| Err(e.clone())).collect()
}

impl ProcessEngine {
    /// Submits one command, driving [`EngineCommand::Drive`] with the
    /// [`DefaultDriver`]. Every state transition flows through this path:
    /// instance and context under one store guard, in-place application,
    /// monitor events.
    pub fn submit(&self, cmd: EngineCommand) -> Result<CommandOutcome, EngineError> {
        self.submit_with_driver(cmd, &mut DefaultDriver)
    }

    /// [`ProcessEngine::submit`] with a custom [`Driver`] resolving the
    /// decisions and output values of [`EngineCommand::Drive`].
    pub fn submit_with_driver(
        &self,
        cmd: EngineCommand,
        driver: &mut dyn Driver,
    ) -> Result<CommandOutcome, EngineError> {
        match cmd.instance() {
            None => {
                let EngineCommand::CreateInstance { type_name } = &cmd else {
                    unreachable!("only CreateInstance has no instance");
                };
                self.apply_create(type_name)
            }
            Some(id) => {
                let mut results = self.apply_group(id, std::slice::from_ref(&cmd), driver);
                results
                    .pop()
                    .expect("invariant: apply_group returns one result per command")
            }
        }
    }

    /// Submits a batch of commands, returning one result per command **in
    /// submission order**. Commands are grouped per instance (relative
    /// order within an instance preserved); each group resolves its
    /// instance context once and commits under a single atomic store
    /// update. A failed command yields its own `Err` without aborting the
    /// rest of its group — per instance, the observable semantics match
    /// submitting the commands one by one. Across instances the monitor
    /// may interleave differently than one-by-one submission would
    /// (creations execute first, then each instance's group in
    /// first-occurrence order); within one instance event order is always
    /// preserved.
    pub fn submit_batch(
        &self,
        cmds: Vec<EngineCommand>,
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        let mut results: Vec<Option<Result<CommandOutcome, EngineError>>> =
            (0..cmds.len()).map(|_| None).collect();
        // Group per instance, keeping each instance's command order and
        // the groups in first-occurrence order (the map only indexes into
        // the Vec, so grouping stays O(n log n) for huge mixed batches).
        let mut groups: Vec<(InstanceId, Vec<(usize, EngineCommand)>)> = Vec::new();
        let mut group_of: std::collections::BTreeMap<InstanceId, usize> =
            std::collections::BTreeMap::new();
        for (idx, cmd) in cmds.into_iter().enumerate() {
            match cmd.instance() {
                None => {
                    let EngineCommand::CreateInstance { type_name } = &cmd else {
                        unreachable!("only CreateInstance has no instance");
                    };
                    results[idx] = Some(self.apply_create(type_name));
                }
                Some(id) => match group_of.get(&id) {
                    Some(&g) => groups[g].1.push((idx, cmd)),
                    None => {
                        group_of.insert(id, groups.len());
                        groups.push((id, vec![(idx, cmd)]));
                    }
                },
            }
        }
        for (id, group) in groups {
            let batch: Vec<EngineCommand> = group.iter().map(|(_, c)| c.clone()).collect();
            let outs = self.apply_group(id, &batch, &mut DefaultDriver);
            for ((idx, _), out) in group.into_iter().zip(outs) {
                results[idx] = Some(out);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("invariant: every submitted command was routed to exactly one group"))
            .collect()
    }

    /// Creates an instance on the newest version of a type.
    fn apply_create(&self, type_name: &str) -> Result<CommandOutcome, EngineError> {
        let version = self
            .repo
            .latest_version(type_name)
            .ok_or_else(|| EngineError::NotFound(format!("process type {type_name:?}")))?;
        let dep = self
            .repo
            .deployed(type_name, version)
            .ok_or_else(|| EngineError::NotFound(format!("version {version}")))?;
        let ex = dep.exec();
        let st = ex.init()?;
        let enabled = ex.enabled(&st);
        let finished = ex.is_finished(&st);
        // The id is allocated first so that the record can carry it; the
        // record is journaled under the guard that inserts the instance,
        // BEFORE it becomes visible (write-ahead) — a crash between journal
        // and insert replays as a fresh, untouched instance,
        // indistinguishable from a crash just after the insert.
        let id = self.store.allocate_id();
        self.store.insert_on(id, &dep, st, |st| {
            self.journal(|| WalRecord::Created {
                id,
                type_name: type_name.to_string(),
                version,
                state: st.clone(),
            })
        })?;
        let events = vec![EngineEvent::InstanceCreated {
            instance: id,
            version,
        }];
        self.monitor.record_all(events.iter().cloned());
        Ok(CommandOutcome {
            instance: id,
            newly_enabled: enabled.clone(),
            enabled,
            completed: 0,
            finished,
            events,
        })
    }

    /// Applies a group of commands for one instance, in order. Discrete
    /// transitions (start/complete/decide) run in contiguous segments
    /// under a single store write lock; each [`EngineCommand::Drive`]
    /// runs **outside** the lock on a cloned state — its driver is
    /// arbitrary user code (calling back into the engine must not
    /// deadlock, and a long run must not stall every other instance) —
    /// and installs with a compare-and-set on the pre-drive state.
    pub(crate) fn apply_group(
        &self,
        id: InstanceId,
        cmds: &[EngineCommand],
        driver: &mut dyn Driver,
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        let mut results = Vec::with_capacity(cmds.len());
        let mut i = 0;
        while i < cmds.len() {
            if matches!(cmds[i], EngineCommand::Drive { .. }) {
                results.push(self.apply_drive(id, &cmds[i], driver));
                i += 1;
            } else {
                let end = cmds[i..]
                    .iter()
                    .position(|c| matches!(c, EngineCommand::Drive { .. }))
                    .map(|p| i + p)
                    .unwrap_or(cmds.len());
                results.extend(self.apply_ops(id, &cmds[i..end]));
                i = end;
            }
        }
        results
    }

    /// Applies a segment of discrete commands: one context resolution,
    /// one store write lock, one journal record, one monitor append —
    /// however many commands the segment carries.
    fn apply_ops(
        &self,
        id: InstanceId,
        cmds: &[EngineCommand],
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        let durable = self.wal().enabled();
        let applied = self.store.update_with_context(&self.repo, id, |inst, ctx| {
            let ex = ctx.exec();
            let mut was_finished = ex.is_finished(&inst.state);
            // A durable engine keeps the state the segment starts from: what
            // the journaled delta is taken against, and the rollback that
            // keeps an unjournaled change from ever becoming visible.
            let pre = durable.then(|| inst.state.clone());
            // The post-command enabled set of command k is the
            // pre-command set of k+1 — scanned once, not twice.
            let mut carry_enabled = None;
            let results: Vec<Result<CommandOutcome, EngineError>> = cmds
                .iter()
                .map(|cmd| {
                    apply_cmd(
                        &ex,
                        inst,
                        cmd,
                        &mut was_finished,
                        ctx.propagate_is_total,
                        &mut carry_enabled,
                    )
                })
                .collect();
            // A segment whose every command failed left the state as it was.
            let changed = results.iter().any(|r| r.is_ok());
            // One delta per mutating segment, on the revision it started
            // at, appended while the shard lock is held so WAL order equals
            // visibility order.
            if let (true, Some(pre)) = (changed, pre) {
                let diff = StateDiff::between(&pre, &inst.state);
                if let Err(e) = self.journal_delta(id, inst.rev, &diff) {
                    // The segment changed the state but the change could
                    // not be journaled: roll back, nothing is visible.
                    inst.state = pre;
                    return (Err(e), false);
                }
            }
            (Ok(results), changed)
        });
        match applied {
            Err(e) => all_failed(cmds, e.into()),
            Ok(Err(e)) => all_failed(cmds, EngineError::Storage(e)),
            Ok(Ok(results)) => {
                self.monitor.record_all(
                    results
                        .iter()
                        .filter_map(|r| r.as_ref().ok())
                        .flat_map(|o| o.events.iter().cloned()),
                );
                results
            }
        }
    }

    /// Drives an instance with user driver code **outside every engine
    /// lock**: the run works on a copy of the state and commits with a
    /// compare-and-set against the revision it copied, so a concurrent
    /// command neither deadlocks nor gets clobbered (a lost CAS retries
    /// the drive from the fresh state). A driver error leaves the store
    /// untouched, and so does a drive that changed nothing.
    fn apply_drive(
        &self,
        id: InstanceId,
        cmd: &EngineCommand,
        driver: &mut dyn Driver,
    ) -> Result<CommandOutcome, EngineError> {
        let EngineCommand::Drive { max, .. } = cmd else {
            unreachable!("apply_drive only receives Drive commands");
        };
        for _ in 0..MAX_GROUP_RETRIES {
            // What the run works on, and the revision the install below
            // compares against, read under one guard.
            let (ctx, rev, mut st) = self.store.with_context(&self.repo, id, |inst, ctx| {
                (ctx.clone(), inst.rev, inst.state.clone())
            })?;
            let ex = ctx.exec();
            let was_finished = ex.is_finished(&st);
            let before = ex.enabled(&st);
            let mut events = Vec::new();
            let completed = ex.run_observed(&mut st, driver, *max, &mut |ev| {
                events.push(match ev {
                    RunEvent::Started(n) => EngineEvent::ActivityStarted {
                        instance: id,
                        node: n,
                    },
                    RunEvent::Completed(n) => EngineEvent::ActivityCompleted {
                        instance: id,
                        node: n,
                    },
                    RunEvent::XorDecided { split, target } => EngineEvent::DecisionMade {
                        instance: id,
                        node: split,
                        choice: format!("branch {target}"),
                    },
                    RunEvent::LoopDecided { loop_end, iterate } => EngineEvent::DecisionMade {
                        instance: id,
                        node: loop_end,
                        choice: if iterate { "iterate" } else { "exit" }.to_string(),
                    },
                });
            })?;
            let after = ex.enabled(&st);
            let finished = ex.is_finished(&st);
            if finished && !was_finished {
                events.push(EngineEvent::InstanceFinished { instance: id });
            }
            // Write-ahead: what the drive changed — against the state it
            // started from, which the instance still is at if the revision
            // is — is journaled before it replaces the visible state, so a
            // journal failure leaves the instance as it was: no rollback.
            // The install takes the context the run worked on: its stamp
            // says what `st` offers without resolving anything again. A
            // drive that changed nothing has nothing to install.
            let installed = self.store.commit_state(id, rev, &ctx, st, |pre, st| {
                let diff = StateDiff::between(pre, st);
                if diff.is_empty() {
                    return Ok(false);
                }
                self.journal_delta(id, rev, &diff).map(|()| true)
            })?;
            // A lost compare-and-set re-drives from the fresh state; a
            // removed instance fails the read that opens the next round.
            if installed {
                self.monitor.record_all(events.iter().cloned());
                return Ok(CommandOutcome {
                    instance: id,
                    newly_enabled: enabled_diff(&before, &after),
                    enabled: after,
                    completed,
                    finished,
                    events,
                });
            }
        }
        Err(EngineError::Change(ChangeError::Precondition(format!(
            "concurrent modification: {id} kept changing during the drive"
        ))))
    }
}

/// Applies one command to an instance's state in place. On error the state
/// is left exactly as before the command, matching the discard-on-error
/// semantics of the old verbs: commands that can only fail *before*
/// mutating validate up front, and the remaining post-mutation failure
/// modes (a non-total activation fixpoint, a mid-run driver error) restore
/// a snapshot — which contexts whose fixpoint is total (`snapshot_free`)
/// skip entirely.
///
/// `carry_enabled` threads the post-command enabled set to the next
/// command of the same group, halving the marking scans of a batch.
fn apply_cmd(
    ex: &CompiledExecution<'_>,
    inst: &mut StoredInstance,
    cmd: &EngineCommand,
    was_finished: &mut bool,
    snapshot_free: bool,
    carry_enabled: &mut Option<Vec<NodeId>>,
) -> Result<CommandOutcome, EngineError> {
    let id = inst.id;
    let before = carry_enabled
        .take()
        .unwrap_or_else(|| ex.enabled(&inst.state));
    let mut events = Vec::new();
    let mut completed = 0usize;
    let fail = |e: EngineError,
                inst: &mut StoredInstance,
                snapshot: Option<adept_state::InstanceState>,
                carry: &mut Option<Vec<NodeId>>,
                before: Vec<NodeId>| {
        if let Some(s) = snapshot {
            inst.state = s;
        }
        // The state is unchanged, so the next command's "before" is too.
        *carry = Some(before);
        Err(e)
    };
    match cmd {
        EngineCommand::CreateInstance { .. } => {
            unreachable!("creates are resolved before grouping")
        }
        EngineCommand::Start { node, .. } => {
            // start_activity validates before mutating; never snapshots.
            if let Err(e) = ex.start_activity(&mut inst.state, *node) {
                return fail(e.into(), inst, None, carry_enabled, before);
            }
            events.push(EngineEvent::ActivityStarted {
                instance: id,
                node: *node,
            });
        }
        EngineCommand::Complete { node, writes, .. } => {
            let snapshot = (!snapshot_free).then(|| inst.state.clone());
            if let Err(e) = ex.complete_activity(&mut inst.state, *node, writes.clone()) {
                return fail(e.into(), inst, snapshot, carry_enabled, before);
            }
            events.push(EngineEvent::ActivityCompleted {
                instance: id,
                node: *node,
            });
            completed = 1;
        }
        EngineCommand::FailActivity { node, reason, .. } => {
            // fail_activity validates before mutating; never snapshots.
            if let Err(e) = ex.fail_activity(&mut inst.state, *node) {
                return fail(e.into(), inst, None, carry_enabled, before);
            }
            events.push(EngineEvent::ActivityFailed {
                instance: id,
                node: *node,
                reason: reason.clone(),
            });
        }
        EngineCommand::DecideXor {
            split,
            branch_target,
            ..
        } => {
            let snapshot = (!snapshot_free).then(|| inst.state.clone());
            if let Err(e) = ex.decide_xor(&mut inst.state, *split, *branch_target) {
                return fail(e.into(), inst, snapshot, carry_enabled, before);
            }
            events.push(EngineEvent::DecisionMade {
                instance: id,
                node: *split,
                choice: format!("branch {branch_target}"),
            });
        }
        EngineCommand::DecideLoop {
            loop_end, iterate, ..
        } => {
            let snapshot = (!snapshot_free).then(|| inst.state.clone());
            if let Err(e) = ex.decide_loop(&mut inst.state, *loop_end, *iterate) {
                return fail(e.into(), inst, snapshot, carry_enabled, before);
            }
            events.push(EngineEvent::DecisionMade {
                instance: id,
                node: *loop_end,
                choice: if *iterate { "iterate" } else { "exit" }.to_string(),
            });
        }
        EngineCommand::Drive { .. } => {
            unreachable!("drives run outside the store lock (apply_drive)")
        }
    }
    let after = ex.enabled(&inst.state);
    let finished = ex.is_finished(&inst.state);
    if finished && !*was_finished {
        events.push(EngineEvent::InstanceFinished { instance: id });
        *was_finished = true;
    }
    *carry_enabled = Some(after.clone());
    Ok(CommandOutcome {
        instance: id,
        newly_enabled: enabled_diff(&before, &after),
        enabled: after,
        completed,
        finished,
        events,
    })
}
