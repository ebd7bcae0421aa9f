//! The unified command/event execution API.
//!
//! Every state transition of a running instance — creation, activity
//! starts/completions, XOR and loop decisions, automatic drives — is a
//! typed [`EngineCommand`] submitted through **one code path**
//! ([`ProcessEngine::submit`] / [`ProcessEngine::submit_batch`]). The
//! command path
//!
//! * resolves the instance's `(schema, blocks)` context **once** through a
//!   per-instance cache (shared with the worklist index),
//! * applies discrete transitions **in place under the store's write
//!   lock**, validated against the context's `(version, bias)` snapshot —
//!   the compare-and-set that closes the lost-update race of the old
//!   get → clone → update verbs (drives run on a cloned state outside the
//!   lock, since drivers are user code, and install via the same CAS),
//! * records a complete monitor event stream (decisions included), and
//! * maintains the incremental worklist index from the post-command
//!   enabled set.
//!
//! [`ProcessEngine::submit_batch`] groups commands per instance and applies
//! each group under a **single** store update with one context resolution
//! — the batching surface that makes heavy-traffic workloads cheap.

use crate::engine::{EngineError, ProcessEngine};
use crate::monitor::EngineEvent;
use crate::worklist::items_for;
use adept_core::{ChangeError, Delta};
use adept_model::{Blocks, CompiledSchema, DataId, InstanceId, NodeId, ProcessSchema, Value};
use adept_state::{enabled_diff, CompiledExecution, DefaultDriver, Driver, Execution, RunEvent};
use adept_storage::{StorageError, StoredInstance, WalRecord};
use std::fmt;
use std::sync::Arc;

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

/// A cached per-instance execution context: the materialised schema, its
/// block structure and compiled arena, and the `(version, bias)` snapshot
/// all three were resolved against. Commands and the worklist share these
/// through [`ProcessEngine::exec_context`]; a context is valid exactly as
/// long as the snapshot still matches the live instance (changes,
/// migrations and undos invalidate it).
#[derive(Debug)]
pub(crate) struct ExecCtx {
    /// The instance-specific schema (shared `Arc` for unbiased instances).
    pub schema: Arc<ProcessSchema>,
    /// Its block structure (shared `Arc`; never cloned per command).
    pub blocks: Arc<Blocks>,
    /// Schema version the context was resolved on.
    pub version: u32,
    /// Bias the context was resolved on.
    pub bias: Delta,
    /// Whether the activation fixpoint is total on this schema (no guarded
    /// XOR split without an else branch, no loop end without a usable
    /// continuation) — when it is, completions and decisions cannot fail
    /// after their up-front validation, so the command path skips the
    /// defensive state snapshot entirely.
    pub snapshot_free: bool,
    /// The arena compiled from exactly `schema` and `blocks`: the
    /// deployment's shared one for unbiased instances, one built with the
    /// context for biased ones.
    pub compiled: Arc<CompiledSchema>,
}

/// Whether the activation fixpoint can fail at runtime on this schema: a
/// fully guarded XOR split (all guards may evaluate false → dead end) or a
/// loop end without a loop edge / continuation condition. Computed once
/// per context, amortised over every command it serves.
fn propagate_is_total(schema: &ProcessSchema) -> bool {
    use adept_model::{EdgeKind, NodeKind};
    for n in schema.nodes() {
        match n.kind {
            NodeKind::XorSplit => {
                let mut guards = 0usize;
                let mut has_else = false;
                for e in schema.out_edges_kind(n.id, EdgeKind::Control) {
                    match &e.guard {
                        Some(_) => guards += 1,
                        None => has_else = true,
                    }
                }
                if guards > 0 && !has_else {
                    return false;
                }
            }
            NodeKind::LoopEnd => {
                let usable = schema
                    .out_edges_kind(n.id, EdgeKind::Loop)
                    .next()
                    .is_some_and(|e| e.loop_cond.is_some());
                if !usable {
                    return false;
                }
            }
            _ => {}
        }
    }
    true
}

impl ExecCtx {
    /// The executor every command, drive, worklist computation and audit
    /// of this instance runs on (zero-copy over the context).
    pub fn exec(&self) -> CompiledExecution<'_> {
        CompiledExecution::new(&self.schema, &self.compiled)
    }

    /// Whether the context still describes the live instance.
    pub fn matches(&self, inst: &StoredInstance) -> bool {
        inst.version == self.version && inst.bias == self.bias
    }
}

/// How a group application ended inside the store's write lock.
enum GroupApply {
    /// The context no longer matches the instance; rebuild and retry.
    Stale,
    /// The group mutated state but its post-image could not be journaled;
    /// the mutation was rolled back and nothing is visible.
    Journal(StorageError),
    /// The group was applied; per-command results plus the post-group
    /// worklist snapshot (install epoch drawn under the lock).
    Applied {
        results: Vec<Result<CommandOutcome, EngineError>>,
        epoch: u64,
        items: Vec<crate::worklist::WorkItem>,
    },
}

/// Bounded retries against concurrent context invalidation. Each retry
/// re-resolves the context from the live instance, so starvation needs a
/// competing writer between every resolve and apply.
const MAX_GROUP_RETRIES: usize = 8;

impl ProcessEngine {
    /// Submits one command, driving [`EngineCommand::Drive`] with the
    /// [`DefaultDriver`]. Every state transition flows through this path:
    /// context resolution (cached), in-place application under the store
    /// lock, monitor events, worklist index maintenance.
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
        self.submit_batch_with_driver(cmds, &mut DefaultDriver)
    }

    /// [`ProcessEngine::submit_batch`] with a custom [`Driver`] shared by
    /// every [`EngineCommand::Drive`] in the batch.
    pub fn submit_batch_with_driver(
        &self,
        cmds: Vec<EngineCommand>,
        driver: &mut dyn Driver,
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
            let outs = self.apply_group(id, &batch, driver);
            for ((idx, _), out) in group.into_iter().zip(outs) {
                results[idx] = Some(out);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("invariant: every submitted command was routed to exactly one group"))
            .collect()
    }

    /// Creates an instance on the newest version of a type and seeds its
    /// worklist index entry.
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
        // The id is allocated and journaled BEFORE the instance becomes
        // visible (write-ahead); a crash between journal and insert
        // replays as a fresh, untouched instance — indistinguishable from
        // a crash just after the insert.
        let id = self.store.allocate_id();
        self.journal(|| WalRecord::Created {
            id,
            type_name: type_name.to_string(),
            version,
            state: st.clone(),
        })?;
        let items = items_for(&dep.schema, &enabled, id, type_name, version);
        // The epoch is drawn BEFORE the instance becomes visible: any
        // concurrent command on the new id necessarily runs after
        // insert_new and therefore draws a larger epoch — its fresher
        // install beats this initial one, never the reverse.
        let epoch = self.wl_index.begin_install(id);
        self.store.insert_new(id, type_name, version, st);
        self.wl_index.finish_install(id, epoch, items);
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
    /// one store write lock, one worklist index install, one monitor
    /// append — however many commands the segment carries.
    fn apply_ops(
        &self,
        id: InstanceId,
        cmds: &[EngineCommand],
    ) -> Vec<Result<CommandOutcome, EngineError>> {
        for _ in 0..MAX_GROUP_RETRIES {
            let ctx = match self.exec_context(id) {
                Ok(ctx) => ctx,
                Err(e) => return cmds.iter().map(|_| Err(e.clone())).collect(),
            };
            let fallible = self.wal().fallible();
            let applied = self.store.update(id, |inst| {
                if !ctx.matches(inst) {
                    return GroupApply::Stale;
                }
                let ex = ctx.exec();
                let mut was_finished = ex.is_finished(&inst.state);
                // The pre-image is kept only when the journal can actually
                // fail — the rollback that keeps an unjournaled mutation
                // from ever becoming visible.
                let pre = fallible.then(|| inst.state.clone());
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
                            ctx.snapshot_free,
                            &mut carry_enabled,
                        )
                    })
                    .collect();
                // One post-image per mutating group, appended while the
                // shard lock is held so WAL order equals visibility order.
                if results.iter().any(|r| r.is_ok()) {
                    if let Err(e) = self.journal(|| WalRecord::StateChanged {
                        id,
                        state: inst.state.clone(),
                    }) {
                        if let Some(pre) = pre {
                            inst.state = pre;
                        }
                        return GroupApply::Journal(e);
                    }
                }
                // The install epoch is drawn while the store lock is held,
                // so index installs order exactly like store commits. It
                // is registered pending (store shard → index shard, the
                // documented order) so delta cursors wait for the install
                // below rather than skip past it.
                // The last command's carried enabled set IS the post-group
                // set — no extra marking scan for the worklist install.
                let enabled = carry_enabled.unwrap_or_else(|| ex.enabled(&inst.state));
                GroupApply::Applied {
                    results,
                    epoch: self.wl_index.begin_install(id),
                    items: items_for(ex.schema, &enabled, id, &inst.type_name, inst.version),
                }
            });
            match applied {
                None => {
                    let e = EngineError::NotFound(format!("{id}"));
                    return cmds.iter().map(|_| Err(e.clone())).collect();
                }
                Some(GroupApply::Stale) => {
                    self.invalidate_instance(id);
                    continue;
                }
                Some(GroupApply::Journal(e)) => {
                    let e = EngineError::Storage(e);
                    return cmds.iter().map(|_| Err(e.clone())).collect();
                }
                Some(GroupApply::Applied {
                    results,
                    epoch,
                    items,
                }) => {
                    self.wl_index.finish_install(id, epoch, items);
                    self.monitor.record_all(
                        results
                            .iter()
                            .filter_map(|r| r.as_ref().ok())
                            .flat_map(|o| o.events.iter().cloned()),
                    );
                    return results;
                }
            }
        }
        let e = EngineError::Change(ChangeError::Precondition(format!(
            "concurrent modification: context of {id} kept changing during submission"
        )));
        cmds.iter().map(|_| Err(e.clone())).collect()
    }

    /// Drives an instance with user driver code **outside every engine
    /// lock**: the run works on a cloned state and commits with a
    /// compare-and-set against the pre-drive snapshot, so a concurrent
    /// command neither deadlocks nor gets clobbered (a lost CAS retries
    /// the drive from the fresh state). A driver error leaves the store
    /// untouched.
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
            let ctx = self.exec_context(id)?;
            let pre = self
                .store
                .with_instance(id, |inst| ctx.matches(inst).then(|| inst.state.clone()))
                .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
            let Some(pre) = pre else {
                self.invalidate_instance(id);
                continue;
            };
            let ex = ctx.exec();
            let was_finished = ex.is_finished(&pre);
            let before = ex.enabled(&pre);
            let mut st = pre.clone();
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
            let installed = self.store.update(id, |inst| {
                if !ctx.matches(inst) || inst.state != pre {
                    return None;
                }
                // Write-ahead: the driven post-image is journaled before
                // it replaces the visible state, so a journal failure
                // leaves the instance exactly at `pre` — no rollback.
                if st != pre {
                    if let Err(e) = self.journal(|| WalRecord::StateChanged {
                        id,
                        state: st.clone(),
                    }) {
                        return Some(Err(e));
                    }
                }
                inst.state = st;
                Some(Ok((
                    self.wl_index.begin_install(id),
                    items_for(ex.schema, &after, id, &inst.type_name, inst.version),
                )))
            });
            match installed {
                None => return Err(EngineError::NotFound(format!("{id}"))),
                Some(None) => continue, // lost the CAS; re-drive from fresh state
                Some(Some(Err(e))) => return Err(EngineError::Storage(e)),
                Some(Some(Ok((epoch, items)))) => {
                    self.wl_index.finish_install(id, epoch, items);
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
        }
        Err(EngineError::Change(ChangeError::Precondition(format!(
            "concurrent modification: {id} kept changing during the drive"
        ))))
    }

    /// Resolves (or returns the cached) execution context of an instance.
    pub(crate) fn exec_context(&self, id: InstanceId) -> Result<Arc<ExecCtx>, EngineError> {
        if let Some(ctx) = self.ctx_cache.get_cloned(id) {
            let live = self
                .store
                .with_instance(id, |inst| ctx.matches(inst))
                .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
            if live {
                return Ok(ctx);
            }
        }
        self.rebuild_context(id)
    }

    /// Builds a fresh context from the live instance and caches it.
    fn rebuild_context(&self, id: InstanceId) -> Result<Arc<ExecCtx>, EngineError> {
        let (type_name, version, bias) = self
            .store
            .with_instance(id, |inst| {
                (inst.type_name.clone(), inst.version, inst.bias.clone())
            })
            .ok_or_else(|| EngineError::NotFound(format!("{id}")))?;
        let schema = self
            .store
            .schema_of(&self.repo, id)
            .ok_or_else(|| EngineError::NotFound(format!("schema of {id}")))?;
        let (blocks, compiled) = if bias.is_empty() {
            match self.repo.deployed(&type_name, version) {
                Some(dep) => (dep.blocks, dep.compiled),
                None => {
                    return Err(EngineError::NotFound(format!(
                        "deployed version {version} of {type_name:?}"
                    )))
                }
            }
        } else {
            let Execution { blocks, arena, .. } = Execution::new(&schema)
                .map_err(|e| EngineError::Change(ChangeError::Precondition(e.to_string())))?;
            (blocks, arena)
        };
        let ctx = Arc::new(ExecCtx {
            snapshot_free: propagate_is_total(&schema),
            schema,
            blocks,
            version,
            bias,
            compiled,
        });
        self.ctx_cache.insert(id, ctx.clone());
        // Closes the remove race: if `remove_instance` cleared the cache
        // between our store read and this insert, the entry would be
        // unreachable garbage forever (the id never reappears in
        // `store.ids()`, so nothing would evict it). Removal deletes the
        // store entry *before* clearing the cache, so re-checking the
        // store after inserting catches every interleaving.
        if self.store.with_instance(id, |_| ()).is_none() {
            self.ctx_cache.remove(id);
            return Err(EngineError::NotFound(format!("{id}")));
        }
        Ok(ctx)
    }

    /// Drops the cached context and worklist entry of an instance — the
    /// invalidation hook change-transaction commits, migrations and undos
    /// call after rebasing an instance onto a different schema.
    pub(crate) fn invalidate_instance(&self, id: InstanceId) {
        self.ctx_cache.remove(id);
        self.wl_index.invalidate(id);
    }
}

/// Applies one command to an instance's state in place. On error the state
/// is left exactly as before the command, matching the discard-on-error
/// semantics of the old verbs: commands that can only fail *before*
/// mutating validate up front, and the remaining post-mutation failure
/// modes (a non-total activation fixpoint, a mid-run driver error) restore
/// a snapshot — which `snapshot_free` contexts skip entirely.
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
