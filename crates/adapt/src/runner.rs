//! The adaptation loop: detect → synthesize → preview → commit.

use crate::{AdaptationPolicy, Deviation, RecoveryPlan, SchemaView};
use adept_core::{annotate_activity, compensation_for, skip_activity, ChangeOp, Verdict};
use adept_engine::{
    EngineCommand, EngineError, EngineEvent, EventCursor, FailureKind, ProcessEngine,
};
use adept_model::{InstanceId, NodeId};
use adept_state::{Decision, NodeState};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Tuning knobs for an [`AdaptationLoop`].
#[derive(Debug, Clone)]
pub struct AdaptationConfig {
    /// Worker threads for executing a tick's recovery batch (`1` =
    /// inline on the loop thread).
    pub threads: usize,
    /// Maximum recoveries attempted per tick; the overflow stays queued.
    pub max_in_flight: usize,
    /// Deadline (in ticks) for activities without an
    /// `expected_duration_min` annotation.
    pub default_deadline: u64,
    /// Ticks of per-instance silence before a pending external loop
    /// decision counts as stuck.
    pub decision_deadline: u64,
}

/// Worklist resolution failures before an instance counts as starved.
const STARVATION_THRESHOLD: u32 = 2;

/// Contested (concurrent-change) retries per deviation before the loop
/// gives up on planning it.
const MAX_PLAN_RETRIES: u32 = 16;

impl Default for AdaptationConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            max_in_flight: 64,
            default_deadline: 8,
            decision_deadline: 16,
        }
    }
}

/// Counters summarizing what an [`AdaptationLoop`] has done so far.
#[derive(Debug, Clone, Default)]
pub struct AdaptationReport {
    /// Ticks executed.
    pub ticks: u64,
    /// Deviations that entered recovery processing.
    pub deviations: u64,
    /// Recoveries committed (every one passed preview first).
    pub committed: u64,
    /// Deviations for which every synthesized plan was rejected (or no
    /// policy produced one).
    pub rejected: u64,
    /// Instances given up on and escalated to the worklist.
    pub escalated: u64,
    /// Recovery attempts requeued after losing a concurrent-change race.
    pub contested: u64,
    /// Cursor resyncs after falling behind the monitor's retention.
    pub resyncs: u64,
    /// Events lost to retention eviction across all resyncs.
    pub events_skipped: u64,
    /// Backoff retries scheduled.
    pub retries_scheduled: u64,
    /// Backoff retries fired (activity re-started).
    pub retries_fired: u64,
}

/// Result of one recovery attempt with one plan.
enum PlanResult {
    /// The plan passed preview and committed (`seq` = txn log sequence;
    /// command-level plans report `seq` 0).
    Committed {
        seq: u64,
        retry_at: Option<(u64, NodeId)>,
    },
    /// The instance was handed to the worklist (with the txn seq when a
    /// role rewrite was committed).
    Escalated { seq: Option<u64> },
    /// Preview (or staging) rejected the plan; try the next policy.
    Rejected(String),
    /// Lost a concurrent-change race; retry the whole deviation later.
    Contested(String),
    /// The instance vanished; drop the deviation.
    Gone,
}

/// Final outcome of processing one deviation through the policy chain.
enum Outcome {
    Committed { retry_at: Option<(u64, NodeId)> },
    Escalated { seq: Option<u64> },
    AllRejected,
    Contested { reason: String },
    Gone,
}

/// The automatic run-time adaptation loop.
///
/// Subscribes to the engine's monitor stream via an [`EventCursor`],
/// classifies [`Deviation`]s, asks its [`AdaptationPolicy`] chain to
/// synthesize [`RecoveryPlan`]s, and commits only plans that pass the
/// engine's change-transaction preview. See the crate docs for the full
/// lifecycle.
pub struct AdaptationLoop<'e> {
    engine: &'e ProcessEngine,
    policies: Vec<Box<dyn AdaptationPolicy>>,
    config: AdaptationConfig,
    cursor: EventCursor,
    tick: u64,
    report: AdaptationReport,
    /// Running activities: `(instance, node) -> (start_tick, deadline)`.
    running: BTreeMap<(InstanceId, NodeId), (u64, u64)>,
    /// Observed failures per activity (drives the retry budget).
    attempts: BTreeMap<(InstanceId, NodeId), u32>,
    /// Worklist resolution failures per instance.
    resolution_failures: BTreeMap<InstanceId, u32>,
    /// Tick of each instance's last (non-adaptation) engine event.
    last_event: BTreeMap<InstanceId, u64>,
    /// Single-flight guard: deviation keys already recovered (or given
    /// up on) per instance.
    handled: BTreeSet<(InstanceId, String)>,
    /// Contested-retry counts per deviation key.
    plan_tries: BTreeMap<(InstanceId, String), u32>,
    /// Instances escalated to the worklist (no further adaptation).
    escalated: BTreeSet<InstanceId>,
    /// Instances that finished or were removed.
    finished: BTreeSet<InstanceId>,
    /// Backoff retries due at a tick: `due_tick -> [(instance, node)]`.
    retries: BTreeMap<u64, Vec<(InstanceId, NodeId)>>,
    /// Deviations waiting for a slot (budget overflow / contested).
    pending: VecDeque<Deviation>,
}

impl<'e> AdaptationLoop<'e> {
    /// Creates a loop over `engine`'s monitor stream, starting at the
    /// stream's current tail.
    pub fn new(engine: &'e ProcessEngine, config: AdaptationConfig) -> Self {
        let cursor = engine.monitor.subscribe();
        Self {
            engine,
            policies: Vec::new(),
            config,
            cursor,
            tick: 0,
            report: AdaptationReport::default(),
            running: BTreeMap::new(),
            attempts: BTreeMap::new(),
            resolution_failures: BTreeMap::new(),
            last_event: BTreeMap::new(),
            handled: BTreeSet::new(),
            plan_tries: BTreeMap::new(),
            escalated: BTreeSet::new(),
            finished: BTreeSet::new(),
            retries: BTreeMap::new(),
            pending: VecDeque::new(),
        }
    }

    /// Like [`new`](AdaptationLoop::new), but the cursor starts at the
    /// oldest *retained* event instead of the tail, so the loop adopts a
    /// backlog of deviations that predates it (e.g. after a restart).
    pub fn from_backlog(engine: &'e ProcessEngine, config: AdaptationConfig) -> Self {
        let mut looper = Self::new(engine, config);
        looper.cursor = engine
            .monitor
            .subscribe_from(engine.monitor.oldest_retained());
        looper
    }

    /// Appends a policy to the chain (consulted in registration order).
    pub fn with_policy(mut self, policy: impl AdaptationPolicy + 'static) -> Self {
        self.policies.push(Box::new(policy));
        self
    }

    /// The counters accumulated so far.
    pub fn report(&self) -> &AdaptationReport {
        &self.report
    }

    /// The loop's logical clock.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Instances the loop has given up on and escalated.
    pub fn escalated_instances(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.escalated.iter().copied()
    }

    /// Advances the logical clock by one tick: consumes new monitor
    /// events, detects deviations, fires due retries, and runs one
    /// bounded batch of recoveries. Returns the number of events
    /// consumed plus deviations processed this tick (0 = idle tick).
    pub fn tick(&mut self) -> usize {
        self.tick += 1;
        self.report.ticks += 1;

        // 1. Consume the event stream; on lag, resync explicitly and
        //    rebuild the running-activity table from the store — never
        //    silently skip.
        let mut fresh: Vec<Deviation> = Vec::new();
        let events = match self.cursor.poll(&self.engine.monitor) {
            Ok(events) => events,
            Err(_) => {
                let skipped = self.cursor.resync(&self.engine.monitor);
                self.report.resyncs += 1;
                self.report.events_skipped += skipped;
                self.rescan();
                self.cursor.poll(&self.engine.monitor).unwrap_or_default()
            }
        };
        let polled = events.len();
        for (_, event) in &events {
            self.classify(event, &mut fresh);
            for policy in &self.policies {
                if let Some(d) = policy.observe(event) {
                    fresh.push(d);
                }
            }
        }

        // 2. Deadline scan over running activities.
        for (&(id, node), &(since, deadline)) in &self.running {
            if self.tick.saturating_sub(since) <= deadline {
                continue;
            }
            let d = Deviation::DeadlineBreached {
                instance: id,
                node,
                since,
                waited: self.tick - since,
            };
            if self.admissible(&d) {
                fresh.push(d);
            }
        }

        // 3. Stuck-decision scan over silent instances.
        let quiet: Vec<InstanceId> = self
            .last_event
            .iter()
            .filter(|(id, last)| {
                self.tick.saturating_sub(**last) > self.config.decision_deadline
                    && !self.finished.contains(*id)
                    && !self.escalated.contains(*id)
                    && !self.running.keys().any(|(i, _)| i == *id)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in quiet {
            let Ok(decisions) = self.engine.pending_decisions(id) else {
                continue;
            };
            let stuck_loop = decisions.into_iter().find_map(|d| match d {
                Decision::Loop {
                    loop_end,
                    completed,
                } => Some((loop_end, completed)),
                Decision::Xor { .. } => None,
            });
            if let Some((loop_end, completed)) = stuck_loop {
                let last = self.last_event.get(&id).copied().unwrap_or(0);
                let d = Deviation::DecisionStuck {
                    instance: id,
                    loop_end,
                    completed,
                    waited: self.tick - last,
                };
                if self.admissible(&d) {
                    fresh.push(d);
                }
            }
        }

        // 4. Assemble the batch: queued + fresh, one deviation per
        //    instance (single-flight), bounded by the in-flight budget.
        let mut candidates: VecDeque<Deviation> = std::mem::take(&mut self.pending);
        candidates.extend(fresh);
        let mut batch: Vec<Deviation> = Vec::new();
        let mut batch_keys: BTreeSet<(InstanceId, String)> = BTreeSet::new();
        let mut batch_instances: BTreeSet<InstanceId> = BTreeSet::new();
        for d in candidates {
            if !self.admissible(&d) {
                continue;
            }
            let key = (d.instance(), d.key());
            if batch_keys.contains(&key) {
                continue;
            }
            if batch_instances.contains(&d.instance()) || batch.len() >= self.config.max_in_flight {
                self.pending.push_back(d);
                continue;
            }
            batch_instances.insert(d.instance());
            batch_keys.insert(key);
            batch.push(d);
        }

        // 5. Execute the batch (parallel when configured — the batch
        //    holds at most one deviation per instance, so workers never
        //    race on the same instance).
        let processed = batch.len();
        self.report.deviations += processed as u64;
        let outcomes = self.execute_batch(&batch);

        // 6. Merge outcomes back into the single-threaded bookkeeping.
        for (d, outcome) in batch.into_iter().zip(outcomes) {
            let key = (d.instance(), d.key());
            match outcome {
                Outcome::Committed { retry_at } => {
                    self.handled.insert(key);
                    self.report.committed += 1;
                    if let Some((delay, node)) = retry_at {
                        self.retries
                            .entry(self.tick + delay.max(1))
                            .or_default()
                            .push((d.instance(), node));
                        self.report.retries_scheduled += 1;
                    }
                }
                Outcome::Escalated { seq } => {
                    self.handled.insert(key);
                    self.escalated.insert(d.instance());
                    self.report.escalated += 1;
                    if seq.is_some() {
                        self.report.committed += 1;
                    }
                    // The instance now belongs to a human — drop any
                    // backoff retry that would re-start its work.
                    for v in self.retries.values_mut() {
                        v.retain(|(i, _)| *i != d.instance());
                    }
                }
                Outcome::AllRejected => {
                    self.handled.insert(key);
                    self.report.rejected += 1;
                }
                Outcome::Contested { reason } => {
                    let tries = self.plan_tries.entry(key.clone()).or_insert(0);
                    *tries += 1;
                    if *tries > MAX_PLAN_RETRIES {
                        self.engine.monitor.record(EngineEvent::AdaptationRejected {
                            instance: d.instance(),
                            plan: "-".into(),
                            deviation: d.key(),
                            reason: format!("gave up after {tries} contested attempts: {reason}"),
                        });
                        self.handled.insert(key);
                        self.escalated.insert(d.instance());
                        self.report.escalated += 1;
                    } else {
                        self.report.contested += 1;
                        self.pending.push_back(d);
                    }
                }
                Outcome::Gone => {
                    self.finished.insert(d.instance());
                    self.prune(d.instance());
                }
            }
        }

        // 7. Fire due backoff retries — after the merge, so a retry
        //    scheduled for an instance that was escalated (or finished)
        //    this very tick never re-starts its work.
        let due: Vec<u64> = self
            .retries
            .keys()
            .copied()
            .take_while(|t| *t <= self.tick)
            .collect();
        for t in due {
            for (id, node) in self.retries.remove(&t).unwrap_or_default() {
                if self.finished.contains(&id) || self.escalated.contains(&id) {
                    continue;
                }
                // The re-start may legitimately fail (the node was
                // adapted away or completed by a worklist client in the
                // meantime) — tolerated, not fatal.
                let _ = self
                    .engine
                    .submit(EngineCommand::Start { instance: id, node });
                self.report.retries_fired += 1;
            }
        }

        polled + processed
    }

    /// Runs [`tick`](AdaptationLoop::tick) until the loop is quiescent
    /// (two consecutive idle ticks with nothing queued) or `max_ticks`
    /// elapse. Returns the accumulated report.
    pub fn run_until_quiescent(&mut self, max_ticks: u64) -> AdaptationReport {
        let mut idle = 0u32;
        for _ in 0..max_ticks {
            let work = self.tick();
            if work == 0 && self.pending.is_empty() && self.retries.is_empty() {
                idle += 1;
                if idle >= 2 {
                    break;
                }
            } else {
                idle = 0;
            }
        }
        self.report.clone()
    }

    /// Whether a deviation is still worth recovering.
    fn admissible(&self, d: &Deviation) -> bool {
        let id = d.instance();
        !self.finished.contains(&id)
            && !self.escalated.contains(&id)
            && !self.handled.contains(&(id, d.key()))
    }

    /// Classifies one engine event into the loop's bookkeeping, pushing
    /// any fresh deviation.
    fn classify(&mut self, event: &EngineEvent, fresh: &mut Vec<Deviation>) {
        if let Some(id) = event_instance(event) {
            self.last_event.insert(id, self.tick);
        }
        match event {
            EngineEvent::ActivityStarted { instance, node } => {
                let deadline = self
                    .engine
                    .materialized(*instance)
                    .ok()
                    .and_then(|(schema, _)| {
                        schema
                            .node(*node)
                            .ok()
                            .and_then(|x| x.attrs.expected_duration_min)
                    })
                    .map(u64::from)
                    .unwrap_or(self.config.default_deadline);
                self.running
                    .insert((*instance, *node), (self.tick, deadline));
            }
            EngineEvent::ActivityCompleted { instance, node } => {
                self.running.remove(&(*instance, *node));
                self.attempts.remove(&(*instance, *node));
            }
            EngineEvent::ActivityFailed {
                instance,
                node,
                reason,
            } => {
                self.running.remove(&(*instance, *node));
                let attempts = self.attempts.entry((*instance, *node)).or_insert(0);
                *attempts += 1;
                let d = Deviation::ActivityFailed {
                    instance: *instance,
                    node: *node,
                    attempts: *attempts,
                    reason: reason.clone(),
                };
                if self.admissible(&d) {
                    fresh.push(d);
                }
            }
            EngineEvent::WorklistResolutionFailed { instance, .. } => {
                let failures = self.resolution_failures.entry(*instance).or_insert(0);
                *failures += 1;
                if *failures == STARVATION_THRESHOLD {
                    let d = Deviation::WorklistStarvation {
                        instance: *instance,
                        failures: *failures,
                    };
                    if self.admissible(&d) {
                        fresh.push(d);
                    }
                }
            }
            EngineEvent::InstanceFinished { instance }
            | EngineEvent::InstanceRemoved { instance } => {
                self.finished.insert(*instance);
                self.prune(*instance);
            }
            _ => {}
        }
    }

    /// Drops all per-instance tracking for a finished/vanished instance.
    fn prune(&mut self, id: InstanceId) {
        self.running.retain(|(i, _), _| *i != id);
        self.attempts.retain(|(i, _), _| *i != id);
        self.resolution_failures.remove(&id);
        self.last_event.remove(&id);
        for v in self.retries.values_mut() {
            v.retain(|(i, _)| *i != id);
        }
    }

    /// Rebuilds the running-activity table from the store after an event
    /// gap (retention eviction), preserving known start ticks.
    fn rescan(&mut self) {
        let old = std::mem::take(&mut self.running);
        for id in self.engine.store.ids() {
            if self.finished.contains(&id) {
                continue;
            }
            let Ok(view) = SchemaView::capture(self.engine, id) else {
                continue;
            };
            for node in view.state.marking.nodes_in(NodeState::Running) {
                let deadline = view
                    .attributes(node)
                    .and_then(|a| a.expected_duration_min)
                    .map(u64::from)
                    .unwrap_or(self.config.default_deadline);
                let since = old.get(&(id, node)).map(|(s, _)| *s).unwrap_or(self.tick);
                self.running.insert((id, node), (since, deadline));
            }
        }
    }

    /// Runs the batch through the policy chain, inline or on worker
    /// threads.
    fn execute_batch(&self, batch: &[Deviation]) -> Vec<Outcome> {
        let engine = self.engine;
        let policies = &self.policies[..];
        let threads = self.config.threads.max(1);
        if threads <= 1 || batch.len() < 2 {
            return batch.iter().map(|d| process(engine, policies, d)).collect();
        }
        let chunk = batch.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = batch
                .chunks(chunk)
                .map(|part| {
                    let h = scope.spawn(move || {
                        part.iter()
                            .map(|d| process(engine, policies, d))
                            .collect::<Vec<_>>()
                    });
                    (part, h)
                })
                .collect();
            // A worker panic downgrades its chunk to contested, in the
            // chunk's own place — the deviations are requeued rather than
            // lost, and every other outcome stays with its deviation.
            handles
                .into_iter()
                .flat_map(|(part, h)| {
                    h.join().unwrap_or_else(|_| {
                        part.iter()
                            .map(|_| Outcome::Contested {
                                reason: "recovery worker panicked".into(),
                            })
                            .collect()
                    })
                })
                .collect()
        })
    }
}

/// Processes one deviation: record the detection, capture a fresh view,
/// and walk the policy chain until a plan commits.
fn process(
    engine: &ProcessEngine,
    policies: &[Box<dyn AdaptationPolicy>],
    d: &Deviation,
) -> Outcome {
    engine.monitor.record(EngineEvent::DeviationDetected {
        instance: d.instance(),
        node: d.node(),
        kind: d.key(),
    });
    let Ok(view) = SchemaView::capture(engine, d.instance()) else {
        return Outcome::Gone;
    };
    let mut any_plan = false;
    for policy in policies {
        let Some(plan) = policy.plan(d, &view) else {
            continue;
        };
        any_plan = true;
        match execute_plan(engine, &view, &plan) {
            PlanResult::Committed { seq, retry_at } => {
                engine.monitor.record(EngineEvent::AdaptationCommitted {
                    instance: d.instance(),
                    plan: plan.to_string(),
                    deviation: d.key(),
                    seq,
                });
                return Outcome::Committed { retry_at };
            }
            PlanResult::Escalated { seq } => {
                match seq {
                    Some(seq) => engine.monitor.record(EngineEvent::AdaptationCommitted {
                        instance: d.instance(),
                        plan: plan.to_string(),
                        deviation: d.key(),
                        seq,
                    }),
                    None => engine.monitor.record(EngineEvent::AdaptationRejected {
                        instance: d.instance(),
                        plan: plan.to_string(),
                        deviation: d.key(),
                        reason: "unrecoverable: escalated to worklist".into(),
                    }),
                };
                return Outcome::Escalated { seq };
            }
            PlanResult::Rejected(reason) => {
                engine.monitor.record(EngineEvent::AdaptationRejected {
                    instance: d.instance(),
                    plan: plan.to_string(),
                    deviation: d.key(),
                    reason,
                });
                // Fall through to the next policy.
            }
            PlanResult::Contested(reason) => return Outcome::Contested { reason },
            PlanResult::Gone => return Outcome::Gone,
        }
    }
    if !any_plan {
        engine.monitor.record(EngineEvent::AdaptationRejected {
            instance: d.instance(),
            plan: "-".into(),
            deviation: d.key(),
            reason: "no policy produced a plan".into(),
        });
    }
    Outcome::AllRejected
}

/// Executes one plan. Structural plans go through a staged change
/// transaction and commit only after a passing preview; command plans go
/// through the ordinary submit path (whose own state preconditions gate
/// them).
fn execute_plan(engine: &ProcessEngine, view: &SchemaView, plan: &RecoveryPlan) -> PlanResult {
    match plan {
        RecoveryPlan::SkipActivity { node } => {
            run_txn(engine, view.instance, &[skip_activity(*node)]).map_committed(None)
        }
        RecoveryPlan::InsertCompensation {
            failed,
            compensation,
            skip_failed,
        } => {
            let Some(insert) = compensation_for(&view.schema, *failed, compensation.as_str())
            else {
                return PlanResult::Rejected("no insertion point for compensation".into());
            };
            let mut ops = vec![insert];
            if *skip_failed {
                ops.push(skip_activity(*failed));
            }
            run_txn(engine, view.instance, &ops).map_committed(None)
        }
        RecoveryPlan::RetryWithBackoff {
            node,
            delay_ticks,
            attempt,
        } => {
            let note = format!("retry #{attempt} after backoff of {delay_ticks} ticks");
            let Some(op) = annotate_activity(&view.schema, *node, |a| {
                a.description = Some(note.into());
            }) else {
                return PlanResult::Rejected("activity vanished before retry".into());
            };
            run_txn(engine, view.instance, &[op]).map_committed(Some((*delay_ticks, *node)))
        }
        RecoveryPlan::JumpBack { loop_end, iterate } => {
            match engine.submit(EngineCommand::DecideLoop {
                instance: view.instance,
                loop_end: *loop_end,
                iterate: *iterate,
            }) {
                Ok(_) => PlanResult::Committed {
                    seq: 0,
                    retry_at: None,
                },
                Err(e) => classify(&e),
            }
        }
        RecoveryPlan::Cancel { node } => {
            match engine.submit(EngineCommand::FailActivity {
                instance: view.instance,
                node: *node,
                reason: "deadline breached".into(),
            }) {
                Ok(_) => PlanResult::Committed {
                    seq: 0,
                    retry_at: None,
                },
                Err(e) => classify(&e),
            }
        }
        RecoveryPlan::Escalate { node, role } => match node {
            Some(n) => {
                let role = role.clone();
                let Some(op) = annotate_activity(&view.schema, *n, move |a| {
                    a.role = Some(role.into());
                }) else {
                    return PlanResult::Escalated { seq: None };
                };
                match run_txn(engine, view.instance, &[op]) {
                    TxnResult::Committed { seq } => PlanResult::Escalated { seq: Some(seq) },
                    TxnResult::Rejected(_) | TxnResult::Gone => PlanResult::Escalated { seq: None },
                    TxnResult::Contested(reason) => PlanResult::Contested(reason),
                }
            }
            None => PlanResult::Escalated { seq: None },
        },
    }
}

/// Result of one staged change transaction.
enum TxnResult {
    Committed { seq: u64 },
    Rejected(String),
    Contested(String),
    Gone,
}

impl TxnResult {
    /// Lifts a transaction result into a plan result, attaching the
    /// retry schedule on commit.
    fn map_committed(self, retry_at: Option<(u64, NodeId)>) -> PlanResult {
        match self {
            TxnResult::Committed { seq } => PlanResult::Committed { seq, retry_at },
            TxnResult::Rejected(r) => PlanResult::Rejected(r),
            TxnResult::Contested(r) => PlanResult::Contested(r),
            TxnResult::Gone => PlanResult::Gone,
        }
    }
}

/// Stages `ops` in a change session, previews, and commits only a
/// passing verdict — the preview gate every structural recovery must
/// clear.
fn run_txn(engine: &ProcessEngine, id: InstanceId, ops: &[ChangeOp]) -> TxnResult {
    let mut session = match engine.begin_change(id) {
        Ok(s) => s,
        Err(e) => return classify_txn(&e),
    };
    for op in ops {
        if let Err(e) = session.stage(op) {
            let r = classify_txn(&e);
            session.abort();
            return r;
        }
    }
    match session.preview() {
        Ok(p) if p.is_committable() => {}
        Ok(p) => {
            let reason = match &p.compliance {
                Some(Verdict::NotCompliant(c)) => format!("not compliant: {c}"),
                _ => "preview: verification failed".to_string(),
            };
            session.abort();
            return TxnResult::Rejected(reason);
        }
        Err(e) => {
            let r = classify_txn(&e);
            session.abort();
            return r;
        }
    }
    match session.commit() {
        Ok(receipt) => TxnResult::Committed { seq: receipt.seq },
        Err(e) => classify_txn(&e),
    }
}

/// Sorts an engine error into retry-later / give-up / try-next-policy.
fn classify_txn(e: &EngineError) -> TxnResult {
    match e.failure_kind() {
        FailureKind::ConcurrentChange => TxnResult::Contested(e.to_string()),
        FailureKind::Unresolvable => TxnResult::Gone,
        _ => TxnResult::Rejected(e.to_string()),
    }
}

/// [`classify_txn`] lifted to command-level plans.
fn classify(e: &EngineError) -> PlanResult {
    match classify_txn(e) {
        TxnResult::Committed { seq } => PlanResult::Committed {
            seq,
            retry_at: None,
        },
        TxnResult::Rejected(r) => PlanResult::Rejected(r),
        TxnResult::Contested(r) => PlanResult::Contested(r),
        TxnResult::Gone => PlanResult::Gone,
    }
}

/// The instance an event belongs to, for the per-instance silence clock.
/// Adaptation-trail events are deliberately excluded — the loop's own
/// monitor records must not mask an instance's stuckness.
fn event_instance(event: &EngineEvent) -> Option<InstanceId> {
    match event {
        EngineEvent::InstanceCreated { instance, .. }
        | EngineEvent::ActivityStarted { instance, .. }
        | EngineEvent::ActivityCompleted { instance, .. }
        | EngineEvent::ActivityFailed { instance, .. }
        | EngineEvent::DecisionMade { instance, .. }
        | EngineEvent::WorklistResolutionFailed { instance, .. }
        | EngineEvent::AdHocChanged { instance, .. }
        | EngineEvent::AdHocRejected { instance, .. }
        | EngineEvent::Migrated { instance, .. }
        | EngineEvent::MigrationRejected { instance, .. }
        | EngineEvent::InstanceFinished { instance }
        | EngineEvent::InstanceRemoved { instance } => Some(*instance),
        _ => None,
    }
}
