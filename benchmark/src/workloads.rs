//! One repetition of a workload: set-up, the timed main section, the probe
//! phases, checkpoint, crash and restart — with every output checked.
//!
//! All four workloads share the phases below and differ in the mix. A phase
//! a workload runs as part of its main section is *native* there; the other
//! workloads measure it afterwards on a few fresh *probe* instances, so every
//! end-to-end metric exists on every workload without diluting what the
//! workload is about (README.md has the native/probe table).

use crate::calib::{Host, Mark, Timed};
use crate::plan::{Plan, StreamHash, Workload};
use crate::sut::{ChangeOutcome, Sut};
use crate::trace::{SpanId, Tracer};
use adept_core::ChangeOp;
use adept_engine::{CommandOutcome, EngineCommand, EngineEvent, RecoveryReport};
use adept_model::{InstanceId, NodeId, Value, ValueType};
use adept_simgen::RandomDriver;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Calls attempted, calls that failed or gave a wrong output.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// Counts one call; a failed one is noted and yields `None`.
    fn call<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// A count over the time it took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rate {
    pub count: u64,
    /// Seconds at nominal host speed (`calib`): what the metrics use.
    pub secs: f64,
    /// CPU seconds as measured: what the layer rows, themselves raw, use.
    pub raw_secs: f64,
}

impl Rate {
    pub fn per_s(self) -> f64 {
        self.count as f64 / self.secs
    }

    fn add(&mut self, count: u64, took: Timed) {
        self.count += count;
        self.secs += took.secs();
        self.raw_secs += took.raw_s;
    }
}

/// Inputs of the layer replay, kept by a traced repetition only.
#[derive(Debug, Default)]
pub struct Captured {
    /// The journal lines of the main section, segment after segment.
    pub wal_lines: Vec<String>,
    /// The events each command outcome of the main section reported.
    pub outcome_events: Vec<Vec<EngineEvent>>,
    /// The checkpoint the repetition wrote.
    pub checkpoint_json: String,
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Every time below is CPU time of the client thread (`clock`) scaled to
    /// nominal host speed (`calib`), unless it says raw.
    pub setup_s: f64,
    /// The main section, its closing sync included.
    pub main_s: f64,
    /// The main section in CPU seconds as measured, for the layer shares.
    pub main_raw_s: f64,
    /// Mean host speed over the main section, 1 being nominal.
    pub host_speed: f64,
    /// Wall time of the closing sync: the wait for the sandbox's disk, which
    /// CPU time leaves out.
    pub sync_s: f64,
    /// Instances of the main population.
    pub population: u64,
    /// Instances the main section carried (what `instances_per_s` counts).
    pub instances: u64,
    /// Activities completed in the main section.
    pub steps: u64,
    pub create_us: Vec<f32>,
    /// One `Drive` (or, on `interactive_mixed`, one `Start`/`Complete`).
    pub command_us: Vec<f32>,
    pub change_us: Vec<f32>,
    pub poll_us: Vec<f32>,
    pub migrate: Rate,
    pub adapt: Rate,
    pub checkpoint: Rate,
    pub restart: Rate,
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    /// Resident-set growth while the population was built.
    pub rss_bytes: u64,
    pub tally: Tally,
    pub stream: StreamHash,
    // Counts the layer metrics are derived from.
    pub main_events: u64,
    /// Committed ad-hoc changes, committed repairs and instances offered to
    /// `migrate_all` within the main section (probe phases excluded).
    pub main_changes: u64,
    pub main_repairs: u64,
    pub main_migrations: u64,
    pub changes_refused: u64,
    pub migrate_total: u64,
    pub delta_items: u64,
    pub cursor_lag_max: u64,
    pub lag_errors: u64,
    pub role_read_us: Vec<f32>,
    pub full_read: Rate,
    pub deviations: u64,
    pub contested: u64,
    /// `materialized` right after a commit dropped the context, and again.
    pub ctx_miss_us: Vec<f32>,
    pub ctx_hit_us: Vec<f32>,
    pub recovery: Option<RecoveryReport>,
    /// Filled by a traced repetition only.
    pub captured: Captured,
}

/// How a repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// `--quick` sizes.
    pub quick: bool,
    /// Journal to files and run every phase. Off: the main section alone on
    /// an engine without a journal (`engine.command.nondurable_*`).
    pub durable: bool,
    /// Keep the inputs of the layer replay.
    pub capture: bool,
    /// Measure resident-set growth (first repetition of the process only).
    pub rss: bool,
}

fn us(d: Duration) -> f32 {
    d.as_secs_f32() * 1e6
}

fn resident_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// One live instance as the client knows it from the outcomes it received.
#[derive(Debug, Clone)]
struct Live {
    id: InstanceId,
    plan_idx: usize,
    enabled: Vec<NodeId>,
    finished: bool,
    removed: bool,
    /// The version the engine's reports put it on (types evolve once).
    version: u32,
}

struct Run<'a, 't> {
    plan: &'a Plan,
    host: &'a mut Host,
    sut: Sut<'t>,
    tracer: &'t Tracer,
    root: SpanId,
    type_names: Vec<String>,
    /// Newest version of each type.
    type_versions: Vec<u32>,
    live: Vec<Live>,
    rep: Rep,
    /// Keep the inputs of the layer replay (traced pass).
    capture: bool,
    /// Within the main section: only then do commands count into the steps,
    /// events and command samples (probe work must not dilute them).
    in_main: bool,
}

impl<'a, 't> Run<'a, 't> {
    fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self, SpanId) -> R) -> R {
        let id = self.tracer.begin(name, self.root);
        let out = f(self, id);
        self.tracer.end(id);
        out
    }

    fn note_outcome(&mut self, idx: usize, out: CommandOutcome) {
        let live = &mut self.live[idx];
        live.finished = out.finished;
        live.enabled = out.enabled;
        if self.in_main {
            self.rep.steps += out.completed as u64;
            self.rep.main_events += out.events.len() as u64;
            if self.capture {
                self.rep.captured.outcome_events.push(out.events);
            }
        }
    }

    fn survivors(&self) -> u64 {
        self.live.iter().filter(|l| !l.removed).count() as u64
    }

    /// Creates one instance of `type_idx`; returns its index in `live`.
    fn create(&mut self, ph: SpanId, plan_idx: usize, type_idx: usize) -> Option<usize> {
        let name = self.type_names[type_idx].clone();
        self.rep.stream.mix(type_idx as u64);
        self.host.tick();
        let t = Instant::now();
        let r = self.sut.create(ph, &name);
        if self.in_main {
            self.rep.create_us.push(us(t.elapsed()) * self.host.speed());
        }
        let out = self.rep.tally.call("create", r)?;
        // One client on a fresh engine: ids count up from 1, which is what
        // lets reports that name instances be matched to `live` by index.
        let idx = self.live.len();
        self.rep
            .tally
            .check(out.instance.raw() == idx as u64 + 1, || {
                format!("instance {} created as number {}", out.instance, idx + 1)
            });
        self.live.push(Live {
            id: out.instance,
            plan_idx,
            enabled: Vec::new(),
            finished: false,
            removed: false,
            version: self.type_versions[type_idx],
        });
        self.note_outcome(idx, out);
        Some(idx)
    }

    /// One `Drive`, with the default driver on the paper's types and the
    /// instance's seeded driver on generated ones.
    fn drive(&mut self, ph: SpanId, idx: usize, max: Option<usize>) {
        let id = self.live[idx].id;
        self.rep
            .stream
            .mix(id.raw() << 8 | max.map_or(0xff, |m| m as u64));
        let seeded = self.plan.workload == Workload::ChangeHeavy;
        self.host.tick();
        let t = Instant::now();
        let r = if seeded {
            // Same seed for the first and the finishing drive is fine: the
            // driver is only asked at decisions and outputs, which differ.
            let seed = self.plan.instances[self.live[idx].plan_idx].driver_seed
                ^ max.map_or(0, |m| m as u64);
            self.sut
                .drive_with(ph, id, max, &mut RandomDriver::new(seed))
        } else {
            self.sut.drive(ph, id, max)
        };
        if self.in_main {
            self.rep
                .command_us
                .push(us(t.elapsed()) * self.host.speed());
        }
        if let Some(out) = self.rep.tally.call("drive", r) {
            self.note_outcome(idx, out);
        }
    }

    /// Creates the main population, each instance followed by its first
    /// drive (`drive_first = false` leaves it at its start).
    fn populate(&mut self, drive_first: bool, measure_rss: bool) {
        let before = if measure_rss { resident_bytes() } else { 0 };
        self.phase("populate", |run, ph| {
            for plan_idx in 0..run.plan.instances.len() {
                let p = &run.plan.instances[plan_idx];
                let (type_idx, first) = (p.type_idx, p.first_drive);
                if let Some(idx) = run.create(ph, plan_idx, type_idx) {
                    if drive_first && first > 0 {
                        run.drive(ph, idx, Some(first));
                    }
                }
            }
        });
        if measure_rss {
            self.rep.rss_bytes = resident_bytes().saturating_sub(before);
        }
        self.rep.population = self.live.len() as u64;
        self.rep.instances = self.rep.population;
    }

    /// One ad-hoc change session on `idx`; `must_commit` makes a refusal a
    /// failure (the plan chose an operation every such instance accepts).
    fn change(&mut self, ph: SpanId, idx: usize, ops: &[ChangeOp], must_commit: bool) {
        let id = self.live[idx].id;
        self.rep.stream.mix(id.raw() ^ 0xc4a9_0000_0000);
        self.host.tick();
        let t = Instant::now();
        let r = self.sut.change(ph, id, ops);
        let took = us(t.elapsed()) * self.host.speed();
        match self.rep.tally.call("change", r) {
            Some(ChangeOutcome::Committed(receipt)) => {
                self.rep.change_us.push(took);
                self.rep.tally.check(receipt.ops == ops.len(), || {
                    format!(
                        "{id}: receipt counts {} ops, staged {}",
                        receipt.ops,
                        ops.len()
                    )
                });
            }
            Some(ChangeOutcome::Refused) => {
                self.rep.changes_refused += 1;
                if must_commit {
                    self.rep
                        .tally
                        .fail(|| format!("{id}: a change that must commit was refused"));
                }
            }
            None => {}
        }
    }

    /// The ad-hoc changes the plan assigns to the main population.
    fn planned_changes(&mut self, must_commit: bool) {
        self.phase("change", |run, ph| {
            for idx in 0..run.live.len() {
                let ops = &run.plan.instances[run.live[idx].plan_idx].change;
                if !ops.is_empty() {
                    run.change(ph, idx, ops, must_commit);
                }
            }
        });
    }

    /// Fails the current activity of each picked instance, then ticks the
    /// adaptation loop until two ticks in a row find nothing to do.
    fn fail_and_repair(&mut self, picks: &[usize]) {
        self.phase("adapt", |run, ph| {
            let mut looper = run.sut.adaptation_loop(64);
            let mut injected = 0u64;
            for &idx in picks {
                let (id, Some(&node)) = (run.live[idx].id, run.live[idx].enabled.first()) else {
                    continue;
                };
                run.rep.stream.mix(id.raw() ^ 0xfa11_0000_0000);
                run.host.tick();
                let start = run
                    .sut
                    .step(ph, EngineCommand::Start { instance: id, node });
                if run.rep.tally.call("start", start).is_none() {
                    continue;
                }
                let fail = run.sut.step(
                    ph,
                    EngineCommand::FailActivity {
                        instance: id,
                        node,
                        reason: "injected failure".into(),
                    },
                );
                if let Some(out) = run.rep.tally.call("fail", fail) {
                    run.live[idx].enabled = out.enabled;
                    injected += 1;
                }
            }
            let t = run.host.begin();
            let mut idle = 0;
            while idle < 2 {
                idle = if run.sut.adapt_tick(ph, &mut looper) == 0 {
                    idle + 1
                } else {
                    0
                };
                run.host.tick();
            }
            let took = run.host.end(t);
            let report = looper.report().clone();
            run.rep.adapt = Rate::default();
            run.rep.adapt.add(report.committed, took);
            run.rep.deviations = report.deviations - report.contested;
            run.rep.contested = report.contested;
            // Every injected failure is detected once and repaired: skipped,
            // or escalated by a committed role rewrite.
            run.rep.tally.check(
                report.committed == injected && report.rejected == 0 && report.resyncs == 0,
                || format!("adaptation: {injected} failures injected, report {report:?}"),
            );
            // A repair invalidates what the client knew about the instance.
            for &idx in picks {
                run.live[idx].enabled.clear();
            }
        });
    }

    /// Commits the planned evolution of one type and migrates its instances.
    /// Returns `(migrated, conflicts)`.
    fn evolve_and_migrate(&mut self, ph: SpanId, type_idx: usize) -> (u64, u64) {
        let name = self.type_names[type_idx].clone();
        let ops = self.plan.types[type_idx].evolution.clone();
        self.rep.stream.mix(type_idx as u64 ^ 0xe701_0000_0000);
        let evolved = self.sut.evolve(ph, &name, &ops);
        let Some(version) = self.rep.tally.call("evolve", evolved) else {
            return (0, 0);
        };
        self.type_versions[type_idx] = version;
        let t = self.host.begin();
        let r = self.sut.migrate_all(ph, &name);
        let took = self.host.end(t);
        let Some(report) = self.rep.tally.call("migrate_all", r) else {
            return (0, 0);
        };
        self.rep.migrate.add(report.migrated() as u64, took);
        self.rep.migrate_total += report.total() as u64;
        self.rep.tally.check(report.vanished() == 0, || {
            format!(
                "{name}: {} instances vanished during migration",
                report.vanished()
            )
        });
        let mut ctx_probes = if self.capture { 128 } else { 0 };
        for o in report.outcomes.iter().filter(|o| o.verdict.is_compliant()) {
            if let Some(l) = self.live.get_mut(o.instance.raw() as usize - 1) {
                l.version = version;
            }
            // Traced pass only: migration dropped the instance's execution
            // context, so the first resolution rebuilds it and the second
            // finds it cached.
            if ctx_probes > 0 {
                ctx_probes -= 1;
                for warm in [false, true] {
                    let t = Instant::now();
                    let r = self.sut.materialized(ph, o.instance);
                    let took = us(t.elapsed());
                    if self.rep.tally.call("materialized", r).is_some() {
                        if warm {
                            &mut self.rep.ctx_hit_us
                        } else {
                            &mut self.rep.ctx_miss_us
                        }
                        .push(took);
                    }
                }
            }
        }
        (report.migrated() as u64, report.failed() as u64)
    }

    /// One full worklist read, checked against the enabled sets the command
    /// outcomes reported.
    fn full_worklist(&mut self, ph: SpanId) {
        let expected: usize = self
            .live
            .iter()
            .filter(|l| !l.removed)
            .map(|l| l.enabled.len())
            .sum();
        let t = self.host.begin();
        let items = self.sut.worklist(ph);
        let took = self.host.end(t);
        self.rep.full_read.add(self.survivors(), took);
        self.rep.tally.check(items.len() == expected, || {
            format!(
                "worklist has {} items, outcomes enabled {expected}",
                items.len()
            )
        });
    }

    fn finish_all(&mut self) {
        self.phase("finish", |run, ph| {
            for idx in 0..run.live.len() {
                if run.live[idx].removed || run.live[idx].finished {
                    continue;
                }
                run.drive(ph, idx, None);
                let l = &run.live[idx];
                let (id, finished) = (l.id, l.finished);
                run.rep
                    .tally
                    .check(finished, || format!("{id}: the final drive did not finish"));
            }
        });
    }

    /// Closes the main section: journal on stable storage, bytes counted.
    fn close_main(&mut self, started: Mark, excluded: Timed) {
        let t = Instant::now();
        let r = self.phase("sync", |run, ph| run.sut.sync(ph));
        self.rep.tally.call("sync", r);
        self.rep.sync_s = t.elapsed().as_secs_f64();
        let main = self.host.end(started);
        self.rep.main_s = main.secs() - excluded.secs();
        self.rep.main_raw_s = main.raw_s - excluded.raw_s;
        self.rep.host_speed = main.speed;
        self.rep.main_changes = self.rep.change_us.len() as u64;
        self.rep.main_repairs = self.rep.adapt.count;
        self.rep.main_migrations = self.rep.migrate_total;
        self.in_main = false;
    }

    /// Creates `n` probe instances of the newest version of type 0, each
    /// driven one activity in; returns their indices in `live`.
    fn probe_instances(&mut self, ph: SpanId, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            if let Some(idx) = self.create(ph, 0, 0) {
                self.drive(ph, idx, Some(1));
                out.push(idx);
            }
        }
        out
    }

    /// The probe phases: what the workload did not run natively.
    fn probes(&mut self) {
        let sizes = self.plan.sizes;
        if sizes.probe_changes > 0 {
            let picks = self.phase("probe_create", |run, ph| {
                run.probe_instances(ph, sizes.probe_changes)
            });
            let op = [self.plan.types[0].tail_insert.clone()];
            self.phase("change", |run, ph| {
                for &idx in &picks {
                    run.change(ph, idx, &op, true);
                }
            });
        }
        if sizes.probe_failures > 0 {
            let picks = self.phase("probe_create", |run, ph| {
                run.probe_instances(ph, sizes.probe_failures)
            });
            self.fail_and_repair(&picks);
        }
        if sizes.probe_polls > 0 {
            self.poll_probe(sizes.probe_polls);
        }
    }

    /// A worklist client beside a writer, single-threaded: between two polls
    /// one instance is created and driven one activity in, so every delta
    /// and every event batch carries real changes.
    fn poll_probe(&mut self, polls: usize) {
        self.phase("poll", |run, ph| {
            let mut cursor = run.sut.subscribe();
            let mut epoch = run.sut.worklist_delta(ph, 0).epoch;
            for _ in 0..polls {
                if let Some(idx) = run.create(ph, 0, 0) {
                    run.drive(ph, idx, Some(1));
                }
                epoch = poll_once(&run.sut, run.host, ph, epoch, &mut cursor, &mut run.rep);
            }
            let role = run.plan.types[0]
                .schema
                .activities()
                .find_map(|n| n.attrs.role.clone())
                .unwrap_or_else(|| "supervisor".into());
            let t = Instant::now();
            let items = run.sut.worklist_for(ph, &role);
            run.rep.role_read_us.push(us(t.elapsed()));
            std::hint::black_box(items);
        });
    }

    /// Checkpoint: snapshot encoded and written, journal truncated.
    fn checkpoint(&mut self) -> Timed {
        let t = self.host.begin();
        let r = self.phase("checkpoint", |run, ph| {
            let host = &mut *run.host;
            run.sut.checkpoint(ph, &mut || host.chunk())
        });
        let took = self.host.end(t);
        if let Some(bytes) = self.rep.tally.call("checkpoint", r) {
            self.rep.snapshot_bytes = bytes;
            self.rep.checkpoint = Rate::default();
            self.rep.checkpoint.add(self.survivors(), took);
        }
        if self.capture {
            if let Ok(json) = std::fs::read_to_string(self.sut.checkpoint_path()) {
                self.rep.captured.checkpoint_json = json;
            }
        }
        took
    }

    /// Reads the journal of the main section before a checkpoint truncates it.
    fn capture_journal(&mut self) {
        self.rep.wal_bytes = self.sut.wal_bytes();
        if self.capture {
            self.rep.captured.wal_lines = crate::sut::segment_paths(self.sut.dir())
                .iter()
                .filter_map(|p| std::fs::read_to_string(p).ok())
                .flat_map(|s| s.lines().map(str::to_string).collect::<Vec<_>>())
                .collect();
        }
    }

    /// Crash and restart: the engine is dropped without a handshake, the
    /// checkpoint is read back and the journal tail recovered on top of it,
    /// and the first full worklist is served. The restarted engine's snapshot
    /// must be byte-identical to the one taken just before the crash.
    fn crash_and_restart(mut self) -> Rep {
        let r = self.phase("sync", |run, ph| run.sut.sync(ph));
        self.rep.tally.call("sync", r);
        let before = self.phase("check_snapshot", |run, ph| run.sut.snapshot_json(ph));
        let before = self.rep.tally.call("snapshot", before);
        if let Some((snap, _)) = &before {
            // What the engine stores against what its reports said: every
            // surviving instance, on the version migration put it on.
            let survivors = self.survivors();
            let versions_agree = snap.instances.len() as u64 == survivors
                && snap.instances.iter().all(|rec| {
                    self.live
                        .get(rec.id.raw() as usize - 1)
                        .is_some_and(|l| !l.removed && l.version == rec.version)
                });
            self.rep.tally.check(versions_agree, || {
                format!(
                    "snapshot holds {} instances, {survivors} expected, or a version differs",
                    snap.instances.len()
                )
            });
        }
        let survivors = self.survivors();
        let items_before = self.phase("check_worklist", |run, ph| run.sut.worklist(ph).len());
        let audit_may_flag = self.plan.workload == Workload::ChangeHeavy;
        let Run {
            sut,
            host,
            tracer,
            root,
            mut rep,
            ..
        } = self;
        let dir = sut.dir().to_path_buf();
        drop(sut);

        let ph = tracer.begin("restart", root);
        let t = host.begin();
        let restarted = Sut::read_checkpoint(&dir, tracer, ph).and_then(|snapshot| {
            host.chunk();
            Sut::recover(&dir, &snapshot, tracer, ph)
        });
        let restarted = rep.tally.call("restart", restarted).map(|(sut, report)| {
            // The first full read after a restart finds nothing cached.
            let read = host.begin();
            let items = sut.worklist(ph);
            rep.full_read.add(survivors, host.end(read));
            (sut, report, items.len())
        });
        let took = host.end(t);
        tracer.end(ph);
        let Some((sut, report, items_after)) = restarted else {
            return rep;
        };
        rep.restart.add(survivors, took);
        // The history audit replays the full history on the current schema,
        // which fails for a history that predates a structural change inside
        // a loop or an inserted branch. `change_heavy` has both, so there
        // the flags are reported (`engine.recovery.divergent`), not failed;
        // the byte-identical snapshot below is the recovery check. On the
        // other workloads any flag is a failure.
        rep.tally.check(
            (audit_may_flag || report.divergent.is_empty()) && report.tail_dropped == 0,
            || format!("recovery diverged: {report:?}"),
        );
        rep.tally.check(items_after == items_before, || {
            format!(
                "worklist after restart has {items_after} items, before the crash {items_before}"
            )
        });
        let ph = tracer.begin("check_snapshot", root);
        let after = rep.tally.call("snapshot", sut.snapshot_json(ph));
        tracer.end(ph);
        let same = matches!((&before, &after), (Some((_, b)), Some((_, a))) if a == b);
        rep.tally.check(same, || {
            "the restarted engine's snapshot differs from the pre-crash one".into()
        });
        rep.recovery = Some(report);
        rep
    }
}

/// One timed `worklist_delta` poll plus one event-cursor poll (shared by the
/// probe and the reader thread of `interactive_mixed`).
fn poll_once(
    sut: &Sut<'_>,
    host: &mut Host,
    ph: SpanId,
    epoch: u64,
    cursor: &mut adept_engine::EventCursor,
    rep: &mut Rep,
) -> u64 {
    host.tick();
    let t = Instant::now();
    let delta = sut.worklist_delta(ph, epoch);
    rep.poll_us.push(us(t.elapsed()) * host.speed());
    rep.delta_items += delta
        .added
        .iter()
        .map(|(_, items)| items.len() as u64)
        .sum::<u64>();
    rep.tally.attempted += 1;
    match sut.poll_events(ph, cursor) {
        Ok(events) => rep.cursor_lag_max = rep.cursor_lag_max.max(events.len() as u64),
        // The cursor fell out of the retention window: resynced and counted.
        Err(skipped) => {
            rep.lag_errors += 1;
            rep.cursor_lag_max = rep.cursor_lag_max.max(skipped);
        }
    }
    delta.epoch
}

/// Runs one repetition of a workload in `dir` (created here; must not exist).
/// Returns the inputs it generated from the seed and what it measured.
pub fn run(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    host: &mut Host,
    mode: Mode,
) -> (Plan, Rep) {
    let root = tracer.begin("repetition", crate::trace::ROOT);
    let setup = Setup {
        root,
        started: host.begin(),
        span: tracer.begin("setup", root),
    };
    let plan = crate::plan::plan(workload, seed, mode.quick);
    let rep = run_planned(&plan, dir, tracer, host, mode, setup);
    tracer.end(root);
    (plan, rep)
}

/// Set-up begins before the inputs are generated: where it began.
struct Setup {
    root: SpanId,
    span: SpanId,
    started: Mark,
}

fn run_planned(
    plan: &Plan,
    dir: &Path,
    tracer: &Tracer,
    host: &mut Host,
    mode: Mode,
    setup: Setup,
) -> Rep {
    let Setup {
        root,
        span: ph,
        started: setup_started,
    } = setup;
    let mut rep = Rep {
        stream: plan.input_hash,
        ..Rep::default()
    };
    let opened = std::fs::create_dir_all(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| Sut::open(dir, mode.durable, tracer, ph).map_err(|e| e.to_string()));
    let Some(sut) = rep.tally.call("open", opened) else {
        return rep;
    };
    let mut run = Run {
        plan,
        host,
        sut,
        tracer,
        root,
        type_names: Vec::new(),
        type_versions: vec![1; plan.types.len()],
        live: Vec::with_capacity(plan.instances.len() + 4096),
        rep,
        capture: mode.capture,
        in_main: false,
    };
    for t in &plan.types {
        let deployed = run.sut.deploy(ph, t.schema.clone());
        match run.rep.tally.call("deploy", deployed) {
            Some(name) => run.type_names.push(name),
            None => return run.rep,
        }
    }
    tracer.end(ph);
    if plan.workload == Workload::InteractiveMixed {
        // The resident population is part of this workload's set-up.
        run.populate(false, mode.rss);
    }
    run.rep.setup_s = run.host.end(setup_started).secs();
    run.in_main = true;

    let started = run.host.begin();
    let mut excluded = Timed::default();
    match plan.workload {
        Workload::Lifecycle => {
            run.populate(true, mode.rss);
            run.phase("migrate", |run, ph| {
                let (migrated, _) = run.evolve_and_migrate(ph, 0);
                // Fig. 1: ΔT's sync edge cannot be added once its target,
                // the third activity in line, has been started.
                let expected = plan
                    .instances
                    .iter()
                    .filter(|p| p.first_drive < ORDER_LATE_PROGRESS)
                    .count() as u64;
                run.rep.tally.check(migrated == expected, || {
                    format!("lifecycle: {migrated} instances migrated, {expected} expected")
                });
                // One to three activities in, every instance offers exactly
                // one: `collect data`, or `compose order` — `confirm order`
                // was completed by the third drive, and on a migrated
                // instance it now waits for `send questions`.
                for l in &mut run.live {
                    l.enabled.truncate(1);
                }
                run.full_worklist(ph);
            });
            run.finish_all();
        }
        Workload::ChangeHeavy => {
            run.populate(true, mode.rss);
            run.planned_changes(false);
            let failing: Vec<usize> = (0..run.live.len())
                .filter(|&i| plan.instances[run.live[i].plan_idx].fail)
                .collect();
            run.fail_and_repair(&failing);
            run.phase("migrate", |run, ph| {
                for type_idx in 0..plan.types.len() {
                    run.evolve_and_migrate(ph, type_idx);
                }
                // Migration may change what an instance offers, and even
                // hand a finished instance the inserted activity.
                for l in &mut run.live {
                    l.enabled.clear();
                    l.finished = false;
                }
            });
            run.finish_all();
            run.phase("worklist", |run, ph| run.full_worklist(ph));
        }
        Workload::InteractiveMixed => interactive_main(&mut run),
        Workload::Recovery => {
            run.populate(true, mode.rss);
            run.planned_changes(true);
            run.phase("migrate", |run, ph| {
                let (migrated, conflicts) = run.evolve_and_migrate(ph, 0);
                // Fig. 1: the I2 bias closes a cycle with ΔT, and ΔT's sync
                // edge cannot be added once its target has been started.
                let stay: u64 = run
                    .live
                    .iter()
                    .map(|l| &plan.instances[l.plan_idx])
                    .filter(|p| !p.change.is_empty() || p.first_drive >= ORDER_LATE_PROGRESS)
                    .count() as u64;
                run.rep.tally.check(
                    conflicts == stay && migrated + conflicts == run.live.len() as u64,
                    || format!("recovery: {migrated} migrated, {conflicts} conflicts, {stay} expected to stay"),
                );
                for l in &mut run.live {
                    l.enabled.clear();
                }
            });
            if mode.durable {
                run.capture_journal();
                excluded = run.checkpoint();
            }
            run.phase("work", |run, ph| {
                for idx in 0..run.live.len() {
                    if !run.live[idx].finished {
                        run.drive(ph, idx, Some(1));
                    }
                }
            });
            run.phase("remove", |run, ph| {
                for idx in 0..run.live.len() {
                    if plan.instances[run.live[idx].plan_idx].remove {
                        let id = run.live[idx].id;
                        run.rep.stream.mix(id.raw() ^ 0xde1e_0000_0000);
                        run.host.tick();
                        let r = run.sut.remove(ph, id);
                        if run.rep.tally.call("remove", r).is_some() {
                            run.live[idx].removed = true;
                        }
                    }
                }
            });
        }
    }
    run.close_main(started, excluded);
    if !mode.durable {
        return run.rep;
    }
    if plan.workload == Workload::Recovery {
        // Tail bytes add to what the checkpoint truncated.
        run.rep.wal_bytes += run.sut.wal_bytes();
    } else {
        run.capture_journal();
        run.checkpoint();
    }
    run.probes();
    if plan.workload == Workload::InteractiveMixed {
        run.phase("migrate", |run, ph| {
            let (migrated, _) = run.evolve_and_migrate(ph, 0);
            let expected = run.live.len() as u64;
            run.rep.tally.check(migrated == expected, || {
                format!("interactive_mixed: {migrated} of {expected} instances migrated")
            });
        });
    }
    run.crash_and_restart()
}

/// Order process: activities completed from which ΔT no longer applies.
const ORDER_LATE_PROGRESS: usize = 3;

/// The main section of `interactive_mixed`: a worker submitting single
/// `Start` then `Complete` verbs round-robin over the resident population,
/// beside a reader polling the worklist delta and the event cursor every
/// millisecond and the physician's worklist every 250 ms.
fn interactive_main(run: &mut Run<'_, '_>) {
    let plan = run.plan;
    let writes = &plan.types[0].writes;
    let done = AtomicBool::new(false);
    let ph_worker = run.tracer.begin("steps", run.root);
    let ph_reader = run.tracer.begin("reader", run.root);
    let sut = &run.sut;
    let host = &mut *run.host;
    let live = &mut run.live;
    let rep = &mut run.rep;
    let mut reader_rep = Rep::default();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // The reader runs on another core: its own meter scales its polls.
            let mut host = Host::new();
            let mut cursor = sut.subscribe();
            let mut epoch = 0;
            let mut last_role_read = Instant::now();
            while !done.load(Ordering::Acquire) {
                epoch = poll_once(
                    sut,
                    &mut host,
                    ph_reader,
                    epoch,
                    &mut cursor,
                    &mut reader_rep,
                );
                if last_role_read.elapsed() >= Duration::from_millis(250) {
                    last_role_read = Instant::now();
                    let items = sut.worklist_for(ph_reader, "physician");
                    reader_rep.role_read_us.push(us(last_role_read.elapsed()));
                    std::hint::black_box(items);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut step = 0u64;
        let mut k = 0usize;
        // Round-robin; an instance with nothing to offer is passed over.
        while (step as usize) < plan.sizes.steps && k < plan.sizes.steps * 4 {
            let idx = k % live.len();
            k += 1;
            let Some(&node) = live[idx].enabled.first() else {
                continue;
            };
            let id = live[idx].id;
            rep.stream.mix(id.raw() << 16 | u64::from(node.0));
            host.tick();
            let t = Instant::now();
            let started = sut.step(ph_worker, EngineCommand::Start { instance: id, node });
            rep.command_us.push(us(t.elapsed()) * host.speed());
            let Some(out) = rep.tally.call("start", started) else {
                live[idx].enabled.clear();
                continue;
            };
            rep.main_events += out.events.len() as u64;
            let seed = plan.instances[live[idx].plan_idx]
                .driver_seed
                .wrapping_add(step);
            let values = writes
                .get(&node)
                .map(|outs| {
                    outs.iter()
                        .map(|&(d, ty)| (d, value_of(ty, seed)))
                        .collect()
                })
                .unwrap_or_default();
            let t = Instant::now();
            let completed = sut.step(
                ph_worker,
                EngineCommand::Complete {
                    instance: id,
                    node,
                    writes: values,
                },
            );
            rep.command_us.push(us(t.elapsed()) * host.speed());
            if let Some(out) = rep.tally.call("complete", completed) {
                rep.steps += out.completed as u64;
                rep.main_events += out.events.len() as u64;
                live[idx].finished = out.finished;
                live[idx].enabled = out.enabled;
                step += 1;
            }
        }
        done.store(true, Ordering::Release);
        reader.join().expect("the reader thread does not panic");
    });
    run.tracer.end(ph_worker);
    run.tracer.end(ph_reader);
    run.rep.instances = run.plan.sizes.steps.min(run.live.len()) as u64;
    run.rep.poll_us = reader_rep.poll_us;
    run.rep.delta_items = reader_rep.delta_items;
    run.rep.cursor_lag_max = reader_rep.cursor_lag_max;
    run.rep.lag_errors = reader_rep.lag_errors;
    run.rep.role_read_us = reader_rep.role_read_us;
    run.rep.tally.absorb(reader_rep.tally);
    run.phase("worklist", |run, ph| run.full_worklist(ph));
}

/// A seeded value of a declared output type.
pub fn value_of(ty: ValueType, seed: u64) -> Value {
    // The id hash is a splitmix64 finaliser: neighbouring seeds give
    // unrelated values.
    let z = InstanceId(seed).hash64();
    match ty {
        ValueType::Bool => Value::Bool(z & 1 == 1),
        ValueType::Int => Value::Int((z % 10) as i64),
        ValueType::Float => Value::Float((z % 1000) as f64 / 10.0),
        ValueType::Str => Value::Str(format!("v{}", z % 100)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WORKLOADS;

    fn quick_rep(workload: Workload, seed: u64, tag: &str) -> Rep {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "test-{}-{}-{tag}",
                std::process::id(),
                workload.name()
            ));
        let _ = std::fs::remove_dir_all(&dir);
        let mode = Mode {
            quick: true,
            durable: true,
            capture: false,
            rss: false,
        };
        let (_, rep) = run(
            workload,
            seed,
            &dir,
            &Tracer::new(false),
            &mut Host::new(),
            mode,
        );
        let _ = std::fs::remove_dir_all(&dir);
        rep
    }

    /// Same seed → identical command stream and journal size; another seed →
    /// another stream. Every check of the repetition passes on both.
    #[test]
    fn a_seed_determines_the_command_stream_and_the_journal() {
        for w in WORKLOADS {
            let a = quick_rep(w, 11, "a");
            let b = quick_rep(w, 11, "b");
            let c = quick_rep(w, 12, "c");
            for r in [&a, &b, &c] {
                assert_eq!(r.tally.failed, 0, "{}: {:?}", w.name(), r.tally.notes);
                assert!(r.tally.attempted > 0 && r.wal_bytes > 0 && r.snapshot_bytes > 0);
            }
            assert_eq!(a.stream, b.stream, "{}", w.name());
            assert_eq!(a.wal_bytes, b.wal_bytes, "{}", w.name());
            assert_eq!(a.snapshot_bytes, b.snapshot_bytes, "{}", w.name());
            assert_ne!(a.stream, c.stream, "{}", w.name());
        }
    }

    #[test]
    fn a_traced_repetition_captures_its_inputs_and_parents_its_spans() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-traced", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new(true);
        let mode = Mode {
            quick: true,
            durable: true,
            capture: true,
            rss: false,
        };
        let (_, rep) = run(Workload::Recovery, 3, &dir, &tracer, &mut Host::new(), mode);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rep.tally.failed, 0, "{:?}", rep.tally.notes);
        let captured = rep.captured;
        assert!(!captured.wal_lines.is_empty() && !captured.outcome_events.is_empty());
        assert!(captured.checkpoint_json.starts_with('{'));
        let spans = tracer.take();
        assert_eq!(spans[0].name, "repetition");
        // Every call span hangs under a phase, every phase under the repetition.
        for s in &spans[1..] {
            let parent = &spans[s.parent as usize];
            if s.name.contains('.') {
                assert!(
                    !parent.name.contains('.'),
                    "{} under {}",
                    s.name,
                    parent.name
                );
            } else {
                assert_eq!(parent.name, "repetition", "{}", s.name);
            }
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{}",
                s.name
            );
        }
    }
}
