//! The adapter to the system under test: every call the benchmark makes
//! into the engine goes through this file, under a span when tracing is on.
//!
//! Allow-list (see README.md): `with_segmented_wal` over
//! `FileBackend::segments`, `deploy`, `submit`/`submit_with_driver`,
//! `begin_change`/`begin_evolution` → `stage`/`preview`/`commit`,
//! `migrate_all`, `remove_instance`, `worklist`/`worklist_for`/
//! `worklist_delta`, `monitor.subscribe` + `EventCursor::poll`/`resync`,
//! `materialized`, `snapshot`/`checkpoint_with`, `to_json`/`from_json`,
//! `recover_from_segmented`, `wal().sync()`, `AdaptationLoop`. Nothing that
//! ROADMAP items 2–5 delete is used.

use crate::trace::{SpanId, Tracer};
use adept_adapt::{AdaptationConfig, AdaptationLoop, EscalateToWorklist, RetryThenSkip};
use adept_core::{ChangeOp, MigrationOptions, MigrationReport};
use adept_engine::{
    recover_from_segmented, CommandOutcome, EngineCommand, EngineError, EngineEvent, EventCursor,
    ProcessEngine, RecoveryReport, TxnReceipt, WorkItem, WorklistDelta,
};
use adept_model::{Blocks, InstanceId, ProcessSchema};
use adept_state::Driver;
use adept_storage::{
    from_json, to_json, FileBackend, Snapshot, StorageBackend, StorageError, SyncPolicy,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Journal segments of every engine the benchmark opens.
pub const WAL_SEGMENTS: usize = 4;
/// Flush policy of the timed runs: no `fsync` per append, one explicit
/// [`Sut::sync`] closing each timed section (README.md, "Flush policy").
pub const FLUSH_POLICY: SyncPolicy = SyncPolicy::Never;

pub type Result<T> = std::result::Result<T, EngineError>;

fn wal_base(dir: &Path) -> PathBuf {
    dir.join("engine.wal")
}

fn segments(dir: &Path) -> Vec<Box<dyn StorageBackend>> {
    FileBackend::segments(wal_base(dir), WAL_SEGMENTS, FLUSH_POLICY)
}

/// Paths of the journal segment files under `dir`.
pub fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    (0..WAL_SEGMENTS)
        .map(|i| {
            let mut p = wal_base(dir).into_os_string();
            p.push(format!(".seg{i:02}"));
            PathBuf::from(p)
        })
        .collect()
}

/// What one ad-hoc change session came to.
#[derive(Debug)]
pub enum ChangeOutcome {
    Committed(TxnReceipt),
    /// An operation did not stage, or the preview was not committable; the
    /// session was aborted and the instance is untouched.
    Refused,
}

/// An engine on a file-backed segmented journal under `dir`.
#[derive(Debug)]
pub struct Sut<'t> {
    engine: ProcessEngine,
    dir: PathBuf,
    tracer: &'t Tracer,
}

impl<'t> Sut<'t> {
    /// `durable = false` opens an engine without a journal instead: the
    /// baseline of `engine.command.nondurable_us_per_instance`.
    pub fn open(dir: &Path, durable: bool, tracer: &'t Tracer, phase: SpanId) -> Result<Self> {
        let engine = tracer.call("engine.open", phase, || {
            if durable {
                ProcessEngine::with_segmented_wal(segments(dir))
            } else {
                Ok(ProcessEngine::new())
            }
        })?;
        Ok(Self {
            engine,
            dir: dir.to_path_buf(),
            tracer,
        })
    }

    pub fn deploy(&self, phase: SpanId, schema: ProcessSchema) -> Result<String> {
        self.tracer
            .call("engine.deploy", phase, || self.engine.deploy(schema))
    }

    pub fn create(&self, phase: SpanId, type_name: &str) -> Result<CommandOutcome> {
        self.tracer.call("engine.submit.create", phase, || {
            self.engine.submit(EngineCommand::CreateInstance {
                type_name: type_name.to_string(),
            })
        })
    }

    /// `Drive` with the engine's default driver.
    pub fn drive(
        &self,
        phase: SpanId,
        instance: InstanceId,
        max: Option<usize>,
    ) -> Result<CommandOutcome> {
        self.tracer.call("engine.submit.drive", phase, || {
            self.engine.submit(EngineCommand::Drive { instance, max })
        })
    }

    /// `Drive` with a caller-supplied (seeded) driver.
    pub fn drive_with(
        &self,
        phase: SpanId,
        instance: InstanceId,
        max: Option<usize>,
        driver: &mut dyn Driver,
    ) -> Result<CommandOutcome> {
        self.tracer.call("engine.submit.drive", phase, || {
            self.engine
                .submit_with_driver(EngineCommand::Drive { instance, max }, driver)
        })
    }

    /// One discrete verb (`Start`, `Complete`, `FailActivity`).
    pub fn step(&self, phase: SpanId, cmd: EngineCommand) -> Result<CommandOutcome> {
        self.tracer
            .call("engine.submit.step", phase, || self.engine.submit(cmd))
    }

    /// One ad-hoc change session: begin → stage each op → preview → commit.
    pub fn change(&self, phase: SpanId, id: InstanceId, ops: &[ChangeOp]) -> Result<ChangeOutcome> {
        let t = self.tracer;
        let mut session = t.call("engine.session.begin", phase, || {
            self.engine.begin_change(id)
        })?;
        for op in ops {
            if t.call("engine.session.stage", phase, || session.stage(op))
                .is_err()
            {
                session.abort();
                return Ok(ChangeOutcome::Refused);
            }
        }
        let preview = t.call("engine.session.preview", phase, || session.preview())?;
        if !preview.is_committable() {
            session.abort();
            return Ok(ChangeOutcome::Refused);
        }
        t.call("engine.session.commit", phase, || session.commit())
            .map(ChangeOutcome::Committed)
    }

    /// One type evolution; returns the new version.
    pub fn evolve(&self, phase: SpanId, type_name: &str, ops: &[ChangeOp]) -> Result<u32> {
        self.tracer.call("engine.evolve", phase, || {
            let mut session = self.engine.begin_evolution(type_name)?;
            for op in ops {
                session.stage(op)?;
            }
            let receipt = session.commit()?;
            receipt
                .new_version
                .ok_or_else(|| EngineError::NotFound("evolution produced no version".into()))
        })
    }

    pub fn migrate_all(&self, phase: SpanId, type_name: &str) -> Result<MigrationReport> {
        self.tracer.call("engine.migrate_all", phase, || {
            self.engine
                .migrate_all(type_name, &MigrationOptions::default(), 1)
        })
    }

    pub fn remove(&self, phase: SpanId, id: InstanceId) -> Result<()> {
        self.tracer
            .call("engine.remove_instance", phase, || {
                self.engine.remove_instance(id)
            })
            .map(|_| ())
    }

    pub fn worklist(&self, phase: SpanId) -> Vec<WorkItem> {
        self.tracer
            .call("engine.worklist", phase, || self.engine.worklist())
    }

    pub fn worklist_for(&self, phase: SpanId, role: &str) -> Vec<WorkItem> {
        self.tracer.call("engine.worklist_for", phase, || {
            self.engine.worklist_for(role)
        })
    }

    pub fn worklist_delta(&self, phase: SpanId, since: u64) -> WorklistDelta {
        self.tracer.call("engine.worklist_delta", phase, || {
            self.engine.worklist_delta(since)
        })
    }

    pub fn subscribe(&self) -> EventCursor {
        self.engine.monitor.subscribe()
    }

    /// Drains the cursor. A cursor that fell out of the retention window is
    /// resynced; the events it lost are returned as `Err(skipped)`.
    pub fn poll_events(
        &self,
        phase: SpanId,
        cursor: &mut EventCursor,
    ) -> std::result::Result<Vec<(u64, EngineEvent)>, u64> {
        self.tracer.call("engine.monitor.poll", phase, || {
            cursor
                .poll(&self.engine.monitor)
                .map_err(|_| cursor.resync(&self.engine.monitor))
        })
    }

    pub fn materialized(
        &self,
        phase: SpanId,
        id: InstanceId,
    ) -> Result<(Arc<ProcessSchema>, Arc<Blocks>)> {
        self.tracer.call("engine.materialized", phase, || {
            self.engine.materialized(id)
        })
    }

    pub fn snapshot(&self, phase: SpanId) -> Snapshot {
        self.tracer
            .call("engine.snapshot", phase, || self.engine.snapshot())
    }

    /// The snapshot and `to_json` of it — the byte image two engines are
    /// compared by.
    pub fn snapshot_json(&self, phase: SpanId) -> Result<(Snapshot, String)> {
        let snap = self.snapshot(phase);
        let json = self
            .tracer
            .call("storage.persist.to_json", phase, || to_json(&snap))?;
        Ok((snap, json))
    }

    /// Checkpoints into `checkpoint_path`: the snapshot is encoded, written
    /// and synced (the journal it replaces is truncated right after), then
    /// the journal is truncated. Returns the bytes written. `between` runs
    /// between the steps the engine leaves to its caller — snapshot taken,
    /// encoded, written — for the host-speed meter (`calib`).
    pub fn checkpoint(&self, phase: SpanId, between: &mut dyn FnMut()) -> Result<u64> {
        use std::io::Write;
        let path = self.checkpoint_path();
        let mut written = 0u64;
        self.tracer.call("engine.checkpoint_with", phase, || {
            self.engine.checkpoint_with(|snap| {
                between();
                let json = to_json(snap)?;
                between();
                written = json.len() as u64;
                std::fs::File::create(&path)
                    .and_then(|mut f| {
                        f.write_all(json.as_bytes())?;
                        f.sync_all()
                    })
                    .map_err(|e| StorageError::io("write checkpoint", &e))
            })
        })?;
        Ok(written)
    }

    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.json")
    }

    /// Restart after a crash, first half: read and decode the checkpoint.
    pub fn read_checkpoint(dir: &Path, tracer: &Tracer, phase: SpanId) -> Result<Snapshot> {
        let path = dir.join("checkpoint.json");
        Ok(tracer.call("storage.persist.read_from_json", phase, || {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| StorageError::io("read checkpoint", &e))?;
            from_json(&json)
        })?)
    }

    /// Restart after a crash, second half: recover the journal tail on top
    /// of the checkpoint. The crashed engine must be dropped.
    pub fn recover(
        dir: &Path,
        snapshot: &Snapshot,
        tracer: &'t Tracer,
        phase: SpanId,
    ) -> Result<(Self, RecoveryReport)> {
        let (engine, report) = tracer.call("engine.recover_from_segmented", phase, || {
            recover_from_segmented(Some(snapshot), segments(dir))
        })?;
        let sut = Self {
            engine,
            dir: dir.to_path_buf(),
            tracer,
        };
        Ok((sut, report))
    }

    /// Forces the journal to stable storage; closes every timed section.
    pub fn sync(&self, phase: SpanId) -> Result<()> {
        Ok(self
            .tracer
            .call("storage.wal.sync", phase, || self.engine.wal().sync())?)
    }

    /// The adaptation loop of the benchmark: skip a failed activity at once
    /// when the schema allows, else escalate it. Subscribes at the tail of
    /// the event stream, so create it before injecting failures. Deadline
    /// and stuck-decision scans are pushed out of reach: the workloads leave
    /// no activity running and must not be repaired for waiting.
    pub fn adaptation_loop(&self, max_in_flight: usize) -> AdaptationLoop<'_> {
        let config = AdaptationConfig {
            threads: 1,
            max_in_flight,
            default_deadline: u64::MAX / 2,
            decision_deadline: u64::MAX / 2,
            ..AdaptationConfig::default()
        };
        AdaptationLoop::new(&self.engine, config)
            .with_policy(RetryThenSkip {
                max_retries: 0,
                base_delay: 1,
            })
            .with_policy(EscalateToWorklist::new("supervisor"))
    }

    pub fn adapt_tick(&self, phase: SpanId, looper: &mut AdaptationLoop<'_>) -> usize {
        self.tracer.call("adapt.tick", phase, || looper.tick())
    }

    /// Journal bytes on disk (segment file sizes; no engine call).
    pub fn wal_bytes(&self) -> u64 {
        segment_paths(&self.dir)
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}
