//! Integration test crate for the ADEPT2 reproduction (tests live in
//! `tests/`). The helpers here are the idiomatic entry points the suite
//! drives the engine through: typed commands for execution and change
//! sessions for dynamic change. [`mod@reference`] holds the reference
//! interpreter the arena executor is compared against, [`worklist_full`]
//! the per-instance recompute the engine's worklist reads are compared
//! against.

pub mod reference;

use adept_core::ChangeOp;
use adept_engine::{
    CommandOutcome, EngineCommand, EngineError, ProcessEngine, TxnReceipt, WorkItem,
};
use adept_model::InstanceId;
use adept_state::{Driver, Event, InstanceState};
use adept_storage::{MemoryBackend, RawLog, StorageBackend, StorageError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A [`StorageBackend`] that refuses every append while it is armed — the
/// journal-failure injector. Clones share the medium and the switch, so a
/// test keeps one handle and gives the engine another.
#[derive(Debug, Clone, Default)]
pub struct ArmableBackend {
    medium: MemoryBackend,
    armed: Arc<AtomicBool>,
}

impl ArmableBackend {
    /// Makes appends fail (`true`) or reach the medium again (`false`).
    pub fn arm(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }
}

impl StorageBackend for ArmableBackend {
    fn append_line(&self, line: &str) -> Result<(), StorageError> {
        if self.armed.load(Ordering::SeqCst) {
            return Err(StorageError::Io {
                op: "append",
                detail: "injected journal failure".into(),
            });
        }
        self.medium.append_line(line)
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.medium.sync()
    }

    fn read_log(&self) -> Result<RawLog, StorageError> {
        self.medium.read_log()
    }

    fn reset(&self) -> Result<(), StorageError> {
        self.medium.reset()
    }
}

/// The worklist recomputed instance by instance through the public
/// in-context read, sharing nothing with the engine's scan of the store —
/// the oracle [`ProcessEngine::worklist`] and
/// [`ProcessEngine::worklist_delta`] are checked against. Unresolvable
/// instances offer nothing.
pub fn worklist_full(engine: &ProcessEngine) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for id in engine.store.ids() {
        let found = engine.store.with_context(&engine.repo, id, |inst, ctx| {
            let offered = ctx.exec().enabled(&inst.state).into_iter();
            offered
                .filter_map(|node| {
                    let n = ctx.schema.node(node).ok()?;
                    Some(WorkItem {
                        instance: id,
                        node,
                        activity: n.name.clone(),
                        role: n.attrs.role.clone(),
                        type_name: inst.type_name.as_str().into(),
                        version: inst.version,
                    })
                })
                .collect::<Vec<_>>()
        });
        items.extend(found.into_iter().flatten());
    }
    items
}

/// Whether `state`'s data context holds exactly what the writes of its
/// history's `Completed` events leave, folded here on their own: in order,
/// the last write of an element winning, a `Null` clearing it.
pub fn data_is_its_history(state: &InstanceState) -> bool {
    let mut folded = BTreeMap::new();
    for event in &state.history.events {
        if let Event::Completed { writes, .. } = event {
            for (d, v) in writes {
                if v.is_null() {
                    folded.remove(d);
                } else {
                    folded.insert(*d, v);
                }
            }
        }
    }
    state.data.values().eq(folded)
}

/// Whether every instance `engine` holds passes [`data_is_its_history`].
pub fn every_data_is_its_history(engine: &ProcessEngine) -> bool {
    let held = engine.snapshot().instances;
    held.iter().all(|rec| data_is_its_history(&rec.state))
}

/// Drives an instance through the command path with the default driver,
/// completing at most `max` activities. Returns the command outcome.
pub fn drive(
    engine: &ProcessEngine,
    id: InstanceId,
    max: Option<usize>,
) -> Result<CommandOutcome, EngineError> {
    engine.submit(EngineCommand::Drive { instance: id, max })
}

/// [`drive`] with a custom driver.
pub fn drive_with(
    engine: &ProcessEngine,
    id: InstanceId,
    driver: &mut dyn Driver,
    max: Option<usize>,
) -> Result<CommandOutcome, EngineError> {
    engine.submit_with_driver(EngineCommand::Drive { instance: id, max }, driver)
}

/// Applies a one-op ad-hoc change through a change session.
pub fn adhoc(
    engine: &ProcessEngine,
    id: InstanceId,
    op: &ChangeOp,
) -> Result<TxnReceipt, EngineError> {
    let mut session = engine.begin_change(id)?;
    session.stage(op)?;
    session.commit()
}

/// Evolves a type by one batch of operations through a change session,
/// returning the new version.
pub fn evolve(
    engine: &ProcessEngine,
    type_name: &str,
    ops: &[ChangeOp],
) -> Result<u32, EngineError> {
    let mut session = engine.begin_evolution(type_name)?;
    for op in ops {
        session.stage(op)?;
    }
    session
        .commit()
        .map(|r| r.new_version.expect("evolution commits produce a version"))
}
