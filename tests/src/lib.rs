//! Integration test crate for the ADEPT2 reproduction (tests live in
//! `tests/`). The helpers here are the idiomatic entry points the suite
//! drives the engine through: typed commands for execution and change
//! sessions for dynamic change.

use adept_core::ChangeOp;
use adept_engine::{CommandOutcome, EngineCommand, EngineError, ProcessEngine, TxnReceipt};
use adept_model::InstanceId;
use adept_state::Driver;

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
