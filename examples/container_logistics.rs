//! Container transportation (paper reference \[3\], Bassil/Keller/Kropf):
//! parallel customs handling and vessel loading ordered by a sync edge; a
//! storm forces an ad-hoc re-route (insert "divert to alternate port"),
//! demonstrating correctness-preserving deviation under way.
//!
//! Run with: `cargo run -p adept-examples --bin container_logistics`

use adept_core::{ChangeOp, NewActivity};
use adept_engine::{EngineCommand, ProcessEngine};
use adept_simgen::scenarios;

fn main() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::container_logistics()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();

    let shipment = engine.create_instance(&name).unwrap();
    engine
        .submit(EngineCommand::Drive {
            instance: shipment,
            max: Some(3),
        })
        .unwrap();
    println!(
        "shipment under way:\n{}",
        engine.render_instance(shipment).unwrap()
    );

    // Storm: divert before sea transport (one-op change transaction).
    let sea = v1.schema.node_by_name("sea transport").unwrap().id;
    let deliver = v1.schema.node_by_name("deliver container").unwrap().id;
    let mut session = engine.begin_change(shipment).unwrap();
    session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("divert to alternate port").with_role("dispatcher"),
            pred: sea,
            succ: deliver,
        })
        .unwrap();
    session.commit().unwrap();
    println!(
        "ad-hoc diversion inserted (instance is now biased: {})",
        engine.store.get(shipment).unwrap().bias.summary()
    );

    // An illegal deviation is rejected at commit: deleting the
    // already-completed booking violates the state precondition, and the
    // failed commit leaves the shipment untouched.
    let book = v1.schema.node_by_name("book transport").unwrap().id;
    let mut session = engine.begin_change(shipment).unwrap();
    session
        .stage(&ChangeOp::DeleteActivity { node: book })
        .unwrap();
    match session.commit() {
        Err(e) => println!("deleting completed booking correctly rejected: {e}"),
        Ok(_) => unreachable!("must be rejected"),
    }

    let outcome = engine
        .submit(EngineCommand::Drive {
            instance: shipment,
            max: None,
        })
        .unwrap();
    assert!(outcome.finished);
    println!(
        "\ndelivered:\n{}",
        engine.render_instance(shipment).unwrap()
    );
}
