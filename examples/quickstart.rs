//! Quickstart: model a process, execute it through the unified command
//! API — typed [`EngineCommand`]s submitted one by one or as a batch,
//! each returning a [`CommandOutcome`] with the emitted events and the
//! enabled-set delta — then deviate ad hoc and evolve the type through
//! the transactional change surface (stage → preview → commit), and
//! migrate. The whole ADEPT2 loop in ~100 lines.
//!
//! Run with: `cargo run -p adept-examples --bin quickstart`

use adept_core::{ChangeOp, MigrationOptions, NewActivity};
use adept_engine::{CommandOutcome, EngineCommand, EngineEvent, ProcessEngine};
use adept_model::{SchemaBuilder, ValueType};

fn main() {
    // 1. Model a template with the fluent builder.
    let mut b = SchemaBuilder::new("expense approval");
    let amount = b.data("amount", ValueType::Int);
    let submit = b.activity("submit expense");
    b.write(submit, amount);
    let review = b.activity("review");
    b.read(review, amount);
    let payout = b.activity("payout");
    let _ = payout;
    let schema = b.build().expect("well-formed schema");

    // 2. Deploy, then create two instances in ONE batch. Every command
    //    returns an outcome carrying the new instance and what it enabled.
    let engine = ProcessEngine::new();
    let name = engine.deploy(schema).unwrap();
    let created: Vec<CommandOutcome> = engine
        .submit_batch(vec![
            EngineCommand::CreateInstance {
                type_name: name.clone(),
            },
            EngineCommand::CreateInstance {
                type_name: name.clone(),
            },
        ])
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let (i1, i2) = (created[0].instance, created[1].instance);
    println!("deployed \"{name}\", created {i1} and {i2}");

    // 3. Execute I1's first step explicitly: start + complete as one
    //    batched submission. The outcome reports the freshly enabled
    //    follow-up work — no separate worklist poll needed.
    let submit_id = engine.repo.deployed(&name, 1).unwrap();
    let submit_node = submit_id.schema.node_by_name("submit expense").unwrap().id;
    let outcomes = engine.submit_batch(vec![
        EngineCommand::Start {
            instance: i1,
            node: submit_node,
        },
        EngineCommand::Complete {
            instance: i1,
            node: submit_node,
            writes: vec![(amount, adept_model::Value::Int(420))],
        },
    ]);
    let after_complete = outcomes[1].as_ref().unwrap();
    println!(
        "I1 completed \"submit expense\"; newly enabled: {:?} ({} events recorded)",
        after_complete.newly_enabled,
        after_complete.events.len()
    );

    // 4. Deviate I1 ad hoc — transactionally. Stage as many operations as
    //    the deviation needs; verification and compliance run ONCE.
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let review_id = v1.schema.node_by_name("review").unwrap().id;
    let payout_id = v1.schema.node_by_name("payout").unwrap().id;
    let mut session = engine.begin_change(i1).unwrap();
    let audit = session
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("audit").with_role("auditor"),
            pred: review_id,
            succ: payout_id,
        })
        .unwrap()
        .inserted_activity()
        .unwrap();
    session
        .stage(&ChangeOp::AddDataEdge {
            node: audit,
            data: amount,
            mode: adept_model::AccessMode::Read,
            optional: false,
        })
        .unwrap();
    let preview = session.preview().unwrap();
    print!("\npreviewing the staged deviation:\n{preview}");
    assert!(preview.is_committable());
    let receipt = session.commit().unwrap();
    println!(
        "committed txn #{} ({} ops) — I1 after the change:\n{}",
        receipt.seq,
        receipt.ops,
        engine.render_instance(i1).unwrap()
    );

    // 5. Evolve the type for everyone with the same lifecycle, migrate.
    let end = v1.schema.end_node();
    let mut evolution = engine.begin_evolution(&name).unwrap();
    evolution
        .stage(&ChangeOp::SerialInsert {
            activity: NewActivity::named("notify submitter"),
            pred: payout_id,
            succ: end,
        })
        .unwrap();
    let receipt = evolution.commit().unwrap();
    println!(
        "evolved \"{name}\" to V{} (txn #{})",
        receipt.new_version.unwrap(),
        receipt.seq
    );
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    println!("{report}");

    // 6. Drive both instances to completion in one batch; I1 executes
    //    audit + notify, I2 just notify. Drives emit a complete event
    //    stream — starts, completions and decisions all hit the monitor.
    for res in engine.submit_batch(
        [i1, i2]
            .into_iter()
            .map(|id| EngineCommand::Drive {
                instance: id,
                max: None,
            })
            .collect(),
    ) {
        let outcome = res.unwrap();
        assert!(outcome.finished);
        println!(
            "{} finished ({} activities driven):\n{}",
            outcome.instance,
            outcome.completed,
            engine.render_instance(outcome.instance).unwrap()
        );
    }

    // The change history as the monitor saw it: every committed
    // transaction and the ad-hoc operations it applied. (A durable engine
    // journals the same transactions, each in the line of its change.)
    for (_, event) in engine.monitor.events() {
        if matches!(
            event,
            EngineEvent::TxnCommitted { .. } | EngineEvent::AdHocChanged { .. }
        ) {
            println!("{event}");
        }
    }
}
