//! Multi-actor worklist: two roles — a clerk and an assessor — drain a
//! shared worklist by claiming their items and submitting **batched**
//! start/complete commands. The worklist is a read of the instance store
//! (what every instance's marking offers, by role), and every transition
//! lands in the monitor's event stream.
//!
//! Run with: `cargo run -p adept-examples --bin worklist`

use adept_engine::{EngineCommand, ProcessEngine, WorkItem};
use adept_model::{CmpOp, Guard, SchemaBuilder, Value, ValueType};

/// An insurance-claim process: clerk registers, assessor decides, clerk
/// settles the guarded outcome, and the role-less archive step is
/// claimable by whoever gets to it first.
fn claim_process() -> adept_model::ProcessSchema {
    let mut b = SchemaBuilder::new("insurance claim");
    let amount = b.data("amount", ValueType::Int);
    let approved = b.data("approved", ValueType::Bool);
    let register = b.activity_with("register claim", |a| a.role = Some("clerk".into()));
    b.write(register, amount);
    let assess = b.activity_with("assess damage", |a| a.role = Some("assessor".into()));
    b.read(assess, amount);
    b.write(assess, approved);
    b.xor_split();
    b.case_when(Guard::new(approved, CmpOp::Eq, Value::Bool(true)));
    b.activity_with("approve payout", |a| a.role = Some("clerk".into()));
    b.case();
    b.activity_with("reject claim", |a| a.role = Some("clerk".into()));
    b.xor_join();
    b.activity("archive");
    b.build().expect("well-formed schema")
}

/// One actor: claims every item its role may take and answers each with a
/// batched start + complete (writing deterministic output values).
struct Actor {
    role: &'static str,
}

impl Actor {
    /// Builds this actor's command batch for one worklist round.
    fn claim(&self, engine: &ProcessEngine, items: &[WorkItem]) -> Vec<EngineCommand> {
        let mut batch = Vec::new();
        for item in items.iter().filter(|w| w.claimable_by(self.role)) {
            let schema = engine
                .store
                .schema_of(&engine.repo, item.instance)
                .expect("schema resolves");
            let writes = schema
                .writes_of(item.node)
                .map(|de| {
                    let value = match schema.data_element(de.data).map(|d| d.ty) {
                        Ok(ValueType::Int) => Value::Int(100 * item.instance.raw() as i64),
                        // Odd claims get approved, even ones rejected.
                        Ok(ValueType::Bool) => Value::Bool(item.instance.raw() % 2 == 1),
                        Ok(ValueType::Float) => Value::Float(0.0),
                        Ok(ValueType::Str) => Value::Str(String::new()),
                        Err(_) => Value::Null,
                    };
                    (de.data, value)
                })
                .collect();
            batch.push(EngineCommand::Start {
                instance: item.instance,
                node: item.node,
            });
            batch.push(EngineCommand::Complete {
                instance: item.instance,
                node: item.node,
                writes,
            });
        }
        batch
    }
}

fn main() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(claim_process()).unwrap();

    // Open six claims in one batch.
    let created = engine.submit_batch(
        (0..6)
            .map(|_| EngineCommand::CreateInstance {
                type_name: name.clone(),
            })
            .collect(),
    );
    let claims: Vec<_> = created.into_iter().map(|r| r.unwrap().instance).collect();
    println!("opened {} claims", claims.len());

    let clerk = Actor { role: "clerk" };
    let assessor = Actor { role: "assessor" };

    // The two actors alternate polls until the shared worklist is empty.
    // Each poll is an index read; each response is ONE batched submission
    // per actor, so a round costs two store passes however many items it
    // clears.
    let mut round = 0;
    loop {
        let items = engine.worklist();
        if items.is_empty() {
            break;
        }
        round += 1;
        // The clerk claims first; the assessor takes what is left (the
        // role-less archive step goes to whoever is first this round).
        let clerk_batch = clerk.claim(&engine, &items);
        let claimed: Vec<(adept_model::InstanceId, adept_model::NodeId)> = clerk_batch
            .iter()
            .filter_map(|c| match c {
                EngineCommand::Start { instance, node } => Some((*instance, *node)),
                _ => None,
            })
            .collect();
        let rest: Vec<WorkItem> = items
            .into_iter()
            .filter(|w| !claimed.contains(&(w.instance, w.node)))
            .collect();
        let assessor_batch = assessor.claim(&engine, &rest);
        let n_clerk = clerk_batch.len() / 2;
        let n_assessor = assessor_batch.len() / 2;
        for res in engine.submit_batch(clerk_batch) {
            res.unwrap();
        }
        for res in engine.submit_batch(assessor_batch) {
            res.unwrap();
        }
        println!("round {round}: clerk did {n_clerk} items, assessor {n_assessor}");
    }

    for id in &claims {
        assert!(engine.is_finished(*id).unwrap());
    }
    println!(
        "\nall claims settled after {round} rounds; {} events recorded, e.g.:",
        engine.monitor.len()
    );
    for (t, e) in engine.monitor.events().iter().take(8) {
        println!("  [{t}] {e}");
    }
}
