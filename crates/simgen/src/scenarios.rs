//! The paper's literal scenarios plus the application domains it cites.

use adept_core::{ChangeOp, NewActivity};
use adept_model::{CmpOp, Guard, LoopCond, NodeId, ProcessSchema, SchemaBuilder, Value, ValueType};

/// The order process of paper Fig. 1 / Fig. 3 (version V1):
/// `get order -> collect data -> AND(confirm order | compose order -> pack
/// goods) -> deliver goods`, with an `amount` data element.
pub fn order_process() -> ProcessSchema {
    let mut b = SchemaBuilder::new("online order");
    let amount = b.data("amount", ValueType::Int);
    let get = b.activity_with("get order", |a| a.role = Some("sales".into()));
    b.write(get, amount);
    b.activity("collect data");
    b.and_split();
    b.branch();
    let confirm = b.activity_with("confirm order", |a| a.role = Some("sales".into()));
    b.read(confirm, amount);
    b.branch();
    b.activity_with("compose order", |a| a.role = Some("warehouse".into()));
    b.activity_with("pack goods", |a| a.role = Some("warehouse".into()));
    b.and_join();
    b.activity_with("deliver goods", |a| a.role = Some("logistics".into()));
    b.build().expect("order process is well-formed")
}

/// The type change ΔT of paper Fig. 1 as change operations against
/// [`order_process`]: `addActivity(send questions, compose order, pack
/// goods)`. The accompanying `insertSyncEdge(send questions, confirm
/// order)` needs the id of the inserted activity, so it is produced by
/// [`fig1_sync_op`] after the first operation was applied.
pub fn fig1_insert_op(schema: &ProcessSchema) -> ChangeOp {
    let compose = schema
        .node_by_name("compose order")
        .expect("compose order")
        .id;
    let pack = schema.node_by_name("pack goods").expect("pack goods").id;
    ChangeOp::SerialInsert {
        activity: NewActivity::named("send questions"),
        pred: compose,
        succ: pack,
    }
}

/// The second operation of ΔT: `insertSyncEdge(send questions, confirm
/// order)`. `send_questions` is the node the first operation inserted.
pub fn fig1_sync_op(schema: &ProcessSchema, send_questions: NodeId) -> ChangeOp {
    let confirm = schema
        .node_by_name("confirm order")
        .expect("confirm order")
        .id;
    ChangeOp::InsertSyncEdge {
        from: send_questions,
        to: confirm,
    }
}

/// The complete ΔT of paper Fig. 1 as a single composite change (both
/// operations committed together, as the paper's type change is atomic).
/// The inserted activity's id is learned from a dry run, which is sound
/// because id allocation is deterministic for a fixed base schema.
pub fn fig1_delta_ops(schema: &ProcessSchema) -> Vec<ChangeOp> {
    let insert = fig1_insert_op(schema);
    let mut probe = schema.clone();
    let rec = adept_core::apply_op(&mut probe, &insert).expect("fig1 insert applies");
    let sq = rec.inserted_activity().expect("activity inserted");
    vec![insert, fig1_sync_op(schema, sq)]
}

/// The ad-hoc modification of instance I2 in Fig. 1: a sync edge
/// `confirm order -> compose order`, which later conflicts with ΔT
/// (deadlock-causing cycle).
pub fn fig1_i2_bias_op(schema: &ProcessSchema) -> ChangeOp {
    let confirm = schema
        .node_by_name("confirm order")
        .expect("confirm order")
        .id;
    let compose = schema
        .node_by_name("compose order")
        .expect("compose order")
        .id;
    ChangeOp::InsertSyncEdge {
        from: confirm,
        to: compose,
    }
}

/// An e-health clinical pathway (the paper reports deployments in
/// e-health): admission, anamnesis, a loop of examination/lab cycles, a
/// guarded surgery branch, therapy and discharge.
pub fn clinical_pathway() -> ProcessSchema {
    let mut b = SchemaBuilder::new("clinical pathway");
    let severity = b.data("severity", ValueType::Int);
    let lab_ok = b.data("lab ok", ValueType::Bool);
    let admit = b.activity_with("admit patient", |a| a.role = Some("nurse".into()));
    b.write(admit, severity);
    let anam = b.activity_with("anamnesis", |a| a.role = Some("physician".into()));
    b.read(anam, severity);
    b.loop_start();
    let exam = b.activity_with("examination", |a| a.role = Some("physician".into()));
    let lab = b.activity_with("lab tests", |a| a.role = Some("lab".into()));
    b.write(lab, lab_ok);
    let _ = exam;
    b.loop_end(LoopCond::While(Guard::new(
        lab_ok,
        CmpOp::Eq,
        Value::Bool(false),
    )));
    b.xor_split();
    b.case_when(Guard::new(severity, CmpOp::Ge, Value::Int(7)));
    b.activity_with("surgery", |a| a.role = Some("surgeon".into()));
    b.activity_with("post-op care", |a| a.role = Some("nurse".into()));
    b.case();
    b.activity_with("medication", |a| a.role = Some("physician".into()));
    b.xor_join();
    b.activity_with("therapy plan", |a| a.role = Some("physician".into()));
    b.activity_with("discharge", |a| a.role = Some("nurse".into()));
    b.build().expect("clinical pathway is well-formed")
}

/// A container-transport process modelled after the paper's reference \[3\]
/// (Bassil/Keller/Kropf: workflow-oriented container transportation):
/// booking, parallel customs/vessel handling with a sync dependency, and
/// delivery.
pub fn container_logistics() -> ProcessSchema {
    let mut b = SchemaBuilder::new("container transport");
    let weight = b.data("weight", ValueType::Float);
    let cleared = b.data("customs cleared", ValueType::Bool);
    let book = b.activity_with("book transport", |a| a.role = Some("dispatcher".into()));
    b.write(book, weight);
    b.activity("assign container");
    b.and_split();
    b.branch();
    let docs = b.activity_with("prepare customs docs", |a| a.role = Some("customs".into()));
    let clear = b.activity_with("customs clearance", |a| a.role = Some("customs".into()));
    b.write(clear, cleared);
    b.branch();
    let load = b.activity_with("load on vessel", |a| a.role = Some("port".into()));
    b.read(load, weight);
    let stow = b.activity("stow & secure");
    b.and_join();
    b.activity("sea transport");
    b.activity_with("deliver container", |a| a.role = Some("dispatcher".into()));
    // Loading may only start once customs clearance is through.
    b.sync(clear, load);
    let _ = (docs, stow);
    b.build().expect("container transport is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::apply_op;
    use adept_verify::is_correct;

    #[test]
    fn all_scenarios_verify() {
        assert!(is_correct(&order_process()));
        assert!(is_correct(&clinical_pathway()));
        assert!(is_correct(&container_logistics()));
    }

    #[test]
    fn fig1_delta_applies_to_order_process() {
        let mut s = order_process();
        let op1 = fig1_insert_op(&s);
        let rec = apply_op(&mut s, &op1).unwrap();
        let sq = rec.inserted_activity().unwrap();
        let op2 = fig1_sync_op(&s, sq);
        apply_op(&mut s, &op2).unwrap();
        assert!(is_correct(&s));
        assert!(s.node_by_name("send questions").is_some());
        assert_eq!(s.sync_edges().count(), 1);
    }

    #[test]
    fn i2_bias_conflicts_with_fig1_delta() {
        let mut s = order_process();
        let bias_op = fig1_i2_bias_op(&s);
        apply_op(&mut s, &bias_op).unwrap();
        let op1 = fig1_insert_op(&s);
        let rec = apply_op(&mut s, &op1).unwrap();
        let sq = rec.inserted_activity().unwrap();
        let op2 = fig1_sync_op(&s, sq);
        let err = apply_op(&mut s, &op2);
        assert!(err.is_err(), "the combination must deadlock");
    }

    #[test]
    fn scenarios_have_roles_for_worklists() {
        let s = order_process();
        assert!(s
            .activities()
            .any(|n| n.attrs.role.as_deref() == Some("warehouse")));
        let c = clinical_pathway();
        assert!(c
            .activities()
            .any(|n| n.attrs.role.as_deref() == Some("physician")));
    }
}
