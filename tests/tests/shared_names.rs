//! Names are shared, bytes are unchanged: every name a schema carries (a
//! node's, a data element's, an activity's role, application and
//! description) is one `Arc<str>`, which a schema copy, an overlay, a
//! migration target and a worklist label share instead of copying, and
//! which encodes as the same JSON string a `String` did.
//!
//! The byte literals below were captured from the encoder before names
//! became shared, with their states rewritten once into the forms of
//! snapshot format 9 (a marking's ids by state), and are compared byte for
//! byte.

use adept_core::{ChangeOp, MigrationOptions, NewActivity};
use adept_engine::ProcessEngine;
use adept_model::{NodeId, ProcessSchema};
use adept_simgen::scenarios;
use adept_storage::wal::decode_entry;
use adept_storage::{MemoryBackend, StorageBackend};
use adept_tests::{adhoc, evolve};
use std::sync::Arc;

fn node(schema: &ProcessSchema, name: &str) -> NodeId {
    schema.node_by_name(name).unwrap().id
}

/// The name of `n` in the context `id` runs on.
fn context_name(engine: &ProcessEngine, id: adept_model::InstanceId, n: NodeId) -> Arc<str> {
    let name = engine.store.with_context(&engine.repo, id, |_, ctx| {
        ctx.schema.node(n).unwrap().name.clone()
    });
    name.unwrap()
}

/// A biased instance's ad-hoc insert: "check customer" between "get order"
/// and "collect data", disjoint from Fig. 1's type change.
fn check_customer(v1: &ProcessSchema) -> ChangeOp {
    ChangeOp::SerialInsert {
        activity: NewActivity::named("check customer").with_role("sales"),
        pred: node(v1, "get order"),
        succ: node(v1, "collect data"),
    }
}

#[test]
fn a_deployment_shares_its_names_with_every_copy() {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let get = node(&v1.schema, "get order");
    let deployed = &v1.schema.node(get).unwrap();

    // A schema clone.
    let copy = ProcessSchema::clone(&v1.schema);
    assert!(Arc::ptr_eq(&deployed.name, &copy.node(get).unwrap().name));
    let amount = v1.schema.data_elements().next().unwrap();
    let copied = copy.data_element(amount.id).unwrap();
    assert!(Arc::ptr_eq(&amount.name, &copied.name));

    // The names table's label and role, as the worklist renders them.
    let plain = engine.create_instance(&name).unwrap();
    let items = engine.worklist();
    let item = items.iter().find(|i| i.instance == plain && i.node == get);
    let item = item.expect("get order is offered");
    assert!(Arc::ptr_eq(&deployed.name, &item.activity));
    let role = deployed.attrs.role.as_ref().unwrap();
    assert!(Arc::ptr_eq(role, item.role.as_ref().unwrap()));

    // A biased instance's materialised context: the base's names, and the
    // inserted activity's name as its change operation carries it.
    let biased = engine.create_instance(&name).unwrap();
    adhoc(&engine, biased, &check_customer(&v1.schema)).unwrap();
    assert!(Arc::ptr_eq(
        &deployed.name,
        &context_name(&engine, biased, get)
    ));
    let bias = engine.store.get(biased).unwrap().bias;
    let inserted = bias.ops[0].inserted_activity().unwrap();
    let ChangeOp::SerialInsert { activity, .. } = &bias.ops[0].op else {
        panic!("the bias is the insert");
    };
    assert!(Arc::ptr_eq(
        &activity.name,
        &context_name(&engine, biased, inserted)
    ));

    // A biased migration target, built on the next version: still the
    // names the first version was deployed with.
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1.schema)]).unwrap();
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 2, "{report}");
    assert_eq!(engine.store.get(biased).unwrap().version, 2);
    assert!(Arc::ptr_eq(
        &deployed.name,
        &context_name(&engine, biased, get)
    ));
    let v2 = engine.repo.deployed(&name, 2).unwrap();
    assert!(Arc::ptr_eq(
        &deployed.name,
        &v2.schema.node(get).unwrap().name
    ));
}

#[test]
fn a_schema_encodes_as_before() {
    let mut schema = scenarios::order_process();
    let get = node(&schema, "get order");
    let attrs = &mut schema.node_mut(get).unwrap().attrs;
    attrs.application = Some("erp.orders".into());
    attrs.description = Some("take the \"order\"".into());
    let text = serde_json::to_string(&schema).unwrap();
    assert_eq!(text, SCHEMA);
    let back: ProcessSchema = serde_json::from_str(&text).unwrap();
    assert_eq!(back, schema);
}

#[test]
fn created_and_change_lines_encode_as_before() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    adhoc(&engine, id, &check_customer(&v1)).unwrap();
    let lines = medium.read_log().unwrap().lines;
    assert_eq!(lines.len(), 3);
    assert_eq!(lines[1], CREATED);
    assert_eq!(lines[2], CHANGE_COMMITTED);
    assert_eq!(
        decode_entry(CHANGE_COMMITTED_WITH_SUBST).unwrap(),
        decode_entry(CHANGE_COMMITTED).unwrap()
    );
}

const SCHEMA: &str = r#"{"id":0,"name":"online order","version":1,"nodes":[[0,{"id":0,"name":"start","kind":"Start","attrs":{"role":null,"expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[1,{"id":1,"name":"get order","kind":"Activity","attrs":{"role":"sales","expected_duration_min":null,"application":"erp.orders","description":"take the \"order\"","skippable":false}}],[2,{"id":2,"name":"collect data","kind":"Activity","attrs":{"role":null,"expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[3,{"id":3,"name":"and-split","kind":"AndSplit","attrs":{"role":null,"expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[4,{"id":4,"name":"confirm order","kind":"Activity","attrs":{"role":"sales","expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[5,{"id":5,"name":"compose order","kind":"Activity","attrs":{"role":"warehouse","expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[6,{"id":6,"name":"pack goods","kind":"Activity","attrs":{"role":"warehouse","expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[7,{"id":7,"name":"and-join","kind":"AndJoin","attrs":{"role":null,"expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[8,{"id":8,"name":"deliver goods","kind":"Activity","attrs":{"role":"logistics","expected_duration_min":null,"application":null,"description":null,"skippable":false}}],[9,{"id":9,"name":"end","kind":"End","attrs":{"role":null,"expected_duration_min":null,"application":null,"description":null,"skippable":false}}]],"edges":[[0,{"id":0,"from":0,"to":1,"kind":"Control","guard":null,"loop_cond":null}],[1,{"id":1,"from":1,"to":2,"kind":"Control","guard":null,"loop_cond":null}],[2,{"id":2,"from":2,"to":3,"kind":"Control","guard":null,"loop_cond":null}],[3,{"id":3,"from":3,"to":4,"kind":"Control","guard":null,"loop_cond":null}],[4,{"id":4,"from":3,"to":5,"kind":"Control","guard":null,"loop_cond":null}],[5,{"id":5,"from":5,"to":6,"kind":"Control","guard":null,"loop_cond":null}],[6,{"id":6,"from":4,"to":7,"kind":"Control","guard":null,"loop_cond":null}],[7,{"id":7,"from":6,"to":7,"kind":"Control","guard":null,"loop_cond":null}],[8,{"id":8,"from":7,"to":8,"kind":"Control","guard":null,"loop_cond":null}],[9,{"id":9,"from":8,"to":9,"kind":"Control","guard":null,"loop_cond":null}]],"data":[[0,{"id":0,"name":"amount","ty":"Int"}]],"data_edges":[{"node":1,"data":0,"mode":"Write","optional":false},{"node":4,"data":0,"mode":"Read","optional":false}],"out":[[0,[0]],[1,[1]],[2,[2]],[3,[3,4]],[4,[6]],[5,[5]],[6,[7]],[7,[8]],[8,[9]],[9,[]]],"inc":[[0,[]],[1,[0]],[2,[1]],[3,[2]],[4,[3]],[5,[4]],[6,[5]],[7,[6,7]],[8,[8]],[9,[9]]],"node_ids":{"next":10},"edge_ids":{"next":10},"data_ids":{"next":1}}"#;

const CREATED: &str = r#"{"seq":2,"record":{"Created":{"id":1,"type_name":"online order","version":1,"state":{"marking":{"nodes":{"Activated":[1],"Completed":[0]},"edges":{"TrueSignaled":[0]},"loop_counts":[]},"history":{"events":[]}}}}}"#;

const CHANGE_COMMITTED: &str = r#"{"seq":3,"record":{"ChangeCommitted":{"record":{"id":1,"type_name":"online order","version":1,"rev":1,"bias":{"ops":[{"op":{"SerialInsert":{"activity":{"name":"check customer","attrs":{"role":"sales","expected_duration_min":null,"application":null,"description":null,"skippable":false},"reads":[],"optional_reads":[],"writes":[]},"pred":1,"succ":2}},"added_nodes":[16777216],"added_edges":[16777216,16777217],"removed_nodes":[],"removed_edges":[1],"added_data":[],"nullified_nodes":[]}]},"state":{"marking":{"nodes":{"Activated":[1],"Completed":[0]},"edges":{"TrueSignaled":[0]},"loop_counts":[]},"history":{"events":[]}}},"txn":{"seq":1,"target":{"Instance":[1]},"ops":[{"SerialInsert":{"activity":{"name":"check customer","attrs":{"role":"sales","expected_duration_min":null,"application":null,"description":null,"skippable":false},"reads":[],"optional_reads":[],"writes":[]},"pred":1,"succ":2}}]}}}}"#;

/// The same line as written while every instance image carried its
/// substitution block (`"subst"`) beside its bias and its data context
/// (`"data"`) beside its history: a journal of that encoder still replays,
/// because a decoder ignores unknown members.
const CHANGE_COMMITTED_WITH_SUBST: &str = r#"{"seq":3,"record":{"ChangeCommitted":{"record":{"id":1,"type_name":"online order","version":1,"rev":1,"bias":{"ops":[{"op":{"SerialInsert":{"activity":{"name":"check customer","attrs":{"role":"sales","expected_duration_min":null,"application":null,"description":null,"skippable":false},"reads":[],"optional_reads":[],"writes":[]},"pred":1,"succ":2}},"added_nodes":[16777216],"added_edges":[16777216,16777217],"removed_nodes":[],"removed_edges":[1],"added_data":[],"nullified_nodes":[]}]},"subst":{"added_nodes":[{"id":16777216,"name":"check customer","kind":"Activity","attrs":{"role":"sales","expected_duration_min":null,"application":null,"description":null,"skippable":false}}],"added_edges":[{"id":16777216,"from":1,"to":16777216,"kind":"Control","guard":null,"loop_cond":null},{"id":16777217,"from":16777216,"to":2,"kind":"Control","guard":null,"loop_cond":null}],"added_data":[],"added_data_edges":[],"removed_edges":[1],"removed_nodes":[],"nullified_nodes":[],"patched_attrs":[]},"state":{"marking":{"nodes":{"Activated":[1],"Completed":[0]},"edges":{"TrueSignaled":[0]},"loop_counts":[]},"history":{"events":[]},"data":{"values":[],"log":[]}}},"txn":{"seq":1,"target":{"Instance":[1]},"ops":[{"SerialInsert":{"activity":{"name":"check customer","attrs":{"role":"sales","expected_duration_min":null,"application":null,"description":null,"skippable":false},"reads":[],"optional_reads":[],"writes":[]},"pred":1,"succ":2}}],"inverses":[{"DeleteActivity":{"node":16777216}}]}}}}"#;
