//! Allocation budgets of the state layout: how many heap allocations (and
//! reallocations) copying an instance state, copying a schema, decoding a
//! journal line, one completion, one durable command, one ad-hoc change
//! session and one migration hop, durable or not, make — and that a
//! snapshot and its restore allocate as much for long histories as for
//! short ones. Schemas, markings and data contexts keep their entries in
//! flat sorted vectors, one buffer per map, so these counts are small and
//! exact; a change that makes a hot value
//! allocate per entry again fails here.
//!
//! A counting global allocator counts per thread, so the other tests of
//! this binary, running in parallel, do not disturb a count. Each budget is
//! measured after a warm-up of the same operation, so lazily built
//! thread-locals and first-use tables are not charged to it.

use adept_engine::ProcessEngine;
use adept_model::ProcessSchema;
use adept_simgen::{generate_schema, scenarios, GenParams};
use adept_storage::persist::{from_json, restore_with_txns, to_json, InstanceRecord};
use adept_storage::wal::decode_entry;
use adept_storage::{MemoryBackend, RawLog, StorageBackend, StorageError};
use adept_tests::{adhoc, drive, evolve};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's guarantee for `layout` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's guarantee for `layout` is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (every allocation here does)
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and reallocations `f` makes on this thread; what it returns
/// is dropped after the count.
fn count<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let (a0, r0) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let kept = f();
    let counted = (ALLOCS.with(Cell::get) - a0, REALLOCS.with(Cell::get) - r0);
    drop(kept);
    counted
}

/// A non-durable engine with `order_process` deployed.
fn order_engine() -> (ProcessEngine, String) {
    let engine = ProcessEngine::new();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    (engine, name)
}

#[test]
fn cloning_a_mid_run_instance_state() {
    let (engine, name) = order_engine();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, Some(3)).unwrap();
    let state = engine.store.get(id).unwrap().state;
    assert!(state.history.len() > 3 && state.marking.marked_nodes().count() > 3);
    count(|| state.clone());
    // One buffer per non-empty map of the marking and the data context,
    // the history's events, and the read or write lists of the events that
    // have one.
    assert_eq!(count(|| state.clone()), (6, 0));
}

#[test]
fn cloning_a_32_activity_schema() {
    let schema: ProcessSchema = generate_schema(&GenParams::sized(32), 1);
    assert!(schema.activities().count() >= 32);
    count(|| schema.clone());
    // One buffer per map and for the data edges, and the schema's name.
    // Node and data element names are shared, so a copy clones reference
    // counts, and adjacency rows of up to three edges are held in place.
    assert_eq!(count(|| schema.clone()), (7, 0));
}

#[test]
fn decoding_a_created_line() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    engine.create_instance(&name).unwrap();
    let lines = medium.read_log().unwrap().lines;
    let line = lines
        .iter()
        .find(|l| l.contains("\"Created\""))
        .expect("a Created line");
    count(|| decode_entry(line).unwrap());
    // The type name and one buffer per non-empty map of the marking.
    assert_eq!(count(|| decode_entry(line).unwrap()), (3, 0));
}

/// The record a durable drive of one activity journals: its steps, a
/// `Start` and a `Complete` with the activity's one write.
#[test]
fn decoding_a_state_delta_line() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, Some(1)).unwrap();
    let lines = medium.read_log().unwrap().lines;
    let line = lines
        .iter()
        .find(|l| l.contains("\"StateDelta\""))
        .expect("a StateDelta line");
    count(|| decode_entry(line).unwrap());
    // The step list and the write list of its `Complete` (a delta of the
    // marking and the history suffix took 4).
    assert_eq!(count(|| decode_entry(line).unwrap()), (2, 0));
}

/// The record a snapshot holds of one `order_process` instance driven to
/// its end, decoded as `from_json` decodes each of its records.
#[test]
fn decoding_a_snapshot_instance() {
    let (engine, name) = order_engine();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, id, None).unwrap();
    assert!(engine.is_finished(id).unwrap());
    let snapshot = engine.snapshot();
    let record = serde_json::to_string(&snapshot.instances[0]).unwrap();
    let decode = || serde_json::from_str::<InstanceRecord>(&record).unwrap();
    count(decode);
    // The shared record, the type name, the marking's node and edge
    // entries, the history's events, the write lists of the completions
    // that wrote, and the data context; the entries and the events grow
    // by doubling.
    assert_eq!(count(decode), (8, 6));
}

#[test]
fn one_durable_drive_of_one_activity() {
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(MemoryBackend::new())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let warm = engine.create_instance(&name).unwrap();
    let id = engine.create_instance(&name).unwrap();
    drive(&engine, warm, Some(1)).unwrap();
    assert_eq!(count(|| drive(&engine, id, Some(1)).unwrap()), (20, 0));
}

/// A completion keeps each value it writes twice: in its `Completed` event
/// and in the data context, one copy. Writing two strings costs exactly two
/// allocations more than writing two empty ones (which allocate nothing).
#[test]
fn a_completion_copies_each_write_once() {
    use adept_model::{SchemaBuilder, Value, ValueType};
    use adept_state::Execution;
    let mut b = SchemaBuilder::new("texts");
    let (x, y) = (b.data("x", ValueType::Str), b.data("y", ValueType::Str));
    let a = b.activity("a");
    b.write(a, x);
    b.write(a, y);
    let ex = &Execution::new(b.build().unwrap()).unwrap();
    let complete = |text: &str| {
        let mut st = ex.init().unwrap();
        ex.start_activity(&mut st, a).unwrap();
        let writes = vec![(x, Value::Str(text.into())), (y, Value::Str(text.into()))];
        count(move || {
            ex.complete_activity(&mut st, a, writes).unwrap();
            st
        })
    };
    complete("warm");
    let (empty, text) = (complete(""), complete("written"));
    assert_eq!((text.0 - empty.0, text.1 - empty.1), (2, 0));
    // Six buffers of the compact marking and of the sparse one written
    // back, the data context's buffer and the two strings.
    assert_eq!(text, (9, 0));
}

#[test]
fn one_ad_hoc_tail_insert_session() {
    use adept_core::{ChangeOp, NewActivity};
    use adept_model::NodeKind;
    let engine = ProcessEngine::new();
    let name = engine
        .deploy(generate_schema(&GenParams::sized(32), 1))
        .unwrap();
    let deployed = engine.repo.deployed(&name, 1).unwrap().schema;
    let end = deployed
        .nodes()
        .find(|n| n.kind == NodeKind::End)
        .unwrap()
        .id;
    let pred = deployed.sole_control_predecessor(end).unwrap();
    let session = |id, preview: &mut (u64, u64)| {
        let mut session = engine.begin_change(id).unwrap();
        let op = ChangeOp::SerialInsert {
            activity: NewActivity::named("tail"),
            pred,
            succ: end,
        };
        session.stage(&op).unwrap();
        *preview = count(|| assert!(session.preview().unwrap().is_committable()));
        session.commit().unwrap();
    };
    let warm = engine.create_instance(&name).unwrap();
    let id = engine.create_instance(&name).unwrap();
    session(warm, &mut (0, 0));
    let mut preview = (0, 0);
    let whole = count(|| session(id, &mut preview));
    // Begin copies the instance's schema into its overlay; the stage
    // copies the context's blocks and places the activity in them; preview
    // indexes the overlay once, verifies what the insert touched (no data
    // flow: the activity has no data edges) and compiles it over the
    // derived blocks with its names table — nothing is analysed; commit
    // adapts the state and installs the context. Debug builds also run the
    // whole pass beside the scoped one and compare their errors, and a
    // full analysis beside the derivation.
    let budget = if cfg!(debug_assertions) {
        ((198, 38), (82, 15))
    } else {
        ((95, 17), (29, 9))
    };
    assert_eq!((whole, preview), budget);
}

/// A snapshot shares each instance with the store, and a restore inserts
/// what the snapshot shares: neither copies a state, so what either
/// allocates does not grow with the states. One population driven one
/// activity in and the same population driven five in cost the same.
#[test]
fn a_snapshot_and_its_restore_copy_no_state() {
    let counts = |steps: usize| {
        let (engine, name) = order_engine();
        for _ in 0..16 {
            let id = engine.create_instance(&name).unwrap();
            drive(&engine, id, Some(steps)).unwrap();
        }
        count(|| engine.snapshot());
        let snapshot = count(|| engine.snapshot());
        let snap = from_json(&to_json(&engine.snapshot()).unwrap()).unwrap();
        count(|| restore_with_txns(&snap).unwrap());
        let restore = count(|| restore_with_txns(&snap).unwrap());
        (snapshot, restore)
    };
    assert_eq!(counts(1), counts(5));
}

/// A medium that takes every line and keeps none: a durable engine's
/// journal encodes and appends as on any medium, and no buffer of the
/// medium's grows into a count.
#[derive(Debug)]
struct Sink;

impl StorageBackend for Sink {
    fn append_line(&self, _: &str) -> Result<(), StorageError> {
        Ok(())
    }
    fn sync(&self) -> Result<(), StorageError> {
        Ok(())
    }
    fn read_log(&self) -> Result<RawLog, StorageError> {
        Ok(RawLog::default())
    }
    fn reset(&self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// `migrate_all` of a one-instance `order_process` type over Fig. 1's
/// insert, with the instance unbiased or carrying one ad-hoc
/// `SerialInsert` ("check customer" after "get order"), on a non-durable
/// engine or a durable one journaling to a [`Sink`]. A first type, set up
/// and migrated the same way, warms up.
fn one_migration_hop(biased: bool, durable: bool) -> (u64, u64) {
    use adept_core::{ChangeOp, MigrationOptions, NewActivity};
    let engine = if durable {
        ProcessEngine::with_segmented_wal(vec![Box::new(Sink)]).unwrap()
    } else {
        ProcessEngine::new()
    };
    let hop = || {
        let mut schema = scenarios::order_process();
        schema.name = format!("order {}", engine.repo.type_names().len());
        let name = engine.deploy(schema).unwrap();
        let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
        let id = engine.create_instance(&name).unwrap();
        if biased {
            let at = |n| v1.node_by_name(n).unwrap().id;
            let op = ChangeOp::SerialInsert {
                activity: NewActivity::named("check customer"),
                pred: at("get order"),
                succ: at("collect data"),
            };
            adhoc(&engine, id, &op).unwrap();
        }
        evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1)]).unwrap();
        let options = MigrationOptions::default();
        count(|| {
            let report = engine.migrate_all(&name, &options, 1).unwrap();
            assert_eq!(report.migrated(), 1, "{report}");
        })
    };
    hop();
    hop()
}

#[test]
fn one_unbiased_migration_hop() {
    // The version table (the ΔT copied out of the repository once), the
    // state read out of the store, judged and adapted in place, the
    // installed image, the monitor's event and the report.
    assert_eq!(one_migration_hop(false, false), (17, 0));
}

#[test]
fn one_biased_migration_hop() {
    // As the unbiased hop, plus the bias copied out of the store, the
    // target built from the new version with the bias replayed and its
    // blocks derived from the version's (a copy, one node placed), its
    // scoped verification and compile; nothing is analysed. Debug builds
    // also run the whole pass beside the scoped one, and a full analysis
    // beside the derivation.
    let budget = if cfg!(debug_assertions) {
        (116, 13)
    } else {
        (67, 7)
    };
    assert_eq!(one_migration_hop(true, false), budget);
}

#[test]
fn one_durable_unbiased_migration_hop() {
    // As the unbiased hop, plus the hop's journal line, encoded into one
    // buffer.
    assert_eq!(one_migration_hop(false, true), (18, 0));
}
