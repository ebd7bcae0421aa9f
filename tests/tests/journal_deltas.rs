//! A command journals the steps it took at the instance's revision, and
//! replay applies them through the same executor. What makes that safe is
//! checked here from the outside, on the bytes a durable engine wrote:
//!
//! * a crash at **every** record — and half-way through the next one —
//!   recovers to exactly the engine that had journaled that far;
//! * every kind of step — a failure withdrawing a start from the middle of
//!   a parallel branch, external decisions taken by a command and by a
//!   driver — recovers to the live engine, with the guarded branches and
//!   counted loops the executor decided alone decided alike, on an
//!   unbiased, a biased and a migrated instance;
//! * a snapshot taken while writers run can hold changes past its
//!   watermark, and replay skips what it holds (by revision) instead of
//!   applying it twice;
//! * a step that decodes but that the executor refuses — an unknown node,
//!   a completion or failure of a node that is not running, an undeclared
//!   or mistyped write, a decision that is not pending — is corruption, as
//!   are a revision gap, a record of no steps, a line of the retired delta
//!   form and a state record of an instance nothing created; only a
//!   removal later in the log explains a missing instance;
//! * a migration hop journals the hop, and replay runs it again: recovered
//!   from the journal alone or from a snapshot taken part-way through
//!   `migrate_all`, an engine is the live one to the byte, under either
//!   criterion; a hop that does not fit the instance it names — from
//!   another revision or version, onto a version not deployed, refused by
//!   the replay — is corruption.

use adept_core::{ChangeOp, MigrationOptions, NewActivity, Verdict};
use adept_engine::{recovery, EngineCommand, EngineError, ProcessEngine};
use adept_model::{
    CmpOp, DataId, Guard, InstanceId, LoopCond, NodeId, NodeKind, ProcessSchema, SchemaBuilder,
    Value, ValueType,
};
use adept_simgen::{scenarios, RandomDriver};
use adept_state::Step;
use adept_storage::wal::{decode_entry, encode_entry};
use adept_storage::{
    to_json, MemoryBackend, Snapshot, StorageBackend, StorageError, WalEntry, WalRecord,
};
use adept_tests::{adhoc, drive_with, every_data_is_its_history, evolve};
use std::collections::BTreeMap;

fn boxed(mediums: &[MemoryBackend]) -> Vec<Box<dyn StorageBackend>> {
    mediums
        .iter()
        .map(|m| Box::new(m.clone()) as Box<dyn StorageBackend>)
        .collect()
}

fn node(schema: &ProcessSchema, name: &str) -> NodeId {
    schema.node_by_name(name).unwrap().id
}

fn node_of_kind(schema: &ProcessSchema, kind: NodeKind) -> NodeId {
    schema.nodes().find(|n| n.kind == kind).unwrap().id
}

/// Externally decided: which branch, and whether to review again.
fn triage() -> ProcessSchema {
    let mut b = SchemaBuilder::new("triage");
    b.activity("assess");
    b.xor_split();
    b.case();
    b.activity("treat");
    b.case();
    b.activity("refer");
    b.xor_join();
    b.loop_start();
    b.activity("review");
    b.loop_end(LoopCond::External);
    b.build().unwrap()
}

/// A durable engine over two in-memory segments, and the snapshot of it
/// after every step, by the journal position the step left it at.
struct Run {
    engine: ProcessEngine,
    mediums: Vec<MemoryBackend>,
    noted: BTreeMap<u64, String>,
}

impl Run {
    fn new() -> Self {
        let mediums = vec![MemoryBackend::new(), MemoryBackend::new()];
        let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
        let mut run = Run {
            engine,
            mediums,
            noted: BTreeMap::new(),
        };
        run.note();
        run
    }

    /// Notes the engine as it stands. A step that journaled nothing must
    /// have changed nothing: revisions included.
    fn note(&mut self) {
        let position = self.engine.wal().position();
        assert!(every_data_is_its_history(&self.engine), "at {position}");
        let json = to_json(&self.engine.snapshot()).unwrap();
        if let Some(before) = self.noted.get(&position) {
            assert_eq!(
                before, &json,
                "a step that journaled nothing changed the engine"
            );
        }
        self.noted.insert(position, json);
    }

    fn submit(&mut self, cmd: EngineCommand) {
        let _ = self.engine.submit(cmd);
        self.note();
    }

    fn batch(&mut self, cmds: Vec<EngineCommand>) {
        let _ = self.engine.submit_batch(cmds);
        self.note();
    }

    /// [`Run::batch`] of commands that must all succeed.
    fn all_ok(&mut self, cmds: Vec<EngineCommand>) {
        for result in self.engine.submit_batch(cmds) {
            result.unwrap();
        }
        self.note();
    }

    fn create(&mut self, name: &str) -> InstanceId {
        let id = self.engine.create_instance(name).unwrap();
        self.note();
        id
    }
}

/// Every journal line of the run, by sequence, with the segment it is on.
fn lines_by_seq(mediums: &[MemoryBackend]) -> BTreeMap<u64, (usize, String)> {
    let mut lines = BTreeMap::new();
    for (segment, medium) in mediums.iter().enumerate() {
        for line in medium.read_log().unwrap().lines {
            let seq = decode_entry(&line).unwrap().seq;
            lines.insert(seq, (segment, line));
        }
    }
    lines
}

/// The run's first `k` records on fresh mediums, plus `torn` bytes of the
/// next one on its segment.
fn prefix(lines: &BTreeMap<u64, (usize, String)>, k: u64, torn: &str) -> Vec<MemoryBackend> {
    let mediums = vec![MemoryBackend::new(), MemoryBackend::new()];
    for (segment, line) in lines.range(..=k).map(|(_, l)| l) {
        mediums[*segment].append_line(line).unwrap();
    }
    if let Some((segment, _)) = lines.get(&(k + 1)) {
        let mut raw = mediums[*segment].raw();
        raw.extend_from_slice(torn.as_bytes());
        mediums[*segment].set_raw(&raw);
    }
    mediums
}

/// XOR branches (guarded and decided), a loop (run and decided),
/// parallel branches, failed activities, drives, batches with failing
/// commands, an ad-hoc change, an evolution with `migrate_all`, a removal.
fn scripted_run(seed: u64) -> Run {
    let mut run = Run::new();
    let order = run.engine.deploy(scenarios::order_process()).unwrap();
    let clinical = run.engine.deploy(scenarios::clinical_pathway()).unwrap();
    let triage_name = run.engine.deploy(triage()).unwrap();
    run.note();
    let o = run.engine.repo.deployed(&order, 1).unwrap().schema;
    let t = run.engine.repo.deployed(&triage_name, 1).unwrap().schema;
    let orders: Vec<_> = (0..3).map(|_| run.create(&order)).collect();
    let patients: Vec<_> = (0..2).map(|_| run.create(&clinical)).collect();
    let case = run.create(&triage_name);
    let amount = o.data_by_name("amount").unwrap().id;

    use EngineCommand::*;
    let id = orders[0];
    let (get, collect) = (node(&o, "get order"), node(&o, "collect data"));
    let (confirm, compose) = (node(&o, "confirm order"), node(&o, "compose order"));
    run.submit(Start {
        instance: id,
        node: get,
    });
    run.submit(Complete {
        instance: id,
        node: get,
        writes: vec![(amount, Value::Int(12))],
    });
    run.submit(Start {
        instance: id,
        node: collect,
    });
    run.submit(FailActivity {
        instance: id,
        node: collect,
        reason: "retry".into(),
    });
    run.batch(vec![
        Start {
            instance: id,
            node: collect,
        },
        Complete {
            instance: id,
            node: collect,
            writes: vec![],
        },
        Start {
            instance: id,
            node: confirm,
        },
        Start {
            instance: id,
            node: compose,
        },
    ]);
    // `confirm order` started before `compose order`: its `Started` goes
    // from the middle of the history.
    run.submit(FailActivity {
        instance: id,
        node: confirm,
        reason: "no stock".into(),
    });
    // A segment whose every command fails journals nothing.
    run.batch(vec![
        Complete {
            instance: id,
            node: confirm,
            writes: vec![],
        },
        Start {
            instance: id,
            node: get,
        },
    ]);
    run.batch(vec![
        Start {
            instance: id,
            node: get,
        },
        Complete {
            instance: id,
            node: compose,
            writes: vec![],
        },
    ]);

    let mut driver = RandomDriver::new(seed);
    let _ = drive_with(&run.engine, orders[1], &mut driver, Some(2));
    run.note();
    let _ = drive_with(&run.engine, patients[0], &mut driver, None);
    run.note();
    let _ = drive_with(&run.engine, patients[1], &mut driver, Some(3));
    run.note();
    // A drive of a finished instance changes nothing and journals nothing.
    let _ = drive_with(&run.engine, patients[0], &mut driver, None);
    run.note();

    let (assess, treat) = (node(&t, "assess"), node(&t, "treat"));
    let review = node(&t, "review");
    let split = node_of_kind(&t, NodeKind::XorSplit);
    let loop_end = node_of_kind(&t, NodeKind::LoopEnd);
    run.submit(Start {
        instance: case,
        node: assess,
    });
    run.submit(Complete {
        instance: case,
        node: assess,
        writes: vec![],
    });
    run.submit(DecideXor {
        instance: case,
        split,
        branch_target: treat,
    });
    run.batch(vec![
        Start {
            instance: case,
            node: treat,
        },
        Complete {
            instance: case,
            node: treat,
            writes: vec![],
        },
        Start {
            instance: case,
            node: review,
        },
        Complete {
            instance: case,
            node: review,
            writes: vec![],
        },
    ]);
    run.submit(DecideLoop {
        instance: case,
        loop_end,
        iterate: true,
    });
    run.submit(Start {
        instance: case,
        node: review,
    });
    run.submit(Complete {
        instance: case,
        node: review,
        writes: vec![],
    });
    run.submit(DecideLoop {
        instance: case,
        loop_end,
        iterate: false,
    });

    adhoc(&run.engine, orders[2], &scenarios::fig1_insert_op(&o)).unwrap();
    run.note();
    let _ = drive_with(&run.engine, orders[2], &mut driver, Some(1));
    run.note();
    evolve(&run.engine, &order, &scenarios::fig1_delta_ops(&o)).unwrap();
    run.note();
    run.engine
        .migrate_all(&order, &MigrationOptions::default(), 1)
        .unwrap();
    run.note();
    for id in &orders {
        let _ = drive_with(&run.engine, *id, &mut driver, Some(1));
        run.note();
    }
    run.engine.remove_instance(orders[1]).unwrap();
    run.note();
    let _ = drive_with(&run.engine, orders[0], &mut driver, None);
    run.note();
    run
}

/// Recovering from every prefix of the journal — and from every prefix
/// plus half of the next line, a crash mid-append — lands on the engine
/// the run had when it had journaled that far, byte for byte, with every
/// instance's data the fold of its history's writes, as the run's own
/// are; a prefix that ends inside `migrate_all` recovers, too.
#[test]
fn a_crash_at_every_record_recovers_what_was_journaled() {
    let run = scripted_run(7);
    let lines = lines_by_seq(&run.mediums);
    let last = run.engine.wal().position();
    assert_eq!(
        lines.keys().copied().collect::<Vec<_>>(),
        (1..=last).collect::<Vec<_>>()
    );
    let deltas = lines
        .values()
        .filter(|(_, l)| {
            matches!(
                decode_entry(l).unwrap().record,
                WalRecord::StateDelta { .. }
            )
        })
        .count();
    assert!(deltas > 20, "{deltas} deltas journaled");
    assert!(
        lines.values().all(|(_, l)| !l.contains("\"StateChanged\"")),
        "no engine path writes a full state image for a command"
    );
    for k in 0..=last {
        let next = lines.get(&(k + 1)).map_or("", |(_, l)| &l[..l.len() / 2]);
        for torn in ["", next] {
            let (engine, report) =
                recovery::recover_from_segmented(None, boxed(&prefix(&lines, k, torn)))
                    .unwrap_or_else(|e| panic!("prefix {k} (+{} torn bytes): {e}", torn.len()));
            assert_eq!(report.last_seq, k);
            assert_eq!(report.torn_tail_bytes, torn.len());
            // A snapshot encodes no data values: comparing snapshots does
            // not see them, this does.
            assert!(every_data_is_its_history(&engine), "prefix {k}");
            if let Some(expected) = run.noted.get(&k) {
                let json = to_json(&engine.snapshot()).unwrap();
                assert_eq!(&json, expected, "prefix {k} (+{} torn bytes)", torn.len());
            }
        }
    }
}

/// `a` writes `amount`; `x ∥ y`; an external XOR (`left` / `right`); an
/// external loop over `body`; a XOR guarded by `amount` (`big` / `small`);
/// a loop over `count` run twice.
fn every_step() -> ProcessSchema {
    let mut b = SchemaBuilder::new("every step");
    let amount = b.data("amount", ValueType::Int);
    let a = b.activity("a");
    b.write(a, amount);
    b.and_split();
    b.branch();
    b.activity("x");
    b.branch();
    b.activity("y");
    b.and_join();
    b.xor_split();
    b.case();
    b.activity("left");
    b.case();
    b.activity("right");
    b.xor_join();
    b.loop_start();
    b.activity("body");
    b.loop_end(LoopCond::External);
    b.xor_split();
    b.case_when(Guard::new(amount, CmpOp::Gt, Value::Int(5)));
    b.activity("big");
    b.case();
    b.activity("small");
    b.xor_join();
    b.loop_start();
    b.activity("count");
    b.loop_end(LoopCond::Times(2));
    b.build().unwrap()
}

/// Every kind of step a command or a drive journals, on a migrated, an
/// unbiased and a biased instance of [`every_step`]: a failure that
/// withdraws `x`'s start from between `y`'s and the rest of the history,
/// the external XOR and loop decided by commands on one instance and by a
/// driver on another, the guarded XOR and the counted loop decided by the
/// executor inside a command and inside a drive. Recovering from every
/// prefix of the journal lands on the engine as it stood there, byte for
/// byte, and on the live engine at the end.
#[test]
fn every_step_kind_recovers_to_the_live_engine() {
    use EngineCommand::*;
    let mut run = Run::new();
    let name = run.engine.deploy(every_step()).unwrap();
    run.note();
    let v1 = run.engine.repo.deployed(&name, 1).unwrap().schema;
    let at = |n: &str| node(&v1, n);
    let amount = v1.data_by_name("amount").unwrap().id;
    let (xor, loop_end) = (
        v1.nodes()
            .find(|n| {
                n.kind == NodeKind::XorSplit && !v1.out_edges(n.id).any(|e| e.guard.is_some())
            })
            .unwrap()
            .id,
        node_of_kind(&v1, NodeKind::LoopEnd),
    );
    let opening = |id: InstanceId, value: i64| {
        let (a, x, y) = (at("a"), at("x"), at("y"));
        vec![
            vec![
                Start {
                    instance: id,
                    node: a,
                },
                Complete {
                    instance: id,
                    node: a,
                    writes: vec![(amount, Value::Int(value))],
                },
            ],
            vec![
                Start {
                    instance: id,
                    node: x,
                },
                Start {
                    instance: id,
                    node: y,
                },
            ],
            vec![FailActivity {
                instance: id,
                node: x,
                reason: "retry".into(),
            }],
            vec![
                Start {
                    instance: id,
                    node: x,
                },
                Complete {
                    instance: id,
                    node: y,
                    writes: vec![],
                },
                Complete {
                    instance: id,
                    node: x,
                    writes: vec![],
                },
            ],
        ]
    };
    let run_all = |run: &mut Run, segments: Vec<Vec<EngineCommand>>| {
        for segment in segments {
            run.all_ok(segment);
        }
    };
    // Migrated: opened on V1, moved to V2, decided by commands and a driver.
    let migrated = run.create(&name);
    run_all(&mut run, opening(migrated, 7));
    let counted_end = v1.nodes().filter(|n| n.kind == NodeKind::LoopEnd).last();
    let late = ChangeOp::SerialInsert {
        activity: NewActivity::named("late"),
        pred: counted_end.unwrap().id,
        succ: v1.end_node(),
    };
    evolve(&run.engine, &name, &[late]).unwrap();
    run.note();
    let report = run
        .engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
    run.note();
    // Unbiased, on V2: every decision a command's, the guarded XOR and the
    // counted loop decided inside them.
    let unbiased = run.create(&name);
    // Biased, on V2: every decision a driver's.
    let biased = run.create(&name);
    let extra = ChangeOp::SerialInsert {
        activity: NewActivity::named("extra"),
        pred: at("body"),
        succ: loop_end,
    };
    adhoc(&run.engine, biased, &extra).unwrap();
    run.note();
    run_all(&mut run, opening(unbiased, 7));
    run_all(&mut run, opening(biased, 3));

    let mut driver = RandomDriver::new(11);
    let (left, body) = (at("left"), at("body"));
    run.all_ok(vec![DecideXor {
        instance: migrated,
        split: xor,
        branch_target: left,
    }]);
    run.all_ok(vec![
        Start {
            instance: migrated,
            node: left,
        },
        Complete {
            instance: migrated,
            node: left,
            writes: vec![],
        },
    ]);
    drive_with(&run.engine, migrated, &mut driver, None).unwrap();
    run.note();

    let decided = vec![
        DecideXor {
            instance: unbiased,
            split: xor,
            branch_target: left,
        },
        Start {
            instance: unbiased,
            node: left,
        },
        Complete {
            instance: unbiased,
            node: left,
            writes: vec![],
        },
    ];
    run.all_ok(decided);
    for iterate in [true, false] {
        run.all_ok(vec![
            Start {
                instance: unbiased,
                node: body,
            },
            Complete {
                instance: unbiased,
                node: body,
                writes: vec![],
            },
        ]);
        run.all_ok(vec![DecideLoop {
            instance: unbiased,
            loop_end,
            iterate,
        }]);
    }
    let (big, count) = (at("big"), at("count"));
    run.all_ok(vec![
        Start {
            instance: unbiased,
            node: big,
        },
        Complete {
            instance: unbiased,
            node: big,
            writes: vec![],
        },
    ]);
    for _ in 0..2 {
        run.all_ok(vec![
            Start {
                instance: unbiased,
                node: count,
            },
            Complete {
                instance: unbiased,
                node: count,
                writes: vec![],
            },
        ]);
    }
    drive_with(&run.engine, unbiased, &mut driver, None).unwrap();
    run.note();
    for _ in 0..4 {
        drive_with(&run.engine, biased, &mut driver, Some(2)).unwrap();
        run.note();
    }
    drive_with(&run.engine, biased, &mut driver, None).unwrap();
    run.note();
    for id in [migrated, unbiased, biased] {
        assert!(run.engine.is_finished(id).unwrap(), "{id}");
    }
    assert!(run.engine.store.get(biased).unwrap().is_biased());
    assert_eq!(run.engine.store.get(migrated).unwrap().version, 2);

    let lines = lines_by_seq(&run.mediums);
    let steps: Vec<Step> = lines
        .values()
        .filter_map(|(_, l)| match decode_entry(l).unwrap().record {
            WalRecord::StateDelta { steps, .. } => Some(steps),
            _ => None,
        })
        .flatten()
        .collect();
    let kind = |s: &Step| match s {
        Step::Start(_) => 0,
        Step::Complete(..) => 1,
        Step::Fail(_) => 2,
        Step::Xor(..) => 3,
        Step::Loop(..) => 4,
    };
    let kinds: std::collections::BTreeSet<usize> = steps.iter().map(kind).collect();
    assert_eq!(kinds, (0..5).collect(), "every kind of step journaled");
    let last = run.engine.wal().position();
    for k in 0..=last {
        let (engine, _) = recovery::recover_from_segmented(None, boxed(&prefix(&lines, k, "")))
            .unwrap_or_else(|e| panic!("prefix {k}: {e}"));
        assert!(every_data_is_its_history(&engine), "prefix {k}");
        if let Some(expected) = run.noted.get(&k) {
            assert_eq!(
                &to_json(&engine.snapshot()).unwrap(),
                expected,
                "prefix {k}"
            );
        }
    }
    let (recovered, report) = recovery::recover_from_segmented(None, boxed(&run.mediums)).unwrap();
    assert!(report.divergent.is_empty(), "{:?}", report.divergent);
    assert_eq!(
        to_json(&recovered.snapshot()).unwrap(),
        to_json(&run.engine.snapshot()).unwrap()
    );
}

/// `order_process` instances on a durable engine over two segments,
/// driven zero to five activities, every third one biased first by an
/// ad-hoc insert after "get order", which re-applies on Fig. 1's ΔT; the
/// type is evolved by that ΔT. The engine, its mediums and the type.
fn hop_population(seed: u64) -> (ProcessEngine, Vec<MemoryBackend>, String) {
    let mediums = vec![MemoryBackend::new(), MemoryBackend::new()];
    let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let check = ChangeOp::SerialInsert {
        activity: NewActivity::named("check customer"),
        pred: node(&v1, "get order"),
        succ: node(&v1, "collect data"),
    };
    let mut driver = RandomDriver::new(seed);
    for k in 0..90usize {
        let id = engine.create_instance(&name).unwrap();
        if k % 3 == 0 {
            adhoc(&engine, id, &check).unwrap();
        }
        let _ = drive_with(&engine, id, &mut driver, Some(k % 6));
    }
    evolve(&engine, &name, &scenarios::fig1_delta_ops(&v1)).unwrap();
    (engine, mediums, name)
}

/// A migration hop journals the hop, and replay runs it again. Under
/// either criterion, an engine recovered from the journal alone, from a
/// snapshot taken part-way through `migrate_all` plus the tail, or from a
/// snapshot whose watermark predates every hop it holds (each replayed hop
/// is then skipped by revision) is the live engine to the byte.
#[test]
fn a_replayed_hop_is_the_live_hop() {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    for trace in [false, true] {
        let options = MigrationOptions {
            use_trace_criterion: trace,
        };
        let mut part_way = 0usize;
        for round in 0..20u64 {
            let (engine, mediums, name) = hop_population(round);
            let before = engine.wal().durable_position();
            let done = AtomicBool::new(false);
            let (report, snapshots) = std::thread::scope(|scope| {
                let migrating = scope.spawn(|| {
                    let report = engine.migrate_all(&name, &options, 2).unwrap();
                    done.store(true, SeqCst);
                    report
                });
                // Paced by the journal: a snapshot only once a hop has been
                // journaled since the last one, so that the snapshots spread
                // over the run however cheap one is.
                let mut taken = Vec::new();
                let mut seen = before;
                while !done.load(SeqCst) && taken.len() < 32 {
                    let now = engine.wal().durable_position();
                    if now == seen {
                        std::thread::yield_now();
                        continue;
                    }
                    seen = now;
                    taken.push(engine.snapshot());
                }
                (migrating.join().unwrap(), taken)
            });
            let migrated_biased = report
                .outcomes
                .iter()
                .filter(|o| o.biased && o.verdict == Verdict::Compliant)
                .count();
            assert!(report.migrated() > migrated_biased && migrated_biased > 0);
            let after = engine.wal().durable_position();
            // Every hop is past this snapshot's watermark and in its store.
            let mut raced = engine.snapshot();
            raced.wal_seq = before;
            let live = to_json(&engine.snapshot()).unwrap();
            drop(engine);

            let hops = lines_by_seq(&mediums)
                .into_values()
                .filter(|(_, l)| {
                    matches!(
                        decode_entry(l).unwrap().record,
                        WalRecord::Migrated { trace: t, .. } if t == trace
                    )
                })
                .count();
            assert_eq!(hops, report.migrated(), "one record per hop");
            let (recovered, _) = recovery::recover_from_segmented(None, boxed(&mediums)).unwrap();
            assert_eq!(to_json(&recovered.snapshot()).unwrap(), live);
            for snap in snapshots.iter().chain([&raced]) {
                let (recovered, _) = recovery::recover_from_segmented(Some(snap), boxed(&mediums))
                    .unwrap_or_else(|e| panic!("snapshot at watermark {}: {e}", snap.wal_seq));
                assert_eq!(
                    to_json(&recovered.snapshot()).unwrap(),
                    live,
                    "snapshot at watermark {} (hops from {before} to {after})",
                    snap.wal_seq
                );
            }
            part_way += snapshots
                .iter()
                .filter(|s| before < s.wal_seq && s.wal_seq < after)
                .count();
            if part_way > 0 {
                break;
            }
        }
        assert!(
            part_way > 0,
            "no snapshot was taken part-way through migrate_all"
        );
    }
}

/// Two writers run commands — creations and removals among them — while
/// the main thread takes snapshots. Each snapshot reads the journal's
/// watermark before the store, with no barrier, so it can hold changes
/// journaled past it; recovering from it plus the whole log must still
/// land on the final engine: what it holds is skipped by revision, never
/// applied twice. The test insists the race happened.
#[test]
fn snapshots_under_traffic_recover_to_the_live_engine() {
    let mut ahead = 0usize;
    for round in 0..20u64 {
        let mediums = vec![MemoryBackend::new(), MemoryBackend::new()];
        let engine = ProcessEngine::with_segmented_wal(boxed(&mediums)).unwrap();
        let name = engine.deploy(scenarios::order_process()).unwrap();
        let writing = std::sync::atomic::AtomicUsize::new(2);
        let snapshots: Vec<Snapshot> = std::thread::scope(|scope| {
            for writer in 0..2u64 {
                let (engine, name, writing) = (&engine, &name, &writing);
                scope.spawn(move || {
                    let mut driver = RandomDriver::new(round * 2 + writer);
                    let mut mine: Vec<InstanceId> = Vec::new();
                    for step in 0..150usize {
                        if mine.len() < 6 || step % 11 == 0 {
                            mine.push(engine.create_instance(name).unwrap());
                        }
                        let id = mine[step % mine.len()];
                        let _ = drive_with(engine, id, &mut driver, Some(1));
                        if step % 17 == 16 {
                            engine.remove_instance(mine.remove(0)).unwrap();
                        }
                    }
                    writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                });
            }
            let mut taken = Vec::new();
            while writing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                taken.push(engine.snapshot());
            }
            taken
        });
        let final_json = to_json(&engine.snapshot()).unwrap();
        drop(engine);

        let entries: Vec<WalEntry> = lines_by_seq(&mediums)
            .into_values()
            .map(|(_, line)| decode_entry(&line).unwrap())
            .collect();
        for snap in &snapshots {
            let revs: BTreeMap<InstanceId, u64> =
                snap.instances.iter().map(|r| (r.id, r.rev)).collect();
            ahead += entries
                .iter()
                .filter(|e| {
                    matches!(&e.record, WalRecord::StateDelta { id, base_rev, .. }
                    if e.seq > snap.wal_seq && revs.get(id).is_some_and(|rev| rev > base_rev))
                })
                .count();
            let (recovered, _) = recovery::recover_from_segmented(Some(snap), boxed(&mediums))
                .unwrap_or_else(|e| panic!("snapshot at watermark {}: {e}", snap.wal_seq));
            assert_eq!(
                to_json(&recovered.snapshot()).unwrap(),
                final_json,
                "snapshot at watermark {}",
                snap.wal_seq
            );
        }
        if ahead > 0 {
            return;
        }
    }
    panic!("no snapshot ran ahead of its watermark in 20 rounds");
}

/// A short durable log: a type, an instance, and the delta of one
/// `Start` — its lines, and the delta's entry to take apart.
fn started_log() -> (Vec<String>, WalEntry) {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let id = engine.create_instance(&name).unwrap();
    let schema = engine.repo.deployed(&name, 1).unwrap().schema;
    let get = node(&schema, "get order");
    engine
        .submit(EngineCommand::Start {
            instance: id,
            node: get,
        })
        .unwrap();
    let lines = medium.read_log().unwrap().lines;
    let delta = decode_entry(lines.last().unwrap()).unwrap();
    assert!(matches!(
        delta.record,
        WalRecord::StateDelta { base_rev: 0, .. }
    ));
    (lines, delta)
}

/// The instances of [`migrated_log`], each with its revision.
struct Hops {
    /// The journaled hop of `compliant`, taken out of the log.
    genuine: WalEntry,
    /// Unbiased, on V1, compliant with V2.
    compliant: (InstanceId, u64),
    /// Finished on V1, which V2's insert would reopen: not compliant.
    finished: (InstanceId, u64),
    /// Biased by an insert on the edge V2's insert takes: its bias does
    /// not re-apply on V2.
    clashing: (InstanceId, u64),
    /// Biased by Fig. 1's sync edge of I2, which would close a
    /// deadlock-causing cycle with V2's: its bias does not re-apply on V2.
    cyclic: (InstanceId, u64),
    /// An instance of a type with no V2.
    other_type: (InstanceId, u64),
}

/// A short durable log: `order_process` evolved by Fig. 1's ΔT, with an
/// instance that migrates and three that `migrate_all` refuses, and an
/// instance of a second type — its lines without the one hop journaled,
/// and the instances.
fn migrated_log() -> (Vec<String>, Hops) {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let other = engine.deploy(triage()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let [compliant, finished, clashing, cyclic] =
        [(); 4].map(|_| engine.create_instance(&name).unwrap());
    let other_type = engine.create_instance(&other).unwrap();
    drive_with(&engine, finished, &mut RandomDriver::new(1), None).unwrap();
    assert!(engine.is_finished(finished).unwrap());
    let clash = ChangeOp::SerialInsert {
        activity: NewActivity::named("check again"),
        pred: node(&v1, "compose order"),
        succ: node(&v1, "pack goods"),
    };
    adhoc(&engine, clashing, &clash).unwrap();
    adhoc(&engine, cyclic, &scenarios::fig1_i2_bias_op(&v1)).unwrap();
    evolve(&engine, &name, &scenarios::fig1_delta_ops(&v1)).unwrap();
    let before = engine.wal().position();
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
    let refusal = |id: InstanceId| {
        let outcome = report.outcomes.iter().find(|o| o.instance == id).unwrap();
        match &outcome.verdict {
            Verdict::NotCompliant(c) => c.reason.clone(),
            Verdict::Compliant => panic!("{id} migrated"),
        }
    };
    refusal(finished);
    assert!(refusal(clashing).contains("cannot be re-applied"));
    assert!(refusal(cyclic).contains("deadlock-causing cycle"));
    let mut lines = medium.read_log().unwrap().lines;
    assert_eq!(lines.len() as u64, before + 1, "one hop journaled");
    let genuine = decode_entry(&lines.pop().unwrap()).unwrap();
    let rev = |id: InstanceId| (id, engine.store.get(id).unwrap().rev);
    let compliant = (compliant, rev(compliant).1 - 1);
    assert_eq!(
        genuine.record,
        WalRecord::Migrated {
            id: compliant.0,
            base_rev: compliant.1,
            to: 2,
            trace: false,
        }
    );
    let hops = Hops {
        genuine,
        compliant,
        finished: rev(finished),
        clashing: rev(clashing),
        cyclic: rev(cyclic),
        other_type: rev(other_type),
    };
    (lines, hops)
}

/// Recovers from `lines` followed by `entry`.
fn recover_with(lines: &[String], entry: &WalEntry) -> Result<ProcessEngine, EngineError> {
    recover_with_line(lines, &encode_entry(entry).unwrap())
}

/// Recovers from `lines` followed by `line`.
fn recover_with_line(lines: &[String], line: &str) -> Result<ProcessEngine, EngineError> {
    let medium = MemoryBackend::new();
    for line in lines {
        medium.append_line(line).unwrap();
    }
    medium.append_line(line).unwrap();
    recovery::recover_from_segmented(None, vec![Box::new(medium)]).map(|(engine, _)| engine)
}

fn is_corrupt(result: Result<ProcessEngine, EngineError>) -> bool {
    matches!(
        result,
        Err(EngineError::Storage(StorageError::Corrupt { .. }))
    )
}

/// Steps that decode but that the executor refuses on the state they name
/// end recovery as corruption, never in a panic — and so do a revision gap,
/// a record of no steps, a step record of an instance nothing created and a
/// line of the retired form, which recorded a command as the difference of
/// two states; the genuine record still recovers.
#[test]
fn hostile_step_lines_are_corrupt() {
    let (mut lines, genuine) = started_log();
    lines.pop();
    assert!(recover_with(&lines, &genuine).is_ok());
    let WalRecord::StateDelta {
        id,
        base_rev,
        steps,
    } = genuine.record.clone()
    else {
        unreachable!()
    };
    let [Step::Start(get)] = steps[..] else {
        panic!("the start of one activity journaled {steps:?}")
    };
    let schema = scenarios::order_process();
    let (collect, amount) = (
        node(&schema, "collect data"),
        schema.data_by_name("amount").unwrap().id,
    );
    let with = |base_rev: u64, steps: Vec<Step>| WalEntry {
        seq: genuine.seq,
        record: WalRecord::StateDelta {
            id,
            base_rev,
            steps,
        },
    };
    let completed =
        |writes: Vec<(DataId, Value)>| vec![Step::Start(get), Step::Complete(get, writes)];
    let hostile = [
        (
            "an unknown node",
            with(base_rev, vec![Step::Start(NodeId(4_242))]),
        ),
        (
            "a completion of a node that is not running",
            with(base_rev, vec![Step::Complete(collect, vec![])]),
        ),
        (
            "an undeclared write",
            with(base_rev, completed(vec![(DataId(4_242), Value::Int(1))])),
        ),
        (
            "a mistyped write",
            with(
                base_rev,
                completed(vec![(amount, Value::Str("twelve".into()))]),
            ),
        ),
        ("a write missing", with(base_rev, completed(vec![]))),
        (
            "a failure of a node that is not running",
            with(base_rev, vec![Step::Fail(get)]),
        ),
        (
            "an XOR decision with none pending",
            with(base_rev, vec![Step::Xor(get, collect)]),
        ),
        (
            "a loop decision with none pending",
            with(base_rev, vec![Step::Loop(get, true)]),
        ),
        ("a record of no steps", with(base_rev, vec![])),
        ("a revision gap", with(base_rev + 1, steps.clone())),
        (
            "an instance nothing created",
            WalEntry {
                seq: genuine.seq,
                record: WalRecord::StateDelta {
                    id: InstanceId(99),
                    base_rev,
                    steps,
                },
            },
        ),
    ];
    let retired = format!(
        r#"{{"seq":{},"record":{{"StateDelta":{{"id":{},"base_rev":{base_rev},"delta":{{"nodes":{{"Running":[{}]}},"edges":{{}},"loops":[],"keep":0,"history":[{{"Started":[{},[]]}}]}}}}}}}}"#,
        genuine.seq,
        id.raw(),
        get.0,
        get.0
    );
    let outcome = std::panic::catch_unwind(|| recover_with_line(&lines, &retired));
    let result = outcome.unwrap_or_else(|_| panic!("a retired line: recovery panicked"));
    assert!(is_corrupt(result), "a retired line");
    let (hop_lines, hops) = migrated_log();
    assert!(recover_with(&hop_lines, &hops.genuine).is_ok());
    let hop = |id: InstanceId, base_rev: u64, to: u32| WalEntry {
        seq: hops.genuine.seq,
        record: WalRecord::Migrated {
            id,
            base_rev,
            to,
            trace: false,
        },
    };
    let (a, a_rev) = hops.compliant;
    let (finished, finished_rev) = hops.finished;
    let (clashing, clashing_rev) = hops.clashing;
    let (cyclic, cyclic_rev) = hops.cyclic;
    let (other, other_rev) = hops.other_type;
    let hostile_hops = [
        ("a hop from a revision ahead", hop(a, a_rev + 1, 2)),
        ("a hop onto the version it is on", hop(a, a_rev, 1)),
        ("a hop past the next version", hop(a, a_rev, 3)),
        ("a hop onto version 0", hop(a, a_rev, 0)),
        ("a hop onto the last version", hop(a, a_rev, u32::MAX)),
        (
            "a hop onto a version not deployed",
            hop(other, other_rev, 2),
        ),
        ("a hop judged not compliant", hop(finished, finished_rev, 2)),
        (
            "a bias that no longer re-applies",
            hop(clashing, clashing_rev, 2),
        ),
        (
            "a bias that would close a cycle",
            hop(cyclic, cyclic_rev, 2),
        ),
        (
            "a hop of an instance nothing created",
            hop(InstanceId(99), 0, 2),
        ),
    ];
    let rows = hostile
        .into_iter()
        .map(|(what, entry)| (what, &lines, entry));
    let hop_rows = hostile_hops.into_iter().map(|(w, e)| (w, &hop_lines, e));
    for (what, lines, entry) in rows.chain(hop_rows) {
        let outcome = std::panic::catch_unwind(|| recover_with(lines, &entry));
        let result = outcome.unwrap_or_else(|_| panic!("{what}: recovery panicked"));
        assert!(is_corrupt(result), "{what}");
    }
}

/// A hop is journaled with the criterion that judged it and replays by it.
/// The per-operation conditions refuse to move an activity that has run,
/// where the trace criterion accepts the move if the recorded order fits
/// the new schema: such a hop recovers, and the same record claiming the
/// per-operation conditions is corruption.
#[test]
fn a_hop_replays_by_the_criterion_that_judged_it() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    let at = |n: &str| node(&v1, n);
    let amount = v1.data_by_name("amount").unwrap().id;
    let id = engine.create_instance(&name).unwrap();
    for n in [
        "get order",
        "collect data",
        "compose order",
        "confirm order",
    ] {
        let writes = if n == "get order" {
            vec![(amount, Value::Int(3))]
        } else {
            vec![]
        };
        let (instance, node) = (id, at(n));
        engine
            .submit(EngineCommand::Start { instance, node })
            .unwrap();
        let complete = EngineCommand::Complete {
            instance,
            node,
            writes,
        };
        engine.submit(complete).unwrap();
    }
    // "confirm order" ran after "compose order": moved between it and
    // "pack goods", the history still fits.
    let moved = ChangeOp::MoveActivity {
        node: at("confirm order"),
        pred: at("compose order"),
        succ: at("pack goods"),
    };
    evolve(&engine, &name, &[moved]).unwrap();
    let delta = engine.repo.delta_between(&name, 1).unwrap();
    assert!(!engine.check_compliance(id, &delta).unwrap().is_compliant());
    let trace = MigrationOptions {
        use_trace_criterion: true,
    };
    let report = engine.migrate_all(&name, &trace, 1).unwrap();
    assert_eq!(report.migrated(), 1, "{report}");
    let live = to_json(&engine.snapshot()).unwrap();

    let mut lines = medium.read_log().unwrap().lines;
    let hop = decode_entry(&lines.pop().unwrap()).unwrap();
    let WalRecord::Migrated {
        id, base_rev, to, ..
    } = hop.record
    else {
        panic!("the last record is not the hop: {hop:?}")
    };
    assert_eq!(
        hop.record,
        WalRecord::Migrated {
            id,
            base_rev,
            to,
            trace: true
        }
    );
    let recovered = recover_with(&lines, &hop).unwrap();
    assert_eq!(to_json(&recovered.snapshot()).unwrap(), live);
    let fast = WalEntry {
        seq: hop.seq,
        record: WalRecord::Migrated {
            id,
            base_rev,
            to,
            trace: false,
        },
    };
    assert!(is_corrupt(recover_with(&lines, &fast)));
}

/// A state record of an instance that was never created has no
/// explanation: corruption, not a silently dropped change — the full-image
/// record included, which replay still reads.
#[test]
fn a_state_record_of_an_instance_never_created_is_corrupt() {
    let (lines, genuine) = started_log();
    let state = adept_state::InstanceState::default();
    let stray = WalEntry {
        seq: genuine.seq + 1,
        record: WalRecord::StateChanged {
            id: InstanceId(99),
            state,
        },
    };
    assert!(is_corrupt(recover_with(&lines, &stray)));
}

/// The one legitimate orphan: a snapshot that raced a removal no longer
/// holds the instance whose last changes its tail replays — a command's
/// delta and a migration hop — and the removal later in the tail explains
/// them.
#[test]
fn a_snapshot_that_raced_a_removal_recovers_with_an_orphan() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let keep = engine.create_instance(&name).unwrap();
    let gone = engine.create_instance(&name).unwrap();
    let watermark = engine.wal().durable_position();
    let mut driver = RandomDriver::new(5);
    drive_with(&engine, gone, &mut driver, Some(1)).unwrap();
    drive_with(&engine, keep, &mut driver, Some(1)).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap().schema;
    evolve(&engine, &name, &[scenarios::fig1_insert_op(&v1)]).unwrap();
    let report = engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    assert_eq!(report.migrated(), 2, "{report}");
    engine.remove_instance(gone).unwrap();
    // The watermark read before the drives, the store after the removal.
    let mut raced = engine.snapshot();
    raced.wal_seq = watermark;
    let final_json = to_json(&engine.snapshot()).unwrap();
    drop(engine);

    let (recovered, report) =
        recovery::recover_from_segmented(Some(&raced), vec![Box::new(medium)]).unwrap();
    assert_eq!(report.orphaned, 2);
    assert_eq!(to_json(&recovered.snapshot()).unwrap(), final_json);
}
