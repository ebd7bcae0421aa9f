//! The traced pass: spans around every engine call, then the workload's own
//! inputs replayed through each layer's public functions in isolation.
//!
//! Attribution by replay from outside: the journal lines the repetition
//! wrote are decoded, re-encoded and re-appended; the instance states they
//! carry go through the instance store; the events the outcomes reported go
//! through a monitor; the schema and driver through the executors; the
//! planned operations through apply, verify, compliance and state adaptation;
//! the checkpoint through the snapshot codec. Timers inside the command path
//! are a later change and will be checked against these rows.

use crate::calib::Host;
use crate::plan::{Plan, Workload};
use crate::stats::{admissible_percentile, median, percentile, Better};
use crate::trace::{by_name, write_json, Span, Tracer};
use crate::workloads::{self, value_of, Captured, Mode, Rep};
use crate::Args;
use adept_core::{adapt_instance_state, apply_op, check_fast, Delta};
use adept_engine::Monitor;
use adept_model::{Blocks, CompiledSchema, InstanceId, ProcessSchema};
use adept_simgen::RandomDriver;
use adept_state::{CompiledExecution, DefaultDriver, Driver, Execution, InstanceState};
use adept_storage::wal::{decode_entry, encode_entry};
use adept_storage::{
    from_json, restore_with_txns, snapshot_with_txns, to_json, FileBackend, InstanceStore,
    Representation, SchemaRepository, StorageBackend, SyncPolicy, WalEntry, WalRecord,
    WriteAheadLog,
};
use adept_verify::verify_schema;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct LayerValue {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

use Better::{Higher, Lower};

/// Every per-layer metric with its unit and direction (mirrored in
/// `../BENCHMARK.json`). The traced pass reports exactly these, in this
/// order, on every workload.
pub const PER_LAYER: [(&str, &str, Better); 67] = [
    ("model.compile_us", "us", Lower),
    ("model.blocks_analyze_us", "us", Lower),
    ("state.run_us_per_instance", "us", Lower),
    ("state.run_interp_us_per_instance", "us", Lower),
    ("state.step_us", "us", Lower),
    ("verify.schema_us", "us", Lower),
    ("core.apply_op_us", "us", Lower),
    ("core.compliance_check_us", "us", Lower),
    ("core.adapt_state_us", "us", Lower),
    ("storage.wal.records_per_instance", "count", Lower),
    ("storage.wal.bytes_per_record", "B", Lower),
    ("storage.wal.encode_us_per_record", "us", Lower),
    ("storage.wal.append_us_per_record", "us", Lower),
    ("storage.wal.decode_us_per_record", "us", Lower),
    ("storage.wal.sync_us", "us", Lower),
    ("storage.backend.append_us_per_record.never", "us", Lower),
    (
        "storage.backend.append_us_per_record.interval64",
        "us",
        Lower,
    ),
    ("storage.backend.append_us_per_record.always", "us", Lower),
    ("storage.backend.sync_us", "us", Lower),
    ("storage.backend.read_log_us_per_record", "us", Lower),
    ("storage.instances.insert_us", "us", Lower),
    ("storage.instances.update_us", "us", Lower),
    ("storage.instances.read_us", "us", Lower),
    ("storage.repo.deployed_us", "us", Lower),
    ("storage.repo.schema_of_us", "us", Lower),
    ("storage.persist.snapshot_us_per_instance", "us", Lower),
    ("storage.persist.restore_us_per_instance", "us", Lower),
    ("engine.command.create_us_p50", "us", Lower),
    ("engine.command.drive_us_p50", "us", Lower),
    ("engine.command.step_us_p50", "us", Lower),
    ("engine.command.p99_us", "us", Lower),
    ("engine.command.nondurable_us_per_instance", "us", Lower),
    ("engine.command.share.exec", "ratio", Lower),
    ("engine.command.share.wal", "ratio", Lower),
    ("engine.command.share.store", "ratio", Lower),
    ("engine.command.share.monitor", "ratio", Lower),
    ("engine.command.residual_share", "ratio", Lower),
    ("engine.ctx.resolve_hit_us", "us", Lower),
    ("engine.ctx.resolve_miss_us", "us", Lower),
    ("engine.worklist.full_read_us_per_instance", "us", Lower),
    ("engine.worklist.delta_poll_us_p50", "us", Lower),
    ("engine.worklist.delta_items_per_poll", "count", Lower),
    ("engine.worklist.role_read_us", "us", Lower),
    ("engine.monitor.record_us_per_event", "us", Lower),
    ("engine.monitor.events_per_instance", "count", Lower),
    ("engine.monitor.cursor_poll_us_p50", "us", Lower),
    ("engine.monitor.cursor_lag_events_max", "count", Lower),
    ("engine.monitor.lag_errors", "count", Lower),
    ("engine.session.stage_us", "us", Lower),
    ("engine.session.preview_us", "us", Lower),
    ("engine.session.commit_us", "us", Lower),
    ("engine.session.change_p99_us", "us", Lower),
    ("engine.session.refused_share", "ratio", Lower),
    ("engine.migrate.us_per_instance", "us", Lower),
    ("engine.migrate.migrated_share", "ratio", Higher),
    ("engine.recovery.us_per_record", "us", Lower),
    ("engine.recovery.replayed", "count", Lower),
    ("engine.recovery.skipped", "count", Lower),
    ("engine.recovery.orphaned", "count", Lower),
    ("engine.recovery.divergent", "count", Lower),
    ("adapt.tick_us_p50", "us", Lower),
    ("adapt.commit_share", "ratio", Higher),
    ("adapt.contested", "count", Lower),
    ("harness.rep_spread", "ratio", Lower),
    ("harness.trace_overhead_share", "ratio", Lower),
    ("harness.generator_us_per_op", "us", Lower),
    ("harness.load_avg_start", "count", Lower),
];

/// The measured rows in table order, with the table's units; a row the pass
/// could not measure (a failed repetition) reads 0.
fn in_table_order(rows: Vec<(&'static str, f64)>) -> Vec<LayerValue> {
    for (measured, _) in &rows {
        assert!(
            PER_LAYER.iter().any(|(name, ..)| name == measured),
            "{measured} is not in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| LayerValue {
            name,
            unit,
            value: rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1),
        })
        .collect()
}

/// Inputs a replay row works through at most (keeps the replay within its
/// fifth of the run; the per-unit figures do not depend on it).
const SAMPLE: usize = 4_000;
/// `fsync` per append costs two orders of magnitude more: fewer lines.
const SAMPLE_ALWAYS: usize = 200;

pub fn load_avg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Microseconds per unit of `f` run over `items`.
fn us_per<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> f64 {
    let mut n = 0u64;
    let t = Instant::now();
    for item in items {
        f(item);
        n += 1;
    }
    t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

fn span_us(spans: &[Span], name: &str) -> Vec<f32> {
    let mut v: Vec<f32> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f32 / 1e3)
        .collect();
    v.sort_unstable_by(f32::total_cmp);
    v
}

fn p50(sorted: &[f32]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, 0.5)
    }
}

fn mean(v: &[f32]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().map(|x| f64::from(*x)).sum::<f64>() / v.len() as f64
    }
}

/// The driver a workload's instances run with: the engine's default on the
/// order process, seeded decisions and outputs elsewhere (the clinical
/// pathway loops until a lab result comes back good, which the default
/// driver's outputs never are).
fn driver_for(workload: Workload, seed: u64) -> Box<dyn Driver> {
    match workload {
        Workload::Lifecycle | Workload::Recovery => Box::new(DefaultDriver),
        Workload::ChangeHeavy | Workload::InteractiveMixed => Box::new(RandomDriver::new(seed)),
    }
}

/// Unit costs of the executor-side layers, as the replay measured them.
struct Executors {
    compiled_us_per_step: f64,
    interp_us_per_step: f64,
    verify_us: f64,
    analyze_us: f64,
}

/// An evenly strided sample of at most `n` of `items`: journal records grow
/// with an instance's history, so the first `n` would not be typical.
fn strided<T>(items: &[T], n: usize) -> impl Iterator<Item = &T> {
    let step = items.len().div_ceil(n.max(1)).max(1);
    items.iter().step_by(step)
}

struct Replay<'a> {
    plan: &'a Plan,
    scratch: &'a Path,
    out: Vec<(&'static str, f64)>,
}

impl Replay<'_> {
    fn push(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// `model.*`, `state.*`, `verify.*`: the workload's first schema, its
    /// driver, and the same schema with the ad-hoc tail insertion applied
    /// (what a biased instance runs on, interpreted). Returns what the
    /// attribution needs: compiled and interpreted cost per completed
    /// activity, one verification, one block analysis.
    fn executors(&mut self) -> Executors {
        let t = &self.plan.types[0];
        let schema = &t.schema;
        let workload = self.plan.workload;
        let analyze = us_per(0..200, |_| {
            black_box(Blocks::analyze(black_box(schema)).expect("a verified schema has blocks"));
        });
        let blocks = Blocks::analyze(schema).expect("a verified schema has blocks");
        let compile = us_per(0..200, |_| {
            black_box(CompiledSchema::compile(black_box(schema), &blocks));
        });
        let verify = us_per(0..200, |_| {
            black_box(verify_schema(black_box(schema)));
        });
        self.push("model.blocks_analyze_us", analyze);
        self.push("model.compile_us", compile);
        self.push("verify.schema_us", verify);

        let arena = CompiledSchema::compile(schema, &blocks);
        let cex = CompiledExecution::new(schema, &arena);
        let mut activities = 0usize;
        let run = us_per(0..SAMPLE as u64, |k| {
            let mut st = cex.init().expect("init");
            let mut driver = driver_for(workload, self.plan.seed ^ k);
            activities += cex
                .run(&mut st, driver.as_mut(), None)
                .expect("a driven run finishes");
            black_box(st);
        });
        self.push("state.run_us_per_instance", run);

        let mut biased = schema.clone();
        apply_op(&mut biased, &t.tail_insert).expect("the tail insertion applies");
        let ex = Execution::new(&biased).expect("the biased schema has blocks");
        let mut interp_activities = 0usize;
        let interp = us_per(0..(SAMPLE / 4) as u64, |k| {
            let mut st = ex.init().expect("init");
            let mut driver = driver_for(workload, self.plan.seed ^ k);
            interp_activities += ex
                .run(&mut st, driver.as_mut(), None)
                .expect("a driven run finishes");
            black_box(st);
        });
        self.push("state.run_interp_us_per_instance", interp);

        // Single verbs: start and complete the first enabled activity.
        let mut states: Vec<InstanceState> =
            (0..SAMPLE).map(|_| cex.init().expect("init")).collect();
        let mut steps = 0u64;
        let t0 = Instant::now();
        for (k, st) in states.iter_mut().enumerate() {
            for _ in 0..2 {
                let Some(&node) = cex.enabled(st).first() else {
                    break;
                };
                let writes = t.writes.get(&node).map_or_else(Vec::new, |outs| {
                    outs.iter()
                        .map(|&(d, ty)| (d, value_of(ty, k as u64)))
                        .collect()
                });
                cex.start_activity(st, node)
                    .expect("an enabled activity starts");
                cex.complete_activity(st, node, writes)
                    .expect("a started activity completes");
                steps += 1;
            }
        }
        self.push(
            "state.step_us",
            t0.elapsed().as_secs_f64() * 1e6 / steps.max(1) as f64,
        );
        Executors {
            compiled_us_per_step: run * SAMPLE as f64 / activities.max(1) as f64,
            interp_us_per_step: interp * (SAMPLE / 4) as f64 / interp_activities.max(1) as f64,
            verify_us: verify,
            analyze_us: analyze,
        }
    }

    /// `core.*`: the type's planned evolution against states the journal
    /// recorded. Returns `(apply + verify, compliance, adapt)` per instance.
    fn change_core(&mut self, states: &[InstanceState]) -> (f64, f64, f64) {
        let t = &self.plan.types[0];
        let old = &t.schema;
        let old_blocks = Blocks::analyze(old).expect("blocks");
        let mut evolved = old.clone();
        let delta: Delta = t
            .evolution
            .iter()
            .map(|op| apply_op(&mut evolved, op).expect("the planned evolution applies"))
            .collect();
        let mut clones: Vec<ProcessSchema> = (0..200).map(|_| old.clone()).collect();
        let apply = us_per(clones.iter_mut(), |s| {
            black_box(apply_op(s, &t.evolution[0]).expect("applies"));
        });
        self.push("core.apply_op_us", apply);
        let new_ex = Execution::new(&evolved).expect("the evolved schema has blocks");
        let mut compliant: Vec<InstanceState> = Vec::new();
        let check = us_per(states.iter(), |st| {
            if check_fast(old, &old_blocks, st, &delta).is_compliant() {
                compliant.push(st.clone());
            }
        });
        // The clone of a compliant state rides in the row above; measure it
        // alone and take it out.
        let clone_cost = us_per(states.iter(), |st| {
            black_box(st.clone());
        }) * compliant.len() as f64
            / states.len().max(1) as f64;
        let check = (check - clone_cost).max(0.0);
        self.push("core.compliance_check_us", check);
        let adapt = us_per(compliant.iter_mut(), |st| {
            adapt_instance_state(old, &old_blocks, &new_ex, &delta, st)
                .expect("a compliant state adapts");
        });
        self.push("core.adapt_state_us", adapt);
        (apply, check, adapt)
    }

    /// `storage.wal.*`, `storage.backend.*`: the journal lines read back,
    /// decoded, re-encoded and re-appended. Returns the decoded entries.
    fn journal(&mut self, lines: &[String], population: u64) -> (Vec<WalEntry>, f64) {
        let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        self.push(
            "storage.wal.records_per_instance",
            lines.len() as f64 / population as f64,
        );
        self.push(
            "storage.wal.bytes_per_record",
            bytes as f64 / lines.len().max(1) as f64,
        );
        let mut entries: Vec<WalEntry> = Vec::with_capacity(lines.len());
        let decode = us_per(lines.iter(), |l| {
            entries.push(decode_entry(l).expect("the journal the engine wrote decodes"));
        });
        self.push("storage.wal.decode_us_per_record", decode);
        entries.sort_unstable_by_key(|e| e.seq);
        let sample: Vec<&WalEntry> = strided(&entries, SAMPLE).collect();
        let encode = us_per(sample.iter(), |e| {
            black_box(encode_entry(e).expect("encodes"));
        });
        self.push("storage.wal.encode_us_per_record", encode);

        let records: Vec<WalRecord> = sample.iter().map(|e| e.record.clone()).collect();
        let wal = WriteAheadLog::create_segmented(FileBackend::segments(
            self.scratch.join("replay.wal"),
            crate::sut::WAL_SEGMENTS,
            crate::sut::FLUSH_POLICY,
        ))
        .expect("a fresh journal opens");
        let append = us_per(records, |r| {
            wal.append(r).expect("appends");
        });
        self.push("storage.wal.append_us_per_record", append);

        let backend_row = |name: &'static str, policy: SyncPolicy, n: usize| {
            let backend = FileBackend::with_policy(self.scratch.join(name), policy);
            let per = us_per(strided(lines, n), |l| {
                backend.append_line(l).expect("appends");
            });
            (backend, per)
        };
        let (never, never_us) = backend_row("never.log", SyncPolicy::Never, SAMPLE);
        let (_, interval_us) = backend_row("interval.log", SyncPolicy::Interval(64), SAMPLE);
        let (_, always_us) = backend_row("always.log", SyncPolicy::Always, SAMPLE_ALWAYS);
        self.push("storage.backend.append_us_per_record.never", never_us);
        self.push(
            "storage.backend.append_us_per_record.interval64",
            interval_us,
        );
        self.push("storage.backend.append_us_per_record.always", always_us);
        let t = Instant::now();
        never.sync().expect("syncs");
        self.push("storage.backend.sync_us", t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let read = never.read_log().expect("reads back");
        self.push(
            "storage.backend.read_log_us_per_record",
            t.elapsed().as_secs_f64() * 1e6 / read.lines.len().max(1) as f64,
        );
        (entries, append)
    }

    /// `storage.instances.*`, `storage.repo.*`: the recorded states through
    /// a fresh store. Returns `(insert, update)` and the states seen.
    fn store(&mut self, entries: &[WalEntry]) -> (f64, f64, f64, Vec<InstanceState>) {
        let repo = SchemaRepository::new();
        for t in &self.plan.types {
            repo.deploy(t.schema.clone()).expect("deploys");
        }
        let store = InstanceStore::new(Representation::Hybrid);
        // Every creation (an update needs its instance), a strided sample
        // of the state changes, the first few hundred committed changes.
        let mut created: Vec<(InstanceId, String, u32, InstanceState)> = Vec::new();
        let mut all_changed: Vec<(InstanceId, &InstanceState)> = Vec::new();
        let mut biased = Vec::new();
        for e in entries {
            match &e.record {
                WalRecord::Created {
                    id,
                    type_name,
                    version,
                    state,
                } => {
                    created.push((*id, type_name.clone(), *version, state.clone()));
                }
                WalRecord::StateChanged { id, state } => all_changed.push((*id, state)),
                WalRecord::ChangeCommitted { record, .. } if biased.len() < SAMPLE / 8 => {
                    biased.push(record.clone());
                }
                _ => {}
            }
        }
        let changed: Vec<(InstanceId, InstanceState)> = strided(&all_changed, SAMPLE)
            .map(|(id, st)| (*id, (*st).clone()))
            .collect();
        // `core.*` replays the first type's evolution: its instances' states.
        let first_type = &self.plan.types[0].schema.name;
        let of_first_type: std::collections::BTreeSet<InstanceId> = created
            .iter()
            .filter(|c| &c.1 == first_type)
            .map(|c| c.0)
            .collect();
        let states: Vec<InstanceState> = changed
            .iter()
            .filter(|(id, _)| of_first_type.contains(id))
            .map(|c| c.1.clone())
            .collect();
        let ids: Vec<InstanceId> = created.iter().map(|c| c.0).collect();
        let insert = us_per(created, |(id, name, version, state)| {
            store.insert_new(id, &name, version, state);
        });
        let update = us_per(changed, |(id, state)| {
            store.update(id, |inst| inst.state = state);
        });
        let read = us_per(ids.iter(), |id| {
            black_box(store.with_instance(*id, |inst| inst.state.history.len()));
        });
        self.push("storage.instances.insert_us", insert);
        self.push("storage.instances.update_us", update);
        self.push("storage.instances.read_us", read);
        let name = &self.plan.types[0].schema.name;
        let deployed = us_per(0..SAMPLE, |_| {
            black_box(repo.deployed(black_box(name), 1));
        });
        self.push("storage.repo.deployed_us", deployed);
        // The schema an instance runs on: first resolution of each biased
        // instance the journal holds (the overlay is built), else of plain ones.
        let probe: Vec<InstanceId> = if biased.is_empty() {
            ids
        } else {
            biased
                .into_iter()
                .filter(|r| r.version == 1)
                .map(|r| {
                    let id = r.id;
                    store.insert_restored(r.into_stored());
                    id
                })
                .collect()
        };
        let schema_of = us_per(probe.iter(), |id| {
            black_box(store.schema_of(&repo, *id));
        });
        self.push("storage.repo.schema_of_us", schema_of);
        (insert, update, schema_of, states)
    }

    /// `engine.monitor.record_us_per_event`: the outcome events through a
    /// fresh monitor, one `record_all` per command as the engine does.
    fn monitor(&mut self, outcome_events: &[Vec<adept_engine::EngineEvent>]) -> f64 {
        let monitor = Monitor::new();
        let batches: Vec<_> = outcome_events.iter().take(SAMPLE * 4).cloned().collect();
        let events: usize = batches.iter().map(Vec::len).sum();
        let t = Instant::now();
        for batch in batches {
            monitor.record_all(batch);
        }
        let per = t.elapsed().as_secs_f64() * 1e6 / events.max(1) as f64;
        self.push("engine.monitor.record_us_per_event", per);
        per
    }

    /// `storage.persist.*`: the checkpoint through the snapshot codec.
    fn persist(&mut self, json: &str) {
        let t = Instant::now();
        let snap = from_json(json).expect("the checkpoint the engine wrote decodes");
        let (repo, store, txns) = restore_with_txns(&snap).expect("restores");
        let restore = t.elapsed().as_secs_f64() * 1e6;
        let n = snap.instances.len().max(1) as f64;
        let t = Instant::now();
        let again = snapshot_with_txns(&repo, &store, &txns);
        black_box(to_json(&again).expect("encodes"));
        let snapshot = t.elapsed().as_secs_f64() * 1e6;
        self.push("storage.persist.snapshot_us_per_instance", snapshot / n);
        self.push("storage.persist.restore_us_per_instance", restore / n);
    }
}

/// The rows that come from the spans and counts of the traced repetition.
fn from_spans(out: &mut Vec<(&'static str, f64)>, spans: &[Span], rep: &Rep) {
    let mut push = |name: &'static str, value: f64| out.push((name, value));
    push(
        "engine.command.create_us_p50",
        p50(&span_us(spans, "engine.submit.create")),
    );
    push(
        "engine.command.drive_us_p50",
        p50(&span_us(spans, "engine.submit.drive")),
    );
    push(
        "engine.command.step_us_p50",
        p50(&span_us(spans, "engine.submit.step")),
    );
    // The tails of the two latencies that are end-to-end metrics at their
    // median: what the caller sees per `Drive` (or `Start`/`Complete`) and
    // per committed change session, at the highest percentile the traced
    // repetition has ten samples beyond.
    let tail_of = |samples: &[f32]| {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f32::total_cmp);
        if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, admissible_percentile(0.99, sorted.len()))
        }
    };
    push("engine.command.p99_us", tail_of(&rep.command_us));
    push("engine.session.change_p99_us", tail_of(&rep.change_us));
    push("engine.ctx.resolve_hit_us", mean(&rep.ctx_hit_us));
    push("engine.ctx.resolve_miss_us", mean(&rep.ctx_miss_us));
    push(
        "engine.worklist.full_read_us_per_instance",
        rep.full_read.raw_secs * 1e6 / rep.full_read.count.max(1) as f64,
    );
    let mut polls = rep.poll_us.clone();
    polls.sort_unstable_by(f32::total_cmp);
    push("engine.worklist.delta_poll_us_p50", p50(&polls));
    push(
        "engine.worklist.delta_items_per_poll",
        rep.delta_items as f64 / polls.len().max(1) as f64,
    );
    push("engine.worklist.role_read_us", mean(&rep.role_read_us));
    push(
        "engine.monitor.events_per_instance",
        rep.main_events as f64 / rep.population.max(1) as f64,
    );
    push(
        "engine.monitor.cursor_poll_us_p50",
        p50(&span_us(spans, "engine.monitor.poll")),
    );
    push(
        "engine.monitor.cursor_lag_events_max",
        rep.cursor_lag_max as f64,
    );
    push("engine.monitor.lag_errors", rep.lag_errors as f64);
    push(
        "engine.session.stage_us",
        mean(&span_us(spans, "engine.session.stage")),
    );
    push(
        "engine.session.preview_us",
        mean(&span_us(spans, "engine.session.preview")),
    );
    let commits = span_us(spans, "engine.session.commit");
    push("engine.session.commit_us", mean(&commits));
    // Sessions the engine refused (an operation did not stage, or the
    // preview was not committable) of those begun — expected, seed-determined.
    push(
        "engine.session.refused_share",
        rep.changes_refused as f64 / (rep.changes_refused as f64 + commits.len() as f64).max(1.0),
    );
    // The one explicit sync closing the main section.
    push("storage.wal.sync_us", rep.sync_s * 1e6);
    push(
        "engine.migrate.us_per_instance",
        rep.migrate.raw_secs * 1e6 / rep.migrate_total.max(1) as f64,
    );
    push(
        "engine.migrate.migrated_share",
        rep.migrate.count as f64 / rep.migrate_total.max(1) as f64,
    );
    if let Some(r) = &rep.recovery {
        let records = (r.replayed + r.skipped).max(1) as f64;
        let recover: f64 = span_us(spans, "engine.recover_from_segmented")
            .iter()
            .map(|x| f64::from(*x))
            .sum();
        push("engine.recovery.us_per_record", recover / records);
        push("engine.recovery.replayed", r.replayed as f64);
        push("engine.recovery.skipped", r.skipped as f64);
        push("engine.recovery.orphaned", r.orphaned as f64);
        push("engine.recovery.divergent", r.divergent.len() as f64);
    }
    push("adapt.tick_us_p50", p50(&span_us(spans, "adapt.tick")));
    push(
        "adapt.commit_share",
        rep.adapt.count as f64 / rep.deviations.max(1) as f64,
    );
    push("adapt.contested", rep.contested as f64);
}

/// The traced repetitions, the span file, and every layer row.
pub fn traced_pass(
    workload: Workload,
    args: &Args,
    untraced: &[Rep],
    host: &mut Host,
    rep_dir: &mut dyn FnMut() -> PathBuf,
    started: Instant,
    budget: Duration,
) -> Vec<LayerValue> {
    let load_avg_start = load_avg();
    let mode = Mode {
        quick: args.quick,
        durable: true,
        capture: true,
        rss: false,
    };
    // Traced repetitions up to four fifths of the budget; the replay works
    // on the last one, the overhead on the fastest.
    let mut traced_main = Vec::new();
    let mut last: Option<(Plan, Rep, Vec<Span>)> = None;
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let tracer = Tracer::new(true);
        let dir = rep_dir();
        drop(last.take()); // free the previous capture before the next one grows
        let (plan, rep) = workloads::run(workload, args.seed, &dir, &tracer, host, mode);
        let _ = std::fs::remove_dir_all(&dir);
        traced_main.push(rep.main_raw_s);
        last = Some((plan, rep, tracer.take()));
        longest = longest.max(t.elapsed());
        if args.quick || started.elapsed() + longest > budget * 4 / 5 {
            break;
        }
    }
    let (plan, mut rep, spans) = last.expect("at least one traced repetition ran");
    let captured = std::mem::take(&mut rep.captured);

    let volatile_dir = rep_dir();
    let (_, volatile) = workloads::run(
        workload,
        args.seed,
        &volatile_dir,
        &Tracer::new(false),
        host,
        Mode {
            durable: false,
            capture: false,
            ..mode
        },
    );
    let _ = std::fs::remove_dir_all(&volatile_dir);

    let trace_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", workload.name()));
    if let Err(e) = write_json(&trace_path, workload.name(), args.seed, &spans) {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    let scratch = rep_dir();
    std::fs::create_dir_all(&scratch).expect("the run directory is writable");
    let mut replay = Replay {
        plan: &plan,
        scratch: &scratch,
        out: Vec::new(),
    };
    let Captured {
        wal_lines,
        outcome_events,
        checkpoint_json,
    } = captured;
    let exec = replay.executors();
    let (entries, wal_append_us) = replay.journal(&wal_lines, rep.population);
    drop(wal_lines);
    let (insert_us, update_us, schema_of_us, states) = replay.store(&entries);
    let creates = entries
        .iter()
        .filter(|e| matches!(e.record, WalRecord::Created { .. }))
        .count();
    let updates = entries.len() - creates;
    let records = entries.len();
    drop(entries);
    let (apply_us, check_us, adapt_us) = replay.change_core(&states);
    drop(states);
    let monitor_us = replay.monitor(&outcome_events);
    drop(outcome_events);
    replay.persist(&checkpoint_json);
    let mut out = replay.out;
    let _ = std::fs::remove_dir_all(&scratch);

    from_spans(&mut out, &spans, &rep);
    let mut push = |name: &'static str, value: f64| out.push((name, value));
    push(
        "engine.command.nondurable_us_per_instance",
        volatile.main_raw_s * 1e6 / volatile.instances.max(1) as f64,
    );
    // What the replayed layers account for in the main section, from the
    // unit costs above and the main section's own counts. An instance that
    // carries a bias runs interpreted, and whenever a change, a repair or a
    // migration drops its execution context the rebuild resolves its own
    // schema and analyses its blocks (an unbiased instance shares the
    // deployed version's); a change or repair is applied, verified and
    // checked, a migration checked and its state adapted. The rest —
    // worklist install, locks, the engine's own glue, the harness — is the
    // residual.
    let biased_share =
        ((rep.main_changes + rep.main_repairs) as f64 / rep.population.max(1) as f64).min(1.0);
    let sessions = (rep.main_changes + rep.main_repairs) as f64;
    let rebuilds = sessions + rep.main_migrations as f64 * biased_share;
    let exec_us = rep.steps as f64
        * (biased_share * exec.interp_us_per_step
            + (1.0 - biased_share) * exec.compiled_us_per_step)
        + sessions * (apply_us + exec.verify_us + check_us)
        + rep.main_migrations as f64 * (check_us + adapt_us)
        + rebuilds * (schema_of_us + exec.analyze_us);
    let wal_us = records as f64 * wal_append_us;
    let store_us = creates as f64 * insert_us + updates as f64 * update_us;
    let monitor_total_us = rep.main_events as f64 * monitor_us;
    let main_us = rep.main_raw_s * 1e6;
    push("engine.command.share.exec", exec_us / main_us);
    push("engine.command.share.wal", wal_us / main_us);
    push("engine.command.share.store", store_us / main_us);
    push("engine.command.share.monitor", monitor_total_us / main_us);
    push(
        "engine.command.residual_share",
        1.0 - (exec_us + wal_us + store_us + monitor_total_us) / main_us,
    );

    let untraced_main: Vec<f64> = untraced.iter().map(|r| r.main_raw_s).collect();
    let fastest = untraced_main.iter().copied().fold(f64::INFINITY, f64::min);
    let fastest_traced = traced_main.iter().copied().fold(f64::INFINITY, f64::min);
    push("harness.rep_spread", median(&untraced_main) / fastest - 1.0);
    push(
        "harness.trace_overhead_share",
        fastest_traced / fastest - 1.0,
    );
    // Time the main phases spent outside engine calls, per call made.
    let rows = by_name(&spans);
    let calls: u64 = rows
        .iter()
        .filter(|r| r.0.contains('.') && !r.0.starts_with("check"))
        .map(|r| r.1)
        .sum();
    let phase_self_ns: u64 = rows
        .iter()
        .filter(|r| !r.0.contains('.') && r.0 != "repetition" && r.0 != "setup")
        .map(|r| r.3)
        .sum();
    push(
        "harness.generator_us_per_op",
        phase_self_ns as f64 / 1e3 / calls.max(1) as f64,
    );
    push("harness.load_avg_start", load_avg_start);
    in_table_order(out)
}
