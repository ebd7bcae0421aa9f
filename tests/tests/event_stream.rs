//! The monitor's event log:
//!
//! * equivalence — the log read back is element-identical (sequence +
//!   payload) to a reference single-vec log, under single-threaded
//!   lifecycles and concurrent recorders;
//! * cursor streaming — draining an [`EventCursor`] incrementally
//!   reproduces exactly the whole-log snapshot, gap-free;
//! * retention — eviction is bounded and explicit: a cursor behind the
//!   oldest retained event gets an [`EventLag`] error, never a silent
//!   gap, and recovery's history audit does not depend on evicted events.

use adept_engine::{recovery, EngineEvent, Monitor, ProcessEngine};
use adept_model::InstanceId;
use adept_simgen::RandomDriver;
use adept_storage::MemoryBackend;
use adept_tests::{adhoc, drive_with, evolve};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn ev(i: u64) -> EngineEvent {
    EngineEvent::InstanceFinished {
        instance: InstanceId(i),
    }
}

/// Concurrent recorders on the segmented log vs the reference single-vec
/// log: each thread keeps its own `(seq, payload)` pairs as `record`
/// hands them out; the union of those vecs IS the reference log (what
/// one global `RwLock<Vec>` would have accumulated). Merged-on-read must
/// be element-identical to it.
#[test]
fn segmented_log_matches_reference_vec_under_concurrent_recorders() {
    const THREADS: u64 = 4;
    const EACH: u64 = 250;
    let m = Monitor::new();
    let mut reference: Vec<(u64, EngineEvent)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = &m;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for k in 0..EACH {
                        let e = ev(t * 10_000 + k);
                        let seq = m.record(e.clone());
                        mine.push((seq, e));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    reference.sort_by_key(|(t, _)| *t);
    let total = THREADS * EACH;
    assert_eq!(m.recorded(), total);
    // Sequences are exactly 0..total — the atomic clock never skips.
    let seqs: Vec<u64> = reference.iter().map(|(t, _)| *t).collect();
    assert_eq!(seqs, (0..total).collect::<Vec<u64>>());
    // Element-identical: same sequence, same payload, same order.
    assert_eq!(m.events(), reference);
}

/// `record_all` reserves one contiguous sequence block per batch, so a
/// batch's events never interleave with a concurrent recorder's.
#[test]
fn batched_records_stay_contiguous() {
    let m = Monitor::new();
    m.record_all((0..5).map(ev));
    m.record(ev(100));
    m.record_all((5..9).map(ev));
    let events = m.events();
    let seqs: Vec<u64> = events.iter().map(|(t, _)| *t).collect();
    assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
    // Payload order within each batch is the iteration order.
    assert_eq!(events[0].1, ev(0));
    assert_eq!(events[4].1, ev(4));
    assert_eq!(events[5].1, ev(100));
    assert_eq!(events[9].1, ev(8));
}

/// A cursor behind the eviction watermark errs explicitly; at or past
/// the watermark it reads the exact retained window.
#[test]
fn lagged_cursor_is_an_explicit_error_not_a_silent_gap() {
    let m = Monitor::new();
    m.set_retention(16);
    for i in 0..100u64 {
        m.record(ev(i));
    }
    let oldest = m.oldest_retained();
    assert!(oldest > 0, "eviction must have happened");
    assert!(m.len() <= 16);

    let err = m.events_since(oldest - 1).unwrap_err();
    assert_eq!(err.oldest, oldest);
    let batch = m.events_since(oldest).unwrap();
    assert_eq!(batch.next, m.recorded());
    // The batch is contiguous: no sequence skipped.
    for (k, (t, _)) in batch.events.iter().enumerate() {
        assert_eq!(*t, oldest + k as u64);
    }

    // A stale cursor resyncs past the gap and then reads cleanly.
    let mut c = m.subscribe_from(0);
    assert!(c.poll(&m).is_err());
    assert_eq!(c.position(), 0, "a failed poll must not advance");
    let skipped = c.resync(&m);
    assert_eq!(skipped, oldest);
    assert_eq!(c.poll(&m).unwrap().len(), batch.events.len());
}

/// Recovery's history audit reads each instance's own execution history,
/// not the monitor's bounded ring — evicting (almost) the whole event
/// log must leave recovery byte-exact and fully audited.
#[test]
fn retention_eviction_does_not_weaken_recovery_audit() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    // Retain almost nothing: every shard ring holds one event.
    engine.monitor.set_retention(1);
    let name = engine
        .deploy(adept_simgen::scenarios::order_process())
        .unwrap();
    for k in 0..6u64 {
        let id = engine.create_instance(&name).unwrap();
        let mut driver = RandomDriver::new(k);
        drive_with(&engine, id, &mut driver, Some(3)).unwrap();
    }
    assert!(
        engine.monitor.recorded() > engine.monitor.len() as u64,
        "the workload must actually evict events"
    );
    let expected = adept_storage::to_json(&engine.snapshot()).unwrap();
    drop(engine);

    let (rec, report) = recovery::recover_from_segmented(None, vec![Box::new(medium)]).unwrap();
    assert_eq!(report.divergent, Vec::<InstanceId>::new());
    assert_eq!(report.audited, rec.store.len());
    assert_eq!(adept_storage::to_json(&rec.snapshot()).unwrap(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        ..ProptestConfig::default()
    })]

    /// Over generated simgen lifecycles, draining a cursor from 0 in
    /// arbitrary-sized polls reproduces exactly the merged-on-read log —
    /// same sequences (contiguous from 0), same payloads.
    #[test]
    fn cursor_replay_equals_merged_log_on_generated_lifecycles(seed in 0u64..10_000) {
        let schema = adept_simgen::generate_schema(&adept_simgen::GenParams::sized(12), seed);
        let engine = ProcessEngine::new();
        let name = engine.deploy(schema).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xe5e5);
        let mut cursor = engine.monitor.subscribe_from(0);
        let mut streamed: Vec<(u64, EngineEvent)> = Vec::new();

        let ids: Vec<_> = (0..4).map(|_| engine.create_instance(&name).unwrap()).collect();
        streamed.extend(cursor.poll(&engine.monitor).unwrap());

        for id in &ids {
            let mut driver = RandomDriver::new(seed ^ id.raw());
            let steps = rng.gen_range(0..5);
            drive_with(&engine, *id, &mut driver, Some(steps)).unwrap();
            // Poll mid-stream at random — partial drains must compose.
            if rng.gen_bool(0.5) {
                streamed.extend(cursor.poll(&engine.monitor).unwrap());
            }
        }

        // A change attempt and an evolution add change/migration events.
        let target = ids[rng.gen_range(0..ids.len())];
        let current = engine.store.schema_of(&engine.repo, target).unwrap();
        for kind in adept_simgen::ALL_OP_KINDS {
            if let Some(op) = adept_simgen::changegen::propose(&current, kind, &mut rng, "p") {
                let _ = adhoc(&engine, target, &op);
                break;
            }
        }
        let latest = engine.repo.deployed(&name, 1).unwrap();
        if let Some(op) = adept_simgen::changegen::propose(
            &latest.schema,
            adept_simgen::OpKind::SerialInsert,
            &mut rng,
            "evo",
        ) {
            if evolve(&engine, &name, &[op]).is_ok() {
                engine.migrate_all(&name, &Default::default(), 1).unwrap();
            }
        }
        streamed.extend(cursor.poll(&engine.monitor).unwrap());
        for id in &ids {
            let mut driver = RandomDriver::new(seed ^ (id.raw() << 8));
            let _ = drive_with(&engine, *id, &mut driver, Some(400));
        }
        streamed.extend(cursor.poll(&engine.monitor).unwrap());

        let merged = engine.monitor.events();
        prop_assert_eq!(&streamed, &merged, "cursor stream != merged log (seed {})", seed);
        let seqs: Vec<u64> = merged.iter().map(|(t, _)| *t).collect();
        let expected: Vec<u64> = (0..engine.monitor.recorded()).collect();
        prop_assert_eq!(seqs, expected, "sequences must be contiguous from 0");
    }
}
