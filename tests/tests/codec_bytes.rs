//! The persisted bytes did not move: fixture lines written by the commit
//! before the codec stopped building a value tree, extended by the
//! revisions of snapshot format 4 and a `StateDelta` line
//! (`tests/fixtures/`, one journal line per `WalRecord` variant — a biased
//! `ChangeCommitted`, the `Migrated` hop of that instance, an `Evolved`
//! with its `TxnRecord`, a
//! command's delta with a history suffix and a data write, and an
//! `Abandoned` among them — and a snapshot holding a finished, a biased and a
//! removed-then-recreated instance of `container_logistics`, whose float
//! data element and an activity name with quotes, a tab and non-ASCII
//! letters exercise the scalar writers) decode and re-encode to the byte,
//! decode the same with their fields shuffled and strangers among them, and
//! are refused when damaged — by an error, at any nesting depth. Since
//! snapshot format 7 a state is its marking and history, and a delta its
//! marking entries and history suffix; lines written before, with a data
//! context or a delta's data writes beside them, still decode, to the same.

use adept_state::Event;
use adept_storage::persist::{from_json, to_json};
use adept_storage::wal::{decode_entry, encode_entry};
use adept_storage::{StorageError, WalRecord};

const WAL_LINES: &str = include_str!("../fixtures/wal_lines.jsonl");
const SNAPSHOT: &str = include_str!("../fixtures/snapshot.json");

#[test]
fn fixtures_reencode_to_the_byte() {
    let mut variants = Vec::new();
    for line in WAL_LINES.lines() {
        let entry = decode_entry(line).unwrap();
        assert_eq!(encode_entry(&entry).unwrap(), line);
        variants.push(match entry.record {
            WalRecord::Deployed { .. } => "Deployed",
            WalRecord::Created { .. } => "Created",
            WalRecord::StateChanged { .. } => "StateChanged",
            WalRecord::StateDelta { delta, .. } => {
                let writes =
                    |e: &Event| matches!(e, Event::Completed { writes, .. } if !writes.is_empty());
                assert!(delta.history.iter().any(writes));
                "StateDelta"
            }
            WalRecord::ChangeCommitted { record, .. } => {
                assert!(!record.bias.is_empty());
                "ChangeCommitted"
            }
            WalRecord::Evolved { .. } => "Evolved",
            WalRecord::Migrated {
                id, base_rev, to, ..
            } => {
                assert_eq!((id.raw(), base_rev, to), (2, 3, 2));
                "Migrated"
            }
            WalRecord::Removed { .. } => "Removed",
            WalRecord::Abandoned => "Abandoned",
        });
    }
    let expected = [
        "Deployed",
        "Created",
        "StateChanged",
        "StateDelta",
        "ChangeCommitted",
        "Evolved",
        "Migrated",
        "Removed",
        "Abandoned",
    ];
    assert_eq!(variants, expected);

    let snapshot = from_json(SNAPSHOT).unwrap();
    assert_eq!(to_json(&snapshot).unwrap(), SNAPSHOT);
    assert_eq!(snapshot.instances.len(), 4);
    assert!(snapshot.instances.iter().any(|i| !i.bias.is_empty()));
}

/// A `Created` and a `StateDelta` line as written while a state carried
/// its data context and a delta its data writes: both decode to their
/// fixture twins, the data read again from the history.
#[test]
fn lines_with_a_data_part_decode_as_their_twins() {
    const CREATED: &str = r#"{"seq":2,"record":{"Created":{"id":1,"type_name":"container transport","version":1,"state":{"marking":{"nodes":[[0,"Completed"],[1,"Activated"]],"edges":[[0,"TrueSignaled"]],"loop_counts":[]},"history":{"events":[]},"data":{"values":[],"log":[]}}}}}"#;
    const DELTA: &str = r#"{"seq":7,"record":{"StateDelta":{"id":2,"base_rev":1,"delta":{"nodes":[[1,"Completed"],[2,"Activated"]],"edges":[[1,"TrueSignaled"]],"loops":[],"keep":1,"history":[{"Completed":{"node":1,"writes":[[0,{"Float":[60.471496678586604]}]]}}],"data":[{"node":1,"data":0,"value":{"Float":[60.471496678586604]}}]}}}}"#;
    for (old, seq) in [(CREATED, 2), (DELTA, 7)] {
        let twin = WAL_LINES
            .lines()
            .map(|line| decode_entry(line).unwrap())
            .find(|entry| entry.seq == seq)
            .unwrap();
        assert_eq!(decode_entry(old).unwrap(), twin);
        assert!(encode_entry(&twin).unwrap().len() < old.len());
    }
}

/// Splits the text of a JSON object into its top-level `"key":value`
/// members.
fn members(object: &str) -> Vec<&str> {
    let inner = &object[1..object.len() - 1];
    let (mut depth, mut quoted, mut escaped, mut from) = (0, false, false, 0);
    let mut out = Vec::new();
    for (at, c) in inner.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            _ if quoted => {}
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&inner[from..at]);
                from = at + 1;
            }
            _ => {}
        }
    }
    out.push(&inner[from..]);
    out
}

/// The object with its members reversed and two the decoder has never
/// heard of put among them.
fn shuffled(object: &str) -> String {
    let mut members = members(object);
    members.reverse();
    members.insert(1, r#""stranger":{"a":[1,{"b":null}],"c":"}"}"#);
    members.push(r#""another":-0.5e3"#);
    format!("{{ {} }}", members.join(" ,\n\t"))
}

#[test]
fn field_order_and_unknown_fields_do_not_matter() {
    for line in WAL_LINES.lines() {
        assert_eq!(
            decode_entry(&shuffled(line)).unwrap(),
            decode_entry(line).unwrap()
        );
    }
    assert_eq!(
        from_json(&shuffled(SNAPSHOT)).unwrap(),
        from_json(SNAPSHOT).unwrap()
    );
    // One level down as well: the payload of the `Created` record.
    let created = WAL_LINES.lines().nth(1).unwrap();
    let payload_at = created.find(r#"{"id":"#).unwrap();
    let payload = &created[payload_at..created.len() - 2];
    let inner = created.replace(payload, &shuffled(payload));
    assert_ne!(inner, created);
    assert_eq!(
        decode_entry(&inner).unwrap(),
        decode_entry(created).unwrap()
    );
}

#[test]
fn damaged_records_are_errors() {
    let removed = r#"{"seq":14,"record":{"Removed":{"id":4}}}"#;
    assert!(WAL_LINES.lines().any(|line| line == removed));
    assert!(decode_entry(removed).is_ok());
    for (what, damaged) in [
        ("a missing field", r#"{"record":{"Removed":{"id":4}}}"#),
        (
            "a missing inner field",
            r#"{"seq":14,"record":{"Removed":{}}}"#,
        ),
        (
            "a wrong-typed field",
            r#"{"seq":"14","record":{"Removed":{"id":4}}}"#,
        ),
        (
            "a fraction for an id",
            r#"{"seq":14,"record":{"Removed":{"id":4.0}}}"#,
        ),
        (
            "a negative sequence",
            r#"{"seq":-14,"record":{"Removed":{"id":4}}}"#,
        ),
        (
            "a repeated field",
            r#"{"seq":14,"seq":14,"record":{"Removed":{"id":4}}}"#,
        ),
        (
            "a second variant tag",
            r#"{"seq":14,"record":{"Removed":{"id":4},"Removed":{"id":4}}}"#,
        ),
        ("no variant tag", r#"{"seq":14,"record":{}}"#),
        (
            "an unknown variant",
            r#"{"seq":14,"record":{"Renamed":{"id":4}}}"#,
        ),
        (
            "a payload on a unit variant",
            r#"{"seq":14,"record":{"Abandoned":null}}"#,
        ),
        ("a bare payload variant", r#"{"seq":14,"record":"Removed"}"#),
        (
            "trailing bytes",
            r#"{"seq":14,"record":{"Removed":{"id":4}}} x"#,
        ),
        (
            "a second document",
            r#"{"seq":14,"record":{"Removed":{"id":4}}}{}"#,
        ),
        (
            "a trailing comma",
            r#"{"seq":14,"record":{"Removed":{"id":4}},}"#,
        ),
        (
            "a short pair",
            r#"{"seq":14,"record":{"Removed":{"id":4}},"x":[1,]}"#,
        ),
    ] {
        let err = decode_entry(damaged).expect_err(what);
        assert!(matches!(err, StorageError::Corrupt { .. }), "{what}: {err}");
    }
    let cut = SNAPSHOT.replacen(r#""wal_seq":"#, r#""wal_seq_":"#, 1);
    assert!(from_json(&cut).is_err(), "a snapshot without its watermark");
}

/// Nesting is bounded: however deep a damaged line or snapshot opens
/// brackets, the decoders answer with an error — on a thread whose stack an
/// unbounded descent would exhaust at a fraction of this depth (the parser
/// this one replaced aborted the process here, which no `catch_unwind`
/// sees).
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let decoded = std::thread::Builder::new()
        .stack_size(512 * 1024)
        .spawn(|| {
            for open in ["[", r#"{"a":"#, r#"{"seq":1,"record":["#, r#"[{"a":"#] {
                let deep = open.repeat(200_000);
                let err = decode_entry(&deep).expect_err(open);
                assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
                let err = from_json(&deep).expect_err(open);
                assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
                // An unknown field is skipped, whatever it holds — up to
                // the bound.
                let hidden = format!(r#"{{"seq":1,"x":{deep}"#);
                assert!(decode_entry(&hidden).is_err());
            }
            // What real records reach is far inside the bound.
            let nested = format!("{}{}", "[".repeat(100), "]".repeat(100));
            let line = format!(r#"{{"seq":15,"x":{nested},"record":"Abandoned"}}"#);
            assert!(matches!(
                decode_entry(&line).unwrap().record,
                WalRecord::Abandoned
            ));
        })
        .unwrap()
        .join();
    assert!(decoded.is_ok(), "a decoder panicked");
}
