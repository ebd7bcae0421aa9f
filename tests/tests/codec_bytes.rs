//! The persisted bytes did not move: fixture lines written by the commit
//! before the codec stopped building a value tree, extended by the
//! revisions of snapshot format 4 and a `StateDelta` line
//! (`tests/fixtures/`, one journal line per `WalRecord` variant — a biased
//! `ChangeCommitted`, the `Migrated` hop of that instance, an `Evolved`
//! with its `TxnRecord`, the steps of a command, a completion with a data
//! write, and an `Abandoned` among them — and a snapshot holding a finished, a biased and a
//! removed-then-recreated instance of `container_logistics`, whose float
//! data element and an activity name with quotes, a tab and non-ASCII
//! letters exercise the scalar writers) decode and re-encode to the byte,
//! decode the same with their fields shuffled and strangers among them, and
//! are refused when damaged — by an error, at any nesting depth. Since
//! snapshot format 7 a state is its marking and history; a line written
//! before, with a data context beside them, still decodes, to the same.
//! Since format 9 a marking writes its nodes and edges as one id list per
//! state, and an event its fields in order; a command's record is the
//! steps it took, each its fields in order, and a line recording a command
//! as the difference of two states is refused. States driven through
//! loops, dead paths, sync edges, ad-hoc changes and failures round-trip
//! through those forms, every command's journaled steps reproduce the
//! state it left, and every hostile variant of them is corruption.

use adept_core::ChangeOp;
use adept_engine::{EngineCommand, ProcessEngine};
use adept_model::EdgeKind;
use adept_model::NodeKind;
use adept_simgen::changegen::propose;
use adept_simgen::{generate_schema, GenParams, RandomDriver, ALL_OP_KINDS};
use adept_state::{EdgeState, Event, InstanceState, NodeState, Step};
use adept_storage::persist::{from_json, to_json};
use adept_storage::wal::{decode_entry, encode_entry};
use adept_storage::{MemoryBackend, StorageBackend, StorageError, WalRecord};
use adept_tests::{adhoc, drive_with};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
            WalRecord::StateDelta { steps, .. } => {
                let writes =
                    |s: &Step| matches!(s, Step::Complete(_, writes) if !writes.is_empty());
                assert!(steps.iter().any(writes));
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

/// A `Created` line as written while a state carried its data context
/// decodes to its fixture twin, the data read again from the history. A
/// command's line as written while the journal recorded the difference of
/// two states — with or without the data writes it once carried — is
/// refused: the fixture's steps are the only form a command is read in.
#[test]
fn lines_with_a_data_part_decode_as_their_twins() {
    const CREATED: &str = r#"{"seq":2,"record":{"Created":{"id":1,"type_name":"container transport","version":1,"state":{"marking":{"nodes":{"Activated":[1],"Completed":[0]},"edges":{"TrueSignaled":[0]},"loop_counts":[]},"history":{"events":[]},"data":{"values":[],"log":[]}}}}}"#;
    const DELTA: &str = r#"{"seq":7,"record":{"StateDelta":{"id":2,"base_rev":1,"delta":{"nodes":{"Activated":[2],"Completed":[1]},"edges":{"TrueSignaled":[1]},"loops":[],"keep":1,"history":[{"Completed":[1,[[0,{"Float":[60.471496678586604]}]]]}],"data":[{"node":1,"data":0,"value":{"Float":[60.471496678586604]}}]}}}}"#;
    let twin = |seq: u64| {
        WAL_LINES
            .lines()
            .map(|line| decode_entry(line).unwrap())
            .find(|entry| entry.seq == seq)
            .unwrap()
    };
    let created = twin(2);
    assert_eq!(decode_entry(CREATED).unwrap(), created);
    assert!(encode_entry(&created).unwrap().len() < CREATED.len());
    let without_data = DELTA.replacen(
        r#","data":[{"node":1,"data":0,"value":{"Float":[60.471496678586604]}}]"#,
        "",
        1,
    );
    assert!(without_data.len() < DELTA.len());
    for old in [DELTA, &without_data] {
        let err = decode_entry(old).expect_err("a delta line is refused");
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }
    assert!(encode_entry(&twin(7)).unwrap().len() < without_data.len());
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

/// The tokens of a JSON text, each as it stands: a string with its quotes
/// and escapes, a punctuation mark, a number or a literal.
fn tokens(text: &str) -> Vec<&str> {
    let (mut out, mut at) = (Vec::new(), 0);
    let bytes = text.as_bytes();
    while at < bytes.len() {
        let from = at;
        match bytes[at] {
            b' ' | b'\t' | b'\n' | b'\r' => {
                at += 1;
                continue;
            }
            b'"' => {
                at += 1;
                while bytes[at] != b'"' {
                    at += if bytes[at] == b'\\' { 2 } else { 1 };
                }
                at += 1;
            }
            b'{' | b'}' | b'[' | b']' | b':' | b',' => at += 1,
            _ => {
                while at < bytes.len() && !b" \t\n\r{}[]:,".contains(&bytes[at]) {
                    at += 1;
                }
            }
        }
        out.push(&text[from..at]);
    }
    out
}

/// A string token with its first character written as a `\u` escape (a
/// surrogate pair past the basic plane), whether it stood raw or as
/// another escape.
fn first_escaped(token: &str) -> String {
    let body = &token[1..token.len() - 1];
    let (first, rest) = match body.strip_prefix('\\') {
        None => match body.chars().next() {
            None => return token.to_string(),
            Some(c) => (c, &body[c.len_utf8()..]),
        },
        // Already a `\u` escape: it stays as it is.
        Some(escape) if escape.starts_with('u') => return token.to_string(),
        Some(escape) => {
            let c = match escape.as_bytes()[0] {
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                other => char::from(other),
            };
            (c, &escape[1..])
        }
    };
    let mut units = [0u16; 2];
    let escaped: String = first
        .encode_utf16(&mut units)
        .iter()
        .map(|unit| format!("\\u{unit:04x}"))
        .collect();
    format!("\"{escaped}{rest}\"")
}

/// Every fixture read back from two rewrites of its text: spaced out, with
/// whitespace of every kind around every token, and with the first
/// character of every string — keys and enum tags among them — written as
/// a `\u` escape. Each reads as its compact twin does: a reader's fast
/// path that assumed compact, unescaped text would fail here.
#[test]
fn spaced_and_escaped_texts_decode_as_their_compact_twins() {
    let spaced = |text: &str| -> String {
        tokens(text)
            .iter()
            .map(|token| format!("\n\t {token}\r\n "))
            .collect()
    };
    let escaped = |text: &str| -> String {
        tokens(text)
            .iter()
            .map(|token| {
                if token.starts_with('"') {
                    first_escaped(token)
                } else {
                    token.to_string()
                }
            })
            .collect()
    };
    assert_eq!(tokens(SNAPSHOT).concat(), SNAPSHOT);
    assert_eq!(first_escaped(r#""ab""#), r#""\u0061b""#);
    assert_eq!(first_escaped(r#""\"q""#), r#""\u0022q""#);
    assert_eq!(first_escaped(r#""größe""#), r#""\u0067röße""#);
    assert_eq!(first_escaped(r#""–x""#), r#""\u2013x""#);
    assert_eq!(first_escaped(r#""😀""#), r#""\ud83d\ude00""#);
    for line in WAL_LINES.lines() {
        let compact = decode_entry(line).unwrap();
        for rewritten in [spaced(line), escaped(line)] {
            assert_ne!(rewritten, line);
            assert_eq!(decode_entry(&rewritten).unwrap(), compact, "{rewritten}");
        }
    }
    let compact = from_json(SNAPSHOT).unwrap();
    for rewritten in [spaced(SNAPSHOT), escaped(SNAPSHOT)] {
        assert_eq!(from_json(&rewritten).unwrap(), compact);
    }
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

/// `text` with the first `from` replaced by `to`; the damage must land.
fn damaged(text: &str, from: &str, to: &str) -> String {
    let out = text.replacen(from, to, 1);
    assert_ne!(out, text, "{from:?} is not in the text");
    out
}

/// The fixture line of sequence number `seq`.
fn fixture_line(seq: u64) -> &'static str {
    let line = WAL_LINES
        .lines()
        .find(|l| l.starts_with(&format!(r#"{{"seq":{seq},"#)));
    line.expect("a fixture line")
}

/// The ids-by-state and field-array forms of format 9, damaged every way a
/// decoder must refuse — an id under two states, an unknown state, a
/// marking's default state, a repeated or missing member, an event's or a
/// step's fields one short or one long, an event or a step in an object
/// form, a command recorded as a delta — are corruption, on a journal line
/// and inside a snapshot. The `Created` line carries a marking, the
/// `StateChanged` line a marking and a history, the `StateDelta` line a
/// command's steps; steps are a journal's alone, so their rows are journal
/// rows.
#[test]
fn hostile_state_forms_are_corrupt() {
    let (created, changed, steps) = (fixture_line(2), fixture_line(6), fixture_line(7));
    let complete = r#"{"Complete":[1,[[0,{"Float":[60.471496678586604]}]]]}"#;
    let journal = [
        (
            "an id under two states",
            created,
            r#""Completed":[0]"#,
            r#""Completed":[0,1]"#,
        ),
        (
            "an id listed twice",
            changed,
            r#""Completed":[0,1,"#,
            r#""Completed":[0,0,1,"#,
        ),
        (
            "an unknown state",
            created,
            r#""Activated":[1]"#,
            r#""Active":[1]"#,
        ),
        (
            "an unknown state",
            created,
            r#""TrueSignaled":[0]"#,
            r#""Signaled":[0]"#,
        ),
        (
            "a node state among edges",
            created,
            r#""TrueSignaled":[0]"#,
            r#""Completed":[0]"#,
        ),
        (
            "a marking's NotActivated",
            created,
            r#""nodes":{"#,
            r#""nodes":{"NotActivated":[5],"#,
        ),
        (
            "a marking's NotSignaled",
            changed,
            r#""edges":{"#,
            r#""edges":{"NotSignaled":[13],"#,
        ),
        (
            "a state listed twice",
            created,
            r#""Completed":[0]"#,
            r#""Completed":[0],"Completed":[3]"#,
        ),
        (
            "a repeated nodes",
            created,
            r#""nodes":"#,
            r#""nodes":{},"nodes":"#,
        ),
        (
            "a repeated edges",
            created,
            r#""edges":"#,
            r#""edges":{},"edges":"#,
        ),
        (
            "a repeated steps",
            steps,
            r#""steps":"#,
            r#""steps":[],"steps":"#,
        ),
        ("a missing nodes", created, r#""nodes":"#, r#""nodez":"#),
        ("a missing edges", created, r#""edges":"#, r#""edgez":"#),
        ("a missing steps", steps, r#""steps":"#, r#""stepz":"#),
        ("a step one short", steps, complete, r#"{"Complete":[1]}"#),
        (
            "a step one long",
            steps,
            complete,
            &complete.replace("]]]}", "]],7]}"),
        ),
        (
            "a step field that is no array",
            steps,
            complete,
            r#"{"Complete":1}"#,
        ),
        (
            "an event where a step belongs",
            steps,
            r#"{"Complete":"#,
            r#"{"Completed":"#,
        ),
        (
            "a step in the object form",
            steps,
            complete,
            r#"{"Complete":{"node":1,"writes":[[0,{"Float":[60.471496678586604]}]]}}"#,
        ),
        (
            "an event one short",
            changed,
            r#"{"Started":[2,[]]}"#,
            r#"{"Started":[2]}"#,
        ),
        (
            "an event one long",
            changed,
            r#"{"Started":[2,[]]}"#,
            r#"{"Started":[2,[],[]]}"#,
        ),
        (
            "an event one long",
            changed,
            r#"{"Started":[6,[0]]}"#,
            r#"{"Started":[6,[0],0]}"#,
        ),
        (
            "an event field that is no array",
            changed,
            r#"{"Started":[2,[]]}"#,
            r#"{"Started":2}"#,
        ),
        (
            "an event in the object form",
            changed,
            r#"{"Started":[2,[]]}"#,
            r#"{"Started":{"node":2,"reads":[]}}"#,
        ),
        (
            "a marking in the pair form",
            created,
            r#"{"Activated":[1],"Completed":[0]}"#,
            r#"[[0,"Completed"],[1,"Activated"]]"#,
        ),
        (
            "a command recorded as a delta",
            steps,
            &format!(r#""steps":[{complete}]"#),
            r#""delta":{"nodes":{"Activated":[2],"Completed":[1]},"edges":{"TrueSignaled":[1]},"loops":[],"keep":1,"history":[{"Completed":[1,[[0,{"Float":[60.471496678586604]}]]]}]}"#,
        ),
    ];
    for (what, line, from, to) in journal {
        assert!(decode_entry(line).is_ok());
        let err = decode_entry(&damaged(line, from, to)).expect_err(what);
        assert!(matches!(err, StorageError::Corrupt { .. }), "{what}: {err}");
    }
    let snapshot = [
        (
            "an id under two states",
            r#""Completed":[0,1,2,3]"#,
            r#""Completed":[0,1,2,3,4]"#,
        ),
        (
            "an id listed twice",
            r#""Completed":[0,1,2,3]"#,
            r#""Completed":[0,1,2,2,3]"#,
        ),
        (
            "an unknown state",
            r#""Completed":[0,1,2,3]"#,
            r#""Done":[0,1,2,3]"#,
        ),
        (
            "a marking's NotActivated",
            r#""nodes":{"Activated""#,
            r#""nodes":{"NotActivated":[9],"Activated""#,
        ),
        (
            "a marking's NotSignaled",
            r#""edges":{"TrueSignaled""#,
            r#""edges":{"NotSignaled":[9],"TrueSignaled""#,
        ),
        (
            "a repeated nodes",
            r#""marking":{"nodes":"#,
            r#""marking":{"nodes":{},"nodes":"#,
        ),
        (
            "a repeated edges",
            r#""edges":{"TrueSignaled""#,
            r#""edges":{},"edges":{"TrueSignaled""#,
        ),
        (
            "a missing nodes",
            r#""marking":{"nodes":"#,
            r#""marking":{"nodez":"#,
        ),
        (
            "a missing edges",
            r#""edges":{"TrueSignaled""#,
            r#""edgez":{"TrueSignaled""#,
        ),
        (
            "an event one short",
            r#"{"Started":[1,[]]}"#,
            r#"{"Started":[1]}"#,
        ),
        (
            "an event one long",
            r#"{"Started":[1,[]]}"#,
            r#"{"Started":[1,[],[]]}"#,
        ),
        (
            "an event in the object form",
            r#"{"Started":[1,[]]}"#,
            r#"{"Started":{"node":1,"reads":[]}}"#,
        ),
    ];
    for (what, from, to) in snapshot {
        let err = from_json(&damaged(SNAPSHOT, from, to)).expect_err(what);
        assert!(matches!(err, StorageError::Corrupt { .. }), "{what}: {err}");
    }
}

/// Checks one step of an instance, from `pre` to `post`: the state decodes
/// to itself and, for a command, whatever it journaled — nothing, where it
/// changed nothing; else one line of the steps it took — re-encodes to the
/// byte and its steps, applied to `pre` on the instance's context, make
/// `post`. Returns whether the step rewound the history.
fn round_trips(
    engine: &ProcessEngine,
    id: adept_model::InstanceId,
    pre: &InstanceState,
    post: &InstanceState,
    journaled: &[String],
    command: bool,
) -> bool {
    let text = serde_json::to_string(post).unwrap();
    assert_eq!(&serde_json::from_str::<InstanceState>(&text).unwrap(), post);
    if command {
        match journaled {
            [] => assert_eq!(
                pre, post,
                "a command that journaled nothing changed the state"
            ),
            [line] => {
                let entry = decode_entry(line).unwrap();
                assert_eq!(&encode_entry(&entry).unwrap(), line);
                let WalRecord::StateDelta { steps, .. } = entry.record else {
                    panic!("a command journaled {line}")
                };
                let ctx = engine
                    .store
                    .with_context(&engine.repo, id, |_, ctx| ctx.clone())
                    .unwrap();
                let mut applied = pre.clone();
                ctx.exec().apply_steps(&mut applied, steps).unwrap();
                assert_eq!(&applied, post, "{line}");
            }
            lines => panic!("a command journaled {} lines", lines.len()),
        }
    }
    !post.history.events.starts_with(&pre.history.events)
}

/// What the driven population reached, so the test shows it covered it.
#[derive(Debug, Default)]
struct Reached {
    steps: usize,
    rewinds: usize,
    changes: usize,
    loop_resets: usize,
    skipped: usize,
    false_signaled: usize,
    sync_edges: usize,
}

/// Seeded generated schemas with loops, XOR branches and sync edges,
/// driven by random starts, failures, one-activity drives and ad-hoc
/// changes on a durable engine: after every step the state round-trips
/// through the format-9 codec, and the steps a command journaled, applied
/// to the state it found, make the state it left.
#[test]
fn driven_states_round_trip_through_the_codec() {
    let params = GenParams {
        p_loop: 0.3,
        p_xor: 0.3,
        p_parallel: 0.3,
        p_sync: 0.8,
        ..GenParams::sized(16)
    };
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let mut reached = Reached::default();
    for seed in 1..=10u64 {
        let name = engine.deploy(generate_schema(&params, seed)).unwrap();
        let deployed = engine.repo.deployed(&name, 1).unwrap().schema;
        let sync = |e: &adept_model::Edge| e.kind == EdgeKind::Sync;
        reached.sync_edges += deployed.edges().filter(|e| sync(e)).count();
        for k in 0..3 {
            let id = engine.create_instance(&name).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed * 100 + k);
            let mut driver = RandomDriver::new(seed * 100 + k);
            for _ in 0..80 {
                // Only what the next step journals stays on the medium.
                medium.reset().unwrap();
                let pre = engine.store.get(id).unwrap().state;
                let (schema, _) = engine.materialized(id).unwrap();
                let running: Vec<_> = pre.marking.nodes_in(NodeState::Running).collect();
                let activated: Vec<_> = pre
                    .marking
                    .nodes_in(NodeState::Activated)
                    .filter(|n| schema.node(*n).is_ok_and(|n| n.kind == NodeKind::Activity))
                    .collect();
                if running.is_empty() && activated.is_empty() {
                    break;
                }
                let roll = rng.gen_range(0..20);
                let _ = match roll {
                    0..=5 if !activated.is_empty() => engine.submit(EngineCommand::Start {
                        instance: id,
                        node: activated[rng.gen_range(0..activated.len())],
                    }),
                    6..=8 if !running.is_empty() => engine.submit(EngineCommand::FailActivity {
                        instance: id,
                        node: running[rng.gen_range(0..running.len())],
                        reason: "retry".into(),
                    }),
                    9 => {
                        let kind = ALL_OP_KINDS[rng.gen_range(0..ALL_OP_KINDS.len())];
                        let op: Option<ChangeOp> = propose(&schema, kind, &mut rng, "adhoc");
                        match op.map(|op| adhoc(&engine, id, &op)) {
                            Some(Ok(_)) => {
                                reached.changes += 1;
                                continue_with(&engine, &medium, id, &pre, false, &mut reached);
                                continue;
                            }
                            _ => continue,
                        }
                    }
                    _ => drive_with(&engine, id, &mut driver, Some(1)),
                };
                continue_with(&engine, &medium, id, &pre, true, &mut reached);
            }
        }
    }
    assert!(reached.steps > 400, "{reached:?}");
    assert!(reached.rewinds > 0, "{reached:?}");
    assert!(reached.changes > 0, "{reached:?}");
    assert!(reached.loop_resets > 0, "{reached:?}");
    assert!(
        reached.skipped > 0 && reached.false_signaled > 0,
        "{reached:?}"
    );
    assert!(reached.sync_edges > 0, "{reached:?}");
}

/// Checks the step from `pre` to the instance's state now (`command`: a
/// command's step, not a change's), and notes what it reached.
fn continue_with(
    engine: &ProcessEngine,
    medium: &MemoryBackend,
    id: adept_model::InstanceId,
    pre: &InstanceState,
    command: bool,
    reached: &mut Reached,
) {
    let post = engine.store.get(id).unwrap().state;
    let journaled = medium.read_log().unwrap().lines;
    reached.steps += 1;
    let rewound = round_trips(engine, id, pre, &post, &journaled, command);
    reached.rewinds += usize::from(rewound);
    let reset = |e: &Event| matches!(e, Event::LoopReset { .. });
    reached.loop_resets += post.history.events.iter().filter(|e| reset(e)).count();
    reached.skipped += post.marking.nodes_in(NodeState::Skipped).count();
    let false_edge = |(_, s): &(_, EdgeState)| *s == EdgeState::FalseSignaled;
    reached.false_signaled += post.marking.signaled_edges().filter(false_edge).count();
}
