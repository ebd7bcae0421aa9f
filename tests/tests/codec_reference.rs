//! The codec's reader against the reader it replaced
//! (`adept_tests::reference::json`, one general scan per token): on the
//! persisted fixtures, on every prefix and seeded mutation of a live
//! engine's journal and snapshot — the damaged-bytes corpus of
//! `persistence.rs` — and on generated texts full of whitespace, escapes
//! and numbers at and past every boundary, both read the same
//! `serde::Value` or both fail, with the same error.

use adept_core::MigrationOptions;
use adept_engine::ProcessEngine;
use adept_simgen::scenarios;
use adept_storage::persist::to_json;
use adept_storage::{MemoryBackend, StorageBackend};
use adept_tests::reference::json;
use adept_tests::{adhoc, drive, evolve};
use serde::{Deserialize, Reader, Value};

const WAL_LINES: &str = include_str!("../fixtures/wal_lines.jsonl");
const SNAPSHOT: &str = include_str!("../fixtures/snapshot.json");

/// What `serde_json::from_str::<Value>` reads, with the reader's own
/// error text.
fn read(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let value = Value::deserialize(&mut r).map_err(|e| e.0)?;
    r.end().map_err(|e| e.0)?;
    Ok(value)
}

/// Both readers agree on `text`; returns whether it read.
fn agree(text: &str) -> bool {
    let ours = read(text);
    assert_eq!(ours, json::parse(text), "the readers disagree on {text:?}");
    ours.is_ok()
}

/// xorshift64: seeded, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Every prefix of `text`, and `mutations` copies with one to three bytes
/// flipped (as `persistence.rs` damages them, damaged UTF-8 replaced).
fn damage(text: &str, mutations: usize, rng: &mut Rng) -> usize {
    let bytes = text.as_bytes();
    let mut cases = 0;
    for n in 0..bytes.len() {
        agree(&String::from_utf8_lossy(&bytes[..n]));
        cases += 1;
    }
    for _ in 0..mutations {
        let mut bytes = bytes.to_vec();
        for _ in 0..1 + rng.next() % 3 {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 + (rng.next() % 255) as u8;
        }
        agree(&String::from_utf8_lossy(&bytes));
        cases += 1;
    }
    cases
}

#[test]
fn the_fixtures_read_alike() {
    for line in WAL_LINES.lines() {
        assert!(agree(line));
    }
    assert!(agree(SNAPSHOT));
}

#[test]
fn damaged_journal_and_snapshot_bytes_read_alike() {
    let medium = MemoryBackend::new();
    let engine = ProcessEngine::with_segmented_wal(vec![Box::new(medium.clone())]).unwrap();
    let name = engine.deploy(scenarios::order_process()).unwrap();
    let v1 = engine.repo.deployed(&name, 1).unwrap();
    let ids: Vec<_> = (0..3)
        .map(|_| engine.create_instance(&name).unwrap())
        .collect();
    drive(&engine, ids[0], Some(2)).unwrap();
    adhoc(&engine, ids[1], &scenarios::fig1_i2_bias_op(&v1.schema)).unwrap();
    evolve(&engine, &name, &scenarios::fig1_delta_ops(&v1.schema)).unwrap();
    engine
        .migrate_all(&name, &MigrationOptions::default(), 1)
        .unwrap();
    engine.remove_instance(ids[2]).unwrap();
    let lines = medium.read_log().unwrap().lines;
    let snapshot = to_json(&engine.snapshot()).unwrap();

    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut cases = 0;
    for line in lines.iter().chain(
        WAL_LINES
            .lines()
            .map(str::to_owned)
            .collect::<Vec<_>>()
            .iter(),
    ) {
        assert!(agree(line));
        cases += damage(line, 200, &mut rng);
    }
    cases += damage(&snapshot, 2_000, &mut rng);
    assert!(cases > 10_000, "{cases} cases");
}

/// Number texts at and past the boundaries of each kind, and some that
/// are no number at all.
const NUMBERS: &[&str] = &[
    "0",
    "-0",
    "007",
    "-007",
    "1e300",
    "-1e300",
    "1e999",
    "1.5E-3",
    "2.5e+10",
    "0.1",
    "3.141592653589793",
    "5e-324",
    "1.",
    "-.5",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "-",
    "--1",
    "1-2",
    "1e",
    "1e+",
    "+1",
    "1.2.3",
    "0x10",
];

/// Characters a generated string is drawn from; each is written raw or
/// escaped.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    'é',
    '€',
    'ß',
    '\u{1F600}',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    ':',
    ',',
    '[',
    '}',
];

fn space(rng: &mut Rng, out: &mut String) {
    for _ in 0..rng.below(4).saturating_sub(1) {
        out.push(rng.pick(&[' ', '\t', '\n', '\r']));
    }
}

fn string(rng: &mut Rng, out: &mut String) {
    out.push('"');
    for _ in 0..rng.below(8) {
        let c = rng.pick(CHARS);
        let escape = match c {
            '"' => Some("\\\"".to_string()),
            '\\' => Some("\\\\".to_string()),
            '/' if rng.below(2) == 0 => Some("\\/".to_string()),
            '\n' => Some("\\n".to_string()),
            '\r' => Some("\\r".to_string()),
            '\t' if rng.below(2) == 0 => Some("\\t".to_string()),
            '\u{8}' => Some("\\b".to_string()),
            '\u{c}' => Some("\\f".to_string()),
            // Every character of the basic plane may be written as `\u`;
            // control characters may also stand raw, as the writer never
            // leaves them but the readers accept them.
            c if (c as u32) < 0x10000 && rng.below(3) == 0 => Some(format!("\\u{:04x}", c as u32)),
            _ => None,
        };
        match escape {
            Some(escape) => out.push_str(&escape),
            None => out.push(c),
        }
    }
    out.push('"');
}

fn value(rng: &mut Rng, depth: usize, out: &mut String) {
    space(rng, out);
    let kinds = if depth > 3 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => out.push_str(rng.pick(&["null", "true", "false"])),
        1 => out.push_str(rng.pick(NUMBERS)),
        2 => out.push_str(&(rng.next() as i64).to_string()),
        3 => out.push_str(&format!("{:?}", f64::from_bits(rng.next() >> 2))),
        4 => out.push_str(&(rng.next() >> rng.below(64)).to_string()),
        5 => string(rng, out),
        6 => {
            out.push('[');
            for i in 0..rng.below(4) {
                if i > 0 {
                    space(rng, out);
                    out.push(',');
                }
                value(rng, depth + 1, out);
            }
            space(rng, out);
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.below(4) {
                if i > 0 {
                    space(rng, out);
                    out.push(',');
                }
                space(rng, out);
                string(rng, out);
                space(rng, out);
                out.push(':');
                value(rng, depth + 1, out);
            }
            space(rng, out);
            out.push('}');
        }
    }
    space(rng, out);
}

#[test]
fn generated_texts_read_alike() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let (mut read_ok, mut failed) = (0, 0);
    for round in 0..3_000 {
        let mut text = String::new();
        value(&mut rng, 0, &mut text);
        if agree(&text) {
            read_ok += 1;
        } else {
            failed += 1;
        }
        if round % 10 == 0 {
            let bytes = text.as_bytes();
            for n in 0..bytes.len() {
                agree(&String::from_utf8_lossy(&bytes[..n]));
            }
        }
    }
    // The corpus exercises both outcomes.
    assert!(
        read_ok > 2_000 && failed > 100,
        "{read_ok} read, {failed} failed"
    );
}
