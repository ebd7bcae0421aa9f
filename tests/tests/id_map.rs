//! `adept_model::IdMap` against the `BTreeMap` it replaced in schemas,
//! markings and data contexts: seeded sequences of inserts, removals and
//! lookups leave both with the same contents, order, length and equality;
//! both encode to the same bytes, compact and pretty; both decode the same
//! unsorted and duplicated input (the last of equal keys wins); and both
//! fail alike — never panicking — on truncated and mutated text.

use adept_model::IdMap;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Reader, Serialize, Writer};
use std::collections::BTreeMap;

/// Keys are drawn from a small range, so inserts hit existing keys and
/// removals find something.
const KEYS: u32 = 40;

fn compact<T: Serialize>(value: &T) -> String {
    let mut out = Writer::compact();
    value.serialize(&mut out);
    out.finish()
}

fn pretty<T: Serialize>(value: &T) -> String {
    let mut out = Writer::pretty(2);
    value.serialize(&mut out);
    out.finish()
}

fn read<T: Deserialize>(text: &str) -> Result<T, String> {
    let mut r = Reader::new(text);
    let value = T::deserialize(&mut r).map_err(|e| e.0)?;
    r.end().map_err(|e| e.0)?;
    Ok(value)
}

fn entries<'a>(map: impl Iterator<Item = (&'a u32, &'a String)>) -> Vec<(u32, String)> {
    map.map(|(k, v)| (*k, v.clone())).collect()
}

/// Both maps hold the same entries in the same order.
fn same(m: &IdMap<u32, String>, b: &BTreeMap<u32, String>) -> bool {
    entries(m.iter()) == entries(b.iter())
        && m.len() == b.len()
        && m.is_empty() == b.is_empty()
        && m.keys().next_back() == b.keys().next_back()
        && m.values().eq(b.values())
}

/// Runs `ops` random operations on both maps, checking every answer.
fn drive(
    rng: &mut SmallRng,
    ops: usize,
    m: &mut IdMap<u32, String>,
    b: &mut BTreeMap<u32, String>,
) -> TestCaseResult {
    for step in 0..ops {
        let key = rng.gen_range(0..KEYS);
        match rng.gen_range(0..20u32) {
            0..=9 => {
                let value = format!("v{step}");
                prop_assert_eq!(m.insert(key, value.clone()), b.insert(key, value));
            }
            10..=14 => prop_assert_eq!(m.remove(&key), b.remove(&key)),
            15..=17 => {
                if let Some(v) = m.get_mut(&key) {
                    v.push('!');
                }
                if let Some(v) = b.get_mut(&key) {
                    v.push('!');
                }
            }
            _ => {
                prop_assert_eq!(m.get(&key), b.get(&key));
                prop_assert_eq!(m.contains_key(&key), b.contains_key(&key));
                if let Some(v) = b.get(&key) {
                    prop_assert_eq!(&m[&key], v);
                }
            }
        }
        prop_assert!(same(m, b), "diverged after step {step}: {m:?} vs {b:?}");
    }
    Ok(())
}

/// Replaces one to three bytes of `text` with JSON punctuation or digits,
/// keeping it UTF-8.
fn mutate(rng: &mut SmallRng, text: &str) -> String {
    const BYTES: &[u8] = b"[],\"0123456789-e. x{}";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = BYTES[rng.gen_range(0..BYTES.len())];
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `text` reads the same as an `IdMap` and as a `BTreeMap`: both the same
/// entries, or both the same error.
fn decodes_alike(text: &str) -> TestCaseResult {
    let m = read::<IdMap<u32, String>>(text);
    let b = read::<BTreeMap<u32, String>>(text);
    match (m, b) {
        (Ok(m), Ok(b)) => prop_assert!(same(&m, &b), "{text:?}: {m:?} vs {b:?}"),
        (Err(m), Err(b)) => prop_assert_eq!(m, b, "error texts differ on {text:?}"),
        (m, b) => prop_assert!(false, "{text:?}: {m:?} vs {b:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn operations_match_a_btree_map(seed in 0u64..u64::MAX, ops in 0usize..300) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut m, mut b) = (IdMap::new(), BTreeMap::new());
        drive(&mut rng, ops, &mut m, &mut b)?;
        // A second pair driven apart: equal exactly when the B-trees are.
        let (mut m2, mut b2) = (m.clone(), b.clone());
        drive(&mut rng, ops / 8, &mut m2, &mut b2)?;
        prop_assert_eq!(m == m2, b == b2);
        prop_assert_eq!(format!("{m:?}"), format!("{b:?}"));
    }

    #[test]
    fn encodes_to_the_btree_maps_bytes(seed in 0u64..u64::MAX, ops in 0usize..120) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut m, mut b) = (IdMap::new(), BTreeMap::new());
        drive(&mut rng, ops, &mut m, &mut b)?;
        let text = compact(&m);
        prop_assert_eq!(&text, &compact(&b));
        prop_assert_eq!(pretty(&m), pretty(&b));
        let back: IdMap<u32, String> = read(&text).map_err(TestCaseError)?;
        prop_assert!(back == m);
        let back_pretty: IdMap<u32, String> = read(&pretty(&m)).map_err(TestCaseError)?;
        prop_assert!(back_pretty == m);
    }

    #[test]
    fn decodes_unsorted_and_duplicate_keys_like_a_btree_map(
        seed in 0u64..u64::MAX,
        len in 0usize..60,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs: Vec<(u32, String)> = (0..len)
            .map(|i| (rng.gen_range(0..KEYS / 2), format!("e{i}")))
            .collect();
        let text = compact(&pairs);
        decodes_alike(&text)?;
        let m: IdMap<u32, String> = read(&text).map_err(TestCaseError)?;
        for (k, v) in &pairs {
            let last = pairs.iter().rev().find(|(k2, _)| k2 == k).map(|(_, v)| v);
            prop_assert_eq!(Some(&m[k]), last, "key {k} (saw {v})");
        }
    }

    #[test]
    fn damaged_text_fails_alike_and_never_panics(seed in 0u64..u64::MAX, ops in 1usize..60) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut m, mut b) = (IdMap::new(), BTreeMap::new());
        drive(&mut rng, ops, &mut m, &mut b)?;
        for text in [compact(&m), pretty(&m)] {
            for end in 0..text.len() {
                if text.is_char_boundary(end) {
                    decodes_alike(&text[..end])?;
                }
            }
            for _ in 0..16 {
                decodes_alike(&mutate(&mut rng, &text))?;
            }
        }
    }
}
