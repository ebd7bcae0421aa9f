//! [`IdMap`]: the small id-keyed map that schemas, markings and data
//! contexts are built from.
//!
//! A schema holds tens to a few hundred nodes, edges and data elements, and
//! a marking or data context fewer still. Such maps are copied on every
//! command, rebuilt on every change and decoded on every restart, so the
//! map is one vector of `(key, value)` entries kept sorted by key: a clone
//! is one buffer copy, a lookup a binary search in one slice, a decode one
//! push per entry and a drop one free. An insert past the last key is a
//! push; any other insert or removal moves the entries behind it.
//!
//! It iterates, compares, prints and encodes as the `BTreeMap` it stands
//! for: in key order, as `[[k,v],…]`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;

/// A map kept as one vector of entries sorted by key (see the module docs).
#[derive(Clone, PartialEq, Eq)]
pub struct IdMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> IdMap<K, V> {
    /// An empty map; allocates nothing.
    pub const fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Makes room for `additional` more entries, so that many inserts past
    /// the last key do not reallocate.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Bytes of the entry buffer (its capacity, not its length).
    pub fn heap_size(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }

    /// All entries, in key order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> + ExactSizeIterator {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// All entries, in key order, as the one slice they are kept in.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    /// All keys, in order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> + ExactSizeIterator {
        self.entries.iter().map(|(k, _)| k)
    }

    /// All values, in key order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &V> + ExactSizeIterator {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> IdMap<K, V> {
    /// The map of `entries` taken as they are, if their keys are strictly
    /// ascending (what a decoder that sorted them hands over); `None`
    /// where they are not.
    pub fn from_ascending(entries: Vec<(K, V)>) -> Option<Self> {
        let ascending = entries.windows(2).all(|w| w[0].0 < w[1].0);
        ascending.then_some(Self { entries })
    }

    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value of `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        let at = self.search(key).ok()?;
        Some(&self.entries[at].1)
    }

    /// The value of `key` to change in place, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let at = self.search(key).ok()?;
        Some(&mut self.entries[at].1)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().is_none_or(|(last, _)| *last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.search(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.search(key).ok()?;
        Some(self.entries.remove(at).1)
    }
}

/// Panics when `key` has no entry, like `BTreeMap`'s.
impl<K: Ord, V> Index<&K> for IdMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        match self.get(key) {
            Some(v) => v,
            None => panic!("IdMap: key not found"),
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Serialize, V: Serialize> Serialize for IdMap<K, V> {
    fn serialize(&self, out: &mut serde::Writer) {
        out.pairs(self.iter())
    }
}

/// Reads what a `BTreeMap` reads: the entries in any order, the last of
/// equal keys winning. Entries already strictly ascending — everything
/// this map writes — are kept as they are.
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for IdMap<K, V> {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let mut entries = Vec::<(K, V)>::deserialize(r)?;
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so equal keys keep their order; each run of them
            // then collapses into its first slot, holding the last entry.
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, kept| {
                let equal = later.0 == kept.0;
                if equal {
                    std::mem::swap(later, kept);
                }
                equal
            });
        }
        Ok(Self { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn read<T: Deserialize>(text: &str) -> Result<T, serde::Error> {
        let mut r = serde::Reader::new(text);
        let value = T::deserialize(&mut r)?;
        r.end()?;
        Ok(value)
    }

    #[test]
    fn inserts_keep_key_order() {
        let mut m = IdMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.insert(3, 0), Some(30));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 3, 5, 7, 9]);
        assert_eq!(m.keys().next_back(), Some(&9));
        assert_eq!(m[&3], 0);
        assert_eq!(m.get(&4), None);
        *m.get_mut(&9).unwrap() += 1;
        assert_eq!(m.remove(&9), Some(91));
        assert_eq!(m.remove(&9), None);
        assert_eq!(m.len(), 4);
        assert!(m.contains_key(&7) && !m.contains_key(&9));
    }

    #[test]
    fn decodes_unsorted_input_with_the_last_of_equal_keys() {
        let text = r#"[[3,"c"],[1,"a"],[3,"x"],[2,"b"],[1,"y"]]"#;
        let m: IdMap<u32, String> = read(text).unwrap();
        let b: BTreeMap<u32, String> = read(text).unwrap();
        assert_eq!(format!("{m:?}"), format!("{b:?}"));
        assert_eq!(m[&1], "y");
        assert_eq!(m[&3], "x");
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn from_ascending_takes_only_strictly_ascending_keys() {
        let m = IdMap::from_ascending(vec![(1u32, 'a'), (4, 'b')]).unwrap();
        assert_eq!(m.as_slice(), [(1, 'a'), (4, 'b')]);
        assert!(IdMap::from_ascending(vec![(4u32, 'a'), (1, 'b')]).is_none());
        assert!(IdMap::from_ascending(vec![(1u32, 'a'), (1, 'b')]).is_none());
        assert!(IdMap::<u32, char>::from_ascending(Vec::new()).is_some());
    }

    #[test]
    #[should_panic(expected = "key not found")]
    fn indexing_a_missing_key_panics() {
        let m: IdMap<u32, u32> = IdMap::new();
        let _ = m[&1];
    }
}
