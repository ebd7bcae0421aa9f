//! The shared sharding primitive: a power-of-two array of
//! [`OrderedRwLock`]-wrapped states indexed by [`InstanceId::hash64`].
//!
//! Every sharded table in the system — the instance store (the only
//! per-instance one), the schema repository's maps and the monitor's ring
//! — selects its shard through this one type, so the shard-selection
//! invariant (power-of-two count, `hash64 & mask` or `key & mask`
//! indexing) lives in exactly one place.
//!
//! Every table declares a [`LockClass`] at construction; the class ranks
//! (and the one-shard-per-table rule the locks enforce) are documented in
//! `docs/LOCK_ORDER.md`. A thread holds at most one shard of a table, so
//! a cross-shard read is a [`Shards::iter`] walk that releases each guard
//! before taking the next, against a bound read beforehand (the monitor's
//! sequence-bounded merge, the instance store's epoch-bounded scan).

use crate::ordered::{LockClass, OrderedRwLock};
use adept_model::InstanceId;

/// A fixed, power-of-two array of independently locked shard states.
#[derive(Debug)]
pub struct Shards<T> {
    inner: Box<[OrderedRwLock<T>]>,
    mask: u64,
}

impl<T: Default> Shards<T> {
    /// `n` shards (rounded up to the next power of two, minimum 1) of the
    /// given lock class, each initialised with `T::default()`.
    pub fn new(class: &'static LockClass, n: usize) -> Self {
        let n = n.max(1).next_power_of_two();
        Self {
            inner: (0..n)
                .map(|_| OrderedRwLock::new(class, T::default()))
                .collect(),
            mask: (n - 1) as u64,
        }
    }
}

impl<T> Shards<T> {
    /// Number of shards (a power of two).
    pub fn count(&self) -> usize {
        self.inner.len()
    }

    /// The shard index an instance maps to.
    #[inline]
    pub fn index_of(&self, id: InstanceId) -> usize {
        (id.hash64() & self.mask) as usize
    }

    /// The shard an instance maps to.
    #[inline]
    pub fn for_id(&self, id: InstanceId) -> &OrderedRwLock<T> {
        &self.inner[self.index_of(id)]
    }

    /// The shard index a raw 64-bit key maps to — no hashing, plain
    /// `key & mask`. Segmented logs use this with *sequence numbers* as
    /// keys: consecutive sequences round-robin across shards, so
    /// concurrent appends land on different shard locks.
    #[inline]
    pub fn index_of_raw(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// The shard a raw 64-bit key maps to (see
    /// [`Shards::index_of_raw`]).
    #[inline]
    pub fn for_raw(&self, key: u64) -> &OrderedRwLock<T> {
        &self.inner[self.index_of_raw(key)]
    }

    /// All shards, in index order. Callers locking inside the iteration
    /// must release each guard before acquiring the next (one shard per
    /// table) — the checker refuses a second guard of the class.
    pub fn iter(&self) -> std::slice::Iter<'_, OrderedRwLock<T>> {
        self.inner.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordered::classes;

    #[test]
    fn rounds_to_power_of_two() {
        for (requested, expected) in [(0usize, 1usize), (1, 1), (3, 4), (16, 16), (17, 32)] {
            assert_eq!(
                Shards::<u32>::new(&classes::TEST_SUPPORT, requested).count(),
                expected
            );
        }
    }

    #[test]
    fn raw_keys_round_robin() {
        let s = Shards::<u32>::new(&classes::TEST_SUPPORT, 16);
        for seq in 0..64u64 {
            assert_eq!(s.index_of_raw(seq), (seq % 16) as usize);
        }
    }

    #[test]
    fn same_id_same_shard() {
        let a = Shards::<u32>::new(&classes::TEST_SUPPORT, 16);
        let b = Shards::<Vec<u8>>::new(&classes::TEST_SUPPORT, 16);
        for i in 1..=100u64 {
            let id = InstanceId(i);
            assert_eq!(
                a.index_of(id),
                b.index_of(id),
                "tables of equal count agree"
            );
            assert!(a.index_of(id) < 16);
        }
    }
}
