//! The instance store's sharding primitive: a power-of-two array of
//! [`OrderedRwLock`]-wrapped states indexed by [`InstanceId::hash64`].
//!
//! The store's two tables — the instances and their change order — select
//! a shard through this one type, so the shard-selection invariant
//! (power-of-two count, `hash64 & mask` indexing) lives in exactly one
//! place. Nothing else is sharded: the schema repository and the monitor's
//! event log are one lock each.
//!
//! Every table declares a [`LockClass`] at construction; the class ranks
//! (and the one-shard-per-table rule the locks enforce) are documented in
//! `docs/LOCK_ORDER.md`. A thread holds at most one shard of a table, so
//! a cross-shard read is a [`Shards::iter`] walk that releases each guard
//! before taking the next, against a bound read beforehand (the instance
//! store's epoch-bounded scan).

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
