//! Strongly-typed identifiers for schema and instance objects.
//!
//! All identifiers are small copyable newtypes over `u32`. Identifiers are
//! allocated by their owning container (e.g. [`crate::ProcessSchema`]
//! allocates [`NodeId`]s) and are never reused within one container, so a
//! deleted node's id stays dangling rather than silently aliasing a new node.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize`, e.g. for indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a [`crate::Node`] within one [`crate::ProcessSchema`].
    NodeId,
    "n"
);
id_type!(
    /// Identifier of an [`crate::Edge`] within one [`crate::ProcessSchema`].
    EdgeId,
    "e"
);
id_type!(
    /// Identifier of a [`crate::DataElement`] within one schema.
    DataId,
    "d"
);
id_type!(
    /// Identifier of a process schema (a concrete version of a process type).
    SchemaId,
    "S"
);

/// Identifier of a process instance.
///
/// Unlike the schema-local ids above, instance ids are allocated for the
/// lifetime of a whole engine — a production deployment serving millions
/// of users burns through them continuously — so they are 64-bit: the id
/// space cannot realistically wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub u64);

impl InstanceId {
    /// Returns the raw numeric value of this identifier.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Returns the identifier as a `usize`, e.g. for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A well-mixed 64-bit hash of this id (splitmix64 finaliser).
    /// The instance store's sharded tables use this to spread sequentially
    /// allocated ids uniformly across shards; sharing one function keeps an
    /// instance on the "same" shard index in each, which makes lock
    /// behaviour easy to reason about.
    #[inline]
    pub fn hash64(self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

impl From<u32> for InstanceId {
    fn from(v: u32) -> Self {
        Self(v as u64)
    }
}

impl From<u64> for InstanceId {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

/// A monotonically increasing id allocator used by containers that own ids.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdAllocator {
    next: u32,
}

impl IdAllocator {
    /// Creates an allocator that starts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an allocator that will hand out ids starting at `next`.
    pub fn starting_at(next: u32) -> Self {
        Self { next }
    }

    /// Allocates the next raw id.
    pub fn alloc(&mut self) -> u32 {
        let v = self.next;
        self.next = self
            .next
            .checked_add(1)
            .expect("id space exhausted (more than u32::MAX allocations)");
        v
    }

    /// Ensures that ids up to and including `used` are never handed out again.
    pub fn reserve_through(&mut self, used: u32) {
        if used >= self.next {
            self.next = used + 1;
        }
    }

    /// The value the next call to [`IdAllocator::alloc`] would return.
    pub fn peek(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(0).to_string(), "e0");
        assert_eq!(DataId(7).to_string(), "d7");
        assert_eq!(SchemaId(1).to_string(), "S1");
        assert_eq!(InstanceId(42).to_string(), "I42");
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut a = IdAllocator::new();
        assert_eq!(a.alloc(), 0);
        assert_eq!(a.alloc(), 1);
        a.reserve_through(10);
        assert_eq!(a.alloc(), 11);
        a.reserve_through(5); // no-op, already past
        assert_eq!(a.alloc(), 12);
    }

    #[test]
    fn id_conversions() {
        let n: NodeId = 9u32.into();
        assert_eq!(n.raw(), 9);
        assert_eq!(n.index(), 9usize);
    }

    #[test]
    fn instance_ids_are_64_bit() {
        let wide = InstanceId(u32::MAX as u64 + 1);
        assert_eq!(wide.raw(), 4_294_967_296);
        assert_eq!(wide.to_string(), "I4294967296");
        let from_small: InstanceId = 7u32.into();
        let from_wide: InstanceId = 7u64.into();
        assert_eq!(from_small, from_wide);
    }

    #[test]
    fn instance_id_hash_spreads_sequential_ids() {
        // Sequential allocation must not pile onto one shard: check the
        // low bits of the mixed hash distribute over a 16-way split.
        let mut buckets = [0usize; 16];
        for i in 1..=1600u64 {
            buckets[(InstanceId(i).hash64() & 15) as usize] += 1;
        }
        for (shard, count) in buckets.iter().enumerate() {
            assert!(
                (50..=200).contains(count),
                "shard {shard} got {count} of 1600 sequential ids"
            );
        }
    }
}
