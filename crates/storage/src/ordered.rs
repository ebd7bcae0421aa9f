//! Ordered lock wrappers — the machine-checked lock-discipline layer.
//!
//! Every lock in `adept-storage` and `adept-engine` is an
//! [`OrderedRwLock`] or [`OrderedMutex`] carrying a static [`LockClass`]
//! with a rank in the global acquisition order (the authoritative DAG
//! lives in `docs/LOCK_ORDER.md`). Under
//! `cfg(any(debug_assertions, feature = "lock-order-check"))` a
//! thread-local held-lock stack validates every acquisition:
//!
//! * **Rank ordering** — a thread may only acquire a class whose rank is
//!   strictly greater than every rank it already holds. Violations panic
//!   with *both* acquisition sites.
//! * **One shard per table** — a second lock of the *same* class is
//!   refused, without exception: cross-shard reads release each guard
//!   before taking the next.
//!
//! Independently of the per-thread validation, a process-global recorder
//! accumulates every *observed* class-pair edge (with one example
//! acquisition-site pair each). [`check`] runs a DFS over the observed
//! graph and reports any cycle; [`dump`] renders the class table and the
//! observed edges — the generator for `docs/LOCK_ORDER.md`.
//!
//! In release builds without the `lock-order-check` feature the wrappers
//! compile to transparent newtypes over the `std::sync` lock types: no
//! class storage, no thread-local, no drop glue.
//!
//! A lock whose holder panicked is not an error here: every acquisition
//! recovers the poisoned `std` lock and hands out its value, so a panic
//! caught under a store guard (a migration worker's, say) leaves the rest
//! of the engine working.

// The one module allowed to own raw lock types (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Mutex, PoisonError, RwLock};

/// A lock class: a name for diagnostics and a rank in the global
/// acquisition order. Classes are `'static` and compared by identity;
/// every rank is unique to its class (two classes of equal rank would
/// make the order ambiguous, so the checker treats that as a violation
/// too).
#[derive(Debug)]
pub struct LockClass {
    /// Diagnostic name, also the node label in the dumped DAG.
    pub name: &'static str,
    /// Position in the global acquisition order; lower ranks are
    /// acquired first.
    pub rank: u16,
}

impl LockClass {
    /// A new class. Declare these as `static` items in [`classes`].
    pub const fn new(name: &'static str, rank: u16) -> Self {
        Self { name, rank }
    }
}

/// The declared lock classes — the single authoritative acquisition
/// order, lowest rank first. `docs/LOCK_ORDER.md` renders this table
/// with the rationale for each edge.
pub mod classes {
    use super::LockClass;

    /// Instance-store shards. The root of every mutation path: commands,
    /// migrations and journaled installs all start here.
    pub static STORE_SHARD: LockClass = LockClass::new("store.shard", 20);
    /// Instance-store change-order shards. Written by every stamp,
    /// *inside* the instance's store-shard critical section and for the
    /// length of one keyed insert; polls read them and nothing else.
    pub static STORE_CHANGES: LockClass = LockClass::new("store.changes-shard", 30);
    /// The schema repository's one table. Read while a store shard is
    /// held (every command resolves an unbiased instance's context
    /// there); an evolution holds it across its journal append.
    pub static REPO_TYPES: LockClass = LockClass::new("repo.types", 40);
    /// The monitor's event log. Recorded outside every other critical
    /// section.
    pub static MONITOR_LOG: LockClass = LockClass::new("monitor.log", 50);
    /// `FileBackend` fsync watermark. Group commit holds it while
    /// re-reading the written watermark: synced → state.
    pub static WAL_FILE_SYNCED: LockClass = LockClass::new("wal.file-synced", 70);
    /// `FileBackend` file state (handle + written watermark).
    pub static WAL_FILE_STATE: LockClass = LockClass::new("wal.file-state", 72);
    /// `MemoryBackend` buffer.
    pub static WAL_MEMORY_BUF: LockClass = LockClass::new("wal.memory-buf", 74);
    /// The WAL contiguous-durability watermark, advanced after the
    /// segment append returns.
    pub static WAL_DURABLE: LockClass = LockClass::new("wal.durable", 80);
    /// Test-support locks (fault-injection backends and similar). Ranked
    /// above every production class so instrumentation can be driven
    /// from inside any append path.
    pub static TEST_SUPPORT: LockClass = LockClass::new("test.support", 250);

    /// Every declared class, in rank order.
    pub fn all() -> [&'static LockClass; 9] {
        [
            &STORE_SHARD,
            &STORE_CHANGES,
            &REPO_TYPES,
            &MONITOR_LOG,
            &WAL_FILE_SYNCED,
            &WAL_FILE_STATE,
            &WAL_MEMORY_BUF,
            &WAL_DURABLE,
            &TEST_SUPPORT,
        ]
    }
}

/// The active checker: thread-local held-lock stack + process-global
/// observed-edge recorder.
#[cfg(any(debug_assertions, feature = "lock-order-check"))]
mod chk {
    use super::LockClass;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::panic::Location;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex as StdMutex, OnceLock};

    struct Held {
        class: &'static LockClass,
        site: &'static Location<'static>,
        token: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// Observed class-pair edges with one example site pair each:
    /// `(held class, acquired class) → (held site, acquiring site)`.
    type Edges = BTreeMap<(&'static str, &'static str), (String, String)>;

    fn graph() -> &'static StdMutex<Edges> {
        static GRAPH: OnceLock<StdMutex<Edges>> = OnceLock::new();
        GRAPH.get_or_init(|| StdMutex::new(BTreeMap::new()))
    }

    fn edges() -> Edges {
        graph()
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .clone()
    }

    /// Pops its held-stack entry when the owning guard drops. Guards may
    /// drop out of LIFO order, so removal is by token, not by popping the
    /// top.
    pub struct Token(u64);

    impl Drop for Token {
        fn drop(&mut self) {
            let token = self.0;
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|e| e.token == token) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Validates one acquisition against the held-lock stack, records
    /// the observed edges, and pushes the new entry. Panics (with both
    /// acquisition sites) on a rank inversion or a same-class double
    /// acquisition.
    #[track_caller]
    pub fn acquire(class: &'static LockClass) -> Token {
        let site = Location::caller();
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for e in held.iter() {
                let same = std::ptr::eq(e.class, class);
                if e.class.rank > class.rank || (e.class.rank == class.rank && !same) {
                    panic!(
                        "lock-order violation: acquiring `{}` (rank {}) at {site} \
                         while holding `{}` (rank {}) acquired at {} — \
                         classes must be acquired in ascending rank order \
                         (see docs/LOCK_ORDER.md)",
                        class.name, class.rank, e.class.name, e.class.rank, e.site,
                    );
                }
                if same {
                    panic!(
                        "one-shard-per-table violation: acquiring a second `{}` lock \
                         at {site} while one is already held (acquired at {}) — \
                         cross-shard passes must release each guard before taking \
                         the next (see docs/LOCK_ORDER.md)",
                        class.name, e.site,
                    );
                }
            }
            {
                let mut graph = graph().lock().unwrap_or_else(|poison| poison.into_inner());
                for e in held.iter() {
                    if !std::ptr::eq(e.class, class) {
                        graph
                            .entry((e.class.name, class.name))
                            .or_insert_with(|| (e.site.to_string(), site.to_string()));
                    }
                }
            }
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            held.push(Held { class, site, token });
            Token(token)
        })
    }

    /// DFS cycle detection over the observed edge graph. Recursion depth
    /// is bounded by the number of declared classes.
    pub fn check() -> Result<(), String> {
        // 0 / absent = unvisited, 1 = on the current DFS path, 2 = done.
        fn visit<'a>(
            node: &'a str,
            adj: &BTreeMap<&'a str, Vec<&'a str>>,
            color: &mut BTreeMap<&'a str, u8>,
            path: &mut Vec<&'a str>,
        ) -> Option<Vec<&'a str>> {
            color.insert(node, 1);
            path.push(node);
            for &succ in adj.get(node).into_iter().flatten() {
                match color.get(succ).copied().unwrap_or(0) {
                    1 => {
                        let mut cycle: Vec<&str> =
                            path.iter().copied().skip_while(|&n| n != succ).collect();
                        cycle.push(succ);
                        return Some(cycle);
                    }
                    0 => {
                        if let Some(cycle) = visit(succ, adj, color, path) {
                            return Some(cycle);
                        }
                    }
                    _ => {}
                }
            }
            path.pop();
            color.insert(node, 2);
            None
        }

        let edges = edges();
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from).or_default().push(to);
            adj.entry(to).or_default();
        }
        let nodes: Vec<&str> = adj.keys().copied().collect();
        let mut color: BTreeMap<&str, u8> = BTreeMap::new();
        for start in nodes {
            if color.get(start).copied().unwrap_or(0) != 0 {
                continue;
            }
            if let Some(cycle) = visit(start, &adj, &mut color, &mut Vec::new()) {
                let sites = cycle
                    .windows(2)
                    .filter_map(|pair| {
                        let (held, acq) = edges.get(&(pair[0], pair[1]))?;
                        Some(format!(
                            "  {} → {}: held at {held}, acquired at {acq}",
                            pair[0], pair[1]
                        ))
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
                return Err(format!(
                    "lock acquisition cycle observed: {}\n{sites}",
                    cycle.join(" → "),
                ));
            }
        }
        Ok(())
    }

    /// The class table plus every observed edge, in deterministic order —
    /// the raw material for `docs/LOCK_ORDER.md`.
    pub fn dump() -> String {
        let mut out = String::from("lock classes (rank order):\n");
        for class in super::classes::all() {
            out.push_str(&format!("  {:3}  {}\n", class.rank, class.name));
        }
        out.push_str("observed acquisition edges (held → acquired):\n");
        for ((from, to), (site_from, site_to)) in edges() {
            out.push_str(&format!(
                "  {from} → {to}\n    held at      {site_from}\n    acquired at  {site_to}\n",
            ));
        }
        out
    }
}

/// No-op checker for release builds without `lock-order-check`: the
/// token is a zero-sized type with no drop glue, so guards compile down
/// to the raw `std::sync` guards.
#[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
mod chk {
    pub struct Token;

    pub fn check() -> Result<(), String> {
        Ok(())
    }

    pub fn dump() -> String {
        String::from(
            "lock-order checking is compiled out \
             (release build without the `lock-order-check` feature)\n",
        )
    }
}

/// Verifies the process-global observed acquisition graph is acyclic.
/// Call at the end of a test (or any quiesced point); with checking
/// compiled out this is trivially `Ok`.
pub fn check() -> Result<(), String> {
    chk::check()
}

/// Renders the declared class table and every observed acquisition edge
/// (with example sites) — the generator for `docs/LOCK_ORDER.md`.
pub fn dump() -> String {
    chk::dump()
}

/// An [`RwLock`] carrying a [`LockClass`], validated against the global
/// acquisition order on every acquisition when checking is compiled in.
pub struct OrderedRwLock<T> {
    #[cfg(any(debug_assertions, feature = "lock-order-check"))]
    class: &'static LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// A new lock of the given class.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        #[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
        let _ = class;
        Self {
            #[cfg(any(debug_assertions, feature = "lock-order-check"))]
            class,
            inner: RwLock::new(value),
        }
    }

    #[cfg(any(debug_assertions, feature = "lock-order-check"))]
    #[track_caller]
    fn acquire(&self) -> chk::Token {
        chk::acquire(self.class)
    }

    #[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
    #[inline(always)]
    fn acquire(&self) -> chk::Token {
        chk::Token
    }

    /// Shared access. Checked against the held-lock stack.
    #[track_caller]
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        OrderedRwLockReadGuard {
            _token: self.acquire(),
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Exclusive access. Checked against the held-lock stack.
    #[track_caller]
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        OrderedRwLockWriteGuard {
            _token: self.acquire(),
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Consumes the lock, returning the value (no locking, no checking).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access through `&mut` (no locking, no checking).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

/// Shared guard of an [`OrderedRwLock`]; pops its held-stack entry on
/// drop when checking is compiled in.
pub struct OrderedRwLockReadGuard<'a, T> {
    _token: chk::Token,
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard of an [`OrderedRwLock`]; pops its held-stack entry on
/// drop when checking is compiled in.
pub struct OrderedRwLockWriteGuard<'a, T> {
    _token: chk::Token,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A [`Mutex`] carrying a [`LockClass`], validated against the global
/// acquisition order on every acquisition when checking is compiled in.
pub struct OrderedMutex<T> {
    #[cfg(any(debug_assertions, feature = "lock-order-check"))]
    class: &'static LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// A new mutex of the given class.
    pub fn new(class: &'static LockClass, value: T) -> Self {
        #[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
        let _ = class;
        Self {
            #[cfg(any(debug_assertions, feature = "lock-order-check"))]
            class,
            inner: Mutex::new(value),
        }
    }

    #[cfg(any(debug_assertions, feature = "lock-order-check"))]
    #[track_caller]
    fn acquire(&self) -> chk::Token {
        chk::acquire(self.class)
    }

    #[cfg(not(any(debug_assertions, feature = "lock-order-check")))]
    #[inline(always)]
    fn acquire(&self) -> chk::Token {
        chk::Token
    }

    /// Exclusive access. Checked against the held-lock stack.
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        OrderedMutexGuard {
            _token: self.acquire(),
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Consumes the mutex, returning the value (no locking, no checking).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access through `&mut` (no locking, no checking).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

/// Guard of an [`OrderedMutex`]; pops its held-stack entry on drop when
/// checking is compiled in.
pub struct OrderedMutexGuard<'a, T> {
    _token: chk::Token,
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit tests here only exercise patterns that are LEGAL under
    // the checker (the violation panics are covered by the dedicated
    // `lock_discipline` integration suite, where `catch_unwind` noise
    // does not interleave with other unit tests' acquisitions).

    #[test]
    fn ascending_acquisition_is_legal_and_recorded() {
        let a = OrderedRwLock::new(&classes::STORE_SHARD, 1u32);
        let b = OrderedMutex::new(&classes::WAL_DURABLE, 2u32);
        let ga = a.read();
        let gb = b.lock();
        assert_eq!((*ga, *gb), (1, 2));
        drop(gb);
        drop(ga);
        assert!(check().is_ok());
        if cfg!(any(debug_assertions, feature = "lock-order-check")) {
            assert!(
                dump().contains("store.shard → wal.durable"),
                "edge recorded:\n{}",
                dump()
            );
        }
    }

    #[test]
    fn reacquire_after_release_is_legal() {
        let l = OrderedRwLock::new(&classes::STORE_SHARD, 0u32);
        for _ in 0..3 {
            let mut g = l.write();
            *g += 1;
        }
        assert_eq!(*l.read(), 3);
    }

    #[test]
    fn a_panic_under_a_guard_leaves_both_locks_usable() {
        let rw = OrderedRwLock::new(&classes::STORE_SHARD, 1u32);
        let mx = OrderedMutex::new(&classes::WAL_DURABLE, 2u32);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut r = rw.write();
                let mut m = mx.lock();
                *r += 10;
                *m += 20;
                panic!("dies holding both guards");
            })
            .join()
            .is_err()
        });
        assert!(panicked);
        assert!(rw.inner.is_poisoned() && mx.inner.is_poisoned());
        assert_eq!(*rw.read(), 11);
        *rw.write() += 1;
        assert_eq!(*mx.lock(), 22);
        let (mut rw, mut mx) = (rw, mx);
        *rw.get_mut() += 1;
        *mx.get_mut() += 1;
        assert_eq!((rw.into_inner(), mx.into_inner()), (13, 23));
    }

    #[test]
    fn declared_ranks_are_unique_and_ascending() {
        let all = classes::all();
        for pair in all.windows(2) {
            assert!(
                pair[0].rank < pair[1].rank,
                "{} ({}) must rank strictly below {} ({})",
                pair[0].name,
                pair[0].rank,
                pair[1].name,
                pair[1].rank
            );
        }
    }
}
