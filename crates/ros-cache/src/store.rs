//! The bounded, injected memo store behind every geometry/EM table.
//!
//! [`GeomCache`] maps structural [`Key`]s to shared immutable tables
//! (`Arc<T>`). It is always passed by reference — never a global, per
//! the PR 5 incident rule — and its behaviour is deterministic end to
//! end:
//!
//! * **Lookup** is exact: keys compare on their full structural byte
//!   encoding, so two different inputs can never alias one table.
//! * **One slot per key, no build under the lock**: a lookup reserves
//!   the key's slot (a `OnceLock`) under the store lock, releases the
//!   lock, and only then builds. A concurrent lookup of the same key
//!   finds the reserved slot and waits on it, so every key is still
//!   built exactly once regardless of thread count, while lookups of
//!   other keys — including lookups made from inside a build, on its
//!   own thread or on `ros-exec` workers — proceed. The store lock is a
//!   leaf: nothing else is locked, built or blocked on while it is held.
//! * **Eviction** is insertion-order (FIFO), never hash-order or
//!   recency-order. Every counter and the eviction order are updated
//!   at reservation time, under the lock, so which entry dies is a
//!   pure function of the lookup sequence, not of which build finishes
//!   first.
//!
//! Every table kind carries hit/miss/insert/evict counters; a serial
//! epilogue exports them as `cache.*` metrics via
//! [`GeomCache::emit_obs`].

use ros_obs::names;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use ros_em::units::cast::AsF64;

use crate::key::Key;

/// Default bounded capacity: comfortably above any realistic distinct
/// design count in a corridor, small enough that a runaway key stream
/// cannot exhaust memory.
pub(crate) const DEFAULT_CAPACITY: usize = 512;

/// The table families the cache distinguishes for accounting and
/// targeted invalidation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TableKind {
    /// Radiation/array-factor pattern tables (stack elevation cuts,
    /// VAA azimuth cuts, whole-tag layouts).
    Pattern,
    /// Transmission-line dispersion tables over a frequency grid.
    Dispersion,
    /// DE-optimized beam-shaping profiles (`ShapingProfile`).
    Shaping,
}

impl TableKind {
    /// All kinds, in counter-emission order.
    pub const ALL: [TableKind; 3] = [
        TableKind::Pattern,
        TableKind::Dispersion,
        TableKind::Shaping,
    ];

    fn index(self) -> usize {
        match self {
            TableKind::Pattern => 0,
            TableKind::Dispersion => 1,
            TableKind::Shaping => 2,
        }
    }

}

/// Monotonic per-kind lookup accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
// lint: allow-dead-pub(returned by StatsSnapshot::kind; callers bind fields, never the name)
pub struct CacheStats {
    /// Lookups that found the key's slot already reserved, built or
    /// still building.
    pub hits: u64,
    /// Lookups that reserved the key's slot and built the table.
    pub misses: u64,
    /// Entries inserted (== misses unless a downcast mismatch replaced
    /// an entry in place).
    pub inserts: u64,
    /// Entries evicted by the capacity bound, dropped by
    /// `clear`/`invalidate_kind`, or dropped because their build
    /// panicked.
    pub evictions: u64,
}

/// A point-in-time copy of every kind's [`CacheStats`] plus the entry
/// count, used both for assertions and for delta-based obs export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
// lint: allow-dead-pub(returned by GeomCache::snapshot; callers bind methods, never the name)
pub struct StatsSnapshot {
    /// Per-kind stats, indexed by [`TableKind::ALL`] order.
    pub by_kind: [CacheStats; 3],
    /// Live entries at snapshot time.
    pub entries: usize,
}

impl StatsSnapshot {
    /// Stats for one table kind.
    pub fn kind(&self, kind: TableKind) -> CacheStats {
        self.by_kind[kind.index()]
    }

    /// Total hits across kinds.
    pub fn hits(&self) -> u64 {
        self.by_kind.iter().map(|s| s.hits).sum()
    }

    /// Total misses across kinds.
    pub fn misses(&self) -> u64 {
        self.by_kind.iter().map(|s| s.misses).sum()
    }

    /// Total inserts across kinds.
    pub fn inserts(&self) -> u64 {
        self.by_kind.iter().map(|s| s.inserts).sum()
    }

    /// Total evictions across kinds.
    pub fn evictions(&self) -> u64 {
        self.by_kind.iter().map(|s| s.evictions).sum()
    }
}

/// A key's table: reserved under the store lock, filled by the
/// reserving lookup after the lock is released. The concrete type is
/// `OnceLock<Arc<T>>`, erased so one map holds every table type.
type Slot = Arc<dyn Any + Send + Sync>;

struct Entry {
    kind: TableKind,
    slot: Slot,
}

struct Inner {
    map: BTreeMap<Key, Entry>,
    /// Insertion order; the front is the eviction victim. Never
    /// reordered on hit (FIFO, not LRU) so eviction is a pure function
    /// of the insert sequence.
    order: VecDeque<Key>,
    by_kind: [CacheStats; 3],
    capacity: usize,
}

/// Content-addressed store of shared immutable geometry/EM tables.
///
/// Cheap to share: `Clone` clones the `Arc`, so producers and workers
/// hold handles to the *same* store. All methods take `&self`.
#[derive(Clone)]
pub struct GeomCache {
    inner: Arc<Mutex<Inner>>,
}

impl Default for GeomCache {
    fn default() -> Self {
        GeomCache::new()
    }
}

impl std::fmt::Debug for GeomCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("GeomCache")
            .field("entries", &snap.entries)
            .field("hits", &snap.hits())
            .field("misses", &snap.misses())
            .finish()
    }
}

impl GeomCache {
    /// A cache with the default 512-entry bound (`DEFAULT_CAPACITY`).
    pub fn new() -> Self {
        GeomCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded to `capacity` entries (clamped to at least 1).
    /// When full, the oldest-inserted entry is evicted first.
    pub fn with_capacity(capacity: usize) -> Self {
        GeomCache {
            inner: Arc::new(Mutex::new(Inner {
                map: BTreeMap::new(),
                order: VecDeque::new(),
                by_kind: [CacheStats::default(); 3],
                capacity: capacity.max(1),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Nothing that can panic runs under the lock (builds run after
        // it is released), but recover from poisoning rather than
        // cascade should that ever change.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Fetch-or-build the table for `key`.
    ///
    /// The lookup reserves `key`'s slot under the store lock (a miss,
    /// with its insert and any FIFO eviction) or finds it reserved (a
    /// hit, whether or not its table is built yet), then releases the
    /// lock. The lookup that reserved the slot runs `build`; a
    /// concurrent lookup of the same key waits for that build, so
    /// every distinct key is built exactly once regardless of thread
    /// count. If `build` panics the slot is removed again, so the next
    /// lookup builds afresh and counts a miss (a lookup already waiting
    /// on the slot builds in its place).
    ///
    /// `build` may look up *other* keys of this cache, from its own
    /// thread or from `ros-exec` workers. It must not look up its own
    /// key: that waits on the slot it is filling, and `OnceLock`
    /// deadlocks on such re-entry.
    pub fn get_or_build<T, F>(&self, kind: TableKind, key: Key, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let (slot, reserved) = self.lock().reserve::<T>(kind, &key);
        let mut unreserve = Unreserve {
            cache: self,
            reserved: reserved.map(|erased| (key, erased)),
        };
        let value = Arc::clone(slot.get_or_init(|| Arc::new(build())));
        unreserve.reserved = None;
        value
    }

    /// Whether `key` currently has a live entry (no stats effect).
    pub fn contains(&self, key: &Key) -> bool {
        self.lock().map.contains_key(key)
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counted as evictions). Stats survive.
    pub fn clear(&self) {
        let mut g = self.lock();
        // lint: allow-alloc(cold invalidation API; the callgraph resolves `clear` by name and collides with Vec::clear in hot code)
        let kinds: Vec<TableKind> = g.map.values().map(|e| e.kind).collect();
        for kind in kinds {
            g.by_kind[kind.index()].evictions += 1;
        }
        g.map.clear();
        g.order.clear();
    }

    /// Drops every entry of one table kind (counted as evictions),
    /// e.g. after a change that invalidates all shaping profiles.
    pub fn invalidate_kind(&self, kind: TableKind) {
        let mut g = self.lock();
        let dead: Vec<Key> = g
            .map
            .iter()
            .filter(|(_, e)| e.kind == kind)
            .map(|(k, _)| k.clone())
            .collect();
        for key in dead {
            g.map.remove(&key);
            g.by_kind[kind.index()].evictions += 1;
        }
        let inner = &mut *g;
        inner.order.retain(|k| inner.map.contains_key(k));
    }

    /// A point-in-time copy of all counters and the entry count.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = self.lock();
        StatsSnapshot {
            by_kind: g.by_kind,
            entries: g.map.len(),
        }
    }

    /// Emits the counter deltas since `since` as `cache.*` metrics.
    ///
    /// Call this from a *serial* epilogue (as `ros-serve` does for its
    /// `serve.*` metrics) with a snapshot taken before the parallel
    /// section, so the exported numbers are thread-count-invariant.
    pub fn emit_obs(&self, since: &StatsSnapshot) {
        let now = self.snapshot();
        let d = |cur: u64, old: u64| usize::try_from(cur.saturating_sub(old)).unwrap_or(usize::MAX);
        ros_obs::count(names::CACHE_HIT, d(now.hits(), since.hits()));
        ros_obs::count(names::CACHE_MISS, d(now.misses(), since.misses()));
        ros_obs::count(names::CACHE_INSERT, d(now.inserts(), since.inserts()));
        ros_obs::count(names::CACHE_EVICT, d(now.evictions(), since.evictions()));
        ros_obs::gauge(names::CACHE_ENTRIES, entries_gauge(now.entries));
        for (kind, id) in [
            (TableKind::Pattern, names::CACHE_PATTERN_MISS),
            (TableKind::Dispersion, names::CACHE_DISPERSION_MISS),
            (TableKind::Shaping, names::CACHE_SHAPING_MISS),
        ] {
            ros_obs::count(id, d(now.kind(kind).misses, since.kind(kind).misses));
        }
    }
}

impl Inner {
    /// Finds `key`'s slot for a `T` table (a hit) or reserves a fresh
    /// one (a miss); all counters and the eviction order change here.
    /// Returns the slot and, when this lookup reserved it, its erased
    /// handle.
    fn reserve<T: Send + Sync + 'static>(
        &mut self,
        kind: TableKind,
        key: &Key,
    ) -> (Arc<OnceLock<Arc<T>>>, Option<Slot>) {
        let stats = &mut self.by_kind[kind.index()];
        let found = self.map.get_mut(key);
        if let Some(entry) = &found {
            if let Ok(slot) = Arc::downcast::<OnceLock<Arc<T>>>(Arc::clone(&entry.slot)) {
                stats.hits += 1;
                return (slot, None);
            }
        }
        stats.misses += 1;
        stats.inserts += 1;
        let slot = Arc::new(OnceLock::new());
        let erased: Slot = Arc::<OnceLock<Arc<T>>>::clone(&slot);
        if let Some(entry) = found {
            // Type mismatch under a colliding key (distinct domains
            // make this unreachable in practice): a miss that replaces
            // the entry in place, leaving `order` as it is.
            *entry = Entry { kind, slot: Arc::clone(&erased) };
            return (slot, Some(erased));
        }
        if self.map.len() >= self.capacity {
            // Evict the oldest insert whose entry is still live.
            while let Some(victim) = self.order.pop_front() {
                if let Some(old) = self.map.remove(&victim) {
                    self.by_kind[old.kind.index()].evictions += 1;
                    break;
                }
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key.clone(), Entry { kind, slot: Arc::clone(&erased) });
        (slot, Some(erased))
    }
}

/// Removes the slot a lookup reserved if its build unwinds, unless a
/// later lookup already replaced it; defused by clearing `reserved`
/// once the build returns.
struct Unreserve<'a> {
    cache: &'a GeomCache,
    reserved: Option<(Key, Slot)>,
}

impl Drop for Unreserve<'_> {
    fn drop(&mut self) {
        let Some((key, slot)) = self.reserved.take() else { return };
        let mut g = self.cache.lock();
        if !g.map.get(&key).is_some_and(|e| Arc::ptr_eq(&e.slot, &slot)) {
            return;
        }
        if let Some(dead) = g.map.remove(&key) {
            g.by_kind[dead.kind.index()].evictions += 1;
        }
        g.order.retain(|k| *k != key);
    }
}

/// Entry counts are tiny; the widening is exact.
fn entries_gauge(n: usize) -> f64 {
    n.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn key(n: u64) -> Key {
        KeyBuilder::new("test").u64(n).finish()
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = GeomCache::new();
        let a = cache.get_or_build(TableKind::Pattern, key(1), || vec![1.0_f64, 2.0]);
        let b = cache.get_or_build(TableKind::Pattern, key(1), || vec![9.0_f64]);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the stored table");
        let snap = cache.snapshot();
        assert_eq!(snap.kind(TableKind::Pattern).hits, 1);
        assert_eq!(snap.kind(TableKind::Pattern).misses, 1);
        assert_eq!(snap.entries, 1);
    }

    #[test]
    fn distinct_keys_build_distinct_tables() {
        let cache = GeomCache::new();
        let a = cache.get_or_build(TableKind::Pattern, key(1), || 1u32);
        let b = cache.get_or_build(TableKind::Pattern, key(2), || 2u32);
        assert_eq!((*a, *b), (1, 2));
        assert_eq!(cache.snapshot().misses(), 2);
    }

    #[test]
    fn eviction_is_insertion_order() {
        let cache = GeomCache::with_capacity(2);
        cache.get_or_build(TableKind::Pattern, key(1), || 1u32);
        cache.get_or_build(TableKind::Pattern, key(2), || 2u32);
        // Hitting key(1) must NOT rescue it: FIFO, not LRU.
        cache.get_or_build(TableKind::Pattern, key(1), || 0u32);
        cache.get_or_build(TableKind::Pattern, key(3), || 3u32);
        assert!(!cache.contains(&key(1)), "oldest insert must be evicted");
        assert!(cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
        assert_eq!(cache.snapshot().evictions(), 1);
    }

    #[test]
    fn capacity_one_thrashes_but_stays_correct() {
        let cache = GeomCache::with_capacity(1);
        for round in 0..3u64 {
            let a = cache.get_or_build(TableKind::Shaping, key(10), || 10u64);
            let b = cache.get_or_build(TableKind::Shaping, key(20), || 20u64);
            assert_eq!((*a, *b), (10, 20), "round {round}");
            assert_eq!(cache.len(), 1);
        }
        let snap = cache.snapshot();
        assert_eq!(snap.kind(TableKind::Shaping).misses, 6);
        assert_eq!(snap.kind(TableKind::Shaping).evictions, 5);
    }

    #[test]
    fn clear_counts_evictions_and_keeps_stats() {
        let cache = GeomCache::new();
        cache.get_or_build(TableKind::Dispersion, key(1), || 1u8);
        cache.get_or_build(TableKind::Shaping, key(2), || 2u8);
        cache.clear();
        assert!(cache.is_empty());
        let snap = cache.snapshot();
        assert_eq!(snap.evictions(), 2);
        assert_eq!(snap.misses(), 2, "clear must not reset counters");
        // Rebuild works after clear.
        cache.get_or_build(TableKind::Dispersion, key(1), || 1u8);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalidate_kind_is_targeted() {
        let cache = GeomCache::new();
        cache.get_or_build(TableKind::Pattern, key(1), || 1u8);
        cache.get_or_build(TableKind::Shaping, key(2), || 2u8);
        cache.get_or_build(TableKind::Shaping, key(3), || 3u8);
        cache.invalidate_kind(TableKind::Shaping);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&key(1)));
        let snap = cache.snapshot();
        assert_eq!(snap.kind(TableKind::Shaping).evictions, 2);
        assert_eq!(snap.kind(TableKind::Pattern).evictions, 0);
    }

    #[test]
    fn invalidated_entries_do_not_corrupt_eviction_order() {
        let cache = GeomCache::with_capacity(2);
        cache.get_or_build(TableKind::Shaping, key(1), || 1u8);
        cache.get_or_build(TableKind::Pattern, key(2), || 2u8);
        cache.invalidate_kind(TableKind::Shaping);
        // Capacity 2, one live entry: both inserts must fit, and the
        // next eviction victim must be key(2), not the dead key(1).
        cache.get_or_build(TableKind::Pattern, key(3), || 3u8);
        assert_eq!(cache.len(), 2);
        cache.get_or_build(TableKind::Pattern, key(4), || 4u8);
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
        assert!(cache.contains(&key(4)));
    }

    #[test]
    fn concurrent_lookups_build_each_key_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = GeomCache::new();
        let builds = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for n in 0..16u64 {
                        let v = cache.get_or_build(TableKind::Pattern, key(n), || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            n * 3
                        });
                        assert_eq!(*v, n * 3);
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 16);
        let snap = cache.snapshot();
        assert_eq!(snap.misses(), 16, "one miss per distinct key");
        assert_eq!(snap.hits(), 8 * 16 - 16);
    }

    #[test]
    fn emit_obs_exports_deltas() {
        let (_, lines) = ros_obs::capture_scope(ros_obs::Level::Summary, || {
            let cache = GeomCache::new();
            let before = cache.snapshot();
            cache.get_or_build(TableKind::Shaping, key(1), || 1u8);
            cache.get_or_build(TableKind::Shaping, key(1), || 1u8);
            cache.emit_obs(&before);
            ros_obs::flush();
        });
        let metrics = lines.join("\n");
        assert!(
            metrics.contains(r#""name":"cache.hit","kind":"counter","value":1"#),
            "metrics: {metrics}"
        );
        assert!(
            metrics.contains(r#""name":"cache.shaping.miss","kind":"counter","value":1"#),
            "metrics: {metrics}"
        );
    }
}
