//! The measurement cell cache: pluggable storage for resolved
//! `(configuration, workload)` cells.
//!
//! The runner treats a measurement as a pure function of its cell under
//! the fixed seed policy, so repeats are served from cache. Campaigns
//! want the original unbounded lab notebook ([`UnboundedCache`]): a
//! study grid is finite and every cell will be read again by a later
//! figure. A long-lived *server* cannot grow without bound, so the
//! serving layer swaps in a [`ShardedLruCache`]: fixed capacity, shard
//! locks so concurrent workers rarely contend, and least-recently-used
//! eviction inside each shard.
//!
//! The cache key ([`CellKey`]) carries the *structural* fingerprints of
//! both the configuration and the workload, not just their display
//! labels -- the label rounds the clock to one decimal, so nearby DVFS
//! points (2.66 vs 2.71 GHz) share a label while simulating differently
//! (the figure7/figure8 collision fixed in an earlier PR).

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use lhr_uarch::ChipConfig;
use lhr_workloads::Workload;

use crate::error::MeasureHealth;
use crate::runner::RunMeasurement;

/// A resolved cell: the measurement plus what it cost to obtain.
pub type CachedCell = (RunMeasurement, MeasureHealth);

/// The identity of one measurement cell.
///
/// Two cells are the same iff they would simulate identically: same
/// machine configuration (structurally, via fingerprint) and same
/// workload (structurally, via fingerprint). The human-readable label
/// rides along for diagnostics and journal attribution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Configuration label (e.g. `i7 (45) 4C2T@2.7GHz`).
    pub config_label: String,
    /// Structural configuration fingerprint (see [`config_fingerprint`]).
    pub config_fingerprint: u64,
    /// Workload name (Table 1).
    pub workload: &'static str,
    /// Structural workload fingerprint (see [`workload_fingerprint`]).
    pub workload_fingerprint: u64,
}

impl CellKey {
    /// The key for a `(configuration, workload)` cell.
    #[must_use]
    pub fn new(config: &ChipConfig, workload: &Workload) -> Self {
        Self {
            config_label: config.label(),
            config_fingerprint: config_fingerprint(config),
            workload: workload.name(),
            workload_fingerprint: workload_fingerprint(workload),
        }
    }

    /// A stable 64-bit hash of the structural identity, used to pick a
    /// shard (and by the serving layer as its single-flight key). Not
    /// the same as `Hash`: this one is independent of the process's
    /// `HashMap` seeding.
    #[must_use]
    pub fn shard_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        mix(self.config_fingerprint);
        mix(self.workload_fingerprint);
        for b in self.workload.bytes() {
            mix(u64::from(b));
        }
        h
    }
}

/// A structural fingerprint of a configuration for the measurement
/// cache. The human-readable label rounds the clock to one decimal, so
/// nearby DVFS points (2.66 vs 2.71 GHz) share a label while simulating
/// differently; the fingerprint keeps their cache entries apart.
#[must_use]
pub fn config_fingerprint(c: &ChipConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for b in c.spec().short.bytes() {
        mix(u64::from(b));
    }
    mix(c.active_cores() as u64);
    mix(u64::from(c.smt_enabled()));
    mix(u64::from(c.turbo_enabled()));
    mix(c.clock().value().to_bits());
    h
}

/// A cheap structural fingerprint distinguishing modified clones of a
/// catalog workload (ablated services, swapped JVM profiles, scaled
/// traces) in the measurement cache.
#[must_use]
pub fn workload_fingerprint(w: &Workload) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(w.trace().total_instructions());
    if let Some(m) = w.managed() {
        mix(m.gc_work_fraction.to_bits());
        mix(m.jit_work_fraction.to_bits());
        mix(m.displacement_miss_factor.to_bits());
        mix(m.gc_threads as u64);
    }
    h
}

/// Storage for resolved measurement cells.
///
/// Implementations are shared across worker threads behind an `Arc`, so
/// every method takes `&self` and must be internally synchronized. A
/// `get` that returns `Some` must return exactly the bytes that were
/// inserted -- the cache layer is zero-perturbation on the measurement
/// path, whatever the eviction policy.
pub trait CellCache: Send + Sync + fmt::Debug {
    /// The cell, if present. Implementations may treat this as a "use"
    /// for eviction ordering.
    fn get(&self, key: &CellKey) -> Option<CachedCell>;

    /// Stores a resolved cell (replacing any previous entry for the key).
    fn insert(&self, key: CellKey, cell: CachedCell);

    /// Entries currently resident.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted to make room so far (0 for unbounded caches).
    fn evictions(&self) -> u64 {
        0
    }

    /// The bound on resident entries, if any.
    fn capacity(&self) -> Option<usize> {
        None
    }
}

/// The campaign cache: grows for the life of the process, never evicts.
///
/// Correct for finite study grids (every cell is read again by a later
/// figure, and the grid is 45 x 61 at most); wrong for a server, which
/// is why [`CellCache`] exists.
///
/// Each entry is boxed behind a pointer-size table slot, so the memory
/// the cache holds grows by one entry per cell: when the table doubles,
/// it copies 8-byte slots, not the entries (208 bytes inline).
#[derive(Debug, Default)]
pub struct UnboundedCache {
    entries: Mutex<HashSet<Box<Entry>>>,
}

/// An [`UnboundedCache`] entry, hashed and compared by its key alone.
#[derive(Debug)]
struct Entry {
    key: CellKey,
    cell: CachedCell,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl Borrow<CellKey> for Box<Entry> {
    fn borrow(&self) -> &CellKey {
        &self.key
    }
}

impl CellCache for UnboundedCache {
    fn get(&self, key: &CellKey) -> Option<CachedCell> {
        self.entries.lock().get(key).map(|e| e.cell.clone())
    }

    fn insert(&self, key: CellKey, cell: CachedCell) {
        self.entries.lock().replace(Box::new(Entry { key, cell }));
    }

    fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

/// One shard of a [`ShardedLruCache`]: a map plus a logical clock.
#[derive(Debug, Default)]
struct Shard {
    /// Entries tagged with the tick of their last use.
    map: HashMap<CellKey, (CachedCell, u64)>,
    /// Monotonic use counter; advanced on every get-hit and insert.
    tick: u64,
}

impl Shard {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A bounded, sharded, least-recently-used cell cache for serving.
///
/// Keys are distributed over shards by [`CellKey::shard_hash`], so
/// concurrent workers measuring different cells almost never contend on
/// a lock. Each shard holds at most `ceil(capacity / shards)` entries
/// and evicts its least-recently-used entry when full. A `get` hit
/// refreshes the entry's recency.
pub struct ShardedLruCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
}

impl ShardedLruCache {
    /// A cache holding at most (approximately) `capacity` cells across
    /// `shards` shards. Capacity is rounded up to a multiple of the
    /// shard count so every shard can hold at least one entry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity for at least one cell");
        assert!(shards > 0, "cache needs at least one shard");
        let per_shard_capacity = capacity.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Cache hits served so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn shard_for(&self, key: &CellKey) -> &Mutex<Shard> {
        let idx = (key.shard_hash() % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }
}

impl fmt::Debug for ShardedLruCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedLruCache")
            .field("shards", &self.shards.len())
            .field("per_shard_capacity", &self.per_shard_capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl CellCache for ShardedLruCache {
    fn get(&self, key: &CellKey) -> Option<CachedCell> {
        let mut shard = self.shard_for(key).lock();
        let tick = shard.touch();
        match shard.map.get_mut(key) {
            Some((cell, last_used)) => {
                *last_used = tick;
                let cell = cell.clone();
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: CellKey, cell: CachedCell) {
        let mut shard = self.shard_for(&key).lock();
        let tick = shard.touch();
        // A replacement never needs an eviction; only net-new keys do.
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            if let Some(lru) = shard
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&lru);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, (cell, tick));
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    fn evictions(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.per_shard_capacity * self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use lhr_uarch::ProcessorId;
    use lhr_workloads::by_name;

    fn cell_for(workload: &str) -> (CellKey, CachedCell) {
        let cfg = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
        let w = by_name(workload).unwrap();
        let runner = Runner::fast();
        let (m, h) = runner.try_measure(&cfg, w).unwrap();
        (CellKey::new(&cfg, w), (m, h))
    }

    #[test]
    fn cell_keys_separate_label_collisions() {
        use lhr_units::Hertz;
        let w = by_name("jess").unwrap();
        // 2.66 vs 2.71 GHz round to the same one-decimal label.
        let spec = ProcessorId::CoreI5_670.spec();
        let a = ChipConfig::stock(spec).with_clock(Hertz::from_ghz(2.66)).unwrap();
        let b = ChipConfig::stock(spec).with_clock(Hertz::from_ghz(2.71)).unwrap();
        assert_eq!(a.label(), b.label(), "labels collide by construction");
        let ka = CellKey::new(&a, w);
        let kb = CellKey::new(&b, w);
        assert_ne!(ka, kb, "fingerprints must keep the cells apart");
        assert_ne!(ka.shard_hash(), kb.shard_hash());
    }

    #[test]
    fn unbounded_cache_round_trips_and_never_evicts() {
        let cache = UnboundedCache::default();
        let (key, cell) = cell_for("jess");
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());
        cache.insert(key.clone(), cell.clone());
        assert_eq!(cache.get(&key), Some(cell));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity(), None);
        // A second insert under the key replaces the entry.
        let (_, other) = cell_for("mcf");
        cache.insert(key.clone(), other.clone());
        assert_eq!(cache.get(&key), Some(other));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        // One shard, capacity two: classic LRU order becomes observable.
        let cache = ShardedLruCache::new(2, 1);
        let (ka, cell_a) = cell_for("jess");
        let (kb, cell_b) = cell_for("mcf");
        let (kc, cell_c) = cell_for("hmmer");
        cache.insert(ka.clone(), cell_a);
        cache.insert(kb.clone(), cell_b);
        // Touch `a`: `b` is now the least recently used.
        assert!(cache.get(&ka).is_some());
        cache.insert(kc.clone(), cell_c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&ka).is_some(), "recently used entry survives");
        assert!(cache.get(&kc).is_some(), "new entry resident");
        assert!(
            cache.get(&kb).is_none(),
            "least recently used entry was evicted"
        );
        assert_eq!(cache.capacity(), Some(2));
    }

    #[test]
    fn lru_replacement_does_not_evict_a_neighbour() {
        let cache = ShardedLruCache::new(2, 1);
        let (ka, cell_a) = cell_for("jess");
        let (kb, cell_b) = cell_for("mcf");
        cache.insert(ka.clone(), cell_a.clone());
        cache.insert(kb.clone(), cell_b);
        // Re-inserting an existing key is a replacement, not growth.
        cache.insert(ka.clone(), cell_a);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get(&kb).is_some());
    }

    #[test]
    fn sharded_capacity_rounds_up_and_counts_hits_and_misses() {
        let cache = ShardedLruCache::new(10, 4);
        assert_eq!(cache.capacity(), Some(12), "ceil(10/4) = 3 per shard");
        let (key, cell) = cell_for("jess");
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), cell);
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }
}
