//! Set-associative LRU cache simulation and sampled miss-rate estimation.
//!
//! The interval performance model needs, for every (workload phase, cache
//! capacity) pair, the *global* miss rate -- the fraction of all memory
//! accesses that miss a cache of that capacity. For LRU, the inclusion
//! property lets each level of a hierarchy be estimated independently: the
//! global miss rate at level `i` equals the miss rate of a single cache of
//! capacity `C_i` running the same stream.
//!
//! Estimation runs a sampled synthetic address stream from the phase's
//! [`LocalityProfile`] through a *real* set-associative LRU array. Large
//! caches are scaled down together with the footprint (miss rates depend on
//! the capacity/working-set ratio, not absolute sizes), which keeps warmup
//! and sample cost bounded; results are memoized.
//!
//! The estimator's array is a private recency-ordered kernel rather than
//! the general [`Cache`]; [`simulate_miss_rate_reference`] drives the same
//! stream through [`Cache`] and is the oracle the kernel is tested
//! against, bit for bit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use lhr_trace::{LocalityProfile, SplitMix64};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless the line size is a power of two, the capacity is a
    /// multiple of `ways x line`, and all quantities are positive.
    #[must_use]
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes >= ways as u64 * line_bytes,
            "capacity {size_bytes} smaller than one set ({ways} x {line_bytes})"
        );
        assert_eq!(
            size_bytes % (ways as u64 * line_bytes),
            0,
            "capacity must be a whole number of sets"
        );
        Self {
            size_bytes,
            ways,
            line_bytes,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }
}

/// A concrete set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// `tags[set * ways + way]`; `u64::MAX` marks invalid.
    tags: Vec<u64>,
    /// Per-entry last-use stamps for LRU replacement.
    stamps: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let entries = (geometry.sets() as usize) * geometry.ways;
        Self {
            geometry,
            tags: vec![u64::MAX; entries],
            stamps: vec![0; entries],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Performs one access; returns `true` on hit. Misses allocate (the
    /// model is write-allocate for both loads and stores).
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.geometry.line_bytes;
        let sets = self.geometry.sets();
        let set = (line % sets) as usize;
        let ways = self.geometry.ways;
        let base = set * ways;
        let tag = line / sets;

        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for i in base..base + ways {
            if self.tags[i] == tag {
                self.stamps[i] = self.clock;
                self.hits += 1;
                return true;
            }
            if self.stamps[i] < victim_stamp {
                victim_stamp = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = tag;
        self.stamps[victim] = self.clock;
        self.misses += 1;
        false
    }

    /// Hits observed so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the statistics (contents are retained).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// The observed miss rate; 0 if no accesses have occurred.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Multiply-xor folding hasher for the memos' fixed-width `u64`-array
/// keys (this estimator's and the chip simulator's phase memo): the
/// default SipHash costs more than the lookup it guards. Collisions only
/// cost a probe -- the maps store full keys -- so a weak-but-fast hash is
/// safe here.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Integer-slice hashing funnels the whole key through one `write`
        // call, so fold eight bytes per multiply, not one.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0 ^ u64::from_le_bytes(word)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Sampling parameters for miss-rate estimation.
const TARGET_MAX_LINES: u64 = 4096;
const WARMUP_FACTOR: u64 = 4;
const SAMPLE_ACCESSES: u64 = 24_576;
/// Line size and associativity of the sampled array.
const LINE: u64 = 64;
const WAYS: usize = 8;

/// Memo key: every field of the profile the address stream reads, raw,
/// then the capacity.
type EstimateKey = [u64; 8];

/// Memoized sampled-simulation miss-rate estimator.
///
/// Shared across the whole process: miss rates are pure functions of
/// (locality profile, capacity), so a global memo is sound and keeps full
/// 61-benchmark x 45-configuration sweeps fast.
#[derive(Debug, Default)]
pub struct MissRateEstimator {
    memo: Mutex<HashMap<EstimateKey, f64, BuildHasherDefault<KeyHasher>>>,
}

impl MissRateEstimator {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide shared estimator.
    #[must_use]
    pub fn global() -> &'static MissRateEstimator {
        static GLOBAL: std::sync::OnceLock<MissRateEstimator> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(MissRateEstimator::new)
    }

    /// Estimates the global miss rate of a cache with `capacity_bytes` and
    /// 64-byte lines running the given locality profile.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn global_miss_rate(&self, locality: &LocalityProfile, capacity_bytes: u64) -> f64 {
        assert!(capacity_bytes > 0, "capacity must be positive");
        // Keyed on the raw fields, not on `locality_key`: that hash omits
        // the stride, which the address stream reads.
        let key = [
            locality.hot_bytes(),
            locality.warm_bytes(),
            locality.footprint_bytes(),
            locality.hot_fraction().to_bits(),
            locality.warm_fraction().to_bits(),
            locality.pointer_chase().to_bits(),
            locality.stream_stride(),
            capacity_bytes,
        ];
        if let Some(&rate) = self.memo.lock().expect("estimator lock").get(&key) {
            return rate;
        }
        let rate = simulate_miss_rate(locality, capacity_bytes);
        self.memo
            .lock()
            .expect("estimator lock")
            .insert(key, rate);
        rate
    }
}

/// A stable hash of the locality profile's defining fields: the seed of
/// the sampled address stream. It omits the stride, so it is not a memo
/// key; it stays as it is because every estimate's stream derives from it.
fn locality_key(l: &LocalityProfile) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(l.hot_bytes());
    mix(l.warm_bytes());
    mix(l.footprint_bytes());
    mix(l.hot_fraction().to_bits());
    mix(l.warm_fraction().to_bits());
    mix(l.pointer_chase().to_bits());
    h
}

/// The sampled array's capacity and the profile it runs: big caches (and
/// the footprint with them) are scaled down so the array stays small and
/// warmup stays cheap; small ones are rounded to whole 8-way sets.
fn sampled_cache(locality: &LocalityProfile, capacity_bytes: u64) -> (u64, LocalityProfile) {
    let lines = capacity_bytes / LINE;
    let (capacity, profile) = if lines > TARGET_MAX_LINES {
        let factor = TARGET_MAX_LINES as f64 / lines as f64;
        (TARGET_MAX_LINES * LINE, locality.scaled(factor))
    } else {
        (capacity_bytes, *locality)
    };
    // Keep at least one 8-way set; use 8-way like real L2/LLCs.
    let set_bytes = LINE * WAYS as u64;
    let size = capacity.max(set_bytes);
    (size - size % set_bytes, profile)
}

/// The estimator's kernel: the stream, warm-up and sample of
/// [`simulate_miss_rate_reference`] through a private 8-way LRU array.
///
/// Each set is its tags in recency order: a hit moves its tag to the
/// front, a miss inserts at the front and drops the last. LRU hits and
/// misses depend only on which lines a set holds, never on which way
/// holds them, so this array hits and misses exactly where [`Cache`]
/// does. A set's tag is the whole line number (unique within the set),
/// and the set index is a mask when the set count is a power of two.
fn simulate_miss_rate(locality: &LocalityProfile, capacity_bytes: u64) -> f64 {
    let (size, profile) = sampled_cache(locality, capacity_bytes);
    let sets = size / (LINE * WAYS as u64);
    let mask = sets.is_power_of_two().then(|| sets - 1);
    let mut tags = vec![[u64::MAX; WAYS]; sets as usize];
    // Returns whether the access hit.
    let mut access = |addr: u64| {
        let line = addr / LINE;
        let set = match mask {
            Some(mask) => line & mask,
            None => line % sets,
        };
        let ways = &mut tags[set as usize];
        let mut carry = line;
        for way in ways.iter_mut() {
            let held = std::mem::replace(way, carry);
            if held == line {
                return true;
            }
            carry = held;
        }
        false
    };

    let mut rng = SplitMix64::new(0x5eed_cafe ^ locality_key(&profile));
    profile
        .address_stream(&mut rng)
        .take(((size / LINE) * WARMUP_FACTOR) as usize)
        .for_each(|a| {
            access(a);
        });
    let mut rng2 = rng.split(1);
    let misses = profile
        .address_stream(&mut rng2)
        .take(SAMPLE_ACCESSES as usize)
        .filter(|&a| !access(a))
        .count();
    misses as f64 / SAMPLE_ACCESSES as f64
}

/// The estimator's oracle: the sampled simulation through the general
/// [`Cache`], one access at a time. The estimator returns exactly -- to
/// the bit -- what this returns for the same profile and capacity.
///
/// # Panics
///
/// Panics if `capacity_bytes` is zero.
#[must_use]
pub fn simulate_miss_rate_reference(locality: &LocalityProfile, capacity_bytes: u64) -> f64 {
    assert!(capacity_bytes > 0, "capacity must be positive");
    let (size, profile) = sampled_cache(locality, capacity_bytes);
    let mut cache = Cache::new(CacheGeometry::new(size, WAYS, LINE));

    let mut rng = SplitMix64::new(0x5eed_cafe ^ locality_key(&profile));
    let warm_accesses = (size / LINE) * WARMUP_FACTOR;
    {
        let mut stream = profile.address_stream(&mut rng);
        for _ in 0..warm_accesses {
            let a = stream.next().expect("address streams are infinite");
            cache.access(a);
        }
    }
    cache.reset_stats();
    let mut rng2 = rng.split(1);
    let mut stream = profile.address_stream(&mut rng2);
    for _ in 0..SAMPLE_ACCESSES {
        let a = stream.next().expect("address streams are infinite");
        cache.access(a);
    }
    cache.miss_rate()
}

/// A TLB model: a fully-associative LRU array of page translations.
///
/// Estimation reuses the cache machinery with "lines" of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tlb {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl Tlb {
    /// Creates a TLB descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or the page size is not a power of two.
    #[must_use]
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(page_bytes.is_power_of_two(), "page size must be a power of two");
        Self {
            entries,
            page_bytes,
        }
    }

    /// Estimates the TLB miss rate (per memory access) for a profile.
    ///
    /// Approximated analytically from page-granular reach: accesses to a
    /// tier whose page span fits in the TLB's reach hit; accesses to larger
    /// tiers miss in proportion to how much of the tier the reach covers.
    #[must_use]
    pub fn miss_rate(&self, locality: &LocalityProfile) -> f64 {
        let reach = self.entries as u64 * self.page_bytes;
        let tier_miss = |bytes: u64, available: u64| -> f64 {
            if bytes <= available {
                0.0
            } else {
                1.0 - available as f64 / bytes as f64
            }
        };
        // Hot tier gets first claim on the reach, then warm, then cold.
        let hot = locality.hot_bytes();
        let warm = locality.warm_bytes();
        let cold = locality.footprint_bytes().saturating_sub(hot + warm);
        let hot_miss = tier_miss(hot.max(1), reach);
        let after_hot = reach.saturating_sub(hot);
        let warm_miss = tier_miss(warm.max(1), after_hot);
        let after_warm = after_hot.saturating_sub(warm);
        let cold_miss = tier_miss(cold.max(1), after_warm);
        let cold_fraction = 1.0 - locality.hot_fraction() - locality.warm_fraction();
        (locality.hot_fraction() * hot_miss
            + locality.warm_fraction() * warm_miss
            + cold_fraction.max(0.0) * cold_miss)
            .clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry::new(32 << 10, 8, 64);
        assert_eq!(g.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size() {
        let _ = CacheGeometry::new(32 << 10, 8, 48);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn ragged_capacity() {
        let _ = CacheGeometry::new((32 << 10) + 64, 8, 64);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheGeometry::new(4096, 4, 64));
        assert!(!c.access(0)); // cold miss
        assert!(c.access(0));
        assert!(c.access(8)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct associativity test: 2-way, single set (128 B cache).
        let mut c = Cache::new(CacheGeometry::new(128, 2, 64));
        c.access(0); // A
        c.access(1024); // B (same set)
        c.access(0); // touch A; B is now LRU
        c.access(2048); // C evicts B
        assert!(c.access(0), "A must still be resident");
        assert!(!c.access(1024), "B must have been evicted");
    }

    #[test]
    fn working_set_within_capacity_has_near_zero_misses() {
        let loc = LocalityProfile::cache_resident(16 << 10);
        let rate = MissRateEstimator::new().global_miss_rate(&loc, 64 << 10);
        assert!(rate < 0.01, "rate = {rate}");
    }

    #[test]
    fn working_set_far_beyond_capacity_mostly_misses() {
        let loc = LocalityProfile::pointer_chasing(64 << 20);
        let rate = MissRateEstimator::new().global_miss_rate(&loc, 32 << 10);
        assert!(rate > 0.9, "rate = {rate}");
    }

    #[test]
    fn miss_rate_monotone_in_capacity() {
        let loc = LocalityProfile::hierarchical(32 << 10, 512 << 10, 16 << 20, 0.6, 0.25)
            .with_pointer_chase(0.5);
        let est = MissRateEstimator::new();
        let small = est.global_miss_rate(&loc, 16 << 10);
        let med = est.global_miss_rate(&loc, 256 << 10);
        let big = est.global_miss_rate(&loc, 8 << 20);
        assert!(small >= med - 0.02, "{small} vs {med}");
        assert!(med >= big - 0.02, "{med} vs {big}");
        assert!(small > big, "{small} vs {big}");
    }

    #[test]
    fn streaming_misses_at_line_granularity() {
        // Unit-stride streaming over a huge footprint: every line is new,
        // so with 64B lines and 64B stride every access misses.
        let loc = LocalityProfile::streaming(256 << 20);
        let rate = MissRateEstimator::new().global_miss_rate(&loc, 32 << 10);
        assert!(rate > 0.9, "rate = {rate}");
    }

    #[test]
    fn memoization_is_consistent() {
        let loc = LocalityProfile::cache_resident(128 << 10);
        let est = MissRateEstimator::new();
        let a = est.global_miss_rate(&loc, 32 << 10);
        let b = est.global_miss_rate(&loc, 32 << 10);
        assert_eq!(a, b);
    }

    #[test]
    fn memo_distinguishes_profiles_that_differ_only_in_stride() {
        // The stride is read by the address stream but not hashed into
        // the stream's seed: an estimator warmed on one stride must not
        // answer for another.
        let unit = LocalityProfile::streaming(8 << 20);
        let sparse = unit.with_stream_stride(8);
        let est = MissRateEstimator::new();
        let warm_unit = est.global_miss_rate(&unit, 32 << 10);
        let warm_sparse = est.global_miss_rate(&sparse, 32 << 10);
        let fresh_sparse = MissRateEstimator::new().global_miss_rate(&sparse, 32 << 10);
        assert_eq!(warm_sparse.to_bits(), fresh_sparse.to_bits());
        assert_eq!(warm_unit, 1.0, "unit-stride streaming misses every line");
        assert!(fresh_sparse < 0.2, "eight words per line: {fresh_sparse}");
    }

    #[test]
    fn scaled_estimation_tracks_capacity_ratio() {
        // A working set at 2x capacity should see similar miss rates whether
        // the cache is 256 KiB or 8 MiB (the estimator scales the big one).
        let small_ws = LocalityProfile::hierarchical(512 << 10, 0, 512 << 10, 1.0, 0.0);
        let big_ws = small_ws.scaled(32.0);
        let est = MissRateEstimator::new();
        let small = est.global_miss_rate(&small_ws, 256 << 10);
        let big = est.global_miss_rate(&big_ws, 8 << 20);
        assert!((small - big).abs() < 0.08, "{small} vs {big}");
    }

    #[test]
    fn tlb_reach_covers_small_footprints() {
        let tlb = Tlb::new(64, 4096); // 256 KiB reach
        let resident = LocalityProfile::cache_resident(128 << 10);
        assert_eq!(tlb.miss_rate(&resident), 0.0);
        let huge = LocalityProfile::pointer_chasing(1 << 30);
        assert!(tlb.miss_rate(&huge) > 0.99);
    }

    #[test]
    fn tlb_miss_rate_monotone_in_entries() {
        let loc = LocalityProfile::hierarchical(64 << 10, 1 << 20, 64 << 20, 0.5, 0.3);
        let small = Tlb::new(32, 4096).miss_rate(&loc);
        let big = Tlb::new(512, 4096).miss_rate(&loc);
        assert!(small >= big);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_tlb_panics() {
        let _ = Tlb::new(0, 4096);
    }
}
