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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lhr_trace::{AddressStream, LocalityProfile, SplitMix64};

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
///
/// Estimates are single-flight: a worker that misses on a key another
/// worker is estimating waits for that value instead of simulating it
/// again. The memo is a B-tree, so its memory grows a node at a time
/// with the estimates made, never by a table doubling.
#[derive(Debug, Default)]
pub struct MissRateEstimator {
    memo: Mutex<EstimateMemo>,
    computed: AtomicU64,
    accesses: AtomicU64,
    waits: AtomicU64,
}

/// A [`MissRateEstimator`]'s finished estimates and those in flight.
#[derive(Debug, Default)]
struct EstimateMemo {
    rates: BTreeMap<EstimateKey, f64>,
    /// Estimates being simulated, for the workers that wait on them.
    in_flight: BTreeMap<EstimateKey, Arc<OnceLock<f64>>>,
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
        static GLOBAL: OnceLock<MissRateEstimator> = OnceLock::new();
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
        self.single_flight(estimate_key(locality, capacity_bytes), || {
            let (rate, accesses) = simulate_miss_rate(locality, capacity_bytes);
            self.accesses.fetch_add(accesses, Ordering::Relaxed);
            rate
        })
    }

    /// Simulations this estimator has run to completion: one per distinct
    /// key, however many workers asked for it at once. An exact count.
    #[must_use]
    pub fn estimates_computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Accesses simulated by the estimates computed: each one's warm-up
    /// plus its sample. An exact count of the kernel's work.
    #[must_use]
    pub fn accesses_simulated(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }

    /// Every finished estimate the memo holds, as (profile, capacity in
    /// bytes, miss rate), in key order.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked while holding the memo's lock.
    #[must_use]
    pub fn estimates(&self) -> Vec<(LocalityProfile, u64, f64)> {
        let memo = self
            .memo
            .lock()
            .expect("no estimator panics holding its lock");
        memo.rates
            .iter()
            .map(|(key, &rate)| {
                let [hot, warm, total, hot_fraction, warm_fraction, chase, stride, capacity] = *key;
                let profile = LocalityProfile::hierarchical(
                    hot,
                    warm,
                    total,
                    f64::from_bits(hot_fraction),
                    f64::from_bits(warm_fraction),
                )
                .with_pointer_chase(f64::from_bits(chase))
                .with_stream_stride(stride);
                (profile, capacity, rate)
            })
            .collect()
    }

    /// Lookups that found their estimate in flight on another worker and
    /// took it from that flight instead of simulating it: how often
    /// workers waited on each other. Depends on timing, so report it;
    /// never gate on it.
    #[must_use]
    pub fn flight_waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// The memoized estimate for `key`, from `compute` on a miss. The
    /// first worker to miss computes it; workers that miss meanwhile wait
    /// on its flight. If that worker panics, the flight stays empty and
    /// one of the waiters computes the estimate instead.
    fn single_flight(&self, key: EstimateKey, compute: impl FnOnce() -> f64) -> f64 {
        let flight = {
            let mut memo = self
                .memo
                .lock()
                .expect("no estimator panics holding its lock");
            if let Some(&rate) = memo.rates.get(&key) {
                return rate;
            }
            Arc::clone(memo.in_flight.entry(key).or_default())
        };
        let mut computed = false;
        let rate = *flight.get_or_init(|| {
            computed = true;
            let rate = compute();
            self.computed.fetch_add(1, Ordering::Relaxed);
            rate
        });
        if !computed {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
        let mut memo = self
            .memo
            .lock()
            .expect("no estimator panics holding its lock");
        memo.rates.insert(key, rate);
        memo.in_flight.remove(&key);
        rate
    }
}

/// The memo key of an estimate. Keyed on the raw fields, not on
/// `locality_key`: that hash omits the stride, which the address stream
/// reads. [`MissRateEstimator::estimates`] reads a profile back from it.
fn estimate_key(locality: &LocalityProfile, capacity_bytes: u64) -> EstimateKey {
    [
        locality.hot_bytes(),
        locality.warm_bytes(),
        locality.footprint_bytes(),
        locality.hot_fraction().to_bits(),
        locality.warm_fraction().to_bits(),
        locality.pointer_chase().to_bits(),
        locality.stream_stride(),
        capacity_bytes,
    ]
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

/// Addresses the kernel generates, then runs through its array, per block.
const BLOCK: usize = 256;

/// The estimator's kernel: the stream, warm-up and sample of
/// [`simulate_miss_rate_reference`] through a private 8-way LRU array.
/// Returns the miss rate and the accesses simulated (warm-up plus
/// sample).
///
/// Each set is its tags in recency order: a hit moves its tag to the
/// front, a miss inserts at the front and drops the last. LRU hits and
/// misses depend only on which lines a set holds, never on which way
/// holds them, so this array hits and misses exactly where [`Cache`]
/// does. A set's tag is the whole line number (unique within the set),
/// and the set index is a mask when the set count is a power of two.
///
/// The stream and the array run as two loops over each block of
/// addresses: [`AddressStream::fill`] keeps the generator in registers,
/// and the array's update has no data-dependent branch for a hit
/// position that is hard to predict.
fn simulate_miss_rate(locality: &LocalityProfile, capacity_bytes: u64) -> (f64, u64) {
    let (size, profile) = sampled_cache(locality, capacity_bytes);
    let sets = size / (LINE * WAYS as u64);
    let mask = sets.is_power_of_two().then(|| sets - 1);
    let mut tags = vec![[u64::MAX; WAYS]; sets as usize];
    // Returns whether the access to `line` hit.
    let mut access = |line: u64| {
        let set = match mask {
            Some(mask) => line & mask,
            None => line % sets,
        };
        touch(&mut tags[set as usize], line)
    };

    let warm_accesses = (size / LINE) * WARMUP_FACTOR;
    let mut rng = SplitMix64::new(0x5eed_cafe ^ locality_key(&profile));
    run_blocks(&mut profile.address_stream(&mut rng), warm_accesses, &mut access);
    let mut rng2 = rng.split(1);
    let misses = run_blocks(&mut profile.address_stream(&mut rng2), SAMPLE_ACCESSES, &mut access);
    (misses as f64 / SAMPLE_ACCESSES as f64, warm_accesses + SAMPLE_ACCESSES)
}

/// Runs the stream's next `accesses` addresses through `access`, a block
/// at a time; returns the misses.
fn run_blocks(
    stream: &mut AddressStream<'_, SplitMix64>,
    accesses: u64,
    mut access: impl FnMut(u64) -> bool,
) -> u64 {
    let mut block = [0; BLOCK];
    let mut misses = 0;
    let mut left = accesses;
    while left > 0 {
        let block = &mut block[..left.min(BLOCK as u64) as usize];
        stream.fill(block);
        for &addr in &*block {
            misses += u64::from(!access(addr / LINE));
        }
        left -= block.len() as u64;
    }
    misses
}

/// One access to a recency-ordered set; returns whether it hit.
///
/// The ways before the hit, or all of them on a miss, move back one and
/// the line takes the front: a miss drops the last way, and a hit
/// overwrites its own. The hit is an 8-way compare mask, and way `i`
/// keeps its tag exactly when the mask has a bit below `i`, so each way
/// is a select, not a branch.
fn touch(ways: &mut [u64; WAYS], line: u64) -> bool {
    let mut hits = 0u32;
    for (i, &tag) in ways.iter().enumerate() {
        hits |= u32::from(tag == line) << i;
    }
    let old = *ways;
    for i in 1..WAYS {
        let keep = hits & ((1 << i) - 1) != 0;
        ways[i] = if keep { old[i] } else { old[i - 1] };
    }
    ways[0] = line;
    hits != 0
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
    fn the_memo_lists_each_estimate_and_counts_its_accesses_once() {
        let hot = LocalityProfile::hierarchical(4096, 8192, 1 << 20, 0.6, 0.3)
            .with_pointer_chase(0.25)
            .with_stream_stride(128);
        let chase = LocalityProfile::pointer_chasing(64 << 20);
        let est = MissRateEstimator::new();
        let small = est.global_miss_rate(&hot, 32 << 10);
        let big = est.global_miss_rate(&chase, 8 << 20);
        let again = est.global_miss_rate(&hot, 32 << 10);
        assert_eq!(small.to_bits(), again.to_bits());
        // 512 lines warm up four times each; 8 MiB is sampled as 4,096
        // lines. A memo hit simulates nothing.
        let warm = |lines: u64| lines * WARMUP_FACTOR + SAMPLE_ACCESSES;
        assert_eq!(est.accesses_simulated(), warm(512) + warm(4096));
        let mut listed = est.estimates();
        listed.sort_by_key(|&(_, capacity, _)| capacity);
        assert_eq!(
            listed.iter().map(|&(p, c, r)| (p, c, r.to_bits())).collect::<Vec<_>>(),
            [(hot, 32 << 10, small.to_bits()), (chase, 8 << 20, big.to_bits())]
        );
    }

    /// Runs `workers` threads that each ask `est` for key `key` at once,
    /// with `compute` standing in for the simulation; returns each
    /// worker's result bits, or `None` for a worker that panicked.
    fn race(
        est: &MissRateEstimator,
        workers: usize,
        compute: &(dyn Fn() -> f64 + Sync),
    ) -> Vec<Option<u64>> {
        let key = [1, 2, 3, 4, 5, 6, 7, 8];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| s.spawn(|| est.single_flight(key, compute).to_bits()))
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        })
    }

    /// Blocks until `workers` workers hold the one flight in `est`: every
    /// one of them has missed and joined it. Panics if they have not
    /// within 30 s, so a memo that stops sharing flights fails the test
    /// instead of hanging it.
    fn await_flight(est: &MissRateEstimator, workers: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let memo = est.memo.lock().expect("no test panics holding the lock");
            let holders = memo.in_flight.values().next().map_or(0, Arc::strong_count);
            if holders == workers + 1 {
                return;
            }
            drop(memo);
            assert!(
                std::time::Instant::now() < deadline,
                "{} of {workers} workers joined the flight",
                holders.saturating_sub(1)
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn racing_workers_share_one_simulation() {
        const WORKERS: usize = 4;
        let est = MissRateEstimator::new();
        let calls = AtomicU64::new(0);
        let got = race(&est, WORKERS, &|| {
            await_flight(&est, WORKERS);
            calls.fetch_add(1, Ordering::Relaxed);
            0.25
        });
        assert_eq!(got, vec![Some(0.25f64.to_bits()); WORKERS]);
        assert_eq!(calls.into_inner(), 1);
        assert_eq!(est.estimates_computed(), 1);
        assert_eq!(
            est.flight_waits(),
            WORKERS as u64 - 1,
            "the others took the flight's value"
        );
        assert!(est.memo.lock().expect("unpoisoned").in_flight.is_empty());
        // The real estimate, raced the same way, gives the oracle's bits.
        let loc = LocalityProfile::hierarchical(32 << 10, 512 << 10, 16 << 20, 0.6, 0.25);
        let barrier = std::sync::Barrier::new(WORKERS);
        let rates: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        est.global_miss_rate(&loc, 256 << 10).to_bits()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        let want = simulate_miss_rate_reference(&loc, 256 << 10).to_bits();
        assert!(rates.iter().all(|&r| r == want));
        assert_eq!(est.estimates_computed(), 2);
    }

    #[test]
    fn a_panicking_estimate_does_not_strand_its_waiters() {
        const WORKERS: usize = 4;
        let est = MissRateEstimator::new();
        let attempts = AtomicU64::new(0);
        let got = race(&est, WORKERS, &|| {
            if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                await_flight(&est, WORKERS);
                panic!("the first estimate fails");
            }
            0.5
        });
        // The failing worker panics; a waiter computes the estimate, and
        // every other worker gets it.
        assert_eq!(got.iter().filter(|r| r.is_none()).count(), 1, "{got:?}");
        assert!(got.iter().flatten().all(|&r| r == 0.5f64.to_bits()));
        assert_eq!(attempts.into_inner(), 2);
        assert_eq!(est.estimates_computed(), 1);
        assert_eq!(
            est.flight_waits(),
            WORKERS as u64 - 2,
            "neither computing worker waited"
        );
        assert!(est.memo.lock().expect("unpoisoned").in_flight.is_empty());
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
