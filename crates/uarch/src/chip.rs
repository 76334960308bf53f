//! The time-sliced chip simulator.
//!
//! A run places a workload's software threads (application + VM services)
//! onto a configured chip's hardware contexts and advances time in slices.
//! Each slice recomputes every runnable thread's interval performance in its
//! current environment -- SMT sibling pressure, shared-LLC partitioning,
//! memory-bandwidth saturation, VM-service displacement -- executes the
//! resulting instructions, meters the energy per structure, lets the Turbo
//! controller react to the measured power, and appends one sample to the
//! chip's power waveform. The waveform is what the sensing rig in
//! `lhr-sensors` later samples at 50 Hz, mirroring the paper's rig.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use lhr_power::{
    ActivityCounters, EnergyModel, EventEnergies, NodeScaling, PowerMeters, PowerWaveform,
    Structure,
};
use lhr_trace::{Rng64, SplitMix64};
use lhr_units::{Joules, Seconds, Volts, Watts};
use lhr_workloads::{SoftwareThread, ThreadRole, Workload};

use crate::cache::MissRateEstimator;
use crate::config::ChipConfig;
use crate::interval::{phase_performance, Environment, PhasePerf};

/// The outcome of one benchmark run on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Wall-clock execution time.
    pub time: Seconds,
    /// The chip power waveform (one sample per simulation slice).
    pub waveform: PowerWaveform,
    /// Per-structure energy meters.
    pub meters: PowerMeters,
    /// Total instructions retired across all threads.
    pub instructions: u64,
}

impl RunResult {
    /// True average chip power over the run.
    #[must_use]
    pub fn average_power(&self) -> Watts {
        self.waveform.average_power()
    }

    /// Total energy, consistent with `average_power x time`.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.average_power() * self.time
    }
}

/// The chip simulator. Stateless across runs apart from the shared
/// miss-rate memo; cheap to clone or share.
#[derive(Debug)]
pub struct ChipSimulator {
    energy_model: EnergyModel,
    estimator: &'static MissRateEstimator,
    target_slices: usize,
}

impl Default for ChipSimulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Memo key for interval-model results within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PerfKey {
    thread: usize,
    phase: usize,
    clock_bits: u64,
    share_bits: u64,
    llc_eff: u64,
    disp_bits: u64,
    bw_bucket: u32,
}

struct ThreadState {
    thread: SoftwareThread,
    /// Cumulative instruction count at the end of each phase.
    boundaries: Vec<u64>,
    done: u64,
    finished: bool,
    jitter: f64,
    context: usize,
}

impl ThreadState {
    fn total(&self) -> u64 {
        *self.boundaries.last().expect("traces have phases")
    }

    fn remaining(&self) -> u64 {
        self.total() - self.done
    }

    fn phase_index(&self) -> usize {
        self.boundaries
            .iter()
            .position(|&b| self.done < b)
            .unwrap_or(self.boundaries.len() - 1)
    }
}

/// Memo key for the flattened loop's per-thread interval-model cache:
/// `(phase, clock bits, cache-share bits, effective LLC bytes,
/// displacement bits, bandwidth bucket)` -- the same dimensions as
/// [`PerfKey`] minus the thread (the cache itself is per thread).
type PerfMemoKey = (usize, u64, u64, u64, u64, u32);

/// The raw bits of every value [`phase_performance`] reads from the
/// spec (15 words), the phase (14) and the environment (4). Keying on
/// the full input set (rather than a processor id) keeps the memo sound
/// for hand-built specs and synthetic phases: two inputs share an entry
/// exactly when the interval model is handed bit-identical values.
/// `stream_stride` is among them: the analytic TLB model ignores it, but
/// the miss-rate estimator's address stream reads it.
type SpecWords = [u64; 15];
type PhaseWords = [u64; 14];
type EnvWords = [u64; 4];

fn spec_words(spec: &crate::catalog::ProcessorSpec) -> SpecWords {
    let core = &spec.core;
    let mem = &spec.mem;
    let (l2_present, l2_bytes) = match mem.l2 {
        Some(l2) => (1u64, l2.size_bytes),
        None => (0u64, 0u64),
    };
    [
        core.issue_width.to_bits(),
        core.pipeline_depth.to_bits(),
        u64::from(core.out_of_order),
        core.ooo_overlap.to_bits(),
        core.mlp_cap.to_bits(),
        core.predictor_factor.to_bits(),
        mem.l1d.size_bytes,
        l2_present,
        l2_bytes,
        u64::from(mem.llc.is_some()),
        mem.l2_hit_cycles.to_bits(),
        mem.llc_hit_cycles.to_bits(),
        mem.tlb_miss_cycles.to_bits(),
        mem.mem_latency_ns.to_bits(),
        mem.dtlb_entries as u64,
    ]
}

fn phase_words(phase: &lhr_trace::Phase) -> PhaseWords {
    let mix = phase.mix();
    let loc = phase.locality();
    [
        phase.ilp().to_bits(),
        phase.mlp().to_bits(),
        phase.branch_mispredict_rate().to_bits(),
        mix.memory_fraction().to_bits(),
        mix.branch_fraction().to_bits(),
        mix.fraction(lhr_trace::InstructionClass::IntAlu).to_bits(),
        mix.fp_fraction().to_bits(),
        loc.hot_bytes(),
        loc.warm_bytes(),
        loc.footprint_bytes(),
        loc.hot_fraction().to_bits(),
        loc.warm_fraction().to_bits(),
        loc.pointer_chase().to_bits(),
        loc.stream_stride(),
    ]
}

fn env_words(env: &Environment) -> EnvWords {
    [
        env.clock.value().to_bits(),
        env.private_cache_share.to_bits(),
        env.llc_bytes_eff,
        env.displacement.to_bits(),
    ]
}

/// Multiply-xor folding hasher for the phase memo's fixed-width
/// `u64`-array keys: the default SipHash costs more than the lookup it
/// guards. Collisions only cost a probe -- the maps store full keys --
/// so a weak-but-fast hash is safe here.
#[derive(Default)]
struct KeyHasher(u64);

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

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// Entries one [`PhaseMemo`] generation holds before it is retired.
const MEMO_GENERATION: usize = 2048;

/// Values per chunk of a generation's value store.
const VALUE_CHUNK: usize = 128;

/// The process-global interval-model memo: two generations of at most
/// [`MEMO_GENERATION`] entries. A lookup tries the current generation,
/// then the previous one, and a hit in the previous one is copied into
/// the current. When the current generation is full it becomes the
/// previous one and the old previous one is dropped, so the memo holds
/// at most two generations however many cells a process measures. A
/// value is a pure function of its key, so a value dropped and computed
/// again is the same value.
///
/// Fills are single-flight: a worker that misses on a key another
/// worker is computing waits for that value instead of computing it
/// again.
#[derive(Default)]
struct PhaseMemo {
    current: MemoGeneration,
    previous: MemoGeneration,
    /// Values being computed, for the workers that wait on them.
    in_flight: KeyMap<MemoWords, Arc<OnceLock<PhasePerf>>>,
    /// Values computed to completion: an exact count.
    computed: u64,
    /// Lookups that took their value from another worker's flight.
    waits: u64,
}

/// One [`PhaseMemo`] generation. Specs, phases and environments recur
/// far more often than they combine, so each distinct one is interned
/// once, through an exact word-array map, and an entry is keyed on the
/// three indices: equality stays exact on every input. Values sit in
/// fixed-size chunks in insertion order, so the memory an entry holds
/// grows with the entries made, never by copying a doubled vector.
#[derive(Default)]
struct MemoGeneration {
    specs: KeyMap<SpecWords, u32>,
    phases: KeyMap<PhaseWords, u32>,
    envs: KeyMap<EnvWords, u32>,
    /// Index into the values per entry.
    entries: KeyMap<PhaseMemoKey, u32>,
    values: Vec<Vec<PhasePerf>>,
}

/// A [`MemoGeneration`] entry's key: the interned spec, phase and
/// environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PhaseMemoKey {
    spec: u32,
    phase: u32,
    env: u32,
}

type MemoWords = (SpecWords, PhaseWords, EnvWords);

impl MemoGeneration {
    fn get(&self, (spec, phase, env): &MemoWords) -> Option<PhasePerf> {
        let key = PhaseMemoKey {
            spec: *self.specs.get(spec)?,
            phase: *self.phases.get(phase)?,
            env: *self.envs.get(env)?,
        };
        let i = *self.entries.get(&key)? as usize;
        Some(self.values[i / VALUE_CHUNK][i % VALUE_CHUNK])
    }

    /// Stores `value` under `words` unless an entry is already there.
    fn insert(&mut self, (spec, phase, env): MemoWords, value: PhasePerf) {
        let key = PhaseMemoKey {
            spec: intern(&mut self.specs, spec),
            phase: intern(&mut self.phases, phase),
            env: intern(&mut self.envs, env),
        };
        let next = u32::try_from(self.entries.len()).expect("fewer than 2^32 entries");
        if *self.entries.entry(key).or_insert(next) != next {
            return;
        }
        match self.values.last_mut() {
            Some(chunk) if chunk.len() < VALUE_CHUNK => chunk.push(value),
            _ => {
                let mut chunk = Vec::with_capacity(VALUE_CHUNK);
                chunk.push(value);
                self.values.push(chunk);
            }
        }
    }
}

impl PhaseMemo {
    /// Stores `value` in the current generation, first retiring it if
    /// it is full.
    fn insert(&mut self, words: MemoWords, value: PhasePerf) {
        if self.current.entries.len() >= MEMO_GENERATION {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(words, value);
    }
}

/// Interns `words`: the dense index of its first appearance in `map`.
fn intern<const N: usize>(map: &mut KeyMap<[u64; N], u32>, words: [u64; N]) -> u32 {
    let next = u32::try_from(map.len()).expect("fewer than 2^32 distinct inputs");
    *map.entry(words).or_insert(next)
}

/// Looks `words` up in `memo`, filling a miss from `compute` outside
/// the lock. The first worker to miss computes the value; workers that
/// miss meanwhile wait on its flight. If that worker panics, the flight
/// stays empty and one of the waiters computes the value instead.
fn memoized(
    memo: &Mutex<PhaseMemo>,
    words: MemoWords,
    compute: impl FnOnce() -> PhasePerf,
) -> PhasePerf {
    let flight = {
        let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = memo.current.get(&words) {
            return p;
        }
        if let Some(p) = memo.previous.get(&words) {
            memo.insert(words, p);
            return p;
        }
        Arc::clone(memo.in_flight.entry(words).or_default())
    };
    let mut computed = false;
    let p = *flight.get_or_init(|| {
        computed = true;
        compute()
    });
    let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
    memo.computed += u64::from(computed);
    memo.waits += u64::from(!computed);
    // The first worker back retires the flight and stores the value once.
    if memo.in_flight.remove(&words).is_some() {
        memo.insert(words, p);
    }
    p
}

/// The process-global [`PhaseMemo`].
fn phase_memo() -> &'static Mutex<PhaseMemo> {
    static MEMO: OnceLock<Mutex<PhaseMemo>> = OnceLock::new();
    MEMO.get_or_init(Mutex::default)
}

/// Interval-model values the process-global phase memo has computed to
/// completion: one per key it filled, however many workers missed on
/// that key at once. An exact count.
#[must_use]
pub fn phase_values_computed() -> u64 {
    phase_memo()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .computed
}

/// Phase-memo lookups that found the value in flight on another worker
/// and took it from that flight instead of computing it: how often
/// workers waited on each other. Depends on timing, so report it; never
/// gate on it.
#[must_use]
pub fn phase_value_waits() -> u64 {
    phase_memo()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .waits
}

/// Process-global memo over [`phase_performance`].
///
/// The interval model is a pure function of the inputs [`PhaseMemo`]
/// keys on: the miss-rate estimator it consults is the single
/// process-global instance and its entries never change once written, so
/// a warm hit returns exactly -- bit for bit -- the value a fresh
/// evaluation would produce at this point in the process. Only
/// steady-bandwidth environments (`bw_dilation == 1.0`) are cached: a
/// dilated environment embeds a feedback-evolved `f64` that rarely
/// recurs, so caching those would grow the table without earning hits.
fn cached_phase_performance(
    spec: &crate::catalog::ProcessorSpec,
    phase: &lhr_trace::Phase,
    env: &Environment,
    estimator: &MissRateEstimator,
) -> PhasePerf {
    if env.bw_dilation.to_bits() != 1.0f64.to_bits() {
        return phase_performance(spec, phase, env, estimator);
    }
    memoized(
        phase_memo(),
        (spec_words(spec), phase_words(phase), env_words(env)),
        || phase_performance(spec, phase, env, estimator),
    )
}

/// Energy-meter lane indices used by the flattened loop: lanes
/// `0..cores` are `Structure::Core(c)`, then [`Structure::Llc`],
/// [`Structure::Uncore`], [`Structure::MemoryInterface`].
fn lane_structure(lane: usize, cores: usize) -> Structure {
    if lane < cores {
        Structure::Core(lane)
    } else if lane == cores {
        Structure::Llc
    } else if lane == cores + 1 {
        Structure::Uncore
    } else {
        Structure::MemoryInterface
    }
}

/// Reusable working memory for [`ChipSimulator::run_with_scratch`].
///
/// A run needs per-thread, per-context, and per-core vectors plus a
/// slice-replay cache; owning them here lets a caller (the measurement
/// runner, a sweep harness) amortize the allocations across thousands of
/// runs. The scratch carries no results between runs -- every run clears
/// it first, so reuse can never change a measured value. The equivalence
/// proptest in this module pins `run_with_scratch` (fresh or reused
/// scratch) to [`ChipSimulator::run_reference`] bit for bit.
///
/// ```
/// use lhr_uarch::{ChipConfig, ChipSimulator, ProcessorId, SimScratch};
/// use lhr_workloads::by_name;
///
/// let sim = ChipSimulator::new().with_target_slices(30);
/// let cfg = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
/// let w = by_name("jess").unwrap();
/// let mut scratch = SimScratch::new();
/// let a = sim.run_with_scratch(&cfg, w, 7, &mut scratch);
/// let b = sim.run_with_scratch(&cfg, w, 7, &mut scratch); // reused
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    // Fixed for the duration of one run.
    ctx_of: Vec<usize>,
    core_of: Vec<usize>,
    exec_order: Vec<usize>,
    cursor: Vec<usize>,
    // Occupancy counts, rebuilt only when a thread finishes.
    n_runnable: Vec<u32>,
    services_on_ctx: Vec<u32>,
    ctxs_busy_on_core: Vec<u32>,
    services_on_core: Vec<u32>,
    threads_on_core: Vec<u32>,
    core_busy: Vec<bool>,
    // Per-slice working state.
    core_pressure: Vec<f64>,
    perfs: Vec<Option<(PhasePerf, f64)>>,
    memo: Vec<Vec<(PerfMemoKey, PhasePerf)>>,
    // Energy lanes (see `lane_structure`), accumulated across the run.
    lanes: Vec<f64>,
    lanes_touched: Vec<bool>,
    // Slice-replay cache: when a slice's inputs match the previous
    // slice's exactly, its per-thread work is identical and the slice
    // collapses to replaying these adds and increments.
    replay_adds: Vec<(usize, f64)>,
    replay_incs: Vec<(usize, u64, u64)>,
    replay_instr: u64,
    replay_power: f64,
    replay_bw: f64,
    replay_valid: bool,
    cached_sig: (u64, u32, u64),
}

impl SimScratch {
    /// Creates an empty scratch. Buffers grow on first use and are
    /// retained (capacity only) across runs.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all state and sizes the buffers for one run.
    fn reset(&mut self, threads: usize, n_ctx: usize, cores: usize) {
        self.ctx_of.clear();
        self.ctx_of.resize(threads, 0);
        self.core_of.clear();
        self.core_of.resize(threads, 0);
        self.exec_order.clear();
        self.exec_order.extend(0..threads);
        self.cursor.clear();
        self.cursor.resize(threads, 0);
        self.n_runnable.clear();
        self.n_runnable.resize(n_ctx, 0);
        self.services_on_ctx.clear();
        self.services_on_ctx.resize(n_ctx, 0);
        self.ctxs_busy_on_core.clear();
        self.ctxs_busy_on_core.resize(cores, 0);
        self.services_on_core.clear();
        self.services_on_core.resize(cores, 0);
        self.threads_on_core.clear();
        self.threads_on_core.resize(cores, 0);
        self.core_busy.clear();
        self.core_busy.resize(cores, false);
        self.core_pressure.clear();
        self.core_pressure.resize(cores, 0.0);
        self.perfs.clear();
        self.perfs.resize(threads, None);
        for m in &mut self.memo {
            m.clear();
        }
        self.memo.resize(threads, Vec::new());
        self.lanes.clear();
        self.lanes.resize(cores + 3, 0.0);
        self.lanes_touched.clear();
        self.lanes_touched.resize(cores + 3, false);
        self.replay_adds.clear();
        self.replay_incs.clear();
        self.replay_instr = 0;
        self.replay_power = 0.0;
        self.replay_bw = 1.0;
        self.replay_valid = false;
        self.cached_sig = (0, 0, u64::MAX);
    }
}

impl ChipSimulator {
    /// Creates a simulator with the default energy model and slice budget.
    #[must_use]
    pub fn new() -> Self {
        Self {
            energy_model: EnergyModel::new(EventEnergies::default(), NodeScaling::default()),
            estimator: MissRateEstimator::global(),
            target_slices: 400,
        }
    }

    /// Overrides the number of simulation slices per run (more slices give
    /// finer waveforms and Turbo reaction at linear cost).
    ///
    /// # Panics
    ///
    /// Panics if `n < 8`.
    #[must_use]
    pub fn with_target_slices(mut self, n: usize) -> Self {
        assert!(n >= 8, "need at least 8 slices for a meaningful waveform");
        self.target_slices = n;
        self
    }

    /// Runs `workload` on `config`. The `seed` selects the run's
    /// nondeterminism (JIT/GC timing jitter for Java, system noise for
    /// natives); the same seed always reproduces the same result.
    ///
    /// This is the flattened hot path: see [`ChipSimulator::run_with_scratch`]
    /// for the buffer-reusing variant and [`ChipSimulator::run_reference`]
    /// for the readable reference implementation both are pinned against.
    #[must_use]
    pub fn run(&self, config: &ChipConfig, workload: &Workload, seed: u64) -> RunResult {
        let mut scratch = SimScratch::new();
        self.run_with_scratch(config, workload, seed, &mut scratch)
    }

    /// The straight-line reference implementation of [`ChipSimulator::run`].
    ///
    /// Kept verbatim from before the hot-loop flattening so tests (and the
    /// equivalence proptest) can pin the optimized path to it bit for bit:
    /// both must produce identical times, waveforms, meters, and
    /// instruction counts for every `(config, workload, seed)`.
    #[must_use]
    pub fn run_reference(&self, config: &ChipConfig, workload: &Workload, seed: u64) -> RunResult {
        let spec = config.spec();
        let n_ctx = config.contexts();
        let cores = config.active_cores();
        let slots = config.threads_per_core();

        // --- Thread placement: spread across cores first, then SMT slots.
        let software = workload.software_threads(n_ctx);
        let mut rng = SplitMix64::new(seed ^ 0x6c68_7221);
        let cv = workload.nondeterminism_cv();
        let mut threads: Vec<ThreadState> = software
            .into_iter()
            .enumerate()
            .map(|(i, thread)| {
                let total = thread.trace.total_instructions().max(1);
                let mut cum = 0u64;
                let n_phases = thread.trace.phases().len();
                let boundaries: Vec<u64> = (0..n_phases)
                    .map(|p| {
                        cum += thread.trace.phase_instructions(p).max(1);
                        cum.min(total.max(cum))
                    })
                    .collect();
                let jitter = (1.0 + rng.next_normal(0.0, cv)).clamp(1.0 - 3.0 * cv, 1.0 + 3.0 * cv);
                let _ = i;
                ThreadState {
                    thread,
                    boundaries,
                    done: 0,
                    finished: false,
                    jitter,
                    context: 0,
                }
            })
            .collect();

        // --- Placement: OS-like load balancing. Heaviest threads first,
        // each onto the least-loaded context; context index order is
        // slot-major ((core0,slot0), (core1,slot0), ..., (core0,slot1), ...)
        // so physical cores fill before SMT siblings, and VM service
        // threads land on spare contexts away from the application.
        {
            let mut order: Vec<usize> = (0..threads.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(threads[i].total()));
            let mut loads = vec![0u64; n_ctx];
            for &i in &order {
                let ctx = (0..n_ctx)
                    .min_by_key(|&c| (loads[c], c))
                    .expect("n_ctx > 0");
                threads[i].context = ctx;
                loads[ctx] += threads[i].total();
            }
        }

        // --- Slice sizing from a solo-IPC probe of each thread's phase 0.
        let clock = config.clock();
        let mut est_time: f64 = 1e-6;
        for t in &threads {
            let env = Environment::solo(spec, clock);
            let perf = phase_performance(spec, &t.thread.trace.phases()[0], &env, self.estimator);
            let time = t.total() as f64 / (perf.ipc() * clock.value());
            est_time = est_time.max(time);
        }
        let slice_s = (est_time / self.target_slices as f64).clamp(1e-4, 2.0);
        let slice = Seconds::new(slice_s);

        // --- Main loop state.
        let mut waveform = PowerWaveform::new(slice);
        let mut meters = PowerMeters::new();
        let mut perf_memo: HashMap<PerfKey, PhasePerf> = HashMap::new();
        let mut bw_dilation = 1.0f64;
        let mut prev_power = Watts::ZERO;
        let mut elapsed_slices = 0u64;
        let mut final_fraction = 1.0f64;
        let mut total_instructions = 0u64;
        let displacement_of = |w: &Workload| {
            w.managed().map_or(1.0, |m| m.displacement_miss_factor)
        };
        let llc_total = spec.mem.last_level_bytes();
        let node = spec.node;
        let turbo = spec.power.turbo.as_ref();

        // Hard bound so a mis-specified workload cannot spin forever.
        let max_slices = (self.target_slices as u64) * 64;

        while threads.iter().any(|t| !t.finished) && elapsed_slices < max_slices {
            // Occupancy.
            let mut ctx_threads: Vec<Vec<usize>> = vec![Vec::new(); n_ctx];
            for (i, t) in threads.iter().enumerate() {
                if !t.finished {
                    ctx_threads[t.context].push(i);
                }
            }
            let core_busy: Vec<bool> = (0..cores)
                .map(|c| (0..slots).any(|s| !ctx_threads[s * cores + c].is_empty()))
                .collect();
            let busy_cores = core_busy.iter().filter(|&&b| b).count().max(1);
            let running_threads: usize = ctx_threads.iter().map(Vec::len).sum();

            // --- Turbo decision based on last slice's measured power.
            let (f_eff, v_eff) = if config.turbo_enabled() {
                let t = turbo.expect("turbo_enabled implies turbo params");
                let steps = t.steps_for(busy_cores);
                let headroom = prev_power.value() < spec.power.tdp_w * 0.90;
                if headroom && steps > 0 {
                    (
                        t.boosted_clock(clock, steps),
                        t.boosted_voltage(spec.voltage_at(clock), steps),
                    )
                } else {
                    (clock, spec.voltage_at(clock))
                }
            } else {
                (clock, spec.voltage_at(clock))
            };

            // --- LLC partitioning among busy cores and their threads.
            // Capacity contention is softer than a strict equal split:
            // threads with small working sets leave capacity to the rest
            // (utility-based allocation to first order), so the share
            // shrinks with the square root of the sharer count.
            let llc_core_share =
                (llc_total as f64 / (busy_cores as f64).sqrt()) as u64;

            // --- Per-core slot pressure for SMT combining (two passes:
            // solo perf first, then pressure-adjusted execution).
            let mut core_pressure = vec![0.0f64; cores];
            let mut perfs: Vec<Option<(PhasePerf, f64)>> = vec![None; threads.len()];
            for c in 0..cores {
                for s in 0..slots {
                    let ctx = s * cores + c;
                    let n_on_ctx = ctx_threads[ctx].len();
                    if n_on_ctx == 0 {
                        continue;
                    }
                    let sibling_busy = slots > 1
                        && (0..slots).any(|s2| s2 != s && !ctx_threads[s2 * cores + c].is_empty());
                    let time_share = 1.0 / n_on_ctx as f64;
                    for &ti in &ctx_threads[ctx] {
                        let t = &threads[ti];
                        let phase_idx = t.phase_index();
                        let phase = &t.thread.trace.phases()[phase_idx];
                        // Displacement: services displace the application
                        // when they share its context (full effect) or its
                        // core via SMT (partial).
                        let disp = if t.thread.role == ThreadRole::Application {
                            let d = displacement_of(workload);
                            let service_same_ctx = ctx_threads[ctx].iter().any(|&oj| {
                                threads[oj].thread.role.is_service() && oj != ti
                            });
                            let service_sibling = slots > 1
                                && (0..slots).any(|s2| {
                                    s2 != s
                                        && ctx_threads[s2 * cores + c]
                                            .iter()
                                            .any(|&oj| threads[oj].thread.role.is_service())
                                });
                            if service_same_ctx {
                                d
                            } else if service_sibling {
                                1.0 + (d - 1.0) * 0.5
                            } else {
                                1.0
                            }
                        } else {
                            1.0
                        };
                        let cache_share = if sibling_busy {
                            spec.core.smt_cache_share
                        } else {
                            1.0
                        };
                        let threads_on_core: usize = (0..slots)
                            .map(|s2| ctx_threads[s2 * cores + c].len())
                            .sum();
                        let llc_eff = (llc_core_share as f64
                            / (threads_on_core as f64).sqrt())
                            .max(1024.0) as u64;
                        let env = Environment {
                            clock: f_eff,
                            private_cache_share: cache_share,
                            llc_bytes_eff: llc_eff,
                            displacement: disp,
                            bw_dilation,
                        };
                        let key = PerfKey {
                            thread: ti,
                            phase: phase_idx,
                            clock_bits: f_eff.value().to_bits(),
                            share_bits: cache_share.to_bits(),
                            llc_eff,
                            disp_bits: disp.to_bits(),
                            bw_bucket: (bw_dilation * 16.0) as u32,
                        };
                        let perf = *perf_memo.entry(key).or_insert_with(|| {
                            phase_performance(spec, phase, &env, self.estimator)
                        });
                        core_pressure[c] +=
                            perf.busy_fraction() * perf.issue_demand * time_share;
                        perfs[ti] = Some((perf, time_share));
                    }
                }
            }

            // --- Execute the slice.
            let mut slice_dram_bytes = 0.0f64;
            let mut dyn_energy = Joules::ZERO;
            let mut all_finished_now = true;
            let mut slice_fraction = 0.0f64;
            for c in 0..cores {
                let contexts_busy_on_core = (0..slots)
                    .filter(|&s| !ctx_threads[s * cores + c].is_empty())
                    .count();
                let corun = contexts_busy_on_core > 1;
                for s in 0..slots {
                    let ctx = s * cores + c;
                    for &ti in &ctx_threads[ctx] {
                        let (perf, time_share) = perfs[ti].expect("perf computed above");
                        let cpi = if corun {
                            perf.cpi_corun(core_pressure[c], spec.core.smt_overhead)
                        } else {
                            perf.cpi()
                        };
                        let ipc = threads[ti].jitter / cpi;
                        let potential =
                            (ipc * f_eff.value() * slice_s * time_share).max(1.0);
                        let remaining = threads[ti].remaining() as f64;
                        let executed = remaining.min(potential);
                        let used_fraction = executed / potential;
                        slice_fraction = slice_fraction.max(used_fraction.min(1.0));

                        let t = &mut threads[ti];
                        t.done += executed as u64;
                        if t.remaining() == 0 {
                            t.finished = true;
                        } else {
                            all_finished_now = false;
                        }
                        total_instructions += executed as u64;

                        // --- Power accounting for this thread's work.
                        let phase = &t.thread.trace.phases()[t.phase_index().min(
                            t.thread.trace.phases().len() - 1,
                        )];
                        let e = perf.events;
                        let n = executed;
                        let core_counters = ActivityCounters {
                            instructions: n as u64,
                            int_ops: (n * e.int_ops) as u64,
                            fp_ops: (n * e.fp_ops) as u64,
                            l1_accesses: (n * e.l1_accesses) as u64,
                            l2_accesses: (n * e.l2_accesses) as u64,
                            branches: (n * e.branches) as u64,
                            branch_flushes: (n * e.branch_flushes) as u64,
                            tlb_misses: (n * e.tlb_misses) as u64,
                            ..ActivityCounters::default()
                        };
                        let llc_counters = ActivityCounters {
                            llc_accesses: (n * e.llc_accesses) as u64,
                            ..ActivityCounters::default()
                        };
                        let dram_counters = ActivityCounters {
                            dram_accesses: (n * e.dram_accesses) as u64,
                            ..ActivityCounters::default()
                        };
                        slice_dram_bytes += n * e.dram_accesses * 64.0;
                        let activity = phase.activity();
                        let model = self.chip_energy_model(spec);
                        let e_core = model.dynamic_energy_with_activity(
                            &core_counters,
                            node,
                            v_eff,
                            activity,
                        );
                        let e_llc = model.dynamic_energy_with_activity(
                            &llc_counters,
                            node,
                            v_eff,
                            activity,
                        );
                        let e_dram = model.dynamic_energy_with_activity(
                            &dram_counters,
                            node,
                            v_eff,
                            activity,
                        );
                        meters.add(Structure::Core(c), e_core);
                        meters.add(Structure::Llc, e_llc);
                        meters.add(Structure::MemoryInterface, e_dram);
                        dyn_energy += e_core + e_llc + e_dram;
                    }
                }
            }

            // Clock-tree energy for each busy core.
            let model = self.chip_energy_model(spec);
            for (c, &busy) in core_busy.iter().enumerate() {
                if busy {
                    let clk = ActivityCounters {
                        active_cycles: (f_eff.value() * slice_s) as u64,
                        ..ActivityCounters::default()
                    };
                    let e = model.dynamic_energy_with_activity(&clk, node, v_eff, 1.0);
                    meters.add(Structure::Core(c), e);
                    dyn_energy += e;
                }
            }

            // Static power.
            let idle_cores = cores - busy_cores.min(cores);
            let disabled = spec.cores - cores;
            let llc_mb = llc_total as f64 / (1024.0 * 1024.0);
            let (p_core, p_llc, p_uncore) = model.static_power_parts(
                &spec.power.statics,
                node,
                v_eff,
                busy_cores.min(cores),
                idle_cores,
                disabled,
                llc_mb,
            );
            let static_power = p_core + p_llc + p_uncore;
            // Attribute static energy to meters (cores share equally).
            meters.add(Structure::Llc, p_llc * slice);
            meters.add(Structure::Uncore, p_uncore * slice);
            for c in 0..cores {
                meters.add(Structure::Core(c), (p_core / cores as f64) * slice);
            }

            let slice_power = dyn_energy / slice + static_power;
            waveform.push(slice_power);
            prev_power = slice_power;

            // Bandwidth feedback for the next slice.
            let demand_gbs = slice_dram_bytes / slice_s / 1e9;
            bw_dilation = (demand_gbs / spec.mem.peak_bw_gbs).max(1.0);

            elapsed_slices += 1;
            if all_finished_now {
                final_fraction = slice_fraction.clamp(1e-3, 1.0);
            }
            let _ = running_threads;
        }

        let full = elapsed_slices.saturating_sub(1) as f64;
        let time = Seconds::new((full + final_fraction) * slice_s);
        RunResult {
            time,
            waveform,
            meters,
            instructions: total_instructions,
        }
    }

    /// [`ChipSimulator::run`] with caller-owned working memory.
    ///
    /// Behaviorally identical to [`ChipSimulator::run_reference`] -- same
    /// times, waveforms, meters, and instruction counts, bit for bit --
    /// but allocation-free in the slice loop and able to collapse
    /// steady-state slices into replays of the previous one. Pass the same
    /// [`SimScratch`] across runs to amortize buffer allocation; see
    /// [`SimScratch`] for the reuse contract and a doctest.
    ///
    /// # Bit-identity discipline
    ///
    /// Every `f64` accumulation (`+=`) happens in the reference's exact
    /// iteration order -- core-major, then SMT slot, then thread index --
    /// and every memoized value is a pure function of inputs the memo key
    /// captures completely. A slice is replayed only when its inputs
    /// (turbo state, bandwidth bucket, occupancy, thread phases) match
    /// the previous slice's exactly, in which case its per-thread results
    /// are the same values in the same order. Memoization changes *when*
    /// values are computed, never the values.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run_with_scratch(
        &self,
        config: &ChipConfig,
        workload: &Workload,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> RunResult {
        let spec = config.spec();
        let n_ctx = config.contexts();
        let cores = config.active_cores();
        let slots = config.threads_per_core();

        // --- Thread placement: identical to the reference. ---
        let software = workload.software_threads(n_ctx);
        let mut rng = SplitMix64::new(seed ^ 0x6c68_7221);
        let cv = workload.nondeterminism_cv();
        let mut threads: Vec<ThreadState> = software
            .into_iter()
            .map(|thread| {
                let total = thread.trace.total_instructions().max(1);
                let mut cum = 0u64;
                let n_phases = thread.trace.phases().len();
                let boundaries: Vec<u64> = (0..n_phases)
                    .map(|p| {
                        cum += thread.trace.phase_instructions(p).max(1);
                        cum.min(total.max(cum))
                    })
                    .collect();
                let jitter = (1.0 + rng.next_normal(0.0, cv)).clamp(1.0 - 3.0 * cv, 1.0 + 3.0 * cv);
                ThreadState {
                    thread,
                    boundaries,
                    done: 0,
                    finished: false,
                    jitter,
                    context: 0,
                }
            })
            .collect();
        {
            let mut order: Vec<usize> = (0..threads.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(threads[i].total()));
            let mut loads = vec![0u64; n_ctx];
            for &i in &order {
                let ctx = (0..n_ctx)
                    .min_by_key(|&c| (loads[c], c))
                    .expect("n_ctx > 0");
                threads[i].context = ctx;
                loads[ctx] += threads[i].total();
            }
        }

        // --- Slice sizing: identical to the reference. ---
        let clock = config.clock();
        let mut est_time: f64 = 1e-6;
        for t in &threads {
            let env = Environment::solo(spec, clock);
            let perf =
                cached_phase_performance(spec, &t.thread.trace.phases()[0], &env, self.estimator);
            let time = t.total() as f64 / (perf.ipc() * clock.value());
            est_time = est_time.max(time);
        }
        let slice_s = (est_time / self.target_slices as f64).clamp(1e-4, 2.0);
        let slice = Seconds::new(slice_s);

        // --- Pre-resolved flat structure. ---
        let nt = threads.len();
        scratch.reset(nt, n_ctx, cores);
        for (i, t) in threads.iter().enumerate() {
            scratch.ctx_of[i] = t.context;
            scratch.core_of[i] = t.context % cores;
        }
        // The reference walks cores, then SMT slots, then each context's
        // thread list (which holds ascending thread indices). Sorting by
        // (core, slot, index) reproduces that order exactly, so every
        // order-sensitive f64 accumulation below matches bit for bit.
        let (core_of_s, ctx_of_s) = (&scratch.core_of, &scratch.ctx_of);
        scratch
            .exec_order
            .sort_unstable_by_key(|&i| (core_of_s[i], ctx_of_s[i] / cores, i));

        // --- Main loop state. ---
        // A run lands near `target_slices` samples by construction; the
        // capacity hint removes the growth reallocations from the loop.
        let mut waveform = PowerWaveform::with_capacity(slice, 2 * self.target_slices);
        let mut bw_dilation = 1.0f64;
        let mut prev_power = Watts::ZERO;
        let mut elapsed_slices = 0u64;
        let mut final_fraction = 1.0f64;
        let mut total_instructions = 0u64;
        let displacement = workload
            .managed()
            .map_or(1.0, |m| m.displacement_miss_factor);
        let llc_total = spec.mem.last_level_bytes();
        let node = spec.node;
        let turbo = spec.power.turbo.as_ref();
        // One model for the whole run: `EnergyModel` is a `Copy` value
        // table, so hoisting it out of the loop cannot change a joule.
        let model = self.chip_energy_model(spec);
        let max_slices = (self.target_slices as u64) * 64;

        let mut runnable = nt;
        let mut occupancy_dirty = true;
        let mut epoch = 0u64;
        let mut busy_cores = 1usize;
        let mut llc_core_share = 0u64;

        while runnable > 0 && elapsed_slices < max_slices {
            // --- Occupancy: rebuilt only when a thread finished. ---
            if occupancy_dirty {
                scratch.n_runnable.iter_mut().for_each(|v| *v = 0);
                scratch.services_on_ctx.iter_mut().for_each(|v| *v = 0);
                for t in &threads {
                    if !t.finished {
                        scratch.n_runnable[t.context] += 1;
                        if t.thread.role.is_service() {
                            scratch.services_on_ctx[t.context] += 1;
                        }
                    }
                }
                for c in 0..cores {
                    let mut busy_ctxs = 0u32;
                    let mut services = 0u32;
                    let mut total = 0u32;
                    for s in 0..slots {
                        let ctx = s * cores + c;
                        if scratch.n_runnable[ctx] > 0 {
                            busy_ctxs += 1;
                        }
                        services += scratch.services_on_ctx[ctx];
                        total += scratch.n_runnable[ctx];
                    }
                    scratch.ctxs_busy_on_core[c] = busy_ctxs;
                    scratch.services_on_core[c] = services;
                    scratch.threads_on_core[c] = total;
                    scratch.core_busy[c] = busy_ctxs > 0;
                }
                busy_cores = scratch.core_busy.iter().filter(|&&b| b).count().max(1);
                llc_core_share = (llc_total as f64 / (busy_cores as f64).sqrt()) as u64;
                occupancy_dirty = false;
            }

            // --- Turbo decision: identical arithmetic to the reference. ---
            let (f_eff, v_eff) = if config.turbo_enabled() {
                let t = turbo.expect("turbo_enabled implies turbo params");
                let steps = t.steps_for(busy_cores);
                let headroom = prev_power.value() < spec.power.tdp_w * 0.90;
                if headroom && steps > 0 {
                    (
                        t.boosted_clock(clock, steps),
                        t.boosted_voltage(spec.voltage_at(clock), steps),
                    )
                } else {
                    (clock, spec.voltage_at(clock))
                }
            } else {
                (clock, spec.voltage_at(clock))
            };

            let bw_bucket = (bw_dilation * 16.0) as u32;
            let sig = (f_eff.value().to_bits(), bw_bucket, epoch);

            // --- Fast path: replay the previous slice verbatim when its
            // inputs match and no thread finishes or changes phase.
            if scratch.replay_valid && sig == scratch.cached_sig {
                let plain = scratch
                    .replay_incs
                    .iter()
                    .all(|&(ti, inc, bound)| threads[ti].done + inc < bound);
                if plain {
                    for &(ti, inc, _) in &scratch.replay_incs {
                        threads[ti].done += inc;
                    }
                    total_instructions += scratch.replay_instr;
                    for &(lane, v) in &scratch.replay_adds {
                        scratch.lanes[lane] += v;
                    }
                    let p = Watts::new(scratch.replay_power);
                    waveform.push(p);
                    prev_power = p;
                    bw_dilation = scratch.replay_bw;
                    elapsed_slices += 1;
                    continue;
                }
            }

            // --- Structural slice: full recompute, recording the replay.
            scratch.replay_adds.clear();
            scratch.replay_incs.clear();
            let mut slice_instr = 0u64;
            let mut replay_ok = true;

            // Pass 1: interval performance and per-core slot pressure.
            scratch.core_pressure.iter_mut().for_each(|v| *v = 0.0);
            scratch.perfs.iter_mut().for_each(|v| *v = None);
            for idx in 0..nt {
                let ti = scratch.exec_order[idx];
                let t = &threads[ti];
                if t.finished {
                    continue;
                }
                let ctx = scratch.ctx_of[ti];
                let c = scratch.core_of[ti];
                let sibling_busy = slots > 1 && scratch.ctxs_busy_on_core[c] >= 2;
                let time_share = 1.0 / f64::from(scratch.n_runnable[ctx]);
                let phase_idx = scratch.cursor[ti];
                let phase = &t.thread.trace.phases()[phase_idx];
                // Services never displace themselves; an application
                // thread is displaced by services on its context (full
                // effect) or on a sibling SMT context (half effect).
                let disp = if t.thread.role == ThreadRole::Application {
                    if scratch.services_on_ctx[ctx] > 0 {
                        displacement
                    } else if slots > 1
                        && scratch.services_on_core[c] > scratch.services_on_ctx[ctx]
                    {
                        1.0 + (displacement - 1.0) * 0.5
                    } else {
                        1.0
                    }
                } else {
                    1.0
                };
                let cache_share = if sibling_busy {
                    spec.core.smt_cache_share
                } else {
                    1.0
                };
                let llc_eff = (llc_core_share as f64
                    / f64::from(scratch.threads_on_core[c]).sqrt())
                .max(1024.0) as u64;
                let key: PerfMemoKey = (
                    phase_idx,
                    f_eff.value().to_bits(),
                    cache_share.to_bits(),
                    llc_eff,
                    disp.to_bits(),
                    bw_bucket,
                );
                let memo = &mut scratch.memo[ti];
                let perf = match memo.iter().find(|(k, _)| *k == key) {
                    Some(&(_, p)) => p,
                    None => {
                        let env = Environment {
                            clock: f_eff,
                            private_cache_share: cache_share,
                            llc_bytes_eff: llc_eff,
                            displacement: disp,
                            bw_dilation,
                        };
                        let p = cached_phase_performance(spec, phase, &env, self.estimator);
                        memo.push((key, p));
                        p
                    }
                };
                scratch.core_pressure[c] += perf.busy_fraction() * perf.issue_demand * time_share;
                scratch.perfs[ti] = Some((perf, time_share));
            }

            // Pass 2: execute the slice.
            let mut slice_dram_bytes = 0.0f64;
            let mut dyn_energy = Joules::ZERO;
            let mut all_finished_now = true;
            let mut slice_fraction = 0.0f64;
            for idx in 0..nt {
                let ti = scratch.exec_order[idx];
                if threads[ti].finished {
                    continue;
                }
                let c = scratch.core_of[ti];
                let corun = scratch.ctxs_busy_on_core[c] > 1;
                let (perf, time_share) = scratch.perfs[ti].expect("perf computed above");
                let cpi = if corun {
                    perf.cpi_corun(scratch.core_pressure[c], spec.core.smt_overhead)
                } else {
                    perf.cpi()
                };
                let ipc = threads[ti].jitter / cpi;
                let potential = (ipc * f_eff.value() * slice_s * time_share).max(1.0);
                let remaining = threads[ti].remaining() as f64;
                let executed = remaining.min(potential);
                let used_fraction = executed / potential;
                slice_fraction = slice_fraction.max(used_fraction.min(1.0));

                let inc = executed as u64;
                let t = &mut threads[ti];
                let old_cursor = scratch.cursor[ti];
                t.done += inc;
                if t.remaining() == 0 {
                    t.finished = true;
                    runnable -= 1;
                    occupancy_dirty = true;
                    epoch += 1;
                    replay_ok = false;
                } else {
                    all_finished_now = false;
                }
                slice_instr += inc;
                // Advance the phase cursor; `done` only grows, so this
                // matches the reference's linear `phase_index()` scan.
                {
                    let b = &t.boundaries;
                    let mut cur = old_cursor;
                    while cur + 1 < b.len() && t.done >= b[cur] {
                        cur += 1;
                    }
                    scratch.cursor[ti] = cur;
                }
                if scratch.cursor[ti] != old_cursor {
                    epoch += 1;
                    replay_ok = false;
                }
                if executed < potential {
                    replay_ok = false;
                }
                scratch
                    .replay_incs
                    .push((ti, inc, t.boundaries[scratch.cursor[ti]]));

                // --- Power accounting (identical expressions). ---
                let phase = &threads[ti].thread.trace.phases()[scratch.cursor[ti]];
                let e = perf.events;
                let n = executed;
                let core_counters = ActivityCounters {
                    instructions: n as u64,
                    int_ops: (n * e.int_ops) as u64,
                    fp_ops: (n * e.fp_ops) as u64,
                    l1_accesses: (n * e.l1_accesses) as u64,
                    l2_accesses: (n * e.l2_accesses) as u64,
                    branches: (n * e.branches) as u64,
                    branch_flushes: (n * e.branch_flushes) as u64,
                    tlb_misses: (n * e.tlb_misses) as u64,
                    ..ActivityCounters::default()
                };
                let llc_counters = ActivityCounters {
                    llc_accesses: (n * e.llc_accesses) as u64,
                    ..ActivityCounters::default()
                };
                let dram_counters = ActivityCounters {
                    dram_accesses: (n * e.dram_accesses) as u64,
                    ..ActivityCounters::default()
                };
                slice_dram_bytes += n * e.dram_accesses * 64.0;
                let activity = phase.activity();
                let e_core =
                    model.dynamic_energy_with_activity(&core_counters, node, v_eff, activity);
                let e_llc =
                    model.dynamic_energy_with_activity(&llc_counters, node, v_eff, activity);
                let e_dram =
                    model.dynamic_energy_with_activity(&dram_counters, node, v_eff, activity);
                scratch.replay_adds.push((c, e_core.value()));
                scratch.replay_adds.push((cores, e_llc.value()));
                scratch.replay_adds.push((cores + 2, e_dram.value()));
                dyn_energy += e_core + e_llc + e_dram;
            }

            // Clock-tree energy for each busy core.
            for c in 0..cores {
                if scratch.core_busy[c] {
                    let clk = ActivityCounters {
                        active_cycles: (f_eff.value() * slice_s) as u64,
                        ..ActivityCounters::default()
                    };
                    let e = model.dynamic_energy_with_activity(&clk, node, v_eff, 1.0);
                    scratch.replay_adds.push((c, e.value()));
                    dyn_energy += e;
                }
            }

            // Static power.
            let idle_cores = cores - busy_cores.min(cores);
            let disabled = spec.cores - cores;
            let llc_mb = llc_total as f64 / (1024.0 * 1024.0);
            let (p_core, p_llc, p_uncore) = model.static_power_parts(
                &spec.power.statics,
                node,
                v_eff,
                busy_cores.min(cores),
                idle_cores,
                disabled,
                llc_mb,
            );
            let static_power = p_core + p_llc + p_uncore;
            scratch.replay_adds.push((cores, (p_llc * slice).value()));
            scratch
                .replay_adds
                .push((cores + 1, (p_uncore * slice).value()));
            for c in 0..cores {
                scratch
                    .replay_adds
                    .push((c, ((p_core / cores as f64) * slice).value()));
            }

            // Apply this slice's adds to the lanes, in recorded order --
            // the same order the reference feeds its meters.
            for &(lane, v) in &scratch.replay_adds {
                scratch.lanes[lane] += v;
                scratch.lanes_touched[lane] = true;
            }
            total_instructions += slice_instr;

            let slice_power = dyn_energy / slice + static_power;
            waveform.push(slice_power);
            prev_power = slice_power;

            let demand_gbs = slice_dram_bytes / slice_s / 1e9;
            bw_dilation = (demand_gbs / spec.mem.peak_bw_gbs).max(1.0);

            elapsed_slices += 1;
            if all_finished_now {
                final_fraction = slice_fraction.clamp(1e-3, 1.0);
            }

            scratch.replay_instr = slice_instr;
            scratch.replay_power = slice_power.value();
            scratch.replay_bw = bw_dilation;
            scratch.replay_valid = replay_ok;
            scratch.cached_sig = (f_eff.value().to_bits(), bw_bucket, epoch);
        }

        let full = elapsed_slices.saturating_sub(1) as f64;
        let time = Seconds::new((full + final_fraction) * slice_s);
        let mut meters = PowerMeters::new();
        for lane in 0..scratch.lanes.len() {
            if scratch.lanes_touched[lane] {
                meters.add(lane_structure(lane, cores), Joules::new(scratch.lanes[lane]));
            }
        }
        RunResult {
            time,
            waveform,
            meters,
            instructions: total_instructions,
        }
    }

    /// The energy model specialized to one chip's event table.
    fn chip_energy_model(&self, spec: &crate::catalog::ProcessorSpec) -> EnergyModel {
        EnergyModel::new(spec.power.events, *self.energy_model.nodes())
    }

    /// Convenience: the supply voltage a config runs at (without Turbo).
    #[must_use]
    pub fn voltage_of(config: &ChipConfig) -> Volts {
        config.voltage()
    }

    /// Convenience: run and return `(time, average power)`.
    #[must_use]
    pub fn measure(&self, config: &ChipConfig, workload: &Workload, seed: u64) -> (Seconds, Watts) {
        let r = self.run(config, workload, seed);
        (r.time, r.average_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheGeometry;
    use crate::catalog::ProcessorId;
    use lhr_workloads::by_name;

    fn sim() -> ChipSimulator {
        ChipSimulator::new().with_target_slices(60)
    }

    fn stock(id: ProcessorId) -> ChipConfig {
        ChipConfig::stock(id.spec())
    }

    /// A scaled-down workload clone for fast tests.
    fn small(name: &str) -> Workload {
        by_name(name).expect("benchmark exists").clone()
    }

    #[test]
    fn phase_memo_distinguishes_the_stream_stride() {
        // Two phases that differ only in their cold tier's stride have
        // different miss rates, so they must not share a memo entry.
        let spec = ProcessorId::CoreI7_920.spec();
        let env = Environment::solo(spec, spec.base_clock);
        for stride in [64, 8] {
            let locality = lhr_trace::LocalityProfile::streaming(40 << 20).with_stream_stride(stride);
            let phase = lhr_trace::Phase::new(
                "sweep",
                1.0,
                lhr_trace::InstructionMix::typical_int(),
                2.0,
                locality,
            );
            let fresh = phase_performance(spec, &phase, &env, &MissRateEstimator::new());
            let cached = cached_phase_performance(spec, &phase, &env, MissRateEstimator::global());
            assert_eq!(cached, fresh, "stride {stride}");
        }
    }

    #[test]
    fn a_phase_memo_entry_stays_small() {
        // A 16-byte table slot (three interned indices and the value's
        // index) plus the 96-byte value; the 33-word key made an entry
        // 360 bytes.
        let slot = std::mem::size_of::<(PhaseMemoKey, u32)>();
        assert_eq!(slot, 16);
        assert!(slot + std::mem::size_of::<PhasePerf>() <= 160);
    }

    /// The fifteen numbers a hand-built phase is made of; `load` and
    /// `store` make up its memory fraction.
    #[derive(Clone, Copy)]
    struct PhaseParams {
        ilp: f64,
        mlp: f64,
        mispredict: f64,
        int_alu: f64,
        fp: f64,
        load: f64,
        store: f64,
        branch: f64,
        hot: u64,
        warm: u64,
        total: u64,
        hot_fraction: f64,
        warm_fraction: f64,
        chase: f64,
        stride: u64,
    }

    impl PhaseParams {
        fn phase(self) -> lhr_trace::Phase {
            let mix = lhr_trace::InstructionMix::builder()
                .int_alu(self.int_alu)
                .fp(self.fp)
                .load(self.load)
                .store(self.store)
                .branch(self.branch)
                .build()
                .expect("fractions sum to one within 1e-6");
            let locality = lhr_trace::LocalityProfile::hierarchical(
                self.hot,
                self.warm,
                self.total,
                self.hot_fraction,
                self.warm_fraction,
            )
            .with_pointer_chase(self.chase)
            .with_stream_stride(self.stride);
            lhr_trace::Phase::new("memo", 1.0, mix, self.ilp, locality)
                .with_mlp(self.mlp)
                .with_branch_mispredict_rate(self.mispredict)
        }
    }

    #[test]
    fn phase_memo_misses_on_any_one_changed_input_and_hits_on_identical_ones() {
        use crate::catalog::ProcessorSpec;

        // A hand-built spec whose L2 is present but empty, so presence
        // can flip without the L2 size word moving.
        let mut spec = ProcessorId::CoreI7_920.spec().clone();
        let l2 = spec.mem.l2.expect("Nehalem has an L2");
        spec.mem.l2 = Some(CacheGeometry {
            size_bytes: 0,
            ..l2
        });
        let params = PhaseParams {
            ilp: 1.7,
            mlp: 2.5,
            mispredict: 0.04,
            int_alu: 0.4,
            fp: 0.1,
            load: 0.25,
            store: 0.1,
            branch: 0.15,
            hot: 16 << 10,
            warm: 1 << 20,
            total: 64 << 20,
            hot_fraction: 0.6,
            warm_fraction: 0.3,
            chase: 0.2,
            stride: 64,
        };
        let env = Environment {
            private_cache_share: 0.75,
            displacement: 1.25,
            ..Environment::solo(&spec, spec.base_clock)
        };
        let value = phase_performance(&spec, &params.phase(), &env, MissRateEstimator::global());

        type Edit<T> = (&'static str, fn(&mut T));
        let spec_edits: [Edit<ProcessorSpec>; 15] = [
            ("issue_width", |s| s.core.issue_width += 0.5),
            ("pipeline_depth", |s| s.core.pipeline_depth += 1.0),
            ("out_of_order", |s| {
                s.core.out_of_order = !s.core.out_of_order
            }),
            ("ooo_overlap", |s| s.core.ooo_overlap *= 0.5),
            ("mlp_cap", |s| s.core.mlp_cap += 1.0),
            ("predictor_factor", |s| s.core.predictor_factor *= 0.5),
            ("l1d", |s| s.mem.l1d.size_bytes *= 2),
            ("l2 present", |s| s.mem.l2 = None),
            ("l2 bytes", |s| {
                s.mem.l2.as_mut().expect("present").size_bytes = 256 << 10
            }),
            ("llc present", |s| s.mem.llc = None),
            ("l2_hit_cycles", |s| s.mem.l2_hit_cycles += 1.0),
            ("llc_hit_cycles", |s| s.mem.llc_hit_cycles += 1.0),
            ("tlb_miss_cycles", |s| s.mem.tlb_miss_cycles += 1.0),
            ("mem_latency_ns", |s| s.mem.mem_latency_ns += 1.0),
            ("dtlb_entries", |s| s.mem.dtlb_entries += 1),
        ];
        let phase_edits: [Edit<PhaseParams>; 14] = [
            ("ilp", |p| p.ilp += 0.25),
            ("mlp", |p| p.mlp += 0.25),
            ("mispredict", |p| p.mispredict += 0.01),
            ("memory fraction", |p| p.load += 1e-9),
            ("branch fraction", |p| p.branch += 1e-9),
            ("int_alu fraction", |p| p.int_alu += 1e-9),
            ("fp fraction", |p| p.fp += 1e-9),
            ("hot bytes", |p| p.hot *= 2),
            ("warm bytes", |p| p.warm *= 2),
            ("footprint", |p| p.total *= 2),
            ("hot fraction", |p| p.hot_fraction -= 0.1),
            ("warm fraction", |p| p.warm_fraction -= 0.1),
            ("pointer chase", |p| p.chase += 0.1),
            ("stream stride", |p| p.stride = 8),
        ];
        let env_edits: [Edit<Environment>; 4] = [
            ("clock", |e| e.clock = e.clock * 0.5),
            ("private_cache_share", |e| e.private_cache_share = 1.0),
            ("llc_bytes_eff", |e| e.llc_bytes_eff /= 2),
            ("displacement", |e| e.displacement = 1.0),
        ];

        let memo = Mutex::new(PhaseMemo::default());
        let misses = std::cell::Cell::new(0usize);
        let lookup = |spec: &ProcessorSpec, phase: &lhr_trace::Phase, env: &Environment| {
            let before = misses.get();
            let got = memoized(
                &memo,
                (spec_words(spec), phase_words(phase), env_words(env)),
                || {
                    misses.set(misses.get() + 1);
                    value
                },
            );
            assert_eq!(got, value);
            misses.get() > before
        };
        let phase = params.phase();
        assert!(lookup(&spec, &phase, &env), "a cold memo misses");
        assert!(!lookup(&spec, &phase, &env), "identical inputs hit");
        assert!(
            !lookup(&spec.clone(), &params.phase(), &env),
            "equal copies hit"
        );
        for (name, edit) in spec_edits {
            let mut changed = spec.clone();
            edit(&mut changed);
            assert!(lookup(&changed, &phase, &env), "spec {name}");
        }
        for (name, edit) in phase_edits {
            let mut changed = params;
            edit(&mut changed);
            assert!(lookup(&spec, &changed.phase(), &env), "phase {name}");
        }
        for (name, edit) in env_edits {
            let mut changed = env;
            edit(&mut changed);
            assert!(lookup(&spec, &phase, &changed), "environment {name}");
        }
        assert_eq!(misses.get(), 1 + 15 + 14 + 4);
        assert!(
            !lookup(&spec, &phase, &env),
            "the first entry is still there"
        );
    }

    #[test]
    fn the_phase_memo_keeps_two_generations_and_promotes_old_hits() {
        let spec = spec_words(ProcessorId::CoreI7_920.spec());
        let phase = phase_words(&by_name("jess").expect("exists").trace().phases()[0]);
        let value = |i: u64| PhasePerf {
            base_cpi: i as f64,
            stall_cpi: 0.0,
            issue_demand: 0.0,
            events: crate::interval::EventRates::default(),
        };
        let memo = Mutex::new(PhaseMemo::default());
        // Whether entry `i` had to be computed; checks the value either way.
        let computed = |i: u64| {
            let mut missed = false;
            let got = memoized(&memo, (spec, phase, [i, 0, 0, 0]), || {
                missed = true;
                value(i)
            });
            assert_eq!(got, value(i), "entry {i}");
            missed
        };
        let generation = MEMO_GENERATION as u64;
        // Generation A holds entries below `generation`; the next one
        // retires it to previous, and generation B fills.
        for i in 0..2 * generation {
            assert!(computed(i), "entry {i} is new");
        }
        // Entry 0 hits in A and is copied into the current generation,
        // which is full: B becomes the previous one and A is dropped.
        assert!(!computed(0), "the previous generation hits");
        assert!(
            computed(1),
            "an entry of a dropped generation is computed again"
        );
        assert!(!computed(generation), "B is now the previous generation");
        assert!(!computed(0), "the promoted entry hits in the current one");
        let memo = memo.lock().expect("no test panicked holding the memo");
        assert_eq!(memo.current.entries.len(), 3);
        assert_eq!(memo.previous.entries.len(), MEMO_GENERATION);
        let values: usize = memo.current.values.iter().map(Vec::len).sum();
        assert_eq!(values, memo.current.entries.len());
    }

    /// A phase-memo key for the race tests.
    fn race_key() -> MemoWords {
        let phase = &by_name("jess").expect("exists").trace().phases()[0];
        (
            spec_words(ProcessorId::CoreI7_920.spec()),
            phase_words(phase),
            [1, 2, 3, 4],
        )
    }

    /// Runs `workers` threads that each look up [`race_key`] in `memo`
    /// at once, with `compute` standing in for the interval model;
    /// returns each worker's value, or `None` for a worker that panicked.
    fn race(
        memo: &Mutex<PhaseMemo>,
        workers: usize,
        compute: &(dyn Fn() -> PhasePerf + Sync),
    ) -> Vec<Option<PhasePerf>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| s.spawn(|| memoized(memo, race_key(), compute)))
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        })
    }

    /// Blocks until `workers` workers hold the one flight in `memo`:
    /// every one of them has missed and joined it. Panics if they have
    /// not within 30 s, so a memo that stops sharing flights fails the
    /// test instead of hanging it.
    fn await_flight(memo: &Mutex<PhaseMemo>, workers: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let guard = memo.lock().expect("no test panics holding the memo");
            let holders = guard.in_flight.values().next().map_or(0, Arc::strong_count);
            if holders == workers + 1 {
                return;
            }
            drop(guard);
            assert!(
                std::time::Instant::now() < deadline,
                "{} of {workers} workers joined the flight",
                holders.saturating_sub(1)
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn racing_workers_share_one_phase_value() {
        const WORKERS: usize = 4;
        let (spec, phase, env) = (
            ProcessorId::CoreI7_920.spec(),
            &by_name("jess").expect("exists").trace().phases()[0],
            Environment::solo(
                ProcessorId::CoreI7_920.spec(),
                ProcessorId::CoreI7_920.spec().base_clock,
            ),
        );
        let estimator = MissRateEstimator::new();
        let want = phase_performance(spec, phase, &env, &estimator);
        let memo = Mutex::new(PhaseMemo::default());
        let calls = std::sync::atomic::AtomicU64::new(0);
        let got = race(&memo, WORKERS, &|| {
            await_flight(&memo, WORKERS);
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            phase_performance(spec, phase, &env, &estimator)
        });
        assert_eq!(got, vec![Some(want); WORKERS]);
        assert_eq!(calls.into_inner(), 1);
        let guard = memo.lock().expect("unpoisoned");
        assert_eq!(guard.computed, 1);
        assert_eq!(
            guard.waits,
            WORKERS as u64 - 1,
            "the others took the flight's value"
        );
        assert!(guard.in_flight.is_empty());
        assert_eq!(guard.current.entries.len(), 1, "stored once");
        drop(guard);
        let hit = memoized(&memo, race_key(), || panic!("a stored value hits"));
        assert_eq!(hit, want);
    }

    #[test]
    fn a_panicking_phase_value_does_not_strand_its_waiters() {
        const WORKERS: usize = 4;
        let value = PhasePerf {
            base_cpi: 0.5,
            stall_cpi: 0.25,
            issue_demand: 1.0,
            events: crate::interval::EventRates::default(),
        };
        let memo = Mutex::new(PhaseMemo::default());
        let attempts = std::sync::atomic::AtomicU64::new(0);
        let got = race(&memo, WORKERS, &|| {
            if attempts.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 0 {
                await_flight(&memo, WORKERS);
                panic!("the first computation fails");
            }
            value
        });
        // The failing worker panics; a waiter computes the value, and
        // every other worker gets it.
        assert_eq!(got.iter().filter(|r| r.is_none()).count(), 1, "{got:?}");
        assert!(got.iter().flatten().all(|&p| p == value));
        assert_eq!(attempts.into_inner(), 2);
        let guard = memo.lock().expect("unpoisoned");
        assert_eq!(guard.computed, 1);
        assert_eq!(
            guard.waits,
            WORKERS as u64 - 2,
            "neither computing worker waited"
        );
        assert!(guard.in_flight.is_empty());
    }

    #[test]
    fn run_is_deterministic() {
        let w = small("jess");
        let cfg = stock(ProcessorId::Core2DuoE6600);
        let s = sim();
        let a = s.run(&cfg, &w, 7);
        let b = s.run(&cfg, &w, 7);
        assert_eq!(a.time, b.time);
        assert_eq!(a.waveform, b.waveform);
        assert_eq!(a.instructions, b.instructions);
    }

    /// The flattened loop is pinned to the reference bit for bit: same
    /// time, waveform, meters, and instruction count, whether the scratch
    /// is fresh or reused across runs.
    #[test]
    fn flattened_loop_matches_reference_bit_for_bit() {
        let s = sim();
        let mut scratch = SimScratch::new();
        for name in ["jess", "hmmer", "sunflow", "xalan"] {
            let w = small(name);
            for id in [
                ProcessorId::Core2DuoE6600,
                ProcessorId::CoreI7_920,
                ProcessorId::Atom230,
            ] {
                for seed in [1u64, 7, 42] {
                    let cfg = stock(id);
                    let reference = s.run_reference(&cfg, &w, seed);
                    let fresh = s.run(&cfg, &w, seed);
                    let reused = s.run_with_scratch(&cfg, &w, seed, &mut scratch);
                    assert_eq!(reference, fresh, "{name} on {id:?} seed {seed} (fresh)");
                    assert_eq!(reference, reused, "{name} on {id:?} seed {seed} (reused)");
                }
            }
        }
    }

    /// Non-stock shapes exercise SMT co-running, disabled cores, turbo-off,
    /// and downclocking -- the structural-slice edge cases.
    #[test]
    fn flattened_loop_matches_reference_on_nonstock_configs() {
        let s = sim();
        let mut scratch = SimScratch::new();
        let spec = ProcessorId::CoreI7_920.spec();
        let configs = [
            ChipConfig::stock(spec).with_cores(1).unwrap(),
            ChipConfig::stock(spec)
                .with_cores(2)
                .unwrap()
                .with_smt(false)
                .unwrap(),
            ChipConfig::stock(spec).with_turbo(false).unwrap(),
            ChipConfig::stock(spec)
                .with_clock(spec.min_clock)
                .unwrap()
                .with_turbo(false)
                .unwrap(),
        ];
        for w in [small("db"), small("mtrt"), small("compress")] {
            for (i, cfg) in configs.iter().enumerate() {
                let reference = s.run_reference(cfg, &w, 11);
                let optimized = s.run_with_scratch(cfg, &w, 11, &mut scratch);
                assert_eq!(reference, optimized, "{} config #{i}", w.name());
            }
        }
    }

    #[test]
    fn different_seeds_jitter_slightly() {
        let w = small("jess");
        let cfg = stock(ProcessorId::Core2DuoE6600);
        let s = sim();
        let a = s.run(&cfg, &w, 1);
        let b = s.run(&cfg, &w, 2);
        let rel = (a.time.value() - b.time.value()).abs() / a.time.value();
        assert!(rel > 0.0, "seeds must perturb Java runs");
        assert!(rel < 0.2, "jitter should be small, got {rel}");
    }

    #[test]
    fn power_is_positive_and_below_tdp_scale() {
        for id in ProcessorId::ALL {
            let w = small("mpegaudio");
            let cfg = stock(id);
            let r = sim().run(&cfg, &w, 3);
            let p = r.average_power().value();
            assert!(p > 0.1, "{id:?} power {p}");
            assert!(
                p < id.spec().power.tdp_w * 1.05,
                "{id:?} power {p} exceeds TDP {}",
                id.spec().power.tdp_w
            );
        }
    }

    #[test]
    fn faster_chip_finishes_sooner() {
        let w = small("jess");
        let s = sim();
        let atom = s.run(&stock(ProcessorId::Atom230), &w, 3);
        let i7 = s.run(&stock(ProcessorId::CoreI7_920), &w, 3);
        assert!(
            i7.time.value() < atom.time.value() / 2.0,
            "i7 {} vs Atom {}",
            i7.time.value(),
            atom.time.value()
        );
    }

    #[test]
    fn scalable_workload_speeds_up_with_cores() {
        let w = small("mtrt"); // short dual-threaded benchmark
        let spec = ProcessorId::CoreI7_920.spec();
        let s = sim();
        let one = ChipConfig::stock(spec)
            .with_cores(1).unwrap()
            .with_smt(false).unwrap()
            .with_turbo(false).unwrap();
        let two = ChipConfig::stock(spec)
            .with_cores(2).unwrap()
            .with_smt(false).unwrap()
            .with_turbo(false).unwrap();
        let t1 = s.run(&one, &w, 3).time.value();
        let t2 = s.run(&two, &w, 3).time.value();
        assert!(t2 < t1 * 0.8, "2C {t2} vs 1C {t1}");
    }

    #[test]
    fn more_cores_draw_more_power_for_scalable_work() {
        let w = small("sunflow");
        let spec = ProcessorId::CoreI7_920.spec();
        let s = sim();
        let one = ChipConfig::stock(spec)
            .with_cores(1).unwrap().with_smt(false).unwrap().with_turbo(false).unwrap();
        let four = ChipConfig::stock(spec)
            .with_cores(4).unwrap().with_smt(false).unwrap().with_turbo(false).unwrap();
        let p1 = s.run(&one, &w, 3).average_power().value();
        let p4 = s.run(&four, &w, 3).average_power().value();
        assert!(p4 > p1 * 1.3, "4C {p4} vs 1C {p1}");
    }

    #[test]
    fn single_threaded_java_gains_from_second_core() {
        let w = small("db");
        let spec = ProcessorId::CoreI7_920.spec();
        let s = sim();
        let one = ChipConfig::stock(spec)
            .with_cores(1).unwrap().with_smt(false).unwrap().with_turbo(false).unwrap();
        let two = ChipConfig::stock(spec)
            .with_cores(2).unwrap().with_smt(false).unwrap().with_turbo(false).unwrap();
        let t1 = s.run(&one, &w, 3).time.value();
        let t2 = s.run(&two, &w, 3).time.value();
        assert!(t2 < t1 * 0.95, "db 2C {t2} vs 1C {t1}: VM services must offload");
    }

    #[test]
    fn single_threaded_native_gains_nothing_from_second_core() {
        let w = small("hmmer");
        let spec = ProcessorId::CoreI7_920.spec();
        let s = sim();
        let one = ChipConfig::stock(spec)
            .with_cores(1).unwrap().with_smt(false).unwrap().with_turbo(false).unwrap();
        let two = ChipConfig::stock(spec)
            .with_cores(2).unwrap().with_smt(false).unwrap().with_turbo(false).unwrap();
        let t1 = s.run(&one, &w, 3).time.value();
        let t2 = s.run(&two, &w, 3).time.value();
        let rel = (t1 - t2).abs() / t1;
        assert!(rel < 0.03, "native ST must be core-count invariant, got {rel}");
    }

    #[test]
    fn turbo_raises_power() {
        let w = small("compress");
        let spec = ProcessorId::CoreI7_920.spec();
        let s = sim();
        let on = ChipConfig::stock(spec);
        let off = ChipConfig::stock(spec).with_turbo(false).unwrap();
        let r_on = s.run(&on, &w, 3);
        let r_off = s.run(&off, &w, 3);
        assert!(r_on.average_power().value() > r_off.average_power().value());
        assert!(r_on.time.value() < r_off.time.value());
    }

    #[test]
    fn meters_account_for_total_energy() {
        let w = small("jess");
        let cfg = stock(ProcessorId::Core2DuoE6600);
        let r = sim().run(&cfg, &w, 3);
        let metered = r.meters.total_energy().value();
        let waveform_e = r.waveform.energy().value();
        let rel = (metered - waveform_e).abs() / waveform_e;
        assert!(rel < 0.02, "meters {metered} vs waveform {waveform_e}");
    }

    #[test]
    fn waveform_shape_matches_run() {
        let w = small("jess");
        let cfg = stock(ProcessorId::Core2DuoE6600);
        let r = sim().run(&cfg, &w, 3);
        assert!(r.waveform.len() >= 8);
        assert!(r.waveform.duration().value() >= r.time.value() * 0.95);
        assert!(r.instructions > 0);
    }

    #[test]
    fn downclocking_stretches_time_and_cuts_power() {
        let w = small("compress");
        let spec = ProcessorId::Core2DuoE7600.spec();
        let s = sim();
        let fast = ChipConfig::stock(spec);
        let slow = ChipConfig::stock(spec).with_clock(spec.min_clock).unwrap();
        let rf = s.run(&fast, &w, 3);
        let rs = s.run(&slow, &w, 3);
        assert!(rs.time.value() > rf.time.value() * 1.4);
        assert!(rs.average_power().value() < rf.average_power().value());
    }
}
