//! The measurement runner: repeated invocations through the sensing rig.
//!
//! The methodology (Section 2) prescribes 3 invocations for SPEC CPU2006,
//! 5 for PARSEC, and 20 for Java (adaptive JIT and GC make Java runs
//! nondeterministic), reporting means. Every power figure passes through
//! the calibrated Hall-effect rig, never straight from the waveform.
//!
//! The runner has two faces. [`Runner::measure`] is the legacy panicking
//! path; [`Runner::try_measure`] is the resilient one: it audits each
//! invocation through the rig's validating path, retries rejected
//! invocations with fresh seeds under a bounded budget, recalibrates a
//! rig whose drift self-check trips, fences invocation-level outliers
//! with a Tukey/MAD test, and falls back to a recorded [`MeasureError`]
//! only when the budget is spent. With no fault plans armed the two
//! paths produce bit-for-bit identical measurements.
//!
//! A cell's invocations are simulated first and then measured together:
//! a fault-free rig reads all of them in one streaming pass
//! ([`MeasurementRig::measure_batch`]) under a shared borrow, so workers
//! measuring on the same machine run side by side. A rig with a fault
//! plan armed is measured one invocation at a time under exclusive
//! access, because its injector's thermal clock and stall counters
//! depend on call order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use lhr_obs::Obs;
use lhr_power::PowerWaveform;
use lhr_sensors::{faults::FaultPlan, Measurement, MeasurementRig, SensorError};
use lhr_stats::{median, median_abs_deviation, Summary, SummaryBuilder};
use lhr_uarch::{ChipConfig, ChipSimulator, ProcessorId, RunResult, SimScratch};
use lhr_units::{Joules, Seconds, Watts};
use lhr_workloads::{Group, Workload};

use crate::cache::{CellCache, CellKey, UnboundedCache};
use crate::error::{MeasureError, MeasureErrorKind, MeasureHealth, RunnerHealth};
use crate::harness::fan_out;

/// Default number of extra invocations a measurement may spend on
/// retries before giving up.
pub const DEFAULT_RETRY_BUDGET: usize = 8;

/// MAD multiplier of the outlier fence (3.5 robust sigmas: Tukey's far
/// fence for normal-ish invocation spreads).
const FENCE_MAD_SIGMAS: f64 = 3.5 * 1.4826;

/// Floor of the outlier fence as a fraction of the median. Clean
/// invocation spreads (seeded JIT/GC jitter plus sensor noise) sit well
/// inside 25% of the median, so the fence can never reject a healthy
/// invocation -- which is what keeps the no-fault path bit-identical.
const FENCE_FLOOR_FRACTION: f64 = 0.25;

/// One benchmark's measured behaviour on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeasurement {
    /// Benchmark name (Table 1).
    pub workload: &'static str,
    /// Benchmark group.
    pub group: Group,
    /// Configuration label (e.g. `i7 (45) 4C2T@2.7GHz`).
    pub config: String,
    /// Execution-time statistics over the invocations.
    pub time: Summary,
    /// Rig-measured average-power statistics over the invocations.
    pub power: Summary,
}

impl RunMeasurement {
    /// Mean execution time.
    #[must_use]
    pub fn seconds(&self) -> Seconds {
        Seconds::new(self.time.mean())
    }

    /// Mean measured power.
    #[must_use]
    pub fn watts(&self) -> Watts {
        Watts::new(self.power.mean())
    }

    /// Energy: mean power x mean time.
    #[must_use]
    pub fn joules(&self) -> Joules {
        self.watts() * self.seconds()
    }
}

/// Runs benchmarks with the prescribed repetition and rig measurement.
#[derive(Debug)]
pub struct Runner {
    sim: ChipSimulator,
    invocations: Option<usize>,
    instruction_scale: f64,
    base_seed: u64,
    retry_budget: usize,
    fault_plans: HashMap<ProcessorId, FaultPlan>,
    /// One rig per machine, each behind its own lock so a stalled or
    /// slow rig blocks only measurements on its machine -- the map lock
    /// is held just long enough to find (or build) the rig, never
    /// across a measurement. Fault-free rigs are measured under the read
    /// lock; faulted rigs and recalibrations take the write lock.
    rigs: Mutex<HashMap<ProcessorId, Arc<RwLock<MeasurementRig>>>>,
    /// Lab notebook: measurements are pure functions of (configuration,
    /// workload) under a fixed seed policy, so repeats across experiments
    /// (every figure touches the stock machines) are served from cache.
    /// Campaigns keep the default unbounded notebook; the serving layer
    /// swaps in a bounded sharded-LRU (see [`crate::cache`]).
    cache: Arc<dyn CellCache>,
    health: Mutex<RunnerHealth>,
    obs: Obs,
}

/// Process-wide pool of reusable simulator scratch buffers: each
/// invocation pops one (or builds a fresh one when the pool is dry, so
/// concurrent measurements never wait on each other), runs the chip
/// simulator through [`ChipSimulator::run_with_scratch`], and returns
/// it. The buffers carry no state across runs that can change a result
/// -- see `SimScratch` -- they only let repeated cells skip re-growing
/// the same per-thread vectors. The pool is global rather than
/// per-runner because short-lived runners (one cold cell each, the shape
/// every campaign and benchmark pays) would otherwise always start with
/// a dry pool.
static SCRATCH_POOL: Mutex<Vec<SimScratch>> = Mutex::new(Vec::new());

/// Returned buffers beyond this many are dropped instead of pooled, so
/// a burst of concurrent measurements cannot pin memory forever.
const SCRATCH_POOL_CAP: usize = 32;

impl Default for Runner {
    fn default() -> Self {
        Self::new()
    }
}

impl Runner {
    /// A full-methodology runner: prescribed invocation counts, full traces.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sim: ChipSimulator::new(),
            invocations: None,
            instruction_scale: 1.0,
            base_seed: 0x1bad_b002,
            retry_budget: DEFAULT_RETRY_BUDGET,
            fault_plans: HashMap::new(),
            rigs: Mutex::new(HashMap::new()),
            cache: Arc::new(UnboundedCache::default()),
            health: Mutex::new(RunnerHealth::default()),
            obs: Obs::none(),
        }
    }

    /// A fast runner for tests and quick sweeps: fewer invocations, fewer
    /// slices, shortened traces. Statistically noisier but directionally
    /// identical (the model is deterministic up to seeded jitter).
    #[must_use]
    pub fn fast() -> Self {
        let mut r = Self::new();
        r.sim = ChipSimulator::new().with_target_slices(80);
        r.invocations = Some(2);
        r.instruction_scale = 0.02;
        r
    }

    /// Fixes the invocation count instead of following the methodology.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_invocations(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one invocation");
        self.invocations = Some(n);
        self
    }

    /// Scales every trace's instruction count (for fast sweeps).
    ///
    /// # Panics
    ///
    /// Panics if the factor is not positive and finite.
    #[must_use]
    pub fn with_instruction_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "invalid scale");
        self.instruction_scale = factor;
        self
    }

    /// Overrides the simulator slice budget, preserving any other
    /// simulator customization already applied.
    #[must_use]
    pub fn with_target_slices(mut self, n: usize) -> Self {
        self.sim = self.sim.with_target_slices(n);
        self
    }

    /// Bounds how many extra invocations a measurement may spend on
    /// retries (sensor rejections and outlier re-runs) before failing.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Swaps the measurement cell cache. The default is an
    /// [`UnboundedCache`] (right for finite campaign grids); a server
    /// passes a bounded [`crate::cache::ShardedLruCache`] so a long-lived
    /// process cannot grow without bound. Whatever the policy, cache
    /// contents never change a measured byte -- an entry is exactly the
    /// measurement that was inserted.
    ///
    /// # Panics
    ///
    /// Panics if the runner has already measured (or preloaded) a cell:
    /// swapping a warm cache would silently discard paid-for work.
    #[must_use]
    pub fn with_cell_cache(mut self, cache: Arc<dyn CellCache>) -> Self {
        assert!(
            self.cache.is_empty(),
            "cell cache swapped after cells were resolved"
        );
        self.cache = cache;
        self
    }

    /// The cell cache in force.
    #[must_use]
    pub fn cell_cache(&self) -> &Arc<dyn CellCache> {
        &self.cache
    }

    /// Arms a fault plan on one machine's rig: every measurement taken on
    /// that processor passes through the injected faults. All-default
    /// plans are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the machine's rig was already built (plans must be armed
    /// before first use -- a lab would not hot-swap a sensor mid-study).
    #[must_use]
    pub fn with_fault_plan(self, id: ProcessorId, plan: FaultPlan) -> Self {
        assert!(
            !self.rigs.lock().contains_key(&id),
            "fault plan for {id:?} armed after its rig was built"
        );
        let mut me = self;
        if !plan.is_none() {
            me.fault_plans.insert(id, plan);
        }
        me
    }

    /// Arms an observer on the runner and on every rig it builds from
    /// now on: measurements, cache hits, retry-budget spend, outlier
    /// re-runs, recalibrations, and failures are reported through it.
    /// The default ([`Obs::none`]) records nothing and costs nothing;
    /// an armed observer never changes a measured number.
    ///
    /// # Panics
    ///
    /// Panics if any machine's rig was already built (observers must be
    /// armed before first use, like fault plans).
    #[must_use]
    pub fn with_observer(self, obs: Obs) -> Self {
        assert!(
            self.rigs.lock().is_empty(),
            "observer armed after rigs were built"
        );
        let mut me = self;
        me.obs = obs;
        me
    }

    /// The observer in force ([`Obs::none`] by default).
    #[must_use]
    pub fn observer(&self) -> &Obs {
        &self.obs
    }

    /// The retry budget in force.
    #[must_use]
    pub fn retry_budget(&self) -> usize {
        self.retry_budget
    }

    /// A snapshot of the runner's cumulative resilience ledger.
    #[must_use]
    pub fn health(&self) -> RunnerHealth {
        *self.health.lock()
    }

    /// The invocation count used for a workload.
    #[must_use]
    pub fn invocations_for(&self, workload: &Workload) -> usize {
        self.invocations
            .unwrap_or_else(|| workload.prescribed_invocations())
    }

    /// Measures one benchmark on one configuration: `n` invocations, each
    /// timed and power-sampled through the chip's calibrated rig.
    ///
    /// # Panics
    ///
    /// Panics if the resilient path records a failure (see
    /// [`Runner::try_measure`] for the non-panicking form).
    #[must_use]
    pub fn measure(&self, config: &ChipConfig, workload: &Workload) -> RunMeasurement {
        match self.try_measure(config, workload) {
            Ok((m, _)) => m,
            Err(e) => panic!("measurement failed: {e}"),
        }
    }

    /// The resilient measurement path: validated invocations, seeded
    /// retries, drift-triggered recalibration, and a Tukey/MAD outlier
    /// fence, all under a bounded retry budget.
    ///
    /// Returns the accepted measurement plus what it cost to obtain
    /// ([`MeasureHealth`]; zeroed for cache hits, whose work was already
    /// accounted). With no fault plan armed for the machine, the result
    /// is bit-for-bit identical to the legacy path.
    ///
    /// # Errors
    ///
    /// A [`MeasureError`] when the rig cannot be built, a failure is not
    /// retryable, or the retry budget is exhausted.
    ///
    /// # Example
    ///
    /// ```
    /// use lhr_core::Runner;
    /// use lhr_uarch::{ChipConfig, ProcessorId};
    ///
    /// let runner = Runner::fast();
    /// let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
    /// let jess = lhr_workloads::by_name("jess").unwrap();
    /// let (m, health) = runner.try_measure(&config, jess)?;
    /// let watts = m.watts().value();
    /// assert!(watts > 10.0 && watts < 65.0, "C2D-class draw, got {watts}");
    /// assert!(health.is_clean(), "no faults armed, no interventions");
    /// # Ok::<(), lhr_core::MeasureError>(())
    /// ```
    pub fn try_measure(
        &self,
        config: &ChipConfig,
        workload: &Workload,
    ) -> Result<(RunMeasurement, MeasureHealth), MeasureError> {
        if let Some(hit) = self.cached(config, workload) {
            return Ok((hit, MeasureHealth::default()));
        }
        let key = CellKey::new(config, workload);
        let span = self.obs.span("runner.measure");
        let result = self.measure_uncached(config, workload);
        span.end();
        match &result {
            Ok((measurement, health)) => {
                let mut ledger = self.health.lock();
                ledger.retries += health.retries;
                ledger.recalibrations += health.recalibrations;
                ledger.rejected_outliers += health.rejected_outliers;
                drop(ledger);
                self.obs.counter("runner.measurements", 1);
                if !health.is_clean() {
                    self.obs
                        .counter("runner.retries", health.retries as u64);
                    self.obs
                        .counter("runner.recalibrations", health.recalibrations as u64);
                    self.obs.counter(
                        "runner.outlier_reruns",
                        health.rejected_outliers as u64,
                    );
                }
                self.cache.insert(key, (measurement.clone(), *health));
            }
            Err(e) => {
                self.health.lock().failed_measurements += 1;
                self.obs.counter("runner.failed_measurements", 1);
                if self.obs.enabled() {
                    self.obs.mark("runner.failed", &e.to_string());
                }
            }
        }
        result
    }

    /// The cell's measurement if this runner already holds it: the one
    /// definition of a cache hit, counted as `runner.cache_hits`. Never
    /// measures.
    #[must_use]
    pub fn cached(&self, config: &ChipConfig, workload: &Workload) -> Option<RunMeasurement> {
        let (hit, _) = self.cache.get(&CellKey::new(config, workload))?;
        self.obs.counter("runner.cache_hits", 1);
        Some(hit)
    }

    /// Measures many cells on up to `jobs` workers (`None`: available
    /// parallelism), returning each cell's outcome in input order. The
    /// workers take the cells in [`Runner::hand_out_units`] order.
    ///
    /// A machine with an armed fault plan has all its cells measured by
    /// one worker, in input order, up to its first failure: its
    /// injector's state depends on call order, so each of its cells sees
    /// the rig a serial loop would show it. Its cells after that failure
    /// are `None`. A panic in a cell resumes on the caller once every
    /// worker has stopped.
    pub(crate) fn try_measure_cells(
        &self,
        jobs: Option<usize>,
        cells: &[(&ChipConfig, &Workload)],
    ) -> Vec<Option<Result<RunMeasurement, MeasureError>>> {
        let units = self.hand_out_units(cells);
        let outcomes = fan_out(jobs, &self.obs, units.len(), |u| {
            let mut measured = Vec::with_capacity(units[u].len());
            for &i in &units[u] {
                let (config, workload) = cells[i];
                let outcome = self.try_measure(config, workload).map(|(m, _)| m);
                let failed = outcome.is_err();
                measured.push((i, outcome));
                if failed {
                    break;
                }
            }
            measured
        });
        let mut results: Vec<_> = cells.iter().map(|_| None).collect();
        for outcome in outcomes {
            for (i, measured) in outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic)) {
                results[i] = Some(measured);
            }
        }
        results
    }

    /// The units [`Runner::try_measure_cells`] hands its workers, as
    /// indices into `cells`: one per cell, or every cell of a faulted
    /// machine in input order. The units come in [`hand_out_order`] of
    /// their first cell's workload; a faulted machine's chain keeps its
    /// own order.
    pub(crate) fn hand_out_units(&self, cells: &[(&ChipConfig, &Workload)]) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut chains: HashMap<ProcessorId, usize> = HashMap::new();
        for (i, (config, _)) in cells.iter().enumerate() {
            let id = config.spec().id;
            if !self.fault_plans.contains_key(&id) {
                units.push(vec![i]);
                continue;
            }
            let unit = *chains.entry(id).or_insert_with(|| {
                units.push(Vec::new());
                units.len() - 1
            });
            units[unit].push(i);
        }
        hand_out_order(units.iter().map(|unit| cells[unit[0]].1.name()))
            .into_iter()
            .map(|u| std::mem::take(&mut units[u]))
            .collect()
    }

    /// Pre-seeds the measurement cache with a previously recorded result
    /// (the campaign journal's resume path). Subsequent
    /// [`Runner::try_measure`] calls for the same cell are served from
    /// cache exactly as if this runner had measured the cell earlier in
    /// the process -- which, under the fixed seed policy, produces the
    /// same bytes either way.
    ///
    /// # Panics
    ///
    /// Panics if the measurement's workload name or configuration label
    /// does not match `workload`/`config` (a corrupt or misattributed
    /// journal record).
    pub fn preload(
        &self,
        config: &ChipConfig,
        workload: &Workload,
        measurement: RunMeasurement,
        health: MeasureHealth,
    ) {
        assert_eq!(
            measurement.workload,
            workload.name(),
            "preloaded measurement belongs to another workload"
        );
        assert_eq!(
            measurement.config,
            config.label(),
            "preloaded measurement belongs to another configuration"
        );
        self.cache
            .insert(CellKey::new(config, workload), (measurement, health));
        self.obs.counter("runner.preloads", 1);
    }

    /// One chip-simulator run through the scratch pool: pops a reusable
    /// buffer (builds one if the pool is dry), simulates, returns it.
    fn sim_run(&self, config: &ChipConfig, w: &Workload, seed: u64) -> RunResult {
        let mut scratch = SCRATCH_POOL.lock().pop().unwrap_or_default();
        let result = self.sim.run_with_scratch(config, w, seed, &mut scratch);
        let mut pool = SCRATCH_POOL.lock();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        result
    }

    /// The machine's rig, built and calibrated on first use, as in the
    /// lab.
    fn rig_for(
        &self,
        config: &ChipConfig,
        label: &str,
    ) -> Result<Arc<RwLock<MeasurementRig>>, MeasureError> {
        let spec = config.spec();
        let mut rigs = self.rigs.lock();
        if let Some(rig) = rigs.get(&spec.id) {
            return Ok(Arc::clone(rig));
        }
        let rig = MeasurementRig::for_max_power(
            Watts::new(spec.power.tdp_w),
            0x0d1e_5ee0 ^ spec.id as u64,
        )
        .map_err(|e| MeasureError::rig_setup(label.to_string(), e))?;
        let rig = match self.fault_plans.get(&spec.id) {
            Some(plan) => rig.with_fault_plan(plan.clone()),
            None => rig,
        };
        let rig = Arc::new(RwLock::new(rig.with_observer(self.obs.clone())));
        rigs.insert(spec.id, Arc::clone(&rig));
        Ok(rig)
    }

    fn measure_uncached(
        &self,
        config: &ChipConfig,
        workload: &Workload,
    ) -> Result<(RunMeasurement, MeasureHealth), MeasureError> {
        // The configuration label feeds the seed of every invocation and
        // several error paths; building it once per cell (instead of once
        // per invocation) keeps the hot path free of format! churn.
        let label = config.label();
        let rig = self.rig_for(config, &label)?;
        let faulted = self.fault_plans.contains_key(&config.spec().id);

        let scaled;
        let w = if (self.instruction_scale - 1.0).abs() < 1e-12 {
            workload
        } else {
            scaled = scale_workload(workload, self.instruction_scale);
            &scaled
        };
        let cell = CellCtx {
            config,
            w,
            workload,
            label: &label,
            rig: &rig,
            faulted,
        };

        let n = self.invocations_for(workload);
        // Attempt-0 seeds do not depend on the retry counter, so every
        // invocation's first run is simulated before any is measured.
        let runs: Vec<RunResult> = (0..n)
            .map(|k| self.sim_run(config, w, seed_for(self.base_seed, workload.name(), &label, k)))
            .collect();
        // A fault-free rig reads them all in one pass. The readings are
        // audited one by one below, in invocation order, so the rig's
        // counters see exactly the runs a one-at-a-time pass would.
        let mut readings = if faulted {
            None
        } else {
            let waveforms: Vec<&PowerWaveform> = runs.iter().map(|r| &r.waveform).collect();
            Some(rig.read().measure_batch(&waveforms).into_iter())
        };

        let mut health = MeasureHealth::default();
        // Invocation counts are single digits under every protocol in the
        // paper, so the per-invocation samples live on the stack; the heap
        // fallback only exists for hypothetical custom protocols.
        let mut times_buf = [0.0f64; 16];
        let mut powers_buf = [0.0f64; 16];
        let (mut times_vec, mut powers_vec);
        let (times, powers): (&mut [f64], &mut [f64]) = if n <= 16 {
            (&mut times_buf[..n], &mut powers_buf[..n])
        } else {
            times_vec = vec![0.0f64; n];
            powers_vec = vec![0.0f64; n];
            (&mut times_vec[..], &mut powers_vec[..])
        };
        let mut attempts = 0usize; // distinct seeds consumed beyond attempt 0
        for (k, run) in runs.iter().enumerate() {
            let recalibrations = health.recalibrations;
            let reading = readings.as_mut().and_then(Iterator::next);
            let (t, p) = self.run_invocation(&cell, k, run, reading, &mut attempts, &mut health)?;
            times[k] = t;
            powers[k] = p;
            // A recalibration refits the channel, so the batch's later
            // readings went through the old fit: those invocations are
            // measured one at a time, as they would have been.
            if health.recalibrations != recalibrations {
                readings = None;
            }
        }

        // Tukey/MAD outlier fence on the per-invocation power means: a
        // faulted invocation (spike, partial flatline) lands far outside
        // the robust spread of its siblings and is re-run on a fresh
        // seed. Clean spreads sit far inside the fence floor, so a
        // healthy measurement is never touched. If the budget runs out
        // while outliers remain, the data is kept and the rejection count
        // records the degradation.
        if n >= 3 {
            loop {
                let med = median(powers);
                let mad = median_abs_deviation(powers);
                let fence = (FENCE_MAD_SIGMAS * mad).max(FENCE_FLOOR_FRACTION * med.abs());
                let outlier = (0..n).find(|&k| (powers[k] - med).abs() > fence);
                let Some(k) = outlier else { break };
                if health.retries >= self.retry_budget {
                    break;
                }
                health.rejected_outliers += 1;
                health.retries += 1;
                attempts += 1;
                let (t, p) = self.run_retry(&cell, k, attempts, &mut health)?;
                times[k] = t;
                powers[k] = p;
            }
        }

        let mut time = SummaryBuilder::new();
        let mut power = SummaryBuilder::new();
        for k in 0..n {
            time.push(times[k]);
            power.push(powers[k]);
        }
        let measurement = RunMeasurement {
            workload: workload.name(),
            group: workload.group(),
            config: label,
            time: time.build(),
            power: power.build(),
        };
        Ok((measurement, health))
    }

    /// Settles invocation `k` from its attempt-0 `run` (and, on a
    /// fault-free rig, the batch's unaudited `reading` of it): drift
    /// rejections trigger a recalibration and a same-seed repeat; other
    /// sensor rejections burn a retry and a fresh seed, until the rig
    /// accepts or the budget dies.
    fn run_invocation(
        &self,
        cell: &CellCtx<'_>,
        k: usize,
        run: &RunResult,
        reading: Option<Measurement>,
        attempts: &mut usize,
        health: &mut MeasureHealth,
    ) -> Result<(f64, f64), MeasureError> {
        let seed = seed_for(self.base_seed, cell.workload.name(), cell.label, k);
        let mut outcome = self.settle(cell, run, seed, reading, health);
        loop {
            match outcome {
                Ok(sample) => return Ok(sample),
                Err(e) => {
                    // A failed recalibration is terminal: the channel is
                    // too broken for fresh seeds to help.
                    if matches!(e.kind, MeasureErrorKind::Sensor(_))
                        || health.retries >= self.retry_budget
                    {
                        return Err(self.budget_exhausted(cell.config, cell.workload, e));
                    }
                    health.retries += 1;
                    *attempts += 1;
                    outcome = self.run_retry(cell, k, *attempts, health);
                }
            }
        }
    }

    /// One simulated run plus one rig pass for invocation `k` on the
    /// fresh seed of retry `attempt` (>= 1).
    fn run_retry(
        &self,
        cell: &CellCtx<'_>,
        k: usize,
        attempt: usize,
        health: &mut MeasureHealth,
    ) -> Result<(f64, f64), MeasureError> {
        let base = seed_for(self.base_seed, cell.workload.name(), cell.label, k);
        let seed = retry_seed(base, attempt);
        let run = self.sim_run(cell.config, cell.w, seed);
        self.settle(cell, &run, seed, None, health)
    }

    /// The rig's verdict on one simulated run: audits the batch's
    /// `reading` of it if there is one, otherwise measures it. When the
    /// rig reports drift, recalibrates -- without consuming the attempt
    /// -- and measures the same run again.
    fn settle(
        &self,
        cell: &CellCtx<'_>,
        run: &RunResult,
        seed: u64,
        reading: Option<Measurement>,
        health: &mut MeasureHealth,
    ) -> Result<(f64, f64), MeasureError> {
        let error = |kind| MeasureError {
            workload: Some(cell.workload.name()),
            config: cell.label.to_string(),
            kind,
        };
        let exhausted = |last| {
            error(MeasureErrorKind::RetryBudgetExhausted {
                budget: self.retry_budget,
                last,
            })
        };
        let seed = seed ^ 0x50_c3;
        let first = match reading {
            Some(reading) => cell.rig.read().audit(reading),
            None => cell.measure(&run.waveform, seed),
        };
        let measured = match first {
            Err(SensorError::ExcessiveDrift { .. }) => {
                // The fit no longer matches the channel: recalibrate and
                // repeat this attempt, as the paper's lab did.
                health.recalibrations += 1;
                cell.rig
                    .write()
                    .recalibrate()
                    .map_err(|e| error(MeasureErrorKind::Sensor(e)))?;
                cell.measure(&run.waveform, seed)
            }
            other => other,
        };
        measured
            .map(|m| (run.time.value(), m.average_power.value()))
            .map_err(exhausted)
    }

    fn budget_exhausted(
        &self,
        config: &ChipConfig,
        workload: &Workload,
        underlying: MeasureError,
    ) -> MeasureError {
        match underlying.kind {
            MeasureErrorKind::RetryBudgetExhausted { .. } | MeasureErrorKind::Sensor(_) => {
                underlying
            }
            _ => MeasureError {
                workload: Some(workload.name()),
                config: config.label(),
                kind: underlying.kind,
            },
        }
    }
}

/// What every invocation of one uncached cell shares.
struct CellCtx<'a> {
    config: &'a ChipConfig,
    /// The (possibly instruction-scaled) workload that runs.
    w: &'a Workload,
    /// The original workload, used for naming and seeding.
    workload: &'a Workload,
    label: &'a str,
    rig: &'a RwLock<MeasurementRig>,
    faulted: bool,
}

impl CellCtx<'_> {
    /// One audited rig pass: a width-1 streaming pass under a shared
    /// borrow on a fault-free rig, `try_measure` under exclusive access
    /// on a faulted one.
    fn measure(&self, waveform: &PowerWaveform, seed: u64) -> Result<Measurement, SensorError> {
        if self.faulted {
            return self.rig.write().try_measure(waveform, seed);
        }
        let rig = self.rig.read();
        let reading = rig.measure_batch(&[waveform]).remove(0);
        rig.audit(reading)
    }
}

/// Builds a shortened clone of a workload (same signature, fewer
/// instructions), used by fast runners.
fn scale_workload(w: &Workload, factor: f64) -> Workload {
    let mut scaled = w.clone();
    scaled.scale_trace(factor);
    scaled
}

/// Deterministic seed for one invocation.
fn seed_for(base: u64, workload: &str, config: &str, invocation: usize) -> u64 {
    let mut h = base ^ 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes().chain(config.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (invocation as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A fresh, decorrelated seed for retry attempt `attempt` (>= 1) of an
/// invocation whose attempt-0 seed is `base`.
fn retry_seed(base: u64, attempt: usize) -> u64 {
    base.rotate_left(17) ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// The order [`Runner::try_measure_cells`] hands its units out in: the
/// first item of each key (a workload) in input order, then every repeat
/// in input order. Two workers then start different workloads, instead
/// of one waiting on the other's memo flight for the values the two
/// share. Returns the input indices in hand-out order.
fn hand_out_order<K: Eq + std::hash::Hash>(keys: impl IntoIterator<Item = K>) -> Vec<usize> {
    let mut seen = HashSet::new();
    let mut repeats = Vec::new();
    let mut order = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        if seen.insert(key) {
            order.push(i);
        } else {
            repeats.push(i);
        }
    }
    order.extend(repeats);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_sensors::faults::{Drift, FaultPlan, Saturation, Spikes, Stall};
    use lhr_uarch::ProcessorId;
    use lhr_workloads::by_name;

    fn cfg() -> ChipConfig {
        ChipConfig::stock(ProcessorId::Core2DuoE6600.spec())
    }

    #[test]
    fn prescribed_invocations_follow_methodology() {
        let r = Runner::new();
        assert_eq!(r.invocations_for(by_name("mcf").unwrap()), 3);
        assert_eq!(r.invocations_for(by_name("x264").unwrap()), 5);
        assert_eq!(r.invocations_for(by_name("xalan").unwrap()), 20);
        let fixed = Runner::new().with_invocations(4);
        assert_eq!(fixed.invocations_for(by_name("xalan").unwrap()), 4);
    }

    #[test]
    fn measurement_is_deterministic() {
        let r = Runner::fast();
        let a = r.measure(&cfg(), by_name("jess").unwrap());
        let b = r.measure(&cfg(), by_name("jess").unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn measurement_has_plausible_magnitudes() {
        let r = Runner::fast();
        let m = r.measure(&cfg(), by_name("jess").unwrap());
        assert!(m.seconds().value() > 0.0);
        let p = m.watts().value();
        assert!(p > 10.0 && p < 65.0, "C2D(65) power {p}");
        assert_eq!(m.group, Group::JavaNonScalable);
        assert_eq!(m.workload, "jess");
        assert!(m.config.contains("C2D (65)"));
        assert!(m.joules().value() > 0.0);
    }

    #[test]
    fn java_runs_show_more_spread_than_native() {
        let r = Runner::fast().with_invocations(6);
        let java = r.measure(&cfg(), by_name("jess").unwrap());
        let native = r.measure(&cfg(), by_name("povray").unwrap());
        assert!(
            java.time.relative_ci95() > native.time.relative_ci95() * 0.8,
            "java {} vs native {}",
            java.time.relative_ci95(),
            native.time.relative_ci95()
        );
    }

    #[test]
    fn seeds_are_distinct_per_invocation_and_workload() {
        let s1 = seed_for(1, "a", "c", 0);
        let s2 = seed_for(1, "a", "c", 1);
        let s3 = seed_for(1, "b", "c", 0);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(retry_seed(s1, 1), s1);
        assert_ne!(retry_seed(s1, 1), retry_seed(s1, 2));
    }

    #[test]
    fn target_slice_override_preserves_other_customization() {
        // Regression test: with_target_slices used to rebuild the
        // simulator from scratch, silently discarding prior overrides.
        let r = Runner::fast().with_target_slices(120);
        let plain = Runner::fast();
        // fast()'s other knobs must survive the slice override.
        assert_eq!(r.invocations, plain.invocations);
        assert!((r.instruction_scale - plain.instruction_scale).abs() < 1e-12);
        let m = r.measure(&cfg(), by_name("jess").unwrap());
        assert!(m.watts().value() > 0.0);
    }

    #[test]
    fn try_measure_matches_measure_without_faults() {
        let validated = Runner::fast();
        let legacy = Runner::fast();
        let w = by_name("jess").unwrap();
        let (m, health) = validated.try_measure(&cfg(), w).unwrap();
        assert_eq!(m, legacy.measure(&cfg(), w));
        assert!(health.is_clean(), "clean run, clean health: {health:?}");
        assert_eq!(validated.health(), RunnerHealth::default());
    }

    #[test]
    fn cache_hits_report_zero_cost() {
        let r = Runner::fast();
        let w = by_name("jess").unwrap();
        let (a, _) = r.try_measure(&cfg(), w).unwrap();
        let (b, health) = r.try_measure(&cfg(), w).unwrap();
        assert_eq!(a, b);
        assert!(health.is_clean());
    }

    #[test]
    fn preload_serves_cache_hits_identical_to_live_measurement() {
        let live = Runner::fast();
        let w = by_name("jess").unwrap();
        let (m, h) = live.try_measure(&cfg(), w).unwrap();
        let resumed = Runner::fast();
        resumed.preload(&cfg(), w, m.clone(), h);
        let (replayed, cost) = resumed.try_measure(&cfg(), w).unwrap();
        assert_eq!(replayed, m, "a preloaded cell replays byte-identically");
        assert!(cost.is_clean(), "cache hits cost nothing");
        // A workload the journal never covered is measured live and
        // still matches an untouched runner.
        let other = by_name("mcf").unwrap();
        assert_eq!(
            resumed.try_measure(&cfg(), other).unwrap().0,
            live.try_measure(&cfg(), other).unwrap().0,
        );
    }

    #[test]
    #[should_panic(expected = "another workload")]
    fn preload_rejects_misattributed_records() {
        let r = Runner::fast();
        let w = by_name("jess").unwrap();
        let (m, h) = r.try_measure(&cfg(), w).unwrap();
        Runner::fast().preload(&cfg(), by_name("mcf").unwrap(), m, h);
    }

    #[test]
    fn spike_outliers_are_fenced_and_converge_to_the_clean_mean() {
        // A rail spike afflicting roughly a third of invocations on the
        // C2D rig: attempt-0 runs that draw a spike read ~10 W high and
        // must be fenced out and re-run on fresh seeds.
        let w = by_name("hmmer").unwrap();
        let clean = Runner::fast().with_invocations(6);
        let clean_mean = clean.measure(&cfg(), w).watts().value();

        let plan = FaultPlan::new(0xbad).with_spikes(Spikes {
            per_run_probability: 0.35,
            magnitude_v: -0.15,
        });
        let faulted = Runner::fast()
            .with_invocations(6)
            .with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        let (m, health) = faulted.try_measure(&cfg(), w).expect("must converge");
        assert!(
            health.rejected_outliers > 0,
            "spiked invocations must be fenced: {health:?}"
        );
        assert!(health.retries <= faulted.retry_budget());
        let drift = (m.watts().value() - clean_mean).abs() / clean_mean;
        assert!(
            drift < 0.01,
            "fenced mean within 1% of clean mean (got {:.3}% off)",
            drift * 100.0
        );
        let ledger = faulted.health();
        assert_eq!(ledger.rejected_outliers, health.rejected_outliers);
        assert_eq!(ledger.failed_measurements, 0);
    }

    #[test]
    fn observer_counters_match_the_health_ledger() {
        use lhr_obs::MemoryRecorder;
        use std::sync::Arc;

        let memory = Arc::new(MemoryRecorder::default());
        let plan = FaultPlan::new(0xbad).with_spikes(Spikes {
            per_run_probability: 0.35,
            magnitude_v: -0.15,
        });
        let r = Runner::fast()
            .with_invocations(6)
            .with_fault_plan(ProcessorId::Core2DuoE6600, plan)
            .with_observer(Obs::recording(memory.clone()));
        let w = by_name("hmmer").unwrap();
        let (_, health) = r.try_measure(&cfg(), w).expect("must converge");
        let _ = r.try_measure(&cfg(), w).expect("cache hit");

        let snap = memory.snapshot();
        assert_eq!(snap.counter("runner.measurements"), 1);
        assert_eq!(snap.counter("runner.cache_hits"), 1);
        assert_eq!(snap.counter("runner.retries"), health.retries as u64);
        assert_eq!(
            snap.counter("runner.outlier_reruns"),
            health.rejected_outliers as u64
        );
        assert_eq!(
            snap.counter("runner.recalibrations"),
            health.recalibrations as u64
        );
        // The rig armed by the runner reports through the same observer.
        assert_eq!(snap.counter("rig.faulted_runs"), snap.counter("rig.runs"));
        assert!(snap.counter("rig.runs") >= 6);
        // Exactly one uncached measurement was spanned and timed.
        let span = &snap.spans["runner.measure"];
        assert_eq!(span.count, 1);
        assert!(span.total_nanos > 0);
    }

    #[test]
    fn observer_is_transparent_to_measurements() {
        use lhr_obs::MemoryRecorder;
        use std::sync::Arc;

        let silent = Runner::fast();
        let observed =
            Runner::fast().with_observer(Obs::recording(Arc::new(MemoryRecorder::default())));
        let w = by_name("jess").unwrap();
        let (a, _) = silent.try_measure(&cfg(), w).unwrap();
        let (b, _) = observed.try_measure(&cfg(), w).unwrap();
        assert_eq!(a, b, "an armed observer never changes a measured number");
    }

    #[test]
    fn drift_triggers_recalibration_not_failure() {
        let plan = FaultPlan::new(7).with_drift(Drift::new(0.004, 0.0015));
        let r = Runner::fast()
            .with_invocations(8)
            .with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        let w = by_name("hmmer").unwrap();
        let (m, health) = r.try_measure(&cfg(), w).expect("recalibration recovers");
        assert!(m.watts().value() > 0.0);
        // The drifting rig must eventually trip the self-check at least
        // once across eight invocations.
        assert!(
            health.recalibrations > 0,
            "drift must recalibrate: {health:?}"
        );
    }

    #[test]
    fn hopeless_rig_fails_with_recorded_error_not_panic() {
        // Clipping so tight every run flatlines: no retry can save it.
        let plan = FaultPlan::new(1).with_saturation(Saturation::new(2.49, 2.5));
        let r = Runner::fast().with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        let w = by_name("hmmer").unwrap();
        let err = r.try_measure(&cfg(), w).unwrap_err();
        assert!(matches!(
            err.kind,
            MeasureErrorKind::RetryBudgetExhausted { .. }
        ));
        assert_eq!(err.workload, Some("hmmer"));
        assert_eq!(r.health().failed_measurements, 1);
        // Other machines are unaffected.
        let other = ChipConfig::stock(ProcessorId::Atom230.spec());
        assert!(r.try_measure(&other, w).is_ok());
    }

    #[test]
    fn work_is_handed_out_first_occurrences_first() {
        assert_eq!(hand_out_order(["a", "a", "b", "b", "c"]), [0, 2, 4, 1, 3]);
        assert_eq!(
            hand_out_order(["a", "b", "c"]),
            [0, 1, 2],
            "otherwise input order"
        );
        assert_eq!(hand_out_order(["a", "b", "a", "c", "b"]), [0, 1, 3, 2, 4]);

        // A faulted machine's chain keeps its own order and is handed
        // out as its first cell is.
        let atom = ChipConfig::stock(ProcessorId::Atom230.spec());
        let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
        let w = |n| by_name(n).expect("catalog workload");
        let (hmmer, db, mcf) = (w("hmmer"), w("db"), w("mcf"));
        let plan = FaultPlan::new(5).with_stall(Stall::transient(1, 0.1));
        let runner = Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, plan);
        let cells: [(&ChipConfig, &Workload); 5] = [
            (&atom, hmmer),
            (&i7, hmmer),
            (&atom, db),
            (&i7, db),
            (&atom, mcf),
        ];
        assert_eq!(
            runner.hand_out_units(&cells),
            [vec![0], vec![2], vec![4], vec![1, 3]]
        );
    }
}
