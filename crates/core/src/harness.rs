//! The evaluation harness: normalized metrics and group aggregation.
//!
//! Alongside the legacy panicking entry points ([`Harness::reference`],
//! [`Harness::evaluate_config`]) the harness exposes a resilient sweep
//! path: [`Harness::try_evaluate_config`] returns per-workload
//! `Result`s plus per-cell health, and [`Harness::sweep`] runs a whole
//! configuration space without ever aborting -- a degraded or dead cell
//! is recorded in the [`SweepHealth`] summary while every healthy cell
//! still reports its numbers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use lhr_obs::{context, Obs};
use lhr_stats::arithmetic_mean;
use lhr_uarch::ChipConfig;
use lhr_workloads::{catalog, Group, Workload};

use crate::error::{MeasureError, MeasureErrorKind, MeasureHealth};
use crate::reference::ReferenceSet;
use crate::runner::{RunMeasurement, Runner};
use crate::sink::CellSink;

/// One benchmark's normalized result on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The raw measurement.
    pub measurement: RunMeasurement,
    /// Performance relative to the four-machine reference
    /// (`reference time / time`; higher is better).
    pub perf_norm: f64,
    /// Energy relative to the reference energy (lower is better).
    pub energy_norm: f64,
}

impl Evaluation {
    /// The benchmark name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.measurement.workload
    }

    /// The benchmark group.
    #[must_use]
    pub fn group(&self) -> Group {
        self.measurement.group
    }

    /// Measured average power in watts.
    #[must_use]
    pub fn watts(&self) -> f64 {
        self.measurement.power.mean()
    }
}

/// Per-group and aggregate metrics for one configuration (the shape of one
/// row of Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMetrics {
    /// Mean normalized performance per group.
    pub perf: BTreeMap<Group, f64>,
    /// Mean measured power per group (watts).
    pub power: BTreeMap<Group, f64>,
    /// Mean normalized energy per group.
    pub energy: BTreeMap<Group, f64>,
    /// Equal-group-weight averages (the paper's `Avg_w`).
    pub perf_w: f64,
    /// Equal-group-weight average power.
    pub power_w: f64,
    /// Equal-group-weight average normalized energy.
    pub energy_w: f64,
    /// Simple per-benchmark averages (the paper's `Avg_b`).
    pub perf_b: f64,
    /// Simple average power.
    pub power_b: f64,
    /// Simple average normalized energy.
    pub energy_b: f64,
    /// Benchmark-level extremes.
    pub perf_min: f64,
    /// Highest single-benchmark normalized performance.
    pub perf_max: f64,
    /// Lowest single-benchmark power.
    pub power_min: f64,
    /// Highest single-benchmark power.
    pub power_max: f64,
}

impl GroupMetrics {
    /// Aggregates per-benchmark evaluations per Section 2.6: arithmetic
    /// mean within each group, then the mean of the four group means.
    ///
    /// # Panics
    ///
    /// Panics if `evals` is empty or a represented group has no members.
    #[must_use]
    pub fn aggregate(evals: &[Evaluation]) -> Self {
        assert!(!evals.is_empty(), "no evaluations to aggregate");
        let mut perf = BTreeMap::new();
        let mut power = BTreeMap::new();
        let mut energy = BTreeMap::new();
        let mut groups_present = Vec::new();
        for group in Group::ALL {
            let members: Vec<&Evaluation> =
                evals.iter().filter(|e| e.group() == group).collect();
            if members.is_empty() {
                continue;
            }
            groups_present.push(group);
            perf.insert(
                group,
                arithmetic_mean(&members.iter().map(|e| e.perf_norm).collect::<Vec<_>>()),
            );
            power.insert(
                group,
                arithmetic_mean(&members.iter().map(|e| e.watts()).collect::<Vec<_>>()),
            );
            energy.insert(
                group,
                arithmetic_mean(&members.iter().map(|e| e.energy_norm).collect::<Vec<_>>()),
            );
        }
        let group_mean = |m: &BTreeMap<Group, f64>| {
            arithmetic_mean(&groups_present.iter().map(|g| m[g]).collect::<Vec<_>>())
        };
        let all_perf: Vec<f64> = evals.iter().map(|e| e.perf_norm).collect();
        let all_power: Vec<f64> = evals.iter().map(|e| e.watts()).collect();
        let all_energy: Vec<f64> = evals.iter().map(|e| e.energy_norm).collect();
        Self {
            perf_w: group_mean(&perf),
            power_w: group_mean(&power),
            energy_w: group_mean(&energy),
            perf_b: arithmetic_mean(&all_perf),
            power_b: arithmetic_mean(&all_power),
            energy_b: arithmetic_mean(&all_energy),
            perf_min: all_perf.iter().copied().fold(f64::INFINITY, f64::min),
            perf_max: all_perf.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            power_min: all_power.iter().copied().fold(f64::INFINITY, f64::min),
            power_max: all_power.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            perf,
            power,
            energy,
        }
    }
}

/// Resilience accounting for one configuration cell of a sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellHealth {
    /// Invocation retries spent in this cell.
    pub retries: usize,
    /// Rig recalibrations triggered in this cell.
    pub recalibrations: usize,
    /// Outlier-fence rejections in this cell.
    pub rejected_outliers: usize,
    /// Watchdog deadline misses in this cell (supervised campaigns only;
    /// always zero on the plain sweep path).
    pub deadline_misses: usize,
    /// Workloads that failed for good in this cell.
    pub failed: usize,
}

impl CellHealth {
    /// Whether the cell needed no intervention and lost no workloads.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.retries == 0
            && self.recalibrations == 0
            && self.rejected_outliers == 0
            && self.deadline_misses == 0
            && self.failed == 0
    }

    pub(crate) fn absorb(&mut self, h: &MeasureHealth) {
        self.retries += h.retries;
        self.recalibrations += h.recalibrations;
        self.rejected_outliers += h.rejected_outliers;
    }
}

/// One configuration's worth of a resilient sweep: per-workload results
/// (in workload order) plus the cell's health.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The configuration label.
    pub label: String,
    /// Per-workload outcomes, in the harness's workload order.
    pub evaluations: Vec<Result<Evaluation, MeasureError>>,
    /// What the cell cost to produce.
    pub health: CellHealth,
}

impl CellReport {
    /// The successful evaluations, in workload order.
    #[must_use]
    pub fn successes(&self) -> Vec<Evaluation> {
        self.evaluations
            .iter()
            .filter_map(|r| r.as_ref().ok().cloned())
            .collect()
    }

    /// The recorded failures.
    pub fn failures(&self) -> impl Iterator<Item = &MeasureError> {
        self.evaluations.iter().filter_map(|r| r.as_ref().err())
    }

    /// Group metrics over whatever succeeded; `None` if nothing did.
    #[must_use]
    pub fn metrics(&self) -> Option<GroupMetrics> {
        let ok = self.successes();
        if ok.is_empty() {
            None
        } else {
            Some(GroupMetrics::aggregate(&ok))
        }
    }
}

/// Whole-sweep resilience summary: which cells degraded and what the
/// sweep spent keeping itself alive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepHealth {
    /// Cells evaluated.
    pub cells_total: usize,
    /// Cells that needed retries/recalibrations or lost workloads.
    pub cells_degraded: usize,
    /// Individual workload measurements that failed for good.
    pub failed_measurements: usize,
    /// Total invocation retries across the sweep.
    pub retries: usize,
    /// Total rig recalibrations across the sweep.
    pub recalibrations: usize,
    /// Total outlier-fence rejections across the sweep.
    pub rejected_outliers: usize,
    /// Total watchdog deadline misses (supervised campaigns only).
    pub deadline_misses: usize,
    /// Labels of the degraded cells, in sweep order.
    pub degraded: Vec<String>,
}

impl SweepHealth {
    /// Whether every cell came through untouched.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.cells_degraded == 0 && self.failed_measurements == 0
    }

    /// A one-paragraph human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!("sweep health: all {} cells clean", self.cells_total);
        }
        let mut summary = format!(
            "sweep health: {}/{} cells degraded ({}); {} retries, {} recalibrations, \
             {} rejected outliers, {} failed measurements",
            self.cells_degraded,
            self.cells_total,
            self.degraded.join(", "),
            self.retries,
            self.recalibrations,
            self.rejected_outliers,
            self.failed_measurements,
        );
        if self.deadline_misses > 0 {
            summary.push_str(&format!(", {} deadline misses", self.deadline_misses));
        }
        summary
    }
}

/// A full resilient sweep: every cell's report plus the health summary.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-configuration reports, in input order.
    pub cells: Vec<CellReport>,
    /// The sweep-wide health summary.
    pub health: SweepHealth,
}

/// The central evaluation harness: a runner, a workload set, and the
/// lazily computed reference normalization.
#[derive(Debug)]
pub struct Harness {
    runner: Runner,
    workloads: Vec<&'static Workload>,
    /// The reference set, published once computed: readers never wait.
    reference: OnceLock<ReferenceSet>,
    /// Held while the reference set is computed, so it is computed once.
    computing_reference: Mutex<()>,
    jobs: Option<usize>,
    sink: Option<Arc<dyn CellSink>>,
}

impl Harness {
    /// A harness over the full 61-benchmark catalog.
    #[must_use]
    pub fn new(runner: Runner) -> Self {
        Self {
            runner,
            workloads: catalog().iter().collect(),
            reference: OnceLock::new(),
            computing_reference: Mutex::new(()),
            jobs: None,
            sink: None,
        }
    }

    /// Restricts the harness to a subset of the catalog (fast sweeps,
    /// focused experiments).
    ///
    /// # Panics
    ///
    /// Panics if the subset is empty.
    #[must_use]
    pub fn with_workloads(mut self, workloads: Vec<&'static Workload>) -> Self {
        assert!(!workloads.is_empty(), "harness needs at least one workload");
        self.workloads = workloads;
        self.reference = OnceLock::new();
        self
    }

    /// A fast harness over a representative 12-benchmark subset (three per
    /// group), for tests and quick exploration.
    #[must_use]
    pub fn quick() -> Self {
        Harness::new(Runner::fast()).with_workloads(Self::quick_set())
    }

    /// The representative 12-benchmark subset [`Harness::quick`] uses,
    /// for callers (the serving layer, tests) that need the same
    /// workload set over a customized runner.
    #[must_use]
    pub fn quick_set() -> Vec<&'static Workload> {
        let names = [
            // Native Non-scalable: compute-bound, branchy, memory-bound.
            "hmmer", "gobmk", "mcf",
            // Native Scalable.
            "swaptions", "fluidanimate", "canneal",
            // Java Non-scalable.
            "db", "jess", "avrora",
            // Java Scalable.
            "sunflow", "xalan", "lusearch",
        ];
        names
            .iter()
            .map(|n| lhr_workloads::by_name(n).expect("quick-set benchmarks exist"))
            .collect()
    }

    /// Arms an observer on the harness's runner (and every rig it will
    /// build): cell wall time, degraded cells, worker-panic recoveries,
    /// and sweep throughput report through it alongside the runner's own
    /// events. See [`Runner::with_observer`].
    ///
    /// # Panics
    ///
    /// Panics if a rig was already built (observers arm before first use).
    #[must_use]
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.runner = self.runner.with_observer(obs);
        self
    }

    /// Caps the number of worker threads a cell evaluation, the
    /// reference set, [`Harness::measure_all`] (and any supervisor built
    /// over this harness) may use. Thread count never affects a measured
    /// value -- every invocation's seed is a pure function of its cell --
    /// only wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_jobs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        self.jobs = Some(n);
        self
    }

    /// The worker-thread cap in force (`None` = available parallelism).
    #[must_use]
    pub fn jobs(&self) -> Option<usize> {
        self.jobs
    }

    /// Attaches a [`CellSink`]: every successfully resolved cell (and
    /// every per-unit campaign evaluation) is reported to it, in
    /// workload order. Sinks are observational -- they can never change
    /// a measured byte -- so attaching one is bit-identity safe.
    #[must_use]
    pub fn with_cell_sink(mut self, sink: Arc<dyn CellSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The attached cell sink, if any.
    #[must_use]
    pub fn cell_sink(&self) -> Option<&Arc<dyn CellSink>> {
        self.sink.as_ref()
    }

    /// The harness's workload set.
    #[must_use]
    pub fn workloads(&self) -> &[&'static Workload] {
        &self.workloads
    }

    /// The underlying runner.
    #[must_use]
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The reference set, computing it on first use.
    ///
    /// # Panics
    ///
    /// Panics if a reference measurement fails; [`Harness::try_reference`]
    /// is the non-panicking form.
    pub fn reference(&self) -> ReferenceSet {
        self.try_reference()
            .unwrap_or_else(|e| panic!("reference computation failed: {e}"))
    }

    /// The reference set, computing it on first use and reporting any
    /// measurement failure instead of panicking.
    ///
    /// # Errors
    ///
    /// The first [`MeasureError`] hit on the four reference machines.
    pub fn try_reference(&self) -> Result<ReferenceSet, MeasureError> {
        self.reference_set().cloned()
    }

    /// The reference set, computing it on first use. A failed
    /// computation publishes nothing, so a later call tries again.
    pub(crate) fn reference_set(&self) -> Result<&ReferenceSet, MeasureError> {
        if let Some(refs) = self.reference.get() {
            return Ok(refs);
        }
        let _computing = self.computing_reference.lock();
        if let Some(refs) = self.reference.get() {
            return Ok(refs);
        }
        let refs = ReferenceSet::try_compute_on(&self.runner, &self.workloads, self.jobs)?;
        Ok(self.reference.get_or_init(|| refs))
    }

    /// Raw (unnormalized) measurement of one workload.
    #[must_use]
    pub fn measure(&self, config: &ChipConfig, workload: &Workload) -> RunMeasurement {
        self.runner.measure(config, workload)
    }

    /// Raw measurements of many cells, in input order, taken on the
    /// harness's workers (see [`Harness::with_jobs`]): the values a loop
    /// of [`Harness::measure`] calls would return. A machine with an
    /// armed fault plan is measured by one worker in input order.
    ///
    /// # Panics
    ///
    /// Panics on the first failed measurement in input order, as that
    /// loop would.
    #[must_use]
    pub fn measure_all(&self, cells: &[(&ChipConfig, &Workload)]) -> Vec<RunMeasurement> {
        self.runner
            .try_measure_cells(self.jobs, cells)
            .into_iter()
            .map(|outcome| {
                match outcome.expect("a faulted machine stops only after an earlier failure") {
                    Ok(m) => m,
                    Err(e) => panic!("measurement failed: {e}"),
                }
            })
            .collect()
    }

    /// Evaluates a single `(configuration, workload)` cell: one
    /// measurement through the resilient runner path, normalized against
    /// the four-machine reference. This is the unit a campaign
    /// supervisor schedules, deadlines, and retries individually.
    ///
    /// # Errors
    ///
    /// The [`MeasureError`] from the reference computation or the
    /// measurement itself.
    pub fn try_evaluate_workload(
        &self,
        config: &ChipConfig,
        workload: &Workload,
    ) -> Result<(Evaluation, MeasureHealth), MeasureError> {
        let refs = self.reference_set()?;
        let (measurement, health) = self.runner.try_measure(config, workload)?;
        Ok((self.record_evaluation(config, refs, measurement), health))
    }

    /// The cell's evaluation when the runner already holds its
    /// measurement: what [`Harness::try_evaluate_workload`] returns for
    /// it, reported to the sink the same way, with a zero
    /// [`MeasureHealth`] left implied. `None` when the cell is not held
    /// or the reference set is not computed yet. Never measures, and
    /// never waits for a reference set another thread is computing.
    #[must_use]
    pub fn cached_evaluation(
        &self,
        config: &ChipConfig,
        workload: &Workload,
    ) -> Option<Evaluation> {
        let refs = self.reference.get()?;
        let measurement = self.runner.cached(config, workload)?;
        Some(self.record_evaluation(config, refs, measurement))
    }

    /// Normalizes one workload's measurement and reports it to the sink.
    fn record_evaluation(
        &self,
        config: &ChipConfig,
        refs: &ReferenceSet,
        measurement: RunMeasurement,
    ) -> Evaluation {
        let eval = normalize(refs, measurement);
        if let Some(sink) = &self.sink {
            sink.record_cell(config, std::slice::from_ref(&eval));
        }
        eval
    }

    /// Evaluates every workload on a configuration, in parallel, returning
    /// normalized results in workload order.
    ///
    /// # Panics
    ///
    /// Panics on the first recorded measurement failure;
    /// [`Harness::try_evaluate_config`] is the non-panicking form.
    #[must_use]
    pub fn evaluate_config(&self, config: &ChipConfig) -> Vec<Evaluation> {
        self.try_evaluate_config(config)
            .evaluations
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("evaluation failed: {e}")))
            .collect()
    }

    /// Evaluates every workload on a configuration, in parallel, without
    /// ever aborting: each workload independently resolves to an
    /// [`Evaluation`] or a recorded [`MeasureError`] (worker panics are
    /// contained and recorded the same way), and the cell's resilience
    /// cost is summed into its [`CellHealth`].
    #[must_use]
    pub fn try_evaluate_config(&self, config: &ChipConfig) -> CellReport {
        let obs = self.runner.observer();
        let span = obs.span("harness.cell");
        let report = self.evaluate_cell(config);
        span.end();
        obs.counter("harness.cells", 1);
        if !report.health.is_clean() {
            obs.counter("harness.cells_degraded", 1);
            if obs.enabled() {
                obs.mark("harness.degraded", &report.label);
            }
        }
        report
    }

    fn evaluate_cell(&self, config: &ChipConfig) -> CellReport {
        let label = config.label();
        let refs = match self.reference_set() {
            Ok(refs) => refs,
            Err(e) => {
                // No reference, no normalization: every workload in the
                // cell reports the same root cause.
                return CellReport {
                    label,
                    evaluations: self.workloads.iter().map(|_| Err(e.clone())).collect(),
                    health: CellHealth {
                        failed: self.workloads.len(),
                        ..CellHealth::default()
                    },
                };
            }
        };
        let outcomes = fan_out(self.jobs, self.runner.observer(), self.workloads.len(), |i| {
            self.runner
                .try_measure(config, self.workloads[i])
                .map(|(measurement, health)| (normalize(refs, measurement), health))
        });
        let mut health = CellHealth::default();
        let evaluations: Vec<Result<Evaluation, MeasureError>> = outcomes
            .into_iter()
            .zip(&self.workloads)
            .map(|(outcome, w)| {
                outcome.unwrap_or_else(|panic| {
                    let message = panic_message(&*panic);
                    let obs = self.runner.observer();
                    obs.counter("sweep.worker_panics", 1);
                    if obs.enabled() {
                        obs.mark("sweep.worker_panic", &message);
                    }
                    Err(MeasureError {
                        workload: Some(w.name()),
                        config: config.label(),
                        kind: MeasureErrorKind::WorkerPanic(message),
                    })
                })
            })
            .map(|outcome| match outcome {
                Ok((eval, h)) => {
                    health.absorb(&h);
                    Ok(eval)
                }
                Err(e) => {
                    health.failed += 1;
                    Err(e)
                }
            })
            .collect();
        if let Some(sink) = &self.sink {
            // Report the survivors in workload order -- the same order
            // every downstream mean sums in.
            let ok: Vec<Evaluation> = evaluations
                .iter()
                .filter_map(|r| r.as_ref().ok().cloned())
                .collect();
            if !ok.is_empty() {
                sink.record_cell(config, &ok);
            }
        }
        CellReport {
            label,
            evaluations,
            health,
        }
    }

    /// Sweeps a whole configuration space resiliently: every cell is
    /// evaluated (degraded or not), nothing aborts, and the returned
    /// [`SweepHealth`] names each degraded cell with what it cost.
    ///
    /// # Example
    ///
    /// ```
    /// use lhr_core::Harness;
    /// use lhr_uarch::{ChipConfig, ProcessorId};
    ///
    /// let harness = Harness::quick();
    /// let configs = [
    ///     ChipConfig::stock(ProcessorId::Atom230.spec()),
    ///     ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
    /// ];
    /// let report = harness.sweep(&configs);
    /// assert_eq!(report.cells.len(), 2);
    /// assert!(report.health.is_clean(), "no faults armed, no degradation");
    /// let atom = report.cells[0].metrics().unwrap();
    /// let i7 = report.cells[1].metrics().unwrap();
    /// assert!(i7.perf_w > atom.perf_w, "the i7 outperforms the Atom");
    /// ```
    #[must_use]
    pub fn sweep(&self, configs: &[ChipConfig]) -> SweepReport {
        let obs = self.runner.observer();
        let span = obs.span("harness.sweep");
        let cells: Vec<CellReport> = configs
            .iter()
            .map(|c| self.try_evaluate_config(c))
            .collect();
        span.end();
        obs.counter("sweep.cells", cells.len() as u64);
        let mut health = SweepHealth {
            cells_total: cells.len(),
            ..SweepHealth::default()
        };
        for cell in &cells {
            health.retries += cell.health.retries;
            health.recalibrations += cell.health.recalibrations;
            health.rejected_outliers += cell.health.rejected_outliers;
            health.deadline_misses += cell.health.deadline_misses;
            health.failed_measurements += cell.health.failed;
            if !cell.health.is_clean() {
                health.cells_degraded += 1;
                health.degraded.push(cell.label.clone());
            }
        }
        SweepReport { cells, health }
    }

    /// Evaluates a configuration and aggregates to group metrics.
    #[must_use]
    pub fn group_metrics(&self, config: &ChipConfig) -> GroupMetrics {
        GroupMetrics::aggregate(&self.evaluate_config(config))
    }
}

/// Normalizes one raw measurement against the reference set
/// (Section 2.6: `reference time / time`; `energy / reference energy`).
fn normalize(refs: &ReferenceSet, measurement: RunMeasurement) -> Evaluation {
    let name = measurement.workload;
    let perf_norm = refs.seconds(name) / measurement.time.mean();
    let energy_norm = measurement.power.mean() * measurement.time.mean() / refs.joules(name);
    Evaluation {
        measurement,
        perf_norm,
        energy_norm,
    }
}

/// Runs `task(i)` for every `i` in `0..n` on up to `jobs` scoped workers
/// (`None`: the machine's available parallelism) that pull indices from
/// a shared counter, and returns each outcome in index order. A task
/// that panics yields its payload as the `Err`. With an armed observer,
/// the workers carry the caller's trace context.
pub(crate) fn fan_out<T: Send>(
    jobs: Option<usize>,
    obs: &Obs,
    n: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<std::thread::Result<T>> {
    let threads = jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        })
        .min(n);
    let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        *slots[i].lock() = Some(catch_unwind(AssertUnwindSafe(|| task(i))));
    };
    let ctx = obs.enabled().then(context::capture);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| match ctx {
                Some(ctx) => context::with_ctx(ctx, work),
                None => work(),
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index ran"))
        .collect()
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_uarch::ProcessorId;

    #[test]
    fn quick_harness_covers_all_groups() {
        let h = Harness::quick();
        for g in Group::ALL {
            assert!(
                h.workloads().iter().any(|w| w.group() == g),
                "group {g} missing"
            );
        }
    }

    #[test]
    fn evaluation_normalizes_against_reference() {
        let h = Harness::quick();
        let evals = h.evaluate_config(&ChipConfig::stock(ProcessorId::Core2DuoE6600.spec()));
        assert_eq!(evals.len(), h.workloads().len());
        for e in &evals {
            assert!(e.perf_norm > 0.0, "{}", e.name());
            assert!(e.energy_norm > 0.0, "{}", e.name());
        }
        // The C2D (65) is a middling reference machine: its normalized
        // performance should sit within a sane band around 1.
        let m = GroupMetrics::aggregate(&evals);
        assert!(m.perf_w > 0.3 && m.perf_w < 4.0, "perf_w = {}", m.perf_w);
        assert!(m.perf_min <= m.perf_max);
        assert!(m.power_min <= m.power_max);
    }

    #[test]
    fn aggregate_weights_groups_equally() {
        // Build synthetic evaluations where one group has many members:
        // Avg_w must weight groups, not benchmarks.
        let h = Harness::quick();
        let evals = h.evaluate_config(&ChipConfig::stock(ProcessorId::Atom230.spec()));
        let m = GroupMetrics::aggregate(&evals);
        let manual = (m.perf[&Group::NativeNonScalable]
            + m.perf[&Group::NativeScalable]
            + m.perf[&Group::JavaNonScalable]
            + m.perf[&Group::JavaScalable])
            / 4.0;
        assert!((m.perf_w - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no evaluations")]
    fn empty_aggregate_panics() {
        let _ = GroupMetrics::aggregate(&[]);
    }

    #[test]
    fn try_evaluate_config_matches_legacy_on_a_clean_harness() {
        let h = Harness::quick();
        let cfg = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
        let report = h.try_evaluate_config(&cfg);
        assert!(report.health.is_clean());
        let resilient: Vec<Evaluation> =
            report.evaluations.into_iter().map(Result::unwrap).collect();
        assert_eq!(resilient, h.evaluate_config(&cfg));
    }

    #[test]
    fn single_workload_path_and_job_cap_are_transparent() {
        let h = Harness::quick();
        let cfg = ChipConfig::stock(ProcessorId::Atom230.spec());
        let cell = h.try_evaluate_config(&cfg);
        // A serial harness (one worker) produces the same bytes: thread
        // count is pure wall-clock, never data.
        let serial = Harness::quick().with_jobs(1);
        assert_eq!(serial.jobs(), Some(1));
        let serial_cell = serial.try_evaluate_config(&cfg);
        for (a, b) in cell.evaluations.iter().zip(&serial_cell.evaluations) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // The supervisor's per-unit path agrees with the cell path.
        let workloads = serial.workloads().to_vec();
        for (i, w) in workloads.iter().enumerate() {
            let (eval, health) = serial.try_evaluate_workload(&cfg, w).unwrap();
            assert_eq!(&eval, cell.evaluations[i].as_ref().unwrap());
            assert!(health.is_clean());
        }
    }

    /// A sink that keeps every cell it is given.
    #[derive(Debug, Default)]
    struct KeepingSink(Mutex<Vec<(String, Vec<Evaluation>)>>);

    impl CellSink for KeepingSink {
        fn record_cell(&self, config: &ChipConfig, evaluations: &[Evaluation]) {
            self.0.lock().push((config.label(), evaluations.to_vec()));
        }
    }

    #[test]
    fn cached_evaluation_reads_what_the_runner_holds_and_never_measures() {
        use lhr_obs::MemoryRecorder;

        let memory = Arc::new(MemoryRecorder::default());
        let sink = Arc::new(KeepingSink::default());
        let h = Harness::quick()
            .with_observer(Obs::recording(memory.clone()))
            .with_cell_sink(sink.clone());
        let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
        let by_name = |name| lhr_workloads::by_name(name).expect("quick-set workload");
        let (jess, mcf) = (by_name("jess"), by_name("mcf"));
        let counter = |name: &str| memory.snapshot().counter(name);

        // A held cell with no reference set yet: nothing to normalize by.
        let _ = h.runner().try_measure(&i7, jess).expect("clean cell");
        assert_eq!(h.cached_evaluation(&i7, jess), None);
        let refs = h.try_reference().expect("clean rigs");
        let measured = counter("runner.measurements");
        assert_eq!(measured, 1 + 4 * h.workloads().len() as u64);
        // An absent cell.
        assert_eq!(h.cached_evaluation(&i7, mcf), None);
        assert_eq!(counter("runner.measurements"), measured, "never measures");
        assert!(sink.0.lock().is_empty());

        // A held cell reads as the flight path evaluates it, and reaches
        // the sink the same way.
        let (want, health) = h.try_evaluate_workload(&i7, jess).expect("held cell");
        assert!(health.is_clean());
        let hits = counter("runner.cache_hits");
        let got = h.cached_evaluation(&i7, jess).expect("held cell");
        assert_eq!(got, want);
        assert_eq!(got, normalize(&refs, want.measurement.clone()));
        assert_eq!(counter("runner.cache_hits"), hits + 1, "one hit counted");
        assert_eq!(counter("runner.measurements"), measured);
        let recorded = sink.0.lock();
        assert_eq!(recorded.len(), 2, "both paths record the cell");
        assert_eq!(recorded[0], recorded[1]);
        assert_eq!(recorded[1], (i7.label(), vec![want]));
    }

    #[test]
    fn cached_evaluation_never_waits_for_a_reference_set_in_progress() {
        use lhr_obs::{Event, Recorder};
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;

        /// Holds the first `runner.measure` it sees once armed until the
        /// test lets it go: the reference set is then mid-computation.
        struct Gate {
            armed: AtomicBool,
            entered: Barrier,
            release: Barrier,
        }

        impl Recorder for Gate {
            fn record(&self, event: &Event<'_>) {
                if event.name == "runner.measure" && self.armed.swap(false, Ordering::SeqCst) {
                    self.entered.wait();
                    self.release.wait();
                }
            }
        }

        let gate = Arc::new(Gate {
            armed: AtomicBool::new(false),
            entered: Barrier::new(2),
            release: Barrier::new(2),
        });
        let h = Arc::new(Harness::quick().with_observer(Obs::recording(gate.clone())));
        let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
        let jess = lhr_workloads::by_name("jess").expect("quick-set workload");
        let _ = h.runner().try_measure(&i7, jess).expect("clean cell");

        gate.armed.store(true, Ordering::SeqCst);
        let computing = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || h.try_reference().map(|_| ()))
        };
        gate.entered.wait();
        let (tx, rx) = mpsc::channel();
        let probe = {
            let (h, i7) = (Arc::clone(&h), i7.clone());
            std::thread::spawn(move || tx.send(h.cached_evaluation(&i7, jess)).ok())
        };
        let answer = rx.recv_timeout(Duration::from_secs(30));
        gate.release.wait();
        computing.join().expect("no panic").expect("clean rigs");
        probe.join().expect("no panic");
        assert_eq!(
            answer,
            Ok(None),
            "answers at once, without the reference set"
        );
        assert!(
            h.cached_evaluation(&i7, jess).is_some(),
            "then reads the held cell"
        );
    }

    #[test]
    fn sweep_survives_a_faulted_machine_and_reports_it() {
        use lhr_sensors::faults::{FaultPlan, Saturation};

        // Clip the C2D's rig so tightly every run flatlines: that cell
        // must fail, every other cell must come through, and the health
        // summary must name the degraded cell.
        let plan = FaultPlan::new(13).with_saturation(Saturation::new(2.49, 2.5));
        let runner = Runner::fast().with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        let names = ["hmmer", "swaptions", "db", "sunflow"];
        let ws: Vec<&'static Workload> = names
            .iter()
            .map(|n| lhr_workloads::by_name(n).expect("subset exists"))
            .collect();
        let h = Harness::new(runner).with_workloads(ws);
        let configs = [
            ChipConfig::stock(ProcessorId::Atom230.spec()),
            ChipConfig::stock(ProcessorId::Core2DuoE6600.spec()),
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
        ];
        let report = h.sweep(&configs);
        assert_eq!(report.health.cells_total, 3);
        // The C2D is one of the four reference machines, so its death
        // poisons the Section 2.6 normalization for every cell: the
        // sweep still completes, with each cell recording the root
        // cause instead of panicking.
        assert_eq!(report.health.cells_degraded, 3);
        assert!(!report.health.is_clean());
        assert!(report.health.failed_measurements > 0);
        assert!(!report.health.degraded.is_empty());
        // Nothing panicked: every cell produced a report.
        assert_eq!(report.cells.len(), 3);
    }

    #[test]
    fn observer_counters_match_the_sweep_health() {
        use lhr_obs::MemoryRecorder;
        use lhr_sensors::faults::{FaultPlan, Saturation};
        use std::sync::Arc;

        let memory = Arc::new(MemoryRecorder::default());
        let plan = FaultPlan::new(13).with_saturation(Saturation::new(2.49, 2.5));
        let runner = Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, plan);
        let names = ["hmmer", "swaptions", "db", "sunflow"];
        let ws: Vec<&'static Workload> = names
            .iter()
            .map(|n| lhr_workloads::by_name(n).expect("subset exists"))
            .collect();
        let h = Harness::new(runner)
            .with_workloads(ws)
            .with_observer(Obs::recording(memory.clone()));
        let configs = [
            ChipConfig::stock(ProcessorId::Atom230.spec()),
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
        ];
        let report = h.sweep(&configs);

        let snap = memory.snapshot();
        assert_eq!(snap.counter("harness.cells"), report.health.cells_total as u64);
        assert_eq!(
            snap.counter("harness.cells_degraded"),
            report.health.cells_degraded as u64
        );
        assert_eq!(snap.counter("sweep.cells"), 2);
        assert_eq!(snap.counter("sweep.worker_panics"), 0);
        assert_eq!(
            snap.counter("runner.failed_measurements"),
            report.health.failed_measurements as u64
        );
        // Each cell was spanned inside the sweep span; wall time nests.
        assert_eq!(snap.spans["harness.cell"].count, 2);
        assert_eq!(snap.spans["harness.sweep"].count, 1);
        assert!(
            snap.spans["harness.sweep"].total_nanos
                >= snap.spans["harness.cell"].total_nanos
        );
        // The degraded cell was named.
        let degraded: Vec<_> = snap
            .marks
            .iter()
            .filter(|m| m.0 == "harness.degraded")
            .collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].1, report.health.degraded[0]);
    }

    #[test]
    fn sweep_survives_a_faulted_non_reference_machine() {
        use lhr_sensors::faults::{FaultPlan, Saturation};

        // Kill a machine that is NOT part of the reference four: only
        // its own cell degrades; the healthy cells report full numbers.
        let plan = FaultPlan::new(13).with_saturation(Saturation::new(2.49, 2.5));
        let runner = Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, plan);
        let names = ["hmmer", "swaptions", "db", "sunflow"];
        let ws: Vec<&'static Workload> = names
            .iter()
            .map(|n| lhr_workloads::by_name(n).expect("subset exists"))
            .collect();
        let h = Harness::new(runner).with_workloads(ws);
        let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
        let configs = [
            ChipConfig::stock(ProcessorId::Atom230.spec()),
            i7.clone(),
            ChipConfig::stock(ProcessorId::Core2DuoE6600.spec()),
        ];
        let report = h.sweep(&configs);
        assert_eq!(report.health.cells_total, 3);
        assert_eq!(report.health.cells_degraded, 1);
        assert_eq!(report.health.degraded, vec![i7.label()]);
        assert!(report.health.render().contains(&i7.label()));
        // The dead cell records per-workload errors but still exists.
        let dead = &report.cells[1];
        assert_eq!(dead.health.failed, 4);
        assert!(dead.metrics().is_none());
        assert!(dead.failures().count() == 4);
        // Healthy cells are complete and aggregatable.
        for cell in [&report.cells[0], &report.cells[2]] {
            assert!(cell.health.is_clean(), "{}: {:?}", cell.label, cell.health);
            assert_eq!(cell.successes().len(), 4);
            assert!(cell.metrics().is_some());
        }
    }
}
