//! Machine-readable performance snapshots (`BENCH_*.json`).
//!
//! The criterion suite (`cargo bench -p lhr-bench`) answers "is this
//! change faster?" interactively; this module answers it *mechanically*.
//! [`collect`] runs one fixed workload per pipeline layer under a plain
//! wall-clock timer and renders the result as a small JSON document that
//! is committed per PR (`BENCH_pr7.json`, ...) and diffed in CI: the
//! `perf` job re-measures (`BENCH_ci.json`), [`compare`]s against the
//! committed snapshot, and fails on a >15% cells/sec drift, naming the
//! regressing layer.
//!
//! The first six layers mirror the criterion groups one-to-one so a
//! drift in the JSON can be localized with the interactive suite (see
//! PERF.md):
//!
//! | layer id prefix     | what it times                                  |
//! |---------------------|------------------------------------------------|
//! | `trace_gen`         | workload-descriptor → software-thread traces   |
//! | `interval_core`     | the interval model (`phase_performance`) and one cold miss-rate estimate |
//! | `energy_integration`| per-slice energy metering + waveform append    |
//! | `adc_sensor`        | the validating rig pass: one 10 s run, a batch of three, and a width-3 pass over three Standard-fidelity invocations |
//! | `cell_e2e`          | one uncached `(config, workload)` cell         |
//! | `serve_cache_hit`   | the runner's warm-cache lookup (no server)     |
//! | `obs`               | one SLO observation on the serving default's hour-long ring |
//!
//! Two measurement-store layers ([`collect_store`]) ride along since the
//! store landed: `store_ingest` (the sealed-batch upsert of one sweep's
//! cells, and of one routed cell's row) and `query_scan` (the figure-7
//! shaped `group_by`/`agg`).
//!
//! Allocation counts ride along where countable: the `lhr_perf` binary
//! installs a counting global allocator and registers it through
//! [`set_alloc_probe`]; library users (tests, doctests) simply get
//! `allocs_per_iter: None`.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use lhr_core::Runner;
use lhr_obs::sealed::{json_f64, json_str};
use lhr_obs::{push_json_number, push_json_string, Obs, SloConfig, SloTracker};
use lhr_power::{
    ActivityCounters, EnergyModel, NodeScaling, PowerMeters, PowerWaveform, Structure,
};
use lhr_sensors::MeasurementRig;
use lhr_uarch::{
    phase_performance, ChipConfig, ChipSimulator, Environment, MissRateEstimator, ProcessorId,
};
use lhr_units::{Seconds, Watts};
use lhr_workloads::by_name;

/// Version stamp of the `BENCH_*.json` layout; bumped on breaking
/// changes so [`BenchReport::from_json`] can reject snapshots it does
/// not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// Fractional cells/sec loss at which [`compare`] fails the drift gate
/// (the CI `perf` job's threshold).
pub const DRIFT_FAIL_FRACTION: f64 = 0.15;

/// One layer's timing result.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStat {
    /// Unique layer ID, `<group>/<workload>` (matches the criterion
    /// suite's benchmark IDs).
    pub id: String,
    /// The pipeline layer this measures (one of the six groups).
    pub group: String,
    /// Timed iterations behind the averages.
    pub iters: u64,
    /// Noise-robust nanoseconds per iteration: the fastest batch mean,
    /// where the measurement budget is cut into twenty contiguous
    /// batches (falling back to the overall mean when the budget is too
    /// small to complete one batch). Co-tenant CPU bursts inflate some
    /// batches; the fastest batch estimates the undisturbed cost, which
    /// is what a committed snapshot should record.
    pub ns_per_iter: f64,
    /// Fastest observed iteration, nanoseconds.
    pub min_ns_per_iter: f64,
    /// Heap allocations per iteration, when a probe is installed
    /// (see [`set_alloc_probe`]); `None` otherwise.
    pub allocs_per_iter: Option<f64>,
}

/// A full perf snapshot: the per-layer split plus the two headline
/// numbers the drift gate and the README trajectory table key on.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Snapshot label (`seed`, `pr7`, `ci`, ...).
    pub label: String,
    /// End-to-end throughput: uncached `(config, workload)` cells
    /// resolved per second (from the `cell_e2e` layer).
    pub cells_per_sec: f64,
    /// Mean nanoseconds per interval-model evaluation (from the
    /// `interval_core` layer).
    pub ns_per_interval: f64,
    /// The per-layer split, in pipeline order.
    pub layers: Vec<LayerStat>,
}

impl BenchReport {
    /// Renders the snapshot as the committed `BENCH_*.json` layout: one
    /// top-level object, one line per layer, trailing newline.
    ///
    /// ```
    /// use lhr_bench::perfjson::{BenchReport, LayerStat};
    ///
    /// let report = BenchReport {
    ///     label: "example".into(),
    ///     cells_per_sec: 120.5,
    ///     ns_per_interval: 850.0,
    ///     layers: vec![LayerStat {
    ///         id: "cell_e2e/fast_cell_jess_c2d".into(),
    ///         group: "cell_e2e".into(),
    ///         iters: 30,
    ///         ns_per_iter: 8.3e6,
    ///         min_ns_per_iter: 8.0e6,
    ///         allocs_per_iter: Some(1200.0),
    ///     }],
    /// };
    /// let json = report.to_json();
    /// assert!(json.starts_with("{\n  \"schema\": 1,"));
    /// assert_eq!(BenchReport::from_json(&json).unwrap(), report);
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"schema\": ");
        let _ = write!(out, "{SCHEMA_VERSION}");
        out.push_str(",\n  \"label\": ");
        push_json_string(&mut out, &self.label);
        out.push_str(",\n  \"cells_per_sec\": ");
        push_json_number(&mut out, self.cells_per_sec);
        out.push_str(",\n  \"ns_per_interval\": ");
        push_json_number(&mut out, self.ns_per_interval);
        out.push_str(",\n  \"layers\": [\n");
        for (i, layer) in self.layers.iter().enumerate() {
            out.push_str("    {\"id\": ");
            push_json_string(&mut out, &layer.id);
            out.push_str(", \"group\": ");
            push_json_string(&mut out, &layer.group);
            let _ = write!(out, ", \"iters\": {}", layer.iters);
            out.push_str(", \"ns_per_iter\": ");
            push_json_number(&mut out, layer.ns_per_iter);
            out.push_str(", \"min_ns_per_iter\": ");
            push_json_number(&mut out, layer.min_ns_per_iter);
            if let Some(allocs) = layer.allocs_per_iter {
                out.push_str(", \"allocs_per_iter\": ");
                push_json_number(&mut out, allocs);
            }
            out.push('}');
            if i + 1 < self.layers.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a snapshot previously rendered by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable message when the schema version is missing or
    /// unsupported, a required field is absent, or no layers parse.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let schema = json_f64(text, "schema").ok_or("missing \"schema\" field")?;
        #[allow(clippy::float_cmp)]
        if schema != f64::from(SCHEMA_VERSION) {
            return Err(format!(
                "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let label = json_str(text, "label").ok_or("missing \"label\" field")?;
        let cells_per_sec =
            json_f64(text, "cells_per_sec").ok_or("missing \"cells_per_sec\" field")?;
        let ns_per_interval =
            json_f64(text, "ns_per_interval").ok_or("missing \"ns_per_interval\" field")?;
        let mut layers = Vec::new();
        for line in text.lines() {
            let Some(id) = json_str(line, "id") else {
                continue;
            };
            let stat = LayerStat {
                id,
                group: json_str(line, "group").ok_or("layer missing \"group\"")?,
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                iters: json_f64(line, "iters").ok_or("layer missing \"iters\"")? as u64,
                ns_per_iter: json_f64(line, "ns_per_iter")
                    .ok_or("layer missing \"ns_per_iter\"")?,
                min_ns_per_iter: json_f64(line, "min_ns_per_iter")
                    .ok_or("layer missing \"min_ns_per_iter\"")?,
                allocs_per_iter: json_f64(line, "allocs_per_iter"),
            };
            layers.push(stat);
        }
        if layers.is_empty() {
            return Err("no layers found".into());
        }
        Ok(Self {
            label,
            cells_per_sec,
            ns_per_interval,
            layers,
        })
    }

    /// The layer with the given ID, if present.
    #[must_use]
    pub fn layer(&self, id: &str) -> Option<&LayerStat> {
        self.layers.iter().find(|l| l.id == id)
    }
}

/// The outcome of diffing a fresh measurement against a committed
/// snapshot (the CI drift gate's verdict).
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// `candidate.cells_per_sec / baseline.cells_per_sec` (1.0 = no
    /// change, below 1 = slower).
    pub cells_per_sec_ratio: f64,
    /// Per-layer slowdowns for layers present in both snapshots:
    /// `(layer id, candidate ns / baseline ns)`, worst first.
    pub layer_slowdowns: Vec<(String, f64)>,
    /// The fractional loss limit the verdict used
    /// ([`DRIFT_FAIL_FRACTION`]).
    pub limit: f64,
}

impl Drift {
    /// Whether the gate passes: cells/sec has not dropped by more than
    /// the limit.
    ///
    /// ```
    /// use lhr_bench::perfjson::{compare, BenchReport, LayerStat};
    ///
    /// let layer = |ns: f64| LayerStat {
    ///     id: "cell_e2e/fast_cell_jess_c2d".into(),
    ///     group: "cell_e2e".into(),
    ///     iters: 30,
    ///     ns_per_iter: ns,
    ///     min_ns_per_iter: ns,
    ///     allocs_per_iter: None,
    /// };
    /// let report = |cells: f64, ns: f64| BenchReport {
    ///     label: "x".into(),
    ///     cells_per_sec: cells,
    ///     ns_per_interval: 100.0,
    ///     layers: vec![layer(ns)],
    /// };
    /// let baseline = report(100.0, 1.0e7);
    /// // 10% slower: inside the 15% gate.
    /// assert!(compare(&report(90.0, 1.1e7), &baseline).passed());
    /// // 30% slower: the gate fails and names the layer.
    /// let drift = compare(&report(70.0, 1.4e7), &baseline);
    /// assert!(!drift.passed());
    /// assert!(drift.render().contains("cell_e2e/fast_cell_jess_c2d"));
    /// ```
    #[must_use]
    pub fn passed(&self) -> bool {
        self.cells_per_sec_ratio >= 1.0 - self.limit
    }

    /// The layer that slowed down the most, if any slowed at all.
    #[must_use]
    pub fn worst_layer(&self) -> Option<&(String, f64)> {
        self.layer_slowdowns.first().filter(|(_, s)| *s > 1.0)
    }

    /// Renders the verdict for CI logs: the headline ratio, the named
    /// regressing layer on failure, and the full per-layer table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let delta = (self.cells_per_sec_ratio - 1.0) * 100.0;
        let _ = writeln!(
            out,
            "cells/sec: {delta:+.1}% vs baseline (fail below -{:.0}%)",
            self.limit * 100.0
        );
        if self.passed() {
            out.push_str("drift gate: PASS\n");
        } else {
            out.push_str("drift gate: FAIL");
            if let Some((id, slowdown)) = self.worst_layer() {
                let _ = write!(out, " -- regressing layer: {id} ({slowdown:.2}x slower)");
            }
            out.push('\n');
        }
        for (id, slowdown) in &self.layer_slowdowns {
            let _ = writeln!(out, "  {id:<44} {slowdown:>6.2}x");
        }
        out
    }
}

/// Diffs a fresh measurement against a baseline snapshot.
///
/// The verdict keys on cells/sec (the paper-methodology unit of work);
/// the per-layer slowdowns exist to *name* the regressing layer in the
/// failure message and to localize drift. See [`Drift::passed`] for a
/// worked example.
#[must_use]
pub fn compare(candidate: &BenchReport, baseline: &BenchReport) -> Drift {
    let ratio = if baseline.cells_per_sec > 0.0 {
        candidate.cells_per_sec / baseline.cells_per_sec
    } else {
        1.0
    };
    let mut slowdowns: Vec<(String, f64)> = candidate
        .layers
        .iter()
        .filter_map(|c| {
            let b = baseline.layer(&c.id)?;
            (b.ns_per_iter > 0.0).then(|| (c.id.clone(), c.ns_per_iter / b.ns_per_iter))
        })
        .collect();
    slowdowns.sort_by(|a, b| b.1.total_cmp(&a.1));
    Drift {
        cells_per_sec_ratio: ratio,
        layer_slowdowns: slowdowns,
        limit: DRIFT_FAIL_FRACTION,
    }
}

/// The allocation-count probe: returns a monotonically increasing count
/// of heap allocations in this process. Installed once by binaries that
/// run under a counting allocator (`lhr_perf`); never installed by
/// library users, whose reports simply omit allocation counts.
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers the process-wide allocation-count probe. Later calls are
/// ignored (the first probe wins).
pub fn set_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// The current allocation count, if a probe is installed.
fn alloc_count() -> Option<u64> {
    ALLOC_PROBE.get().map(|probe| probe())
}

/// Timing budgets for the plain-timer harness. The defaults follow the
/// same APAS rules as the criterion suite: 300 ms warm-up and a 1 s
/// measurement target per layer.
#[derive(Debug, Clone, Copy)]
pub struct TimerConfig {
    /// Untimed warm-up budget per layer.
    pub warm_up: Duration,
    /// Measurement budget per layer (a floor, not a cap: at least
    /// [`TimerConfig::min_samples`] iterations always run).
    pub measurement: Duration,
    /// Minimum timed iterations per layer, whatever the budget says.
    pub min_samples: u64,
}

impl Default for TimerConfig {
    fn default() -> Self {
        Self {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            min_samples: 10,
        }
    }
}

impl TimerConfig {
    /// A drastically shortened config for tests and smoke runs.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            warm_up: Duration::from_millis(5),
            measurement: Duration::from_millis(20),
            min_samples: 3,
        }
    }
}

/// Times one layer under the plain timer: warm-up, then iterations
/// until both the measurement budget and the minimum sample count are
/// satisfied.
///
/// The reported `ns_per_iter` is the fastest batch mean over twenty
/// contiguous batches of the measurement budget (see
/// [`LayerStat::ns_per_iter`]): on a shared machine the *mean* of all
/// iterations absorbs every co-tenant burst that lands inside the
/// window, while the fastest batch tracks the code's actual cost. The
/// same estimator runs on both sides of the CI drift gate, so the
/// comparison stays like-for-like.
pub fn time_layer(
    id: &str,
    group: &str,
    cfg: &TimerConfig,
    mut f: impl FnMut(),
) -> LayerStat {
    let warm_start = Instant::now();
    loop {
        f();
        if warm_start.elapsed() >= cfg.warm_up {
            break;
        }
    }
    let batch_target = cfg.measurement.as_nanos() as f64 / 20.0;
    let allocs_before = alloc_count();
    let start = Instant::now();
    let mut iters = 0u64;
    let mut total_ns = 0.0f64;
    let mut min_ns = f64::INFINITY;
    let mut batch_ns = 0.0f64;
    let mut batch_iters = 0u64;
    let mut best_batch = f64::INFINITY;
    loop {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as f64;
        iters += 1;
        total_ns += ns;
        min_ns = min_ns.min(ns);
        batch_ns += ns;
        batch_iters += 1;
        if batch_ns >= batch_target {
            best_batch = best_batch.min(batch_ns / batch_iters as f64);
            batch_ns = 0.0;
            batch_iters = 0;
        }
        if iters >= cfg.min_samples && start.elapsed() >= cfg.measurement {
            break;
        }
    }
    let allocs_per_iter = match (allocs_before, alloc_count()) {
        (Some(a0), Some(a1)) => Some((a1 - a0) as f64 / iters as f64),
        _ => None,
    };
    let ns_per_iter = if best_batch.is_finite() {
        best_batch
    } else {
        total_ns / iters as f64
    };
    LayerStat {
        id: id.to_owned(),
        group: group.to_owned(),
        iters,
        ns_per_iter,
        min_ns_per_iter: min_ns,
        allocs_per_iter,
    }
}

/// Runs all six layers and assembles the snapshot.
///
/// The layer workloads are fixed and deterministic (same benchmarks,
/// same seeds, same sizes every run) so two snapshots differ only by
/// machine and code, never by input.
#[must_use]
#[allow(clippy::missing_panics_doc)] // catalog lookups of known names
pub fn collect(label: &str, cfg: &TimerConfig) -> BenchReport {
    let mut layers = Vec::with_capacity(10);

    // trace-gen: workload descriptor -> placed software threads, the
    // front of the pipeline (trace clones + VM service synthesis).
    {
        let xalan = by_name("xalan").expect("catalog workload");
        layers.push(time_layer(
            "trace_gen/xalan_software_threads",
            "trace_gen",
            cfg,
            || {
                std::hint::black_box(xalan.software_threads(8));
            },
        ));
    }

    // interval core: the analytical model itself, across the phase and
    // environment diversity one chip sweep sees.
    let interval = {
        let spec = ProcessorId::CoreI7_920.spec();
        let jess = by_name("jess").expect("catalog workload");
        let phases = jess.trace().phases().to_vec();
        let estimator = MissRateEstimator::global();
        let base = Environment::solo(spec, spec.base_clock);
        let envs: Vec<Environment> = (0..8u32)
            .map(|i| Environment {
                private_cache_share: if i % 2 == 0 { 1.0 } else { spec.core.smt_cache_share },
                llc_bytes_eff: spec.mem.last_level_bytes() / (1 + i as u64 % 4),
                displacement: 1.0 + 0.2 * f64::from(i % 3),
                ..base
            })
            .collect();
        let evals = (phases.len() * envs.len()) as f64;
        let stat = time_layer("interval_core/jess_phase_sweep", "interval_core", cfg, || {
            for phase in &phases {
                for env in &envs {
                    std::hint::black_box(phase_performance(spec, phase, env, estimator));
                }
            }
        });
        let ns_per_interval = stat.ns_per_iter / evals;
        layers.push(stat);
        ns_per_interval
    };

    // cold miss rate: one sampled estimate on a fresh estimator, the
    // cost a cold process pays for each new (locality, capacity) pair --
    // jess's first phase at the largest unscaled array (256 KiB).
    {
        let jess = by_name("jess").expect("catalog workload");
        let locality = *jess.trace().phases()[0].locality();
        layers.push(time_layer("interval_core/cold_miss_rate", "interval_core", cfg, || {
            std::hint::black_box(MissRateEstimator::new().global_miss_rate(&locality, 256 << 10));
        }));
    }

    // energy integration: per-slice activity metering and waveform
    // append, the simulator's inner accounting step.
    {
        let spec = ProcessorId::CoreI7_920.spec();
        let model = EnergyModel::new(spec.power.events, NodeScaling::default());
        let node = spec.node;
        let v = spec.voltage_at(spec.base_clock);
        let slice = Seconds::new(1e-3);
        layers.push(time_layer(
            "energy_integration/i7_slice_metering",
            "energy_integration",
            cfg,
            || {
                let mut meters = PowerMeters::new();
                let mut waveform = PowerWaveform::new(slice);
                for k in 0..256u64 {
                    let core = ActivityCounters {
                        instructions: 1_000 + k,
                        int_ops: 600,
                        fp_ops: 50,
                        l1_accesses: 400,
                        l2_accesses: 40,
                        branches: 180,
                        branch_flushes: 9,
                        tlb_misses: 2,
                        ..ActivityCounters::default()
                    };
                    let llc = ActivityCounters {
                        llc_accesses: 30 + k % 7,
                        ..ActivityCounters::default()
                    };
                    let dram = ActivityCounters {
                        dram_accesses: 10 + k % 5,
                        ..ActivityCounters::default()
                    };
                    let e_core = model.dynamic_energy_with_activity(&core, node, v, 0.9);
                    let e_llc = model.dynamic_energy_with_activity(&llc, node, v, 0.9);
                    let e_dram = model.dynamic_energy_with_activity(&dram, node, v, 0.9);
                    meters.add(Structure::Core(0), e_core);
                    meters.add(Structure::Llc, e_llc);
                    meters.add(Structure::MemoryInterface, e_dram);
                    waveform.push((e_core + e_llc + e_dram) / slice);
                }
                std::hint::black_box((meters.total_energy(), waveform.average_power()));
            },
        ));
    }

    // ADC/sensor path: a 10 s run through the validating rig call (the
    // width-1 streaming pass: 50 Hz logger, Hall sensor, ADC, per-code
    // calibration table, quality audit), then three such runs in one
    // width-3 pass -- a Standard-fidelity cell's batch.
    {
        let mut rig = MeasurementRig::for_max_power(Watts::new(65.0), 42).expect("rig calibrates");
        let waveforms: Vec<PowerWaveform> = (0..3u32)
            .map(|j| {
                let mut waveform = PowerWaveform::new(Seconds::from_ms(20.0));
                for i in 0..500u32 {
                    waveform.push(Watts::new(26.0 + 6.0 * f64::from((i + j) % 8)));
                }
                waveform
            })
            .collect();
        layers.push(time_layer("adc_sensor/rig_measure_10s", "adc_sensor", cfg, || {
            std::hint::black_box(rig.try_measure(&waveforms[0], 1).expect("clean rig accepts"));
        }));
        let batch: Vec<&PowerWaveform> = waveforms.iter().collect();
        layers.push(time_layer("adc_sensor/rig_batch3_10s", "adc_sensor", cfg, || {
            std::hint::black_box(rig.measure_batch(&batch));
        }));
        // Three Standard-fidelity invocations of one cell on its
        // machine's rig, read in one width-3 pass: the rig's part of a
        // `cells_cold` cell, where a 10 s run's 500 samples hide the
        // per-sample cost.
        let spec = ProcessorId::Core2DuoE6600.spec();
        let config = ChipConfig::stock(spec);
        let hmmer = by_name("hmmer").expect("catalog workload");
        let standard: Vec<PowerWaveform> = (0..3u64)
            .map(|seed| ChipSimulator::new().run(&config, hmmer, seed).waveform)
            .collect();
        let rig = MeasurementRig::for_max_power(
            Watts::new(spec.power.tdp_w),
            0x0d1e_5ee0 ^ spec.id as u64,
        )
        .expect("rig calibrates");
        let batch: Vec<&PowerWaveform> = standard.iter().collect();
        layers.push(time_layer(
            "adc_sensor/rig_batch3_standard",
            "adc_sensor",
            cfg,
            || {
                std::hint::black_box(rig.measure_batch(&batch));
            },
        ));
    }

    // end-to-end cell: one uncached (configuration, workload) cell on a
    // fresh fast runner -- the unit every campaign and endpoint pays.
    let cells_per_sec = {
        let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
        let jess = by_name("jess").expect("catalog workload");
        let stat = time_layer("cell_e2e/fast_cell_jess_c2d", "cell_e2e", cfg, || {
            let runner = Runner::fast();
            std::hint::black_box(runner.try_measure(&config, jess).expect("clean cell"));
        });
        let cells_per_sec = 1e9 / stat.ns_per_iter;
        layers.push(stat);
        cells_per_sec
    };

    // serve cache-hit: the warm path a serving layer rides on repeats.
    {
        let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
        let jess = by_name("jess").expect("catalog workload");
        let runner = Runner::fast();
        let _ = runner.try_measure(&config, jess).expect("warm the cell");
        layers.push(time_layer(
            "serve_cache_hit/warm_cell_jess_c2d",
            "serve_cache_hit",
            cfg,
            || {
                std::hint::black_box(runner.try_measure(&config, jess).expect("cache hit"));
            },
        ));
    }

    // observation: one SLO observation on a serving-default tracker whose
    // ring holds an hour of per-second traffic -- the monitor's own cost,
    // paid by every request the server and the router answer.
    {
        const HOUR: u64 = 3600;
        let slo = SloTracker::new(SloConfig::default());
        let obs = Obs::none();
        for second in 0..HOUR {
            for i in 0..8 {
                slo.observe_at(second, i == 0 && second % 100 == 0, 0.001, &obs);
            }
        }
        layers.push(time_layer(
            "obs/slo_observe_serving_default",
            "obs",
            cfg,
            || {
                std::hint::black_box(slo.observe_at(HOUR - 1, false, 0.001, &obs));
            },
        ));
    }

    BenchReport {
        label: label.to_owned(),
        cells_per_sec,
        ns_per_interval: interval,
        layers,
    }
}

/// The serving-tier HTTP layers: warm-cell request latency straight to
/// one `lhr_serve` backend, through an `lhr_router` with its response
/// cache armed (the 2x-of-direct bound on the router hop lives in these
/// two numbers), and through a cache-off router that genuinely forwards
/// every request.
///
/// Spawns the real release binaries over loopback TCP; returns an empty
/// vec when they are not built (library tests, doctests), so [`compare`]
/// -- which only diffs layers present in both snapshots -- still gates
/// older snapshots cleanly.
#[must_use]
pub fn collect_serving(cfg: &TimerConfig) -> Vec<LayerStat> {
    use crate::chaos::{locate_binary, ServerProc};
    use lhr_serve::httpc;

    let (Ok(serve_bin), Ok(router_bin)) = (
        locate_binary("lhr_serve", "LHR_SERVE_BIN"),
        locate_binary("lhr_router", "LHR_ROUTER_BIN"),
    ) else {
        return Vec::new();
    };
    const TARGET: &str = "/v1/cell?chip=i7-45&workload=jess";
    const TIMEOUT: Duration = Duration::from_secs(120);
    let campaign_dir = std::env::temp_dir().join(format!("lhr-perf-serve-{}", std::process::id()));
    let campaign_dir = campaign_dir.to_string_lossy().into_owned();
    let fetch = |addr: std::net::SocketAddr| {
        let resp = httpc::get(addr, TARGET, TIMEOUT).expect("serving layer reachable");
        assert_eq!(resp.status, 200, "warm cell must serve: {}", resp.body_str());
        std::hint::black_box(resp.body.len());
    };

    let mut layers = Vec::with_capacity(3);
    let backend = ServerProc::spawn(
        &serve_bin,
        &["--addr", "127.0.0.1:0", "--jobs", "2", "--campaign-dir", &campaign_dir],
    )
    .expect("spawn perf backend");
    let backend_addr = backend.addr();
    fetch(backend_addr); // pay the one cold simulation up front

    // Direct: one full connect + request + warm-cache response against
    // the backend -- the baseline the router hop is measured against.
    layers.push(time_layer(
        "serve_http_warm/direct_cell_jess_i7",
        "serve_http_warm",
        cfg,
        || fetch(backend_addr),
    ));

    // Routed, cache armed: after the first pass the router answers 200s
    // from its own bounded FIFO cache, so this times the pure hop.
    {
        let router = ServerProc::spawn(
            &router_bin,
            &[
                "--addr",
                "127.0.0.1:0",
                "--backends",
                &backend_addr.to_string(),
                "--probe-interval-ms",
                "50",
                "--no-local-fallback",
            ],
        )
        .expect("spawn perf router");
        let addr = router.addr();
        fetch(addr); // populates the route cache
        layers.push(time_layer(
            "route_http_warm/router_cached_cell",
            "route_http_warm",
            cfg,
            || fetch(addr),
        ));
        let _ = router.drain();
    }

    // Routed, cache off: every request genuinely forwards (shard-key,
    // candidate walk, backend exchange) -- the failover path's cost.
    {
        let router = ServerProc::spawn(
            &router_bin,
            &[
                "--addr",
                "127.0.0.1:0",
                "--backends",
                &backend_addr.to_string(),
                "--route-cache",
                "0",
                "--probe-interval-ms",
                "50",
                "--no-local-fallback",
            ],
        )
        .expect("spawn perf forwarding router");
        let addr = router.addr();
        fetch(addr);
        layers.push(time_layer(
            "route_http_forward/router_forwarded_cell",
            "route_http_forward",
            cfg,
            || fetch(addr),
        ));
        let _ = router.drain();
    }
    let _ = backend.drain();
    layers
}

/// The measurement-store layers: sealed-batch ingest (`store_ingest`:
/// one 61-row upsert per iteration with every row changed, so the
/// supersede path and the batch's one log line and fsync are both paid;
/// then one single-row upsert per iteration with a never-seen config
/// fingerprint, the upsert every routed cell pays) and the query
/// engine's scan (`query_scan`, the figure-7 shaped `group_by`/`agg`
/// over a ~500-row store, pure in-memory).
///
/// # Panics
///
/// Panics when the scratch store cannot be created under the system
/// temp directory (perf runs assume a writable temp).
#[must_use]
pub fn collect_store(cfg: &TimerConfig) -> Vec<LayerStat> {
    use lhr_store::{CellRow, Store};

    let mk_row = |chip: usize, wl: usize, bump: f64| {
        let perf = 0.5 + 0.01 * (chip * 61 + wl) as f64;
        let watts = 5.0 + chip as f64 * 7.0 + bump;
        CellRow {
            chip: format!("chip-{chip}"),
            config: format!("chip-{chip} stock"),
            workload: format!("wl-{wl}"),
            group: ["Native Non-scalable", "Java Scalable"][wl % 2].to_owned(),
            config_fp: format!("{chip:016x}"),
            workload_fp: format!("{wl:016x}"),
            node: 45.0,
            cores: 4.0,
            smt: (chip % 2) as f64,
            clock: 2.66,
            turbo: 0.0,
            managed: (wl % 2) as f64,
            seconds: 10.0 / perf,
            watts,
            joules: watts * 10.0 / perf,
            perf_norm: perf,
            energy_norm: watts / perf,
            epi: watts / (perf * 1e9),
        }
    };

    let dir = std::env::temp_dir().join(format!("lhr-perf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut layers = Vec::with_capacity(3);

    // Ingest: one sweep-sized batch, mutated every iteration so each
    // upsert genuinely writes (one sealed log line + one fsync). Then a
    // routed cell's upsert into the store that now holds rows: one row
    // whose config label and fingerprint are new dictionary strings.
    {
        let store = Store::open(&dir).expect("scratch store");
        let mut pass = 0.0f64;
        layers.push(time_layer("store_ingest/upsert_61_cells", "store_ingest", cfg, || {
            pass += 1e-6;
            let rows: Vec<CellRow> = (0..61).map(|wl| mk_row(0, wl, pass)).collect();
            std::hint::black_box(store.upsert(&rows).expect("upsert"));
        }));
        let mut fresh = 0u64;
        layers.push(time_layer("store_ingest/upsert_1row", "store_ingest", cfg, || {
            fresh += 1;
            let mut row = mk_row(1, 0, 0.0);
            row.config = format!("chip-1 routed #{fresh}");
            row.config_fp = format!("{:016x}", 1u64 << 32 | fresh);
            std::hint::black_box(store.upsert(std::slice::from_ref(&row)).expect("upsert"));
        }));
    }

    // Scan: the figure-7 shaped aggregation over an 8-chip x 61-workload
    // store (the query every stored figure pays).
    {
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("scratch store");
        let rows: Vec<CellRow> = (0..8)
            .flat_map(|chip| (0..61).map(move |wl| mk_row(chip, wl, 0.0)))
            .collect();
        store.upsert(&rows).expect("seed scan store");
        const Q: &str =
            "filter turbo == 0 | group_by chip, clock, group | agg mean(perf_norm), mean(watts), mean(energy_norm)";
        layers.push(time_layer("query_scan/figure7_group_agg", "query_scan", cfg, || {
            std::hint::black_box(store.query(Q).expect("scan query"));
        }));
    }

    let _ = std::fs::remove_dir_all(&dir);
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            label: "test".into(),
            cells_per_sec: 42.5,
            ns_per_interval: 913.25,
            layers: vec![
                LayerStat {
                    id: "trace_gen/xalan_software_threads".into(),
                    group: "trace_gen".into(),
                    iters: 100,
                    ns_per_iter: 1234.5,
                    min_ns_per_iter: 1200.0,
                    allocs_per_iter: Some(17.0),
                },
                LayerStat {
                    id: "cell_e2e/fast_cell_jess_c2d".into(),
                    group: "cell_e2e".into(),
                    iters: 12,
                    ns_per_iter: 2.35e7,
                    min_ns_per_iter: 2.3e7,
                    allocs_per_iter: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn round_trip_preserves_float_bits() {
        // The shortest-round-trip formatter must reproduce exact bits,
        // the same property the campaign journal relies on.
        let mut report = sample_report();
        report.cells_per_sec = 0.1 + 0.2; // a classic non-representable sum
        report.layers[0].ns_per_iter = 1.0 / 3.0;
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(
            parsed.cells_per_sec.to_bits(),
            report.cells_per_sec.to_bits()
        );
        assert_eq!(
            parsed.layers[0].ns_per_iter.to_bits(),
            report.layers[0].ns_per_iter.to_bits()
        );
    }

    #[test]
    fn missing_allocs_stays_missing() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.layers[0].allocs_per_iter, Some(17.0));
        assert_eq!(parsed.layers[1].allocs_per_iter, None);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample_report().to_json().replace(
            "\"schema\": 1",
            "\"schema\": 99",
        );
        let err = BenchReport::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn drift_gate_passes_small_and_fails_large_regressions() {
        let base = sample_report();
        let mut ok = base.clone();
        ok.cells_per_sec = base.cells_per_sec * 0.90;
        assert!(compare(&ok, &base).passed(), "10% loss is inside the gate");
        let mut bad = base.clone();
        bad.cells_per_sec = base.cells_per_sec * 0.80;
        bad.layers[1].ns_per_iter *= 1.30;
        let drift = compare(&bad, &base);
        assert!(!drift.passed(), "20% loss must fail");
        let (worst, slowdown) = drift.worst_layer().expect("a layer regressed");
        assert_eq!(worst, "cell_e2e/fast_cell_jess_c2d");
        assert!((slowdown - 1.30).abs() < 1e-9);
        assert!(drift.render().contains("regressing layer"));
    }

    #[test]
    fn drift_gate_celebrates_speedups() {
        let base = sample_report();
        let mut fast = base.clone();
        fast.cells_per_sec *= 5.0;
        let drift = compare(&fast, &base);
        assert!(drift.passed());
        assert!(drift.worst_layer().is_none(), "nothing slowed down");
    }

    #[test]
    fn timer_respects_minimum_samples() {
        let cfg = TimerConfig::smoke();
        let mut calls = 0u64;
        let stat = time_layer("t/x", "t", &cfg, || calls += 1);
        assert!(stat.iters >= cfg.min_samples);
        assert!(calls >= stat.iters, "warm-up runs extra calls");
        assert!(stat.min_ns_per_iter <= stat.ns_per_iter);
        assert_eq!(stat.allocs_per_iter, None, "no probe in unit tests");
    }

    #[test]
    fn fastest_batch_suppresses_one_off_stalls() {
        let calm = TimerConfig {
            warm_up: Duration::from_millis(1),
            measurement: Duration::from_millis(100),
            min_samples: 3,
        };
        let spin = || {
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_micros(2) {
                std::hint::spin_loop();
            }
        };
        // Each call spins ~2 us. The stalled run's window is 300 ms, and
        // 30 ms in one call stalls 200 ms, the shape of a co-tenant CPU
        // burst: a plain mean over the window would read about 3x the
        // undisturbed run of the same closure on the same host. The
        // fastest-batch estimator must stay near that run. Batches on
        // both sides of the stall keep a burst of other work on the host
        // (such as the tests beside this one) from inflating them all.
        let undisturbed = time_layer("t/calm", "t", &calm, spin);
        let cfg = TimerConfig {
            measurement: Duration::from_millis(300),
            ..calm
        };
        let started = Instant::now();
        let mut stalled = false;
        let stat = time_layer("t/stall", "t", &cfg, || {
            if !stalled && started.elapsed() > Duration::from_millis(30) {
                stalled = true;
                std::thread::sleep(Duration::from_millis(200));
            }
            spin();
        });
        assert!(stalled, "the stall must land inside the measurement");
        assert!(
            stat.ns_per_iter < 1.5 * undisturbed.ns_per_iter,
            "fastest batch should shed the stall: {} ns against {} ns undisturbed",
            stat.ns_per_iter,
            undisturbed.ns_per_iter
        );
        assert!(stat.min_ns_per_iter <= stat.ns_per_iter);
    }

    #[test]
    fn collect_smoke_produces_all_six_layers() {
        let report = collect("smoke", &TimerConfig::smoke());
        let groups: Vec<&str> = report.layers.iter().map(|l| l.group.as_str()).collect();
        assert_eq!(
            groups,
            [
                "trace_gen",
                "interval_core",
                "interval_core",
                "energy_integration",
                "adc_sensor",
                "adc_sensor",
                "adc_sensor",
                "cell_e2e",
                "serve_cache_hit",
                "obs"
            ]
        );
        assert!(report.cells_per_sec > 0.0);
        assert!(report.ns_per_interval > 0.0);
        let round = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(round, report);
        let store: Vec<String> = collect_store(&TimerConfig::smoke())
            .into_iter()
            .map(|l| l.id)
            .collect();
        assert_eq!(
            store,
            [
                "store_ingest/upsert_61_cells",
                "store_ingest/upsert_1row",
                "query_scan/figure7_group_agg"
            ]
        );
    }
}
