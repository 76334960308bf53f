//! Shared machinery for the table/figure regenerator binaries and the
//! Criterion benches.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! prints the reproduced rows or series (`table1` ... `figure12`), plus
//! `repro_all`, which regenerates everything in one pass and writes the
//! paper-vs-measured record used by EXPERIMENTS.md. All binaries accept
//! `--quick` (12-benchmark subset, 2 invocations) for a fast look; the
//! default runs the full 61-benchmark catalog with a reduced invocation
//! count, and `--paper` uses the exact prescribed 3/5/20 invocations.
//!
//! Every binary also accepts `--trace <path>`: the run's pipeline events
//! (spans, counters, histograms, marks from `lhr-obs`) stream to `path`
//! as JSON lines, and an end-of-run profile summary prints to stdout.
//! Tracing never changes a number in the rendered outputs (see the
//! `zero_perturbation` integration test).
//!
//! Long regenerations run as supervised campaigns (see [`campaign`]):
//! `--journal <path>` arms a crash-safe write-ahead journal of resolved
//! cells, `--resume` replays it so only missing cells re-execute,
//! `--max-cell-seconds <s>` puts a watchdog deadline on each cell,
//! `--jobs <n>` sets the number of workers, and `--abort-after <n>`
//! aborts once `n` cells resolve (the kill half of the kill-and-resume
//! test). None
//! of these change a rendered byte: supervision schedules measurements,
//! it never touches their values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod chaos;
pub mod perfjson;
pub mod queries;
pub mod traceview;

/// The HTTP/1.1 client, re-exported from its home next to the server
/// under the path the end-to-end benchmark imports.
pub use lhr_serve::httpc;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use lhr_obs::{
    JsonLinesRecorder, MemoryRecorder, MetricsSnapshot, Obs, Recorder, Span, SpanStats,
    TimeSeriesConfig, TimeSeriesRecorder,
};

use lhr_core::experiments::{
    figure10_turbo, figure11_history, figure1_scalability, figure2_tdp, figure3_scatter,
    figure4_cmp, figure5_smt, figure6_jvm, figure7_clock, figure8_dieshrink, figure9_uarch,
    pareto, table1, table2, table3, table4,
};
use lhr_core::{configs, Harness, Runner};

/// A command-line flag a regenerator binary accepts: its name, and
/// whether a value follows it.
pub type Flag = (&'static str, bool);

/// `--quick` and `--paper` (see [`Fidelity`]): every regenerator binary
/// takes them.
pub const FIDELITY_FLAGS: &[Flag] = &[("--quick", false), ("--paper", false)];

/// `--trace <path>` (see [`Observability`]).
pub const TRACE_FLAGS: &[Flag] = &[("--trace", true)];

/// The campaign flags (see [`campaign::CampaignOptions`]).
pub const CAMPAIGN_FLAGS: &[Flag] = &[
    ("--journal", true),
    ("--resume", false),
    ("--max-cell-seconds", true),
    ("--jobs", true),
    ("--abort-after", true),
    ("--out-dir", true),
];

/// The first of `args` that is neither one of `flags` nor the value of
/// one that takes a value.
#[must_use]
pub fn unknown_arg<'a>(args: &'a [String], flags: &[&[Flag]]) -> Option<&'a str> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match flags
            .iter()
            .flat_map(|group| group.iter())
            .find(|(name, _)| name == arg)
        {
            Some((_, true)) => {
                args.next();
            }
            Some((_, false)) => {}
            None => return Some(arg),
        }
    }
    None
}

/// Rejects an argument `bin` does not accept: prints it and a usage
/// line listing `flags` to stderr and exits with status 2. A mistyped
/// `--quick` would otherwise run at the slow default fidelity.
pub fn check_args(bin: &str, flags: &[&[Flag]]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = unknown_arg(&args, flags) {
        let usage: String = flags
            .iter()
            .flat_map(|group| group.iter())
            .map(|&(name, value)| {
                if value {
                    format!(" [{name} <value>]")
                } else {
                    format!(" [{name}]")
                }
            })
            .collect();
        eprintln!("{bin}: unknown argument {arg:?}\nusage: {bin}{usage}");
        std::process::exit(2);
    }
}

/// Fidelity level selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// 12-benchmark subset, 2 invocations, shortened traces.
    Quick,
    /// Full catalog, 3 invocations, full traces (the default).
    Standard,
    /// Full catalog, the paper's prescribed 3/5/20 invocations.
    Paper,
}

impl Fidelity {
    /// Parses the process arguments.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Fidelity::Quick
        } else if args.iter().any(|a| a == "--paper") {
            Fidelity::Paper
        } else {
            Fidelity::Standard
        }
    }

    /// Builds the harness for this fidelity.
    #[must_use]
    pub fn harness(self) -> Harness {
        match self {
            Fidelity::Quick => Harness::quick(),
            Fidelity::Standard => Harness::new(Runner::new().with_invocations(3)),
            Fidelity::Paper => Harness::new(Runner::new()),
        }
    }
}

/// The `--trace <path>` argument, if present.
///
/// # Panics
///
/// Panics if `--trace` is the last argument (it needs a path).
#[must_use]
pub fn trace_path_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--trace").map(|i| {
        PathBuf::from(
            args.get(i + 1)
                .expect("--trace requires a path argument")
                .as_str(),
        )
    })
}

/// The observability rig the regenerator binaries arm: an in-memory
/// aggregator (always, for the end-of-run profile summary), a windowed
/// [`TimeSeriesRecorder`] (always, so the live-telemetry aggregation
/// path runs under the zero-perturbation lock too), plus an optional
/// JSON-lines stream when `--trace <path>` is given, fanned out behind
/// one [`Obs`] handle.
///
/// Arming it never changes a rendered number -- the recorders only watch
/// values the pipeline already computed (locked in by the
/// `zero_perturbation` integration test).
pub struct Observability {
    obs: Obs,
    memory: Arc<MemoryRecorder>,
    timeseries: Arc<TimeSeriesRecorder>,
    trace: Option<(PathBuf, Arc<JsonLinesRecorder>)>,
}

impl Observability {
    /// Builds from the process arguments (`--trace <path>`).
    ///
    /// # Panics
    ///
    /// Panics if `--trace` is missing its path or the file cannot be
    /// created.
    #[must_use]
    pub fn from_args() -> Self {
        Self::with_trace_path(trace_path_from_args().as_deref())
    }

    /// Builds with an explicit trace destination (`None` = memory only).
    ///
    /// # Panics
    ///
    /// Panics if the trace file cannot be created.
    #[must_use]
    pub fn with_trace_path(path: Option<&Path>) -> Self {
        let memory = Arc::new(MemoryRecorder::default());
        let timeseries = Arc::new(TimeSeriesRecorder::new(TimeSeriesConfig::serving_default()));
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![
            memory.clone() as Arc<dyn Recorder>,
            timeseries.clone() as Arc<dyn Recorder>,
        ];
        let trace = path.map(|p| {
            let json = Arc::new(
                JsonLinesRecorder::create(p)
                    .unwrap_or_else(|e| panic!("--trace {}: {e}", p.display())),
            );
            sinks.push(json.clone() as Arc<dyn Recorder>);
            (p.to_owned(), json)
        });
        Self {
            obs: Obs::fanout(sinks),
            memory,
            timeseries,
            trace,
        }
    }

    /// Whether a `--trace` stream is armed.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Arms the rig's handle on a harness (see
    /// [`lhr_core::Harness::with_observer`]).
    #[must_use]
    pub fn arm(&self, harness: Harness) -> Harness {
        harness.with_observer(self.obs.clone())
    }

    /// Opens an `experiment.<name>` span; its wall time feeds the
    /// profile summary and the trace stream.
    pub fn experiment_span(&self, name: &str) -> Span {
        self.obs.span(&format!("experiment.{name}"))
    }

    /// A point-in-time copy of the aggregated metrics, with
    /// [`MetricsSnapshot::trace_write_errors`] filled in from the trace
    /// stream (0 when tracing is off).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.memory.snapshot();
        snap.trace_write_errors = self.trace.as_ref().map_or(0, |(_, json)| json.write_errors());
        snap
    }

    /// The windowed time-series view of the same event stream (see
    /// [`TimeSeriesRecorder`]); armed on every run so the serving
    /// layer's aggregation path is exercised by the regenerators too.
    #[must_use]
    pub fn timeseries(&self) -> &Arc<TimeSeriesRecorder> {
        &self.timeseries
    }

    /// Flushes every recorder (drains the trace stream to disk).
    pub fn flush(&self) {
        self.obs.flush();
    }

    /// Flushes and renders the end-of-run profile summary: wall time per
    /// experiment (slowest first), sweep throughput, and the resilience
    /// totals (retries, recalibrations, degraded cells, worker panics).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn profile_summary(&self) -> String {
        use std::fmt::Write as _;

        self.flush();
        let snap = self.snapshot();
        let mut out = String::from("profile summary:\n");
        let mut experiments: Vec<(&str, &SpanStats)> = snap
            .spans
            .iter()
            .filter_map(|(n, s)| n.strip_prefix("experiment.").map(|n| (n, s)))
            .collect();
        experiments.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_nanos));
        let width = experiments.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, s) in &experiments {
            let _ = writeln!(out, "  {name:<width$}  {:>8.2} s", s.total_seconds());
        }
        let cells = snap.counter("harness.cells");
        let cell_secs = snap
            .spans
            .get("harness.cell")
            .map_or(0.0, SpanStats::total_seconds);
        let rate = if cell_secs > 0.0 {
            cells as f64 / cell_secs
        } else {
            0.0
        };
        let _ = writeln!(out, "  cells evaluated   {cells} ({rate:.1} cells/sec)");
        let _ = writeln!(
            out,
            "  measurements      {} ({} served from cache)",
            snap.counter("runner.measurements"),
            snap.counter("runner.cache_hits"),
        );
        let _ = writeln!(out, "  retries           {}", snap.counter("runner.retries"));
        let _ = writeln!(
            out,
            "  recalibrations    {}",
            snap.counter("runner.recalibrations")
        );
        let _ = writeln!(
            out,
            "  degraded cells    {}",
            snap.counter("harness.cells_degraded")
        );
        let _ = writeln!(
            out,
            "  worker panics     {}",
            snap.counter("sweep.worker_panics")
        );
        let _ = writeln!(
            out,
            "  campaign workers  {} spawned",
            snap.counter("campaign.workers_spawned")
        );
        // Flight waits depend on timing: reported, never gated on.
        let _ = writeln!(
            out,
            "  phase values      {} computed, {} flight waits",
            lhr_uarch::phase_values_computed(),
            lhr_uarch::phase_value_waits(),
        );
        let estimator = lhr_uarch::MissRateEstimator::global();
        let _ = writeln!(
            out,
            "  miss-rate estimates {} computed, {} accesses simulated, {} flight waits",
            estimator.estimates_computed(),
            estimator.accesses_simulated(),
            estimator.flight_waits(),
        );
        if let Some((path, json)) = &self.trace {
            let _ = writeln!(
                out,
                "  trace             {} ({} lines, {} write errors)",
                path.display(),
                json.lines_written(),
                json.write_errors(),
            );
        }
        out
    }
}

/// The experiments a regenerator can run, in paper order.
pub const EXPERIMENTS: [&str; 16] = [
    "table1", "table2", "table3", "table4", "table5", "figure1", "figure2", "figure3",
    "figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10", "figure11",
];

/// Runs one experiment by name and returns its rendered output.
///
/// # Panics
///
/// Panics on an unknown experiment name; the binaries validate first.
#[must_use]
pub fn run_experiment(name: &str, harness: &Harness) -> String {
    match name {
        "table1" => table1::render(),
        "table2" => {
            let configs = configs::stock_configs();
            table2::run(harness, &configs).render()
        }
        "table3" => table3::render(),
        "table4" => {
            let t = table4::run(harness);
            format!(
                "{}\npaper vs measured (Avg_w):\n{}",
                t.render(),
                t.render_comparison()
            )
        }
        "table5" | "figure12" => {
            let analysis = pareto::run(harness);
            format!(
                "Table 5 (Pareto-efficient 45nm configurations):\n{}\nFigure 12 frontiers:\n{}",
                analysis.render_table5(),
                analysis.render_figure12()
            )
        }
        "figure1" => figure1_scalability::render(&figure1_scalability::run(harness)),
        "figure2" => figure2_tdp::render(&figure2_tdp::run(harness)),
        "figure3" => figure3_scatter::render(&figure3_scatter::run(harness)),
        "figure4" => figure4_cmp::render(&figure4_cmp::run(harness)),
        "figure5" => figure5_smt::render(&figure5_smt::run(harness)),
        "figure6" => figure6_jvm::render(&figure6_jvm::run(harness)),
        "figure7" => figure7_clock::render(&figure7_clock::run(harness)),
        "figure8" => figure8_dieshrink::render(&figure8_dieshrink::run(harness)),
        "figure9" => figure9_uarch::render(&figure9_uarch::run(harness)),
        "figure10" => figure10_turbo::render(&figure10_turbo::run(harness)),
        "figure11" => figure11_history::render(&figure11_history::run(harness)),
        other => panic!("unknown experiment {other:?}; known: {EXPERIMENTS:?} + figure12"),
    }
}

/// Entry point shared by the thin per-experiment binaries.
///
/// Honors `--quick`/`--paper` for fidelity, `--trace <path>` for a
/// JSON-lines event stream (with the profile summary printed after the
/// experiment's output), and the campaign flags (`--journal`,
/// `--resume`, `--max-cell-seconds`, `--jobs`, `--abort-after`): when a
/// campaign feature is armed, the study grid is measured under the
/// supervisor first -- journaled, deadline-watched, resumable -- and
/// the experiment then renders from the warmed cache.
pub fn main_for(name: &str) {
    check_args(name, &[FIDELITY_FLAGS, TRACE_FLAGS, CAMPAIGN_FLAGS]);
    let fidelity = Fidelity::from_args();
    let observability = Observability::from_args();
    let opts = campaign::CampaignOptions::from_args();
    let prepared = campaign::prepare(fidelity, &observability, &opts);
    if prepared.aborted() {
        println!("{}", observability.profile_summary());
        std::process::exit(campaign::EXIT_ABORTED);
    }
    println!("=== {name} ({fidelity:?}) ===\n");
    let span = observability.experiment_span(name);
    println!("{}", run_experiment(name, &prepared.harness));
    span.end();
    if observability.tracing() {
        println!("{}", observability.profile_summary());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render_without_a_harness_sweep() {
        // table1/table3 need no measurements at all.
        let harness = Harness::quick();
        assert!(run_experiment("table1", &harness).contains("mcf"));
        assert!(run_experiment("table3", &harness).contains("SLBCH"));
    }

    #[test]
    fn unknown_args_are_found_and_flag_values_are_skipped() {
        let args = |list: &[&str]| list.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        let all: &[&[Flag]] = &[FIDELITY_FLAGS, TRACE_FLAGS, CAMPAIGN_FLAGS];
        let ok = args(&["--quick", "--jobs", "2", "--out-dir", "--quik", "--resume"]);
        assert_eq!(unknown_arg(&ok, all), None, "a value is never a flag");
        assert_eq!(unknown_arg(&args(&["--quik"]), all), Some("--quik"));
        assert_eq!(unknown_arg(&args(&["--paper", "fast"]), all), Some("fast"));
        let fidelity_only = args(&["--quick", "--trace", "t.jsonl"]);
        assert_eq!(
            unknown_arg(&fidelity_only, &[FIDELITY_FLAGS]),
            Some("--trace")
        );
        assert_eq!(unknown_arg(&[], &[FIDELITY_FLAGS]), None);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let harness = Harness::quick();
        let _ = run_experiment("figure99", &harness);
    }
}
