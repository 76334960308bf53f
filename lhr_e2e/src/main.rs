//! `lhr_e2e`: the end-to-end benchmark of the lhr reproduction.
//!
//! ```text
//! bash lhr_e2e/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                     [--out FILE] [--traced DIR]
//! bash lhr_e2e/run.sh --compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! Runs one workload (or, without `--workload`, all four in turn),
//! checks every output it can against an oracle, prints each metric by
//! name with its unit and sample count, and ends with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` (or
//! `--traced DIR`, which also writes the spans there as JSON lines) the
//! per-layer ones. `--out FILE` appends each workload's full record to
//! FILE, and `--compare` judges two such files against the bounds in
//! `BENCHMARK.json`. See README.md for the workloads and metrics.
//!
//! The benchmark times calls into the repository's public functions and
//! its release binaries from outside; it adds no code to them.

mod cells;
mod compare;
mod gen;
mod json;
mod layers;
mod loadgen;
mod procs;
mod report;
mod repro;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use report::{Metric, Outcome};
use spans::Spans;

/// The workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 4] = ["repro_quick", "cells_cold", "serve_hot", "routed_cold"];

/// Default length of a workload's timed phase (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Everything a workload run needs.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    pub spans: Spans,
    /// This executable, for child processes.
    pub exe: PathBuf,
    /// Where `lhr_serve` and `lhr_router` were built.
    pub bin_dir: PathBuf,
    /// Scratch directory of this run, removed at the end.
    pub work: PathBuf,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    pub attempted: u64,
    /// Failed, refused or incorrect operations.
    pub failed: u64,
    pub setup_s: Vec<f64>,
    /// Latencies of successful operations.
    pub latency_ms: Vec<f64>,
    pub throughput_per_s: f64,
    pub peak_rss_kb: f64,
    /// Operations completed in the timed phase, the base of per-op
    /// layer counts.
    pub ops: u64,
    /// Total time operations were in flight, nanoseconds.
    pub op_ns: f64,
    /// Workload-specific per-layer metrics: name, value, samples.
    pub layers: Vec<(String, f64, u64)>,
    /// Rows the run's store would hold; sizes the store replay.
    pub store_rows: usize,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    traced: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    bounds: PathBuf,
    child: Option<String>,
    dir: Option<PathBuf>,
    rows: usize,
    setup_only: bool,
}

fn usage() -> &'static str {
    "usage: lhr_e2e [--workload repro_quick|cells_cold|serve_hot|routed_cold] [--seed S] \
     [--seconds N] [--trace 0|1] [--out FILE] [--traced DIR]\n       \
     lhr_e2e --compare A.jsonl B.jsonl [--bounds BENCHMARK.json]"
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        traced: None,
        compare: None,
        bounds: PathBuf::from("BENCHMARK.json"),
        child: None,
        dir: None,
        rows: 0,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        let number = |name: &str, v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{name}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workloads.push(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                a.seed = v.parse().map_err(|_| format!("--seed: bad seed {v:?}"))?;
            }
            "--seconds" => {
                a.seconds = number("--seconds", value("--seconds")?)?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            "--traced" => a.traced = Some(PathBuf::from(value("--traced")?)),
            "--compare" => {
                let first = PathBuf::from(value("--compare")?);
                a.compare = Some((first, PathBuf::from(value("--compare")?)));
            }
            "--bounds" => a.bounds = PathBuf::from(value("--bounds")?),
            "--child" => a.child = Some(value("--child")?),
            "--dir" => a.dir = Some(PathBuf::from(value("--dir")?)),
            "--rows" => a.rows = number("--rows", value("--rows")?)? as usize,
            "--setup-only" => a.setup_only = true,
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if a.traced.is_some() {
        a.trace = true;
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|w| (*w).to_owned()).collect();
    }
    Ok(a)
}

/// Child-process entry points (the benchmark re-executes itself).
fn run_child(kind: &str, a: &Args) -> Result<(), String> {
    let dir = || {
        a.dir
            .clone()
            .ok_or_else(|| "--child needs --dir".to_owned())
    };
    match kind {
        "repro" => repro::child(&dir()?, a.trace),
        "cells" => cells::child(a.seed, a.seconds, a.trace, a.setup_only),
        "layers" => layers::child(&a.workloads[0], a.seed, a.rows, &dir()?),
        other => Err(format!("unknown child {other:?}")),
    }
}

fn e2e_metrics(m: &Measured) -> Result<Vec<Metric>, String> {
    let lat = stats::sorted(&m.latency_ms);
    if lat.is_empty() || m.setup_s.is_empty() {
        return Err("no successful operation to report".to_owned());
    }
    // In `report::E2E` order.
    let values = [
        (stats::median(&m.setup_s), m.setup_s.len()),
        (m.throughput_per_s, m.attempted as usize),
        (stats::percentile(&lat, 500), lat.len()),
        (stats::percentile(&lat, 900), lat.len()),
        (m.peak_rss_kb / 1024.0, 1),
    ];
    Ok(report::E2E
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            samples: samples as u64,
        })
        .collect())
}

/// Nanoseconds to record one span, clock reads included.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let probe = Spans::new(true);
    let t = Instant::now();
    for _ in 0..N {
        let a = Instant::now();
        probe.record(0, "bench.request", a, Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Runs the layer replay child and assembles every per-layer metric.
fn layer_metrics(ctx: &Ctx, workload: &str, m: &Measured) -> Result<Vec<Metric>, String> {
    let timed_spans = ctx.spans.len() as f64;
    let per_span = span_cost_ns();
    let mut cmd = Command::new(&ctx.exe);
    cmd.args(["--child", "layers", "--workload", workload]);
    cmd.args(["--seed", &ctx.seed.to_string()]);
    cmd.args(["--rows", &m.store_rows.to_string()]);
    cmd.arg("--dir").arg(ctx.work.join("replay-store"));
    let mut child = procs::Child::spawn(cmd)?;
    let started = child.started;
    let mut lines = Vec::new();
    while let Some(line) = child.line()? {
        lines.push(line);
    }
    let status = child.wait()?;
    if !status.success() {
        return Err(format!("layer replay failed ({status})"));
    }
    let replay = layers::Report::parse(&lines)?;
    let op = ctx
        .spans
        .record(0, "bench.layer_replay", started, Instant::now());
    ctx.spans.adopt(replay.spans, op, started);

    let ops = m.ops.max(1);
    let mut values: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let own = [
        ("obs.spans".to_owned(), timed_spans, ops),
        ("obs.spans_per_op".to_owned(), timed_spans / ops as f64, ops),
        (
            "obs.trace_overhead_frac".to_owned(),
            timed_spans * per_span / m.op_ns.max(1.0),
            timed_spans as u64,
        ),
    ];
    for (name, value, samples) in m.layers.iter().cloned().chain(replay.metrics).chain(own) {
        values.insert(name, (value, samples));
    }
    let catalog = report::per_layer();
    if let Some(stray) = values
        .keys()
        .find(|k| !catalog.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("layer metric {stray:?} is not in the catalog"));
    }
    Ok(catalog
        .into_iter()
        .map(|(name, unit)| {
            // A layer the workload does not exercise reads 0 with no
            // samples.
            let (value, samples) = values.get(&name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                unit: unit.to_owned(),
                value,
                samples,
            }
        })
        .collect())
}

fn run_workload(name: &str, a: &Args) -> Result<(Outcome, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let bin_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_owned();
    if name == "serve_hot" || name == "routed_cold" {
        for bin in ["lhr_serve", "lhr_router"] {
            if !bin_dir.join(bin).exists() {
                return Err(format!(
                    "{bin} is not built next to {}; run through lhr_e2e/run.sh",
                    exe.display()
                ));
            }
        }
    }
    let work = bin_dir
        .parent()
        .unwrap_or(&bin_dir)
        .join("lhr_e2e-work")
        .join(format!("{}-{name}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: a.seed,
        seconds: Duration::from_secs_f64(a.seconds),
        spans: Spans::new(a.trace),
        exe,
        bin_dir,
        work,
    };
    let result = measure(name, &ctx, a);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let (outcome, notes) = result?;
    if let Some(dir) = &a.traced {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{name}.spans.jsonl"));
        spans::write_jsonl(&path, &ctx.spans.snapshot())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok((outcome, notes))
}

fn measure(name: &str, ctx: &Ctx, a: &Args) -> Result<(Outcome, Vec<String>), String> {
    let m = match name {
        "repro_quick" => repro::run(ctx)?,
        "cells_cold" => cells::run(ctx)?,
        "serve_hot" => serving::run_hot(ctx)?,
        "routed_cold" => serving::run_routed(ctx)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let metrics = if a.trace {
        layer_metrics(ctx, name, &m)?
    } else {
        e2e_metrics(&m)?
    };
    let mut notes = m.notes.clone();
    if let Some(pm) = stats::tail_percentile(m.latency_ms.len()) {
        let lat = stats::sorted(&m.latency_ms);
        notes.push(format!(
            "latency: p50 {:.4} ms, p{} {:.4} ms (highest percentile with >= 10 of {} samples beyond)",
            stats::percentile(&lat, 500),
            f64::from(pm) / 10.0,
            stats::percentile(&lat, pm),
            lat.len()
        ));
    }
    Ok((
        Outcome {
            workload: name.to_owned(),
            seed: a.seed,
            trace: a.trace,
            correct: m.failed == 0,
            attempted: m.attempted,
            failed: m.failed,
            metrics,
        },
        notes,
    ))
}

/// One record summing several workloads, metric names prefixed with
/// their workload.
fn combined(outcomes: &[Outcome]) -> Outcome {
    Outcome {
        workload: "all".to_owned(),
        seed: outcomes.first().map_or(0, |o| o.seed),
        trace: outcomes.first().is_some_and(|o| o.trace),
        correct: outcomes.iter().all(|o| o.correct),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        metrics: outcomes
            .iter()
            .flat_map(|o| {
                o.metrics.iter().map(move |m| Metric {
                    name: format!("{}.{}", o.workload, m.name),
                    ..m.clone()
                })
            })
            .collect(),
    }
}

fn append_record(path: &Path, o: &Outcome) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{}", o.to_record()).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    if let Some(kind) = &a.child {
        run_child(kind, a)?;
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((x, y)) = &a.compare {
        let (text, ok) = compare::compare(x, y, &a.bounds)?;
        print!("{text}");
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let mut outcomes = Vec::new();
    for w in &a.workloads {
        let (outcome, notes) = run_workload(w, a)?;
        print!("{}", outcome.render());
        for n in notes {
            println!("  {n}");
        }
        if let Some(path) = &a.out {
            append_record(path, &outcome)?;
        }
        outcomes.push(outcome);
    }
    let last = match outcomes.as_slice() {
        [one] => one.contract_line(),
        many => combined(many).contract_line(),
    };
    println!("{last}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lhr_e2e: {e}");
            ExitCode::from(2)
        }
    }
}
