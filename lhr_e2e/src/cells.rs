//! `cells_cold`: distinct (configuration, workload) cells of the study
//! grid at Standard fidelity, measured by a fresh child process through
//! `Runner::try_measure`, with two worker threads pulling cells from the
//! seeded list as `Harness` does. No cell repeats, so the runner's cache
//! never hits; the simulator and the sensor rig do the work.
//!
//! The list runs row by row -- one configuration on a block of
//! workloads -- and a row is the operation a user waits for: its
//! latency runs from its first cell's start to its last cell's end.
//! Throughput counts cells.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lhr_bench::artifact::fnv64;
use lhr_core::{RunMeasurement, Runner};
use lhr_obs::{MemoryRecorder, Obs};
use lhr_uarch::ChipConfig;
use lhr_workloads::Workload;

use crate::gen;
use crate::json;
use crate::procs::{self, Child};
use crate::spans::{SpanRec, Spans};
use crate::{Ctx, Measured};

/// Worker threads in the child (the machine has two cores).
const JOBS: usize = 2;
/// Extra children started only to time set-up.
const SETUP_PROBES: usize = 15;
/// Every this-many-th cell of the list is re-measured by the parent.
const CHECK_EVERY: usize = 10;

fn runner() -> Runner {
    Runner::new().with_invocations(3)
}

/// The bit-identity digest of one measurement: its `Debug` form prints
/// every float in shortest round-trip form.
fn digest(m: &RunMeasurement) -> String {
    format!("{:016x}", fnv64(format!("{m:?}").as_bytes()))
}

/// One cell of the list: its row and its measurement inputs.
struct Cell<'a> {
    row: usize,
    config: &'a ChipConfig,
    workload: &'static Workload,
}

fn flatten(rows: &[gen::Row]) -> Vec<Cell<'_>> {
    rows.iter()
        .enumerate()
        .flat_map(|(row, (config, ws))| {
            ws.iter().map(move |w| Cell {
                row,
                config,
                workload: w,
            })
        })
        .collect()
}

/// Child entry point: `--child cells --seed S --seconds T [--trace 1]
/// [--setup-only]`. Prints `ready`, then one `cell <index> <start_ns>
/// <dur_ns> <digest>` line per cell measured, spans, and `done {...}`.
/// Workers take no new cell once `T` seconds have passed.
pub fn child(seed: u64, seconds: f64, trace: bool, setup_only: bool) -> Result<(), String> {
    let rows = gen::cold_rows(seed);
    let cells = flatten(&rows);
    let memory = Arc::new(MemoryRecorder::default());
    let runner = if trace {
        runner().with_observer(Obs::recording(memory.clone()))
    } else {
        runner()
    };
    let spans = Spans::new(trace);
    println!("ready");
    if setup_only {
        return Ok(());
    }
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(seconds);
    let next = AtomicUsize::new(0);
    let lines = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| {
                let mut mine = Vec::new();
                while Instant::now() < until {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let t = Instant::now();
                    let result = runner.try_measure(cell.config, cell.workload);
                    let end = Instant::now();
                    spans.record(0, "core.cell", t, end);
                    let d = result.map_or_else(|_| "error".to_owned(), |(m, _)| digest(&m));
                    mine.push(format!(
                        "cell {i} {} {} {d}",
                        (t - epoch).as_nanos(),
                        (end - t).as_nanos()
                    ));
                }
                lines.lock().expect("line list lock").extend(mine);
            });
        }
    });
    let mut out = String::new();
    for line in lines.into_inner().expect("line list lock") {
        out.push_str(&line);
        out.push('\n');
    }
    for s in spans.snapshot() {
        out.push_str(&format!("span {}\n", s.to_json()));
    }
    let snap = memory.snapshot();
    out.push_str(&format!(
        "done {{\"measurements\":{},\"cache_hits\":{},\"peak_rss_kb\":{}}}\n",
        snap.counter("runner.measurements"),
        snap.counter("runner.cache_hits"),
        procs::peak_rss_kb("self").unwrap_or(0),
    ));
    print!("{out}");
    Ok(())
}

fn spawn(ctx: &Ctx, setup_only: bool) -> Result<(Child, f64), String> {
    let mut cmd = Command::new(&ctx.exe);
    cmd.args(["--child", "cells", "--seed", &ctx.seed.to_string()]);
    cmd.args(["--seconds", &ctx.seconds.as_secs_f64().to_string()]);
    cmd.args(["--trace", if ctx.spans.on() { "1" } else { "0" }]);
    if setup_only {
        cmd.arg("--setup-only");
    }
    let mut child = Child::spawn(cmd)?;
    if child.line()?.as_deref() != Some("ready") {
        return Err("cells child did not start".to_owned());
    }
    let setup = child.started.elapsed().as_secs_f64();
    Ok((child, setup))
}

/// A measured cell as the child reported it.
struct Measurement {
    index: usize,
    start_ns: u64,
    dur_ns: u64,
    digest: String,
}

fn parse_cell(rest: &str) -> Option<Measurement> {
    let p: Vec<&str> = rest.split(' ').collect();
    let [i, start, dur, d] = p.as_slice() else {
        return None;
    };
    Some(Measurement {
        index: i.parse().ok()?,
        start_ns: start.parse().ok()?,
        dur_ns: dur.parse().ok()?,
        digest: (*d).to_owned(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    for _ in 0..SETUP_PROBES {
        let (child, setup) = spawn(ctx, true)?;
        if !child.wait()?.success() {
            return Err("set-up probe failed".to_owned());
        }
        m.setup_s.push(setup);
    }
    let (mut child, setup) = spawn(ctx, false)?;
    m.setup_s.push(setup);
    let started = child.started;
    let mut cells = Vec::new();
    let mut child_spans = Vec::new();
    let mut done = None;
    while let Some(line) = child.line()? {
        if let Some(rest) = line.strip_prefix("cell ") {
            cells.push(parse_cell(rest).ok_or_else(|| format!("bad cell line {line:?}"))?);
        } else if let Some(rest) = line.strip_prefix("span ") {
            child_spans.push(SpanRec::from_json(rest)?);
        } else if let Some(rest) = line.strip_prefix("done ") {
            done = Some(json::parse(rest)?);
        }
    }
    let status = child.wait()?;
    let done = match (status.success(), done) {
        (true, Some(d)) => d,
        _ => return Err(format!("cells child failed ({status})")),
    };
    let op = ctx.spans.id();
    ctx.spans
        .push(op, 0, "bench.cells_child", started, Instant::now());
    ctx.spans.adopt(child_spans, op, started);

    let list = gen::cold_rows(ctx.seed);
    let all = flatten(&list);
    // Rows whose every cell was measured: (first start, last end).
    let mut rows: Vec<(u64, u64, usize)> = vec![(u64::MAX, 0, 0); list.len()];
    for c in &cells {
        let r = &mut rows[all[c.index].row];
        r.0 = r.0.min(c.start_ns);
        r.1 = r.1.max(c.start_ns + c.dur_ns);
        r.2 += 1;
    }
    let complete: Vec<(u64, u64)> = rows
        .iter()
        .zip(&list)
        .filter(|((_, _, n), (_, ws))| *n == ws.len())
        .map(|(&(s, e, _), _)| (s, e))
        .collect();
    if complete.is_empty() {
        return Err("no row completed".to_owned());
    }
    m.attempted = cells.len() as u64;
    m.ops = complete.len() as u64;
    let first = cells.iter().map(|c| c.start_ns).min().unwrap_or(0);
    let last = cells
        .iter()
        .map(|c| c.start_ns + c.dur_ns)
        .max()
        .unwrap_or(1);
    m.throughput_per_s = cells.len() as f64 / ((last - first) as f64 / 1e9);
    m.latency_ms = complete.iter().map(|(s, e)| (e - s) as f64 / 1e6).collect();
    m.op_ns = complete.iter().map(|(s, e)| (e - s) as f64).sum();
    m.peak_rss_kb = done.num("peak_rss_kb")?;
    m.store_rows = cells.len();

    // The oracle: every tenth cell of the list, measured again on a
    // fresh runner, must match bit for bit.
    let checks: Vec<&Measurement> = cells
        .iter()
        .filter(|c| c.index % CHECK_EVERY == 0)
        .collect();
    let fresh = runner();
    let next = AtomicUsize::new(0);
    let wrong = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| {
                while let Some(c) = checks.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let cell = &all[c.index];
                    let again = fresh
                        .try_measure(cell.config, cell.workload)
                        .map(|(m, _)| digest(&m));
                    if again.as_deref() != Ok(c.digest.as_str()) {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let errors = cells.iter().filter(|c| c.digest == "error").count() as u64;
    let wrong = wrong.into_inner() as u64;
    m.failed = errors + wrong;
    m.notes.push(format!(
        "{} cells, {} complete rows; oracle: {} of {} cells re-measured bit-identically",
        cells.len(),
        complete.len(),
        checks.len() as u64 - wrong,
        checks.len()
    ));

    if ctx.spans.on() {
        let measurements = done.num("measurements")?;
        let hits = done.num("cache_hits")?;
        let ops = m.ops as f64;
        m.layers = vec![
            (
                "core.cells_measured_per_op".to_owned(),
                measurements / ops,
                m.ops,
            ),
            (
                "core.cache_lookups_per_op".to_owned(),
                (measurements + hits) / ops,
                m.ops,
            ),
            (
                "core.cache_hit_ratio".to_owned(),
                hits / (measurements + hits).max(1.0),
                m.ops,
            ),
        ];
    }
    Ok(m)
}
