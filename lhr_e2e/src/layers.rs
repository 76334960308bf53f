//! The layer replay: a traced run takes a seeded sample of its
//! workload's own cells and, in a fresh child process (cold process
//! memos, as a user's first run has), times each cell through
//! `Runner::try_measure` and then through the public calls the runner
//! makes -- workload scaling, `ChipSimulator::run_with_scratch` per
//! invocation, `MeasurementRig::try_measure` per invocation. The cell
//! time minus the sum of those components is the runner's unexplained
//! residual on the *same* cell.
//!
//! The replay also replays the store: `Store::upsert` of single rows
//! into a store holding as many rows as the run stored, and
//! `Store::query` of the routed workload's query over it.

use std::path::Path;
use std::time::Instant;

use lhr_core::{Evaluation, Harness, Runner};
use lhr_sensors::{Adc, Calibration, HallSensor, MeasurementRig};
use lhr_stats::SummaryBuilder;
use lhr_store::{CellRow, Store};
use lhr_uarch::{ChipConfig, ChipSimulator, SimScratch};
use lhr_units::Watts;
use lhr_workloads::Workload;

use crate::gen::{self, Rng};
use crate::spans::{self, SpanRec, Spans};
use crate::stats;

/// The store query the routed workload sends (and the replay runs).
pub const QUERY: &str = "group_by chip, group | agg mean(perf_norm), mean(watts)";

/// Single-row upserts timed by the store replay.
const UPSERTS: usize = 24;
/// Queries timed by the store replay.
const QUERIES: usize = 16;

/// Measurement fidelity of a workload's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// `Runner::fast()`: the serving layer and `repro_all --quick`.
    Quick,
    /// `Runner::new().with_invocations(3)`: `repro_all` at default
    /// fidelity.
    Standard,
}

impl Fidelity {
    pub fn runner(self) -> Runner {
        match self {
            Fidelity::Quick => Runner::fast(),
            Fidelity::Standard => Runner::new().with_invocations(3),
        }
    }

    // The three accessors below restate what `Runner::fast()` and
    // `Runner::new()` configure; `core.replay_mismatches` reports any
    // cell where the replay stops reproducing the runner bit for bit.
    fn simulator(self) -> ChipSimulator {
        match self {
            Fidelity::Quick => ChipSimulator::new().with_target_slices(80),
            Fidelity::Standard => ChipSimulator::new(),
        }
    }

    fn invocations(self) -> usize {
        match self {
            Fidelity::Quick => 2,
            Fidelity::Standard => 3,
        }
    }

    fn instruction_scale(self) -> Option<f64> {
        match self {
            Fidelity::Quick => Some(0.02),
            Fidelity::Standard => None,
        }
    }

    /// Cells the replay samples: enough for stable medians at each
    /// fidelity's cost per cell.
    fn sample_size(self) -> usize {
        match self {
            Fidelity::Quick => 24,
            Fidelity::Standard => 8,
        }
    }
}

/// (configuration, workload) cells.
type Cells = Vec<(ChipConfig, &'static Workload)>;

/// The replay sample of `workload`'s cells under `seed`, with the
/// fidelity the workload measures them at.
pub fn sample(workload: &str, seed: u64) -> Result<(Fidelity, Cells), String> {
    let mut rng = Rng::new(seed ^ 0x6c61_7965);
    let pick = |pool: Cells, n: usize, rng: &mut Rng| {
        (0..n)
            .map(|_| pool[rng.below(pool.len())].clone())
            .collect::<Vec<_>>()
    };
    Ok(match workload {
        "repro_quick" => {
            let grid: Vec<_> = lhr_core::configs::all_study_configs()
                .into_iter()
                .flat_map(|c| {
                    Harness::quick_set()
                        .into_iter()
                        .map(move |w| (c.clone(), w))
                })
                .collect();
            (
                Fidelity::Quick,
                pick(grid, Fidelity::Quick.sample_size(), &mut rng),
            )
        }
        "cells_cold" => {
            // Evenly spaced cells of the rows a run reaches: the first
            // two blocks on every configuration.
            let reached: Vec<_> = gen::cold_rows(seed)
                .into_iter()
                .take(2 * lhr_core::configs::all_study_configs().len())
                .flat_map(|(c, ws)| ws.into_iter().map(move |w| (c.clone(), w)))
                .collect();
            let n = Fidelity::Standard.sample_size();
            let cells = (0..n)
                .map(|i| reached[i * reached.len() / n].clone())
                .collect();
            (Fidelity::Standard, cells)
        }
        "serve_hot" => {
            let hot: Vec<_> = gen::hot_cells()
                .into_iter()
                .map(|c| (c.config, c.workload))
                .collect();
            (
                Fidelity::Quick,
                pick(hot, Fidelity::Quick.sample_size(), &mut rng),
            )
        }
        "routed_cold" => {
            let mut routed = gen::RoutedCells::new(seed);
            let n = Fidelity::Quick.sample_size();
            (
                Fidelity::Quick,
                (0..n)
                    .map(|_| routed.next())
                    .map(|c| (c.config, c.workload))
                    .collect(),
            )
        }
        other => return Err(format!("no replay sample for workload {other:?}")),
    })
}

/// The runner's per-invocation seed: a restatement of the private
/// `seed_for` in `lhr_core::runner` (base seed `0x1bad_b002`).
fn invocation_seed(workload: &str, config: &str, k: usize) -> u64 {
    let mut h: u64 = 0x1bad_b002 ^ 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes().chain(config.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Replays `cells` and the store; returns `(name, value, samples)` for
/// every replayed per-layer metric. Spans land in `spans` (always on in
/// the replay child).
pub fn replay(
    fidelity: Fidelity,
    cells: &[(ChipConfig, &'static Workload)],
    rows: usize,
    store_dir: &Path,
    spans: &Spans,
) -> Result<Vec<(&'static str, f64, u64)>, String> {
    let sim = fidelity.simulator();
    let mut scratch = SimScratch::new();
    let mut mismatches = 0u64;
    let mut speedups = Vec::new();
    let mut sim_seconds = 0.0f64;
    let mut templates = Vec::new();
    for (config, w) in cells {
        let cell_span = spans.id();
        let t_cell = Instant::now();
        let label = config.label();
        let spec = config.spec();
        let scaled = || {
            fidelity.instruction_scale().map(|f| {
                let mut s = (*w).clone();
                s.scale_trace(f);
                s
            })
        };

        // What the process-global interval-model memo saves: the first
        // run of invocation 0 against an immediate repeat.
        let owned = scaled();
        let run_w: &Workload = owned.as_ref().unwrap_or(w);
        let seed0 = invocation_seed(w.name(), &label, 0);
        let t = Instant::now();
        std::hint::black_box(sim.run_with_scratch(config, run_w, seed0, &mut scratch));
        let cold = spans.record(cell_span, "uarch.sim_run_cold", t, Instant::now());
        let t = Instant::now();
        std::hint::black_box(sim.run_with_scratch(config, run_w, seed0, &mut scratch));
        let warm = spans.record(cell_span, "uarch.sim_run_warm", t, Instant::now());
        let recs = spans.snapshot();
        let dur = |id: u64| recs.iter().find(|s| s.id == id).map_or(0, |s| s.dur_ns);
        speedups.push(dur(cold) as f64 / dur(warm).max(1) as f64);

        let t = Instant::now();
        std::hint::black_box(run_w.software_threads(config.contexts()));
        spans.record(cell_span, "workloads.software_threads", t, Instant::now());

        // The cell, end to end, on a fresh runner.
        let runner = fidelity.runner();
        let t = Instant::now();
        let measured = runner.try_measure(config, w);
        let t_end = Instant::now();
        // A cell the rig cannot measure has no components to compare.
        let Ok((m, _)) = measured else { continue };
        spans.record(cell_span, "core.cell", t, t_end);

        // The same cell through the runner's component calls.
        let parts = spans.id();
        let t_parts = Instant::now();
        let owned = scaled();
        if owned.is_some() {
            spans.record(parts, "workloads.scale", t_parts, Instant::now());
        }
        let run_w: &Workload = owned.as_ref().unwrap_or(w);
        let t = Instant::now();
        let mut rig = MeasurementRig::for_max_power(
            Watts::new(spec.power.tdp_w),
            0x0d1e_5ee0 ^ spec.id as u64,
        )
        .map_err(|e| format!("rig for {label}: {e}"))?;
        spans.record(parts, "sensors.rig_build", t, Instant::now());
        let (mut times, mut powers) = (SummaryBuilder::new(), SummaryBuilder::new());
        for k in 0..fidelity.invocations() {
            let seed = invocation_seed(w.name(), &label, k);
            let t = Instant::now();
            let result = sim.run_with_scratch(config, run_w, seed, &mut scratch);
            spans.record(parts, "uarch.sim_run", t, Instant::now());
            let t = Instant::now();
            let measured = rig
                .try_measure(&result.waveform, seed ^ 0x50_c3)
                .map_err(|e| format!("rig measure of {label}: {e}"))?;
            spans.record(parts, "sensors.rig_measure", t, Instant::now());
            sim_seconds += result.waveform.duration().value();
            times.push(result.time.value());
            powers.push(measured.average_power.value());
        }
        spans.push(parts, cell_span, "core.components", t_parts, Instant::now());
        if times.build() != m.time || powers.build() != m.power {
            mismatches += 1;
        }
        templates.push(CellRow::from_evaluation(
            config,
            &Evaluation {
                perf_norm: 1.0 / m.time.mean(),
                energy_norm: m.time.mean() * m.power.mean(),
                measurement: m,
            },
        ));
        spans.push(cell_span, 0, "core.replay", t_cell, Instant::now());
    }

    // Factory calibration, which the process-wide calibration bench
    // memoizes: timed directly on fresh sensors of each sampled chip.
    let mut chips: Vec<_> = cells.iter().map(|(c, _)| c.spec()).collect();
    chips.sort_by_key(|s| s.id as u64);
    chips.dedup_by_key(|s| s.id as u64);
    for spec in chips {
        let seed = 0x0d1e_5ee0 ^ spec.id as u64;
        let mut sensor = if spec.power.tdp_w / 12.0 > 4.5 {
            HallSensor::acs714_30a(seed)
        } else {
            HallSensor::acs714_5a(seed)
        };
        let t = Instant::now();
        Calibration::paper_procedure(&mut sensor, &Adc::avr_10bit())
            .map_err(|e| format!("calibrating {}: {e}", spec.short))?;
        spans.record(0, "sensors.rig_calibrate", t, Instant::now());
    }

    store_replay(store_dir, &templates, rows, spans)?;

    let recs = spans.snapshot();
    let p50_us = |name: &str| {
        let v = stats::sorted(&spans::durations_us(&recs, name));
        (
            if v.is_empty() {
                0.0
            } else {
                stats::percentile(&v, 500)
            },
            v.len() as u64,
        )
    };
    let total = |name: &str| spans::total_ns(&recs, name) as f64;
    let n = cells.len() as u64;
    let cell_ns = total("core.cell").max(1.0);
    let rig_ns = total("sensors.rig_measure");
    let sim_ns = total("uarch.sim_run");
    let parts_ns = total("workloads.scale") + total("sensors.rig_build") + sim_ns + rig_ns;
    let (cell, cells_n) = p50_us("core.cell");
    let (sim_p50, sims) = p50_us("uarch.sim_run");
    let (threads, threads_n) = p50_us("workloads.software_threads");
    let (rig, rigs) = p50_us("sensors.rig_measure");
    let (cal, cals) = p50_us("sensors.rig_calibrate");
    let (upsert, upserts) = p50_us("store.upsert");
    let (query, queries) = p50_us("store.query");
    Ok(vec![
        ("core.cell_us_p50", cell, cells_n),
        ("uarch.sim_run_us_p50", sim_p50, sims),
        ("workloads.software_threads_us_p50", threads, threads_n),
        ("sensors.rig_measure_us_p50", rig, rigs),
        (
            "sensors.rig_ns_per_sim_s",
            rig_ns / sim_seconds.max(f64::MIN_POSITIVE),
            rigs,
        ),
        ("sensors.rig_calibrate_us", cal, cals),
        ("sensors.rig_share", rig_ns / cell_ns, n),
        ("uarch.sim_share", sim_ns / cell_ns, n),
        ("core.runner_residual_frac", 1.0 - parts_ns / cell_ns, n),
        ("core.replay_mismatches", mismatches as f64, n),
        ("uarch.memo_warm_speedup", stats::median(&speedups), n),
        ("store.upsert_ms_p50", upsert / 1e3, upserts),
        ("store.query_ms_p50", query / 1e3, queries),
    ])
}

/// Fills a fresh store with `rows` rows shaped like `templates` (one
/// bulk batch, then single-row upserts as the serving path makes them)
/// and times the single-row upserts and the routed query.
fn store_replay(
    dir: &Path,
    templates: &[CellRow],
    rows: usize,
    spans: &Spans,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))?;
    let rows = rows.max(UPSERTS + 1);
    let row = |i: usize| {
        let mut r = templates[i % templates.len()].clone();
        r.config = format!("{} #{i}", r.config);
        r.config_fp = format!("{:016x}", 0xe2e0_0000_0000_0000u64 | i as u64);
        r
    };
    let bulk: Vec<CellRow> = (0..rows - UPSERTS).map(row).collect();
    store
        .upsert(&bulk)
        .map_err(|e| format!("store bulk upsert: {e}"))?;
    for i in rows - UPSERTS..rows {
        let r = row(i);
        let t = Instant::now();
        store
            .upsert(std::slice::from_ref(&r))
            .map_err(|e| format!("store upsert: {e}"))?;
        spans.record(0, "store.upsert", t, Instant::now());
    }
    for _ in 0..QUERIES {
        let t = Instant::now();
        let table = store
            .query(QUERY)
            .map_err(|e| format!("store query: {e:?}"))?;
        spans.record(0, "store.query", t, Instant::now());
        std::hint::black_box(table);
    }
    if store.len() != rows {
        return Err(format!("store holds {} rows, expected {rows}", store.len()));
    }
    drop(store);
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// Child entry point: `--child layers --workload W --seed S --rows N
/// --dir D`. Prints one `metric <name> <value> <samples>` line per
/// metric, the replay's spans, and `done`.
pub fn child(workload: &str, seed: u64, rows: usize, dir: &Path) -> Result<(), String> {
    let spans = Spans::new(true);
    let (fidelity, cells) = sample(workload, seed)?;
    let metrics = replay(fidelity, &cells, rows, dir, &spans)?;
    let mut out = String::new();
    for (name, value, samples) in metrics {
        out.push_str(&format!("metric {name} {value:?} {samples}\n"));
    }
    for s in spans.snapshot() {
        out.push_str(&format!("span {}\n", s.to_json()));
    }
    out.push_str("done\n");
    print!("{out}");
    Ok(())
}

/// A replay child's report: its metrics and spans.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, u64)>,
    pub spans: Vec<SpanRec>,
}

impl Report {
    /// Parses the lines [`child`] prints.
    pub fn parse(lines: &[String]) -> Result<Self, String> {
        let mut r = Report::default();
        let mut done = false;
        for line in lines {
            if let Some(rest) = line.strip_prefix("metric ") {
                let parts: Vec<&str> = rest.split(' ').collect();
                let [name, value, samples] = parts.as_slice() else {
                    return Err(format!("bad metric line {line:?}"));
                };
                let value = value
                    .parse()
                    .map_err(|_| format!("bad value in {line:?}"))?;
                let samples = samples
                    .parse()
                    .map_err(|_| format!("bad count in {line:?}"))?;
                r.metrics.push(((*name).to_owned(), value, samples));
            } else if let Some(rest) = line.strip_prefix("span ") {
                r.spans.push(SpanRec::from_json(rest)?);
            } else if line == "done" {
                done = true;
            }
        }
        if done {
            Ok(r)
        } else {
            Err("replay child ended without reporting".to_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_runner_and_accounts_for_the_cell() {
        let (fidelity, cells) = sample("serve_hot", 5).unwrap();
        let dir = std::env::temp_dir().join(format!("lhr-e2e-layers-{}", std::process::id()));
        let spans = Spans::new(true);
        let metrics = replay(fidelity, &cells[..3], 40, &dir, &spans).unwrap();
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(
            get("core.replay_mismatches"),
            0.0,
            "the replay must reproduce the runner"
        );
        assert!(get("sensors.rig_measure_us_p50") > 0.0);
        assert!(get("uarch.sim_run_us_p50") > 0.0);
        assert!(get("store.upsert_ms_p50") > 0.0 && get("store.query_ms_p50") > 0.0);
        assert!(
            get("sensors.rig_share") + get("uarch.sim_share")
                <= 1.0 + get("core.runner_residual_frac").abs()
        );
        assert!(!dir.exists(), "the replay store is removed");
    }

    #[test]
    fn invocation_seeds_differ_per_invocation_and_cell() {
        assert_ne!(invocation_seed("a", "c", 0), invocation_seed("a", "c", 1));
        assert_ne!(invocation_seed("a", "c", 0), invocation_seed("b", "c", 0));
    }
}
