//! `repro_quick`: regenerate all 16 tables and figures at Quick
//! fidelity, each regeneration in a fresh child process making the
//! calls `repro_all --quick` makes: `campaign::prepare` with the journal
//! on, then `run_experiment` and `write_atomic` per experiment, into a
//! scratch output directory. The input is fixed, so the seed is unused.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use lhr_bench::artifact::{fnv64, write_atomic};
use lhr_bench::campaign::{self, CampaignOptions};
use lhr_bench::{run_experiment, Fidelity, Observability, EXPERIMENTS};

use crate::json;
use crate::procs::{self, Child};
use crate::spans::{self, SpanRec, Spans};
use crate::{Ctx, Measured};

/// fnv64 over `name NUL artifact NUL` for the 16 artifacts in
/// `EXPERIMENTS` order: the bytes a Quick regeneration must produce.
pub const ARTIFACT_DIGEST: &str = "26534577bac6948a";

/// Child entry point: `--child repro --dir D [--trace 1]`.
pub fn child(dir: &Path, trace: bool) -> Result<(), String> {
    println!("ready");
    let spans = Spans::new(trace);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let observability = Observability::with_trace_path(None);
    let opts = CampaignOptions {
        journal: Some(dir.join(campaign::DEFAULT_JOURNAL)),
        resume: false,
        max_cell_seconds: None,
        jobs: None,
        abort_after: None,
        out_dir: dir.to_owned(),
    };
    let t = Instant::now();
    let prepared = campaign::prepare(Fidelity::Quick, &observability, &opts);
    spans.record(0, "campaign.prepare", t, Instant::now());
    if prepared.aborted() {
        return Err("campaign aborted".to_owned());
    }
    let mut digest_input = Vec::new();
    for name in EXPERIMENTS {
        let t = Instant::now();
        let rendered = run_experiment(name, &prepared.harness);
        spans.record(0, &format!("experiments.{name}"), t, Instant::now());
        let file = format!("{name}.txt");
        let t = Instant::now();
        write_atomic(&dir.join(&file), rendered.as_bytes())
            .map_err(|e| format!("writing {file}: {e}"))?;
        prepared.record_artifact(&file, rendered.as_bytes());
        spans.record(0, "bench.artifact_write", t, Instant::now());
        for part in [name.as_bytes(), b"\0", rendered.as_bytes(), b"\0"] {
            digest_input.extend_from_slice(part);
        }
    }
    let snap = observability.snapshot();
    let journal = std::fs::read_to_string(opts.journal_path())
        .map_err(|e| format!("reading the journal: {e}"))?;
    let mut out = String::new();
    for s in spans.snapshot() {
        out.push_str(&format!("span {}\n", s.to_json()));
    }
    out.push_str(&format!(
        "done {{\"digest\":\"{:016x}\",\"journal_lines\":{},\"measurements\":{},\"cache_hits\":{},\"peak_rss_kb\":{}}}\n",
        fnv64(&digest_input),
        journal.lines().count(),
        snap.counter("runner.measurements"),
        snap.counter("runner.cache_hits"),
        procs::peak_rss_kb("self").unwrap_or(0),
    ));
    print!("{out}");
    Ok(())
}

/// One regeneration as the parent saw it.
struct Regeneration {
    setup_s: f64,
    total_ns: u64,
    digest: String,
    journal_lines: f64,
    measurements: f64,
    cache_hits: f64,
    peak_rss_kb: f64,
    spans: Vec<SpanRec>,
}

fn regenerate(ctx: &Ctx, i: usize) -> Result<(Regeneration, Instant, Instant), String> {
    let dir = ctx.work.join(format!("repro-{i}"));
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("--child").arg("repro").arg("--dir").arg(&dir);
    cmd.args(["--trace", if ctx.spans.on() { "1" } else { "0" }]);
    let mut child = Child::spawn(cmd)?;
    let started = child.started;
    if child.line()?.as_deref() != Some("ready") {
        return Err("regeneration child did not start".to_owned());
    }
    let ready = Instant::now();
    let mut child_spans = Vec::new();
    let mut done = None;
    while let Some(line) = child.line()? {
        if let Some(rest) = line.strip_prefix("span ") {
            child_spans.push(SpanRec::from_json(rest)?);
        } else if let Some(rest) = line.strip_prefix("done ") {
            done = Some(json::parse(rest)?);
        }
    }
    let status = child.wait()?;
    let end = Instant::now();
    let _ = std::fs::remove_dir_all(&dir);
    let done = match (status.success(), done) {
        (true, Some(done)) => done,
        _ => return Err(format!("regeneration child failed ({status})")),
    };
    Ok((
        Regeneration {
            setup_s: (ready - started).as_secs_f64(),
            total_ns: (end - started).as_nanos() as u64,
            digest: done.text("digest")?.to_owned(),
            journal_lines: done.num("journal_lines")?,
            measurements: done.num("measurements")?,
            cache_hits: done.num("cache_hits")?,
            peak_rss_kb: done.num("peak_rss_kb")?,
            spans: child_spans,
        },
        started,
        end,
    ))
}

/// Regenerates until `ctx.seconds` have passed (at least once).
pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let until = Instant::now() + ctx.seconds;
    let mut regens = Vec::new();
    let mut op_spans = Vec::new();
    while (regens.is_empty() && m.attempted < 3) || Instant::now() < until {
        m.attempted += 1;
        match regenerate(ctx, m.attempted as usize) {
            Ok((r, started, end)) => {
                if r.digest != ARTIFACT_DIGEST {
                    eprintln!(
                        "repro_quick: artifact digest {} != pinned {ARTIFACT_DIGEST}",
                        r.digest
                    );
                    m.failed += 1;
                }
                let op = ctx.spans.id();
                ctx.spans.push(op, 0, "bench.regeneration", started, end);
                ctx.spans.adopt(r.spans.clone(), op, started);
                op_spans.push(op);
                regens.push(r);
            }
            Err(e) => {
                eprintln!("repro_quick: {e}");
                m.failed += 1;
            }
        }
    }
    if regens.is_empty() {
        return Err("no regeneration completed".to_owned());
    }
    let n = regens.len() as f64;
    let total_ns: u64 = regens.iter().map(|r| r.total_ns).sum();
    m.ops = regens.len() as u64;
    m.op_ns = total_ns as f64;
    m.setup_s = regens.iter().map(|r| r.setup_s).collect();
    m.latency_ms = regens.iter().map(|r| r.total_ns as f64 / 1e6).collect();
    m.throughput_per_s = n / (total_ns as f64 / 1e9);
    m.peak_rss_kb = regens.iter().map(|r| r.peak_rss_kb).fold(0.0, f64::max);
    let measurements: f64 = regens.iter().map(|r| r.measurements).sum();
    let hits: f64 = regens.iter().map(|r| r.cache_hits).sum();
    m.store_rows = (measurements / n) as usize;

    let ops = m.ops;
    let share = |name: &str| -> f64 {
        regens
            .iter()
            .map(|r| spans::total_ns(&r.spans, name) as f64)
            .sum::<f64>()
            / total_ns as f64
    };
    let mut layers = vec![
        (
            "core.cells_measured_per_op".to_owned(),
            measurements / n,
            ops,
        ),
        (
            "core.cache_lookups_per_op".to_owned(),
            (measurements + hits) / n,
            ops,
        ),
        (
            "core.cache_hit_ratio".to_owned(),
            hits / (measurements + hits).max(1.0),
            ops,
        ),
        (
            "bench.journal_lines".to_owned(),
            regens.iter().map(|r| r.journal_lines).sum::<f64>() / n,
            ops,
        ),
    ];
    if ctx.spans.on() {
        layers.push((
            "campaign.prepare_share".to_owned(),
            share("campaign.prepare"),
            ops,
        ));
        layers.push((
            "bench.artifact_write_share".to_owned(),
            share("bench.artifact_write"),
            ops,
        ));
        for name in EXPERIMENTS {
            let s = share(&format!("experiments.{name}"));
            layers.push((format!("experiments.{name}_share"), s, ops));
        }
        // Process start-up and exit: the self time of each
        // regeneration span, outside every span its child recorded.
        let recs = ctx.spans.snapshot();
        let outside: u64 = op_spans.iter().map(|&id| spans::self_ns(&recs, id)).sum();
        layers.push((
            "bench.child_overhead_share".to_owned(),
            outside as f64 / total_ns as f64,
            ops,
        ));
    }
    m.layers = layers;
    Ok(m)
}
