//! The serving workloads.
//!
//! `serve_hot`: one `lhr_serve --jobs 2`, warmed with the 96 stock cells
//! (8 chips x the quick set), then a closed loop of 2 clients over that
//! hot set in 3 rounds. It exercises HTTP, the queue and the LRU hit
//! path and bypasses simulation and the store. A closed loop, because
//! on 2 cores cache hits saturate a 2-thread open-loop generator first.
//!
//! `routed_cold`: `lhr_serve --jobs 2 --store-dir` behind `lhr_router`
//! (route cache on), driven by an open loop: 90% never-seen cells, each
//! of which forwards, simulates and upserts into the store, and 10%
//! `GET /v1/query` reads of that store.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lhr_core::Harness;

use crate::gen::{self, CellRequest, Rng};
use crate::json;
use crate::layers::QUERY;
use crate::loadgen::{self, Sample};
use crate::procs::{self, Scrape, Server};
use crate::{stats, Ctx, Measured};

/// Load-generator threads, and so concurrent connections.
const CLIENTS: usize = 2;
/// Server boots per run; the last one serves the timed phase.
const SETUPS: usize = 3;
/// Closed-loop rounds of `serve_hot`.
const ROUNDS: u32 = 3;
/// Every this-many-th hot response is checked against the oracle.
const HOT_CHECK_EVERY: u64 = 64;
/// `serve_hot` reads the server's peak memory after this many requests.
const RSS_AFTER_REQUESTS: u64 = 100_000;
/// Offered rate of `routed_cold`, requests per second.
pub const ROUTED_RATE: f64 = 100.0;
/// Share of `routed_cold` requests that are store queries.
const QUERY_SHARE: f64 = 0.1;
/// Every this-many-th routed cell response is checked.
const ROUTED_CHECK_EVERY: u64 = 8;
/// The cell `routed_cold` set-up sends through the router.
const WARM_CELL: &str = "/v1/cell?chip=i7-45&config=stock&workload=mcf";

/// The oracle both serving workloads check against: the harness a
/// backend builds, minus its bounded cache and observer.
fn oracle() -> Harness {
    Harness::new(lhr_core::Runner::fast()).with_workloads(Harness::quick_set())
}

/// Checks a `/v1/cell` body's `seconds`, `watts` and `perf_norm` bit for
/// bit against the oracle.
fn matches_oracle(oracle: &Harness, req: &CellRequest, body: &str) -> bool {
    let Ok(v) = json::parse(body) else {
        return false;
    };
    let Ok((eval, _)) = oracle.try_evaluate_workload(&req.config, req.workload) else {
        return false;
    };
    let want = [
        eval.measurement.time.mean(),
        eval.measurement.power.mean(),
        eval.perf_norm,
    ];
    ["seconds", "watts", "perf_norm"]
        .iter()
        .zip(want)
        .all(|(k, w)| v.num(k).is_ok_and(|got| got.to_bits() == w.to_bits()))
}

fn boot_backend(ctx: &Ctx, store: Option<&Path>) -> Result<Server, String> {
    let mut args: Vec<String> = ["--addr", "127.0.0.1:0", "--jobs", "2"]
        .map(String::from)
        .to_vec();
    // Campaign journals are unused here; keep them inside the scratch
    // directory all the same.
    args.extend([
        "--campaign-dir".to_owned(),
        ctx.work.join("campaigns").display().to_string(),
    ]);
    if let Some(dir) = store {
        args.extend(["--store-dir".to_owned(), dir.display().to_string()]);
    }
    let server = Server::spawn(&ctx.bin_dir.join("lhr_serve"), &args)?;
    procs::poll_until(Duration::from_secs(10), || {
        server.get("/healthz").is_ok_and(|r| r.status == 200)
    })?;
    Ok(server)
}

/// Requests every hot cell once over [`CLIENTS`] connections.
fn warm(server: &Server, hot: &[CellRequest]) -> Result<(), String> {
    let failed = Mutex::new(None);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let failed = &failed;
            s.spawn(move || {
                for req in hot.iter().skip(c).step_by(CLIENTS) {
                    match server.get(&req.target) {
                        Ok(r) if r.status == 200 => {}
                        other => {
                            *failed.lock().expect("warm lock") = Some(format!(
                                "warming {}: {:?}",
                                req.target,
                                other.map(|r| r.status)
                            ));
                        }
                    }
                }
            });
        }
    });
    failed.into_inner().expect("warm lock").map_or(Ok(()), Err)
}

/// Latencies (ms) of successful samples.
fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency().as_secs_f64() * 1e3)
        .collect()
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(values), 500)
    }
}

pub fn run_hot(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let hot = gen::hot_cells();
    let mut server = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let s = boot_backend(ctx, None)?;
        warm(&s, &hot)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    let before = server.scrape()?;
    let round = ctx.seconds / ROUNDS;
    let checks = Mutex::new(Vec::new());
    let failures = procs::FailureLog::new("serve_hot");
    let completed = AtomicU64::new(0);
    let rss_at_budget = AtomicU64::new(0);
    let mut samples = Vec::new();
    let mut rates = Vec::new();
    for r in 0..ROUNDS {
        let start = Instant::now();
        let round_samples = loadgen::closed_loop(CLIENTS, start + round, |client, seq| {
            let mut rng = Rng::new(ctx.seed ^ (u64::from(r) << 48) ^ ((client as u64) << 40) ^ seq);
            let i = rng.below(hot.len());
            let t = Instant::now();
            let resp = server.get(&hot[i].target);
            let ok = resp.as_ref().is_ok_and(|r| r.status == 200);
            ctx.spans.record(0, "bench.request", t, Instant::now());
            if !ok {
                failures.note(&hot[i].target, &resp);
            } else if seq % HOT_CHECK_EVERY == 0 {
                let body = resp.expect("ok").body_str().into_owned();
                checks.lock().expect("check list lock").push((i, body));
            }
            if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
                rss_at_budget.store(server.peak_rss_kb().unwrap_or(0), Ordering::Relaxed);
            }
            ok
        });
        let end = round_samples.iter().map(|s| s.done).max().unwrap_or(start);
        rates.push(
            round_samples.iter().filter(|s| s.ok).count() as f64 / (end - start).as_secs_f64(),
        );
        samples.extend(round_samples);
    }
    let after = server.scrape()?;
    // The server's telemetry keeps every event, so its memory grows with
    // requests served; reading the peak after a fixed request count
    // keeps a faster server from reading as a bigger one.
    m.peak_rss_kb = match rss_at_budget.into_inner() {
        0 => server.peak_rss_kb().unwrap_or(0),
        kb => kb,
    } as f64;
    server.stop()?;

    let oracle = oracle();
    let checks = checks.into_inner().expect("check list lock");
    let wrong = checks
        .iter()
        .filter(|(i, body)| !matches_oracle(&oracle, &hot[*i], body))
        .count() as u64;
    m.notes.push(format!(
        "oracle: {} of {} sampled responses bit-identical",
        checks.len() as u64 - wrong,
        checks.len()
    ));

    m.attempted = samples.len() as u64;
    m.failed = samples.iter().filter(|s| !s.ok).count() as u64 + wrong;
    m.latency_ms = ok_latencies(&samples);
    m.ops = m.attempted;
    m.op_ns = samples
        .iter()
        .map(|s| (s.done - s.sent).as_nanos() as f64)
        .sum();
    m.throughput_per_s = stats::median(&rates);
    m.notes.push(format!("round rates: {rates:?} req/s"));
    m.store_rows = hot.len();
    if ctx.spans.on() {
        m.layers = serving_layers(&before, &after, m.ops, mean_service_ms(&samples));
    }
    Ok(m)
}

/// Mean time, in milliseconds, the client waited on its successful
/// requests (send to response, generator lateness excluded).
fn mean_service_ms(samples: &[Sample]) -> f64 {
    let ok: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
        .collect();
    ok.iter().sum::<f64>() / ok.len().max(1) as f64
}

/// Counters both serving workloads read from the backend; `client_ms`
/// is [`mean_service_ms`] of the cell requests.
fn serving_layers(
    before: &Scrape,
    after: &Scrape,
    ops: u64,
    client_ms: f64,
) -> Vec<(String, f64, u64)> {
    let ops = ops.max(1);
    let measured = after.delta(before, "runner.measurements");
    let hits = after.delta(before, "runner.cache_hits");
    let server_ms = after
        .mean_ms_since(before, "serve.latency./v1/cell")
        .unwrap_or(0.0);
    vec![
        (
            "core.cells_measured_per_op".to_owned(),
            measured / ops as f64,
            ops,
        ),
        (
            "core.cache_lookups_per_op".to_owned(),
            (measured + hits) / ops as f64,
            ops,
        ),
        (
            "core.cache_hit_ratio".to_owned(),
            hits / (measured + hits).max(1.0),
            ops,
        ),
        (
            "serve.server_share".to_owned(),
            server_ms / client_ms.max(f64::MIN_POSITIVE),
            ops,
        ),
        (
            "serve.coalesce_hits".to_owned(),
            after.delta(before, "serve.coalesce_hits"),
            ops,
        ),
        (
            "serve.shed_503".to_owned(),
            after.delta(before, "serve.shed_503"),
            ops,
        ),
    ]
}

/// One routed request.
enum Routed {
    Cell(CellRequest),
    Query,
}

fn query_target() -> String {
    let mut t = String::from("/v1/query?q=");
    for b in QUERY.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            t.push(b as char);
        } else {
            t.push_str(&format!("%{b:02X}"));
        }
    }
    t
}

/// Whether the oracle can measure each cell, checked on [`CLIENTS`]
/// threads.
fn measurable(oracle: &Harness, cells: &[CellRequest]) -> Vec<bool> {
    let next = AtomicUsize::new(0);
    let ok = Mutex::new(vec![false; cells.len()]);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(c) = cells.get(i) else { break };
                let measured = oracle.try_evaluate_workload(&c.config, c.workload).is_ok();
                ok.lock().expect("result list lock")[i] = measured;
            });
        }
    });
    ok.into_inner().expect("result list lock")
}

/// The seeded request list of `routed_cold`, and the drawn cells it
/// dropped. The rig cannot measure every configuration the server's
/// parser accepts (a saturated sensor exhausts the retry budget and the
/// server answers 500); such cells are a finding about the model, not
/// load, so they are dropped before timing.
fn routed_requests(ctx: &Ctx, oracle: &Harness) -> (Vec<Routed>, Vec<String>) {
    let total = (ROUTED_RATE * ctx.seconds.as_secs_f64()).round() as usize;
    let mut rng = Rng::new(ctx.seed ^ 0x0071_7565_7279);
    let queries: Vec<bool> = (0..total).map(|_| rng.unit() < QUERY_SHARE).collect();
    let want = queries.iter().filter(|q| !**q).count();
    let mut draws = gen::RoutedCells::new(ctx.seed);
    let (mut valid, mut dropped) = (Vec::with_capacity(want), Vec::new());
    while valid.len() < want {
        let batch: Vec<CellRequest> = (valid.len()..want).map(|_| draws.next()).collect();
        let ok = measurable(oracle, &batch);
        for (c, ok) in batch.into_iter().zip(ok) {
            if ok {
                valid.push(c);
            } else {
                dropped.push(c.target);
            }
        }
    }
    let mut cells = valid.into_iter();
    let requests = queries
        .into_iter()
        .map(|q| {
            if q {
                Routed::Query
            } else {
                Routed::Cell(cells.next().expect("one valid cell per cell request"))
            }
        })
        .collect();
    (requests, dropped)
}

pub fn run_routed(ctx: &Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let oracle = oracle();
    let (requests, dropped) = routed_requests(ctx, &oracle);
    if let Some(first) = dropped.first() {
        m.notes.push(format!(
            "{} drawn cells dropped before timing because the rig cannot measure them, e.g. {first}",
            dropped.len()
        ));
    }
    let mut fleet = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let store = ctx.work.join(format!("store-{k}"));
        let backend = boot_backend(ctx, Some(&store))?;
        let args: Vec<String> = vec![
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--jobs".into(),
            "2".into(),
            "--backends".into(),
            backend.addr.to_string(),
        ];
        let router = Server::spawn(&ctx.bin_dir.join("lhr_router"), &args)?;
        // Joiners start Suspect; the router answers 503 until its
        // prober promotes the backend to Up.
        procs::poll_until(Duration::from_secs(10), || {
            router
                .get("/healthz")
                .is_ok_and(|r| json::parse(&r.body_str()).is_ok_and(|v| v.num("up") == Ok(1.0)))
        })?;
        // The backend computes its normalization reference on the first
        // cell it serves; pay that before timing, with a stock SMT cell
        // the routed `NC1T` draws never repeat.
        match router.get(WARM_CELL) {
            Ok(r) if r.status == 200 => {}
            other => return Err(format!("warm-up cell: {:?}", other.map(|r| r.status))),
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            router.stop()?;
            backend.stop()?;
        } else {
            fleet = Some((backend, router));
        }
    }
    let (backend, router) = fleet.expect("at least one set-up");
    let total = requests.len() as u64;
    let query = query_target();

    let backend_before = backend.scrape()?;
    let router_before = router.scrape()?;
    let checks = Mutex::new(Vec::new());
    let failures = procs::FailureLog::new("routed_cold");
    let start = Instant::now() + Duration::from_millis(5);
    let samples = loadgen::open_loop(CLIENTS, ROUTED_RATE, start, total, |i| {
        let target = match &requests[i as usize] {
            Routed::Cell(c) => c.target.as_str(),
            Routed::Query => query.as_str(),
        };
        let t = Instant::now();
        let resp = router.get(target);
        ctx.spans.record(0, "bench.request", t, Instant::now());
        let ok = resp
            .as_ref()
            .is_ok_and(|r| r.status == 200 && !r.body.is_empty());
        if !ok {
            failures.note(target, &resp);
        } else if i % ROUTED_CHECK_EVERY == 0 && matches!(requests[i as usize], Routed::Cell(_)) {
            let body = resp.expect("ok").body_str().into_owned();
            checks.lock().expect("check list lock").push((i, body));
        }
        ok
    });
    let backend_after = backend.scrape()?;
    let router_after = router.scrape()?;
    m.peak_rss_kb = (backend.peak_rss_kb().unwrap_or(0) + router.peak_rss_kb().unwrap_or(0)) as f64;
    router.stop()?;
    backend.stop()?;

    let (mut cell_samples, mut query_samples) = (Vec::new(), Vec::new());
    for (s, r) in samples.iter().zip(&requests) {
        match r {
            Routed::Cell(_) => cell_samples.push(*s),
            Routed::Query => query_samples.push(*s),
        }
    }

    let checks = checks.into_inner().expect("check list lock");
    let wrong = checks
        .iter()
        .filter(|(i, body)| match &requests[*i as usize] {
            Routed::Cell(c) => !matches_oracle(&oracle, c, body),
            Routed::Query => false,
        })
        .count() as u64;

    let end = samples.iter().map(|s| s.done).max().unwrap_or(start);
    let late = samples
        .iter()
        .filter(|s| s.lateness() > loadgen::LATE)
        .count();
    let lateness: Vec<f64> = samples
        .iter()
        .map(|s| s.lateness().as_secs_f64() * 1e3)
        .collect();
    m.attempted = samples.len() as u64;
    m.failed = samples.iter().filter(|s| !s.ok).count() as u64 + wrong;
    m.latency_ms = ok_latencies(&cell_samples);
    m.ops = cell_samples.len() as u64;
    m.op_ns = samples
        .iter()
        .map(|s| (s.done - s.sent).as_nanos() as f64)
        .sum();
    m.throughput_per_s =
        samples.iter().filter(|s| s.ok).count() as f64 / (end - start).as_secs_f64();
    m.store_rows = backend_after.delta(&backend_before, "runner.measurements") as usize;
    let query_ms = ok_latencies(&query_samples);
    m.notes.push(format!(
        "open loop at {ROUTED_RATE} req/s: {} cells, {} queries (query p50 {:.3} ms); generator lateness p50 {:.3} ms, max {:.3} ms, {late} sent >1 ms late",
        cell_samples.len(),
        query_samples.len(),
        p50(&query_ms),
        p50(&lateness),
        lateness.iter().copied().fold(0.0, f64::max),
    ));
    m.notes.push(format!(
        "oracle: {} of {} sampled cells bit-identical",
        checks.len() as u64 - wrong,
        checks.len()
    ));
    if ctx.spans.on() {
        let ops = m.ops.max(1);
        let client_ms = mean_service_ms(&cell_samples);
        let mean_ms = |after: &Scrape, before: &Scrape, name: &str| {
            after.mean_ms_since(before, name).unwrap_or(0.0)
        };
        let hop_ms = mean_ms(&router_after, &router_before, "router.latency./v1/cell")
            - mean_ms(&backend_after, &backend_before, "serve.latency./v1/cell");
        let mut layers = serving_layers(&backend_before, &backend_after, m.ops, client_ms);
        let rd = |name: &str| router_after.delta(&router_before, name);
        layers.extend([
            (
                "router.hop_share".to_owned(),
                hop_ms / client_ms.max(f64::MIN_POSITIVE),
                ops,
            ),
            ("router.requests".to_owned(), rd("router.requests"), ops),
            ("router.cache_hits".to_owned(), rd("router.cache_hits"), ops),
            ("router.hedges".to_owned(), rd("router.hedges"), ops),
            (
                "router.local_fallbacks".to_owned(),
                rd("router.local_fallbacks"),
                ops,
            ),
            (
                "router.backend_io_errors".to_owned(),
                rd("router.backend_io_errors"),
                ops,
            ),
            (
                "bench.late_frac".to_owned(),
                late as f64 / samples.len().max(1) as f64,
                samples.len() as u64,
            ),
        ]);
        m.layers = layers;
    }
    Ok(m)
}
