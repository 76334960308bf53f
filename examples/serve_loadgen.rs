//! Closed-loop load generator for the serving layer.
//!
//! Boots an in-process `lhr-serve` server, drives it with a fixed pool
//! of closed-loop clients (each fires its next request the moment the
//! previous response lands) over a mixed request set, then reports
//! throughput and the latency distribution.
//!
//! ```text
//! cargo run --release --example serve_loadgen [clients] [seconds] [trace-path]
//!     [--target ADDR] [--traced]
//! ```
//!
//! Defaults: 8 clients, 3 seconds. Because the clients hammer a small
//! set of distinct cells, the run demonstrates the serving machinery
//! end to end: the first touch of each cell pays a simulation, every
//! concurrent duplicate coalesces onto it, and the rest are cache hits
//! -- visible in the obs counters printed at the end. With a third
//! argument, every event (request-tagged spans included) also streams
//! to that JSON-lines trace file, ready for `lhr_traceview`.
//!
//! `--target ADDR` skips the in-process server and drives an already
//! running one (a router or a backend) instead; the server-side
//! telemetry sections are then omitted, since the server's state lives
//! in another process. `--traced` mints a fresh 128-bit trace id per
//! request and sends it as `x-lhr-trace`, so every request lands in the
//! target's span store as a distributed trace; the run prints a sample
//! trace id for `GET /v1/trace/<id>` or `lhr_traceview --span-store`.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_serve::httpc;
use lhr_serve::{ServerConfig, Telemetry};

/// The request mix: mostly hot cells, some cold, some cheap endpoints,
/// and one stored query aggregating whatever cells the sink has
/// persisted so far (the `POST` prefix selects the method below).
const TARGETS: [&str; 7] = [
    "/v1/cell?chip=i7-45&workload=jess",
    "/v1/cell?chip=i7-45&workload=mcf",
    "/v1/cell?chip=atom-45&workload=jess",
    "/v1/cell?chip=c2d-45&workload=swaptions",
    "/healthz",
    "/v1/cell?chip=i7-45&config=2C1T@2.0&workload=jess",
    "POST /v1/query",
];

/// The DSL text the query slice of the mix posts.
const QUERY: &str = "group_by chip, group | agg mean(perf_norm), mean(watts) | sort mean(watts) desc";

/// A 503 is backpressure, not an error to hammer through: a well-behaved
/// client honors the server's `Retry-After` hint (capped so a stray
/// large value cannot stall the run) before firing again.
fn request(
    addr: SocketAddr,
    target: &str,
    traced: bool,
    stop: &AtomicBool,
) -> Result<(u16, u128), httpc::ClientError> {
    let timeout = Duration::from_secs(120);
    let mut trace = 0u128;
    let resp = match target.strip_prefix("POST ") {
        Some(t) => httpc::post_body(addr, t, QUERY, timeout)?,
        None if traced => {
            trace = lhr_obs::context::next_trace_id();
            let header = lhr_obs::context::render_trace_header(trace, 0, 1);
            httpc::get_with_headers(addr, target, &[("x-lhr-trace", &header)], timeout)?
        }
        None => httpc::get(addr, target, timeout)?,
    };
    if resp.status == 503 {
        let hint = Duration::from_secs(resp.retry_after_secs().unwrap_or(1).min(1));
        let until = Instant::now() + hint;
        while Instant::now() < until && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    Ok((resp.status, trace))
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut external: Option<SocketAddr> = None;
    let mut traced = false;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--target" => {
                let addr = it.next().expect("--target needs host:port");
                external = Some(addr.parse().expect("--target must be host:port"));
            }
            "--traced" => traced = true,
            other => positional.push(other.to_owned()),
        }
    }
    let clients: usize = positional
        .first()
        .map(|a| a.parse().expect("clients must be a number"))
        .unwrap_or(8);
    let seconds: u64 = positional
        .get(1)
        .map(|a| a.parse().expect("seconds must be a number"))
        .unwrap_or(3);
    let trace = positional.get(2).cloned();

    let mut telemetry = Telemetry::default();
    if let Some(path) = &trace {
        telemetry = telemetry.with_trace_path(path).expect("open trace file");
        println!("loadgen: tracing every event to {path}");
    }
    // External mode drives a server someone else booted; in-process mode
    // (the default) owns the whole stack so it can print server-side
    // telemetry at the end.
    let mut handle = None;
    let mut store_dir = None;
    let addr = match external {
        Some(addr) => addr,
        None => {
            let runner = Runner::fast()
                .with_cell_cache(Arc::new(ShardedLruCache::new(512, 8)))
                .with_observer(telemetry.obs());
            let harness = Harness::new(runner).with_workloads(Harness::quick_set());
            // A scratch measurement store so the query slice of the mix
            // runs against cells the sink persists as cell requests
            // resolve.
            let dir =
                std::env::temp_dir().join(format!("lhr-loadgen-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let h = lhr_serve::start(
                ServerConfig {
                    jobs: clients.max(4),
                    store_dir: Some(dir.clone()),
                    ..ServerConfig::default()
                },
                harness,
                telemetry.clone(),
            )
            .expect("bind loopback");
            store_dir = Some(dir);
            let addr = h.addr();
            handle = Some(h);
            addr
        }
    };
    let mode = if traced { " (traced)" } else { "" };
    println!("loadgen: {clients} closed-loop clients x {seconds}s against http://{addr}{mode}");

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut latencies_us: Vec<u64> = Vec::new();
                let mut errors = 0u64;
                let mut last_trace = 0u128;
                let mut n = i; // stagger the mix across clients
                while !stop.load(Ordering::Relaxed) {
                    let target = TARGETS[n % TARGETS.len()];
                    n += 1;
                    let t0 = Instant::now();
                    match request(addr, target, traced, &stop) {
                        Ok((200, t)) => {
                            latencies_us.push(t0.elapsed().as_micros() as u64);
                            if t != 0 {
                                last_trace = t;
                            }
                        }
                        Ok(_) | Err(_) => errors += 1,
                    }
                }
                (latencies_us, errors, last_trace)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_secs(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut all = Vec::new();
    let mut errors = 0;
    let mut sample_trace = 0u128;
    for w in workers {
        let (lat, err, last_trace) = w.join().expect("client thread");
        all.extend(lat);
        errors += err;
        if last_trace != 0 {
            sample_trace = last_trace;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    all.sort_unstable();
    let pct = |q: f64| -> f64 {
        if all.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
        all[rank - 1] as f64 / 1000.0
    };
    println!(
        "done: {} ok, {} errors in {:.2}s -> {:.0} req/s",
        all.len(),
        errors,
        elapsed,
        all.len() as f64 / elapsed
    );
    println!(
        "latency ms: p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
        pct(0.50),
        pct(0.95),
        pct(0.99),
        pct(1.0)
    );

    if sample_trace != 0 {
        println!("traced: sample trace id {sample_trace:032x} (GET /v1/trace/{sample_trace:032x})");
    }
    let Some(handle) = handle else {
        // External target: the server's telemetry lives in the other
        // process; scrape its /metrics or span store instead.
        return;
    };

    // Graceful drain, then show what the server saw.
    handle.drain();
    handle.wait();
    let snap = telemetry.snapshot();
    println!(
        "server: {} requests, {} coalesce hits, {} cache hits, {} measurements, {} shed, {} queries",
        snap.counter("serve.requests"),
        snap.counter("serve.coalesce_hits"),
        snap.counter("runner.cache_hits"),
        snap.counter("runner.measurements"),
        snap.counter("serve.shed_503"),
        snap.counter("serve.queries"),
    );
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Per-endpoint RED view from the server's own aggregates: rate and
    // errors from the counters, duration quantiles from the histograms.
    println!("server-side RED (per endpoint):");
    for (name, hist) in &snap.histograms {
        let Some(tag) = name.strip_prefix("serve.latency.") else {
            continue;
        };
        let requests = snap.counter(&format!("serve.req.{tag}"));
        let errs = snap.counter(&format!("serve.err.{tag}"));
        println!(
            "  {tag:<24} {requests:>6} req  {errs:>3} err  p50 {:.2}ms  p95 {:.2}ms  p99 {:.2}ms",
            hist.p50() * 1000.0,
            hist.p95() * 1000.0,
            hist.p99() * 1000.0,
        );
    }

    let status = telemetry.slo.status();
    println!(
        "slo: alert={:?} availability burn short/long {:.3}/{:.3}, latency burn {:.3}/{:.3}",
        status.state,
        status.availability.short,
        status.availability.long,
        status.latency.short,
        status.latency.long,
    );
    if trace.is_some() {
        println!("trace written; inspect with: cargo run --release -p lhr-bench --bin lhr_traceview -- <path>");
    }
}
