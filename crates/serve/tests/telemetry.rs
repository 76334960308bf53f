//! Integration tests for the live-telemetry layer: Prometheus
//! exposition on `/v1/metrics`, windowed series on
//! `/v1/metrics/timeseries`, SLO reporting in `/healthz`, drain-time
//! bucket sealing (admin endpoint and real `SIGTERM`), and end-to-end
//! request tracing into a JSON-lines file.
//!
//! The signal-drain test flips a process-global flag, so every test
//! that boots a server serializes on one lock.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_obs::{prom, SloConfig, TimeSeriesConfig};
use lhr_serve::{signal, ServerConfig, ServerHandle, Telemetry};

/// Serializes server boots within this test binary: the signal test
/// sets the process-global drain flag, which would drain any other live
/// server mid-test.
static SERVER_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A coarse time-series geometry (one-minute buckets) so a test that
/// takes milliseconds never straddles an interval boundary.
fn coarse_telemetry() -> Telemetry {
    Telemetry::new(
        TimeSeriesConfig {
            window: Duration::from_secs(3600),
            resolution: Duration::from_secs(60),
        },
        SloConfig::default(),
    )
}

fn boot(telemetry: Telemetry) -> ServerHandle {
    let runner = Runner::fast()
        .with_cell_cache(Arc::new(ShardedLruCache::new(256, 4)))
        .with_observer(telemetry.obs());
    let harness = Harness::new(runner).with_workloads(Harness::quick_set());
    lhr_serve::start(ServerConfig::default(), harness, telemetry).expect("bind")
}

/// All exchanges go through the hardened `lhr_serve::httpc` client:
/// `Content-Length` is validated, so a torn response fails loudly.
fn http_request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let resp = lhr_serve::httpc::exchange(addr, raw.as_bytes(), Duration::from_secs(120))
        .expect("http exchange");
    use std::fmt::Write as _;
    let mut text = format!("HTTP/1.1 {}\r\n", resp.status);
    for (name, value) in &resp.headers {
        let _ = write!(text, "{name}: {value}\r\n");
    }
    text.push_str("\r\n");
    text.push_str(&resp.body_str());
    (resp.status, text)
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    http_request(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn header_of<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    response.split("\r\n\r\n").next()?.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn v1_metrics_negotiates_the_prometheus_exposition() {
    let _guard = serialized();
    let handle = boot(coarse_telemetry());
    let addr = handle.addr();

    // Generate traffic so the scrape has RED series to show.
    for _ in 0..3 {
        let (status, _) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
    }
    let (status, _) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200);

    // Default profile: the human-readable text render, not Prometheus.
    let (status, text) = http_get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert!(body_of(&text).contains("serve.requests"), "{text}");
    assert!(!body_of(&text).contains("# TYPE"), "{text}");

    // A Prometheus scraper's Accept header switches the exposition on.
    let (status, text) = http_request(
        addr,
        "GET /v1/metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(
        header_of(&text, "Content-Type")
            .is_some_and(|ct| ct.contains("version=0.0.4")),
        "{text}"
    );
    let exposition = prom::parse_exposition(body_of(&text)).expect("well-formed exposition");
    assert_eq!(exposition.type_of("serve_requests"), Some("counter"));
    assert!(exposition.value("serve_requests").unwrap() >= 4.0);
    assert_eq!(exposition.type_of("serve_latency__healthz"), Some("summary"));
    let healthz_quantiles: Vec<_> = exposition
        .samples
        .iter()
        .filter(|s| s.name == "serve_latency__healthz" && s.labels.contains("quantile"))
        .collect();
    assert_eq!(healthz_quantiles.len(), 3, "p50/p95/p99 exported");
    assert_eq!(exposition.value("lhr_trace_write_errors"), Some(0.0));

    // `?format=prometheus` works without any Accept header, on the
    // legacy path too.
    let (status, text) = http_get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    let exposition = prom::parse_exposition(body_of(&text)).expect("well-formed exposition");
    assert!(exposition.value("runner_measurements").is_some());
    drop(handle);
}

#[test]
fn timeseries_endpoint_reports_red_series() {
    let _guard = serialized();
    let handle = boot(coarse_telemetry());
    let addr = handle.addr();

    for _ in 0..5 {
        let (status, _) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
    }
    let (status, text) = http_get(addr, "/v1/metrics/timeseries");
    assert_eq!(status, 200);
    let body = body_of(&text);
    assert!(body.contains("\"resolution_seconds\":60"), "{body}");
    // Rate: the request counter series, with all five requests in its
    // bucket (the sixth request is still in flight while it renders).
    assert!(body.contains("\"name\":\"serve.req./healthz\""), "{body}");
    // Duration: the latency distribution with whole-window quantiles.
    let latency = body
        .split("\"name\":\"serve.latency./healthz\"")
        .nth(1)
        .expect("latency series present");
    let latency_obj = latency.split("]}").next().unwrap();
    assert!(latency_obj.contains("\"kind\":\"distribution\""), "{body}");
    assert!(latency_obj.contains("\"p50\":"), "{body}");
    assert!(latency_obj.contains("\"p99\":"), "{body}");
    drop(handle);
}

#[test]
fn healthz_reports_the_slo_block() {
    let _guard = serialized();
    let handle = boot(coarse_telemetry());
    let addr = handle.addr();

    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, text) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let body = body_of(&text);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"slo\":{\"alert\":\"ok\""), "{body}");
    assert!(body.contains("\"availability_burn\":{\"short\":"), "{body}");
    assert!(body.contains("\"latency_burn\":{\"short\":"), "{body}");
    assert!(body.contains("\"trace_write_errors\":0"), "{body}");
    assert!(body.contains("\"requests_long_window\":"), "{body}");
    drop(handle);
}

#[test]
fn admin_drain_seals_the_final_timeseries_bucket() {
    let _guard = serialized();
    let handle = boot(coarse_telemetry());
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let (status, _) = http_request(addr, "POST /admin/drain HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    handle.wait();

    // The drain advanced the sealing mark strictly past the bucket the
    // final requests landed in: the last partial bucket is sealed
    // history, not a still-open interval.
    let ts = &state.telemetry.timeseries;
    let snap = ts.snapshot();
    assert!(
        ts.sealed_through() > snap.now_index,
        "sealed_through {} must pass the live bucket {}",
        ts.sealed_through(),
        snap.now_index
    );
    // And nothing was lost on the way out: the sealed series still hold
    // the requests that were served.
    let req = snap
        .series
        .iter()
        .find(|s| s.name == "serve.req./healthz")
        .expect("request series survives the drain");
    assert!(req.buckets.iter().map(|b| b.count).sum::<u64>() >= 1);
}

#[test]
fn sigterm_drains_seals_and_flushes_like_the_admin_endpoint() {
    let _guard = serialized();
    signal::reset();
    signal::install();
    let dir = std::env::temp_dir().join(format!("lhr-telemetry-sig-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let telemetry = coarse_telemetry()
        .with_trace_path(&trace_path)
        .expect("open trace");
    let handle = boot(telemetry);
    let addr = handle.addr();
    let state = Arc::clone(handle.state());

    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);

    // A real SIGTERM, delivered by the OS to this process: the handler
    // flips the drain flag the accept loop polls.
    let kill = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("kill -s TERM {}", std::process::id()))
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill must deliver");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !signal::drain_requested() {
        assert!(Instant::now() < deadline, "signal never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.wait();
    signal::reset();

    let ts = &state.telemetry.timeseries;
    assert!(
        ts.sealed_through() > ts.snapshot().now_index,
        "signal drain must seal the final bucket"
    );
    // The flush on the drain path wrote the trace out: the file already
    // holds the request's span events, without any explicit flush here.
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(
        trace.lines().any(|l| l.contains("\"ev\":\"span_start\"")),
        "flushed trace must hold span events: {trace:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Pulls `"field":<u64>` out of a JSON-lines trace line (the trace
/// encoder emits unsigned integers for ids and request numbers).
fn field_u64(line: &str, field: &str) -> Option<u64> {
    let at = line.find(&format!("\"{field}\":"))?;
    let digits: String = line[at + field.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn trace_records_complete_span_trees_per_request() {
    let _guard = serialized();
    let dir = std::env::temp_dir().join(format!("lhr-telemetry-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");
    let telemetry = coarse_telemetry()
        .with_trace_path(&trace_path)
        .expect("open trace");
    let handle = boot(telemetry);
    let addr = handle.addr();

    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    // A cold cell (engine work on the leader's flight) and a warm repeat
    // (cache hit) both belong to their own requests in the trace.
    let (status, _) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200);
    let (status, _) = http_request(addr, "POST /admin/drain HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    handle.wait();

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let mut span_ids = std::collections::HashSet::new();
    let mut starts = Vec::new(); // (id, parent, request)
    let mut ended = std::collections::HashSet::new();
    for line in trace.lines() {
        if line.contains("\"ev\":\"span_start\"") {
            let id = field_u64(line, "id").expect("span_start carries id");
            span_ids.insert(id);
            starts.push((
                id,
                field_u64(line, "parent").unwrap_or(0),
                field_u64(line, "req").unwrap_or(0),
            ));
        } else if line.contains("\"ev\":\"span_end\"") {
            ended.insert(field_u64(line, "id").expect("span_end carries id"));
        }
    }

    // Completeness: every opened span closed (the drain flushed the
    // tail), and every child points at a span that exists.
    assert!(!starts.is_empty(), "trace must hold spans: {trace:?}");
    for (id, parent, _) in &starts {
        assert!(ended.contains(id), "span {id} never ended");
        if *parent != 0 {
            assert!(span_ids.contains(parent), "span {id} orphaned from {parent}");
        }
    }
    // End-to-end attribution: the serve-layer request spans carry their
    // minted request ids, and at least four distinct requests traced
    // (healthz, two cells, the drain).
    let tagged: std::collections::HashSet<u64> = starts
        .iter()
        .filter(|(_, _, req)| *req != 0)
        .map(|(_, _, req)| *req)
        .collect();
    assert!(tagged.len() >= 4, "distinct traced requests: {tagged:?}");
    assert!(
        trace.lines().any(|l| l.contains("serve.request./v1/cell") && l.contains("\"req\":")),
        "cell request span must be request-tagged: {trace:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
