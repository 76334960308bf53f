//! Integration tests for distributed tracing across the shard
//! topology: real sockets, real span stores, in-process handles so the
//! tests can read the persisted span tables directly.
//!
//! The guarantees under test:
//!
//! 1. **Hostile headers** -- a malformed/truncated/adversarial
//!    `x-lhr-trace` header is counted and ignored; the request is
//!    served normally, never a 400 or a panic.
//! 2. **Propagation** -- a traced request through the router yields one
//!    stitched multi-process tree: router request + attempt spans,
//!    backend request span, and the simulation spans under it, with
//!    correct parentage, retrievable from `GET /v1/trace/<id>`.
//! 3. **Hedging** -- the two legs of a hedged request share one trace
//!    id but record distinct attempt span ids.
//! 4. **Coalescing** -- a follower's mark links the leader's trace id.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_obs::context;
use lhr_serve::shard::RouterConfig;
use lhr_serve::{start_router, HealthState, ServerConfig, ServerHandle, Telemetry};
use lhr_store::SamplingConfig;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lhr-tracing-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_harness(telemetry: &Telemetry) -> Harness {
    let runner = Runner::fast()
        .with_cell_cache(Arc::new(ShardedLruCache::new(256, 4)))
        .with_observer(telemetry.obs());
    Harness::new(runner).with_workloads(Harness::quick_set())
}

/// Boots a backend with a span store armed; returns the handle and its
/// telemetry (for reading counters and the span table).
fn boot_backend(store: &str) -> (ServerHandle, Telemetry) {
    let telemetry = Telemetry::default()
        .with_span_store(temp_dir(store), store, SamplingConfig::default())
        .expect("open span store");
    let harness = quick_harness(&telemetry);
    let handle =
        lhr_serve::start(ServerConfig::default(), harness, telemetry.clone()).expect("bind");
    (handle, telemetry)
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let resp = lhr_serve::httpc::get(addr, target, Duration::from_secs(120)).expect("exchange");
    (resp.status, resp.body_str().into_owned())
}

fn traced_get(addr: SocketAddr, target: &str, header: &str) -> (u16, String) {
    let resp = lhr_serve::httpc::get_with_headers(
        addr,
        target,
        &[("x-lhr-trace", header)],
        Duration::from_secs(120),
    )
    .expect("exchange");
    (resp.status, resp.body_str().into_owned())
}

fn wait_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn hostile_trace_headers_are_counted_never_rejected() {
    let (backend, telemetry) = boot_backend("backend-hostile");
    let addr = backend.addr();
    let hostile = [
        "garbage",
        "00-",
        "00-00000000000000000000000000000000-0000000000000008-01", // zero trace
        "00-zzzz0000000000000000000000000007-0000000000000008-01", // non-hex
        "00-00000000000000000000000000000007-0000000000000008",    // truncated
        "01-00000000000000000000000000000007-0000000000000008-01", // bad version
    ];
    for (i, h) in hostile.iter().enumerate() {
        let (status, body) = traced_get(addr, "/healthz", h);
        assert_eq!(status, 200, "hostile header {h:?} must not break serving: {body}");
        let snap = telemetry.memory.snapshot();
        assert_eq!(
            snap.counter("trace.header_invalid"),
            (i + 1) as u64,
            "each hostile header increments the counter exactly once"
        );
    }

    // A valid header joins the trace instead: no counter increment, and
    // the request's spans persist under the caller's trace id.
    let trace = context::next_trace_id();
    let header = context::render_trace_header(trace, 0, 1);
    let (status, _) = traced_get(addr, "/healthz", &header);
    assert_eq!(status, 200);
    let snap = telemetry.memory.snapshot();
    assert_eq!(snap.counter("trace.header_invalid"), hostile.len() as u64);
    let spans = telemetry.spans.as_ref().expect("span store armed");
    wait_until("joined trace persisted", || {
        !spans.table().trace_rows(trace).is_empty()
    });
    let rows = spans.table().trace_rows(trace);
    assert!(
        rows.iter().any(|r| r.name == "serve.request./healthz"),
        "{rows:?}"
    );
    drop(backend);
}

#[test]
fn routed_cell_yields_one_stitched_multi_process_tree() {
    let (b0, _t0) = boot_backend("backend-stitch-0");
    let (b1, _t1) = boot_backend("backend-stitch-1");
    let router_telemetry = Telemetry::default()
        .with_span_store(temp_dir("router-stitch"), "router", SamplingConfig::default())
        .expect("open span store");
    let config = RouterConfig {
        backends: vec![b0.addr(), b1.addr()],
        route_cache: 0,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        connect_timeout: Duration::from_millis(150),
        retry_backoff: Duration::from_millis(5),
        ..RouterConfig::default()
    };
    let router = start_router(config, None, router_telemetry.clone()).expect("bind router");
    wait_until("all backends Up", || {
        router
            .state()
            .backends()
            .iter()
            .all(|b| b.health() == HealthState::Up)
    });
    let addr = router.addr();

    // A cold cell through the router, under a client-minted trace id.
    let trace = context::next_trace_id();
    let header = context::render_trace_header(trace, 0, 1);
    let (status, body) = traced_get(addr, "/v1/cell?chip=i7-45&workload=jess", &header);
    assert_eq!(status, 200, "{body}");

    // The router's fragment lands once the request span closes; the
    // backend's landed before it answered.
    wait_until("router fragment persisted", || {
        router_telemetry
            .spans
            .as_ref()
            .expect("armed")
            .table()
            .trace_rows(trace)
            .iter()
            .any(|r| r.name.starts_with("router.request"))
    });

    // One stitched tree from the router: router spans + the backend's
    // fragment (fetched live), with the simulation spans nested inside.
    let (status, tree) = http_get(addr, &format!("/v1/trace/{trace:032x}"));
    assert_eq!(status, 200, "{tree}");
    for needle in [
        "router.request./v1/cell",
        "router.attempt",
        "serve.request./v1/cell",
        "runner.measure",
    ] {
        assert!(tree.contains(needle), "missing {needle} in {tree}");
    }
    // Correct parentage: exactly one root (the router's request span).
    assert_eq!(
        tree.matches("\"parent\":0,").count(),
        1,
        "one coherent tree, zero orphan fragments: {tree}"
    );

    // The search endpoint surfaces the trace too.
    let (status, list) = http_get(addr, "/v1/traces?name=router.request&limit=10");
    assert_eq!(status, 200, "{list}");
    assert!(list.contains(&format!("{trace:032x}")), "{list}");

    // Unknown and malformed ids are typed errors.
    let (status, _) = http_get(addr, "/v1/trace/00000000000000000000000000000000");
    assert_eq!(status, 404);
    let (status, _) = http_get(addr, "/v1/trace/not-hex");
    assert_eq!(status, 400);

    drop(router);
    drop(b0);
    drop(b1);
}

#[test]
fn hedged_legs_share_the_trace_but_not_the_span_id() {
    let (b0, _t0) = boot_backend("backend-hedge-0");
    let (b1, _t1) = boot_backend("backend-hedge-1");
    let router_telemetry = Telemetry::default()
        .with_span_store(temp_dir("router-hedge"), "router", SamplingConfig::default())
        .expect("open span store");
    // Backends never leave Suspect (up_after unreachable), and the
    // hedge fires immediately: every forwarded request races two legs.
    let config = RouterConfig {
        backends: vec![b0.addr(), b1.addr()],
        route_cache: 0,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        connect_timeout: Duration::from_millis(150),
        hedge_after: Duration::from_millis(0),
        health: lhr_serve::shard::HealthPolicy {
            up_after: u32::MAX,
            ..Default::default()
        },
        ..RouterConfig::default()
    };
    let router = start_router(config, None, router_telemetry.clone()).expect("bind router");
    let addr = router.addr();

    let trace = context::next_trace_id();
    let header = context::render_trace_header(trace, 0, 1);
    let (status, body) = traced_get(addr, "/v1/cell?chip=i7-45&workload=jess", &header);
    assert_eq!(status, 200, "{body}");

    // Both legs eventually close and the fragment flushes. The losing
    // leg can outlive the request span, so poll.
    let spans = router_telemetry.spans.as_ref().expect("armed");
    wait_until("both hedge legs persisted", || {
        spans
            .table()
            .trace_rows(trace)
            .iter()
            .filter(|r| r.name == "router.attempt")
            .count()
            >= 2
    });
    let attempts: Vec<_> = spans
        .table()
        .trace_rows(trace)
        .into_iter()
        .filter(|r| r.name == "router.attempt")
        .collect();
    assert!(attempts.len() >= 2, "{attempts:?}");
    assert!(
        attempts.iter().all(|r| r.trace == trace),
        "one trace id across the race: {attempts:?}"
    );
    let mut ids: Vec<u64> = attempts.iter().map(|r| r.span).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(
        ids.len(),
        attempts.len(),
        "each leg mints its own span id: {attempts:?}"
    );

    drop(router);
    drop(b0);
    drop(b1);
}
