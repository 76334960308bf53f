//! Integration tests for the shard tier: real backends and a real
//! router on real sockets, all in-process so tests can inspect health
//! FSMs and breakers directly.
//!
//! The guarantees under test:
//!
//! 1. **Routing** -- requests proxy through to backends with status,
//!    body, and typed errors intact, and repeated queries are
//!    byte-identical (response cache or not).
//! 2. **Failover** -- killing a backend never surfaces a 5xx: the
//!    ring's fallback candidate answers while probes walk the victim
//!    Up -> Suspect -> Down.
//! 3. **Graceful degradation** -- with every backend unreachable the
//!    router computes answers on its local fallback harness, or sheds
//!    an honest 503 when booted without one.
//! 4. **Topology** -- `POST /admin/backends` swaps the backend set
//!    live; joiners start Suspect and probe their way Up.
//! 5. **Aggregation** -- `/healthz` reports per-backend health,
//!    breaker, and probe latency; campaigns are a typed 501.
//! 6. **Drain** -- an idle router's blocked accept wakes for every
//!    drain path without counting the wake.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_obs::MemoryRecorder;
use lhr_serve::shard::{RouterConfig, RouterHandle};
use lhr_serve::{start_router, HealthState, ServerConfig, ServerHandle, Telemetry};

fn quick_harness(telemetry: &Telemetry) -> Harness {
    let runner = Runner::fast()
        .with_cell_cache(Arc::new(ShardedLruCache::new(256, 4)))
        .with_observer(telemetry.obs());
    Harness::new(runner).with_workloads(Harness::quick_set())
}

fn boot_backend() -> ServerHandle {
    let telemetry = Telemetry::default();
    let harness = quick_harness(&telemetry);
    lhr_serve::start(ServerConfig::default(), harness, telemetry).expect("bind backend")
}

/// A router tuned for tests: fast probes, tight connect timeout so a
/// dead backend costs milliseconds, not the kernel's default.
fn router_config(backends: Vec<SocketAddr>, route_cache: usize) -> RouterConfig {
    RouterConfig {
        backends,
        route_cache,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        connect_timeout: Duration::from_millis(150),
        retry_backoff: Duration::from_millis(5),
        ..RouterConfig::default()
    }
}

fn boot_router(
    config: RouterConfig,
    with_fallback: bool,
) -> (RouterHandle, Arc<MemoryRecorder>) {
    let telemetry = Telemetry::default();
    let recorder = Arc::clone(&telemetry.memory);
    let fallback = with_fallback.then(|| quick_harness(&telemetry));
    let handle = start_router(config, fallback, telemetry).expect("bind router");
    (handle, recorder)
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
    let resp = lhr_serve::httpc::exchange(addr, raw.as_bytes(), Duration::from_secs(120))
        .expect("http exchange");
    (resp.status, resp.body_str().into_owned())
}

fn http_post(addr: SocketAddr, target: &str) -> (u16, String) {
    let raw = format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
    let resp = lhr_serve::httpc::exchange(addr, raw.as_bytes(), Duration::from_secs(120))
        .expect("http exchange");
    (resp.status, resp.body_str().into_owned())
}

/// Polls `check` until it returns true or five seconds pass.
fn wait_until(what: &str, check: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

fn wait_all_up(router: &RouterHandle) {
    wait_until("all backends Up", || {
        let backends = router.state().backends();
        !backends.is_empty() && backends.iter().all(|b| b.health() == HealthState::Up)
    });
}

/// An address that refuses connections immediately: bind, read the
/// port, drop the listener.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    drop(listener);
    addr
}

#[test]
fn router_proxies_queries_and_typed_errors_byte_identically() {
    let b0 = boot_backend();
    let b1 = boot_backend();
    let (router, recorder) = boot_router(router_config(vec![b0.addr(), b1.addr()], 64), false);
    wait_all_up(&router);
    let addr = router.addr();

    // Probes have converged: the aggregate is ok, every member is up
    // with a closed breaker and a measured probe latency.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"role\":\"router\""), "{body}");
    assert_eq!(body.matches("\"health\":\"up\"").count(), 2, "{body}");
    assert_eq!(body.matches("\"breaker\":\"closed\"").count(), 2, "{body}");
    assert!(!body.contains("\"last_probe_ms\":null"), "{body}");

    // A measured cell proxies through; a repeat is byte-identical
    // (the second hit comes from the router's response cache).
    let target = "/v1/cell?chip=i7-45&workload=jess";
    let (status, first) = http_get(addr, target);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"workload\":\"jess\""));
    let (status, second) = http_get(addr, target);
    assert_eq!(status, 200);
    assert_eq!(first, second, "routed responses must be byte-identical");
    let snap = recorder.snapshot();
    assert!(snap.counter("router.cache_hits") >= 1, "{}", snap.render());

    // Typed validation errors pass through untouched; they settle the
    // request, so they never trip failover.
    let (status, body) = http_get(addr, "/v1/cell?chip=z80&workload=jess");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("unknown_chip"), "{body}");
    let (status, body) = http_get(addr, "/v1/findings");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"holds\""), "{body}");

    // Campaigns journal on a single node: the router says so, typed.
    let (status, body) = http_post(addr, "/v1/campaigns?tenant=t&chips=i7-45");
    assert_eq!(status, 501, "{body}");
    assert!(body.contains("campaigns_not_sharded"), "{body}");

    drop(router);
    drop(b0);
    drop(b1);
}

#[test]
fn posted_queries_forward_to_a_stored_backend_byte_for_byte() {
    let store = std::env::temp_dir().join(format!("lhr-shard-query-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let telemetry = Telemetry::default();
    let harness = quick_harness(&telemetry);
    let config = ServerConfig {
        store_dir: Some(store.clone()),
        ..ServerConfig::default()
    };
    let backend = lhr_serve::start(config, harness, telemetry).expect("bind backend");
    let (router, _) = boot_router(router_config(vec![backend.addr()], 64), false);
    wait_all_up(&router);
    let addr = router.addr();
    let post = |to: SocketAddr, target: &str, body: &str| {
        lhr_serve::httpc::post_body(to, target, body, Duration::from_secs(120))
            .expect("http exchange")
    };

    // Cells routed to the backend land in its store.
    for w in ["jess", "db"] {
        let (status, body) = http_get(addr, &format!("/v1/cell?chip=i7-45&workload={w}"));
        assert_eq!(status, 200, "{body}");
    }
    let query = "# mean power per workload\ngroup_by workload\n| agg mean(watts), max(perf_norm)\n";
    for target in ["/v1/query", "/v1/query?format=json"] {
        let direct = post(backend.addr(), target, query);
        let routed = post(addr, target, query);
        assert_eq!(direct.status, 200, "{}", direct.body_str());
        assert_eq!(routed.status, direct.status, "{}", routed.body_str());
        assert_eq!(routed.content_type(), direct.content_type());
        assert_eq!(
            routed.body, direct.body,
            "{target}: the router must not touch the body"
        );
    }
    // A typed 400 passes through the same way.
    let direct = post(backend.addr(), "/v1/query", "group_by nope | frobnicate");
    let routed = post(addr, "/v1/query", "group_by nope | frobnicate");
    assert_eq!((routed.status, &routed.body), (400, &direct.body));

    // Query answers stay out of the route cache: a new cell shows up in
    // the next answer.
    let before = post(addr, "/v1/query", query).body;
    let (status, _) = http_get(addr, "/v1/cell?chip=i7-45&workload=mcf");
    assert_eq!(status, 200);
    let after = post(addr, "/v1/query", query);
    assert_ne!(after.body, before, "a cached query would miss the new cell");
    assert!(after.body_str().contains("mcf"), "{}", after.body_str());

    drop(router);
    drop(backend);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn killing_a_backend_never_surfaces_a_5xx() {
    let b0 = boot_backend();
    let b1 = boot_backend();
    let victim_addr = b0.addr();
    // No response cache: every request must genuinely route.
    let (router, recorder) = boot_router(router_config(vec![b0.addr(), b1.addr()], 0), false);
    wait_all_up(&router);
    let addr = router.addr();

    // Kill one backend mid-service (drop drains it and closes the
    // listener). From the first request after the kill, the ring's
    // other candidate must answer -- health probes take a few rounds
    // to notice, so early requests exercise the io-error retry path.
    drop(b0);
    let workloads = ["jess", "db", "mcf", "hmmer", "gobmk", "avrora"];
    for w in &workloads {
        let (status, body) = http_get(addr, &format!("/v1/cell?chip=i7-45&workload={w}"));
        assert!(status < 500, "workload {w} saw a {status}: {body}");
        assert_eq!(status, 200, "workload {w}: {body}");
    }

    // The probes converge on the truth: victim Down, survivor Up.
    wait_until("victim marked Down", || {
        router
            .state()
            .backends()
            .iter()
            .any(|b| b.addr() == victim_addr && b.health() == HealthState::Down)
    });
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"health\":\"down\""), "{body}");

    // With the victim Down, routing skips it outright and keeps serving.
    let (status, _) = http_get(addr, "/v1/cell?chip=atom-45&workload=jess");
    assert_eq!(status, 200);
    let snap = recorder.snapshot();
    assert!(
        snap.counter("router.backend_io_errors") + snap.counter("router.skip_down") >= 1,
        "the kill must be visible in the counters: {}",
        snap.render()
    );

    drop(router);
    drop(b1);
}

#[test]
fn local_fallback_serves_when_every_backend_is_unreachable() {
    let (router, recorder) = boot_router(router_config(vec![dead_addr(), dead_addr()], 0), true);
    let addr = router.addr();

    let (status, body) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200, "local fallback must answer: {body}");
    assert!(body.contains("\"workload\":\"jess\""), "{body}");
    let snap = recorder.snapshot();
    assert!(snap.counter("router.local_fallbacks") >= 1, "{}", snap.render());

    // The aggregate is honest about it: degraded, not ok.
    let (_, body) = http_get(addr, "/healthz");
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"local_fallback\":true"), "{body}");
    drop(router);
}

#[test]
fn without_fallback_an_unreachable_fleet_sheds_an_honest_503() {
    let (router, recorder) = boot_router(router_config(vec![dead_addr()], 0), false);
    let addr = router.addr();

    // Let the probes mark the only backend Down first.
    wait_until("backend Down", || {
        router
            .state()
            .backends()
            .iter()
            .all(|b| b.health() == HealthState::Down)
    });
    let (status, body) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("overloaded"), "{body}");
    let snap = recorder.snapshot();
    assert!(snap.counter("router.no_backend_503") >= 1, "{}", snap.render());

    let (_, body) = http_get(addr, "/healthz");
    assert!(body.contains("\"status\":\"down\""), "{body}");
    drop(router);
}

#[test]
fn admin_backends_swaps_the_topology_live() {
    let b0 = boot_backend();
    let (router, recorder) = boot_router(router_config(vec![b0.addr()], 0), false);
    wait_all_up(&router);
    let addr = router.addr();

    // A joiner enters Suspect ("parole, not trust") and probes its way
    // Up; the kept member keeps its Up state across the swap.
    let b1 = boot_backend();
    let (status, body) = http_post(
        addr,
        &format!("/admin/backends?set={},{}", b0.addr(), b1.addr()),
    );
    assert_eq!(status, 200, "{body}");
    let kept = router
        .state()
        .backends()
        .iter()
        .find(|b| b.addr() == b0.addr())
        .expect("kept backend")
        .health();
    assert_eq!(kept, HealthState::Up, "a kept backend keeps its health");
    wait_all_up(&router);
    let (_, body) = http_get(addr, "/healthz");
    assert_eq!(body.matches("\"health\":\"up\"").count(), 2, "{body}");

    // Queries keep working through the new topology.
    let (status, _) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200);
    let snap = recorder.snapshot();
    assert!(snap.counter("router.topology_changes") >= 1, "{}", snap.render());

    // Validation is typed; the topology is untouched on a bad set.
    let (status, body) = http_post(addr, "/admin/backends");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("missing_param"), "{body}");
    let (status, body) = http_post(addr, "/admin/backends?set=not-an-addr");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_backend"), "{body}");
    assert_eq!(router.state().backends().len(), 2);

    // Drain over HTTP, then wait() returns.
    let (status, body) = http_post(addr, "/admin/drain");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"draining\":true"), "{body}");
    router.wait();
    drop(b0);
    drop(b1);
}

#[test]
fn an_idle_router_drains_by_every_path_without_counting_the_wake() {
    for path in ["drain()", "POST /admin/drain", "drop"] {
        let (handle, recorder) = boot_router(router_config(Vec::new(), 0), false);
        // No client ever connects: the accept thread is blocked.
        std::thread::sleep(Duration::from_millis(50));
        let (done, drained) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            match path {
                "drain()" => {
                    handle.drain();
                    handle.wait();
                }
                "POST /admin/drain" => {
                    let (status, _) = http_post(handle.addr(), "/admin/drain");
                    assert_eq!(status, 200);
                    handle.wait();
                }
                _ => drop(handle),
            }
            let _ = done.send(());
        });
        drained
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{path}: not drained within 2 s"));
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counter("router.drained"),
            1,
            "{path}: {}",
            snap.render()
        );
        // The wake connection moves no connection counter: only the
        // drain request itself, when it was one, is counted.
        let requests = u64::from(path == "POST /admin/drain");
        assert_eq!(snap.counter("router.accepted"), requests, "{path}");
        assert_eq!(snap.counter("router.requests"), requests, "{path}");
        assert_eq!(snap.counter("router.disconnects"), 0, "{path}");
        assert_eq!(snap.counter("router.timeout"), 0, "{path}");
    }
}
