//! Integration tests for the serving layer: a real server on a real
//! socket, exercised by real TCP clients.
//!
//! The four guarantees under test:
//!
//! 1. **Stampede coalescing** -- N concurrent requests for the same
//!    cell cost exactly one simulation and return byte-identical
//!    bodies, proven through the observability counters.
//! 2. **Admission control** -- a full queue sheds with `503 +
//!    Retry-After`, written from the accept thread.
//! 3. **Fault containment** -- a malformed request costs one `400`,
//!    never a worker.
//! 4. **Graceful drain** -- `POST /admin/drain` stops admission, lets
//!    in-flight work complete, and `wait()` returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_obs::MemoryRecorder;
use lhr_serve::{ServerConfig, ServerHandle, Telemetry};

fn boot(configure: impl FnOnce(&mut ServerConfig)) -> (ServerHandle, Arc<MemoryRecorder>) {
    let telemetry = Telemetry::default();
    let recorder = Arc::clone(&telemetry.memory);
    let runner = Runner::fast()
        .with_cell_cache(Arc::new(ShardedLruCache::new(256, 4)))
        .with_observer(telemetry.obs());
    let harness = Harness::new(runner).with_workloads(Harness::quick_set());
    let mut config = ServerConfig::default();
    configure(&mut config);
    let handle = lhr_serve::start(config, harness, telemetry).expect("bind");
    (handle, recorder)
}

/// One full HTTP exchange: returns (status, whole response text).
fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
    http_request(addr, &format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

/// All exchanges go through the hardened `lhr_serve::httpc` client, so
/// every test response is `Content-Length`-validated: a torn body fails
/// the test as a typed truncation error instead of a confusing
/// assertion on half a payload.
fn http_request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let resp = lhr_serve::httpc::exchange(addr, raw.as_bytes(), Duration::from_secs(120))
        .expect("http exchange");
    (resp.status, rebuild_text(&resp))
}

/// Renders the validated response back into `head\r\n\r\nbody` text so
/// the assertions here keep splitting on the blank line. Header names
/// come back normalized to lowercase.
fn rebuild_text(resp: &lhr_serve::httpc::HttpResponse) -> String {
    use std::fmt::Write as _;
    let mut text = format!("HTTP/1.1 {}\r\n", resp.status);
    for (name, value) in &resp.headers {
        let _ = write!(text, "{name}: {value}\r\n");
    }
    text.push_str("\r\n");
    text.push_str(&resp.body_str());
    text
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

#[test]
fn healthz_metrics_and_validation_errors() {
    let (handle, _recorder) = boot(|_| {});
    let addr = handle.addr();

    let (status, text) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body_of(&text).contains("\"status\":\"ok\""));

    // Validation failures are typed and never cost a simulation.
    let (status, text) = http_get(addr, "/v1/cell?chip=z80&workload=jess");
    assert_eq!(status, 404, "unknown chip: {text}");
    assert!(body_of(&text).contains("unknown_chip"));
    let (status, text) = http_get(addr, "/v1/cell?chip=i7-45&workload=nope");
    assert_eq!(status, 404);
    assert!(body_of(&text).contains("unknown_workload"));
    let (status, text) = http_get(addr, "/v1/cell?chip=i7-45&workload=jess&config=99C9T@9.9");
    assert_eq!(status, 400);
    assert!(body_of(&text).contains("bad_config"));
    let (status, _) = http_get(addr, "/v1/unknown");
    assert_eq!(status, 404);
    let (status, _) = http_request(addr, "GET /admin/drain HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405, "drain is POST-only");

    // The snapshot knows everything that just happened.
    let (status, text) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = body_of(&text);
    assert!(metrics.contains("serve.requests"), "{metrics}");
    assert!(metrics.contains("serve.request./v1/cell"), "{metrics}");
    drop(handle);
}

#[test]
fn stampede_of_identical_requests_costs_one_simulation() {
    let (handle, recorder) = boot(|c| {
        c.jobs = 16;
        c.queue_depth = 64;
    });
    let addr = handle.addr();
    let target = "/v1/cell?chip=i7-45&workload=jess";

    let clients: Vec<_> = (0..16)
        .map(|_| std::thread::spawn(move || http_get(addr, target)))
        .collect();
    let mut bodies = Vec::new();
    for c in clients {
        let (status, text) = c.join().expect("client");
        assert_eq!(status, 200, "{text}");
        bodies.push(body_of(&text).to_owned());
    }
    // Byte-identical: every coalesced requester saw the same rendered body.
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0], "coalesced bodies must be byte-identical");
    }
    assert!(bodies[0].contains("\"workload\":\"jess\""));
    assert!(bodies[0].contains("\"chip\":\"i7 (45)\""));

    let snap = recorder.snapshot();
    // Exactly one requester led and simulated; the other fifteen waited
    // on the same flight.
    assert_eq!(snap.counter("serve.cells_measured"), 1, "{}", snap.render());
    assert_eq!(snap.counter("serve.coalesce_leads"), 1);
    assert_eq!(snap.counter("serve.coalesce_hits"), 15);
    // The engine ran the reference set (4 machines x 12 workloads) plus
    // the one requested cell -- nothing else.
    let expected = 4 * Harness::quick_set().len() as u64 + 1;
    assert_eq!(snap.counter("runner.measurements"), expected);

    // A repeat visit is a pure cache hit: no new flight work, no new
    // measurement.
    let (status, text) = http_get(addr, target);
    assert_eq!(status, 200);
    assert_eq!(body_of(&text), bodies[0], "cached cell renders identically");
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("runner.measurements"), expected);
    assert_eq!(snap.counter("runner.cache_hits"), 1);
    drop(handle);
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let (handle, recorder) = boot(|c| {
        c.jobs = 1;
        c.queue_depth = 1;
        c.read_timeout = Duration::from_millis(600);
    });
    let addr = handle.addr();

    // A slow-loris connection: accepted, handed to the only worker,
    // which now sits in read() until the socket timeout.
    let loris = TcpStream::connect(addr).expect("loris");
    std::thread::sleep(Duration::from_millis(150));
    // This one fills the single queue slot.
    let parked = TcpStream::connect(addr).expect("parked");
    std::thread::sleep(Duration::from_millis(150));
    // Queue full: the accept thread itself sheds this one.
    let (status, text) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "{text}");
    assert!(text.contains("retry-after:"), "{text}");
    assert!(body_of(&text).contains("overloaded"));
    let snap = recorder.snapshot();
    assert!(snap.counter("serve.shed_503") >= 1, "{}", snap.render());
    drop(loris);
    drop(parked);

    // Once the loris times out, the worker is free again and service
    // recovers.
    std::thread::sleep(Duration::from_millis(800));
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "server recovers after shed");
    drop(handle);
}

#[test]
fn malformed_requests_get_400_and_never_kill_a_worker() {
    let (handle, recorder) = boot(|c| {
        c.jobs = 1; // one worker: if it died, the next request would hang
    });
    let addr = handle.addr();

    let (status, text) = http_request(addr, "COMPLETE GARBAGE\r\n\r\n");
    assert_eq!(status, 400, "{text}");
    assert!(body_of(&text).contains("bad_request"));
    let (status, _) = http_request(addr, "GET /healthz HTTP/0.9-ish\r\n\r\n");
    assert_eq!(status, 400);
    let (status, text) = http_request(addr, "GET /v1/cell?chip=%zz HTTP/1.1\r\n\r\n");
    assert_eq!(status, 400, "bad percent-encoding: {text}");

    // The sole worker survived all of it.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let snap = recorder.snapshot();
    assert!(snap.counter("serve.http_400") >= 3, "{}", snap.render());
    assert_eq!(snap.counter("serve.worker_panics_contained"), 0);
    drop(handle);
}

#[test]
fn artifacts_serve_files_but_never_traversal() {
    let dir = std::env::temp_dir().join(format!("lhr-serve-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("table4.txt"), b"the rows\n").unwrap();
    let secret = dir.join("../lhr-serve-secret.txt");
    std::fs::write(&secret, b"must never be served\n").unwrap();

    let (handle, _recorder) = boot(|c| {
        c.artifact_dir = PathBuf::from(&dir);
    });
    let addr = handle.addr();

    let (status, text) = http_get(addr, "/v1/artifacts");
    assert_eq!(status, 200);
    assert!(body_of(&text).contains("\"name\":\"table4.txt\""));
    let (status, text) = http_get(addr, "/v1/artifacts/table4.txt");
    assert_eq!(status, 200);
    assert_eq!(body_of(&text), "the rows\n");

    // Traversal in every costume: literal, percent-encoded, absolute.
    for evil in [
        "/v1/artifacts/../lhr-serve-secret.txt",
        "/v1/artifacts/%2e%2e%2flhr-serve-secret.txt",
        "/v1/artifacts/..%2flhr-serve-secret.txt",
        "/v1/artifacts//etc/passwd",
        "/v1/artifacts/.hidden",
    ] {
        let (status, text) = http_get(addr, evil);
        assert_eq!(status, 404, "{evil} must 404, got: {text}");
        assert!(
            !text.contains("must never be served"),
            "{evil} leaked the secret"
        );
    }
    drop(handle);
    std::fs::remove_file(&secret).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_completes_in_flight_work_then_stops() {
    let (handle, recorder) = boot(|c| {
        c.jobs = 2;
    });
    let addr = handle.addr();

    // Real work before the drain so "in-flight completes" is non-trivial.
    let (status, _) = http_get(addr, "/v1/cell?chip=atom-45&workload=mcf");
    assert_eq!(status, 200);

    let (status, text) = http_request(addr, "POST /admin/drain HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(body_of(&text).contains("\"draining\":true"));

    // The drain finishes: accept loop exits, queue drains, workers
    // join, the observer flushes.
    handle.wait();
    let snap = recorder.snapshot();
    assert_eq!(snap.counter("serve.drained"), 1, "{}", snap.render());
    assert_eq!(snap.counter("serve.drain_requests"), 1);

    // The listener is gone: new connections are refused (or reset),
    // never silently accepted.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server must not accept"
    );
}

#[test]
fn sweep_pareto_and_findings_render() {
    let (handle, _recorder) = boot(|c| {
        c.jobs = 4;
        c.max_cell = Duration::from_secs(300);
    });
    let addr = handle.addr();

    let (status, text) = http_get(addr, "/v1/findings");
    assert_eq!(status, 200, "{text}");
    let body = body_of(&text);
    assert!(body.contains("\"id\":\"i7-outperforms-atom\""), "{body}");
    assert!(body.contains("\"holds\":true"), "{body}");

    let (status, text) = http_get(addr, "/v1/sweep?space=stock");
    assert_eq!(status, 200, "{text}");
    let body = body_of(&text);
    assert!(body.contains("\"space\":\"stock\""));
    assert!(body.contains("i7 (45)"), "{body}");
    assert!(body.contains("\"clean\":true"), "{body}");

    let (status, text) = http_get(addr, "/v1/pareto?metric=avg&space=stock");
    assert_eq!(status, 200, "{text}");
    let body = body_of(&text);
    assert!(body.contains("\"efficient\":["), "{body}");
    assert!(body.contains("\"metric\":\"avg\""), "{body}");
    let (status, _) = http_get(addr, "/v1/pareto?metric=sideways");
    assert_eq!(status, 404);
    drop(handle);
}

#[test]
fn slowloris_connection_times_out_with_408_and_is_counted() {
    let (handle, recorder) = boot(|c| {
        c.jobs = 2;
        c.read_timeout = Duration::from_millis(200);
    });
    let addr = handle.addr();

    // A slow-loris client: opens the connection, dribbles half a
    // request line, then stalls. The worker must get the socket back
    // after the read timeout, answer 408, and count the event.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HT").expect("partial send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "stalled connection must get 408: {text:?}"
    );
    assert!(text.contains("request_timeout"), "{text}");

    // The worker survived and the server still serves.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "server must survive a slowloris client");
    let snapshot = recorder.snapshot().render();
    assert!(
        snapshot.contains("serve.timeout"),
        "slowloris must land in the serve.timeout counter: {snapshot}"
    );
    drop(handle);
}
