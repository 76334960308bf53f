//! Integration tests for in-server campaign orchestration: a real
//! server on a real socket, campaigns submitted over HTTP, cells
//! measured by the shared worker pool on the background queue lane.
//!
//! The guarantees under test:
//!
//! 1. **Submit-to-artifact** -- `POST /v1/campaigns` runs the grid to
//!    completion and serves a deterministic result artifact.
//! 2. **Validation** -- malformed specs are rejected with typed errors
//!    before any journal or measurement work happens.
//! 3. **Preempt/resume** -- preemption stops dispatch, journals the
//!    decision, and resume continues to the same artifact.
//! 4. **Drain-and-restart resume** -- a drained server restarted over
//!    the same campaign directory resumes from the journal, never
//!    re-measures finished cells, and produces a byte-identical
//!    artifact to an uninterrupted run.
//! 5. **Telemetry** -- `/healthz` reports per-tenant scheduler state.

use std::fs;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_obs::MemoryRecorder;
use lhr_serve::{ServerConfig, ServerHandle, Telemetry};

/// A scratch directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lhr-serve-camp-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

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

fn http_post(addr: SocketAddr, target: &str) -> (u16, String) {
    http_request(
        addr,
        &format!("POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"),
    )
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

/// Extracts `"id":"cNNNN"` from a submission body.
fn campaign_id(body: &str) -> String {
    let start = body.find("\"id\":\"").expect("id in body") + "\"id\":\"".len();
    body[start..]
        .chars()
        .take_while(|c| *c != '"')
        .collect()
}

/// Polls status until the campaign reaches `state` (or panics after the
/// deadline). Returns the final status body.
fn wait_for_state(addr: SocketAddr, id: &str, state: &str, deadline: Duration) -> String {
    let until = Instant::now() + deadline;
    loop {
        let (status, text) = http_get(addr, &format!("/v1/campaigns/{id}"));
        assert_eq!(status, 200, "{text}");
        let body = body_of(&text).to_owned();
        if body.contains(&format!("\"state\":\"{state}\"")) {
            return body;
        }
        assert!(
            Instant::now() < until,
            "campaign {id} never reached {state}: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn campaign_runs_to_completion_and_serves_artifact() {
    let dir = scratch("complete");
    let (handle, _recorder) = boot(|c| {
        c.jobs = 4;
        c.campaign_dir = dir.clone();
    });
    let addr = handle.addr();

    let (status, text) = http_post(
        addr,
        "/v1/campaigns?tenant=acme&chips=i7-45,atom-45&workloads=jess,db",
    );
    assert_eq!(status, 202, "{text}");
    let body = body_of(&text);
    assert!(body.contains("\"state\":\"queued\""), "{body}");
    assert!(body.contains("\"units\":4"), "{body}");
    let id = campaign_id(body);

    // Artifact is 409 until the campaign finishes.
    let (status, text) = http_get(addr, &format!("/v1/campaigns/{id}/artifact"));
    assert!(
        status == 409 || status == 200,
        "artifact before done must be 409 (or 200 if already finished): {text}"
    );

    let done = wait_for_state(addr, &id, "done", Duration::from_secs(120));
    assert!(done.contains("\"done\":4"), "{done}");
    assert!(done.contains("\"failed\":0"), "{done}");

    // Cells view shows per-cell values.
    let (status, text) = http_get(addr, &format!("/v1/campaigns/{id}?cells=1"));
    assert_eq!(status, 200);
    let cells = body_of(&text);
    assert!(cells.contains("\"workload\":\"jess\""), "{cells}");
    assert!(cells.contains("\"status\":\"ok\""), "{cells}");

    // The artifact exists on disk and over HTTP, with matching bytes.
    let (status, text) = http_get(addr, &format!("/v1/campaigns/{id}/artifact"));
    assert_eq!(status, 200, "{text}");
    let served = body_of(&text).to_owned();
    let on_disk =
        fs::read_to_string(dir.join(format!("{id}.result.json"))).expect("artifact file");
    assert_eq!(served, on_disk, "served artifact must match disk bytes");
    assert!(served.contains("\"ok\":4"), "{served}");

    // The campaign list knows it.
    let (status, text) = http_get(addr, "/v1/campaigns");
    assert_eq!(status, 200);
    assert!(body_of(&text).contains(&id), "{text}");

    // /healthz reports scheduler state for the tenant.
    let (status, text) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = body_of(&text);
    assert!(health.contains("\"campaigns\":"), "{health}");
    assert!(health.contains("\"acme\""), "{health}");
    assert!(health.contains("\"done\":1"), "{health}");
    drop(handle);
}

#[test]
fn campaign_validation_rejects_before_any_work() {
    let dir = scratch("validate");
    let (handle, _recorder) = boot(|c| {
        c.campaign_dir = dir.clone();
    });
    let addr = handle.addr();

    for (target, expect_status, expect_tag) in [
        ("/v1/campaigns", 400, "missing_param"),
        ("/v1/campaigns?chips=z80", 404, "unknown_chip"),
        ("/v1/campaigns?chips=i7-45&workloads=nope", 404, "unknown_workload"),
        ("/v1/campaigns?chips=i7-45&config=banana", 400, "bad_config"),
        ("/v1/campaigns?chips=i7-45&priority=urgent", 400, "bad_priority"),
        ("/v1/campaigns?chips=i7-45&weight=-1", 400, "bad_weight"),
        ("/v1/campaigns?chips=i7-45&quota=0", 400, "bad_quota"),
        ("/v1/campaigns?chips=i7-45&tenant=bad/name", 400, "bad_tenant"),
    ] {
        let (status, text) = http_post(addr, target);
        assert_eq!(status, expect_status, "{target}: {text}");
        assert!(body_of(&text).contains(expect_tag), "{target}: {text}");
    }
    // Nothing was journaled: the directory holds no campaign files.
    let entries = fs::read_dir(&dir).map(Iterator::count).unwrap_or(0);
    assert_eq!(entries, 0, "validation failures must not touch the journal dir");

    // Status/artifact for unknown ids are typed 404s.
    let (status, text) = http_get(addr, "/v1/campaigns/c9999");
    assert_eq!(status, 404, "{text}");
    let (status, _) = http_post(addr, "/v1/campaigns/c9999/preempt");
    assert_eq!(status, 404);
    drop(handle);
}

#[test]
fn preempt_stops_dispatch_and_resume_finishes() {
    let dir = scratch("preempt");
    let (handle, _recorder) = boot(|c| {
        c.jobs = 2;
        c.campaign_inflight = 1;
        c.campaign_dir = dir.clone();
    });
    let addr = handle.addr();

    let (status, text) = http_post(
        addr,
        "/v1/campaigns?tenant=t1&chips=i7-45&workloads=jess,db,mcf",
    );
    assert_eq!(status, 202, "{text}");
    let id = campaign_id(body_of(&text));

    let (status, text) = http_post(addr, &format!("/v1/campaigns/{id}/preempt"));
    assert_eq!(status, 200, "{text}");
    assert!(body_of(&text).contains("\"state\":\"preempted\""), "{text}");

    // Preempting twice is a conflict, as is resuming a running one later.
    let (status, text) = http_post(addr, &format!("/v1/campaigns/{id}/preempt"));
    assert_eq!(status, 409, "{text}");

    // While preempted, no new cells dispatch; give the scheduler a beat
    // and check the campaign is not done.
    std::thread::sleep(Duration::from_millis(200));
    let (_, text) = http_get(addr, &format!("/v1/campaigns/{id}"));
    assert!(
        body_of(&text).contains("\"state\":\"preempted\""),
        "preempt must stick: {text}"
    );

    let (status, text) = http_post(addr, &format!("/v1/campaigns/{id}/resume"));
    assert_eq!(status, 200, "{text}");
    wait_for_state(addr, &id, "done", Duration::from_secs(120));

    // The journal recorded the lifecycle decisions.
    let journal = fs::read_to_string(dir.join(format!("{id}.jsonl"))).expect("journal");
    assert!(journal.contains("\"event\":\"preempted\""), "{journal}");
    assert!(journal.contains("\"event\":\"resumed\""), "{journal}");
    drop(handle);
}

#[test]
fn drained_server_resumes_campaign_to_byte_identical_artifact() {
    let reference_dir = scratch("resume-reference");
    let resumed_dir = scratch("resume-interrupted");

    // Reference: an uninterrupted run of the same grid.
    let spec = "/v1/campaigns?tenant=ref&chips=i7-45,atom-45&workloads=jess,db";
    let (handle, _recorder) = boot(|c| {
        c.jobs = 4;
        c.campaign_dir = reference_dir.clone();
    });
    let addr = handle.addr();
    let (status, text) = http_post(addr, spec);
    assert_eq!(status, 202, "{text}");
    let ref_id = campaign_id(body_of(&text));
    wait_for_state(addr, &ref_id, "done", Duration::from_secs(120));
    let reference =
        fs::read(reference_dir.join(format!("{ref_id}.result.json"))).expect("reference artifact");
    drop(handle);

    // Interrupted: same grid, but the server drains mid-campaign. The
    // single-cell inflight cap and one worker keep the campaign slow
    // enough that the drain lands in the middle.
    let (handle, _recorder) = boot(|c| {
        c.jobs = 1;
        c.campaign_inflight = 1;
        c.campaign_dir = resumed_dir.clone();
    });
    let addr = handle.addr();
    let (status, text) = http_post(addr, spec);
    assert_eq!(status, 202, "{text}");
    let id = campaign_id(body_of(&text));
    assert_eq!(id, ref_id, "fresh dirs must mint the same sequence");
    // Let at least one cell land in the journal, then drain.
    let until = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, text) = http_get(addr, &format!("/v1/campaigns/{id}"));
        if !body_of(&text).contains("\"done\":0") {
            break;
        }
        assert!(Instant::now() < until, "no cell ever finished: {text}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, _) = http_post(addr, "/admin/drain");
    assert_eq!(status, 200);
    handle.wait();

    // Restart over the same directory with resume enabled: the journal
    // brings finished cells back without re-measuring, the scheduler
    // finishes the rest, and the artifact is byte-identical.
    let (handle, recorder) = boot(|c| {
        c.jobs = 4;
        c.campaign_dir = resumed_dir.clone();
        c.resume_campaigns = true;
    });
    let addr = handle.addr();
    wait_for_state(addr, &id, "done", Duration::from_secs(120));
    let resumed = fs::read(resumed_dir.join(format!("{id}.result.json"))).expect("artifact");
    assert_eq!(
        resumed, reference,
        "resumed artifact must be byte-identical to the uninterrupted run"
    );
    // The journal shows the restart, and the preload actually happened.
    let journal = fs::read_to_string(resumed_dir.join(format!("{id}.jsonl"))).expect("journal");
    assert!(journal.contains("\"event\":\"boot-resume\""), "{journal}");
    let snapshot = recorder.snapshot().render();
    assert!(
        snapshot.contains("campaign.preloaded_cells"),
        "resume must preload journaled cells: {snapshot}"
    );
    drop(handle);
}

#[test]
fn campaign_methods_and_unknown_paths_are_typed_errors() {
    let dir = scratch("methods");
    let (handle, _recorder) = boot(|c| {
        c.campaign_dir = dir.clone();
    });
    let addr = handle.addr();

    // GET on the collection lists; POST on a status path is a 405/404.
    let (status, text) = http_get(addr, "/v1/campaigns");
    assert_eq!(status, 200, "{text}");
    assert!(body_of(&text).contains("\"campaigns\":[]"), "{text}");
    let (status, _) = http_post(addr, "/v1/campaigns/c0001/unknown-verb");
    assert_eq!(status, 404);
    let (status, _) = http_get(addr, "/v1/campaignsgarbage");
    assert_eq!(status, 404);
    drop(handle);
}
