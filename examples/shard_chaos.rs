//! The sharded chaos drill: SIGKILL a backend mid-load, roll-restart
//! another through its drain endpoint, and prove the router never let
//! a client see it.
//!
//! ```text
//! cargo build --release -p lhr-serve --bins
//! cargo run --release --example shard_chaos [seed]
//! ```
//!
//! The drill, all faults derived from one seed:
//!
//! 1. **Reference run** -- one unsharded `lhr_serve` answers the whole
//!    request mix; its bodies are the ground truth.
//! 2. **Sharded run** -- three backends behind one `lhr_router`
//!    (response cache off, so every request genuinely routes).
//!    Verifying clients loop the mix through the router, comparing
//!    every 200 body byte-for-byte against the reference. Mid-load one
//!    backend is SIGKILLed and replaced (fresh port, live
//!    `POST /admin/backends` swap), then a *different* backend gets a
//!    rolling restart via its graceful-drain endpoint.
//! 3. **Trace continuity** -- every process runs with a span store
//!    armed, and the router's sampler is set hostile (`--span-keep-one-in
//!    1000000`, so the probabilistic path keeps essentially nothing).
//!    A burst of traced requests fired into the SIGKILL window must
//!    leave at least one trace that survived the dead backend via
//!    retry: the tail sampler keeps it *because* it carries an error
//!    span, and its stitched tree from `GET /v1/trace/<id>` must be one
//!    coherent tree -- failed attempt marked `error`, the serving
//!    backend's spans nested under the winning attempt, zero orphan
//!    roots.
//! 4. **Verdict** -- zero client-visible 5xx (a 503 shed with
//!    `Retry-After` is backpressure policy, not failure -- clients
//!    honor the hint and continue), zero body mismatches, zero
//!    connection errors, and `/healthz` converged back to every
//!    backend `up`.
//!
//! Exit code 0 means a backend crash is the router's problem, never
//! the client's -- and the trace shows exactly how it was absorbed.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_bench::chaos::{http_post, locate_binary, poll_until, ServerProc, ShardChaosPlan};
use lhr_serve::httpc;

/// The request mix every client loops: six distinct cells (so the ring
/// spreads them across shards), the findings check, and a Pareto
/// frontier -- all deterministic, so sharded bodies must equal the
/// unsharded reference byte for byte.
const MIX: [&str; 8] = [
    "/v1/cell?chip=i7-45&workload=jess",
    "/v1/cell?chip=i7-45&workload=db",
    "/v1/cell?chip=atom-45&workload=mcf",
    "/v1/cell?chip=atom-45&workload=hmmer",
    "/v1/cell?chip=c2d-45&workload=jess",
    "/v1/cell?chip=i7-45&config=2C1T@2.0&workload=jess",
    "/v1/findings",
    "/v1/pareto?metric=avg&space=stock",
];

/// A stored-query probe fired alongside the verified mix. Its body
/// aggregates whichever cells *that backend's* sink has persisted, so
/// it cannot be byte-compared across the fleet -- the contract under
/// chaos is the status: 200 (or an honest typed 503), never a 5xx from
/// a panic.
const QUERY_PROBE: &str = "/v1/query?q=group_by%20chip%20%7C%20agg%20mean(watts),%20max(watts)";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lhr-shard-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn_backend(binary: &Path, name: &str) -> Result<ServerProc, String> {
    let dir = scratch(name);
    let dir = dir.to_string_lossy().into_owned();
    let store = scratch(&format!("{name}-store"));
    let store = store.to_string_lossy().into_owned();
    let spans = scratch(&format!("{name}-spans"));
    let spans = spans.to_string_lossy().into_owned();
    ServerProc::spawn(
        binary,
        &[
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--campaign-dir",
            &dir,
            "--store-dir",
            &store,
            "--span-store",
            &spans,
        ],
    )
    .map_err(|e| format!("spawn backend {name}: {e}"))
}

/// A traced GET: every client request carries a fresh `x-lhr-trace`, so
/// whichever request is in flight when the SIGKILL lands leaves a full
/// distributed trace of how the router absorbed it. Tracing must not
/// perturb the body -- the byte-compare against the untraced reference
/// stays in force.
fn traced_get(
    addr: SocketAddr,
    target: &str,
    timeout: Duration,
) -> Result<httpc::HttpResponse, httpc::ClientError> {
    let trace = lhr_obs::context::next_trace_id();
    let header = lhr_obs::context::render_trace_header(trace, 0, 1);
    httpc::get_with_headers(addr, target, &[("x-lhr-trace", &header)], timeout)
}

/// Pulls the 32-hex trace ids out of a `/v1/traces` summary listing.
fn trace_ids_in(listing: &str) -> Vec<u128> {
    let mut ids = Vec::new();
    let needle = "\"trace\":\"";
    let mut at = 0;
    while let Some(i) = listing[at..].find(needle) {
        let from = at + i + needle.len();
        if let Some(hex) = listing.get(from..from + 32) {
            if let Ok(id) = u128::from_str_radix(hex, 16) {
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        at = from;
    }
    ids
}

/// True when a stitched tree holds a `router.attempt` span whose own
/// object carries `"status":"error"` -- the marked failed leg. The row
/// fields are fixed-order (`name` before `status`, `children` spliced
/// after), so a bounded forward scan stays inside one object.
fn has_failed_attempt(tree: &str) -> bool {
    let needle = "\"name\":\"router.attempt\"";
    let mut at = 0;
    while let Some(i) = tree[at..].find(needle) {
        let from = at + i + needle.len();
        let object = &tree[from..tree.len().min(from + 160)];
        let end = object.find("\"children\"").unwrap_or(object.len());
        if object[..end].contains("\"status\":\"error\"") {
            return true;
        }
        at = from;
    }
    false
}

/// Counts the top-level objects in the `"roots":[...]` array of a
/// stitched-tree body: 1 means one coherent tree, more means orphan
/// fragments the stitcher could not attach.
fn count_roots(tree: &str) -> usize {
    let Some(at) = tree.find("\"roots\":[") else {
        return 0;
    };
    let mut depth = 0usize;
    let mut roots = 0usize;
    for b in tree[at + "\"roots\":[".len()..].bytes() {
        match b {
            b'{' => {
                if depth == 0 {
                    roots += 1;
                }
                depth += 1;
            }
            b'}' => depth = depth.saturating_sub(1),
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    roots
}

/// What one verifying client saw.
#[derive(Debug, Default)]
struct ClientTally {
    ok: u64,
    shed: u64,
    queries: u64,
    server_errors: u64,
    mismatches: u64,
    transport_errors: u64,
    first_failure: Option<String>,
}

impl ClientTally {
    fn fail(&mut self, what: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }
}

/// One verifying client: loops the mix through the router until told to
/// stop, comparing every 200 against the reference and honoring
/// `Retry-After` on sheds.
fn verifying_client(
    router: SocketAddr,
    reference: Arc<Vec<(String, String)>>,
    stop: Arc<AtomicBool>,
    offset: usize,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut n = offset;
    while !stop.load(Ordering::Relaxed) {
        // A stored-query probe rides along every ninth request: status
        // contract only (its rows depend on the backend's own sink).
        if n % 9 == 8 {
            n += 1;
            match traced_get(router, QUERY_PROBE, Duration::from_secs(120)) {
                Ok(resp) if resp.status == 200 || resp.status == 503 => tally.queries += 1,
                Ok(resp) => {
                    tally.server_errors += 1;
                    tally.fail(format!(
                        "{QUERY_PROBE}: unexpected {}: {}",
                        resp.status,
                        resp.body_str()
                    ));
                }
                Err(e) => {
                    tally.transport_errors += 1;
                    tally.fail(format!("{QUERY_PROBE}: transport error: {e}"));
                }
            }
            continue;
        }
        let (target, expected) = &reference[n % reference.len()];
        n += 1;
        match traced_get(router, target, Duration::from_secs(120)) {
            Ok(resp) if resp.status == 200 => {
                tally.ok += 1;
                if resp.body_str() != expected.as_str() {
                    tally.mismatches += 1;
                    tally.fail(format!(
                        "{target}: body diverged from the unsharded reference \
                         ({} vs {} bytes)",
                        resp.body.len(),
                        expected.len()
                    ));
                }
            }
            Ok(resp) if resp.status == 503 => {
                // A deliberate shed: honor the server's hint (capped so a
                // stray large value cannot stall the drill), then retry.
                tally.shed += 1;
                let hint = Duration::from_secs(resp.retry_after_secs().unwrap_or(1).min(1));
                let until = Instant::now() + hint;
                while Instant::now() < until && !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            Ok(resp) => {
                let body = resp.body_str().into_owned();
                if resp.status >= 500 {
                    tally.server_errors += 1;
                    tally.fail(format!("{target}: client-visible {}: {body}", resp.status));
                } else {
                    // The mix is all-valid: a 4xx means routing mangled it.
                    tally.mismatches += 1;
                    tally.fail(format!("{target}: unexpected {}: {body}", resp.status));
                }
            }
            Err(e) => {
                tally.transport_errors += 1;
                tally.fail(format!("{target}: transport error through router: {e}"));
            }
        }
    }
    tally
}

fn run(seed: u64) -> Result<(), String> {
    let plan = ShardChaosPlan::from_seed(seed);
    println!("shard chaos plan (seed {seed}): {plan:?}");
    let serve_bin = locate_binary("lhr_serve", "LHR_SERVE_BIN").map_err(|e| e.to_string())?;
    let router_bin = locate_binary("lhr_router", "LHR_ROUTER_BIN").map_err(|e| e.to_string())?;

    // ----------------------------------------------------------------
    // 1. Reference: the unsharded ground truth.
    // ----------------------------------------------------------------
    let reference_server = spawn_backend(&serve_bin, "reference")?;
    let mut reference = Vec::with_capacity(MIX.len());
    for target in MIX {
        let resp = httpc::get(reference_server.addr(), target, Duration::from_secs(120))
            .map_err(|e| format!("reference {target}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "reference {target}: {}: {}",
                resp.status,
                resp.body_str()
            ));
        }
        reference.push((target.to_owned(), resp.body_str().into_owned()));
    }
    reference_server
        .drain()
        .map_err(|e| format!("reference drain: {e}"))?;
    let reference = Arc::new(reference);
    println!("reference: {} targets recorded", reference.len());

    // ----------------------------------------------------------------
    // 2. The sharded fleet: three backends, one router.
    // ----------------------------------------------------------------
    let mut backends: Vec<Option<ServerProc>> = (0..3)
        .map(|i| spawn_backend(&serve_bin, &format!("backend{i}")).map(Some))
        .collect::<Result<_, _>>()?;
    let mut addrs: Vec<SocketAddr> = backends
        .iter()
        .map(|b| b.as_ref().expect("live backend").addr())
        .collect();
    let set = |addrs: &[SocketAddr]| {
        addrs
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    let router_spans = scratch("router-spans");
    let router_spans = router_spans.to_string_lossy().into_owned();
    let router = ServerProc::spawn(
        &router_bin,
        &[
            "--addr",
            "127.0.0.1:0",
            "--backends",
            &set(&addrs),
            // Cache off: byte-identity must come from real routing, not
            // from the router replaying one stored body.
            "--route-cache",
            "0",
            "--probe-interval-ms",
            "50",
            // Span store with a hostile sampler: the probabilistic path
            // keeps ~nothing, so any trace still present after the drill
            // is there because the tail sampler saw an error in it.
            "--span-store",
            &router_spans,
            "--span-keep-one-in",
            "1000000",
        ],
    )
    .map_err(|e| format!("spawn router: {e}"))?;
    let router_addr = router.addr();
    println!("fleet: backends {} behind router {router_addr}", set(&addrs));

    // Warm every shard path through the router before the first fault.
    for i in 0..plan.clients * plan.warmup_requests {
        let (target, expected) = &reference[i % reference.len()];
        let resp = httpc::get(router_addr, target, Duration::from_secs(120))
            .map_err(|e| format!("warmup {target}: {e}"))?;
        if resp.status != 200 || resp.body_str() != expected.as_str() {
            return Err(format!(
                "warmup {target}: {} (identical={})",
                resp.status,
                resp.body_str() == expected.as_str()
            ));
        }
    }
    println!(
        "warmup: {} routed requests, all byte-identical",
        plan.clients * plan.warmup_requests
    );

    // ----------------------------------------------------------------
    // 3. Chaos under load: kill one backend, roll-restart another.
    // ----------------------------------------------------------------
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..plan.clients)
        .map(|i| {
            let reference = Arc::clone(&reference);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || verifying_client(router_addr, reference, stop, i))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // SIGKILL: no drain, no flush -- the router's failover problem now.
    let victim = backends[plan.kill_backend].take().expect("victim alive");
    let victim_addr = victim.addr();
    victim.kill().map_err(|e| format!("SIGKILL backend: {e}"))?;
    println!("chaos: SIGKILLed backend {} ({victim_addr})", plan.kill_backend);
    std::thread::sleep(Duration::from_millis(300));

    // Replace it on a fresh port (the dead listener's port lingers in
    // TIME_WAIT) and swap the topology live.
    let replacement = spawn_backend(&serve_bin, "replacement")?;
    addrs[plan.kill_backend] = replacement.addr();
    backends[plan.kill_backend] = Some(replacement);
    let (status, text) = http_post(
        router_addr,
        &format!("/admin/backends?set={}", set(&addrs)),
    )
    .map_err(|e| format!("admin swap: {e}"))?;
    if status != 200 {
        return Err(format!("admin swap: {status}: {text}"));
    }
    println!(
        "chaos: replacement backend {} joined at {}",
        plan.kill_backend, addrs[plan.kill_backend]
    );

    // Rolling restart of a different backend: graceful drain (in-flight
    // work completes, process exits 0), fresh port, live swap.
    let rolling = backends[plan.drain_backend].take().expect("drain target alive");
    let rolling_addr = rolling.addr();
    rolling
        .drain()
        .map_err(|e| format!("rolling drain: {e}"))?;
    println!(
        "chaos: backend {} drained cleanly ({rolling_addr})",
        plan.drain_backend
    );
    let restarted = spawn_backend(&serve_bin, "restarted")?;
    addrs[plan.drain_backend] = restarted.addr();
    backends[plan.drain_backend] = Some(restarted);
    let (status, text) = http_post(
        router_addr,
        &format!("/admin/backends?set={}", set(&addrs)),
    )
    .map_err(|e| format!("admin swap 2: {e}"))?;
    if status != 200 {
        return Err(format!("admin swap 2: {status}: {text}"));
    }

    // The fleet must converge back to all-Up (joiners start Suspect and
    // probe their way in).
    poll_until(router_addr, "/healthz", Duration::from_secs(30), |b| {
        b.matches("\"health\":\"up\"").count() == 3 && b.contains("\"status\":\"ok\"")
    })
    .map_err(|e| format!("healthz never converged to all-Up: {e}"))?;
    println!("converged: /healthz reports all three backends up");

    // ----------------------------------------------------------------
    // 3b. Trace continuity: every client request was traced, and the
    // router's probabilistic sampler keeps ~nothing -- so whatever its
    // span store still holds was kept by the tail sampler, because it
    // carries an error span. The requests in flight when the SIGKILL
    // landed must be among them, each one coherent stitched tree with
    // the failed attempt marked and zero orphan roots.
    // ----------------------------------------------------------------
    let resp = httpc::get(
        router_addr,
        "/v1/traces?status=error&limit=100",
        Duration::from_secs(120),
    )
    .map_err(|e| format!("error-trace search: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "error-trace search: {}: {}",
            resp.status,
            resp.body_str()
        ));
    }
    let listing = resp.body_str().into_owned();
    let error_ids = trace_ids_in(&listing);
    let mut failed_attempt_traces = 0usize;
    for &trace in &error_ids {
        let resp = httpc::get(
            router_addr,
            &format!("/v1/trace/{trace:032x}"),
            Duration::from_secs(120),
        )
        .map_err(|e| format!("trace fetch {trace:032x}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "trace fetch {trace:032x}: {}: {}",
                resp.status,
                resp.body_str()
            ));
        }
        let tree = resp.body_str().into_owned();
        // Every kept trace must be one coherent tree (a shed 503 trace
        // rides along here too; continuity holds for all of them).
        let roots = count_roots(&tree);
        if roots != 1 {
            return Err(format!(
                "trace {trace:032x}: {roots} roots -- orphan fragments after the kill: {tree}"
            ));
        }
        if has_failed_attempt(&tree) {
            failed_attempt_traces += 1;
            if !tree.contains("router.request") {
                return Err(format!(
                    "trace {trace:032x}: failed attempt without its request span: {tree}"
                ));
            }
        }
    }
    if failed_attempt_traces == 0 {
        return Err(format!(
            "no kept trace carries a marked-failed attempt: the kill left no \
             trace evidence ({} error traces kept)",
            error_ids.len()
        ));
    }
    println!(
        "trace continuity: {} error trace(s) survived the hostile sampler, \
         {failed_attempt_traces} carry the SIGKILLed attempt, all single-root trees",
        error_ids.len()
    );

    // A little more load against the healed fleet, then the verdict.
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let mut total = ClientTally::default();
    for c in clients {
        let t = c.join().expect("client thread");
        total.ok += t.ok;
        total.shed += t.shed;
        total.queries += t.queries;
        total.server_errors += t.server_errors;
        total.mismatches += t.mismatches;
        total.transport_errors += t.transport_errors;
        if let Some(f) = t.first_failure {
            total.fail(f);
        }
    }
    println!(
        "clients: {} ok, {} shed (Retry-After honored), {} query probes, {} 5xx, \
         {} mismatches, {} transport errors",
        total.ok,
        total.shed,
        total.queries,
        total.server_errors,
        total.mismatches,
        total.transport_errors
    );
    if total.ok == 0 {
        return Err("no client request succeeded at all".to_owned());
    }
    if total.server_errors + total.mismatches + total.transport_errors > 0 {
        return Err(format!(
            "clients saw the faults: {}",
            total.first_failure.unwrap_or_default()
        ));
    }

    router.drain().map_err(|e| format!("router drain: {e}"))?;
    for b in backends.into_iter().flatten() {
        b.drain().map_err(|e| format!("backend drain: {e}"))?;
    }
    println!(
        "shard chaos verdict: kill + rolling restart were invisible -- \
         zero 5xx, every body byte-identical to the unsharded reference"
    );
    Ok(())
}

fn main() -> ExitCode {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0x5A4D);
    match run(seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("shard chaos drill FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}
