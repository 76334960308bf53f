//! The front router: consistent-hashes shard keys onto N backend
//! `lhr-serve` processes and absorbs their failures.
//!
//! ```text
//!                    ┌─ probe /healthz ──► HealthFsm (Up/Suspect/Down)
//!   client ──► router┤
//!                    └─ forward ──► ring candidates, skipping Down and
//!                       open-breaker backends; Suspect primaries get a
//!                       hedged twin on the next replica; exhausted
//!                       candidates fall back to local simulation
//! ```
//!
//! The robustness contract: a backend crash is **never** surfaced to a
//! client as a 5xx. Failures feed the per-backend circuit breaker
//! (fast, per-request) and the health prober (slow, background); the
//! forwarding loop walks the key's replica set, retries with bounded
//! backoff, and -- when every candidate is refused or broken -- either
//! computes the answer locally on the router's own harness or sheds
//! with an honest `503 + Retry-After`. Deliberate backend sheds (503)
//! pass through untouched: admission control is a policy decision, not
//! a failure.
//!
//! Routing keys are *structural*: `/v1/cell` hashes the configuration
//! fingerprint (the same one backends key their cell caches on) mixed
//! with the workload name, so a given cell always lands on the same
//! backend and its cache. The other endpoints hash their canonical
//! parameter strings; a `POST /v1/query` forwards its body but keys on
//! its target alone, so posted queries read one backend's store.
//! Campaign endpoints are deliberately not sharded (a campaign journals
//! on one node); they answer `501`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhr_core::cache::config_fingerprint;
use lhr_core::Harness;
use lhr_obs::context::{self, Ctx};
use lhr_obs::{prom, push_json_number, push_json_string, Obs};
use lhr_store::SpanRow;

use crate::campaigns::Orchestrator;
use crate::coalesce::FlightBoard;
use crate::handlers::{self, build_config, chip_by_token, endpoint_tag, ServeState};
use crate::http::{read_request, HttpError, Method, Request, Response};
use crate::httpc::{self, HttpResponse};
use crate::queue::{BoundedQueue, PushError, ShedPool};
use crate::shard::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use crate::shard::health::{HealthFsm, HealthPolicy, HealthState};
use crate::shard::ring::{hash_key, mix64, HashRing};
use crate::signal;
use crate::telemetry::Telemetry;

/// Tuning knobs for one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Initial backend set (`POST /admin/backends` changes it live).
    pub backends: Vec<SocketAddr>,
    /// Worker threads serving parsed requests.
    pub jobs: usize,
    /// Bounded queue depth between accept and the workers.
    pub queue_depth: usize,
    /// Client-socket read timeout (slow-loris guard).
    pub read_timeout: Duration,
    /// Backend connect timeout: a dead backend costs this, not the
    /// kernel's default.
    pub connect_timeout: Duration,
    /// Backend response timeout; must cover a cold cell.
    pub forward_timeout: Duration,
    /// Delay between health-probe rounds.
    pub probe_interval: Duration,
    /// Per-probe connect+read budget.
    pub probe_timeout: Duration,
    /// How long a Suspect primary gets before its hedged twin launches.
    pub hedge_after: Duration,
    /// Base backoff between candidate attempts (doubles per attempt).
    pub retry_backoff: Duration,
    /// Ring candidates walked per request (primary + fallbacks).
    pub replicas: usize,
    /// Router-side response cache entries for 200s on routable GETs
    /// (0 disables). Cells are deterministic, so a cached body is
    /// byte-identical to a recomputed one by construction.
    pub route_cache: usize,
    /// Health hysteresis thresholds.
    pub health: HealthPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerPolicy,
    /// Per-request budget when computing a local fallback.
    pub max_cell: Duration,
    /// Directory `/v1/artifacts` serves on local fallback.
    pub artifact_dir: PathBuf,
    /// Writer threads in the 503-shed pool.
    pub shed_writers: usize,
    /// Pending-shed backlog.
    pub shed_depth: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            jobs: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_millis(250),
            forward_timeout: Duration::from_secs(40),
            probe_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            hedge_after: Duration::from_millis(25),
            retry_backoff: Duration::from_millis(25),
            replicas: 2,
            route_cache: 512,
            health: HealthPolicy::default(),
            breaker: BreakerPolicy::default(),
            max_cell: Duration::from_secs(30),
            artifact_dir: PathBuf::from("repro_out"),
            shed_writers: 2,
            shed_depth: 32,
        }
    }
}

/// One backend as the router sees it: address, health FSM, breaker,
/// and the latency of the last completed probe.
#[derive(Debug)]
pub struct Backend {
    addr: SocketAddr,
    health: Mutex<HealthFsm>,
    breaker: CircuitBreaker,
    /// Microseconds; u64::MAX until the first probe completes.
    last_probe_micros: AtomicU64,
}

impl Backend {
    fn new(addr: SocketAddr, health: HealthPolicy, breaker: BreakerPolicy) -> Self {
        Self {
            addr,
            health: Mutex::new(HealthFsm::new(health)),
            breaker: CircuitBreaker::new(breaker),
            last_probe_micros: AtomicU64::new(u64::MAX),
        }
    }

    /// The backend's address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current health state.
    #[must_use]
    pub fn health(&self) -> HealthState {
        self.health.lock().expect("health lock").state()
    }

    /// Current breaker state.
    #[must_use]
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }
}

/// An immutable snapshot of the backend set + its ring; topology
/// changes swap the whole Arc so in-flight requests keep a consistent
/// view.
#[derive(Debug)]
struct Topology {
    backends: Vec<Arc<Backend>>,
    ring: HashRing,
}

impl Topology {
    fn build(
        addrs: &[SocketAddr],
        keep: &[Arc<Backend>],
        health: HealthPolicy,
        breaker: BreakerPolicy,
    ) -> Self {
        let backends = addrs
            .iter()
            .map(|&addr| {
                keep.iter()
                    .find(|b| b.addr == addr)
                    .cloned()
                    .unwrap_or_else(|| Arc::new(Backend::new(addr, health, breaker)))
            })
            .collect::<Vec<_>>();
        let ring = HashRing::new(backends.len());
        Self { backends, ring }
    }
}

/// A bounded FIFO cache of rendered 200 bodies for routable GETs.
#[derive(Debug)]
struct RouteCache {
    capacity: usize,
    map: HashMap<String, CachedBody>,
    order: VecDeque<String>,
}

#[derive(Debug, Clone)]
struct CachedBody {
    content_type: &'static str,
    body: Vec<u8>,
}

impl RouteCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &str) -> Option<CachedBody> {
        self.map.get(key).cloned()
    }

    fn put(&mut self, key: String, value: CachedBody) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }
}

/// Shared router state.
#[derive(Debug)]
pub struct RouterState {
    config: RouterConfig,
    topology: Mutex<Arc<Topology>>,
    cache: Mutex<RouteCache>,
    /// The router's own simulation state for graceful degradation;
    /// `None` when booted without a fallback harness.
    fallback: Option<Arc<ServeState>>,
    obs: Obs,
    telemetry: Telemetry,
    draining: AtomicBool,
    stopped: AtomicBool,
    started: Instant,
}

impl RouterState {
    /// The current backend snapshot (tests inspect health/breakers).
    #[must_use]
    pub fn backends(&self) -> Vec<Arc<Backend>> {
        self.topology().backends.clone()
    }

    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.lock().expect("topology lock"))
    }

    /// Replaces the backend set: kept addresses keep their health and
    /// breaker state, new ones start `Suspect` and must probe their
    /// way to `Up`.
    pub fn set_backends(&self, addrs: &[SocketAddr]) {
        let mut slot = self.topology.lock().expect("topology lock");
        let next = Topology::build(
            addrs,
            &slot.backends,
            self.config.health,
            self.config.breaker,
        );
        *slot = Arc::new(next);
        self.obs.counter("router.topology_changes", 1);
    }
}

/// A running router; dropping it (or [`RouterHandle::wait`] after a
/// drain) shuts it down gracefully.
#[derive(Debug)]
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    accept: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    #[must_use]
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Requests a drain, same as `POST /admin/drain`.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::Relaxed);
    }

    /// Blocks until the router has fully drained.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.drain();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Boots a router. `fallback` arms graceful degradation: when every
/// candidate backend for a key is unreachable, the router computes the
/// answer on this harness instead of surfacing a 5xx. The harness's
/// runner should carry a bounded cell cache and an observer from
/// `telemetry.obs()`, exactly like a backend's.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start_router(
    config: RouterConfig,
    fallback: Option<Harness>,
    telemetry: Telemetry,
) -> io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let obs = telemetry.obs();
    let fallback = fallback.map(|harness| {
        Arc::new(ServeState {
            harness,
            board: FlightBoard::new(32),
            obs: obs.clone(),
            telemetry: Telemetry::default(),
            artifact_dir: config.artifact_dir.clone(),
            max_cell: config.max_cell,
            campaigns: Orchestrator::new(
                std::env::temp_dir().join(format!("lhr-router-fallback-{}", std::process::id())),
                1,
            ),
            store: None,
            draining: AtomicBool::new(false),
            started: Instant::now(),
        })
    });
    let topology = Topology::build(&config.backends, &[], config.health, config.breaker);
    let state = Arc::new(RouterState {
        cache: Mutex::new(RouteCache::new(config.route_cache)),
        topology: Mutex::new(Arc::new(topology)),
        fallback,
        obs,
        telemetry,
        draining: AtomicBool::new(false),
        stopped: AtomicBool::new(false),
        started: Instant::now(),
        config,
    });

    // The health prober: one round immediately (a fresh topology is
    // all-Suspect until proven), then every probe_interval.
    let probe_state = Arc::clone(&state);
    let prober = std::thread::Builder::new()
        .name("lhr-router-prober".to_owned())
        .spawn(move || {
            while !probe_state.stopped.load(Ordering::Relaxed) {
                probe_round(&probe_state);
                let until = Instant::now() + probe_state.config.probe_interval;
                while Instant::now() < until && !probe_state.stopped.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
        .expect("spawn prober");

    let queue = Arc::new(BoundedQueue::<TcpStream>::new(state.config.queue_depth));
    let workers: Vec<JoinHandle<()>> = (0..state.config.jobs.max(1))
        .map(|i| {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("lhr-router-worker-{i}"))
                .spawn(move || {
                    while let Some(stream) = queue.pop() {
                        let survived =
                            catch_unwind(AssertUnwindSafe(|| serve_connection(&state, stream)));
                        if survived.is_err() {
                            state.obs.counter("router.worker_panics_contained", 1);
                        }
                    }
                })
                .expect("spawn router worker")
        })
        .collect();

    let accept_state = Arc::clone(&state);
    let accept_queue = Arc::clone(&queue);
    let shed_pool = ShedPool::new(state.config.shed_writers, state.config.shed_depth);
    let accept = std::thread::Builder::new()
        .name("lhr-router-accept".to_owned())
        .spawn(move || {
            accept_loop(&listener, &accept_state, &accept_queue, &shed_pool);
            accept_queue.close();
            for w in workers {
                let _ = w.join();
            }
            shed_pool.shutdown();
            accept_state.stopped.store(true, Ordering::Relaxed);
            let _ = prober.join();
            accept_state.obs.counter("router.drained", 1);
            accept_state.telemetry.timeseries.seal_all();
            accept_state.obs.flush();
        })
        .expect("spawn router accept loop");

    Ok(RouterHandle {
        addr,
        state,
        accept: Some(accept),
    })
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<RouterState>,
    queue: &Arc<BoundedQueue<TcpStream>>,
    shed_pool: &ShedPool,
) {
    // Adaptive poll, same scheme as the backend accept loop: yield for
    // a short hot window after each accept so request trains are picked
    // up in microseconds, sleep once the listener goes idle.
    let mut hot_until = Instant::now();
    loop {
        if state.draining.load(Ordering::Relaxed) || signal::drain_requested() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                hot_until = Instant::now() + Duration::from_millis(2);
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(state.config.read_timeout));
                let _ = stream.set_nodelay(true);
                state.obs.counter("router.accepted", 1);
                match queue.try_push(stream) {
                    Ok(()) => {}
                    Err(PushError::Full(stream) | PushError::Closed(stream)) => {
                        state.obs.counter("router.shed_503", 1);
                        let response = if queue.is_closed() {
                            Response::overloaded("router draining", 5)
                        } else {
                            Response::overloaded("router queue full", 1)
                        };
                        if !shed_pool.try_shed(stream, response) {
                            state.obs.counter("router.shed_dropped", 1);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Same floor-on-latency argument as the backend accept
                // loop -- and the router sits in front of a second
                // accept loop, so its poll interval compounds.
                if Instant::now() < hot_until {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Err(_) => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

/// One probe round: `GET /healthz` against every backend, outcomes fed
/// to both the health FSM and the breaker, states exported as gauges.
fn probe_round(state: &Arc<RouterState>) {
    let topo = state.topology();
    for backend in &topo.backends {
        let started = Instant::now();
        let outcome = httpc::exchange_timeouts(
            backend.addr,
            b"GET /healthz HTTP/1.1\r\nHost: lhr-router\r\n\r\n",
            state.config.probe_timeout,
            state.config.probe_timeout,
        );
        let healthy = matches!(&outcome, Ok(resp) if resp.status == 200);
        let mut fsm = backend.health.lock().expect("health lock");
        let new_state = if healthy {
            backend
                .last_probe_micros
                .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            backend.breaker.record_success();
            fsm.on_success()
        } else {
            // A failed probe counts toward the breaker too: traffic
            // stops flowing before the FSM reaches Down.
            backend.breaker.record_failure();
            fsm.on_failure()
        };
        drop(fsm);
        state.obs.gauge(
            &format!("router.backend_state.{}", backend.addr),
            match new_state {
                HealthState::Up => 0.0,
                HealthState::Suspect => 1.0,
                HealthState::Down => 2.0,
            },
        );
        if healthy {
            state.obs.histogram(
                &format!("router.probe_latency.{}", backend.addr),
                started.elapsed().as_secs_f64(),
            );
        }
    }
}

/// Serves one client connection: parse, route, record RED, respond.
fn serve_connection(state: &Arc<RouterState>, stream: TcpStream) {
    let started = Instant::now();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    match read_request(&mut reader) {
        Ok(req) => {
            // Join the caller's distributed trace (`x-lhr-trace`) or
            // mint a fresh one -- the router is the usual trace root.
            // Hostile headers are counted, never rejected. Everything
            // downstream on this thread -- candidate walks, hedged
            // exchanges, the local-fallback harness -- inherits this
            // context, so fallback simulations record the *client's*
            // request id, not a fresh one.
            let ctx = match req.header("x-lhr-trace").map(context::parse_trace_header) {
                Some(Some((trace, parent, _flags))) => Ctx {
                    request: context::next_request_id(),
                    parent,
                    trace,
                },
                header => {
                    if header.is_some() {
                        state.obs.counter("trace.header_invalid", 1);
                    }
                    Ctx {
                        request: context::next_request_id(),
                        parent: 0,
                        trace: context::next_trace_id(),
                    }
                }
            };
            context::with_ctx(ctx, || {
                state.obs.counter("router.requests", 1);
                let tag = router_tag(&req);
                let span_name = format!("router.request.{tag}");
                let mut span = state.obs.span(&span_name);
                let response = catch_unwind(AssertUnwindSafe(|| route(state, &req)))
                    .unwrap_or_else(|_| {
                        Response::error(500, "handler_panic", "router handler panicked")
                    });
                if response.status >= 500 {
                    span.fail();
                }
                span.end();
                if response.status >= 400 {
                    state
                        .obs
                        .counter(&format!("router.http_{}", response.status), 1);
                }
                let _ = response.write_to(&mut writer);
                let latency = started.elapsed().as_secs_f64();
                let is_error = response.status >= 500;
                state.obs.counter(&format!("router.req.{tag}"), 1);
                if is_error {
                    state.obs.counter(&format!("router.err.{tag}"), 1);
                }
                state
                    .obs
                    .histogram(&format!("router.latency.{tag}"), latency);
                state.telemetry.slo.observe(is_error, latency, &state.obs);
            });
        }
        Err(HttpError::BadRequest(detail)) => {
            state.obs.counter("router.http_400", 1);
            let _ = Response::error(400, "bad_request", &detail).write_to(&mut writer);
        }
        Err(HttpError::TimedOut) => {
            state.obs.counter("router.timeout", 1);
            let _ = Response::error(408, "request_timeout", "idle connection timed out")
                .write_to(&mut writer);
        }
        Err(HttpError::Disconnected) => {
            state.obs.counter("router.disconnects", 1);
        }
    }
}

fn router_tag(req: &Request) -> &'static str {
    if req.path == "/admin/backends" {
        "/admin/backends"
    } else {
        endpoint_tag(req)
    }
}

/// Dispatches one parsed request.
fn route(state: &Arc<RouterState>, req: &Request) -> Response {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/healthz") => healthz(state),
        (Method::Get, "/metrics" | "/v1/metrics") => metrics(state, req),
        (Method::Get, "/v1/metrics/timeseries") => {
            let mut body = state.telemetry.timeseries.snapshot().render_json();
            body.push('\n');
            Response::ok_json(body)
        }
        (Method::Post, "/admin/drain") => {
            state.draining.store(true, Ordering::Relaxed);
            state.obs.counter("router.drain_requests", 1);
            Response::ok_json("{\"draining\":true}\n".to_owned())
        }
        (Method::Post, "/admin/backends") => admin_backends(state, req),
        (Method::Get, "/v1/traces") => router_traces(state, req),
        (Method::Get, p) if p.starts_with("/v1/trace/") => {
            router_trace(state, &p["/v1/trace/".len()..], req)
        }
        (_, "/admin/drain" | "/admin/backends") => Response::error(
            405,
            "method_not_allowed",
            "admin endpoints are POST-only",
        ),
        (_, p) if p.starts_with("/v1/campaigns") => Response::error(
            501,
            "campaigns_not_sharded",
            "campaigns journal on a single node; submit to a backend directly",
        ),
        (Method::Get, p)
            if matches!(
                p,
                "/v1/cell" | "/v1/sweep" | "/v1/pareto" | "/v1/findings" | "/v1/query"
            ) || p.starts_with("/v1/artifacts") =>
        {
            forward(state, req)
        }
        (Method::Post, "/v1/query") => forward(state, req),
        (Method::Post, _) => Response::error(
            405,
            "method_not_allowed",
            "only /admin/drain, /admin/backends and /v1/query accept POST",
        ),
        (Method::Get, _) => Response::error(
            404,
            "not_found",
            "unknown endpoint; see /healthz, /metrics, /v1/metrics, /v1/metrics/timeseries, \
             /v1/cell, /v1/sweep, /v1/pareto, /v1/findings, /v1/query, /v1/artifacts, \
             /v1/traces, /v1/trace/<id>, POST /v1/query, POST /admin/drain, \
             POST /admin/backends",
        ),
    }
}

// ---------------------------------------------------------------------
// Shard keys and forwarding
// ---------------------------------------------------------------------

/// The canonical target string for a request: percent-encoded path plus
/// query in arrival order. Doubles as the forwarded request target and
/// the response-cache key.
fn canonical_target(req: &Request) -> String {
    let mut target = encode_path(&req.path);
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(&encode_component(k));
        target.push('=');
        target.push_str(&encode_component(v));
    }
    target
}

fn encode_path(path: &str) -> String {
    path.split('/')
        .map(encode_component)
        .collect::<Vec<_>>()
        .join("/")
}

fn encode_component(s: impl AsRef<str>) -> String {
    use std::fmt::Write as _;
    let s = s.as_ref();
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// The shard key for a routable request. `/v1/cell` keys on the
/// structural configuration fingerprint (identical to the backends'
/// cell-cache keying) mixed with the workload name; everything else
/// keys on its canonical parameters. Unparseable cell parameters fall
/// back to hashing the whole target -- the chosen backend will render
/// the 400/404 itself.
fn shard_key(req: &Request) -> u64 {
    if req.path == "/v1/cell" {
        let structural = req.param("chip").and_then(chip_by_token).and_then(|id| {
            build_config(id, req.param("config").unwrap_or("stock"), req.param("turbo"))
                .ok()
                .map(|config| {
                    let workload = req.param("workload").unwrap_or("");
                    mix64(config_fingerprint(&config) ^ hash_key(workload.as_bytes()))
                })
        });
        if let Some(key) = structural {
            return key;
        }
    }
    hash_key(canonical_target(req).as_bytes())
}

/// A request as the router forwards it: the client's method and, for a
/// `POST`, its body, over the canonical target.
#[derive(Debug)]
struct Outbound {
    method: Method,
    target: String,
    body: String,
}

impl Outbound {
    fn new(req: &Request) -> Self {
        Outbound {
            method: req.method,
            target: canonical_target(req),
            body: match req.method {
                Method::Get => String::new(),
                Method::Post => req.body.clone(),
            },
        }
    }

    /// The bytes sent to a backend, with `x-lhr-trace` when a trace is
    /// in force. A `GET` carries no body and no `Content-Length`.
    fn render(&self, trace: Option<&str>) -> String {
        let method = match self.method {
            Method::Get => "GET",
            Method::Post => "POST",
        };
        let mut raw = format!("{method} {} HTTP/1.1\r\nHost: lhr-router\r\n", self.target);
        if let Some(header) = trace {
            raw.push_str(&format!("x-lhr-trace: {header}\r\n"));
        }
        if self.method == Method::Post {
            raw.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        raw.push_str("\r\n");
        raw.push_str(&self.body);
        raw
    }
}

/// Converts a validated backend response into a client response,
/// preserving status, content type, and the `Retry-After` hint.
fn to_response(resp: &HttpResponse) -> Response {
    Response {
        status: resp.status,
        content_type: static_content_type(resp.content_type()),
        body: resp.body.clone(),
        retry_after: resp
            .retry_after_secs()
            .map(|s| u32::try_from(s).unwrap_or(u32::MAX)),
    }
}

/// Maps a backend's `Content-Type` onto the router's `&'static` set.
fn static_content_type(ct: Option<&str>) -> &'static str {
    match ct {
        Some(s) if s == prom::CONTENT_TYPE => prom::CONTENT_TYPE,
        Some(s) if s.starts_with("application/json") => "application/json",
        Some(s) if s.starts_with("text/csv") => "text/csv",
        Some(s) if s.starts_with("text/plain") => "text/plain; charset=utf-8",
        _ => "application/octet-stream",
    }
}

/// Whether a backend response settles the request (anything that is
/// not a backend-side failure). `503` is a deliberate shed -- policy,
/// not failure -- and passes through with its `Retry-After`.
fn settles(resp: &HttpResponse) -> bool {
    resp.status < 500 || resp.status == 503
}

/// One exchange with one backend, with breaker feedback and the
/// per-backend RED series (`router.backend.{req,err}.<addr>` counters,
/// `router.backend.latency.<addr>` histogram) recorded.
///
/// Each exchange is one `router.attempt` span, and the forwarded
/// request carries `x-lhr-trace` with *this attempt's* span id as the
/// parent -- the backend's request span links under the exact attempt
/// that reached it, so a retried or hedged request stitches into one
/// tree with the failed attempts marked. With no recorder armed the
/// span is inert (id 0), no trace is in force, and the forwarded bytes
/// are identical to the untraced build.
fn exchange_recorded(
    state: &RouterState,
    backend: &Backend,
    request: &Outbound,
) -> Result<HttpResponse, httpc::ClientError> {
    let mut span = state.obs.span("router.attempt");
    let trace = context::current_trace();
    let header = (trace != 0).then(|| context::render_trace_header(trace, span.id(), 1));
    let raw = request.render(header.as_deref());
    let started = Instant::now();
    let outcome = httpc::exchange_timeouts(
        backend.addr,
        raw.as_bytes(),
        state.config.connect_timeout,
        state.config.forward_timeout,
    );
    state
        .obs
        .counter(&format!("router.backend.req.{}", backend.addr), 1);
    state.obs.histogram(
        &format!("router.backend.latency.{}", backend.addr),
        started.elapsed().as_secs_f64(),
    );
    match &outcome {
        Ok(resp) if settles(resp) => backend.breaker.record_success(),
        Ok(_) | Err(_) => {
            state
                .obs
                .counter(&format!("router.backend.err.{}", backend.addr), 1);
            backend.breaker.record_failure();
            span.fail();
        }
    }
    span.end();
    outcome
}

/// Forwards a routable request: response cache, then the ring's
/// candidates with skipping/hedging/backoff, then graceful degradation.
fn forward(state: &Arc<RouterState>, req: &Request) -> Response {
    let request = Arc::new(Outbound::new(req));
    // Query results aggregate each backend's live store, so unlike cell
    // and artifact bodies they change as cells land: never cache them.
    let cacheable = req.path != "/v1/query";
    if cacheable && state.config.route_cache > 0 {
        if let Some(hit) = state.cache.lock().expect("cache lock").get(&request.target) {
            state.obs.counter("router.cache_hits", 1);
            return Response {
                status: 200,
                content_type: hit.content_type,
                body: hit.body,
                retry_after: None,
            };
        }
    }
    let key = shard_key(req);
    let topo = state.topology();
    let candidates = topo.ring.route(key, state.config.replicas.max(1));
    let mut attempt = 0u32;
    for (i, &idx) in candidates.iter().enumerate() {
        let backend = &topo.backends[idx];
        let health = backend.health();
        if health == HealthState::Down {
            state.obs.counter("router.skip_down", 1);
            continue;
        }
        if !backend.breaker.allow() {
            state.obs.counter("router.skip_breaker", 1);
            continue;
        }
        if attempt > 0 {
            // Bounded backoff between candidate attempts: base * 2^(n-1),
            // capped so a pathological chain cannot stack seconds.
            let backoff = state
                .config
                .retry_backoff
                .saturating_mul(1 << (attempt - 1).min(3));
            std::thread::sleep(backoff.min(Duration::from_millis(200)));
        }
        attempt += 1;
        // A Suspect primary gets a hedged twin on the next candidate:
        // first settling response wins, and the slow path stops costing
        // tail latency exactly when the backend is most likely sick.
        let hedge_mate = candidates
            .get(i + 1)
            .map(|&j| Arc::clone(&topo.backends[j]))
            .filter(|b| b.health() != HealthState::Down && health == HealthState::Suspect);
        let outcome = match hedge_mate {
            Some(mate) => hedged_exchange(state, Arc::clone(backend), mate, &request),
            None => exchange_recorded(state, backend, &request),
        };
        match outcome {
            Ok(resp) if settles(&resp) => {
                if cacheable && resp.status == 200 && state.config.route_cache > 0 {
                    state.cache.lock().expect("cache lock").put(
                        request.target.clone(),
                        CachedBody {
                            content_type: static_content_type(resp.content_type()),
                            body: resp.body.clone(),
                        },
                    );
                }
                return to_response(&resp);
            }
            Ok(_) => {
                state.obs.counter("router.backend_5xx", 1);
            }
            Err(_) => {
                state.obs.counter("router.backend_io_errors", 1);
            }
        }
    }
    degrade(state, req)
}

/// Runs `primary` with a hedged twin on `mate`: the twin launches if
/// the primary has not settled within `hedge_after`, and the first
/// settling response wins. Both exchanges record their own breaker and
/// RED feedback (a losing twin still teaches the breaker).
///
/// The request's trace context is re-established on each leg's thread,
/// so both legs carry the *same* trace id but mint *distinct*
/// `router.attempt` span ids -- a stitched tree shows the race, not a
/// merged blur.
fn hedged_exchange(
    state: &Arc<RouterState>,
    primary: Arc<Backend>,
    mate: Arc<Backend>,
    request: &Arc<Outbound>,
) -> Result<HttpResponse, httpc::ClientError> {
    let (tx, rx) = mpsc::channel();
    let ctx = context::capture();
    let spawn = |backend: Arc<Backend>, tx: mpsc::Sender<_>| {
        let state = Arc::clone(state);
        let request = Arc::clone(request);
        std::thread::spawn(move || {
            let outcome = context::with_ctx(ctx, || exchange_recorded(&state, &backend, &request));
            let _ = tx.send(outcome);
        });
    };
    spawn(primary, tx.clone());
    let first = rx.recv_timeout(state.config.hedge_after);
    match first {
        Ok(Ok(resp)) if settles(&resp) => Ok(resp),
        Ok(first_outcome) => {
            // The primary answered badly; the mate is now a retry, not
            // a hedge -- launch it and take whatever settles.
            state.obs.counter("router.hedges", 1);
            spawn(mate, tx);
            match rx.recv_timeout(state.config.forward_timeout) {
                Ok(second) if second.as_ref().map(settles).unwrap_or(false) => second,
                _ => first_outcome,
            }
        }
        Err(_) => {
            // Primary still pending past hedge_after: race the twin.
            state.obs.counter("router.hedges", 1);
            spawn(mate, tx);
            let deadline = Instant::now() + state.config.forward_timeout;
            let mut last = None;
            for _ in 0..2 {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(outcome) => {
                        if outcome.as_ref().map(settles).unwrap_or(false) {
                            state.obs.counter("router.hedge_wins", 1);
                            return outcome;
                        }
                        last = Some(outcome);
                    }
                    Err(_) => break,
                }
            }
            last.unwrap_or_else(|| {
                Err(httpc::ClientError::Io(io::Error::other(
                    "hedged exchange timed out on both legs",
                )))
            })
        }
    }
}

/// Graceful degradation once every candidate is gone: compute locally
/// when a fallback harness is armed, otherwise shed honestly. Never a
/// crash-derived 5xx.
fn degrade(state: &Arc<RouterState>, req: &Request) -> Response {
    match &state.fallback {
        Some(fb) => {
            state.obs.counter("router.local_fallbacks", 1);
            // The fallback runs on this thread under the client
            // request's context (installed by `serve_connection`), so
            // its simulation spans carry the client's request and trace
            // ids -- not a fresh id -- and nest under this span.
            let mut span = state.obs.span("router.fallback");
            let response = handlers::route(fb, req);
            if response.status >= 500 {
                span.fail();
            }
            span.end();
            response
        }
        None => {
            state.obs.counter("router.no_backend_503", 1);
            Response::overloaded("no healthy backend for shard; retry shortly", 1)
        }
    }
}

// ---------------------------------------------------------------------
// Router-local endpoints
// ---------------------------------------------------------------------

/// `/healthz`: aggregated per-backend state. `status` is `ok` when
/// every backend is Up, `degraded` while any is Suspect/Down but the
/// fleet (or fallback) can still serve, `down` when nothing can.
fn healthz(state: &Arc<RouterState>) -> Response {
    let topo = state.topology();
    let mut up = 0usize;
    let mut suspect = 0usize;
    let mut down = 0usize;
    for b in &topo.backends {
        match b.health() {
            HealthState::Up => up += 1,
            HealthState::Suspect => suspect += 1,
            HealthState::Down => down += 1,
        }
    }
    let routable = up + suspect;
    let status = if !topo.backends.is_empty() && down == 0 && suspect == 0 {
        "ok"
    } else if routable > 0 || state.fallback.is_some() {
        "degraded"
    } else {
        "down"
    };
    let mut body = String::with_capacity(512);
    body.push_str("{\"status\":");
    push_json_string(&mut body, status);
    body.push_str(",\"role\":\"router\",\"uptime_seconds\":");
    push_json_number(&mut body, state.started.elapsed().as_secs_f64());
    body.push_str(",\"draining\":");
    body.push_str(if state.draining.load(Ordering::Relaxed) {
        "true"
    } else {
        "false"
    });
    body.push_str(",\"local_fallback\":");
    body.push_str(if state.fallback.is_some() {
        "true"
    } else {
        "false"
    });
    // Telemetry loss is surfaced here, not buried in /metrics: a
    // router silently dropping trace lines or span batches is exactly
    // the failure an operator debugging via traces cannot see.
    body.push_str(",\"trace_write_errors\":");
    push_json_number(&mut body, state.telemetry.trace_write_errors() as f64);
    body.push_str(",\"span_append_errors\":");
    push_json_number(&mut body, state.telemetry.span_append_errors() as f64);
    body.push_str(",\"up\":");
    push_json_number(&mut body, up as f64);
    body.push_str(",\"suspect\":");
    push_json_number(&mut body, suspect as f64);
    body.push_str(",\"down\":");
    push_json_number(&mut body, down as f64);
    body.push_str(",\"backends\":[");
    for (i, b) in topo.backends.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"addr\":");
        push_json_string(&mut body, &b.addr.to_string());
        body.push_str(",\"health\":");
        push_json_string(&mut body, b.health().name());
        body.push_str(",\"breaker\":");
        push_json_string(&mut body, b.breaker_state().name());
        body.push_str(",\"last_probe_ms\":");
        let micros = b.last_probe_micros.load(Ordering::Relaxed);
        if micros == u64::MAX {
            body.push_str("null");
        } else {
            push_json_number(&mut body, micros as f64 / 1000.0);
        }
        body.push('}');
    }
    body.push_str("]}\n");
    Response::ok_json(body)
}

/// `/metrics` and `/v1/metrics` for the router's own telemetry, with
/// the same Prometheus content negotiation as a backend.
fn metrics(state: &Arc<RouterState>, req: &Request) -> Response {
    let snap = state.telemetry.snapshot();
    let wants_prometheus = req.param("format") == Some("prometheus")
        || req
            .header("accept")
            .is_some_and(|accept| accept.contains("text/plain"));
    if wants_prometheus {
        Response {
            status: 200,
            content_type: prom::CONTENT_TYPE,
            body: prom::render_prometheus(&snap).into_bytes(),
            retry_after: None,
        }
    } else {
        Response::ok_text(snap.render())
    }
}

/// `POST /admin/backends?set=host:port,host:port,...` -- replaces the
/// backend set live. Restarted backends come back on fresh ports (the
/// killed listener's port sits in TIME_WAIT), so rolling restarts are
/// an admin update, not a config reload.
fn admin_backends(state: &Arc<RouterState>, req: &Request) -> Response {
    let Some(set) = req.param("set") else {
        return Response::error(400, "missing_param", "set=addr,addr,... is required");
    };
    let mut addrs = Vec::new();
    for part in set.split(',').filter(|p| !p.is_empty()) {
        match part.parse::<SocketAddr>() {
            Ok(addr) => addrs.push(addr),
            Err(e) => {
                return Response::error(400, "bad_backend", &format!("{part:?}: {e}"));
            }
        }
    }
    state.set_backends(&addrs);
    healthz(state)
}

// ---------------------------------------------------------------------
// Distributed-trace endpoints
// ---------------------------------------------------------------------

/// `GET /v1/traces`: searches the *router's* span table. Every client
/// request passes through the router, so router-side summaries cover
/// the whole topology; the per-process detail lives behind
/// `/v1/trace/<id>`, which aggregates the backends.
fn router_traces(state: &Arc<RouterState>, req: &Request) -> Response {
    let Some(spans) = state.telemetry.spans.as_ref() else {
        return Response::error(
            503,
            "span_store_unavailable",
            "this router runs without a span store; boot with --span-store to enable trace search",
        );
    };
    let query = lhr_store::SpanQuery {
        name: req.param("name").unwrap_or("").to_owned(),
        errors_only: req.param("status") == Some("error"),
        min_dur_ns: req
            .param("min_dur_ns")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        limit: req.param("limit").and_then(|v| v.parse().ok()).unwrap_or(50),
    };
    let mut body = lhr_store::summaries_json(&spans.table().search(&query));
    body.push('\n');
    Response::ok_json(body)
}

/// `GET /v1/trace/<32-hex-id>`: the stitched *multi-process* tree. The
/// router merges its own span fragment with every reachable backend's
/// (`GET /v1/trace/<id>?format=fragment` against each), then stitches
/// with clock-skew alignment -- each backend fragment is shifted into
/// the router's timeline using the send/recv bounds of the attempt
/// span that parented it. Down backends are skipped: a trace is served
/// from whatever fragments survive, never blocked on a dead process.
fn router_trace(state: &Arc<RouterState>, id: &str, req: &Request) -> Response {
    let Some(spans) = state.telemetry.spans.as_ref() else {
        return Response::error(
            503,
            "span_store_unavailable",
            "this router runs without a span store; boot with --span-store to enable trace lookup",
        );
    };
    let Ok(trace) = u128::from_str_radix(id.trim(), 16) else {
        return Response::error(400, "bad_trace_id", "trace id must be hex (32 digits)");
    };
    let mut rows = spans.table().trace_rows(trace);
    let topo = state.topology();
    for backend in &topo.backends {
        if backend.health() == HealthState::Down {
            continue;
        }
        let raw = format!(
            "GET /v1/trace/{trace:032x}?format=fragment HTTP/1.1\r\nHost: lhr-router\r\n\r\n"
        );
        match httpc::exchange_timeouts(
            backend.addr,
            raw.as_bytes(),
            state.config.connect_timeout,
            state.config.forward_timeout,
        ) {
            Ok(resp) if resp.status == 200 => {
                if let Ok(body) = std::str::from_utf8(&resp.body) {
                    if let Some(fragment) = lhr_store::parse_fragment(body) {
                        merge_fragment(&mut rows, fragment);
                    }
                }
            }
            // 404/503 mean "no fragment there" -- normal for a trace
            // that never touched this backend or one without a store.
            Ok(_) | Err(_) => {}
        }
    }
    if rows.is_empty() {
        return Response::error(404, "no_such_trace", "no persisted spans for that trace id");
    }
    let mut body = if req.param("format") == Some("fragment") {
        lhr_store::fragment_json(trace, &rows)
    } else {
        lhr_store::tree_json(trace, &lhr_store::stitch(&rows))
    };
    body.push('\n');
    Response::ok_json(body)
}

/// Merges a backend fragment into the accumulated row set, dropping
/// exact duplicates (two backends sharing one span directory would
/// otherwise double every span).
fn merge_fragment(rows: &mut Vec<SpanRow>, fragment: Vec<SpanRow>) {
    for row in fragment {
        let dup = rows
            .iter()
            .any(|r| r.proc == row.proc && r.span == row.span && r.start_ns == row.start_ns);
        if !dup {
            rows.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_req(target: &str) -> Request {
        let raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n");
        read_request(&mut BufReader::new(raw.as_bytes())).expect("parse")
    }

    #[test]
    fn canonical_target_round_trips_the_query() {
        let req = get_req("/v1/cell?chip=i7-45&config=4C2T%402.7&workload=jess");
        assert_eq!(
            canonical_target(&req),
            "/v1/cell?chip=i7-45&config=4C2T%402.7&workload=jess"
        );
        // Decoded specials re-encode; the backend decodes them again.
        let req = get_req("/v1/artifacts/table%204.txt");
        assert_eq!(canonical_target(&req), "/v1/artifacts/table%204.txt");
    }

    #[test]
    fn forwarded_gets_keep_their_bytes_and_posts_carry_their_body() {
        let get = Outbound::new(&get_req("/v1/cell?chip=i7-45&workload=jess"));
        assert_eq!(
            get.render(None),
            "GET /v1/cell?chip=i7-45&workload=jess HTTP/1.1\r\nHost: lhr-router\r\n\r\n"
        );
        assert_eq!(
            get.render(Some("trace-header")),
            "GET /v1/cell?chip=i7-45&workload=jess HTTP/1.1\r\nHost: lhr-router\r\n\
             x-lhr-trace: trace-header\r\n\r\n"
        );
        let parse = |raw: &str| read_request(&mut BufReader::new(raw.as_bytes())).expect("parse");
        // A body sent with a GET is not forwarded.
        let get = parse("GET /v1/query?q=x HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nabc");
        assert_eq!(
            Outbound::new(&get).render(None),
            "GET /v1/query?q=x HTTP/1.1\r\nHost: lhr-router\r\n\r\n"
        );
        let post = parse(
            "POST /v1/query?format=json HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\n\r\nagg max(\"x\")",
        );
        assert_eq!(
            Outbound::new(&post).render(Some("h")),
            "POST /v1/query?format=json HTTP/1.1\r\nHost: lhr-router\r\nx-lhr-trace: h\r\n\
             Content-Length: 12\r\n\r\nagg max(\"x\")"
        );
    }

    #[test]
    fn cell_keys_are_structural_not_textual() {
        // Same cell spelled two ways (alias + explicit stock) must key
        // identically, so both land on the same backend cache.
        let a = shard_key(&get_req("/v1/cell?chip=i7-45&workload=jess"));
        let b = shard_key(&get_req("/v1/cell?chip=i7&config=stock&workload=jess"));
        assert_eq!(a, b);
        // Different workloads must not.
        let c = shard_key(&get_req("/v1/cell?chip=i7-45&workload=db"));
        assert_ne!(a, c);
        // Unparseable chips still get a deterministic key.
        let d = shard_key(&get_req("/v1/cell?chip=z80&workload=jess"));
        assert_eq!(d, shard_key(&get_req("/v1/cell?chip=z80&workload=jess")));
    }

    #[test]
    fn route_cache_is_bounded_fifo() {
        let mut cache = RouteCache::new(2);
        let body = |s: &str| CachedBody {
            content_type: "application/json",
            body: s.as_bytes().to_vec(),
        };
        cache.put("a".into(), body("1"));
        cache.put("b".into(), body("2"));
        cache.put("c".into(), body("3"));
        assert!(cache.get("a").is_none(), "oldest evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        // Zero capacity never stores.
        let mut off = RouteCache::new(0);
        off.put("a".into(), body("1"));
        assert!(off.get("a").is_none());
    }

    #[test]
    fn static_content_types_map_onto_the_known_set() {
        assert_eq!(
            static_content_type(Some("application/json")),
            "application/json"
        );
        assert_eq!(
            static_content_type(Some("text/plain; charset=utf-8")),
            "text/plain; charset=utf-8"
        );
        assert_eq!(static_content_type(Some(prom::CONTENT_TYPE)), prom::CONTENT_TYPE);
        assert_eq!(static_content_type(None), "application/octet-stream");
    }

    #[test]
    fn settles_passes_sheds_and_client_errors_but_not_5xx() {
        let resp = |status| HttpResponse {
            status,
            headers: Vec::new(),
            body: Vec::new(),
            length_checked: true,
        };
        assert!(settles(&resp(200)));
        assert!(settles(&resp(404)));
        assert!(settles(&resp(503)), "a shed is policy, not failure");
        assert!(!settles(&resp(500)));
        assert!(!settles(&resp(504)));
    }
}
