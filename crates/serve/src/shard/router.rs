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
//!
//! The router serves through the same front end as a backend
//! ([`crate::front`]): accept, admission, worker pool, connection
//! handling, the metrics, drain and trace-search endpoints, and the
//! drain itself. This module adds only what a router does: its route
//! function and endpoint tag, `/healthz`, `POST /admin/backends`,
//! forwarding with hedging and breakers, the health prober, and the
//! stitching of backend trace fragments into `/v1/trace/<id>`.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use lhr_core::cache::config_fingerprint;
use lhr_core::Harness;
use lhr_obs::context;
use lhr_obs::{prom, push_json_number, push_json_string, Obs};
use lhr_store::SpanRow;

use crate::campaigns::Orchestrator;
use crate::coalesce::FlightBoard;
use crate::front::{self, Drain, Handle, Service, Settings};
use crate::handlers::{self, build_config, chip_by_token, endpoint_tag, ServeState};
use crate::http::{Method, Request, Response};
use crate::httpc::{self, HttpResponse};
use crate::queue::BoundedQueue;
use crate::shard::breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
use crate::shard::health::{HealthFsm, HealthPolicy, HealthState};
use crate::shard::ring::{hash_key, mix64, HashRing};
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
    drain: Arc<Drain>,
    /// Set by the drain once the workers have exited; stops the prober.
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
    let (listener, drain) = front::bind(&config.addr)?;
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
            drain: Arc::default(),
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
        drain: Arc::clone(&drain),
        stopped: AtomicBool::new(false),
        started: Instant::now(),
        config,
    });

    // The health prober: one round immediately (a fresh topology is
    // all-Suspect until proven), then every probe_interval, parked in
    // between; the drain unparks it to stop it.
    let probe_state = Arc::clone(&state);
    let prober = std::thread::Builder::new()
        .name("lhr-router-prober".to_owned())
        .spawn(move || {
            let stopped = || probe_state.stopped.load(Ordering::Relaxed);
            while !stopped() {
                probe_round(&probe_state);
                let next = Instant::now() + probe_state.config.probe_interval;
                while !stopped() {
                    let left = next.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::park_timeout(left);
                }
            }
        })
        .expect("spawn prober");

    // Drain: the workers finish what is queued while the prober keeps
    // health current, then the prober stops.
    let stop_state = Arc::clone(&state);
    let stop_prober = move || {
        stop_state.stopped.store(true, Ordering::Relaxed);
        prober.thread().unpark();
        let _ = prober.join();
    };
    let queue = Arc::new(BoundedQueue::new(state.config.queue_depth));
    let settings = Settings {
        jobs: state.config.jobs,
        read_timeout: state.config.read_timeout,
        shed_writers: state.config.shed_writers,
        shed_depth: state.config.shed_depth,
    };
    Ok(front::serve(
        listener,
        drain,
        state,
        queue,
        settings,
        || {},
        stop_prober,
    ))
}

/// A running router.
pub type RouterHandle = Handle<RouterState>;

impl Service for RouterState {
    const PREFIX: &'static str = "router";
    type Task = Infallible;

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn tag(req: &Request) -> &'static str {
        if req.path == "/admin/backends" {
            "/admin/backends"
        } else {
            endpoint_tag(req)
        }
    }

    fn route(state: &Arc<Self>, req: &Request) -> Response {
        route(state, req)
    }

    fn run(_state: &Arc<Self>, task: Infallible) {
        match task {}
    }

    /// Merges every reachable backend's fragment of `trace` (`GET
    /// /v1/trace/<id>?format=fragment` against each) into the router's
    /// own rows; the stitcher then aligns clock skew -- each backend
    /// fragment is shifted into the router's timeline using the
    /// send/recv bounds of the attempt span that parented it. Down
    /// backends are skipped: a trace is served from whatever fragments
    /// survive, never blocked on a dead process.
    fn remote_rows(state: &Arc<Self>, trace: u128, rows: &mut Vec<SpanRow>) {
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
                            merge_fragment(rows, fragment);
                        }
                    }
                }
                // 404/503 mean "no fragment there" -- normal for a trace
                // that never touched this backend or one without a store.
                Ok(_) | Err(_) => {}
            }
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

/// Dispatches one parsed request the front end's shared endpoints did
/// not answer.
fn route(state: &Arc<RouterState>, req: &Request) -> Response {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/healthz") => healthz(state),
        (Method::Post, "/admin/backends") => admin_backends(state, req),
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
            // request's context (installed by the front end), so
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
    body.push_str(if state.drain.requested() {
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
    use crate::http::read_request;
    use std::io::BufReader;

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
