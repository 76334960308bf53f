//! The HTTP front end `lhr_serve` and `lhr_router` share: the listener,
//! admission and the 503 shed, the worker pool, the connection handler,
//! the endpoints both answer alike, the drain, and the handle. A
//! `Service` supplies the rest: its route function, its endpoint tagger
//! and its metric prefix (`serve` or `router`).
//!
//! The accept thread blocks in `accept`. A drain sets its [`Drain`] flag
//! and connects to the listener; the accept returns that connection,
//! sees the flag and drops it uncounted. A signal cannot end a blocked
//! accept, so each front end's watcher thread reads
//! [`signal::drain_requested`] five times a second and turns it into a
//! drain. DESIGN.md, "Concurrency machinery and guarantees", has the
//! drain order.

use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lhr_obs::context::{self, Ctx};
use lhr_obs::{prom, Obs};
use lhr_store::SpanRow;

use crate::http::{read_request, HttpError, Method, Request, Response};
use crate::queue::{BoundedQueue, PushError, ShedPool};
use crate::signal;
use crate::telemetry::Telemetry;

/// How long a wake connection may take; a listener whose backlog is
/// full has connections to accept and sees the flag without it.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// How often the signal watcher reads [`signal::drain_requested`].
const SIGNAL_CHECK: Duration = Duration::from_millis(200);

/// The pause after a failed accept (for example `EMFILE`), so a
/// persistent error does not spin the accept thread.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_micros(200);

/// What a front end serves: the state behind it and the few things
/// that differ between the server and the router.
pub(crate) trait Service: Send + Sync + Sized + 'static {
    /// Prefix of the front end's metric and span names, and of its
    /// thread names: `serve` or `router`.
    const PREFIX: &'static str;
    /// The gauge the admission queue's depth is published as, if any.
    const QUEUE_DEPTH: Option<&'static str> = None;
    /// Background work the pool runs when no connection waits.
    type Task: Send + 'static;

    /// The observer the front end's events go to.
    fn obs(&self) -> &Obs;
    /// The recorders behind the shared endpoints and the SLO tracker.
    fn telemetry(&self) -> &Telemetry;
    /// The stable endpoint tag naming a request's metrics and span.
    fn tag(req: &Request) -> &'static str;
    /// Answers every request the shared endpoints do not.
    fn route(state: &Arc<Self>, req: &Request) -> Response;
    /// Runs one background task on a pool worker.
    fn run(state: &Arc<Self>, task: Self::Task);
    /// Adds the rows of `trace` that other processes hold to this
    /// process's own, for `GET /v1/trace/<id>`.
    fn remote_rows(_state: &Arc<Self>, _trace: u128, _rows: &mut Vec<SpanRow>) {}
}

/// The knobs a front end runs with, as `ServerConfig` and
/// `RouterConfig` both spell them.
pub(crate) struct Settings {
    pub jobs: usize,
    pub read_timeout: Duration,
    pub shed_writers: usize,
    pub shed_depth: usize,
}

/// A front end's drain switch: the flag its accept loop and `/healthz`
/// read, and the listener a drain connects to so a blocked accept
/// returns.
#[derive(Debug, Default)]
pub struct Drain {
    requested: AtomicBool,
    /// Where to connect while the accept loop runs; `None` once it has
    /// stopped (or for a state that never had a listener).
    wake: Mutex<Option<SocketAddr>>,
}

impl Drain {
    /// Requests the drain and wakes the accept loop.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        // Held while connecting, so the accept thread cannot close the
        // listener (and free its port) under a wake. `Drop` calls this,
        // and the address is valid after any update, so poison is moot.
        let wake = self.wake.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(addr) = *wake {
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
    }

    /// Whether a drain was requested.
    #[must_use]
    pub fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    fn close(&self) {
        *self.wake.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// A running front end; dropping it (or calling [`Handle::wait`] after
/// a drain) shuts it down gracefully.
#[derive(Debug)]
pub struct Handle<S> {
    addr: SocketAddr,
    state: Arc<S>,
    drain: Arc<Drain>,
    accept: Option<JoinHandle<()>>,
}

impl<S> Handle<S> {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect caches, health and telemetry).
    #[must_use]
    pub fn state(&self) -> &Arc<S> {
        &self.state
    }

    /// Requests a drain from process context, same as `POST
    /// /admin/drain`.
    pub fn drain(&self) {
        self.drain.request();
    }

    /// Blocks until the drain is done: accept stopped, queue emptied,
    /// workers exited, observer flushed.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl<S> Drop for Handle<S> {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.drain.request();
            let _ = accept.join();
        }
    }
}

/// One unit of work for the pool. The queue's lane order makes the
/// priority structural: a worker runs a task only when no connection
/// waits.
#[derive(Debug)]
pub(crate) enum Work<T> {
    /// An admitted connection and the trace request id minted for it at
    /// admission, so its time queued is inside the request's story.
    Conn { stream: TcpStream, request: u64 },
    /// A service task on the background lane (campaign cells).
    Task(T),
}

/// Binds `addr`: the listener, and the drain switch that wakes its
/// accept.
///
/// # Errors
///
/// The bind failure.
pub(crate) fn bind(addr: &str) -> io::Result<(TcpListener, Arc<Drain>)> {
    let listener = TcpListener::bind(addr)?;
    let mut wake = listener.local_addr()?;
    // A wildcard bind is reached over loopback.
    match wake.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    let drain = Drain {
        requested: AtomicBool::new(false),
        wake: Mutex::new(Some(wake)),
    };
    Ok((listener, Arc::new(drain)))
}

/// Starts the worker pool and the accept thread. On a drain,
/// `stop_feeders` runs once accept has stopped and before the queue
/// closes; `stop_helpers` runs once the workers have exited.
pub(crate) fn serve<S: Service>(
    listener: TcpListener,
    drain: Arc<Drain>,
    state: Arc<S>,
    queue: Arc<BoundedQueue<Work<S::Task>>>,
    settings: Settings,
    stop_feeders: impl FnOnce() + Send + 'static,
    stop_helpers: impl FnOnce() + Send + 'static,
) -> Handle<S> {
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let workers: Vec<JoinHandle<()>> = (0..settings.jobs.max(1))
        .map(|i| {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let drain = Arc::clone(&drain);
            std::thread::Builder::new()
                .name(format!("lhr-{}-worker-{i}", S::PREFIX))
                .spawn(move || work(&state, &drain, &queue))
                .expect("spawn worker")
        })
        .collect();

    // A signal cannot end a blocked accept (std retries `EINTR`), so this
    // thread turns one into a drain.
    let watcher_drain = Arc::clone(&drain);
    let watcher = std::thread::Builder::new()
        .name(format!("lhr-{}-signals", S::PREFIX))
        .spawn(move || {
            while !watcher_drain.requested() {
                if signal::drain_requested() {
                    watcher_drain.request();
                }
                std::thread::park_timeout(SIGNAL_CHECK);
            }
        })
        .expect("spawn signal watcher");
    let front_state = Arc::clone(&state);
    let front_drain = Arc::clone(&drain);
    let accept = std::thread::Builder::new()
        .name(format!("lhr-{}-accept", S::PREFIX))
        .spawn(move || {
            let (state, drain) = (front_state, front_drain);
            let shed = ShedPool::new(settings.shed_writers, settings.shed_depth);
            accept_loop(
                &listener,
                &*state,
                &drain,
                &queue,
                &shed,
                settings.read_timeout,
            );
            // Refuse new connections while the drain runs.
            drain.close();
            drop(listener);
            watcher.thread().unpark();
            let _ = watcher.join();
            stop_feeders();
            queue.close();
            for w in workers {
                let _ = w.join();
            }
            shed.shutdown();
            stop_helpers();
            state.obs().counter(&format!("{}.drained", S::PREFIX), 1);
            state.telemetry().timeseries.seal_all();
            state.obs().flush();
        })
        .expect("spawn accept loop");
    Handle {
        addr,
        state,
        drain,
        accept: Some(accept),
    }
}

fn accept_loop<S: Service>(
    listener: &TcpListener,
    state: &S,
    drain: &Drain,
    queue: &BoundedQueue<Work<S::Task>>,
    shed: &ShedPool,
    read_timeout: Duration,
) {
    let obs = state.obs();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        // A drain's wake connection ends the loop here, uncounted.
        if drain.requested() {
            return;
        }
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_nodelay(true);
        obs.counter(&format!("{}.accepted", S::PREFIX), 1);
        let request = context::next_request_id();
        match queue.try_push(Work::Conn { stream, request }) {
            Ok(()) => {
                if let Some(gauge) = S::QUEUE_DEPTH {
                    obs.gauge(gauge, queue.len() as f64);
                }
            }
            // The queue closes only after this loop returns, so a push
            // here fails only because the queue is full.
            Err(PushError::Full(work) | PushError::Closed(work)) => {
                // Admission control: shed *now*, from the accept thread,
                // with a backoff hint -- queueing it anyway is how
                // latency collapses under load. The bounded shed pool
                // writes the 503; if even that backlog is full, the
                // connection is dropped (counted), never left to block
                // the accept thread.
                let Work::Conn { stream, .. } = work else {
                    unreachable!("accept only pushes connections")
                };
                obs.counter(&format!("{}.shed_503", S::PREFIX), 1);
                let response = Response::overloaded("request queue full", 1);
                if !shed.try_shed(stream, response) {
                    obs.counter(&format!("{}.shed_dropped", S::PREFIX), 1);
                }
            }
        }
    }
}

/// One pool worker: serves connections and runs tasks until the queue
/// closes and empties.
fn work<S: Service>(state: &Arc<S>, drain: &Drain, queue: &BoundedQueue<Work<S::Task>>) {
    while let Some(work) = queue.pop() {
        if let Some(gauge) = S::QUEUE_DEPTH {
            state.obs().gauge(gauge, queue.len() as f64);
        }
        // A panicking handler must cost one response (or one task),
        // never the worker: contain it and keep serving.
        let survived = catch_unwind(AssertUnwindSafe(|| match work {
            // The trace is joined (or minted) once the request's
            // `x-lhr-trace` header is parsed.
            Work::Conn { stream, request } => context::with_ctx(
                Ctx {
                    request,
                    parent: 0,
                    trace: 0,
                },
                || serve_connection(state, drain, stream),
            ),
            Work::Task(task) => S::run(state, task),
        }));
        if survived.is_err() {
            state
                .obs()
                .counter(&format!("{}.worker_panics_contained", S::PREFIX), 1);
        }
    }
}

/// Serves exactly one request on one connection (`Connection: close`
/// protocol: parse, route, respond), recording the endpoint's RED
/// metrics (rate `<prefix>.req.<tag>`, errors `<prefix>.err.<tag>`,
/// duration `<prefix>.latency.<tag>` in seconds) and feeding the
/// request's outcome to the SLO tracker.
fn serve_connection<S: Service>(state: &Arc<S>, drain: &Drain, stream: TcpStream) {
    let started = Instant::now();
    let obs = state.obs();
    let prefix = S::PREFIX;
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    match read_request(&mut reader) {
        Ok(req) => {
            // Join the caller's distributed trace (`x-lhr-trace`) or mint
            // one, so everything the request causes -- campaign cells,
            // forwarded attempts, a local fallback -- is linkable. A
            // hostile header is counted and ignored, never a 400.
            let ctx = match req.header("x-lhr-trace").map(context::parse_trace_header) {
                Some(Some((trace, parent, _flags))) => Ctx {
                    request: context::current_request(),
                    parent,
                    trace,
                },
                header => {
                    if header.is_some() {
                        obs.counter("trace.header_invalid", 1);
                    }
                    Ctx {
                        request: context::current_request(),
                        parent: 0,
                        trace: context::next_trace_id(),
                    }
                }
            };
            context::with_ctx(ctx, || {
                obs.counter(&format!("{prefix}.requests"), 1);
                let tag = S::tag(&req);
                let mut span = obs.span(&format!("{prefix}.request.{tag}"));
                let response = catch_unwind(AssertUnwindSafe(|| respond(state, drain, &req)))
                    .unwrap_or_else(|_| {
                        Response::error(500, "handler_panic", "handler panicked; see /metrics")
                    });
                if response.status >= 500 {
                    span.fail();
                }
                span.end();
                if response.status >= 400 {
                    obs.counter(&format!("{prefix}.http_{}", response.status), 1);
                }
                let _ = response.write_to(&mut writer);
                let latency = started.elapsed().as_secs_f64();
                let is_error = response.status >= 500;
                obs.counter(&format!("{prefix}.req.{tag}"), 1);
                if is_error {
                    obs.counter(&format!("{prefix}.err.{tag}"), 1);
                }
                obs.histogram(&format!("{prefix}.latency.{tag}"), latency);
                state.telemetry().slo.observe(is_error, latency, obs);
            });
        }
        Err(HttpError::BadRequest(detail)) => {
            obs.counter(&format!("{prefix}.http_400"), 1);
            let _ = Response::error(400, "bad_request", &detail).write_to(&mut writer);
        }
        Err(HttpError::TimedOut) => {
            // Slowloris guard: the socket read timeout fired before a
            // full request arrived. Tell the client (best effort) and
            // free the worker.
            obs.counter(&format!("{prefix}.timeout"), 1);
            let _ = Response::error(408, "request_timeout", "idle connection timed out")
                .write_to(&mut writer);
        }
        Err(HttpError::Disconnected) => {
            obs.counter(&format!("{prefix}.disconnects"), 1);
        }
    }
}

/// Answers the endpoints both binaries serve alike; the service routes
/// the rest.
fn respond<S: Service>(state: &Arc<S>, drain: &Drain, req: &Request) -> Response {
    let telemetry = state.telemetry();
    match (req.method, req.path.as_str()) {
        // `/metrics` is the legacy text profile; `/v1/metrics` adds
        // content negotiation (Prometheus exposition on request).
        (Method::Get, "/metrics" | "/v1/metrics") => metrics(telemetry, req),
        (Method::Get, "/v1/metrics/timeseries") => {
            let mut body = telemetry.timeseries.snapshot().render_json();
            body.push('\n');
            Response::ok_json(body)
        }
        (Method::Post, "/admin/drain") => {
            drain.request();
            state
                .obs()
                .counter(&format!("{}.drain_requests", S::PREFIX), 1);
            Response::ok_json("{\"draining\":true}\n".to_owned())
        }
        (Method::Get, "/v1/traces") => traces(telemetry, req),
        (Method::Get, p) if p.starts_with("/v1/trace/") => {
            trace(state, &p["/v1/trace/".len()..], req)
        }
        _ => S::route(state, req),
    }
}

/// `/metrics` and `/v1/metrics`: the lifetime aggregates, as the
/// human-readable text profile by default, or as a Prometheus text
/// exposition (format 0.0.4) when the client asks -- via
/// `?format=prometheus` or an `Accept` header naming `text/plain`
/// (what a Prometheus scraper sends).
fn metrics(telemetry: &Telemetry, req: &Request) -> Response {
    let snap = telemetry.snapshot();
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

fn span_store_unavailable() -> Response {
    Response::error(
        503,
        "span_store_unavailable",
        "this server runs without a span store; boot with --span-store to enable trace search",
    )
}

/// `GET /v1/traces?name=<substr>&status=error&min_dur_ns=N&limit=N`:
/// searches this process's span table and returns per-trace summaries,
/// newest first. Answers from the in-memory mirror of the table -- no
/// disk reads, no engine work. A router sees every client request, so
/// its summaries cover the whole topology; the per-process detail lives
/// behind `/v1/trace/<id>`.
fn traces(telemetry: &Telemetry, req: &Request) -> Response {
    let Some(spans) = telemetry.spans.as_ref() else {
        return span_store_unavailable();
    };
    let query = lhr_store::SpanQuery {
        name: req.param("name").unwrap_or("").to_owned(),
        errors_only: req.param("status") == Some("error"),
        min_dur_ns: req
            .param("min_dur_ns")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        limit: req
            .param("limit")
            .and_then(|v| v.parse().ok())
            .unwrap_or(50),
    };
    let mut body = lhr_store::summaries_json(&spans.table().search(&query));
    body.push('\n');
    Response::ok_json(body)
}

/// `GET /v1/trace/<32-hex-id>`: the stitched span tree of one trace,
/// from this process's rows plus whatever `Service::remote_rows` adds.
/// `?format=fragment` returns the raw rows instead -- what a router
/// fetches from each backend before stitching the multi-process view.
fn trace<S: Service>(state: &Arc<S>, id: &str, req: &Request) -> Response {
    let Some(spans) = state.telemetry().spans.as_ref() else {
        return span_store_unavailable();
    };
    let Ok(trace) = u128::from_str_radix(id.trim(), 16) else {
        return Response::error(400, "bad_trace_id", "trace id must be hex (32 digits)");
    };
    let mut rows = spans.table().trace_rows(trace);
    S::remote_rows(state, trace, &mut rows);
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
