//! Request routing and endpoint handlers.
//!
//! Cheap endpoints (`/healthz`, `/metrics`, `/v1/artifacts`, admin)
//! answer inline. Expensive endpoints -- anything that runs the
//! measurement engine -- go through the [`FlightBoard`]: requests for
//! the same cell coalesce onto one computation, capacity and deadline
//! policies bound the worst case, and the rendered body is shared so
//! coalesced responses are byte-identical. A `/v1/cell` whose cell the
//! runner already holds runs no engine work: it is rendered inline by
//! the same function, so a warm body equals the flight's.
//!
//! All request validation (unknown chip, bad configuration descriptor,
//! unknown workload) happens *before* a flight opens, so `400`/`404`
//! never cost a simulation.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::cache::{config_fingerprint, workload_fingerprint};
use lhr_core::{experiments::pareto, Evaluation, Harness, MeasureHealth};
use lhr_obs::{context, prom, push_json_number, push_json_string, AlertState, Obs};
use lhr_uarch::{ChipConfig, ProcessorId};
use lhr_units::Hertz;
use lhr_workloads::Group;

use crate::coalesce::{FlightBoard, Join, JoinError};
use crate::http::{Method, Request, Response};
use crate::telemetry::Telemetry;

/// Shared server state: the measurement engine plus the serving
/// machinery around it.
#[derive(Debug)]
pub struct ServeState {
    /// The evaluation harness (its runner carries the shared cell cache).
    pub harness: Harness,
    /// The single-flight board for expensive endpoints.
    pub board: FlightBoard,
    /// The observability handle (same one the harness's runner reports to).
    pub obs: Obs,
    /// The recorder bundle behind `/metrics`, `/v1/metrics`,
    /// `/v1/metrics/timeseries`, and the `/healthz` SLO report.
    pub telemetry: Telemetry,
    /// Directory `/v1/artifacts` serves (`repro_out/`).
    pub artifact_dir: std::path::PathBuf,
    /// Per-request budget for expensive endpoints; past it, `504`.
    pub max_cell: Duration,
    /// The campaign orchestrator behind `/v1/campaigns`.
    pub campaigns: crate::campaigns::Orchestrator,
    /// The measurement store behind `POST /v1/query`, when the server
    /// was booted with one (`--store-dir`). Every cell the harness
    /// resolves is recorded into it through the [`lhr_core::CellSink`]
    /// hook; `None` means the query endpoint answers `503`.
    pub store: Option<Arc<lhr_store::Store>>,
    /// Set by `POST /admin/drain`; the accept loop polls it.
    pub draining: AtomicBool,
    /// Server start time, for `/healthz` uptime.
    pub started: Instant,
}

/// The stable tag used to name per-endpoint request spans (dynamic
/// paths would explode the metrics cardinality).
#[must_use]
pub fn endpoint_tag(req: &Request) -> &'static str {
    match req.path.as_str() {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/v1/metrics" => "/v1/metrics",
        "/v1/metrics/timeseries" => "/v1/metrics/timeseries",
        "/v1/cell" => "/v1/cell",
        "/v1/sweep" => "/v1/sweep",
        "/v1/pareto" => "/v1/pareto",
        "/v1/findings" => "/v1/findings",
        "/v1/query" => "/v1/query",
        "/v1/traces" => "/v1/traces",
        "/admin/drain" => "/admin/drain",
        p if p.starts_with("/v1/trace/") => "/v1/trace",
        p if p.starts_with("/v1/campaigns") => "/v1/campaigns",
        p if p.starts_with("/v1/artifacts") => "/v1/artifacts",
        _ => "other",
    }
}

/// Dispatches one parsed request to its handler.
#[must_use]
pub fn route(state: &Arc<ServeState>, req: &Request) -> Response {
    match (req.method, req.path.as_str()) {
        (Method::Get, "/healthz") => healthz(state),
        // `/metrics` is the legacy text profile; `/v1/metrics` adds
        // content negotiation (Prometheus exposition on request).
        (Method::Get, "/metrics" | "/v1/metrics") => metrics(state, req),
        (Method::Get, "/v1/metrics/timeseries") => {
            let mut body = state.telemetry.timeseries.snapshot().render_json();
            body.push('\n');
            Response::ok_json(body)
        }
        (Method::Get, "/v1/cell") => cell(state, req),
        (Method::Get, "/v1/sweep") => sweep(state, req),
        (Method::Get, "/v1/pareto") => pareto_endpoint(state, req),
        (Method::Get, "/v1/findings") => findings(state),
        (Method::Post | Method::Get, "/v1/query") => query_endpoint(state, req),
        (Method::Get, "/v1/traces") => traces_search(state, req),
        (Method::Get, p) if p.starts_with("/v1/trace/") => {
            trace_by_id(state, &p["/v1/trace/".len()..], req)
        }
        (Method::Get, "/v1/artifacts") => artifact_index(state),
        (Method::Get, p) if p.starts_with("/v1/artifacts/") => {
            artifact(state, &p["/v1/artifacts/".len()..])
        }
        (_, p) if p.starts_with("/v1/campaigns") => crate::campaigns::handle(state, req),
        (Method::Post, "/admin/drain") => drain(state),
        (_, "/admin/drain") => Response::error(405, "method_not_allowed", "drain is POST-only"),
        (Method::Post, _) => Response::error(
            405,
            "method_not_allowed",
            "only /admin/drain, /v1/campaigns, and /v1/query accept POST",
        ),
        (Method::Get, _) => Response::error(
            404,
            "not_found",
            "unknown endpoint; see /healthz, /metrics, /v1/metrics, /v1/metrics/timeseries, \
             /v1/cell, /v1/sweep, /v1/pareto, /v1/findings, /v1/artifacts, /v1/campaigns, \
             /v1/traces, /v1/trace/<id>, POST /v1/query, POST /admin/drain",
        ),
    }
}

fn healthz(state: &Arc<ServeState>) -> Response {
    // Health degrades on any of three signals: the SLO alert is firing
    // (the error budget is burning too fast in both windows), trace
    // lines are being lost, or span-store appends are failing (the
    // record of what happened has holes either way).
    let slo = state.telemetry.slo.status();
    let trace_write_errors = state.telemetry.trace_write_errors();
    let span_append_errors = state.telemetry.span_append_errors();
    let degraded =
        slo.state == AlertState::Firing || trace_write_errors > 0 || span_append_errors > 0;
    let mut body = String::from("{\"status\":");
    push_json_string(&mut body, if degraded { "degraded" } else { "ok" });
    body.push_str(",\"uptime_seconds\":");
    push_json_number(&mut body, state.started.elapsed().as_secs_f64());
    body.push_str(",\"live_flights\":");
    push_json_number(&mut body, state.board.live() as f64);
    body.push_str(",\"cached_cells\":");
    push_json_number(&mut body, state.harness.runner().cell_cache().len() as f64);
    body.push_str(",\"draining\":");
    body.push_str(if state.draining.load(Ordering::Relaxed) {
        "true"
    } else {
        "false"
    });
    body.push_str(",\"trace_write_errors\":");
    push_json_number(&mut body, trace_write_errors as f64);
    body.push_str(",\"span_append_errors\":");
    push_json_number(&mut body, span_append_errors as f64);
    body.push_str(",\"slo\":{\"alert\":");
    push_json_string(
        &mut body,
        match slo.state {
            AlertState::Ok => "ok",
            AlertState::Firing => "firing",
        },
    );
    // The exemplar link: the trace id of the slowest traced request
    // sample, so a firing burn-rate alert points straight at an
    // offending trace (`GET /v1/trace/<id>`).
    if let Some(ex) = state
        .telemetry
        .memory
        .snapshot()
        .exemplars
        .iter()
        .filter(|(name, _)| name.starts_with("serve.latency."))
        .map(|(_, ex)| *ex)
        .max_by(|a, b| a.value.total_cmp(&b.value))
    {
        body.push_str(",\"slow_trace\":");
        push_json_string(&mut body, &ex.trace_hex());
        body.push_str(",\"slow_trace_seconds\":");
        push_json_number(&mut body, ex.value);
    }
    body.push_str(",\"availability_burn\":{\"short\":");
    push_json_number(&mut body, slo.availability.short);
    body.push_str(",\"long\":");
    push_json_number(&mut body, slo.availability.long);
    body.push_str("},\"latency_burn\":{\"short\":");
    push_json_number(&mut body, slo.latency.short);
    body.push_str(",\"long\":");
    push_json_number(&mut body, slo.latency.long);
    body.push_str("},\"requests_long_window\":");
    push_json_number(&mut body, slo.total_long as f64);
    body.push_str("},\"campaigns\":");
    body.push_str(&state.campaigns.healthz_json());
    body.push_str("}\n");
    Response::ok_json(body)
}

/// `/metrics` and `/v1/metrics`: the lifetime aggregates, as the
/// human-readable text profile by default, or as a Prometheus text
/// exposition (format 0.0.4) when the client asks -- via
/// `?format=prometheus` or an `Accept` header naming `text/plain`
/// (what a Prometheus scraper sends).
fn metrics(state: &Arc<ServeState>, req: &Request) -> Response {
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

fn drain(state: &Arc<ServeState>) -> Response {
    state.draining.store(true, Ordering::Relaxed);
    state.obs.counter("serve.drain_requests", 1);
    Response::ok_json("{\"draining\":true}\n".to_owned())
}

/// Runs `compute` under the single-flight board and waits for the body.
///
/// Exactly one requester per key leads (and spawns the computation on a
/// detached thread); everyone, leader included, waits on the shared
/// flight with the deadline budget. A deadline miss abandons the wait
/// with `504` but never cancels the computation -- it completes, the
/// flight retires, and the measurement cache keeps the value.
fn flight_json<F>(state: &Arc<ServeState>, key: String, compute: F) -> Response
where
    F: FnOnce() -> Result<String, String> + Send + 'static,
{
    let join = match state.board.join(&key) {
        Ok(join) => join,
        Err(JoinError::AtCapacity) => {
            state.obs.counter("serve.shed_flights", 1);
            return Response::overloaded("live-flight cap reached", 2);
        }
    };
    let flight = match join {
        Join::Leader(flight) => {
            state.obs.counter("serve.coalesce_leads", 1);
            // The computation runs on a detached thread, so the leader's
            // trace context is carried across explicitly: everything the
            // engine records during the flight belongs to the request
            // that opened it.
            let ctx = context::capture();
            flight.set_leader_request(ctx.request);
            flight.set_leader_trace(ctx.trace);
            let worker_state = Arc::clone(state);
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    context::with_ctx(ctx, compute)
                }))
                .unwrap_or_else(|_| Err("computation panicked".to_owned()));
                worker_state.board.complete(&key, result);
            });
            flight
        }
        Join::Follower(flight) => {
            state.obs.counter("serve.coalesce_hits", 1);
            // Record the leader/follower linkage so a trace reader can
            // attribute this request's wait to the flight it rode --
            // both by request id and by distributed trace id, crossing
            // the coalescing boundary in a stitched view.
            if state.obs.enabled() {
                state.obs.mark(
                    "serve.coalesce.follows",
                    &format!(
                        "leader_request={} leader_trace={:032x}",
                        flight.leader_request(),
                        flight.leader_trace()
                    ),
                );
            }
            flight
        }
    };
    state
        .obs
        .gauge("serve.live_flights", state.board.live() as f64);
    match flight.wait(state.max_cell) {
        None => {
            state.obs.counter("serve.timeout_504", 1);
            Response::error(
                504,
                "deadline",
                "no result within the request budget; the computation continues and its \
                 result will be cached",
            )
        }
        Some(Ok(body)) => Response::ok_json(body),
        Some(Err(detail)) => Response::error(500, "compute_failed", &detail),
    }
}

// ---------------------------------------------------------------------
// /v1/cell
// ---------------------------------------------------------------------

/// Maps a chip token (`i7-45`, `atom-45`, a paper short name, ...) to a
/// processor.
#[must_use]
pub fn chip_by_token(token: &str) -> Option<ProcessorId> {
    let t = token.to_ascii_lowercase();
    let by_alias = match t.as_str() {
        "p4-130" | "pentium4-130" | "pentium4" | "p4" => Some(ProcessorId::Pentium4_130),
        "c2d-65" => Some(ProcessorId::Core2DuoE6600),
        "c2q-65" | "c2q" => Some(ProcessorId::Core2QuadQ6600),
        "i7-45" | "i7" => Some(ProcessorId::CoreI7_920),
        "atom-45" | "atom" => Some(ProcessorId::Atom230),
        "c2d-45" => Some(ProcessorId::Core2DuoE7600),
        "atomd-45" | "atomd" => Some(ProcessorId::AtomD510),
        "i5-32" | "i5" => Some(ProcessorId::CoreI5_670),
        _ => None,
    };
    by_alias.or_else(|| {
        ProcessorId::ALL
            .into_iter()
            .find(|id| id.spec().short.eq_ignore_ascii_case(token))
    })
}

/// The canonical chip tokens, for 404 bodies.
fn chip_tokens() -> &'static str {
    "p4-130, c2d-65, c2q-65, i7-45, atom-45, c2d-45, atomd-45, i5-32"
}

/// Builds a configuration from a descriptor like `4C2T@2.0` (cores,
/// threads per core, GHz) or `stock`, plus the optional turbo override.
/// A core runs 1 thread, or as many as the chip's SMT runs (2 on every
/// SMT chip of the study).
///
/// # Errors
///
/// Returns a human-readable description of the first malformed piece of
/// the descriptor (topology, thread count, clock, or turbo flag).
pub fn build_config(
    id: ProcessorId,
    descriptor: &str,
    turbo: Option<&str>,
) -> Result<ChipConfig, String> {
    let mut config = ChipConfig::stock(id.spec());
    if !descriptor.eq_ignore_ascii_case("stock") {
        let (topology, ghz) = descriptor
            .split_once('@')
            .ok_or_else(|| format!("config {descriptor:?} is not stock or NCMT@GHz"))?;
        let topo = topology.to_ascii_lowercase();
        let (cores, threads) = topo
            .strip_suffix('t')
            .and_then(|s| s.split_once('c'))
            .ok_or_else(|| format!("topology {topology:?} is not like 4C2T"))?;
        let cores: usize = cores
            .parse()
            .map_err(|_| format!("bad core count {cores:?}"))?;
        let threads: usize = threads
            .parse()
            .map_err(|_| format!("bad thread count {threads:?}"))?;
        let ways = id.spec().smt_ways;
        let smt = match threads {
            1 => false,
            n if n == ways => true,
            _ => {
                let counts = if ways > 1 { format!("1 or {ways}") } else { "1".to_owned() };
                return Err(format!(
                    "bad thread count {threads}: {} runs {counts} per core",
                    id.spec().short
                ));
            }
        };
        let ghz: f64 = ghz.parse().map_err(|_| format!("bad clock {ghz:?}"))?;
        config = config
            .with_cores(cores)
            .map_err(|e| e.to_string())?
            .with_smt(smt)
            .map_err(|e| e.to_string())?
            .with_clock(Hertz::from_ghz(ghz))
            .map_err(|e| e.to_string())?;
    }
    match turbo {
        None => {}
        Some("on") => config = config.with_turbo(true).map_err(|e| e.to_string())?,
        Some("off") => config = config.with_turbo(false).map_err(|e| e.to_string())?,
        Some(other) => return Err(format!("turbo must be on or off, got {other:?}")),
    }
    Ok(config)
}

fn cell(state: &Arc<ServeState>, req: &Request) -> Response {
    let Some(chip) = req.param("chip") else {
        return Response::error(400, "missing_param", "chip= is required");
    };
    let Some(id) = chip_by_token(chip) else {
        return Response::error(
            404,
            "unknown_chip",
            &format!("no chip {chip:?}; valid tokens: {}", chip_tokens()),
        );
    };
    let Some(workload_name) = req.param("workload") else {
        return Response::error(400, "missing_param", "workload= is required");
    };
    // Normalization needs the reference times of the harness's own
    // workload set, so the endpoint serves exactly that set.
    let Some(workload) = state
        .harness
        .workloads()
        .iter()
        .copied()
        .find(|w| w.name() == workload_name)
    else {
        let served: Vec<&str> = state.harness.workloads().iter().map(|w| w.name()).collect();
        return Response::error(
            404,
            "unknown_workload",
            &format!("no workload {workload_name:?}; served set: {}", served.join(", ")),
        );
    };
    let config = match build_config(id, req.param("config").unwrap_or("stock"), req.param("turbo"))
    {
        Ok(c) => c,
        Err(detail) => return Response::error(400, "bad_config", &detail),
    };
    // A cell the runner already holds is a read: rendered here on the
    // worker, with no flight and no thread, so the live-flight cap
    // cannot refuse it. A hit costs nothing, which is the health
    // `try_measure` reports for one.
    if let Some(eval) = state.harness.cached_evaluation(&config, workload) {
        return Response::ok_json(cell_body(&config, &eval, &MeasureHealth::default()));
    }
    // Key on structural fingerprints, not labels: two configurations
    // whose labels round to the same text are still distinct cells.
    let key = format!(
        "cell:{:016x}:{:016x}",
        config_fingerprint(&config),
        workload_fingerprint(workload)
    );
    let compute_state = Arc::clone(state);
    flight_json(state, key, move || {
        compute_state.obs.counter("serve.cells_measured", 1);
        let (eval, health) = compute_state
            .harness
            .try_evaluate_workload(&config, workload)
            .map_err(|e| e.to_string())?;
        Ok(cell_body(&config, &eval, &health))
    })
}

/// The `/v1/cell` body: one evaluated cell and what it cost to measure.
fn cell_body(config: &ChipConfig, eval: &Evaluation, health: &MeasureHealth) -> String {
    let m = &eval.measurement;
    let mut body = String::with_capacity(256);
    body.push_str("{\"chip\":");
    push_json_string(&mut body, config.spec().short);
    body.push_str(",\"config\":");
    push_json_string(&mut body, &config.label());
    body.push_str(",\"workload\":");
    push_json_string(&mut body, m.workload);
    body.push_str(",\"group\":");
    push_json_string(&mut body, &m.group.to_string());
    body.push_str(",\"seconds\":");
    push_json_number(&mut body, m.time.mean());
    body.push_str(",\"watts\":");
    push_json_number(&mut body, m.power.mean());
    body.push_str(",\"joules\":");
    push_json_number(&mut body, m.time.mean() * m.power.mean());
    body.push_str(",\"perf_norm\":");
    push_json_number(&mut body, eval.perf_norm);
    body.push_str(",\"energy_norm\":");
    push_json_number(&mut body, eval.energy_norm);
    body.push_str(",\"health\":{\"retries\":");
    push_json_number(&mut body, health.retries as f64);
    body.push_str(",\"recalibrations\":");
    push_json_number(&mut body, health.recalibrations as f64);
    body.push_str(",\"rejected_outliers\":");
    push_json_number(&mut body, health.rejected_outliers as f64);
    body.push_str("}}\n");
    body
}

// ---------------------------------------------------------------------
// /v1/sweep and /v1/pareto
// ---------------------------------------------------------------------

fn space_configs(space: &str) -> Option<(&'static str, Vec<ChipConfig>)> {
    match space {
        "stock" => Some(("stock", lhr_core::configs::stock_configs())),
        "45nm" => Some(("45nm", lhr_core::configs::pareto_45nm_configs())),
        _ => None,
    }
}

fn sweep(state: &Arc<ServeState>, req: &Request) -> Response {
    let space = req.param("space").unwrap_or("stock");
    let Some((space, configs)) = space_configs(space) else {
        return Response::error(404, "unknown_space", "space must be stock or 45nm");
    };
    let compute_state = Arc::clone(state);
    flight_json(state, format!("sweep:{space}"), move || {
        let report = compute_state.harness.sweep(&configs);
        let mut body = String::with_capacity(1024);
        body.push_str("{\"space\":");
        push_json_string(&mut body, space);
        body.push_str(",\"cells\":[");
        for (i, cell) in report.cells.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str("{\"label\":");
            push_json_string(&mut body, &cell.label);
            match cell.metrics() {
                Some(m) => {
                    body.push_str(",\"perf_w\":");
                    push_json_number(&mut body, m.perf_w);
                    body.push_str(",\"power_w\":");
                    push_json_number(&mut body, m.power_w);
                    body.push_str(",\"energy_w\":");
                    push_json_number(&mut body, m.energy_w);
                }
                None => body.push_str(",\"perf_w\":null,\"power_w\":null,\"energy_w\":null"),
            }
            body.push_str(",\"clean\":");
            body.push_str(if cell.health.is_clean() { "true" } else { "false" });
            body.push('}');
        }
        body.push_str("],\"health\":");
        push_json_string(&mut body, &report.health.render());
        body.push_str("}\n");
        Ok(body)
    })
}

fn group_by_token(token: &str) -> Option<Option<Group>> {
    match token {
        "avg" => Some(None),
        "native-nonscalable" | "nn" => Some(Some(Group::NativeNonScalable)),
        "native-scalable" | "ns" => Some(Some(Group::NativeScalable)),
        "java-nonscalable" | "jn" => Some(Some(Group::JavaNonScalable)),
        "java-scalable" | "js" => Some(Some(Group::JavaScalable)),
        _ => None,
    }
}

fn pareto_endpoint(state: &Arc<ServeState>, req: &Request) -> Response {
    let metric = req.param("metric").unwrap_or("avg").to_owned();
    let Some(group) = group_by_token(&metric) else {
        return Response::error(
            404,
            "unknown_metric",
            "metric must be avg, native-nonscalable, native-scalable, java-nonscalable, \
             or java-scalable",
        );
    };
    let space = req.param("space").unwrap_or("45nm");
    let Some((space, configs)) = space_configs(space) else {
        return Response::error(404, "unknown_space", "space must be stock or 45nm");
    };
    let compute_state = Arc::clone(state);
    flight_json(state, format!("pareto:{space}:{metric}"), move || {
        let analysis = pareto::run_configs(&compute_state.harness, &configs);
        let mut body = String::with_capacity(1024);
        body.push_str("{\"space\":");
        push_json_string(&mut body, space);
        body.push_str(",\"metric\":");
        push_json_string(&mut body, &metric);
        body.push_str(",\"efficient\":[");
        for (i, label) in analysis.efficient_labels(group).iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            push_json_string(&mut body, label);
        }
        body.push_str("],\"candidates\":[");
        for (i, c) in analysis.candidates.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let (perf, energy) = match group {
                None => (c.metrics.perf_w, c.metrics.energy_w),
                Some(g) => (c.metrics.perf[&g], c.metrics.energy[&g]),
            };
            body.push_str("{\"label\":");
            push_json_string(&mut body, &c.label);
            body.push_str(",\"stock\":");
            body.push_str(if c.stock { "true" } else { "false" });
            body.push_str(",\"perf\":");
            push_json_number(&mut body, perf);
            body.push_str(",\"energy\":");
            push_json_number(&mut body, energy);
            body.push('}');
        }
        body.push_str("]}\n");
        Ok(body)
    })
}

// ---------------------------------------------------------------------
// /v1/findings
// ---------------------------------------------------------------------

fn findings(state: &Arc<ServeState>) -> Response {
    let compute_state = Arc::clone(state);
    flight_json(state, "findings".to_owned(), move || {
        let harness = &compute_state.harness;
        let i7 = harness.try_evaluate_config(&ChipConfig::stock(ProcessorId::CoreI7_920.spec()));
        let atom = harness.try_evaluate_config(&ChipConfig::stock(ProcessorId::Atom230.spec()));
        let (Some(i7m), Some(atomm)) = (i7.metrics(), atom.metrics()) else {
            return Err("stock evaluation produced no successful measurements".to_owned());
        };
        // Power per transistor across the eight chips, from spec data
        // alone (Figure 11's densest outlier).
        let per_transistor = |id: ProcessorId| {
            let s = id.spec();
            s.power.tdp_w / s.transistors_m
        };
        let p4 = per_transistor(ProcessorId::Pentium4_130);
        let worst_other = ProcessorId::ALL
            .into_iter()
            .filter(|&id| id != ProcessorId::Pentium4_130)
            .map(per_transistor)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut body = String::with_capacity(512);
        body.push_str("{\"findings\":[");
        push_finding(
            &mut body,
            true,
            "i7-outperforms-atom",
            i7m.perf_w > atomm.perf_w,
            &format!(
                "i7 (45) weighted perf {:.2} vs Atom (45) {:.2}",
                i7m.perf_w, atomm.perf_w
            ),
        );
        push_finding(
            &mut body,
            false,
            "atom-draws-far-less-power",
            atomm.power_w < i7m.power_w / 4.0,
            &format!(
                "Atom (45) mean power {:.1} W vs i7 (45) {:.1} W",
                atomm.power_w, i7m.power_w
            ),
        );
        push_finding(
            &mut body,
            false,
            "pentium4-power-per-transistor-outlier",
            p4 > worst_other,
            &format!(
                "Pentium4 (130) {:.3} W/Mtransistor vs next highest {:.3}",
                p4, worst_other
            ),
        );
        body.push_str("]}\n");
        Ok(body)
    })
}

fn push_finding(body: &mut String, first: bool, id: &str, holds: bool, detail: &str) {
    if !first {
        body.push(',');
    }
    body.push_str("{\"id\":");
    push_json_string(body, id);
    body.push_str(",\"holds\":");
    body.push_str(if holds { "true" } else { "false" });
    body.push_str(",\"detail\":");
    push_json_string(body, detail);
    body.push('}');
}

// ---------------------------------------------------------------------
// /v1/query
// ---------------------------------------------------------------------

/// `POST /v1/query` (and `GET /v1/query?q=...` for short queries): runs
/// one measurement-store DSL query and returns the result table as an
/// aligned text table (`?format=text`, the default -- byte-identical to
/// what the `lhr_query` CLI prints for the same store) or as JSON
/// (`?format=json`). The query text is the POST body, or the `q=`
/// parameter when the body is empty.
///
/// Queries execute against whatever the store holds *right now* --
/// in-memory, no engine work, no flight board -- so a malformed query
/// costs a typed `400` with a byte position and nothing else.
fn query_endpoint(state: &Arc<ServeState>, req: &Request) -> Response {
    let Some(store) = state.store.as_ref() else {
        return Response::error(
            503,
            "store_unavailable",
            "this server runs without a measurement store; boot with --store-dir to enable \
             /v1/query",
        );
    };
    let text = if req.body.trim().is_empty() {
        req.param("q").unwrap_or("").trim().to_owned()
    } else {
        req.body.trim().to_owned()
    };
    if text.is_empty() {
        return Response::error(
            400,
            "query_missing",
            "send the query text as the POST body (or q= for short queries)",
        );
    }
    let format = req.param("format").unwrap_or("text");
    let table = match store.query(&text) {
        Ok(table) => table,
        Err(lhr_store::QueryError::Parse(e)) => {
            state.obs.counter("serve.query_parse_errors", 1);
            return Response::error(400, "query_parse_error", &e.to_string());
        }
        Err(lhr_store::QueryError::Plan(e)) => {
            state.obs.counter("serve.query_plan_errors", 1);
            return Response::error(400, "query_plan_error", &e.to_string());
        }
    };
    state.obs.counter("serve.queries", 1);
    match format {
        "json" => {
            let mut body = table.render_json();
            body.push('\n');
            Response::ok_json(body)
        }
        "text" => Response::ok_text(table.render_text()),
        other => Response::error(
            400,
            "bad_format",
            &format!("format must be json or text, got {other:?}"),
        ),
    }
}

// ---------------------------------------------------------------------
// /v1/traces and /v1/trace/<id>
// ---------------------------------------------------------------------

fn span_store_unavailable() -> Response {
    Response::error(
        503,
        "span_store_unavailable",
        "this server runs without a span store; boot with --span-store to enable trace search",
    )
}

/// `GET /v1/traces?name=<substr>&status=error&min_dur_ns=N&limit=N`:
/// searches the span table and returns per-trace summaries, newest
/// first. Answers from the in-memory mirror of the table -- no disk
/// reads, no engine work.
fn traces_search(state: &Arc<ServeState>, req: &Request) -> Response {
    let Some(spans) = state.telemetry.spans.as_ref() else {
        return span_store_unavailable();
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

/// `GET /v1/trace/<32-hex-id>`: the stitched span tree of one trace.
/// `?format=fragment` returns this process's raw rows instead -- what
/// the router fetches from each backend before stitching the
/// multi-process view itself.
fn trace_by_id(state: &Arc<ServeState>, id: &str, req: &Request) -> Response {
    let Some(spans) = state.telemetry.spans.as_ref() else {
        return span_store_unavailable();
    };
    let Ok(trace) = u128::from_str_radix(id.trim(), 16) else {
        return Response::error(400, "bad_trace_id", "trace id must be hex (32 digits)");
    };
    let rows = spans.table().trace_rows(trace);
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

// ---------------------------------------------------------------------
// /v1/artifacts
// ---------------------------------------------------------------------

/// Whether a decoded artifact name is safe to serve: a bare file name,
/// no traversal, no absolute paths, no hidden/temp files. Percent
/// escapes were already decoded by the HTTP layer, so `%2e%2e` cannot
/// sneak past this check.
#[must_use]
pub fn safe_artifact_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('.')
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains("..")
        && !name.contains('\0')
}

/// Lists the regular files of an artifact directory (`repro_out/`) as
/// `(name, bytes)`, sorted by name. Subdirectories, temp files from
/// in-flight atomic writes (leading `.`), and unreadable entries are
/// skipped -- the listing only ever names complete, published
/// artifacts.
///
/// # Errors
///
/// The [`io::Error`] from reading the directory itself (a missing
/// directory is the caller's 404, not a panic).
fn list_artifacts(dir: &Path) -> io::Result<Vec<(String, u64)>> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') {
            continue;
        }
        entries.push((name, meta.len()));
    }
    entries.sort();
    Ok(entries)
}

fn artifact_index(state: &Arc<ServeState>) -> Response {
    let entries = match list_artifacts(&state.artifact_dir) {
        Ok(entries) => entries,
        Err(_) => return Response::error(404, "no_artifacts", "artifact directory not found"),
    };
    let mut body = String::from("{\"artifacts\":[");
    for (i, (name, bytes)) in entries.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"name\":");
        push_json_string(&mut body, name);
        body.push_str(",\"bytes\":");
        push_json_number(&mut body, *bytes as f64);
        body.push('}');
    }
    body.push_str("]}\n");
    Response::ok_json(body)
}

fn artifact(state: &Arc<ServeState>, name: &str) -> Response {
    if !safe_artifact_name(name) {
        // Traversal attempts get the same 404 as missing files: the
        // response must not reveal whether the path resolved.
        state.obs.counter("serve.artifact_rejects", 1);
        return Response::error(404, "no_such_artifact", "no artifact by that name");
    }
    match std::fs::read(state.artifact_dir.join(name)) {
        Ok(bytes) => Response {
            status: 200,
            content_type: content_type_for(name),
            body: bytes,
            retry_after: None,
        },
        Err(_) => Response::error(404, "no_such_artifact", "no artifact by that name"),
    }
}

fn content_type_for(name: &str) -> &'static str {
    match Path::new(name).extension().and_then(|e| e.to_str()) {
        Some("json" | "jsonl") => "application/json",
        Some("csv") => "text/csv",
        _ => "text/plain; charset=utf-8",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_tokens_resolve_to_the_eight_processors() {
        for (token, id) in [
            ("p4-130", ProcessorId::Pentium4_130),
            ("c2d-65", ProcessorId::Core2DuoE6600),
            ("c2q-65", ProcessorId::Core2QuadQ6600),
            ("i7-45", ProcessorId::CoreI7_920),
            ("atom-45", ProcessorId::Atom230),
            ("c2d-45", ProcessorId::Core2DuoE7600),
            ("atomd-45", ProcessorId::AtomD510),
            ("i5-32", ProcessorId::CoreI5_670),
        ] {
            assert_eq!(chip_by_token(token), Some(id), "{token}");
        }
        // The paper's short names work too, and junk does not.
        assert_eq!(chip_by_token("i7 (45)"), Some(ProcessorId::CoreI7_920));
        assert_eq!(chip_by_token("z80"), None);
    }

    #[test]
    fn config_descriptors_build_and_reject() {
        let id = ProcessorId::CoreI7_920;
        let stock = build_config(id, "stock", None).unwrap();
        assert_eq!(stock, ChipConfig::stock(id.spec()));
        let shaped = build_config(id, "2C1T@2.0", None).unwrap();
        assert_eq!(shaped.active_cores(), 2);
        assert!(!shaped.smt_enabled());
        assert!((shaped.clock().as_ghz() - 2.0).abs() < 1e-9);
        assert!(build_config(id, "nonsense", None).is_err());
        assert!(build_config(id, "99C1T@2.0", None).is_err(), "too many cores");
        assert!(build_config(id, "stock", Some("sideways")).is_err());
        // A thread count is 1, or 2 on a chip with SMT; any other is
        // refused by name, not rounded to SMT on or off.
        let smt = build_config(id, "4C2T@2.0", None).unwrap();
        assert_eq!((smt.active_cores(), smt.threads_per_core()), (4, 2));
        for (descriptor, count) in [("4C7T@2.0", "7"), ("2C0T@1.6", "0")] {
            let err = build_config(id, descriptor, None).unwrap_err();
            assert!(err.contains(&format!("thread count {count}")), "{descriptor}: {err}");
        }
        let no_smt = ProcessorId::Core2DuoE6600;
        assert!(build_config(no_smt, "2C1T@2.0", None).is_ok());
        let err = build_config(no_smt, "2C2T@2.0", None).unwrap_err();
        assert!(err.contains("thread count 2"), "no SMT to enable: {err}");
    }

    #[test]
    fn artifact_names_reject_traversal_and_hidden_files() {
        assert!(safe_artifact_name("table4.txt"));
        assert!(safe_artifact_name("figure7_scaling.txt"));
        for bad in [
            "",
            "..",
            "../secrets",
            "a/../b",
            "/etc/passwd",
            "sub/dir.txt",
            "back\\slash",
            ".hidden",
            ".table4.txt.tmp.1",
            "nul\0byte",
        ] {
            assert!(!safe_artifact_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn listing_names_complete_artifacts_only() {
        use lhr_obs::sealed::write_atomic;
        let dir = std::env::temp_dir().join(format!("lhr-listing-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        write_atomic(&dir.join("table4.txt"), b"rows\n").unwrap();
        write_atomic(&dir.join("figure7.txt"), b"series\n").unwrap();
        std::fs::write(dir.join(".figure7.txt.tmp.123"), b"torn").unwrap();
        let listing = list_artifacts(&dir).unwrap();
        assert_eq!(
            listing
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            vec!["figure7.txt", "table4.txt"],
            "sorted, no temp files, no subdirectories"
        );
        assert_eq!(listing[1].1, 5);
        assert!(list_artifacts(&dir.join("absent")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
