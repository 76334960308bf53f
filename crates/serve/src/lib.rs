//! `lhr-serve`: a measurement-query server over the `lhr` engine.
//!
//! The paper's data was produced by long offline campaigns; this crate
//! turns the same engine into an interactive service -- "measure this
//! cell", "give me the 45nm Pareto frontier" -- over plain TCP with a
//! hand-rolled minimal HTTP/1.1 subset (the workspace is offline, so
//! no web framework; the protocol needs are small enough to own).
//!
//! What the serving layer adds over the raw harness:
//!
//! * **One front end** -- the server and the router share one HTTP
//!   front end: an accept thread that blocks in `accept` (an idle
//!   process does not poll), admission, the worker pool, the
//!   connection handler with its RED metrics, the endpoints both answer
//!   alike, and the drain ([`front`]).
//! * **Admission control** -- a fixed worker pool behind a bounded
//!   queue; when the queue is full the accept thread sheds with
//!   `503 + Retry-After` instead of letting latency grow unboundedly
//!   ([`queue`]).
//! * **Single-flight coalescing** -- concurrent requests for the same
//!   cell share one simulation and receive byte-identical bodies
//!   ([`coalesce`]).
//! * **Bounded caching** -- the harness runner's cell cache is the
//!   shared [`lhr_core::ShardedLruCache`], so a long-lived server's
//!   memory stays bounded while repeated queries stay instant.
//! * **Deadlines** -- every expensive request carries a budget; a miss
//!   degrades to a typed `504` while the computation completes and
//!   warms the cache (abandon, never kill).
//! * **Graceful drain** -- `SIGINT`/`SIGTERM` or `POST /admin/drain`
//!   stops admission, serves everything already accepted, flushes the
//!   trace, and exits 0. A drain wakes the blocked accept by connecting
//!   to the listener; a watcher turns a signal into such a drain
//!   ([`signal`], [`front`]).
//!
//! * **Campaign orchestration** -- `POST /v1/campaigns` runs whole
//!   sweep campaigns *inside* the server: a fair-share scheduler
//!   (stride scheduling over tenant weights, token-bucket cells/sec
//!   quotas, strict high/normal lanes) feeds campaign cells into the
//!   same worker pool on a background queue lane, so interactive
//!   requests always win; every resolved cell is journaled write-ahead
//!   and a killed or drained server resumes to byte-identical result
//!   artifacts ([`campaigns`]).
//! * **A measurement store** -- boot with a store directory and every
//!   cell the harness resolves (interactive or campaign) is recorded
//!   into an on-disk columnar store (`lhr-store`); `POST /v1/query`
//!   runs the hand-rolled query DSL over it, returning JSON or aligned
//!   text tables with typed `400`s on bad queries.
//! * **Live telemetry** -- every request carries a trace id minted at
//!   accept; per-endpoint RED metrics (rate/errors/duration) feed a
//!   windowed time-series ring and a multi-window SLO burn-rate
//!   tracker with hysteresis alerting ([`telemetry`],
//!   `lhr_obs::slo`); `/v1/metrics` speaks the Prometheus text
//!   exposition on request.
//! * **Shard mode** -- the `lhr_router` binary fronts N backend
//!   servers with a consistent-hash ring over structural cell
//!   fingerprints, health hysteresis (Up/Suspect/Down), per-backend
//!   circuit breakers, bounded retries, hedged requests, and a local
//!   simulation fallback, so a SIGKILLed backend never becomes a
//!   client-visible 5xx ([`shard`]; see `DESIGN.md`, "Shard topology
//!   and failure domains").
//!
//! Everything is instrumented through `lhr-obs`: request spans per
//! endpoint, queue-depth gauge, coalesce/shed/timeout counters, all
//! visible at `GET /metrics`.
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + uptime, SLO burn rates + alert state, trace health |
//! | `GET /metrics` | rendered [`lhr_obs::MetricsSnapshot`] (legacy text profile) |
//! | `GET /v1/metrics` | same aggregates; Prometheus exposition with `Accept: text/plain` or `?format=prometheus` |
//! | `GET /v1/metrics/timeseries` | windowed per-series interval buckets, JSON |
//! | `GET /v1/cell?chip=i7-45&config=2C1T@2.0&workload=jess` | measure one cell on demand |
//! | `GET /v1/sweep?space=stock\|45nm` | whole-space sweep summary |
//! | `GET /v1/pareto?metric=avg\|<group>&space=...` | Pareto frontier |
//! | `GET /v1/findings` | a few of the paper's findings, checked live |
//! | `GET /v1/artifacts[/name]` | the `repro_out/` artifacts |
//! | `POST /v1/campaigns?tenant=t&chips=i7-45,atom-45&...` | submit a sweep campaign (202) |
//! | `GET /v1/campaigns` | list campaigns |
//! | `GET /v1/campaigns/<id>[?cells=1]` | campaign status / partial results |
//! | `GET /v1/campaigns/<id>/artifact` | the finished result artifact (409 until done) |
//! | `POST /v1/campaigns/<id>/preempt` | checkpoint and stop dispatching |
//! | `POST /v1/campaigns/<id>/resume` | resume a preempted campaign |
//! | `POST /v1/query` | run a measurement-store DSL query (body = query text; `?format=text\|json`, text default) |
//! | `POST /admin/drain` | graceful shutdown |
//!
//! # Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use lhr_core::{Harness, Runner, ShardedLruCache};
//! use lhr_serve::Telemetry;
//!
//! let telemetry = Telemetry::default();
//! let runner = Runner::fast()
//!     .with_cell_cache(Arc::new(ShardedLruCache::new(512, 8)))
//!     .with_observer(telemetry.obs());
//! let harness = Harness::new(runner).with_workloads(Harness::quick_set());
//! let handle = lhr_serve::start(lhr_serve::ServerConfig::default(), harness, telemetry)
//!     .expect("bind");
//! println!("listening on http://{}", handle.addr());
//! handle.wait(); // returns after a signal or POST /admin/drain
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaigns;
pub mod coalesce;
pub mod front;
pub mod handlers;
pub mod http;
pub mod httpc;
pub mod queue;
pub mod server;
pub mod shard;
pub mod signal;
pub mod telemetry;

pub use campaigns::{CampaignSpec, CellTask, Lane, Orchestrator, Phase};
pub use coalesce::{Flight, FlightBoard, FlightResult, Join, JoinError};
pub use handlers::{build_config, chip_by_token, endpoint_tag, route, safe_artifact_name, ServeState};
pub use http::{percent_decode, read_request, HttpError, Method, Request, Response};
pub use queue::{BoundedQueue, PushError, ShedPool};
pub use server::{start, ServerConfig, ServerHandle};
pub use shard::{start_router, HashRing, HealthState, RouterConfig, RouterHandle};
pub use telemetry::Telemetry;
