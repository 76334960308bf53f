//! The measurement server: its state, its campaign scheduler, and the
//! `Service` that puts both behind the shared front end
//! ([`crate::front`]).
//!
//! ```text
//!   front end ──► BoundedQueue ──► worker pool (N threads)
//!                   ▲   interactive lane: connections, routed by
//!                   │   `handlers::route` (FlightBoard for expensive work)
//!                   └── background lane: campaign cells, fed by the
//!                       campaign scheduler
//! ```
//!
//! Shutdown is a *drain*, never an abort: on `SIGINT`/`SIGTERM` or
//! `POST /admin/drain` the front end stops admitting, the campaigns
//! stop and the scheduler joins, the queue closes, every
//! already-admitted connection and queued cell is served to completion,
//! the workers exit, the observer flushes, and [`ServerHandle::wait`]
//! returns so the process can exit 0.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::Harness;
use lhr_obs::Obs;

use crate::campaigns::{self, CellTask, Orchestrator};
use crate::coalesce::FlightBoard;
use crate::front::{self, Handle, Service, Settings, Work};
use crate::handlers::{self, endpoint_tag, ServeState};
use crate::http::{Request, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::telemetry::Telemetry;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Worker threads serving parsed requests.
    pub jobs: usize,
    /// Bounded queue depth between accept and the workers; beyond it,
    /// `503 + Retry-After`.
    pub queue_depth: usize,
    /// Concurrent flights allowed on the single-flight board.
    pub max_live_flights: usize,
    /// Per-request budget for expensive endpoints; past it, `504`.
    pub max_cell: Duration,
    /// Socket read timeout: a slow-loris client costs one worker for at
    /// most this long.
    pub read_timeout: Duration,
    /// Directory `/v1/artifacts` serves.
    pub artifact_dir: PathBuf,
    /// Directory campaign journals and result artifacts live in.
    pub campaign_dir: PathBuf,
    /// Scan `campaign_dir` at boot and resume interrupted campaigns.
    pub resume_campaigns: bool,
    /// Campaign cells allowed in flight at once across all campaigns;
    /// keeps background work from saturating the worker pool.
    pub campaign_inflight: usize,
    /// Depth of the background campaign lane in the work queue.
    pub campaign_lane_depth: usize,
    /// Writer threads in the 503-shed pool (bounds shed concurrency).
    pub shed_writers: usize,
    /// Pending-shed backlog; past it, overflow connections are dropped.
    pub shed_depth: usize,
    /// Directory of the measurement store behind `POST /v1/query`.
    /// `None` (the default) serves without a store: cells are not
    /// recorded and the query endpoint answers `503`.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 4,
            queue_depth: 64,
            max_live_flights: 32,
            max_cell: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            artifact_dir: PathBuf::from("repro_out"),
            campaign_dir: PathBuf::from("campaigns"),
            resume_campaigns: false,
            campaign_inflight: 2,
            campaign_lane_depth: 32,
            shed_writers: 2,
            shed_depth: 32,
            store_dir: None,
        }
    }
}

/// Boots a server over `harness`. The harness's runner should carry a
/// bounded [`lhr_core::ShardedLruCache`] (serving is open-ended, unlike
/// a campaign) and an observer armed from `telemetry.obs()`, so engine
/// events and serve events land in the same recorders backing
/// `/metrics`, `/v1/metrics`, and `/v1/metrics/timeseries`.
///
/// # Errors
///
/// Propagates the bind failure; everything after the bind is
/// infallible setup.
pub fn start(
    config: ServerConfig,
    harness: Harness,
    telemetry: Telemetry,
) -> io::Result<ServerHandle> {
    let (listener, drain) = front::bind(&config.addr)?;
    // Open (or create) the measurement store before the harness is
    // frozen into the shared state: the store doubles as the harness's
    // cell sink, so every cell any endpoint resolves is recorded.
    let mut harness = harness;
    let store = match &config.store_dir {
        Some(dir) => {
            let store = Arc::new(lhr_store::Store::open(dir)?);
            harness = harness.with_cell_sink(Arc::clone(&store) as _);
            Some(store)
        }
        None => None,
    };
    let obs = harness.runner().observer().clone();
    let state = Arc::new(ServeState {
        harness,
        board: FlightBoard::new(config.max_live_flights),
        obs,
        telemetry,
        artifact_dir: config.artifact_dir.clone(),
        max_cell: config.max_cell,
        campaigns: Orchestrator::new(config.campaign_dir.clone(), config.campaign_inflight),
        store,
        drain: Arc::clone(&drain),
        started: Instant::now(),
    });
    if config.resume_campaigns {
        let resumed = state.campaigns.resume_scan(&state.harness, &state.obs);
        if resumed > 0 {
            state.obs.counter("campaign.boot_resumed", resumed as u64);
        }
    }
    let queue = Arc::new(BoundedQueue::with_lanes(
        config.queue_depth,
        config.campaign_lane_depth,
    ));

    // The campaign scheduler feeds the background lane: it picks the
    // next cell under the fair-share policy and enqueues it, backing
    // off when the lane is full (the cell is requeued, not lost).
    let sched_state = Arc::clone(&state);
    let sched_queue = Arc::clone(&queue);
    let scheduler = std::thread::Builder::new()
        .name("lhr-serve-campaigns".to_owned())
        .spawn(move || {
            while !sched_state.campaigns.stopping() {
                while let Some(task) = sched_state.campaigns.next_cell(&sched_state.obs) {
                    match sched_queue.try_push_background(Work::Task(task)) {
                        Ok(()) => {}
                        Err(PushError::Full(work) | PushError::Closed(work)) => {
                            if let Work::Task(task) = work {
                                sched_state.campaigns.requeue(task);
                            }
                            break;
                        }
                    }
                }
                sched_state
                    .campaigns
                    .wait_for_work(Duration::from_millis(25));
            }
        })
        .expect("spawn campaign scheduler");

    // Drain: no new admissions, stop scheduling new campaign cells
    // (already-queued cells still run and journal, so a restart resumes
    // from exactly where the drain cut), then the front end serves what
    // is queued and stops the pool.
    let stop_state = Arc::clone(&state);
    let stop_campaigns = move || {
        stop_state.campaigns.stop();
        let _ = scheduler.join();
    };
    let settings = Settings {
        jobs: config.jobs,
        read_timeout: config.read_timeout,
        shed_writers: config.shed_writers,
        shed_depth: config.shed_depth,
    };
    Ok(front::serve(
        listener,
        drain,
        state,
        queue,
        settings,
        stop_campaigns,
        || {},
    ))
}

/// A running server.
pub type ServerHandle = Handle<ServeState>;

impl Service for ServeState {
    const PREFIX: &'static str = "serve";
    const QUEUE_DEPTH: Option<&'static str> = Some("serve.queue_depth");
    type Task = CellTask;

    fn obs(&self) -> &Obs {
        &self.obs
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn tag(req: &Request) -> &'static str {
        endpoint_tag(req)
    }

    fn route(state: &Arc<Self>, req: &Request) -> Response {
        handlers::route(state, req)
    }

    fn run(state: &Arc<Self>, task: CellTask) {
        campaigns::execute(state, task);
    }
}
