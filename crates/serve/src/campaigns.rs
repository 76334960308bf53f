//! Multi-tenant campaign orchestration inside the server.
//!
//! The paper's grid -- (chip x configuration x workload) -- was
//! measured by week-long offline campaigns; `lhr-serve` turns the same
//! engine into an interactive service. This module closes the loop:
//! `POST /v1/campaigns` submits a sweep spec that runs *inside* the
//! server, interleaved with interactive traffic on the same worker
//! pool, surviving anything short of disk loss.
//!
//! # Scheduling
//!
//! Campaign cells ride the worker pool's **background lane** (see
//! [`crate::queue`]): a worker only picks one up when no interactive
//! connection is waiting, so campaigns soak up idle capacity without
//! adding queueing latency to `/v1/cell` traffic. Which campaign's cell
//! goes next is decided by a three-level policy, applied in order:
//!
//! 1. **Priority lane** -- `priority=high` campaigns are considered
//!    strictly before `priority=normal` ones (but a token-dry high lane
//!    never blocks the normal lane: the scheduler is work-conserving).
//! 2. **Fair share (stride)** -- among tenants with runnable cells,
//!    the tenant with the lowest *pass* value wins; dispatching a cell
//!    advances the tenant's pass by `1/weight`. Over time each tenant's
//!    cell share converges to `weight / sum(weights)` regardless of how
//!    many campaigns each submits.
//! 3. **Quota (token bucket)** -- each tenant accrues `quota` tokens
//!    per second (burst = one second's worth, minimum 1); a dispatch
//!    spends one token. A token-dry tenant is skipped and the deferral
//!    is counted (`campaign.quota_deferrals`).
//!
//! # Checkpointed preemption
//!
//! Every campaign owns a write-ahead journal
//! (`<campaign-dir>/<id>.jsonl`) in the exact format of the offline
//! campaign driver ([`lhr_core::journal`]): header line, one sealed
//! line per resolved cell, artifact checksums, and `{"event":...}`
//! lifecycle markers, each line fsynced before the in-memory state
//! changes. `POST /v1/campaigns/<id>/preempt` stops future dispatch
//! (in-flight cells finish -- abandon, never kill); `/resume` picks the
//! campaign back up. A SIGKILL at any byte is equivalent to a
//! preemption: on reboot with `--resume`, [`Orchestrator::resume_scan`]
//! replays every journal, preloads the measured cells into the runner
//! cache, and re-measures only what is missing. Because measurements
//! are pure functions of (configuration, workload) under fixed seeds
//! and every `f64` round-trips bit-exactly, the resumed campaign's
//! artifact is **byte-identical** to an uninterrupted run's -- the
//! property the chaos harness (`lhr_bench::chaos`) kills processes to
//! prove.
//!
//! # State machine
//!
//! ```text
//!            submit                    all cells resolved
//!   POST ──► Queued ──► Running ────────────────────────► Done
//!               ▲          │ ▲                              ▲
//!               │   preempt│ │resume                        │
//!               │          ▼ │                              │
//!               └──────= Preempted ──(boot --resume)────────┘
//!                          (in-flight cells still complete
//!                           and are journaled)
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lhr_core::journal::{load_journal, JournalWriter};
use lhr_core::{
    Evaluation, Harness, MeasureError, MeasureErrorKind, MeasureHealth, RetryPolicy, UnitOutcome,
    UnitReport,
};
use lhr_obs::context::{self, Ctx};
use lhr_obs::sealed::{fnv64, json_f64, json_str, write_atomic};
use lhr_obs::{push_json_number, push_json_string, Obs};
use lhr_uarch::ChipConfig;
use lhr_workloads::Workload;

use crate::handlers::{build_config, chip_by_token, ServeState};
use crate::http::{Method, Request, Response};

/// Most campaigns a tenant may have active (queued, running, or
/// preempted) at once; beyond it, `429 Too Many Requests`.
pub const PER_TENANT_ACTIVE_CAP: usize = 16;

/// The scheduler's priority lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Considered strictly before the normal lane.
    High,
    /// The default lane.
    Normal,
}

impl Lane {
    fn parse(token: &str) -> Result<Self, String> {
        match token {
            "high" => Ok(Lane::High),
            "normal" => Ok(Lane::Normal),
            other => Err(format!("priority must be high or normal, got {other:?}")),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Lane::High => "high",
            Lane::Normal => "normal",
        }
    }
}

/// A campaign's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Submitted; no cell dispatched yet.
    Queued,
    /// At least one cell dispatched and not preempted.
    Running,
    /// Dispatch stopped by preempt (or restored from a journal whose
    /// last lifecycle event was `preempted`); in-flight cells from
    /// before the preemption still complete and are journaled.
    Preempted,
    /// Every cell resolved and the artifact written and journaled.
    Done,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Preempted => "preempted",
            Phase::Done => "done",
        }
    }
}

#[cfg(test)]
mod spec_fuzz;

/// A validated campaign specification (the parsed POST parameters).
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Owning tenant (fair-share and quota accounting key).
    pub tenant: String,
    /// Priority lane.
    pub lane: Lane,
    /// Fair-share weight (stride scheduling: pass advances by
    /// `1/weight` per dispatched cell).
    pub weight: f64,
    /// Tenant cells/second quota (token bucket refill rate).
    pub quota: f64,
    /// Chip tokens, as submitted (canonical order of the unit grid).
    pub chips: Vec<String>,
    /// Configuration descriptor (`stock` or `NCMT@GHz`).
    pub descriptor: String,
    /// Workload names (subset of the harness's served set).
    pub workloads: Vec<String>,
}

impl CampaignSpec {
    /// Parses and validates a submission request's query parameters.
    /// Bodies are deliberately not used: the whole spec fits in a query
    /// string, and the HTTP layer ignores bodies by design.
    fn from_request(req: &Request) -> Result<Self, Response> {
        let tenant = req.param("tenant").unwrap_or("default").to_owned();
        if tenant.is_empty()
            || tenant.len() > 32
            || !tenant
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(Response::error(
                400,
                "bad_tenant",
                "tenant must be 1-32 chars of [a-zA-Z0-9_-]",
            ));
        }
        let lane = match Lane::parse(req.param("priority").unwrap_or("normal")) {
            Ok(l) => l,
            Err(detail) => return Err(Response::error(400, "bad_priority", &detail)),
        };
        let weight = match req.param("weight").unwrap_or("1").parse::<f64>() {
            Ok(w) if w > 0.0 && w <= 100.0 => w,
            _ => {
                return Err(Response::error(
                    400,
                    "bad_weight",
                    "weight must be a number in (0, 100]",
                ))
            }
        };
        let quota = match req.param("quota").unwrap_or("8").parse::<f64>() {
            Ok(q) if q > 0.0 && q <= 1000.0 => q,
            _ => {
                return Err(Response::error(
                    400,
                    "bad_quota",
                    "quota must be cells/sec in (0, 1000]",
                ))
            }
        };
        let Some(chips_csv) = req.param("chips") else {
            return Err(Response::error(
                400,
                "missing_param",
                "chips= is required (comma-separated chip tokens)",
            ));
        };
        let chips: Vec<String> = chips_csv
            .split(',')
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect();
        if chips.is_empty() {
            return Err(Response::error(400, "missing_param", "chips= is empty"));
        }
        let descriptor = req.param("config").unwrap_or("stock").to_owned();
        let workloads: Vec<String> = req
            .param("workloads")
            .map(|csv| {
                csv.split(',')
                    .filter(|t| !t.is_empty())
                    .map(str::to_owned)
                    .collect()
            })
            .unwrap_or_default();
        Ok(Self {
            tenant,
            lane,
            weight,
            quota,
            chips,
            descriptor,
            workloads,
        })
    }

    /// Resolves the spec against the harness into the unit grid
    /// (chip-major: every workload of chip 0, then chip 1, ...).
    /// Validation happens here, before any state is created.
    fn resolve(&self, harness: &Harness) -> Result<Vec<(ChipConfig, &'static Workload)>, Response> {
        let mut configs = Vec::with_capacity(self.chips.len());
        for token in &self.chips {
            let Some(id) = chip_by_token(token) else {
                return Err(Response::error(
                    404,
                    "unknown_chip",
                    &format!("no chip {token:?}"),
                ));
            };
            let config = build_config(id, &self.descriptor, None)
                .map_err(|detail| Response::error(400, "bad_config", &detail))?;
            configs.push(config);
        }
        let served = harness.workloads();
        let workloads: Vec<&'static Workload> = if self.workloads.is_empty() {
            served.to_vec()
        } else {
            let mut out = Vec::with_capacity(self.workloads.len());
            for name in &self.workloads {
                let Some(w) = served.iter().copied().find(|w| w.name() == name.as_str())
                else {
                    let names: Vec<&str> = served.iter().map(|w| w.name()).collect();
                    return Err(Response::error(
                        404,
                        "unknown_workload",
                        &format!("no workload {name:?}; served set: {}", names.join(", ")),
                    ));
                };
                out.push(w);
            }
            out
        };
        let mut units = Vec::with_capacity(configs.len() * workloads.len());
        for config in &configs {
            for w in &workloads {
                units.push((config.clone(), *w));
            }
        }
        Ok(units)
    }
}

/// One campaign cell handed to a pool worker through the background
/// lane.
#[derive(Debug)]
pub struct CellTask {
    /// Owning campaign id.
    pub campaign: String,
    /// Index into the campaign's unit grid.
    pub unit: usize,
    /// The configuration to measure.
    pub config: ChipConfig,
    /// The workload to measure.
    pub workload: &'static Workload,
    /// The submitting request's trace context: cells run on pool
    /// workers long after the `202` went out, but their spans still
    /// belong to the trace of the request that created the campaign.
    pub ctx: Ctx,
}

/// A unit's scheduling state.
#[derive(Debug)]
enum Slot {
    /// Not yet dispatched; `ready_at` delays a retry (seeded backoff).
    Pending { ready_at: Option<Instant> },
    /// Handed to a worker; exactly one worker will resolve it.
    InFlight,
    /// Measured (possibly preloaded from the journal on resume).
    Ready {
        evaluation: Evaluation,
        health: MeasureHealth,
    },
    /// Permanently failed (retry budget exhausted or non-transient).
    Failed { error: String },
}

#[derive(Debug)]
struct Unit {
    config: ChipConfig,
    workload: &'static Workload,
    /// `config.label()`, cached: it names the cell in the journal.
    label: String,
    slot: Slot,
    attempts: u32,
}

#[derive(Debug)]
struct Campaign {
    id: String,
    spec: CampaignSpec,
    units: Vec<Unit>,
    phase: Phase,
    inflight: usize,
    /// Cells replayed from the journal at boot instead of re-measured.
    preloaded: usize,
    /// Claimed by the resolver that will render the artifact, so two
    /// workers finishing the last two cells cannot both finalize.
    finalizing: bool,
    artifact: Option<String>,
    journal: Arc<JournalWriter>,
    /// The submitting request's trace context, inherited by every cell.
    /// Resumed campaigns get a zeroed context: the original trace ended
    /// with the process that recorded it.
    ctx: Ctx,
}

impl Campaign {
    fn ready_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u.slot, Slot::Ready { .. }))
            .count()
    }

    fn failed_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u.slot, Slot::Failed { .. }))
            .count()
    }

    fn resolved_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u.slot, Slot::Ready { .. } | Slot::Failed { .. }))
            .count()
    }

    /// Index of the first dispatchable unit, if any.
    fn next_pending(&self, now: Instant) -> Option<usize> {
        self.units.iter().position(|u| match u.slot {
            Slot::Pending { ready_at } => ready_at.is_none_or(|t| t <= now),
            _ => false,
        })
    }

    /// Whether the scheduler should consider this campaign at all.
    fn dispatchable(&self) -> bool {
        matches!(self.phase, Phase::Queued | Phase::Running)
    }
}

/// Per-tenant scheduling state (stride pass + token bucket).
#[derive(Debug)]
struct Tenant {
    weight: f64,
    /// Stride pass: lowest pass dispatches next; advances by `1/weight`.
    pass: f64,
    /// Token bucket: refilled at `quota` tokens/sec, capped at one
    /// second's burst; a dispatch spends one token.
    quota: f64,
    tokens: f64,
    last_refill: Instant,
    cells_done: u64,
}

impl Tenant {
    fn burst(&self) -> f64 {
        self.quota.max(1.0)
    }

    fn refill(&mut self, now: Instant) {
        let dt = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.quota).min(self.burst());
    }
}

#[derive(Debug, Default)]
struct Registry {
    campaigns: Vec<Campaign>,
    tenants: std::collections::BTreeMap<String, Tenant>,
    inflight: usize,
    next_seq: u64,
}

impl Registry {
    fn campaign_mut(&mut self, id: &str) -> Option<&mut Campaign> {
        self.campaigns.iter_mut().find(|c| c.id == id)
    }

    fn campaign(&self, id: &str) -> Option<&Campaign> {
        self.campaigns.iter().find(|c| c.id == id)
    }
}

/// The campaign orchestrator: registry, fair-share scheduler state, and
/// journal directory. One per server, owned by
/// [`crate::handlers::ServeState`].
#[derive(Debug)]
pub struct Orchestrator {
    dir: PathBuf,
    inner: Mutex<Registry>,
    wake: Condvar,
    policy: RetryPolicy,
    /// Campaign cells allowed in flight at once across all campaigns
    /// (the slice of the worker pool campaigns may occupy).
    max_inflight: usize,
    stopping: AtomicBool,
}

impl Orchestrator {
    /// An orchestrator journaling into `dir`, dispatching at most
    /// `max_inflight` concurrent campaign cells. Campaign ids continue
    /// after the highest `cNNNN.jsonl` already in `dir`, so a restarted
    /// server never clobbers a prior run's journal.
    #[must_use]
    pub fn new(dir: PathBuf, max_inflight: usize) -> Self {
        let next_seq = scan_max_seq(&dir);
        Self {
            dir,
            inner: Mutex::new(Registry {
                next_seq,
                ..Registry::default()
            }),
            wake: Condvar::new(),
            policy: RetryPolicy::default(),
            max_inflight: max_inflight.max(1),
            stopping: AtomicBool::new(false),
        }
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stops the scheduler: no further cells dispatch. In-flight cells
    /// resolve and are journaled (the drain path calls this before
    /// closing the queue).
    pub fn stop(&self) {
        // Set under the registry lock, so a scheduler about to wait
        // either sees the flag or is already waiting for this notify.
        let reg = self.inner.lock().expect("campaign registry lock");
        self.stopping.store(true, Ordering::Relaxed);
        drop(reg);
        self.wake.notify_all();
    }

    /// Whether [`Orchestrator::stop`] was called.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    /// Parks the scheduler thread until new work may exist: at most
    /// `timeout` while a campaign is `Queued` or `Running` (retry
    /// backoffs and quota refills need the periodic poll), otherwise
    /// until `submit`, `resume` or `stop` notifies.
    pub fn wait_for_work(&self, timeout: Duration) {
        let reg = self.inner.lock().expect("campaign registry lock");
        if self.stopping() {
            return;
        }
        if reg.campaigns.iter().any(Campaign::dispatchable) {
            let _unused = self
                .wake
                .wait_timeout(reg, timeout)
                .expect("campaign registry lock");
        } else {
            let _unused = self.wake.wait(reg).expect("campaign registry lock");
        }
    }

    // -----------------------------------------------------------------
    // Submission
    // -----------------------------------------------------------------

    /// Submits a new campaign: validates the spec, writes the journal
    /// header, registers the campaign as `Queued`, and wakes the
    /// scheduler. Returns the submission-status JSON body.
    ///
    /// # Errors
    ///
    /// A ready-to-send error [`Response`] (400/404 validation, 429 over
    /// the per-tenant cap, 500 on journal I/O failure).
    pub fn submit(&self, req: &Request, state: &ServeState) -> Result<Response, Response> {
        let spec = CampaignSpec::from_request(req)?;
        let grid = spec.resolve(&state.harness)?;
        let id = {
            let mut reg = self.inner.lock().expect("campaign registry lock");
            let active = reg
                .campaigns
                .iter()
                .filter(|c| c.spec.tenant == spec.tenant && c.phase != Phase::Done)
                .count();
            if active >= PER_TENANT_ACTIVE_CAP {
                return Err(Response::error(
                    429,
                    "tenant_over_cap",
                    &format!(
                        "tenant {:?} already has {active} active campaigns (cap {PER_TENANT_ACTIVE_CAP})",
                        spec.tenant
                    ),
                ));
            }
            reg.next_seq += 1;
            format!("c{:04}", reg.next_seq)
        };
        // Journal file I/O happens outside the registry lock; the burned
        // sequence number on failure is harmless.
        let journal = JournalWriter::create(&self.dir.join(format!("{id}.jsonl")))
            .and_then(|j| {
                j.record_raw(header_body(&id, &spec))?;
                Ok(j)
            })
            .map_err(|e| Response::error(500, "journal_io", &format!("cannot start journal: {e}")))?;
        let units = grid
            .into_iter()
            .map(|(config, workload)| Unit {
                label: config.label(),
                config,
                workload,
                slot: Slot::Pending { ready_at: None },
                attempts: 0,
            })
            .collect::<Vec<_>>();
        let total = units.len();
        let mut reg = self.inner.lock().expect("campaign registry lock");
        touch_tenant(&mut reg, &spec);
        reg.campaigns.push(Campaign {
            id: id.clone(),
            spec,
            units,
            phase: Phase::Queued,
            inflight: 0,
            preloaded: 0,
            finalizing: false,
            artifact: None,
            journal: Arc::new(journal),
            ctx: context::capture(),
        });
        let body = status_body(reg.campaign(&id).expect("just pushed"), false);
        drop(reg);
        state.obs.counter("campaign.submitted", 1);
        state.obs.counter("campaign.cells_submitted", total as u64);
        state.obs.mark("campaign.submitted", &id);
        self.publish_gauges(&state.obs);
        self.wake.notify_all();
        Ok(Response {
            status: 202,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        })
    }

    // -----------------------------------------------------------------
    // Scheduling
    // -----------------------------------------------------------------

    /// Picks the next campaign cell to dispatch, or `None` when nothing
    /// is runnable (all token-dry, backoff-delayed, preempted, done, or
    /// the in-flight cap is reached). Marks the picked unit in-flight.
    pub fn next_cell(&self, obs: &Obs) -> Option<CellTask> {
        if self.stopping() {
            return None;
        }
        let now = Instant::now();
        let mut reg = self.inner.lock().expect("campaign registry lock");
        if reg.inflight >= self.max_inflight {
            return None;
        }
        for (_, tenant) in reg.tenants.iter_mut() {
            tenant.refill(now);
        }
        let mut quota_deferred = false;
        for lane in [Lane::High, Lane::Normal] {
            // Tenants with a runnable cell in this lane, by stride pass.
            let mut best: Option<(usize, f64)> = None; // (campaign idx, pass)
            for (idx, c) in reg.campaigns.iter().enumerate() {
                if c.spec.lane != lane || !c.dispatchable() || c.next_pending(now).is_none() {
                    continue;
                }
                let tenant = &reg.tenants[&c.spec.tenant];
                if tenant.tokens < 1.0 {
                    quota_deferred = true;
                    continue;
                }
                // Lowest pass wins; earlier submission breaks ties.
                if best.is_none_or(|(_, p)| tenant.pass < p) {
                    best = Some((idx, tenant.pass));
                }
            }
            if let Some((idx, _)) = best {
                let unit_idx = reg.campaigns[idx]
                    .next_pending(now)
                    .expect("checked above");
                let (tenant_name, task) = {
                    let c = &mut reg.campaigns[idx];
                    let unit = &mut c.units[unit_idx];
                    unit.slot = Slot::InFlight;
                    unit.attempts += 1;
                    c.inflight += 1;
                    if c.phase == Phase::Queued {
                        c.phase = Phase::Running;
                    }
                    (
                        c.spec.tenant.clone(),
                        CellTask {
                            campaign: c.id.clone(),
                            unit: unit_idx,
                            config: unit.config.clone(),
                            workload: unit.workload,
                            ctx: c.ctx,
                        },
                    )
                };
                let weight = reg.campaigns[idx].spec.weight;
                let tenant = reg
                    .tenants
                    .get_mut(&tenant_name)
                    .expect("dispatching tenant exists");
                tenant.tokens -= 1.0;
                tenant.pass += 1.0 / weight;
                reg.inflight += 1;
                let inflight = reg.inflight;
                drop(reg);
                obs.counter("campaign.cells_dispatched", 1);
                obs.gauge("campaign.inflight", inflight as f64);
                return Some(task);
            }
        }
        drop(reg);
        if quota_deferred {
            obs.counter("campaign.quota_deferrals", 1);
        }
        None
    }

    /// Returns a cell the queue refused back to `Pending` (no attempt
    /// charged: the cell never ran).
    pub fn requeue(&self, task: CellTask) {
        let mut reg = self.inner.lock().expect("campaign registry lock");
        reg.inflight = reg.inflight.saturating_sub(1);
        if let Some(c) = reg.campaign_mut(&task.campaign) {
            c.inflight = c.inflight.saturating_sub(1);
            let unit = &mut c.units[task.unit];
            unit.attempts = unit.attempts.saturating_sub(1);
            unit.slot = Slot::Pending { ready_at: None };
        }
    }

    // -----------------------------------------------------------------
    // Resolution
    // -----------------------------------------------------------------

    /// Commits a cell's outcome: journal first (write-ahead), then the
    /// in-memory slot, retrying transient failures under the seeded
    /// backoff policy, and finalizing the campaign when its last cell
    /// resolves.
    pub fn resolved(
        &self,
        task: &CellTask,
        outcome: Result<(Evaluation, MeasureHealth), MeasureError>,
        state: &ServeState,
    ) {
        let obs = &state.obs;
        // Phase 1: retry decision under the lock (retries are not
        // journaled -- only final outcomes are).
        let (journal, attempts) = {
            let mut reg = self.inner.lock().expect("campaign registry lock");
            let Some(c) = reg.campaign_mut(&task.campaign) else {
                reg.inflight = reg.inflight.saturating_sub(1);
                return;
            };
            let attempts = c.units[task.unit].attempts;
            if let Err(e) = &outcome {
                if e.kind.is_transient() && attempts < self.policy.max_attempts {
                    let key = format!("{} / {}", c.units[task.unit].label, task.workload.name());
                    let delay = self.policy.delay_s(&key, attempts);
                    c.units[task.unit].slot = Slot::Pending {
                        ready_at: Some(Instant::now() + Duration::from_secs_f64(delay)),
                    };
                    c.inflight = c.inflight.saturating_sub(1);
                    reg.inflight = reg.inflight.saturating_sub(1);
                    drop(reg);
                    obs.counter("campaign.cell_retries", 1);
                    self.wake.notify_all();
                    return;
                }
            }
            (Arc::clone(&c.journal), attempts)
        };

        // Phase 2: write-ahead journal, outside the registry lock (the
        // fsync must not stall the scheduler or /healthz).
        let report = UnitReport {
            config_label: task.config.label(),
            workload: task.workload.name(),
            attempts,
            deadline_misses: 0,
            outcome: match outcome {
                Ok((evaluation, health)) => UnitOutcome::Completed { evaluation, health },
                Err(error) => UnitOutcome::Failed { error },
            },
        };
        if let Err(e) = journal.record_unit(&report) {
            obs.counter("campaign.journal_errors", 1);
            obs.mark("campaign.journal_error", &e.to_string());
        }
        // The shared measurement store (when the server runs one) gets
        // the completed cell too. The harness's cell sink already
        // covers the normal execution path; this explicit upsert also
        // covers journal-replayed resumes, and duplicates dedup against
        // the fingerprint index at zero write cost.
        if let (Some(store), UnitOutcome::Completed { evaluation, .. }) =
            (state.store.as_ref(), &report.outcome)
        {
            let row = lhr_store::CellRow::from_evaluation(&task.config, evaluation);
            if let Err(e) = store.upsert(std::slice::from_ref(&row)) {
                obs.counter("campaign.store_errors", 1);
                obs.mark("campaign.store_error", &e.to_string());
            }
        }

        // Phase 3: commit the slot and detect completion.
        let finalize = {
            let mut reg = self.inner.lock().expect("campaign registry lock");
            reg.inflight = reg.inflight.saturating_sub(1);
            let Some(c) = reg.campaign_mut(&task.campaign) else {
                return;
            };
            c.inflight = c.inflight.saturating_sub(1);
            c.units[task.unit].slot = match report.outcome {
                UnitOutcome::Completed { evaluation, health } => {
                    obs.counter("campaign.cells_done", 1);
                    Slot::Ready { evaluation, health }
                }
                UnitOutcome::Failed { error } => {
                    obs.counter("campaign.cell_failures", 1);
                    Slot::Failed {
                        error: error.to_string(),
                    }
                }
                UnitOutcome::Skipped => unreachable!("serve campaigns never skip"),
            };
            let tenant_name = c.spec.tenant.clone();
            let complete =
                c.resolved_count() == c.units.len() && !c.finalizing && c.phase != Phase::Done;
            if complete {
                c.finalizing = true;
            }
            if let Some(t) = reg.tenants.get_mut(&tenant_name) {
                t.cells_done += 1;
            }
            complete
        };
        if finalize {
            self.finalize(&task.campaign, obs);
        }
        self.publish_gauges(obs);
        self.wake.notify_all();
    }

    /// Renders and writes the campaign's result artifact, journals its
    /// checksum, and marks the campaign `Done`. The artifact contains
    /// only values that are pure functions of the grid -- no attempt
    /// counts, timestamps, or health counters -- so an interrupted and
    /// resumed campaign produces identical bytes.
    fn finalize(&self, id: &str, obs: &Obs) {
        let (name, bytes, journal) = {
            let reg = self.inner.lock().expect("campaign registry lock");
            let Some(c) = reg.campaign(id) else { return };
            (
                format!("{id}.result.json"),
                artifact_body(c).into_bytes(),
                Arc::clone(&c.journal),
            )
        };
        let path = self.dir.join(&name);
        if let Err(e) = write_atomic(&path, &bytes) {
            obs.counter("campaign.artifact_errors", 1);
            obs.mark("campaign.artifact_error", &e.to_string());
            // Leave the campaign un-finalized; a resume can retry.
            let mut reg = self.inner.lock().expect("campaign registry lock");
            if let Some(c) = reg.campaign_mut(id) {
                c.finalizing = false;
            }
            return;
        }
        if let Err(e) = journal.record_artifact(&name, &bytes) {
            obs.counter("campaign.journal_errors", 1);
            obs.mark("campaign.journal_error", &e.to_string());
        }
        let mut reg = self.inner.lock().expect("campaign registry lock");
        if let Some(c) = reg.campaign_mut(id) {
            c.artifact = Some(name);
            c.phase = Phase::Done;
        }
        drop(reg);
        obs.counter("campaign.completed", 1);
        obs.mark("campaign.completed", id);
    }

    // -----------------------------------------------------------------
    // Preempt / resume
    // -----------------------------------------------------------------

    /// Preempts a campaign: future dispatch stops, in-flight cells
    /// complete and are journaled. The preemption itself is journaled,
    /// so a crash after it restores the campaign as preempted.
    ///
    /// # Errors
    ///
    /// A ready-to-send 404/409 [`Response`].
    pub fn preempt(&self, id: &str, obs: &Obs) -> Result<Response, Response> {
        let journal = {
            let mut reg = self.inner.lock().expect("campaign registry lock");
            let Some(c) = reg.campaign_mut(id) else {
                return Err(Response::error(404, "no_such_campaign", "unknown campaign id"));
            };
            match c.phase {
                Phase::Queued | Phase::Running => {}
                Phase::Preempted => {
                    return Err(Response::error(409, "already_preempted", "campaign is preempted"))
                }
                Phase::Done => {
                    return Err(Response::error(409, "already_done", "campaign already completed"))
                }
            }
            c.phase = Phase::Preempted;
            Arc::clone(&c.journal)
        };
        if let Err(e) = journal.record_raw("{\"event\":\"preempted\"".to_owned()) {
            obs.counter("campaign.journal_errors", 1);
            obs.mark("campaign.journal_error", &e.to_string());
        }
        obs.counter("campaign.preemptions", 1);
        self.publish_gauges(obs);
        let reg = self.inner.lock().expect("campaign registry lock");
        let body = status_body(reg.campaign(id).expect("still present"), false);
        Ok(Response::ok_json(body))
    }

    /// Resumes a preempted campaign: dispatch restarts from the cells
    /// not yet resolved.
    ///
    /// # Errors
    ///
    /// A ready-to-send 404/409 [`Response`].
    pub fn resume(&self, id: &str, obs: &Obs) -> Result<Response, Response> {
        let journal = {
            let mut reg = self.inner.lock().expect("campaign registry lock");
            let Some(c) = reg.campaign_mut(id) else {
                return Err(Response::error(404, "no_such_campaign", "unknown campaign id"));
            };
            if c.phase != Phase::Preempted {
                return Err(Response::error(409, "not_preempted", "campaign is not preempted"));
            }
            c.phase = Phase::Queued;
            Arc::clone(&c.journal)
        };
        if let Err(e) = journal.record_raw("{\"event\":\"resumed\"".to_owned()) {
            obs.counter("campaign.journal_errors", 1);
            obs.mark("campaign.journal_error", &e.to_string());
        }
        obs.counter("campaign.resumes", 1);
        self.publish_gauges(obs);
        self.wake.notify_all();
        let reg = self.inner.lock().expect("campaign registry lock");
        let body = status_body(reg.campaign(id).expect("still present"), false);
        Ok(Response::ok_json(body))
    }

    // -----------------------------------------------------------------
    // Boot-time resume
    // -----------------------------------------------------------------

    /// Replays every `cNNNN.jsonl` journal in the campaign directory:
    /// measured cells preload the runner cache and fill their slots,
    /// failed cells re-run, campaigns whose artifact already matches
    /// its journaled checksum come back `Done`, campaigns whose last
    /// lifecycle event was `preempted` come back `Preempted`, and
    /// everything else re-enters the scheduler as `Queued`. Returns the
    /// number of campaigns restored.
    pub fn resume_scan(&self, harness: &Harness, obs: &Obs) -> usize {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| is_campaign_journal(p))
                    .collect()
            })
            .unwrap_or_default();
        paths.sort();
        let mut restored = 0;
        for path in paths {
            match self.resume_one(&path, harness, obs) {
                Ok(()) => restored += 1,
                Err(detail) => {
                    obs.counter("campaign.resume_rejects", 1);
                    obs.mark("campaign.resume_reject", &format!("{}: {detail}", path.display()));
                }
            }
        }
        if restored > 0 {
            obs.counter("campaign.resumed_from_journal", restored as u64);
            self.publish_gauges(obs);
            self.wake.notify_all();
        }
        restored
    }

    fn resume_one(&self, path: &Path, harness: &Harness, obs: &Obs) -> Result<(), String> {
        let id = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or("bad file name")?
            .to_owned();
        let journal = load_journal(path).map_err(|e| e.to_string())?;
        let header = journal
            .header
            .as_deref()
            .ok_or("missing or torn header line")?;
        if json_str(header, "campaign").as_deref() != Some("lhr-serve") {
            return Err("not a serve campaign journal".to_owned());
        }
        let spec = spec_from_header(header)?;
        let grid = spec
            .resolve(harness)
            .map_err(|_| "spec no longer resolves against this server".to_owned())?;

        let mut units: Vec<Unit> = grid
            .into_iter()
            .map(|(config, workload)| Unit {
                label: config.label(),
                config,
                workload,
                slot: Slot::Pending { ready_at: None },
                attempts: 0,
            })
            .collect();
        // Replay measured cells: preload the runner cache (so the
        // harness evaluation is a cache hit with the journaled bits),
        // then evaluate to rebuild the normalized slot.
        let mut preloaded = 0usize;
        for cell in &journal.ok_cells {
            let Some(unit) = units
                .iter_mut()
                .find(|u| u.label == cell.config && u.workload.name() == cell.workload)
            else {
                continue; // a cell this spec no longer contains
            };
            if !matches!(unit.slot, Slot::Pending { .. }) {
                continue; // duplicate journal line; first wins
            }
            cell.preload(harness.runner(), &unit.config, unit.workload);
            match harness.try_evaluate_workload(&unit.config, unit.workload) {
                Ok((evaluation, health)) => {
                    unit.slot = Slot::Ready { evaluation, health };
                    preloaded += 1;
                }
                Err(_) => {
                    // Evaluation from a preloaded cell failing means the
                    // reference set itself failed; re-measure the cell.
                }
            }
        }
        // `boot-resume` markers from earlier restarts are not lifecycle
        // decisions; only the last preempt/resume pair matters.
        let preempted = journal
            .events
            .iter()
            .rfind(|e| e.as_str() == "preempted" || e.as_str() == "resumed")
            .map(String::as_str)
            == Some("preempted");
        let all_resolved = units
            .iter()
            .all(|u| matches!(u.slot, Slot::Ready { .. } | Slot::Failed { .. }))
            && journal.err_cells == 0;
        let artifact_name = format!("{id}.result.json");
        let artifact_ok = journal.artifacts.get(&artifact_name).is_some_and(|sum| {
            std::fs::read(self.dir.join(&artifact_name))
                .is_ok_and(|bytes| fnv64(&bytes) == *sum)
        });

        let writer = JournalWriter::append(path).map_err(|e| e.to_string())?;
        if let Err(e) = writer.record_raw("{\"event\":\"boot-resume\"".to_owned()) {
            obs.counter("campaign.journal_errors", 1);
            obs.mark("campaign.journal_error", &e.to_string());
        }
        let phase = if all_resolved && artifact_ok {
            Phase::Done
        } else if preempted {
            Phase::Preempted
        } else {
            Phase::Queued
        };
        let needs_finalize = all_resolved && !artifact_ok;
        let mut reg = self.inner.lock().expect("campaign registry lock");
        touch_tenant(&mut reg, &spec);
        if let Some(seq) = id.strip_prefix('c').and_then(|s| s.parse::<u64>().ok()) {
            reg.next_seq = reg.next_seq.max(seq);
        }
        reg.campaigns.push(Campaign {
            id: id.clone(),
            spec,
            units,
            phase,
            inflight: 0,
            preloaded,
            finalizing: needs_finalize,
            artifact: (all_resolved && artifact_ok).then_some(artifact_name),
            journal: Arc::new(writer),
            ctx: Ctx::default(),
        });
        drop(reg);
        if needs_finalize {
            // All cells survived in the journal but the artifact is
            // missing or stale (killed mid-render): regenerate it now,
            // deterministically.
            self.finalize(&id, obs);
        }
        obs.counter("campaign.preloaded_cells", preloaded as u64);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Introspection
    // -----------------------------------------------------------------

    /// The status JSON for one campaign (`cells=1` includes per-cell
    /// partial results), or `None` for an unknown id.
    #[must_use]
    pub fn status_json(&self, id: &str, with_cells: bool) -> Option<String> {
        let reg = self.inner.lock().expect("campaign registry lock");
        reg.campaign(id).map(|c| status_body(c, with_cells))
    }

    /// The campaign list JSON (most recent last).
    #[must_use]
    pub fn list_json(&self) -> String {
        let reg = self.inner.lock().expect("campaign registry lock");
        let mut body = String::from("{\"campaigns\":[");
        for (i, c) in reg.campaigns.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(status_body(c, false).trim_end());
        }
        body.push_str("]}\n");
        body
    }

    /// The artifact file for a campaign: `Ok(path)` when done,
    /// `Err(response)` otherwise.
    ///
    /// # Errors
    ///
    /// A ready-to-send 404/409 [`Response`].
    pub fn artifact_path(&self, id: &str) -> Result<PathBuf, Response> {
        let reg = self.inner.lock().expect("campaign registry lock");
        let Some(c) = reg.campaign(id) else {
            return Err(Response::error(404, "no_such_campaign", "unknown campaign id"));
        };
        match &c.artifact {
            Some(name) => Ok(self.dir.join(name)),
            None => Err(Response::error(
                409,
                "not_done",
                &format!("campaign is {}; artifact exists once done", c.phase.as_str()),
            )),
        }
    }

    /// The `/healthz` scheduler block: campaign counts by phase, cells
    /// in flight, and per-tenant queued/running/preempted/done counts
    /// with quota state -- what drain and chaos assertions observe.
    #[must_use]
    pub fn healthz_json(&self) -> String {
        let reg = self.inner.lock().expect("campaign registry lock");
        let count = |phase: Phase| reg.campaigns.iter().filter(|c| c.phase == phase).count();
        let mut body = String::from("{\"queued\":");
        push_json_number(&mut body, count(Phase::Queued) as f64);
        body.push_str(",\"running\":");
        push_json_number(&mut body, count(Phase::Running) as f64);
        body.push_str(",\"preempted\":");
        push_json_number(&mut body, count(Phase::Preempted) as f64);
        body.push_str(",\"done\":");
        push_json_number(&mut body, count(Phase::Done) as f64);
        body.push_str(",\"cells_inflight\":");
        push_json_number(&mut body, reg.inflight as f64);
        body.push_str(",\"tenants\":[");
        for (i, (name, tenant)) in reg.tenants.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str("{\"tenant\":");
            push_json_string(&mut body, name);
            for phase in [Phase::Queued, Phase::Running, Phase::Preempted, Phase::Done] {
                let n = reg
                    .campaigns
                    .iter()
                    .filter(|c| c.spec.tenant == *name && c.phase == phase)
                    .count();
                let _ = write!(body, ",\"{}\":{n}", phase.as_str());
            }
            body.push_str(",\"cells_done\":");
            push_json_number(&mut body, tenant.cells_done as f64);
            body.push_str(",\"quota_cells_per_sec\":");
            push_json_number(&mut body, tenant.quota);
            body.push_str(",\"weight\":");
            push_json_number(&mut body, tenant.weight);
            body.push('}');
        }
        body.push_str("]}");
        body
    }

    fn publish_gauges(&self, obs: &Obs) {
        let reg = self.inner.lock().expect("campaign registry lock");
        let count = |phase: Phase| reg.campaigns.iter().filter(|c| c.phase == phase).count();
        obs.gauge("campaign.queued", count(Phase::Queued) as f64);
        obs.gauge("campaign.running", count(Phase::Running) as f64);
        obs.gauge("campaign.preempted", count(Phase::Preempted) as f64);
        obs.gauge("campaign.done", count(Phase::Done) as f64);
        obs.gauge("campaign.inflight", reg.inflight as f64);
    }
}

/// Updates (or creates) the tenant's scheduling state from a spec: the
/// latest submission's weight and quota win.
fn touch_tenant(reg: &mut Registry, spec: &CampaignSpec) {
    let now = Instant::now();
    // A new tenant starts at the minimum live pass: it competes fairly
    // from now on, with no retroactive credit for time it was absent
    // (starting at zero would let it monopolize until it caught up).
    let base_pass = reg
        .tenants
        .values()
        .map(|t| t.pass)
        .fold(f64::INFINITY, f64::min);
    let base_pass = if base_pass.is_finite() { base_pass } else { 0.0 };
    let tenant = reg
        .tenants
        .entry(spec.tenant.clone())
        .or_insert_with(|| Tenant {
            weight: spec.weight,
            pass: base_pass,
            quota: spec.quota,
            tokens: spec.quota.max(1.0),
            last_refill: now,
            cells_done: 0,
        });
    tenant.weight = spec.weight;
    tenant.quota = spec.quota;
    tenant.tokens = tenant.tokens.min(tenant.burst());
}

/// Executes one campaign cell on a pool worker and commits its outcome.
/// A panic inside the engine is contained into a `WorkerPanic` failure
/// so the slot always resolves -- a stuck `InFlight` slot would leak a
/// scheduler token forever.
pub fn execute(state: &Arc<ServeState>, task: CellTask) {
    // Re-establish the submitting request's context on this pool
    // worker: the cell's spans join the submitter's distributed trace
    // (the campaign span from the `/v1/campaigns` POST is the parent).
    let outcome = context::with_ctx(task.ctx, || {
        let mut span = state.obs.span("campaign.cell");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state
                .harness
                .try_evaluate_workload(&task.config, task.workload)
        }))
        .unwrap_or_else(|_| {
            Err(MeasureError {
                workload: Some(task.workload.name()),
                config: task.config.label(),
                kind: MeasureErrorKind::WorkerPanic("campaign cell panicked".to_owned()),
            })
        });
        if outcome.is_err() {
            span.fail();
        }
        span.end();
        outcome
    });
    state.campaigns.resolved(&task, outcome, state);
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Dispatches every `/v1/campaigns*` request.
#[must_use]
pub fn handle(state: &Arc<ServeState>, req: &Request) -> Response {
    let orch = &state.campaigns;
    let rest = req.path.strip_prefix("/v1/campaigns").unwrap_or("");
    match (req.method, rest) {
        (Method::Post, "") => match orch.submit(req, state) {
            Ok(r) | Err(r) => r,
        },
        (Method::Get, "") => Response::ok_json(orch.list_json()),
        (Method::Get | Method::Post, _) => {
            let Some(tail) = rest.strip_prefix('/') else {
                return Response::error(404, "not_found", "unknown campaign endpoint");
            };
            let (id, action) = match tail.split_once('/') {
                Some((id, action)) => (id, Some(action)),
                None => (tail, None),
            };
            match (req.method, action) {
                (Method::Get, None) => {
                    let with_cells = req.param("cells") == Some("1");
                    match orch.status_json(id, with_cells) {
                        Some(body) => Response::ok_json(body),
                        None => Response::error(404, "no_such_campaign", "unknown campaign id"),
                    }
                }
                (Method::Get, Some("artifact")) => match orch.artifact_path(id) {
                    Ok(path) => match std::fs::read(path) {
                        Ok(bytes) => Response {
                            status: 200,
                            content_type: "application/json",
                            body: bytes,
                            retry_after: None,
                        },
                        Err(_) => Response::error(404, "no_artifact", "artifact file missing"),
                    },
                    Err(r) => r,
                },
                (Method::Post, Some("preempt")) => match orch.preempt(id, &state.obs) {
                    Ok(r) | Err(r) => r,
                },
                (Method::Post, Some("resume")) => match orch.resume(id, &state.obs) {
                    Ok(r) | Err(r) => r,
                },
                _ => Response::error(
                    404,
                    "not_found",
                    "campaign endpoints: GET /v1/campaigns[/<id>[/artifact]], \
                     POST /v1/campaigns[/<id>/preempt|/<id>/resume]",
                ),
            }
        }
    }
}

// ---------------------------------------------------------------------
// JSON rendering and parsing helpers
// ---------------------------------------------------------------------

fn header_body(id: &str, spec: &CampaignSpec) -> String {
    let mut body = String::from("{\"campaign\":\"lhr-serve\",\"version\":1,\"id\":");
    push_json_string(&mut body, id);
    body.push_str(",\"tenant\":");
    push_json_string(&mut body, &spec.tenant);
    body.push_str(",\"priority\":");
    push_json_string(&mut body, spec.lane.as_str());
    body.push_str(",\"weight\":");
    push_json_number(&mut body, spec.weight);
    body.push_str(",\"quota\":");
    push_json_number(&mut body, spec.quota);
    body.push_str(",\"chips\":");
    push_json_string(&mut body, &spec.chips.join(","));
    body.push_str(",\"config\":");
    push_json_string(&mut body, &spec.descriptor);
    body.push_str(",\"workloads\":");
    push_json_string(&mut body, &spec.workloads.join(","));
    body
}

fn spec_from_header(header: &str) -> Result<CampaignSpec, String> {
    let csv = |key: &str| -> Vec<String> {
        json_str(header, key)
            .unwrap_or_default()
            .split(',')
            .filter(|t| !t.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let chips = csv("chips");
    if chips.is_empty() {
        return Err("header names no chips".to_owned());
    }
    Ok(CampaignSpec {
        tenant: json_str(header, "tenant").ok_or("header missing tenant")?,
        lane: Lane::parse(&json_str(header, "priority").unwrap_or_else(|| "normal".to_owned()))?,
        weight: json_f64(header, "weight").unwrap_or(1.0),
        quota: json_f64(header, "quota").unwrap_or(8.0),
        chips,
        descriptor: json_str(header, "config").unwrap_or_else(|| "stock".to_owned()),
        workloads: csv("workloads"),
    })
}

fn status_body(c: &Campaign, with_cells: bool) -> String {
    let mut body = String::with_capacity(256);
    body.push_str("{\"id\":");
    push_json_string(&mut body, &c.id);
    body.push_str(",\"tenant\":");
    push_json_string(&mut body, &c.spec.tenant);
    body.push_str(",\"priority\":");
    push_json_string(&mut body, c.spec.lane.as_str());
    body.push_str(",\"state\":");
    push_json_string(&mut body, c.phase.as_str());
    body.push_str(",\"weight\":");
    push_json_number(&mut body, c.spec.weight);
    body.push_str(",\"quota_cells_per_sec\":");
    push_json_number(&mut body, c.spec.quota);
    let _ = write!(
        body,
        ",\"units\":{},\"done\":{},\"failed\":{},\"inflight\":{},\"preloaded\":{}",
        c.units.len(),
        c.ready_count(),
        c.failed_count(),
        c.inflight,
        c.preloaded,
    );
    body.push_str(",\"artifact\":");
    match &c.artifact {
        Some(name) => push_json_string(&mut body, name),
        None => body.push_str("null"),
    }
    if with_cells {
        body.push_str(",\"cells\":[");
        for (i, u) in c.units.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str("{\"config\":");
            push_json_string(&mut body, &u.label);
            body.push_str(",\"workload\":");
            push_json_string(&mut body, u.workload.name());
            body.push_str(",\"status\":");
            match &u.slot {
                Slot::Pending { .. } => body.push_str("\"pending\""),
                Slot::InFlight => body.push_str("\"inflight\""),
                Slot::Ready { evaluation, health } => {
                    let m = &evaluation.measurement;
                    body.push_str("\"ok\",\"seconds\":");
                    push_json_number(&mut body, m.time.mean());
                    body.push_str(",\"watts\":");
                    push_json_number(&mut body, m.power.mean());
                    body.push_str(",\"perf_norm\":");
                    push_json_number(&mut body, evaluation.perf_norm);
                    body.push_str(",\"energy_norm\":");
                    push_json_number(&mut body, evaluation.energy_norm);
                    // Health is status-only detail: it may differ
                    // between a straight run and a resumed one, so it
                    // never reaches the artifact.
                    body.push_str(",\"retries\":");
                    push_json_number(&mut body, health.retries as f64);
                }
                Slot::Failed { error } => {
                    body.push_str("\"err\",\"error\":");
                    push_json_string(&mut body, error);
                }
            }
            body.push('}');
        }
        body.push(']');
    }
    body.push_str("}\n");
    body
}

/// Renders the deterministic result artifact: grid order, values only.
/// Anything that can differ between an uninterrupted run and a
/// crash-resumed one (attempt counts, retry totals, wall-clock) is
/// deliberately absent -- byte-identity is the contract the chaos
/// harness enforces.
fn artifact_body(c: &Campaign) -> String {
    let mut body = String::with_capacity(256 + 160 * c.units.len());
    body.push_str("{\"campaign\":\"lhr-serve\",\"id\":");
    push_json_string(&mut body, &c.id);
    body.push_str(",\"tenant\":");
    push_json_string(&mut body, &c.spec.tenant);
    body.push_str(",\"config\":");
    push_json_string(&mut body, &c.spec.descriptor);
    body.push_str(",\"chips\":");
    push_json_string(&mut body, &c.spec.chips.join(","));
    body.push_str(",\"workloads\":");
    push_json_string(&mut body, &c.spec.workloads.join(","));
    body.push_str(",\"cells\":[");
    for (i, u) in c.units.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"config\":");
        push_json_string(&mut body, &u.label);
        body.push_str(",\"workload\":");
        push_json_string(&mut body, u.workload.name());
        match &u.slot {
            Slot::Ready { evaluation, .. } => {
                let m = &evaluation.measurement;
                body.push_str(",\"status\":\"ok\",\"seconds\":");
                push_json_number(&mut body, m.time.mean());
                body.push_str(",\"watts\":");
                push_json_number(&mut body, m.power.mean());
                body.push_str(",\"joules\":");
                push_json_number(&mut body, m.time.mean() * m.power.mean());
                body.push_str(",\"perf_norm\":");
                push_json_number(&mut body, evaluation.perf_norm);
                body.push_str(",\"energy_norm\":");
                push_json_number(&mut body, evaluation.energy_norm);
            }
            Slot::Failed { error } => {
                body.push_str(",\"status\":\"err\",\"error\":");
                push_json_string(&mut body, error);
            }
            // finalize only runs with every slot resolved.
            Slot::Pending { .. } | Slot::InFlight => {
                body.push_str(",\"status\":\"unresolved\"");
            }
        }
        body.push('}');
    }
    let _ = write!(
        body,
        "],\"ok\":{},\"err\":{}}}",
        c.ready_count(),
        c.failed_count()
    );
    body.push('\n');
    body
}

/// Whether a path looks like a serve campaign journal (`cNNNN.jsonl`).
fn is_campaign_journal(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let Some(stem) = name.strip_suffix(".jsonl") else {
        return false;
    };
    stem.strip_prefix('c')
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// Highest existing campaign sequence number in `dir` (0 when empty or
/// absent), so restarted servers allocate fresh ids.
fn scan_max_seq(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| is_campaign_journal(p))
                .filter_map(|p| {
                    p.file_stem()?
                        .to_str()?
                        .strip_prefix('c')?
                        .parse::<u64>()
                        .ok()
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}
