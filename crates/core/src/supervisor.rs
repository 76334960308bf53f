//! The campaign supervisor: watchdog deadlines, backoff retry, and
//! abort-safe scheduling over a harness.
//!
//! # Paper layer
//!
//! The source study's data came from a multi-day measurement campaign:
//! 61 benchmarks x dozens of hardware configurations, each cell a real
//! machine run behind a USB data logger that could (and did) wedge,
//! drift, and die. A campaign at that scale is not one heroic sweep --
//! it is supervised work: a wedged cell gets a deadline, a bounced cell
//! gets a spaced retry, a dead cell gets written down, and the campaign
//! carries on. This module is that supervisor as code.
//!
//! # Architecture
//!
//! A [`Supervisor`] drives a list of `(configuration, workload)` units
//! through [`Harness::try_evaluate_workload`] on a fixed pool of `jobs`
//! detached worker threads. The workers pull units from one shared
//! queue in input order and send completions home over a channel; the
//! scheduling thread keeps deadlines, retries and the sink off their
//! path:
//!
//! * **Watchdog deadlines.** Each unit gets a soft deadline scaled from
//!   the runner's prescribed invocation count (a 20-invocation Java cell
//!   earns more wall-clock than a 3-invocation SPEC cell), counted from
//!   the moment a worker starts it. A worker that misses its deadline is
//!   *retired, never aborted*: a fresh worker takes its place in the
//!   pool, the supervisor stops waiting, but if the straggler finishes
//!   later its result is still accepted ("stale-result acceptance") --
//!   measurements are deterministic, so a late answer is exactly as good
//!   as a prompt one. The straggler then exits. If its unit's retry is
//!   still queued then, the retry is withdrawn and never counted.
//! * **Backoff retry.** Transient failures (deadline misses, contained
//!   worker panics) earn a re-run after a bounded, exponentially growing
//!   delay with deterministic seeded jitter ([`RetryPolicy`]); the
//!   retry goes back in the queue at its own place, ahead of every unit
//!   not yet started.
//!   Permanent failures (rig setup, terminal sensor faults, an
//!   exhausted in-runner retry budget) finalize immediately -- the
//!   runner already spent its second chances, and looping on a dead rig
//!   is how campaigns lose nights.
//! * **Degradation, not abortion.** A unit that exhausts its attempts is
//!   recorded as failed in its [`UnitReport`] and the campaign
//!   continues; nothing panics, nothing exits.
//! * **Batched checkpoints.** Resolved units are offered to a
//!   [`CampaignSink`] in resolution order, in batches: the scheduling
//!   thread takes every completion waiting in its channel and hands the
//!   units they resolve over in one call
//!   ([`CampaignSink::units_resolved`]), so a write-ahead journal writes
//!   and syncs once per batch while the workers run on. No window is
//!   configured: a batch is whatever finished while the previous one was
//!   being written.
//! * **Cooperative abort.** An [`AbortHandle`] stops the campaign at the
//!   next scheduling point, marking unfinished units
//!   [`UnitOutcome::Skipped`]. Combined with a journal, this is the
//!   crash half of a kill-and-resume test. A sink that aborts partway
//!   through a batch has still been offered the whole batch.
//!
//! Everything here is off the measurement path: a harness driven by a
//! supervisor produces bit-for-bit the numbers it would produce alone,
//! because thread count, deadlines, and retries only decide *when* a
//! deterministic measurement runs, never what it returns.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lhr_obs::Obs;
use lhr_trace::{Rng64, SplitMix64};
use lhr_uarch::ChipConfig;
use lhr_workloads::Workload;

use crate::error::{MeasureError, MeasureErrorKind, MeasureHealth};
use crate::harness::{panic_message, CellHealth, Evaluation, Harness, SweepHealth};

/// Bounded exponential backoff with deterministic seeded jitter.
///
/// The delay before attempt `k + 1` of a cell is drawn from
/// `[0.5, 1.0] x envelope(k)` where
/// `envelope(k) = min(base * 2^(k-1), max)`: bounded above by the
/// envelope, never collapsing below half of it, and reproducible -- the
/// jitter is a pure function of `(seed, cell, attempt)`, so a re-run
/// campaign waits the same milliseconds in the same places.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts a unit may consume (first run included); at least 1.
    pub max_attempts: u32,
    /// First-retry delay envelope, in seconds.
    pub base_delay_s: f64,
    /// Ceiling on the delay envelope, in seconds.
    pub max_delay_s: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_s: 0.05,
            max_delay_s: 2.0,
            seed: 0xb0ff_5eed,
        }
    }
}

impl RetryPolicy {
    /// The undithered delay envelope before attempt `attempt + 1`
    /// (`attempt >= 1` is the number of attempts already consumed):
    /// `min(base * 2^(attempt-1), max)`, monotonically non-decreasing in
    /// `attempt`.
    #[must_use]
    pub fn envelope_s(&self, attempt: u32) -> f64 {
        let exponent = attempt.saturating_sub(1).min(62);
        let doubled = self.base_delay_s * (1u64 << exponent) as f64;
        doubled.min(self.max_delay_s.max(self.base_delay_s))
    }

    /// The jittered delay before attempt `attempt + 1` of `cell`:
    /// deterministic in `(seed, cell, attempt)` and always within
    /// `[0.5, 1.0] x` [`RetryPolicy::envelope_s`].
    #[must_use]
    pub fn delay_s(&self, cell: &str, attempt: u32) -> f64 {
        let key = lhr_obs::sealed::fnv64(cell.as_bytes());
        let mut rng = SplitMix64::new(self.seed ^ key).split(u64::from(attempt));
        let fraction = 0.5 + 0.5 * rng.next_f64();
        self.envelope_s(attempt) * fraction
    }
}

/// One schedulable unit of a campaign: a single `(configuration,
/// workload)` cell.
#[derive(Debug, Clone)]
pub struct CampaignUnit {
    /// The configuration to evaluate on.
    pub config: ChipConfig,
    /// The workload to evaluate.
    pub workload: &'static Workload,
}

impl CampaignUnit {
    /// The journal key naming this unit: `config label / workload name`.
    #[must_use]
    pub fn key(&self) -> String {
        format!("{} / {}", self.config.label(), self.workload.name())
    }
}

/// How one unit ended.
#[derive(Debug, Clone)]
pub enum UnitOutcome {
    /// The unit produced a normalized evaluation (possibly after
    /// retries and deadline misses -- check the report's counters).
    Completed {
        /// The evaluation, bit-identical to an unsupervised run.
        evaluation: Evaluation,
        /// What the accepted measurement cost inside the runner.
        health: MeasureHealth,
    },
    /// The unit failed for good after its attempts were spent.
    Failed {
        /// The final error.
        error: MeasureError,
    },
    /// The campaign was aborted before the unit resolved.
    Skipped,
}

/// One unit's resolution record.
#[derive(Debug, Clone)]
pub struct UnitReport {
    /// The configuration label.
    pub config_label: String,
    /// The workload name.
    pub workload: &'static str,
    /// Worker runs started for this unit (1 = first try sufficed).
    pub attempts: u32,
    /// Watchdog deadlines this unit missed.
    pub deadline_misses: u32,
    /// How the unit ended.
    pub outcome: UnitOutcome,
}

impl UnitReport {
    /// The completed evaluation, if the unit completed.
    #[must_use]
    pub fn evaluation(&self) -> Option<&Evaluation> {
        match &self.outcome {
            UnitOutcome::Completed { evaluation, .. } => Some(evaluation),
            _ => None,
        }
    }
}

/// A checkpoint consumer: offered every resolved unit, in resolution
/// order, from the supervisor's scheduling thread. This is where a
/// write-ahead journal hooks in.
pub trait CampaignSink: Send + Sync {
    /// Consumes the units resolved since the last call, in resolution
    /// order. A journal writes and syncs each batch once.
    fn units_resolved(&self, units: &[UnitReport]);
}

/// The do-nothing sink.
impl CampaignSink for () {
    fn units_resolved(&self, _: &[UnitReport]) {}
}

/// A cooperative abort switch shared between a campaign and whoever may
/// interrupt it (a signal handler, a test, an `--abort-after` hook).
#[derive(Debug, Clone, Default)]
pub struct AbortHandle(Arc<AtomicBool>);

impl AbortHandle {
    /// A fresh, un-aborted handle.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the campaign stop at its next scheduling point.
    pub fn abort(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether an abort has been requested.
    #[must_use]
    pub fn is_aborted(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The whole campaign's result: per-unit reports in input order plus
/// aggregate accounting.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-unit reports, in input order.
    pub units: Vec<UnitReport>,
    /// Whether the campaign was aborted before finishing.
    pub aborted: bool,
    /// Units that completed.
    pub completed: usize,
    /// Units that failed for good.
    pub failed: usize,
    /// Units skipped by an abort.
    pub skipped: usize,
    /// Worker re-runs across the campaign (attempts beyond the first).
    pub retries: usize,
    /// Watchdog deadline misses across the campaign.
    pub deadline_misses: usize,
}

impl CampaignReport {
    /// Aggregates the resolved units into a [`SweepHealth`], grouping
    /// consecutive units that share a configuration label into cells
    /// (the order [`Supervisor::run`] was given is assumed
    /// configuration-major, as a grid campaign naturally is). Skipped
    /// units are excluded: an aborted cell's health is unknown, not
    /// degraded.
    #[must_use]
    pub fn sweep_health(&self) -> SweepHealth {
        let mut health = SweepHealth::default();
        let mut cell: Option<(String, CellHealth)> = None;
        let flush = |health: &mut SweepHealth, cell: &mut Option<(String, CellHealth)>| {
            if let Some((label, ch)) = cell.take() {
                health.cells_total += 1;
                health.retries += ch.retries;
                health.recalibrations += ch.recalibrations;
                health.rejected_outliers += ch.rejected_outliers;
                health.deadline_misses += ch.deadline_misses;
                health.failed_measurements += ch.failed;
                if !ch.is_clean() {
                    health.cells_degraded += 1;
                    health.degraded.push(label);
                }
            }
        };
        for unit in &self.units {
            if matches!(unit.outcome, UnitOutcome::Skipped) {
                continue;
            }
            match &mut cell {
                Some((label, _)) if *label == unit.config_label => {}
                _ => {
                    flush(&mut health, &mut cell);
                    cell = Some((unit.config_label.clone(), CellHealth::default()));
                }
            }
            let ch = &mut cell.as_mut().expect("cell opened above").1;
            ch.retries += unit.attempts.saturating_sub(1) as usize;
            ch.deadline_misses += unit.deadline_misses as usize;
            match &unit.outcome {
                UnitOutcome::Completed { health: h, .. } => ch.absorb(h),
                UnitOutcome::Failed { .. } => ch.failed += 1,
                UnitOutcome::Skipped => unreachable!("skipped units are filtered"),
            }
        }
        flush(&mut health, &mut cell);
        health
    }
}

/// What one worker sends home: the outcome of one attempt at a unit.
struct Completion {
    unit: usize,
    attempt: u32,
    outcome: Result<(Evaluation, MeasureHealth), MeasureError>,
}

/// One attempt at a unit, as a worker runs it.
#[derive(Clone, Copy)]
struct Dispatch {
    unit: usize,
    attempt: u32,
}

/// Scheduling state of one unit.
enum Slot {
    /// Waiting for its backoff to pass before it is queued again.
    Backoff { ready_at: Instant },
    /// Queued, or running on a worker, as attempt `attempt`.
    Dispatched { attempt: u32 },
    /// Resolved for good.
    Done,
}

/// The attempts queued for the pool, as unit index -> attempt: a worker
/// always takes the lowest unit index.
struct Queue {
    pending: BTreeMap<usize, u32>,
    closed: bool,
}

/// What the scheduling thread shares with its workers. The unit list is
/// shared once, not copied per worker.
struct Pool {
    harness: Arc<Harness>,
    units: Arc<[CampaignUnit]>,
    queue: Mutex<Queue>,
    wake: Condvar,
}

/// One pool worker as the scheduling thread sees it.
#[derive(Default)]
struct Worker(Mutex<WorkerState>);

#[derive(Default)]
struct WorkerState {
    /// The attempt the worker is running, and when it started it.
    running: Option<(Dispatch, Instant)>,
    /// Set once the worker missed a deadline: a fresh worker holds its
    /// place, so it exits when its attempt returns.
    retired: bool,
}

impl Worker {
    fn state(&self) -> std::sync::MutexGuard<'_, WorkerState> {
        self.0
            .lock()
            .expect("no campaign thread panics holding a worker lock")
    }
}

impl Pool {
    fn queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("no campaign thread panics holding the queue lock")
    }

    /// The next dispatch to run, waiting for one; `None` once the
    /// campaign is over.
    fn next(&self) -> Option<Dispatch> {
        let mut queue = self.queue();
        loop {
            if queue.closed {
                return None;
            }
            if let Some((unit, attempt)) = queue.pending.pop_first() {
                return Some(Dispatch { unit, attempt });
            }
            queue = self
                .wake
                .wait(queue)
                .expect("no campaign thread panics holding the queue lock");
        }
    }

    /// A worker's life: run dispatches until the queue closes or the
    /// worker is retired. A panicking unit is contained and reported as
    /// its outcome.
    fn work(&self, me: &Worker, done: &mpsc::Sender<Completion>) {
        let obs = self.harness.runner().observer();
        while let Some(dispatch) = self.next() {
            if dispatch.attempt > 1 {
                obs.counter("campaign.retries", 1);
            }
            me.state().running = Some((dispatch, Instant::now()));
            let CampaignUnit { config, workload } = &self.units[dispatch.unit];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.harness.try_evaluate_workload(config, workload)
            }))
            .unwrap_or_else(|panic| {
                Err(MeasureError {
                    workload: Some(workload.name()),
                    config: config.label(),
                    kind: MeasureErrorKind::WorkerPanic(panic_message(&panic)),
                })
            });
            let retired = {
                let mut state = me.state();
                state.running = None;
                state.retired
            };
            // The receiver is gone once the campaign returns; a failed
            // send is a result nobody wants.
            let _ = done.send(Completion {
                unit: dispatch.unit,
                attempt: dispatch.attempt,
                outcome,
            });
            if retired {
                return;
            }
        }
    }
}

/// Upper bound on one channel wait, so external aborts are noticed
/// promptly even while every worker is deep in a measurement.
const MAX_WAIT: Duration = Duration::from_millis(200);

/// Supervises a campaign of measurement units over a shared [`Harness`].
/// See the module docs for the architecture.
#[derive(Debug)]
pub struct Supervisor {
    harness: Arc<Harness>,
    policy: RetryPolicy,
    max_cell_seconds: Option<f64>,
    jobs: usize,
}

impl Supervisor {
    /// A supervisor over `harness` with the default retry policy, no
    /// deadlines, and the harness's job cap (or available parallelism).
    #[must_use]
    pub fn new(harness: Arc<Harness>) -> Self {
        let jobs = harness.jobs().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        });
        Self {
            harness,
            policy: RetryPolicy::default(),
            max_cell_seconds: None,
            jobs,
        }
    }

    /// Overrides the retry policy.
    #[must_use]
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "a unit needs at least one attempt");
        self.policy = policy;
        self
    }

    /// Arms per-unit watchdog deadlines: a 3-invocation cell gets
    /// `seconds`, and every other cell scales by its prescribed
    /// invocation count (`seconds x invocations / 3`), so a
    /// 20-invocation Java cell is not punished for the methodology's
    /// own repetition.
    ///
    /// # Panics
    ///
    /// Panics unless `seconds` is positive and finite.
    #[must_use]
    pub fn with_max_cell_seconds(mut self, seconds: f64) -> Self {
        assert!(
            seconds > 0.0 && seconds.is_finite(),
            "deadline must be positive and finite"
        );
        self.max_cell_seconds = Some(seconds);
        self
    }

    /// Sets the number of pool workers: the units running at once.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_jobs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one worker");
        self.jobs = n;
        self
    }

    /// The harness being supervised.
    #[must_use]
    pub fn harness(&self) -> &Arc<Harness> {
        &self.harness
    }

    /// The watchdog deadline for one workload's unit, if deadlines are
    /// armed.
    #[must_use]
    pub fn deadline_for(&self, workload: &Workload) -> Option<Duration> {
        let scale = self.max_cell_seconds?;
        #[allow(clippy::cast_precision_loss)]
        let invocations = self.harness.runner().invocations_for(workload) as f64;
        Some(Duration::from_secs_f64(scale * invocations / 3.0))
    }

    /// Runs the campaign: every unit resolves to a [`UnitReport`]
    /// (completed, failed, or -- after an abort -- skipped), offered to
    /// `sink` in resolution order. Never panics on a unit failure; see
    /// the module docs for the scheduling rules.
    ///
    /// Returns once every unit has resolved or the campaign is aborted,
    /// without waiting for busy workers: an idle worker exits then, a
    /// busy one when its attempt returns.
    ///
    /// # Panics
    ///
    /// Panics only if the OS refuses to spawn a worker thread.
    #[must_use]
    pub fn run(
        &self,
        units: &[CampaignUnit],
        sink: &dyn CampaignSink,
        abort: &AbortHandle,
    ) -> CampaignReport {
        let obs = self.harness.runner().observer().clone();
        let span = obs.span("campaign.run");
        // Warm the shared reference normalization outside any per-unit
        // deadline: it is campaign-global state, not one cell's work. A
        // failure is not fatal here -- each unit will surface it.
        let _ = self.harness.reference_set();

        let n = units.len();
        let started = Instant::now();
        let pool = Arc::new(Pool {
            harness: Arc::clone(&self.harness),
            units: units.into(),
            queue: Mutex::new(Queue {
                pending: (0..n).map(|unit| (unit, 1)).collect(),
                closed: false,
            }),
            wake: Condvar::new(),
        });
        let mut slots: Vec<Slot> = (0..n).map(|_| Slot::Dispatched { attempt: 1 }).collect();
        let mut attempts = vec![1u32; n];
        let mut misses = vec![0u32; n];
        let mut outcomes: Vec<Option<UnitOutcome>> = (0..n).map(|_| None).collect();
        // Units waiting out a backoff, and units resolved but not yet
        // offered to the sink.
        let mut backoff: Vec<usize> = Vec::new();
        let mut batch: Vec<usize> = Vec::new();
        let mut resolved = 0usize;
        let (tx, rx) = mpsc::channel::<Completion>();
        let mut workers: Vec<Arc<Worker>> =
            (0..self.jobs.min(n)).map(|k| spawn_worker(&pool, &tx, k)).collect();
        let mut spawned = workers.len();

        while resolved < n && !abort.is_aborted() {
            let now = Instant::now();
            let mut next_event: Option<Instant> = None;
            // Expire deadlines: retire the worker, start a fresh one in
            // its place, count the miss, and either schedule a
            // backoff-spaced retry or finalize.
            if self.max_cell_seconds.is_some() {
                for worker in &mut workers {
                    let mut state = worker.state();
                    let Some((dispatch, start)) = state.running else {
                        continue;
                    };
                    let due = start
                        + self.deadline_for(units[dispatch.unit].workload).expect("deadlines are armed");
                    if due > now {
                        next_event = earliest(next_event, due);
                        continue;
                    }
                    state.retired = true;
                    drop(state);
                    *worker = spawn_worker(&pool, &tx, spawned);
                    spawned += 1;
                    let i = dispatch.unit;
                    if !matches!(slots[i], Slot::Dispatched { attempt } if attempt == dispatch.attempt)
                    {
                        continue; // a straggler already resolved the unit
                    }
                    misses[i] += 1;
                    obs.counter("campaign.deadline_misses", 1);
                    if obs.enabled() {
                        obs.mark("campaign.deadline_miss", &units[i].key());
                    }
                    if attempts[i] < self.policy.max_attempts {
                        slots[i] = self.backoff(&units[i], attempts[i]);
                        backoff.push(i);
                    } else {
                        let deadline_s = self
                            .deadline_for(units[i].workload)
                            .map_or(0.0, |d| d.as_secs_f64());
                        slots[i] = Slot::Done;
                        outcomes[i] = Some(UnitOutcome::Failed {
                            error: MeasureError {
                                workload: Some(units[i].workload.name()),
                                config: units[i].config.label(),
                                kind: MeasureErrorKind::DeadlineExceeded { deadline_s },
                            },
                        });
                        resolved += 1;
                        batch.push(i);
                    }
                }
            }
            // Queue the units whose backoff has passed.
            let mut ready = Vec::new();
            backoff.retain(|&i| match slots[i] {
                Slot::Backoff { ready_at } if ready_at > now => {
                    next_event = earliest(next_event, ready_at);
                    true
                }
                Slot::Backoff { .. } => {
                    ready.push(i);
                    false
                }
                // A straggler resolved it while it waited.
                _ => false,
            });
            if !ready.is_empty() {
                let mut queue = pool.queue();
                for i in ready {
                    attempts[i] += 1;
                    let attempt = attempts[i];
                    slots[i] = Slot::Dispatched { attempt };
                    queue.pending.insert(i, attempt);
                }
                drop(queue);
                pool.wake.notify_all();
            }
            // Unless units already wait to be reported, sleep until the
            // next deadline, the next backoff expiry, or the next
            // completion -- whichever comes first. Then take every
            // completion waiting.
            let mut completions = Vec::new();
            if batch.is_empty() {
                let wait = next_event.map_or(MAX_WAIT, |t| {
                    t.saturating_duration_since(Instant::now()).min(MAX_WAIT)
                });
                completions.extend(rx.recv_timeout(wait).ok());
            }
            completions.extend(rx.try_iter());
            for done in completions {
                let i = done.unit;
                if matches!(slots[i], Slot::Done) {
                    continue; // a straggler reporting after resolution
                }
                let current =
                    matches!(slots[i], Slot::Dispatched { attempt } if attempt == done.attempt);
                let outcome = match done.outcome {
                    // A success is conclusive whether it came from the
                    // current worker or a retired straggler: the
                    // measurement is deterministic, so late data is
                    // still the data. A retry still queued behind busy
                    // workers is withdrawn: it never started.
                    Ok((evaluation, health)) => {
                        if !current && pool.queue().pending.remove(&i).is_some() {
                            attempts[i] -= 1;
                        }
                        UnitOutcome::Completed { evaluation, health }
                    }
                    // A stale failure: the unit is already on its
                    // recovery path (backoff wait or a fresh attempt).
                    Err(_) if !current => continue,
                    Err(error)
                        if error.kind.is_transient() && attempts[i] < self.policy.max_attempts =>
                    {
                        slots[i] = self.backoff(&units[i], attempts[i]);
                        backoff.push(i);
                        continue;
                    }
                    Err(error) => UnitOutcome::Failed { error },
                };
                slots[i] = Slot::Done;
                outcomes[i] = Some(outcome);
                resolved += 1;
                batch.push(i);
            }
            if !batch.is_empty() {
                let reports: Vec<UnitReport> = batch
                    .drain(..)
                    .map(|i| {
                        let outcome = outcomes[i].clone().expect("resolved before reporting");
                        unit_report(&units[i], attempts[i], misses[i], outcome)
                    })
                    .collect();
                sink.units_resolved(&reports);
                note_progress(&obs, &reports, started, resolved, n);
            }
        }
        span.end();
        // End the pool. Attempts still queued never started.
        let unstarted = {
            let mut queue = pool.queue();
            queue.closed = true;
            std::mem::take(&mut queue.pending)
        };
        pool.wake.notify_all();
        for unit in unstarted.into_keys() {
            attempts[unit] -= 1;
        }

        let aborted = resolved < n;
        let mut completed = 0;
        let mut failed = 0;
        let mut skipped = 0;
        let reports: Vec<UnitReport> = units
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let outcome = outcomes[i].take().unwrap_or(UnitOutcome::Skipped);
                match &outcome {
                    UnitOutcome::Completed { .. } => completed += 1,
                    UnitOutcome::Failed { .. } => failed += 1,
                    UnitOutcome::Skipped => skipped += 1,
                }
                unit_report(u, attempts[i], misses[i], outcome)
            })
            .collect();
        CampaignReport {
            retries: reports
                .iter()
                .map(|r| r.attempts.saturating_sub(1) as usize)
                .sum(),
            deadline_misses: reports.iter().map(|r| r.deadline_misses as usize).sum(),
            units: reports,
            aborted,
            completed,
            failed,
            skipped,
        }
    }

    /// The slot of a unit that failed transiently after `attempts`
    /// attempts: due again after its seeded backoff delay.
    fn backoff(&self, unit: &CampaignUnit, attempts: u32) -> Slot {
        let delay = self.policy.delay_s(&unit.key(), attempts);
        Slot::Backoff {
            ready_at: Instant::now() + Duration::from_secs_f64(delay),
        }
    }
}

/// Starts pool worker number `index`. The thread is detached, never
/// joined: a retired worker may be stuck for good, and [`Pool::work`]
/// contains every unit's panic.
fn spawn_worker(pool: &Arc<Pool>, done: &mpsc::Sender<Completion>, index: usize) -> Arc<Worker> {
    let worker = Arc::new(Worker::default());
    let (pool_ref, me, done) = (Arc::clone(pool), Arc::clone(&worker), done.clone());
    std::thread::Builder::new()
        .name(format!("campaign-worker-{index}"))
        .spawn(move || pool_ref.work(&me, &done))
        .expect("spawn campaign worker");
    pool.harness
        .runner()
        .observer()
        .counter("campaign.workers_spawned", 1);
    worker
}

/// The earlier of an optional instant and `t`.
fn earliest(current: Option<Instant>, t: Instant) -> Option<Instant> {
    Some(current.map_or(t, |c| c.min(t)))
}

/// One unit's resolution record.
fn unit_report(
    unit: &CampaignUnit,
    attempts: u32,
    deadline_misses: u32,
    outcome: UnitOutcome,
) -> UnitReport {
    UnitReport {
        config_label: unit.config.label(),
        workload: unit.workload.name(),
        attempts,
        deadline_misses,
        outcome,
    }
}

/// Reports a batch of resolutions to the observer's progress gauges.
#[allow(clippy::cast_precision_loss)]
fn note_progress(obs: &Obs, batch: &[UnitReport], started: Instant, resolved: usize, total: usize) {
    if !obs.enabled() {
        return;
    }
    obs.gauge("campaign.units_done", resolved as f64);
    obs.gauge("campaign.units_remaining", (total - resolved) as f64);
    let eta = started.elapsed().as_secs_f64() / resolved as f64 * (total - resolved) as f64;
    obs.gauge("campaign.eta_seconds", eta);
    for unit in batch {
        if matches!(unit.outcome, UnitOutcome::Failed { .. }) {
            obs.mark(
                "campaign.unit_failed",
                &format!("{} / {}", unit.config_label, unit.workload),
            );
        }
    }
}

/// Expands a configuration-major grid (`configs x workloads`) into
/// campaign units -- the order [`CampaignReport::sweep_health`] expects.
#[must_use]
pub fn grid_units(configs: &[ChipConfig], workloads: &[&'static Workload]) -> Vec<CampaignUnit> {
    configs
        .iter()
        .flat_map(|c| {
            workloads.iter().map(move |w| CampaignUnit {
                config: c.clone(),
                workload: w,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Runner;
    use crate::sink::CellSink;
    use lhr_obs::MemoryRecorder;
    use lhr_sensors::faults::{FaultPlan, Stall};
    use lhr_uarch::ProcessorId;
    use parking_lot::Mutex;

    /// A cell sink that logs which thread resolved each unit.
    #[derive(Debug, Default)]
    struct ThreadLog {
        /// `(config label, thread id, thread name)` per resolved unit.
        units: std::sync::Mutex<Vec<(String, std::thread::ThreadId, String)>>,
        arrived: Condvar,
        /// Hold each thread's first unit until this many threads have
        /// arrived (0: never hold).
        hold_until: usize,
    }

    /// The distinct threads in a log.
    fn threads(units: &[(String, std::thread::ThreadId, String)]) -> Vec<std::thread::ThreadId> {
        let mut ids: Vec<_> = units.iter().map(|u| u.1).collect();
        ids.sort_unstable_by_key(|id| format!("{id:?}"));
        ids.dedup();
        ids
    }

    impl CellSink for ThreadLog {
        fn record_cell(&self, config: &ChipConfig, _: &[Evaluation]) {
            let me = std::thread::current();
            let mut units = self.units.lock().unwrap();
            let first = !units.iter().any(|u| u.1 == me.id());
            units.push((config.label(), me.id(), me.name().unwrap_or("").to_owned()));
            self.arrived.notify_all();
            if first && self.hold_until > 0 {
                let _ = self
                    .arrived
                    .wait_timeout_while(units, Duration::from_secs(60), |units| {
                        threads(units).len() < self.hold_until
                    })
                    .unwrap();
            }
        }
    }

    fn quick_harness() -> Arc<Harness> {
        Arc::new(Harness::quick())
    }

    fn small_grid(harness: &Harness) -> Vec<CampaignUnit> {
        let configs = [
            ChipConfig::stock(ProcessorId::Atom230.spec()),
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
        ];
        grid_units(&configs, harness.workloads())
    }

    #[test]
    fn backoff_envelope_doubles_then_saturates() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_s: 0.1,
            max_delay_s: 1.0,
            seed: 7,
        };
        assert!((p.envelope_s(1) - 0.1).abs() < 1e-12);
        assert!((p.envelope_s(2) - 0.2).abs() < 1e-12);
        assert!((p.envelope_s(4) - 0.8).abs() < 1e-12);
        assert!((p.envelope_s(5) - 1.0).abs() < 1e-12);
        assert!((p.envelope_s(40) - 1.0).abs() < 1e-12, "saturates, never overflows");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..6 {
            let a = p.delay_s("i7 (45) / mcf", attempt);
            let b = p.delay_s("i7 (45) / mcf", attempt);
            assert!((a - b).abs() < 1e-15, "same inputs, same delay");
            let env = p.envelope_s(attempt);
            assert!(a >= 0.5 * env - 1e-12 && a <= env + 1e-12, "{a} vs envelope {env}");
        }
        // Different cells draw different jitter.
        assert_ne!(p.delay_s("a", 1).to_bits(), p.delay_s("b", 1).to_bits());
    }

    #[test]
    fn clean_campaign_matches_the_unsupervised_sweep() {
        let harness = quick_harness();
        let units = small_grid(&harness);
        let supervisor = Supervisor::new(Arc::clone(&harness));
        let report = supervisor.run(&units, &(), &AbortHandle::new());
        assert!(!report.aborted);
        assert_eq!(report.completed, units.len());
        assert_eq!(report.failed + report.skipped + report.deadline_misses, 0);
        let health = report.sweep_health();
        assert_eq!(health.cells_total, 2);
        assert!(health.is_clean(), "{}", health.render());

        // The same grid through the plain sweep produces identical
        // evaluations: supervision is pure scheduling.
        let fresh = Harness::quick();
        let configs = [
            ChipConfig::stock(ProcessorId::Atom230.spec()),
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
        ];
        let sweep = fresh.sweep(&configs);
        for (cell_idx, cell) in sweep.cells.iter().enumerate() {
            for (w_idx, expected) in cell.evaluations.iter().enumerate() {
                let unit = &report.units[cell_idx * fresh.workloads().len() + w_idx];
                assert_eq!(
                    unit.evaluation().expect("completed"),
                    expected.as_ref().expect("clean sweep"),
                );
            }
        }
    }

    #[test]
    fn sink_sees_every_unit_exactly_once_and_abort_skips_the_rest() {
        struct CountingSink {
            seen: Mutex<Vec<String>>,
            abort_after: usize,
            abort: AbortHandle,
        }
        impl CampaignSink for CountingSink {
            fn units_resolved(&self, units: &[UnitReport]) {
                let mut seen = self.seen.lock();
                for unit in units {
                    seen.push(format!("{} / {}", unit.config_label, unit.workload));
                    if seen.len() >= self.abort_after {
                        self.abort.abort();
                    }
                }
            }
        }
        /// Holds every cell after the first `free` until the campaign
        /// is aborted: the workers run ahead of the scheduling thread,
        /// so without it the whole grid may finish in the first batch.
        #[derive(Debug)]
        struct HoldAfter {
            free: usize,
            recorded: std::sync::atomic::AtomicUsize,
            abort: AbortHandle,
        }
        impl CellSink for HoldAfter {
            fn record_cell(&self, _: &ChipConfig, _: &[Evaluation]) {
                if self.recorded.fetch_add(1, Ordering::Relaxed) >= self.free {
                    let give_up = Instant::now() + Duration::from_secs(10);
                    while !self.abort.is_aborted() && Instant::now() < give_up {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        let abort = AbortHandle::new();
        let harness = Arc::new(Harness::quick().with_cell_sink(Arc::new(HoldAfter {
            free: 5,
            recorded: 0.into(),
            abort: abort.clone(),
        })));
        let units = small_grid(&harness);
        let sink = CountingSink {
            seen: Mutex::new(Vec::new()),
            abort_after: 5,
            abort: abort.clone(),
        };
        let supervisor = Supervisor::new(Arc::clone(&harness)).with_jobs(2);
        let report = supervisor.run(&units, &sink, &abort);
        assert!(report.aborted);
        assert!(report.skipped > 0, "abort must leave unfinished units");
        assert_eq!(report.completed + report.skipped, units.len());
        let seen = sink.seen.lock();
        assert_eq!(seen.len(), report.completed, "sink saw each resolved unit once");
        // No duplicates.
        let mut unique = seen.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), seen.len());
    }

    #[test]
    fn permanently_wedged_rig_degrades_to_deadline_failure_without_abort() {
        // The i7's logger wedges for 60 s on every run; the watchdog
        // must contain it while the other machine's cells complete.
        let plan = FaultPlan::new(3).with_stall(Stall::permanent(60.0));
        let runner = Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, plan);
        let names = ["hmmer", "db"];
        let ws: Vec<&'static Workload> = names
            .iter()
            .map(|n| lhr_workloads::by_name(n).expect("subset exists"))
            .collect();
        let harness = Arc::new(Harness::new(runner).with_workloads(ws));
        let configs = [
            ChipConfig::stock(ProcessorId::Atom230.spec()),
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
        ];
        let units = grid_units(&configs, harness.workloads());
        let supervisor = Supervisor::new(Arc::clone(&harness))
            .with_max_cell_seconds(0.3)
            .with_policy(RetryPolicy {
                max_attempts: 2,
                base_delay_s: 0.02,
                max_delay_s: 0.1,
                seed: 1,
            });
        let report = supervisor.run(&units, &(), &AbortHandle::new());
        assert!(!report.aborted, "the watchdog contains, never aborts");
        assert_eq!(report.completed, 2, "Atom cells complete");
        assert_eq!(report.failed, 2, "both wedged i7 units fail");
        assert!(report.deadline_misses >= 2);
        for unit in report.units.iter().filter(|u| u.config_label.contains("i7")) {
            match &unit.outcome {
                UnitOutcome::Failed { error } => {
                    assert!(matches!(
                        error.kind,
                        MeasureErrorKind::DeadlineExceeded { .. }
                    ));
                }
                other => panic!("wedged unit must fail on deadline, got {other:?}"),
            }
            assert_eq!(unit.attempts, 2, "the retry budget was spent");
            assert!(unit.deadline_misses >= 1);
        }
        let health = report.sweep_health();
        assert_eq!(health.cells_total, 2);
        assert_eq!(health.cells_degraded, 1);
        assert!(health.deadline_misses >= 2);
        assert!(health.render().contains("deadline misses"), "{}", health.render());
    }

    #[test]
    fn transiently_wedged_rig_heals_within_the_retry_budget() {
        // The first rig run stalls for 1.2 s; the watchdog abandons the
        // worker at 0.4 s, the straggler's (correct, deterministic)
        // result is accepted late or a retry cache-hits -- either way
        // the unit completes, degraded but whole.
        let plan = FaultPlan::new(3).with_stall(Stall::transient(1, 1.2));
        let runner = Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, plan);
        let ws = vec![lhr_workloads::by_name("hmmer").expect("exists")];
        let harness = Arc::new(Harness::new(runner).with_workloads(ws));
        let configs = [ChipConfig::stock(ProcessorId::CoreI7_920.spec())];
        let units = grid_units(&configs, harness.workloads());
        let supervisor = Supervisor::new(Arc::clone(&harness))
            .with_max_cell_seconds(0.6)
            .with_policy(RetryPolicy {
                max_attempts: 4,
                base_delay_s: 0.02,
                max_delay_s: 0.1,
                seed: 1,
            });
        let report = supervisor.run(&units, &(), &AbortHandle::new());
        assert_eq!(report.completed, 1, "the transient wedge heals");
        assert!(report.deadline_misses >= 1, "but the miss was recorded");
        let health = report.sweep_health();
        assert_eq!(health.cells_degraded, 1, "healed is still degraded");

        // The healed evaluation is bit-identical to an unwedged run.
        let clean = Harness::new(Runner::fast())
            .with_workloads(vec![lhr_workloads::by_name("hmmer").expect("exists")]);
        let (expected, _) = clean
            .try_evaluate_workload(
                &ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
                lhr_workloads::by_name("hmmer").expect("exists"),
            )
            .expect("clean run");
        assert_eq!(report.units[0].evaluation().expect("completed"), &expected);
    }

    #[test]
    fn the_pool_runs_every_unit_on_exactly_jobs_workers() {
        // Each worker's first unit waits in the sink until both workers
        // have arrived, so both provably take units.
        let log = Arc::new(ThreadLog {
            hold_until: 2,
            ..ThreadLog::default()
        });
        let memory = Arc::new(MemoryRecorder::default());
        let harness = Arc::new(
            Harness::quick()
                .with_observer(Obs::recording(memory.clone()))
                .with_cell_sink(log.clone()),
        );
        let units = small_grid(&harness);
        let report = Supervisor::new(Arc::clone(&harness)).with_jobs(2).run(
            &units,
            &(),
            &AbortHandle::new(),
        );
        assert_eq!(report.completed, units.len());
        assert_eq!(log.units.lock().unwrap().len(), units.len());
        let threads = threads(&log.units.lock().unwrap());
        assert_eq!(threads.len(), 2, "every unit ran on one of two workers");
        assert!(!threads.contains(&std::thread::current().id()));
        assert_eq!(memory.snapshot().counter("campaign.workers_spawned"), 2);
    }

    #[test]
    fn a_fresh_worker_takes_a_retired_workers_place() {
        // One worker; the i7 comes first and its logger wedges for good,
        // so the first worker is retired on the first i7 unit and only
        // replacements are left to measure the Atom.
        let plan = FaultPlan::new(3).with_stall(Stall::permanent(60.0));
        let memory = Arc::new(MemoryRecorder::default());
        let runner = Runner::fast()
            .with_fault_plan(ProcessorId::CoreI7_920, plan)
            .with_observer(Obs::recording(memory.clone()));
        let ws: Vec<&'static Workload> = ["hmmer", "db"]
            .iter()
            .map(|n| lhr_workloads::by_name(n).expect("subset exists"))
            .collect();
        let log = Arc::new(ThreadLog::default());
        let harness = Arc::new(
            Harness::new(runner)
                .with_workloads(ws)
                .with_cell_sink(log.clone()),
        );
        let configs = [
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
            ChipConfig::stock(ProcessorId::Atom230.spec()),
        ];
        let units = grid_units(&configs, harness.workloads());
        let report = Supervisor::new(Arc::clone(&harness))
            .with_jobs(1)
            .with_max_cell_seconds(0.3)
            .with_policy(RetryPolicy {
                max_attempts: 2,
                base_delay_s: 0.02,
                max_delay_s: 0.1,
                seed: 1,
            })
            .run(&units, &(), &AbortHandle::new());
        assert_eq!(report.completed, 2, "the Atom units complete");
        assert_eq!(report.failed, 2, "the wedged i7 units fail");
        let atom: Vec<_> = log
            .units
            .lock()
            .unwrap()
            .iter()
            .filter(|u| u.0.contains("Atom"))
            .map(|u| u.2.clone())
            .collect();
        assert_eq!(atom.len(), 2);
        for name in &atom {
            assert!(
                name.starts_with("campaign-worker-") && name != "campaign-worker-0",
                "an Atom unit ran on {name:?}, not on a replacement"
            );
        }
        assert!(report.deadline_misses >= 2);
        assert_eq!(
            memory.snapshot().counter("campaign.workers_spawned"),
            1 + report.deadline_misses as u64,
            "one worker, plus one per abandonment"
        );
    }

    #[test]
    fn a_straggler_success_withdraws_its_queued_retry() {
        // One worker. The i7's first rig run hangs past its deadline, so
        // the worker is retired and the unit's retry is queued; the
        // replacement is held on the Atom unit until the i7 unit
        // resolves, so that retry still waits in the queue when the
        // straggler's success comes home. It never starts, and neither
        // the journal nor the report may count it.
        #[derive(Debug, Default)]
        struct Gate {
            open: std::sync::Mutex<bool>,
            opened: Condvar,
        }
        #[derive(Debug)]
        struct HoldAtom(Arc<Gate>);
        impl CellSink for HoldAtom {
            fn record_cell(&self, config: &ChipConfig, _: &[Evaluation]) {
                if config.label().contains("Atom") {
                    let open = self.0.open.lock().unwrap();
                    let _ = self
                        .0
                        .opened
                        .wait_timeout_while(open, Duration::from_secs(10), |open| !*open)
                        .unwrap();
                }
            }
        }
        struct Journal {
            gate: Arc<Gate>,
            lines: Mutex<Vec<(String, u32)>>,
        }
        impl CampaignSink for Journal {
            fn units_resolved(&self, units: &[UnitReport]) {
                for unit in units {
                    let key = format!("{} / {}", unit.config_label, unit.workload);
                    self.lines.lock().push((key, unit.attempts));
                    if unit.config_label.contains("i7") {
                        *self.gate.open.lock().unwrap() = true;
                        self.gate.opened.notify_all();
                    }
                }
            }
        }
        let plan = FaultPlan::new(3).with_stall(Stall::transient(1, 0.9));
        let memory = Arc::new(MemoryRecorder::default());
        let runner = Runner::fast()
            .with_fault_plan(ProcessorId::CoreI7_920, plan)
            .with_observer(Obs::recording(memory.clone()));
        let gate = Arc::new(Gate::default());
        let hmmer = lhr_workloads::by_name("hmmer").expect("exists");
        let harness = Arc::new(
            Harness::new(runner)
                .with_workloads(vec![hmmer])
                .with_cell_sink(Arc::new(HoldAtom(Arc::clone(&gate)))),
        );
        let configs = [
            ChipConfig::stock(ProcessorId::CoreI7_920.spec()),
            ChipConfig::stock(ProcessorId::Atom230.spec()),
        ];
        let units = grid_units(&configs, harness.workloads());
        let journal = Journal {
            gate,
            lines: Mutex::new(Vec::new()),
        };
        // Deadlines of 0.6 s (2 invocations): the i7 misses its own, and
        // the Atom unit, held from then until the straggler returns at
        // 0.9 s, makes its own.
        let report = Supervisor::new(Arc::clone(&harness))
            .with_jobs(1)
            .with_max_cell_seconds(0.9)
            .with_policy(RetryPolicy {
                max_attempts: 3,
                base_delay_s: 0.1,
                max_delay_s: 0.1,
                seed: 1,
            })
            .run(&units, &journal, &AbortHandle::new());
        assert_eq!(report.completed, 2);
        assert_eq!(report.units[0].deadline_misses, 1, "the i7 missed its deadline");
        assert_eq!(report.units[1].deadline_misses, 0, "the held Atom did not");
        let mut reported: Vec<(String, u32)> = report
            .units
            .iter()
            .map(|u| (format!("{} / {}", u.config_label, u.workload), u.attempts))
            .collect();
        reported.sort();
        let mut journaled = journal.lines.lock().clone();
        journaled.sort();
        assert_eq!(journaled, reported, "the journal and the report agree");
        assert_eq!(report.units[0].attempts, 1, "the queued retry never started");
        assert_eq!(report.retries, 0);
        assert_eq!(
            memory.snapshot().counter("campaign.retries"),
            0,
            "no worker started a retry"
        );
    }
}
