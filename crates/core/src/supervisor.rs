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
//! through [`Harness::try_evaluate_workload`] on detached worker
//! threads, multiplexing completions over a channel:
//!
//! * **Watchdog deadlines.** Each unit gets a soft deadline scaled from
//!   the runner's prescribed invocation count (a 20-invocation Java cell
//!   earns more wall-clock than a 3-invocation SPEC cell). A worker that
//!   misses its deadline is *abandoned, never aborted*: the supervisor
//!   stops waiting, but if the straggler finishes later its result is
//!   still accepted ("stale-result acceptance") -- measurements are
//!   deterministic, so a late answer is exactly as good as a prompt one.
//! * **Backoff retry.** Transient failures (deadline misses, contained
//!   worker panics) earn a re-run after a bounded, exponentially growing
//!   delay with deterministic seeded jitter ([`RetryPolicy`]).
//!   Permanent failures (rig setup, terminal sensor faults, an
//!   exhausted in-runner retry budget) finalize immediately -- the
//!   runner already spent its second chances, and looping on a dead rig
//!   is how campaigns lose nights.
//! * **Degradation, not abortion.** A unit that exhausts its attempts is
//!   recorded as failed in its [`UnitReport`] and the campaign
//!   continues; nothing panics, nothing exits.
//! * **Checkpoint sink.** Every resolved unit is offered to a
//!   [`CampaignSink`] in resolution order -- the hook a write-ahead
//!   journal attaches to.
//! * **Cooperative abort.** An [`AbortHandle`] stops the campaign at the
//!   next scheduling point, marking unfinished units
//!   [`UnitOutcome::Skipped`]. Combined with a journal, this is the
//!   crash half of a kill-and-resume test.
//!
//! Everything here is off the measurement path: a harness driven by a
//! supervisor produces bit-for-bit the numbers it would produce alone,
//! because thread count, deadlines, and retries only decide *when* a
//! deterministic measurement runs, never what it returns.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A checkpoint consumer: called for every resolved unit, in resolution
/// order, from the supervisor's scheduling thread. This is where a
/// write-ahead journal hooks in.
pub trait CampaignSink: Send + Sync {
    /// Consumes one resolved unit.
    fn unit_resolved(&self, unit: &UnitReport);
}

/// The do-nothing sink.
impl CampaignSink for () {
    fn unit_resolved(&self, _: &UnitReport) {}
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

/// What one worker thread sends home.
struct Completion {
    unit: usize,
    token: u64,
    outcome: Result<(Evaluation, MeasureHealth), MeasureError>,
}

/// Scheduling state of one unit.
enum Slot {
    /// Waiting to (re)start once `ready_at` passes.
    Waiting { ready_at: Instant },
    /// A worker is (or was, if abandoned elsewhere) running.
    Running { token: u64, deadline: Option<Instant> },
    /// Resolved for good.
    Done,
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

    /// Caps concurrent worker threads.
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
        let now = Instant::now();
        let mut slots: Vec<Slot> = (0..n).map(|_| Slot::Waiting { ready_at: now }).collect();
        let mut attempts = vec![0u32; n];
        let mut misses = vec![0u32; n];
        let mut outcomes: Vec<Option<UnitOutcome>> = (0..n).map(|_| None).collect();
        // `token_unit` routes every completion, including a straggler's;
        // `active` holds only the tokens currently counted in `running`
        // (a token leaves it when its worker is abandoned or reports in,
        // whichever happens first).
        let mut token_unit: HashMap<u64, usize> = HashMap::new();
        let mut active: HashSet<u64> = HashSet::new();
        let mut next_token: u64 = 0;
        let mut running = 0usize;
        let mut resolved = 0usize;
        let (tx, rx) = mpsc::channel::<Completion>();

        while resolved < n && !abort.is_aborted() {
            let now = Instant::now();
            // Expire deadlines: abandon the worker, count the miss, and
            // either schedule a backoff-spaced retry or finalize.
            for i in 0..n {
                let Slot::Running {
                    token,
                    deadline: Some(d),
                } = &slots[i]
                else {
                    continue;
                };
                let (token, d) = (*token, *d);
                if d > now {
                    continue;
                }
                if active.remove(&token) {
                    running -= 1;
                }
                misses[i] += 1;
                obs.counter("campaign.deadline_misses", 1);
                if obs.enabled() {
                    obs.mark("campaign.deadline_miss", &units[i].key());
                }
                if attempts[i] < self.policy.max_attempts {
                    let delay = self.policy.delay_s(&units[i].key(), attempts[i]);
                    slots[i] = Slot::Waiting {
                        ready_at: now + Duration::from_secs_f64(delay),
                    };
                } else {
                    let deadline_s = self
                        .deadline_for(units[i].workload)
                        .map_or(0.0, |d| d.as_secs_f64());
                    let outcome = UnitOutcome::Failed {
                        error: MeasureError {
                            workload: Some(units[i].workload.name()),
                            config: units[i].config.label(),
                            kind: MeasureErrorKind::DeadlineExceeded { deadline_s },
                        },
                    };
                    Self::resolve(i, outcome, &mut slots, &mut outcomes, &mut resolved);
                    self.note_progress(&obs, units, &attempts, &misses, &outcomes, i, sink, started, resolved, n);
                }
            }
            // Start ready units while worker slots are free.
            while running < self.jobs {
                let now = Instant::now();
                let Some(i) = slots.iter().position(
                    |s| matches!(s, Slot::Waiting { ready_at } if *ready_at <= now),
                ) else {
                    break;
                };
                attempts[i] += 1;
                if attempts[i] > 1 {
                    obs.counter("campaign.retries", 1);
                }
                let token = next_token;
                next_token += 1;
                token_unit.insert(token, i);
                active.insert(token);
                slots[i] = Slot::Running {
                    token,
                    deadline: self.deadline_for(units[i].workload).map(|d| now + d),
                };
                running += 1;
                let harness = Arc::clone(&self.harness);
                let config = units[i].config.clone();
                let workload = units[i].workload;
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("campaign-{i}"))
                    .spawn(move || {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            harness.try_evaluate_workload(&config, workload)
                        }))
                        .unwrap_or_else(|panic| {
                            Err(MeasureError {
                                workload: Some(workload.name()),
                                config: config.label(),
                                kind: MeasureErrorKind::WorkerPanic(panic_message(&panic)),
                            })
                        });
                        // The receiver may be gone after an abort; a
                        // failed send is a result nobody wants.
                        let _ = tx.send(Completion {
                            unit: i,
                            token,
                            outcome,
                        });
                    })
                    .expect("spawn campaign worker");
            }
            // Sleep until the next deadline, the next backoff expiry, or
            // the next completion -- whichever comes first.
            let now = Instant::now();
            let next_event = slots
                .iter()
                .filter_map(|s| match s {
                    Slot::Waiting { ready_at } => Some(*ready_at),
                    Slot::Running {
                        deadline: Some(d), ..
                    } => Some(*d),
                    _ => None,
                })
                .min();
            let wait = match next_event {
                Some(t) => {
                    let until = t.saturating_duration_since(now);
                    if until.is_zero() {
                        // A unit is ready but every worker slot is busy:
                        // only a completion can free one, so wait for it.
                        MAX_WAIT
                    } else {
                        until.min(MAX_WAIT)
                    }
                }
                None => MAX_WAIT,
            };
            let Ok(done) = rx.recv_timeout(wait) else {
                continue; // timeout: re-check deadlines and ready queues
            };
            // Route the completion to its unit -- current or abandoned.
            let Some(i) = token_unit.remove(&done.token) else {
                continue;
            };
            debug_assert_eq!(i, done.unit);
            if active.remove(&done.token) {
                running -= 1;
            }
            if matches!(slots[i], Slot::Done) {
                continue; // straggler reporting after resolution
            }
            let current =
                matches!(&slots[i], Slot::Running { token, .. } if *token == done.token);
            let outcome = match done.outcome {
                // A success is conclusive whether it came from the
                // current worker or an abandoned straggler: the
                // measurement is deterministic, so late data is still
                // the data.
                Ok((evaluation, health)) => UnitOutcome::Completed { evaluation, health },
                Err(_) if !current => {
                    // A stale failure: the unit is already on its
                    // recovery path (backoff wait or a fresh worker).
                    continue;
                }
                Err(error) => {
                    if error.kind.is_transient() && attempts[i] < self.policy.max_attempts {
                        let delay = self.policy.delay_s(&units[i].key(), attempts[i]);
                        slots[i] = Slot::Waiting {
                            ready_at: Instant::now() + Duration::from_secs_f64(delay),
                        };
                        continue;
                    }
                    UnitOutcome::Failed { error }
                }
            };
            Self::resolve(i, outcome, &mut slots, &mut outcomes, &mut resolved);
            self.note_progress(&obs, units, &attempts, &misses, &outcomes, i, sink, started, resolved, n);
        }
        span.end();

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
                UnitReport {
                    config_label: u.config.label(),
                    workload: u.workload.name(),
                    attempts: attempts[i],
                    deadline_misses: misses[i],
                    outcome,
                }
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

    /// Finalizes unit `i` with `outcome`.
    fn resolve(
        i: usize,
        outcome: UnitOutcome,
        slots: &mut [Slot],
        outcomes: &mut [Option<UnitOutcome>],
        resolved: &mut usize,
    ) {
        slots[i] = Slot::Done;
        outcomes[i] = Some(outcome);
        *resolved += 1;
    }

    /// Reports unit `i`'s resolution to the sink and the observer's
    /// progress gauges.
    #[allow(clippy::too_many_arguments)]
    fn note_progress(
        &self,
        obs: &lhr_obs::Obs,
        units: &[CampaignUnit],
        attempts: &[u32],
        misses: &[u32],
        outcomes: &[Option<UnitOutcome>],
        i: usize,
        sink: &dyn CampaignSink,
        started: Instant,
        resolved: usize,
        total: usize,
    ) {
        let report = UnitReport {
            config_label: units[i].config.label(),
            workload: units[i].workload.name(),
            attempts: attempts[i],
            deadline_misses: misses[i],
            outcome: outcomes[i].clone().expect("resolved before reporting"),
        };
        sink.unit_resolved(&report);
        if obs.enabled() {
            #[allow(clippy::cast_precision_loss)]
            {
                obs.gauge("campaign.units_done", resolved as f64);
                obs.gauge("campaign.units_remaining", (total - resolved) as f64);
                let eta = started.elapsed().as_secs_f64() / resolved as f64
                    * (total - resolved) as f64;
                obs.gauge("campaign.eta_seconds", eta);
            }
            if matches!(report.outcome, UnitOutcome::Failed { .. }) {
                obs.mark("campaign.unit_failed", &units[i].key());
            }
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
    use lhr_sensors::faults::{FaultPlan, Stall};
    use lhr_uarch::ProcessorId;
    use parking_lot::Mutex;

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
            fn unit_resolved(&self, unit: &UnitReport) {
                let mut seen = self.seen.lock();
                seen.push(format!("{} / {}", unit.config_label, unit.workload));
                if seen.len() >= self.abort_after {
                    self.abort.abort();
                }
            }
        }
        let harness = quick_harness();
        let units = small_grid(&harness);
        let abort = AbortHandle::new();
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
}
