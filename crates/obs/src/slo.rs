//! SLO burn-rate tracking: multi-window error-budget burn with a
//! hysteresis alert state machine, the standard shape of production
//! availability/latency alerting (fast window catches sudden burn, slow
//! window confirms it is sustained; two thresholds stop the alert from
//! flapping at the boundary).
//!
//! # Model
//!
//! An objective says "at least `target` of requests are good" (e.g.
//! 99.5% available, or 99% under the latency threshold). The error
//! budget is `1 - target`. Over a window, the **burn rate** is
//!
//! ```text
//! burn = bad_fraction / (1 - target)
//! ```
//!
//! so `burn == 1.0` means the budget is being spent exactly as fast as
//! the objective allows; `burn == 10` means ten times too fast. The
//! tracker keeps a per-second ring of `(total, errors, slow)` counts and
//! computes burn over a short and a long window. The alert **fires**
//! when *both* windows burn at or above `fire_threshold` (the classic
//! multi-window guard: short-window spikes alone don't page) and
//! **clears** only when both fall below `clear_threshold`
//! (`clear < fire` is the hysteresis gap).
//!
//! An observation costs O(1), not a scan of both windows: beside the
//! ring the tracker keeps the two window sums as of the last second
//! observed, minus that second's own cell. Later observations in that
//! second add the cell back; the first observation in any other second
//! (a new second, or an older one when two workers straddle a second
//! boundary) rescans once and keeps that second's sums instead. Every
//! observation therefore steps the alert state machine with exactly
//! the burns [`SloTracker::status_at`], which always scans, reports for
//! its second; the scan is the oracle the kept sums are tested against.
//!
//! Transitions are reported through an optional [`crate::Obs`] as
//! `slo.alert.fired` / `slo.alert.cleared` counters with a mark carrying
//! the burn numbers, so the event stream records exactly when and why
//! the server's health flipped.

use std::sync::Mutex;
use std::time::Instant;

use crate::recorder::Obs;

/// Objectives and alert thresholds for a [`SloTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Availability objective: the fraction of requests that must not be
    /// server errors (e.g. `0.995`).
    pub availability_target: f64,
    /// Latency objective: the fraction of requests that must finish
    /// under [`SloConfig::latency_threshold_seconds`] (e.g. `0.99`).
    pub latency_target: f64,
    /// The latency cut-off in seconds defining a "slow" request.
    pub latency_threshold_seconds: f64,
    /// Short burn window in seconds (default 300 = 5m).
    pub short_window_seconds: u32,
    /// Long burn window in seconds (default 3600 = 1h).
    pub long_window_seconds: u32,
    /// Both windows must burn at or above this to fire (default 2.0).
    pub fire_threshold: f64,
    /// Both windows must burn below this to clear (default 1.0).
    pub clear_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            availability_target: 0.995,
            latency_target: 0.99,
            latency_threshold_seconds: 2.0,
            short_window_seconds: 300,
            long_window_seconds: 3600,
            fire_threshold: 2.0,
            clear_threshold: 1.0,
        }
    }
}

/// The alert state machine's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Burn is within budget (or has fallen back below the clear
    /// threshold).
    Ok,
    /// Both windows burned past the fire threshold and the alert has not
    /// yet cleared.
    Firing,
}

/// One second of request outcomes.
#[derive(Debug, Clone, Copy, Default)]
struct SecondCell {
    /// Seconds since the tracker's epoch; `u64::MAX` = vacant.
    index: u64,
    counts: Counts,
}

/// Request outcomes summed over some seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    total: u64,
    errors: u64,
    slow: u64,
}

impl Counts {
    fn plus(self, other: Counts) -> Counts {
        Counts {
            total: self.total + other.total,
            errors: self.errors + other.errors,
            slow: self.slow + other.slow,
        }
    }

    fn minus(self, other: Counts) -> Counts {
        Counts {
            total: self.total - other.total,
            errors: self.errors - other.errors,
            slow: self.slow - other.slow,
        }
    }
}

/// The short and long window sums ending at `second`, without that
/// second's own cell: what every later observation in `second` adds its
/// cell to.
#[derive(Debug, Clone, Copy)]
struct KeptSums {
    second: u64,
    short: Counts,
    long: Counts,
}

/// Burn rates over one objective, per window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BurnRates {
    /// Burn over the short window.
    pub short: f64,
    /// Burn over the long window.
    pub long: f64,
}

/// A point-in-time report from [`SloTracker::status`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// Availability burn (errors against the availability budget).
    pub availability: BurnRates,
    /// Latency burn (slow requests against the latency budget).
    pub latency: BurnRates,
    /// Requests seen in the long window.
    pub total_long: u64,
    /// Where the alert state machine stands.
    pub state: AlertState,
}

impl SloStatus {
    /// The worst burn across both objectives and windows -- the single
    /// number a dashboard sorts by.
    #[must_use]
    pub fn worst_burn(&self) -> f64 {
        self.availability
            .short
            .max(self.availability.long)
            .max(self.latency.short)
            .max(self.latency.long)
    }
}

#[derive(Debug)]
struct SloState {
    ring: Vec<SecondCell>,
    state: AlertState,
    /// Valid while no cell but `kept.second`'s changes: any observation
    /// in another second replaces it.
    kept: Option<KeptSums>,
}

/// Multi-window burn-rate tracker; see the module docs.
#[derive(Debug)]
pub struct SloTracker {
    config: SloConfig,
    epoch: Instant,
    state: Mutex<SloState>,
}

impl SloTracker {
    /// A tracker with the given objectives; the clock starts now.
    ///
    /// # Panics
    ///
    /// Panics if the windows are zero, `short > long`, or
    /// `clear_threshold > fire_threshold` -- all configuration bugs
    /// worth failing loudly on at startup.
    #[must_use]
    pub fn new(config: SloConfig) -> Self {
        assert!(config.short_window_seconds > 0, "short window must be > 0");
        assert!(
            config.short_window_seconds <= config.long_window_seconds,
            "short window must not exceed the long window"
        );
        assert!(
            config.clear_threshold <= config.fire_threshold,
            "hysteresis requires clear <= fire"
        );
        let cells = config.long_window_seconds as usize;
        Self {
            config,
            epoch: Instant::now(),
            state: Mutex::new(SloState {
                ring: vec![
                    SecondCell {
                        index: u64::MAX,
                        ..SecondCell::default()
                    };
                    cells
                ],
                state: AlertState::Ok,
                kept: None,
            }),
        }
    }

    /// The configured objectives.
    #[must_use]
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    fn now_second(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Records one finished request: whether it was a server error, and
    /// how long it took. Emits alert-transition events through `obs`
    /// when the observation flips the state machine.
    pub fn observe(&self, is_error: bool, latency_seconds: f64, obs: &Obs) {
        self.observe_at(self.now_second(), is_error, latency_seconds, obs);
    }

    /// Test seam: [`SloTracker::observe`] at an explicit second.
    ///
    /// Returns the status the observation left: the burns it stepped the
    /// alert state machine with and the state it moved to, which is what
    /// [`SloTracker::status_at`] reports for `second` right after. `None`
    /// if the lock was poisoned and the observation dropped.
    pub fn observe_at(
        &self,
        second: u64,
        is_error: bool,
        latency_seconds: f64,
        obs: &Obs,
    ) -> Option<SloStatus> {
        self.observe_with(second, is_error, latency_seconds, obs, Self::kept_sums)
    }

    /// Records one observation in the ring, then steps the state machine
    /// with the window sums `sums` gives for `second` (the cell already
    /// counted).
    fn observe_with(
        &self,
        second: u64,
        is_error: bool,
        latency_seconds: f64,
        obs: &Obs,
        sums: impl FnOnce(&SloConfig, &mut SloState, u64, Counts) -> (Counts, Counts),
    ) -> Option<SloStatus> {
        let slow = latency_seconds > self.config.latency_threshold_seconds;
        let (status, transition) = {
            let Ok(mut state) = self.state.lock() else {
                return None;
            };
            let len = state.ring.len() as u64;
            #[allow(clippy::cast_possible_truncation)]
            let at = (second % len) as usize;
            let cell = &mut state.ring[at];
            if cell.index != second {
                *cell = SecondCell {
                    index: second,
                    ..SecondCell::default()
                };
            }
            cell.counts = cell.counts.plus(Counts {
                total: 1,
                errors: u64::from(is_error),
                slow: u64::from(slow),
            });
            let cell = cell.counts;
            let (short, long) = sums(&self.config, &mut state, second, cell);
            let status = Self::status_of(&self.config, short, long, state.state);
            let transition = Self::step_locked(&self.config, &mut state, &status);
            (
                SloStatus {
                    state: state.state,
                    ..status
                },
                transition,
            )
        };
        if let Some((fired, status)) = transition {
            let (name, verb) = if fired {
                ("slo.alert.fired", "fired")
            } else {
                ("slo.alert.cleared", "cleared")
            };
            obs.counter(name, 1);
            if obs.enabled() {
                obs.mark(
                    "slo.alert",
                    &format!(
                        "{verb}: avail burn {:.2}/{:.2}, latency burn {:.2}/{:.2} (short/long)",
                        status.availability.short,
                        status.availability.long,
                        status.latency.short,
                        status.latency.long,
                    ),
                );
            }
        }
        Some(status)
    }

    /// The window sums for `second`, whose cell reads `cell`: the kept
    /// sums plus the cell when they are `second`'s, else one scan, whose
    /// sums without the cell are kept for the next observation.
    fn kept_sums(
        config: &SloConfig,
        state: &mut SloState,
        second: u64,
        cell: Counts,
    ) -> (Counts, Counts) {
        if let Some(kept) = state.kept.filter(|k| k.second == second) {
            return (kept.short.plus(cell), kept.long.plus(cell));
        }
        let (short, long) = Self::scanned_sums(config, state, second);
        state.kept = Some(KeptSums {
            second,
            short: short.minus(cell),
            long: long.minus(cell),
        });
        (short, long)
    }

    /// The short and long window sums ending at `now`, from a full scan
    /// of the ring.
    fn scanned_sums(config: &SloConfig, state: &SloState, now: u64) -> (Counts, Counts) {
        (
            Self::window_counts(&state.ring, now, u64::from(config.short_window_seconds)),
            Self::window_counts(&state.ring, now, u64::from(config.long_window_seconds)),
        )
    }

    /// Request outcomes over `window` seconds ending at `now`.
    fn window_counts(ring: &[SecondCell], now: u64, window: u64) -> Counts {
        let oldest = now.saturating_sub(window - 1);
        ring.iter()
            .filter(|cell| cell.index != u64::MAX && cell.index >= oldest && cell.index <= now)
            .fold(Counts::default(), |sum, cell| sum.plus(cell.counts))
    }

    #[allow(clippy::cast_precision_loss)]
    fn burn(bad: u64, total: u64, target: f64) -> f64 {
        if total == 0 {
            return 0.0; // no traffic burns no budget
        }
        let budget = (1.0 - target).max(f64::EPSILON);
        (bad as f64 / total as f64) / budget
    }

    fn status_of(config: &SloConfig, short: Counts, long: Counts, state: AlertState) -> SloStatus {
        SloStatus {
            availability: BurnRates {
                short: Self::burn(short.errors, short.total, config.availability_target),
                long: Self::burn(long.errors, long.total, config.availability_target),
            },
            latency: BurnRates {
                short: Self::burn(short.slow, short.total, config.latency_target),
                long: Self::burn(long.slow, long.total, config.latency_target),
            },
            total_long: long.total,
            state,
        }
    }

    /// Advances the state machine; returns `Some((fired, status))` on a
    /// transition.
    fn step_locked(
        config: &SloConfig,
        state: &mut SloState,
        status: &SloStatus,
    ) -> Option<(bool, SloStatus)> {
        let avail_firing = status.availability.short >= config.fire_threshold
            && status.availability.long >= config.fire_threshold;
        let latency_firing = status.latency.short >= config.fire_threshold
            && status.latency.long >= config.fire_threshold;
        let avail_clear = status.availability.short < config.clear_threshold
            && status.availability.long < config.clear_threshold;
        let latency_clear = status.latency.short < config.clear_threshold
            && status.latency.long < config.clear_threshold;
        match state.state {
            AlertState::Ok if avail_firing || latency_firing => {
                state.state = AlertState::Firing;
                Some((
                    true,
                    SloStatus {
                        state: AlertState::Firing,
                        ..*status
                    },
                ))
            }
            AlertState::Firing if avail_clear && latency_clear => {
                state.state = AlertState::Ok;
                Some((
                    false,
                    SloStatus {
                        state: AlertState::Ok,
                        ..*status
                    },
                ))
            }
            _ => None,
        }
    }

    /// The current burn rates and alert state.
    ///
    /// # Panics
    ///
    /// Panics if an observing thread panicked while holding the internal
    /// lock (the tracker never panics in normal operation).
    #[must_use]
    pub fn status(&self) -> SloStatus {
        self.status_at(self.now_second())
    }

    /// Test seam: [`SloTracker::status`] at an explicit second.
    ///
    /// # Panics
    ///
    /// See [`SloTracker::status`].
    #[must_use]
    pub fn status_at(&self, second: u64) -> SloStatus {
        let state = self.state.lock().expect("slo lock poisoned");
        let (short, long) = Self::scanned_sums(&self.config, &state, second);
        Self::status_of(&self.config, short, long, state.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> SloConfig {
        SloConfig {
            availability_target: 0.9, // 10% budget: easy to burn in tests
            latency_target: 0.9,
            latency_threshold_seconds: 1.0,
            short_window_seconds: 5,
            long_window_seconds: 20,
            fire_threshold: 2.0,
            clear_threshold: 1.0,
        }
    }

    #[test]
    fn no_traffic_burns_nothing() {
        let t = SloTracker::new(tight());
        let s = t.status_at(100);
        assert!((s.worst_burn() - 0.0).abs() < f64::EPSILON);
        assert_eq!(s.state, AlertState::Ok);
    }

    #[test]
    fn burn_rate_matches_the_arithmetic() {
        let t = SloTracker::new(tight());
        let obs = Obs::none();
        // 10 requests in one second, 5 of them errors: bad fraction 0.5
        // against a 0.1 budget = burn 5.0 in both windows.
        for i in 0..10 {
            t.observe_at(10, i < 5, 0.1, &obs);
        }
        let s = t.status_at(10);
        assert!((s.availability.short - 5.0).abs() < 1e-9, "{s:?}");
        assert!((s.availability.long - 5.0).abs() < 1e-9);
        assert!(s.latency.short.abs() < 1e-9, "all fast");
    }

    #[test]
    fn short_spike_alone_does_not_fire() {
        let cfg = tight();
        let t = SloTracker::new(cfg);
        let obs = Obs::none();
        // A long window full of clean traffic...
        for sec in 0..18 {
            for _ in 0..10 {
                t.observe_at(sec, false, 0.1, &obs);
            }
        }
        // ...then one bad second: short window burns hot, long stays low.
        for _ in 0..10 {
            t.observe_at(19, true, 0.1, &obs);
        }
        let s = t.status_at(19);
        assert!(s.availability.short >= cfg.fire_threshold, "{s:?}");
        assert!(s.availability.long < cfg.fire_threshold, "{s:?}");
        assert_eq!(s.state, AlertState::Ok, "both windows must agree to fire");
    }

    #[test]
    fn sustained_burn_fires_then_hysteresis_clears() {
        let t = SloTracker::new(tight());
        let memory = std::sync::Arc::new(crate::MemoryRecorder::default());
        let obs = Obs::recording(memory.clone());
        // Sustained 50% errors across the whole long window: both burn.
        for sec in 0..20 {
            for i in 0..10 {
                t.observe_at(sec, i < 5, 0.1, &obs);
            }
        }
        assert_eq!(t.status_at(19).state, AlertState::Firing);
        let snap = memory.snapshot();
        assert_eq!(snap.counter("slo.alert.fired"), 1, "fires exactly once");
        assert!(snap.marks.iter().any(|(n, d)| n == "slo.alert" && d.contains("fired")));
        // Clean traffic washes the windows out; the alert clears once
        // BOTH windows drop below the clear threshold.
        for sec in 20..60 {
            for _ in 0..50 {
                t.observe_at(sec, false, 0.1, &obs);
            }
        }
        assert_eq!(t.status_at(59).state, AlertState::Ok);
        let snap = memory.snapshot();
        assert_eq!(snap.counter("slo.alert.cleared"), 1);
    }

    #[test]
    fn alert_does_not_flap_between_thresholds() {
        let t = SloTracker::new(tight());
        let obs = Obs::none();
        // Fire it.
        for sec in 0..20 {
            for i in 0..10 {
                t.observe_at(sec, i < 5, 0.1, &obs);
            }
        }
        assert_eq!(t.status_at(19).state, AlertState::Firing);
        // Ease burn into the hysteresis band (between clear=1.0 and
        // fire=2.0): 15% errors against a 10% budget = burn 1.5.
        for sec in 20..80 {
            for i in 0..20 {
                t.observe_at(sec, i < 3, 0.1, &obs);
            }
        }
        let s = t.status_at(79);
        assert!(
            s.availability.short > 1.0 && s.availability.short < 2.0,
            "burn {s:?} must sit in the hysteresis band"
        );
        assert_eq!(s.state, AlertState::Firing, "still firing inside the band");
    }

    #[test]
    fn latency_objective_fires_independently() {
        let t = SloTracker::new(tight());
        let obs = Obs::none();
        // Every request succeeds but half are slow.
        for sec in 0..20 {
            for i in 0..10 {
                t.observe_at(sec, false, if i < 5 { 5.0 } else { 0.1 }, &obs);
            }
        }
        let s = t.status_at(19);
        assert!(s.availability.short.abs() < 1e-9, "no errors");
        assert!(s.latency.short >= 2.0, "{s:?}");
        assert_eq!(s.state, AlertState::Firing);
    }

    impl SloTracker {
        /// The oracle: [`SloTracker::observe_at`] stepping the state
        /// machine with a full scan at every observation.
        fn observe_scanning_at(
            &self,
            second: u64,
            is_error: bool,
            latency_seconds: f64,
            obs: &Obs,
        ) -> Option<SloStatus> {
            self.observe_with(
                second,
                is_error,
                latency_seconds,
                obs,
                |config, state, now, _| Self::scanned_sums(config, state, now),
            )
        }
    }

    /// SplitMix64, for drawing an observation sequence from one seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The `slo.alert` marks a recorder saw, in order.
    fn alert_marks(memory: &crate::MemoryRecorder) -> Vec<String> {
        memory
            .snapshot()
            .marks
            .into_iter()
            .filter(|(name, _)| name == "slo.alert")
            .map(|(_, detail)| detail)
            .collect()
    }

    /// Runs one random observation sequence through a tracker and the
    /// scanning oracle side by side: every observation must step the
    /// alert with exactly the status a full scan gives at its second,
    /// and both must fire and clear alike. Returns the transitions seen,
    /// `(fired, cleared)`.
    fn check_against_the_scan(seed: u64, small: bool) -> (u64, u64) {
        let mut g = Gen(seed);
        let config = if small {
            let short = 1 + g.below(5) as u32;
            SloConfig {
                short_window_seconds: short,
                long_window_seconds: short + g.below(10) as u32,
                ..tight()
            }
        } else {
            SloConfig::default()
        };
        let (short, long) = (
            u64::from(config.short_window_seconds),
            u64::from(config.long_window_seconds),
        );
        let fast = SloTracker::new(config);
        let oracle = SloTracker::new(config);
        let fast_memory = std::sync::Arc::new(crate::MemoryRecorder::default());
        let oracle_memory = std::sync::Arc::new(crate::MemoryRecorder::default());
        let (fast_obs, oracle_obs) = (
            Obs::recording(fast_memory.clone()),
            Obs::recording(oracle_memory.clone()),
        );
        let mut second = g.below(50);
        let (mut error_pct, mut slow_pct) = (0, 0);
        for step in 0..600 {
            // Traffic phases long enough to fire the alert, and to clear it.
            if step % 60 == 0 {
                error_pct = [0, 0, 5, 30, 90][g.below(5) as usize];
                slow_pct = [0, 0, 0, 30, 90][g.below(5) as usize];
            }
            // Mostly the same second or the next; some steps back by 1-3
            // (workers straddling a boundary); some jumps past a window.
            second = match g.below(100) {
                0..=69 => second,
                70..=84 => second + 1,
                85..=92 => second.saturating_sub(1 + g.below(3)),
                93..=96 => second + short + g.below(short + 1),
                _ => second + long + g.below(long + 1),
            };
            let is_error = g.below(100) < error_pct;
            let latency = if g.below(100) < slow_pct {
                2.0 * config.latency_threshold_seconds
            } else {
                0.5 * config.latency_threshold_seconds
            };
            let got = fast
                .observe_at(second, is_error, latency, &fast_obs)
                .expect("unpoisoned");
            assert_eq!(
                got,
                fast.status_at(second),
                "seed {seed} step {step} at second {second}"
            );
            let want = oracle
                .observe_scanning_at(second, is_error, latency, &oracle_obs)
                .expect("unpoisoned");
            assert_eq!(got, want, "seed {seed} step {step} at second {second}");
        }
        let (fast_snap, oracle_snap) = (fast_memory.snapshot(), oracle_memory.snapshot());
        for name in ["slo.alert.fired", "slo.alert.cleared"] {
            assert_eq!(
                fast_snap.counter(name),
                oracle_snap.counter(name),
                "seed {seed}"
            );
        }
        assert_eq!(
            alert_marks(&fast_memory),
            alert_marks(&oracle_memory),
            "seed {seed}"
        );
        (
            fast_snap.counter("slo.alert.fired"),
            fast_snap.counter("slo.alert.cleared"),
        )
    }

    #[test]
    fn kept_sums_step_the_alert_with_the_scanned_status() {
        for small in [true, false] {
            let (mut fired, mut cleared) = (0, 0);
            for seed in 0..48 {
                let (f, c) = check_against_the_scan(seed, small);
                fired += f;
                cleared += c;
            }
            // The property is only as strong as the transitions it reaches.
            assert!(
                fired >= 100 && cleared >= 100,
                "small {small}: {fired} fired, {cleared} cleared"
            );
        }
    }

    #[test]
    #[should_panic(expected = "clear <= fire")]
    fn misordered_thresholds_are_a_startup_bug() {
        let _ = SloTracker::new(SloConfig {
            fire_threshold: 1.0,
            clear_threshold: 2.0,
            ..SloConfig::default()
        });
    }
}
