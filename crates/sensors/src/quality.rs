//! Per-measurement data-quality accounting.
//!
//! Every validated measurement carries a [`QualityReport`]: how many
//! samples the logger delivered versus owed, how much of the log
//! flatlined at its extremes (saturation or a stuck code), and how far
//! the channel's self-check sits from its calibration fit. A
//! [`QualityPolicy`] turns a report into an accept/reject decision.

use crate::error::SensorError;

/// Minimum length of a constant-code run at the log's extreme value for
/// it to count as flatlined. Healthy channels carry ~0.8 LSB of sensor
/// noise, so eight identical consecutive codes pinned at the log's own
/// minimum or maximum essentially never happen by chance.
pub const FLATLINE_RUN: usize = 8;

/// Data-quality facts about one logged run.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Samples the run duration and sample rate owed us.
    pub expected_samples: usize,
    /// Samples the logger actually delivered.
    pub logged_samples: usize,
    /// `logged / expected` (1.0 for a lossless log).
    pub sample_yield: f64,
    /// Number of contiguous gaps (dropped-sample runs) in the log.
    pub gap_count: usize,
    /// Fraction of logged samples inside a flatlined run at the log's
    /// extreme code (saturated sensor or stuck ADC).
    pub saturated_fraction: f64,
    /// Self-check residual against the calibration fit, in ADC codes
    /// (an estimate of channel drift since calibration).
    pub drift_codes: f64,
}

impl QualityReport {
    /// Builds a report from the raw log: `Some(code)` for a delivered
    /// sample, `None` for a dropped one. `drift_codes` comes from the
    /// rig's separate self-check.
    #[must_use]
    pub fn from_log(log: &[Option<u16>], drift_codes: f64) -> Self {
        let expected = log.len();
        let codes: Vec<u16> = log.iter().flatten().copied().collect();
        let logged = codes.len();
        let mut gaps = 0usize;
        let mut in_gap = false;
        for s in log {
            match s {
                None if !in_gap => {
                    gaps += 1;
                    in_gap = true;
                }
                None => {}
                Some(_) => in_gap = false,
            }
        }
        Self {
            expected_samples: expected,
            logged_samples: logged,
            sample_yield: if expected == 0 {
                0.0
            } else {
                logged as f64 / expected as f64
            },
            gap_count: gaps,
            saturated_fraction: flatlined_fraction(&codes),
            drift_codes,
        }
    }

    /// Builds a report for a lossless log, straight from the delivered
    /// codes. This is [`QualityReport::from_log`] specialized to a log
    /// with no dropped samples: same expressions, same results, without
    /// materializing a `Vec<Option<u16>>` copy of the log first -- the
    /// fault-free measure path calls this once per run.
    ///
    /// ```
    /// use lhr_sensors::QualityReport;
    ///
    /// let codes = [470u16, 471, 470, 472];
    /// let log: Vec<Option<u16>> = codes.iter().map(|&c| Some(c)).collect();
    /// assert_eq!(
    ///     QualityReport::from_codes(&codes, 0.4),
    ///     QualityReport::from_log(&log, 0.4),
    /// );
    /// ```
    #[must_use]
    pub fn from_codes(codes: &[u16], drift_codes: f64) -> Self {
        Self::lossless(codes.len(), flatlined_fraction(codes), drift_codes)
    }

    /// The report for a lossless log of `samples` codes whose flatlined
    /// fraction is already known (a streaming pass counts it without
    /// keeping the codes).
    pub(crate) fn lossless(samples: usize, saturated_fraction: f64, drift_codes: f64) -> Self {
        Self {
            expected_samples: samples,
            logged_samples: samples,
            // `from_log` computes logged / expected, which for a
            // lossless log is x / x = exactly 1.0 in IEEE 754, so the
            // two constructors agree bit-for-bit on every input.
            sample_yield: if samples == 0 { 0.0 } else { 1.0 },
            gap_count: 0,
            saturated_fraction,
            drift_codes,
        }
    }

    /// Checks the report against a policy.
    ///
    /// # Errors
    ///
    /// The first violated bound, as a typed [`SensorError`].
    pub fn check(&self, policy: &QualityPolicy) -> Result<(), SensorError> {
        if self.logged_samples == 0 {
            return Err(SensorError::NoSamples);
        }
        if self.sample_yield < policy.min_yield {
            return Err(SensorError::LowYield {
                achieved: self.sample_yield,
                required: policy.min_yield,
            });
        }
        if self.saturated_fraction > policy.max_saturated_fraction {
            return Err(SensorError::Saturated {
                fraction: self.saturated_fraction,
                limit: policy.max_saturated_fraction,
            });
        }
        if self.drift_codes > policy.max_drift_codes {
            return Err(SensorError::ExcessiveDrift {
                codes: self.drift_codes,
                limit: policy.max_drift_codes,
            });
        }
        Ok(())
    }
}

/// Acceptance bounds on a [`QualityReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityPolicy {
    /// Maximum tolerated flatlined fraction.
    pub max_saturated_fraction: f64,
    /// Maximum tolerated self-check residual, in ADC codes. The default
    /// (3.0) sits well above a healthy channel's quantization floor
    /// (under ~1.5 codes) and well below any drift that would have
    /// failed the paper's R-squared >= 0.999 calibration gate.
    pub max_drift_codes: f64,
    /// Minimum tolerated sample yield.
    pub min_yield: f64,
}

impl Default for QualityPolicy {
    fn default() -> Self {
        Self {
            max_saturated_fraction: 0.05,
            max_drift_codes: 3.0,
            min_yield: 0.5,
        }
    }
}

/// Fraction of samples inside a run of at least [`FLATLINE_RUN`]
/// identical codes pinned at the log's minimum or maximum code.
fn flatlined_fraction(codes: &[u16]) -> f64 {
    if codes.len() < FLATLINE_RUN {
        return 0.0;
    }
    let lo = *codes.iter().min().expect("non-empty");
    let hi = *codes.iter().max().expect("non-empty");
    let mut flat = 0usize;
    let mut i = 0;
    while i < codes.len() {
        let mut j = i + 1;
        while j < codes.len() && codes[j] == codes[i] {
            j += 1;
        }
        let run = j - i;
        if run >= FLATLINE_RUN && (codes[i] == lo || codes[i] == hi) {
            flat += run;
        }
        i = j;
    }
    flat as f64 / codes.len() as f64
}

/// [`flatlined_fraction`] computed one code at a time, without keeping
/// the codes. A run of identical codes counts only if its code is one of
/// the log's final extremes, and the running minimum and maximum only
/// ever move outward: a run's code can be a final extreme only if it is
/// an extreme when the run ends. So it is enough to total the ended runs
/// of at least [`FLATLINE_RUN`] codes at the current minimum and at the
/// current maximum, restarting a total when its extreme moves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flatline {
    lo: u16,
    hi: u16,
    /// Samples in ended flatline-length runs at `lo` and at `hi`.
    at_lo: usize,
    at_hi: usize,
    code: u16,
    len: usize,
}

impl Flatline {
    /// The state of an empty log.
    pub(crate) const EMPTY: Self = Self {
        lo: u16::MAX,
        hi: 0,
        at_lo: 0,
        at_hi: 0,
        code: 0,
        len: 0,
    };

    /// Appends `code` to the log. Noisy codes change at most samples, so
    /// the run length updates without a branch on the code; only a
    /// flatline-length run ending, which is rare, branches.
    #[inline]
    pub(crate) fn push(&mut self, code: u16) {
        let same = code == self.code;
        if !same && self.len >= FLATLINE_RUN {
            self.credit_run();
        }
        self.len = if same { self.len + 1 } else { 1 };
        self.code = code;
        if code < self.lo {
            self.lo = code;
            self.at_lo = 0;
        }
        if code > self.hi {
            self.hi = code;
            self.at_hi = 0;
        }
    }

    /// Credits the current run, which has flatline length, to the
    /// extreme its code sits at.
    #[inline]
    fn credit_run(&mut self) {
        if self.code == self.lo {
            self.at_lo += self.len;
        }
        if self.code == self.hi {
            self.at_hi += self.len;
        }
    }

    /// The flatlined fraction of the complete log of `samples` codes.
    pub(crate) fn fraction(mut self, samples: usize) -> f64 {
        if samples < FLATLINE_RUN {
            return 0.0;
        }
        if self.len >= FLATLINE_RUN {
            self.credit_run();
        }
        let pinned = if self.lo == self.hi {
            self.at_lo
        } else {
            self.at_lo + self.at_hi
        };
        pinned as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(codes: &[u16]) -> Vec<Option<u16>> {
        codes.iter().map(|&c| Some(c)).collect()
    }

    #[test]
    fn clean_log_reports_full_yield_and_no_flatline() {
        let codes: Vec<u16> = (0..100).map(|i| 470 + (i % 5) as u16).collect();
        let q = QualityReport::from_log(&log_of(&codes), 0.4);
        assert_eq!(q.logged_samples, 100);
        assert_eq!(q.gap_count, 0);
        assert!((q.sample_yield - 1.0).abs() < 1e-12);
        assert_eq!(q.saturated_fraction, 0.0);
        assert!(q.check(&QualityPolicy::default()).is_ok());
    }

    #[test]
    fn pegged_log_is_flagged_saturated() {
        // Half the run pinned at the minimum code.
        let mut codes = vec![400u16; 50];
        codes.extend((0..50).map(|i| 470 + (i % 4) as u16));
        let q = QualityReport::from_log(&log_of(&codes), 0.0);
        assert!((q.saturated_fraction - 0.5).abs() < 1e-12);
        let err = q.check(&QualityPolicy::default()).unwrap_err();
        assert!(matches!(err, SensorError::Saturated { .. }));
    }

    #[test]
    fn interior_flat_runs_are_not_saturation() {
        // A long constant run that is neither the min nor the max code:
        // steady power, not a pegged channel.
        let mut codes = vec![470u16; 60];
        codes.push(469);
        codes.push(471);
        let q = QualityReport::from_log(&log_of(&codes), 0.0);
        assert_eq!(q.saturated_fraction, 0.0);
    }

    #[test]
    fn gaps_and_yield_are_counted() {
        let log = vec![
            Some(470),
            None,
            None,
            Some(471),
            Some(470),
            None,
            Some(472),
            Some(470),
        ];
        let q = QualityReport::from_log(&log, 0.0);
        assert_eq!(q.expected_samples, 8);
        assert_eq!(q.logged_samples, 5);
        assert_eq!(q.gap_count, 2);
        assert!((q.sample_yield - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn drift_beyond_policy_is_rejected() {
        let codes: Vec<u16> = (0..40).map(|i| 450 + (i % 3) as u16).collect();
        let q = QualityReport::from_log(&log_of(&codes), 4.5);
        let err = q.check(&QualityPolicy::default()).unwrap_err();
        assert_eq!(
            err,
            SensorError::ExcessiveDrift {
                codes: 4.5,
                limit: 3.0
            }
        );
    }

    #[test]
    fn from_codes_matches_from_log_on_lossless_logs() {
        let cases: [&[u16]; 4] = [
            &[],
            &[470, 471, 470, 472],
            &[400; 50],
            &[470, 469, 471, 470, 470, 470, 470, 470, 470, 470, 470, 470],
        ];
        for codes in cases {
            let log = log_of(codes);
            assert_eq!(
                QualityReport::from_codes(codes, 0.7),
                QualityReport::from_log(&log, 0.7),
            );
        }
    }

    #[test]
    fn streamed_flatline_matches_the_collected_fraction() {
        let mut pegged = vec![400u16; 50];
        pegged.extend((0..50).map(|i| 470 + (i % 4) as u16));
        let mut both_ends = vec![1023u16; 9];
        both_ends.extend([500, 501, 500]);
        both_ends.extend([0; 12]);
        let run = |code: u16, n: usize| vec![code; n];
        let logs: Vec<Vec<u16>> = vec![
            run(470, 5),
            run(470, 8),
            run(0, 9),
            pegged,
            both_ends,
            vec![470, 470, 470, 470, 470, 470, 470, 470, 469, 471, 469],
            (0..40).map(|i| 450 + (i % 3) as u16).collect(),
            // Extremes that move after a flatline run has ended.
            [run(470, 10), vec![460], run(470, 3)].concat(),
            [run(470, 9), vec![480], run(470, 9)].concat(),
            [run(470, 8), run(460, 8), run(480, 8)].concat(),
            [run(470, 8), run(480, 8), run(460, 8), run(470, 8)].concat(),
        ];
        for (i, log) in logs.iter().enumerate() {
            let mut flatline = Flatline::EMPTY;
            for &code in log {
                flatline.push(code);
            }
            assert_eq!(
                flatline.fraction(log.len()).to_bits(),
                flatlined_fraction(log).to_bits(),
                "log {i}"
            );
        }
    }

    #[test]
    fn empty_log_is_no_samples() {
        let q = QualityReport::from_log(&[None, None], 0.0);
        assert_eq!(q.check(&QualityPolicy::default()), Err(SensorError::NoSamples));
    }
}
