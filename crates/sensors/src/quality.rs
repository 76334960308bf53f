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

/// Codes [`Flatline::extend`] checks at a time.
const FLATLINE_CHUNK: usize = 64;

/// [`flatlined_fraction`] computed one code at a time, without keeping
/// the codes. A run of identical codes counts only if its code is one of
/// the log's final extremes, and the running minimum and maximum only
/// ever move outward: a run's code can be a final extreme only if it is
/// an extreme when the run ends. So it is enough to total the ended runs
/// of at least [`FLATLINE_RUN`] codes at the current minimum and at the
/// current maximum, restarting a total when its extreme moves.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// Appends `codes` to the log, [`FLATLINE_CHUNK`] at a time, and
    /// returns how many chunks went through [`Flatline::push`] code by
    /// code.
    ///
    /// A chunk whose codes, and the code of the run it continues, all lie
    /// strictly between the running minimum and maximum can credit
    /// nothing, now or later: the extremes only move outward, so a code
    /// strictly inside them never becomes one. Such a chunk only moves
    /// the current run, so it is skipped to its trailing run. Every other
    /// chunk (the log's first, one that touches or moves an extreme, or
    /// any chunk once the minimum equals the maximum) is pushed code by
    /// code. The state after is the one pushing every code gives.
    pub(crate) fn extend(&mut self, codes: &[u16]) -> u64 {
        let mut per_code = 0;
        for chunk in codes.chunks(FLATLINE_CHUNK) {
            let (min, max) = chunk
                .iter()
                .fold((u16::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
            let inside = |c: u16| self.lo < c && c < self.hi;
            if !(inside(min) && inside(max) && inside(self.code)) {
                per_code += 1;
                for &code in chunk {
                    self.push(code);
                }
                continue;
            }
            let last = chunk[chunk.len() - 1];
            let tail = chunk.iter().rev().take_while(|&&c| c == last).count();
            if tail == chunk.len() && last == self.code {
                self.len += tail;
            } else {
                self.code = last;
                self.len = tail;
            }
        }
        per_code
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
    use proptest::prelude::*;

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

    /// `log` pushed one code at a time, and extended in slices of the
    /// lengths in `cuts` (cycled): both end states, with the chunks
    /// extend took and how many of those went code by code.
    fn pushed_and_extended(log: &[u16], cuts: &[usize]) -> (Flatline, Flatline, u64, u64) {
        let mut pushed = Flatline::EMPTY;
        for &code in log {
            pushed.push(code);
        }
        let mut extended = Flatline::EMPTY;
        let (mut at, mut chunks, mut per_code) = (0, 0, 0);
        for &cut in cuts.iter().cycle() {
            if at == log.len() {
                break;
            }
            let next = (at + cut).min(log.len());
            per_code += extended.extend(&log[at..next]);
            chunks += (next - at).div_ceil(FLATLINE_CHUNK) as u64;
            at = next;
        }
        (pushed, extended, chunks, per_code)
    }

    /// Asserts that `log` extended in slices of `cuts` ends in the state
    /// pushing each code gives, and reads the collected fraction; returns
    /// whether some chunk skipped the per-code path.
    fn assert_extend_matches(log: &[u16], cuts: &[usize]) -> bool {
        let (pushed, extended, chunks, per_code) = pushed_and_extended(log, cuts);
        assert_eq!(extended, pushed, "cuts {cuts:?} of {log:?}");
        assert_eq!(
            extended.fraction(log.len()).to_bits(),
            flatlined_fraction(log).to_bits(),
            "cuts {cuts:?} of {log:?}"
        );
        per_code < chunks
    }

    #[test]
    fn extend_matches_push_on_adversarial_streams() {
        let run = |code: u16, n: usize| vec![code; n];
        // Noise strictly inside 460 and 480, and a prefix that sets them.
        let noise = |n: usize| -> Vec<u16> { (0..n).map(|i| 465 + (i * 7 % 11) as u16).collect() };
        let framed = |tail: Vec<u16>| [vec![460, 480], noise(52), tail].concat();
        let mut logs: Vec<Vec<u16>> = vec![
            vec![],
            run(470, 1),
            run(470, 7),
            run(470, 8),
            run(470, 63),
            run(470, 200),
            // The extremes meet again after moving apart: lo == hi never
            // returns, but a log of one code keeps it throughout.
            [run(470, 70), run(471, 3), run(470, 9)].concat(),
            // Extremes that move mid-chunk, then noise inside them.
            [noise(30), run(400, 9), noise(100), run(500, 8), noise(90)].concat(),
            [noise(64), run(459, 8), noise(64), run(481, 7), noise(64)].concat(),
        ];
        // Runs of 7, 8 and 9 at each extreme and inside, ending before,
        // on and past a chunk edge, from every offset around it.
        for len in [7, 8, 9] {
            for code in [460, 470, 480] {
                for lead in 0..12 {
                    logs.push(framed([noise(lead), run(code, len), noise(70)].concat()));
                }
            }
        }
        // Flatline runs that straddle a chunk edge at an extreme the next
        // chunk moves.
        logs.push(framed([run(460, 12), run(455, 1), noise(80)].concat()));
        logs.push(framed([run(480, 12), run(490, 9)].concat()));
        let cut_sets: [&[usize]; 6] = [&[1], &[64], &[63, 65], &[256], &[100, 3, 17], &[5000]];
        let mut skipped = false;
        for log in &logs {
            for cuts in cut_sets {
                skipped |= assert_extend_matches(log, cuts);
            }
        }
        assert!(skipped, "some chunk must take the fast path");
    }

    #[test]
    fn a_steady_log_goes_code_by_code_only_where_it_sets_an_extreme() {
        let noise = (0..638).map(|i| 465 + (i * 7 % 11) as u16);
        let log: Vec<u16> = [460, 480].into_iter().chain(noise).collect();
        let (pushed, extended, chunks, per_code) = pushed_and_extended(&log, &[256]);
        assert_eq!(extended, pushed);
        assert_eq!(
            (chunks, per_code),
            (10, 1),
            "only the first chunk sets the extremes"
        );
        // With lo == hi no code lies inside them.
        assert_eq!(pushed_and_extended(&[470; 640], &[256]).3, 10);
    }

    /// A log of up to ten segments: runs near the flatline length or a
    /// chunk's, at codes 0-7 that may be or become extremes, and noise
    /// strictly inside codes 1 and 6.
    fn segmented_log(seed: u64) -> Vec<u16> {
        use lhr_trace::{Rng64, SplitMix64};
        const RUNS: [usize; 11] = [1, 2, 6, 7, 8, 9, 10, 63, 64, 65, 130];
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: usize| rng.next_below(n as u64) as usize;
        let mut log = Vec::new();
        for _ in 0..below(11) {
            if below(2) == 0 {
                let code = below(8) as u16;
                log.extend(std::iter::repeat_n(code, RUNS[below(RUNS.len())]));
            } else {
                for _ in 0..below(200) {
                    log.push(2 + below(4) as u16);
                }
            }
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn extend_over_any_chunking_matches_push_and_the_collected_fraction(
            seed in any::<u64>(),
            cuts in proptest::collection::vec(1usize..300, 1..6),
        ) {
            assert_extend_matches(&segmented_log(seed), &cuts);
        }
    }

    #[test]
    fn empty_log_is_no_samples() {
        let q = QualityReport::from_log(&[None, None], 0.0);
        assert_eq!(q.check(&QualityPolicy::default()), Err(SensorError::NoSamples));
    }
}
