//! The complete measurement rig: calibrated sensor + logger on one rail.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use lhr_obs::Obs;
use lhr_power::PowerWaveform;
use lhr_units::{Amperes, Seconds, Volts, Watts};

use crate::adc::Adc;
use crate::calibration::{Calibration, CalibrationError};
use crate::error::SensorError;
use crate::faults::{FaultInjector, FaultPlan};
use crate::hall::HallSensor;
use crate::logger::DataLogger;
use crate::noise::{CodeWindows, NoiseTables};
use crate::quality::{Flatline, QualityPolicy, QualityReport};

/// The mid-band reference current (amperes) the drift self-check drives
/// through the channel: the center of the paper's 0.3-3 A calibration
/// range.
const SELF_CHECK_AMPS: f64 = 1.65;

/// Noise samples a batched rig pass draws at a time (8 KB of uniforms
/// and volts on the stack): each waveform then streams through the whole
/// block with its state in registers.
const NOISE_BLOCK: usize = 256;

/// The factory calibration bench's memo. [`MeasurementRig::for_max_power`]
/// is a pure function of `(max_power, device_seed)` -- the sensor's noise
/// stream, the ADC, and the calibration sweep are all seeded -- so each
/// distinct channel is built and calibrated once per process and cloned
/// out afterwards. A clone is field-for-field identical to a fresh build,
/// so memoization never changes a measured byte; it only skips repeating
/// the least-squares fit (~10 us per fresh runner in the fast-cell path).
static CALIBRATION_BENCH: OnceLock<Mutex<HashMap<(u64, u64), MeasurementRig>>> = OnceLock::new();

/// One benchmark run as seen through the rig.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Average power over the run, reconstructed from the code log via
    /// the calibration fit -- the paper's per-benchmark power number.
    pub average_power: Watts,
    /// The run duration (from the waveform; timing used a separate clock).
    pub duration: Seconds,
    /// Data-quality accounting for the run: yield, gaps, flatlining, and
    /// the channel's drift self-check.
    pub quality: QualityReport,
}

/// A calibrated power-measurement channel for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementRig {
    sensor: HallSensor,
    adc: Adc,
    logger: DataLogger,
    calibration: Calibration,
    /// Rail watts each ADC code reads as through `calibration`; `None`
    /// for an uninvertible (zero-slope) fit. Rebuilt with every
    /// calibration, never separately.
    watts_per_code: Option<Arc<[f64]>>,
    /// The ADC's code windows for table noise (see `noise`).
    codes: CodeWindows,
    injector: Option<FaultInjector>,
    policy: QualityPolicy,
    obs: Obs,
}

impl MeasurementRig {
    /// Builds and calibrates a rig whose sensor range suits the chip's
    /// maximum power draw on the 12 V rail, as the paper did (a +/-5 A
    /// ACS714 normally; +/-30 A for the i7-920). The factory calibration
    /// always runs fault-free: faults afflict a rig in service, not on
    /// the calibration bench.
    ///
    /// Calibration is deterministic in `(max_power, device_seed)`, so the
    /// bench memoizes it: the first request for a channel pays for the
    /// least-squares fit, repeats clone the calibrated rig bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] if the freshly built channel fails
    /// the R-squared acceptance test.
    pub fn for_max_power(max_power: Watts, device_seed: u64) -> Result<Self, CalibrationError> {
        let key = (max_power.value().to_bits(), device_seed);
        let bench = CALIBRATION_BENCH.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(rig) = bench
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Ok(rig.clone());
        }
        let max_current = max_power.value() / 12.0;
        let mut sensor = if max_current > 4.5 {
            HallSensor::acs714_30a(device_seed)
        } else {
            HallSensor::acs714_5a(device_seed)
        };
        let adc = Adc::avr_10bit();
        let calibration = Calibration::paper_procedure(&mut sensor, &adc)?;
        let logger = DataLogger::paper_rig();
        let rig = Self {
            watts_per_code: watts_per_code(&calibration, &adc, logger.supply()),
            codes: CodeWindows::of(&adc),
            sensor,
            adc,
            logger,
            calibration,
            injector: None,
            policy: QualityPolicy::default(),
            obs: Obs::none(),
        };
        bench
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, rig.clone());
        Ok(rig)
    }

    /// Arms the rig with a fault plan. An all-default plan is discarded
    /// (the rig stays on the exact fault-free code path).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = if plan.is_none() {
            None
        } else {
            Some(FaultInjector::new(plan))
        };
        self
    }

    /// Overrides the acceptance policy used by [`MeasurementRig::try_measure`].
    #[must_use]
    pub fn with_quality_policy(mut self, policy: QualityPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms an observer: [`MeasurementRig::try_measure`] and
    /// [`MeasurementRig::recalibrate`] report per-run sample yield,
    /// fault activity, rejections, and recalibration events through it.
    /// The default ([`Obs::none`]) records nothing and costs nothing;
    /// an armed observer never changes a measured value.
    #[must_use]
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The rig's calibration record.
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The rig's fault injector, if armed.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// The acceptance policy in force.
    #[must_use]
    pub fn quality_policy(&self) -> &QualityPolicy {
        &self.policy
    }

    /// Measures one run the way the paper describes it, one sample at a
    /// time: logs the waveform at 50 Hz into a code vector, inverts each
    /// code to a current via the calibration fit, multiplies by the rail
    /// voltage, and averages the per-sample watts (Section 2.5). Returns
    /// the reading and those per-sample watts.
    ///
    /// This is the oracle for [`MeasurementRig::measure_batch`] (as
    /// `run_reference` is for the simulator) and the only path that keeps
    /// per-sample data. It ignores any armed fault plan and panics on an
    /// uninvertible calibration.
    #[must_use]
    pub fn measure_reference(&self, waveform: &PowerWaveform) -> (Measurement, Vec<Watts>) {
        let mut sensor = self.sensor.clone();
        let codes = self.logger.log_run(waveform, &mut sensor, &self.adc);
        let quality = QualityReport::from_codes(&codes, self.drift_residual_codes(false));
        let supply = self.logger.supply();
        let samples: Vec<Watts> = codes
            .iter()
            .map(|&code| {
                let amps = self
                    .calibration
                    .amps_from_code(code)
                    .expect("calibrated fits are invertible");
                supply * amps
            })
            .collect();
        let avg = samples.iter().map(|w| w.value()).sum::<f64>() / samples.len() as f64;
        let m = Measurement {
            average_power: Watts::new(avg),
            duration: waveform.duration(),
            quality,
        };
        (m, samples)
    }

    /// Measures several runs through the fault-free channel in one
    /// streaming pass, returning one unaudited reading per waveform, in
    /// order. Each reading is bit-identical to
    /// [`MeasurementRig::measure_reference`]'s for the same waveform.
    ///
    /// Every run on a rig replays the same sensor-noise stream, so the
    /// pass draws each noise sample once and applies it to every waveform
    /// still logging at that sample. It draws a block of samples at a
    /// time and streams each waveform through the block in turn.
    ///
    /// A noise sample matters only through the ADC code it lands in, so
    /// the pass draws the Box-Muller uniforms as the sensor does but
    /// turns them into volts from small tables, within a proven bound of
    /// libm's value. Where that bound leaves a sample's code in doubt
    /// (it lands that close to a code edge), the pass computes the libm
    /// noise for that sample, once for the whole batch, and quantizes it
    /// as the per-sample path does.
    ///
    /// Per-waveform state lives in parallel arrays, one slot per
    /// waveform: the current slice run (the samples that read one slice,
    /// found at run boundaries, and the slice's `ideal + offset`), the
    /// running watts sum (table lookups added in sample order from the
    /// neutral element `Iterator::sum` starts from), and the flatline
    /// accounting, which takes each waveform's codes for a block at once.
    /// Nothing is kept per sample.
    ///
    /// Like `measure_reference`, this ignores any armed fault plan:
    /// [`MeasurementRig::try_measure`] is the fault-aware call. It takes
    /// `&self`, so callers may share a fault-free rig across threads.
    /// Readings go through [`MeasurementRig::audit`] before use. An armed
    /// observer gets the pass's `rig.exact_noise_draws` and
    /// `rig.flatline_code_chunks` (chunks the flatline accounting took
    /// code by code) counts.
    ///
    /// # Panics
    ///
    /// Panics on an uninvertible calibration, as `measure_reference`
    /// does; only a recalibration around a dead channel produces one.
    ///
    /// # Example
    ///
    /// ```
    /// use lhr_power::PowerWaveform;
    /// use lhr_sensors::MeasurementRig;
    /// use lhr_units::{Seconds, Watts};
    ///
    /// let steady = |watts: f64, slices: usize| {
    ///     let mut w = PowerWaveform::new(Seconds::from_ms(20.0));
    ///     for _ in 0..slices {
    ///         w.push(Watts::new(watts));
    ///     }
    ///     w
    /// };
    /// let (a, b) = (steady(26.0, 200), steady(31.0, 350));
    /// let rig = MeasurementRig::for_max_power(Watts::new(60.0), 42)?;
    /// let readings = rig.measure_batch(&[&a, &b]);
    /// assert_eq!(readings[0], rig.measure_reference(&a).0);
    /// assert_eq!(readings[1], rig.measure_reference(&b).0);
    /// # Ok::<(), lhr_sensors::CalibrationError>(())
    /// ```
    #[must_use]
    pub fn measure_batch(&self, waveforms: &[&PowerWaveform]) -> Vec<Measurement> {
        let watts = self
            .watts_per_code
            .as_deref()
            .expect("calibrated fits are invertible");
        let samples: Vec<usize> = waveforms
            .iter()
            .map(|w| self.logger.sample_count(w))
            .collect();
        let mut runs: Vec<SliceRun> = waveforms.iter().map(|w| self.first_run(w)).collect();
        let mut sums = vec![sum_start(); waveforms.len()];
        let mut flatlines = vec![Flatline::EMPTY; waveforms.len()];
        let mut sensor = self.sensor.clone();
        let tables = NoiseTables::get();
        let sd = sensor.noise_sd();
        let mut uniforms = [(0.0f64, 0.0f64); NOISE_BLOCK];
        let mut approx = [0.0f64; NOISE_BLOCK];
        // The libm noise of a block sample, NaN until some waveform needs
        // it (libm noise is never NaN).
        let mut exact = [f64::NAN; NOISE_BLOCK];
        // One waveform's codes for the block, for its flatline accounting.
        let mut codes = [0u16; NOISE_BLOCK];
        let mut exact_draws = 0u64;
        let mut per_code_chunks = 0u64;
        let longest = samples.iter().copied().max().unwrap_or(0);
        for start in (0..longest).step_by(NOISE_BLOCK) {
            let len = NOISE_BLOCK.min(longest - start);
            for i in 0..len {
                let (u1, u2) = sensor.next_noise_uniforms();
                uniforms[i] = (u1, u2);
                approx[i] = tables.normal(u1, u2, sd);
                exact[i] = f64::NAN;
            }
            for (j, w) in waveforms.iter().enumerate() {
                let end = samples[j].min(start + len);
                if end <= start {
                    continue;
                }
                let mut run = runs[j];
                let mut sum = sums[j];
                let mut k = start;
                while k < end {
                    if k == run.end {
                        self.next_run(w, samples[j], &mut run);
                    }
                    let stop = run.end.min(end);
                    for i in k - start..stop - start {
                        let code = self.codes.code(run.base, approx[i], || {
                            if exact[i].is_nan() {
                                let (u1, u2) = uniforms[i];
                                exact[i] = sensor.noise_from_uniforms(u1, u2);
                                exact_draws += 1;
                            }
                            exact[i]
                        });
                        sum += watts[usize::from(code)];
                        codes[i] = code;
                    }
                    k = stop;
                }
                runs[j] = run;
                sums[j] = sum;
                per_code_chunks += flatlines[j].extend(&codes[..end - start]);
            }
        }
        if self.obs.enabled() {
            self.obs.counter("rig.exact_noise_draws", exact_draws);
            self.obs
                .counter("rig.flatline_code_chunks", per_code_chunks);
        }
        let drift = self.drift_residual_codes(false);
        waveforms
            .iter()
            .enumerate()
            .map(|(j, w)| {
                let n = samples[j];
                Measurement {
                    average_power: Watts::new(sums[j] / n as f64),
                    duration: w.duration(),
                    quality: QualityReport::lossless(n, flatlines[j].fraction(n), drift),
                }
            })
            .collect()
    }

    /// The slice run state of `waveform` before its first sample.
    fn first_run(&self, waveform: &PowerWaveform) -> SliceRun {
        SliceRun {
            end: 0,
            next: waveform.slice_index(self.logger.sample_time(0)),
            power_bits: None,
            base: f64::NAN,
        }
    }

    /// Advances `run` to the slice run of `waveform` that starts at
    /// sample `run.end` of `samples`: the samples from there on that read
    /// the same slice, up to the first that reads a later one (or the end
    /// of the log). The slice a sample reads never decreases with the
    /// sample, so the boundary is estimated once and confirmed with the
    /// exact sample-to-slice formula on both sides of it. The slice's
    /// `ideal + offset` is recomputed only when its power changes.
    #[inline]
    fn next_run(&self, waveform: &PowerWaveform, samples: usize, run: &mut SliceRun) {
        let slice_at = |k: usize| waveform.slice_index(self.logger.sample_time(k));
        let (k, slice) = (run.end, run.next);
        let power = if waveform.is_empty() {
            Watts::ZERO
        } else {
            waveform.slice_power(slice)
        };
        if run.power_bits != Some(power.value().to_bits()) {
            run.power_bits = Some(power.value().to_bits());
            run.base = self.sensor.offset_ideal(power / self.logger.supply());
        }
        if slice + 1 >= waveform.len() || k + 1 >= samples {
            run.end = samples;
            return;
        }
        run.next = slice_at(k + 1);
        if run.next != slice {
            run.end = k + 1;
            return;
        }
        // The first sample at or past the next slice's start time.
        let start_s = (slice + 1) as f64 * waveform.slice().value();
        let mut end = ((start_s * self.logger.sample_hz()) as usize).clamp(k + 2, samples);
        while end > k + 2 && slice_at(end - 1) != slice {
            end -= 1;
        }
        while end < samples {
            run.next = slice_at(end);
            if run.next != slice {
                break;
            }
            end += 1;
        }
        run.end = end;
    }

    /// Audits a reading from [`MeasurementRig::measure_batch`]: reports it
    /// to the observer and checks it against the rig's [`QualityPolicy`],
    /// exactly as [`MeasurementRig::try_measure`] audits its own.
    ///
    /// # Errors
    ///
    /// The [`SensorError`] the policy check raises.
    pub fn audit(&self, reading: Measurement) -> Result<Measurement, SensorError> {
        self.note_run(&reading.quality);
        if let Err(e) = reading.quality.check(&self.policy) {
            self.note_rejection(&e);
            return Err(e);
        }
        Ok(reading)
    }

    /// The validating measurement path: applies the armed fault plan (if
    /// any), audits the log against the rig's [`QualityPolicy`], and
    /// returns a typed error instead of panicking.
    ///
    /// With no fault plan armed this is the width-1
    /// [`MeasurementRig::measure_batch`] plus [`MeasurementRig::audit`]:
    /// same sensor draws, same codes, same floating-point operations as
    /// [`MeasurementRig::measure_reference`] -- bit-for-bit identical
    /// results.
    ///
    /// # Errors
    ///
    /// Any [`SensorError`] the policy audit raises, or
    /// [`SensorError::Uninvertible`] for a corrupt calibration.
    ///
    /// # Example
    ///
    /// ```
    /// use lhr_power::PowerWaveform;
    /// use lhr_sensors::MeasurementRig;
    /// use lhr_units::{Seconds, Watts};
    ///
    /// // A steady 26 W chip sampled for 4 s at 50 Hz.
    /// let mut w = PowerWaveform::new(Seconds::from_ms(20.0));
    /// for _ in 0..200 {
    ///     w.push(Watts::new(26.0));
    /// }
    /// let mut rig = MeasurementRig::for_max_power(Watts::new(60.0), 42)?;
    /// let m = rig.try_measure(&w, 7)?;
    /// let err = (m.average_power.value() - 26.0).abs() / 26.0;
    /// assert!(err < 0.02, "calibrated rig reads within ~1-2%");
    /// assert_eq!(m.quality.gap_count, 0); // no faults armed, no gaps
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn try_measure(
        &mut self,
        waveform: &PowerWaveform,
        seed: u64,
    ) -> Result<Measurement, SensorError> {
        if self.injector.is_none() {
            let reading = self.measure_batch(&[waveform]).remove(0);
            return self.audit(reading);
        }
        // A wedged logger hangs before any data moves: wall-clock time
        // only, never the measured values.
        if let Some(stall_s) = self.injector.as_mut().expect("checked above").next_stall() {
            self.obs.counter("rig.stalled_runs", 1);
            std::thread::sleep(std::time::Duration::from_secs_f64(stall_s));
        }
        let injector = self.injector.as_ref().expect("checked above");
        let mut session = injector.session(seed);
        let drift = self.drift_residual_codes(true);
        let mut sensor = self.sensor.clone();
        let log = self
            .logger
            .log_run_faulted(waveform, &mut sensor, &self.adc, &mut session);
        // The thermal clock runs whether or not the run is accepted.
        self.injector
            .as_mut()
            .expect("checked above")
            .advance(waveform.duration().value());
        let quality = QualityReport::from_log(&log, drift);
        self.note_run(&quality);
        self.obs.counter("rig.faulted_runs", 1);
        if let Err(e) = quality.check(&self.policy) {
            self.note_rejection(&e);
            return Err(e);
        }
        let supply = self.logger.supply();
        let mut sum = sum_start();
        for &code in log.iter().flatten() {
            let amps = self
                .calibration
                .amps_from_code(code)
                .ok_or(SensorError::Uninvertible { code })?;
            sum += (supply * amps).value();
        }
        Ok(Measurement {
            average_power: Watts::new(sum / quality.logged_samples as f64),
            duration: waveform.duration(),
            quality,
        })
    }

    /// Recalibrates the channel in place, as the paper's lab would after
    /// a sensor went bad ("re-solder and recalibrate"): the reference
    /// currents are driven through the channel *as it now is* -- thermal
    /// drift and clipping included -- so the new fit absorbs them.
    /// Transient faults (spikes, stuck codes, drops) do not afflict the
    /// quiet calibration bench.
    ///
    /// # Errors
    ///
    /// [`SensorError::Recalibration`] if the refit fails the R-squared
    /// acceptance test (a channel too broken to recalibrate around).
    pub fn recalibrate(&mut self) -> Result<(), SensorError> {
        let mut sensor = self.sensor.clone();
        let injector = self.injector.clone();
        let adc = self.adc;
        let calibration = Calibration::calibrate_channel(
            |amps| {
                let v = sensor.output(amps);
                let v = match &injector {
                    Some(inj) => inj.settled_volts(v),
                    None => v,
                };
                adc.quantize(v)
            },
            28,
            Amperes::from_ma(300.0),
            Amperes::new(3.0),
        )
        .map_err(SensorError::Recalibration);
        match calibration {
            Ok(calibration) => {
                self.obs.counter("rig.recalibrations", 1);
                self.watts_per_code = watts_per_code(&calibration, &self.adc, self.logger.supply());
                self.calibration = calibration;
                Ok(())
            }
            Err(e) => {
                self.obs.counter("rig.recalibration_failures", 1);
                Err(e)
            }
        }
    }

    /// Reports one validated run's data quality to the observer.
    fn note_run(&self, quality: &QualityReport) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.counter("rig.runs", 1);
        self.obs
            .counter("rig.samples_logged", quality.logged_samples as u64);
        self.obs.histogram("rig.sample_yield", quality.sample_yield);
        self.obs
            .histogram("rig.drift_codes", quality.drift_codes);
    }

    /// Reports a policy rejection to the observer.
    fn note_rejection(&self, e: &SensorError) {
        if !self.obs.enabled() {
            return;
        }
        self.obs.counter("rig.rejected_runs", 1);
        self.obs.mark("rig.rejected", &e.to_string());
    }

    /// The drift self-check: drives the mid-band reference current
    /// through the channel's noiseless transfer (drifted if `faulted`),
    /// quantizes it, and returns the absolute residual against the
    /// calibration fit's prediction, in ADC codes. RNG-free, so the
    /// check never perturbs any noise stream.
    fn drift_residual_codes(&self, faulted: bool) -> f64 {
        let amps = Amperes::new(SELF_CHECK_AMPS);
        let ideal = self.sensor.ideal_output(amps);
        let v = match (&self.injector, faulted) {
            (Some(inj), true) => inj.settled_volts(ideal),
            _ => ideal,
        };
        let code = f64::from(self.adc.quantize(v));
        (code - self.calibration.fit().predict(amps.value())).abs()
    }
}

/// A waveform's current slice run in a batched pass.
#[derive(Debug, Clone, Copy)]
struct SliceRun {
    /// The first sample past the run.
    end: usize,
    /// The slice sample `end` reads (when `end` is within the log).
    next: usize,
    /// The bits of the run's slice power, once one is known.
    power_bits: Option<u64>,
    /// `ideal + offset` at that power.
    base: f64,
}

/// The rail watts each code of `adc` reads as through `calibration`
/// (`supply x amps`, as the per-sample path computes them), or `None`
/// when the fit cannot be inverted (a zero slope fails every code).
fn watts_per_code(calibration: &Calibration, adc: &Adc, supply: Volts) -> Option<Arc<[f64]>> {
    (0..=adc.max_code())
        .map(|code| {
            calibration
                .amps_from_code(code)
                .map(|amps| (supply * amps).value())
        })
        .collect()
}

/// The neutral element `Iterator::sum` starts an `f64` sum from (`-0.0`
/// on current toolchains, `0.0` on older ones). Streaming sums start
/// here so they equal a collected `.sum()` bit for bit.
fn sum_start() -> f64 {
    std::iter::empty::<f64>().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Drift, Drops, FaultPlan, Saturation, Spikes, StuckCode};

    fn waveform(powers: &[f64]) -> PowerWaveform {
        let mut w = PowerWaveform::new(Seconds::from_ms(20.0));
        for &p in powers {
            w.push(Watts::new(p));
        }
        w
    }

    #[test]
    fn measures_steady_power_within_two_percent() {
        let rig = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        let truth = 26.4;
        let w = waveform(&vec![truth; 500]);
        let (m, samples) = rig.measure_reference(&w);
        let err = (m.average_power.value() - truth).abs() / truth;
        assert!(err < 0.02, "err = {err}");
        assert_eq!(samples.len(), 500);
        assert_eq!(m.quality.logged_samples, 500);
        assert!((m.quality.sample_yield - 1.0).abs() < 1e-12);
        assert_eq!(m.quality.gap_count, 0);
        assert!(m.quality.drift_codes < 2.0, "clean rig near its fit");
    }

    #[test]
    fn tracks_varying_power() {
        let rig = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        // Square wave between 20 and 40 W: mean 30.
        let powers: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 20.0 } else { 40.0 }).collect();
        let (m, samples) = rig.measure_reference(&waveform(&powers));
        let err = (m.average_power.value() - 30.0).abs() / 30.0;
        assert!(err < 0.03, "err = {err}");
        let watts: Vec<f64> = samples.iter().map(|w| w.value()).collect();
        let s = lhr_stats::Summary::from_slice(&watts);
        assert!(s.stddev() > 5.0, "square wave must show spread");
    }

    #[test]
    fn high_power_chip_gets_the_thirty_amp_sensor() {
        // An i7-class chip peaking near 90 W needs more than 5 A at 12 V.
        let rig = MeasurementRig::for_max_power(Watts::new(130.0), 7).unwrap();
        let truth = 89.0;
        let (m, _) = rig.measure_reference(&waveform(&vec![truth; 500]));
        let err = (m.average_power.value() - truth).abs() / truth;
        assert!(err < 0.03, "err = {err}");
    }

    #[test]
    fn low_power_chip_stays_measurable() {
        // The Atom draws ~2.4 W: ~200 mA. Near the bottom of the
        // calibration range but still within ~5%.
        let rig = MeasurementRig::for_max_power(Watts::new(4.0), 9).unwrap();
        let truth = 2.4;
        let (m, _) = rig.measure_reference(&waveform(&vec![truth; 500]));
        let err = (m.average_power.value() - truth).abs() / truth;
        assert!(err < 0.06, "err = {err}");
    }

    #[test]
    fn measurement_is_deterministic() {
        let rig = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        let w = waveform(&vec![25.0; 200]);
        assert_eq!(rig.measure_reference(&w), rig.measure_reference(&w));
        let (one, _) = rig.measure_reference(&w);
        assert_eq!(rig.measure_batch(&[&w, &w]), [one.clone(), one]);
    }

    #[test]
    fn observer_counts_flatline_chunks_taken_code_by_code() {
        use lhr_obs::{MemoryRecorder, Obs};

        let rig = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        let per_code_chunks = |w: &PowerWaveform| {
            let memory = Arc::new(MemoryRecorder::default());
            let observed = rig.clone().with_observer(Obs::recording(memory.clone()));
            assert_eq!(observed.measure_batch(&[w]), [rig.measure_reference(w).0]);
            memory.snapshot().counter("rig.flatline_code_chunks")
        };
        // 10,000 samples are 157 chunks (four per 256-sample noise block,
        // one for the last 16 samples). A steady run's codes stay strictly
        // inside its extremes in more and more chunks as the noise finds
        // them.
        let steady = per_code_chunks(&waveform(&vec![26.4; 10_000]));
        assert!((1..157 / 2).contains(&steady), "{steady}");
        // A ramp of about 10 codes a chunk moves an extreme in every one
        // of its 16.
        let ramp: Vec<f64> = (0..1000).map(|i| 0.05 * f64::from(i)).collect();
        assert_eq!(per_code_chunks(&waveform(&ramp)), 16);
    }

    #[test]
    fn different_rigs_agree_after_calibration() {
        let w = waveform(&vec![30.0; 400]);
        let (a, _) = MeasurementRig::for_max_power(Watts::new(50.0), 1)
            .unwrap()
            .measure_reference(&w);
        let (b, _) = MeasurementRig::for_max_power(Watts::new(50.0), 2)
            .unwrap()
            .measure_reference(&w);
        let diff = (a.average_power.value() - b.average_power.value()).abs() / 30.0;
        assert!(diff < 0.02, "rig disagreement {diff}");
    }

    #[test]
    fn try_measure_without_faults_is_bit_identical_to_measure() {
        let rig = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        let w = waveform(&vec![26.4; 500]);
        let (legacy, _) = rig.measure_reference(&w);
        let mut validating = rig.clone();
        let m = validating.try_measure(&w, 17).expect("clean rig accepts");
        assert_eq!(legacy, m);
        // An explicit all-default plan is also the identity.
        let mut none_plan = rig.clone().with_fault_plan(FaultPlan::none());
        assert!(none_plan.fault_injector().is_none());
        assert_eq!(legacy, none_plan.try_measure(&w, 17).unwrap());
    }

    #[test]
    fn heavy_saturation_is_rejected_with_a_typed_error() {
        // Clip the channel so hard that a 40 W run pegs at the low limit.
        let plan = FaultPlan::new(3).with_saturation(Saturation::new(2.2, 2.48));
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan);
        let w = waveform(&vec![40.0; 500]);
        match rig.try_measure(&w, 1) {
            Err(SensorError::Saturated { fraction, .. }) => {
                assert!(fraction > 0.5, "pegged run, got {fraction}");
            }
            other => panic!("expected saturation rejection, got {other:?}"),
        }
    }

    #[test]
    fn paper_band_saturation_keeps_codes_in_band_and_measures_midrange() {
        let plan = FaultPlan::new(3).with_saturation(Saturation::paper_band());
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan);
        // 20 W = 1.67 A: mid-band, unaffected by the band clip.
        let w = waveform(&vec![20.0; 500]);
        let m = rig.try_measure(&w, 1).expect("mid-band run passes");
        let err = (m.average_power.value() - 20.0).abs() / 20.0;
        assert!(err < 0.02, "err = {err}");
    }

    #[test]
    fn drift_is_detected_and_recalibration_recovers() {
        // Aggressive thermal drift: ~0.5% gain and 2 mV of offset per
        // second of uptime.
        let plan = FaultPlan::new(11).with_drift(Drift::new(0.005, 0.002));
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan);
        let truth = 26.4;
        let w = waveform(&vec![truth; 500]); // 10 s per run
        // Run the rig until the self-check trips the policy.
        let mut tripped = false;
        for seed in 0..12 {
            match rig.try_measure(&w, seed) {
                Ok(_) => {}
                Err(SensorError::ExcessiveDrift { codes, limit }) => {
                    assert!(codes > limit);
                    tripped = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(tripped, "drift must eventually trip the self-check");
        rig.recalibrate().expect("drifted channel refits");
        let m = rig.try_measure(&w, 99).expect("recalibrated rig accepts");
        let err = (m.average_power.value() - truth).abs() / truth;
        assert!(err < 0.03, "post-recalibration err = {err}");
    }

    #[test]
    fn stuck_code_reads_as_saturation() {
        let plan = FaultPlan::new(2).with_stuck_code(StuckCode {
            code: 430,
            per_run_probability: 1.0,
        });
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan);
        let w = waveform(&vec![26.4; 500]);
        assert!(matches!(
            rig.try_measure(&w, 1),
            Err(SensorError::Saturated { .. })
        ));
    }

    #[test]
    fn spiked_run_is_accepted_but_biased() {
        let plan = FaultPlan::new(6).with_spikes(Spikes {
            per_run_probability: 1.0,
            magnitude_v: -0.15,
        });
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan);
        let truth = 26.4;
        let w = waveform(&vec![truth; 500]);
        let m = rig.try_measure(&w, 1).expect("a spike is not a flatline");
        // -150 mV reads as roughly +0.8 A = ~10 W of phantom power.
        assert!(
            m.average_power.value() > truth + 5.0,
            "spike must bias the run, got {}",
            m.average_power.value()
        );
    }

    #[test]
    fn observer_sees_runs_rejections_and_recalibrations() {
        use lhr_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let memory = Arc::new(MemoryRecorder::default());
        let plan = FaultPlan::new(11).with_drift(Drift::new(0.005, 0.002));
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan)
            .with_observer(Obs::recording(memory.clone()));
        let w = waveform(&vec![26.4; 500]);
        let mut rejections = 0;
        for seed in 0..12 {
            match rig.try_measure(&w, seed) {
                Ok(_) => {}
                Err(SensorError::ExcessiveDrift { .. }) => {
                    rejections += 1;
                    rig.recalibrate().expect("drifted channel refits");
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        let snap = memory.snapshot();
        assert_eq!(snap.counter("rig.runs"), 12);
        assert_eq!(snap.counter("rig.faulted_runs"), 12);
        assert_eq!(snap.counter("rig.rejected_runs"), rejections);
        assert_eq!(snap.counter("rig.recalibrations"), rejections);
        assert!(rejections > 0, "drift must trip at least once");
        let yields = &snap.histograms["rig.sample_yield"];
        assert_eq!(yields.count, 12);
        assert!((yields.mean() - 1.0).abs() < 1e-9, "drift drops no samples");
        assert_eq!(snap.marks.len(), rejections as usize);
        assert!(snap.marks.iter().all(|(name, _)| name == "rig.rejected"));
    }

    #[test]
    fn observer_is_transparent_to_rig_equality_and_results() {
        use lhr_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let silent = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        let observed = silent
            .clone()
            .with_observer(Obs::recording(Arc::new(MemoryRecorder::default())));
        assert_eq!(silent, observed);
        let w = waveform(&vec![26.4; 300]);
        let a = silent.clone().try_measure(&w, 5).unwrap();
        let b = observed.clone().try_measure(&w, 5).unwrap();
        assert_eq!(a, b, "observation must not perturb the measurement");
    }

    #[test]
    fn stall_burns_wall_clock_but_not_data() {
        use crate::faults::Stall;

        let clean = MeasurementRig::for_max_power(Watts::new(50.0), 42).unwrap();
        let w = waveform(&vec![26.4; 300]);
        let (reference, _) = clean.measure_reference(&w);
        let mut wedged = clean.with_fault_plan(FaultPlan::new(4).with_stall(Stall::transient(1, 0.05)));
        let t0 = std::time::Instant::now();
        let stalled = wedged.try_measure(&w, 5).expect("a stall is not a data fault");
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(50),
            "first run must hang for the stall duration"
        );
        assert_eq!(reference, stalled);
        // The wedge has cleared: the second run is fast.
        let t1 = std::time::Instant::now();
        let healed = wedged.try_measure(&w, 5).expect("recovered logger accepts");
        assert!(t1.elapsed() < std::time::Duration::from_millis(50));
        assert_eq!(reference, healed);
    }

    #[test]
    fn drops_reduce_yield_and_count_gaps() {
        let plan = FaultPlan::new(8).with_drops(Drops { probability: 0.2 });
        let mut rig = MeasurementRig::for_max_power(Watts::new(50.0), 42)
            .unwrap()
            .with_fault_plan(plan);
        let w = waveform(&vec![26.4; 1000]);
        let m = rig.try_measure(&w, 1).expect("20% drops pass a 50% floor");
        assert!(m.quality.sample_yield < 1.0);
        assert!(m.quality.sample_yield > 0.6);
        assert!(m.quality.gap_count > 0);
        assert!(m.quality.logged_samples < m.quality.expected_samples);
    }
}
