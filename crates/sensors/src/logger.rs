//! The 50 Hz USB data logger (Sparkfun AVR Stick in the paper's rig).

use lhr_power::PowerWaveform;
use lhr_units::{Seconds, Volts};

use crate::adc::Adc;
use crate::faults::FaultSession;
use crate::hall::HallSensor;

/// Samples a sensor watching a supply rail at a fixed rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DataLogger {
    sample_hz: f64,
    supply: Volts,
}

impl DataLogger {
    /// The paper's logger: 50 Hz on the 12 V processor rail.
    #[must_use]
    pub fn paper_rig() -> Self {
        Self::new(50.0, Volts::new(12.0))
    }

    /// Creates a logger with a custom rate and rail voltage.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are positive.
    #[must_use]
    pub fn new(sample_hz: f64, supply: Volts) -> Self {
        assert!(sample_hz > 0.0, "sample rate must be positive");
        assert!(supply.value() > 0.0, "supply voltage must be positive");
        Self { sample_hz, supply }
    }

    /// The sampling rate in hertz.
    #[must_use]
    pub fn sample_hz(&self) -> f64 {
        self.sample_hz
    }

    /// The monitored rail voltage.
    #[must_use]
    pub fn supply(&self) -> Volts {
        self.supply
    }

    /// How many samples the logger takes over a run of this waveform's
    /// duration: one per sample period, and at least one.
    pub(crate) fn sample_count(&self, waveform: &PowerWaveform) -> usize {
        let period = 1.0 / self.sample_hz;
        ((waveform.duration().value() / period).floor() as usize).max(1)
    }

    /// When the `k`-th sample of a run is taken.
    pub(crate) fn sample_time(&self, k: usize) -> Seconds {
        Seconds::new(k as f64 * (1.0 / self.sample_hz))
    }

    /// Logs a full benchmark run: samples the chip's power waveform at the
    /// logger rate, converts power to rail current, passes it through the
    /// sensor, and quantizes with the ADC. Returns the raw code log.
    ///
    /// Runs shorter than one sample period still produce one sample (taken
    /// at t = 0), as a real logger triggered at benchmark start would.
    #[must_use]
    pub fn log_run(
        &self,
        waveform: &PowerWaveform,
        sensor: &mut HallSensor,
        adc: &Adc,
    ) -> Vec<u16> {
        (0..self.sample_count(waveform))
            .map(|k| {
                let current = waveform.power_at(self.sample_time(k)) / self.supply;
                adc.quantize(sensor.output(current))
            })
            .collect()
    }

    /// Logs a run through a fault session: each sensor output passes
    /// through the session's analog faults before quantization, each
    /// quantized code through its digital faults, and each sample may be
    /// dropped (`None`). The sensor is sampled for every slot -- dropped
    /// or not -- so the sensor's noise stream advances exactly as in
    /// [`DataLogger::log_run`] and drop decisions cannot perturb the
    /// values of surviving samples.
    #[must_use]
    pub fn log_run_faulted(
        &self,
        waveform: &PowerWaveform,
        sensor: &mut HallSensor,
        adc: &Adc,
        session: &mut FaultSession,
    ) -> Vec<Option<u16>> {
        (0..self.sample_count(waveform))
            .map(|k| {
                let current = waveform.power_at(self.sample_time(k)) / self.supply;
                let volts = session.volts(sensor.output(current));
                let code = session.code(adc.quantize(volts));
                session.keep().then_some(code)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_units::Watts;

    fn steady_waveform(watts: f64, slices: usize) -> PowerWaveform {
        let mut w = PowerWaveform::new(Seconds::from_ms(10.0));
        for _ in 0..slices {
            w.push(Watts::new(watts));
        }
        w
    }

    #[test]
    fn sample_count_matches_rate() {
        let logger = DataLogger::paper_rig();
        let w = steady_waveform(24.0, 500); // 5 s
        let mut sensor = HallSensor::acs714_5a(1);
        let log = logger.log_run(&w, &mut sensor, &Adc::avr_10bit());
        assert_eq!(log.len(), 250); // 5 s x 50 Hz
    }

    #[test]
    fn short_runs_still_sample_once() {
        let logger = DataLogger::paper_rig();
        let w = steady_waveform(24.0, 1); // 10 ms < 20 ms period
        let mut sensor = HallSensor::acs714_5a(1);
        let log = logger.log_run(&w, &mut sensor, &Adc::avr_10bit());
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn steady_power_gives_tight_code_spread() {
        let logger = DataLogger::paper_rig();
        let w = steady_waveform(24.0, 1000);
        let mut sensor = HallSensor::acs714_5a(1);
        let log = logger.log_run(&w, &mut sensor, &Adc::avr_10bit());
        let min = *log.iter().min().unwrap();
        let max = *log.iter().max().unwrap();
        assert!(max - min <= 6, "codes {min}..{max} spread too far");
    }

    #[test]
    fn higher_power_means_lower_codes() {
        // The wiring direction: more power, more current, lower code.
        let logger = DataLogger::paper_rig();
        let mut sensor = HallSensor::acs714_5a(1);
        let adc = Adc::avr_10bit();
        let low = logger.log_run(&steady_waveform(10.0, 100), &mut sensor, &adc);
        let high = logger.log_run(&steady_waveform(40.0, 100), &mut sensor, &adc);
        let avg = |v: &[u16]| v.iter().map(|&c| f64::from(c)).sum::<f64>() / v.len() as f64;
        assert!(avg(&high) < avg(&low));
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn zero_rate_panics() {
        let _ = DataLogger::new(0.0, Volts::new(12.0));
    }

    #[test]
    fn faulted_log_with_no_faults_matches_plain_log() {
        use crate::faults::{FaultInjector, FaultPlan};
        let logger = DataLogger::paper_rig();
        let w = steady_waveform(24.0, 500);
        let adc = Adc::avr_10bit();
        let mut plain_sensor = HallSensor::acs714_5a(1);
        let plain = logger.log_run(&w, &mut plain_sensor, &adc);
        let mut faulted_sensor = HallSensor::acs714_5a(1);
        let mut session = FaultInjector::new(FaultPlan::none()).session(99);
        let faulted = logger.log_run_faulted(&w, &mut faulted_sensor, &adc, &mut session);
        assert_eq!(
            plain,
            faulted.into_iter().map(Option::unwrap).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drops_thin_the_log_without_changing_surviving_codes() {
        use crate::faults::{Drops, FaultInjector, FaultPlan};
        let logger = DataLogger::paper_rig();
        let w = steady_waveform(24.0, 1000);
        let adc = Adc::avr_10bit();
        let mut plain_sensor = HallSensor::acs714_5a(1);
        let plain = logger.log_run(&w, &mut plain_sensor, &adc);
        let plan = FaultPlan::new(4).with_drops(Drops { probability: 0.2 });
        let mut faulted_sensor = HallSensor::acs714_5a(1);
        let mut session = FaultInjector::new(plan).session(5);
        let faulted = logger.log_run_faulted(&w, &mut faulted_sensor, &adc, &mut session);
        assert_eq!(faulted.len(), plain.len());
        let kept = faulted.iter().flatten().count();
        assert!(kept < plain.len(), "some samples must drop");
        assert!(kept > plain.len() / 2, "most samples must survive");
        for (p, f) in plain.iter().zip(&faulted) {
            if let Some(code) = f {
                assert_eq!(code, p, "surviving samples are byte-identical");
            }
        }
    }
}
