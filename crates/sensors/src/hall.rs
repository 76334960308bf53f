//! The Allegro ACS714 Hall-effect linear current sensor.

use lhr_trace::{normal_from_uniforms, Rng64, SplitMix64, Xoshiro256StarStar};
use lhr_units::{Amperes, Volts};

/// The sensor's output rails: its output saturates at 0 V and 5 V.
const RAIL_V: f64 = 5.0;

/// A Hall-effect current sensor with realistic imperfections.
///
/// The ACS714 outputs an analog voltage centered at 2.5 V that moves
/// linearly with current. The studied rigs wired the sensor so increasing
/// current *lowers* the output (the board's current direction), which is
/// why the paper's calibration codes run 503 down to 400 over 0.3-3 A.
/// Each physical device has a gain error (typically under 1.5%), an offset
/// error, and output noise; calibration exists precisely to remove the
/// first two.
#[derive(Debug, Clone, PartialEq)]
pub struct HallSensor {
    sensitivity_v_per_a: f64,
    center_v: f64,
    gain_error: f64,
    offset_error_v: f64,
    noise_sd_v: f64,
    range_a: f64,
    noise: Xoshiro256StarStar,
}

impl HallSensor {
    /// A +/-5 A ACS714 (185 mV/A), with device imperfections drawn
    /// deterministically from `device_seed`.
    #[must_use]
    pub fn acs714_5a(device_seed: u64) -> Self {
        Self::with_sensitivity(0.185, 5.0, device_seed)
    }

    /// A +/-30 A ACS714 (66 mV/A), used on the highest-power chip (the
    /// i7-920 draws up to ~7.5 A on its 12 V rail).
    #[must_use]
    pub fn acs714_30a(device_seed: u64) -> Self {
        Self::with_sensitivity(0.066, 30.0, device_seed)
    }

    fn with_sensitivity(v_per_a: f64, range_a: f64, device_seed: u64) -> Self {
        let mut dev = SplitMix64::new(device_seed ^ 0x00ac_5714_u64);
        // Datasheet-scale imperfections: +/-1.5% gain, +/-15 mV offset.
        let gain_error = dev.next_normal(0.0, 0.007).clamp(-0.015, 0.015);
        let offset_error_v = dev.next_normal(0.0, 0.007).clamp(-0.015, 0.015);
        Self {
            sensitivity_v_per_a: v_per_a,
            center_v: 2.5,
            gain_error,
            offset_error_v,
            noise_sd_v: 0.004,
            range_a,
            noise: Xoshiro256StarStar::new(device_seed ^ 0x0a11),
        }
    }

    /// The sensor's full-scale current range in amperes.
    #[must_use]
    pub fn range(&self) -> Amperes {
        Amperes::new(self.range_a)
    }

    /// The nominal sensitivity in volts per ampere.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity_v_per_a
    }

    /// The analog output for a given rail current, including this device's
    /// gain/offset imperfections and fresh output noise.
    ///
    /// Currents beyond the sensor's range saturate, as in hardware.
    pub fn output(&mut self, current: Amperes) -> Volts {
        let offset_ideal = self.offset_ideal(current);
        Self::noisy(offset_ideal, self.next_noise())
    }

    /// The noiseless transfer function (used in tests and documentation).
    #[must_use]
    pub fn ideal_output(&self, current: Amperes) -> Volts {
        Self::rails(self.offset_ideal(current))
    }

    /// The noiseless output before the rails clamp it: this device's
    /// transfer plus its offset error (`ideal + offset`). A batched rig
    /// pass computes it once per waveform slice.
    pub(crate) fn offset_ideal(&self, current: Amperes) -> f64 {
        let i = current.value().clamp(-self.range_a, self.range_a);
        let ideal = self.center_v - self.sensitivity_v_per_a * (1.0 + self.gain_error) * i;
        ideal + self.offset_error_v
    }

    /// Draws the next output-noise sample, in volts.
    pub(crate) fn next_noise(&mut self) -> f64 {
        let (u1, u2) = self.next_noise_uniforms();
        self.noise_from_uniforms(u1, u2)
    }

    /// Draws the two uniforms of the next output-noise sample, advancing
    /// the noise stream exactly as [`HallSensor::next_noise`] does.
    pub(crate) fn next_noise_uniforms(&mut self) -> (f64, f64) {
        self.noise.next_normal_uniforms()
    }

    /// The output-noise sample (volts) [`HallSensor::next_noise`] makes
    /// of the uniforms it draws: the libm Box-Muller transform.
    pub(crate) fn noise_from_uniforms(&self, u1: f64, u2: f64) -> f64 {
        normal_from_uniforms(u1, u2, 0.0, self.noise_sd_v)
    }

    /// The output noise's standard deviation, in volts.
    pub(crate) fn noise_sd(&self) -> f64 {
        self.noise_sd_v
    }

    /// The last step of [`HallSensor::output`]: noise added to
    /// `ideal + offset` (in that order, so `(ideal + offset) + noise`),
    /// clamped to the rails.
    pub(crate) fn noisy(offset_ideal: f64, noise: f64) -> Volts {
        Self::rails(offset_ideal + noise)
    }

    /// A voltage clamped to the output rails.
    pub(crate) fn rails(v: f64) -> Volts {
        Volts::new(v.clamp(0.0, RAIL_V))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_decreases_with_current() {
        let s = HallSensor::acs714_5a(1);
        let at_0 = s.ideal_output(Amperes::new(0.0)).value();
        let at_1 = s.ideal_output(Amperes::new(1.0)).value();
        let at_3 = s.ideal_output(Amperes::new(3.0)).value();
        assert!(at_0 > at_1 && at_1 > at_3);
        // ~185 mV per ampere.
        assert!((at_0 - at_1 - 0.185).abs() < 0.02);
    }

    #[test]
    fn thirty_amp_variant_is_less_sensitive() {
        let five = HallSensor::acs714_5a(1);
        let thirty = HallSensor::acs714_30a(1);
        assert!(five.sensitivity() > thirty.sensitivity() * 2.0);
        assert_eq!(thirty.range(), Amperes::new(30.0));
        assert_eq!(five.range(), Amperes::new(5.0));
    }

    #[test]
    fn saturates_at_range() {
        let s = HallSensor::acs714_5a(1);
        let at_range = s.ideal_output(Amperes::new(5.0));
        let beyond = s.ideal_output(Amperes::new(50.0));
        assert_eq!(at_range, beyond);
    }

    #[test]
    fn devices_differ_but_each_is_deterministic() {
        let a1 = HallSensor::acs714_5a(1);
        let a2 = HallSensor::acs714_5a(1);
        let b = HallSensor::acs714_5a(2);
        assert_eq!(a1, a2);
        assert_ne!(
            a1.ideal_output(Amperes::new(2.0)),
            b.ideal_output(Amperes::new(2.0))
        );
    }

    #[test]
    fn noise_is_small_and_zero_mean() {
        let mut s = HallSensor::acs714_5a(3);
        let ideal = s.ideal_output(Amperes::new(1.0)).value();
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| s.output(Amperes::new(1.0)).value())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - ideal).abs() < 0.001, "noise must be zero-mean");
    }

    #[test]
    fn error_stays_within_datasheet_bounds() {
        for seed in 0..50 {
            let s = HallSensor::acs714_5a(seed);
            // Compare the device transfer to the perfect nominal one.
            let i = Amperes::new(2.0);
            let nominal = 2.5 - 0.185 * 2.0;
            let actual = s.ideal_output(i).value();
            let err = (actual - nominal).abs();
            // Gain error at 2 A (<= 1.5% of 0.37 V) plus 15 mV offset.
            assert!(err < 0.021, "seed {seed}: error {err}");
        }
    }
}
