//! Chip power as a function of time.
//!
//! The simulated chip emits one average-power sample per simulation slice;
//! the waveform is what the sensing rig (in `lhr-sensors`) attaches to, just
//! as the paper's Hall-effect sensor attached to the physical 12V rail.

use lhr_units::{Joules, Seconds, Watts};

/// A uniformly sampled power-versus-time record for one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerWaveform {
    slice: Seconds,
    samples: Vec<f64>,
}

impl PowerWaveform {
    /// Creates an empty waveform with the given slice duration.
    ///
    /// # Panics
    ///
    /// Panics if the slice duration is not positive.
    #[must_use]
    pub fn new(slice: Seconds) -> Self {
        assert!(slice.value() > 0.0, "slice duration must be positive");
        Self {
            slice,
            samples: Vec::new(),
        }
    }

    /// Creates an empty waveform with room for `capacity` slices before
    /// the first reallocation. Capacity is invisible to every observer
    /// (equality, length, samples), so a caller that knows its slice
    /// count -- the simulator targets a fixed number per run -- can skip
    /// the growth reallocations without changing any result.
    ///
    /// ```
    /// use lhr_power::PowerWaveform;
    /// use lhr_units::{Seconds, Watts};
    ///
    /// let mut a = PowerWaveform::with_capacity(Seconds::new(1e-3), 64);
    /// let mut b = PowerWaveform::new(Seconds::new(1e-3));
    /// a.push(Watts::new(20.0));
    /// b.push(Watts::new(20.0));
    /// assert_eq!(a, b);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the slice duration is not positive.
    #[must_use]
    pub fn with_capacity(slice: Seconds, capacity: usize) -> Self {
        assert!(slice.value() > 0.0, "slice duration must be positive");
        Self {
            slice,
            samples: Vec::with_capacity(capacity),
        }
    }

    /// Appends one slice's average power.
    pub fn push(&mut self, power: Watts) {
        self.samples.push(power.value());
    }

    /// The slice duration.
    #[must_use]
    pub fn slice(&self) -> Seconds {
        self.slice
    }

    /// Number of slices recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the waveform is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration covered.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.slice * self.samples.len() as f64
    }

    /// The instantaneous power at time `t` (zero-order hold; `t` past the
    /// end returns the final slice, and an empty waveform reads 0 W).
    #[must_use]
    pub fn power_at(&self, t: Seconds) -> Watts {
        if self.samples.is_empty() {
            return Watts::ZERO;
        }
        self.slice_power(self.slice_index(t))
    }

    /// The index of the slice [`PowerWaveform::power_at`] reads at time
    /// `t`: `floor(t / slice)`, clamped to the last slice (0 for an empty
    /// waveform). Non-decreasing in `t`.
    #[must_use]
    pub fn slice_index(&self, t: Seconds) -> usize {
        // A float-to-unsigned cast truncates toward zero and saturates
        // negatives and NaN to 0, which is exactly `floor` followed by
        // the cast -- without `floor`, a software routine on baseline
        // x86-64.
        let idx = (t.value() / self.slice.value()) as usize;
        idx.min(self.samples.len().saturating_sub(1))
    }

    /// The average power of slice `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below [`PowerWaveform::len`].
    #[must_use]
    pub fn slice_power(&self, index: usize) -> Watts {
        Watts::new(self.samples[index])
    }

    /// Total energy: the integral of power over the run.
    #[must_use]
    pub fn energy(&self) -> Joules {
        Joules::new(self.samples.iter().sum::<f64>() * self.slice.value())
    }

    /// True average power over the run (what an ideal meter would report).
    ///
    /// Returns 0 W for an empty waveform.
    #[must_use]
    pub fn average_power(&self) -> Watts {
        if self.samples.is_empty() {
            Watts::ZERO
        } else {
            Watts::new(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Summary statistics of the waveform.
    #[must_use]
    pub fn stats(&self) -> WaveformStats {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in &self.samples {
            min = min.min(s);
            max = max.max(s);
        }
        WaveformStats {
            average: self.average_power(),
            min: if self.samples.is_empty() { Watts::ZERO } else { Watts::new(min) },
            max: if self.samples.is_empty() { Watts::ZERO } else { Watts::new(max) },
            duration: self.duration(),
            energy: self.energy(),
        }
    }

    /// Iterates `(slice start time, average power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Seconds, Watts)> + '_ {
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, &p)| (self.slice * i as f64, Watts::new(p)))
    }
}

/// Summary statistics of a [`PowerWaveform`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveformStats {
    /// Mean power over the run.
    pub average: Watts,
    /// Minimum slice power.
    pub min: Watts,
    /// Maximum slice power.
    pub max: Watts,
    /// Run duration.
    pub duration: Seconds,
    /// Total energy.
    pub energy: Joules,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf(powers: &[f64]) -> PowerWaveform {
        let mut w = PowerWaveform::new(Seconds::from_ms(10.0));
        for &p in powers {
            w.push(Watts::new(p));
        }
        w
    }

    #[test]
    fn empty_waveform() {
        let w = PowerWaveform::new(Seconds::from_ms(10.0));
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.average_power(), Watts::ZERO);
        assert_eq!(w.energy(), Joules::ZERO);
        assert_eq!(w.power_at(Seconds::new(1.0)), Watts::ZERO);
        let s = w.stats();
        assert_eq!(s.min, Watts::ZERO);
        assert_eq!(s.max, Watts::ZERO);
    }

    #[test]
    fn energy_is_power_times_time() {
        let w = wf(&[10.0, 20.0, 30.0]);
        // 3 slices of 10ms: (10+20+30) * 0.01 = 0.6 J
        assert!((w.energy().value() - 0.6).abs() < 1e-12);
        assert!((w.average_power().value() - 20.0).abs() < 1e-12);
        assert!((w.duration().value() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn power_at_uses_zero_order_hold() {
        let w = wf(&[10.0, 20.0, 30.0]);
        assert_eq!(w.power_at(Seconds::from_ms(0.0)), Watts::new(10.0));
        assert_eq!(w.power_at(Seconds::from_ms(9.9)), Watts::new(10.0));
        assert_eq!(w.power_at(Seconds::from_ms(10.0)), Watts::new(20.0));
        assert_eq!(w.power_at(Seconds::from_ms(25.0)), Watts::new(30.0));
        // Past the end: final value.
        assert_eq!(w.power_at(Seconds::new(99.0)), Watts::new(30.0));
    }

    #[test]
    fn slice_index_cast_equals_floor_then_cast() {
        let w = wf(&[10.0, 20.0, 30.0]);
        let floored = |t: f64| {
            let idx = (t / w.slice().value()).floor() as usize;
            Watts::new([10.0, 20.0, 30.0][idx.min(2)])
        };
        let below_zero = [-1.0, -0.015, -0.01, -1e-300, -0.0];
        let around_slices = [0.0, 0.0099999, 0.01, 0.02, 0.029999, 0.03];
        let extremes = [1e300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for t in below_zero.into_iter().chain(around_slices).chain(extremes) {
            assert_eq!(w.power_at(Seconds::new(t)), floored(t), "t = {t}");
        }
    }

    #[test]
    fn stats_track_extremes() {
        let w = wf(&[23.0, 89.0, 45.0]);
        let s = w.stats();
        assert_eq!(s.min, Watts::new(23.0));
        assert_eq!(s.max, Watts::new(89.0));
        assert!((s.average.value() - (23.0 + 89.0 + 45.0) / 3.0).abs() < 1e-12);
        assert_eq!(s.energy, w.energy());
        assert_eq!(s.duration, w.duration());
    }

    #[test]
    fn iter_yields_time_stamps() {
        let w = wf(&[1.0, 2.0]);
        let pts: Vec<(Seconds, Watts)> = w.iter().collect();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], (Seconds::ZERO, Watts::new(1.0)));
        assert!((pts[1].0.value() - 0.01).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "slice duration must be positive")]
    fn zero_slice_panics() {
        let _ = PowerWaveform::new(Seconds::ZERO);
    }
}
