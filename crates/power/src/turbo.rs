//! Turbo Boost stepping parameters.
//!
//! Intel Turbo Boost (Nehalem) over-clocks cores in 133 MHz "steps" while
//! temperature, power, and current stay below thresholds: one step with all
//! cores active, two when only one core is active, and only when the chip is
//! already at its highest clock setting (Section 3.6 of the paper). The
//! controller itself lives in `lhr-uarch`; these are the per-chip constants.

use lhr_units::{Hertz, Volts};

/// Per-chip Turbo Boost stepping constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurboParams {
    /// The frequency increment of one step (133 MHz on Nehalem).
    pub step_hz: f64,
    /// Steps available when more than one core is active.
    pub max_steps_all_cores: u32,
    /// Steps available when a single core is active.
    pub max_steps_single_core: u32,
    /// Extra supply voltage per step. This is the electrical reason Turbo
    /// is cheap on some chips and costly on others: the i7-920 needs a big
    /// voltage kick at its top bins, the i5-670 barely any.
    pub voltage_per_step: f64,
}

impl TurboParams {
    /// The steps granted for a given number of busy cores.
    #[must_use]
    pub fn steps_for(&self, busy_cores: usize) -> u32 {
        if busy_cores <= 1 {
            self.max_steps_single_core
        } else {
            self.max_steps_all_cores
        }
    }

    /// The boosted clock after `steps` steps above `base`.
    #[must_use]
    pub fn boosted_clock(&self, base: Hertz, steps: u32) -> Hertz {
        Hertz::new(base.value() + self.step_hz * f64::from(steps))
    }

    /// The boosted voltage after `steps` steps above `base`.
    #[must_use]
    pub fn boosted_voltage(&self, base: Volts, steps: u32) -> Volts {
        Volts::new(base.value() + self.voltage_per_step * f64::from(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn turbo() -> TurboParams {
        TurboParams {
            step_hz: 133.0e6,
            max_steps_all_cores: 1,
            max_steps_single_core: 2,
            voltage_per_step: 0.05,
        }
    }

    #[test]
    fn steps_depend_on_busy_cores() {
        let t = turbo();
        assert_eq!(t.steps_for(0), 2);
        assert_eq!(t.steps_for(1), 2);
        assert_eq!(t.steps_for(2), 1);
        assert_eq!(t.steps_for(4), 1);
    }

    #[test]
    fn boost_arithmetic() {
        let t = turbo();
        let f = t.boosted_clock(Hertz::from_ghz(2.66), 2);
        assert!((f.value() - 2.926e9).abs() < 1.0);
        let v = t.boosted_voltage(Volts::new(1.38), 2);
        assert!((v.value() - 1.48).abs() < 1e-12);
        // Zero steps is the identity.
        assert_eq!(t.boosted_clock(Hertz::from_ghz(2.66), 0), Hertz::from_ghz(2.66));
    }
}
