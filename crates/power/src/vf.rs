//! Voltage/frequency operating curves.
//!
//! Each processor exposes a VID range (Table 3 of the paper) over which its
//! voltage regulator moves as the clock scales. The *shape* of V(f) is the
//! single most important determinant of how energy responds to clock
//! scaling (Section 3.3): a chip whose voltage climbs steeply toward its top
//! bin pays a quadratic dynamic-energy price for frequency (the i7-920 and
//! Core 2 E7600 behaviour), while a chip that reaches near-peak frequency on
//! a shallow upper slope is nearly energy-neutral to clock up (the i5-670).

use std::error::Error;
use std::fmt;

use lhr_units::{Hertz, Volts};

/// Error constructing a [`VfCurve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VfError {
    /// The frequency range was empty or inverted.
    BadFrequencyRange {
        /// Minimum supplied.
        min_hz: f64,
        /// Maximum supplied.
        max_hz: f64,
    },
    /// The voltage range was inverted or non-positive.
    BadVoltageRange {
        /// Minimum supplied.
        min_v: f64,
        /// Maximum supplied.
        max_v: f64,
    },
    /// The curvature exponent was not positive.
    BadExponent {
        /// The exponent supplied.
        exponent: f64,
    },
}

impl fmt::Display for VfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfError::BadFrequencyRange { min_hz, max_hz } => {
                write!(f, "invalid frequency range {min_hz}..{max_hz} Hz")
            }
            VfError::BadVoltageRange { min_v, max_v } => {
                write!(f, "invalid voltage range {min_v}..{max_v} V")
            }
            VfError::BadExponent { exponent } => {
                write!(f, "V(f) curvature exponent must be positive, got {exponent}")
            }
        }
    }
}

impl Error for VfError {}

/// A monotone V(f) curve over a chip's DVFS range.
///
/// `V(f) = Vmin + (Vmax - Vmin) x u^gamma` where `u` is the normalized
/// position of `f` in `[f_min, f_max]`. `gamma < 1` front-loads the voltage
/// climb (steep low-end, shallow top -- energy-friendly at peak clock);
/// `gamma > 1` back-loads it (the classic steep top bin).
///
/// ```
/// use lhr_power::VfCurve;
/// use lhr_units::{Hertz, Volts};
///
/// let curve = VfCurve::new(
///     Hertz::from_ghz(1.6), Hertz::from_ghz(2.66),
///     Volts::new(0.80), Volts::new(1.38),
///     1.6,
/// )?;
/// assert_eq!(curve.voltage_at(Hertz::from_ghz(1.6)), Volts::new(0.80));
/// assert_eq!(curve.voltage_at(Hertz::from_ghz(2.66)), Volts::new(1.38));
/// # Ok::<(), lhr_power::VfError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfCurve {
    f_min_hz: f64,
    f_max_hz: f64,
    v_min: f64,
    v_max: f64,
    gamma: f64,
}

impl VfCurve {
    /// Builds a curve.
    ///
    /// # Errors
    ///
    /// Returns a [`VfError`] if the frequency range is empty/inverted, the
    /// voltage range is non-positive/inverted, or `gamma <= 0`.
    pub fn new(
        f_min: Hertz,
        f_max: Hertz,
        v_min: Volts,
        v_max: Volts,
        gamma: f64,
    ) -> Result<Self, VfError> {
        if !(f_min.value() > 0.0 && f_max.value() > f_min.value()) {
            return Err(VfError::BadFrequencyRange {
                min_hz: f_min.value(),
                max_hz: f_max.value(),
            });
        }
        if !(v_min.value() > 0.0 && v_max.value() >= v_min.value()) {
            return Err(VfError::BadVoltageRange {
                min_v: v_min.value(),
                max_v: v_max.value(),
            });
        }
        if !(gamma > 0.0 && gamma.is_finite()) {
            return Err(VfError::BadExponent { exponent: gamma });
        }
        Ok(Self {
            f_min_hz: f_min.value(),
            f_max_hz: f_max.value(),
            v_min: v_min.value(),
            v_max: v_max.value(),
            gamma,
        })
    }

    /// A flat curve pinned at one voltage (fixed-voltage parts like the
    /// Pentium 4, whose VID is not software-visible in Table 3).
    #[must_use]
    pub fn fixed(f_min: Hertz, f_max: Hertz, v: Volts) -> Self {
        Self {
            f_min_hz: f_min.value(),
            f_max_hz: f_max.value().max(f_min.value() * (1.0 + 1e-9)),
            v_min: v.value(),
            v_max: v.value(),
            gamma: 1.0,
        }
    }

    /// The minimum supported clock.
    #[must_use]
    pub fn f_min(&self) -> Hertz {
        Hertz::new(self.f_min_hz)
    }

    /// The maximum supported clock (without Turbo).
    #[must_use]
    pub fn f_max(&self) -> Hertz {
        Hertz::new(self.f_max_hz)
    }

    /// The supply voltage at clock `f`, clamped to the supported range.
    #[must_use]
    pub fn voltage_at(&self, f: Hertz) -> Volts {
        let u = ((f.value() - self.f_min_hz) / (self.f_max_hz - self.f_min_hz))
            .clamp(0.0, 1.0);
        Volts::new(self.v_min + (self.v_max - self.v_min) * u.powf(self.gamma))
    }

    /// Evenly spaced operating points across the DVFS range, minimum and
    /// maximum inclusive. Used by the harness's clock-scaling sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn operating_points(&self, n: usize) -> Vec<(Hertz, Volts)> {
        assert!(n >= 2, "need at least the two endpoints");
        (0..n)
            .map(|i| {
                let u = i as f64 / (n - 1) as f64;
                let f = Hertz::new(self.f_min_hz + u * (self.f_max_hz - self.f_min_hz));
                (f, self.voltage_at(f))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(gamma: f64) -> VfCurve {
        VfCurve::new(
            Hertz::from_ghz(1.0),
            Hertz::from_ghz(3.0),
            Volts::new(0.8),
            Volts::new(1.4),
            gamma,
        )
        .unwrap()
    }

    #[test]
    fn endpoints_hit_vid_range() {
        let c = curve(1.0);
        assert_eq!(c.voltage_at(Hertz::from_ghz(1.0)), Volts::new(0.8));
        assert_eq!(c.voltage_at(Hertz::from_ghz(3.0)), Volts::new(1.4));
        assert_eq!(c.f_min(), Hertz::from_ghz(1.0));
        assert_eq!(c.f_max(), Hertz::from_ghz(3.0));
    }

    #[test]
    fn clamps_out_of_range_frequencies() {
        let c = curve(1.0);
        assert_eq!(c.voltage_at(Hertz::from_ghz(0.5)), Volts::new(0.8));
        assert_eq!(c.voltage_at(Hertz::from_ghz(9.9)), Volts::new(1.4));
    }

    #[test]
    fn monotone_nondecreasing() {
        for gamma in [0.5, 1.0, 2.0] {
            let c = curve(gamma);
            let pts = c.operating_points(16);
            for w in pts.windows(2) {
                assert!(w[1].1.value() >= w[0].1.value(), "gamma {gamma}");
            }
        }
    }

    #[test]
    fn gamma_shapes_the_curve() {
        let mid = Hertz::from_ghz(2.0);
        let front_loaded = curve(0.5).voltage_at(mid);
        let linear = curve(1.0).voltage_at(mid);
        let back_loaded = curve(2.0).voltage_at(mid);
        assert!(front_loaded.value() > linear.value());
        assert!(back_loaded.value() < linear.value());
        // Linear mid-point is the average of the endpoints.
        assert!((linear.value() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn operating_points_cover_range() {
        let pts = curve(1.3).operating_points(7);
        assert_eq!(pts.len(), 7);
        assert_eq!(pts[0].0, Hertz::from_ghz(1.0));
        assert_eq!(pts[6].0, Hertz::from_ghz(3.0));
    }

    #[test]
    fn fixed_curve_is_flat() {
        let c = VfCurve::fixed(Hertz::from_ghz(2.4), Hertz::from_ghz(2.4), Volts::new(1.5));
        assert_eq!(c.voltage_at(Hertz::from_ghz(2.4)), Volts::new(1.5));
        assert_eq!(c.voltage_at(Hertz::from_ghz(1.0)), Volts::new(1.5));
    }

    #[test]
    fn validation_errors() {
        let e = VfCurve::new(
            Hertz::from_ghz(2.0),
            Hertz::from_ghz(1.0),
            Volts::new(0.8),
            Volts::new(1.4),
            1.0,
        )
        .unwrap_err();
        assert!(matches!(e, VfError::BadFrequencyRange { .. }));
        let e = VfCurve::new(
            Hertz::from_ghz(1.0),
            Hertz::from_ghz(2.0),
            Volts::new(1.4),
            Volts::new(0.8),
            1.0,
        )
        .unwrap_err();
        assert!(matches!(e, VfError::BadVoltageRange { .. }));
        let e = VfCurve::new(
            Hertz::from_ghz(1.0),
            Hertz::from_ghz(2.0),
            Volts::new(0.8),
            Volts::new(1.4),
            0.0,
        )
        .unwrap_err();
        assert!(matches!(e, VfError::BadExponent { .. }));
        assert!(format!("{e}").contains("exponent"));
    }

    #[test]
    #[should_panic(expected = "at least the two endpoints")]
    fn one_point_sweep_panics() {
        let _ = curve(1.0).operating_points(1);
    }
}
