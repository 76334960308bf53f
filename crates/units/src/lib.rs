//! Physical-quantity newtypes for the `lhr` measurement stack.
//!
//! The paper this project reproduces ("Looking Back on the Language and
//! Hardware Revolutions", ASPLOS 2011) is above all a *measurement* study:
//! every headline number is a wattage, an energy, a frequency, or a ratio of
//! those. Mixing those up in raw `f64`s is exactly the class of bug a
//! measurement harness cannot afford, so every quantity that crosses a crate
//! boundary in this workspace is a newtype from this crate.
//!
//! # Example
//!
//! ```
//! use lhr_units::{Seconds, Watts, Joules, Hertz};
//!
//! let run = Seconds::new(629.0);            // libquantum reference time
//! let draw = Watts::new(23.0);              // i7 floor on SPEC CPU2006
//! let energy: Joules = draw * run;          // energy = power x time
//! assert!((energy.value() - 14_467.0).abs() < 1e-9);
//!
//! let clock = Hertz::from_ghz(2.66);
//! assert_eq!(clock.as_ghz(), 2.66);
//! assert!((clock.period().value() - 1.0 / 2.66e9).abs() < 1e-24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared surface of a scalar physical quantity.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw value expressed in the base unit.
            #[inline]
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base unit.
            #[inline]
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[inline]
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the quantity to the inclusive `[lo, hi]` range.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi` or either bound is NaN, as for
            /// [`f64::clamp`].
            #[inline]
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Returns `true` when the underlying value is finite.
            #[inline]
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Dimensionless ratio of two like quantities.
            ///
            /// Returns `self / denom` as a bare `f64`, the form every
            /// normalized figure in the paper is expressed in.
            #[inline]
            #[must_use]
            pub fn ratio(self, denom: Self) -> f64 {
                self.0 / denom.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match f.precision() {
                    Some(p) => write!(f, "{:.*} {}", p, self.0, $unit),
                    None => write!(f, "{} {}", self.0, $unit),
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            /// Like-by-like division yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl From<$name> for f64 {
            #[inline]
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity!(
    /// A duration in seconds.
    Seconds,
    "s"
);

quantity!(
    /// A frequency in hertz.
    Hertz,
    "Hz"
);

quantity!(
    /// Electrical power in watts.
    Watts,
    "W"
);

quantity!(
    /// Energy in joules.
    Joules,
    "J"
);

quantity!(
    /// Electrical potential in volts.
    Volts,
    "V"
);

quantity!(
    /// Electrical current in amperes.
    Amperes,
    "A"
);

impl Seconds {
    /// Constructs a duration from milliseconds.
    #[must_use]
    pub fn from_ms(ms: f64) -> Self {
        Self::new(ms * 1e-3)
    }

    /// Returns the duration expressed in milliseconds.
    #[must_use]
    pub fn as_ms(self) -> f64 {
        self.value() * 1e3
    }

    /// Constructs a duration from nanoseconds.
    #[must_use]
    pub fn from_ns(ns: f64) -> Self {
        Self::new(ns * 1e-9)
    }

    /// Returns the duration expressed in nanoseconds.
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.value() * 1e9
    }
}

impl Hertz {
    /// Constructs a frequency from gigahertz.
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Self::new(ghz * 1e9)
    }

    /// Returns the frequency expressed in gigahertz.
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.value() * 1e-9
    }

    /// Constructs a frequency from megahertz.
    #[must_use]
    pub fn from_mhz(mhz: f64) -> Self {
        Self::new(mhz * 1e6)
    }

    /// Returns the frequency expressed in megahertz.
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.value() * 1e-6
    }

    /// The period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Does not panic, but returns an infinite duration for a zero frequency.
    #[must_use]
    pub fn period(self) -> Seconds {
        Seconds::new(1.0 / self.value())
    }
}

impl Watts {
    /// Constructs power from milliwatts.
    #[must_use]
    pub fn from_mw(mw: f64) -> Self {
        Self::new(mw * 1e-3)
    }

    /// Returns the power expressed in milliwatts.
    #[must_use]
    pub fn as_mw(self) -> f64 {
        self.value() * 1e3
    }
}

impl Joules {
    /// Average power over an interval: `energy / time`.
    #[must_use]
    pub fn over(self, span: Seconds) -> Watts {
        Watts::new(self.value() / span.value())
    }
}

impl Amperes {
    /// Constructs current from milliamperes.
    #[must_use]
    pub fn from_ma(ma: f64) -> Self {
        Self::new(ma * 1e-3)
    }

    /// Returns the current expressed in milliamperes.
    #[must_use]
    pub fn as_ma(self) -> f64 {
        self.value() * 1e3
    }
}

impl Volts {
    /// Constructs potential from millivolts.
    #[must_use]
    pub fn from_mv(mv: f64) -> Self {
        Self::new(mv * 1e-3)
    }

    /// Returns the potential expressed in millivolts.
    #[must_use]
    pub fn as_mv(self) -> f64 {
        self.value() * 1e3
    }
}

// --- Cross-dimension arithmetic -------------------------------------------

impl Mul<Seconds> for Watts {
    type Output = Joules;
    /// Energy is power integrated over time.
    #[inline]
    fn mul(self, rhs: Seconds) -> Joules {
        Joules::new(self.value() * rhs.value())
    }
}

impl Mul<Watts> for Seconds {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Seconds> for Joules {
    type Output = Watts;
    /// Average power over an interval.
    #[inline]
    fn div(self, rhs: Seconds) -> Watts {
        Watts::new(self.value() / rhs.value())
    }
}

impl Div<Watts> for Joules {
    type Output = Seconds;
    /// The time over which a power level accumulates this energy.
    #[inline]
    fn div(self, rhs: Watts) -> Seconds {
        Seconds::new(self.value() / rhs.value())
    }
}

impl Mul<Amperes> for Volts {
    type Output = Watts;
    /// Electrical power: `P = V x I`.
    #[inline]
    fn mul(self, rhs: Amperes) -> Watts {
        Watts::new(self.value() * rhs.value())
    }
}

impl Mul<Volts> for Amperes {
    type Output = Watts;
    #[inline]
    fn mul(self, rhs: Volts) -> Watts {
        rhs * self
    }
}

impl Div<Volts> for Watts {
    type Output = Amperes;
    /// Current drawn at a supply voltage: `I = P / V`.
    #[inline]
    fn div(self, rhs: Volts) -> Amperes {
        Amperes::new(self.value() / rhs.value())
    }
}

impl Div<Amperes> for Watts {
    type Output = Volts;
    /// Potential at a current draw: `V = P / I`.
    #[inline]
    fn div(self, rhs: Amperes) -> Volts {
        Volts::new(self.value() / rhs.value())
    }
}

/// A semiconductor process technology node.
///
/// The study spans exactly these four nodes (Table 3 of the paper); modelling
/// them as an enum keeps impossible nodes unrepresentable and gives each a
/// place to hang its scaling parameters.
///
/// ```
/// use lhr_units::TechNode;
///
/// assert!(TechNode::Nm32 < TechNode::Nm130); // finer nodes sort first
/// assert_eq!(TechNode::Nm45.nanometers(), 45.0);
/// assert_eq!(TechNode::Nm130.shrink(), Some(TechNode::Nm90));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TechNode {
    /// 32 nm (2010; the Core i5-670 "Clarkdale").
    Nm32,
    /// 45 nm (2008-09; i7-920, Atom 230/D510, Core 2 Duo E7600).
    Nm45,
    /// 65 nm (2006-07; Core 2 Duo E6600, Core 2 Quad Q6600).
    Nm65,
    /// 90 nm (not measured in the study -- no isolated supply rail -- but
    /// present so die-shrink chains are complete).
    Nm90,
    /// 130 nm (2003; the Pentium 4 "Northwood").
    Nm130,
}

impl TechNode {
    /// All nodes used by the study's processors, coarse to fine.
    pub const STUDIED: [TechNode; 4] =
        [TechNode::Nm130, TechNode::Nm65, TechNode::Nm45, TechNode::Nm32];

    /// The feature size in nanometers.
    #[must_use]
    pub fn nanometers(self) -> f64 {
        match self {
            TechNode::Nm32 => 32.0,
            TechNode::Nm45 => 45.0,
            TechNode::Nm65 => 65.0,
            TechNode::Nm90 => 90.0,
            TechNode::Nm130 => 130.0,
        }
    }

    /// The next finer node, if any (one "die shrink" step).
    #[must_use]
    pub fn shrink(self) -> Option<TechNode> {
        match self {
            TechNode::Nm130 => Some(TechNode::Nm90),
            TechNode::Nm90 => Some(TechNode::Nm65),
            TechNode::Nm65 => Some(TechNode::Nm45),
            TechNode::Nm45 => Some(TechNode::Nm32),
            TechNode::Nm32 => None,
        }
    }

    /// The linear scale factor relative to another node.
    ///
    /// A 130nm -> 65nm comparison yields 2.0: features are twice as large on
    /// the older node.
    #[must_use]
    pub fn linear_scale_vs(self, other: TechNode) -> f64 {
        self.nanometers() / other.nanometers()
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.nanometers() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(10.0) * Seconds::new(3.0);
        assert_eq!(e, Joules::new(30.0));
    }

    #[test]
    fn time_times_power_commutes() {
        assert_eq!(Seconds::new(3.0) * Watts::new(10.0), Joules::new(30.0));
    }

    #[test]
    fn energy_over_time_is_power() {
        assert_eq!(Joules::new(30.0) / Seconds::new(3.0), Watts::new(10.0));
        assert_eq!(Joules::new(30.0).over(Seconds::new(3.0)), Watts::new(10.0));
    }

    #[test]
    fn energy_over_power_is_time() {
        assert_eq!(Joules::new(30.0) / Watts::new(10.0), Seconds::new(3.0));
    }

    #[test]
    fn volts_times_amps_is_watts() {
        let p = Volts::new(12.0) * Amperes::new(2.5);
        assert_eq!(p, Watts::new(30.0));
        assert_eq!(Amperes::new(2.5) * Volts::new(12.0), p);
    }

    #[test]
    fn watts_over_volts_is_amps() {
        assert_eq!(Watts::new(30.0) / Volts::new(12.0), Amperes::new(2.5));
        assert_eq!(Watts::new(30.0) / Amperes::new(2.5), Volts::new(12.0));
    }

    #[test]
    fn like_division_is_dimensionless() {
        let r: f64 = Watts::new(89.0) / Watts::new(23.0);
        assert!((r - 89.0 / 23.0).abs() < 1e-12);
        assert_eq!(Watts::new(89.0).ratio(Watts::new(23.0)), r);
    }

    #[test]
    fn scalar_multiplication_both_sides() {
        assert_eq!(Watts::new(2.0) * 3.0, Watts::new(6.0));
        assert_eq!(3.0 * Watts::new(2.0), Watts::new(6.0));
        assert_eq!(Watts::new(6.0) / 3.0, Watts::new(2.0));
    }

    #[test]
    fn additive_group_behaviour() {
        let mut w = Watts::new(1.0);
        w += Watts::new(2.0);
        assert_eq!(w, Watts::new(3.0));
        w -= Watts::new(0.5);
        assert_eq!(w, Watts::new(2.5));
        assert_eq!(-w, Watts::new(-2.5));
        assert_eq!(Watts::new(1.0) + Watts::new(2.0) - Watts::new(3.0), Watts::ZERO);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Joules = (1..=4).map(|i| Joules::new(f64::from(i))).sum();
        assert_eq!(total, Joules::new(10.0));
    }

    #[test]
    fn unit_conversions_round_trip() {
        assert!((Seconds::from_ms(1500.0).value() - 1.5).abs() < 1e-12);
        assert!((Seconds::new(1.5).as_ms() - 1500.0).abs() < 1e-9);
        assert!((Seconds::from_ns(5.0).as_ns() - 5.0).abs() < 1e-12);
        assert!((Hertz::from_ghz(2.4).as_mhz() - 2400.0).abs() < 1e-6);
        assert!((Watts::from_mw(185.0).as_mw() - 185.0).abs() < 1e-9);
        assert!((Amperes::from_ma(300.0).value() - 0.3).abs() < 1e-12);
        assert!((Volts::from_mv(2500.0).value() - 2.5).abs() < 1e-12);
        assert!((Volts::new(2.5).as_mv() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn period_inverts_frequency() {
        let f = Hertz::from_ghz(2.0);
        assert!((f.period().as_ns() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit_and_precision() {
        assert_eq!(format!("{:.1}", Watts::new(44.06)), "44.1 W");
        assert_eq!(format!("{}", Seconds::new(2.0)), "2 s");
        assert_eq!(format!("{:.2}", Amperes::new(1.0 / 3.0)), "0.33 A");
        assert_eq!(format!("{}", TechNode::Nm45), "45nm");
    }

    #[test]
    fn min_max_clamp_abs() {
        let a = Watts::new(-4.0);
        assert_eq!(a.abs(), Watts::new(4.0));
        assert_eq!(a.min(Watts::ZERO), a);
        assert_eq!(a.max(Watts::ZERO), Watts::ZERO);
        assert_eq!(
            Watts::new(7.0).clamp(Watts::ZERO, Watts::new(5.0)),
            Watts::new(5.0)
        );
    }

    #[test]
    fn tech_node_ordering_and_scale() {
        assert!(TechNode::Nm32 < TechNode::Nm45);
        assert!(TechNode::Nm45 < TechNode::Nm65);
        assert!(TechNode::Nm65 < TechNode::Nm130);
        assert!((TechNode::Nm130.linear_scale_vs(TechNode::Nm65) - 2.0).abs() < 1e-12);
        assert_eq!(TechNode::Nm45.shrink(), Some(TechNode::Nm32));
        assert_eq!(TechNode::Nm32.shrink(), None);
        assert_eq!(TechNode::STUDIED.len(), 4);
    }

    #[test]
    fn finite_checks() {
        assert!(Watts::new(1.0).is_finite());
        assert!(!Watts::new(f64::INFINITY).is_finite());
        assert!(!(Joules::new(f64::NAN)).is_finite());
    }

    #[test]
    fn value_round_trips_through_its_text() {
        // A quantity's text form is the bare number, and parsing that
        // text back recovers the same quantity.
        let w = Watts::new(42.5);
        let json = format!("{}", w.value());
        assert_eq!(json, "42.5");
        let back = Watts::new(json.parse::<f64>().unwrap());
        assert_eq!(back, w);
    }
}
