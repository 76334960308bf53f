//! Processor configuration: the paper's BIOS-level controlled experiments.
//!
//! Section 2.8: "We evaluate the eight stock processors and configure them
//! for a total of 45 processor configurations ... We selectively down-clock
//! the processors, disable cores, disable simultaneous multithreading (SMT),
//! and disable Turbo Boost." [`ChipConfig`] is the typed equivalent of those
//! BIOS switches, validated against each chip's capabilities.

use std::error::Error;
use std::fmt;

use lhr_units::{Hertz, Volts};

use crate::catalog::ProcessorSpec;

/// Error producing an invalid [`ChipConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Asked for more cores than the chip has (or zero).
    BadCoreCount {
        /// Cores requested.
        requested: usize,
        /// Cores available.
        available: usize,
    },
    /// Asked for SMT on a chip without it.
    SmtUnavailable,
    /// Clock outside the chip's supported DVFS range.
    ClockOutOfRange {
        /// Requested clock in Hz.
        requested_hz: f64,
        /// Supported minimum in Hz.
        min_hz: f64,
        /// Supported maximum in Hz.
        max_hz: f64,
    },
    /// Turbo requested on a chip without it, or below the top clock bin
    /// (Turbo only engages at the highest clock setting).
    TurboUnavailable,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadCoreCount {
                requested,
                available,
            } => write!(f, "requested {requested} cores, chip has {available}"),
            ConfigError::SmtUnavailable => write!(f, "chip does not support SMT"),
            ConfigError::ClockOutOfRange {
                requested_hz,
                min_hz,
                max_hz,
            } => write!(
                f,
                "clock {requested_hz} Hz outside supported range {min_hz}..{max_hz} Hz"
            ),
            ConfigError::TurboUnavailable => {
                write!(f, "Turbo Boost unavailable (no turbo, or clock below top bin)")
            }
        }
    }
}

impl Error for ConfigError {}

/// A validated processor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    spec: &'static ProcessorSpec,
    active_cores: usize,
    smt: bool,
    clock: Hertz,
    turbo: bool,
}

impl ChipConfig {
    /// The chip as shipped: all cores, SMT if present, stock clock, Turbo
    /// if present.
    #[must_use]
    pub fn stock(spec: &'static ProcessorSpec) -> Self {
        Self {
            spec,
            active_cores: spec.cores,
            smt: spec.smt_ways > 1,
            clock: spec.base_clock,
            turbo: spec.power.turbo.is_some(),
        }
    }

    /// Limits the number of enabled cores.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadCoreCount`] if `n` is zero or exceeds the chip.
    pub fn with_cores(mut self, n: usize) -> Result<Self, ConfigError> {
        if n == 0 || n > self.spec.cores {
            return Err(ConfigError::BadCoreCount {
                requested: n,
                available: self.spec.cores,
            });
        }
        self.active_cores = n;
        Ok(self)
    }

    /// Enables or disables SMT.
    ///
    /// # Errors
    ///
    /// [`ConfigError::SmtUnavailable`] when enabling SMT on a non-SMT chip.
    pub fn with_smt(mut self, smt: bool) -> Result<Self, ConfigError> {
        if smt && self.spec.smt_ways < 2 {
            return Err(ConfigError::SmtUnavailable);
        }
        self.smt = smt;
        Ok(self)
    }

    /// Sets the clock. Turbo is implicitly disabled when the clock drops
    /// below the top bin (matching real BIOS semantics).
    ///
    /// # Errors
    ///
    /// [`ConfigError::ClockOutOfRange`] outside `[min_clock, base_clock]`.
    pub fn with_clock(mut self, clock: Hertz) -> Result<Self, ConfigError> {
        let lo = self.spec.min_clock.value() - 1.0;
        let hi = self.spec.base_clock.value() + 1.0;
        // A NaN clock falls outside every range.
        if !(lo..=hi).contains(&clock.value()) {
            return Err(ConfigError::ClockOutOfRange {
                requested_hz: clock.value(),
                min_hz: self.spec.min_clock.value(),
                max_hz: self.spec.base_clock.value(),
            });
        }
        self.clock = clock;
        if clock.value() + 1.0 < self.spec.base_clock.value() {
            self.turbo = false;
        }
        Ok(self)
    }

    /// Enables or disables Turbo Boost.
    ///
    /// # Errors
    ///
    /// [`ConfigError::TurboUnavailable`] when enabling Turbo on a chip
    /// without it or while down-clocked.
    pub fn with_turbo(mut self, turbo: bool) -> Result<Self, ConfigError> {
        if turbo
            && (self.spec.power.turbo.is_none()
                || self.clock.value() + 1.0 < self.spec.base_clock.value())
        {
            return Err(ConfigError::TurboUnavailable);
        }
        self.turbo = turbo;
        Ok(self)
    }

    /// The underlying processor.
    #[must_use]
    pub fn spec(&self) -> &'static ProcessorSpec {
        self.spec
    }

    /// Enabled cores.
    #[must_use]
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    /// Whether SMT is enabled.
    #[must_use]
    pub fn smt_enabled(&self) -> bool {
        self.smt
    }

    /// SMT slots per enabled core (1 or the chip's SMT width).
    #[must_use]
    pub fn threads_per_core(&self) -> usize {
        if self.smt {
            self.spec.smt_ways
        } else {
            1
        }
    }

    /// Total hardware contexts exposed to software.
    #[must_use]
    pub fn contexts(&self) -> usize {
        self.active_cores * self.threads_per_core()
    }

    /// The configured clock.
    #[must_use]
    pub fn clock(&self) -> Hertz {
        self.clock
    }

    /// Whether Turbo Boost is enabled.
    #[must_use]
    pub fn turbo_enabled(&self) -> bool {
        self.turbo
    }

    /// The non-boosted supply voltage at the configured clock.
    #[must_use]
    pub fn voltage(&self) -> Volts {
        self.spec.voltage_at(self.clock)
    }

    /// The Table 5-style label, e.g. `i7 (45) 4C2T@2.7GHz No TB`.
    #[must_use]
    pub fn label(&self) -> String {
        let t = if self.smt { self.spec.smt_ways } else { 1 };
        let mut s = format!(
            "{} {}C{}T@{:.1}GHz",
            self.spec.short,
            self.active_cores,
            t,
            self.clock.as_ghz()
        );
        if self.spec.power.turbo.is_some()
            && !self.turbo
            && (self.clock.value() + 1.0 >= self.spec.base_clock.value())
        {
            s.push_str(" No TB");
        }
        s
    }
}

impl fmt::Display for ChipConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ProcessorId;

    #[test]
    fn stock_matches_table3() {
        let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
        assert_eq!(i7.active_cores(), 4);
        assert!(i7.smt_enabled());
        assert!(i7.turbo_enabled());
        assert_eq!(i7.contexts(), 8);
        assert_eq!(i7.label(), "i7 (45) 4C2T@2.7GHz");

        let c2d = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
        assert!(!c2d.smt_enabled());
        assert!(!c2d.turbo_enabled());
        assert_eq!(c2d.contexts(), 2);
    }

    #[test]
    fn disabling_features() {
        let cfg = ChipConfig::stock(ProcessorId::CoreI7_920.spec())
            .with_cores(1)
            .unwrap()
            .with_smt(false)
            .unwrap()
            .with_turbo(false)
            .unwrap();
        assert_eq!(cfg.contexts(), 1);
        assert_eq!(cfg.label(), "i7 (45) 1C1T@2.7GHz No TB");
    }

    #[test]
    fn downclocking_disables_turbo() {
        let cfg = ChipConfig::stock(ProcessorId::CoreI5_670.spec())
            .with_clock(Hertz::from_ghz(1.2))
            .unwrap();
        assert!(!cfg.turbo_enabled());
        // And turbo cannot be re-enabled while down-clocked.
        assert_eq!(cfg.with_turbo(true), Err(ConfigError::TurboUnavailable));
    }

    #[test]
    fn validation_errors() {
        let spec = ProcessorId::Core2DuoE6600.spec();
        let stock = ChipConfig::stock(spec);
        assert!(matches!(
            stock.clone().with_cores(3),
            Err(ConfigError::BadCoreCount { .. })
        ));
        assert!(matches!(
            stock.clone().with_cores(0),
            Err(ConfigError::BadCoreCount { .. })
        ));
        assert_eq!(stock.clone().with_smt(true), Err(ConfigError::SmtUnavailable));
        assert!(matches!(
            stock.clone().with_clock(Hertz::from_ghz(9.0)),
            Err(ConfigError::ClockOutOfRange { .. })
        ));
        assert!(matches!(
            stock.clone().with_clock(Hertz::new(f64::NAN)),
            Err(ConfigError::ClockOutOfRange { .. })
        ));
        assert_eq!(stock.with_turbo(true), Err(ConfigError::TurboUnavailable));
    }

    #[test]
    fn voltage_follows_clock() {
        let spec = ProcessorId::CoreI7_920.spec();
        let hi = ChipConfig::stock(spec);
        let lo = hi.clone().with_clock(spec.min_clock).unwrap();
        assert!(hi.voltage().value() > lo.voltage().value());
    }

    #[test]
    fn error_messages() {
        let e = ConfigError::BadCoreCount {
            requested: 9,
            available: 4,
        };
        assert!(format!("{e}").contains("9"));
        assert!(format!("{}", ConfigError::SmtUnavailable).contains("SMT"));
    }

    #[test]
    fn display_is_label() {
        let cfg = ChipConfig::stock(ProcessorId::Atom230.spec());
        assert_eq!(format!("{cfg}"), cfg.label());
        assert_eq!(cfg.label(), "Atom (45) 1C2T@1.7GHz");
    }
}
