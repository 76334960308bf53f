//! The simulated power-measurement rig.
//!
//! Section 2.5 of the paper: each machine's processor has an isolated 12V
//! supply on the motherboard; a Pololu ACS714 Hall-effect current sensor on
//! that rail feeds an AVR data logger sampling at 50 Hz; the meters are
//! calibrated with 28 reference currents between 300 mA and 3 A, each
//! producing a quantized integer output (range 400-503), fit with a line at
//! R-squared 0.999 or better; per-sample error is about 1%.
//!
//! This crate rebuilds that rig against the simulated chip's power
//! waveform: a [`HallSensor`] with gain/offset imperfection and noise, an
//! [`Adc`] quantizing to the same integer scale, a [`DataLogger`] sampling
//! at 50 Hz, [`Calibration`] reproducing the reference-current procedure,
//! and a [`MeasurementRig`] tying them together so every wattage the
//! harness reports has passed through the same pipeline the paper's did.
//!
//! The rig also carries a deterministic fault-injection layer
//! ([`faults`]): seeded saturation, thermal drift, stuck ADC codes,
//! transient spikes, and dropped logger samples, with a validating
//! [`MeasurementRig::try_measure`] path that audits every run
//! ([`QualityReport`] / [`QualityPolicy`]) and returns typed
//! [`SensorError`]s instead of panicking. A rig with no fault plan
//! measures bit-for-bit identically to one without the layer at all.
//!
//! A fault-free rig measures through one streaming pass,
//! [`MeasurementRig::measure_batch`]: every run on a rig replays the
//! same sensor-noise stream, so a batch of runs shares each noise draw,
//! and nothing is stored per sample. The pass computes noise from small
//! tables within a proven bound of libm's value and falls back to libm
//! for a sample that lands within that bound of an ADC code edge, so
//! every code it logs is the per-sample path's.
//! [`MeasurementRig::measure_reference`] keeps the per-sample path as
//! its oracle.
//!
//! The rig keeps a lab notebook too: arm an `lhr-obs` observer
//! ([`MeasurementRig::with_observer`]) and it reports per-run sample
//! yield and drift codes, fault activations, rejections, and
//! recalibration outcomes as structured events. The default observer
//! drops everything for free, and an armed one never changes a measured
//! number.
//!
//! # Example
//!
//! ```
//! use lhr_sensors::MeasurementRig;
//! use lhr_power::PowerWaveform;
//! use lhr_units::{Seconds, Watts};
//!
//! let mut w = PowerWaveform::new(Seconds::from_ms(20.0));
//! for _ in 0..200 {
//!     w.push(Watts::new(26.0)); // a steady 26 W chip
//! }
//! let rig = MeasurementRig::for_max_power(Watts::new(60.0), 42)?;
//! let (m, samples) = rig.measure_reference(&w);
//! let err = (m.average_power.value() - 26.0).abs() / 26.0;
//! assert!(err < 0.02, "measured within ~1-2%");
//! assert_eq!(samples.len(), 200); // 4 s at 50 Hz
//! # Ok::<(), lhr_sensors::CalibrationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod calibration;
mod error;
pub mod faults;
mod hall;
mod logger;
mod noise;
mod quality;
mod rig;

pub use adc::Adc;
pub use calibration::{Calibration, CalibrationError};
pub use error::SensorError;
pub use faults::{FaultInjector, FaultPlan, FaultSession, Stall};
pub use hall::HallSensor;
pub use logger::DataLogger;
pub use quality::{QualityPolicy, QualityReport};
pub use rig::{Measurement, MeasurementRig};
