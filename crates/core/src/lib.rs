//! The experiment harness: every table and figure of the study,
//! regenerated end to end.
//!
//! This crate ties the substrates together -- the workload suite
//! (`lhr-workloads`), the processor simulator (`lhr-uarch`), the power
//! model (`lhr-power`), and the sensing rig (`lhr-sensors`) -- into the
//! paper's methodology:
//!
//! * [`Runner`]: repeated invocations (3/5/20 per suite) measured through
//!   a calibrated Hall-effect rig,
//! * [`ReferenceSet`]: the four-machine reference time/energy
//!   normalization of Section 2.6,
//! * [`Harness`] / [`GroupMetrics`]: equal-group-weight aggregation,
//! * [`configs`]: the 45-configuration study space and the 29-point 45nm
//!   Pareto space,
//! * [`experiments`]: one module per table and figure (Tables 1-5,
//!   Figures 1-12), each rendering the paper's rows/series,
//! * report helpers ([`Table`], [`fmt2`], [`fmt_pct`]): text tables and
//!   csv, mirroring the paper's published companion data,
//! * [`journal`]: the campaign write-ahead journal of resolved cells that
//!   both campaign engines (the offline driver and the server) persist
//!   and resume through.
//!
//! The runner and harness double as the study's lab notebook: arm an
//! `lhr-obs` observer ([`Runner::with_observer`] /
//! [`Harness::with_observer`]) and every measurement, cache hit, retry,
//! recalibration, outlier re-run, cell wall time, degraded cell, and
//! contained worker panic is reported as a structured event -- without
//! changing a single measured byte (the default observer is a no-op).
//!
//! # Example
//!
//! ```no_run
//! use lhr_core::{Harness, Runner};
//! use lhr_uarch::{ChipConfig, ProcessorId};
//!
//! let harness = Harness::new(Runner::new());
//! let metrics = harness.group_metrics(&ChipConfig::stock(ProcessorId::CoreI7_920.spec()));
//! println!("i7 (45) weighted perf: {:.2}", metrics.perf_w);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod configs;
mod error;
pub mod experiments;
mod harness;
pub mod journal;
mod reference;
mod report;
mod runner;
mod sink;
mod supervisor;

pub use cache::{CachedCell, CellCache, CellKey, ShardedLruCache, UnboundedCache};
pub use error::{MeasureError, MeasureErrorKind, MeasureHealth, RunnerHealth};
pub use harness::{CellHealth, CellReport, Evaluation, GroupMetrics, Harness, SweepHealth, SweepReport};
pub use reference::{ReferenceSet, REFERENCE_PROCESSORS};
pub use report::{fmt2, fmt_pct, Table};
pub use runner::{RunMeasurement, Runner, DEFAULT_RETRY_BUDGET};
pub use sink::CellSink;
pub use supervisor::{
    grid_units, AbortHandle, CampaignReport, CampaignSink, CampaignUnit, RetryPolicy, Supervisor,
    UnitOutcome, UnitReport,
};
