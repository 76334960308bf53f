//! Observability for the `lhr` measurement pipeline: spans, counters, and
//! histograms behind a pluggable [`Recorder`] with a no-op default.
//!
//! # Paper layer
//!
//! The source study's credibility rests on knowing exactly what the
//! sensing rig and harness did on every run — how many invocations were
//! retried, when a channel was recalibrated, which sweep cells degraded.
//! The paper's lab kept that record by hand; RAPL-overhead studies since
//! have shown the hard part is doing it *without perturbing the
//! measurement*. This crate is that lab notebook as code: the pipeline
//! (`lhr-sensors`, `lhr-core`, the `lhr-bench` binaries) emits structured
//! events through an [`Obs`] handle, and what happens to them is decided
//! entirely by the recorder armed at the edge.
//!
//! # Guarantees
//!
//! * **Zero perturbation.** The default handle ([`Obs::none`]) holds no
//!   recorder: every instrumentation call is a branch on a `None` that
//!   the optimizer removes. No allocation, no I/O, no clock reads. With
//!   any recorder armed, instrumentation only *observes* values already
//!   computed — it never changes a measured number (locked in by a
//!   byte-identity test over regenerated experiment outputs and a
//!   Criterion overhead bench).
//! * **No external dependencies.** Spans, counters, histograms, JSON
//!   encoding, Prometheus exposition, and aggregation use only `std`.
//! * **Thread safety.** A [`Recorder`] is `Send + Sync`; one handle is
//!   shared by every sweep worker thread.
//!
//! # Live telemetry
//!
//! Beyond the core stream, the crate ships the pieces a long-running
//! server needs: [`TimeSeriesRecorder`] folds events into a windowed
//! ring of interval buckets (`/v1/metrics/timeseries`); [`prom`]
//! renders a [`MetricsSnapshot`] in the Prometheus text exposition
//! format and parses it back for validation; [`slo`] computes
//! multi-window error-budget burn rates with a hysteresis alert state
//! machine; and [`context`] threads a request id and span parentage
//! through every event so `lhr_traceview` can rebuild per-request span
//! trees from a trace file.
//!
//! # Durable records
//!
//! [`sealed`] holds the one record format every durable file in the
//! workspace uses (checksummed JSON lines), the readers that invert
//! [`push_json_string`] and [`push_json_number`], and the crash-safe
//! whole-file write.
//!
//! # Example: a custom recorder
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//! use lhr_obs::{Event, EventKind, Obs, Recorder};
//!
//! /// Counts retry events and ignores everything else.
//! #[derive(Default)]
//! struct RetryCounter(AtomicU64);
//!
//! impl Recorder for RetryCounter {
//!     fn record(&self, event: &Event<'_>) {
//!         if let EventKind::Counter { delta } = event.kind {
//!             if event.name == "runner.retries" {
//!                 self.0.fetch_add(delta, Ordering::Relaxed);
//!             }
//!         }
//!     }
//! }
//!
//! let counter = Arc::new(RetryCounter::default());
//! let obs = Obs::recording(counter.clone());
//! obs.counter("runner.retries", 3);
//! obs.counter("runner.cache_hits", 1); // ignored by this recorder
//! assert_eq!(counter.0.load(Ordering::Relaxed), 3);
//!
//! // The default handle drops everything on the floor, for free.
//! let silent = Obs::none();
//! assert!(!silent.enabled());
//! silent.counter("runner.retries", 1_000_000); // no-op
//! ```
//!
//! # Example: spans and the in-memory aggregator
//!
//! ```
//! use std::sync::Arc;
//! use lhr_obs::{MemoryRecorder, Obs};
//!
//! let memory = Arc::new(MemoryRecorder::default());
//! let obs = Obs::recording(memory.clone());
//! {
//!     let _span = obs.span("experiment.table4"); // ends when dropped
//!     obs.histogram("rig.sample_yield", 0.98);
//! }
//! let snapshot = memory.snapshot();
//! assert_eq!(snapshot.spans["experiment.table4"].count, 1);
//! assert!((snapshot.histograms["rig.sample_yield"].mean() - 0.98).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
mod event;
mod json;
mod memory;
pub mod prom;
mod recorder;
pub mod sealed;
pub mod slo;
mod snapshot;
#[cfg(test)]
mod testing;
mod timeseries;

pub use event::{Event, EventKind};
pub use json::{push_json_number, push_json_string, JsonLinesRecorder};
pub use memory::MemoryRecorder;
pub use recorder::{Obs, Recorder, Span, Tee};
pub use slo::{AlertState, SloConfig, SloStatus, SloTracker};
pub use snapshot::{Exemplar, HistogramSummary, MetricsSnapshot, SpanStats};
pub use timeseries::{
    BucketSnapshot, SeriesSnapshot, TimeSeriesConfig, TimeSeriesRecorder, TimeSeriesSnapshot,
};
