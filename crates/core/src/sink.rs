//! The cell sink: an observer for resolved measurement cells.
//!
//! A sink receives every successfully normalized evaluation the harness
//! produces -- through the parallel cell path
//! ([`Harness::try_evaluate_config`](crate::Harness::try_evaluate_config))
//! and the per-unit campaign path
//! ([`Harness::try_evaluate_workload`](crate::Harness::try_evaluate_workload))
//! alike -- so a persistence layer (the `lhr-store` columnar store) can
//! record results without the engine knowing about storage.
//!
//! The contract is strictly observational: a sink returns nothing and
//! must never influence a measured value. Evaluations arrive in the
//! harness's workload order, which is also the order every downstream
//! aggregate (`lhr_stats::arithmetic_mean`) sums in -- a sink that
//! preserves arrival order can therefore reproduce the harness's
//! aggregates bit for bit.

use lhr_uarch::ChipConfig;

use crate::harness::Evaluation;

/// An observer for resolved cells. Implementations run on the
/// measurement thread, after the cell resolves and before the harness
/// returns it (a server's client waits for them), so they must be cheap
/// relative to a simulation, and must swallow their own failures:
/// persistence is a byproduct, the measurement is the product.
///
/// Measured on a 2-vCPU VM with ext4 on virtio (`lhr_e2e --trace 1`,
/// `routed_cold`): the `lhr-store` sink's one-row upsert, one sealed
/// line and one fsync, took 0.08–0.10 ms p50 against 0.07–0.6 ms for
/// the Quick cell it records. Its per-column predecessor, 19 fsyncs,
/// took 1.3–2.0 ms.
pub trait CellSink: Send + Sync + std::fmt::Debug {
    /// Called once per resolved cell (or per resolved unit on the
    /// campaign path) with the successful evaluations in workload order.
    /// Failed workloads are simply absent.
    fn record_cell(&self, config: &ChipConfig, evaluations: &[Evaluation]);
}
