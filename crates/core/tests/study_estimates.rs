//! The miss-rate estimates a real run asks for, against the oracle.
//!
//! `crates/uarch/tests/miss_rate_kernel.rs` checks the estimator's kernel
//! on drawn profiles and capacities. This test takes the inputs from a
//! run instead: it supervises the Quick campaign grid (every study
//! configuration over the Quick workload set, as `repro_all --quick`
//! does), then recomputes every estimate the process-wide estimator holds
//! through `simulate_miss_rate_reference`, the `Cache`-driven oracle, and
//! requires the same bits.
//!
//! Ignored by default: it adds about 6 s to a debug `cargo test` on a
//! 2-vCPU VM, under a second in release, where CI runs it with
//! `--include-ignored`.

use std::sync::Arc;

use lhr_core::configs::all_study_configs;
use lhr_core::{grid_units, AbortHandle, Harness, Supervisor};
use lhr_uarch::{simulate_miss_rate_reference, MissRateEstimator};

#[test]
#[ignore = "a full campaign grid and several hundred oracle estimates; run in release"]
fn every_estimate_of_the_quick_campaign_grid_equals_the_reference() {
    let harness = Arc::new(Harness::quick());
    let units = grid_units(&all_study_configs(), harness.workloads());
    let report = Supervisor::new(Arc::clone(&harness)).run(&units, &(), &AbortHandle::new());
    assert!(!report.aborted, "the grid ran to the end");
    assert_eq!((report.completed, report.failed), (units.len(), 0), "a clean grid");

    let estimator = MissRateEstimator::global();
    let estimates = estimator.estimates();
    // Nothing is in flight once the grid is done: the memo holds every
    // estimate computed, and a grid this size computes hundreds.
    assert_eq!(estimates.len() as u64, estimator.estimates_computed());
    assert!(estimates.len() >= 100, "{} estimates", estimates.len());
    for (profile, capacity, rate) in estimates {
        let reference = simulate_miss_rate_reference(&profile, capacity);
        assert_eq!(
            rate.to_bits(),
            reference.to_bits(),
            "{profile:?} at {capacity} bytes: estimator {rate} vs reference {reference}"
        );
    }
}
