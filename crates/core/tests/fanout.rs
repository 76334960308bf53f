//! The reference set and Figures 1 and 6 measured over the harness's
//! workers against the same measurements taken one at a time.
//!
//! `ReferenceSet` fans its (workload, machine) cells out, and Figures 1
//! and 6 measure their cells through `Harness::measure_all`. Thread count
//! must never reach a value: results at `with_jobs(1)` equal those on
//! several workers, bit for bit. A failing reference machine must report
//! the error a serial pass reports. A machine with a fault plan armed
//! must be measured in serial order, since its injector's state (here,
//! a drift clock) depends on call order.

use lhr_core::experiments::{figure1_scalability, figure6_jvm};
use lhr_core::{Harness, Runner};
use lhr_sensors::faults::{Drift, FaultPlan, Saturation, Spikes};
use lhr_uarch::ProcessorId;
use lhr_workloads::{by_name, Workload};

fn workloads(names: &[&str]) -> Vec<&'static Workload> {
    names
        .iter()
        .map(|n| by_name(n).expect("catalog benchmark"))
        .collect()
}

fn harness(runner: Runner, jobs: Option<usize>) -> Harness {
    let h = Harness::new(runner).with_workloads(Harness::quick_set());
    match jobs {
        Some(n) => h.with_jobs(n),
        None => h,
    }
}

#[test]
fn worker_count_never_changes_a_reference_or_figure() {
    let serial = harness(Runner::fast(), Some(1));
    let refs = serial.try_reference().expect("clean rigs");
    let fig1 = figure1_scalability::run(&serial);
    let fig6 = figure6_jvm::run(&serial);
    for jobs in [None, Some(3)] {
        let parallel = harness(Runner::fast(), jobs);
        assert_eq!(parallel.try_reference().expect("clean rigs"), refs, "jobs {jobs:?}");
        assert_eq!(figure1_scalability::run(&parallel), fig1, "jobs {jobs:?}");
        assert_eq!(figure6_jvm::run(&parallel), fig6, "jobs {jobs:?}");
    }
}

#[test]
fn a_dead_reference_machine_fails_with_the_serial_error() {
    // The plan of `sweep_survives_a_faulted_machine_and_reports_it`:
    // every run on the C2D flatlines.
    let outcome = |jobs: usize| {
        let plan = FaultPlan::new(13).with_saturation(Saturation::new(2.49, 2.5));
        let runner = Runner::fast().with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        let h = Harness::new(runner)
            .with_workloads(workloads(&["hmmer", "swaptions", "db", "sunflow"]))
            .with_jobs(jobs);
        let err = h.try_reference().expect_err("a flatlined reference machine");
        (err, h.runner().health())
    };
    let (serial, serial_health) = outcome(1);
    assert_eq!(serial.workload, Some("hmmer"));
    // As in a serial pass, the C2D is not measured past its first failure.
    assert_eq!(serial_health.failed_measurements, 1);
    let (parallel, parallel_health) = outcome(4);
    assert_eq!(parallel, serial);
    assert_eq!(parallel_health, serial_health);
}

#[test]
fn a_faulted_reference_machine_is_measured_in_serial_order() {
    // Spikes hit seeded runs; the drift clock advances with every run
    // on the rig, so each value depends on how many runs came before.
    let reference = |jobs: usize| {
        let plan = FaultPlan::new(0xbad)
            .with_spikes(Spikes {
                per_run_probability: 0.35,
                magnitude_v: -0.15,
            })
            .with_drift(Drift::new(0.0004, 0.00015));
        let runner = Runner::fast().with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        harness(runner, Some(jobs))
            .try_reference()
            .expect("spikes and drift are survivable")
    };
    let serial = reference(1);
    for _ in 0..3 {
        assert_eq!(reference(4), serial);
    }
}
