//! The runner's batched rig pass against a one-invocation-at-a-time
//! recomputation.
//!
//! `Runner::try_measure` simulates a cell's invocations first and reads
//! them through one streaming rig pass (`MeasurementRig::measure_batch`),
//! auditing the readings in invocation order. The recomputation here
//! follows the per-invocation recipe instead -- `ChipSimulator::run` on
//! the runner's seed, then `MeasurementRig::measure_reference` -- and the
//! time and power summaries must match bit for bit. A cell the rig
//! rejects must fail with the same error, ledger and counters as when
//! every invocation was measured on its own: a failed attempt-0 reading
//! measured twice would show up in `rig.runs`.

use std::sync::Arc;

use lhr_core::{Harness, RunMeasurement, Runner, RunnerHealth};
use lhr_obs::{MemoryRecorder, Obs};
use lhr_sensors::MeasurementRig;
use lhr_stats::{Summary, SummaryBuilder};
use lhr_uarch::{ChipConfig, ChipSimulator, ProcessorId};
use lhr_units::{Hertz, Watts};
use lhr_workloads::{by_name, Workload};

/// The runner's attempt-0 seed for invocation `k` (base seed
/// `0x1bad_b002`), restated from `lhr_core::runner`.
fn invocation_seed(workload: &str, config: &str, k: usize) -> u64 {
    let mut h: u64 = 0x1bad_b002 ^ 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes().chain(config.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A runner's fidelity knobs, restated: `Runner::fast()` or
/// `Runner::new()`.
struct Fidelity {
    sim: ChipSimulator,
    instruction_scale: Option<f64>,
    invocations: usize,
}

/// Time and power summaries of `w` on `config`, one invocation at a time.
fn per_invocation(f: &Fidelity, config: &ChipConfig, w: &Workload) -> (Summary, Summary) {
    let spec = config.spec();
    let rig =
        MeasurementRig::for_max_power(Watts::new(spec.power.tdp_w), 0x0d1e_5ee0 ^ spec.id as u64)
            .unwrap();
    let scaled = f.instruction_scale.map(|factor| {
        let mut s = w.clone();
        s.scale_trace(factor);
        s
    });
    let run_w = scaled.as_ref().unwrap_or(w);
    let label = config.label();
    let (mut times, mut powers) = (SummaryBuilder::new(), SummaryBuilder::new());
    for k in 0..f.invocations {
        let run = f
            .sim
            .run(config, run_w, invocation_seed(w.name(), &label, k));
        let (reading, _) = rig.measure_reference(&run.waveform);
        times.push(run.time.value());
        powers.push(reading.average_power.value());
    }
    (times.build(), powers.build())
}

fn assert_matches(m: &RunMeasurement, f: &Fidelity, config: &ChipConfig, w: &Workload) {
    let (time, power) = per_invocation(f, config, w);
    assert_eq!(m.time, time, "{} / {}: time", m.config, m.workload);
    assert_eq!(m.power, power, "{} / {}: power", m.config, m.workload);
}

#[test]
fn fast_runner_matches_per_invocation_measurement_over_the_quick_set() {
    let fast = Fidelity {
        sim: ChipSimulator::new().with_target_slices(80),
        instruction_scale: Some(0.02),
        invocations: 2,
    };
    // A 5 A channel and the i7's 30 A channel.
    for id in [ProcessorId::Core2DuoE6600, ProcessorId::CoreI7_920] {
        let config = ChipConfig::stock(id.spec());
        let memory = Arc::new(MemoryRecorder::default());
        let runner = Runner::fast().with_observer(Obs::recording(memory.clone()));
        let workloads = Harness::quick_set();
        for &w in &workloads {
            let (m, health) = runner.try_measure(&config, w).unwrap();
            assert!(health.is_clean(), "{id:?} / {}: {health:?}", w.name());
            assert_matches(&m, &fast, &config, w);
        }
        // One rig run per invocation: no reading is measured twice.
        let runs = memory.snapshot().counter("rig.runs");
        assert_eq!(runs, (workloads.len() * fast.invocations) as u64, "{id:?}");
    }
}

#[test]
fn standard_cell_matches_per_invocation_measurement() {
    let standard = Fidelity {
        sim: ChipSimulator::new(),
        instruction_scale: None,
        invocations: 3,
    };
    let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
    let w = by_name("jess").unwrap();
    let (m, health) = Runner::new()
        .with_invocations(3)
        .try_measure(&config, w)
        .unwrap();
    assert!(health.is_clean(), "{health:?}");
    assert_matches(&m, &standard, &config, w);
}

#[test]
fn saturating_cell_fails_exactly_as_one_invocation_at_a_time() {
    // The i7 at 4C1T@2.367 GHz pegs its channel on xalan. Invocation 0
    // flatlines on attempt 0 and passes on its first retry; invocation 1
    // flatlines on attempt 0 and on the 7 retries left in the budget.
    let config = ChipConfig::stock(ProcessorId::CoreI7_920.spec())
        .with_cores(4)
        .unwrap()
        .with_smt(false)
        .unwrap()
        .with_clock(Hertz::from_ghz(2.367))
        .unwrap();
    let memory = Arc::new(MemoryRecorder::default());
    let runner = Runner::fast().with_observer(Obs::recording(memory.clone()));
    let err = runner
        .try_measure(&config, by_name("xalan").unwrap())
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "[i7 (45) 4C1T@2.4GHz / xalan] retry budget (8) exhausted; last error: \
         sensor saturated: 27.6% of samples flatlined (limit 5.0%)"
    );
    assert_eq!(
        runner.health(),
        RunnerHealth {
            retries: 0,
            recalibrations: 0,
            rejected_outliers: 0,
            failed_measurements: 1,
        }
    );
    let snap = memory.snapshot();
    assert_eq!(snap.counter("rig.runs"), 10, "1 accepted + 9 rejected");
    assert_eq!(snap.counter("rig.rejected_runs"), 9);
    assert_eq!(snap.counter("rig.samples_logged"), 286);
    assert_eq!(snap.counter("runner.failed_measurements"), 1);
}
