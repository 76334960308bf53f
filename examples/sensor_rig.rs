//! Scenario: the measurement rig itself, end to end.
//!
//! Section 2.5 of the paper is a small metrology project: solder a Hall
//! effect sensor onto the CPU rail, log it at 50 Hz, and calibrate with 28
//! reference currents until the linear fit's R-squared clears 0.999. This
//! example walks that procedure against a simulated chip run, so you can
//! see exactly what the reported "measured power" numbers went through.
//!
//! Run with: `cargo run --release --example sensor_rig`

use lhr::sensors::{Adc, Calibration, HallSensor, MeasurementRig};
use lhr::stats::Summary;
use lhr::uarch::{ChipConfig, ChipSimulator, ProcessorId};
use lhr::units::Watts;
use lhr::workloads::by_name;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Calibrate a fresh sensor channel, as the authors did.
    let mut sensor = HallSensor::acs714_5a(0xBEEF);
    let adc = Adc::avr_10bit();
    let cal = Calibration::paper_procedure(&mut sensor, &adc)?;
    println!("calibration: {}", cal.fit());
    println!(
        "codes span {:.0}..{:.0} over 0.3..3.0 A (the paper's 400..503)",
        cal.points().iter().map(|p| p.1).fold(f64::INFINITY, f64::min),
        cal.points().iter().map(|p| p.1).fold(0.0, f64::max),
    );

    // --- 2. Run a benchmark and attach the rig to its power waveform.
    let workload = {
        let mut w = by_name("bloat").expect("catalog benchmark").clone();
        w.scale_trace(0.2);
        w
    };
    let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
    let run = ChipSimulator::new().run(&config, &workload, 7);

    let rig = MeasurementRig::for_max_power(Watts::new(config.spec().power.tdp_w), 0xBEEF)?;
    let (measured, samples) = rig.measure_reference(&run.waveform);

    // --- 3. Compare ground truth (the simulator knows it) to the rig.
    let truth = run.average_power();
    let err = (measured.average_power.value() - truth.value()).abs() / truth.value();
    println!();
    println!("run duration      : {}", measured.duration);
    println!("samples at 50 Hz  : {}", samples.len());
    println!("true average power: {:.2}", truth);
    println!("rig-measured power: {:.2}", measured.average_power);
    println!("measurement error : {:.2}%", err * 100.0);
    println!();
    let watts: Vec<f64> = samples.iter().map(|w| w.value()).collect();
    println!("sample statistics : {}", Summary::from_slice(&watts));
    Ok(())
}
