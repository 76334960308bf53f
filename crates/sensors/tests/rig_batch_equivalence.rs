//! Property test pinning the batched rig pass to the per-sample oracle.
//!
//! `MeasurementRig::measure_batch` streams a batch of waveforms through
//! one pass that shares each sensor-noise draw and keeps nothing per
//! sample; `MeasurementRig::measure_reference` is the one-sample-at-a-time
//! path it replaced. The property: for random rigs (5 A and 30 A
//! channels) and random batches of 1-20 waveforms of mixed lengths --
//! empty, shorter than one 20 ms sample period, fewer samples than a
//! flatline run, and long -- every reading's average power (bit for bit)
//! and `QualityReport` equal the oracle's for that waveform alone.

use proptest::prelude::*;

use lhr_power::PowerWaveform;
use lhr_sensors::{MeasurementRig, SensorError};
use lhr_trace::{Rng64, SplitMix64};
use lhr_units::{Seconds, Watts};

/// The logger's sample period.
const PERIOD_S: f64 = 0.02;

/// A rig on the 5 A channel (peak 50 W) or the 30 A one (peak 130 W),
/// with the rail power at which its sensor's range clamps.
fn rig(thirty_amp: bool, device_seed: u64) -> (MeasurementRig, f64) {
    let (max_power, range_w) = if thirty_amp {
        (130.0, 360.0)
    } else {
        (50.0, 60.0)
    };
    let rig = MeasurementRig::for_max_power(Watts::new(max_power), device_seed)
        .expect("calibration converges");
    (rig, range_w)
}

/// A waveform of one of four length classes, with slices of 1e-4-2 s
/// and plateaus of power from 0 W to half again past the sensor's range
/// (`range_w`), where the reading pegs.
fn random_waveform(rng: &mut SplitMix64, range_w: f64) -> PowerWaveform {
    let slice = 1e-4 * 2e4f64.powf(rng.next_f64());
    let duration = match rng.next_below(4) {
        0 => 0.0,
        1 => PERIOD_S * rng.next_f64(),
        2 => PERIOD_S * (1.0 + 7.0 * rng.next_f64()),
        _ => PERIOD_S * (8.0 + 3000.0 * rng.next_f64()),
    };
    let slices = ((duration / slice).round() as usize).min(20_000);
    let mut w = PowerWaveform::new(Seconds::new(slice));
    while w.len() < slices {
        let power = match rng.next_below(3) {
            0 => 0.0,
            1 => 1.5 * range_w * rng.next_f64(),
            _ => range_w * (1.0 + 0.5 * rng.next_f64()),
        };
        for _ in 0..(1 + rng.next_below(200)).min((slices - w.len()) as u64) {
            w.push(Watts::new(power));
        }
    }
    w
}

/// Asserts each batched reading equals the oracle's, bit for bit.
fn assert_batch_matches_reference(rig: &MeasurementRig, waveforms: &[PowerWaveform]) {
    let refs: Vec<&PowerWaveform> = waveforms.iter().collect();
    let batch = rig.measure_batch(&refs);
    assert_eq!(batch.len(), waveforms.len());
    for (i, (w, got)) in waveforms.iter().zip(&batch).enumerate() {
        let (want, _) = rig.measure_reference(w);
        assert_eq!(
            got.average_power.value().to_bits(),
            want.average_power.value().to_bits(),
            "waveform {i}: {} vs {}",
            got.average_power,
            want.average_power
        );
        // `Debug` prints every float in shortest round-trip form, so
        // this also tells -0.0 from 0.0.
        assert_eq!(
            format!("{:?}", got.quality),
            format!("{:?}", want.quality),
            "waveform {i}"
        );
        assert_eq!(got, &want, "waveform {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_readings_equal_the_per_sample_reference(
        thirty_amp in any::<bool>(),
        device_seed in any::<u64>(),
        width in 1usize..21,
        shape_seed in any::<u64>(),
    ) {
        let (rig, range_w) = rig(thirty_amp, device_seed);
        let mut rng = SplitMix64::new(shape_seed);
        let waveforms: Vec<PowerWaveform> =
            (0..width).map(|_| random_waveform(&mut rng, range_w)).collect();
        assert_batch_matches_reference(&rig, &waveforms);
    }
}

/// A steady run at `watts`, one 20 ms slice per sample.
fn steady(watts: f64, samples: usize) -> PowerWaveform {
    let mut w = PowerWaveform::new(Seconds::new(PERIOD_S));
    for _ in 0..samples {
        w.push(Watts::new(watts));
    }
    w
}

#[test]
fn a_batch_with_one_saturating_waveform_matches_the_reference() {
    // Every run on a rig replays its noise stream, so a steady power that
    // reads eight identical codes in a row early in one run does so in
    // every run. Find a rig and a power (up to the pegged range) where
    // that happens within the first 140 samples.
    let (rig, power, start) = (0..64u64)
        .find_map(|device_seed| {
            let (rig, range_w) = rig(false, device_seed);
            (0..200)
                .map(|i| 0.3 * range_w + 0.9 * range_w * f64::from(i) / 200.0)
                .find_map(|p| {
                    let (_, samples) = rig.measure_reference(&steady(p, 140));
                    samples
                        .windows(8)
                        .position(|w| w.iter().all(|&s| s == w[0]))
                        .map(|start| (p, start))
                })
                .map(|(p, start)| (rig, p, start))
        })
        .expect("some rig flatlines early at some steady power");
    // Idle everywhere but that run: its code is the log's lowest, so the
    // run counts as flatlined.
    let mut pegged = PowerWaveform::new(Seconds::new(PERIOD_S));
    for k in 0..start + 12 {
        let on = (start..start + 8).contains(&k);
        pegged.push(Watts::new(if on { power } else { 0.0 }));
    }
    let waveforms = [steady(26.0, 300), pegged, steady(31.0, 150)];
    assert_batch_matches_reference(&rig, &waveforms);

    let refs: Vec<&PowerWaveform> = waveforms.iter().collect();
    let verdicts: Vec<_> = rig
        .measure_batch(&refs)
        .into_iter()
        .map(|reading| rig.audit(reading))
        .collect();
    assert!(verdicts[0].is_ok() && verdicts[2].is_ok(), "{verdicts:?}");
    match &verdicts[1] {
        Err(SensorError::Saturated { fraction, .. }) => {
            assert!(*fraction >= 8.0 / (start + 12) as f64, "{fraction}");
        }
        other => panic!("expected a saturation rejection, got {other:?}"),
    }
}
