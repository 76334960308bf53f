//! Property test pinning the batched rig pass to the per-sample oracle.
//!
//! `MeasurementRig::measure_batch` streams a batch of waveforms through
//! one pass that shares each sensor-noise draw and keeps nothing per
//! sample; `MeasurementRig::measure_reference` is the one-sample-at-a-time
//! path it replaced. The property: for random rigs (5 A and 30 A
//! channels) and random batches of 1-20 waveforms of mixed lengths --
//! empty, shorter than one 20 ms sample period, fewer samples than a
//! flatline run, and long -- every reading's average power (bit for bit)
//! and `QualityReport` equal the oracle's for that waveform alone. Fixed
//! cases cover the edges of the pass's shortcuts: slices on and one ULP
//! off multiples and divisors of the sample period, slices under 0.1 ms,
//! and samples that land on ADC code edges, where the table-driven noise
//! must fall back to the libm draw.

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

/// A run of `slices` slices of `slice_s` seconds, its power stepping
/// through a pattern that crosses many codes.
fn stepped(slice_s: f64, slices: usize) -> PowerWaveform {
    let mut w = PowerWaveform::new(Seconds::new(slice_s));
    for i in 0..slices {
        w.push(Watts::new(12.0 + 3.7 * (i % 11) as f64));
    }
    w
}

#[test]
fn slices_on_and_one_ulp_off_the_sample_period_match_the_reference() {
    // Multiples and divisors of the 20 ms period put slice starts on
    // sample times, where the sample-to-slice rounding decides which
    // slice a sample reads; one ULP off them tips that rounding.
    let on: Vec<f64> = [
        1.0,
        2.0,
        3.0,
        7.0,
        1.0 / 2.0,
        1.0 / 3.0,
        1.0 / 4.0,
        1.0 / 5.0,
    ]
    .iter()
    .map(|f| PERIOD_S * f)
    .collect();
    let slices: Vec<f64> = on
        .iter()
        .flat_map(|&s| [s, s.next_up(), s.next_down()])
        .collect();
    for thirty_amp in [false, true] {
        let (rig, _) = rig(thirty_amp, 7);
        let waveforms: Vec<PowerWaveform> = slices
            .iter()
            .map(|&s| stepped(s, (12.0 / s) as usize))
            .collect();
        assert_batch_matches_reference(&rig, &waveforms);
    }
}

#[test]
fn slices_under_a_tenth_of_a_millisecond_match_the_reference() {
    let (rig, _) = rig(false, 3);
    let waveforms: Vec<PowerWaveform> = [9.9e-5, 5e-5, 1e-5, 3.3e-6]
        .iter()
        .map(|&s| stepped(s, 20_000))
        .collect();
    assert_batch_matches_reference(&rig, &waveforms);
}

/// A run of one slice per sample whose powers put every sample's
/// noisy voltage on a code edge: found by bisecting each slice's power
/// (all at once, one reference pass per round) for the two neighbouring
/// doubles between which its first sample's code changes. Even slices
/// take the lower power, odd ones the upper.
fn edge_riding(rig: &MeasurementRig, slices: usize) -> PowerWaveform {
    let build = |powers: &[f64]| {
        let mut w = PowerWaveform::new(Seconds::new(PERIOD_S));
        for &p in powers {
            w.push(Watts::new(p));
        }
        w
    };
    // The first sample that reads each slice, by the logger's formula.
    let probe = build(&vec![0.0; slices]);
    let mut first = vec![None; slices];
    for k in 0..slices {
        let s = probe.slice_index(Seconds::new(k as f64 * (1.0 / 50.0)));
        first[s].get_or_insert(k);
    }
    let reading = |powers: &[f64]| rig.measure_reference(&build(powers)).1;
    // Positive doubles order as their bits; the code moves with power.
    let mut lo = vec![0.0f64.to_bits(); slices];
    let mut hi: Vec<u64> = first
        .iter()
        .map(|k| if k.is_some() { 45.0f64 } else { 0.0 }.to_bits())
        .collect();
    let at_lo = reading(&vec![0.0; slices]);
    while lo.iter().zip(&hi).any(|(l, h)| h - l > 1) {
        let mid: Vec<u64> = lo.iter().zip(&hi).map(|(l, h)| l + (h - l) / 2).collect();
        let powers: Vec<f64> = mid.iter().map(|&b| f64::from_bits(b)).collect();
        let at_mid = reading(&powers);
        for s in 0..slices {
            let Some(k) = first[s] else { continue };
            if at_mid[k] == at_lo[k] {
                lo[s] = mid[s];
            } else {
                hi[s] = mid[s];
            }
        }
    }
    let powers: Vec<f64> = (0..slices)
        .map(|s| f64::from_bits(if s % 2 == 0 { lo[s] } else { hi[s] }))
        .collect();
    build(&powers)
}

#[test]
fn samples_on_code_edges_take_the_exact_draw_and_match_the_reference() {
    use lhr_obs::{MemoryRecorder, Obs};
    use std::sync::Arc;

    let (rig, _) = rig(false, 11);
    let edge = edge_riding(&rig, 600);
    let exact_draws = |waveforms: &[&PowerWaveform]| {
        let memory = Arc::new(MemoryRecorder::default());
        let observed = rig.clone().with_observer(Obs::recording(memory.clone()));
        let batch = observed.measure_batch(waveforms);
        for (w, got) in waveforms.iter().zip(&batch) {
            assert_eq!(got, &rig.measure_reference(w).0);
        }
        memory.snapshot().counter("rig.exact_noise_draws")
    };
    let alone = exact_draws(&[&edge]);
    assert!(alone >= 300, "most edge samples fall back: {alone}");
    // Inside a wider batch the libm draw is made once per sample and
    // shared by every waveform that needs it.
    let (steady_a, steady_b) = (steady(26.0, 900), steady(31.0, 150));
    assert_eq!(exact_draws(&[&steady_a, &edge, &steady_b, &edge]), alone);
    assert_batch_matches_reference(&rig, &[steady_a, edge.clone(), steady_b, edge]);
}
