//! Table-driven sensor noise, and the ADC code decision it feeds.
//!
//! The batched rig pass needs each noise sample only through the ADC
//! code it produces, and a code changes only at the converter's fixed
//! voltage edges. So the pass draws the Box-Muller uniforms exactly as
//! [`lhr_trace::Rng64::next_normal`] does, turns them into volts with
//! small tables instead of libm ([`NoiseTables::normal`], within
//! [`NOISE_EPS_V`] of libm's value), and lets [`CodeWindows::code`]
//! decide the code. Only a sample that lands within that bound of an
//! edge pays for the libm transform, which then gives the code exactly
//! as the per-sample path does.
//!
//! The error bound, derived in DESIGN.md ("Rig pass"): for `u1` in
//! `[f64::MIN_POSITIVE, 1)` and `u2` in `[0, 1)`, `|table - libm|` is at
//! most `2e-13 * sd` volts (under 1e-15 V for the rigs' 4 mV noise), so
//! [`NOISE_EPS_V`] holds for any `sd` up to 5 V.

use std::f64::consts::{LN_2, TAU};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::adc::Adc;
use crate::hall::HallSensor;

/// ε: the bound, in volts, on `|table noise - libm noise|` for one draw.
/// The derivation gives at most `2e-13 * sd`; the rigs' noise has
/// `sd = 4 mV`.
pub(crate) const NOISE_EPS_V: f64 = 1e-12;

/// Slack for the rounding of `base + noise` (table and libm side) and
/// of a window bound: 2^-47 V, over three times the largest such error
/// (2^-49 + 2^-51) for sums under 16 V. Every finite edge lies in
/// [0, 5] V, so a sum beyond 16 V is certain of its code anyway.
const ROUNDING_SLACK_V: f64 = 1.0 / (1u64 << 47) as f64;

/// The mantissa bits of an `f64`.
const MANTISSA: u64 = (1 << 52) - 1;

/// Process-global lookup tables for [`NoiseTables::normal`].
#[derive(Debug)]
pub(crate) struct NoiseTables {
    /// Per 7-bit mantissa bucket `i` of `m` in `[1, 2)`: the expansion
    /// point `c`, `1/c` and `ln c`. `c` is the bucket's midpoint, except
    /// in the top bucket, where it is 2 and `ln c` is exactly
    /// [`LN_2`]: there `u1` in `[1 - 2^-8, 1)` gets
    /// `-LN_2 + LN_2 = 0` and a series in the exact `u1 - 1`, so the
    /// logarithm keeps its relative accuracy as it goes to 0.
    log: [[f64; 3]; 128],
    /// `[cos, sin]` of `j * 2 pi / 256`.
    trig: [[f64; 2]; 256],
}

impl NoiseTables {
    /// The process's tables, built on first use.
    pub(crate) fn get() -> &'static NoiseTables {
        static TABLES: OnceLock<NoiseTables> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut log = [[0.0; 3]; 128];
            for (i, entry) in log.iter_mut().enumerate() {
                *entry = if i == 127 {
                    [2.0, 0.5, LN_2]
                } else {
                    let c = 1.0 + (2 * i + 1) as f64 / 256.0;
                    [c, 1.0 / c, c.ln()]
                };
            }
            let mut trig = [[0.0; 2]; 256];
            for (j, entry) in trig.iter_mut().enumerate() {
                let angle = j as f64 * (TAU / 256.0);
                *entry = [angle.cos(), angle.sin()];
            }
            NoiseTables { log, trig }
        })
    }

    /// `sd * sqrt(-2 ln u1) * cos(2 pi u2)` from the tables: within
    /// [`NOISE_EPS_V`] of [`HallSensor::noise_from_uniforms`] for `u1` in
    /// `[f64::MIN_POSITIVE, 1)`, `u2` in `[0, 1)` and `sd` up to 5 V. NaN
    /// outside that domain, never inside it.
    #[inline]
    pub(crate) fn normal(&self, u1: f64, u2: f64, sd: f64) -> f64 {
        if !((f64::MIN_POSITIVE..1.0).contains(&u1) && (0.0..1.0).contains(&u2)) {
            return f64::NAN;
        }
        let r = (-2.0 * self.ln(u1)).sqrt();
        sd * r * self.cos_tau(u2)
    }

    /// `ln u1` for a normal `u1` in `(0, 1)`: `u1 = m 2^e` with `m` in
    /// `[1, 2)`, `ln u1 = e ln 2 + ln c + ln(1 + t)` with `t = (m - c) / c`,
    /// `|t| <= 2^-8`, and `ln(1 + t)` by its degree-7 series.
    #[inline]
    fn ln(&self, u1: f64) -> f64 {
        let bits = u1.to_bits();
        let e = ((bits >> 52) as i64 - 1023) as f64;
        let [c, inv_c, ln_c] = self.log[((bits >> 45) & 127) as usize];
        let m = f64::from_bits((bits & MANTISSA) | 1.0f64.to_bits());
        // Exact: m and c are within a factor of two of each other.
        let t = (m - c) * inv_c;
        let series = t
            * (1.0
                + t * (-1.0 / 2.0
                    + t * (1.0 / 3.0
                        + t * (-1.0 / 4.0
                            + t * (1.0 / 5.0 + t * (-1.0 / 6.0 + t * (1.0 / 7.0)))))));
        (e * LN_2 + ln_c) + series
    }

    /// `cos(2 pi u2)` for `u2` in `[0, 1)`: the nearest table angle
    /// `j 2 pi / 256` plus `d`, `|d| <= pi / 256`, by the angle-sum rule
    /// with degree-6 and degree-5 series for `cos d` and `sin d`.
    #[inline]
    fn cos_tau(&self, u2: f64) -> f64 {
        let x = u2 * 256.0;
        // `u32`, not `usize`: baseline x86-64 converts between `f64` and
        // 64-bit unsigned integers in several instructions.
        let j = (x + 0.5) as u32;
        let d = (x - f64::from(j)) * (TAU / 256.0);
        let [cos_j, sin_j] = self.trig[(j & 255) as usize];
        let d2 = d * d;
        let cos_d = 1.0 + d2 * (-1.0 / 2.0 + d2 * (1.0 / 24.0 + d2 * (-1.0 / 720.0)));
        let sin_d = d * (1.0 + d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0)));
        cos_j * cos_d - sin_j * sin_d
    }
}

/// The code edges of a converter behind the sensor's rails: `t[c]` is
/// the smallest `f64` voltage `v` with `quantize(rails(v)) >= c`, for
/// `c` in `0..=max_code + 1`; `-inf` where every voltage reaches `c`,
/// `+inf` where none does. Quantization is monotone in volts, so a
/// voltage `v` reads code `c` exactly when `t[c] <= v < t[c + 1]`.
pub(crate) fn code_edges(adc: &Adc) -> Vec<f64> {
    let q = |v: f64| adc.quantize(HallSensor::rails(v));
    let (floor, ceiling) = (q(0.0), q(f64::MAX));
    (0..=u32::from(adc.max_code()) + 1)
        .map(|c| {
            if c <= u32::from(floor) {
                return f64::NEG_INFINITY;
            }
            if c > u32::from(ceiling) {
                return f64::INFINITY;
            }
            // Step from the nominal edge, a few ULPs from the true one:
            // first to a voltage that reads below `c` (`q(0) < c`), then
            // up to the first that reads `c`.
            let reaches = |v: f64| u32::from(q(v)) >= c;
            let mut v = f64::from(c) * adc.lsb().value();
            while reaches(v) {
                v = v.next_down();
            }
            while !reaches(v) {
                v = v.next_up();
            }
            v
        })
        .collect()
}

/// Per-code acceptance windows for table noise: code `c` is certain for
/// a voltage at least ε plus rounding slack inside `[t[c], t[c + 1])`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CodeWindows {
    adc: Adc,
    /// Codes per volt, for the first guess at a code.
    per_volt: f64,
    /// `[t[c] + margin, t[c + 1] - margin]` per code `c`.
    windows: Arc<[[f64; 2]]>,
}

impl CodeWindows {
    /// The windows of `adc`, built once per process and shared by every
    /// rig on such a converter.
    pub(crate) fn of(adc: &Adc) -> Self {
        static BUILT: Mutex<Vec<CodeWindows>> = Mutex::new(Vec::new());
        let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(windows) = built.iter().find(|w| w.adc == *adc) {
            return windows.clone();
        }
        let windows = Self::new(adc);
        built.push(windows.clone());
        windows
    }

    /// The windows of `adc` behind the sensor's rails.
    fn new(adc: &Adc) -> Self {
        let margin = NOISE_EPS_V + ROUNDING_SLACK_V;
        let edges = code_edges(adc);
        Self {
            adc: *adc,
            per_volt: 1.0 / adc.lsb().value(),
            windows: edges
                .windows(2)
                .map(|t| [t[0] + margin, t[1] - margin])
                .collect(),
        }
    }

    /// The code the per-sample path logs for `noisy(base, exact())`,
    /// given `approx` within [`NOISE_EPS_V`] of `exact()`: `exact` is
    /// called only when an edge is within reach (or on a NaN).
    #[inline]
    pub(crate) fn code(&self, base: f64, approx: f64, exact: impl FnOnce() -> f64) -> u16 {
        match self.certain(base, approx) {
            Some(code) => code,
            None => self.exact(base, exact()),
        }
    }

    /// The code of `noisy(base, n)` for every `n` within [`NOISE_EPS_V`]
    /// of `approx`, if they all share one. `x = base + approx` is within
    /// ε plus rounding of `base + n`; when that whole interval lies
    /// inside one code's window the code is certain.
    #[inline]
    fn certain(&self, base: f64, approx: f64) -> Option<u16> {
        let x = base + approx;
        let guess = ((x * self.per_volt) as u32 as usize).min(self.windows.len() - 1);
        let [lo, hi] = self.windows[guess];
        (x >= lo && x < hi).then_some(guess as u16)
    }

    /// The code of `noisy(base, noise)`, as the per-sample path
    /// quantizes it.
    #[cold]
    #[inline(never)]
    fn exact(&self, base: f64, noise: f64) -> u16 {
        self.adc.quantize(HallSensor::noisy(base, noise))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::{Rng64, Xoshiro256StarStar};
    use lhr_units::Volts;

    const SD: f64 = 0.004;

    fn libm(u1: f64, u2: f64) -> f64 {
        lhr_trace::normal_from_uniforms(u1, u2, 0.0, SD)
    }

    /// The uniforms the bound must hold at: the floor, the smallest
    /// regular draw, the middle, and the top of `u1`'s range, where
    /// `-2 ln u1` vanishes and `sqrt` magnifies any absolute error.
    fn edge_uniforms() -> Vec<(f64, f64)> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut u1s = vec![f64::MIN_POSITIVE, ulp, 0.5];
        u1s.extend((1..=4096).map(|k| 1.0 - f64::from(k) * ulp));
        let u2s = [0.0, 0.25, 0.5, 1.0 - ulp];
        u1s.iter()
            .flat_map(|&u1| u2s.iter().map(move |&u2| (u1, u2)))
            .collect()
    }

    #[test]
    fn table_noise_is_within_a_hundredth_of_epsilon_at_the_domain_edges() {
        let tables = NoiseTables::get();
        for (u1, u2) in edge_uniforms() {
            let approx = tables.normal(u1, u2, SD);
            assert!(!approx.is_nan(), "u1 {u1:e}, u2 {u2}");
            let err = (approx - libm(u1, u2)).abs();
            assert!(err <= NOISE_EPS_V / 100.0, "u1 {u1:e}, u2 {u2}: {err:e}");
        }
    }

    #[test]
    fn table_noise_tracks_libm_on_a_seeded_stream() {
        let tables = NoiseTables::get();
        let mut rng = Xoshiro256StarStar::new(0x0a11);
        let mut worst = 0.0f64;
        for _ in 0..200_000 {
            let (u1, u2) = rng.next_normal_uniforms();
            worst = worst.max((tables.normal(u1, u2, SD) - libm(u1, u2)).abs());
        }
        assert!(worst <= NOISE_EPS_V / 100.0, "worst {worst:e}");
    }

    #[test]
    fn table_noise_is_nan_outside_its_domain() {
        let tables = NoiseTables::get();
        for (u1, u2) in [
            (0.0, 0.5),
            (1.0, 0.5),
            (-0.5, 0.5),
            (0.5, 1.0),
            (0.5, -0.25),
            (f64::NAN, 0.5),
        ] {
            assert!(tables.normal(u1, u2, SD).is_nan(), "u1 {u1}, u2 {u2}");
        }
    }

    /// The bound over 10^8 draws of each catalog rig's noise stream (the
    /// runner seeds device `i` of the eight processors with
    /// `0x0d1e_5ee0 ^ i`; both sensor ranges draw the same 4 mV noise).
    /// Prints the worst error and how many samples landed within the
    /// decision margin of an edge over a sweep of 64 bases across one
    /// code step. Run with `cargo test --release -p lhr-sensors --
    /// --ignored`.
    #[test]
    #[ignore = "8 x 10^8 draws: run in release"]
    fn table_noise_bound_holds_on_every_catalog_rigs_stream() {
        const DRAWS: u64 = 100_000_000;
        let tables = NoiseTables::get();
        let adc = Adc::avr_10bit();
        let windows = CodeWindows::of(&adc);
        let step = adc.lsb().value() / 64.0;
        let check = |device_seed: u64| {
            let mut sensor = HallSensor::acs714_5a(device_seed);
            let (mut worst, mut near_edge) = (0.0f64, 0u64);
            for d in 0..DRAWS {
                let (u1, u2) = sensor.next_noise_uniforms();
                let approx = tables.normal(u1, u2, sensor.noise_sd());
                worst = worst.max((approx - sensor.noise_from_uniforms(u1, u2)).abs());
                let base = 2.2 + (d % 64) as f64 * step;
                near_edge += u64::from(windows.certain(base, approx).is_none());
            }
            println!("device seed {device_seed:#x}: worst |table - libm| {worst:.3e} V over {DRAWS} draws, {near_edge} within the margin of an edge");
            worst
        };
        let seeds: Vec<u64> = (0..8u64).map(|i| 0x0d1e_5ee0 ^ i).collect();
        let worst = std::thread::scope(|s| {
            let halves: Vec<_> = seeds
                .chunks(4)
                .map(|chunk| {
                    s.spawn(move || chunk.iter().map(|&seed| check(seed)).fold(0.0, f64::max))
                })
                .collect();
            halves
                .into_iter()
                .map(|h| h.join().expect("checker thread"))
                .fold(0.0, f64::max)
        });
        assert!(worst <= NOISE_EPS_V / 100.0, "worst {worst:e}");
    }

    #[test]
    fn every_edge_starts_its_code() {
        let adc = Adc::avr_10bit();
        let q = |v: f64| adc.quantize(HallSensor::rails(v));
        let edges = code_edges(&adc);
        assert_eq!(edges.len(), 1025);
        assert_eq!(edges[0], f64::NEG_INFINITY);
        assert_eq!(edges[1024], f64::INFINITY);
        for c in 1..=1023u16 {
            let t = edges[usize::from(c)];
            assert_eq!(q(t), c, "t[{c}] = {t}");
            assert_eq!(q(t.next_down()), c - 1, "below t[{c}] = {t}");
        }
    }

    /// `base + approx` at an edge, one ULP either side of it, and ε/2
    /// either side of it, each with the exact draw across the edge:
    /// every decision must be the exact draw's code.
    #[test]
    fn a_decision_near_an_edge_takes_the_exact_draw() {
        let adc = Adc::avr_10bit();
        let windows = CodeWindows::of(&adc);
        let edges = code_edges(&adc);
        // A 2 mV draw: `x - approx` and `base + approx` are then exact.
        let approx = 1.0 / 512.0;
        for c in [1usize, 400, 452, 503, 1023] {
            let t = edges[c];
            let xs = [
                t,
                t.next_up(),
                t.next_down(),
                t + NOISE_EPS_V / 2.0,
                t - NOISE_EPS_V / 2.0,
            ];
            for x in xs {
                let base = x - approx;
                assert_eq!(base + approx, x);
                // The exact draw, within ε of `approx`, across the edge.
                let across = if x >= t { -NOISE_EPS_V } else { NOISE_EPS_V } / 4.0;
                let exact = (t - base) + across;
                assert!((exact - approx).abs() <= NOISE_EPS_V);
                let want = adc.quantize(HallSensor::noisy(base, exact));
                assert_ne!(want, adc.quantize(Volts::new(x)), "code {c}, x {x}");
                assert_eq!(
                    windows.code(base, approx, || exact),
                    want,
                    "code {c}, x {x}"
                );
            }
        }
    }

    #[test]
    fn a_decision_away_from_edges_never_draws_exactly() {
        let adc = Adc::avr_10bit();
        let windows = CodeWindows::of(&adc);
        let mut rng = Xoshiro256StarStar::new(5);
        for _ in 0..100_000 {
            let x = 7.0 * rng.next_f64() - 1.0;
            let code = windows.code(x, 0.0, || panic!("no edge within reach of {x}"));
            assert_eq!(code, adc.quantize(HallSensor::rails(x)), "x {x}");
        }
        // A NaN takes the exact path, which reads code 0 as quantize does.
        assert_eq!(
            windows.code(f64::NAN, 0.0, || 0.0),
            adc.quantize(Volts::new(f64::NAN))
        );
    }
}
