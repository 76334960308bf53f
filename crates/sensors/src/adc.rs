//! The data logger's analog-to-digital converter.

use lhr_units::Volts;

/// An ideal mid-rise quantizer over a reference voltage.
///
/// Ten bits over 5 V gives 4.88 mV per code -- matching the paper's
/// observed fidelity of "about 1%" per sample with 103 quantization points
/// across the calibration range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adc {
    bits: u32,
    v_ref_mv: u32,
}

impl Adc {
    /// Creates an ADC with the given resolution and reference voltage.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16, or `v_ref` is not positive.
    #[must_use]
    pub fn new(bits: u32, v_ref: Volts) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        assert!(v_ref.value() > 0.0, "reference voltage must be positive");
        Self {
            bits,
            v_ref_mv: (v_ref.value() * 1000.0).round() as u32,
        }
    }

    /// The 10-bit, 5 V converter of the AVR logger.
    #[must_use]
    pub fn avr_10bit() -> Self {
        Self::new(10, Volts::new(5.0))
    }

    /// The resolution in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The highest representable code.
    #[must_use]
    pub fn max_code(&self) -> u16 {
        ((1u32 << self.bits) - 1) as u16
    }

    /// The voltage width of one code step.
    #[must_use]
    pub fn lsb(&self) -> Volts {
        Volts::new(self.v_ref_mv as f64 / 1000.0 / f64::from(1u32 << self.bits))
    }

    /// Quantizes a voltage to a code, clamping to the input range.
    ///
    /// This stays floating-point deliberately. A fixed-point formulation
    /// (round the voltage to integer microvolts, then take
    /// `uv * 2^bits / v_ref_uv` in u64 arithmetic) was evaluated for the
    /// hot logging path and rejected: the microvolt rounding moves
    /// voltages that sit within half a microvolt of a code boundary onto
    /// the other side of it, so the two formulations disagree by one code
    /// on such inputs (demonstrated in this module's
    /// `fixed_point_quantizer_is_not_bit_identical` test). Bit-identical
    /// reproduction output is this project's hard rail, so the float path
    /// stays.
    #[must_use]
    pub fn quantize(&self, v: Volts) -> u16 {
        let v_ref = self.v_ref_mv as f64 / 1000.0;
        let norm = (v.value() / v_ref).clamp(0.0, 1.0);
        // `norm` is in [0, 1] or NaN, where the cast's truncation (NaN
        // to 0) is `floor` -- without `floor`, a software routine on
        // baseline x86-64.
        let code = (norm * f64::from(1u32 << self.bits)) as u32;
        code.min(u32::from(self.max_code())) as u16
    }

    /// The center voltage a code represents (for reconstruction).
    #[must_use]
    pub fn voltage_of(&self, code: u16) -> Volts {
        let v_ref = self.v_ref_mv as f64 / 1000.0;
        Volts::new((f64::from(code) + 0.5) / f64::from(1u32 << self.bits) * v_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avr_defaults() {
        let adc = Adc::avr_10bit();
        assert_eq!(adc.bits(), 10);
        assert_eq!(adc.max_code(), 1023);
        assert!((adc.lsb().value() - 5.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn quantization_round_trip_error_is_below_one_lsb() {
        let adc = Adc::avr_10bit();
        for mv in (0..5000).step_by(37) {
            let v = Volts::from_mv(f64::from(mv));
            let code = adc.quantize(v);
            let back = adc.voltage_of(code);
            assert!(
                (back.value() - v.value()).abs() <= adc.lsb().value(),
                "{mv} mV"
            );
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let adc = Adc::avr_10bit();
        assert_eq!(adc.quantize(Volts::new(-1.0)), 0);
        assert_eq!(adc.quantize(Volts::new(9.0)), 1023);
    }

    #[test]
    fn truncating_cast_equals_floor_then_cast() {
        let adc = Adc::avr_10bit();
        let floored = |v: f64| {
            let norm = (v / 5.0).clamp(0.0, 1.0);
            ((norm * 1024.0).floor() as u32).min(1023) as u16
        };
        let boundaries = (0..=1024).map(|k| f64::from(k) * 5.0 / 1024.0);
        let nudged = boundaries.flat_map(|v| [v, v.next_down(), v.next_up()]);
        let specials = [-1.0, -0.0, 9.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for v in nudged.chain(specials) {
            assert_eq!(adc.quantize(Volts::new(v)), floored(v), "v = {v}");
        }
    }

    #[test]
    fn codes_are_monotone_in_voltage() {
        let adc = Adc::avr_10bit();
        let mut prev = 0u16;
        for mv in (0..5000).step_by(10) {
            let code = adc.quantize(Volts::from_mv(f64::from(mv)));
            assert!(code >= prev);
            prev = code;
        }
    }

    #[test]
    fn paper_code_range_reproduced() {
        // The sensor maps 0.3 A -> ~2.44 V -> code ~500 and 3 A -> ~1.95 V
        // -> code ~398: the paper's observed 400-503 integer range.
        let adc = Adc::avr_10bit();
        let lo = adc.quantize(Volts::new(2.5 - 0.185 * 0.3));
        let hi = adc.quantize(Volts::new(2.5 - 0.185 * 3.0));
        assert!((495..=505).contains(&lo), "lo = {lo}");
        assert!((393..=403).contains(&hi), "hi = {hi}");
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn zero_bits_panics() {
        let _ = Adc::new(0, Volts::new(5.0));
    }

    /// The fixed-point quantizer candidate: integer microvolts through
    /// u64 arithmetic. Clamping and the final code cap mirror `quantize`.
    fn quantize_fixed(adc: &Adc, v: Volts) -> u16 {
        let v_ref_uv = u64::from(adc.v_ref_mv) * 1000;
        let uv = (v.value() * 1e6).round().clamp(0.0, v_ref_uv as f64) as u64;
        let code = uv * u64::from(1u32 << adc.bits) / v_ref_uv;
        (code as u32).min(u32::from(adc.max_code())) as u16
    }

    /// The evaluation behind keeping `quantize` in floating point: the
    /// fixed-point candidate agrees almost everywhere, but rounding the
    /// input to integer microvolts moves voltages within half a microvolt
    /// of a code boundary across it, flipping the code by one. Not
    /// bit-identical means not usable here, however fast.
    #[test]
    fn fixed_point_quantizer_is_not_bit_identical() {
        let adc = Adc::avr_10bit();

        // 2.4414063 V sits just above the code-500 boundary
        // (500 * 5 V / 1024 = 2.44140625 V), but rounds down to
        // 2441406 uV -- below it. Float says 500, fixed-point says 499.
        let v = Volts::new(2.441_406_3);
        assert_eq!(adc.quantize(v), 500);
        assert_eq!(quantize_fixed(&adc, v), 499);

        // A fine scan confirms the disagreement is systematic (every
        // half-microvolt straddle of a boundary), not a one-off.
        let mut divergences = 0usize;
        let mut agreements = 0usize;
        for i in 0..200_000u32 {
            let v = Volts::new(2.4 + f64::from(i) * 1e-6 * 0.5);
            if adc.quantize(v) == quantize_fixed(&adc, v) {
                agreements += 1;
            } else {
                divergences += 1;
            }
        }
        assert!(divergences > 0, "candidate diverges on boundary straddles");
        assert!(
            agreements > 100 * divergences,
            "divergence is confined to boundary neighborhoods"
        );
    }
}
