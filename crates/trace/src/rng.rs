//! Seeded pseudo-random number generators.
//!
//! The simulator's reproducibility contract is that the same seed always
//! yields the same trace, the same sensor noise, and therefore the same
//! reported measurement. We implement two small, well-known generators
//! rather than depending on `rand`'s evolving API surface:
//!
//! * [`SplitMix64`] -- Steele, Lea & Flood's 64-bit mixer; fast, tiny state,
//!   ideal for seeding and for decorrelated per-component streams.
//! * [`Xoshiro256StarStar`] -- Blackman & Vigna's general-purpose generator,
//!   used where long streams are drawn (address streams, sensor noise).

/// A 64-bit pseudo-random source.
///
/// The provided combinators derive floats, ranges, booleans, and normal
/// deviates from the raw stream; implementors only supply [`Rng64::next_u64`].
pub trait Rng64 {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling keeps the result in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Uses the widening-multiply technique; the modulo bias is below
    /// 2^-64 x bound, negligible for simulation purposes.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// A normal deviate with the given mean and standard deviation
    /// (Box-Muller, one draw per call; the spare is discarded for
    /// simplicity and statelessness): [`normal_from_uniforms`] over
    /// [`Rng64::next_normal_uniforms`].
    fn next_normal(&mut self, mean: f64, stddev: f64) -> f64 {
        let (u1, u2) = self.next_normal_uniforms();
        normal_from_uniforms(u1, u2, mean, stddev)
    }

    /// The two uniforms one [`Rng64::next_normal`] draw consumes, in the
    /// order it draws them: `u1` in `[f64::MIN_POSITIVE, 1)` (floored so
    /// `ln` stays finite; otherwise a multiple of 2^-53) and `u2` in
    /// `[0, 1)`.
    fn next_normal_uniforms(&mut self) -> (f64, f64) {
        // Guard against ln(0).
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (u1, u2)
    }
}

/// The Box-Muller transform [`Rng64::next_normal`] applies to its
/// uniforms: `mean + stddev * sqrt(-2 ln u1) * cos(2 pi u2)`, evaluated
/// in that order with libm's `ln`, `sqrt` and `cos`.
#[must_use]
pub fn normal_from_uniforms(u1: f64, u2: f64, mean: f64, stddev: f64) -> f64 {
    let r = (-2.0 * u1.ln()).sqrt();
    mean + stddev * r * (std::f64::consts::TAU * u2).cos()
}

/// The SplitMix64 generator.
///
/// ```
/// use lhr_trace::{Rng64, SplitMix64};
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Any seed, including zero, is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Mixing a stream index into the seed gives decorrelated streams for
    /// e.g. "thread 3's address stream" vs "the sensor noise stream" without
    /// the two racing over one generator.
    #[must_use]
    pub fn split(&self, stream: u64) -> SplitMix64 {
        let mut probe = SplitMix64::new(self.state ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Burn one output so adjacent stream ids decorrelate immediately.
        let s = probe.next_u64();
        SplitMix64::new(s)
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator, expanding the seed through SplitMix64 as the
    /// authors recommend (an all-zero state would be absorbing).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }
}

impl Rng64 for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 0 from the public-domain C source.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = Xoshiro256StarStar::new(123);
        let mut b = Xoshiro256StarStar::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let root = SplitMix64::new(99);
        let mut s0 = root.split(0);
        let mut s1 = root.split(1);
        let equal = (0..64).filter(|_| s0.next_u64() == s1.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = Xoshiro256StarStar::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
        // Bound of one always yields zero.
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut r = SplitMix64::new(5);
        let _ = r.next_below(0);
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = Xoshiro256StarStar::new(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut r = SplitMix64::new(13);
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
        assert!((0..100).all(|_| r.next_bool(1.0)));
        // Out-of-range p is clamped rather than panicking.
        assert!((0..10).all(|_| r.next_bool(2.0)));
        assert!(!(0..10).any(|_| r.next_bool(-1.0)));
    }

    #[test]
    fn next_normal_is_the_transform_of_its_uniforms() {
        let mut a = Xoshiro256StarStar::new(23);
        let mut b = a.clone();
        for _ in 0..1000 {
            let (u1, u2) = b.next_normal_uniforms();
            let want = normal_from_uniforms(u1, u2, 0.5, 0.004);
            assert_eq!(a.next_normal(0.5, 0.004).to_bits(), want.to_bits());
        }
        assert_eq!(a, b, "both paths consume the same draws");
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256StarStar::new(17);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (xs.len() - 1) as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd = {}", var.sqrt());
    }
}
