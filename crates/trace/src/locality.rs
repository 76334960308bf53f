//! Memory-locality models and the address streams they generate.
//!
//! A benchmark's cache behaviour is summarised by a three-tier working-set
//! model: a *hot* set (innermost loop data, reused constantly), a *warm* set
//! (medium-term reuse), and a *cold* remainder of the footprint that is
//! either streamed sequentially or pointer-chased. The cache and TLB
//! simulators in `lhr-uarch` estimate miss rates by running a sampled
//! [`AddressStream`] from this model through real set-associative arrays.

use std::hint::select_unpredictable;

use crate::rng::{Rng64, SplitMix64};

/// Alignment of generated addresses (bytes). Eight-byte words.
const WORD: u64 = 8;

/// The integer form of the test `next_f64() < t` on a raw draw `x`: the
/// test holds exactly when `x >> 11 < threshold(t)`.
///
/// `next_f64` is `(x >> 11) as f64 * 2^-53`, and both factors and the
/// product are exact, so the test compares the integer `x >> 11` with the
/// real `t * 2^53`, itself exact (a power-of-two scaling). An integer lies
/// below a real exactly when it lies below the real's ceiling, and every
/// `x >> 11` lies below `2^53`.
fn threshold(t: f64) -> u64 {
    const ONE: f64 = (1u64 << 53) as f64;
    let scaled = t * ONE;
    if scaled.is_nan() || scaled <= 0.0 {
        0
    } else if scaled >= ONE {
        1 << 53
    } else {
        scaled.ceil() as u64
    }
}

/// `next_below(bound)` on a draw already taken: the high word of
/// `x * bound`. Zero when `bound` is zero.
fn below(x: u64, bound: u64) -> u64 {
    ((u128::from(x) * u128::from(bound)) >> 64) as u64
}

/// A three-tier working-set locality model.
///
/// ```
/// use lhr_trace::{LocalityProfile, SplitMix64};
///
/// // 32 KiB hot set inside a 4 MiB footprint, 70% hot accesses.
/// let loc = LocalityProfile::hierarchical(32 << 10, 512 << 10, 4 << 20, 0.70, 0.20);
/// assert_eq!(loc.footprint_bytes(), 4 << 20);
/// let mut rng = SplitMix64::new(1);
/// assert!(loc.address_stream(&mut rng).take(100).all(|a| a < (4u64 << 20)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityProfile {
    hot_bytes: u64,
    warm_bytes: u64,
    total_bytes: u64,
    hot_fraction: f64,
    warm_fraction: f64,
    stream_stride: u64,
    pointer_chase: f64,
}

impl LocalityProfile {
    /// A fully cache-resident working set: every access hits the hot tier.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    #[must_use]
    pub fn cache_resident(bytes: u64) -> Self {
        Self::hierarchical(bytes, 0, bytes, 1.0, 0.0)
    }

    /// A pure streaming footprint: sequential passes over `total` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    #[must_use]
    pub fn streaming(total: u64) -> Self {
        Self::hierarchical(0, 0, total, 0.0, 0.0)
    }

    /// A pointer-chasing footprint: random accesses over `total` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    #[must_use]
    pub fn pointer_chasing(total: u64) -> Self {
        let mut p = Self::hierarchical(0, 0, total, 0.0, 0.0);
        p.pointer_chase = 1.0;
        p
    }

    /// The general three-tier model.
    ///
    /// `hot_fraction` of accesses go to the first `hot_bytes`, then
    /// `warm_fraction` to the next `warm_bytes`, and the remainder sweeps or
    /// chases the full `total_bytes` footprint.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is zero, if `hot_bytes + warm_bytes`
    /// exceeds `total_bytes`, or if the fractions are out of range.
    #[must_use]
    pub fn hierarchical(
        hot_bytes: u64,
        warm_bytes: u64,
        total_bytes: u64,
        hot_fraction: f64,
        warm_fraction: f64,
    ) -> Self {
        assert!(total_bytes > 0, "footprint must be non-empty");
        assert!(
            hot_bytes + warm_bytes <= total_bytes,
            "hot ({hot_bytes}) + warm ({warm_bytes}) tiers exceed footprint ({total_bytes})"
        );
        assert!(
            (0.0..=1.0).contains(&hot_fraction)
                && (0.0..=1.0).contains(&warm_fraction)
                && hot_fraction + warm_fraction <= 1.0 + 1e-9,
            "tier fractions out of range: hot {hot_fraction}, warm {warm_fraction}"
        );
        Self {
            hot_bytes,
            warm_bytes,
            total_bytes,
            hot_fraction,
            warm_fraction,
            stream_stride: 64,
            pointer_chase: 0.0,
        }
    }

    /// Sets the sequential stride (bytes) of the cold tier. A stride of one
    /// cache line (64) models unit-stride streaming; larger strides model
    /// sparse sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn with_stream_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "stride must be positive");
        self.stream_stride = stride;
        self
    }

    /// Sets the fraction of cold-tier accesses that are random (pointer
    /// chasing) rather than sequential.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn with_pointer_chase(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        self.pointer_chase = fraction;
        self
    }

    /// Total footprint in bytes.
    #[must_use]
    pub fn footprint_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The hot-tier size in bytes.
    #[must_use]
    pub fn hot_bytes(&self) -> u64 {
        self.hot_bytes
    }

    /// The warm-tier size in bytes.
    #[must_use]
    pub fn warm_bytes(&self) -> u64 {
        self.warm_bytes
    }

    /// Fraction of accesses served by the hot tier.
    #[must_use]
    pub fn hot_fraction(&self) -> f64 {
        self.hot_fraction
    }

    /// Fraction of accesses served by the warm tier.
    #[must_use]
    pub fn warm_fraction(&self) -> f64 {
        self.warm_fraction
    }

    /// Fraction of cold accesses that are random.
    #[must_use]
    pub fn pointer_chase(&self) -> f64 {
        self.pointer_chase
    }

    /// The sequential stride (bytes) of the cold tier.
    #[must_use]
    pub fn stream_stride(&self) -> u64 {
        self.stream_stride
    }

    /// Number of distinct pages the footprint spans, for TLB modelling.
    #[must_use]
    pub fn page_working_set(&self, page_bytes: u64) -> u64 {
        self.total_bytes.div_ceil(page_bytes)
    }

    /// Returns a profile whose footprint is scaled by `factor`, preserving
    /// tier proportions. Used to model e.g. heap-size scaling for managed
    /// workloads (the methodology fixes heaps at 3x the minimum).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite(), "invalid scale factor");
        let scale = |b: u64| ((b as f64 * factor).round() as u64).max(WORD);
        let hot = scale(self.hot_bytes.max(1));
        let warm = scale(self.warm_bytes.max(1));
        let total = scale(self.total_bytes).max(hot + warm);
        Self {
            hot_bytes: hot,
            warm_bytes: warm,
            total_bytes: total,
            ..*self
        }
    }

    /// An iterator of synthetic byte addresses drawn from this profile.
    ///
    /// The stream is infinite; callers take as many samples as their
    /// estimator needs. Addresses fall in `[0, footprint_bytes())` and are
    /// word-aligned.
    pub fn address_stream<'a, R: Rng64>(&self, rng: &'a mut R) -> AddressStream<'a, R> {
        AddressStream {
            profile: *self,
            cursor: self.hot_bytes + self.warm_bytes,
            rng,
        }
    }
}

/// Infinite iterator of addresses from a [`LocalityProfile`].
///
/// Produced by [`LocalityProfile::address_stream`].
#[derive(Debug)]
pub struct AddressStream<'a, R> {
    profile: LocalityProfile,
    cursor: u64,
    rng: &'a mut R,
}

impl<R: Rng64> Iterator for AddressStream<'_, R> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let p = &self.profile;
        let roll = self.rng.next_f64();
        let addr = if roll < p.hot_fraction && p.hot_bytes >= WORD {
            // Hot tier: uniform over [0, hot).
            self.rng.next_below(p.hot_bytes / WORD) * WORD
        } else if roll < p.hot_fraction + p.warm_fraction && p.warm_bytes >= WORD {
            // Warm tier: uniform over [hot, hot + warm).
            p.hot_bytes + self.rng.next_below(p.warm_bytes / WORD) * WORD
        } else {
            // Cold tier over the whole footprint.
            let cold_base = p.hot_bytes + p.warm_bytes;
            let cold_len = p.total_bytes.saturating_sub(cold_base).max(WORD);
            if self.rng.next_bool(p.pointer_chase) {
                cold_base + self.rng.next_below(cold_len / WORD) * WORD
            } else {
                let a = self.cursor;
                let mut next = a + p.stream_stride;
                if next >= p.total_bytes {
                    next = cold_base;
                }
                self.cursor = next;
                a.min(p.total_bytes - WORD)
            }
        };
        Some(addr & !(WORD - 1))
    }
}

impl AddressStream<'_, SplitMix64> {
    /// Fills `out` with the stream's next `out.len()` addresses: exactly
    /// what as many [`Iterator::next`] calls return, leaving the generator
    /// and the sequential cursor where those calls would.
    ///
    /// Every address takes the roll and a second draw, whichever tier it
    /// lands in: the second is the tier's offset, or on the cold tier the
    /// pointer-chase test. The tests compare a draw's top 53 bits with
    /// integer thresholds computed once per call, which decide exactly as
    /// `next`'s float compares do, and the tier's address is selected, not
    /// branched to. Only a cold access that passes the chase test takes a
    /// branch, for its third draw.
    pub fn fill(&mut self, out: &mut [u64]) {
        let p = self.profile;
        // A tier under one word is never picked: its threshold is zero.
        let hot_below = if p.hot_bytes >= WORD { threshold(p.hot_fraction) } else { 0 };
        let warm_below = if p.warm_bytes >= WORD {
            threshold(p.hot_fraction + p.warm_fraction)
        } else {
            0
        };
        let cold_from = hot_below.max(warm_below);
        let chase_below = threshold(p.pointer_chase.clamp(0.0, 1.0));
        let hot_words = p.hot_bytes / WORD;
        let warm_words = p.warm_bytes / WORD;
        let cold_base = p.hot_bytes + p.warm_bytes;
        let cold_words = p.total_bytes.saturating_sub(cold_base).max(WORD) / WORD;
        let last = p.total_bytes.saturating_sub(WORD);

        let mut rng = self.rng.clone();
        let mut cursor = self.cursor;
        for slot in out {
            let roll = rng.next_u64() >> 11;
            let draw = rng.next_u64();
            let hot = roll < hot_below;
            let cold = roll >= cold_from;
            let chase = cold & (draw >> 11 < chase_below);
            // A chase takes a third draw for its offset: the loop's one
            // branch, taken by a few percent of addresses. `chase` feeds
            // `sweep` below too; a condition used only here would be split
            // into a branch per test, one of them on the tier.
            let offset = if chase { rng.next_u64() } else { draw };
            // The tier is a coin flip to the branch predictor: select it.
            let (base, words) = select_unpredictable(
                hot,
                (0, hot_words),
                select_unpredictable(cold, (cold_base, cold_words), (p.hot_bytes, warm_words)),
            );
            let drawn = base + below(offset, words) * WORD;
            let sweep = cold & !chase;
            let swept = cursor.min(last);
            let mut next = cursor + p.stream_stride;
            if next >= p.total_bytes {
                next = cold_base;
            }
            cursor = select_unpredictable(sweep, next, cursor);
            let addr = select_unpredictable(sweep, swept, drawn);
            *slot = addr & !(WORD - 1);
        }
        *self.rng = rng;
        self.cursor = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn cache_resident_stays_in_bounds() {
        let p = LocalityProfile::cache_resident(4096);
        let mut rng = SplitMix64::new(1);
        for a in p.address_stream(&mut rng).take(10_000) {
            assert!(a < 4096);
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn streaming_is_sequential() {
        let p = LocalityProfile::streaming(64 * 100).with_stream_stride(64);
        let mut rng = SplitMix64::new(2);
        let addrs: Vec<u64> = p.address_stream(&mut rng).take(50).collect();
        for w in addrs.windows(2) {
            // Either advances by the stride or wraps to the base.
            assert!(w[1] == w[0] + 64 || w[1] == 0, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn hot_fraction_is_respected() {
        let hot = 1 << 10;
        let p = LocalityProfile::hierarchical(hot, 0, 1 << 20, 0.8, 0.0);
        let mut rng = SplitMix64::new(3);
        let n = 100_000;
        let in_hot = p
            .address_stream(&mut rng)
            .take(n)
            .filter(|&a| a < hot)
            .count();
        let frac = in_hot as f64 / n as f64;
        // Cold streaming also passes through low addresses occasionally is
        // impossible here: cold tier starts at hot_bytes. So frac ~ 0.8.
        assert!((frac - 0.8).abs() < 0.01, "hot fraction = {frac}");
    }

    #[test]
    fn warm_tier_occupies_middle_range() {
        let p = LocalityProfile::hierarchical(1024, 2048, 1 << 16, 0.5, 0.4);
        let mut rng = SplitMix64::new(4);
        let n = 50_000;
        let warm = p
            .address_stream(&mut rng)
            .take(n)
            .filter(|&a| (1024..1024 + 2048).contains(&a))
            .count();
        let frac = warm as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.02, "warm fraction = {frac}");
    }

    #[test]
    fn pointer_chasing_is_not_sequential() {
        let p = LocalityProfile::pointer_chasing(1 << 20);
        let mut rng = SplitMix64::new(5);
        let addrs: Vec<u64> = p.address_stream(&mut rng).take(1000).collect();
        let sequential = addrs
            .windows(2)
            .filter(|w| w[1] == w[0] + 64)
            .count();
        assert!(sequential < 10, "{sequential} sequential pairs in a chase");
    }

    #[test]
    fn addresses_always_within_footprint() {
        let p = LocalityProfile::hierarchical(4096, 8192, 1 << 18, 0.6, 0.3)
            .with_pointer_chase(0.5)
            .with_stream_stride(128);
        let mut rng = SplitMix64::new(6);
        for a in p.address_stream(&mut rng).take(100_000) {
            assert!(a < (1 << 18), "address {a} escaped footprint");
        }
    }

    #[test]
    fn page_working_set_rounds_up() {
        let p = LocalityProfile::streaming(4096 * 3 + 1);
        assert_eq!(p.page_working_set(4096), 4);
        assert_eq!(LocalityProfile::streaming(4096).page_working_set(4096), 1);
    }

    #[test]
    fn scaling_preserves_structure() {
        let p = LocalityProfile::hierarchical(1024, 2048, 8192, 0.5, 0.3);
        let s = p.scaled(2.0);
        assert_eq!(s.hot_bytes(), 2048);
        assert_eq!(s.warm_bytes(), 4096);
        assert_eq!(s.footprint_bytes(), 16384);
        assert_eq!(s.hot_fraction(), 0.5);
        // Scaling down never produces a zero-sized footprint.
        let tiny = p.scaled(1e-9);
        assert!(tiny.footprint_bytes() >= 8);
    }

    #[test]
    fn accessors() {
        let p = LocalityProfile::hierarchical(1, 2, 10, 0.1, 0.2)
            .with_pointer_chase(0.7);
        assert_eq!(p.hot_bytes(), 1);
        assert_eq!(p.warm_bytes(), 2);
        assert_eq!(p.hot_fraction(), 0.1);
        assert_eq!(p.warm_fraction(), 0.2);
        assert_eq!(p.pointer_chase(), 0.7);
        assert_eq!(p.stream_stride(), 64);
        assert_eq!(p.with_stream_stride(8).stream_stride(), 8);
    }

    #[test]
    #[should_panic(expected = "exceed footprint")]
    fn oversized_tiers_panic() {
        let _ = LocalityProfile::hierarchical(100, 100, 150, 0.5, 0.3);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_footprint_panics() {
        let _ = LocalityProfile::streaming(0);
    }

    #[test]
    #[should_panic(expected = "fractions out of range")]
    fn overfull_fractions_panic() {
        let _ = LocalityProfile::hierarchical(10, 10, 100, 0.7, 0.7);
    }

    /// Draws `x`, every time.
    struct Fixed(u64);

    impl Rng64 for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn thresholds_decide_exactly_as_next_f64_does() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut ts = vec![0.0, -0.0, -1.0, f64::NAN, 5e-324, 0.35, 0.7, 1.0 - ulp, 1.0, 1.0 + 1e-9];
        for k in [1u64, 2, 3, 1 << 20, (1 << 52) - 1, 1 << 52, (1 << 52) + 1, (1 << 53) - 1] {
            let t = k as f64 * ulp;
            assert_eq!(threshold(t), k, "t = {k} * 2^-53");
            ts.extend([t, t.next_up(), t.next_down()]);
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(1.0 - ulp), (1 << 53) - 1);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(1.0 + 1e-9), 1 << 53);
        for t in ts {
            let limit = threshold(t);
            assert!(limit <= 1 << 53, "t {t:e}: threshold {limit}");
            let mut probes = vec![0, (1 << 53) - 1];
            probes.extend(limit.checked_sub(1));
            probes.extend((limit < 1 << 53).then_some(limit));
            for top in probes {
                // The low 11 bits never reach `next_f64`.
                for low in [0, 0x7ff] {
                    assert_eq!(
                        Fixed(top << 11 | low).next_f64() < t,
                        top < limit,
                        "t {t:e}, x >> 11 = {top}, threshold {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn fill_matches_next_on_every_tier_and_block_split() {
        let profiles = [
            LocalityProfile::hierarchical(4096, 8192, 1 << 18, 0.6, 0.3)
                .with_pointer_chase(0.5)
                .with_stream_stride(128),
            LocalityProfile::cache_resident(4096),
            LocalityProfile::streaming(64 * 100),
            LocalityProfile::pointer_chasing(1 << 20),
            LocalityProfile::hierarchical(5, 3, 100, 0.5, 0.5),
        ];
        for (n, profile) in profiles.iter().enumerate() {
            let mut by_next = SplitMix64::new(n as u64);
            let expected: Vec<u64> = profile.address_stream(&mut by_next).take(1027).collect();
            let mut by_fill = SplitMix64::new(n as u64);
            let mut got = vec![0; 1027];
            let mut stream = profile.address_stream(&mut by_fill);
            let (a, rest) = got.split_at_mut(1);
            let (b, c) = rest.split_at_mut(769);
            for block in [a, b, c] {
                stream.fill(block);
            }
            assert_eq!(got, expected, "{profile:?}");
            assert_eq!(by_fill, by_next, "{profile:?}");
        }
    }

    #[test]
    fn determinism() {
        let p = LocalityProfile::hierarchical(4096, 0, 1 << 16, 0.9, 0.0);
        let mut r1 = SplitMix64::new(42);
        let mut r2 = SplitMix64::new(42);
        let a: Vec<u64> = p.address_stream(&mut r1).take(256).collect();
        let b: Vec<u64> = p.address_stream(&mut r2).take(256).collect();
        assert_eq!(a, b);
    }
}
