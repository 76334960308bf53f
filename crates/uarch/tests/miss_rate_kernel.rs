//! Property test pinning the miss-rate estimator's kernel to its
//! `Cache`-driven oracle.
//!
//! `MissRateEstimator` runs the sampled address stream through a private
//! recency-ordered 8-way array; `simulate_miss_rate_reference` runs the
//! same stream through the general `Cache`. The property is equality of
//! the two miss rates' bits across random locality profiles (hot and
//! warm tiers under one word, tier fractions at exactly 0 and 1, any
//! pointer-chase share, strides from one word to a page) and random
//! capacities (under one set, set counts that are not powers of two,
//! exactly the largest unscaled array, and beyond it, where the profile
//! is scaled down).

use proptest::prelude::*;

use lhr_trace::LocalityProfile;
use lhr_uarch::{simulate_miss_rate_reference, MissRateEstimator};

/// A tier size: under one word, cache-sized, or memory-sized.
fn tier(kind: usize, raw: u64) -> u64 {
    match kind {
        0 => raw % 8,
        1 => raw % (96 << 10),
        _ => raw % (8 << 20),
    }
}

/// A fraction pinned to 0 or `max`, or drawn inside `[0, max]`.
fn fraction(kind: usize, unit: f64, max: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => max,
        _ => unit * max,
    }
}

/// A capacity in one of the shapes the estimator treats differently.
fn capacity(kind: usize, raw: u64) -> u64 {
    const SET: u64 = 8 * 64;
    match kind {
        // Under one 8-way set: rounded up to a single set.
        0 => 1 + raw % (SET - 1),
        // A set count that is not a power of two, plus a ragged tail.
        1 => {
            let sets = 3 + raw % 4093;
            let sets = if sets.is_power_of_two() { sets + 1 } else { sets };
            sets * SET + raw % SET
        }
        // The largest array simulated without scaling.
        2 => 256 << 10,
        // Bigger caches: the profile is scaled down with the capacity.
        _ => (256 << 10) + 1 + raw % (64 << 20),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kernel_miss_rate_equals_the_cache_reference(
        tiers in (0usize..3, 0usize..3, 0usize..3),
        sizes in (any::<u64>(), any::<u64>(), any::<u64>()),
        fractions in (0usize..3, 0usize..3, 0.0f64..1.0, 0.0f64..1.0),
        chase in (0usize..3, 0.0f64..1.0),
        stride in 8u64..4097,
        cap in (0usize..4, any::<u64>()),
    ) {
        let hot = tier(tiers.0, sizes.0);
        let warm = tier(tiers.1, sizes.1);
        // The footprint holds at least one word: the stream's sequential
        // sweep clamps to its last word.
        let total = (hot + warm + tier(tiers.2, sizes.2)).max(8);
        let hot_fraction = fraction(fractions.0, fractions.2, 1.0);
        let warm_fraction = fraction(fractions.1, fractions.3, 1.0 - hot_fraction);
        let profile = LocalityProfile::hierarchical(hot, warm, total, hot_fraction, warm_fraction)
            .with_pointer_chase(fraction(chase.0, chase.1, 1.0))
            .with_stream_stride(stride);
        let capacity = capacity(cap.0, cap.1);

        let kernel = MissRateEstimator::new().global_miss_rate(&profile, capacity);
        let reference = simulate_miss_rate_reference(&profile, capacity);
        prop_assert_eq!(
            kernel.to_bits(),
            reference.to_bits(),
            "{:?} at {} bytes: kernel {} vs reference {}",
            profile,
            capacity,
            kernel,
            reference
        );
    }
}
