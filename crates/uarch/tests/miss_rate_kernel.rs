//! Property tests pinning the miss-rate estimator's kernel to its
//! oracles.
//!
//! `MissRateEstimator` generates the sampled address stream a block at a
//! time with `AddressStream::fill` and runs it through a private
//! recency-ordered 8-way array; `simulate_miss_rate_reference` takes the
//! stream one `next` at a time through the general `Cache`. The
//! properties are equality of the two miss rates' bits, and of `fill`'s
//! addresses, generator state and cursor with `next`'s, across random
//! locality profiles (hot and warm tiers under one word, tier fractions
//! at exactly 0 and 1, a hot-plus-warm sum just above 1, pointer chasing
//! at 0, 1 or between, strides from one word to a page). The kernel
//! property also draws random capacities (under one set, set counts that
//! are not powers of two, exactly the largest unscaled array, and beyond
//! it, where the profile is scaled down).

use proptest::prelude::*;

use lhr_trace::{LocalityProfile, SplitMix64};
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

/// A warm fraction beside `hot`: 0, the rest of the accesses, a share
/// of them, or just over the rest, so the two sum to a little above 1
/// (the profile allows 1e-9 over).
fn warm_fraction(kind: usize, unit: f64, hot: f64) -> f64 {
    match kind {
        3 => (1.0 - hot + unit * 5e-10).min(1.0),
        _ => fraction(kind, unit, 1.0 - hot),
    }
}

/// A locality profile from the drawn shapes and sizes.
fn profile(
    tiers: (usize, usize, usize),
    sizes: (u64, u64, u64),
    fractions: (usize, usize, f64, f64),
    chase: (usize, f64),
    stride: u64,
) -> LocalityProfile {
    let hot = tier(tiers.0, sizes.0);
    let warm = tier(tiers.1, sizes.1);
    // The footprint holds at least one word: the stream's sequential
    // sweep clamps to its last word.
    let total = (hot + warm + tier(tiers.2, sizes.2)).max(8);
    let hot_fraction = fraction(fractions.0, fractions.2, 1.0);
    let warm_fraction = warm_fraction(fractions.1, fractions.3, hot_fraction);
    LocalityProfile::hierarchical(hot, warm, total, hot_fraction, warm_fraction)
        .with_pointer_chase(fraction(chase.0, chase.1, 1.0))
        .with_stream_stride(stride)
}

/// Block lengths for splitting a stream: one address, a few, one either
/// side of the estimator's 256-address block, and longer.
const BLOCKS: [usize; 9] = [0, 1, 2, 3, 255, 256, 257, 700, 1500];

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
        fractions in (0usize..3, 0usize..4, 0.0f64..1.0, 0.0f64..1.0),
        chase in (0usize..3, 0.0f64..1.0),
        stride in 8u64..4097,
        cap in (0usize..4, any::<u64>()),
    ) {
        let profile = profile(tiers, sizes, fractions, chase, stride);
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

    #[test]
    fn fill_yields_the_iterators_addresses_state_and_cursor(
        tiers in (0usize..3, 0usize..3, 0usize..3),
        sizes in (any::<u64>(), any::<u64>(), any::<u64>()),
        fractions in (0usize..3, 0usize..4, 0.0f64..1.0, 0.0f64..1.0),
        chase in (0usize..3, 0.0f64..1.0),
        stride in 8u64..4097,
        splits in proptest::collection::vec(0usize..BLOCKS.len(), 1..10),
        prefix in 0usize..4,
        seed in any::<u64>(),
    ) {
        let profile = profile(tiers, sizes, fractions, chase, stride);
        let blocks: Vec<usize> = splits.iter().map(|&k| BLOCKS[k]).collect();
        let total: usize = blocks.iter().sum();

        // A few `next` calls, then the blocks through `fill`, then more
        // `next` calls, against `next` all the way.
        let mut by_next = SplitMix64::new(seed);
        let mut by_fill = SplitMix64::new(seed);
        let expected: Vec<u64> =
            profile.address_stream(&mut by_next).take(prefix + total).collect();
        let mut got = vec![0; prefix + total];
        {
            let mut stream = profile.address_stream(&mut by_fill);
            for slot in &mut got[..prefix] {
                *slot = stream.next().expect("address streams are infinite");
            }
            let mut at = prefix;
            for &len in &blocks {
                stream.fill(&mut got[at..at + len]);
                at += len;
            }
        }
        prop_assert_eq!(&got, &expected, "{:?} split {:?}", profile, blocks);
        // The generator stands where `next` leaves it.
        prop_assert_eq!(&by_fill, &by_next, "{:?} split {:?}", profile, blocks);

        // And the cursor too: the addresses that follow the blocks agree.
        let mut by_next = SplitMix64::new(seed);
        let mut by_fill = SplitMix64::new(seed);
        let expected: Vec<u64> =
            profile.address_stream(&mut by_next).take(total + 300).collect();
        let mut stream = profile.address_stream(&mut by_fill);
        let mut got = vec![0; total];
        let mut at = 0;
        for &len in &blocks {
            stream.fill(&mut got[at..at + len]);
            at += len;
        }
        got.extend(stream.take(300));
        prop_assert_eq!(got, expected, "{:?} split {:?}", profile, blocks);
    }
}
