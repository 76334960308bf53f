//! Property-based tests on the core data structures and invariants,
//! spanning crates.

use proptest::prelude::*;

use lhr::stats::{pareto_frontier, Dominance, ParetoPoint, Summary};
use lhr::trace::{InstructionMix, LocalityProfile, Rng64, SplitMix64};
use lhr::uarch::{Cache, CacheGeometry, MissRateEstimator, Tlb};
use lhr::units::{Joules, Seconds, Watts};

proptest! {
    /// Power x time = energy, and energy / time = power, for any values.
    #[test]
    fn units_power_energy_algebra(p in 0.01f64..1e4, t in 0.01f64..1e6) {
        let e: Joules = Watts::new(p) * Seconds::new(t);
        let back = e / Seconds::new(t);
        prop_assert!((back.value() - p).abs() / p < 1e-12);
        let t_back = e / Watts::new(p);
        prop_assert!((t_back.value() - t).abs() / t < 1e-12);
    }

    /// Summaries bound their mean by their extremes and keep CI >= 0.
    #[test]
    fn summary_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..64)) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.ci95_halfwidth() >= 0.0);
        prop_assert!(s.stddev() >= 0.0);
    }

    /// No Pareto frontier member is dominated by any point in the set.
    #[test]
    fn pareto_frontier_members_are_undominated(
        pts in proptest::collection::vec((0.01f64..100.0, 0.01f64..100.0), 1..64)
    ) {
        let points: Vec<ParetoPoint> =
            pts.iter().map(|&(p, c)| ParetoPoint::new(p, c)).collect();
        let frontier = pareto_frontier(&points);
        prop_assert!(!frontier.is_empty());
        for &i in &frontier {
            for p in &points {
                prop_assert_ne!(
                    p.dominance(&points[i]),
                    Dominance::Dominates,
                    "frontier member {} is dominated", i
                );
            }
        }
    }

    /// Instruction-mix class counts always sum exactly to n.
    #[test]
    fn mix_counts_partition(n in 0u64..10_000_000) {
        for mix in [InstructionMix::typical_int(), InstructionMix::typical_fp()] {
            let total: u64 = mix.counts_for(n).iter().map(|&(_, k)| k).sum();
            prop_assert_eq!(total, n);
        }
    }

    /// Address streams never escape the declared footprint and are always
    /// word-aligned, for arbitrary tier structures.
    #[test]
    fn address_streams_stay_in_bounds(
        hot_kb in 1u64..128,
        warm_kb in 0u64..1024,
        extra_kb in 1u64..4096,
        hf in 0.0f64..0.9,
        wf in 0.0f64..0.1,
        pc in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let hot = hot_kb << 10;
        let warm = warm_kb << 10;
        let total = hot + warm + (extra_kb << 10);
        let profile = LocalityProfile::hierarchical(hot, warm, total, hf, wf)
            .with_pointer_chase(pc);
        let mut rng = SplitMix64::new(seed);
        for addr in profile.address_stream(&mut rng).take(2_000) {
            prop_assert!(addr < total);
            prop_assert_eq!(addr % 8, 0);
        }
    }

    /// Cache miss rates are probabilities, and a cache twice the size never
    /// misses (meaningfully) more.
    #[test]
    fn cache_miss_rates_are_sane(
        ws_kb in 4u64..2048,
        cap_kb in 4u64..512,
        pc in 0.0f64..1.0,
    ) {
        let profile = LocalityProfile::hierarchical(
            (ws_kb << 10) / 4, 0, ws_kb << 10, 0.5, 0.0,
        ).with_pointer_chase(pc);
        let est = MissRateEstimator::new();
        let small = est.global_miss_rate(&profile, cap_kb << 10);
        let big = est.global_miss_rate(&profile, (cap_kb << 10) * 2);
        prop_assert!((0.0..=1.0).contains(&small));
        prop_assert!((0.0..=1.0).contains(&big));
        // Sampling noise allowance.
        prop_assert!(big <= small + 0.05, "big {} vs small {}", big, small);
    }

    /// A concrete LRU cache conserves accesses: hits + misses = accesses,
    /// and re-running the same short stream entirely hits.
    #[test]
    fn cache_access_accounting(seed in any::<u64>()) {
        let mut cache = Cache::new(CacheGeometry::new(16 << 10, 4, 64));
        let mut rng = SplitMix64::new(seed);
        // A stream small enough to be fully resident (32 lines).
        let addrs: Vec<u64> = (0..32).map(|_| rng.next_below(32) * 64).collect();
        for &a in &addrs {
            cache.access(a);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), addrs.len() as u64);
        cache.reset_stats();
        for &a in &addrs {
            prop_assert!(cache.access(a), "resident line missed");
        }
    }

    /// TLB miss rates are probabilities and shrink with reach.
    #[test]
    fn tlb_rates_are_probabilities(
        footprint_mb in 1u64..512,
        entries in 8usize..1024,
    ) {
        let profile = LocalityProfile::pointer_chasing(footprint_mb << 20);
        let small = Tlb::new(entries, 4096).miss_rate(&profile);
        let big = Tlb::new(entries * 2, 4096).miss_rate(&profile);
        prop_assert!((0.0..=1.0).contains(&small));
        prop_assert!(big <= small + 1e-9);
    }
}

proptest! {
    /// A channel clipped to the paper's analog band can only ever produce
    /// ADC codes inside the paper's observed 400..=503 window, no matter
    /// what voltage the sensor asks for, how far the channel has drifted,
    /// or which per-run transients fire.
    #[test]
    fn saturated_channel_codes_stay_in_the_paper_band(
        v in -1.0f64..6.0,
        uptime in 0.0f64..5_000.0,
        gain in -0.01f64..0.01,
        offset in -0.005f64..0.005,
        plan_seed in any::<u64>(),
        run_seed in any::<u64>(),
    ) {
        use lhr::sensors::faults::{Drift, FaultInjector, FaultPlan, Saturation};
        use lhr::sensors::Adc;
        use lhr::units::Volts;

        let plan = FaultPlan::new(plan_seed)
            .with_saturation(Saturation::paper_band())
            .with_drift(Drift::new(gain, offset));
        let mut injector = FaultInjector::new(plan);
        injector.advance(uptime);
        let adc = Adc::avr_10bit();
        // The settled (drift + clip) transfer...
        let settled = adc.quantize(injector.settled_volts(Volts::new(v)));
        prop_assert!((400..=503).contains(&settled), "settled code {}", settled);
        // ...and a full per-run session on top of it.
        let session = injector.session(run_seed);
        let code = session.code(adc.quantize(session.volts(Volts::new(v))));
        prop_assert!((400..=503).contains(&code), "session code {}", code);
    }

    /// Quality accounting is consistent for any log the rig could emit:
    /// yield is a probability, logged + gaps partition the slots, and the
    /// saturation fraction is a probability.
    #[test]
    fn quality_report_invariants(
        slots in proptest::collection::vec((0u16..1024, any::<bool>()), 1..400),
        drift in 0.0f64..10.0,
    ) {
        use lhr::sensors::QualityReport;
        let log: Vec<Option<u16>> =
            slots.iter().map(|&(c, keep)| keep.then_some(c)).collect();
        let q = QualityReport::from_log(&log, drift);
        let dropped = log.iter().filter(|s| s.is_none()).count();
        prop_assert_eq!(q.expected_samples, log.len());
        prop_assert!(q.sample_yield >= 0.0 && q.sample_yield <= 1.0);
        prop_assert_eq!(q.logged_samples, log.len() - dropped);
        // Gaps are contiguous runs of drops: at least one gap iff any
        // sample dropped, and never more gaps than dropped samples.
        prop_assert_eq!(q.gap_count > 0, dropped > 0);
        prop_assert!(q.gap_count <= dropped);
        prop_assert!((0.0..=1.0).contains(&q.saturated_fraction));
        prop_assert!((q.drift_codes - drift).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An armed-but-empty fault plan is the identity: for any device and
    /// plan seed, the validating path reproduces the legacy measurement
    /// bit for bit.
    #[test]
    fn no_fault_plan_reproduces_the_baseline_exactly(
        device_seed in any::<u64>(),
        plan_seed in any::<u64>(),
        run_seed in any::<u64>(),
        power in 5.0f64..45.0,
    ) {
        use lhr::power::PowerWaveform;
        use lhr::sensors::faults::FaultPlan;
        use lhr::sensors::MeasurementRig;

        let mut w = PowerWaveform::new(Seconds::from_ms(20.0));
        for _ in 0..200 {
            w.push(Watts::new(power));
        }
        let rig = MeasurementRig::for_max_power(Watts::new(50.0), device_seed)
            .expect("calibration converges");
        let (baseline, _) = rig.measure_reference(&w);
        let mut armed = rig.with_fault_plan(FaultPlan::new(plan_seed));
        let validated = armed.try_measure(&w, run_seed).expect("clean channel accepts");
        prop_assert_eq!(baseline, validated);
    }

    /// The runner's fence and retry machinery respects its budget: a
    /// measurement either converges with at most `budget` retries or
    /// fails with a typed budget/sensor error -- never a panic.
    #[test]
    fn retries_never_exceed_the_budget(
        plan_seed in any::<u64>(),
        spike_p in 0.05f64..0.6,
        budget in 1usize..6,
    ) {
        use lhr::core::{MeasureErrorKind, Runner};
        use lhr::sensors::faults::{FaultPlan, Spikes};
        use lhr::uarch::{ChipConfig, ProcessorId};

        let plan = FaultPlan::new(plan_seed).with_spikes(Spikes {
            per_run_probability: spike_p,
            magnitude_v: -0.15,
        });
        let runner = Runner::fast()
            .with_invocations(3)
            .with_retry_budget(budget)
            .with_fault_plan(ProcessorId::Core2DuoE6600, plan);
        let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
        let w = lhr::workloads::by_name("hmmer").expect("catalog benchmark");
        match runner.try_measure(&config, w) {
            Ok((_, health)) => {
                prop_assert!(health.retries <= budget, "retries {} > budget {}", health.retries, budget);
                prop_assert!(health.rejected_outliers <= health.retries);
            }
            Err(e) => prop_assert!(
                matches!(
                    e.kind,
                    MeasureErrorKind::RetryBudgetExhausted { .. } | MeasureErrorKind::Sensor(_)
                ),
                "unexpected failure kind: {}", e
            ),
        }
    }

    /// For any benchmark, energy is conserved through the whole simulator
    /// and scaling a trace down never changes measured power by much
    /// (power is rate-based; time scales instead).
    #[test]
    fn simulation_scaling_invariant(idx in 0usize..61) {
        use lhr::uarch::{ChipConfig, ChipSimulator, ProcessorId};
        let w = &lhr::workloads::catalog()[idx];
        let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
        let sim = ChipSimulator::new().with_target_slices(48);
        let mut short = w.clone();
        short.scale_trace(0.002);
        let mut longer = w.clone();
        longer.scale_trace(0.004);
        let a = sim.run(&config, &short, 9);
        let b = sim.run(&config, &longer, 9);
        // Time roughly doubles...
        let ratio = b.time.value() / a.time.value();
        prop_assert!((1.6..=2.4).contains(&ratio), "time ratio {}", ratio);
        // ...while average power stays put.
        let p_ratio = b.average_power().value() / a.average_power().value();
        prop_assert!((0.9..=1.1).contains(&p_ratio), "power ratio {}", p_ratio);
    }

    /// The log-bucketed quantile sketch behind the observability layer
    /// (48 buckets per decade) keeps every quantile within one bucket
    /// width of the exact order statistic: relative error under
    /// 10^(1/48) - 1 (about 4.9%), with the extremes exact.
    #[test]
    fn histogram_sketch_quantile_error_is_bounded(
        values in proptest::collection::vec(1e-6f64..1e6, 1..256),
        q in 0.0f64..1.0,
    ) {
        use lhr_obs::{MemoryRecorder, Obs};
        use std::sync::Arc;

        let recorder = Arc::new(MemoryRecorder::default());
        let obs = Obs::recording(recorder.clone());
        for &v in &values {
            obs.histogram("sketch.probe", v);
        }
        let snap = recorder.snapshot();
        let hist = &snap.histograms["sketch.probe"];

        // The exact order statistic under the sketch's own rank rule.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];

        let bound = 10f64.powf(1.0 / 48.0) - 1.0; // one bucket width
        for (q, exact) in [(q, exact), (0.0, sorted[0]), (1.0, sorted[sorted.len() - 1])] {
            let estimate = hist.quantile(q);
            let rel = (estimate - exact).abs() / exact;
            prop_assert!(
                rel <= bound + 1e-12,
                "q={} exact={} estimate={} rel={} > bound={}",
                q, exact, estimate, rel, bound
            );
        }
        // The extremes are exact, not just bounded.
        prop_assert_eq!(hist.quantile(0.0), sorted[0]);
        prop_assert_eq!(hist.quantile(1.0), sorted[sorted.len() - 1]);
    }
}
