//! Criterion benches for the simulator primitives: cache access, miss-rate
//! estimation, interval evaluation, a full chip run, and the sensing rig.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use lhr_sensors::MeasurementRig;
use lhr_trace::{LocalityProfile, SplitMix64};
use lhr_uarch::{
    phase_performance, Cache, CacheGeometry, ChipConfig, ChipSimulator, Environment,
    MissRateEstimator, ProcessorId,
};
use lhr_units::Watts;
use lhr_workloads::by_name;

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.sample_size(30);
    let profile = LocalityProfile::hierarchical(32 << 10, 256 << 10, 4 << 20, 0.7, 0.2);
    group.bench_function("lru_32k_access_stream_4k", |b| {
        let mut rng = SplitMix64::new(1);
        let addrs: Vec<u64> = profile.address_stream(&mut rng).take(4096).collect();
        b.iter_batched(
            || Cache::new(CacheGeometry::new(32 << 10, 8, 64)),
            |mut cache| {
                for &a in &addrs {
                    std::hint::black_box(cache.access(a));
                }
                cache
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("miss_rate_estimation_cold", |b| {
        let mut salt = 0u64;
        b.iter(|| {
            // Vary the profile so memoization does not short-circuit.
            salt += 1;
            let p = LocalityProfile::hierarchical(
                32 << 10,
                256 << 10,
                (4 << 20) + salt * 4096,
                0.7,
                0.2,
            );
            let est = MissRateEstimator::new();
            std::hint::black_box(est.global_miss_rate(&p, 256 << 10))
        });
    });
    group.finish();
}

fn bench_interval_model(c: &mut Criterion) {
    let spec = ProcessorId::CoreI7_920.spec();
    let w = by_name("gcc").unwrap();
    let phase = &w.trace().phases()[0];
    let est = MissRateEstimator::new();
    // Warm the memo so we measure the analytical evaluation itself.
    let env = Environment::solo(spec, spec.base_clock);
    let _ = phase_performance(spec, phase, &env, &est);
    c.bench_function("interval_phase_performance_warm", |b| {
        b.iter(|| std::hint::black_box(phase_performance(spec, phase, &env, &est)));
    });
}

fn bench_chip_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("chip");
    group.sample_size(10);
    let sim = ChipSimulator::new().with_target_slices(200);
    let mut jess = by_name("jess").unwrap().clone();
    jess.scale_trace(0.2);
    let i7 = ChipConfig::stock(ProcessorId::CoreI7_920.spec());
    group.bench_function("run_jess_on_i7_200_slices", |b| {
        b.iter(|| std::hint::black_box(sim.run(&i7, &jess, 1)));
    });
    let mut sunflow = by_name("sunflow").unwrap().clone();
    sunflow.scale_trace(0.05);
    group.bench_function("run_sunflow_8_contexts", |b| {
        b.iter(|| std::hint::black_box(sim.run(&i7, &sunflow, 1)));
    });
    group.finish();
}

fn bench_sensing(c: &mut Criterion) {
    let sim = ChipSimulator::new().with_target_slices(200);
    let mut w = by_name("jess").unwrap().clone();
    w.scale_trace(0.2);
    let cfg = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
    let run = sim.run(&cfg, &w, 1);
    let mut rig = MeasurementRig::for_max_power(Watts::new(65.0), 7).unwrap();
    c.bench_function("rig_measure_waveform", |b| {
        b.iter(|| std::hint::black_box(rig.try_measure(&run.waveform, 1).unwrap()));
    });
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_interval_model,
    bench_chip_run,
    bench_sensing
);
criterion_main!(benches);
