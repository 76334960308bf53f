//! The per-layer perf suite behind PERF.md: six criterion groups, one
//! per pipeline layer, mirroring `lhr_bench::perfjson::collect`
//! one-to-one so a drift flagged in a committed `BENCH_*.json` snapshot
//! can be localized interactively with
//! `cargo bench -p lhr-bench --bench perf -- <group>`.
//!
//! Every group follows the APAS benchmark rules: 300 ms warm-up, 1 s
//! measurement target, 30 samples, so each bench stays within ~1.3 s and
//! the whole file inside 10 s. IDs are unique across the benches tree
//! (`simulator.rs` and `experiments.rs` use different names).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use lhr_core::Runner;
use lhr_power::{
    ActivityCounters, EnergyModel, NodeScaling, PowerMeters, PowerWaveform, Structure,
};
use lhr_sensors::MeasurementRig;
use lhr_uarch::{phase_performance, ChipConfig, Environment, MissRateEstimator, ProcessorId};
use lhr_units::{Seconds, Watts};
use lhr_workloads::by_name;

/// Applies the APAS knobs shared by every group in this file.
fn apas(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(30);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_gen");
    apas(&mut group);
    let xalan = by_name("xalan").unwrap();
    group.bench_function("xalan_software_threads", |b| {
        b.iter(|| std::hint::black_box(xalan.software_threads(8)));
    });
    group.finish();
}

fn bench_interval_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_core");
    apas(&mut group);
    let spec = ProcessorId::CoreI7_920.spec();
    let jess = by_name("jess").unwrap();
    let phases = jess.trace().phases().to_vec();
    let estimator = MissRateEstimator::global();
    let base = Environment::solo(spec, spec.base_clock);
    let envs: Vec<Environment> = (0..8u32)
        .map(|i| Environment {
            private_cache_share: if i % 2 == 0 { 1.0 } else { spec.core.smt_cache_share },
            llc_bytes_eff: spec.mem.last_level_bytes() / (1 + u64::from(i) % 4),
            displacement: 1.0 + 0.2 * f64::from(i % 3),
            ..base
        })
        .collect();
    group.bench_function("jess_phase_sweep", |b| {
        b.iter(|| {
            for phase in &phases {
                for env in &envs {
                    std::hint::black_box(phase_performance(spec, phase, env, estimator));
                }
            }
        });
    });
    group.finish();
}

fn bench_energy_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("energy_integration");
    apas(&mut group);
    let spec = ProcessorId::CoreI7_920.spec();
    let model = EnergyModel::new(spec.power.events, NodeScaling::default());
    let node = spec.node;
    let v = spec.voltage_at(spec.base_clock);
    let slice = Seconds::new(1e-3);
    group.bench_function("i7_slice_metering", |b| {
        b.iter(|| {
            let mut meters = PowerMeters::new();
            let mut waveform = PowerWaveform::new(slice);
            for k in 0..256u64 {
                let core = ActivityCounters {
                    instructions: 1_000 + k,
                    int_ops: 600,
                    fp_ops: 50,
                    l1_accesses: 400,
                    l2_accesses: 40,
                    branches: 180,
                    branch_flushes: 9,
                    tlb_misses: 2,
                    ..ActivityCounters::default()
                };
                let llc = ActivityCounters {
                    llc_accesses: 30 + k % 7,
                    ..ActivityCounters::default()
                };
                let dram = ActivityCounters {
                    dram_accesses: 10 + k % 5,
                    ..ActivityCounters::default()
                };
                let e_core = model.dynamic_energy_with_activity(&core, node, v, 0.9);
                let e_llc = model.dynamic_energy_with_activity(&llc, node, v, 0.9);
                let e_dram = model.dynamic_energy_with_activity(&dram, node, v, 0.9);
                meters.add(Structure::Core(0), e_core);
                meters.add(Structure::Llc, e_llc);
                meters.add(Structure::MemoryInterface, e_dram);
                waveform.push((e_core + e_llc + e_dram) / slice);
            }
            std::hint::black_box((meters.total_energy(), waveform.average_power()));
        });
    });
    group.finish();
}

fn bench_adc_sensor(c: &mut Criterion) {
    let mut group = c.benchmark_group("adc_sensor");
    apas(&mut group);
    let mut rig = MeasurementRig::for_max_power(Watts::new(65.0), 42).unwrap();
    let waveforms: Vec<PowerWaveform> = (0..3u32)
        .map(|j| {
            let mut waveform = PowerWaveform::new(Seconds::from_ms(20.0));
            for i in 0..500u32 {
                waveform.push(Watts::new(26.0 + 6.0 * f64::from((i + j) % 8)));
            }
            waveform
        })
        .collect();
    group.bench_function("rig_measure_10s", |b| {
        b.iter(|| std::hint::black_box(rig.try_measure(&waveforms[0], 1).unwrap()));
    });
    let batch: Vec<&PowerWaveform> = waveforms.iter().collect();
    group.bench_function("rig_batch3_10s", |b| {
        b.iter(|| std::hint::black_box(rig.measure_batch(&batch)));
    });
    group.finish();
}

fn bench_cell_e2e(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell_e2e");
    apas(&mut group);
    let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
    let jess = by_name("jess").unwrap();
    group.bench_function("fast_cell_jess_c2d", |b| {
        b.iter(|| {
            let runner = Runner::fast();
            std::hint::black_box(runner.try_measure(&config, jess).unwrap());
        });
    });
    group.finish();
}

fn bench_serve_cache_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_cache_hit");
    apas(&mut group);
    let config = ChipConfig::stock(ProcessorId::Core2DuoE6600.spec());
    let jess = by_name("jess").unwrap();
    let runner = Runner::fast();
    let _ = runner.try_measure(&config, jess).unwrap();
    group.bench_function("warm_cell_jess_c2d", |b| {
        b.iter(|| std::hint::black_box(runner.try_measure(&config, jess).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_gen,
    bench_interval_core,
    bench_energy_integration,
    bench_adc_sensor,
    bench_cell_e2e,
    bench_serve_cache_hit
);
criterion_main!(benches);
